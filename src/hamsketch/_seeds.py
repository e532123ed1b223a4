"""Deterministic 64-bit seed derivation.

All randomness in this package is derived from explicit integer seeds
through a fixed splitmix64 chain, so identical seeds give identical
results across runs, platforms, and thread counts.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1

_GAMMA = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB

# Role constants keep unrelated draws on disjoint streams.
ROLE_BASE_HASH = 0x01
ROLE_PROJECTION = 0x02  # the projection ladder, kept by the tests as a reference
ROLE_EXECUTION = 0x03
ROLE_FAMILY = 0x04
ROLE_TEXT = 0x05
ROLE_PATTERN = 0x06
ROLE_PLANT = 0x07


def splitmix64(x: int) -> int:
    """One step of the splitmix64 output function (with gamma increment)."""
    x = (x + _GAMMA) & MASK64
    z = x
    z = ((z ^ (z >> 30)) * _MUL1) & MASK64
    z = ((z ^ (z >> 27)) * _MUL2) & MASK64
    return z ^ (z >> 31)


def mix(seed: int, *parts: int) -> int:
    """Fold integer tags into a seed, one splitmix64 step per tag."""
    h = seed & MASK64
    for p in parts:
        h = splitmix64(h ^ (p & MASK64))
    return h


def u64_stream(seed: int, count: int) -> list[int]:
    """First `count` values of the splitmix64 chain started at `seed`."""
    out = []
    h = seed & MASK64
    for _ in range(count):
        h = splitmix64(h)
        out.append(h)
    return out


def splitmix64_array(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 over a uint64 array; matches splitmix64 exactly."""
    x = x.astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        x += np.uint64(_GAMMA)
        z = x
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MUL1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MUL2)
        return z ^ (z >> np.uint64(31))


def _as_u64(x):
    if isinstance(x, (int, np.integer)):
        return np.uint64(int(x) & MASK64)
    return np.asarray(x).astype(np.uint64)


def mix_array(seeds, *parts) -> np.ndarray:
    """Vectorized mix(): the seeds and every tag, integers or arrays,
    broadcast together, one splitmix64 step per tag."""
    h = _as_u64(seeds)
    for p in parts:
        h = splitmix64_array(h ^ _as_u64(p))
    return h
