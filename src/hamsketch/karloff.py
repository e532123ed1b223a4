"""Baseline projection estimator with k = O(1/eps^2) binary hashes.

Each member i contributes x_i[j] = HAM(h_i(text window j), h_i(pattern)); the
estimate is 2/k * sum_i x_i. One execution succeeds per window with constant
probability, so the profile runs a per-window median over `reps` executions.

Each execution draws its own family, and all executions are computed in one
call of _sketch.member_hamming_sums: the work they share (the occurring
symbols, the base-bit evaluation of every family, the smaller side's
indicator spectra) is done once. With s and L the symbols occurring on the
smaller and on the other side, the symbol-pair route (s <= k) costs
s + L + reps FFTs when L <= 2 * log2(nfft): the other side's L indicator
spectra are transformed once too, and each execution's weights spectra are
one product with them. Otherwise it costs s + reps * (s + 1) FFTs, and the
per-member route reps * (2k + 1). Every row of the batched sums equals its
execution computed alone, byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._sketch import execution_families, median_profile, member_hamming_sums
from .text_model import DistanceProfile, IntString


def default_reps(n: int) -> int:
    """Outer repetition count, ceil(2*log2 n)."""
    if n < 2:
        return 1
    return math.ceil(2 * math.log2(n))


def resolve_reps(reps: int | None, n: int) -> int:
    """reps, or ceil(2*log2 n) when it is None; a count below 1 is an error."""
    if reps is None:
        return default_reps(n)
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    return reps


def check_epsilon(epsilon: float) -> None:
    if not 0 < epsilon <= 0.5:
        raise ValueError(f"epsilon must be in (0, 1/2], got {epsilon}")


@dataclass(frozen=True)
class KarloffParams:
    epsilon: float
    k: int
    reps: int
    seed: int


def karloff_params(epsilon: float, seed: int, n: int, reps: int | None = None) -> KarloffParams:
    """k = ceil(2/eps^2) rounded up to a power of two; reps defaults to ceil(2*log2 n)."""
    check_epsilon(epsilon)
    raw = math.ceil(2.0 / (epsilon * epsilon))
    k = 1 << max(1, (raw - 1).bit_length())
    return KarloffParams(epsilon=epsilon, k=k, reps=resolve_reps(reps, n), seed=seed)


def _estimates(text: IntString, pattern: IntString, params: KarloffParams, execs) -> np.ndarray:
    """(len(execs), windows) estimates 2/k * sum_i HAM_i of the executions
    execs, all computed together."""
    families = execution_families(params.k, params.seed, execs)
    return 2.0 * member_hamming_sums(text, pattern, families) / params.k


def karloff_profile(
    text: IntString,
    pattern: IntString,
    params: KarloffParams,
) -> DistanceProfile:
    """Per-window median over params.reps independent executions, computed
    together: their member sums share the occurring symbols, one base-bit
    evaluation and the smaller side's indicator spectra."""
    return median_profile(_estimates(text, pattern, params, range(params.reps)))
