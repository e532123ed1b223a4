"""Baseline projection estimator with k = O(1/eps^2) binary hashes.

Each member i contributes x_i[j] = HAM(h_i(text window j), h_i(pattern)); the
estimate is 2/k * sum_i x_i, which is the integer m - C[j] for the signed
signature matches C of the family (_sketch). One execution succeeds per
window with constant probability, so the profile runs a per-window median
over `reps` executions.

At its own k this is approx's estimator with no D': all executions, each with
its own family, are one call of _sketch.execution_estimates with no
correction. The _sketch docstring gives the FFT cost of their matches. k
stays within the family cap 2^62 (hashing.MAX_FAMILY_SIZE), so epsilon must
be at least sqrt(2 / 2^62), about 6.6e-10.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._sketch import check_epsilon, execution_estimates, family_size, median_profile, resolve_reps
from .hashing import MAX_FAMILY_SIZE
from .text_model import DistanceProfile, IntString


@dataclass(frozen=True)
class KarloffParams:
    epsilon: float
    k: int
    reps: int
    seed: int


def karloff_params(epsilon: float, seed: int, n: int, reps: int | None = None) -> KarloffParams:
    """k = ceil(2/eps^2) rounded up to a power of two; reps defaults to ceil(2*log2 n)."""
    check_epsilon(epsilon)
    # k <= MAX_FAMILY_SIZE iff 2/eps^2 <= MAX_FAMILY_SIZE, with no division
    # that an eps^2 of 0.0 would break
    if epsilon * epsilon < 2.0 / MAX_FAMILY_SIZE:
        least = (2.0 / MAX_FAMILY_SIZE) ** 0.5
        raise ValueError(f"epsilon {epsilon} too small; need epsilon >= {least:.3g}")
    k = family_size(2.0 / (epsilon * epsilon))
    return KarloffParams(epsilon=epsilon, k=k, reps=resolve_reps(reps, n), seed=seed)


def karloff_profile(
    text: IntString,
    pattern: IntString,
    params: KarloffParams,
) -> DistanceProfile:
    """Per-window median over params.reps independent executions, computed
    together: their signed matches share the occurring symbols, one base-bit
    evaluation and the smaller side's indicator spectra."""
    runs = execution_estimates(text, pattern, params.k, params.seed, range(params.reps))
    return median_profile(runs)
