"""Profile estimator with k = O(1/eps) binary hashes plus a noise correction.

The baseline needs k ~ 1/eps^2 members because collisions between distinct
symbol pairs contribute variance proportional to the full distance. Here k is
only ~ 8b/eps_eff, and the variance the smaller family leaves behind is
cancelled explicitly: for every heavy pair (u, v) in the recovered noise
matrix D', the term (2*beta_{u,v} - k) * d'_{u,v} removes the expected
contribution of that pair's collisions, where beta_{u,v} counts the family
members hashing u and v together. Per window

    delta[j] = max(0, (2 * sum_i HAM_i[j] + sum_{(u,v)} (2*beta - k) * d'[u,v]) / k)

and the profile is a per-window median over `reps` executions, each with a
fresh family. All executions share one D', recovered with execution 0's
seeds.

How an execution is computed: member i separates u from v unless it
hashes them together, so the numerator splits into the baseline's member
sums and one correction that is linear in D':

    num[j] = 2 * sum_i HAM_i[j] - sum_(u,v) (k - 2*beta(u, v)) * d'_j(u, v).

The member sums of all executions come from one call of
_sketch.member_hamming_sums, the FFT route karloff uses. The correction is
one sparse product: D' as a (windows, distinct codes) CSR matrix on its own
indptr, times the (codes, executions) weights k - 2*beta, all taken from
one base-bit evaluation over the symbols of D'. Every term is an integer
far below 2^53, so the float64 product is exact in any order and the
profile does not depend on BLAS threading.

Why one D' is enough: the correction is accurate for a window when its D'
meets the residual bound sum (d - d')^2 <= b * eps * d^2, and recovery
already runs its own ceil(2 * log2 n) repetitions per scale so that the
bound holds with high probability. The median over executions controls a
different variance, that of the O(1/eps) hash family, whose only randomness
is the family itself; redrawing D' per execution adds nothing to that. The
price is correlation: a window whose shared D' misses the bound is off in
every execution at once, where fresh D' could outvote it. This reading
follows the abstract in PAPER.md; it is not checked against the paper's full
text.

Cost: recovery builds every window's exact pair counts N_j by an O(nm)
enumeration, and sum N_j is already the exact distance, so this route cannot
beat the exact profile; it is a faithful, measured run of the estimator, not
a faster algorithm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._seeds import ROLE_EXECUTION, ROLE_RECOVERY, mix
from ._sketch import execution_families, median_profile, member_hamming_sums
from .hashing import base_bits, beta_from_bits
from .karloff import check_epsilon, resolve_reps
from .sparse_recovery import B_CONST, NoiseProfile, construct_sparse_noise, recovery_params
from .text_model import IntString


@dataclass(frozen=True)
class ApproxParams:
    epsilon: float
    epsilon_eff: float
    k: int
    reps: int
    seed: int
    recovery_reps: int | None = None


def approx_params(
    epsilon: float,
    seed: int,
    n: int,
    reps: int | None = None,
    recovery_reps: int | None = None,
) -> ApproxParams:
    """k = 8b/eps_eff rounded up to a power of two, b = 12289/16384."""
    check_epsilon(epsilon)
    if recovery_reps is not None and recovery_reps < 1:
        raise ValueError(f"recovery reps must be >= 1, got {recovery_reps}")
    eps_eff = recovery_params(epsilon, 0, reps=1).epsilon_eff
    target = 8.0 * B_CONST / eps_eff
    k = 1 << max(1, (math.ceil(target) - 1).bit_length())
    return ApproxParams(
        epsilon=epsilon,
        epsilon_eff=eps_eff,
        k=k,
        reps=resolve_reps(reps, n),
        seed=seed,
        recovery_reps=recovery_reps,
    )


def execution_numerators(
    text: IntString, pattern: IntString, noise: NoiseProfile, families
) -> np.ndarray:
    """(len(families), windows) int64 numerators 2 * sum_i HAM_i + sum
    (2*beta - k) * d' of one execution per family (all of one size k).

    The member sums come from member_hamming_sums; the correction is D'
    times the weights k - 2*beta of its distinct codes."""
    from scipy import sparse

    k, sigma = families[0].k, noise.sigma
    # the distinct codes of D' from one sort, and each entry's column
    code = noise.us.astype(np.int64) * sigma + noise.vs
    order = np.argsort(code)
    code = code[order]
    first = np.ones(code.size, dtype=bool)
    np.not_equal(code[1:], code[:-1], out=first[1:])
    col = np.empty(code.size, dtype=np.int32)
    col[order] = np.cumsum(first, dtype=np.int32) - 1
    code = code[first]
    del order, first
    # their weights k - 2*beta, from one base-bit evaluation over their symbols
    us, vs = code // sigma, code % sigma
    syms = np.union1d(us, vs)
    at_u, at_v = np.searchsorted(syms, us), np.searchsorted(syms, vs)
    beta = beta_from_bits(families, base_bits(families, syms), at_u, at_v)
    weights = (k - 2 * beta).T.astype(np.float64)
    dprime = sparse.csr_matrix(
        (noise.values.astype(np.float64), col, noise.indptr),
        shape=(noise.n_windows, code.size),
    )
    del col
    # every term is an integer below 2^53, so the float64 product is exact
    correction = (dprime @ weights).T.astype(np.int64)
    del dprime
    return 2 * member_hamming_sums(text, pattern, families) - correction


def _recover_noise(
    text: IntString, pattern: IntString, params: ApproxParams, exec_index: int
) -> NoiseProfile:
    seed_exec = mix(params.seed, ROLE_EXECUTION, exec_index)
    rp = recovery_params(
        params.epsilon,
        mix(seed_exec, ROLE_RECOVERY),
        n=len(text),
        reps=params.recovery_reps,
    )
    return construct_sparse_noise(text, pattern, rp)


def _estimates(
    text: IntString, pattern: IntString, noise: NoiseProfile, params: ApproxParams, execs
) -> np.ndarray:
    """(len(execs), windows) estimates of the executions execs with one D'."""
    families = execution_families(params.k, params.seed, execs)
    return np.maximum(0.0, execution_numerators(text, pattern, noise, families) / params.k)


def approx_profile(
    text: IntString,
    pattern: IntString,
    params: ApproxParams,
    *,
    return_noise: bool = False,
):
    """Per-window median over params.reps executions.

    D' is recovered once, with execution 0's seeds, and every execution
    reuses it. return_noise also returns that shared profile.
    """
    shared = _recover_noise(text, pattern, params, 0)
    profile = median_profile(_estimates(text, pattern, shared, params, range(params.reps)))
    if return_noise:
        return profile, shared
    return profile
