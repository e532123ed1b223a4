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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._seeds import ROLE_EXECUTION, ROLE_FAMILY, ROLE_RECOVERY, mix
from ._sketch import median_profile, member_hamming_sum
from .hashing import XorTreeFamily, beta_grid, family_new
from .karloff import check_epsilon, default_reps
from .sparse_recovery import (
    B_CONST,
    NoiseProfile,
    PairCounts,
    construct_sparse_noise,
    prepare_pair_counts,
    recovery_params,
)
from .text_model import DistanceProfile, IntString


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
    eps_eff = recovery_params(epsilon, 0, reps=1).epsilon_eff
    target = 8.0 * B_CONST / eps_eff
    k = 1 << max(1, (math.ceil(target) - 1).bit_length())
    return ApproxParams(
        epsilon=epsilon,
        epsilon_eff=eps_eff,
        k=k,
        reps=reps or default_reps(n),
        seed=seed,
        recovery_reps=recovery_reps,
    )


def correction_numerators(noise: NoiseProfile, family: XorTreeFamily) -> np.ndarray:
    """Per-window integer numerators sum (2*beta - k) * d'.

    beta comes from one grid over the occurring u and v symbols, read at the
    distinct codes of noise.pair_index; the entries of a window are
    contiguous, so its sum is a difference of one running sum."""
    u_syms, v_syms, code_u, code_v, inverse = noise.pair_index
    weights = 2 * beta_grid(family, u_syms, v_syms)[code_u, code_v] - family.k
    sums = np.zeros(noise.values.size + 1, dtype=np.int64)
    np.cumsum(weights[inverse] * noise.values, out=sums[1:])
    return sums[noise.indptr[1:]] - sums[noise.indptr[:-1]]


def _recover_noise(
    text: IntString,
    pattern: IntString,
    params: ApproxParams,
    exec_index: int,
    pair_cache: PairCounts | None = None,
) -> NoiseProfile:
    seed_exec = mix(params.seed, ROLE_EXECUTION, exec_index)
    rp = recovery_params(
        params.epsilon,
        mix(seed_exec, ROLE_RECOVERY),
        n=len(text),
        reps=params.recovery_reps,
    )
    return construct_sparse_noise(text, pattern, rp, pair_cache=pair_cache)


def approx_profile_single(
    text: IntString,
    pattern: IntString,
    params: ApproxParams,
    exec_index: int,
    *,
    noise: NoiseProfile | None = None,
) -> DistanceProfile:
    """One execution; pass `noise` to reuse or inject a noise profile,
    otherwise it recovers its own with this execution's seeds."""
    if noise is None:
        noise = _recover_noise(text, pattern, params, exec_index)
    seed_exec = mix(params.seed, ROLE_EXECUTION, exec_index)
    family = family_new(params.k, mix(seed_exec, ROLE_FAMILY))
    ham_sum = member_hamming_sum(text, pattern, family)
    numerator = 2 * ham_sum + correction_numerators(noise, family)
    return DistanceProfile(np.maximum(0.0, numerator / params.k), "estimate")


def approx_profile(
    text: IntString,
    pattern: IntString,
    params: ApproxParams,
    *,
    noise_override: NoiseProfile | None = None,
    return_noise: bool = False,
):
    """Per-window median over params.reps executions.

    D' is recovered once, with execution 0's seeds, and every execution
    reuses it together with its pair index. noise_override injects one fixed
    noise profile into every execution instead (bypassing recovery).
    return_noise also returns the shared profile.
    """
    shared = noise_override
    if shared is None:
        shared = _recover_noise(text, pattern, params, 0, prepare_pair_counts(text, pattern))
    profile = median_profile(
        lambda e: approx_profile_single(text, pattern, params, e, noise=shared),
        params.reps,
    )
    if return_noise:
        return profile, shared
    return profile
