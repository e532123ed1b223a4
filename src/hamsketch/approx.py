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
seeds, and are one call of _sketch.execution_estimates, the driver karloff
runs with no D'.

What D' buys: the family's beta(u, v) is k/2, or with probability 1/k it is
0 or k (hashing.XorTreeFamily). An uncorrected execution is off only by
+-d(u, v) on the pairs whose beta is 0 or k, so its E|err| <= d/k per window
and, by Markov, P(|err| > eps * d) <= 1/(eps * k) <= 1/6 at this k. The
median over executions thus meets (1 +- eps) with high probability even
without D'; D' buys the accuracy of each single execution (gated by AC10).

Why one D' is enough: the correction is accurate for a window when its D'
meets the residual bound sum (d - d')^2 <= b * eps * d^2. Recovery runs up
to ceil(2 * log2 n) repetitions per scale so that the bound holds with high
probability, and stops sooner once every pair present in a window has sat
alone in a bucket: each then holds its exact count, and later projections
could only add pairs absent from their windows. The median over executions
controls a different variance, that of the O(1/eps) hash family, whose only
randomness is the family itself; redrawing D' per execution adds nothing to
that. The price is correlation: a window whose shared D' misses the bound is
off in every execution at once, where fresh D' could outvote it. This
reading follows the abstract in PAPER.md; it is not checked against the
paper's full text.

Cost: recovery builds every window's exact pair counts N_j by an O(nm)
enumeration, and sum N_j is already the exact distance, so this route cannot
beat the exact profile; it is a faithful, measured run of the estimator, not
a faster algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._seeds import ROLE_EXECUTION, ROLE_RECOVERY, mix
from ._sketch import (
    check_epsilon,
    check_reps,
    execution_estimates,
    family_size,
    median_profile,
    resolve_reps,
)
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
    return ApproxParams(
        epsilon=epsilon,
        epsilon_eff=eps_eff,
        k=family_size(8.0 * B_CONST / eps_eff),
        reps=resolve_reps(reps, n),
        seed=seed,
        recovery_reps=recovery_reps,
    )


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
    check_reps(params.reps)
    shared = _recover_noise(text, pattern, params, 0)
    runs = execution_estimates(text, pattern, params.k, params.seed, range(params.reps), shared)
    profile = median_profile(runs)
    if return_noise:
        return profile, shared
    return profile
