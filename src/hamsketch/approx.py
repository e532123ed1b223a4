"""Profile estimator with k = O(1/eps) binary hashes plus a noise correction.

The baseline needs k ~ 1/eps^2 members because collisions between distinct
symbol pairs contribute variance proportional to the full distance. Here k is
only ~ 8b/eps_eff, and the variance the smaller family leaves behind is
cancelled explicitly: for every heavy pair (u, v) in the noise matrix D', the
term (2*beta_{u,v} - k) * d'_{u,v} removes the expected contribution of that
pair's collisions, where beta_{u,v} counts the family members hashing u and v
together. With the agreement A = 2*beta/k - 1 in {-1, 0, 1} and the signed
matches C (_sketch), per window

    delta[j] = max(0, (2 * sum_i HAM_i[j] + sum_{(u,v)} (2*beta - k) * d'[u,v]) / k)
             = max(0, m - C[j] + sum_{(u,v)} A(u, v) * d'_j(u, v)),

an integer, and the profile is a per-window median over `reps` executions,
each with a fresh family. Before the max, delta[j] - d[j] = -sum_{u != v}
A(u, v) * (N_j(u, v) - d'_j(u, v)), with N_j the window's true pair counts:
the residual N_j - d'_j is all the error left. All executions share one D'
and are one call of _sketch.execution_estimates, the driver karloff runs
with no D'.

Where D' comes from: the paper recovers D' by a sparse recovery over
coupled projections, because its O~(n/eps) route sees only bucket counts.
This route counts every window's exact pair counts N_j, so it takes D' from
them directly: each window's capacity = 3/eps_eff largest counts, ties going
to the smaller code (noise_profile.top_pair_counts, which counts and filters
one block of windows at a time and keeps no window's full counts). The
tests keep the paper's projection ladder as a reference and check that,
once it has isolated every present pair, its candidates less the pairs
absent from their windows filter to this same D'.

The residual bound holds on every window, with no failure probability. The
kept counts are exact, so sum (d - d')^2 sums the squares of the dropped
counts. With x the (capacity + 1)-th largest count, each dropped count is at
most x and they sum to at most d - capacity * x, so

    sum (d - d')^2 <= x * (d - capacity * x) <= d^2 / (4 * capacity)
                    = eps_eff * d^2 / 12 < B_CONST * eps * d^2.

What D' buys: the family's beta(u, v) is k/2, or with probability 1/k it is
0 or k (hashing.XorTreeFamily). An uncorrected execution is off only by
+-d(u, v) on the pairs whose beta is 0 or k, so its E|err| <= d/k per window
and, by Markov, P(|err| > eps * d) <= 1/(eps * k) <= 1/6 at this k. The
median over executions thus meets (1 +- eps) with high probability even
without D'; D' buys the accuracy of each single execution (gated by AC10),
whose variance is about sum (d - d')^2 / k.

Cost: the exact pair counts take an O(nm) enumeration, and sum N_j is
already the exact distance, so this route cannot beat the exact profile; it
is a faithful, measured run of the corrected estimator, not a faster
algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._sketch import (
    check_epsilon,
    check_reps,
    execution_estimates,
    family_size,
    median_profile,
    resolve_reps,
)
from .noise_profile import top_pair_counts
from .text_model import IntString

# noise budget constant: sum (d - d')^2 <= B_CONST * eps * d^2
B_CONST = 12289 / 16384

# eps_eff = 1024 / 2^t_exp for the least t_exp >= 11 that brings it to eps or
# below; t_exp stops at this bound, so eps must be at least 1024 / 2^25
_MAX_T_EXP = 25


@dataclass(frozen=True)
class ApproxParams:
    epsilon: float
    epsilon_eff: float
    k: int
    reps: int
    seed: int

    @property
    def capacity(self) -> int:
        """D' entries per window, 3/eps_eff; exact, as eps_eff is a power of two."""
        return int(3 / self.epsilon_eff)


def approx_params(epsilon: float, seed: int, n: int, reps: int | None = None) -> ApproxParams:
    """k = 8b/eps_eff rounded up to a power of two, b = 12289/16384, with
    eps_eff the largest power of two 1024/2^t_exp <= epsilon, t_exp >= 11."""
    check_epsilon(epsilon)
    t = 11
    while (1 << t) * epsilon < 1024.0:
        t += 1
        if t > _MAX_T_EXP:
            raise ValueError(f"epsilon {epsilon} too small; need epsilon >= {1024.0 / (1 << _MAX_T_EXP)}")
    eps_eff = 1024.0 / (1 << t)
    return ApproxParams(
        epsilon=epsilon,
        epsilon_eff=eps_eff,
        k=family_size(8.0 * B_CONST / eps_eff),
        reps=resolve_reps(reps, n),
        seed=seed,
    )


def approx_profile(
    text: IntString,
    pattern: IntString,
    params: ApproxParams,
    *,
    return_noise: bool = False,
):
    """Per-window median over params.reps executions.

    D' is built once, from the exact pair counts, and every execution reuses
    it. return_noise also returns that shared profile.
    """
    check_reps(params.reps)
    shared = top_pair_counts(text, pattern, params.capacity)
    runs = execution_estimates(text, pattern, params.k, params.seed, range(params.reps), shared)
    profile = median_profile(runs)
    if return_noise:
        return profile, shared
    return profile
