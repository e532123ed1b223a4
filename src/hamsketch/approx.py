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
the residual N_j - d'_j is all the error left. All executions share one D',
and each route gets every execution's estimate from one computation:

* grid route (noise_profile.pair_grid_pays: sigma_t' * sigma_p' <= m):
  the enumeration that builds D' holds each block's full count matrix N, so
  it also returns d - R @ A per window (noise_profile), with R the block's
  off-diagonal N less the cells kept for D' and A the (cells, executions)
  agreements from one base-bit evaluation over the occurring symbols
  (_sketch.cell_agreements). By the identity above, that is each
  execution's estimate before the max, with no signed matches and no
  correction product.
* sort route: _sketch.execution_estimates, the driver karloff runs with no
  D': C from the FFT route (_sketch.signed_matches), plus D' times A as a
  CSR product (_sketch.dprime_correction). A fused prototype of this route
  ran slower on the bench's sparse256 (15 -> 21 ms).

The two give the same integers, byte for byte (tested).

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

import numpy as np

from ._sketch import (
    cell_agreements,
    check_epsilon,
    check_reps,
    execution_estimates,
    execution_families,
    family_size,
    median_profile,
    resolve_reps,
)
from .noise_profile import _dprime_and_residual
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
    runs, shared = _execution_runs(text, pattern, params)
    profile = median_profile(runs)
    if return_noise:
        return profile, shared
    return profile


def _execution_runs(text: IntString, pattern: IntString, params: ApproxParams):
    """(the (reps, windows) estimates of every execution, the shared D'),
    with D' and, on the grid route, the estimates from one enumeration of
    the pair counts."""
    check_reps(params.reps)
    execs = range(params.reps)

    def agreements(sym_t, sym_p):
        return cell_agreements(execution_families(params.k, params.seed, execs), sym_t, sym_p)

    shared, residual = _dprime_and_residual(text, pattern, params.capacity, agreements)
    if residual is None:
        return execution_estimates(text, pattern, params.k, params.seed, execs, shared), shared
    # m - C + D'A = d - sum_(u != v) (N - D') * A
    return np.maximum(0.0, residual, out=residual).T, shared
