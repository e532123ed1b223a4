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

How an execution is computed: recovery already holds every window's exact
mismatch-pair counts N_j(u, v) (sparse_recovery.PairCounts), and member i
separates u from v unless it hashes them together, so
sum_i HAM_i[j] = sum_c (k - beta(c)) * N_j(c) over the pair codes c. The
numerator is therefore linear in beta:

    num[j] = k * d_j + sum_c (k - 2*beta(c)) * (N - D')_j(c),

with d_j = sum_c N_j(c). All executions run together: one beta matrix over
the codes of N and D' (one row per family, from one batched base-bit
evaluation), one matrix product with the row codes' counts minus D' over
blocks of windows, and one bincount per execution over the entry codes and
the D' codes without a row. Every value is an integer far below 2^53, so the
float sums are exact in any order and the profile does not depend on BLAS
threading. No member sum is computed by correlation here; karloff keeps that
route.

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

Cost: the pair counts come from an O(nm) enumeration, and sum_c N_j(c) is
already the exact distance, so this route cannot beat the exact profile; it
is a faithful, measured run of the estimator, not a faster algorithm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._seeds import ROLE_EXECUTION, ROLE_FAMILY, ROLE_RECOVERY, mix
from ._sketch import median_profile
from .hashing import beta_rows, family_new
from .karloff import check_epsilon, resolve_reps
from .sparse_recovery import (
    B_CONST,
    NoiseProfile,
    PairCounts,
    construct_sparse_noise,
    prepare_pair_counts,
    recovery_params,
)
from .text_model import DistanceProfile, IntString, check_instance

# the row product runs over blocks of windows holding at most this many
# float64 cells of row counts
_PRODUCT_CELLS = 1 << 20


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


def execution_numerators(pairs: PairCounts, noise: NoiseProfile, families) -> np.ndarray:
    """(len(families), windows) numerators 2 * sum_i HAM_i + sum (2*beta - k)
    * d' of one execution per family (all of one size k), as exact integers
    in float64.

    Computed as k * d_j + sum_c (k - 2*beta(c)) * (N - D')_j(c) over the
    codes of the pair counts and of the noise profile; the cache is not
    modified."""
    sigma, nw, n_codes = pairs.sigma, pairs.n_windows, pairs.codes.size
    k = families[0].k
    # each D' entry's code index: its place in pairs.codes, or after them
    wins = noise.entry_windows()
    dcode = noise.us.astype(np.int64) * sigma + noise.vs
    at = np.searchsorted(pairs.codes, dcode)
    found = at < n_codes
    found[found] = pairs.codes[at[found]] == dcode[found]
    extra, inverse = np.unique(dcode[~found], return_inverse=True)
    at[~found] = n_codes + inverse
    codes = np.concatenate([pairs.codes, extra])
    weights = (k - 2 * beta_rows(families, codes // sigma, codes % sigma)).astype(np.float64)
    row_of = np.concatenate([pairs.row_ids, np.full(extra.size, -1)])[at]
    on_row = row_of >= 0
    # row codes: one product per block of windows, D' subtracted from a copy
    rows = pairs.rows
    row_weights = weights[:, np.flatnonzero(pairs.row_ids >= 0)]
    out = np.empty((len(families), nw))
    step = max(1, _PRODUCT_CELLS // max(1, rows.shape[0]))
    for lo in range(0, nw, step):
        hi = min(nw, lo + step)
        block = rows[:, lo:hi].astype(np.float64)
        sel = slice(noise.indptr[lo], noise.indptr[hi])
        mine = on_row[sel]
        block[row_of[sel][mine], wins[sel][mine] - lo] -= noise.values[sel][mine]
        np.matmul(row_weights, block, out=out[:, lo:hi])
    # entry codes and D' codes without a row: one bincount per execution
    code = np.concatenate([np.repeat(np.arange(n_codes), np.diff(pairs.offsets)), at[~on_row]])
    win = np.concatenate([pairs.windows, wins[~on_row]])
    diff = np.concatenate([pairs.counts, -noise.values[~on_row]]).astype(np.float64)
    for e in range(len(families)):
        out[e] += np.bincount(win, weights=weights[e, code] * diff, minlength=nw)
    dist = rows.sum(axis=0, dtype=np.int64) + np.bincount(
        pairs.windows, weights=pairs.counts, minlength=nw
    )
    out += k * dist
    return out


def _recover_noise(
    text: IntString,
    pattern: IntString,
    params: ApproxParams,
    exec_index: int,
    pair_cache: PairCounts,
) -> NoiseProfile:
    seed_exec = mix(params.seed, ROLE_EXECUTION, exec_index)
    rp = recovery_params(
        params.epsilon,
        mix(seed_exec, ROLE_RECOVERY),
        n=len(text),
        reps=params.recovery_reps,
    )
    return construct_sparse_noise(text, pattern, rp, pair_cache=pair_cache)


def _estimates(pairs: PairCounts, noise: NoiseProfile, params: ApproxParams, execs) -> np.ndarray:
    """(len(execs), windows) estimates of the executions execs with one D'."""
    families = [
        family_new(params.k, mix(params.seed, ROLE_EXECUTION, e, ROLE_FAMILY)) for e in execs
    ]
    return np.maximum(0.0, execution_numerators(pairs, noise, families) / params.k)


def _check_noise(noise: NoiseProfile | None, text: IntString, pattern: IntString) -> None:
    """ValueError unless an injected noise profile has the instance's windows
    and alphabet."""
    nw = check_instance(text, pattern)[2]
    if noise is not None and (noise.n_windows, noise.sigma) != (nw, text.sigma):
        raise ValueError(
            f"noise profile has {noise.n_windows} windows over sigma={noise.sigma}, "
            f"the instance {nw} windows over sigma={text.sigma}"
        )


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
    _check_noise(noise, text, pattern)
    pairs = prepare_pair_counts(text, pattern)
    if noise is None:
        noise = _recover_noise(text, pattern, params, exec_index, pairs)
    return DistanceProfile(_estimates(pairs, noise, params, [exec_index])[0], "estimate")


def approx_profile(
    text: IntString,
    pattern: IntString,
    params: ApproxParams,
    *,
    noise_override: NoiseProfile | None = None,
    return_noise: bool = False,
):
    """Per-window median over params.reps executions.

    The pair counts are built once; D' is recovered once from them, with
    execution 0's seeds, and every execution reuses it. noise_override
    injects one fixed noise profile into every execution instead (bypassing
    recovery); its windows and sigma must match the instance. return_noise
    also returns the shared profile.
    """
    _check_noise(noise_override, text, pattern)
    pairs = prepare_pair_counts(text, pattern)
    shared = noise_override
    if shared is None:
        shared = _recover_noise(text, pattern, params, 0, pairs)
    profile = median_profile(_estimates(pairs, shared, params, range(params.reps)))
    if return_noise:
        return profile, shared
    return profile
