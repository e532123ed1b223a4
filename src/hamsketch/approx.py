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

with d_j = sum_c N_j(c). All executions run together, over one base-bit
evaluation of every symbol of a pair code or of D': the weights
k - 2*beta(c) of the pair codes form one float32 (executions, codes) table.
The windows then run in blocks holding at most _PRODUCT_CELLS row cells and
D' entries: each block takes one matrix product with its row counts minus
its D', and one bincount per execution over its D' entries without a row
(weighted by code, or folded from the base bits for a code without pair
counts). The entry codes' counts follow in chunks of _PRODUCT_CELLS entries,
one bincount per execution each. Besides the pair counts, D', the weight
table and the (executions, windows) output, no temporary spans more than one
block or chunk. Every value is an integer far below 2^53, so the float sums
are exact in any order and the profile depends neither on the blocks nor on
BLAS threading. No member sum is computed by correlation here; karloff keeps
that route.

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

from ._seeds import ROLE_EXECUTION, ROLE_RECOVERY, mix
from ._sketch import execution_families, median_profile
from .hashing import base_bits, beta_from_bits
from .karloff import check_epsilon, resolve_reps
from .sparse_recovery import (
    B_CONST,
    NoiseProfile,
    PairCounts,
    construct_sparse_noise,
    prepare_pair_counts,
    recovery_params,
)
from .text_model import IntString

# execution_numerators runs over blocks of windows holding at most this
# many row cells and D' entries together, and over chunks of this many pair
# entries (and pair-code weights); the temporaries take about 8 bytes per
# row cell and up to 90 per D' or pair entry (tracemalloc, dense16 and
# sparse256 shapes), so on dense16 a block adds about 4.5 MB where 2^20
# cells added 17 MB
_PRODUCT_CELLS = 1 << 18


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
    modified. Every temporary over D' or the pair entries spans one block of
    at most _PRODUCT_CELLS cells."""
    sigma, nw, n_codes = pairs.sigma, pairs.n_windows, pairs.codes.size
    k, n_fam = families[0].k, len(families)
    # one base-bit evaluation over every symbol of a pair code or of D'
    present = np.zeros(sigma, dtype=bool)
    for syms in (pairs.codes // sigma, pairs.codes % sigma, noise.us, noise.vs):
        present[syms] = True
    syms = np.flatnonzero(present)
    bits = base_bits(families, syms)
    # |k - 2*beta| <= k, exact in float32 below 2^24
    wdt = np.float32 if k < (1 << 24) else np.float64

    def weights_of(codes):
        at_u, at_v = np.searchsorted(syms, codes // sigma), np.searchsorted(syms, codes % sigma)
        return (k - 2 * beta_from_bits(families, bits, at_u, at_v)).astype(wdt)

    # the weights of every pair code, filled in chunks, plus a padding
    # column for the D' codes without pair counts, overwritten where read
    step = max(1, _PRODUCT_CELLS // n_fam)
    weights = np.zeros((n_fam, n_codes + 1), dtype=wdt)
    for c in range(0, n_codes, step):
        weights[:, c : min(n_codes, c + step)] = weights_of(pairs.codes[c : c + step])
    # a D' code's place in pairs.codes, or n_codes (never equal) if it has none
    codes = np.append(pairs.codes, -1)
    row_ids = np.append(pairs.row_ids, -1)
    rows = pairs.rows
    row_weights = weights[:, np.flatnonzero(row_ids >= 0)].astype(np.float64)
    out = np.empty((n_fam, nw))
    # window blocks of at most _PRODUCT_CELLS row cells and D' entries
    cost = rows.shape[0] * np.arange(nw + 1) + noise.indptr
    lo = 0
    while lo < nw:
        hi = int(np.searchsorted(cost, cost[lo] + _PRODUCT_CELLS, "right")) - 1
        hi = min(nw, max(lo + 1, hi))
        a, b = noise.indptr[lo], noise.indptr[hi]
        win = np.repeat(np.arange(hi - lo, dtype=np.int32), np.diff(noise.indptr[lo : hi + 1]))
        dcode = noise.us[a:b].astype(np.int64) * sigma + noise.vs[a:b]
        at = np.searchsorted(pairs.codes, dcode)
        absent = codes[at] != dcode
        row = row_ids[at]
        row[absent] = -1
        # row codes: D' subtracted from a float copy of the block, one product
        on_row = row >= 0
        block = rows[:, lo:hi].astype(np.float64)
        block[row[on_row], win[on_row]] -= noise.values[a:b][on_row]
        np.matmul(row_weights, block, out=out[:, lo:hi])
        del block, row
        # entry codes and codes without pair counts: one bincount per execution
        off = ~on_row
        if off.any():
            at, win, val, absent = at[off], win[off], noise.values[a:b][off], absent[off]
            extra = weights_of(dcode[off][absent])
            del dcode
            for e in range(n_fam):
                w = weights[e].take(at)
                w[absent] = extra[e]
                out[e, lo:hi] -= np.bincount(
                    win, weights=np.multiply(w, val, dtype=np.float64), minlength=hi - lo
                )
        lo = hi
    # the entry codes' counts, in chunks of at most _PRODUCT_CELLS entries
    dist = rows.sum(axis=0, dtype=np.float64)
    offsets = pairs.offsets
    for a in range(0, pairs.counts.size, _PRODUCT_CELLS):
        b = min(pairs.counts.size, a + _PRODUCT_CELLS)
        c0 = int(np.searchsorted(offsets, a, "right")) - 1
        c1 = int(np.searchsorted(offsets, b, "left"))
        code = np.repeat(np.arange(c0, c1), np.diff(np.clip(offsets[c0 : c1 + 1], a, b)))
        win, cnt = pairs.windows[a:b], pairs.counts[a:b]
        for e in range(n_fam):
            w = np.multiply(weights[e].take(code), cnt, dtype=np.float64)
            out[e] += np.bincount(win, weights=w, minlength=nw)
        dist += np.bincount(win, weights=cnt, minlength=nw)
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
    families = execution_families(params.k, params.seed, execs)
    return np.maximum(0.0, execution_numerators(pairs, noise, families) / params.k)


def approx_profile(
    text: IntString,
    pattern: IntString,
    params: ApproxParams,
    *,
    return_noise: bool = False,
):
    """Per-window median over params.reps executions.

    The pair counts are built once; D' is recovered once from them, with
    execution 0's seeds, and every execution reuses it. return_noise also
    returns that shared profile.
    """
    pairs = prepare_pair_counts(text, pattern)
    shared = _recover_noise(text, pattern, params, 0, pairs)
    profile = median_profile(_estimates(pairs, shared, params, range(params.reps)))
    if return_noise:
        return profile, shared
    return profile
