"""Brute-force oracles, the paper's sparse recovery as a literal reference,
ways to make and read noise profiles, and one memory probe, used across the
test modules.

Everything here is deliberately naive: double loops, dict counting and
sliding-window products only, no shortcuts shared with the library code. The
recovery reference is the paper's projection ladder, which the library does
not run: approx takes D' straight from the exact pair counts
(noise_profile.top_pair_counts), and test_sparse_recovery ties the two
together. approx_with_noise is not an oracle: it runs approx's own
executions over an injected D' in place of the one approx builds.
"""

import tracemalloc
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from hamsketch._seeds import ROLE_BASE_HASH, ROLE_PROJECTION, mix, mix_array, splitmix64_array
from hamsketch.approx import approx_params
from hamsketch.gf64 import poly3_eval
from hamsketch.hashing import (
    beta,
    family_signatures,
    fourwise_new,
    member_eval,
    signature_agreement,
)
from hamsketch._sketch import check_reps, execution_estimates, median_profile
from hamsketch.noise_profile import NoiseProfile
from hamsketch.text_model import IntString


def sliding_hamming_brute(text: IntString, pattern: IntString) -> np.ndarray:
    t, p = text.symbols, pattern.symbols
    n, m = len(t), len(p)
    out = np.zeros(n - m + 1, dtype=np.int64)
    for j in range(n - m + 1):
        out[j] = int(np.count_nonzero(t[j : j + m] != p))
    return out


def aligned_ones_brute(tmask, pmask) -> np.ndarray:
    t = np.asarray(tmask)
    p = np.asarray(pmask)
    n, m = len(t), len(p)
    out = np.zeros(n - m + 1, dtype=np.int64)
    for j in range(n - m + 1):
        out[j] = int(np.sum(t[j : j + m] * p))
    return out


def beta_pairs(families, us, vs) -> np.ndarray:
    """(len(families), len(us)) beta of the pairs (us[i], vs[i]) as k/2 * (1
    + A), A their signature agreement, over one family_signatures evaluation
    of their symbols."""
    us, vs = (np.asarray(x, dtype=np.int64).reshape(-1) for x in (us, vs))
    syms, at = np.unique(np.concatenate([us, vs]), return_inverse=True)
    sig = family_signatures(families, syms)
    agree = signature_agreement(sig[:, at[: us.size]], sig[:, at[us.size :]])
    return families[0].k // 2 * (1 + agree)


def beta_tree(agree: np.ndarray) -> np.ndarray:
    """Members agreeing, by a balanced tree recurrence over the base-bit
    agreement of shape (2*pairs, ...): row 2b + c says whether base function
    2b + c agrees on the pair, so leaf b offers e = 0, 1 or 2 agreeing
    choices and d = 2 - e disagreeing ones; a parent agrees where both
    children agree or both disagree. Independent of the signature rule."""
    e = agree[0::2].astype(np.int64) + agree[1::2]
    d = 2 - e
    while e.shape[0] > 1:
        # one tree level: (e, d) of each parent of two nodes; an odd trailing
        # node is carried up unchanged
        half = e.shape[0] // 2
        e_l, e_r = e[0 : 2 * half : 2], e[1 : 2 * half : 2]
        d_l, d_r = d[0 : 2 * half : 2], d[1 : 2 * half : 2]
        e, d = (
            np.concatenate([e_l * e_r + d_l * d_r, e[2 * half :]]),
            np.concatenate([e_l * d_r + d_l * e_r, d[2 * half :]]),
        )
    return e[0]


def member_bits_brute(family, symbols) -> np.ndarray:
    """(k, len(symbols)) member outputs by enumerating the selection rule:
    one batched polynomial evaluation of the base functions, then every
    member XORs the choices its index bits select."""
    cs = np.array([f.coeffs for f in family.base], dtype=np.uint64)
    xs = np.asarray(symbols, dtype=np.uint64)
    masks = np.array([[f.range_size - 1] for f in family.base], dtype=np.uint64)
    vals = poly3_eval(
        cs[:, 3:4], cs[:, 2:3], cs[:, 1:2], cs[:, 0:1],
        xs[None, :], max(int(xs.max()).bit_length(), 1),
    )
    bits = (vals & masks).astype(np.int64)
    members = np.arange(family.k)
    out = np.zeros((family.k, xs.size), dtype=np.int64)
    for b in range(len(family.base) // 2):
        out ^= bits[2 * b + ((members >> b) & 1)]
    return out


def beta_brute(family, u: int, v: int) -> int:
    """Count members agreeing on u and v by enumerating the selection rule.

    One batched polynomial evaluation per call plus an array fold over all k
    members, so k=1024 stays affordable in the acceptance run. Anchored to
    scalar member_eval counting at small k in the unit tests.
    """
    bits = member_bits_brute(family, [u, v])
    return int((bits[:, 0] == bits[:, 1]).sum())


def alignment_dict_brute(text: IntString, pattern: IntString, j: int) -> dict:
    t, p = text.symbols, pattern.symbols
    out: dict = {}
    for i in range(len(p)):
        u, v = int(t[j + i]), int(p[i])
        if u != v:
            out[(u, v)] = out.get((u, v), 0) + 1
    return out


def fourwise_eval_seeds(out_bits: int, seeds, x: int) -> np.ndarray:
    """fourwise_new(out_bits, s).eval(x) for every s in seeds, as one batch.

    Not an independent oracle; the Monte Carlo tests that use it spot-check a
    few entries against the scalar constructor first.
    """
    h = np.asarray(seeds, dtype=np.uint64)
    c0 = splitmix64_array(h)
    c1 = splitmix64_array(c0)
    c2 = splitmix64_array(c1)
    c3 = splitmix64_array(c2)
    val = poly3_eval(c3, c2, c1, c0, np.uint64(x), max(int(x).bit_length(), 1))
    return (val & np.uint64((1 << out_bits) - 1)).astype(np.int64)


def family2_member_bits_seeds(seeds, u: int) -> tuple[np.ndarray, np.ndarray]:
    """(member 0 bit, member 1 bit) of family_new(2, s) on symbol u, batched."""
    seeds = np.asarray(seeds, dtype=np.uint64)
    b0 = fourwise_eval_seeds(1, mix_array(seeds, ROLE_BASE_HASH, 0), u)
    b1 = fourwise_eval_seeds(1, mix_array(seeds, ROLE_BASE_HASH, 1), u)
    return b0, b1


def few_pairs_bench_instance(n, m, sigma, seed):
    """The benchmark's periodic few_pairs instance: a pattern repeating 8
    distinct symbols, and a text repeating them with 3 replaced by symbols
    outside the block."""
    rng = np.random.default_rng(seed)
    block = rng.choice(sigma, 8, replace=False)
    text_block = block.copy()
    outside = np.setdiff1d(np.arange(sigma), block)
    text_block[rng.choice(8, 3, replace=False)] = rng.choice(outside, 3, replace=False)
    return IntString(np.resize(text_block, n), sigma), IntString(np.resize(block, m), sigma)


def member_profile_brute(text: IntString, pattern: IntString, family, i: int) -> np.ndarray:
    """Window Hamming distances of member i's binary projections; member_eval
    runs once per distinct symbol."""
    bit = {}
    for s in (*text.symbols.tolist(), *pattern.symbols.tolist()):
        if s not in bit:
            bit[s] = member_eval(family, i, s)
    tb = np.array([bit[s] for s in text.symbols.tolist()], dtype=np.int64)
    pb = np.array([bit[s] for s in pattern.symbols.tolist()], dtype=np.int64)
    n, m = len(tb), len(pb)
    out = np.zeros(n - m + 1, dtype=np.int64)
    for j in range(n - m + 1):
        out[j] = int(np.count_nonzero(tb[j : j + m] != pb))
    return out


def member_sums_brute(text: IntString, pattern: IntString, family) -> np.ndarray:
    """sum_i member_profile_brute(text, pattern, family, i) over all k members:
    member_bits_brute over the occurring symbols, and each member's window
    distances by sliding windows."""
    syms, at = np.unique(np.concatenate([text.symbols, pattern.symbols]), return_inverse=True)
    table = member_bits_brute(family, syms)
    tb, pb = table[:, at[: len(text)]], table[:, at[len(text) :]]
    windows = sliding_window_view(tb, pb.shape[1], axis=1)
    return (windows != pb[:, None, :]).sum(axis=(0, 2))


def pair_count_matrix(cache) -> np.ndarray:
    """(sigma^2, windows) pair-count matrix of a PairCounts: the rows of its
    row codes and the entries of the others."""
    dd = np.zeros((cache.sigma * cache.sigma, cache.n_windows), dtype=np.int32)
    rowed = cache.row_ids >= 0
    dd[cache.codes[rowed]] = cache.rows[cache.row_ids[rowed]]
    dd[np.repeat(cache.codes, np.diff(cache.offsets)), cache.windows] = cache.counts
    return dd


def pair_counts_at(cache, codes, windows) -> np.ndarray:
    """int64 true counts of the pair codes u*sigma + v in the given windows,
    0 where a pair is absent, read from a PairCounts: a row code's row, or a
    binary search over the entries keyed code index * windows + window."""
    codes, windows = (np.asarray(a, dtype=np.int64).reshape(-1) for a in (codes, windows))
    nw, out = cache.n_windows, np.zeros(codes.size, dtype=np.int64)
    if cache.codes.size == 0:
        return out
    at = np.minimum(np.searchsorted(cache.codes, codes), cache.codes.size - 1)
    known = cache.codes[at] == codes
    row = np.where(known, cache.row_ids[at], -1)
    out[row >= 0] = cache.rows[row[row >= 0], windows[row >= 0]]
    keys = np.repeat(np.arange(cache.codes.size), np.diff(cache.offsets)) * nw + cache.windows
    ask = np.flatnonzero(known & (row < 0))
    if keys.size and ask.size:
        want = at[ask] * nw + windows[ask]
        pos = np.minimum(np.searchsorted(keys, want), keys.size - 1)
        hit = keys[pos] == want
        out[ask[hit]] = cache.counts[pos[hit]]
    return out


def correction_term(dprime: dict, family) -> float:
    """(1/2) * sum (2*beta_{u,v} - k) * d'_{u,v} of one window's noise
    matrix {(u, v): d'}, one scalar beta per entry; half-integer for integer
    d'."""
    total = 0
    for (u, v), val in dprime.items():
        total += (2 * beta(family, u, v) - family.k) * val
    return total / 2.0


def correction_numerators(noise, family) -> np.ndarray:
    """Per-window integer corrections sum A * d' = sum (2*beta - k) * d' / k
    of a noise profile.

    The per-execution form the batched approx corrections replaced: beta of
    each distinct code through beta_pairs, read at each entry's code, where
    2*beta - k is -k, 0 or k; the entries of a window are contiguous, so its
    sum is a difference of one running sum."""
    uniq, inverse = np.unique(noise.entry_codes(), return_inverse=True)
    beta2 = 2 * beta_pairs([family], uniq // noise.sigma, uniq % noise.sigma)[0]
    weights = (beta2 - family.k) // family.k
    sums = np.zeros(noise.values.size + 1, dtype=np.int64)
    np.cumsum(weights[inverse] * noise.values, out=sums[1:])
    return sums[noise.indptr[1:]] - sums[noise.indptr[:-1]]


def noise_profile_from_windows(
    window_entries, sigma: int, capacity: int | None = None
) -> NoiseProfile:
    """Build a profile from per-window {(u, v): value} dicts.

    With capacity=None nothing is filtered (used to inject exact matrices);
    otherwise each window keeps its top-capacity values, ties broken toward
    the lexicographically smaller pair.
    """
    if capacity is None:
        cap = max((len(d) for d in window_entries), default=0)
        cap = max(cap, 1)
        filtered = False
    else:
        cap = capacity
        filtered = True
    indptr = [0]
    codes: list[int] = []
    vals: list[int] = []
    for entries in window_entries:
        items = [(uv, val) for uv, val in entries.items() if val > 0]
        if filtered and len(items) > cap:
            items.sort(key=lambda kv: (-kv[1], kv[0]))
            items = items[:cap]
        items.sort(key=lambda kv: kv[0])
        for (u, v), val in items:
            codes.append(u * sigma + v)
            vals.append(int(val))
        indptr.append(len(codes))
    # the distinct codes as the table, each entry's index into it as its column
    table, cols = np.unique(np.asarray(codes, dtype=np.int64), return_inverse=True)
    return NoiseProfile(
        sigma=sigma,
        capacity=cap,
        indptr=np.asarray(indptr, dtype=np.int64),
        codes=table,
        cols=cols.astype(np.int32),
        values=np.asarray(vals, dtype=np.int64),
    )


def capacity_filter_reference(sigma: int, n_windows: int, candidates, capacity: int):
    """The capacity filter by a literal per-window rank: the (window, code,
    value) candidates of each window with a positive value, sorted by value
    descending and then code ascending, the first capacity kept."""
    windows: list[list] = [[] for _ in range(n_windows)]
    for j, code, val in candidates:
        if val > 0:
            windows[j].append((-int(val), int(code)))
    kept = [{divmod(code, sigma): -neg for neg, code in sorted(c)[:capacity]} for c in windows]
    return noise_profile_from_windows(kept, sigma, capacity=capacity)


def window_entries(noise: NoiseProfile, j: int) -> dict:
    """Window j of a noise profile as {(u, v): value}."""
    if not 0 <= j < noise.n_windows:
        raise IndexError(f"window {j} outside [0, {noise.n_windows})")
    lo, hi = int(noise.indptr[j]), int(noise.indptr[j + 1])
    return {
        (int(u), int(v)): int(val)
        for u, v, val in zip(noise.us[lo:hi], noise.vs[lo:hi], noise.values[lo:hi])
    }


def same_profile(a: NoiseProfile, b: NoiseProfile) -> bool:
    """Equal sigma, capacity and CSR arrays (its codes table included)."""
    return (a.sigma, a.capacity) == (b.sigma, b.capacity) and all(
        np.array_equal(getattr(a, f), getattr(b, f)) for f in ("indptr", "codes", "cols", "values")
    )


def approx_with_noise(text: IntString, pattern: IntString, params, noise: NoiseProfile):
    """approx_profile with noise as the shared D' in place of the one it builds."""
    runs = execution_estimates(text, pattern, params.k, params.seed, range(params.reps), noise)
    return median_profile(runs)


def traced_peak(fn, *args, **kw):
    """(fn(*args, **kw), the call's tracemalloc peak in bytes)."""
    tracemalloc.start()
    try:
        out = fn(*args, **kw)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# ----------------------------------------------------------------------------
# the paper's sparse recovery, literally: one count per bucket, decoded bucket
# by bucket and window by window
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class LadderParams:
    """The projection ladder at approx's effective accuracy eps_eff =
    1024/2^t_exp, with reps coupled projections per scale."""

    epsilon: float
    epsilon_eff: float
    t_exp: int
    reps: int
    seed: int

    @property
    def capacity(self) -> int:
        # ceil(3/eps_eff); eps_eff is a power of two so this is exact
        return 3 << (self.t_exp - 10)

    @property
    def num_scales(self) -> int:
        # scales i = 0 .. log2(1/eps_eff)
        return self.t_exp - 10 + 1

    @property
    def bucket_count(self) -> int:
        return 1 << self.t_exp


def ladder_params(epsilon: float, seed: int, reps: int) -> LadderParams:
    """The ladder at approx_params' eps_eff, so its capacity is approx's."""
    eps_eff = approx_params(epsilon, seed, n=1, reps=1).epsilon_eff
    check_reps(reps)
    return LadderParams(epsilon, eps_eff, int(1024 / eps_eff).bit_length() - 1, reps, seed)


def scale_ranges(params: LadderParams, i: int) -> tuple[int, int]:
    """(ell_i, r_i) = (32 * 2^i, 32 * 2^(L-i)); the product is always 1024/eps_eff."""
    L = params.num_scales - 1
    if not 0 <= i <= L:
        raise IndexError(f"scale {i} outside [0, {L}]")
    return 32 << i, 32 << (L - i)


@dataclass(frozen=True)
class CoupledProjection:
    """Projection pair tau: [0,sigma) -> [ell], pi: [0,sigma) -> [r].

    The side with the larger range is a fresh 4-wise independent hash; the
    other side is the same values modulo its own range (low bits), so the two
    sides agree on which coarse bucket a symbol occupies.
    """

    ell: int
    r: int
    sigma: int
    scale_index: int
    rep_index: int
    tau_table: np.ndarray
    pi_table: np.ndarray


def projection_plan(params: LadderParams, sigma: int):
    """The coupled projection of every scale i and repetition rep, in the
    order i * params.reps + rep: the drawn side is fourwise_new at
    mix(params.seed, ROLE_PROJECTION, i, rep) over [0, sigma), tau where ell
    >= r and pi otherwise."""
    for i in range(params.num_scales):
        ell, r = scale_ranges(params, i)
        bits = max(ell, r).bit_length() - 1
        for rep in range(params.reps):
            drawn = fourwise_new(bits, mix(params.seed, ROLE_PROJECTION, i, rep)).table(sigma)
            # the side with the smaller range keeps the drawn values' low bits
            tau, pi = (drawn, drawn & (r - 1)) if ell >= r else (drawn & (ell - 1), drawn)
            yield CoupledProjection(
                ell=ell, r=r, sigma=sigma, scale_index=i, rep_index=rep,
                tau_table=tau, pi_table=pi,
            )


def projection(params: LadderParams, i: int, rep: int, sigma: int) -> CoupledProjection:
    """The coupled projection of scale i and repetition rep that the ladder
    with params draws over [0, sigma)."""
    return list(projection_plan(params, sigma))[i * params.reps + rep]


def _as_mask(a, name: str) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if a.size == 0:
        raise ValueError(f"{name} must be non-empty")
    a = a.astype(np.int64)
    if a.min() < 0 or a.max() > 1:
        raise ValueError(f"{name} must contain only 0/1 values")
    return a


def count_aligned_ones(text_mask, pattern_mask) -> np.ndarray:
    """Exact per-window counts of aligned (1, 1) pairs, as int64, one
    sliding-window product (no FFT)."""
    t = _as_mask(text_mask, "text_mask")
    p = _as_mask(pattern_mask, "pattern_mask")
    if p.size > t.size:
        raise ValueError(f"pattern length {p.size} exceeds text length {t.size}")
    return sliding_window_view(t, p.size) @ p


@dataclass
class BucketCounts:
    c: np.ndarray          # (nw,) aligned pairs in the bucket per window
    u_planes: np.ndarray   # (nbits, nw) counts restricted to text-symbol bit b set
    v_planes: np.ndarray   # (nbits, nw) same for the pattern symbol


@dataclass
class BucketTable:
    ell: int
    r: int
    nbits: int
    diagonal: frozenset
    buckets: dict[tuple[int, int], BucketCounts]


def compute_bucket_table(
    text: IntString, pattern: IntString, proj: CoupledProjection
) -> BucketTable:
    """Count vectors for every non-diagonal bucket, one sliding-window
    product (count_aligned_ones) per count vector. Zero-preimage buckets are
    omitted (all their counts are zero and they can never decode)."""
    sigma = text.sigma
    nbits = (sigma - 1).bit_length()
    tproj = proj.tau_table[text.symbols]
    pproj = proj.pi_table[pattern.symbols]
    diagonal = frozenset(
        (int(proj.tau_table[s]), int(proj.pi_table[s])) for s in range(sigma)
    )
    buckets: dict[tuple[int, int], BucketCounts] = {}
    t_syms = text.symbols
    p_syms = pattern.symbols
    for x in np.unique(tproj):
        t_mask = (tproj == x).astype(np.uint8)
        t_bits = [t_mask & ((t_syms >> b) & 1).astype(np.uint8) for b in range(nbits)]
        for y in np.unique(pproj):
            if (int(x), int(y)) in diagonal:
                continue
            p_mask = (pproj == y).astype(np.uint8)
            p_bits = [p_mask & ((p_syms >> b) & 1).astype(np.uint8) for b in range(nbits)]
            c = count_aligned_ones(t_mask, p_mask)
            u_planes = np.stack(
                [count_aligned_ones(tb, p_mask) for tb in t_bits]
            ) if nbits else np.zeros((0, c.size), dtype=np.int64)
            v_planes = np.stack(
                [count_aligned_ones(t_mask, pb) for pb in p_bits]
            ) if nbits else np.zeros((0, c.size), dtype=np.int64)
            buckets[(int(x), int(y))] = BucketCounts(c=c, u_planes=u_planes, v_planes=v_planes)
    return BucketTable(ell=proj.ell, r=proj.r, nbits=nbits, diagonal=diagonal, buckets=buckets)


def decode_bucket(
    c: int, bit_counts: tuple, proj: CoupledProjection, x: int, y: int
):
    """Recover the candidate pair dominating a bucket, or None.

    Bit b of u is set iff the u-plane count exceeds c/2; a plane hitting c/2
    exactly is ambiguous and rejects the bucket. The decoded pair must be a
    real mismatch pair consistent with the projection.
    """
    if c <= 0:
        return None
    u_planes, v_planes = bit_counts
    u = 0
    for b, p in enumerate(u_planes):
        if 2 * p == c:
            return None
        if 2 * p > c:
            u |= 1 << b
    v = 0
    for b, p in enumerate(v_planes):
        if 2 * p == c:
            return None
        if 2 * p > c:
            v |= 1 << b
    sigma = proj.sigma
    if u == v or u >= sigma or v >= sigma:
        return None
    if int(proj.tau_table[u]) != x or int(proj.pi_table[v]) != y:
        return None
    return (u, v)


def reference_candidates(text: IntString, pattern: IntString, params: LadderParams):
    """(candidates, projections run) of the literal ladder: per window, the
    {(u, v): value} running minima of every decoded pair, before the
    capacity filter, some of which may name pairs absent from the window.

    A straight transcription of the bucket/decode/min-update procedure,
    quadratic-ish and only meant for small instances. It stops after the
    first projection by which every pair present in a window has been the
    only nonzero pair of that window in some non-diagonal bucket: the
    bucket's count is then the pair's own count. Fewer projections run than
    the plan holds only where that stop came first.
    """
    sigma = text.sigma
    n, m = len(text), len(pattern)
    nw = n - m + 1
    dicts: list[dict] = [dict() for _ in range(nw)]
    # the (window, pair) counts not yet seen alone in a bucket
    unseen = {
        (j, uv): cnt for j in range(nw) for uv, cnt in alignment_dict_brute(text, pattern, j).items()
    }
    runs = 0
    for proj in projection_plan(params, sigma):
        runs += 1
        table = compute_bucket_table(text, pattern, proj)
        for (j, (u, v)), cnt in list(unseen.items()):
            bc = table.buckets.get((int(proj.tau_table[u]), int(proj.pi_table[v])))
            if bc is not None and int(bc.c[j]) == cnt:
                del unseen[(j, (u, v))]
        for (x, y), bc in table.buckets.items():
            for j in range(nw):
                c = int(bc.c[j])
                if c <= 0:
                    continue
                cand = decode_bucket(
                    c, (bc.u_planes[:, j], bc.v_planes[:, j]), proj, x, y
                )
                if cand is None:
                    continue
                prev = dicts[j].get(cand)
                if prev is None or c < prev:
                    dicts[j][cand] = c
        if not unseen:
            break
    return dicts, runs


def construct_reference(
    text: IntString, pattern: IntString, params: LadderParams
) -> NoiseProfile:
    """The literal ladder's D': its candidates, each window's
    params.capacity largest kept."""
    dicts, _ = reference_candidates(text, pattern, params)
    return noise_profile_from_windows(dicts, text.sigma, capacity=params.capacity)
