"""Sparse recovery of heavy mismatch pairs: the noise matrix D'.

For every window j the alignment matrix D_j counts aligned symbol pairs
(u, v), u != v. This module recovers, per window, a sparse approximation D'
with at most ceil(3/eps_eff) entries such that the residual satisfies
sum (d - d')^2 <= b * eps * d^2 on most windows, where b = 12289/16384.

The recovery works over a ladder of coupled projections (tau, pi) into
[ell_i] x [r_i] with ell_i = 32 * 2^i and r_i chosen so ell_i * r_i =
1024/eps_eff. One side is a fresh 4-wise independent hash, the other is its
value modulo the smaller range. Aligned pairs land in buckets of the
[ell] x [r] grid; buckets that contain no (s, s) preimage ("non-diagonal"
buckets) receive only mismatch mass. A pair that dominates its bucket is
decoded from bit-plane majorities, and every decode min-updates its pair's
running estimate, so overcounts from shared buckets can only shrink.

compute_bucket_table keeps the literal one-count-per-bucket form (used as the
small-scale oracle); construct_sparse_noise computes identical bucket counts
from exact per-window pair counts, which is what makes desk-scale sizes
tractable. construct_reference wires the literal pieces together and must
produce bit-identical profiles.

prepare_pair_counts enumerates those counts with
text_model.mismatch_pair_counts over blocks of windows whose temporaries stay
within the memory budget. It stores them densely, as a (sigma^2, windows)
grid, when sigma^2 <= 2^16, the grid fits the memory budget and a strided
sample of windows shows each window holding at least half of the pair codes
occupied in the sample. Otherwise it stores each window's pairs as sorted
CSR entries, and the CSR route decodes only bucket collisions:

Take one projection and one window, and a non-diagonal bucket that holds
exactly one of the window's pairs (u, v), with count c > 0. Every bit-plane
sum of the bucket is c or 0, so no plane ties and the decoded bits are those
of u and v; the decoded pair lies in this bucket, so the projection check
passes. The decode therefore min-updates (u, v) with c, its exact count.
Every bucket holding (u, v) counts at least c, so a pair that sits alone in
its window's bucket in some projection ends at exactly its count. Only the
(window, bucket) groups with two or more of the window's pairs need the
bit-plane decode; such a decode names either a member of the group, whose
value it can lower below the member's collision counts, or a pair absent
from the window, which is kept as a spurious entry just as the literal
procedure keeps it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._seeds import ROLE_PROJECTION, mix
from .correlation import count_aligned_ones
from .hashing import fourwise_new
from .karloff import check_epsilon, default_reps
from .text_model import IntString, SparseNoiseMatrix, check_instance, mismatch_pair_counts

# noise budget constant: sum (d - d')^2 <= B_CONST * eps * d^2
B_CONST = 12289 / 16384

DEFAULT_MEM_BUDGET = 1 << 30

_INF = np.int64(1) << 62
_MAX_T_EXP = 25  # keeps every projection range within the hash output cap
# per-projection temporaries of the CSR route, bytes per pair entry of a
# window block (about a dozen int64/bool arrays over the block's entries)
_SCRATCH_BYTES_PER_ENTRY = 128
_FILL_SAMPLE = 64  # windows sampled to choose the pair-count layout
# the pair-count build enumerates at most this many window positions per
# block, at about this many bytes of temporaries per position
_PAIR_BLOCK_POSITIONS = 1 << 20
_PAIR_BYTES_PER_POSITION = 48
# the dense route's capacity filter ranks at most this many grid cells at a
# time, at 16 bytes of key and partition index per cell
_FILTER_BLOCK_CELLS = 1 << 18


# ----------------------------------------------------------------------------
# parameters
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class RecoveryParams:
    """Effective accuracy eps_eff = 1024/2^t_exp <= epsilon, plus repetitions."""

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


def recovery_params(
    epsilon: float, seed: int, n: int | None = None, reps: int | None = None
) -> RecoveryParams:
    check_epsilon(epsilon)
    t = 11
    while (1 << t) * epsilon < 1024.0:
        t += 1
        if t > _MAX_T_EXP:
            raise ValueError(f"epsilon {epsilon} too small; need epsilon >= {1024.0 / (1 << _MAX_T_EXP)}")
    if reps is None:
        if n is None:
            raise ValueError("need text length n to derive the default repetition count")
        reps = default_reps(n)
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    return RecoveryParams(
        epsilon=epsilon, epsilon_eff=1024.0 / (1 << t), t_exp=t, reps=reps, seed=seed
    )


def scale_ranges(params: RecoveryParams, i: int) -> tuple[int, int]:
    """(ell_i, r_i) = (32 * 2^i, 32 * 2^(L-i)); the product is always 1024/eps_eff."""
    L = params.num_scales - 1
    if not 0 <= i <= L:
        raise IndexError(f"scale {i} outside [0, {L}]")
    return 32 << i, 32 << (L - i)


# ----------------------------------------------------------------------------
# coupled projections
# ----------------------------------------------------------------------------

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

    def diagonal_ids(self) -> np.ndarray:
        """Sorted bucket ids tau(s)*r + pi(s) over the whole alphabet."""
        ids = self.tau_table.astype(np.int64) * self.r + self.pi_table.astype(np.int64)
        return np.unique(ids)


def make_coupled_projection(
    i: int, params: RecoveryParams, rep: int, sigma: int
) -> CoupledProjection:
    """Deterministic in (params.seed, i, rep); ell >= r draws tau, else pi."""
    ell, r = scale_ranges(params, i)
    seed_h = mix(params.seed, ROLE_PROJECTION, i, rep)
    if ell >= r:
        tau_table = fourwise_new(ell.bit_length() - 1, seed_h).table(sigma)
        pi_table = tau_table & (r - 1)
    else:
        pi_table = fourwise_new(r.bit_length() - 1, seed_h).table(sigma)
        tau_table = pi_table & (ell - 1)
    return CoupledProjection(
        ell=ell,
        r=r,
        sigma=sigma,
        scale_index=i,
        rep_index=rep,
        tau_table=tau_table,
        pi_table=pi_table,
    )


# ----------------------------------------------------------------------------
# bucket tables (literal form; the small-scale oracle)
# ----------------------------------------------------------------------------

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
    """Count vectors for every non-diagonal bucket via one aligned-ones pass
    per count vector. Zero-preimage buckets are omitted (all their counts are
    zero and they can never decode)."""
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


# ----------------------------------------------------------------------------
# noise profiles (per-window sparse matrices, CSR layout)
# ----------------------------------------------------------------------------

@dataclass(eq=False)
class NoiseProfile:
    """All windows' sparse noise matrices in one CSR-like structure.

    Window j owns entries indptr[j]:indptr[j+1]; within a window entries are
    sorted by (u, v).
    """

    sigma: int
    capacity: int
    indptr: np.ndarray
    us: np.ndarray
    vs: np.ndarray
    values: np.ndarray

    @property
    def n_windows(self) -> int:
        return self.indptr.size - 1

    def window(self, j: int) -> SparseNoiseMatrix:
        if not 0 <= j < self.n_windows:
            raise IndexError(f"window {j} outside [0, {self.n_windows})")
        lo, hi = int(self.indptr[j]), int(self.indptr[j + 1])
        entries = {
            (int(self.us[e]), int(self.vs[e])): int(self.values[e])
            for e in range(lo, hi)
        }
        return SparseNoiseMatrix(sigma=self.sigma, capacity=self.capacity, entries=entries)

    def entry_windows(self) -> np.ndarray:
        return np.repeat(np.arange(self.n_windows, dtype=np.int64), np.diff(self.indptr))

    @cached_property
    def pair_index(self) -> tuple[np.ndarray, ...]:
        """(u_syms, v_syms, code_u, code_v, inverse): the sorted u and v
        symbols of the entries, each distinct (u, v) code's position among
        them, and each entry's distinct code. Built on first use, so a
        profile shared by several hash families sorts its entries once."""
        codes = self.us.astype(np.int64) * self.sigma + self.vs.astype(np.int64)
        uniq, inverse = np.unique(codes, return_inverse=True)
        u_syms, code_u = np.unique(uniq // self.sigma, return_inverse=True)
        v_syms, code_v = np.unique(uniq % self.sigma, return_inverse=True)
        return u_syms, v_syms, code_u, code_v, inverse

    def validate(self) -> None:
        if np.any(np.diff(self.indptr) > self.capacity):
            raise ValueError("a window exceeds the entry capacity")
        if self.values.size:
            if self.values.min() <= 0:
                raise ValueError("noise entries must be positive")
            if np.any(self.us == self.vs):
                raise ValueError("diagonal noise entries not allowed")

    def same_as(self, other: "NoiseProfile") -> bool:
        return (
            self.sigma == other.sigma
            and self.capacity == other.capacity
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.us, other.us)
            and np.array_equal(self.vs, other.vs)
            and np.array_equal(self.values, other.values)
        )

    def dump_csv(self, path) -> None:
        wins = self.entry_windows()
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write("window,u,v,dprime\n")
            for w, u, v, val in zip(wins, self.us, self.vs, self.values):
                fh.write(f"{w},{u},{v},{val}\n")


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
    us: list[int] = []
    vs: list[int] = []
    vals: list[int] = []
    for entries in window_entries:
        items = [(uv, val) for uv, val in entries.items() if val > 0]
        if filtered and len(items) > cap:
            items.sort(key=lambda kv: (-kv[1], kv[0]))
            items = items[:cap]
        items.sort(key=lambda kv: kv[0])
        for (u, v), val in items:
            us.append(u)
            vs.append(v)
            vals.append(int(val))
        indptr.append(len(us))
    return NoiseProfile(
        sigma=sigma,
        capacity=cap,
        indptr=np.asarray(indptr, dtype=np.int64),
        us=np.asarray(us, dtype=np.int32),
        vs=np.asarray(vs, dtype=np.int32),
        values=np.asarray(vals, dtype=np.int64),
    )


# ----------------------------------------------------------------------------
# exact per-window pair counts (shared precompute for the fast path)
# ----------------------------------------------------------------------------

@dataclass
class PairCounts:
    """Exact mismatch-pair counts for all windows, dense or CSR by size and
    window fill."""

    kind: str  # "dense" | "sparse"
    sigma: int
    n_windows: int
    dense: np.ndarray | None = None       # (sigma^2, nw) int32
    indptr: np.ndarray | None = None
    codes: np.ndarray | None = None       # int64, u*sigma+v, sorted per window
    counts: np.ndarray | None = None


def _sampled_fill(windows: np.ndarray, pattern: np.ndarray, sigma: int) -> float:
    """Share of the occupied pair-code rows that a window holds, averaged over
    an evenly strided sample of at most _FILL_SAMPLE windows.

    The dense route scans every occupied row of every window; the CSR route
    touches only the entries a window holds, so it wins once most of those
    cells would be zero.
    """
    nw = windows.shape[0]
    js = np.arange(0, nw, -(-nw // _FILL_SAMPLE))
    _, codes, _ = mismatch_pair_counts(windows[js], pattern, sigma)
    occupied = np.unique(codes).size
    if occupied == 0:
        return 0.0
    return codes.size / (js.size * occupied)


def prepare_pair_counts(
    text: IntString, pattern: IntString, mem_budget: int = DEFAULT_MEM_BUDGET
) -> PairCounts:
    n, m, nw = check_instance(text, pattern)
    sigma = text.sigma
    p_syms = pattern.symbols
    windows = sliding_window_view(text.symbols, m)
    pair_space = sigma * sigma
    dense_ok = (
        pair_space <= (1 << 16)
        and pair_space * nw * 12 <= mem_budget
        and _sampled_fill(windows, p_syms, sigma) >= 0.5
    )
    if dense_ok:
        dd = np.zeros((pair_space, nw), dtype=np.int32)
    else:
        code_chunks: list[np.ndarray] = []
        count_chunks: list[np.ndarray] = []
        sizes = np.zeros(nw, dtype=np.int64)
    block = max(1, min(_PAIR_BLOCK_POSITIONS, mem_budget // _PAIR_BYTES_PER_POSITION) // m)
    for lo in range(0, nw, block):
        hi = min(nw, lo + block)
        w, codes, counts = mismatch_pair_counts(windows[lo:hi], p_syms, sigma)
        if dense_ok:
            dd[codes, lo + w] = counts
        else:
            code_chunks.append(codes)
            count_chunks.append(counts)
            sizes[lo:hi] = np.bincount(w, minlength=hi - lo)
    if dense_ok:
        return PairCounts(kind="dense", sigma=sigma, n_windows=nw, dense=dd)
    indptr = np.zeros(nw + 1, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])
    return PairCounts(
        kind="sparse",
        sigma=sigma,
        n_windows=nw,
        indptr=indptr,
        codes=np.concatenate(code_chunks),
        counts=np.concatenate(count_chunks),
    )


# ----------------------------------------------------------------------------
# the constructor (fast path)
# ----------------------------------------------------------------------------

def construct_sparse_noise(
    text: IntString,
    pattern: IntString,
    params: RecoveryParams,
    *,
    mem_budget: int = DEFAULT_MEM_BUDGET,
    pair_cache: PairCounts | None = None,
) -> NoiseProfile:
    """Per-window sparse noise matrices from the projection ladder.

    Every (scale, rep) draws a coupled projection; every non-diagonal bucket
    with positive count is decoded and the decoded pair min-updated with the
    bucket count. Unset entries become 0 and each window keeps only its
    capacity largest values. mem_budget bounds the dense pair-count grid and
    sets how many windows the CSR route handles per block; the profile does
    not depend on it.
    """
    n, m, nw = check_instance(text, pattern)
    sigma = text.sigma
    if sigma < 2:
        return _empty_profile(sigma, params.capacity, nw)
    if pair_cache is None:
        pair_cache = prepare_pair_counts(text, pattern, mem_budget)
    if pair_cache.kind == "dense":
        return _construct_dense(pair_cache, params)
    return _construct_sparse(pair_cache, params, mem_budget)


def _empty_profile(sigma: int, capacity: int, nw: int) -> NoiseProfile:
    return NoiseProfile(
        sigma=sigma,
        capacity=capacity,
        indptr=np.zeros(nw + 1, dtype=np.int64),
        us=np.zeros(0, dtype=np.int32),
        vs=np.zeros(0, dtype=np.int32),
        values=np.zeros(0, dtype=np.int64),
    )


def _projection_plan(params: RecoveryParams, sigma: int):
    for i in range(params.num_scales):
        for rep in range(params.reps):
            yield make_coupled_projection(i, params, rep, sigma)


def _nondiag_mask(bkt: np.ndarray, diag: np.ndarray) -> np.ndarray:
    pos = np.searchsorted(diag, bkt)
    pos = np.minimum(pos, diag.size - 1)
    return diag[pos] != bkt


def _decode_plane_bits(plane_sums, c):
    """Vectorized majority decode; returns (symbol, tie) arrays."""
    nbits = len(plane_sums)
    sym = np.zeros(c.shape, dtype=np.int64)
    tie = np.zeros(c.shape, dtype=bool)
    for b in range(nbits):
        pl = plane_sums[b]
        tie |= (2 * pl) == c
        sym |= ((2 * pl) > c).astype(np.int64) << b
    return sym, tie


def _construct_dense(cache: PairCounts, params: RecoveryParams) -> NoiseProfile:
    dd = cache.dense
    sigma, nw = cache.sigma, cache.n_windows
    nbits = (sigma - 1).bit_length()
    pair_space = sigma * sigma
    # every running value is a bucket count <= m, so 32-bit cells are safe
    # and halve the memory traffic of the min-update passes
    inf = np.int32(np.iinfo(np.int32).max)
    A = np.full((pair_space, nw), inf, dtype=np.int32)
    occ = np.flatnonzero(dd.any(axis=1))
    if occ.size == 0:
        return _empty_profile(sigma, params.capacity, nw)
    u_occ = occ // sigma
    v_occ = occ % sigma
    ever_single = np.zeros(occ.size, dtype=bool)
    two_a: list = []
    two_b: list = []

    for proj in _projection_plan(params, sigma):
        tau = proj.tau_table.astype(np.int64)
        pi = proj.pi_table.astype(np.int64)
        diag = proj.diagonal_ids()
        bkt = tau[u_occ] * proj.r + pi[v_occ]
        keep = np.flatnonzero(_nondiag_mask(bkt, diag))
        if keep.size == 0:
            continue
        order = keep[np.argsort(bkt[keep], kind="stable")]
        bs = bkt[order]
        new = np.ones(bs.size, dtype=bool)
        new[1:] = bs[1:] != bs[:-1]
        starts = np.flatnonzero(new)
        ends = np.append(starts[1:], bs.size)
        sizes = ends - starts
        ever_single[order[starts[sizes == 1]]] = True
        # two-member buckets decode to the strictly heavier member with
        # value c = d_a + d_b (equal weights tie every differing bit plane
        # and reject), so no plane sums or projection checks are needed;
        # collected across projections and applied per target code below
        pair_starts = starts[sizes == 2]
        if pair_starts.size:
            two_a.append(occ[order[pair_starts]])
            two_b.append(occ[order[pair_starts + 1]])
        for s0, e0 in zip(starts[sizes > 2], ends[sizes > 2]):
            members = occ[order[s0:e0]]
            _decode_group_dense(
                A, dd, members, sigma, nbits,
                int(bs[s0]) // proj.r, int(bs[s0]) % proj.r, tau, pi, inf,
            )

    # two-group updates per target code p: min over instances of
    # d_p + d_q where d_q < d_p, which is d_p + min(partner rows) when that
    # minimum sits strictly below d_p
    if two_a:
        ta = np.concatenate(two_a + two_b)
        tb = np.concatenate(two_b + two_a)
        order2 = np.argsort(ta, kind="stable")
        ta, tb = ta[order2], tb[order2]
        new2 = np.ones(ta.size, dtype=bool)
        new2[1:] = ta[1:] != ta[:-1]
        starts2 = np.flatnonzero(new2)
        ends2 = np.append(starts2[1:], ta.size)
        for s0, e0 in zip(starts2, ends2):
            p = int(ta[s0])
            partner_min = dd[tb[s0:e0]].min(axis=0) if e0 - s0 > 1 else dd[tb[s0]]
            rp_ = dd[p]
            row = A[p]
            np.minimum(row, np.where(partner_min < rp_, rp_ + partner_min, inf), out=row)

    # singleton contributions are the exact pair counts, identical in every
    # repetition where the pair sat alone, so one pass suffices
    single_rows = occ[ever_single]
    for lo in range(0, single_rows.size, 256):
        rows = single_rows[lo : lo + 256]
        vals = dd[rows]
        A[rows] = np.minimum(A[rows], np.where(vals > 0, vals, inf))

    A[A == inf] = 0
    return _filter_dense(A, sigma, params.capacity, nw)


def _decode_group_dense(A, dd, members, sigma, nbits, x, y, tau, pi, inf):
    sub = dd[members]
    c = sub.sum(axis=0)
    act = c > 0
    if not act.any():
        return
    us = members // sigma
    vs = members % sigma
    # one BLAS call replaces 2*nbits masked row sums; counts stay below the
    # float mantissa so the products are exact
    fdt = np.float32 if int(c.max()) < (1 << 24) else np.float64
    sel = np.empty((2 * nbits, members.size), dtype=fdt)
    for b in range(nbits):
        sel[b] = (us >> b) & 1
        sel[nbits + b] = (vs >> b) & 1
    planes = sel @ sub.astype(fdt)
    cf = c.astype(fdt)
    u_dec, tie_u = _decode_plane_bits(planes[:nbits], cf)
    v_dec, tie_v = _decode_plane_bits(planes[nbits:], cf)
    valid = act & ~tie_u & ~tie_v & (u_dec != v_dec) & (u_dec < sigma) & (v_dec < sigma)
    if not valid.any():
        return
    uu = np.where(valid, u_dec, 0)
    vv = np.where(valid, v_dec, 0)
    valid &= (tau[uu] == x) & (pi[vv] == y)
    if not valid.any():
        return
    dest = u_dec * sigma + v_dec
    for code in np.unique(dest[valid]):
        msk = valid & (dest == code)
        row = A[code]
        np.minimum(row, np.where(msk, c, inf), out=row)


def _filter_dense(A: np.ndarray, sigma: int, capacity: int, nw: int) -> NoiseProfile:
    """Each window's capacity largest values, ties broken toward the smaller
    code, ranked in window blocks so the int64 keys and partition indices
    never span more than _FILTER_BLOCK_CELLS cells of the grid."""
    pair_space = A.shape[0]
    # ascending key = descending value, then ascending code
    shift = np.int64(-(1 << max(1, (pair_space - 1).bit_length())))
    code_col = np.arange(pair_space, dtype=np.int64)[:, None]
    step = max(1, _FILTER_BLOCK_CELLS // pair_space)
    codes, values = [], []
    counts = np.zeros(nw, dtype=np.int64)
    for lo in range(0, nw, step):
        sub = A[:, lo : lo + step]
        if pair_space > capacity:
            key = sub * shift
            key += code_col
            top = np.sort(np.argpartition(key, capacity - 1, axis=0)[:capacity], axis=0)
            del key
        else:
            top = np.broadcast_to(code_col, sub.shape)
        val = np.take_along_axis(sub, top, axis=0).T
        pos = val > 0
        codes.append(top.T[pos])
        values.append(val[pos])
        counts[lo : lo + step] = pos.sum(axis=1)
    code_idx = np.concatenate(codes)
    indptr = np.zeros(nw + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return NoiseProfile(
        sigma=sigma,
        capacity=capacity,
        indptr=indptr,
        us=(code_idx // sigma).astype(np.int32),
        vs=(code_idx % sigma).astype(np.int32),
        values=np.concatenate(values).astype(np.int64),
    )


def _construct_sparse(
    cache: PairCounts, params: RecoveryParams, mem_budget: int
) -> NoiseProfile:
    sigma, nw = cache.sigma, cache.n_windows
    indptr, codes, cnts = cache.indptr, cache.codes, cache.counts
    if codes.size == 0:
        return _empty_profile(sigma, params.capacity, nw)
    nbits = (sigma - 1).bit_length()
    n_buckets = params.bucket_count
    win = np.repeat(np.arange(nw, dtype=np.int64), np.diff(indptr))
    distinct, inv = np.unique(codes, return_inverse=True)
    du = distinct // sigma
    dv = distinct % sigma
    shifts = np.arange(nbits)
    # per-entry state: whether the entry was ever alone in a non-diagonal
    # bucket of its window, and the least collision-group decode landing on it
    alone = np.zeros(codes.size, dtype=bool)
    best = np.full(codes.size, _INF)
    spurious: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    blocks = _entry_blocks(indptr, max(1, mem_budget // _SCRATCH_BYTES_PER_ENTRY))

    for proj in _projection_plan(params, sigma):
        tau = proj.tau_table.astype(np.int64)
        pi = proj.pi_table.astype(np.int64)
        bkt_d = tau[du] * proj.r + pi[dv]
        nondiag_d = _nondiag_mask(bkt_d, proj.diagonal_ids())
        shared_d = np.zeros(distinct.size, dtype=bool)
        shared_d[nondiag_d] = _repeated(bkt_d[nondiag_d])
        # a code alone in its bucket over all windows is alone in each window
        single_d = nondiag_d & ~shared_d
        for lo, hi in blocks:
            inv_b = inv[lo:hi]
            alone[lo:hi] |= single_d[inv_b]
            e = lo + np.flatnonzero(shared_d[inv_b])
            if e.size == 0:
                continue
            key = win[e] * n_buckets + bkt_d[inv[e]]
            coll = _repeated(key)
            alone[e[~coll]] = True
            if not coll.any():
                continue
            e, key = e[coll], key[coll]
            order = np.argsort(key, kind="stable")
            e, key = e[order], key[order]
            new = np.ones(e.size, dtype=bool)
            new[1:] = key[1:] != key[:-1]
            starts = np.flatnonzero(new)
            group = np.cumsum(new) - 1
            # collision groups: count and 2*nbits plane sums in one reduceat
            ce = cnts[e]
            ue, ve = du[inv[e]], dv[inv[e]]
            cols = np.concatenate(
                [ce[:, None], ((ue[:, None] >> shifts) & 1) * ce[:, None],
                 ((ve[:, None] >> shifts) & 1) * ce[:, None]],
                axis=1,
            )
            sums = np.add.reduceat(cols, starts, axis=0)
            c = sums[:, 0]
            u_dec, tie_u = _decode_plane_bits(sums[:, 1 : 1 + nbits].T, c)
            v_dec, tie_v = _decode_plane_bits(sums[:, 1 + nbits :].T, c)
            valid = ~tie_u & ~tie_v & (u_dec != v_dec) & (u_dec < sigma) & (v_dec < sigma)
            bkt = key[starts] % n_buckets
            uu = np.where(valid, u_dec, 0)
            vv = np.where(valid, v_dec, 0)
            valid &= (tau[uu] == bkt // proj.r) & (pi[vv] == bkt % proj.r)
            if not valid.any():
                continue
            # a decode that passes the projection check lands in this bucket,
            # so it is either a member of the group or absent from the window
            dest = u_dec * sigma + v_dec
            hit = valid[group] & (codes[e] == dest[group])
            np.minimum.at(best, e[hit], c[group[hit]])
            absent = valid & ~np.logical_or.reduceat(hit, starts)
            if absent.any():
                spurious.append((win[e[starts[absent]]], dest[absent], c[absent]))

    val = np.where(alone, cnts, best)
    keep = val < _INF
    parts = [(win[keep], codes[keep], val[keep])] + spurious
    w, code, val = (np.concatenate(col) for col in zip(*parts))
    return _filter_triples(w, code, val, sigma, params.capacity, nw)


def _repeated(keys: np.ndarray) -> np.ndarray:
    """Mask of the positions whose key occurs more than once."""
    s = np.sort(keys)
    dup = np.unique(s[1:][s[1:] == s[:-1]])
    if dup.size == 0:
        return np.zeros(keys.size, dtype=bool)
    pos = np.minimum(np.searchsorted(dup, keys), dup.size - 1)
    return dup[pos] == keys


def _entry_blocks(indptr: np.ndarray, max_entries: int) -> list[tuple[int, int]]:
    """Entry ranges of whole-window blocks, each at most max_entries long
    unless a single window alone exceeds it."""
    nw = indptr.size - 1
    blocks = []
    lo_w = 0
    while lo_w < nw:
        hi_w = int(np.searchsorted(indptr, indptr[lo_w] + max_entries, side="right")) - 1
        hi_w = min(nw, max(lo_w + 1, hi_w))
        blocks.append((int(indptr[lo_w]), int(indptr[hi_w])))
        lo_w = hi_w
    return blocks


def _filter_triples(w, code, val, sigma, capacity, nw) -> NoiseProfile:
    """Min over repeated (window, code) triples, then each window's capacity
    largest values, ties broken toward the smaller code."""
    order = np.lexsort((val, code, w))
    w, code, val = w[order], code[order], val[order]
    first = np.ones(w.size, dtype=bool)
    first[1:] = (w[1:] != w[:-1]) | (code[1:] != code[:-1])
    w, code, val = w[first], code[first], val[first]
    # rank within each window by (-val, code); the kept triples stay in
    # (window, code) order
    order = np.lexsort((code, -val, w))
    ws = w[order]
    new = np.ones(ws.size, dtype=bool)
    new[1:] = ws[1:] != ws[:-1]
    starts = np.flatnonzero(new)
    rank = np.arange(ws.size) - starts[np.cumsum(new) - 1]
    keep = np.zeros(w.size, dtype=bool)
    keep[order[rank < capacity]] = True
    w, code, val = w[keep], code[keep], val[keep]
    indptr = np.zeros(nw + 1, dtype=np.int64)
    np.cumsum(np.bincount(w, minlength=nw), out=indptr[1:])
    return NoiseProfile(
        sigma=sigma,
        capacity=capacity,
        indptr=indptr,
        us=(code // sigma).astype(np.int32),
        vs=(code % sigma).astype(np.int32),
        values=val.astype(np.int64),
    )


# ----------------------------------------------------------------------------
# literal reference constructor (test oracle)
# ----------------------------------------------------------------------------

def construct_reference(
    text: IntString, pattern: IntString, params: RecoveryParams
) -> NoiseProfile:
    """Straight transcription of the bucket/decode/min-update procedure.

    Quadratic-ish and only meant for small instances; construct_sparse_noise
    must match it entry for entry.
    """
    sigma = text.sigma
    n, m = len(text), len(pattern)
    nw = n - m + 1
    if sigma < 2:
        return _empty_profile(sigma, params.capacity, nw)
    dicts: list[dict] = [dict() for _ in range(nw)]
    for proj in _projection_plan(params, sigma):
        table = compute_bucket_table(text, pattern, proj)
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
    return noise_profile_from_windows(dicts, sigma, capacity=params.capacity)
