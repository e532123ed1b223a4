"""Sparse recovery of heavy mismatch pairs: the noise matrix D'.

For every window j the pair counts D_j count aligned symbol pairs (u, v),
u != v. This module recovers, per window, a sparse approximation D'
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

construct_sparse_noise takes every bucket's counts from exact per-window
pair counts, which is what makes desk-scale sizes tractable. The tests keep
the literal one-count-per-bucket procedure as a reference, and the profile
must equal it entry for entry.

prepare_pair_counts builds those counts over blocks of windows whose
temporaries stay within the memory budget (about 48 bytes per window
position). With sigma_t' and sigma_p' the numbers of symbols occurring in
the text and the pattern, each position falls in the cell
rank_t(u) * sigma_p' + rank_p(v); as cells follow the sorted symbols
row-major they are already in code order. The two routes differ only in how
they count the cells. When sigma_t' * sigma_p' <= m
(_sketch.pair_grid_pays), the grid route fills an int32 (cell, window) grid
with one np.bincount per block; the grid never holds more cells than the
enumeration has positions, at most 4 bytes per window position. Otherwise
the sort route keys each mismatch position by cell * nw + window: one
np.unique per block yields the block's entries by code and then window, and
one sort of the keys merges the blocks. Both give the same PairCounts. A
code that occurs in at least a quarter of the windows keeps an int32 count
row over all windows; every other code keeps its (window, count) entries. A
row thus holds at most four cells per entry of its code. Recovery adds an
int32 running minimum and a one-byte exactness flag per row cell, and per
entry an int32 running minimum and code and a one-byte flag, plus 12 bytes
per run of one code in one decode chunk (one run per entry code with a
single chunk, at most one per entry), so memory grows with the number of
pair entries and not with sigma^2 * windows.

Each projection works on the distinct codes: a bitmap of the diagonal bucket
ids drops the codes in diagonal buckets, and sorting the rest by bucket id
forms the groups of codes that share a bucket.

Take one window and a non-diagonal bucket that holds exactly one of the
window's pairs (u, v), with count c > 0. Every bit-plane sum of the bucket is
c or 0, so no plane ties and the decoded bits are those of u and v; the
decoded pair lies in this bucket, so the projection check passes. The decode
therefore min-updates (u, v) with c, its exact count. Every bucket holding
(u, v) counts at least c, so a pair that sits alone in its window's bucket in
some projection ends at exactly its count. A code alone in its bucket is
alone in every window. The other groups decode as follows:

- Every member has a row. Two members decode in each window to the strictly
  heavier one, with value d_a + d_b (equal counts tie every differing plane
  and reject). Three or more, k of them, decode over the distinct ways they
  split the bit planes. A plane on which every member agrees takes the
  common bit, and ties only where c = 0. Planes with the same member split
  S, or its complement, always decide together, so each window forms only
  P <= min(2*nbits, 2^(k-1) - 1) sums D = (rows in S) - (other rows), all
  windows from one matrix product. The signs of a window's D give one
  outcome code, negative where some D is 0 (as all are where c = 0). Member
  i is named exactly at its own outcome, which passes every check, and one
  dense minimum per member lowers its row there. Every other outcome
  decodes to one fixed pattern, so the alphabet, diagonal and projection
  checks run once per outcome occurring in the remaining windows, not once
  per window; those that pass name a code that occurs nowhere.
- Some member has entries. These groups are decoded together, in chunks of
  whole windows holding at most as many entries and nonzero row cells as
  mem_budget allows (or one window), the same chunks in every projection; a
  heavy group is thus split like any other. In a chunk of span windows from
  lo, each entry of a group, and each nonzero cell of a row member standing
  in for one, is keyed by group * span + window - lo, and one sort of the
  keys packed above the entry ids puts the members a window holds next to
  each other. A chunk reads its entries in runs of one code, the runs listed
  by chunk, so it looks groups up per run and not per entry. An entry or
  row cell alone in its window is exact as above, and is only flagged. Each
  window holding two or more runs the bit-plane decode, the colliding
  entries' codes read from a per-entry code array.

A bit-plane decode names either a member of the group, whose value it can
lower below the member's collision counts, or a pair absent from the window,
which is kept as a spurious entry just as the literal procedure keeps it. One
filter then ranks each window's row cells, entries and spurious entries
together.

Where the ladder stops. Recovery flags each nonzero (code, window) count
once its pair has sat alone among the window's nonzero pairs in a
non-diagonal bucket: a code alone in its bucket, an entry or row cell alone
in its window's group, a row member whose own count is its group's count c,
and so a two-row group's cell where the partner's count is 0. Such a count is
exact, and no later projection changes it. Once every nonzero count is
flagged, a later projection can only add pairs absent from their windows
(spurious decodes, and values on row cells whose count is 0), so
construct_sparse_noise stops after the first projection at which that
holds. The paper fixes O(log n) repetitions per scale, enough for a union
bound over every heavy pair; its O~(n/eps) route sees bucket counts only and
cannot tell when every pair has been isolated. This rule relies on the
enumerated pair codes, and the paper's ceil(2 log2 n) repetitions remain as
the ceiling. On the benchmark shapes the stop comes after 2 to 5 of 110 to
130 projections.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._seeds import ROLE_PROJECTION, mix_array
from ._sketch import check_epsilon, pair_grid_pays, resolve_reps
from .hashing import eval_blocks, fourwise_coeffs
from .text_model import IntString, check_instance, occurring_symbols

# noise budget constant: sum (d - d')^2 <= B_CONST * eps * d^2
B_CONST = 12289 / 16384

DEFAULT_MEM_BUDGET = 1 << 30

_INF32 = np.int32(np.iinfo(np.int32).max)  # unset running minimum
_MAX_T_EXP = 25  # keeps every projection range within the hash output cap
# a code occurring in at least 1/_ROW_SHARE of the windows keeps a count row
# over all windows, which then holds at most _ROW_SHARE cells per entry of
# the code
_ROW_SHARE = 4
# per-projection temporaries of the entry decode, bytes per decoded entry:
# about 40 when few entries collide, and up to this base plus this much per
# symbol bit when all of them do, for their 2*nbits int64 plane sums
# (tracemalloc on planted_heavy n=2048, m=128: 223 B at sigma=64, 398 B at
# sigma=2^16)
_SCRATCH_BYTES_PER_ENTRY = 128
_SCRATCH_BYTES_PER_BIT = 18
# the pair-count build enumerates at most this many window positions per
# block, at most this many bytes of temporaries per position. A sort-route
# block peaks at about 41 bytes per position when every position is a
# distinct mismatch pair (tracemalloc), 12 of which stay as its keys and counts
_PAIR_BLOCK_POSITIONS = 1 << 19
_PAIR_BYTES_PER_POSITION = 48
# the capacity filter ranks at most this many candidate cells at a time, at
# 16 bytes of key and partitioned copy per cell
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
    if reps is None and n is None:
        raise ValueError("need text length n to derive the default repetition count")
    reps = resolve_reps(reps, n)
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


def _projection_plan(params: RecoveryParams, sigma: int):
    """The coupled projections of every scale i and repetition rep of
    params, draw (i, rep) as item i * params.reps + rep. The drawn hashes of
    a block of draws are evaluated over [0, sigma) in one eval_blocks step;
    ell >= r draws tau, else pi."""
    draws = [(i, rep) for i in range(params.num_scales) for rep in range(params.reps)]
    ranges = [scale_ranges(params, i) for i, _ in draws]
    # fourwise_new's coefficients at mix(params.seed, ROLE_PROJECTION, i, rep)
    # for every draw, all seeds and chains stepped together
    scale_col, rep_col = np.array(draws, dtype=np.uint64).reshape(-1, 2).T
    coeffs = fourwise_coeffs(mix_array(params.seed, ROLE_PROJECTION, scale_col, rep_col))
    for lo, vals in eval_blocks(coeffs, np.arange(sigma)):
        for d, row in enumerate(vals, start=lo):
            (i, rep), (ell, r) = draws[d], ranges[d]
            drawn = (row & np.uint64(max(ell, r) - 1)).astype(np.int64)
            # the side with the smaller range keeps the drawn values' low bits
            tau, pi = (drawn, drawn & (r - 1)) if ell >= r else (drawn & (ell - 1), drawn)
            yield CoupledProjection(
                ell=ell, r=r, sigma=sigma, scale_index=i, rep_index=rep,
                tau_table=tau, pi_table=pi,
            )


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

    def entry_windows(self) -> np.ndarray:
        return np.repeat(np.arange(self.n_windows, dtype=np.int64), np.diff(self.indptr))

    def validate(self) -> None:
        """ValueError unless the CSR layout holds and every entry is a
        positive off-diagonal count over [0, sigma), at most capacity per
        window."""
        ptr = self.indptr
        if not self.us.size == self.vs.size == self.values.size:
            raise ValueError("noise entries need equal us, vs and values lengths")
        if ptr.size == 0 or ptr[0] != 0 or ptr[-1] != self.us.size:
            raise ValueError(f"indptr must run from 0 to the {self.us.size} entries")
        sizes = np.diff(ptr)
        if np.any(sizes < 0):
            raise ValueError("indptr must not decrease")
        if np.any(sizes > self.capacity):
            raise ValueError("a window exceeds the entry capacity")
        if self.values.size:
            if self.values.min() <= 0:
                raise ValueError("noise entries must be positive")
            if np.any(self.us == self.vs):
                raise ValueError("diagonal noise entries not allowed")
            syms = np.concatenate([self.us, self.vs])
            if syms.min() < 0 or syms.max() >= self.sigma:
                raise ValueError(f"noise entries must name symbols in [0, {self.sigma})")

    def dump_csv(self, path) -> None:
        wins = self.entry_windows()
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write("window,u,v,dprime\n")
            for w, u, v, val in zip(wins, self.us, self.vs, self.values):
                fh.write(f"{w},{u},{v},{val}\n")


# ----------------------------------------------------------------------------
# exact per-window pair counts, grouped by distinct code
# ----------------------------------------------------------------------------

@dataclass
class PairCounts:
    """Exact mismatch-pair counts of all windows, grouped by distinct code.

    codes holds the distinct codes u*sigma + v in ascending order. A code that
    occurs in at least 1/_ROW_SHARE of the windows keeps its counts as the
    int32 row rows[row_ids[i]] over all windows and owns no entries; any other
    code has row id -1 and owns entries offsets[i]:offsets[i+1] of windows
    (ascending) and counts.
    """

    sigma: int
    n_windows: int
    codes: np.ndarray    # (K,) int64
    row_ids: np.ndarray  # (K,) int64
    rows: np.ndarray     # (R, n_windows) int32
    offsets: np.ndarray  # (K + 1,) int64
    windows: np.ndarray  # int32
    counts: np.ndarray   # int32


def prepare_pair_counts(
    text: IntString, pattern: IntString, mem_budget: int = DEFAULT_MEM_BUDGET
) -> PairCounts:
    n, m, nw = check_instance(text, pattern)
    block = max(1, min(_PAIR_BLOCK_POSITIONS, mem_budget // _PAIR_BYTES_PER_POSITION) // m)
    occ_t, occ_p = occurring_symbols(text), occurring_symbols(pattern)
    if pair_grid_pays(occ_t[0].size, occ_p[0].size, m):
        return _grid_pair_counts(text.sigma, occ_t, occ_p, m, nw, block)
    return _sorted_pair_counts(text, pattern, occ_t, occ_p, nw, block)


def _layout(occ: np.ndarray, nw: int):
    """(has_row, row_ids, offsets) of codes occurring in occ windows each."""
    has_row = occ * _ROW_SHARE >= nw
    row_ids = np.where(has_row, np.cumsum(has_row) - 1, -1)
    offsets = np.zeros(occ.size + 1, dtype=np.int64)
    np.cumsum(np.where(has_row, 0, occ), out=offsets[1:])
    return has_row, row_ids, offsets


def _grid_pair_counts(sigma, occ_t, occ_p, m, nw, block) -> PairCounts:
    (sym_t, at_t), (sym_p, at_p) = occ_t, occ_p
    cells = sym_t.size * sym_p.size
    # cell a*sigma_p' + b counts text symbol sym_t[a] against pattern symbol
    # sym_p[b]; row-major over sorted symbols, so codes ascend with the cell
    grid = np.empty((cells, nw), dtype=np.int32)
    windows = sliding_window_view(at_t * sym_p.size, m)
    for lo in range(0, nw, block):
        key = windows[lo : lo + block] + at_p
        b = key.shape[0]
        key += np.arange(0, b * cells, cells)[:, None]
        grid[:, lo : lo + b] = np.bincount(key.ravel(), minlength=b * cells).reshape(b, cells).T
    occ = np.count_nonzero(grid, axis=1)
    # diagonal cells count the matches, empty cells no pair
    used = np.flatnonzero((occ > 0) & (sym_t[:, None] != sym_p).ravel())
    has_row, row_ids, offsets = _layout(occ[used], nw)
    entry_grid = grid[used[~has_row]]
    code_at, wins = np.nonzero(entry_grid)
    return PairCounts(
        sigma=sigma,
        n_windows=nw,
        codes=(sym_t[:, None] * sigma + sym_p).ravel()[used],
        row_ids=row_ids,
        rows=grid[used[has_row]],
        offsets=offsets,
        windows=wins.astype(np.int32),
        counts=entry_grid[code_at, wins],
    )


def _sorted_pair_counts(text, pattern, occ_t, occ_p, nw, block) -> PairCounts:
    (sym_t, at_t), (sym_p, at_p) = occ_t, occ_p
    sigma, m = text.sigma, len(pattern)
    # each mismatch position keys cell * nw + window, with the grid route's
    # cell a*sigma_p' + b. cells <= min(sigma, n) * min(sigma, m), so a key
    # stays below n^2 * m, and below 2^20 * (m * nw): exact in int64 while
    # the enumeration has fewer than 2^43 positions
    t_keys = sliding_window_view(at_t * (sym_p.size * nw), m)
    p_keys = at_p * nw
    t_windows = sliding_window_view(text.symbols, m)
    keys, counts = [], []
    for lo in range(0, nw, block):
        key = t_keys[lo : lo + block] + p_keys
        b = key.shape[0]
        key += np.arange(lo, lo + b)[:, None]
        key = key[t_windows[lo : lo + b] != pattern.symbols]
        key, cnt = np.unique(key, return_counts=True)
        keys.append(key)
        counts.append(cnt.astype(np.int32))
    # the blocks hold disjoint windows, so one sort of their keys merges them
    # by code and then window; a stable sort (timsort) runs faster here, on
    # the blocks' sorted runs. Freeing what each step replaces keeps the peak
    # at the sort, about 24 bytes per pair entry
    key, cnt = np.concatenate(keys), np.concatenate(counts)
    del keys, counts
    cnt = cnt[np.argsort(key, kind="stable")]
    key.sort(kind="stable")
    cell = key // nw
    win = np.remainder(key, nw, out=key).astype(np.int32)
    del key
    first = np.ones(cell.size, dtype=bool)
    np.not_equal(cell[1:], cell[:-1], out=first[1:])
    first = np.flatnonzero(first)
    cells = cell[first]
    del cell
    occ = np.diff(first, append=win.size)
    has_row, row_ids, offsets = _layout(occ, nw)
    on_row = np.repeat(has_row, occ)
    rows = np.zeros((int(has_row.sum()), nw), dtype=np.int32)
    rows[np.repeat(row_ids[has_row], occ[has_row]), win[on_row]] = cnt[on_row]
    return PairCounts(
        sigma=sigma,
        n_windows=nw,
        codes=sym_t[cells // sym_p.size] * sigma + sym_p[cells % sym_p.size],
        row_ids=row_ids,
        rows=rows,
        offsets=offsets,
        windows=win[~on_row],
        counts=cnt[~on_row],
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
    bucket count. The ladder stops after the first projection at which every
    nonzero pair count is exact (module docstring). Unset entries become 0
    and each window keeps only its capacity largest values. mem_budget
    bounds the pair-count enumeration blocks and the entries decoded at a
    time; the profile does not depend on it.
    """
    n, m, nw = check_instance(text, pattern)
    sigma = text.sigma
    if sigma < 2:
        return _empty_profile(sigma, params.capacity, nw)
    if pair_cache is None:
        pair_cache = prepare_pair_counts(text, pattern, mem_budget)
    scratch = _SCRATCH_BYTES_PER_ENTRY + _SCRATCH_BYTES_PER_BIT * (sigma - 1).bit_length()
    rec = _Recovery(pair_cache, params.bucket_count, max(1, mem_budget // scratch))
    for proj in _projection_plan(params, sigma):
        rec.project(proj)
        # every present pair is at its exact count: later projections could
        # only add pairs absent from their windows
        if rec.pending == 0:
            break
    return rec.finish(params.capacity)


def _empty_profile(sigma: int, capacity: int, nw: int) -> NoiseProfile:
    return NoiseProfile(
        sigma=sigma,
        capacity=capacity,
        indptr=np.zeros(nw + 1, dtype=np.int64),
        us=np.zeros(0, dtype=np.int32),
        vs=np.zeros(0, dtype=np.int32),
        values=np.zeros(0, dtype=np.int64),
    )


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Concatenation of the index ranges starts[i] : starts[i] + lens[i]."""
    ends = np.cumsum(lens)
    total = int(ends[-1]) if lens.size else 0
    return np.arange(total) + np.repeat(starts - (ends - lens), lens)


class _Recovery:
    """Running minima of one recovery over a PairCounts.

    Every running value is a bucket count <= m, so the state is int32: one
    running-minimum row per row code and one value per entry of the other
    codes, plus (window, code, value) triples for decodes that name an entry
    code in a window where it does not occur, or a code that occurs nowhere.
    Beside them, one exactness flag per entry and per row cell, and the
    number of nonzero counts still unflagged.
    """

    def __init__(self, cache: PairCounts, n_buckets: int, max_entries: int):
        self.cache = cache
        n_e, nw = cache.counts.size, cache.n_windows
        # entry e has id e and the cell (row, window) of a row member id
        # E + row*nw + window, E the number of entries. A decode packs
        # (group, window, id) into an int64 sort key; there are fewer groups
        # than codes / 2, so a chunk of at most max_span windows keeps the
        # key inside 63 bits
        self.id_bits = max(1, (n_e + cache.rows.size - 1).bit_length())
        max_span = max(1, (1 << max(0, 63 - self.id_bits)) // max(1, cache.codes.size // 2))
        self.nbits = (cache.sigma - 1).bit_length()
        # bit b of a decoded pattern u | v << nbits, or of a row group's
        # outcome code (at most 2*nbits bits), as floats for one BLAS
        # product; sums of distinct powers of two below 2^24 are exact in
        # float32, and sigma <= 2^20 keeps every pattern below 2^40
        fdt = np.float32 if self.nbits <= 12 else np.float64
        self.weights = 2 ** np.arange(2 * self.nbits, dtype=fdt)
        self.code_bits = max(1, (cache.codes.size - 1).bit_length())
        self.du = cache.codes // cache.sigma
        self.dv = cache.codes % cache.sigma
        self.is_entry = cache.row_ids < 0
        self.row_codes = np.flatnonzero(~self.is_entry)
        self.entry_code = np.repeat(
            np.arange(cache.codes.size, dtype=np.int32), np.diff(cache.offsets)
        )
        # the windows of each decode chunk: whole windows holding at most
        # max_entries entries and nonzero row cells (or one window), the same
        # for every projection
        per_win = np.bincount(cache.windows, minlength=nw)
        cum = np.cumsum(per_win + np.count_nonzero(cache.rows, axis=0))
        self.cuts = [0]
        while self.cuts[-1] < nw:
            lo = self.cuts[-1]
            hi = int(np.searchsorted(cum, (cum[lo - 1] if lo else 0) + max_entries, "right"))
            self.cuts.append(min(nw, lo + max_span, max(lo + 1, hi)))
        # the stored entries (by code, then window) in runs of one code in
        # one chunk, at most one per entry, ordered by chunk: run i holds
        # run_len[i] entries of code run_code[i] from run_start[i], and chunk
        # k has runs chunk_runs[k]:chunk_runs[k + 1]. A chunk looks its runs'
        # codes up in the group table of the projection (-1 outside the
        # groups with an entry code)
        chunk = np.repeat(np.arange(len(self.cuts) - 1), np.diff(self.cuts))[cache.windows]
        new = np.ones(n_e, dtype=bool)
        new[1:] = (chunk[1:] != chunk[:-1]) | (self.entry_code[1:] != self.entry_code[:-1])
        starts = np.flatnonzero(new).astype(np.int32)
        by_chunk = np.argsort(chunk[starts], kind="stable")
        self.run_start = starts[by_chunk]
        self.run_len = np.diff(starts, append=np.int32(n_e))[by_chunk]
        self.run_code = self.entry_code[starts][by_chunk]
        self.chunk_runs = np.searchsorted(chunk[self.run_start], np.arange(len(self.cuts)))
        self.group = np.full(cache.codes.size, -1, dtype=np.int64)
        self.mins = np.full(cache.rows.shape, _INF32, dtype=np.int32)
        self.best = np.full(cache.counts.size, _INF32, dtype=np.int32)
        # per entry and per nonzero row cell: the count sat alone among its
        # window's nonzero pairs in a non-diagonal bucket, so it is exact;
        # pending counts the nonzero counts not yet exact
        self.exact = np.zeros(n_e, dtype=bool)
        self.cell_exact = np.zeros(cache.rows.shape, dtype=bool)
        self.pending = int(cum[-1])
        self.ever_single = np.zeros(cache.codes.size, dtype=bool)
        none = np.zeros(0, dtype=np.int64)
        self.spurious = [(none, none, none)]
        self.two = [np.zeros((2, 0), dtype=np.int64)]
        # diagonal bucket bitmap, set and cleared again by each projection
        self.diag = np.zeros(n_buckets, dtype=bool)

    def project(self, proj: CoupledProjection) -> None:
        tau = proj.tau_table.astype(np.int64)
        pi = proj.pi_table.astype(np.int64)
        diag_ids = tau * proj.r + pi
        self.diag[diag_ids] = True
        bkt = tau[self.du] * proj.r + pi[self.dv]
        keep = np.flatnonzero(~self.diag[bkt])
        self.diag[diag_ids] = False
        if keep.size == 0:
            return
        # the codes of one bucket end up adjacent, in ascending code order:
        # one sort of (bucket, code) packed into int64, as bucket ids stay
        # below 2^25 and there are fewer than 2^38 codes
        packed = np.sort(bkt[keep] << self.code_bits | keep)
        order = packed & ((1 << self.code_bits) - 1)
        bs = packed >> self.code_bits
        starts = np.flatnonzero(np.append(True, bs[1:] != bs[:-1]))
        sizes = np.diff(np.append(starts, bs.size))
        # a code alone in its bucket over all windows is alone in each
        # window, so every nonzero count of it is exact
        single = order[starts[sizes == 1]]
        single = single[~self.ever_single[single]]
        self.ever_single[single] = True
        ent = single[self.is_entry[single]]
        self._settle(self.exact, _ranges(self.cache.offsets[ent], np.diff(self.cache.offsets)[ent]))
        for row in self.cache.row_ids[single[~self.is_entry[single]]]:
            self._settle_row(row, self.cache.rows[row] > 0)
        mixed = (sizes > 1) & np.logical_or.reduceat(self.is_entry[order], starts)
        on_rows = (sizes > 1) & ~mixed
        # two-row groups decode to the strictly heavier member with value
        # c = d_a + d_b (equal weights tie every differing bit plane and
        # reject), so no plane sums or projection checks are needed; they
        # are collected and applied once per target code in finish
        two = starts[on_rows & (sizes == 2)]
        self.two.append(np.stack([order[two], order[two + 1]]))
        # a member's cell is exact where its partner's count is 0
        for a, b in self.cache.row_ids[self.two[-1].T]:
            ra, rb = self.cache.rows[a], self.cache.rows[b]
            self._settle_row(a, (rb == 0) & (ra > 0))
            self._settle_row(b, (ra == 0) & (rb > 0))
        for s0, k in zip(starts[on_rows & (sizes > 2)], sizes[on_rows & (sizes > 2)]):
            self._decode_rows(order[s0 : s0 + k], bs[s0] // proj.r, bs[s0] % proj.r, tau, pi)
        # the other groups together, in the window chunks; collisions are
        # per window, so chunking them changes no decode
        g_sizes = sizes[mixed]
        if g_sizes.size == 0:
            return
        members = order[_ranges(starts[mixed], g_sizes)]
        group = np.repeat(np.arange(g_sizes.size, dtype=np.int64), g_sizes)
        ent = self.is_entry[members]
        self.group[members[ent]] = group[ent]
        for k in range(len(self.cuts) - 1):
            self._decode_entries(members, group, k, bkt, proj.r, tau, pi)
        self.group[members[ent]] = -1

    def _settle(self, flags: np.ndarray, ids: np.ndarray) -> None:
        """Flag the distinct nonzero counts ids of flags (entries, or flat
        row cells) exact."""
        fresh = ids[~flags[ids]]
        flags[fresh] = True
        self.pending -= fresh.size

    def _settle_row(self, row: int, cells: np.ndarray) -> None:
        """Flag the cells (a mask over the windows, nonzero counts only) of
        row exact."""
        fresh = cells & ~self.cell_exact[row]
        self.cell_exact[row] |= fresh
        self.pending -= int(np.count_nonzero(fresh))

    def _bits(self, code: np.ndarray) -> np.ndarray:
        """(2*nbits, len) bits of the u and then the v symbols of codes."""
        shifts = np.arange(self.nbits)[:, None]
        bits = np.empty((2, self.nbits, code.size), dtype=np.int64)
        np.right_shift(self.du[code], shifts, out=bits[0])
        np.right_shift(self.dv[code], shifts, out=bits[1])
        bits &= 1
        return bits.reshape(2 * self.nbits, code.size)

    def _pattern(self, c, planes) -> np.ndarray:
        """Plane majorities u | v << nbits of bucket counts c and their
        2*nbits plane sums; -1 where a plane ties (c = 0 ties every plane)."""
        d = 2 * planes - c
        pat = (self.weights @ (d > 0)).astype(np.int64)
        pat[(d == 0).any(axis=0)] = -1
        return pat

    def _check(self, pat, x, y, tau, pi) -> np.ndarray:
        """Codes of the decoded patterns pat in bucket (x, y); -1 where a
        plane tied, the pair is diagonal or outside the alphabet, or it fails
        the projection check."""
        sigma, nbits = self.cache.sigma, self.nbits
        u, v = pat & ((1 << nbits) - 1), pat >> nbits
        ok = (pat >= 0) & (u != v) & (u < sigma) & (v < sigma)
        ok &= (tau[np.where(ok, u, 0)] == x) & (pi[np.where(ok, v, 0)] == y)
        return np.where(ok, u * sigma + v, -1)

    def _decode_rows(self, members, x, y, tau, pi) -> None:
        """Bit-plane decode of one group of row codes, all windows at once,
        over the distinct ways the members split the bit planes."""
        rows = self.cache.row_ids[members]
        sub = self.cache.rows[rows]
        c = sub.sum(axis=0, dtype=np.int32)
        # a member is alone where its own count is the whole group's
        for row, own in zip(rows, sub):
            self._settle_row(row, (own == c) & (own > 0))
        # plane b splits off the members whose bit differs from member 0's.
        # Its sum d_b = 2*planes_b - c is +-c where no member splits off (a
        # tie only at c = 0, where every sum ties), and otherwise +-D for its
        # split S, D = (rows in S) - (rows outside S); so a window decides
        # every plane by the signs of its P distinct D, coded as P bits
        bits = self._bits(members)
        split = bits != bits[:, :1]
        planes = np.flatnonzero(split.any(axis=1))
        ids: dict = {}
        plane_split = [ids.setdefault(split[b].tobytes(), len(ids)) for b in planes]
        sides = np.frombuffer(b"".join(ids), dtype=bool).reshape(len(ids), -1)
        # one BLAS call for the D; counts stay below the float mantissa so
        # the sums are exact
        fdt = np.float32 if int(c.max()) < (1 << 24) else np.float64
        d = np.where(sides, 1, -1).astype(fdt) @ sub.astype(fdt)
        weights = self.weights[: len(ids)]
        # a window where some D ties gets a negative code
        code = weights @ (d > 0).astype(weights.dtype)
        code -= (d == 0).any(axis=0) * weights.dtype.type(1 << len(ids))
        # member i is named exactly at its own outcome, where it passes
        # every check; arithmetic masks, as masked ufuncs run several times
        # slower on these arrays
        rest = code >= 0
        for row, own in zip(rows, weights @ sides):
            miss = code != own
            np.minimum(self.mins[row], np.maximum(c, miss * _INF32), out=self.mins[row])
            rest &= miss
        win = np.flatnonzero(rest)
        if win.size == 0:
            return
        # every other outcome decodes to one pattern, member 0's with the
        # planes of each positive D flipped; a decode that passes the
        # projection check lands in this bucket, so it names a code that
        # occurs in no window
        outcome, at = np.unique(code[win], return_inverse=True)
        flips = (outcome.astype(np.int64) >> np.array(plane_split)[:, None] & 1) << planes[:, None]
        base = self.du[members[0]] | self.dv[members[0]] << self.nbits
        dest = self._check(base ^ flips.sum(axis=0), x, y, tau, pi)[at]
        spur = dest >= 0
        self.spurious.append((win[spur], dest[spur], c[win[spur]]))

    def _decode_entries(self, members, group, k, bkt, r, tau, pi) -> None:
        """Window-by-window decode of the groups that hold an entry code,
        members by group, in the windows of chunk k; the nonzero cells of a
        row member stand in for entries. Sorting the ids by (group, window)
        puts the members a group holds in one window next to each other."""
        cache, nw, bits = self.cache, self.cache.n_windows, self.id_bits
        lo, n_e = self.cuts[k], cache.counts.size
        span = self.cuts[k + 1] - lo
        ent = self.is_entry[members]
        rows, row_group = cache.row_ids[members[~ent]], group[~ent]
        # the chunk's runs of a code in a group, and the chunk's slice of the
        # rows; each entry, and each nonzero row cell standing in for one,
        # packs its key group * span + window - lo above its id
        runs = slice(self.chunk_runs[k], self.chunk_runs[k + 1])
        grp = self.group[self.run_code[runs]]
        sel = np.flatnonzero(grp >= 0)
        grp, lens = grp[sel], self.run_len[runs][sel]
        ids = _ranges(self.run_start[runs][sel], lens)
        packed = (np.repeat(grp * span - lo, lens) + cache.windows[ids]) << bits | ids
        if rows.size:
            at, w = np.nonzero(cache.rows[rows, lo : lo + span])
            cells = (row_group[at] * span + w) << bits | (n_e + rows[at] * nw + lo + w)
            packed = np.concatenate([packed, cells])
        packed.sort()
        key = packed >> bits
        edge = np.ones(key.size + 1, dtype=bool)
        edge[1:-1] = key[1:] != key[:-1]
        alone = edge[:-1] & edge[1:]
        # alone in its window's bucket: the decode gives the exact count, and
        # every bucket holding the pair counts at least as much
        ids = packed[alone] & ((1 << bits) - 1)
        self._settle(self.exact, ids[ids < n_e])
        self._settle(self.cell_exact.reshape(-1), ids[ids >= n_e] - n_e)
        coll = np.flatnonzero(~alone)
        if coll.size == 0:
            return
        first = edge[coll]
        starts = np.flatnonzero(first)
        key, ids = key[coll], packed[coll] & ((1 << bits) - 1)
        is_e = ids < n_e
        cells = ids[~is_e] - n_e
        cnt = np.empty(ids.size, dtype=np.int64)
        cnt[is_e] = cache.counts[ids[is_e]]
        cnt[~is_e] = cache.rows.reshape(-1)[cells]
        code = np.empty(ids.size, dtype=np.int64)
        code[is_e] = self.entry_code[ids[is_e]]
        code[~is_e] = self.row_codes[cells // nw]
        # the count and 2*nbits plane sums of each window's collision
        c = np.add.reduceat(cnt, starts)
        planes = self._bits(code)
        planes *= cnt
        planes = np.add.reduceat(planes, starts, axis=1)
        b = bkt[code[starts]]
        dest = self._check(self._pattern(c, planes), b // r, b % r, tau, pi)
        # a decode that passes the projection check lands in this bucket, so
        # it names a member or a code absent from the window: a row member's
        # cell is lowered whether or not the member occurs there, an entry
        # member's entry where it does, and any other decode is kept as a
        # spurious (window, code, value) triple
        which = np.cumsum(first) - 1
        hit = (dest[which] == cache.codes[code]) & is_e
        entry = np.full(starts.size, -1)
        entry[which[hit]] = ids[hit]
        keep = np.flatnonzero(dest >= 0)
        win, dest, c, entry = lo + key[starts[keep]] % span, dest[keep], c[keep], entry[keep]
        at = np.minimum(np.searchsorted(cache.codes, dest), cache.codes.size - 1)
        row = np.where(cache.codes[at] == dest, cache.row_ids[at], -1)
        on_row = row >= 0
        np.minimum.at(self.mins.reshape(-1), row[on_row] * nw + win[on_row], c[on_row])
        hit = ~on_row & (entry >= 0)
        np.minimum.at(self.best, entry[hit], c[hit])
        spur = ~on_row & (entry < 0)
        self.spurious.append((win[spur], dest[spur], c[spur]))

    def finish(self, capacity: int) -> NoiseProfile:
        cache, mins, rows = self.cache, self.mins, self.cache.rows
        # two-row groups, per target row p: min over instances of d_p + d_q
        # where d_q < d_p, which is d_p + min(partner rows) when that minimum
        # sits strictly below d_p. A pair of rows can share a bucket in
        # several projections, so each (target, partner) pair counts once
        pairs = cache.row_ids[np.concatenate(self.two, axis=1)]
        ta, tb = np.concatenate([pairs, pairs[::-1]], axis=1)
        ta, tb = np.divmod(np.unique(ta * rows.shape[0] + tb), rows.shape[0])
        # a target that sat alone is overwritten by its exact counts below
        # wherever they are nonzero, and where they are 0 no partner count
        # lies strictly below them, so only the other targets are folded
        lone = self.ever_single[self.row_codes[ta]]
        ta, tb = ta[~lone], tb[~lone]
        firsts = np.flatnonzero(np.diff(ta, prepend=-1))
        for p, partners in zip(ta[firsts], np.split(tb, firsts[1:])):
            partner_min = rows[partners].min(axis=0)
            np.minimum(
                mins[p], np.where(partner_min < rows[p], rows[p] + partner_min, _INF32),
                out=mins[p],
            )
        # a count that sat alone ends at exactly its value, however many
        # projections decoded it
        np.copyto(mins, rows, where=self.cell_exact)
        mins[mins == _INF32] = 0
        self.best[self.exact] = cache.counts[self.exact]
        keep = self.best < _INF32
        w = cache.windows[keep]
        code = cache.codes[self.entry_code[keep]]
        val = self.best[keep]
        # the same absent pair can be decoded in several projections
        sw, sc, sv = (np.concatenate(col) for col in zip(*self.spurious))
        srt = np.lexsort((sv, sc, sw))
        sw, sc, sv = sw[srt], sc[srt], sv[srt]
        first = np.ones(sw.size, dtype=bool)
        first[1:] = (sw[1:] != sw[:-1]) | (sc[1:] != sc[:-1])
        parts = zip((w, code, val), (sw[first], sc[first], sv[first]))
        w, code, val = (np.concatenate(col) for col in parts)
        return _filter(cache, mins, w, code, val, capacity)


def _filter(cache: PairCounts, mins, w, code, val, capacity: int) -> NoiseProfile:
    """Each window's capacity largest values among its row cells (0 where
    unset) and its (window, code, value) triples, ties broken toward the
    smaller code. The triples are padded into a (windows, candidates) key
    matrix beside the rows and ranked in window blocks of at most
    _FILTER_BLOCK_CELLS cells: np.partition keeps each window's capacity
    smallest keys, and one sort of them repacked as (code rank, value) puts
    them in code order. Each block keeps its entries' candidate ranks and
    values as int32; the symbols are read through int32 tables of the
    candidates, so until the profile is built its entries take 8 bytes each
    besides their own 16."""
    sigma, nw = cache.sigma, cache.n_windows
    row_codes = cache.codes[cache.row_ids >= 0]
    cand = np.union1d(row_codes, code)
    if cand.size == 0:
        return _empty_profile(sigma, capacity, nw)
    # ascending key = descending value, then ascending code rank
    rank_bits = max(1, (cand.size - 1).bit_length())
    shift = np.int64(1) << rank_bits
    row_key = np.searchsorted(cand, row_codes)
    srt = np.argsort(w, kind="stable")
    w = w[srt]
    key = np.searchsorted(cand, code[srt]) - val[srt].astype(np.int64) * shift
    per_win = np.bincount(w, minlength=nw)
    first = np.zeros(nw + 1, dtype=np.int64)
    np.cumsum(per_win, out=first[1:])
    slot = np.arange(w.size) - first[w]
    n_rows = row_codes.size
    step = max(1, _FILTER_BLOCK_CELLS // max(1, n_rows + int(per_win.max())))
    ranks, values = [], []
    sizes = np.zeros(nw, dtype=np.int64)
    for lo in range(0, nw, step):
        hi = min(nw, lo + step)
        a, b = first[lo], first[hi]
        k = np.zeros((hi - lo, n_rows + int(per_win[lo:hi].max())), dtype=np.int64)
        np.multiply(mins[:, lo:hi].T, -shift, out=k[:, :n_rows])
        k[:, :n_rows] += row_key
        k[w[a:b] - lo, n_rows + slot[a:b]] = key[a:b]
        if k.shape[1] > capacity:
            k = np.partition(k, capacity - 1, axis=1)[:, :capacity]
        # rank << 32 | value; a key of value 0 (unset, or padding) repacks to
        # value 0 and is dropped after the sort
        k = (k & (shift - 1)) << 32 | -(k >> rank_bits)
        k.sort(axis=1)
        kept = k & 0xFFFFFFFF
        pos = kept > 0
        ranks.append((k[pos] >> 32).astype(np.int32))
        values.append(kept[pos].astype(np.int32))
        sizes[lo:hi] = pos.sum(axis=1)
    # the symbols through int32 tables of the candidates, each part freed
    # before the next is built
    rank = np.concatenate(ranks)
    del ranks
    us, vs = (cand // sigma).astype(np.int32)[rank], (cand % sigma).astype(np.int32)[rank]
    del rank
    indptr = np.zeros(nw + 1, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])
    return NoiseProfile(
        sigma=sigma, capacity=capacity, indptr=indptr, us=us, vs=vs,
        values=np.concatenate(values, dtype=np.int64),
    )

