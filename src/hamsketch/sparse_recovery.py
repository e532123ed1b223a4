"""Sparse recovery of heavy mismatch pairs: the noise matrix D'.

For every window j this module recovers, from the pair counts D_j
(pair_counts), a sparse approximation D' with at most ceil(3/eps_eff)
entries such that the residual satisfies sum (d - d')^2 <= b * eps * d^2 on
most windows, where b = 12289/16384.

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
must equal it entry for entry. Recovery adds to the pair counts an int32
running minimum per row cell (4 bytes), and per entry an int32 running
minimum and code (8 bytes), plus 12 bytes per run of one code in one decode
chunk (one run per entry code with a single chunk, at most one per entry),
so memory grows with the number of pair entries and not with sigma^2 *
windows.

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
alone in every window, and its running minimum takes its nonzero counts. The
other groups decode as follows:

- Every member has a row. Two members decode in each window to the strictly
  heavier one, with value d_a + d_b (equal counts tie every differing plane
  and reject), which is the heavier count itself where the other is 0.
  Three or more, k of them, decode over the distinct ways they
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
  _DECODE_BUDGET bytes of scratch allow (or one window), the same chunks in
  every projection; a heavy group is thus split like any other. In a chunk
  of span windows from lo, each entry of a group, and each nonzero cell of a
  row member standing in for one, is keyed by group * span + window - lo,
  and one sort of the keys packed above the entry ids puts the members a
  window holds next to each other. A chunk reads its entries in runs of one
  code, the runs listed by chunk, so it looks groups up per run and not per
  entry. An entry or row cell alone in its window decodes to its exact count
  as above, so its running minimum takes that count without a decode. Each
  window holding two or more runs the bit-plane decode, the colliding
  entries' codes read from a per-entry code array.

A bit-plane decode names either a member of the group, whose value it can
lower below the member's collision counts, or a pair absent from the window,
which is kept as a spurious entry just as the literal procedure keeps it.
The capacity filter (noise_profile) ranks the spurious entries with the
running minima into D'.

Where the ladder stops. Every value a pair's running minimum takes is the
count of a bucket holding the pair, so it never falls below the pair's count
and reaches it exactly when the pair has sat alone among its window's
nonzero pairs in a non-diagonal bucket. The running minima are thus the
record of exactness: a nonzero (code, window) count is exact once its
running minimum equals it, and no later projection changes it. Once every
nonzero count is exact, a later projection can only add pairs absent from
their windows (spurious decodes, and values on row cells whose count is 0),
so construct_sparse_noise stops after the first projection at which that
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

from . import noise_profile
from ._seeds import ROLE_PROJECTION, mix_array
from ._sketch import check_epsilon, resolve_reps
from .hashing import eval_blocks, fourwise_coeffs
from .noise_profile import NoiseProfile
from .pair_counts import PairCounts, pair_grid_pays, prepare_pair_counts  # all re-exported
from .text_model import IntString

# noise budget constant: sum (d - d')^2 <= B_CONST * eps * d^2
B_CONST = 12289 / 16384

_INF32 = np.int32(np.iinfo(np.int32).max)  # unset running minimum
_MAX_T_EXP = 25  # keeps every projection range within the hash output cap
# per-projection temporaries of the entry decode, bytes per decoded entry:
# about 40 when few entries collide, and up to this base plus this much per
# symbol bit when all of them do, for their 2*nbits int64 plane sums
# (tracemalloc on planted_heavy n=2048, m=128: 223 B at sigma=64, 398 B at
# sigma=2^16)
_SCRATCH_BYTES_PER_ENTRY = 128
_SCRATCH_BYTES_PER_BIT = 18
# the entry decode takes at most this many bytes of that scratch per chunk of
# windows (or one window); read at each recovery, not bound at import
_DECODE_BUDGET = 1 << 30
# the stopping check compares at most this many running minima at a time
_EXACT_BLOCK_CELLS = 1 << 16


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
    params, draw (i, rep) as item i * params.reps + rep; ell >= r draws tau,
    else pi. The ladder usually stops after a few draws, so the drawn hashes
    are evaluated over [0, sigma) in blocks of 1, 2, 4, ... draws, each block
    only once the plan reaches it and in eval_blocks steps: a ladder that
    runs p projections evaluates at most 2p - 1 draws."""
    draws = [(i, rep) for i in range(params.num_scales) for rep in range(params.reps)]
    ranges = [scale_ranges(params, i) for i, _ in draws]
    # fourwise_new's coefficients at mix(params.seed, ROLE_PROJECTION, i, rep)
    # for every draw, all seeds and chains stepped together
    scale_col, rep_col = np.array(draws, dtype=np.uint64).reshape(-1, 2).T
    coeffs = fourwise_coeffs(mix_array(params.seed, ROLE_PROJECTION, scale_col, rep_col))
    lo = 0
    while lo < len(draws):
        hi = min(len(draws), 2 * lo + 1)
        for start, vals in eval_blocks(coeffs[lo:hi], np.arange(sigma)):
            for d, row in enumerate(vals, start=lo + start):
                (i, rep), (ell, r) = draws[d], ranges[d]
                drawn = (row & np.uint64(max(ell, r) - 1)).astype(np.int64)
                # the side with the smaller range keeps the drawn values' low bits
                tau, pi = (drawn, drawn & (r - 1)) if ell >= r else (drawn & (ell - 1), drawn)
                yield CoupledProjection(
                    ell=ell, r=r, sigma=sigma, scale_index=i, rep_index=rep,
                    tau_table=tau, pi_table=pi,
                )
        lo = hi


# ----------------------------------------------------------------------------
# the constructor (fast path)
# ----------------------------------------------------------------------------

def construct_sparse_noise(
    text: IntString, pattern: IntString, params: RecoveryParams
) -> NoiseProfile:
    """Per-window sparse noise matrices from the projection ladder.

    Every (scale, rep) draws a coupled projection; every non-diagonal bucket
    with positive count is decoded and the decoded pair min-updated with the
    bucket count. The ladder stops after the first projection at which every
    nonzero pair count is exact (module docstring). Unset entries become 0
    and each window keeps only its capacity largest values. The pair counts
    are built in blocks of pair_counts._PAIR_BLOCK_POSITIONS positions and
    the entries decoded in chunks within _DECODE_BUDGET bytes; the profile
    depends on neither.
    """
    return _recover(prepare_pair_counts(text, pattern), params)


def _recover(pairs: PairCounts, params: RecoveryParams) -> NoiseProfile:
    """The projection ladder and capacity filter over prebuilt pair counts."""
    sigma = pairs.sigma
    scratch = _SCRATCH_BYTES_PER_ENTRY + _SCRATCH_BYTES_PER_BIT * (sigma - 1).bit_length()
    rec = _Recovery(pairs, params.bucket_count, max(1, _DECODE_BUDGET // scratch))
    for proj in _projection_plan(params, sigma):
        rec.project(proj)
        # every present pair is at its exact count: later projections could
        # only add pairs absent from their windows
        if rec.all_exact():
            break
    return rec.finish(params.capacity)


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
    A nonzero count is exact once its running minimum equals it (module
    docstring), so the minima are also the ladder's stopping state.
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
        self.ever_single = np.zeros(cache.codes.size, dtype=bool)
        none = np.zeros(0, dtype=np.int64)
        self.spurious = [(none, none, none)]
        # diagonal bucket bitmap, set and cleared again by each projection
        self.diag = np.zeros(n_buckets, dtype=bool)

    def project(self, proj: CoupledProjection) -> None:
        cache = self.cache
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
        # window, so it decodes to each of its nonzero counts
        single = order[starts[sizes == 1]]
        single = single[~self.ever_single[single]]
        self.ever_single[single] = True
        ent = _ranges(cache.offsets[single], np.diff(cache.offsets)[single])
        self.best[ent] = cache.counts[ent]
        for row in cache.row_ids[single[~self.is_entry[single]]]:
            own = cache.rows[row]
            np.minimum(self.mins[row], np.maximum(own, (own == 0) * _INF32), out=self.mins[row])
        mixed = (sizes > 1) & np.logical_or.reduceat(self.is_entry[order], starts)
        on_rows = (sizes > 1) & ~mixed
        # two-row groups decode to the strictly heavier member with value
        # c = d_a + d_b (equal weights tie every differing bit plane and
        # reject), so no plane sums or projection checks are needed. A member
        # that sat alone in a bucket already holds its exact count wherever
        # it can be the heavier one, so only the others are lowered
        two = starts[on_rows & (sizes == 2)]
        for a, b in zip(order[two], order[two + 1]):
            ra, rb = cache.rows[cache.row_ids[a]], cache.rows[cache.row_ids[b]]
            for p, own, other in ((a, ra, rb), (b, rb, ra)):
                if not self.ever_single[p]:
                    row = self.mins[cache.row_ids[p]]
                    np.minimum(row, np.maximum(own + other, (own <= other) * _INF32), out=row)
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

    def all_exact(self) -> bool:
        """Every nonzero count's running minimum has reached it. The running
        minima of zero-count row cells only ever take values >= 1, so they
        are masked out; the arrays are compared in blocks, up to the first
        block holding a count that is not yet exact."""
        cache, b = self.cache, _EXACT_BLOCK_CELLS
        for mins, counts in ((self.best, cache.counts), (self.mins.ravel(), cache.rows.ravel())):
            for lo in range(0, counts.size, b):
                got, want = mins[lo : lo + b], counts[lo : lo + b]
                if not np.all((got == want) | (want == 0)):
                    return False
        return True

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
        # every check (with c its own count where it is alone); arithmetic
        # masks, as masked ufuncs run several times slower on these arrays
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
        lone, lone_cells = ids[ids < n_e], ids[ids >= n_e] - n_e
        self.best[lone] = cache.counts[lone]
        self.mins.reshape(-1)[lone_cells] = cache.rows.reshape(-1)[lone_cells]
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
        cache, mins = self.cache, self.mins
        mins *= mins != _INF32
        keep = self.best < _INF32
        # the same absent pair can be decoded in several projections: each
        # (window, code) keeps its smallest value
        sw, sc, sv = (np.concatenate(col) for col in zip(*self.spurious))
        srt = np.lexsort((sv, sc, sw))
        sw, sc, sv = sw[srt], sc[srt], sv[srt]
        first = np.ones(sw.size, dtype=bool)
        first[1:] = (sw[1:] != sw[:-1]) | (sc[1:] != sc[:-1])
        table, code_rank, spur_rank = noise_profile._merge_codes(cache.codes, sc[first])
        # every candidate ranks by its index into the table, a gather for
        # the row cells and entries
        w = np.concatenate([cache.windows[keep], sw[first]], dtype=np.int32)
        rank = np.concatenate([code_rank[self.entry_code[keep]], spur_rank])
        val = np.concatenate([self.best[keep], sv[first]])
        rows = code_rank[self.row_codes]
        return noise_profile._filter(cache.sigma, table, mins, rows, w, rank, val, capacity)
