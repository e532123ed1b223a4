"""D', the noise matrix: every window's sparse matrix in one CSR matrix, and
top_pair_counts, which builds it from the exact pair counts (pair_counts) as
each window's capacity largest counts.

Every candidate names its code by its index into the sorted distinct pair
codes, so the row cells and entries take their ranks with no search. The
ranks the filter keeps, with the unused codes compacted away, are the
columns of the NoiseProfile, the CSR matrix the correction multiplies as it
is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pair_counts import PairCounts

# the capacity filter ranks at most this many candidate cells at a time, at
# 16 bytes of key and partitioned copy per cell; read at each call
_FILTER_BLOCK_CELLS = 1 << 18


@dataclass(eq=False)
class NoiseProfile:
    """All windows' sparse noise matrices as one CSR matrix over the codes
    u*sigma + v, the (windows, codes) matrix the correction multiplies.

    codes holds the distinct codes the entries use, ascending. Window j owns
    entries indptr[j]:indptr[j+1]; entry i has the int32 column cols[i], the
    code codes[cols[i]], and the value values[i]. Within a window the
    columns rise, so its pairs are sorted by (u, v). us, vs and
    entry_codes() are read-only arrays derived from codes and cols.
    """

    sigma: int
    capacity: int
    indptr: np.ndarray
    codes: np.ndarray  # int64
    cols: np.ndarray   # int32
    values: np.ndarray

    @property
    def n_windows(self) -> int:
        return self.indptr.size - 1

    @property
    def us(self) -> np.ndarray:
        return _read_only((self.codes // self.sigma).astype(np.int32)[self.cols])

    @property
    def vs(self) -> np.ndarray:
        return _read_only((self.codes % self.sigma).astype(np.int32)[self.cols])

    def entry_codes(self) -> np.ndarray:
        """Each entry's code u*sigma + v as int64."""
        return _read_only(self.codes[self.cols])

    def entry_windows(self) -> np.ndarray:
        return np.repeat(np.arange(self.n_windows, dtype=np.int64), np.diff(self.indptr))

    def csr(self):
        """The (windows, codes) scipy.sparse CSR matrix of the float64
        values over these arrays, with no entry sorted again."""
        from scipy import sparse

        values, shape = self.values.astype(np.float64), (self.n_windows, self.codes.size)
        return sparse.csr_matrix((values, self.cols, self.indptr), shape=shape)

    def validate(self) -> None:
        """ValueError unless the CSR layout holds, the codes are distinct,
        ascending, used and off-diagonal pairs over [0, sigma), and every
        entry is a positive count, at most capacity per window, each
        window's columns strictly rising."""
        ptr, codes, cols, sigma = self.indptr, self.codes, self.cols, self.sigma
        if cols.size != self.values.size:
            raise ValueError("noise entries need equal cols and values lengths")
        if ptr.size == 0 or ptr[0] != 0 or ptr[-1] != cols.size:
            raise ValueError(f"indptr must run from 0 to the {cols.size} entries")
        sizes = np.diff(ptr)
        if np.any(sizes < 0):
            raise ValueError("indptr must not decrease")
        if np.any(sizes > self.capacity):
            raise ValueError("a window exceeds the entry capacity")
        if self.values.size and self.values.min() <= 0:
            raise ValueError("noise entries must be positive")
        if cols.size and (cols.min() < 0 or cols.max() >= codes.size):
            raise ValueError(f"cols must index the {codes.size} table codes")
        if codes.size:
            if codes.min() < 0 or codes.max() >= sigma * sigma:
                raise ValueError(f"table codes must lie in [0, sigma^2) = [0, {sigma * sigma})")
            if np.any(codes // sigma == codes % sigma):
                raise ValueError("diagonal noise entries not allowed")
            if np.any(np.diff(codes) <= 0):
                raise ValueError("table codes must be sorted without duplicates")
            if np.bincount(cols, minlength=codes.size).min() == 0:
                raise ValueError("every table code must be used by an entry")
        # columns rise within a window; a step that does not rise must start
        # a window
        flat = np.flatnonzero(np.diff(cols) <= 0) + 1
        if not np.isin(flat, ptr).all():
            raise ValueError("a window's pairs must be sorted by (u, v) without duplicates")

    def dump_csv(self, path) -> None:
        wins = self.entry_windows()
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write("window,u,v,dprime\n")
            for w, u, v, val in zip(wins, self.us, self.vs, self.values):
                fh.write(f"{w},{u},{v},{val}\n")


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def top_pair_counts(pairs: PairCounts, capacity: int) -> NoiseProfile:
    """D': each window's capacity largest exact pair counts, ties broken
    toward the smaller code.

    The candidates are the row cells of pairs (0 where the code is absent)
    and its entries, each keyed by its count and its code's index into
    pairs.codes, the rank. The entries are grouped by window with one
    argsort: keys are distinct within a window, so their order there does
    not matter. They are padded into a (windows, candidates) key matrix
    beside the rows and ranked in window blocks of at most
    _FILTER_BLOCK_CELLS cells: np.partition keeps each window's capacity
    smallest keys, and one sort of them repacked as (rank, count) puts them
    in code order. Each block keeps its entries' ranks and counts as int32.
    The ranks become the profile's columns once the unused codes are
    compacted away, so until the profile is built its entries take 8 bytes
    each besides their own 12."""
    codes, nw = pairs.codes, pairs.n_windows
    # ascending key = descending count, then ascending rank
    rank_bits = max(1, (codes.size - 1).bit_length())
    shift = np.int64(1) << rank_bits
    row_rank = np.flatnonzero(pairs.row_ids >= 0)
    rank = np.repeat(np.arange(codes.size), np.diff(pairs.offsets))
    key = rank - pairs.counts.astype(np.int64) * shift
    srt = np.argsort(pairs.windows)
    w, key = pairs.windows[srt], key[srt]
    per_win = np.bincount(w, minlength=nw)
    first = np.zeros(nw + 1, dtype=np.int64)
    np.cumsum(per_win, out=first[1:])
    slot = np.arange(w.size) - first[w]
    n_rows = row_rank.size
    step = max(1, _FILTER_BLOCK_CELLS // max(1, n_rows + int(per_win.max())))
    ranks, values = [], []
    sizes = np.zeros(nw, dtype=np.int64)
    for lo in range(0, nw, step):
        hi = min(nw, lo + step)
        a, b = first[lo], first[hi]
        k = np.zeros((hi - lo, n_rows + int(per_win[lo:hi].max())), dtype=np.int64)
        np.multiply(pairs.rows[:, lo:hi].T, -shift, out=k[:, :n_rows])
        k[:, :n_rows] += row_rank
        k[w[a:b] - lo, n_rows + slot[a:b]] = key[a:b]
        if k.shape[1] > capacity:
            k = np.partition(k, capacity - 1, axis=1)[:, :capacity]
        # rank << 32 | count; a key of count 0 (an absent row code, or
        # padding) repacks to count 0 and is dropped after the sort
        k = (k & (shift - 1)) << 32 | -(k >> rank_bits)
        k.sort(axis=1)
        kept = k & 0xFFFFFFFF
        pos = kept > 0
        ranks.append((k[pos] >> 32).astype(np.int32))
        values.append(kept[pos].astype(np.int32))
        sizes[lo:hi] = pos.sum(axis=1)
    # the ranks as columns of the codes they use, each part freed before the
    # next is built
    rank = np.concatenate(ranks)
    del ranks
    used = np.zeros(codes.size, dtype=bool)
    used[rank] = True
    cols = (np.cumsum(used, dtype=np.int32) - 1)[rank]
    del rank
    indptr = np.zeros(nw + 1, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])
    return NoiseProfile(
        sigma=pairs.sigma, capacity=capacity, indptr=indptr, codes=codes[used], cols=cols,
        values=np.concatenate(values, dtype=np.int64),
    )
