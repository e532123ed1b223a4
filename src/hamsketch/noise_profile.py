"""D', the noise matrix: every window's sparse matrix in one CSR matrix, and
top_pair_counts, which builds it as each window's capacity largest exact
mismatch-pair counts.

top_pair_counts walks the windows in blocks of at most _BLOCK_POSITIONS
positions (or one window) and counts each block's aligned symbol pairs
(u, v), u != v. With sigma_t' and sigma_p' the numbers of symbols occurring
in the text and the pattern, each position falls in the cell
rank_t(u) * sigma_p' + rank_p(v); as cells follow the sorted symbols
row-major they are in code order. A block's keys window * cells + cell are
one add of the text's cells to a table of window * cells + the pattern's
part, built once per call. When sigma_t' * sigma_p' <= m
(pair_grid_pays), the grid route counts the block on a (windows, cells)
grid with one np.bincount; the grid holds no more cells than the block has
positions. Otherwise the sort route keys each mismatch position by
window * cells + cell, and one np.unique per block yields each window's
pairs in code order. Either way every window's candidates fill one row of a
count matrix in code order, and the filter keeps each row's capacity
largest counts. The cells it keeps, compacted to the ones used, are the
columns of the NoiseProfile, the CSR matrix the correction multiplies as it
is.

On the grid route the block's count matrix N is every count of its windows,
so approx gets each execution's estimate there too (_dprime_and_residual):
with A the (cells, executions) agreements, each window's d - R @ A, where d
sums the window's off-diagonal counts and R is the off-diagonal N with the
cells kept for D' set to 0. The pair counts are enumerated once either way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .text_model import IntString, check_instance, occurring_symbols

# top_pair_counts enumerates at most this many window positions per block (or
# one window), read at each call. A block's temporaries peak at about 17
# bytes per position on the grid route (22 with approx's residual products)
# and 73 on the sort route, where every position may be a distinct mismatch
# pair (tracemalloc): 4.8 MB at most.
# Blocks of 2^16 to 2^18 positions build D' fastest on the bench shapes
_BLOCK_POSITIONS = 1 << 16


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


def pair_grid_pays(sigma_t: int, sigma_p: int, m: int) -> bool:
    """Whether a block's pair counts are counted on a (window, pair cell)
    grid rather than by sorting (window, cell) keys: the occurring symbol
    pairs are no more than a window's m positions, so the grid holds no more
    cells than the enumeration has positions."""
    return sigma_t * sigma_p <= m


def top_pair_counts(text: IntString, pattern: IntString, capacity: int) -> NoiseProfile:
    """D': each window's capacity largest exact mismatch-pair counts, ties
    going to the smaller code.

    A block's count matrix has one row per window and its columns in code
    order: the cells on the grid route, the window's pairs on the sort
    route. Each candidate is keyed by its column less its count shifted
    above the columns, so ascending keys run by count descending, then code
    ascending; np.partition keeps each row's capacity smallest keys, and one
    sort of them repacked as (column, count) puts them in code order.
    Columns and counts stay below 2^bits, bits = m.bit_length(): a window
    has at most m pairs, and the grid route at most m cells. So keys and
    repacks stay below 2^(2 * bits), exact in int64 for every m < 2^31 (a
    longer pattern alone would take 8 GiB of int32 symbols). Each block
    keeps its entries' cells (int64) and counts (int32) until the profile
    is built."""
    return _dprime_and_residual(text, pattern, capacity)[0]


def _dprime_and_residual(text: IntString, pattern: IntString, capacity: int, weights=None):
    """(top_pair_counts(text, pattern, capacity), residual products or None).

    weights, if given, maps the occurring symbols (sym_t, sym_p) to a
    (cells, columns) float64 table over the cells rank_t(u) * sigma_p' +
    rank_p(v). On the grid route, where each block's full count matrix N is
    at hand, it is called once and the second result is the (windows,
    columns) float64 d - R @ weights: d is each window's sum of its
    off-diagonal counts, and R is the block's off-diagonal N with the cells
    kept for D' set to 0. Elsewhere the second result is None.
    """
    _, m, nw = check_instance(text, pattern)
    (sym_t, at_t), (sym_p, at_p) = occurring_symbols(text), occurring_symbols(pattern)
    cells = sym_t.size * sym_p.size
    grid = pair_grid_pays(sym_t.size, sym_p.size, m)
    # the diagonal cells, which count the matches
    _, diag_t, diag_p = np.intersect1d(sym_t, sym_p, assume_unique=True, return_indices=True)
    diagonal = diag_t * sym_p.size + diag_p
    bits = m.bit_length()
    low = (1 << bits) - 1
    block = max(1, _BLOCK_POSITIONS // m)
    t_cells = sliding_window_view(at_t * sym_p.size, m)
    t_windows = sliding_window_view(text.symbols, m)
    # window * cells + the pattern's part of each cell, for one block's
    # windows, and the buffer each block's keys window * cells + cell are
    # added into: they stay below b * cells <= 2^20 * max(_BLOCK_POSITIONS,
    # m), as sigma_t' <= 2^20
    offsets = at_p + np.arange(0, min(block, nw) * cells, cells)[:, None]
    keys = np.empty_like(offsets)
    table = weights(sym_t, sym_p) if grid and weights is not None else None
    residual = None if table is None else np.empty((nw, table.shape[1]))
    kept, values = [], []
    sizes = np.zeros(nw, dtype=np.int64)
    for lo in range(0, nw, block):
        b = min(block, nw - lo)
        key = np.add(t_cells[lo : lo + b], offsets[:b], out=keys[:b])
        if grid:
            count = np.bincount(key.ravel(), minlength=b * cells).reshape(b, cells)
            count[:, diagonal] = 0
            if table is not None:
                resid = count.astype(np.float64)
                dist = resid.sum(axis=1)
        else:
            key, cnt = np.unique(key[t_windows[lo : lo + b] != pattern.symbols], return_counts=True)
            win = key // cells
            first = np.searchsorted(win, np.arange(b + 1))
            count = np.zeros((b, int(np.diff(first).max())), dtype=np.int64)
            count[win, np.arange(key.size) - first[win]] = cnt
        # ascending key = descending count, then ascending column
        count <<= bits
        k = np.subtract(np.arange(count.shape[1]), count, out=count)
        if k.shape[1] > capacity:
            k = np.partition(k, capacity - 1, axis=1)[:, :capacity]
        # column << bits | count; a key of count 0 (an empty cell, or
        # padding) repacks to count 0 and is dropped after the sort
        k = (k & low) << bits | -(k >> bits)
        k.sort(axis=1)
        cnt = k & low
        pos = cnt > 0
        col = k[pos] >> bits
        size = pos.sum(axis=1)
        sizes[lo : lo + b] = size
        if table is not None:
            # every term is an integer of size at most m, so the float64
            # product is exact in any order
            resid[np.repeat(np.arange(b), size), col] = 0
            np.subtract(dist[:, None], resid @ table, out=residual[lo : lo + b])
        kept.append(col if grid else key[np.repeat(first[:-1], size) + col] % cells)
        values.append(cnt[pos].astype(np.int32))
    del offsets, keys
    cell = np.concatenate(kept)
    del kept
    # the kept cells as columns of the cells used: marked on a table of all
    # cells (5 bytes each) when it is no larger than a block, else sorted
    if cells <= max(_BLOCK_POSITIONS, m):
        used = np.zeros(cells, dtype=bool)
        used[cell] = True
        cols = (np.cumsum(used, dtype=np.int32) - 1)[cell]
        used = np.flatnonzero(used)
    else:
        used, cols = np.unique(cell, return_inverse=True)
        cols = cols.astype(np.int32)
    del cell
    indptr = np.zeros(nw + 1, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])
    return NoiseProfile(
        sigma=text.sigma, capacity=capacity, indptr=indptr,
        codes=sym_t[used // sym_p.size] * text.sigma + sym_p[used % sym_p.size], cols=cols,
        values=np.concatenate(values, dtype=np.int64),
    ), residual
