"""Exact per-window mismatch-pair counts: D_j counts the aligned symbol
pairs (u, v), u != v, of window j, grouped by the code u*sigma + v.

prepare_pair_counts builds those counts over blocks of windows holding at
most _PAIR_BLOCK_POSITIONS positions (or one window), at about 48 bytes of
temporaries per position. With sigma_t' and sigma_p' the numbers of symbols
occurring in the text and the pattern, each position falls in the cell
rank_t(u) * sigma_p' + rank_p(v); as cells follow the sorted symbols
row-major they are already in code order. The two routes differ only in how
they count the cells. When sigma_t' * sigma_p' <= m (pair_grid_pays), the
grid route fills an int32 (cell, window) grid with one np.bincount per
block; the grid never holds more cells than the enumeration has positions,
at most 4 bytes per window position. Otherwise the sort route keys each
mismatch position by cell * nw + window: one np.unique per block yields the
block's entries by code and then window, and one sort of the keys merges
the blocks. Both give the same PairCounts.

A code that occurs in at least a quarter of the windows keeps an int32 count
row over all windows; every other code keeps its (window, count) entries. A
row thus holds at most four cells per entry of its code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .text_model import IntString, check_instance, occurring_symbols

# a code occurring in at least 1/_ROW_SHARE of the windows keeps a count row
# over all windows, which then holds at most _ROW_SHARE cells per entry of
# the code
_ROW_SHARE = 4
# the pair-count build enumerates at most this many window positions per
# block (or one window), read at each build. A sort-route block peaks at
# about 41 bytes per position when every position is a distinct mismatch
# pair (tracemalloc), 12 of which stay as its keys and counts
_PAIR_BLOCK_POSITIONS = 1 << 19


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

    def dense(self) -> np.ndarray:
        """(sigma^2, windows) int64 counts: row u*sigma + v holds the code's
        count in every window, 0 for a pair that occurs nowhere."""
        out = np.zeros((self.sigma**2, self.n_windows), dtype=np.int64)
        rowed = self.row_ids >= 0
        out[self.codes[rowed]] = self.rows[self.row_ids[rowed]]
        out[np.repeat(self.codes, np.diff(self.offsets)), self.windows] = self.counts
        return out


def prepare_pair_counts(text: IntString, pattern: IntString) -> PairCounts:
    n, m, nw = check_instance(text, pattern)
    block = max(1, _PAIR_BLOCK_POSITIONS // m)
    occ_t, occ_p = occurring_symbols(text), occurring_symbols(pattern)
    if pair_grid_pays(occ_t[0].size, occ_p[0].size, m):
        return _grid_pair_counts(text.sigma, occ_t, occ_p, m, nw, block)
    return _sorted_pair_counts(text, pattern, occ_t, occ_p, nw, block)


def pair_grid_pays(sigma_t: int, sigma_p: int, m: int) -> bool:
    """Whether the pair counts are counted on a (pair cell, window) grid
    rather than by sorting (cell, window) keys: the occurring symbol pairs
    are no more than a window's m positions, so the grid holds no more cells
    than the enumeration has positions."""
    return sigma_t * sigma_p <= m


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
