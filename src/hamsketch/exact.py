"""Exact sliding Hamming distance profiles.

Two independent routes with identical outputs:

* naive: direct window comparison, O(n*m); the reference everything else is
  judged against.
* convolution: Abrahamson's frequent/rare split counts the agreeing positions
  (distance = m - matches). With the pattern's symbol counts sorted
  descending, c_0 >= c_1 >= ... and c_s = 0, it picks the i minimising
  i + c_i: the i symbols counted more than c_i times are FFT rows of aligned
  ones, the rest take c_i bincount passes, pass r pairing each text position
  of a rare symbol with that symbol's r-th pattern position. Fewer than
  sqrt(m) symbols occur more than sqrt(m) times, so rows + passes <=
  2 sqrt(m): O(n sqrt(m) log n) time and O(n + m) memory at any sigma.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .correlation import correlate_rows
from .text_model import DistanceProfile, IntString, check_instance

_NAIVE_CHUNK_CELLS = 1 << 23
_CONV_CHUNK_ROWS = 64


def hamming_profile_naive(text: IntString, pattern: IntString) -> DistanceProfile:
    """Window-by-window comparison; O(n*m) but branch-free per chunk."""
    n, m, nw = check_instance(text, pattern)
    windows = sliding_window_view(text.symbols, m)
    out = np.empty(nw, dtype=np.int64)
    step = max(1, _NAIVE_CHUNK_CELLS // m)
    for lo in range(0, nw, step):
        hi = min(nw, lo + step)
        out[lo:hi] = (windows[lo:hi] != pattern.symbols).sum(axis=1, dtype=np.int64)
    return DistanceProfile(out, "exact")


def hamming_profile_convolution(text: IntString, pattern: IntString) -> DistanceProfile:
    """Frequent symbols by FFT, rare ones by bincount passes; O(n sqrt(m) log n)."""
    n, m, nw = check_instance(text, pattern)
    t, p = text.symbols, pattern.symbols
    symbols, counts = np.unique(p, return_counts=True)
    ranked = np.append(np.sort(counts)[::-1], 0)
    cut = int(ranked[np.argmin(np.arange(ranked.size) + ranked)])
    frequent = symbols[counts > cut]
    matches = np.zeros(nw, dtype=np.int64)
    for lo in range(0, frequent.size, _CONV_CHUNK_ROWS):
        batch = frequent[lo : lo + _CONV_CHUNK_ROWS]
        t_masks = (t[None, :] == batch[:, None]).astype(np.uint8)
        p_masks = (p[None, :] == batch[:, None]).astype(np.uint8)
        matches += correlate_rows(t_masks, p_masks)
    if cut:  # rare symbols: text positions j, offsets of their pattern positions
        by_symbol = np.argsort(p, kind="stable")  # pattern positions, grouped as symbols
        k = np.minimum(np.searchsorted(symbols, t), symbols.size - 1)
        j = np.flatnonzero((symbols[k] == t) & (counts[k] <= cut))
        first, left = (np.cumsum(counts) - counts)[k[j]], counts[k[j]]
        for r in range(cut):
            keep = left > r  # drop the positions whose symbol has no r-th occurrence
            j, first, left = j[keep], first[keep], left[keep]
            w = j - by_symbol[first + r]
            matches += np.bincount(w[(w >= 0) & (w < nw)], minlength=nw)
    return DistanceProfile(m - matches, "exact")
