"""Exact sliding Hamming distance profiles.

Two independent routes with identical outputs:

* naive: direct window comparison, O(n*m); the reference everything else is
  judged against.
* convolution: the aligned-ones correlations of every alphabet symbol
  occurring in the pattern, summed in one FFT pass per chunk of symbols,
  O(sigma * n log m); the sum counts the agreeing positions, so
  distance = m - matches.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .correlation import correlate_rows
from .text_model import DistanceProfile, IntString, check_instance

CONV_SIGMA_CAP = 4096
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
    """Per-symbol aligned-ones counting; exact and near-linear for small sigma."""
    n, m, nw = check_instance(text, pattern)
    if text.sigma > CONV_SIGMA_CAP:
        raise ValueError(
            f"sigma {text.sigma} above convolution cap {CONV_SIGMA_CAP}; use the naive profile"
        )
    symbols = np.unique(pattern.symbols)
    matches = np.zeros(nw, dtype=np.int64)
    for lo in range(0, symbols.size, _CONV_CHUNK_ROWS):
        batch = symbols[lo : lo + _CONV_CHUNK_ROWS]
        t_masks = (text.symbols[None, :] == batch[:, None]).astype(np.uint8)
        p_masks = (pattern.symbols[None, :] == batch[:, None]).astype(np.uint8)
        matches += correlate_rows(t_masks, p_masks)
    return DistanceProfile(m - matches, "exact")
