"""Member Hamming sums by correlation (karloff's estimate; approx gets the
same sums from its pair counts), and the median driver of both estimators.

member_hamming_sum returns sum_i HAM(h_i(text window j), h_i(pattern)) over
the k family members for every window j. Both of its exact routes are one
summed correlation (correlation.correlate_rows), so each FFT chunk of rows
ends in one inverse FFT:

* symbol pairs: member i separates symbols a and b unless it hashes them
  together, which k - beta(a, b) members do not. So

      sum_i HAM_i[j] = sum_(a,b) N_j(a, b) * (k - beta(a, b)),

  where N_j(a, b) counts positions with text symbol a aligned to pattern
  symbol b in window j. For a fixed text symbol a, the sum over b is the
  correlation of a's indicator with the row W[a, pattern] of W = k - beta
  gathered along the pattern (and symmetrically for a fixed pattern
  symbol). One row per occurring symbol of the smaller side gives
  2 * min(sigma_t', sigma_p') + 1 FFTs, where sigma_t' and sigma_p' count
  the symbols occurring in the text and in the pattern; beta over the
  occurring pairs comes from the XOR tree in O(log k) each.
* per member: project text and pattern through every member; HAM summed
  over members is the summed window ones plus the summed pattern ones minus
  twice the summed correlation of the binary masks, 2k + 1 FFTs.

member_hamming_sum takes the symbol route iff min(sigma_t', sigma_p') <= k,
the route with fewer FFTs. Both routes give the same int64 counts. Beside
that rule sits pair_grid_pays, the rule of sparse_recovery.prepare_pair_counts
over the same symbol counts (text_model.occurring_symbols).
"""

from __future__ import annotations

import numpy as np
from scipy import fft as sfft

from .correlation import _FFT_CHUNK_BYTES, correlate_rows
from .hashing import XorTreeFamily, beta_grid, member_table
from .text_model import DistanceProfile, IntString, check_instance, occurring_symbols

_MEMBER_CHUNK = 64


def member_hamming_sum(text: IntString, pattern: IntString, family: XorTreeFamily) -> np.ndarray:
    """sum_i HAM(h_i(text window), h_i(pattern)) for all windows, exact int64."""
    check_instance(text, pattern)
    sigma_t, sigma_p = (occurring_symbols(s)[0].size for s in (text, pattern))
    if symbol_route_pays(sigma_t, sigma_p, family.k):
        return _symbol_pair_sum(text, pattern, family)
    return _per_member_sum(text, pattern, family)


def symbol_route_pays(sigma_t: int, sigma_p: int, k: int) -> bool:
    """Whether the symbol-pair route runs no more FFTs than the per-member one."""
    return min(sigma_t, sigma_p) <= k


def pair_grid_pays(sigma_t: int, sigma_p: int, m: int) -> bool:
    """Whether the pair counts are counted on a (pair cell, window) grid
    rather than by sorting (cell, window) keys: the occurring symbol pairs
    are no more than a window's m positions, so the grid holds no more cells
    than the enumeration has positions."""
    return sigma_t * sigma_p <= m


def _symbol_pair_sum(text, pattern, family) -> np.ndarray:
    n, m, nw = check_instance(text, pattern)
    sym_t, at_t = occurring_symbols(text)
    sym_p, at_p = occurring_symbols(pattern)
    # weights[a, b] = members separating text symbol a from pattern symbol b
    weights = (family.k - beta_grid(family, sym_t, sym_p)).astype(np.float64)
    # one row per occurring symbol of the smaller side: its indicator against
    # its weights row gathered along the other string
    text_rows = sym_t.size <= sym_p.size
    own, other = (at_t, at_p) if text_rows else (at_p, at_t)
    if not text_rows:
        weights = weights.T
    nfft = sfft.next_fast_len(n + m - 1, real=True)
    rows = max(1, _FFT_CHUNK_BYTES // (nfft * 16 * 3))
    total = np.zeros(nw, dtype=np.int64)
    for lo in range(0, weights.shape[0], rows):
        gathered = weights[lo : lo + rows, other]
        masks = own[None, :] == np.arange(lo, lo + gathered.shape[0])[:, None]
        pair = (masks, gathered) if text_rows else (gathered, masks)
        total += correlate_rows(*pair)
    return total


def _per_member_sum(text, pattern, family) -> np.ndarray:
    # Projects both strings through every member, chunking members to bound
    # memory: HAM summed over members = window ones + pattern ones - 2 * aligned ones.
    n, m, nw = check_instance(text, pattern)
    table = member_table(family, text.sigma)
    total = np.zeros(nw, dtype=np.int64)
    ones = np.zeros(n + 1, dtype=np.int64)
    for lo in range(0, family.k, _MEMBER_CHUNK):
        rows = table[lo : lo + _MEMBER_CHUNK]
        t_masks = rows[:, text.symbols]
        p_masks = rows[:, pattern.symbols]
        np.cumsum(t_masks.sum(axis=0, dtype=np.int64), out=ones[1:])
        total += ones[m : m + nw] - ones[:nw] + int(p_masks.sum(dtype=np.int64))
        total -= 2 * correlate_rows(t_masks, p_masks)
    return total


def median_profile(runs) -> DistanceProfile:
    """Per-window median over runs, the estimates of the executions as an
    (executions, windows) array or a list of rows."""
    return DistanceProfile(np.median(runs, axis=0), "estimate")
