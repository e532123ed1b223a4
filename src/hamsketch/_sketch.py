"""Shared machinery for projection-based estimators: member Hamming sums.

member_hamming_sum returns sum_i HAM(h_i(text window j), h_i(pattern)) over
the k family members for every window j, by one of two exact routes:

* symbol pairs: member i separates symbols a and b unless it hashes them
  together, which k - beta(a, b) members do not. So

      sum_i HAM_i[j] = sum_(a,b) N_j(a, b) * (k - beta(a, b)),

  where N_j(a, b) counts positions with text symbol a aligned to pattern
  symbol b in window j. Every N_j(a, b) is the correlation of two symbol
  indicators, so the whole sum is one inverse FFT of
  sum_(a,b) W[a, b] * F_text[a] * F_pattern[b] with W = k - beta; beta over
  the sigma_t' x sigma_p' occurring pairs comes from the XOR tree in
  O(log k) each. Its cost does not grow with k. The sums reach k*m, and the
  correlation module's residue guard checks the rounding.
* per member: project text and pattern through every member and correlate
  the k binary masks (FFT, or the popcount cross-check backend).

symbol_route_pays picks the route from sigma_t', sigma_p', k and nfft (the
FFT length) alone; the "popcount" backend always takes the per-member route,
as the cross-check. Both routes give the same int64 counts.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import fft as sfft

from .correlation import (
    _FFT_CHUNK_BYTES,
    _resolve_backend,
    correlate_rows,
    count_aligned_ones,
    round_counts,
)
from .hashing import XorTreeFamily, beta_grid, member_table
from .text_model import DistanceProfile, IntString, check_instance

_MEMBER_CHUNK = 64
# Route rule. The per-member route costs 3k FFTs of nfft points (text,
# pattern and inverse per member). The symbol route costs sigma_t' +
# sigma_p' + 1 such FFTs plus a real (sigma_t' x sigma_p') by
# (sigma_p' x nfft) matrix product, which is cheap per cell next to an FFT's
# log2(nfft) butterflies. Timed on a 2-core x86 machine (n 2^11..2^15,
# k 2^4..2^8, balanced and one-sided alphabets), the symbol route ran in at
# most 0.6x the per-member time wherever both
#     sigma_t' * sigma_p' <= 4 * k * log2(nfft)   (the matrix product)
#     sigma_t' + sigma_p' <= 2 * k                (the FFT count)
# hold. Outside that region it lost by up to 25x on large alphabets, and by
# 3x at m = 1, sigma_t' = 2577, k = 256, where only the FFT count rules it
# out; it still won some balanced shapes there (by 3x at sigma 128..164,
# k = 256), but by less near the boundary (0.6x at sigma_t' = 256,
# sigma_p' = 58, k = 256), so the per-member route, whose cost does not
# depend on the alphabet, is kept wherever the lead is not clear.
_SYMBOL_ROUTE_PRODUCT = 4
_SYMBOL_ROUTE_SUM = 2


def member_hamming_sum(
    text: IntString, pattern: IntString, family: XorTreeFamily, backend: str = "auto"
) -> np.ndarray:
    """sum_i HAM(h_i(text window), h_i(pattern)) for all windows, exact int64."""
    n, m, _ = check_instance(text, pattern)
    mode = _resolve_backend(backend)
    if mode == "fft":
        sym_t = np.flatnonzero(np.bincount(text.symbols, minlength=text.sigma))
        sym_p = np.flatnonzero(np.bincount(pattern.symbols, minlength=pattern.sigma))
        nfft = sfft.next_fast_len(n + m - 1, real=True)
        if symbol_route_pays(sym_t.size, sym_p.size, family.k, nfft):
            return _symbol_pair_sum(text, pattern, family, sym_t, sym_p, nfft)
    return _per_member_sum(text, pattern, family, mode)


def symbol_route_pays(sigma_t: int, sigma_p: int, k: int, nfft: int) -> bool:
    """Whether the symbol-pair route clearly beats k per-member correlations."""
    return (
        sigma_t * sigma_p <= _SYMBOL_ROUTE_PRODUCT * k * math.log2(nfft)
        and sigma_t + sigma_p <= _SYMBOL_ROUTE_SUM * k
    )


def _symbol_pair_sum(text, pattern, family, sym_t, sym_p, nfft) -> np.ndarray:
    _, m, nw = check_instance(text, pattern)
    # weights[a, b] = members separating text symbol a from pattern symbol b
    weights = (family.k - beta_grid(family, sym_t, sym_p)).astype(np.float64)
    # The pattern is reversed so that spectrum products give correlations.
    # The smaller side's spectra are kept across the loop over the larger
    # side (weights rows follow the inner side); both sides stream in row
    # chunks that bound the FFT scratch.
    (o_seq, o_sym), (i_seq, i_sym) = (pattern.symbols[::-1], sym_p), (text.symbols, sym_t)
    if sym_p.size > sym_t.size:
        (o_seq, o_sym), (i_seq, i_sym), weights = (i_seq, i_sym), (o_seq, o_sym), weights.T
    rows = max(1, _FFT_CHUNK_BYTES // (nfft * 16 * 3))
    acc = np.zeros(nfft // 2 + 1, dtype=np.complex128)
    for olo in range(0, o_sym.size, rows):
        f_out = _indicator_spectra(o_seq, o_sym[olo : olo + rows], nfft).view(np.float64)
        for ilo in range(0, i_sym.size, rows):
            f_in = _indicator_spectra(i_seq, i_sym[ilo : ilo + rows], nfft)
            w = np.ascontiguousarray(weights[ilo : ilo + rows, olo : olo + rows])
            # a real matrix times interleaved (re, im) columns is W @ F exactly
            mixed = (w @ f_out).view(np.complex128)
            acc += np.einsum("ij,ij->j", f_in, mixed)
    return round_counts(sfft.irfft(acc, nfft)[m - 1 : m - 1 + nw])


def _indicator_spectra(symbols: np.ndarray, which: np.ndarray, nfft: int) -> np.ndarray:
    masks = (symbols[None, :] == which[:, None]).astype(np.float64)
    return sfft.rfft(masks, nfft, axis=1)


def _per_member_sum(text, pattern, family, mode) -> np.ndarray:
    # Projects both strings through every member and accumulates the binary
    # Hamming profiles, chunking members to bound memory.
    n, m, nw = check_instance(text, pattern)
    table = member_table(family, text.sigma)
    total = np.zeros(nw, dtype=np.int64)
    for lo in range(0, family.k, _MEMBER_CHUNK):
        rows = table[lo : lo + _MEMBER_CHUNK]
        t_masks = rows[:, text.symbols]
        p_masks = rows[:, pattern.symbols]
        if mode == "fft":
            aligned = correlate_rows(t_masks, p_masks)
        else:
            aligned = np.stack(
                [count_aligned_ones(t, p, mode) for t, p in zip(t_masks, p_masks)]
            )
        # HAM = window popcount + pattern popcount - 2 * aligned ones
        cs = np.zeros((t_masks.shape[0], n + 1), dtype=np.int64)
        np.cumsum(t_masks, axis=1, dtype=np.int64, out=cs[:, 1:])
        win_ones = cs[:, m : m + nw] - cs[:, :nw]
        ham = win_ones + p_masks.sum(axis=1, dtype=np.int64)[:, None] - 2 * aligned
        total += ham.sum(axis=0)
    return total


def median_profile(run_single, reps: int) -> DistanceProfile:
    """Per-window median over reps executions; run_single(e) returns
    execution e's estimate."""
    runs = np.stack([run_single(e).values for e in range(reps)])
    return DistanceProfile(np.median(runs, axis=0), "estimate")
