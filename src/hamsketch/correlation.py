"""Summed sliding correlations through one FFT path.

correlate_rows(T, P)[j] = sum_r sum_i T[r, j+i] * P[r, i] for every window
offset j: the sum over rows of the row-pair correlations. Every library
caller needs correlations only through such sums (matches summed over
symbols, symbol pairs weighted by their signature agreement A, signed rows
summed over Y groups), so the spectrum products accumulate across row chunks
and one inverse real FFT gives the whole sum. correlate_rows runs the whole
loop; a caller that pairs one set of rows with several others (the sketch's
signed matches: one symbol's indicator against every family's agreements)
takes the steps separately: row_spectra once per operand, its own products,
and one correlation_sums over all of its accumulators. No other module calls
the FFT.

The true sums are integers. At supported sizes the floating error stays far
below 0.5, and round_counts raises if a residue ever gets close, so the
int64 output is exact.

For binary masks, correlate_rows of one row counts the aligned (1, 1) pairs
at every alignment.
"""

from __future__ import annotations

import numpy as np
from scipy import fft as sfft

# chunk row batches so scratch FFT buffers stay around ~256 MB
_FFT_CHUNK_BYTES = 1 << 28


def _check_lengths(n: int, m: int) -> int:
    if m > n:
        raise ValueError(f"pattern length {m} exceeds text length {n}")
    return n - m + 1


def round_counts(raw: np.ndarray) -> np.ndarray:
    """FFT output rounded to the exact int64 counts it approximates; raises
    if any residue comes near 0.5."""
    rounded = np.rint(raw)
    residue = raw - rounded
    np.abs(residue, out=residue)
    if np.max(residue) >= 0.25:
        raise RuntimeError("FFT correlation residue too large; counts not trustworthy")
    del residue  # at most two temporaries the size of raw at any time
    return rounded.astype(np.int64)


def fft_plan(n: int, m: int) -> tuple[int, int]:
    """FFT length of correlations of length-n rows with length-m rows, and
    the rows per chunk that keep a chunk's scratch buffers near
    _FFT_CHUNK_BYTES."""
    nfft = sfft.next_fast_len(n + m - 1, real=True)
    return nfft, max(1, _FFT_CHUNK_BYTES // (nfft * 16 * 3))


def row_spectra(rows, nfft: int, *, pattern: bool = False) -> np.ndarray:
    """Real FFTs of length nfft of the rows of a 2-D array. Pattern rows are
    reversed first, so that products of text and pattern spectra summed over
    rows finish (correlation_sums) as summed correlations."""
    rows = np.asarray(rows, dtype=np.float64)
    return sfft.rfft(rows[:, ::-1] if pattern else rows, nfft, axis=1)


def correlation_sums(acc: np.ndarray, n: int, m: int) -> np.ndarray:
    """Exact int64 sums of correlations, (..., n-m+1), from spectrum products
    acc of shape (..., nfft//2 + 1) accumulated over rows: one inverse FFT
    over every leading index and one round_counts guard. acc is dropped
    before rounding, so spectra passed as a temporary are freed by then."""
    raw = sfft.irfft(acc, fft_plan(n, m)[0])[..., m - 1 : n]
    del acc
    return round_counts(raw)


def correlate_rows(text_rows: np.ndarray, pattern_rows: np.ndarray) -> np.ndarray:
    """Sum over i of the correlation of row i of text_rows with row i of
    pattern_rows.

    Inputs are (k, n) and (k, m) arrays of integer values (a 1-D input is one
    row); output is the exact (n-m+1,) int64 sum, from one inverse FFT.
    """
    text_rows = np.atleast_2d(np.asarray(text_rows))
    pattern_rows = np.atleast_2d(np.asarray(pattern_rows))
    k, n = text_rows.shape
    m = pattern_rows.shape[1]
    _check_lengths(n, m)
    nfft, rows_per_chunk = fft_plan(n, m)
    acc = np.zeros(nfft // 2 + 1, dtype=np.complex128)
    for lo in range(0, k, rows_per_chunk):
        tf = row_spectra(text_rows[lo : lo + rows_per_chunk], nfft)
        pf = row_spectra(pattern_rows[lo : lo + rows_per_chunk], nfft, pattern=True)
        acc += np.einsum("ij,ij->j", tf, pf)
    return correlation_sums(acc, n, m)

