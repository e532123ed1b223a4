"""Global sliding-alignment counting for binary masks.

count_aligned_ones(t, p)[j] = sum_i t[j+i] * p[i] for every window offset j,
i.e. one pass of the classic convolution trick for counting aligned (1, 1)
pairs at all alignments at once.

Two interchangeable backends:

* "fft": real FFT convolution, rounded to the nearest integer. Every true
  count is at most m <= 2^26, which keeps the accumulated floating error far
  below 0.5 at supported sizes; a guard raises if the residue ever gets close.
  "auto" resolves to it: every library caller batches rows through one FFT.
* "popcount": word-parallel bit packing with hardware popcount, O(n*m/64),
  one Python loop of 64 shifts per row. Always exact; kept as the explicit
  cross-check backend.

Both return exact int64 counts and must agree bit for bit.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import fft as sfft

_BACKENDS = ("auto", "fft", "popcount")

# chunk row batches so scratch FFT buffers stay around ~256 MB
_FFT_CHUNK_BYTES = 1 << 28


def _as_mask(a, name: str) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if a.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if a.dtype == bool:
        return a.astype(np.uint8)
    a = a.astype(np.int64, copy=False)
    if a.size and (a.min() < 0 or a.max() > 1):
        raise ValueError(f"{name} must contain only 0/1 values")
    return a.astype(np.uint8)


def _check_lengths(n: int, m: int) -> int:
    if m > n:
        raise ValueError(f"pattern length {m} exceeds text length {n}")
    return n - m + 1


def _resolve_backend(backend: str) -> str:
    if backend not in _BACKENDS:
        raise ValueError(f"unknown backend {backend!r}, expected one of {_BACKENDS}")
    return "fft" if backend == "auto" else backend


def round_counts(raw: np.ndarray) -> np.ndarray:
    """FFT output rounded to the exact int64 counts it approximates; raises
    if any residue comes near 0.5."""
    rounded = np.rint(raw)
    if np.max(np.abs(raw - rounded)) >= 0.25:
        raise RuntimeError("FFT correlation residue too large; counts not trustworthy")
    return rounded.astype(np.int64)


def correlate_rows(text_rows: np.ndarray, pattern_rows: np.ndarray) -> np.ndarray:
    """FFT correlation of row i of text_rows against row i of pattern_rows.

    Inputs are (k, n) and (k, m) nonnegative integer arrays; output is the
    exact (k, n-m+1) int64 count matrix.
    """
    text_rows = np.atleast_2d(np.asarray(text_rows))
    pattern_rows = np.atleast_2d(np.asarray(pattern_rows))
    k, n = text_rows.shape
    m = pattern_rows.shape[1]
    nw = _check_lengths(n, m)
    nfft = sfft.next_fast_len(n + m - 1, real=True)
    out = np.empty((k, nw), dtype=np.int64)
    rows_per_chunk = max(1, _FFT_CHUNK_BYTES // (nfft * 16 * 3))
    rev = pattern_rows[:, ::-1].astype(np.float64)
    txt = text_rows.astype(np.float64)
    for lo in range(0, k, rows_per_chunk):
        hi = min(k, lo + rows_per_chunk)
        tf = sfft.rfft(txt[lo:hi], nfft, axis=1)
        pf = sfft.rfft(rev[lo:hi], nfft, axis=1)
        raw = sfft.irfft(tf * pf, nfft, axis=1)[:, m - 1 : m - 1 + nw]
        out[lo:hi] = round_counts(raw)
    return out


def _pack_bits(bits: np.ndarray, nwords: int) -> np.ndarray:
    buf = np.zeros(nwords * 64, dtype=np.uint8)
    buf[: bits.size] = bits
    packed = np.packbits(buf, bitorder="little")
    return packed.view("<u8").astype(np.uint64)


def _count_popcount(t: np.ndarray, p: np.ndarray) -> np.ndarray:
    n, m = t.size, p.size
    nw = n - m + 1
    mw = (m + 63) // 64
    pw = _pack_bits(p, mw)
    tw = _pack_bits(t, (n + 63) // 64 + mw + 1)
    counts = np.empty(nw, dtype=np.int64)
    for s in range(min(64, nw)):
        if s == 0:
            sw = tw
        else:
            sw = (tw[:-1] >> np.uint64(s)) | (tw[1:] << np.uint64(64 - s))
        q = (nw - 1 - s) // 64 + 1
        win = sliding_window_view(sw, mw)[:q]
        counts[s::64] = np.bitwise_count(win & pw).sum(axis=1, dtype=np.int64)
    return counts


def count_aligned_ones(text_mask, pattern_mask, backend: str = "auto") -> np.ndarray:
    """Exact per-window counts of aligned (1, 1) pairs, as int64."""
    t = _as_mask(text_mask, "text_mask")
    p = _as_mask(pattern_mask, "pattern_mask")
    _check_lengths(t.size, p.size)
    mode = _resolve_backend(backend)
    if mode == "fft":
        return correlate_rows(t[None, :], p[None, :])[0]
    return _count_popcount(t, p)

