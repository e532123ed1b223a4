"""Shared machinery for projection-based estimators: member Hamming profiles."""

from __future__ import annotations

import numpy as np

from .correlation import correlate_rows, count_aligned_ones, _resolve_backend
from .hashing import XorTreeFamily, member_table
from .text_model import DistanceProfile, IntString, check_instance

_MEMBER_CHUNK = 64


def member_hamming_sum(
    text: IntString, pattern: IntString, family: XorTreeFamily, backend: str = "auto"
) -> np.ndarray:
    """sum_i HAM(h_i(text window), h_i(pattern)) for all windows, exact int64.

    Projects both strings through every family member and accumulates the
    per-member binary Hamming profiles, chunking members to bound memory.
    """
    n, m, nw = check_instance(text, pattern)
    table = member_table(family, text.sigma)
    mode = _resolve_backend(backend, n)
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
