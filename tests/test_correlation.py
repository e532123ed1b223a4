import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from hamsketch import correlation
from hamsketch.correlation import correlate_rows, round_counts

from helpers import aligned_ones_brute


def test_count_aligned_ones_hand_examples():
    assert correlate_rows([1, 0, 1], [1, 1]).tolist() == [1, 1]
    assert correlate_rows([1, 1, 0], [0, 1]).tolist() == [1, 0]
    assert correlate_rows([1, 1, 1], [1, 1, 1]).tolist() == [3]


def test_count_aligned_ones_matches_brute():
    rng = np.random.default_rng(101)
    for n, m in [(1, 1), (5, 1), (17, 5), (64, 64), (130, 7), (257, 100)]:
        t = rng.integers(0, 2, size=n)
        p = rng.integers(0, 2, size=m)
        got = correlate_rows(t, p)
        assert got.dtype == np.int64
        assert np.array_equal(got, aligned_ones_brute(t, p)), (n, m)


def test_fft_matches_brute_on_large_inputs():
    rng = np.random.default_rng(7)
    for n, m in [(4096, 512), (10000, 33), (8191, 4096)]:
        t = rng.integers(0, 2, size=n)
        p = rng.integers(0, 2, size=m)
        want = sliding_window_view(t, m) @ p
        assert np.array_equal(correlate_rows(t, p), want), (n, m)


def test_complement_identity():
    # aligned ones against p plus against 1-p must add up to the window popcount
    rng = np.random.default_rng(55)
    t = rng.integers(0, 2, size=300)
    p = rng.integers(0, 2, size=40)
    total = correlate_rows(t, p) + correlate_rows(t, 1 - p)
    assert total.tolist() == [int(t[j : j + 40].sum()) for j in range(300 - 40 + 1)]


def test_correlate_rows_matches_single_row_calls():
    rng = np.random.default_rng(62)
    k, n, m = 7, 150, 20
    # small nonnegative integers, not just bits: correlate_rows is generic
    trows = rng.integers(0, 5, size=(k, n))
    prows = rng.integers(0, 5, size=(k, m))
    want = sum(
        np.array([int(np.dot(trows[i, j : j + m], prows[i])) for j in range(n - m + 1)])
        for i in range(k)
    )
    out = correlate_rows(trows, prows)
    assert out.dtype == np.int64
    assert np.array_equal(out, want)
    assert np.array_equal(out, sum(correlate_rows(trows[i], prows[i]) for i in range(k)))


def test_correlate_rows_chunks_do_not_change_the_sum(monkeypatch):
    # one row per FFT chunk: the spectra still add up before the one irfft
    rng = np.random.default_rng(63)
    trows = rng.integers(0, 2, size=(5, 90))
    prows = rng.integers(0, 2, size=(5, 17))
    whole = correlate_rows(trows, prows)
    monkeypatch.setattr(correlation, "_FFT_CHUNK_BYTES", 1)
    assert np.array_equal(correlate_rows(trows, prows), whole)


def test_round_counts_guard_can_fail():
    raw = np.array([3.0, 7.2, -1.0])
    assert round_counts(raw).tolist() == [3, 7, -1]
    with pytest.raises(RuntimeError, match="residue"):
        round_counts(np.array([3.0, 7.3, -1.0]))


def test_all_zero_pattern_gives_zero_counts():
    t = np.ones(50, dtype=np.int64)
    assert not correlate_rows(t, np.zeros(8, dtype=np.int64)).any()


def test_input_validation():
    # a pattern longer than the text, also an empty text
    with pytest.raises(ValueError, match="exceeds text length"):
        correlate_rows([], [1])
    with pytest.raises(ValueError, match="exceeds text length"):
        correlate_rows([1, 0], [1, 1, 0])
