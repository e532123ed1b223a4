import numpy as np
import pytest

from hamsketch.correlation import correlate_rows, count_aligned_ones

from helpers import aligned_ones_brute


def test_count_aligned_ones_hand_examples():
    assert count_aligned_ones([1, 0, 1], [1, 1]).tolist() == [1, 1]
    assert count_aligned_ones([1, 1, 0], [0, 1]).tolist() == [1, 0]
    assert count_aligned_ones([1, 1, 1], [1, 1, 1]).tolist() == [3]


def test_count_aligned_ones_matches_brute():
    rng = np.random.default_rng(101)
    for n, m in [(1, 1), (5, 1), (17, 5), (64, 64), (130, 7), (257, 100)]:
        t = rng.integers(0, 2, size=n)
        p = rng.integers(0, 2, size=m)
        want = aligned_ones_brute(t, p)
        for backend in ("fft", "popcount"):
            got = count_aligned_ones(t, p, backend=backend)
            assert got.dtype == np.int64
            assert np.array_equal(got, want), (n, m, backend)


def test_backends_agree_on_large_inputs():
    # auto is fft; popcount is the cross-check on long inputs too
    rng = np.random.default_rng(7)
    for n, m in [(4096, 512), (10000, 33), (8191, 4096)]:
        t = rng.integers(0, 2, size=n)
        p = rng.integers(0, 2, size=m)
        a = count_aligned_ones(t, p, backend="fft")
        b = count_aligned_ones(t, p, backend="popcount")
        c = count_aligned_ones(t, p, backend="auto")
        assert np.array_equal(a, b)
        assert np.array_equal(a, c)


def test_complement_identity():
    # aligned ones against p plus against 1-p must add up to the window popcount
    rng = np.random.default_rng(55)
    t = rng.integers(0, 2, size=300)
    p = rng.integers(0, 2, size=40)
    total = count_aligned_ones(t, p) + count_aligned_ones(t, 1 - p)
    assert total.tolist() == [int(t[j : j + 40].sum()) for j in range(300 - 40 + 1)]


def test_correlate_rows_matches_single_row_calls():
    rng = np.random.default_rng(62)
    k, n, m = 7, 150, 20
    # small nonnegative integers, not just bits: correlate_rows is generic
    trows = rng.integers(0, 5, size=(k, n))
    prows = rng.integers(0, 5, size=(k, m))
    out = correlate_rows(trows, prows)
    assert out.shape == (k, n - m + 1)
    for i in range(k):
        want = np.array(
            [int(np.dot(trows[i, j : j + m], prows[i])) for j in range(n - m + 1)]
        )
        assert np.array_equal(out[i], want)


def test_all_zero_pattern_gives_zero_counts():
    t = np.ones(50, dtype=np.int64)
    assert not count_aligned_ones(t, np.zeros(8, dtype=np.int64)).any()


def test_input_validation():
    with pytest.raises(ValueError):
        count_aligned_ones([1, 0, 2], [1])
    with pytest.raises(ValueError):
        count_aligned_ones([[1, 0]], [1])
    with pytest.raises(ValueError):
        count_aligned_ones([], [1])
    with pytest.raises(ValueError):
        count_aligned_ones([1, 0], [1, 1, 0])
    with pytest.raises(ValueError):
        count_aligned_ones([1, 0], [1], backend="simd")
