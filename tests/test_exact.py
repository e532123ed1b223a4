import numpy as np
import pytest

from hamsketch.exact import CONV_SIGMA_CAP, hamming_profile_convolution, hamming_profile_naive
from hamsketch.text_model import IntString, build_alignment_matrix, generate_instance

from helpers import sliding_hamming_brute


def _random_instance(rng, n, m, sigma):
    return (
        IntString(rng.integers(0, sigma, size=n), sigma),
        IntString(rng.integers(0, sigma, size=m), sigma),
    )


def test_hand_example():
    text = IntString(np.array([0, 1, 0, 1]), 2)
    pattern = IntString(np.array([1, 1]), 2)
    assert hamming_profile_naive(text, pattern).values.tolist() == [1, 1, 1]
    assert hamming_profile_convolution(text, pattern).values.tolist() == [1, 1, 1]


def test_profiles_match_brute_across_alphabets():
    rng = np.random.default_rng(12)
    for sigma in (2, 3, 16, 64):
        for n, m in [(30, 1), (64, 64), (257, 31)]:
            text, pattern = _random_instance(rng, n, m, sigma)
            want = sliding_hamming_brute(text, pattern)
            assert np.array_equal(hamming_profile_naive(text, pattern).values, want)
            got = hamming_profile_convolution(text, pattern)
            assert got.kind == "exact"
            assert np.array_equal(got.values, want), (sigma, n, m)


def test_text_equals_pattern_gives_zero():
    s = IntString(np.arange(40) % 5, 5)
    assert hamming_profile_convolution(s, s).values.tolist() == [0]
    assert hamming_profile_naive(s, s).values.tolist() == [0]


def test_sigma_one_profile_is_all_zero():
    text, pattern = generate_instance(12, 4, 1, "uniform", seed=1)
    assert not hamming_profile_convolution(text, pattern).values.any()


def test_bounds_and_alignment_totals():
    rng = np.random.default_rng(77)
    text, pattern = _random_instance(rng, 120, 25, 9)
    prof = hamming_profile_convolution(text, pattern)
    assert prof.values.min() >= 0
    assert prof.values.max() <= 25
    for j in range(prof.n_windows):
        assert build_alignment_matrix(text, pattern, j).total == prof.values[j]


def test_instance_validation():
    short = IntString(np.array([0, 1]), 2)
    long = IntString(np.array([0, 1, 0]), 2)
    with pytest.raises(ValueError):
        hamming_profile_naive(short, long)
    with pytest.raises(ValueError):
        hamming_profile_convolution(short, long)
    other = IntString(np.array([0]), 3)
    with pytest.raises(ValueError):
        hamming_profile_naive(long, other)


def test_sigma_cap_error_points_at_naive():
    rng = np.random.default_rng(5)
    text, pattern = _random_instance(rng, 50, 5, CONV_SIGMA_CAP + 1)
    with pytest.raises(ValueError, match="naive"):
        hamming_profile_convolution(text, pattern)
    # the naive profile has no alphabet cap
    assert hamming_profile_naive(text, pattern).n_windows == 46
