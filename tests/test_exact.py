import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamsketch.exact import CONV_SIGMA_CAP, hamming_profile_convolution, hamming_profile_naive
from hamsketch.text_model import IntString, generate_instance

from helpers import alignment_dict_brute, sliding_hamming_brute


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
        assert sum(alignment_dict_brute(text, pattern, j).values()) == prof.values[j]


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


# alphabets of 1, 2 and 3 symbols, and sizes that are not powers of two
SIGMAS = st.one_of(
    st.sampled_from([1, 2, 3]),
    st.integers(5, 300).filter(lambda s: s & (s - 1) != 0),
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_convolution_matches_naive_property(data):
    sigma = data.draw(SIGMAS, label="sigma")
    n = data.draw(st.integers(1, 80), label="n")
    m = data.draw(st.one_of(st.just(1), st.just(n), st.integers(1, n)), label="m")
    symbols = st.integers(0, sigma - 1)
    text = IntString(data.draw(st.lists(symbols, min_size=n, max_size=n)), sigma)
    pattern = IntString(data.draw(st.lists(symbols, min_size=m, max_size=m)), sigma)
    naive = hamming_profile_naive(text, pattern).values
    assert np.array_equal(hamming_profile_convolution(text, pattern).values, naive)
    assert np.array_equal(naive, sliding_hamming_brute(text, pattern))
