import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamsketch import exact
from hamsketch.exact import hamming_profile_convolution, hamming_profile_naive
from hamsketch.text_model import SIGMA_CAP, IntString, generate_instance

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


def test_convolution_has_no_alphabet_cap():
    rng = np.random.default_rng(5)
    for sigma in (4097, SIGMA_CAP):
        # 30 symbols spread over the alphabet, its last one included, so
        # windows match; the pattern's first symbol is frequent, the rest rare
        pool = rng.choice(sigma, 30, replace=False)
        pool[0] = sigma - 1
        text = IntString(rng.choice(pool, 500), sigma)
        symbols = rng.permutation(np.r_[np.full(20, pool[0]), rng.choice(pool, 40)])
        pattern = IntString(symbols, sigma)
        want = hamming_profile_naive(text, pattern).values
        assert np.array_equal(hamming_profile_convolution(text, pattern).values, want), sigma
        assert np.array_equal(want, sliding_hamming_brute(text, pattern))


def test_mixed_split_hand_worked(monkeypatch):
    # pattern: symbol 7 ten times, 100..109 once each. Counts sorted
    # descending are 10, 1 (ten times), then c_11 = 0, so i + c_i is 10 at
    # i=0, 2 at i=1 and grows after: the cutoff is c_1 = 1. Symbol 7 (10 > 1)
    # is the one FFT row; 100..109 are rare and take one bincount pass
    rng = np.random.default_rng(8)
    pattern = IntString(rng.permutation(np.r_[np.full(10, 7), np.arange(100, 110)]), 128)
    text = IntString(rng.choice(np.r_[7, 7, 7, np.arange(100, 112)], 300), 128)
    rows = []

    def recording(t_masks, p_masks):
        rows.append(p_masks)
        return exact_correlate(t_masks, p_masks)

    exact_correlate = exact.correlate_rows
    monkeypatch.setattr(exact, "correlate_rows", recording)
    got = hamming_profile_convolution(text, pattern).values
    assert len(rows) == 1 and rows[0].shape == (1, 20)
    assert np.array_equal(rows[0][0], pattern.symbols == 7)
    assert np.array_equal(got, hamming_profile_naive(text, pattern).values)


# alphabets of 1, 2 and 3 symbols, sizes that are not powers of two, and
# sizes past 4096 up to SIGMA_CAP
SIGMAS = st.one_of(
    st.sampled_from([1, 2, 3, 4097, SIGMA_CAP]),
    st.integers(5, 300).filter(lambda s: s & (s - 1) != 0),
    st.integers(4097, SIGMA_CAP),
)


def _pattern_symbols(data, pool, m):
    """m symbols from pool: uniform, one heavy symbol plus distinct ones, or
    symbols tied at one count c (the first of them topped up to m)."""
    shape = data.draw(st.sampled_from(["uniform", "skewed", "tied"]), label="shape")
    if shape == "uniform":
        return data.draw(st.lists(st.sampled_from(pool), min_size=m, max_size=m))
    order = data.draw(st.permutations(pool))
    if shape == "skewed":
        distinct = order[1:m]
        return data.draw(st.permutations(distinct + [order[0]] * (m - len(distinct))))
    c = data.draw(st.integers(1, 4), label="c")
    tied = [s for s in order[: m // c] for _ in range(c)]
    return data.draw(st.permutations(tied + [order[0]] * (m - len(tied))))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_convolution_matches_naive_property(data):
    sigma = data.draw(SIGMAS, label="sigma")
    n = data.draw(st.integers(1, 80), label="n")
    m = data.draw(st.one_of(st.just(1), st.just(n), st.integers(1, n)), label="m")
    # a few symbols anywhere in [0, sigma), so that large alphabets still match
    pool = data.draw(
        st.lists(st.integers(0, sigma - 1), min_size=1, max_size=min(sigma, 40), unique=True),
        label="pool",
    )
    pattern = IntString(_pattern_symbols(data, pool, m), sigma)
    # pool[0] may be left out of the text, so a pattern symbol can be absent
    text_pool = pool[1:] if len(pool) > 1 and data.draw(st.booleans(), label="absent") else pool
    text = IntString(data.draw(st.lists(st.sampled_from(text_pool), min_size=n, max_size=n)), sigma)
    naive = hamming_profile_naive(text, pattern).values
    assert np.array_equal(hamming_profile_convolution(text, pattern).values, naive)
    assert np.array_equal(naive, sliding_hamming_brute(text, pattern))
