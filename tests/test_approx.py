import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamsketch import approx
from hamsketch.approx import (
    approx_params,
    approx_profile,
    approx_profile_single,
    correction_numerators,
)
from hamsketch.exact import hamming_profile_convolution
from hamsketch.hashing import beta, beta_many, family_new
from hamsketch.sparse_recovery import B_CONST, noise_profile_from_windows
from hamsketch.text_model import IntString, SparseNoiseMatrix, generate_instance

from helpers import alignment_dict_brute, beta_brute, correction_term, sliding_hamming_brute


def _exact_noise(text, pattern):
    nw = len(text) - len(pattern) + 1
    dicts = [alignment_dict_brute(text, pattern, j) for j in range(nw)]
    return noise_profile_from_windows(dicts, text.sigma)


def test_params_k_values_and_bound():
    assert approx_params(0.5, seed=0, n=16).k == 16
    assert approx_params(0.25, seed=0, n=16).k == 32
    assert approx_params(0.1, seed=0, n=16).k == 128
    for eps in (0.5, 0.3, 0.25, 0.125, 0.1, 0.05):
        p = approx_params(eps, seed=0, n=16)
        assert p.k >= 8 * B_CONST / p.epsilon_eff
        assert p.k & (p.k - 1) == 0
    assert approx_params(0.25, seed=0, n=1024).reps == 20
    with pytest.raises(ValueError):
        approx_params(0.75, seed=0, n=16)


def test_correction_term_matches_enumeration():
    rng = np.random.default_rng(90)
    for trial in range(40):
        k = int(rng.choice([8, 32]))
        fam = family_new(k, seed=700 + trial)
        entries = {}
        for _ in range(int(rng.integers(1, 6))):
            u, v = rng.choice(16, size=2, replace=False)
            entries[(int(u), int(v))] = int(rng.integers(1, 50))
        m = SparseNoiseMatrix(sigma=16, capacity=8, entries=entries)
        want = sum(
            (2 * beta_brute(fam, u, v) - k) * val for (u, v), val in entries.items()
        ) / 2.0
        got = correction_term(m, fam)
        assert got == want
        assert float(2 * got).is_integer()


def test_correction_term_empty_and_balanced_pair():
    fam = family_new(64, seed=5)
    assert correction_term(SparseNoiseMatrix(4, 2, {}), fam) == 0.0
    # a pair the family splits exactly in half contributes nothing
    pair = next(
        (u, v)
        for u in range(8)
        for v in range(8)
        if u != v and beta(fam, u, v) == 32
    )
    m = SparseNoiseMatrix(sigma=8, capacity=2, entries={pair: 17})
    assert correction_term(m, fam) == 0.0


def test_correction_numerators_match_per_window_terms():
    dicts = [{(0, 1): 3, (2, 5): 7}, {}, {(4, 2): 1, (1, 0): 9, (3, 6): 2}]
    noise = noise_profile_from_windows(dicts, sigma=8)
    fam = family_new(16, seed=44)
    nums = correction_numerators(noise, fam)
    for j, entries in enumerate(dicts):
        m = SparseNoiseMatrix(sigma=8, capacity=8, entries=entries)
        assert nums[j] == 2 * correction_term(m, fam)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_correction_numerators_match_entry_enumeration_property(data):
    # beta_many per entry and an unbuffered scatter: the per-entry form the
    # grid lookup and running sum must reproduce exactly
    sigma = data.draw(st.integers(2, 300), label="sigma")
    pair = st.tuples(st.integers(0, sigma - 1), st.integers(0, sigma - 1)).filter(
        lambda uv: uv[0] != uv[1]
    )
    window = st.dictionaries(pair, st.integers(1, 1 << 20), max_size=6)
    dicts = data.draw(st.lists(window, min_size=1, max_size=12), label="windows")
    noise = noise_profile_from_windows(dicts, sigma)
    # the second family reads the pair index the first one built
    for _ in range(2):
        k = data.draw(st.sampled_from([2, 16, 128, 1024]), label="k")
        fam = family_new(k, seed=data.draw(st.integers(0, 1 << 30), label="seed"))
        want = np.zeros(noise.n_windows, dtype=np.int64)
        weights = (2 * beta_many(fam, noise.us, noise.vs) - k) * noise.values
        np.add.at(want, noise.entry_windows(), weights)
        got = correction_numerators(noise, fam)
        assert got.dtype == np.int64 and got.tobytes() == want.tobytes()


def test_perfect_noise_matrix_gives_exact_profile():
    # with D' equal to the true alignment counts the estimate telescopes to
    # the exact distance: numerator = 2*sum_i x_i + sum (2*beta - k) d = k*d
    for seed in range(3):
        text, pattern = generate_instance(128, 16, 8, "uniform", seed)
        exact = hamming_profile_convolution(text, pattern).values
        params = approx_params(0.25, seed=seed + 50, n=128, reps=3)
        est = approx_profile(
            text, pattern, params, noise_override=_exact_noise(text, pattern)
        )
        assert np.array_equal(est.values, exact.astype(np.float64))


def test_identical_strings_and_zero_windows():
    s = IntString(np.arange(60) % 6, 6)
    params = approx_params(0.25, seed=2, n=60, reps=3, recovery_reps=2)
    assert not approx_profile(s, s, params).values.any()
    # plant the pattern verbatim: that window must come out exactly 0
    rng = np.random.default_rng(8)
    text_arr = rng.integers(0, 6, size=200)
    pattern = IntString(rng.integers(0, 6, size=25), 6)
    text_arr[70:95] = pattern.symbols
    text = IntString(text_arr, 6)
    params = approx_params(0.25, seed=3, n=200, reps=5, recovery_reps=2)
    prof = approx_profile(text, pattern, params)
    assert prof.values[70] == 0.0
    assert prof.values.min() >= 0.0


def test_reps_one_equals_single_execution():
    text, pattern = generate_instance(150, 20, 8, "uniform", seed=4)
    params = approx_params(0.25, seed=7, n=150, reps=1, recovery_reps=2)
    single = approx_profile_single(text, pattern, params, 0)
    assert np.array_equal(approx_profile(text, pattern, params).values, single.values)


def test_share_dprime_reuses_one_recovery(monkeypatch):
    # count recoveries with a spy on the name approx_profile looks up
    calls = []
    recover = approx.construct_sparse_noise

    def spy(*args, **kwargs):
        calls.append(args[2])
        return recover(*args, **kwargs)

    monkeypatch.setattr(approx, "construct_sparse_noise", spy)
    text, pattern = generate_instance(150, 20, 8, "uniform", seed=11)
    params = approx_params(0.25, seed=9, n=150, reps=4, recovery_reps=2)
    prof, shared = approx_profile(text, pattern, params, return_noise=True)
    assert len(calls) == 1 and shared is not None
    # every execution with the shared profile injected reproduces the runs
    runs = np.stack(
        [
            approx_profile_single(text, pattern, params, e, noise=shared).values
            for e in range(4)
        ]
    )
    assert np.array_equal(np.median(runs, axis=0), prof.values)
    assert len(calls) == 1


@pytest.mark.parametrize(
    "shape, digest",
    [
        # windows holding most occurring pair codes: nearly all codes keep rows
        ((1024, 256, 16, 22), "810687c4e390a06177b6ed10e31042de472997ce6e3246f49a76c0db2e956cc3"),
        # windows holding few of them: entry codes only
        ((512, 64, 64, 13), "96db66c49d79da2e28a6266531c68106400d32e05690e4202f679df3a3061b6b"),
    ],
)
def test_profiles_pinned_with_one_dprime(shape, digest):
    # SHA-256 of the profile bytes, pinned before recovery had one route
    n, m, sigma, seed = shape
    text, pattern = generate_instance(n, m, sigma, "uniform", seed)
    params = approx_params(0.25, seed=9, n=n, reps=4, recovery_reps=2)
    prof = approx_profile(text, pattern, params)
    assert hashlib.sha256(prof.values.tobytes()).hexdigest() == digest


def test_estimates_deterministic():
    text, pattern = generate_instance(180, 24, 16, "uniform", seed=6)
    params = approx_params(0.25, seed=31, n=180, reps=3, recovery_reps=2)
    a = approx_profile(text, pattern, params)
    b = approx_profile(text, pattern, params)
    assert np.array_equal(a.values, b.values)


def test_single_execution_concentration():
    # one window; most executions land within epsilon of the truth
    rng = np.random.default_rng(17)
    m = 64
    text = IntString(rng.integers(0, 8, size=m), 8)
    pattern = IntString(rng.integers(0, 8, size=m), 8)
    d = int(sliding_hamming_brute(text, pattern)[0])
    assert d > 0
    eps = 0.25
    trials = 300
    params = approx_params(eps, seed=77, n=m, reps=1, recovery_reps=2)
    vals = np.array(
        [approx_profile_single(text, pattern, params, e).values[0] for e in range(trials)]
    )
    within = np.abs(vals - d) <= eps * d
    assert within.mean() > 0.5

    # mean within 3 standard errors of the truth, variance inside the budget
    se = vals.std(ddof=1) / np.sqrt(trials)
    assert abs(vals.mean() - d) <= max(3 * se, 1e-9)
    assert vals.var(ddof=1) <= 0.5 * eps * d * d
