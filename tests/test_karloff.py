import dataclasses
import hashlib

import numpy as np
import pytest

from hamsketch import _sketch, default_reps, hashing
from hamsketch._sketch import (
    execution_estimates,
    execution_families,
    signed_matches,
    symbol_route_pays,
)
from hamsketch.approx import approx_params
from hamsketch.hashing import beta, family_new
from hamsketch.karloff import KarloffParams, karloff_params, karloff_profile
from hamsketch.pair_counts import pair_grid_pays
from hamsketch.text_model import IntString, generate_instance, occurring_symbols

from helpers import (
    approx_with_noise,
    few_pairs_bench_instance,
    member_profile_brute,
    noise_profile_from_windows,
    sliding_hamming_brute,
)


def test_params_round_k_to_power_of_two():
    assert karloff_params(0.5, seed=0, n=16).k == 8
    assert karloff_params(0.25, seed=0, n=16).k == 32
    assert karloff_params(0.1, seed=0, n=16).k == 256
    assert karloff_params(0.1, seed=0, n=1024).reps == default_reps(1024) == 20
    assert karloff_params(0.1, seed=0, n=16, reps=3).reps == 3
    for bad in (0.0, -0.1, 0.6, 2.0):
        with pytest.raises(ValueError):
            karloff_params(bad, seed=0, n=16)
    # a count below 1 is an error, not the default
    for bad in (0, -1):
        with pytest.raises(ValueError, match="reps must be >= 1"):
            karloff_params(0.1, seed=0, n=16, reps=bad)


def test_member_hamming_sum_matches_brute():
    # the members' Hamming sum is k/2 * (m - C) for the signed matches C
    rng = np.random.default_rng(83)
    text = IntString(rng.integers(0, 6, size=40), 6)
    pattern = IntString(rng.integers(0, 6, size=9), 6)
    families = [family_new(8, seed=4 + e) for e in range(2)]
    got = signed_matches(text, pattern, families)
    for row, fam in zip(got, families):
        want = sum(member_profile_brute(text, pattern, fam, i) for i in range(8))
        assert np.array_equal(4 * (9 - row), want)


def test_single_execution_is_reps_one_profile():
    rng = np.random.default_rng(2)
    text = IntString(rng.integers(0, 4, size=100), 4)
    pattern = IntString(rng.integers(0, 4, size=10), 4)
    params = karloff_params(0.25, seed=11, n=100, reps=1)
    single = execution_estimates(text, pattern, params.k, params.seed, [0])[0]
    assert np.array_equal(karloff_profile(text, pattern, params).values, single)


def test_executions_are_rows_of_one_call():
    # each row of the batched call is the execution run on its own
    rng = np.random.default_rng(4)
    for n, m, sigma in ((120, 12, 5), (90, 30, 60)):
        text = IntString(rng.integers(0, sigma, size=n), sigma)
        pattern = IntString(rng.integers(0, sigma, size=m), sigma)
        params = karloff_params(0.5, seed=12, n=n, reps=5)
        runs = [
            execution_estimates(text, pattern, params.k, params.seed, [e])[0] for e in range(5)
        ]
        assert np.array_equal(np.median(runs, axis=0), karloff_profile(text, pattern, params).values)


@pytest.mark.parametrize(
    "n, m, sigma, grid, symbol_route",
    [
        # pair counts on the grid, and by sorting, both on the symbol route
        (300, 40, 5, True, True),
        (300, 40, 16, False, True),
        # more occurring symbols on either side than members: Y groups
        (600, 100, 256, False, False),
    ],
)
def test_karloff_at_approx_k_is_approx_with_empty_dprime(n, m, sigma, grid, symbol_route):
    text, pattern = generate_instance(n, m, sigma, "uniform", seed=3)
    ap = approx_params(0.25, seed=8, n=n, reps=5)
    occurring = [occurring_symbols(s)[0].size for s in (text, pattern)]
    assert pair_grid_pays(*occurring, m) == grid
    assert symbol_route_pays(*occurring, ap.k) == symbol_route
    empty = noise_profile_from_windows([{}] * (n - m + 1), sigma)
    want = approx_with_noise(text, pattern, ap, empty)
    got = karloff_profile(text, pattern, KarloffParams(ap.epsilon, ap.k, ap.reps, ap.seed))
    assert got.values.tobytes() == want.values.tobytes()


def test_reps_below_one_rejected_before_the_member_sums(monkeypatch):
    # params built directly skip karloff_params' check
    calls = []
    monkeypatch.setattr(_sketch, "signed_matches", lambda *args: calls.append(args))
    text, pattern = generate_instance(100, 10, 4, "uniform", seed=1)
    params = dataclasses.replace(karloff_params(0.25, seed=1, n=100), reps=0)
    with pytest.raises(ValueError, match="reps must be >= 1, got 0"):
        karloff_profile(text, pattern, params)
    with pytest.raises(ValueError, match="reps must be >= 1, got 0"):
        execution_estimates(text, pattern, params.k, params.seed, [])
    assert not calls


def test_tiny_epsilon_rejected_before_the_member_sums(monkeypatch):
    # no signed match exceeds m, so k itself is the only limit: at eps =
    # 1e-9, k = 2^61 and the profile is the exact one; from eps ~ 6.6e-10
    # on k would pass the family cap 2^62, and karloff_params raises before
    # any work (with member sums scaled by k, 1e-7 used to end in a
    # RuntimeError, 1e-9 in a wrong profile and 1e-10 in an OverflowError)
    text, pattern = generate_instance(256, 16, 8, "uniform", seed=5)
    params = karloff_params(1e-9, seed=3, n=256)
    assert params.k == 1 << 61
    got = karloff_profile(text, pattern, params)
    assert np.array_equal(got.values, sliding_hamming_brute(text, pattern))
    calls = []
    monkeypatch.setattr(_sketch, "signed_matches", lambda *args: calls.append(args))
    for eps in (6.5e-10, 1e-10, 1e-300, 5e-324):
        with pytest.raises(ValueError, match=f"epsilon {eps} too small"):
            karloff_profile(text, pattern, karloff_params(eps, seed=3, n=256))
    assert not calls


@pytest.mark.parametrize(
    "shape, digest",
    [
        # the benchmark's three shapes at seed 1, and a larger sigma=16 one
        ("dense16", "e95bbe7e918518458710d3bf2cb1a527d584c75945491c88ec7032e0aac0aa04"),
        ("sparse256", "c21796e4a31278511db05b0cb0afa24164f1b471f93bebf0945db4b0a0b507a3"),
        ("few_pairs", "89021ea05b20974219904e49410eda21a983cd81d2a76fb6357ea16a83b24d32"),
        ("n32768", "9bba14ad1458316e64216c1b781cda8d9523ffab7ecaec9b4a6fe45454f92d5b"),
    ],
)
def test_profiles_pinned(shape, digest):
    # SHA-256 of the profile bytes, pinned while every execution still ran
    # its own member sum
    n, m, sigma, reps = {
        "dense16": (8192, 512, 16, None),
        "sparse256": (2048, 64, 256, 3),
        "few_pairs": (4096, 512, 64, None),
        "n32768": (32768, 1024, 16, None),
    }[shape]
    if shape == "few_pairs":
        text, pattern = few_pairs_bench_instance(n, m, sigma, seed=1)
    else:
        text, pattern = generate_instance(n, m, sigma, "uniform", 1)
    prof = karloff_profile(text, pattern, karloff_params(0.1, 1, n, reps=reps))
    assert hashlib.sha256(prof.values.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("sigma", [6, 300])
def test_hashes_drawn_in_one_evaluation(monkeypatch, sigma):
    # every family's base bits in one poly3_eval call at this size, on the
    # symbol route (sigma=6) and the per-member route (sigma=300), however
    # many executions run
    evals = []
    real = hashing.poly3_eval

    def spy(*args, **kwargs):
        evals.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(hashing, "poly3_eval", spy)
    text, pattern = generate_instance(400, 60, sigma, "uniform", seed=2)
    for reps in (1, 4, 9):
        evals.clear()
        karloff_profile(text, pattern, karloff_params(0.5, seed=3, n=400, reps=reps))
        assert 1 <= len(evals) <= 2, (reps, len(evals))


def test_identical_strings_estimate_zero():
    s = IntString(np.arange(50) % 7, 7)
    params = karloff_params(0.5, seed=3, n=50)
    prof = karloff_profile(s, s, params)
    assert prof.kind == "estimate"
    assert not prof.values.any()


def test_complementary_binary_strings_hit_separating_member_count():
    # every position mismatches, so x_i = m exactly when member i separates
    # symbols 0 and 1: delta = 2m * (k - beta(0, 1)) / k
    m = 16
    text = IntString(np.zeros(m, dtype=np.int64), 2)
    pattern = IntString(np.ones(m, dtype=np.int64), 2)
    params = karloff_params(0.25, seed=21, n=m)
    for e in range(4):
        fam = execution_families(params.k, params.seed, [e])[0]
        want = 2.0 * m * (params.k - beta(fam, 0, 1)) / params.k
        assert execution_estimates(text, pattern, params.k, params.seed, [e]).tolist() == [[want]]


def test_median_profile_accuracy_midsize():
    rng = np.random.default_rng(14)
    text = IntString(rng.integers(0, 8, size=1 << 12), 8)
    pattern = IntString(rng.integers(0, 8, size=1 << 7), 8)
    exact = sliding_hamming_brute(text, pattern)
    params = karloff_params(0.25, seed=6, n=len(text))
    est = karloff_profile(text, pattern, params).values
    ok = np.abs(est - exact) <= 0.25 * exact
    assert ok.mean() >= 0.9


def test_single_execution_unbiased():
    # ~1000 independent executions on one window; mean within 3 standard errors
    rng = np.random.default_rng(9)
    m = 32
    text = IntString(rng.integers(0, 4, size=m), 4)
    pattern = IntString(rng.integers(0, 4, size=m), 4)
    d = int(sliding_hamming_brute(text, pattern)[0])
    assert d > 0
    params = karloff_params(0.5, seed=123, n=m)
    trials = 1000
    # every row of one batched call is its execution run alone
    vals = execution_estimates(text, pattern, params.k, params.seed, range(trials))[:, 0]
    se = vals.std(ddof=1) / np.sqrt(trials)
    assert abs(vals.mean() - d) <= 3 * se

    # variance envelope: k >= 2/eps^2 gives Var[delta] <= eps^2 d^2 / 2
    bound = params.epsilon**2 * d * d / 2
    assert vals.var(ddof=1) <= 1.3 * bound
