import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamsketch import approx, hashing, noise_profile
from hamsketch._sketch import (
    dprime_correction,
    execution_estimates,
    execution_families,
    signed_matches,
)
from hamsketch.approx import B_CONST, approx_params, approx_profile
from hamsketch.exact import hamming_profile_convolution
from hamsketch.hashing import beta, family_new, family_signatures, signature_agreement
from hamsketch.noise_profile import pair_grid_pays, top_pair_counts
from hamsketch.text_model import IntString, generate_instance, occurring_symbols

from helpers import (
    alignment_dict_brute,
    approx_with_noise,
    beta_brute,
    beta_pairs,
    correction_numerators,
    correction_term,
    few_pairs_bench_instance,
    member_profile_brute,
    member_sums_brute,
    noise_profile_from_windows,
    pair_count_keys,
    sliding_hamming_brute,
    traced_peak,
)


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


@pytest.mark.parametrize("reps", [0, -1])
def test_params_reject_repetition_counts_below_one(reps):
    # rejected when the params are built, before any pair counts exist
    with pytest.raises(ValueError, match="reps must be >= 1"):
        approx_params(0.25, seed=0, n=64, reps=reps)


def test_reps_zero_rejected_before_recovery(monkeypatch):
    # params built directly skip approx_params' check, and approx_profile
    # rejects them before it builds any pair counts
    calls = []
    monkeypatch.setattr(approx, "_dprime_and_residual", lambda *args: calls.append(args))
    text, pattern = generate_instance(100, 10, 4, "uniform", seed=1)
    params = dataclasses.replace(approx_params(0.25, seed=1, n=100), reps=0)
    with pytest.raises(ValueError, match="reps must be >= 1, got 0"):
        approx_profile(text, pattern, params)
    assert not calls


def test_correction_term_matches_enumeration():
    rng = np.random.default_rng(90)
    for trial in range(40):
        k = int(rng.choice([8, 32]))
        fam = family_new(k, seed=700 + trial)
        entries = {}
        for _ in range(int(rng.integers(1, 6))):
            u, v = rng.choice(16, size=2, replace=False)
            entries[(int(u), int(v))] = int(rng.integers(1, 50))
        want = sum(
            (2 * beta_brute(fam, u, v) - k) * val for (u, v), val in entries.items()
        ) / 2.0
        got = correction_term(entries, fam)
        assert got == want
        assert float(2 * got).is_integer()


def test_correction_term_empty_and_balanced_pair():
    fam = family_new(64, seed=5)
    assert correction_term({}, fam) == 0.0
    # a pair the family splits exactly in half contributes nothing
    pair = next(
        (u, v)
        for u in range(8)
        for v in range(8)
        if u != v and beta(fam, u, v) == 32
    )
    assert correction_term({pair: 17}, fam) == 0.0


def test_correction_numerators_match_per_window_terms():
    # the per-execution reference in helpers, which the batched corrections
    # are checked against below: sum A * d' = sum (2*beta - k) * d' / k
    dicts = [{(0, 1): 3, (2, 5): 7}, {}, {(4, 2): 1, (1, 0): 9, (3, 6): 2}]
    noise = noise_profile_from_windows(dicts, sigma=8)
    fam = family_new(16, seed=44)
    nums = correction_numerators(noise, fam)
    for j, entries in enumerate(dicts):
        assert 16 * nums[j] == 2 * correction_term(entries, fam)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_correction_numerators_match_entry_enumeration_property(data):
    # beta per entry and an unbuffered scatter: the per-entry form the
    # grid lookup and running sum must reproduce exactly
    sigma = data.draw(st.integers(2, 300), label="sigma")
    pair = st.tuples(st.integers(0, sigma - 1), st.integers(0, sigma - 1)).filter(
        lambda uv: uv[0] != uv[1]
    )
    window = st.dictionaries(pair, st.integers(1, 1 << 20), max_size=6)
    dicts = data.draw(st.lists(window, min_size=1, max_size=12), label="windows")
    noise = noise_profile_from_windows(dicts, sigma)
    for _ in range(2):
        k = data.draw(st.sampled_from([2, 16, 128, 1024]), label="k")
        fam = family_new(k, seed=data.draw(st.integers(0, 1 << 30), label="seed"))
        want = np.zeros(noise.n_windows, dtype=np.int64)
        weights = (2 * beta_pairs([fam], noise.us, noise.vs)[0] - k) * noise.values
        np.add.at(want, noise.entry_windows(), weights)
        got = correction_numerators(noise, fam)
        assert got.dtype == np.int64 and (k * got).tobytes() == want.tobytes()


def _random_noise(text, pattern, rng, spurious=True):
    """Per window: some of its true pairs at random values, plus (when
    spurious) random pairs that may occur nowhere."""
    sigma, m = text.sigma, len(pattern)
    dicts = []
    for j in range(len(text) - m + 1):
        true = alignment_dict_brute(text, pattern, j)
        win = {uv: int(rng.integers(1, m + 1)) for uv in true if rng.random() < 0.6}
        for _ in range(int(rng.integers(0, 3)) if spurious and sigma > 1 else 0):
            u, v = rng.choice(sigma, size=2, replace=False)
            win[(int(u), int(v))] = int(rng.integers(1, m + 1))
        dicts.append(win)
    return noise_profile_from_windows(dicts, sigma)


def _check_numerators(text, pattern, noise, families):
    """Every row of the batched int64 estimates m - C + D'A is, times k, 2 *
    the brute member sum plus sum (2*beta - k) * d' of that row's family:
    the correction is the reference one, and sum_i HAM_i = k/2 * (m - C)."""
    m, k = len(pattern), families[0].k
    correction = dprime_correction(noise, families)
    nums = m - signed_matches(text, pattern, families) + correction
    assert nums.shape == (len(families), noise.n_windows) and nums.dtype == np.int64
    for row, fix, fam in zip(nums, correction, families):
        assert np.array_equal(fix, correction_numerators(noise, fam))
        assert np.array_equal(k * row, 2 * member_sums_brute(text, pattern, fam) + k * fix)


def test_member_sums_brute_matches_member_by_member():
    # the oracle above, anchored to scalar member_eval per member
    text, pattern = generate_instance(60, 9, 7, "uniform", seed=2)
    for k in (2, 8):
        fam = family_new(k, seed=4 + k)
        want = sum(member_profile_brute(text, pattern, fam, i) for i in range(k))
        assert np.array_equal(member_sums_brute(text, pattern, fam), want)


def _skewed(n, m, sigma, seed):
    # text mostly 0, pattern mostly 1: a few pairs fill most windows and
    # keep rows, the rest keep entries
    rng = np.random.default_rng(seed)
    text = np.where(rng.random(n) < 0.6, 0, rng.integers(0, sigma, n))
    pattern = np.where(rng.random(m) < 0.6, 1, rng.integers(0, sigma, m))
    return IntString(text, sigma), IntString(pattern, sigma)


def _noises(text, pattern, rng):
    nw = len(text) - len(pattern) + 1
    yield noise_profile_from_windows([{}] * nw, text.sigma)
    yield _exact_noise(text, pattern)
    yield _random_noise(text, pattern, rng)


@pytest.mark.parametrize("layout", ["rows", "entries", "mixed", "sigma1", "m_equals_n"])
def test_execution_numerators_match_member_sums_and_correction(layout):
    rng = np.random.default_rng(41)
    # instance shapes whose pairs each occur in many windows (rows), in few
    # (entries), or both (mixed), and edge shapes
    if layout == "rows":
        # four windows: every occurring code is in at least a quarter of them
        text, pattern = generate_instance(40, 37, 30, "uniform", seed=5)
    elif layout == "m_equals_n":
        text, pattern = generate_instance(48, 48, 30, "uniform", seed=5)
    elif layout == "entries":
        # many windows, each code in a few of them
        text = IntString(rng.integers(0, 50, size=200), 50)
        pattern = IntString(np.array([3, 17]), 50)
    elif layout == "mixed":
        text, pattern = _skewed(160, 24, 24, seed=2)
    else:
        text = IntString(np.zeros(30, dtype=np.int64), 1)
        pattern = IntString(np.zeros(5, dtype=np.int64), 1)
    for noise in _noises(text, pattern, rng):
        for k in (4, 64):
            fams = [family_new(k, seed=300 + k + e) for e in range(3)]
            _check_numerators(text, pattern, noise, fams)
    # the random noise, checked last, holds pairs that occur in no window
    if text.sigma > 1:
        nw = len(text) - len(pattern) + 1
        occurring = set().union(*(alignment_dict_brute(text, pattern, j) for j in range(nw)))
        assert not set(zip(noise.us.tolist(), noise.vs.tolist())) <= occurring


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_execution_numerators_property(data):
    sigma = data.draw(st.integers(1, 40), label="sigma")
    n = data.draw(st.integers(1, 70), label="n")
    m = data.draw(st.integers(1, n), label="m")
    seed = data.draw(st.integers(0, 1 << 30), label="seed")
    if data.draw(st.booleans(), label="skewed") and sigma >= 2:
        text, pattern = _skewed(n, m, sigma, seed)
    else:
        rng = np.random.default_rng(seed)
        text = IntString(rng.integers(0, sigma, size=n), sigma)
        pattern = IntString(rng.integers(0, sigma, size=m), sigma)
    mode = data.draw(st.sampled_from(["empty", "exact", "random", "top"]), label="noise")
    nw = n - m + 1
    if mode == "empty":
        noise = noise_profile_from_windows([{}] * nw, sigma)
    elif mode == "exact":
        noise = _exact_noise(text, pattern)
    elif mode == "random":
        noise = _random_noise(text, pattern, np.random.default_rng(seed + 1))
    else:
        noise = top_pair_counts(text, pattern, approx_params(0.5, seed, n).capacity)
    k = data.draw(st.sampled_from([2, 16, 128]), label="k")
    reps = data.draw(st.integers(1, 4), label="reps")
    fams = [family_new(k, seed=seed + 7 * e) for e in range(reps)]
    _check_numerators(text, pattern, noise, fams)


def test_approx_memory_stays_near_its_inputs(monkeypatch):
    # uniform n=2048, m=1024, sigma=256 takes the sort route with nearly
    # every window position its own pair. top_pair_counts holds one block's
    # temporaries, about 73 bytes per position, beside D' and the 12 bytes
    # per D' entry it keeps until the profile is built: 2.8, 5.5 and 39 MB at
    # 2^14, 2^16 and 2^19 positions per block, so the peak follows the block
    # constant. approx_profile peaks at 14.6 MB at the default; counting every
    # window's pairs before the filter peaked at 55.6 MB here
    text, pattern = generate_instance(2048, 1024, 256, "uniform", seed=1)
    params = approx_params(0.1, seed=1, n=2048)
    peaks = []
    for positions in (1 << 14, noise_profile._BLOCK_POSITIONS, 1 << 19):
        monkeypatch.setattr(noise_profile, "_BLOCK_POSITIONS", positions)
        noise, peak = traced_peak(top_pair_counts, text, pattern, params.capacity)
        noise_bytes = sum(a.nbytes for a in (noise.indptr, noise.codes, noise.cols, noise.values))
        assert peak <= noise_bytes + 16 * noise.values.size + 96 * max(positions, len(pattern))
        peaks.append(peak)
    assert peaks[0] <= peaks[1] < peaks[2] / 4
    monkeypatch.undo()
    _, peak = traced_peak(approx_profile, text, pattern, params)
    assert peak <= 20e6


def test_approx_memory_on_the_grid_route(monkeypatch):
    # the bench's dense16 shape takes the grid route, where approx keeps
    # every execution's estimate from the block's counts and runs no FFT.
    # Its peak is at most D', the 12 bytes per D' entry kept until the
    # profile is built, two (windows, reps) float64 arrays (the estimates
    # and median_profile's sorted copy) and 32 bytes per block position: the
    # offsets and keys tables, the counts, their float64 residual and the
    # filter's partition measure about 22 bytes per position between 2^16
    # and 2^18 positions per block. approx_profile peaks at 9.8 MB at the
    # default, where the FFT signed matches and CSR correction peaked at 11.0
    text, pattern = generate_instance(8192, 512, 16, "uniform", seed=1)
    occurring = (occurring_symbols(s)[0].size for s in (text, pattern))
    assert pair_grid_pays(*occurring, len(pattern))
    params = approx_params(0.1, seed=1, n=8192)
    peaks = []
    for positions in (1 << 14, noise_profile._BLOCK_POSITIONS, 1 << 18):
        monkeypatch.setattr(noise_profile, "_BLOCK_POSITIONS", positions)
        (_, noise), peak = traced_peak(approx_profile, text, pattern, params, return_noise=True)
        noise_bytes = sum(a.nbytes for a in (noise.indptr, noise.codes, noise.cols, noise.values))
        runs_bytes = 8 * noise.n_windows * params.reps
        assert peak <= noise_bytes + 12 * noise.values.size + 2 * runs_bytes + 32 * max(positions, len(pattern))
        peaks.append(peak)
    assert peaks[0] <= peaks[1] < peaks[2]


def test_one_evaluation_per_hash_kind(monkeypatch):
    # on the sort route, all families' base bits for the member sums and
    # their base bits over the symbols of D' each take one poly3_eval call at
    # this size, however many executions; on the grid route one evaluation
    # over the occurring symbols gives every cell's agreement. D' and the
    # grid route's estimates come from one enumeration, which draws no hash
    evals, builds = [], []

    def spy(log, fn):
        def wrapped(*args, **kwargs):
            log.append(1)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(hashing, "poly3_eval", spy(evals, hashing.poly3_eval))
    monkeypatch.setattr(approx, "_dprime_and_residual", spy(builds, approx._dprime_and_residual))
    # sigma 16 at m = 40 takes the sort route, sigma 4 at m = 40 the grid route
    for sigma, want in ((16, 2), (4, 1)):
        text, pattern = generate_instance(600, 40, sigma, "uniform", seed=3)
        for eps, reps in ((0.25, 2), (0.25, 7), (0.0625, 5)):
            for log in (evals, builds):
                log.clear()
            params = approx_params(eps, seed=1, n=600, reps=reps)
            approx_profile(text, pattern, params)
            assert len(builds) == 1
            assert len(evals) == want, sigma


def test_perfect_noise_matrix_gives_exact_profile():
    # with D' equal to the true alignment counts the estimate telescopes to
    # the exact distance: numerator = 2*sum_i x_i + sum (2*beta - k) d = k*d
    for seed in range(3):
        text, pattern = generate_instance(128, 16, 8, "uniform", seed)
        exact = hamming_profile_convolution(text, pattern).values
        params = approx_params(0.25, seed=seed + 50, n=128, reps=3)
        est = approx_with_noise(text, pattern, params, _exact_noise(text, pattern))
        assert np.array_equal(est.values, exact.astype(np.float64))


def test_identical_strings_and_zero_windows():
    s = IntString(np.arange(60) % 6, 6)
    params = approx_params(0.25, seed=2, n=60, reps=3)
    assert not approx_profile(s, s, params).values.any()
    # plant the pattern verbatim: that window must come out exactly 0
    rng = np.random.default_rng(8)
    text_arr = rng.integers(0, 6, size=200)
    pattern = IntString(rng.integers(0, 6, size=25), 6)
    text_arr[70:95] = pattern.symbols
    text = IntString(text_arr, 6)
    params = approx_params(0.25, seed=3, n=200, reps=5)
    prof = approx_profile(text, pattern, params)
    assert prof.values[70] == 0.0
    assert prof.values.min() >= 0.0


def test_reps_one_equals_single_execution():
    text, pattern = generate_instance(150, 20, 8, "uniform", seed=4)
    params = approx_params(0.25, seed=7, n=150, reps=1)
    noise = top_pair_counts(text, pattern, params.capacity)
    single = execution_estimates(text, pattern, params.k, params.seed, [0], noise)[0]
    assert np.array_equal(approx_profile(text, pattern, params).values, single)


def _grid_cases():
    """(name, text, pattern, grid route expected) on small shapes at the
    edges of the grid route."""
    rng = np.random.default_rng(29)

    def covering(length, sigma):
        # every symbol of [0, sigma) occurs, the rest uniform
        s = rng.integers(0, sigma, size=length)
        s[:sigma] = np.arange(sigma)
        return IntString(rng.permutation(s), sigma)

    # sigma 4 at m = 16: 12 off-diagonal cells, most counts 0 to 3
    yield "ties", covering(90, 4), covering(16, 4), True
    # sigma_t' * sigma_p' = m, and m + 1 on the sort route
    yield "cells == m", covering(70, 4), covering(16, 4), True
    yield "cells == m + 1", covering(70, 4), covering(15, 4), False
    # the pattern at every 12th window (d = 0) of a periodic text, bar the
    # windows a random stretch covers
    pattern = covering(12, 3)
    text = np.resize(pattern.symbols, 60)
    text[25:31] = rng.integers(0, 3, size=6)
    yield "d = 0", IntString(text, 3), pattern, True
    zeros = np.zeros(40, dtype=np.int64)
    yield "sigma 1", IntString(zeros, 1), IntString(zeros[:9], 1), True
    # disjoint alphabets: no diagonal cell, every position a mismatch
    text = IntString(covering(50, 2).symbols, 3)
    yield "no diagonal", text, IntString(np.full(7, 2), 3), True


def _check_grid_case(monkeypatch, text, pattern, grid, positions):
    """approx's runs at positions per block against execution_estimates
    over the same D'; the grid route must not call it."""
    monkeypatch.setattr(noise_profile, "_BLOCK_POSITIONS", positions)
    occurring = (occurring_symbols(s)[0].size for s in (text, pattern))
    assert pair_grid_pays(*occurring, len(pattern)) == grid
    params = approx_params(0.5, seed=5, n=len(text), reps=5)
    fallback = []

    def spy(*args):
        fallback.append(args)
        return execution_estimates(*args)

    monkeypatch.setattr(approx, "execution_estimates", spy)
    runs, noise = approx._execution_runs(text, pattern, params)
    assert len(fallback) == (not grid)
    want = execution_estimates(text, pattern, params.k, params.seed, range(params.reps), noise)
    assert runs.shape == want.shape and runs.dtype == want.dtype
    assert np.array_equal(runs, want)
    # D' is the one top_pair_counts builds on its own
    alone = top_pair_counts(text, pattern, params.capacity)
    for field in ("indptr", "codes", "cols", "values"):
        assert np.array_equal(getattr(noise, field), getattr(alone, field)), field
    return runs, noise


@pytest.mark.parametrize("block", ["one window", "few windows", "default"])
@pytest.mark.parametrize("case", [c[0] for c in _grid_cases()])
def test_grid_route_runs_equal_signed_matches_plus_correction(monkeypatch, case, block):
    # on the grid route approx takes each execution's estimate as d - R @ A
    # inside the enumeration; row for row, it equals the FFT signed matches
    # plus the CSR correction over the same D'. One window per block also
    # has m > _BLOCK_POSITIONS
    _, text, pattern, grid = next(c for c in _grid_cases() if c[0] == case)
    m = len(pattern)
    positions = {"one window": 1, "few windows": 3 * m + 1}.get(block, noise_profile._BLOCK_POSITIONS)
    runs, noise = _check_grid_case(monkeypatch, text, pattern, grid, positions)
    nw = noise.n_windows
    dicts = [alignment_dict_brute(text, pattern, j) for j in range(nw)]
    if case == "ties":
        # some window's capacity-th and next largest counts are equal
        ranked = [sorted(d.values(), reverse=True) + [0] for d in dicts]
        cap = noise.capacity
        assert any(len(r) > cap and r[cap - 1] == r[cap] > 0 for r in ranked)
    if case == "d = 0":
        assert sum(not d for d in dicts) == 4
        assert not runs[:, [not d for d in dicts]].any()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_grid_route_runs_property(data):
    sigma = data.draw(st.integers(1, 6), label="sigma")
    m = data.draw(st.integers(max(1, sigma * sigma - 2), 40), label="m")
    n = data.draw(st.integers(m, 90), label="n")
    positions = data.draw(st.sampled_from([1, m, 2 * m + 1, 1 << 16]), label="positions")
    rng = np.random.default_rng(data.draw(st.integers(0, 1 << 30), label="seed"))
    text = IntString(rng.integers(0, sigma, size=n), sigma)
    pattern = IntString(rng.integers(0, sigma, size=m), sigma)
    occurring = (occurring_symbols(s)[0].size for s in (text, pattern))
    with pytest.MonkeyPatch.context() as mp:
        _check_grid_case(mp, text, pattern, pair_grid_pays(*occurring, m), positions)


def test_share_dprime_reuses_one_recovery(monkeypatch):
    # count the pair-count enumerations, with a spy on the name
    # approx_profile looks up
    calls = []
    build = approx._dprime_and_residual

    def spy(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(approx, "_dprime_and_residual", spy)
    # sigma=8 takes the sort route for the pair counts, sigma=4 the grid
    # route (sigma_t' * sigma_p' <= m)
    for sigma, grid in ((8, False), (4, True)):
        text, pattern = generate_instance(150, 20, sigma, "uniform", seed=11)
        occurring = (occurring_symbols(s)[0].size for s in (text, pattern))
        assert pair_grid_pays(*occurring, len(pattern)) == grid
        params = approx_params(0.25, seed=9, n=150, reps=4)
        calls.clear()
        prof, shared = approx_profile(text, pattern, params, return_noise=True)
        assert len(calls) == 1 and shared.values.size
        # the shared profile injected into every execution reproduces the runs
        again = approx_with_noise(text, pattern, params, shared)
        assert np.array_equal(again.values, prof.values)
        assert len(calls) == 1


@pytest.mark.parametrize(
    "shape, digest",
    [
        # windows holding most occurring pair codes: nearly all codes keep rows
        ((1024, 256, 16, 22), "9e12a5109a3803bd57c7fec8a5254f8a10fc2f75f35201d532233cfb395eeeec"),
        # windows holding few of them: entry codes only
        ((512, 64, 64, 13), "8b1e8ac82727c82dba075fa7f8263c04be8866cf6aa23afaafec47f9536f7953"),
    ],
)
def test_profiles_pinned_with_one_dprime(shape, digest):
    # SHA-256 of the profile bytes over the one D' every execution shares,
    # each window's top-capacity exact pair counts
    n, m, sigma, seed = shape
    text, pattern = generate_instance(n, m, sigma, "uniform", seed)
    params = approx_params(0.25, seed=9, n=n, reps=4)
    prof = approx_profile(text, pattern, params)
    assert hashlib.sha256(prof.values.tobytes()).hexdigest() == digest


# small versions of the benchmark's dense16 and few_pairs shapes, and a
# planted_heavy one at sigma 64
_VARIANCE_SHAPES = {
    "dense16": lambda: generate_instance(1024, 128, 16, "uniform", 1),
    "few_pairs": lambda: few_pairs_bench_instance(1024, 128, 64, seed=1),
    "planted_heavy": lambda: generate_instance(1024, 128, 64, "planted_heavy", 1),
}


def _approx_runs(text, pattern, params):
    """(every execution's estimates, the shared D') of one approx_profile
    call, read by a spy on the _execution_runs it looks up, which takes the
    grid route or the sort route."""
    runs = []

    def spy(*args, **kwargs):
        runs.append(execution_runs(*args, **kwargs))
        return runs[-1]

    execution_runs = approx._execution_runs
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(approx, "_execution_runs", spy)
        _, noise = approx_profile(text, pattern, params, return_noise=True)
    ((estimates, shared),) = runs
    assert shared is noise
    return estimates, noise


def _residual(text, pattern, noise):
    """(codes, N - D', d): the true pair counts N (pair_count_keys) less
    D' over every code that occurs or that D' names, and each window's
    distance."""
    keys, counts = pair_count_keys(text, pattern)
    wins, code = np.divmod(keys, text.sigma**2)
    codes = np.union1d(code, noise.codes)
    resid = np.zeros((codes.size, noise.n_windows), dtype=np.int64)
    resid[np.searchsorted(codes, code), wins] = counts
    d = resid.sum(axis=0)
    resid[np.searchsorted(codes, noise.entry_codes()), noise.entry_windows()] -= noise.values
    return codes, resid, d


@pytest.mark.parametrize("shape", list(_VARIANCE_SHAPES))
def test_execution_error_is_the_residual_against_the_agreement(shape):
    # before the clip at 0, each execution's estimate is m - C + D'A, and
    # m - C = d - sum_(u != v) N(u, v) A(u, v); so wherever the estimate is
    # above 0 its error is exactly -sum (N - d') A, with A read from the
    # execution's family signatures, and wherever it is 0, d - sum (N - d')
    # A <= 0. No statistics: it ties the estimates, D' and the pair counts
    text, pattern = _VARIANCE_SHAPES[shape]()
    params = approx_params(0.1, seed=3, n=len(text), reps=16)
    estimates, noise = _approx_runs(text, pattern, params)
    codes, resid, d = _residual(text, pattern, noise)
    sigma = text.sigma
    sig = family_signatures(execution_families(params.k, params.seed, range(params.reps)), np.arange(sigma))
    agree = signature_agreement(sig[:, codes // sigma], sig[:, codes % sigma])
    # float64 products of integers below 2^53, exact
    err = -(agree.astype(np.float64) @ resid).astype(np.int64)
    above = estimates > 0
    # few_pairs' D' holds every count, so its executions are exact
    assert above.mean() > 0.9 and (err != 0).any() == resid.any()
    assert np.array_equal(estimates[above] - np.broadcast_to(d, err.shape)[above], err[above])
    assert np.all((d + err)[~above] <= 0)


def test_dprime_cuts_the_per_execution_variance():
    # "breaking the variance" checked directly: over 64 executions, the
    # median per-window relative MSE with approx's D' is at most half that
    # with an empty D' and with every D' value doubled, and it is about its
    # prediction sum (N - d')^2 / (k d^2) per window (A is nonzero off the
    # diagonal with probability about 1/k), within a factor 2. Where D'
    # holds every count (few_pairs), the prediction and the MSE are 0
    for shape, make in _VARIANCE_SHAPES.items():
        text, pattern = make()
        params = approx_params(0.1, seed=7, n=len(text), reps=64)
        estimates, noise = _approx_runs(text, pattern, params)
        _, resid, d = _residual(text, pattern, noise)
        live = d > 0

        def mse(runs):
            return np.median(((runs - d) ** 2)[:, live].mean(axis=0) / d[live] ** 2)

        empty = noise_profile_from_windows([{}] * noise.n_windows, text.sigma)
        doubled = dataclasses.replace(noise, values=2 * noise.values)
        measured, without, over = mse(estimates), *(
            mse(execution_estimates(text, pattern, params.k, params.seed, range(64), other))
            for other in (empty, doubled)
        )
        predicted = np.median((resid * resid).sum(axis=0)[live] / (params.k * d[live] ** 2))
        assert measured <= 0.5 * without and measured <= 0.5 * over, shape
        if predicted:
            assert 0.5 <= measured / predicted <= 2, shape
        else:
            assert measured == 0, shape


def test_estimates_deterministic():
    text, pattern = generate_instance(180, 24, 16, "uniform", seed=6)
    params = approx_params(0.25, seed=31, n=180, reps=3)
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
    params = approx_params(eps, seed=77, n=m, reps=1)

    noise = top_pair_counts(text, pattern, params.capacity)

    def execution(e):
        # its own family, over the one D' every execution shares
        return execution_estimates(text, pattern, params.k, params.seed, [e], noise)[0, 0]

    vals = np.array([execution(e) for e in range(trials)])
    within = np.abs(vals - d) <= eps * d
    assert within.mean() > 0.5

    # mean within 3 standard errors of the truth, variance inside the budget
    se = vals.std(ddof=1) / np.sqrt(trials)
    assert abs(vals.mean() - d) <= max(3 * se, 1e-9)
    assert vals.var(ddof=1) <= 0.5 * eps * d * d
