import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamsketch import hashing, sparse_recovery
from hamsketch.sparse_recovery import (
    DEFAULT_MEM_BUDGET,
    NoiseProfile,
    construct_sparse_noise,
    prepare_pair_counts,
    recovery_params,
    scale_ranges,
)
from hamsketch._seeds import ROLE_PROJECTION, mix
from hamsketch.approx import approx_params, approx_profile
from hamsketch.exact import hamming_profile_convolution, hamming_profile_naive
from hamsketch.hashing import fourwise_new
from hamsketch.karloff import karloff_params, karloff_profile
from hamsketch.text_model import IntString, generate_instance

import helpers
from helpers import (
    alignment_dict_brute,
    compute_bucket_table,
    construct_reference,
    decode_bucket,
    noise_profile_from_windows,
    pair_count_matrix,
    projection,
    same_profile,
    traced_peak,
    window_entries,
)


def _uniform(n, m, sigma, seed):
    return generate_instance(n, m, sigma, "uniform", seed)


def test_recovery_params_worked_values():
    p = recovery_params(0.25, seed=0, reps=1)
    assert (p.t_exp, p.epsilon_eff, p.capacity, p.num_scales) == (12, 0.25, 12, 3)
    p = recovery_params(0.1, seed=0, reps=1)
    assert (p.t_exp, p.epsilon_eff, p.capacity, p.num_scales) == (14, 0.0625, 48, 5)
    assert p.bucket_count == 1 << 14
    p = recovery_params(0.5, seed=0, reps=1)
    assert (p.t_exp, p.epsilon_eff, p.capacity, p.num_scales) == (11, 0.5, 6, 2)
    # effective accuracy never exceeds the requested one
    for eps in (0.5, 0.3, 0.25, 0.1, 0.07, 0.001):
        assert recovery_params(eps, seed=0, reps=1).epsilon_eff <= eps


def test_recovery_params_default_reps_and_errors():
    assert recovery_params(0.25, seed=0, n=1024).reps == 20
    with pytest.raises(ValueError):
        recovery_params(0.25, seed=0)  # neither n nor reps
    with pytest.raises(ValueError):
        recovery_params(0.25, seed=0, reps=0)
    for bad in (0.0, -0.2, 0.75):
        with pytest.raises(ValueError):
            recovery_params(bad, seed=0, reps=1)
    with pytest.raises(ValueError):
        recovery_params(1e-6, seed=0, reps=1)  # below the bucket-count cap


def test_scale_ranges_cover_the_ladder():
    p = recovery_params(0.1, seed=0, reps=1)
    pairs = [scale_ranges(p, i) for i in range(p.num_scales)]
    assert pairs[0] == (32, 512)
    assert pairs[-1] == (512, 32)
    for ell, r in pairs:
        assert ell * r == p.bucket_count
    with pytest.raises(IndexError):
        scale_ranges(p, p.num_scales)
    with pytest.raises(IndexError):
        scale_ranges(p, -1)


def _drawn_table(params, i, rep, bits, sigma):
    # the fresh 4-wise hash a projection draws for scale i, repetition rep
    return fourwise_new(bits, mix(params.seed, ROLE_PROJECTION, i, rep)).table(sigma)


def test_projection_coupling_low_bits():
    sigma = 256
    p = recovery_params(0.03125, seed=5, reps=1)
    assert p.num_scales == 6
    # small ell: pi is the drawn hash, tau its low bits
    proj = projection(p, 0, 0, sigma)
    assert (proj.ell, proj.r) == (32, 1024)
    assert np.array_equal(proj.pi_table, _drawn_table(p, 0, 0, 10, sigma))
    assert np.array_equal(proj.tau_table, proj.pi_table & 31)
    # large ell: roles swap
    proj = projection(p, 5, 0, sigma)
    assert (proj.ell, proj.r) == (1024, 32)
    assert np.array_equal(proj.tau_table, _drawn_table(p, 5, 0, 10, sigma))
    assert np.array_equal(proj.pi_table, proj.tau_table & 31)
    # equal ranges: tau side is the drawn one
    q = recovery_params(0.0625, seed=5, reps=1)
    proj = projection(q, 2, 0, sigma)
    assert proj.ell == proj.r == 128
    assert np.array_equal(proj.tau_table, _drawn_table(q, 2, 0, 7, sigma))


def test_projection_plan_blocks_equal_per_draw_projections(monkeypatch):
    # the plan evaluates all draws together; in blocks of one, two and all
    # draws, draw (i, rep) is item i * reps + rep and its drawn side is the
    # scalar hash
    p = recovery_params(0.125, seed=12, reps=3)
    sigma = 40
    draws = [(i, rep) for i in range(p.num_scales) for rep in range(p.reps)]
    for cells in (sigma, 2 * sigma + 1, 1 << 20):
        monkeypatch.setattr(hashing, "_EVAL_CELLS", cells)
        plan = list(sparse_recovery._projection_plan(p, sigma))
        assert [(q.scale_index, q.rep_index) for q in plan] == draws
        for q, (i, rep) in zip(plan, draws):
            assert (q.ell, q.r, q.sigma) == (*scale_ranges(p, i), sigma)
            assert q.tau_table.dtype == q.pi_table.dtype == np.int64
            bits = max(q.ell, q.r).bit_length() - 1
            drawn, low = (q.tau_table, q.pi_table) if q.ell >= q.r else (q.pi_table, q.tau_table)
            h = fourwise_new(bits, mix(p.seed, ROLE_PROJECTION, i, rep))
            assert drawn.tolist() == [h.eval(u) for u in range(sigma)]
            assert np.array_equal(low, drawn & (min(q.ell, q.r) - 1))


def test_projection_determinism_and_rep_variation():
    p = recovery_params(0.25, seed=9, reps=2)
    a = projection(p, 1, 0, 64)
    b = projection(p, 1, 0, 64)
    assert np.array_equal(a.tau_table, b.tau_table)
    assert np.array_equal(a.pi_table, b.pi_table)
    c = projection(p, 1, 1, 64)
    assert not np.array_equal(a.tau_table, c.tau_table)


def test_bucket_table_partitions_mismatch_mass():
    text, pattern = _uniform(48, 8, 8, seed=31)
    p = recovery_params(0.25, seed=7, reps=1)
    proj = projection(p, 0, 0, 8)
    table = compute_bucket_table(text, pattern, proj)
    nw = len(text) - len(pattern) + 1
    briefs = [alignment_dict_brute(text, pattern, j) for j in range(nw)]
    assert all(key not in table.diagonal for key in table.buckets)
    for (x, y), bc in table.buckets.items():
        for j in range(nw):
            want = sum(
                cnt
                for (u, v), cnt in briefs[j].items()
                if proj.tau_table[u] == x and proj.pi_table[v] == y
            )
            assert int(bc.c[j]) == want
            # plane counts are the same mass restricted to one symbol bit
            for b in range(table.nbits):
                want_u = sum(
                    cnt
                    for (u, v), cnt in briefs[j].items()
                    if proj.tau_table[u] == x and proj.pi_table[v] == y and (u >> b) & 1
                )
                assert int(bc.u_planes[b, j]) == want_u


def test_bucket_table_identical_strings_all_zero():
    s = IntString(np.arange(32) % 8, 8)
    p = recovery_params(0.25, seed=3, reps=1)
    proj = projection(p, 1, 0, 8)
    table = compute_bucket_table(s, s, proj)
    for bc in table.buckets.values():
        assert not bc.c.any()


def test_decode_bucket_worked_examples():
    p = recovery_params(0.25, seed=17, reps=1)
    proj = projection(p, 0, 0, 8)
    x, y = int(proj.tau_table[5]), int(proj.pi_table[2])
    u_planes = np.array([10, 0, 10])  # bits 0b101 -> symbol 5
    v_planes = np.array([0, 10, 0])   # bits 0b010 -> symbol 2
    assert decode_bucket(10, (u_planes, v_planes), proj, x, y) == (5, 2)
    # a plane hitting exactly c/2 is ambiguous
    assert decode_bucket(10, (np.array([5, 0, 10]), v_planes), proj, x, y) is None
    # decoded diagonal pair rejects
    assert decode_bucket(10, (v_planes, v_planes), proj, int(proj.tau_table[2]), y) is None
    # empty bucket rejects
    assert decode_bucket(0, (u_planes, v_planes), proj, x, y) is None
    # projection-consistency check rejects a mismatched bucket id
    assert decode_bucket(10, (u_planes, v_planes), proj, (x + 1) % proj.ell, y) is None


def test_decode_bucket_rejects_out_of_alphabet():
    p = recovery_params(0.25, seed=17, reps=1)
    proj = projection(p, 0, 0, 6)
    full = np.array([10, 10, 10])  # decodes to 7, outside sigma=6
    some = np.array([0, 10, 0])
    # range check fires before the projection-consistency check
    assert decode_bucket(10, (full, some), proj, 0, 0) is None


def test_single_pair_instance_recovers_exactly():
    # text constant u, pattern constant v: every window's noise is {(u,v): m}
    rng = np.random.default_rng(71)
    for _ in range(20):
        u, v = rng.choice(16, size=2, replace=False)
        text = IntString(np.full(64, u), 16)
        pattern = IntString(np.full(16, v), 16)
        params = recovery_params(0.25, seed=int(rng.integers(1 << 30)), reps=4)
        noise = construct_sparse_noise(text, pattern, params)
        assert noise.n_windows == 49
        for j in range(noise.n_windows):
            assert window_entries(noise, j) == {(int(u), int(v)): 16}


def test_fast_path_matches_reference():
    # entry-for-entry equality with the literal bucket/decode/min transcription
    cases = [
        ("uniform", 4, 0.25, (0, 1)),
        ("uniform", 16, 0.1, (0,)),
        ("uniform", 3, 0.2, (2,)),
        ("planted_heavy", 16, 0.25, (0,)),
    ]
    layouts = set()
    for model, sigma, eps, seeds in cases:
        for seed in seeds:
            text, pattern = generate_instance(96, 16, sigma, model, seed)
            layouts.update(prepare_pair_counts(text, pattern).row_ids >= 0)
            params = recovery_params(eps, seed=seed + 100, reps=2)
            fast = construct_sparse_noise(text, pattern, params)
            ref = construct_reference(text, pattern, params)
            assert same_profile(fast, ref), (model, sigma, eps, seed)
    # these cases hold both row codes and entry codes
    assert layouts == {True, False}


def test_csr_route_matches_reference_above_dense_alphabet():
    # sigma^2 > 2^16, each pair in a few windows: entry codes only
    text, pattern = _uniform(40, 5, 257, seed=5)
    assert np.all(prepare_pair_counts(text, pattern).row_ids < 0)
    params = recovery_params(0.5, seed=77, reps=2)
    fast = construct_sparse_noise(text, pattern, params)
    assert fast.values.size > 0
    assert same_profile(fast, construct_reference(text, pattern, params))


def test_csr_collision_decodes_match_reference():
    # with one projection per scale, some pairs here never sit alone in their
    # window's bucket; their values come only from collision-group decodes
    for seed in (4, 28):
        text, pattern = _uniform(60, 20, 12, seed=seed)
        params = recovery_params(0.5, seed=seed, reps=1)
        fast = construct_sparse_noise(text, pattern, params, mem_budget=1)
        assert same_profile(fast, construct_reference(text, pattern, params)), seed


def _scattered_instance(seed, sigma, k, n, m):
    # text and pattern uniform over k scattered symbols of [0, sigma), k
    # drawn from the range (lo, hi) when given as a pair: bit-plane
    # majorities can then name symbols that occur nowhere
    rng = np.random.default_rng(seed)
    if isinstance(k, tuple):
        k = int(rng.integers(k[0], k[1] + 1))
    symbols = rng.choice(sigma, k, replace=False)
    return IntString(rng.choice(symbols, n), sigma), IntString(rng.choice(symbols, m), sigma)


def _projections_run(monkeypatch):
    """Counts the projections each recovery runs, in a one-item list."""
    runs = [0]
    real = sparse_recovery._Recovery.project

    def spy(self, proj):
        runs[0] += 1
        return real(self, proj)

    monkeypatch.setattr(sparse_recovery._Recovery, "project", spy)
    return runs


def test_row_group_spurious_decodes_match_reference(monkeypatch):
    # every code keeps a row, so an output pair that occurs in no window can
    # only come from the bit-plane decode of a row group of 3+ codes. Here
    # the ladder stops at projection 5 of 12, after such decodes
    text, pattern = _scattered_instance(1, 32, 12, 800, 200)
    params = recovery_params(0.5, seed=16, reps=6)
    cache = prepare_pair_counts(text, pattern)
    assert np.all(cache.row_ids >= 0)
    runs = _projections_run(monkeypatch)
    fast = construct_sparse_noise(text, pattern, params, pair_cache=cache)
    assert runs[0] == 5
    codes = fast.us.astype(np.int64) * text.sigma + fast.vs
    assert not np.isin(codes, cache.codes).all()
    assert same_profile(fast, construct_reference(text, pattern, params))


def _assert_present_pairs_exact(noise, cache):
    """Every entry of noise naming a pair present in its window holds that
    pair's true count; returns how many entries were checked."""
    codes = noise.us.astype(np.int64) * cache.sigma + noise.vs
    truth = helpers.pair_counts_at(cache, codes, noise.entry_windows())
    present = truth > 0
    assert np.array_equal(noise.values[present], truth[present])
    return int(present.sum())


@pytest.mark.parametrize(
    "instance, eps, seed, reps, route, layout, ran",
    [
        # (text, pattern), recovery parameters, the pair-count route and
        # layout (row codes, entry codes or both), and projections run
        (lambda: generate_instance(400, 256, 16, "planted_heavy", 0), 0.5, 100, 2, "grid", "both", 3),
        (lambda: _uniform(40, 5, 257, seed=0), 0.5, 100, 3, "sort", "entries", 3),
        (lambda: _skewed_instance(160, 24, 24, 0, 0.6), 0.5, 100, 3, "sort", "both", 3),
    ],
    ids=["grid-both", "sort-entries", "sort-both"],
)
def test_ladder_stops_mid_plan_like_the_reference(
    monkeypatch, instance, eps, seed, reps, route, layout, ran
):
    # the ladder stops after the first projection by which every present
    # pair count has sat alone in its window's bucket, before the last
    # projection of the plan; the reference decides the same stop from its
    # own bucket table
    text, pattern = instance()
    taken = _route_spy(monkeypatch)
    cache = prepare_pair_counts(text, pattern)
    rowed = cache.row_ids >= 0
    assert taken == [route]
    assert layout == ("rows" if rowed.all() else "entries" if not rowed.any() else "both")
    params = recovery_params(eps, seed=seed, reps=reps)
    runs = _projections_run(monkeypatch)
    fast = construct_sparse_noise(text, pattern, params, pair_cache=cache)
    assert runs[0] == ran and 1 < ran < params.num_scales * params.reps
    assert same_profile(fast, construct_reference(text, pattern, params))
    assert _assert_present_pairs_exact(fast, cache) > 0


def test_present_pairs_end_at_their_true_counts():
    # once the ladder stops, every pair present in a window has sat alone in
    # its bucket, so its D' entry, if kept, is its exact count; only absent
    # pairs can sit above the truth. Default repetitions: the stop comes
    # long before the ceiling of num_scales * ceil(2 log2 n) projections
    shapes = [
        _uniform(2048, 128, 16, seed=3),
        generate_instance(2048, 128, 64, "planted_heavy", 1),
        helpers.few_pairs_bench_instance(2048, 256, 64, seed=2),
    ]
    for text, pattern in shapes:
        cache = prepare_pair_counts(text, pattern)
        params = recovery_params(0.1, seed=7, n=len(text))
        noise = construct_sparse_noise(text, pattern, params, pair_cache=cache)
        assert _assert_present_pairs_exact(noise, cache) > 0


def _one_bucket_plan(us, vs):
    """A plan of one coupled projection whose only non-diagonal bucket, (1,
    1), holds the codes u * sigma + v with u in us and v in vs (us and vs
    disjoint); every other code lands in a diagonal bucket."""
    def plan(params, sigma):
        ell, r = scale_ranges(params, 0)
        yield sparse_recovery.CoupledProjection(
            ell=ell, r=r, sigma=sigma, scale_index=0, rep_index=0,
            tau_table=np.isin(np.arange(sigma), us).astype(np.int64),
            pi_table=np.isin(np.arange(sigma), vs).astype(np.int64),
        )
    return plan


def _decode_one_bucket(monkeypatch, text, pattern, us, vs):
    """Recovery over _one_bucket_plan(us, vs), checked equal to the literal
    reference. Returns the profile and, per window, the decoded code or None
    (c = 0 or a tied plane), from plane majorities of the bucket's codes,
    which must all keep rows. Sigma decides the codes' distinct plane splits,
    also returned."""
    plan = _one_bucket_plan(us, vs)
    monkeypatch.setattr(sparse_recovery, "_projection_plan", plan)
    monkeypatch.setattr(helpers, "_projection_plan", plan)
    params = recovery_params(0.25, seed=0, reps=1)
    cache = prepare_pair_counts(text, pattern)
    sigma, nbits = text.sigma, (text.sigma - 1).bit_length()
    in_bucket = np.isin(cache.codes // sigma, us) & np.isin(cache.codes % sigma, vs)
    codes, rows = cache.codes[in_bucket], cache.rows[cache.row_ids[in_bucket]]
    assert codes.size >= 3 and np.all(cache.row_ids[in_bucket] >= 0)
    fast = construct_sparse_noise(text, pattern, params, pair_cache=cache)
    assert same_profile(fast, construct_reference(text, pattern, params))
    # bit b of a pattern u | v << nbits, per code; a split and its complement
    # are one split
    bits = (codes // sigma | codes % sigma << nbits)[None, :] >> np.arange(2 * nbits)[:, None] & 1
    splits = {tuple(b ^ b[0]) for b in bits if b.any() and not b.all()}
    decodes = []
    for counts in rows.T:
        c, planes = int(counts.sum()), bits @ counts
        pat = int(np.sum((2 * planes > c) << np.arange(2 * nbits)))
        tied = c == 0 or np.any(2 * planes == c)
        decodes.append(None if tied else (pat & ((1 << nbits) - 1)) * sigma + (pat >> nbits))
    return fast, rows, codes, decodes, len(splits)


def _text_over(symbols, weights, n, seed):
    rng = np.random.default_rng(seed)
    return rng.choice(symbols, n, p=np.asarray(weights) / np.sum(weights))


def test_row_decode_names_the_unseparated_member(monkeypatch):
    # codes (4, 0), (5, 0), (6, 0): bit 0 splits off 5, bit 1 splits off 6,
    # and no plane splits off 4, so 4 wins wherever neither 5 nor 6 outweighs
    # the other two, even where it is the lightest; c = 0 windows and
    # windows where 5 or 6 weighs exactly as much as the other two decode to
    # nothing
    text = IntString(_text_over([0, 4, 5, 6], [8, 2, 2, 2], 400, seed=1), 8)
    pattern = IntString(np.zeros(6, dtype=np.int64), 8)
    noise, rows, codes, decodes, n_splits = _decode_one_bucket(
        monkeypatch, text, pattern, [4, 5, 6], [0]
    )
    assert n_splits == 2 and codes.tolist() == [32, 40, 48]
    c = rows.sum(axis=0)
    lightest = [j for j, d in enumerate(decodes) if d == 32 and rows[0, j] < rows[1:, j].max()]
    assert lightest
    for j in lightest:
        assert window_entries(noise, j) == {(4, 0): c[j]}
    tied = [j for j, d in enumerate(decodes) if d is None and c[j] > 0]
    assert tied and any(c == 0)
    for j in tied + list(np.flatnonzero(c == 0)):
        assert window_entries(noise, j) == {}


def test_row_decode_two_against_two_split(monkeypatch):
    # codes (8..11, 0): bit 0 splits {9, 11} from {8, 10} and bit 1 {10, 11}
    # from {8, 9}, so each sign sums two rows against two
    text = IntString(_text_over([0, 8, 9, 10, 11], [6, 1, 2, 3, 2], 400, seed=2), 16)
    pattern = IntString(np.zeros(5, dtype=np.int64), 16)
    noise, rows, codes, decodes, n_splits = _decode_one_bucket(
        monkeypatch, text, pattern, [8, 9, 10, 11], [0]
    )
    assert n_splits == 2 and codes.size == 4
    named = {d for d in decodes if d is not None}
    assert named == set(codes.tolist())
    c = rows.sum(axis=0)
    for j, d in enumerate(decodes):
        assert window_entries(noise, j) == ({} if d is None else {divmod(d, 16): c[j]})


@pytest.mark.parametrize("zero_in_bucket", [True, False])
def test_row_decode_outcome_naming_no_member(monkeypatch, zero_in_bucket):
    # codes (1, 2), (6, 2), (8, 2): planes split {1}, {6} and {1, 6} off 8.
    # Equal counts make D({1, 6}) > 0 alone, an outcome that flips bit 3 of
    # 8 and names (0, 2), which occurs nowhere. It is kept as a spurious
    # entry when tau sends 0 to the bucket, and fails the projection check
    # otherwise
    text = IntString(_text_over([2, 1, 6, 8], [4, 2, 2, 2], 400, seed=3), 16)
    pattern = IntString(np.full(6, 2), 16)
    us = [0, 1, 6, 8] if zero_in_bucket else [1, 6, 8]
    noise, rows, codes, decodes, n_splits = _decode_one_bucket(
        monkeypatch, text, pattern, us, [2]
    )
    assert n_splits == 3 and codes.tolist() == [18, 98, 130]
    c = rows.sum(axis=0)
    absent = [j for j, d in enumerate(decodes) if d == 2]
    assert absent
    for j in absent:
        assert window_entries(noise, j) == ({(0, 2): c[j]} if zero_in_bucket else {})


@pytest.mark.parametrize(
    "nbits, m, n, weights",
    # text weights of 1, the other text symbols and the filler, pattern
    # weights of (2^nbits - 1) ^ 1 and the other pattern symbols
    [(5, 64, 600, ((4, 1, 2), (3, 1))), (13, 384, 900, ((12, 1, 3), (11, 1)))],
)
def test_row_decode_many_splits(monkeypatch, nbits, m, n, weights):
    # text symbols 2^b and pattern symbols (2^nbits - 1) ^ 2^b: every plane
    # splits one symbol off, so nbits^2 row codes split 2*nbits ways, more
    # than 8 (and at nbits = 13 more than a float32 code holds). Weights near
    # a half for text symbol 1 and pattern symbol (2^nbits - 1) ^ 1 make
    # several outcomes that name no member occur. A filler from the pattern
    # symbols makes c vary; its pairs land in a diagonal bucket
    sigma = 1 << nbits
    t_syms = 1 << np.arange(nbits)
    p_syms = (sigma - 1) ^ t_syms
    (t_one, t_rest, filler), (p_one, p_rest) = weights
    rng = np.random.default_rng(nbits)
    tw = np.r_[t_one, np.full(nbits - 1, t_rest), filler]
    text = IntString(rng.choice(np.r_[t_syms, p_syms[0]], n, p=tw / tw.sum()), sigma)
    pw = np.r_[p_one, np.full(nbits - 1, p_rest)]
    pattern = IntString(rng.choice(p_syms, m, p=pw / pw.sum()), sigma)
    us = np.setdiff1d(np.arange(sigma), p_syms)
    noise, rows, codes, decodes, n_splits = _decode_one_bucket(
        monkeypatch, text, pattern, us, p_syms
    )
    assert codes.size == nbits**2 and n_splits == 2 * nbits
    others = {d for d in decodes if d is not None} - set(codes.tolist())
    assert len(others) >= 2


def test_entry_group_spurious_decodes_match_reference():
    # no code keeps a row, so an output pair absent from its window can only
    # come from a collision decode that names a pair the window lacks
    for seed in (7, 38):
        text, pattern = _scattered_instance(seed, 256, (24, 53), 120, 16)
        params = recovery_params(0.5, seed=seed, reps=3)
        cache = prepare_pair_counts(text, pattern)
        assert np.all(cache.row_ids < 0)
        fast = construct_sparse_noise(text, pattern, params, pair_cache=cache)
        truth = _pair_dicts(cache)
        absent = [
            (j, uv) for j in range(fast.n_windows) for uv in window_entries(fast, j)
            if uv not in truth[j]
        ]
        assert absent, seed
        assert same_profile(fast, construct_reference(text, pattern, params)), seed


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_csr_route_matches_reference_property(data):
    # small alphabets in full, or a few scattered symbols of a larger one
    sigma = data.draw(st.sampled_from([2, 3, 5, 12, 32, 256]), label="sigma")
    used = data.draw(
        st.lists(st.integers(0, sigma - 1), min_size=1, max_size=8, unique=True)
        if sigma > 12 else st.just(list(range(sigma))),
        label="symbols",
    )
    n = data.draw(st.integers(1, 40), label="n")
    m = data.draw(st.one_of(st.just(1), st.just(n), st.integers(1, n)), label="m")
    symbols = st.sampled_from(used)
    text = IntString(data.draw(st.lists(symbols, min_size=n, max_size=n)), sigma)
    pattern = IntString(data.draw(st.lists(symbols, min_size=m, max_size=m)), sigma)
    params = recovery_params(
        data.draw(st.sampled_from([0.5, 0.25])),
        seed=data.draw(st.integers(0, 1 << 30)),
        reps=data.draw(st.integers(1, 2)),
    )
    budget = data.draw(st.sampled_from([1, 1000, DEFAULT_MEM_BUDGET]), label="mem_budget")
    cache = prepare_pair_counts(text, pattern, mem_budget=budget)
    fast = construct_sparse_noise(text, pattern, params, pair_cache=cache, mem_budget=budget)
    assert same_profile(fast, construct_reference(text, pattern, params))


def test_csr_blocks_do_not_change_the_profile():
    # the collision-decode instance above: a chunk that split a bucket
    # group would miss its collisions
    text, pattern = _uniform(60, 20, 12, seed=4)
    cache = prepare_pair_counts(text, pattern, mem_budget=1)
    params = recovery_params(0.5, seed=4, reps=1)
    whole = construct_sparse_noise(text, pattern, params, pair_cache=cache)
    for budget in (1, 1000, 10**4):
        blocked = construct_sparse_noise(
            text, pattern, params, pair_cache=cache, mem_budget=budget
        )
        assert same_profile(blocked, whole), budget


def _skewed_instance(n, m, sigma, seed, heavy=0.6):
    # text mostly 0 and pattern mostly 1: the pairs (0, 1), (0, v) and (u, 1)
    # fill most windows, the other pairs a few each
    rng = np.random.default_rng(seed)
    text = np.where(rng.random(n) < heavy, 0, rng.integers(0, sigma, n))
    pattern = np.where(rng.random(m) < heavy, 1, rng.integers(0, sigma, m))
    return IntString(text, sigma), IntString(pattern, sigma)


def _mixed_groups(cache, params):
    """Non-diagonal (projection, bucket) groups holding both a row code and
    an entry code, counted from the projections directly."""
    sigma = cache.sigma
    u, v = cache.codes // sigma, cache.codes % sigma
    rowed = cache.row_ids >= 0
    mixed = 0
    for proj in sparse_recovery._projection_plan(params, sigma):
        diag = {(int(proj.tau_table[s]), int(proj.pi_table[s])) for s in range(sigma)}
        kinds: dict = {}
        for k in range(cache.codes.size):
            b = (int(proj.tau_table[u[k]]), int(proj.pi_table[v[k]]))
            if b not in diag:
                kinds.setdefault(b, set()).add(bool(rowed[k]))
        mixed += sum(len(kk) == 2 for kk in kinds.values())
    return mixed


def test_dense_and_sparse_routes_agree():
    # dense rows and sparse entries in one bucket group: the group's row
    # members take part in its window-by-window decode, and its decodes
    # that name a row code lower that row
    for seed, sigma, heavy, reps in ((0, 24, 0.6, 2), (4, 40, 0.4, 2), (9, 24, 0.6, 1)):
        text, pattern = _skewed_instance(160, 24, sigma, seed, heavy)
        params = recovery_params(0.5, seed=seed, reps=reps)
        cache = prepare_pair_counts(text, pattern)
        assert _mixed_groups(cache, params) > 0
        for budget in (1, 1000, DEFAULT_MEM_BUDGET):
            fast = construct_sparse_noise(text, pattern, params, mem_budget=budget)
            assert same_profile(fast, construct_reference(text, pattern, params)), (seed, budget)


def test_dense_filter_blocks_do_not_change_the_profile(monkeypatch):
    # row cells and entries ranked together, in window blocks of any size
    text, pattern = _skewed_instance(400, 48, 24, seed=1)
    params = recovery_params(0.5, seed=12, reps=3)
    cache = prepare_pair_counts(text, pattern)
    assert (cache.row_ids >= 0).any() and (cache.row_ids < 0).any()
    want = construct_sparse_noise(text, pattern, params, pair_cache=cache)
    # the capacity cut must bind somewhere, or ranking is never tested
    assert np.diff(want.indptr).max() == params.capacity
    for cells in (1, 100, 1 << 30):
        monkeypatch.setattr(sparse_recovery, "_FILTER_BLOCK_CELLS", cells)
        got = construct_sparse_noise(text, pattern, params, pair_cache=cache)
        assert same_profile(got, want), cells


@pytest.mark.parametrize("cells", [1, 1 << 18])
def test_filter_breaks_value_ties_toward_the_smaller_code(monkeypatch, cells):
    # sigma 4, capacity 2. Row code 6 = (1, 2) holds 5, 5 and 0 (unset) in
    # windows 0..2. Window 0: triples 3 and 9 tie the row cell at 5 below
    # 12 at 7, so 3 keeps the second place; window 1: the row cell beats
    # triples 9 and 11 at 5, and 9 beats 11; window 2 keeps its one triple
    monkeypatch.setattr(sparse_recovery, "_FILTER_BLOCK_CELLS", cells)
    mins = np.array([[5, 5, 0]], dtype=np.int32)
    cache = sparse_recovery.PairCounts(
        sigma=4, n_windows=3, codes=np.array([6]), row_ids=np.array([0]), rows=mins,
        offsets=np.zeros(2, dtype=np.int64), windows=np.zeros(0, dtype=np.int32),
        counts=np.zeros(0, dtype=np.int32),
    )
    w = np.array([0, 1, 0, 0, 1, 2])
    code = np.array([9, 11, 3, 12, 9, 3])
    val = np.array([5, 5, 5, 7, 5, 1])
    got = sparse_recovery._filter(cache, mins, w, code, val, capacity=2)
    assert [window_entries(got, j) for j in range(3)] == [
        {(0, 3): 5, (3, 0): 7}, {(1, 2): 5, (2, 1): 5}, {(0, 3): 1},
    ]
    windows = [{(1, 2): 5}, {(1, 2): 5}, {}]
    for j, c, v in zip(w, code, val):
        windows[j][divmod(int(c), 4)] = int(v)
    assert same_profile(got, noise_profile_from_windows(windows, 4, capacity=2))


def _periodic_instance(n, m, sigma, seed):
    # a period-8 pattern against the same block with 3 symbols substituted
    rng = np.random.default_rng(seed)
    block = rng.choice(sigma, 8, replace=False)
    text_block = block.copy()
    outside = np.setdiff1d(np.arange(sigma), block)
    text_block[rng.choice(8, 3, replace=False)] = rng.choice(outside, 3, replace=False)
    return IntString(np.resize(text_block, n), sigma), IntString(np.resize(block, m), sigma)


def test_recovery_memory_grows_with_pair_entries():
    # recovery keeps 9 bytes of state per entry (running minimum, code,
    # exactness flag) and 5 per row cell (running minimum and flag; a row
    # holds at most 4 cells per entry of its code), plus per-projection
    # scratch of about 40 bytes per decoded entry where few collide;
    # nothing grows as sigma^2 * windows.
    # On the periodic instance 8 * sigma^2 * windows bytes is 31.5 MB, and
    # this bound allows 1.8 MB.
    row_heavy = _uniform(1024, 128, 16, seed=3)
    entry_heavy = _periodic_instance(1024, 64, 64, seed=3)
    params = recovery_params(0.25, seed=5, reps=1)
    for text, pattern in (row_heavy, entry_heavy):
        cache = prepare_pair_counts(text, pattern)
        entries = cache.counts.size + np.count_nonzero(cache.rows)
        noise, peak = traced_peak(construct_sparse_noise, text, pattern, params, pair_cache=cache)
        assert noise.values.size
        assert peak <= 256 * entries
    assert (prepare_pair_counts(*row_heavy).row_ids >= 0).mean() > 0.5
    assert np.all(prepare_pair_counts(*entry_heavy).row_ids < 0)


def test_heavy_groups_follow_the_memory_budget(monkeypatch):
    # planted_heavy n=2048, m=128, sigma=256: some bucket groups hold
    # thousands of entries. The decode reads its groups in chunks of whole
    # windows holding at most the budget's entries (or one window), so a
    # heavy group is split too; collisions are per window, so the profile
    # stays the same. Decoding each group in one piece took about 1.1 MB of
    # scratch at any budget below that
    text, pattern = generate_instance(2048, 128, 256, "planted_heavy", seed=1)
    params = recovery_params(0.25, seed=3, reps=1)
    cache = prepare_pair_counts(text, pattern)
    want = construct_sparse_noise(text, pattern, params, pair_cache=cache)
    for budget in (1, 1 << 14):
        got = construct_sparse_noise(text, pattern, params, pair_cache=cache, mem_budget=budget)
        assert same_profile(got, want), budget
    scratch, heaviest = [], [0]
    real = sparse_recovery._Recovery._decode_entries

    def traced(self, members, group, *args):
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        real(self, members, group, *args)
        scratch.append(tracemalloc.get_traced_memory()[1] - base)
        lens = np.diff(self.cache.offsets)[members]
        heaviest[0] = max(heaviest[0], int(np.bincount(group, lens).max()))

    monkeypatch.setattr(sparse_recovery._Recovery, "_decode_entries", traced)
    peaks = {}
    for budget in (1 << 18, 1 << 20, DEFAULT_MEM_BUDGET):
        scratch.clear()
        got, _ = traced_peak(
            construct_sparse_noise, text, pattern, params, pair_cache=cache, mem_budget=budget
        )
        assert same_profile(got, want)
        peaks[budget] = max(scratch)
    assert peaks[1 << 18] <= 1.5 * (1 << 18) < peaks[1 << 20] <= 1.5 * (1 << 20)
    # the heaviest group alone holds more entries than a 256 KiB chunk
    per_entry = sparse_recovery._SCRATCH_BYTES_PER_ENTRY + sparse_recovery._SCRATCH_BYTES_PER_BIT * 8
    assert heaviest[0] > (1 << 18) // per_entry


def test_pair_count_layout_follows_window_fill():
    # a code in at least a quarter of the windows keeps a row, any other
    # code its entries; the memory budget changes only the build's blocks
    for text, pattern in (
        _uniform(2048, 256, 8, seed=3),
        _periodic_instance(2048, 256, 64, seed=3),
        _skewed_instance(400, 48, 24, seed=1),
    ):
        nw = len(text) - len(pattern) + 1
        cache = prepare_pair_counts(text, pattern)
        dd = pair_count_matrix(cache)[cache.codes]
        fill = np.count_nonzero(dd, axis=1)
        assert np.array_equal(cache.row_ids >= 0, 4 * fill >= nw)
        assert np.array_equal(np.diff(cache.offsets), np.where(4 * fill >= nw, 0, fill))
        blocked = prepare_pair_counts(text, pattern, mem_budget=1)
        for field in ("codes", "row_ids", "rows", "offsets", "windows", "counts"):
            assert np.array_equal(getattr(blocked, field), getattr(cache, field)), field
    # nearly every code in every window, and each window's few pairs
    assert np.all(prepare_pair_counts(*_uniform(2048, 256, 8, seed=3)).row_ids >= 0)
    assert np.all(prepare_pair_counts(*_periodic_instance(2048, 256, 64, seed=3)).row_ids < 0)


def test_constructed_profile_invariants():
    text, pattern = _uniform(300, 40, 16, seed=44)
    params = recovery_params(0.1, seed=2, reps=3)
    noise = construct_sparse_noise(text, pattern, params)
    noise.validate()
    sizes = np.diff(noise.indptr)
    assert sizes.max() <= params.capacity
    assert np.all(noise.us != noise.vs)
    assert noise.values.min() > 0
    assert noise.values.max() <= len(pattern)
    again = construct_sparse_noise(text, pattern, params)
    assert same_profile(noise, again)


def test_recovered_values_never_undershoot_true_pairs():
    # min over bucket counts is >= the pair's true count: collisions only add
    text, pattern = _uniform(120, 20, 8, seed=13)
    params = recovery_params(0.25, seed=40, reps=3)
    noise = construct_sparse_noise(text, pattern, params)
    for j in (0, 17, 60, 100):
        truth = alignment_dict_brute(text, pattern, j)
        for (u, v), val in window_entries(noise, j).items():
            assert val >= truth.get((u, v), 0)


def test_construct_validates_inputs():
    params = recovery_params(0.25, seed=0, reps=1)
    ap = approx_params(0.25, seed=0, n=2, reps=1)
    kp = karloff_params(0.25, seed=0, n=2, reps=1)
    # karloff_profile once failed with a bare IndexError on mismatched
    # alphabets, approx_profile with numpy's window-shape error on m > n, and
    # prepare_pair_counts returned a cache for mismatched alphabets. An empty
    # pattern made the naive profile and approx divide by zero, the
    # convolution return n + 1 zero windows and karloff one window
    cases = [
        (IntString([0, 2], 3), IntString([0], 2), "alphabet mismatch: 3 vs 2"),
        (IntString([0], 2), IntString([0, 1], 2), "pattern length 2 exceeds text length 1"),
        (IntString([0, 1, 1, 0, 1], 2), IntString([], 2), "pattern must be non-empty"),
    ]
    for text, pattern, message in cases:
        for call in (
            lambda: construct_sparse_noise(text, pattern, params),
            lambda: prepare_pair_counts(text, pattern),
            lambda: approx_profile(text, pattern, ap),
            lambda: karloff_profile(text, pattern, kp),
            lambda: hamming_profile_naive(text, pattern),
            lambda: hamming_profile_convolution(text, pattern),
        ):
            with pytest.raises(ValueError, match=message):
                call()
    empty = construct_sparse_noise(IntString([0, 0, 0], 1), IntString([0], 1), params)
    assert empty.n_windows == 3
    assert empty.values.size == 0


def _pair_dicts(cache):
    """Per-window {(u, v): count} of a PairCounts; each code's entry windows
    must be strictly increasing."""
    sigma = cache.sigma
    out = [dict() for _ in range(cache.n_windows)]
    for i, code in enumerate(cache.codes):
        if cache.row_ids[i] >= 0:
            row = cache.rows[cache.row_ids[i]]
            wins = np.flatnonzero(row)
            counts = row[wins]
        else:
            lo, hi = cache.offsets[i], cache.offsets[i + 1]
            wins, counts = cache.windows[lo:hi], cache.counts[lo:hi]
            assert np.all(np.diff(wins) > 0)
        for j, k in zip(wins, counts):
            out[j][(int(code) // sigma, int(code) % sigma)] = int(k)
    return out


_PAIR_FIELDS = ("codes", "row_ids", "rows", "offsets", "windows", "counts")


def _route_spy(monkeypatch):
    """Records which route each prepare_pair_counts call takes."""
    taken = []
    for name, route in (("_grid_pair_counts", "grid"), ("_sorted_pair_counts", "sort")):
        def spy(*args, _real=getattr(sparse_recovery, name), _route=route):
            taken.append(_route)
            return _real(*args)

        monkeypatch.setattr(sparse_recovery, name, spy)
    return taken


def _assert_same_pair_counts(got, want):
    assert (got.sigma, got.n_windows) == (want.sigma, want.n_windows)
    for field in _PAIR_FIELDS:
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and np.array_equal(a, b), field


def _strings(text, pattern, sigma):
    return IntString(np.asarray(text), sigma), IntString(np.asarray(pattern), sigma)


def test_pair_counts_routes_match_brute(monkeypatch):
    rng = np.random.default_rng(27)
    shapes = [
        # (instance, route): the grid route when sigma_t' * sigma_p' <= m
        (_uniform(60, 16, 4, seed=26), "grid"),
        (_uniform(60, 1, 2, seed=5), "sort"),
        (_uniform(60, 60, 2, seed=6), "grid"),
        (_uniform(60, 1, 4, seed=7), "sort"),
        (_uniform(60, 60, 4, seed=8), "grid"),
        (_uniform(40, 7, 1, seed=9), "grid"),
        (_uniform(40, 40, 1, seed=10), "grid"),
        (_uniform(40, 9, 257, seed=11), "sort"),
        (_uniform(40, 1, 257, seed=12), "sort"),
        (_uniform(40, 40, 257, seed=13), "sort"),
        # pattern symbols 3 and 4 absent from the text: 3 * 3 cells <= 12
        (_strings(rng.integers(0, 3, 50), np.resize([0, 3, 4], 12), 6), "grid"),
        # text symbols 0, 3 and 4 absent from the pattern: 5 * 2 cells <= 12
        (_strings(rng.integers(0, 5, 50), np.resize([1, 2], 12), 6), "grid"),
        # 4 * 3 cells against m = 12 and m = 11
        (_strings(np.resize([0, 1, 2, 3, 1], 50), np.resize([1, 2, 5], 12), 6), "grid"),
        (_strings(np.resize([0, 1, 2, 3, 1], 50), np.resize([1, 2, 5], 11), 6), "sort"),
    ]
    taken = _route_spy(monkeypatch)
    for (text, pattern), route in shapes:
        nw = len(text) - len(pattern) + 1
        want = [alignment_dict_brute(text, pattern, j) for j in range(nw)]
        # 1000 and 1 build the counts in blocks of a few windows and of one
        for budget in (DEFAULT_MEM_BUDGET, 1000, 1):
            taken.clear()
            assert _pair_dicts(prepare_pair_counts(text, pattern, budget)) == want
            assert taken == [route], (len(text), len(pattern), text.sigma)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_pair_count_routes_agree_property(data):
    sigma = data.draw(st.sampled_from([1, 2, 3, 5, 12, 300]), label="sigma")
    n = data.draw(st.integers(1, 40), label="n")
    m = data.draw(st.one_of(st.just(1), st.just(n), st.integers(1, n)), label="m")
    t_syms = st.integers(0, sigma - 1)
    # the pattern draws from a sub-alphabet, so some pairs never occur
    p_syms = st.integers(data.draw(st.integers(0, sigma - 1)), sigma - 1)
    text = IntString(data.draw(st.lists(t_syms, min_size=n, max_size=n)), sigma)
    pattern = IntString(data.draw(st.lists(p_syms, min_size=m, max_size=m)), sigma)
    for budget in (1, 1000, DEFAULT_MEM_BUDGET):
        built = {}
        for route, rule in (("grid", True), ("sort", False)):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(sparse_recovery, "pair_grid_pays", lambda *_, _r=rule: _r)
                built[route] = prepare_pair_counts(text, pattern, budget)
        _assert_same_pair_counts(built["grid"], built["sort"])
        _assert_same_pair_counts(prepare_pair_counts(text, pattern, budget), built["sort"])


def test_pair_count_route_on_bench_shapes(monkeypatch):
    # the benchmark's shapes: grid for dense16 (16 * 16 cells, m = 512) and
    # few_pairs (8 * 8 cells, m = 512); sort for sparse256 (about 256 * 58
    # cells, m = 64) and toy_dense16 (16 * 16 cells, m = 64)
    taken = _route_spy(monkeypatch)
    for text, pattern in (
        _uniform(8192, 512, 16, seed=1),
        _periodic_instance(4096, 512, 64, seed=1),
        _uniform(2048, 64, 256, seed=1),
        _uniform(512, 64, 16, seed=1),
    ):
        prepare_pair_counts(text, pattern)
    assert taken == ["grid", "grid", "sort", "sort"]


def test_pair_count_grid_memory_follows_budget():
    # the grid route keeps an int32 (cells, windows) grid, where cells =
    # sigma_t' * sigma_p' <= m, plus its row and entry copies; the per-block
    # temporaries stay within the memory budget. Counting all 7681 windows
    # in one block peaks at about 33 MB here (an int64 key per position);
    # in budgeted blocks the peak is about 1.1 MB against a 2.5 MB bound.
    text, pattern = _uniform(8192, 512, 4, seed=2)
    nw = len(text) - len(pattern) + 1
    grid_bytes = 4 * 4 * 4 * nw
    budget = 1 << 20
    cache, peak = traced_peak(prepare_pair_counts, text, pattern, mem_budget=budget)
    assert cache.rows.shape == (12, nw)
    assert peak <= budget + 3 * grid_bytes


def test_noise_profile_from_windows_capacity_and_ties():
    dicts = [{(0, 1): 5, (1, 0): 5, (2, 3): 9, (3, 2): 1}, {}]
    capped = noise_profile_from_windows(dicts, sigma=4, capacity=2)
    # top two values; the 5-5 tie keeps the lexicographically smaller pair
    assert window_entries(capped, 0) == {(2, 3): 9, (0, 1): 5}
    assert window_entries(capped, 1) == {}
    full = noise_profile_from_windows(dicts, sigma=4)
    assert window_entries(full, 0) == dicts[0]
    # zero and negative values are dropped rather than stored
    dropped = noise_profile_from_windows([{(0, 1): 0, (2, 1): 3}], sigma=4)
    assert window_entries(dropped, 0) == {(2, 1): 3}


def test_noise_profile_validate_and_window_bounds():
    good = noise_profile_from_windows([{(0, 1): 2}], sigma=4, capacity=3)
    good.validate()
    with pytest.raises(IndexError):
        window_entries(good, 1)
    bad = NoiseProfile(
        sigma=4,
        capacity=3,
        indptr=np.array([0, 1]),
        us=np.array([2], dtype=np.int32),
        vs=np.array([2], dtype=np.int32),
        values=np.array([1], dtype=np.int64),
    )
    with pytest.raises(ValueError):
        bad.validate()


def test_noise_profile_validate_rejects_bad_entries_and_layouts():
    # the shape of an n=200, m=20 instance over sigma 8: 181 windows, capacity 3
    def first_window(entries):
        return noise_profile_from_windows([entries] + [{}] * 180, 8, capacity=3)

    good = first_window({(1, 2): 3})
    good.validate()
    nw = good.n_windows
    for bad, message in (
        # entries: a negative symbol, a symbol >= sigma, a diagonal pair and a
        # negative value
        (first_window({(-1, 2): 3}), r"symbols in \[0, 8\)"),
        (first_window({(1, 8): 3}), r"symbols in \[0, 8\)"),
        (first_window({(2, 2): 3}), "diagonal"),
        (dataclasses.replace(good, values=-good.values), "positive"),
        # layouts: indptr ending past the one entry, a decreasing indptr, one
        # not starting at 0, and us longer than vs
        (dataclasses.replace(good, indptr=np.array([0] + [3] * nw)), "from 0 to the 1 entries"),
        (dataclasses.replace(good, indptr=np.arange(nw + 1) % 2), "not decrease"),
        (dataclasses.replace(good, indptr=np.ones(nw + 1, dtype=np.int64)), "from 0"),
        (dataclasses.replace(good, us=np.array([1, 3], dtype=np.int32)), "equal us, vs"),
    ):
        with pytest.raises(ValueError, match=message):
            bad.validate()


def test_dump_csv_layout(tmp_path):
    profile = noise_profile_from_windows(
        [{(0, 1): 4}, {(2, 0): 7, (1, 3): 2}], sigma=4, capacity=3
    )
    path = tmp_path / "noise.csv"
    profile.dump_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "window,u,v,dprime"
    assert lines[1] == "0,0,1,4"
    assert set(lines[2:]) == {"1,2,0,7", "1,1,3,2"}
