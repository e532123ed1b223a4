"""D' from the exact pair counts (noise_profile.top_pair_counts), the pair
counts themselves, and the paper's projection ladder kept as a literal
reference (helpers.reference_candidates).

One equation ties the ladder to the library's D': once the ladder has
isolated every pair present in a window, its candidates less the pairs absent
from their windows filter to top_pair_counts, entry for entry."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hamsketch import noise_profile, pair_counts
from hamsketch._seeds import ROLE_PROJECTION, mix
from hamsketch.approx import approx_params, approx_profile
from hamsketch.exact import hamming_profile_convolution, hamming_profile_naive
from hamsketch.hashing import fourwise_new
from hamsketch.karloff import karloff_params, karloff_profile
from hamsketch.noise_profile import NoiseProfile, top_pair_counts
from hamsketch.pair_counts import PairCounts, prepare_pair_counts
from hamsketch.text_model import IntString, generate_instance

import helpers
from helpers import (
    alignment_dict_brute,
    capacity_filter_reference,
    compute_bucket_table,
    construct_reference,
    decode_bucket,
    ladder_params,
    noise_profile_from_windows,
    pair_count_matrix,
    projection,
    reference_candidates,
    same_profile,
    scale_ranges,
    traced_peak,
    window_entries,
)


def _uniform(n, m, sigma, seed):
    return generate_instance(n, m, sigma, "uniform", seed)


def _top(text, pattern, capacity):
    return top_pair_counts(prepare_pair_counts(text, pattern), capacity)


# pair-count blocks of one window, of a few windows and the default
_PAIR_BLOCKS = (1, 20, pair_counts._PAIR_BLOCK_POSITIONS)


def _blocked(mp, positions):
    """Sets the pair-count block positions on the MonkeyPatch mp."""
    mp.setattr(pair_counts, "_PAIR_BLOCK_POSITIONS", positions)


def _brute_windows(text, pattern):
    return [alignment_dict_brute(text, pattern, j) for j in range(len(text) - len(pattern) + 1)]


def _ladder_equation(text, pattern, params):
    """(absent, runs): the reference's candidates naming pairs absent from
    their windows, and the projections it ran. Where it stopped before its
    ceiling, asserts the equation: every candidate naming a present pair
    holds that pair's exact count, and those candidates, ranked by
    capacity_filter_reference, are top_pair_counts entry for entry."""
    dicts, runs = reference_candidates(text, pattern, params)
    sigma, nw = text.sigma, len(dicts)
    truth = _brute_windows(text, pattern)
    present = [(j, uv, val) for j, d in enumerate(dicts) for uv, val in d.items() if uv in truth[j]]
    if runs < params.num_scales * params.reps:
        assert all(truth[j][uv] == val for j, uv, val in present)
        cands = [(j, u * sigma + v, val) for j, (u, v), val in present]
        want = capacity_filter_reference(sigma, nw, cands, params.capacity)
        got = _top(text, pattern, params.capacity)
        got.validate()
        assert same_profile(got, want)
    return sum(map(len, dicts)) - len(present), runs


def _residuals(pairs, noise):
    """(d, sum (d - d')^2) per window, read from the pair counts: every
    count squared, with each D' entry's (count - d')^2 in place of its
    count's square."""
    nw = pairs.n_windows
    rows, counts = pairs.rows.astype(np.int64), pairs.counts.astype(np.int64)
    wins = noise.entry_windows()
    truth = helpers.pair_counts_at(pairs, noise.entry_codes(), wins)
    # float64 sums of integers below 2^53, exact
    d = rows.sum(axis=0) + np.bincount(pairs.windows, counts, minlength=nw)
    sq = (
        (rows * rows).sum(axis=0)
        + np.bincount(pairs.windows, counts * counts, minlength=nw)
        + np.bincount(wins, (truth - noise.values) ** 2 - truth * truth, minlength=nw)
    )
    return d.astype(np.int64), sq.astype(np.int64)


def test_recovery_params_worked_values():
    # approx's eps_eff and D' capacity, and the reference ladder's scales
    # and buckets at them
    for eps, t_exp, eps_eff, capacity, scales in (
        (0.25, 12, 0.25, 12, 3), (0.1, 14, 0.0625, 48, 5), (0.5, 11, 0.5, 6, 2),
    ):
        a = approx_params(eps, seed=0, n=2, reps=1)
        p = ladder_params(eps, seed=0, reps=1)
        assert (a.epsilon_eff, a.capacity) == (eps_eff, capacity)
        assert type(a.capacity) is int
        assert (p.t_exp, p.epsilon_eff, p.capacity, p.num_scales) == (t_exp, eps_eff, capacity, scales)
    assert ladder_params(0.1, seed=0, reps=1).bucket_count == 1 << 14
    # effective accuracy never exceeds the requested one, nor falls below half
    for eps in (0.5, 0.3, 0.25, 0.1, 0.07, 0.001):
        eps_eff = approx_params(eps, seed=0, n=2, reps=1).epsilon_eff
        assert eps / 2 < eps_eff <= eps


def test_recovery_params_default_reps_and_errors():
    assert approx_params(0.25, seed=0, n=1024).reps == 20
    with pytest.raises(ValueError):
        approx_params(0.25, seed=0, n=1024, reps=0)
    with pytest.raises(ValueError):
        ladder_params(0.25, seed=0, reps=0)
    for bad in (0.0, -0.2, 0.75):
        with pytest.raises(ValueError):
            approx_params(bad, seed=0, n=2, reps=1)
    # eps_eff stops at 1024 / 2^25: the smallest epsilon accepted
    least = 1024.0 / (1 << 25)
    assert approx_params(least, seed=0, n=2, reps=1).capacity == 3 << 15
    with pytest.raises(ValueError, match=f"too small; need epsilon >= {least}"):
        approx_params(1e-6, seed=0, n=2, reps=1)


def test_scale_ranges_cover_the_ladder():
    p = ladder_params(0.1, seed=0, reps=1)
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
    p = ladder_params(0.03125, seed=5, reps=1)
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
    q = ladder_params(0.0625, seed=5, reps=1)
    proj = projection(q, 2, 0, sigma)
    assert proj.ell == proj.r == 128
    assert np.array_equal(proj.tau_table, _drawn_table(q, 2, 0, 7, sigma))


def test_projection_plan_blocks_equal_per_draw_projections():
    # the reference's plan yields draw (i, rep) as item i * reps + rep, its
    # drawn side the scalar hash at every symbol and its other side the
    # drawn values' low bits
    p = ladder_params(0.125, seed=12, reps=3)
    sigma = 40
    draws = [(i, rep) for i in range(p.num_scales) for rep in range(p.reps)]
    plan = list(helpers.projection_plan(p, sigma))
    assert [(q.scale_index, q.rep_index) for q in plan] == draws
    for q, (i, rep) in zip(plan, draws):
        assert (q.ell, q.r, q.sigma) == (*scale_ranges(p, i), sigma)
        assert q.tau_table.dtype == q.pi_table.dtype == np.int64
        bits = max(q.ell, q.r).bit_length() - 1
        drawn, low = (q.tau_table, q.pi_table) if q.ell >= q.r else (q.pi_table, q.tau_table)
        h = fourwise_new(bits, mix(p.seed, ROLE_PROJECTION, i, rep))
        assert drawn.tolist() == [h.eval(u) for u in range(sigma)]
        assert np.array_equal(low, drawn & (min(q.ell, q.r) - 1))


def test_projection_plan_evaluates_only_the_blocks_the_ladder_reaches(monkeypatch):
    # the reference draws each projection only as it reaches it: where it
    # stops after 3 of its 10 projections, it has drawn 3 hashes
    text, pattern = _uniform(96, 16, 16, seed=0)
    params = ladder_params(0.1, seed=100, reps=2)
    drawn = []
    real = helpers.fourwise_new

    def spy(*args):
        drawn.append(args)
        return real(*args)

    monkeypatch.setattr(helpers, "fourwise_new", spy)
    _, runs = reference_candidates(text, pattern, params)
    assert runs == len(drawn) == 3 < params.num_scales * params.reps


def test_projection_determinism_and_rep_variation():
    p = ladder_params(0.25, seed=9, reps=2)
    a = projection(p, 1, 0, 64)
    b = projection(p, 1, 0, 64)
    assert np.array_equal(a.tau_table, b.tau_table)
    assert np.array_equal(a.pi_table, b.pi_table)
    c = projection(p, 1, 1, 64)
    assert not np.array_equal(a.tau_table, c.tau_table)


def test_bucket_table_partitions_mismatch_mass():
    text, pattern = _uniform(48, 8, 8, seed=31)
    p = ladder_params(0.25, seed=7, reps=1)
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
    p = ladder_params(0.25, seed=3, reps=1)
    proj = projection(p, 1, 0, 8)
    table = compute_bucket_table(s, s, proj)
    for bc in table.buckets.values():
        assert not bc.c.any()


def test_decode_bucket_worked_examples():
    p = ladder_params(0.25, seed=17, reps=1)
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
    p = ladder_params(0.25, seed=17, reps=1)
    proj = projection(p, 0, 0, 6)
    full = np.array([10, 10, 10])  # decodes to 7, outside sigma=6
    some = np.array([0, 10, 0])
    # range check fires before the projection-consistency check
    assert decode_bucket(10, (full, some), proj, 0, 0) is None


def test_single_pair_instance_recovers_exactly():
    # text constant u, pattern constant v: every window's noise is {(u,v): m},
    # in top_pair_counts and in the reference alike
    rng = np.random.default_rng(71)
    for _ in range(20):
        u, v = rng.choice(16, size=2, replace=False)
        text = IntString(np.full(64, u), 16)
        pattern = IntString(np.full(16, v), 16)
        params = ladder_params(0.25, seed=int(rng.integers(1 << 30)), reps=4)
        noise = _top(text, pattern, params.capacity)
        assert noise.n_windows == 49
        assert same_profile(noise, construct_reference(text, pattern, params))
        for j in range(noise.n_windows):
            assert window_entries(noise, j) == {(int(u), int(v)): 16}


def test_fast_path_matches_reference():
    # the equation on uniform and planted_heavy shapes, each stopping before
    # its ceiling; none has a candidate naming an absent pair, so the
    # reference's D' is top_pair_counts as it is
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
            params = ladder_params(eps, seed=seed + 100, reps=2)
            absent, runs = _ladder_equation(text, pattern, params)
            assert runs < params.num_scales * params.reps and absent == 0
            want = _top(text, pattern, params.capacity)
            assert same_profile(construct_reference(text, pattern, params), want)
    # these cases hold both row codes and entry codes
    assert layouts == {True, False}


def test_csr_route_matches_reference_above_dense_alphabet():
    # sigma^2 > 2^16, each pair in a few windows: entry codes only
    text, pattern = _uniform(40, 5, 257, seed=5)
    assert np.all(prepare_pair_counts(text, pattern).row_ids < 0)
    params = ladder_params(0.5, seed=77, reps=2)
    _, runs = _ladder_equation(text, pattern, params)
    assert runs < params.num_scales * params.reps
    assert _top(text, pattern, params.capacity).values.size > 0


def test_csr_collision_decodes_match_reference():
    # with one projection per scale the reference reaches its ceiling before
    # every present pair has sat alone in its window's bucket: some present
    # pair keeps a collision decode above its count, none falls below, and
    # its D' then differs from top_pair_counts. The equation holds only
    # where the ladder stops before its ceiling
    for seed in (4, 28):
        text, pattern = _uniform(60, 20, 12, seed=seed)
        params = ladder_params(0.5, seed=seed, reps=1)
        dicts, runs = reference_candidates(text, pattern, params)
        assert runs == params.num_scales * params.reps
        truth = _brute_windows(text, pattern)
        over = [v - t[uv] for d, t in zip(dicts, truth) for uv, v in d.items() if uv in t]
        assert min(over) == 0 < max(over), seed
        ref = construct_reference(text, pattern, params)
        assert not same_profile(ref, _top(text, pattern, params.capacity)), seed


def _scattered_instance(seed, sigma, k, n, m):
    # text and pattern uniform over k scattered symbols of [0, sigma), k
    # drawn from the range (lo, hi) when given as a pair: bit-plane
    # majorities can then name symbols that occur nowhere
    rng = np.random.default_rng(seed)
    if isinstance(k, tuple):
        k = int(rng.integers(k[0], k[1] + 1))
    symbols = rng.choice(sigma, k, replace=False)
    return IntString(rng.choice(symbols, n), sigma), IntString(rng.choice(symbols, m), sigma)


def test_row_group_spurious_decodes_match_reference():
    # every code keeps a row, and decodes of groups of 3+ row codes name
    # pairs that occur in no window. The reference stops at projection 5 of
    # 12 with hundreds of such candidates, and the equation drops them all
    text, pattern = _scattered_instance(1, 32, 12, 800, 200)
    params = ladder_params(0.5, seed=16, reps=6)
    assert np.all(prepare_pair_counts(text, pattern).row_ids >= 0)
    absent, runs = _ladder_equation(text, pattern, params)
    assert runs == 5 and absent > 100
    ref = construct_reference(text, pattern, params)
    assert not same_profile(ref, _top(text, pattern, params.capacity))


@pytest.mark.parametrize(
    "instance, eps, seed, reps, route, layout, ran",
    [
        # (text, pattern), ladder parameters, the pair-count route and
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
    # the reference stops after the first projection by which every present
    # pair count has sat alone in its window's bucket, before the last
    # projection of the plan, and the equation holds on each pair-count
    # route and layout
    text, pattern = instance()
    taken = _route_spy(monkeypatch)
    cache = prepare_pair_counts(text, pattern)
    rowed = cache.row_ids >= 0
    assert taken == [route]
    assert layout == ("rows" if rowed.all() else "entries" if not rowed.any() else "both")
    params = ladder_params(eps, seed=seed, reps=reps)
    _, runs = _ladder_equation(text, pattern, params)
    assert runs == ran and 1 < ran < params.num_scales * params.reps


def _top_by_argsort(pairs, capacity):
    """Each window's capacity largest counts of the dense pair-count matrix,
    ties to the smaller code, by a stable argsort; (sigma^2, windows)."""
    dense = pair_count_matrix(pairs).astype(np.int64)
    top = np.argsort(-dense, axis=0, kind="stable")[:capacity]
    want = np.zeros_like(dense)
    np.put_along_axis(want, top, np.take_along_axis(dense, top, axis=0), axis=0)
    return want


def test_present_pairs_end_at_their_true_counts():
    # every D' entry is a pair present in its window, at its exact count,
    # and each window keeps its capacity largest counts: top_pair_counts
    # equals a stable argsort of the dense counts on shapes with row codes,
    # entry codes and few pairs
    shapes = [
        _uniform(2048, 128, 16, seed=3),
        generate_instance(2048, 128, 64, "planted_heavy", 1),
        helpers.few_pairs_bench_instance(2048, 256, 64, seed=2),
    ]
    capacity = approx_params(0.1, seed=0, n=2048).capacity
    for text, pattern in shapes:
        pairs = prepare_pair_counts(text, pattern)
        noise = top_pair_counts(pairs, capacity)
        noise.validate()
        got = np.zeros((text.sigma**2, pairs.n_windows), dtype=np.int64)
        got[noise.entry_codes(), noise.entry_windows()] = noise.values
        assert np.array_equal(got, _top_by_argsort(pairs, capacity))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_residual_bound_on_every_window_property(data):
    # with x the (c+1)-th largest count of a window, every dropped count is
    # at most x and they sum to at most d - c*x, so sum (d - d')^2 <= x(d -
    # c*x) <= d^2 / (4c) on every window, with no failure probability. The
    # residual is summed from the brute pair counts
    sigma = data.draw(st.integers(2, 64), label="sigma")
    n = data.draw(st.integers(1, 120), label="n")
    m = data.draw(st.integers(1, n), label="m")
    model = data.draw(st.sampled_from(["uniform", "planted_heavy"]), label="model")
    text, pattern = generate_instance(n, m, sigma, model, data.draw(st.integers(0, 1 << 30)))
    capacity = data.draw(st.sampled_from([1, 2, 3, 6, 12]), label="capacity")
    noise = _top(text, pattern, capacity)
    for j, truth in enumerate(_brute_windows(text, pattern)):
        kept = window_entries(noise, j)
        assert all(truth[uv] == val for uv, val in kept.items())
        d = sum(truth.values())
        resid = sum(cnt * cnt for uv, cnt in truth.items() if uv not in kept)
        assert 4 * capacity * resid <= d * d


@pytest.mark.parametrize(
    "instance",
    [
        lambda: _uniform(8192, 512, 16, seed=1),
        lambda: _uniform(2048, 64, 256, seed=1),
        lambda: helpers.few_pairs_bench_instance(4096, 512, 64, seed=1),
    ],
    ids=["dense16", "sparse256", "few_pairs"],
)
def test_residual_bound_on_bench_shapes(instance):
    # the benchmark's shapes at its eps 0.1 (capacity 48): sum (d - d')^2 <=
    # d^2 / (4 * capacity) on every window, far inside the residual budget
    # b * eps * d^2. dense16 and sparse256 drop counts, so the bound is
    # tested; few_pairs keeps every count of its windows
    text, pattern = instance()
    params = approx_params(0.1, seed=1, n=len(text))
    pairs = prepare_pair_counts(text, pattern)
    d, resid = _residuals(pairs, top_pair_counts(pairs, params.capacity))
    assert np.all(4 * params.capacity * resid <= d * d)
    assert (resid > 0).any() == (text.sigma != 64)


def _one_bucket_plan(us, vs):
    """A plan of one coupled projection whose only non-diagonal bucket, (1,
    1), holds the codes u * sigma + v with u in us and v in vs (us and vs
    disjoint); every other code lands in a diagonal bucket."""
    def plan(params, sigma):
        ell, r = scale_ranges(params, 0)
        yield helpers.CoupledProjection(
            ell=ell, r=r, sigma=sigma, scale_index=0, rep_index=0,
            tau_table=np.isin(np.arange(sigma), us).astype(np.int64),
            pi_table=np.isin(np.arange(sigma), vs).astype(np.int64),
        )
    return plan


def _decode_one_bucket(monkeypatch, text, pattern, us, vs):
    """The reference over _one_bucket_plan(us, vs). Returns its profile and,
    per window, the decoded code or None (c = 0 or a tied plane), from plane
    majorities of the bucket's codes, which must all keep rows. Sigma
    decides the codes' distinct plane splits, also returned."""
    monkeypatch.setattr(helpers, "projection_plan", _one_bucket_plan(us, vs))
    params = ladder_params(0.25, seed=0, reps=1)
    cache = prepare_pair_counts(text, pattern)
    sigma, nbits = text.sigma, (text.sigma - 1).bit_length()
    in_bucket = np.isin(cache.codes // sigma, us) & np.isin(cache.codes % sigma, vs)
    codes, rows = cache.codes[in_bucket], cache.rows[cache.row_ids[in_bucket]]
    assert codes.size >= 3 and np.all(cache.row_ids[in_bucket] >= 0)
    ref = construct_reference(text, pattern, params)
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
    return ref, rows, codes, decodes, len(splits)


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



def test_two_row_group_at_the_ladder_ceiling(monkeypatch):
    # codes (0, 1) and (0, 2) keep rows and share the one non-diagonal
    # bucket of a one-projection plan; the pairs of text symbol 3 land in a
    # diagonal bucket. Each window names the strictly heavier pair with
    # value d_a + d_b, above its count wherever the lighter pair occurs too,
    # and the plan ends before those counts are exact
    monkeypatch.setattr(helpers, "projection_plan", _one_bucket_plan([0], [1, 2]))
    text = IntString(_text_over([0, 3], [9, 1], 300, seed=4), 4)
    pattern = IntString(_text_over([1, 2], [1, 1], 40, seed=5), 4)
    cache = prepare_pair_counts(text, pattern)
    rows = cache.rows[cache.row_ids[np.isin(cache.codes, [1, 2])]]
    assert rows.shape[0] == 2
    params = ladder_params(0.25, seed=0, reps=1)
    _, runs = reference_candidates(text, pattern, params)
    assert runs == 1
    ref = construct_reference(text, pattern, params)
    wins, codes = ref.entry_windows(), ref.entry_codes()
    assert np.isin(codes, [1, 2]).all()
    heavier = rows.argmax(axis=0)[wins]
    assert np.array_equal(codes, heavier + 1)
    assert np.array_equal(ref.values, rows.sum(axis=0)[wins])
    # both pairs occur in every window, so every entry sits above its count
    assert rows.all() and wins.size > 100
    assert np.all(ref.values > rows.max(axis=0)[wins])
    # equal counts tie every differing plane: no entry
    assert not np.isin(np.flatnonzero(rows[0] == rows[1]), wins).any()


def test_entry_group_spurious_decodes_match_reference():
    # no code keeps a row, so a candidate naming a pair absent from its
    # window can only come from a collision decode; the equation drops it
    for seed in (7, 38):
        text, pattern = _scattered_instance(seed, 256, (24, 53), 120, 16)
        params = ladder_params(0.5, seed=seed, reps=3)
        assert np.all(prepare_pair_counts(text, pattern).row_ids < 0)
        absent, runs = _ladder_equation(text, pattern, params)
        assert runs < params.num_scales * params.reps and absent > 0, seed


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_csr_route_matches_reference_property(data):
    # small alphabets in full, or a few scattered symbols of a larger one,
    # with pair counts built in blocks of any size: where the reference stops
    # before its ceiling, the equation holds
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
    params = ladder_params(
        data.draw(st.sampled_from([0.5, 0.25])),
        seed=data.draw(st.integers(0, 1 << 30)),
        reps=data.draw(st.integers(1, 2)),
    )
    positions = data.draw(st.sampled_from(_PAIR_BLOCKS), label="pair block positions")
    with pytest.MonkeyPatch.context() as mp:
        _blocked(mp, positions)
        _, runs = _ladder_equation(text, pattern, params)
    assume(runs < params.num_scales * params.reps)


@settings(max_examples=64, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_ladder_equation_on_random_shapes_property(data):
    # uniform and planted_heavy shapes over sigma 4 to 512: where the
    # reference stops before its ceiling, its candidates less the pairs
    # absent from their windows filter to top_pair_counts
    sigma = data.draw(st.sampled_from([4, 8, 16, 32, 64, 128, 256, 512]), label="sigma")
    n = data.draw(st.integers(8, 120 if sigma <= 64 else 60), label="n")
    m = data.draw(st.integers(1, min(n, 16)), label="m")
    model = data.draw(st.sampled_from(["uniform", "planted_heavy"]), label="model")
    text, pattern = generate_instance(n, m, sigma, model, data.draw(st.integers(0, 1 << 30)))
    params = ladder_params(
        data.draw(st.sampled_from([0.5, 0.25])),
        seed=data.draw(st.integers(0, 1 << 30)),
        reps=data.draw(st.integers(2, 3)),
    )
    _, runs = _ladder_equation(text, pattern, params)
    assume(runs < params.num_scales * params.reps)


def test_ladder_equation_pins_absent_candidates():
    # a planted_heavy sigma=128 shape of the property above where the
    # reference, stopping at projection 4 of 6, keeps one candidate naming a
    # pair absent from its window
    text, pattern = generate_instance(120, 16, 128, "planted_heavy", 11)
    params = ladder_params(0.5, seed=12, reps=3)
    absent, runs = _ladder_equation(text, pattern, params)
    assert (absent, runs) == (1, 4)


def test_csr_blocks_do_not_change_the_profile(monkeypatch):
    # entry codes only: the pair counts built in blocks of one window, of a
    # few and of the default give the same D', each window's top counts
    text, pattern = _uniform(40, 5, 257, seed=5)
    capacity = 2
    want = capacity_filter_reference(
        257, 36, [
            (j, u * 257 + v, c) for j, w in enumerate(_brute_windows(text, pattern))
            for (u, v), c in w.items()
        ], capacity,
    )
    assert np.diff(want.indptr).max() == capacity
    for positions in _PAIR_BLOCKS:
        _blocked(monkeypatch, positions)
        got = _top(text, pattern, capacity)
        assert same_profile(got, want), positions


def _skewed_instance(n, m, sigma, seed, heavy=0.6):
    # text mostly 0 and pattern mostly 1: the pairs (0, 1), (0, v) and (u, 1)
    # fill most windows, the other pairs a few each
    rng = np.random.default_rng(seed)
    text = np.where(rng.random(n) < heavy, 0, rng.integers(0, sigma, n))
    pattern = np.where(rng.random(m) < heavy, 1, rng.integers(0, sigma, m))
    return IntString(text, sigma), IntString(pattern, sigma)


def test_dense_and_sparse_routes_agree():
    # row codes and entry codes ranked together: top_pair_counts keeps what a
    # literal per-window rank of the brute counts keeps, with the pair counts
    # built in blocks of any size
    for seed, sigma, heavy in ((0, 24, 0.6), (4, 40, 0.4), (9, 24, 0.6)):
        text, pattern = _skewed_instance(160, 24, sigma, seed, heavy)
        rowed = prepare_pair_counts(text, pattern).row_ids >= 0
        assert rowed.any() and not rowed.all()
        cands = [
            (j, u * sigma + v, c) for j, w in enumerate(_brute_windows(text, pattern))
            for (u, v), c in w.items()
        ]
        for capacity in (1, 6):
            want = capacity_filter_reference(sigma, 137, cands, capacity)
            for positions in _PAIR_BLOCKS:
                with pytest.MonkeyPatch.context() as mp:
                    _blocked(mp, positions)
                    got = _top(text, pattern, capacity)
                assert same_profile(got, want), (seed, capacity, positions)


def test_dense_filter_blocks_do_not_change_the_profile(monkeypatch):
    # row cells and entries ranked together, in window blocks of any size
    text, pattern = _skewed_instance(400, 48, 24, seed=1)
    pairs = prepare_pair_counts(text, pattern)
    assert (pairs.row_ids >= 0).any() and (pairs.row_ids < 0).any()
    capacity = 6
    want = top_pair_counts(pairs, capacity)
    # the capacity cut must bind somewhere, or ranking is never tested
    assert np.diff(want.indptr).max() == capacity
    for cells in (1, 100, 1 << 30):
        monkeypatch.setattr(noise_profile, "_FILTER_BLOCK_CELLS", cells)
        got = top_pair_counts(pairs, capacity)
        assert same_profile(got, want), cells


def _pairs_of(sigma, nw, rows, entries):
    """A PairCounts of the row codes rows {code: counts over the windows} and
    the entry codes entries {code: {window: count}}."""
    codes = sorted([*rows, *entries])
    row_codes = sorted(rows)
    at = [sorted(entries.get(c, {})) for c in codes]
    return PairCounts(
        sigma=sigma, n_windows=nw, codes=np.array(codes, dtype=np.int64),
        row_ids=np.array([row_codes.index(c) if c in rows else -1 for c in codes], dtype=np.int64),
        rows=np.array([rows[c] for c in row_codes], dtype=np.int32).reshape(len(rows), nw),
        offsets=np.cumsum([0] + [len(w) for w in at]).astype(np.int64),
        windows=np.array([j for w in at for j in w], dtype=np.int32),
        counts=np.array([entries[c][j] for c, w in zip(codes, at) for j in w], dtype=np.int32),
    )


@pytest.mark.parametrize("cells", [1, 1 << 18])
def test_filter_breaks_value_ties_toward_the_smaller_code(monkeypatch, cells):
    # sigma 4, capacity 2. Row code 6 = (1, 2) counts 5, 5 and 0 in windows
    # 0..2. Window 0: entries 3 and 9 tie the row cell at 5 below 12 at 7,
    # so 3 keeps the second place; window 1: the row cell beats entries 9
    # and 11 at 5, and 9 beats 11; window 2 keeps its one entry
    monkeypatch.setattr(noise_profile, "_FILTER_BLOCK_CELLS", cells)
    entries = {3: {0: 5, 2: 1}, 9: {0: 5, 1: 5}, 11: {1: 5}, 12: {0: 7}}
    got = top_pair_counts(_pairs_of(4, 3, {6: [5, 5, 0]}, entries), capacity=2)
    assert [window_entries(got, j) for j in range(3)] == [
        {(0, 3): 5, (3, 0): 7}, {(1, 2): 5, (2, 1): 5}, {(0, 3): 1},
    ]
    windows = [{(1, 2): 5}, {(1, 2): 5}, {}]
    for c, at in entries.items():
        for j, v in at.items():
            windows[j][divmod(c, 4)] = v
    assert same_profile(got, noise_profile_from_windows(windows, 4, capacity=2))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_top_pair_counts_matches_a_literal_capacity_filter_property(data):
    # drawn pair counts: row codes with a count (0 included) in every
    # window, and entry codes with positive counts in some windows. Small
    # counts make ties common, and windows hold up to 9 candidates against
    # capacities of 1 to 4. top_pair_counts must keep what a literal
    # per-window rank keeps, in filter blocks of one window and of all
    sigma = data.draw(st.sampled_from([3, 5, 16]), label="sigma")
    nw = data.draw(st.integers(1, 6), label="windows")
    capacity = data.draw(st.integers(1, 4), label="capacity")
    off = [c for c in range(sigma * sigma) if c // sigma != c % sigma]
    pool = data.draw(
        st.lists(st.sampled_from(off), unique=True, min_size=1, max_size=9), label="codes"
    )
    count = st.integers(1, 3)
    rows, entries = {}, {}
    for c in pool:
        if data.draw(st.booleans(), label=f"{c} keeps a row"):
            rows[c] = data.draw(st.lists(st.integers(0, 3), min_size=nw, max_size=nw))
        else:
            at = data.draw(st.sets(st.integers(0, nw - 1)), label=f"windows of {c}")
            entries[c] = {j: data.draw(count) for j in at}
    cands = [(j, c, v) for c, row in rows.items() for j, v in enumerate(row)]
    cands += [(j, c, v) for c, at in entries.items() for j, v in at.items()]
    want = capacity_filter_reference(sigma, nw, cands, capacity)
    for cells in (1, 1 << 30):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(noise_profile, "_FILTER_BLOCK_CELLS", cells)
            got = top_pair_counts(_pairs_of(sigma, nw, rows, entries), capacity)
        got.validate()
        assert same_profile(got, want), cells


class _CountingNumpy:
    """numpy as one module sees it, counting the calls of numpy.<name>."""

    def __init__(self, name):
        self.name, self.calls = name, 0

    def __getattr__(self, attr):
        fn = getattr(np, attr)
        if attr != self.name:
            return fn

        def counted(*args, **kwargs):
            self.calls += 1
            return fn(*args, **kwargs)

        return counted


def test_filter_block_cells_are_read_at_each_recovery(monkeypatch):
    # the skewed shape ranks its candidates in one window block at the
    # default; patched down after import, the cells split the filter into
    # several blocks (one np.multiply of the count rows each) and leave D'
    # as it was
    pairs = prepare_pair_counts(*_skewed_instance(400, 48, 24, seed=1))
    blocks = _CountingNumpy("multiply")
    monkeypatch.setattr(noise_profile, "np", blocks)
    want = top_pair_counts(pairs, 6)
    assert blocks.calls == 1
    blocks.calls = 0
    monkeypatch.setattr(noise_profile, "_FILTER_BLOCK_CELLS", 1 << 10)
    got = top_pair_counts(pairs, 6)
    assert blocks.calls > 1
    assert same_profile(got, want)


def _periodic_instance(n, m, sigma, seed):
    # a period-8 pattern against the same block with 3 symbols substituted
    rng = np.random.default_rng(seed)
    block = rng.choice(sigma, 8, replace=False)
    text_block = block.copy()
    outside = np.setdiff1d(np.arange(sigma), block)
    text_block[rng.choice(8, 3, replace=False)] = rng.choice(outside, 3, replace=False)
    return IntString(np.resize(text_block, n), sigma), IntString(np.resize(block, m), sigma)


def test_recovery_memory_grows_with_pair_entries():
    # top_pair_counts keeps about 40 bytes per pair entry while it groups
    # the entries by window, and a key block of at most 16 bytes per cell of
    # _FILTER_BLOCK_CELLS; nothing grows as sigma^2 * windows. On the
    # periodic instance 8 * sigma^2 * windows bytes is 31.5 MB
    row_heavy = _uniform(1024, 128, 16, seed=3)
    entry_heavy = _periodic_instance(1024, 64, 64, seed=3)
    for text, pattern in (row_heavy, entry_heavy):
        pairs = prepare_pair_counts(text, pattern)
        entries = pairs.counts.size + np.count_nonzero(pairs.rows)
        noise, peak = traced_peak(top_pair_counts, pairs, 12)
        assert noise.values.size
        assert peak <= 64 * entries + 16 * noise_profile._FILTER_BLOCK_CELLS
    assert (prepare_pair_counts(*row_heavy).row_ids >= 0).mean() > 0.5
    assert np.all(prepare_pair_counts(*entry_heavy).row_ids < 0)


def test_pair_count_layout_follows_window_fill():
    # a code in at least a quarter of the windows keeps a row, any other
    # code its entries; the block size changes only the build's blocks
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
        with pytest.MonkeyPatch.context() as mp:
            _blocked(mp, positions=1)
            blocked = prepare_pair_counts(text, pattern)
        for field in ("codes", "row_ids", "rows", "offsets", "windows", "counts"):
            assert np.array_equal(getattr(blocked, field), getattr(cache, field)), field
    # nearly every code in every window, and each window's few pairs
    assert np.all(prepare_pair_counts(*_uniform(2048, 256, 8, seed=3)).row_ids >= 0)
    assert np.all(prepare_pair_counts(*_periodic_instance(2048, 256, 64, seed=3)).row_ids < 0)


def test_constructed_profile_invariants():
    text, pattern = _uniform(300, 40, 16, seed=44)
    params = approx_params(0.25, seed=2, n=300, reps=3)
    noise = _top(text, pattern, params.capacity)
    noise.validate()
    sizes = np.diff(noise.indptr)
    assert sizes.max() == params.capacity == noise.capacity
    assert np.all(noise.us != noise.vs)
    assert noise.values.min() > 0
    assert noise.values.max() <= len(pattern)
    assert same_profile(noise, _top(text, pattern, params.capacity))
    # the D' approx shares between its executions is this one
    _, shared = approx_profile(text, pattern, params, return_noise=True)
    assert same_profile(shared, noise)


def test_recovered_values_never_undershoot_true_pairs():
    # the reference's running minima are bucket counts of buckets holding
    # their pair, so none falls below the pair's true count: collisions
    # only add
    text, pattern = _uniform(120, 20, 8, seed=13)
    dicts, _ = reference_candidates(text, pattern, ladder_params(0.25, seed=40, reps=3))
    for j, (cands, truth) in enumerate(zip(dicts, _brute_windows(text, pattern))):
        assert set(truth) <= set(cands), j
        for uv, val in cands.items():
            assert val >= truth.get(uv, 0)


def test_construct_validates_inputs():
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
            lambda: prepare_pair_counts(text, pattern),
            lambda: approx_profile(text, pattern, ap),
            lambda: karloff_profile(text, pattern, kp),
            lambda: hamming_profile_naive(text, pattern),
            lambda: hamming_profile_convolution(text, pattern),
        ):
            with pytest.raises(ValueError, match=message):
                call()
    empty = _top(IntString([0, 0, 0], 1), IntString([0], 1), ap.capacity)
    assert empty.n_windows == 3
    assert empty.values.size == 0


def test_inputs_without_mismatches_give_an_empty_profile():
    # text == pattern over sigma 2 and 7, a constant text against the same
    # symbol (sigma 5, many windows) and sigma 1: no window holds a mismatch
    # pair, so the general path builds an empty profile with D''s dtypes
    params = ladder_params(0.25, seed=3, reps=2)
    rng = np.random.default_rng(4)
    same2, same7 = (IntString(rng.integers(0, s, 40), s) for s in (2, 7))
    cases = [
        (same2, same2),
        (same7, same7),
        (IntString(np.full(64, 3), 5), IntString(np.full(8, 3), 5)),
        (IntString(np.zeros(5, dtype=np.int64), 1), IntString([0, 0], 1)),
    ]
    for text, pattern in cases:
        pairs = prepare_pair_counts(text, pattern)
        assert pairs.codes.size == 0
        noise = top_pair_counts(pairs, params.capacity)
        noise.validate()
        assert noise.n_windows == len(text) - len(pattern) + 1
        assert noise.values.size == noise.codes.size == 0
        dtypes = [a.dtype for a in (noise.indptr, noise.codes, noise.cols, noise.values)]
        assert dtypes == [np.int64, np.int64, np.int32, np.int64]
        assert same_profile(noise, construct_reference(text, pattern, params))


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
        def spy(*args, _real=getattr(pair_counts, name), _route=route):
            taken.append(_route)
            return _real(*args)

        monkeypatch.setattr(pair_counts, name, spy)
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
        # 20 and 1 positions build the counts in blocks of a few windows and
        # of one
        for positions in _PAIR_BLOCKS:
            taken.clear()
            _blocked(monkeypatch, positions=positions)
            pairs = prepare_pair_counts(text, pattern)
            assert _pair_dicts(pairs) == want
            assert np.array_equal(pairs.dense(), pair_count_matrix(pairs))
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
    for positions in _PAIR_BLOCKS:
        with pytest.MonkeyPatch.context() as mp:
            _blocked(mp, positions=positions)
            built = {"rule": prepare_pair_counts(text, pattern)}
            for route, rule in (("grid", True), ("sort", False)):
                mp.setattr(pair_counts, "pair_grid_pays", lambda *_, _r=rule: _r)
                built[route] = prepare_pair_counts(text, pattern)
        _assert_same_pair_counts(built["grid"], built["sort"])
        _assert_same_pair_counts(built["rule"], built["sort"])


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


def test_pair_block_positions_are_read_at_each_build(monkeypatch):
    # a grid-route and a sort-route shape each count their pairs in one
    # block of windows at the default; patched down after import, the block
    # positions split each build into several blocks and leave D' as it was
    blocks = []
    for name, route in (("_grid_pair_counts", "grid"), ("_sorted_pair_counts", "sort")):
        def spy(*args, _real=getattr(pair_counts, name), _route=route):
            blocks.append((_route, args[-1]))  # windows per block
            return _real(*args)

        monkeypatch.setattr(pair_counts, name, spy)
    for (text, pattern), route in (
        (_uniform(600, 64, 8, seed=4), "grid"), (_uniform(600, 16, 64, seed=4), "sort"),
    ):
        nw = len(text) - len(pattern) + 1
        blocks.clear()
        want = _top(text, pattern, 12)
        with pytest.MonkeyPatch.context() as mp:
            _blocked(mp, positions=1000)
            got = _top(text, pattern, 12)
        (route0, default), (route1, patched) = blocks
        assert route0 == route1 == route
        assert default >= nw and -(-nw // patched) > 1
        assert same_profile(got, want)


def test_pair_count_grid_memory_follows_budget(monkeypatch):
    # the grid route keeps an int32 (cells, windows) grid, where cells =
    # sigma_t' * sigma_p' <= m, plus its row and entry copies; the per-block
    # temporaries stay within 48 bytes per block position. Counting all 7681
    # windows in one block peaks at about 33 MB here (an int64 key per
    # position); in blocks of 2^20 / 48 positions the peak is about 1.1 MB
    # against a 2.5 MB bound.
    text, pattern = _uniform(8192, 512, 4, seed=2)
    nw = len(text) - len(pattern) + 1
    grid_bytes = 4 * 4 * 4 * nw
    budget = 1 << 20
    _blocked(monkeypatch, positions=budget // 48)
    cache, peak = traced_peak(prepare_pair_counts, text, pattern)
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
    # the diagonal pair (2, 2), code 2*4 + 2
    bad = NoiseProfile(
        sigma=4,
        capacity=3,
        indptr=np.array([0, 1]),
        codes=np.array([10]),
        cols=np.array([0], dtype=np.int32),
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
    # (1, 2) and (2, 0): the table [10, 16], columns [0, 1]
    pair = first_window({(1, 2): 3, (2, 0): 1})
    pair.validate()
    assert pair.codes.tolist() == [10, 16] and pair.cols.tolist() == [0, 1]

    def cols(*c):
        return np.array(c, dtype=np.int32)

    outside, unsorted = r"lie in \[0, sigma\^2\) = \[0, 64\)", "table codes must be sorted"
    for bad, message in (
        # table codes: (-1, 2) and 64 outside [0, 64), the diagonal pair (2, 2),
        # an unsorted table, a duplicate, and 12 = (1, 4) used by no entry
        (first_window({(-1, 2): 3}), outside),
        (dataclasses.replace(good, codes=np.array([64])), outside),
        (first_window({(2, 2): 3}), "diagonal"),
        (dataclasses.replace(pair, codes=np.array([16, 10]), cols=cols(1, 0)), unsorted),
        (dataclasses.replace(pair, codes=np.array([10, 10])), unsorted),
        (dataclasses.replace(good, codes=np.array([10, 12])), "used by an entry"),
        # columns outside the table, above and below
        (dataclasses.replace(good, cols=cols(1)), "index the 1 table codes"),
        (dataclasses.replace(good, cols=cols(-1)), "index the 1 table codes"),
        (dataclasses.replace(good, values=-good.values), "positive"),
        # columns that do not rise within a window: (2, 0) before (1, 2), and
        # (1, 2) twice
        (dataclasses.replace(pair, cols=cols(1, 0)), r"window's pairs must be sorted"),
        (dataclasses.replace(pair, codes=np.array([10]), cols=cols(0, 0)), r"\(u, v\) without dup"),
        # layouts: indptr ending past the one entry, a decreasing indptr, one
        # not starting at 0, and more columns than values
        (dataclasses.replace(good, indptr=np.array([0] + [3] * nw)), "from 0 to the 1 entries"),
        (dataclasses.replace(good, indptr=np.arange(nw + 1) % 2), "not decrease"),
        (dataclasses.replace(good, indptr=np.ones(nw + 1, dtype=np.int64)), "from 0"),
        (dataclasses.replace(good, cols=cols(0, 0)), "equal cols and values"),
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
