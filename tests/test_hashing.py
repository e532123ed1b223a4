import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamsketch import hashing
from hamsketch._seeds import (
    MASK64,
    ROLE_BASE_HASH,
    mix,
    mix_array,
    splitmix64,
    splitmix64_array,
    u64_stream,
)
from hamsketch.gf64 import gf64_mul_point, poly3_eval
from hamsketch.hashing import (
    FourWiseHash,
    base_bits,
    beta,
    families_new,
    family_new,
    fourwise_coeffs,
    fourwise_new,
    member_eval,
    signature_agreement,
    signatures,
)
from helpers import (
    beta_brute,
    beta_pairs,
    beta_tree,
    family2_member_bits_seeds,
    fourwise_eval_seeds,
)


def test_splitmix_vectorized_matches_scalar():
    xs = np.array([0, 1, 2, 123456789, 2**63], dtype=np.uint64)
    vec = splitmix64_array(xs)
    for x, out in zip(xs, vec):
        assert splitmix64(int(x)) == int(out)


def test_u64_stream_is_prefix_stable():
    assert u64_stream(42, 3) == u64_stream(42, 5)[:3]
    assert u64_stream(42, 3) != u64_stream(43, 3)


def test_mix_distinguishes_roles_and_order():
    assert mix(7, 1, 2) != mix(7, 2, 1)
    assert mix(7, 1) != mix(8, 1)


def test_mix_array_broadcasts_seeds_and_tags():
    # integer and array tags broadcast against the seeds, one splitmix64
    # step per tag, as mix() does for each element
    seeds = np.array([0, 5, MASK64, 1 << 63], dtype=np.uint64)
    tags = np.arange(3)
    got = mix_array(seeds[:, None], 9, tags, np.array([4, 0, 7]))
    assert got.shape == (4, 3) and got.dtype == np.uint64
    for i, s in enumerate(seeds.tolist()):
        for j, (t, u) in enumerate(zip(tags.tolist(), (4, 0, 7))):
            assert int(got[i, j]) == mix(s, 9, t, u)
    assert int(mix_array(-3, 2, 1)) == mix(-3, 2, 1)
    assert mix_array(seeds).tolist() == seeds.tolist()


def test_gf64_mul_identity_and_zero():
    a = np.uint64(0x0123456789ABCDEF)
    assert int(gf64_mul_point(a, 1)) == int(a)
    assert int(gf64_mul_point(a, 0)) == 0


def test_gf64_mul_distributes_over_xor():
    rng = [0x9E3779B97F4A7C15, 0xDEADBEEFCAFEF00D, 0x0123456789ABCDEF]
    for a in rng:
        a = np.uint64(a)
        for x in [3, 5, 0x7FFFF, 0xFFFFF]:
            for y in [1, 2, 0x12345]:
                lhs = int(gf64_mul_point(a, x ^ y))
                # x ^ y is not x + y in the field unless the bits are disjoint
                if x & y:
                    continue
                rhs = int(gf64_mul_point(a, x)) ^ int(gf64_mul_point(a, y))
                assert lhs == rhs


def test_poly3_eval_horner_matches_direct():
    c3, c2, c1, c0 = (np.uint64(v) for v in u64_stream(99, 4))
    for x in [0, 1, 2, 1000, 0xFFFFF]:
        direct = int(
            gf64_mul_point(gf64_mul_point(gf64_mul_point(c3, x), x), x)
        ) ^ int(gf64_mul_point(gf64_mul_point(c2, x), x)) ^ int(
            gf64_mul_point(c1, x)
        ) ^ int(c0)
        assert poly3_eval(c3, c2, c1, c0, x) == direct


def test_fourwise_deterministic_and_in_range():
    h1 = fourwise_new(8, seed=5)
    h2 = fourwise_new(8, seed=5)
    for u in range(256):
        a = h1.eval(u)
        assert a == h2.eval(u)
        assert 0 <= a < 256
    assert fourwise_new(8, seed=6).eval(3) != h1.eval(3) or True  # seeds differ, spot only


def test_vectorised_draws_match_the_scalar_chain():
    # fourwise_coeffs steps every seed's splitmix64 chain at once, and
    # families_new draws every base hash of every family that way; both must
    # give the scalar u64_stream values, edge seeds included
    rng = np.random.default_rng(17)
    seeds = [0, 1, MASK64, 1 << 63] + rng.integers(0, 1 << 64, 300, dtype=np.uint64).tolist()
    coeffs = fourwise_coeffs(np.array(seeds, dtype=np.uint64))
    assert coeffs.shape == (len(seeds), 4) and coeffs.dtype == np.uint64
    for seed, row in zip(seeds, coeffs.tolist()):
        assert row == u64_stream(seed, 4)
    assert fourwise_coeffs(np.zeros(0, dtype=np.uint64)).shape == (0, 4)
    for k in (2, 16, 256):
        fam_seeds = [-1, *seeds[:40]]
        fams = families_new(k, fam_seeds)
        for seed, fam in zip(fam_seeds, fams):
            assert (fam.k, fam.seed) == (k, seed)
            n_base = 2 * (k.bit_length() - 1)
            want = (fourwise_new(1, mix(seed, ROLE_BASE_HASH, j)) for j in range(n_base))
            assert fam.base == tuple(want)
            assert family_new(k, seed) == fam
    assert families_new(8, []) == []


def test_fourwise_eval_array_matches_scalar():
    h = fourwise_new(5, seed=77)
    us = np.arange(1000)
    arr = h.eval_array(us)
    for u in range(0, 1000, 97):
        assert int(arr[u]) == h.eval(u)


def test_fourwise_table_matches_eval():
    h = fourwise_new(3, seed=13)
    table = h.table(64)
    assert table.shape == (64,)
    for u in range(64):
        assert int(table[u]) == h.eval(u)


def test_fourwise_rejects_bad_parameters():
    with pytest.raises(ValueError):
        fourwise_new(0, seed=1)
    with pytest.raises(ValueError):
        fourwise_new(21, seed=1)
    h = fourwise_new(4, seed=1)
    with pytest.raises(ValueError):
        h.eval(1 << 20)


def test_fourwise_single_bit_mean_over_seeds():
    # out_bits=1: mean of h(5) over many seeded functions is ~1/2
    bits = fourwise_eval_seeds(1, np.arange(20000), 5)
    for s in (0, 1, 777, 19999):
        assert bits[s] == fourwise_new(1, seed=s).eval(5)
    assert abs(bits.mean() - 0.5) < 0.02


def test_family_sizes_and_errors():
    assert len(family_new(2, seed=1).base) == 2
    assert len(family_new(1024, seed=1).base) == 20
    # the largest family: beta = k still fits in int64
    top = family_new(1 << 62, seed=1)
    assert len(top.base) == 124 and beta(top, 3, 3) == 1 << 62
    for bad in (0, 1, 3, 12, 100, 1 << 63, 1 << 64, 1 << 70):
        with pytest.raises(ValueError):
            family_new(bad, seed=1)


def test_member_eval_is_xor_of_selected_base():
    fam = family_new(64, seed=31)
    pairs = len(fam.base) // 2
    for u in [0, 9, 17, 255]:
        for i in range(64):
            expect = 0
            for b in range(pairs):
                expect ^= fam.base[2 * b + ((i >> b) & 1)].eval(u)
            assert member_eval(fam, i, u) == expect


def test_member_eval_index_error():
    fam = family_new(8, seed=2)
    with pytest.raises(IndexError):
        member_eval(fam, 8, 0)


def test_base_bits_shape_and_values():
    fam = family_new(16, seed=4)
    syms = np.arange(30)
    bits = base_bits([fam], syms)
    assert bits.shape == (len(fam.base), 30)
    for t, base in enumerate(fam.base):
        for u in range(0, 30, 13):
            assert int(bits[t, u]) == base.eval(u)


def test_stacked_base_bits_equal_per_family_bits(monkeypatch):
    # several families in one evaluation, stacked family by family; a block
    # limit of two rows forces many blocks, some splitting a family
    fams = [family_new(k, seed=60 + k) for k in (2, 8, 16, 8)]
    syms = np.array([0, 5, 9, 300, 4095, 7])
    want = np.vstack([base_bits([f], syms) for f in fams])
    scalar = np.array([[b.eval(int(u)) for u in syms] for f in fams for b in f.base])
    assert np.array_equal(want, scalar)
    for cells in (2 * syms.size, 1, 1 << 20):
        monkeypatch.setattr(hashing, "_EVAL_CELLS", cells)
        assert np.array_equal(base_bits(fams, syms), want)
    assert base_bits(fams, []).shape == (want.shape[0], 0)


def test_beta_from_bits_matches_beta_per_family():
    fams = [family_new(32, seed=s) for s in (3, 4, 5)]
    us = np.array([0, 3, 7, 7, 12, 900])
    vs = np.array([3, 1, 12, 7, 0, 901])
    want = np.array([[beta_brute(f, int(u), int(v)) for u, v in zip(us, vs)] for f in fams])
    assert np.array_equal(beta_pairs(fams, us, vs), want)
    assert beta_pairs(fams, [], []).shape == (3, 0)


def test_beta_diagonal_is_k():
    for k in (2, 8, 64):
        fam = family_new(k, seed=77)
        for u in (0, 5, 19):
            assert beta(fam, u, u) == k


def test_beta_brute_oracle_matches_member_eval_counting():
    # ties the vectorized oracle fold to the plain scalar member walk
    for k in (2, 8, 16):
        fam = family_new(k, seed=5)
        for u, v in [(0, 1), (3, 9), (7, 7)]:
            direct = sum(
                member_eval(fam, i, u) == member_eval(fam, i, v) for i in range(k)
            )
            assert beta_brute(fam, u, v) == direct


def test_beta_matches_brute_enumeration():
    # seeded loop over k and symbol pairs
    for k in (2, 8, 64):
        for seed in range(6):
            fam = family_new(k, seed=1000 + seed)
            for u, v in [(0, 1), (2, 7), (3, 3), (100, 200), (5, 4)]:
                assert beta(fam, u, v) == beta_brute(fam, u, v)


def test_beta_symmetric_and_bounded():
    fam = family_new(128, seed=9)
    for u, v in [(0, 1), (10, 99), (7, 8)]:
        b = beta(fam, u, v)
        assert 0 <= b <= 128
        assert b == beta(fam, v, u)


def test_beta_from_bits_matches_beta():
    fam = family_new(64, seed=23)
    us = np.array([0, 1, 5, 9, 33])
    vs = np.array([1, 0, 6, 9, 44])
    out = beta_pairs([fam], us, vs)[0]
    for i in range(len(us)):
        assert int(out[i]) == beta(fam, int(us[i]), int(vs[i]))


def test_beta_grid_matches_brute_on_every_pair():
    # every family's signatures from one base-bit evaluation, and each
    # family's agreement over every (u, v) pair from one broadcast compare,
    # as the symbol-pair matches take their weights: beta = k/2 * (1 + A)
    families = [family_new(32, seed=41 + e) for e in range(3)]
    us, vs = [0, 3, 7, 7, 12], [3, 1, 12]
    sig_u = signatures(base_bits(families, us).reshape(3, -1, len(us)))
    sig_v = signatures(base_bits(families, vs).reshape(3, -1, len(vs)))
    assert sig_u.shape == (3, len(us)) and sig_u.dtype == np.int64
    for fam, su, sv in zip(families, sig_u, sig_v):
        want = np.array([[beta_brute(fam, u, v) for v in vs] for u in us])
        got = signature_agreement(su[:, None], sv)
        assert got.dtype == np.int64
        assert np.array_equal(16 * (1 + got), want)
        assert signature_agreement(su[:0, None], sv).shape == (0, 3)


def test_beta_statistics_spread():
    # for u != v, beta/k concentrates near 1/2 across seeds
    k = 256
    vals = [beta(family_new(k, seed=s), 3, 11) / k for s in range(400)]
    near = sum(abs(x - 0.5) <= 0.1 for x in vals)
    assert near / len(vals) >= 0.98
    assert abs(float(np.mean(vals)) - 0.5) < 0.05


@pytest.mark.parametrize("k", [16, 128])
def test_beta_takes_three_values_and_degenerates_at_rate_one_over_k(k):
    # for u != v, on each base pair the two functions either differ in
    # whether they separate u and v (then half the members do: beta = k/2)
    # or agree, with probability 1/2; only when all log2 k pairs agree, with
    # probability 1/k, is beta 0 or k. Disjoint symbol pairs under 4-wise
    # independent bases make these events pairwise independent, so their
    # count over families x pairs has the binomial variance
    fams, pairs = 20, 2000
    rng = np.random.default_rng(7)
    syms = rng.choice(hashing.DOMAIN_CAP, size=2 * pairs, replace=False)
    families = families_new(k, range(100 * k, 100 * k + fams))
    betas = beta_pairs(families, syms[:pairs], syms[pairs:])
    assert np.isin(betas, [0, k // 2, k]).all()
    trials, p = betas.size, 1 / k
    degenerate = int(np.count_nonzero(betas != k // 2))
    assert abs(degenerate - trials * p) <= 5 * np.sqrt(trials * p * (1 - p)), degenerate


def test_pairwise_member_independence_empirical():
    # joint outcomes of (h_0(u) xor h_0(v), h_1(u) xor h_1(v)) roughly uniform
    trials = 20000
    seeds = np.arange(50000, 50000 + trials)
    m0_u, m1_u = family2_member_bits_seeds(seeds, 3)
    m0_v, m1_v = family2_member_bits_seeds(seeds, 12)
    a = m0_u ^ m0_v
    b = m1_u ^ m1_v
    for s in (0, 5, trials - 1):
        fam = family_new(2, seed=50000 + s)
        assert a[s] == member_eval(fam, 0, 3) ^ member_eval(fam, 0, 12)
        assert b[s] == member_eval(fam, 1, 3) ^ member_eval(fam, 1, 12)
    counts = np.bincount(2 * a + b, minlength=4)
    assert np.all(np.abs(counts / trials - 0.25) < 0.02)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_beta_from_bits_matches_member_enumeration_property(data):
    # alphabets of 1, 2 and 3 symbols, and sizes that are not powers of two;
    # u == v is allowed and must give beta = k
    sigma = data.draw(
        st.one_of(
            st.sampled_from([1, 2, 3]),
            st.integers(5, 1 << 20).filter(lambda s: s & (s - 1) != 0),
        ),
        label="sigma",
    )
    k = data.draw(st.sampled_from([2, 4, 8, 16]), label="k")
    fam = family_new(k, seed=data.draw(st.integers(0, 1 << 62), label="seed"))
    size = data.draw(st.integers(1, 5), label="pairs")
    symbols = st.lists(st.integers(0, sigma - 1), min_size=size, max_size=size)
    us, vs = data.draw(symbols, label="us"), data.draw(symbols, label="vs")
    bits = {s: [member_eval(fam, i, s) for i in range(k)] for s in set(us) | set(vs)}
    want = [sum(a == b for a, b in zip(bits[u], bits[v])) for u, v in zip(us, vs)]
    assert beta_pairs([fam], us, vs)[0].tolist() == want


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_signature_agreement_matches_tree_recurrence_property(data):
    # random base bits for 1 to 62 pairs (k up to 2^62, beyond enumeration):
    # the signature rule against the balanced tree fold over agreements.
    # Symbols that share Y, or differ only in P, are planted so that A = 1
    # and A = -1 occur, not only 0
    pairs = data.draw(st.integers(1, 62), label="pairs")
    syms = data.draw(st.integers(1, 6), label="symbols")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(2 * pairs, syms), dtype=np.uint8)
    for a in range(1, syms):
        plant = data.draw(st.sampled_from(["none", "same", "flip both"]), label="plant")
        if plant != "none":
            bits[:, a] = bits[:, a - 1]
        if plant == "flip both":
            # both functions of one pair flip: Y is kept and P flips
            b = data.draw(st.integers(0, pairs - 1), label="pair")
            bits[2 * b : 2 * b + 2, a] ^= 1
    at_u, at_v = np.repeat(np.arange(syms), syms), np.tile(np.arange(syms), syms)
    sig = signatures(bits)
    got = signature_agreement(sig[at_u], sig[at_v])
    want = beta_tree(bits[:, at_u] == bits[:, at_v])
    assert got.dtype == np.int64
    assert set(got.tolist()) <= {-1, 0, 1}
    # beta = k/2 * (1 + A), in exact integers up to k = 2^62
    assert [(1 << (pairs - 1)) * (1 + a) for a in got.tolist()] == want.tolist()
