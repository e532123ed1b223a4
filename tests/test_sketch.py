import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hamsketch import _sketch, correlation
from hamsketch._sketch import (
    gathered_product_pays,
    median_profile,
    signed_matches,
    symbol_route_pays,
)
from hamsketch.approx import approx_params
from hamsketch.hashing import base_bits, family_new, signature_agreement, signatures
from hamsketch.karloff import karloff_params
from hamsketch.text_model import IntString, generate_instance

from helpers import (
    few_pairs_bench_instance,
    member_profile_brute,
    member_sums_brute,
    traced_peak,
)


def _occurring(s: IntString) -> np.ndarray:
    return np.unique(s.symbols)


ROUTES = {
    # name: (symbol route, gathered spectra as a product)
    "symbols, product": (True, True),
    "symbols, transforms": (True, False),
    "Y groups": (False, False),
}


def _all_routes(text, pattern, families):
    """The public call, and every route forced by its rules at full size and
    with one-row chunks: one symbol row or Y group per FFT chunk, so every
    (chunk, family) pair is visited. The symbol route runs with both
    gatherings of its weights spectra."""
    out = {"public": signed_matches(text, pattern, families)}
    for route, (symbols, product) in ROUTES.items():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_sketch, "symbol_route_pays", lambda *_, v=symbols: v)
            mp.setattr(_sketch, "gathered_product_pays", lambda *_, v=product: v)
            out[route] = signed_matches(text, pattern, families)
            mp.setattr(correlation, "_FFT_CHUNK_BYTES", 1)
            out[f"{route}, one-row chunks"] = signed_matches(text, pattern, families)
    return out


def _brute(text, pattern, families):
    """(families, windows) signed matches C from the member sums, member by
    member, through sum_i HAM_i = k/2 * (m - C)."""
    m, half = len(pattern), families[0].k // 2
    sums = np.stack([
        sum(member_profile_brute(text, pattern, fam, i) for i in range(fam.k))
        for fam in families
    ])
    assert not (sums % half).any()
    return m - sums // half


def _check(got, want, m, route="public"):
    """got is int64, within m in absolute value, and equal to want."""
    assert got.dtype == np.int64 and got.shape == want.shape, route
    assert np.abs(got).max(initial=0) <= m, route
    assert np.array_equal(got, want), route


def _families(k, seed, count=3):
    return [family_new(k, seed=seed + 1000 * e) for e in range(count)]


EDGE_SHAPES = {
    # name: (text symbols, pattern symbols, sigma)
    "mixed": (np.random.default_rng(83).integers(0, 6, size=40), [0, 5, 5, 2, 1, 3, 3, 0, 4], 6),
    "m_is_1": ([3, 1, 4, 1, 5, 2, 6, 5, 3, 5], [4], 7),
    "m_is_n": ([0, 1, 2, 3, 4, 0, 1], [4, 4, 0, 2, 1, 3, 3], 5),
    "sigma_1": ([0] * 12, [0] * 5, 1),
    "text_only_symbols": ([0, 1, 2, 3, 4, 5, 0, 1, 2, 3], [0, 1, 0], 6),
    "pattern_only_symbols": ([0, 1, 0, 0, 1, 1, 0, 1], [2, 3, 4, 0], 5),
    "disjoint_sides": ([0, 1, 1, 0, 1, 0, 0], [2, 3, 2], 4),
}


@pytest.mark.parametrize("name", sorted(EDGE_SHAPES))
@pytest.mark.parametrize("k", [2, 8, 32])
def test_member_sum_routes_match_brute_on_edge_shapes(name, k):
    t, p, sigma = EDGE_SHAPES[name]
    text, pattern = IntString(np.asarray(t), sigma), IntString(np.asarray(p), sigma)
    families = _families(k, seed=4 + k)
    want = _brute(text, pattern, families)
    for route, got in _all_routes(text, pattern, families).items():
        _check(got, want, m=len(pattern), route=route)


def test_edge_shapes_cover_both_contraction_orders():
    # the symbol route puts the smaller side's indicators against the other
    # side's weights; the edge shapes must exercise both orientations
    sizes = [
        (np.unique(t).size, np.unique(p).size) for t, p, _ in EDGE_SHAPES.values()
    ]
    assert any(a > b for a, b in sizes)
    assert any(a < b for a, b in sizes)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_member_sum_routes_match_brute_property(data):
    sigma = data.draw(st.integers(1, 7), label="sigma")
    n = data.draw(st.integers(1, 30), label="n")
    m = data.draw(st.one_of(st.just(1), st.just(n), st.integers(1, n)), label="m")
    symbols = st.integers(0, sigma - 1)
    text = IntString(data.draw(st.lists(symbols, min_size=n, max_size=n)), sigma)
    pattern = IntString(data.draw(st.lists(symbols, min_size=m, max_size=m)), sigma)
    k = data.draw(st.sampled_from([2, 4, 8, 16]), label="k")
    count = data.draw(st.integers(1, 4), label="families")
    families = _families(k, data.draw(st.integers(0, 1 << 30), label="seed"), count)
    want = _brute(text, pattern, families)
    for route, got in _all_routes(text, pattern, families).items():
        _check(got, want, m, route)


# whether each benchmark shape gathers its weights spectra by the product:
# the gathered side's symbols against 2 * log2(nfft)
GATHERED_PRODUCT = {
    "dense16": True,  # 16 <= 26.2
    "few_pairs": True,  # 8 <= 24.3
    "sparse256": False,  # 256 > 22.2
}


@pytest.mark.parametrize(
    "shape, symbol_route",
    [
        ("dense16", True),  # n=8192, m=512, sigma=16
        ("few_pairs", True),  # n=4096, m=512, sigma=64, 8 symbols a side
        ("sparse256", True),  # n=2048, m=64, sigma=256, ~57 pattern symbols
    ],
)
def test_route_rule_on_benchmark_shapes(shape, symbol_route):
    if shape == "few_pairs":
        text, pattern = few_pairs_bench_instance(4096, 512, 64, seed=1)
    else:
        n, m, sigma = {"dense16": (8192, 512, 16), "sparse256": (2048, 64, 256)}[shape]
        text, pattern = generate_instance(n, m, sigma, "uniform", 1)
    sa, sb = _occurring(text).size, _occurring(pattern).size
    for k in (karloff_params(0.1, 1, len(text)).k, approx_params(0.1, 1, len(text)).k):
        assert symbol_route_pays(sa, sb, k) == symbol_route, (shape, k, sa, sb)
    # the smaller side's symbols are the rows, so the larger side is gathered
    product = gathered_product_pays(max(sa, sb), len(text), len(pattern))
    assert product == GATHERED_PRODUCT[shape], (shape, sa, sb)


def test_route_rule_limits():
    # symbol route iff the smaller side has at most k occurring symbols
    k = 64
    assert symbol_route_pays(k, 10**6, k) and symbol_route_pays(10**6, k, k)
    assert not symbol_route_pays(k + 1, k + 1, k)


@pytest.mark.parametrize("n, m", [(8192, 512), (4096, 512), (2048, 64), (40, 9)])
def test_gathered_product_rule_limits(n, m, monkeypatch):
    # product iff the gathered side has at most 2*log2(nfft) symbols and its
    # indicator spectra fit in one FFT chunk
    nfft = correlation.fft_plan(n, m)[0]
    limit = math.floor(2 * math.log2(nfft))
    assert gathered_product_pays(limit, n, m)
    assert not gathered_product_pays(limit + 1, n, m)
    monkeypatch.setattr(correlation, "_FFT_CHUNK_BYTES", 3 * nfft * 16 * 3)
    assert correlation.fft_plan(n, m)[1] == 3 < limit
    assert gathered_product_pays(3, n, m)
    assert not gathered_product_pays(4, n, m)


@pytest.mark.parametrize("product", [True, False])
def test_symbol_route_transform_counts(product, monkeypatch):
    # s smaller-side indicators, then either the other side's L indicators
    # once (the product) or s gathered rows per family (the transforms)
    rng = np.random.default_rng(5)
    text, pattern = IntString(rng.integers(0, 6, 300), 9), IntString(rng.integers(3, 9, 40), 9)
    s = other = 6
    assert (_occurring(text).size, _occurring(pattern).size) == (s, other)
    families = _families(16, seed=9, count=4)
    rows = []
    real = _sketch.row_spectra

    def counting(a, *args, **kw):
        rows.append(np.shape(a)[0])
        return real(a, *args, **kw)

    monkeypatch.setattr(_sketch, "row_spectra", counting)
    monkeypatch.setattr(_sketch, "gathered_product_pays", lambda *_: product)
    got = signed_matches(text, pattern, families)
    assert sum(rows) == (s + other if product else s + len(families) * s)
    _check(got, _brute(text, pattern, families), len(pattern))


@pytest.mark.parametrize("text_side_smaller", [True, False])
@pytest.mark.parametrize("extra", [0, 1])
def test_member_sums_match_brute_at_the_route_boundary(text_side_smaller, extra):
    # s = k occurring symbols on the smaller side takes the symbol route,
    # s = k + 1 the Y groups; both must give the brute sum
    k, sigma = 8, 16
    rng = np.random.default_rng(17 + extra)

    def spread(count, length):
        # a random string holding each of the symbols 0..count-1
        return IntString(rng.permutation(np.resize(np.arange(count), length)), sigma)

    if text_side_smaller:
        text, pattern = spread(k + extra, 48), spread(sigma, 20)
    else:
        text, pattern = spread(sigma, 48), spread(k + extra, 20)
    sa, sb = _occurring(text).size, _occurring(pattern).size
    assert min(sa, sb) == k + extra and (sa < sb) == text_side_smaller
    assert symbol_route_pays(sa, sb, k) == (extra == 0)
    families = _families(k, seed=31)
    _check(signed_matches(text, pattern, families), _brute(text, pattern, families), 20)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_y_group_route_matches_brute_property(data):
    # k = 2 or 4, so Y has one or two bits and distinct symbols often share
    # it; more than k symbols on each side, so the public call takes the Y
    # groups, some symbols on one side only, and aligned pairs of both signs
    k = data.draw(st.sampled_from([2, 4]), label="k")
    rng = np.random.default_rng(data.draw(st.integers(0, 1 << 30), label="seed"))
    sa, sb = data.draw(st.integers(k + 1, 9), label="sa"), data.draw(st.integers(k + 1, 9), label="sb")
    shift = data.draw(st.integers(0, 4), label="shift")
    n = data.draw(st.integers(max(sa, sb), 40), label="n")
    m = data.draw(st.integers(sb, n), label="m")
    # a random string holding each of its symbols
    text = IntString(rng.permutation(np.resize(np.arange(sa), n)), 16)
    pattern = IntString(rng.permutation(np.resize(np.arange(shift, shift + sb), m)), 16)
    assert not symbol_route_pays(_occurring(text).size, _occurring(pattern).size, k)
    families = _families(k, int(rng.integers(1 << 30)), data.draw(st.integers(1, 3), label="families"))
    sig = signatures(base_bits(families[:1], np.arange(16)))
    agree = signature_agreement(sig[_occurring(text), None], sig[_occurring(pattern)])
    assume({-1, 1} <= set(agree.ravel().tolist()))
    want = _brute(text, pattern, families)
    _check(signed_matches(text, pattern, families), want, m)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(correlation, "_FFT_CHUNK_BYTES", 1)
        _check(signed_matches(text, pattern, families), want, m, "one-row chunks")


@pytest.mark.parametrize("k, text_sigma", [(8, 64), (64, 12)])
def test_y_group_route_transforms_at_most_two_rows_per_shared_y(k, text_sigma, monkeypatch):
    # one text and one pattern row per Y value present in both strings: at
    # most 2 * min(sigma_t', sigma_p', k) rows per family. At k = 8 the
    # family's 8 Y values bind; at k = 64 (the route forced) the 12 text
    # symbols do, half of them absent from the pattern
    rng = np.random.default_rng(11)
    text = IntString(rng.permutation(np.resize(np.arange(text_sigma), 300)), 64)
    pattern = IntString(rng.permutation(np.resize(np.arange(6, 64), 100)), 64)
    sa, sb = _occurring(text).size, _occurring(pattern).size
    families = _families(k, seed=13, count=3)
    rows = []
    real = _sketch.row_spectra

    def counting(a, *args, **kw):
        rows.append(np.shape(a)[0])
        return real(a, *args, **kw)

    monkeypatch.setattr(_sketch, "row_spectra", counting)
    monkeypatch.setattr(_sketch, "symbol_route_pays", lambda *_: False)
    got = signed_matches(text, pattern, families)
    sig = signatures(base_bits(families, np.arange(64)).reshape(len(families), -1, 64))
    shared = [
        np.intersect1d(s[_occurring(text)] >> 1, s[_occurring(pattern)] >> 1).size for s in sig
    ]
    assert sum(rows) == 2 * sum(shared) <= 2 * len(families) * min(sa, sb, k)
    want = np.stack([member_sums_brute(text, pattern, fam) for fam in families])
    assert np.array_equal(k // 2 * (len(pattern) - got), want)


def test_member_hamming_sum_dispatches_by_rule(monkeypatch):
    calls = []

    def spy(name):
        real = getattr(_sketch, name)

        def wrapped(*args):
            calls.append(name)
            return real(*args)

        return wrapped

    monkeypatch.setattr(_sketch, "_symbol_pair_spectra", spy("_symbol_pair_spectra"))
    monkeypatch.setattr(_sketch, "_y_group_spectra", spy("_y_group_spectra"))
    rng = np.random.default_rng(3)
    small = IntString(rng.integers(0, 4, size=200), 4)
    large = IntString(rng.integers(0, 400, size=800), 400)
    families = _families(16, seed=2)
    signed_matches(small, IntString(small.symbols[:20], 4), families)
    signed_matches(large, IntString(large.symbols[:100], 400), families)
    assert calls == ["_symbol_pair_spectra", "_y_group_spectra"]


def _y_group_peak(sigma):
    # n=2048, m=512, k=256: every side holds more than k symbols
    text, pattern = generate_instance(2048, 512, sigma, "uniform", seed=7)
    assert min(_occurring(text).size, _occurring(pattern).size) > 256
    return traced_peak(signed_matches, text, pattern, [family_new(256, seed=3)])[1]


def test_y_group_memory_does_not_grow_with_the_alphabet():
    # signatures are taken over the occurring symbols only, and the rows
    # over the Y values present: at fixed n and m the peak stays put from
    # sigma = 2^10 to 2^17 (a member table over the whole alphabet peaked at
    # 5 and 438 MB)
    small, large = _y_group_peak(1 << 10), _y_group_peak(1 << 17)
    assert large <= 1.25 * small, (small, large)


@pytest.mark.parametrize("rows", [1, 2, 3, 26])
def test_median_profile_is_numpys_median(rows):
    # one sort and the middle row(s) give np.median's values to the bit, for
    # odd and even row counts, with ties, signed zeros and list input
    rng = np.random.default_rng(rows)
    draws = (
        lambda: rng.exponential(size=(rows, 50)),
        lambda: rng.integers(0, 4, size=(rows, 50)).astype(np.float64),
        lambda: rng.choice([-0.0, 0.0, 1.5], size=(rows, 50)),
    )
    for trial in range(30):
        runs = draws[trial % 3]()
        want = np.median(runs, axis=0).tobytes()
        assert median_profile(runs).values.tobytes() == want, (rows, trial)
        assert median_profile(list(runs)).values.tobytes() == want, (rows, trial)
