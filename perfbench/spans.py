"""Span tracing for the benchmark's traced run.

The tracer replaces, for the duration of a `with installed(tracer):` block,
the public functions that approx, karloff, _sketch, exact and correlation
look up in their own module namespaces. Each replacement records a span
(name, route, parent, start, end) around the original call, plus a few
integers read from its arguments and result. Everything heavier (noise
residuals, per-execution accuracy) is computed from kept references after
the route returns, so it lands in no span. The untraced run installs nothing.

A layer's `*_s` metric is its self time: span duration minus the time its
child spans cover, summed over one call of each route.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import fft as sfft

import hamsketch as hs
from hamsketch import _sketch, approx, correlation, exact, karloff

# root spans the benchmark opens around its own calls into the library
ROUTE_APPROX = "approx.approx_profile"
ROUTE_KARLOFF = "karloff.karloff_profile"
ROUTE_EXACT = "exact.hamming_profile_convolution"
ROUTE_NAIVE = "exact.hamming_profile_naive"
ROUTE_INSTANCE = "text_model.generate_instance"

# (module, name it looks up, layer the span is reported under)
HOOKS = (
    (approx, "prepare_pair_counts", "sparse_recovery.prepare_pair_counts"),
    (approx, "construct_sparse_noise", "sparse_recovery.construct_sparse_noise"),
    (approx, "approx_profile_single", "approx.approx_profile_single"),
    (approx, "correction_numerators", "approx.correction_numerators"),
    (approx, "member_hamming_sum", "sketch.member_hamming_sum"),
    (approx, "family_new", "hashing.family_new"),
    (approx, "beta_many", "hashing.beta_many"),
    (karloff, "karloff_profile_single", "karloff.karloff_profile_single"),
    (karloff, "member_hamming_sum", "sketch.member_hamming_sum"),
    (karloff, "family_new", "hashing.family_new"),
    (_sketch, "member_table", "hashing.member_table"),
    (_sketch, "correlate_rows", "correlation.correlate_rows"),
    (_sketch, "count_aligned_ones", "correlation.count_aligned_ones"),
    (exact, "correlate_rows", "correlation.correlate_rows"),
    (exact, "count_aligned_ones", "correlation.count_aligned_ones"),
    (correlation, "correlate_rows", "correlation.correlate_rows"),
)

# per_layer metric -> unit; the traced run reports exactly these
UNITS = {
    "sparse_recovery.prepare_pair_counts_s": "s",
    "sparse_recovery.construct_sparse_noise_s": "s",
    "sparse_recovery.construct_sparse_noise_calls": "count",
    "sparse_recovery.dense_route": "flag",
    "sparse_recovery.pair_entries": "count",
    "sparse_recovery.projections": "count",
    "sparse_recovery.noise_entries": "count",
    "sparse_recovery.windows_at_capacity": "count",
    "sparse_recovery.recovered_mass_frac": "frac",
    "sparse_recovery.residual_ok_frac": "frac",
    "sketch.member_hamming_sum_s": "s",
    "sketch.member_hamming_sum_calls": "count",
    "sketch.members": "count",
    "correlation.correlate_rows_s": "s",
    "correlation.correlate_rows_calls": "count",
    "correlation.fft_points": "count",
    "correlation.count_aligned_ones_s": "s",
    "correlation.count_aligned_ones_calls": "count",
    "hashing.family_new_s": "s",
    "hashing.member_table_s": "s",
    "hashing.beta_many_s": "s",
    "hashing.beta_many_pairs": "count",
    "approx.approx_profile_single_s": "s",
    "approx.correction_numerators_s": "s",
    "approx.self_s": "s",
    "approx.single_exec_within_eps_min": "frac",
    "karloff.karloff_profile_single_s": "s",
    "karloff.self_s": "s",
    "exact.convolution_s": "s",
    "exact.naive_s": "s",
    "text_model.generate_instance_s": "s",
    "share.construct_sparse_noise_of_approx": "frac",
    "share.member_hamming_sum_of_karloff": "frac",
    "trace.overhead_frac_exact": "frac",
    "trace.overhead_frac_karloff": "frac",
    "trace.overhead_frac_approx": "frac",
    "yardstick.approx_over_exact": "ratio",
}

# metric names of the root spans' self times
_ROOT_METRIC = {
    ROUTE_APPROX: "approx.self_s",
    ROUTE_KARLOFF: "karloff.self_s",
    ROUTE_EXACT: "exact.convolution_s",
    ROUTE_NAIVE: "exact.naive_s",
    ROUTE_INSTANCE: "text_model.generate_instance_s",
}


class Tracer:
    """In-memory spans plus per-route counters and kept results."""

    def __init__(self):
        self.spans: list[list] = []  # [name, route, parent index or -1, start, end]
        self._open: list[int] = []
        self.counts = defaultdict(int)  # (route, counter) -> int
        self.kept = defaultdict(list)  # (route, layer) -> (bound arguments, result)

    def begin(self, name: str) -> str:
        parent = self._open[-1] if self._open else -1
        route = self.spans[parent][1] if parent >= 0 else name
        self.spans.append([name, route, parent, time.perf_counter(), None])
        self._open.append(len(self.spans) - 1)
        return route

    def end(self) -> None:
        self.spans[self._open.pop()][4] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def route_calls(self, route: str) -> int:
        return sum(1 for s in self.spans if s[2] < 0 and s[0] == route)

    def route_time(self, route: str) -> float:
        return sum(s[4] - s[3] for s in self.spans if s[2] < 0 and s[0] == route)

    def times(self):
        """(inclusive, self) seconds per (route, span name)."""
        covered = defaultdict(float)
        for _, _, parent, t0, t1 in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        inclusive = defaultdict(float)
        self_time = defaultdict(float)
        for idx, (name, route, _, t0, t1) in enumerate(self.spans):
            inclusive[(route, name)] += t1 - t0
            self_time[(route, name)] += t1 - t0 - covered[idx]
        return inclusive, self_time

    def call_counts(self):
        """Calls per (route, span name, parent span name)."""
        out = defaultdict(int)
        for name, route, parent, _, _ in self.spans:
            out[(route, name, self.spans[parent][0] if parent >= 0 else None)] += 1
        return out


def _fft_points(args):
    text_rows, pattern_rows = args["text_rows"], args["pattern_rows"]
    rows = 1 if np.ndim(text_rows) == 1 else np.shape(text_rows)[0]
    n, m = np.shape(text_rows)[-1], np.shape(pattern_rows)[-1]
    return "correlation.fft_points", rows * sfft.next_fast_len(n + m - 1, real=True)


def _members(args):
    return "sketch.members", args["family"].k


def _beta_pairs(args):
    return "hashing.beta_many_pairs", int(np.size(args["us"]))


def _projections(args):
    params = args["params"]
    return "sparse_recovery.projections", params.num_scales * params.reps


# layer -> counter read from the call's arguments
_COUNTERS = {
    "correlation.correlate_rows": _fft_points,
    "sketch.member_hamming_sum": _members,
    "hashing.beta_many": _beta_pairs,
    "sparse_recovery.construct_sparse_noise": _projections,
}
# layers whose results are kept for the counts computed after the run
_KEEP = (
    "sparse_recovery.prepare_pair_counts",
    "sparse_recovery.construct_sparse_noise",
    "approx.approx_profile_single",
)


def _wrap(tracer: Tracer, layer: str, fn):
    sig = inspect.signature(fn)
    counter = _COUNTERS.get(layer)
    keep = layer in _KEEP

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        route = tracer.begin(layer)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end()
        if counter is not None or keep:
            bound = sig.bind(*args, **kwargs).arguments
            if counter is not None:
                name, inc = counter(bound)
                tracer.counts[(route, name)] += inc
            if keep:
                tracer.kept[(route, layer)].append((bound, out))
        return out

    return traced


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Swap every hook for its traced wrapper; restore the originals on exit.

    A name a module no longer looks up is reported and skipped, so its
    metrics read 0 instead of the traced run failing.
    """
    saved = []
    try:
        for module, name, layer in HOOKS:
            fn = getattr(module, name, None)
            if fn is None:
                print(f"perfbench: {module.__name__}.{name} not found; not traced", file=sys.stderr)
                continue
            saved.append((module, name, fn))
            setattr(module, name, _wrap(tracer, layer, fn))
        yield tracer
    finally:
        for module, name, fn in reversed(saved):
            setattr(module, name, fn)


def pair_truth(text, pattern):
    """Exact aligned mismatch pairs as sorted keys window*sigma^2 + u*sigma + v
    with their counts; computed here, independent of the library."""
    sigma = text.sigma
    m = len(pattern)
    p = pattern.symbols.astype(np.int64)
    wins = sliding_window_view(text.symbols.astype(np.int64), m)
    step = max(1, (1 << 22) // m)
    keys = []
    for lo in range(0, wins.shape[0], step):
        w = wins[lo : lo + step]
        wl, il = np.nonzero(w != p)
        keys.append((wl + lo) * sigma * sigma + w[wl, il] * sigma + p[il])
    return np.unique(np.concatenate(keys), return_counts=True)


def residual_ok_frac(truth, noise, d, epsilon: float) -> float:
    """Share of windows with sum (d_uv - d'_uv)^2 <= B_CONST * eps * d^2."""
    keys, counts = truth
    if keys.size == 0:
        return float(noise.values.size == 0)
    sigma = noise.sigma
    nw = d.size
    s2 = sigma * sigma
    counts = counts.astype(np.float64)
    sq = np.bincount(keys // s2, weights=counts * counts, minlength=nw)
    wins = np.repeat(np.arange(nw, dtype=np.int64), np.diff(noise.indptr))
    nkeys = wins * s2 + noise.us.astype(np.int64) * sigma + noise.vs.astype(np.int64)
    pos = np.minimum(np.searchsorted(keys, nkeys), keys.size - 1)
    t = np.where(keys[pos] == nkeys, counts[pos], 0.0)
    vals = noise.values.astype(np.float64)
    sq += np.bincount(wins, weights=(t - vals) ** 2 - t * t, minlength=nw)
    df = d.astype(np.float64)
    return float(np.mean(sq <= hs.B_CONST * epsilon * df * df))


def layer_metrics(tracer: Tracer, text, pattern, exact_profile, epsilon: float) -> dict:
    """Per-layer values for one call of each traced route."""
    inclusive, self_time = tracer.times()
    calls = tracer.call_counts()
    routes = {s[1] for s in tracer.spans}
    ncalls = {r: tracer.route_calls(r) for r in routes}

    def per_call(table, name):
        return sum(v / ncalls[r] for (r, n), v in table.items() if n == name)

    def count(name):
        return sum(v / ncalls[r] for (r, n), v in tracer.counts.items() if n == name)

    def n_calls(name):
        return sum(v / ncalls[r] for (r, n, _), v in calls.items() if n == name)

    out = {f"{layer}_s": per_call(self_time, layer) for _, _, layer in HOOKS}
    for route, metric in _ROOT_METRIC.items():
        out[metric] = per_call(self_time, route)
    for layer in (
        "sparse_recovery.construct_sparse_noise",
        "sketch.member_hamming_sum",
        "correlation.correlate_rows",
        "correlation.count_aligned_ones",
    ):
        out[f"{layer}_calls"] = n_calls(layer)
    for name in (
        "correlation.fft_points",
        "sketch.members",
        "hashing.beta_many_pairs",
        "sparse_recovery.projections",
    ):
        out[name] = count(name)

    # counts read from the kept results of the approx route
    d = exact_profile.values
    prepared = tracer.kept[(ROUTE_APPROX, "sparse_recovery.prepare_pair_counts")]
    constructed = tracer.kept[(ROUTE_APPROX, "sparse_recovery.construct_sparse_noise")]
    noises = [res for _, res in constructed]
    n_approx = max(1, ncalls.get(ROUTE_APPROX, 0))
    truth = pair_truth(text, pattern)
    out["sparse_recovery.dense_route"] = float(
        any(getattr(res, "kind", None) == "dense" for _, res in prepared)
    )
    out["sparse_recovery.pair_entries"] = len(prepared) * truth[0].size / n_approx
    out["sparse_recovery.noise_entries"] = sum(nz.values.size for nz in noises) / n_approx
    out["sparse_recovery.windows_at_capacity"] = sum(
        int(np.count_nonzero(np.diff(nz.indptr) == nz.capacity)) for nz in noises
    ) / n_approx
    total_d = float(d.sum())
    out["sparse_recovery.recovered_mass_frac"] = (
        float(np.mean([nz.values.sum() / total_d for nz in noises]))
        if noises and total_d > 0
        else 0.0
    )
    out["sparse_recovery.residual_ok_frac"] = (
        float(np.mean([
            residual_ok_frac(truth, res, d, args["params"].epsilon) for args, res in constructed
        ]))
        if constructed
        else 0.0
    )
    singles = [res for _, res in tracer.kept[(ROUTE_APPROX, "approx.approx_profile_single")]]
    out["approx.single_exec_within_eps_min"] = min(
        (hs.fraction_within_epsilon(s, exact_profile, epsilon) for s in singles), default=0.0
    )

    def share(route, layer):
        total = tracer.route_time(route)
        return inclusive[(route, layer)] / total if total > 0 else 0.0

    out["share.construct_sparse_noise_of_approx"] = share(
        ROUTE_APPROX, "sparse_recovery.construct_sparse_noise"
    )
    out["share.member_hamming_sum_of_karloff"] = share(ROUTE_KARLOFF, "sketch.member_hamming_sum")
    return out


def breakdown(tracer: Tracer) -> dict:
    """Per route: total seconds per call, and per span name its inclusive and
    self share of the route plus its calls by parent."""
    inclusive, self_time = tracer.times()
    calls = tracer.call_counts()
    report = {}
    for route in sorted({s[1] for s in tracer.spans}):
        total = tracer.route_time(route)
        layers = {}
        for (r, name), incl in sorted(inclusive.items(), key=lambda kv: -kv[1]):
            if r != route:
                continue
            layers[name] = {
                "inclusive_share": incl / total if total else 0.0,
                "self_share": self_time[(r, name)] / total if total else 0.0,
                "calls_by_parent": {
                    str(parent): c for (rr, n, parent), c in calls.items() if rr == r and n == name
                },
            }
        report[route] = {"seconds_per_call": total / tracer.route_calls(route), "layers": layers}
    return report
