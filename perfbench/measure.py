"""Measurement for the hamsketch benchmark; run.py is its command line.

`untraced` gives the end-to-end metrics, `traced` the per-layer ones. Every
route output is checked, and each check is counted in a Checks object: the
convolution profile against the naive one, each estimate against AC7's
accuracy threshold, and each profile's SHA-256 against the route's first.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy
import scipy

import hamsketch as hs
from spans import (
    ROUTE_APPROX,
    ROUTE_EXACT,
    ROUTE_INSTANCE,
    ROUTE_KARLOFF,
    ROUTE_NAIVE,
    Tracer,
    breakdown,
    installed,
    layer_metrics,
)
from spans import UNITS as LAYER_UNITS
from workloads import EPSILON, MIN_WITHIN_EPS, make_instance, make_params

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().with_name("run.py")

# Fresh processes timed for setup_s (the median is reported). Each then times
# the exact convolution too, so exact_s pools samples of several processes.
SETUP_PROBES = 5
PROBE_EXACT_S = 0.3
PROBE_EXACT_CALLS = 5
# One round. The machine's speed drifts over seconds as other tenants come
# and go; an approx call spans many seconds and sees their average, while a
# 1 to 100 ms exact call sees the speed of its moment. So the exact calls are
# spread in slices over the whole round, before, between and after the
# estimator calls, and exact_s is their mean: their times mix a fast and a
# slow mode in a share that varies from run to run, and the median jumps
# between the modes where the mean moves in proportion to the share.
ROUND = ("exact", "karloff", "exact", "approx", "exact", "karloff", "exact")
EXACT_SHARE = 0.04  # share of --seconds each exact step repeats the convolution
MIN_EXACT_CALLS = 3
# glibc raises its mmap threshold to the size of a freed mmapped block (up to
# 32 MiB); smaller blocks then come from its heap instead of fresh pages that
# fault in on every allocation. A process reaches that state after its first
# large computation (approx_profile reaches it by itself), so each run starts
# there: without it a fresh process's karloff_profile runs ~35% slower, and
# calls would be timed in whichever state the previous call left. One untimed
# exact call then does the route's lazy set-up, which makes a process's first
# call up to 50% slower than the next ones.
WARM_BLOCK_BYTES = 30 << 20

E2E_UNITS = {
    "setup_s": "s",
    "exact_s": "s",
    "karloff_s": "s",
    "approx_s": "s",
    "karloff_within_eps": "frac",
    "approx_within_eps": "frac",
    "peak_rss_mb": "MB",
}


class Checks:
    """Correctness checks counted against the number attempted."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def __call__(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: check failed: {what}", file=sys.stderr)


def _sha(profile) -> str:
    return hashlib.sha256(profile.values.tobytes()).hexdigest()


def run_routes(inputs, reference, checks, hashes, exact_slice,
               span=lambda name: contextlib.nullcontext()):
    """One round: the steps of ROUND in order; returns seconds per call by
    route and each estimate's share of windows within eps.

    Each exact step repeats the convolution for `exact_slice` seconds (at
    least MIN_EXACT_CALLS times), so its samples spread over the round like
    the estimator calls do. Each profile's SHA-256 must equal the one already
    in `hashes` for its route; the first one seen is stored.
    """
    text, pattern, kparams, aparams = inputs
    estimators = {
        "karloff": (ROUTE_KARLOFF, hs.karloff_profile, kparams),
        "approx": (ROUTE_APPROX, hs.approx_profile, aparams),
    }

    def timed(name, fn, *args):
        t0 = time.perf_counter()
        with span(name):
            out = fn(*args)
        return out, time.perf_counter() - t0

    def same_hash(route, profile):
        digest = _sha(profile)
        expected = hashes.setdefault(route, digest)
        checks(digest == expected, f"{route} profile SHA-256 matches the first run")

    times = {"exact": [], "karloff": [], "approx": []}
    within = {}
    for route in ROUND:
        if route == "exact":
            deadline = time.perf_counter() + exact_slice
            for calls in itertools.count():
                if calls >= MIN_EXACT_CALLS and time.perf_counter() >= deadline:
                    break
                prof, dt = timed(ROUTE_EXACT, hs.hamming_profile_convolution, text, pattern)
                times["exact"].append(dt)
                checks(
                    prof.values.dtype == reference.values.dtype
                    and prof.values.tobytes() == reference.values.tobytes(),
                    "convolution profile byte-equal to the naive profile",
                )
        else:
            name, fn, params = estimators[route]
            prof, dt = timed(name, fn, text, pattern, params)
            times[route].append(dt)
            within[route] = hs.fraction_within_epsilon(prof, reference, EPSILON)
            checks(
                within[route] >= MIN_WITHIN_EPS,
                f"{route}: {within[route]:.4f} of windows within eps (need >= {MIN_WITHIN_EPS})",
            )
        same_hash(route, prof)
    return times, within


def build(workload, seed):
    text, pattern = make_instance(workload, seed)
    return (text, pattern, *make_params(workload, seed))


def probe(workload, seed: int) -> None:
    """Body of a probe process: build the inputs, say so, then time the
    exact convolution and print the samples as JSON."""
    text, pattern, _, _ = build(workload, seed)
    print("ready", flush=True)
    _warm_up(text, pattern)
    samples = []
    deadline = time.perf_counter() + PROBE_EXACT_S
    while len(samples) < PROBE_EXACT_CALLS or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        hs.hamming_profile_convolution(text, pattern)
        samples.append(time.perf_counter() - t0)
    print(json.dumps(samples), flush=True)


def _run_probe(name: str, seed: int):
    """(seconds until a fresh process has imported the library and built the
    inputs and params, its exact-convolution samples)."""
    cmd = [sys.executable, str(RUN), "--workload", name, "--seed", str(seed), "--setup-probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
    if proc.returncode != 0 or ready.strip() != "ready":
        raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
    return setup, json.loads(rest)


def _summary(xs) -> dict:
    """Mean, median, and the highest percentile with at least ten samples
    above it."""
    out = {"n": len(xs), "mean": statistics.fmean(xs), "median": statistics.median(xs)}
    if len(xs) >= 10:
        out["p10"] = statistics.quantiles(xs, n=10, method="inclusive")[0]
    if len(xs) >= 20:
        p = math.floor(100 * (1 - 10 / len(xs)))
        out[f"p{p}"] = statistics.quantiles(xs, n=100, method="inclusive")[p - 1]
    return out


def _warm_up(text, pattern) -> None:
    numpy.ones(WARM_BLOCK_BYTES // 8)
    hs.hamming_profile_convolution(text, pattern)


def untraced(workload, seed: int, seconds: float, checks: Checks, report: dict) -> dict:
    probes = [_run_probe(workload.name, seed) for _ in range(SETUP_PROBES)]
    setup = [s for s, _ in probes]
    inputs = build(workload, seed)
    _warm_up(inputs[0], inputs[1])
    reference = hs.hamming_profile_naive(inputs[0], inputs[1])
    hashes: dict = {}
    samples = {"exact": [x for _, xs in probes for x in xs], "karloff": [], "approx": []}
    start = time.perf_counter()
    # as many whole rounds as fit in --seconds, at least one
    while True:
        t0 = time.perf_counter()
        times, within = run_routes(inputs, reference, checks, hashes, EXACT_SHARE * seconds)
        for route, xs in times.items():
            samples[route].extend(xs)
        now = time.perf_counter()
        if (now - start) + (now - t0) > seconds:
            break
    mean = {route: statistics.fmean(xs) for route, xs in samples.items()}
    report.update(
        setup_s_samples=setup,
        samples={route: _summary(xs) for route, xs in samples.items()},
        sha256=hashes,
        approx_over_exact=mean["approx"] / mean["exact"],
    )
    return {
        "setup_s": statistics.median(setup),
        "exact_s": mean["exact"],
        "karloff_s": mean["karloff"],
        "approx_s": mean["approx"],
        "karloff_within_eps": within["karloff"],
        "approx_within_eps": within["approx"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced(workload, seed: int, seconds: float, checks: Checks, report: dict) -> dict:
    inputs = build(workload, seed)
    text, pattern = inputs[0], inputs[1]
    _warm_up(text, pattern)
    reference = hs.hamming_profile_naive(text, pattern)
    hashes: dict = {}
    plain, _ = run_routes(inputs, reference, checks, hashes, EXACT_SHARE * seconds)
    tracer = Tracer()
    with installed(tracer):
        with tracer.span(ROUTE_INSTANCE):
            make_instance(workload, seed)
        with tracer.span(ROUTE_NAIVE):
            naive = hs.hamming_profile_naive(text, pattern)
        spanned, _ = run_routes(
            inputs, reference, checks, hashes, EXACT_SHARE * seconds, span=tracer.span
        )
    checks(_sha(naive) == _sha(reference), "naive profile SHA-256 unchanged under tracing")
    metrics = layer_metrics(tracer, text, pattern, reference, EPSILON)
    mean = {route: statistics.fmean(xs) for route, xs in plain.items()}
    for route, xs in spanned.items():
        metrics[f"trace.overhead_frac_{route}"] = statistics.fmean(xs) / mean[route] - 1.0
    metrics["yardstick.approx_over_exact"] = mean["approx"] / mean["exact"]
    report.update(
        samples={
            route: {"untraced": _summary(plain[route]), "traced": _summary(spanned[route])}
            for route in plain
        },
        sha256=hashes,
        breakdown=breakdown(tracer),
    )
    return metrics


def _blas_threads():
    for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(handle, fn):
                getter = getattr(handle, fn)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return getter()
    return None


def _last_level_cache_bytes():
    # glibc answers these from cpuid; _SC_LEVEL3_CACHE_SIZE, then _SC_LEVEL2_CACHE_SIZE
    libc = ctypes.CDLL(None)
    libc.sysconf.restype = ctypes.c_long
    libc.sysconf.argtypes = [ctypes.c_int]
    for name in (194, 191):
        size = libc.sysconf(name)
        if size > 0:
            return size
    return None


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "last_level_cache_bytes": _last_level_cache_bytes(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
    }
