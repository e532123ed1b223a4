"""Benchmark workloads: instance shapes, the few_pairs generator and set-up.

Every workload runs the three public routes at eps = 0.1. The library only
ever receives the generated IntStrings and the *_params objects built here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import hamsketch as hs

EPSILON = 0.1
# AC7's accuracy threshold: share of windows each estimate must keep within eps
MIN_WITHIN_EPS = 0.95


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    m: int
    sigma: int
    model: str  # a generate_instance model, or "few_pairs" (built here)
    reps: int | None  # executions per estimate; None keeps ceil(2*log2 n)


_ALL = (
    # AC7's shape at 1/4 size: dense recovery route, fft backend (n >= 4096)
    Workload("dense16", 8192, 512, 16, "uniform", None),
    # sparse recovery route (sigma^2 * windows above the dense budget) and
    # popcount backend (n < 4096); one execution's recovery costs ~10 s, so
    # both estimators run 3 executions
    Workload("sparse256", 2048, 64, 256, "uniform", 3),
    # dense route with only ~59 occupied pair codes and many decodes
    Workload("few_pairs", 4096, 512, 64, "few_pairs", None),
    # toy sizes for the benchmark's self-test; the same recovery routes as
    # above, and toy_few_pairs keeps the fft backend
    Workload("toy_dense16", 512, 64, 16, "uniform", 2),
    Workload("toy_sparse", 256, 16, 512, "uniform", 2),
    Workload("toy_few_pairs", 4096, 64, 64, "few_pairs", 2),
)
WORKLOADS = {w.name: w for w in _ALL}


def few_pairs_instance(n: int, m: int, sigma: int, seed: int):
    """Periodic instance whose windows each hold at most 8 heavy pairs.

    The pattern repeats a block of 8 distinct symbols; the text repeats the
    same block with 3 of its symbols replaced by symbols outside it.
    """
    if sigma < 11:
        raise ValueError(f"few_pairs needs sigma >= 11, got {sigma}")
    rng = np.random.default_rng(seed)
    block = rng.choice(sigma, 8, replace=False)
    text_block = block.copy()
    outside = np.setdiff1d(np.arange(sigma), block)
    text_block[rng.choice(8, 3, replace=False)] = rng.choice(outside, 3, replace=False)
    return hs.IntString(np.resize(text_block, n), sigma), hs.IntString(np.resize(block, m), sigma)


def make_instance(w: Workload, seed: int):
    if w.model == "few_pairs":
        return few_pairs_instance(w.n, w.m, w.sigma, seed)
    return hs.generate_instance(w.n, w.m, w.sigma, w.model, seed)


def make_params(w: Workload, seed: int):
    return (
        hs.karloff_params(EPSILON, seed, w.n, reps=w.reps),
        hs.approx_params(EPSILON, seed, w.n, reps=w.reps),
    )
