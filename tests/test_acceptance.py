"""Acceptance gate: one check per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py -v` to see the lines. AC8 is
informational and runs only when HAMSKETCH_AC8=1 (big instance, minutes).
"""

import json
import os
import subprocess
import sys
import time

import numpy as np

from hamsketch._sketch import execution_estimates
from hamsketch.approx import B_CONST, approx_params, approx_profile
from hamsketch.cli import main as cli_main
from hamsketch.exact import hamming_profile_convolution, hamming_profile_naive
from hamsketch.hashing import beta, family_new, fourwise_new
from hamsketch.karloff import karloff_params, karloff_profile
from hamsketch.noise_profile import top_pair_counts
from hamsketch.stats import fraction_within_epsilon
from hamsketch.text_model import generate_instance

from helpers import (
    alignment_dict_brute,
    approx_with_noise,
    beta_brute,
    beta_pairs,
    correction_term,
    fourwise_eval_seeds,
    noise_profile_from_windows,
    pair_count_keys,
    pair_counts_at,
)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{name} {'pass' if ok else 'FAIL'}: {detail}")
    assert ok, f"{name}: {detail}"


def test_ac1_exact_oracle_equivalence():
    t0 = time.perf_counter()
    mismatches = 0
    for seed in range(10):
        text, pattern = generate_instance(4096, 256, 64, "uniform", seed)
        naive = hamming_profile_naive(text, pattern).values
        conv = hamming_profile_convolution(text, pattern).values
        mismatches += not np.array_equal(naive, conv)
    dt = time.perf_counter() - t0
    _report(
        "AC1",
        mismatches == 0 and dt < 5.0,
        f"convolution == naive on 10/10 instances (n=4096, m=256, sigma=64), "
        f"{dt:.2f}s of 5s budget",
    )


def test_ac2_beta_oracle_equivalence():
    rng = np.random.default_rng(2026)
    t0 = time.perf_counter()
    bad = 0
    for k in (2, 8, 64, 1024):
        for _ in range(250):
            fam = family_new(k, seed=int(rng.integers(1 << 48)))
            u = int(rng.integers(1 << 16))
            v = int(rng.integers(1 << 16))
            bad += beta(fam, u, v) != beta_brute(fam, u, v)
    dt = time.perf_counter() - t0
    _report(
        "AC2",
        bad == 0 and dt < 5.0,
        f"beta == member enumeration on 1000 (u,v,seed) triples, "
        f"k in {{2,8,64,1024}} (250 each), {dt:.2f}s of 5s budget",
    )


def test_ac3_hash_family_statistics():
    # collision rate of a k=1024 family over random pairs
    rng = np.random.default_rng(31)
    fam = family_new(1024, seed=777)
    us = rng.integers(0, 1 << 16, size=1000)
    vs = rng.integers(0, 1 << 16, size=1000)
    vs[vs == us] = (vs[vs == us] + 1) & 0xFFFF
    betas = beta_pairs([fam], us, vs)[0]
    frac = float((np.abs(betas / 1024 - 0.5) <= 0.1).mean())

    # 4-wise joint uniformity of single-bit base functions over 1e5 seeds
    seeds = np.arange(100000)
    points = (3, 101, 4096, 65535)
    bits = [fourwise_eval_seeds(1, seeds, x) for x in points]
    for s in (0, 1, 99999):  # the batched chain mirrors the scalar draw
        for x, col in zip(points, bits):
            assert col[s] == fourwise_new(1, int(seeds[s])).eval(x)
    joint = (bits[0] << 3) | (bits[1] << 2) | (bits[2] << 1) | bits[3]
    freqs = np.bincount(joint, minlength=16) / seeds.size
    dev = float(np.abs(freqs - 1 / 16).max())
    _report(
        "AC3",
        frac >= 0.99 and dev <= 0.01,
        f"|beta/k - 1/2| <= 0.1 on {frac:.1%} of 1000 pairs (need >= 99%); "
        f"4-wise joint outcome deviation {dev:.4f} over 1e5 seeds (need <= 0.01)",
    )


def test_ac4_perfect_sketch_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(5):
        text, pattern = generate_instance(2048, 128, 8, "uniform", seed)
        exact = hamming_profile_convolution(text, pattern).values
        nw = exact.size
        dicts = [alignment_dict_brute(text, pattern, j) for j in range(nw)]
        noise = noise_profile_from_windows(dicts, sigma=8)
        for eps in (0.25, 0.1):
            params = approx_params(eps, seed=seed + 10, n=2048)
            est = approx_with_noise(text, pattern, params, noise).values
            rel = np.abs(est - exact) / np.maximum(exact, 1)
            worst = max(worst, float(rel.max()))
    dt = time.perf_counter() - t0
    _report(
        "AC4",
        worst <= 1e-9,
        f"exact D' injection: worst relative deviation {worst:.2e} over 5 seeds x "
        f"eps in {{0.25, 0.1}} (need <= 1e-9), {dt:.1f}s",
    )


def test_ac5_correction_fast_path():
    rng = np.random.default_rng(63)
    t0 = time.perf_counter()
    bad = 0
    for trial in range(1000):
        k = int(rng.choice([8, 32, 128]))
        fam = family_new(k, seed=int(rng.integers(1 << 48)))
        entries = {}
        for _ in range(int(rng.integers(1, 7))):
            u, v = rng.choice(32, size=2, replace=False)
            entries[(int(u), int(v))] = int(rng.integers(1, 100))
        want = sum(
            (2 * beta_brute(fam, u, v) - k) * val for (u, v), val in entries.items()
        ) / 2.0
        bad += correction_term(entries, fam) != want
    dt = time.perf_counter() - t0
    _report(
        "AC5",
        bad == 0,
        f"correction via beta == full member enumeration on 1000/1000 random "
        f"sparse matrices, {dt:.1f}s",
    )


def _residual_shares(text, pattern, eps):
    """(D', empty, doubled): the shares of windows meeting
    sum (d - d')^2 <= b*eps*d^2 with approx's D' (top_pair_counts), with no
    D' and with every D' value doubled; plus whether the entry cap held."""
    nw = len(text) - len(pattern) + 1
    keys, counts = pair_count_keys(text, pattern)
    at = keys // text.sigma**2
    d = np.bincount(at, counts, minlength=nw)
    sq = np.bincount(at, counts * counts, minlength=nw)
    bound = B_CONST * eps * d ** 2
    capacity = approx_params(eps, seed=0, n=len(text)).capacity
    noise = top_pair_counts(text, pattern, capacity)
    noise.validate()
    wins = noise.entry_windows()
    truth = pair_counts_at(text, pattern, noise.entry_codes(), wins)

    def share(values):
        resid = sq + np.bincount(wins, (truth - values) ** 2 - truth * truth, minlength=nw)
        return float((resid <= bound).mean())

    cap_ok = int(np.diff(noise.indptr).max()) <= capacity
    return share(noise.values), share(0 * noise.values), share(2 * noise.values), cap_ok


def test_ac6_sparse_noise_bound():
    # shapes whose heavy pairs an empty D' leaves above the bound: few_pairs
    # (n=4096, m=512, sigma=64) and planted_heavy (n=4096, m=256, sigma=64).
    # An empty D' and one with every value doubled must both miss the 90%
    # threshold on every seed, so the gate can fail
    eps = 0.1
    t0 = time.perf_counter()
    shapes = {
        "few_pairs": (4096, 512),
        "planted_heavy": (4096, 256),
    }
    fracs, empty, doubled = [], [], []
    cap_ok = True
    for model, (n, m) in shapes.items():
        for seed in range(5):
            text, pattern = generate_instance(n, m, 64, model, seed)
            got, none, double, cap = _residual_shares(text, pattern, eps)
            fracs.append(got)
            empty.append(none)
            doubled.append(double)
            cap_ok &= cap
    dt = time.perf_counter() - t0
    _report(
        "AC6",
        min(fracs) >= 0.9 and max(empty) < 0.9 and max(doubled) < 0.9 and cap_ok and dt < 60.0,
        f"sum(d-d')^2 <= b*eps*d^2 on {min(fracs):.1%}..{max(fracs):.1%} of windows "
        f"across few_pairs and planted_heavy, 5 seeds each (need >= 90%); an empty D' "
        f"meets it on at most {max(empty):.1%}, a doubled D' on at most {max(doubled):.1%} "
        f"(need < 90%); entry cap {'held' if cap_ok else 'BROKEN'}; {dt:.1f}s of 60s budget",
    )


def test_ac7_end_to_end_accuracy():
    eps = 0.1
    n, m = 1 << 15, 1 << 10
    details = []
    ok = True
    for model in ("uniform", "planted_heavy"):
        text, pattern = generate_instance(n, m, 16, model, seed=2026)
        exact = hamming_profile_convolution(text, pattern)
        zero = exact.values == 0

        t0 = time.perf_counter()
        ap = approx_params(eps, seed=7, n=n)
        est = approx_profile(text, pattern, ap)
        dt_a = time.perf_counter() - t0
        frac_a = fraction_within_epsilon(est, exact, eps)
        zeros_a = bool(np.all(est.values[zero] == 0.0))

        t0 = time.perf_counter()
        kp = karloff_params(eps, seed=8, n=n)
        kest = karloff_profile(text, pattern, kp)
        dt_k = time.perf_counter() - t0
        frac_k = fraction_within_epsilon(kest, exact, eps)
        zeros_k = bool(np.all(kest.values[zero] == 0.0))

        ok &= frac_a >= 0.95 and frac_k >= 0.95 and zeros_a and zeros_k
        ok &= dt_a < 120.0 and dt_k < 120.0
        details.append(
            f"{model}: approx {frac_a:.1%} in {dt_a:.0f}s, "
            f"karloff {frac_k:.1%} in {dt_k:.0f}s"
        )
    _report(
        "AC7",
        ok,
        f"windows within (1+-0.1)d (need >= 95%, budget 120s each; R={ap.reps}): "
        + "; ".join(details),
    )


def test_ac8_epsilon_scaling_trend(tmp_path):
    if not os.environ.get("HAMSKETCH_AC8"):
        print(
            "AC8 pass: informational trend skipped (set HAMSKETCH_AC8=1 to run "
            "the n=2^18 bench grid)"
        )
        return
    mirror = tmp_path / "bench.json"
    rc = cli_main([
        "bench", "--n", str(1 << 18), "--m", str(1 << 12), "--sigma", "16",
        "--epsilon", "0.2", "0.1", "0.05", "--seed", "11", "--reps", "2",
        "--algos", "karloff,approx",
        "--out", str(tmp_path / "bench.csv"), "--json", str(mirror),
    ])
    assert rc == 0
    rows = json.loads(mirror.read_text())
    times = {"karloff": {}, "approx": {}}
    for row in rows:
        times[row["algo"]][row["epsilon"]] = row["seconds"]

    def ratios(algo):
        seq = [times[algo][e] for e in (0.2, 0.1, 0.05)]
        return [seq[i + 1] / seq[i] for i in range(2)]

    ra, rk = ratios("approx"), ratios("karloff")
    print(
        "AC8 pass: informational; per-halving time ratios "
        f"approx {ra[0]:.2f}, {ra[1]:.2f} (<= 3 expected), "
        f"karloff {rk[0]:.2f}, {rk[1]:.2f} (about 1 expected: at sigma=16 the "
        "symbol-pair route's time does not grow with 1/eps^2)"
    )


def test_ac9_determinism(tmp_path):
    text = tmp_path / "text.txt"
    pattern = tmp_path / "pattern.txt"
    assert cli_main([
        "gen", "--n", "2048", "--m", "128", "--sigma", "16", "--seed", "5",
        "--text", str(text), "--pattern", str(pattern),
    ]) == 0

    outputs = {}
    for algo in ("approx", "karloff"):
        args = [algo, "--text", str(text), "--pattern", str(pattern),
                "--epsilon", "0.1", "--seed", "5", "--reps", "4"]
        a, b = tmp_path / f"{algo}_a.csv", tmp_path / f"{algo}_b.csv"
        assert cli_main(args + ["--out", str(a)]) == 0
        assert cli_main(args + ["--out", str(b)]) == 0
        outputs[algo] = a.read_bytes()
        assert outputs[algo] == b.read_bytes(), algo

    # fresh processes pinned to different BLAS/OpenMP thread counts
    thread_ok = True
    for threads in ("1", "4"):
        env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = threads
        for algo in ("approx", "karloff"):
            out = tmp_path / f"{algo}_t{threads}.csv"
            proc = subprocess.run(
                [sys.executable, "-m", "hamsketch", algo,
                 "--text", str(text), "--pattern", str(pattern),
                 "--epsilon", "0.1", "--seed", "5", "--reps", "4",
                 "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            thread_ok &= out.read_bytes() == outputs[algo]
    _report(
        "AC9",
        thread_ok,
        "approx and karloff CSVs byte-identical across reruns and across "
        "1- and 4-thread processes (fixed seed)",
    )


def test_ac10_single_execution_accuracy():
    # The median over executions hides a broken correction; single
    # executions do not. On few_pairs instances an uncorrected execution
    # (empty D') puts 10-65% of windows outside eps at its worst, a corrected
    # one none. Gate the default approx (one shared D') on its worst single
    # execution, and check on the same executions that the uncorrected
    # sketch fails the threshold on every seed, so the gate can fail.
    eps, n, m, sigma, execs = 0.1, 4096, 512, 64, 8
    threshold = 0.05
    worst, uncorrected_best = 0.0, 1.0
    t0 = time.perf_counter()
    for seed in range(1, 11):
        text, pattern = generate_instance(n, m, sigma, "few_pairs", seed)
        exact = hamming_profile_convolution(text, pattern)
        ap = approx_params(eps, seed=seed + 1000, n=n, reps=execs)
        est, shared = approx_profile(text, pattern, ap, return_noise=True)
        empty = noise_profile_from_windows([{}] * exact.n_windows, sigma)
        runs, bare = (
            execution_estimates(text, pattern, ap.k, ap.seed, range(execs), noise)
            for noise in (shared, empty)
        )
        worst = max(worst, *(1.0 - fraction_within_epsilon(r, exact, eps) for r in runs))
        uncorrected_best = min(
            uncorrected_best, max(1.0 - fraction_within_epsilon(r, exact, eps) for r in bare)
        )
        # the gated executions are exactly the ones approx takes the median of
        assert np.array_equal(np.median(runs, axis=0), est.values)
    dt = time.perf_counter() - t0
    _report(
        "AC10",
        worst <= threshold < uncorrected_best,
        f"worst single execution puts {worst:.1%} of windows outside eps "
        f"(need <= {threshold:.0%}); uncorrected, every seed's worst is "
        f">= {uncorrected_best:.1%}; 10 few_pairs seeds x {execs} executions "
        f"in {dt:.1f}s",
    )
