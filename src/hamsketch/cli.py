"""Command-line front end: gen, exact, karloff, approx, bench, selftest.

Exit codes: 0 success, 1 usage error, 2 I/O error (unreadable file or
malformed token stream). All outputs are deterministic for a fixed --seed;
the only nondeterministic fields are the timing columns of `bench`.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from .approx import approx_params, approx_profile
from .exact import hamming_profile_convolution, hamming_profile_naive
from .karloff import karloff_params, karloff_profile
from .stats import error_stats
from .text_model import (
    MODELS,
    DistanceProfile,
    FileFormatError,
    generate_instance,
    read_bytes,
    read_tokens,
    write_bytes,
    write_profile_csv,
    write_tokens,
)


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1; argparse's default of 2 is reserved for I/O here
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _seed(text: str) -> int:
    """A --seed value: an integer in [0, 2^64). The seed derivation keeps 64
    bits, so any other integer would alias one of these."""
    seed = int(text)
    if not 0 <= seed < 1 << 64:
        raise argparse.ArgumentTypeError(f"seed {seed} outside [0, 2^64)")
    return seed


def _add_io_flags(p) -> None:
    p.add_argument("--text", required=True, help="text file")
    p.add_argument("--pattern", required=True, help="pattern file")
    p.add_argument("--out", required=True, help="output profile CSV")
    p.add_argument(
        "--input-format", choices=("tokens", "bytes"), default="tokens",
        help="instance file encoding (default tokens)",
    )


def _add_estimator_flags(p) -> None:
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--reps", type=int, default=None, help="median executions (default 2*log2 n)")
    p.add_argument("--round", action="store_true", help="round estimates to integers")
    p.add_argument("--stats", action="store_true", help="write <out>.stats.json vs the exact profile")


def build_parser() -> _Parser:
    top = _Parser(prog="hamsketch", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True, parser_class=_Parser)

    g = sub.add_parser("gen", help="generate a random instance")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--sigma", type=int, required=True)
    g.add_argument("--model", choices=MODELS, default="uniform")
    g.add_argument("--seed", type=_seed, required=True)
    g.add_argument("--text", required=True, help="output text file")
    g.add_argument("--pattern", required=True, help="output pattern file")
    g.add_argument("--input-format", choices=("tokens", "bytes"), default="tokens")

    e = sub.add_parser("exact", help="exact distance profile")
    _add_io_flags(e)
    e.add_argument("--algo", choices=("naive", "conv"), default="conv")

    k = sub.add_parser("karloff", help="baseline estimator, k ~ 1/eps^2")
    _add_io_flags(k)
    _add_estimator_flags(k)

    a = sub.add_parser("approx", help="corrected estimator, k ~ 1/eps")
    _add_io_flags(a)
    _add_estimator_flags(a)
    a.add_argument("--dump-dprime", default=None, metavar="PATH",
                   help="write the noise profile D' as CSV")

    b = sub.add_parser("bench", help="timing/accuracy grid vs the exact profile")
    b.add_argument("--n", type=int, nargs="+", required=True)
    b.add_argument("--m", type=int, required=True)
    b.add_argument("--sigma", type=int, required=True)
    b.add_argument("--epsilon", type=float, nargs="+", required=True)
    b.add_argument("--model", choices=MODELS, default="uniform")
    b.add_argument("--seed", type=_seed, required=True)
    b.add_argument("--reps", type=int, default=None)
    b.add_argument("--algos", default="exact,karloff,approx",
                   help="comma list from {exact,karloff,approx}")
    b.add_argument("--out", default=None, help="bench CSV (default stdout)")
    b.add_argument("--json", default=None, metavar="PATH", help="JSON mirror of the report")

    sub.add_parser(
        "selftest",
        help="check exact conv == naive, beta == member enumeration, D' == each "
        "window's top-capacity naive pair counts on the sort and grid routes, "
        "and approx's grid-route executions == the FFT route's",
    )
    return top


def _read_instance(args):
    reader = read_tokens if args.input_format == "tokens" else read_bytes
    text = reader(args.text)
    pattern = reader(args.pattern)
    if text.sigma != pattern.sigma:
        raise FileFormatError(
            f"{args.text} and {args.pattern} declare different alphabets "
            f"({text.sigma} vs {pattern.sigma})"
        )
    if len(pattern) > len(text):
        raise FileFormatError(
            f"pattern {args.pattern} is longer than text {args.text}"
        )
    return text, pattern


def _write_profile(profile: DistanceProfile, args) -> None:
    if getattr(args, "round", False) and profile.kind == "estimate":
        profile = DistanceProfile(
            np.rint(profile.values).astype(np.int64), "exact"
        )
    write_profile_csv(args.out, profile)


def _write_stats(profile, text, pattern, args) -> None:
    exact = hamming_profile_convolution(text, pattern)
    summary = error_stats(profile, exact, args.epsilon)
    with open(args.out + ".stats.json", "w", encoding="ascii") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cmd_gen(args) -> int:
    text, pattern = generate_instance(args.n, args.m, args.sigma, args.model, args.seed)
    writer = write_tokens if args.input_format == "tokens" else write_bytes
    writer(args.text, text)
    writer(args.pattern, pattern)
    return 0


def _cmd_exact(args) -> int:
    text, pattern = _read_instance(args)
    route = hamming_profile_naive if args.algo == "naive" else hamming_profile_convolution
    write_profile_csv(args.out, route(text, pattern))
    return 0


def _cmd_karloff(args) -> int:
    text, pattern = _read_instance(args)
    params = karloff_params(args.epsilon, args.seed, len(text), args.reps)
    profile = karloff_profile(text, pattern, params)
    _write_profile(profile, args)
    if args.stats:
        _write_stats(profile, text, pattern, args)
    return 0


def _cmd_approx(args) -> int:
    text, pattern = _read_instance(args)
    params = approx_params(args.epsilon, args.seed, len(text), args.reps)
    profile, noise = approx_profile(text, pattern, params, return_noise=True)
    _write_profile(profile, args)
    if args.dump_dprime is not None:
        noise.dump_csv(args.dump_dprime)
    if args.stats:
        _write_stats(profile, text, pattern, args)
    return 0


def _cmd_bench(args) -> int:
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    bad = [a for a in algos if a not in ("exact", "karloff", "approx")]
    if bad:
        raise ValueError(f"unknown algo {bad[0]!r} in --algos")
    if not algos:
        raise ValueError(f"--algos {args.algos!r} names no algo")
    rows = []
    for n in args.n:
        text, pattern = generate_instance(n, args.m, args.sigma, args.model, args.seed)
        exact = hamming_profile_convolution(text, pattern)
        for eps in args.epsilon:
            for algo in algos:
                t0 = time.perf_counter()
                if algo == "exact":
                    profile = hamming_profile_convolution(text, pattern)
                elif algo == "karloff":
                    kp = karloff_params(eps, args.seed, n, args.reps)
                    profile = karloff_profile(text, pattern, kp)
                else:
                    ap = approx_params(eps, args.seed, n, args.reps)
                    profile = approx_profile(text, pattern, ap)
                seconds = time.perf_counter() - t0
                summary = error_stats(profile, exact, eps)
                rows.append({
                    "algo": algo,
                    "n": n,
                    "m": args.m,
                    "sigma": args.sigma,
                    "epsilon": eps,
                    "seconds": round(seconds, 6),
                    "frac_within_eps": summary["fraction_within_epsilon"],
                    "max_rel_err": summary["max_relative_error"],
                })
    header = "algo,n,m,sigma,epsilon,seconds,frac_within_eps,max_rel_err"
    lines = [header] + [
        f"{r['algo']},{r['n']},{r['m']},{r['sigma']},{r['epsilon']:g},"
        f"{r['seconds']},{r['frac_within_eps']:g},{r['max_rel_err']:g}"
        for r in rows
    ]
    out = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(out)
    else:
        with open(args.out, "w", encoding="ascii", newline="") as fh:
            fh.write(out)
    if args.json is not None:
        with open(args.json, "w", encoding="ascii") as fh:
            json.dump(rows, fh, indent=2)
            fh.write("\n")
    return 0


def _cmd_selftest(args) -> int:
    from numpy.lib.stride_tricks import sliding_window_view

    from ._sketch import execution_estimates
    from .approx import _execution_runs
    from .hashing import beta, family_new, member_eval
    from .noise_profile import pair_grid_pays
    from .text_model import occurring_symbols

    failures = 0

    def check(name, ok):
        nonlocal failures
        print(f"{'ok' if ok else 'FAIL'} {name}")
        if not ok:
            failures += 1

    text, pattern = generate_instance(256, 24, 8, "uniform", seed=101)
    naive = hamming_profile_naive(text, pattern)
    conv = hamming_profile_convolution(text, pattern)
    check("exact convolution == naive", np.array_equal(naive.values, conv.values))

    fam = family_new(16, seed=202)
    agree = all(
        beta(fam, u, v) == sum(
            member_eval(fam, i, u) == member_eval(fam, i, v) for i in range(16)
        )
        for u in range(6) for v in range(6) if u != v
    )
    check("beta == member enumeration", agree)

    # D' is each window's capacity largest exact pair counts, ties going to
    # the smaller code: a stable argsort of the negated counts of a naive
    # window-by-window comparison. m = 24 and the planted heavy stretch take
    # the sort route, m = 64 the grid route (8 * 8 occurring symbol pairs <= m)
    heavy = generate_instance(256, 32, 16, "planted_heavy", seed=101)
    grid_text, grid_pattern = generate_instance(256, 64, 8, "uniform", seed=101)
    agree = True
    for t, p, grid in ((text, pattern, False), (*heavy, False), (grid_text, grid_pattern, True)):
        sigma_t, sigma_p = (occurring_symbols(s)[0].size for s in (t, p))
        agree &= pair_grid_pays(sigma_t, sigma_p, len(p)) == grid
        ap = approx_params(0.25, seed=303, n=len(t), reps=3)
        _, noise = approx_profile(t, p, ap, return_noise=True)
        noise.validate()
        windows = sliding_window_view(t.symbols, len(p))
        codes = windows.astype(np.int64) * t.sigma + p.symbols
        dense = np.array([
            np.bincount(c[w != p.symbols], minlength=t.sigma**2)
            for c, w in zip(codes, windows)
        ]).T
        top = np.argsort(-dense, axis=0, kind="stable")[: ap.capacity]
        want = np.zeros_like(dense)
        np.put_along_axis(want, top, np.take_along_axis(dense, top, axis=0), axis=0)
        got = np.zeros_like(dense)
        got[noise.entry_codes(), noise.entry_windows()] = noise.values
        agree &= np.array_equal(got, want)
    check("D' == top-capacity of naive pair counts, sort and grid routes", agree)

    # on the grid route approx takes every execution's estimate from the
    # block pair counts; they equal the FFT signed matches plus the CSR
    # correction over the same D'
    ap = approx_params(0.25, seed=303, n=len(grid_text), reps=3)
    runs, noise = _execution_runs(grid_text, grid_pattern, ap)
    want = execution_estimates(grid_text, grid_pattern, ap.k, ap.seed, range(ap.reps), noise)
    check("approx grid-route executions == FFT signed matches + D' correction", np.array_equal(runs, want))
    return 1 if failures else 0


_COMMANDS = {
    "gen": _cmd_gen,
    "exact": _cmd_exact,
    "karloff": _cmd_karloff,
    "approx": _cmd_approx,
    "bench": _cmd_bench,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except FileFormatError as exc:
        print(f"hamsketch {args.command}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        name = getattr(exc, "filename", None)
        where = f" ({name})" if name else ""
        print(f"hamsketch {args.command}: {exc.strerror or exc}{where}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"hamsketch {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
