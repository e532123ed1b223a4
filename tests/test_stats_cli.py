import json

import numpy as np
import pytest

from hamsketch.cli import main
from hamsketch.stats import (
    error_stats,
    fraction_within_epsilon,
    relative_errors,
    within_epsilon,
)
from hamsketch.text_model import DistanceProfile, generate_instance, read_profile_csv, read_tokens

from helpers import sliding_hamming_brute


def test_error_stats_on_perfect_estimate():
    exact = DistanceProfile([3, 0, 12], "exact")
    est = DistanceProfile([3.0, 0.0, 12.0], "estimate")
    s = error_stats(est, exact, 0.1)
    assert s["n_windows"] == 3
    assert s["fraction_within_epsilon"] == 1.0
    assert s["max_relative_error"] == 0.0
    assert s["p95_relative_error"] == 0.0
    assert s["mean_relative_error"] == 0.0


def test_epsilon_band_is_inclusive():
    exact = np.array([4.0, 4.0])
    assert within_epsilon(np.array([5.0, 3.0]), exact, 0.25).all()
    assert not within_epsilon(np.array([5.0000001, 4.0]), exact, 0.25)[0]
    assert fraction_within_epsilon([5.0, 6.0], exact, 0.25) == 0.5


def test_zero_window_conventions():
    exact = np.array([0.0, 0.0, 2.0])
    est = np.array([0.0, 0.5, 2.0])
    rel = relative_errors(est, exact)
    assert rel[0] == 0.0
    assert np.isinf(rel[1])
    assert rel[2] == 0.0
    ok = within_epsilon(est, exact, 0.5)
    assert ok.tolist() == [True, False, True]
    s = error_stats(est, exact, 0.5)
    assert np.isinf(s["max_relative_error"])
    # percentile and mean are over the finite errors only
    assert s["p95_relative_error"] == 0.0
    assert s["mean_relative_error"] == 0.0


def test_stats_reject_length_mismatch():
    with pytest.raises(ValueError):
        relative_errors([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        within_epsilon([1.0], [1.0, 2.0], 0.1)


def _gen(tmp_path, n=64, m=8, sigma=8, seed=5, fmt="tokens", model="uniform"):
    text = tmp_path / "text.txt"
    pattern = tmp_path / "pattern.txt"
    rc = main([
        "gen", "--n", str(n), "--m", str(m), "--sigma", str(sigma),
        "--model", model, "--seed", str(seed),
        "--text", str(text), "--pattern", str(pattern),
        "--input-format", fmt,
    ])
    assert rc == 0
    return text, pattern


def test_gen_few_pairs_model_matches_library(tmp_path):
    text, pattern = _gen(tmp_path, n=96, m=16, sigma=32, seed=3, model="few_pairs")
    want_t, want_p = generate_instance(96, 16, 32, "few_pairs", 3)
    assert np.array_equal(read_tokens(text).symbols, want_t.symbols)
    assert np.array_equal(read_tokens(pattern).symbols, want_p.symbols)


def test_gen_then_exact_small_instance(tmp_path):
    text, pattern = _gen(tmp_path, n=3, m=2, sigma=4, seed=1)
    out = tmp_path / "prof.csv"
    rc = main(["exact", "--text", str(text), "--pattern", str(pattern), "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "pos,value"
    assert len(lines) == 3  # header + one row per window
    want = sliding_hamming_brute(read_tokens(text), read_tokens(pattern))
    assert np.array_equal(read_profile_csv(out), want)


def test_exact_naive_and_conv_agree_via_cli(tmp_path):
    text, pattern = _gen(tmp_path)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["exact", "--text", str(text), "--pattern", str(pattern),
                 "--out", str(a), "--algo", "naive"]) == 0
    assert main(["exact", "--text", str(text), "--pattern", str(pattern),
                 "--out", str(b), "--algo", "conv"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_byte_format_round_trip(tmp_path):
    text, pattern = _gen(tmp_path, sigma=256, fmt="bytes")
    out = tmp_path / "prof.csv"
    rc = main(["exact", "--text", str(text), "--pattern", str(pattern),
               "--out", str(out), "--input-format", "bytes"])
    assert rc == 0
    assert read_profile_csv(out).size == 57


def test_karloff_cli_round_and_stats(tmp_path):
    text, pattern = _gen(tmp_path)
    out = tmp_path / "est.csv"
    rc = main(["karloff", "--text", str(text), "--pattern", str(pattern),
               "--out", str(out), "--epsilon", "0.25", "--seed", "3",
               "--reps", "5", "--round", "--stats"])
    assert rc == 0
    for line in out.read_text().splitlines()[1:]:
        _, value = line.split(",")
        int(value)  # rounded output stores integers
    stats = json.loads((tmp_path / "est.csv.stats.json").read_text())
    assert set(stats) == {
        "n_windows", "fraction_within_epsilon", "max_relative_error",
        "p95_relative_error", "mean_relative_error",
    }
    assert stats["n_windows"] == 57


def test_approx_cli_reruns_byte_identical(tmp_path):
    text, pattern = _gen(tmp_path, n=128, m=16)
    args = ["approx", "--text", str(text), "--pattern", str(pattern),
            "--epsilon", "0.25", "--seed", "9", "--reps", "3"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_approx_cli_dump_dprime(tmp_path):
    text, pattern = _gen(tmp_path, n=128, m=16)
    out = tmp_path / "est.csv"
    dump = tmp_path / "noise.csv"
    rc = main(["approx", "--text", str(text), "--pattern", str(pattern),
               "--out", str(out), "--epsilon", "0.25", "--seed", "9",
               "--reps", "2", "--dump-dprime", str(dump)])
    assert rc == 0
    lines = dump.read_text().splitlines()
    assert lines[0] == "window,u,v,dprime"
    for line in lines[1:]:
        w, u, v, val = (int(f) for f in line.split(","))
        assert 0 <= w < 113
        assert u != v
        assert val > 0


def test_bench_csv_and_json(tmp_path):
    out = tmp_path / "bench.csv"
    mirror = tmp_path / "bench.json"
    rc = main(["bench", "--n", "64", "128", "--m", "8", "--sigma", "8",
               "--epsilon", "0.25", "--seed", "2", "--reps", "2",
               "--algos", "exact,approx", "--out", str(out), "--json", str(mirror)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "algo,n,m,sigma,epsilon,seconds,frac_within_eps,max_rel_err"
    assert len(lines) == 5  # 2 sizes x 1 epsilon x 2 algos
    rows = json.loads(mirror.read_text())
    assert len(rows) == 4
    for row in rows:
        if row["algo"] == "exact":
            assert row["frac_within_eps"] == 1.0
            assert row["max_rel_err"] == 0.0


def test_alphabet_above_4096_takes_the_convolution_route(tmp_path):
    text, pattern = _gen(tmp_path, n=300, m=20, sigma=5000, seed=1)
    io = ["--text", str(text), "--pattern", str(pattern)]
    out = tmp_path / "exact.csv"
    want = sliding_hamming_brute(read_tokens(text), read_tokens(pattern))
    for algo in ([], ["--algo", "conv"]):
        assert main(["exact"] + io + ["--out", str(out)] + algo) == 0
        assert np.array_equal(read_profile_csv(out), want)
    # no `auto` choice: one fast route serves every alphabet
    with pytest.raises(SystemExit) as exc:
        main(["exact"] + io + ["--out", str(out), "--algo", "auto"])
    assert exc.value.code == 1
    for cmd in ("karloff", "approx"):
        est = tmp_path / f"{cmd}.csv"
        rc = main([cmd] + io + ["--out", str(est), "--epsilon", "0.25",
                                "--seed", "1", "--reps", "2", "--stats"])
        assert rc == 0
        stats = json.loads((tmp_path / f"{cmd}.csv.stats.json").read_text())
        assert stats["n_windows"] == 281
    mirror = tmp_path / "bench.json"
    rc = main(["bench", "--n", "300", "--m", "20", "--sigma", "5000",
               "--epsilon", "0.25", "--seed", "1", "--reps", "2",
               "--out", str(tmp_path / "bench.csv"), "--json", str(mirror)])
    assert rc == 0
    rows = json.loads(mirror.read_text())
    assert [r["algo"] for r in rows] == ["exact", "karloff", "approx"]
    assert rows[0]["frac_within_eps"] == 1.0


def test_usage_errors_exit_one(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["exact", "--text", "t"])  # missing required flags
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["profile"])  # unknown subcommand
    assert exc.value.code == 1
    # domain errors funnel to exit 1 without a traceback: an epsilon above
    # 1/2, and one so small that k would pass the family cap 2^62
    text, pattern = _gen(tmp_path)
    for eps in ("0.75", "1e-10"):
        rc = main(["karloff", "--text", str(text), "--pattern", str(pattern),
                   "--out", str(tmp_path / "x.csv"), "--epsilon", eps, "--seed", "1"])
        assert rc == 1
        assert "epsilon" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()
    with pytest.raises(SystemExit) as exc:
        main(["exact", "--text", str(text), "--pattern", str(pattern),
              "--out", str(tmp_path / "y.csv"), "--backend", "fft"])  # no such flag
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["approx", "--text", str(text), "--pattern", str(pattern),
              "--out", str(tmp_path / "z.csv"), "--epsilon", "0.25", "--seed", "1",
              "--share-dprime"])  # sharing is the default; the flag is gone
    assert exc.value.code == 1


@pytest.mark.parametrize("algo", ["approx", "karloff"])
@pytest.mark.parametrize("reps", ["0", "-1"])
def test_repetition_counts_below_one_exit_one(tmp_path, capsys, algo, reps):
    text, pattern = _gen(tmp_path)
    out = tmp_path / "out.csv"
    rc = main([algo, "--text", str(text), "--pattern", str(pattern), "--out", str(out),
               "--epsilon", "0.25", "--seed", "1", "--reps", reps])
    assert rc == 1
    assert f"reps must be >= 1, got {reps}" in capsys.readouterr().err
    assert not out.exists()


def test_bench_unknown_algo_exits_one(capsys):
    rc = main(["bench", "--n", "64", "--m", "8", "--sigma", "4",
               "--epsilon", "0.25", "--seed", "0", "--algos", "exact,magic"])
    assert rc == 1
    assert "magic" in capsys.readouterr().err


@pytest.mark.parametrize("algos", [",", " , ", ""])
def test_bench_without_algos_exits_one(tmp_path, capsys, algos):
    # used to exit 0 with a header-only CSV
    out = tmp_path / "bench.csv"
    rc = main(["bench", "--n", "64", "--m", "8", "--sigma", "4",
               "--epsilon", "0.25", "--seed", "0", "--algos", algos, "--out", str(out)])
    assert rc == 1
    assert "names no algo" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seed", [-1, 1 << 64])
@pytest.mark.parametrize("cmd", ["gen", "karloff", "approx", "bench"])
def test_seeds_outside_64_bits_exit_one(tmp_path, capsys, cmd, seed):
    # the seed derivation keeps 64 bits: -1 used to run as 2^64 - 1, and
    # 2^64 + 3 as 3
    text, pattern = _gen(tmp_path)
    out = tmp_path / "out.csv"
    argv = {
        "gen": ["gen", "--n", "64", "--m", "8", "--sigma", "8",
                "--text", str(tmp_path / "t.txt"), "--pattern", str(tmp_path / "p.txt")],
        "karloff": ["karloff", "--text", str(text), "--pattern", str(pattern),
                    "--out", str(out), "--epsilon", "0.25"],
        "approx": ["approx", "--text", str(text), "--pattern", str(pattern),
                   "--out", str(out), "--epsilon", "0.25"],
        "bench": ["bench", "--n", "64", "--m", "8", "--sigma", "4", "--epsilon", "0.25",
                  "--out", str(out)],
    }[cmd]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", str(seed)])
    assert exc.value.code == 1
    assert "outside [0, 2^64)" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "t.txt").exists()
    # the ends of the range still run
    for edge in (0, (1 << 64) - 1):
        assert main(argv + ["--seed", str(edge)]) == 0


def test_io_errors_exit_two(tmp_path, capsys):
    rc = main(["exact", "--text", str(tmp_path / "missing.txt"),
               "--pattern", str(tmp_path / "missing.txt"),
               "--out", str(tmp_path / "out.csv")])
    assert rc == 2
    assert "missing.txt" in capsys.readouterr().err

    bad = tmp_path / "bad.txt"
    bad.write_text("4 1 zz 3\n")
    rc = main(["exact", "--text", str(bad), "--pattern", str(bad),
               "--out", str(tmp_path / "out.csv")])
    assert rc == 2
    assert "'zz'" in capsys.readouterr().err

    # a token beyond int32 or int64 is out of the alphabet, not wrapped into it
    for token in ("4294967299", "99999999999999999999"):
        bad.write_text(f"16\n1 2 {token} 5\n")
        rc = main(["exact", "--text", str(bad), "--pattern", str(bad),
                   "--out", str(tmp_path / "out.csv")])
        assert rc == 2
        assert str(bad) in capsys.readouterr().err


def test_mismatched_inputs_exit_two(tmp_path, capsys):
    text, _ = _gen(tmp_path, n=32, m=4, sigma=4)
    other = tmp_path / "other.txt"
    other.write_text("8 1 2 3\n")
    rc = main(["exact", "--text", str(text), "--pattern", str(other),
               "--out", str(tmp_path / "out.csv")])
    assert rc == 2
    assert "alphabets" in capsys.readouterr().err
    long_pat = tmp_path / "long.txt"
    long_pat.write_text("4 " + " ".join("1" * 40) + "\n")
    text_small = tmp_path / "small.txt"
    text_small.write_text("4 1 2\n")
    rc = main(["exact", "--text", str(text_small), "--pattern", str(long_pat),
               "--out", str(tmp_path / "out.csv")])
    assert rc == 2
    assert "longer" in capsys.readouterr().err


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert out.count("ok ") == 4
    assert "ok D' == top-capacity of naive pair counts, sort and grid routes" in out
    assert "ok approx grid-route executions == FFT signed matches + D' correction" in out
    assert "FAIL" not in out
