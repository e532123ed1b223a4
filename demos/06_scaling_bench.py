"""How the estimators scale as eps shrinks, via the bench subcommand.

At sigma=16 the signed matches take the symbol-pair route: they weight each
aligned symbol pair by its signature agreement A in {-1, 0, 1}, so
karloff's time no longer grows with its 1/eps^2 family. With 16 symbols a
side (no more than 2*log2 of the FFT length) each execution's agreement
spectra are a product with the 16 symbol indicator spectra, transformed
once: s + L + reps FFTs in all rather than s + reps * (s + 1). approx's time
is mostly its exact pair counts, which eps does not change, so it stays about
flat too (ratios 0.87 and 1.03 in one run). At sigma=1024 both text and
pattern hold more occurring symbols than the family has members (16, 64 and
256 here), so karloff takes the Y groups: one signed row pair per Y value
present in both strings, and Y takes up to k values. Its rows grow with k,
4x per halving, and its time by 3.1x and 3.9x per halving (one run, seed
13, on a 2-core host). The CSV below makes both visible at a modest size;
rerun with a larger --n from the shell to sharpen the trend.
"""

import subprocess
import sys


def bench(sigma: int, algos: str) -> dict:
    cmd = [
        sys.executable, "-m", "hamsketch", "bench",
        "--n", "16384",
        "--m", "1024",
        "--sigma", str(sigma),
        "--epsilon", "0.4", "0.2", "0.1",
        "--seed", "13",
        "--reps", "3",
        "--algos", algos,
    ]
    print("$", " ".join(cmd[2:]))
    out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
    print(out)
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    return {(r[0], float(r[4])): float(r[5]) for r in rows}


for sigma, algos in ((16, "karloff,approx"), (1024, "karloff")):
    times = bench(sigma, algos)
    for algo in algos.split(","):
        r1 = times[(algo, 0.2)] / times[(algo, 0.4)]
        r2 = times[(algo, 0.1)] / times[(algo, 0.2)]
        print(f"sigma={sigma} {algo}: time ratio per eps halving {r1:.2f}, {r2:.2f}")
