#!/usr/bin/env python3
"""hamsketch benchmark: the exact, karloff and approx routes on one workload.

Run from the repository root:

    python3 perfbench/run.py --workload dense16 --seed 1 --seconds 30 --trace 0

The seed fixes the instance and every estimator seed. `--trace 0` times the
routes with nothing installed and reports the end-to-end metrics of
BENCHMARK.json. `--trace 1` runs the routes untraced, then again under the
span tracer of spans.py, and reports the per-layer metrics; measure.py holds
both. The last stdout line is the result object; the line before it is a
report with the environment, sample counts and SHA-256 of every profile.

The library is imported from ../src, never from an installed copy; without
those sources the benchmark exits 1 before measuring.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _prepare_interpreter() -> None:
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, nproc)
    if not (SRC / "hamsketch" / "__init__.py").is_file():
        sys.exit(f"perfbench: hamsketch sources not found under {SRC}")
    sys.path.insert(0, str(SRC))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    _prepare_interpreter()
    import measure
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        measure.probe(workload, args.seed)
        return 0

    checks = measure.Checks()
    report = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "environment": measure.environment()}
    if args.trace:
        units = measure.LAYER_UNITS
        values = measure.traced(workload, args.seed, args.seconds, checks, report)
    else:
        units = measure.E2E_UNITS
        values = measure.untraced(workload, args.seed, args.seconds, checks, report)
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
