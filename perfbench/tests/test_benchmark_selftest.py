"""Self-test of the benchmark at toy sizes.

Runs perfbench/run.py the way BENCHMARK.json's command does and checks its
output contract: every metric BENCHMARK.json names is emitted with its unit,
the exact counts of the traced run repeat across two runs, and without the
library sources the benchmark fails before printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT_COUNTS = (
    "correlation.fft_points",
    "sparse_recovery.projections",
    "sparse_recovery.pair_entries",
    "sparse_recovery.noise_entries",
    "sparse_recovery.windows_at_capacity",
)


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(workload, trace, specs):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {s["name"] for s in specs}
    for s in specs:
        metric = result["metrics"][s["name"]]
        assert metric["unit"] == s["unit"]
        assert isinstance(metric["value"], float)
    return result["metrics"]


@pytest.mark.parametrize("workload", ["toy_dense16", "toy_sparse", "toy_few_pairs"])
def test_traced_run_emits_layers_and_repeats_counts(workload):
    first = _result(workload, 1, SPEC["per_layer"])
    second = _result(workload, 1, SPEC["per_layer"])
    for name in EXACT_COUNTS:
        assert first[name]["value"] == second[name]["value"], name


def test_untraced_run_emits_end_to_end_metrics():
    metrics = _result("toy_dense16", 0, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in metrics.values())


def test_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("toy_dense16", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
