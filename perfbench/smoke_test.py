"""Smoke test of the benchmark itself, one op per workload at the bench size.

Run from the repository root (it is not part of the tier-1 suite):

    python3 -m pytest -q perfbench/smoke_test.py

It runs the workloads of BENCHMARK.json untraced and traced, and fleet6
traced, and checks that the last stdout line carries every metric
BENCHMARK.json names, with its unit.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


def check_result(result: dict, section: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCH[section]}
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(trace, section):
    results = run("all", trace)
    assert sorted(results) == sorted(w["name"] for w in BENCH["workloads"])
    for result in results.values():
        check_result(result, section)


def test_fleet6_runs_by_name():
    check_result(run("fleet6", 1), "per_layer")


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper3", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
