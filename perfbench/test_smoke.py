"""Smoke test of the benchmark at tiny sizes.

Run from the root of the repository: python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--scale", "tiny", "--seconds", "0.2", *args],
        capture_output=True, text=True, cwd=cwd, timeout=170, check=False,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload: str, trace: str) -> None:
    proc = run("--workload", workload, "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    *notes, last = proc.stdout.splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace == "1" else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    printed = {line.split()[0]: line.split()[-1] for line in notes if line.startswith("  ")}
    assert all(printed.get(name) == unit for name, unit in declared.items())
    assert "  ops_failed_ratio 0 (" in proc.stdout


def test_a_wrong_recorded_value_fails_the_run() -> None:
    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    expected["tiny"]["text_corpus"]["evaluate"]["text"]["chrf"] += 1e-9
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        path = Path(tmp) / "expected.json"
        path.write_text(json.dumps(expected), encoding="utf-8")
        proc = run("--workload", "text_corpus", "--expected", str(path))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert not result["correct"] and result["failed"] > 0
    ratio = next(line.split()[1] for line in proc.stdout.splitlines() if "ops_failed_ratio" in line)
    assert float(ratio) > 0
    assert "evaluate differs from the recorded value" in proc.stderr


def test_refuses_to_run_without_the_sources() -> None:
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("--workload", "text_corpus", cwd=Path(tmp))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
