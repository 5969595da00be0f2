"""Smoke tests of the benchmark itself: every workload at ``--seconds 1``.

Run with ``python -m pytest perfbench/check_smoke.py -q`` (about two
minutes).  The file name keeps it out of the repository's default test
collection: these tests start servers and take wall-clock time.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
COUNT_METRICS = ("success_ratio", "shuttles_per_kgate", "neg_log10_fidelity_per_kgate")


def run(workload: str, trace: int, seed: int = 5, cwd: Path = ROOT):
    command = BENCHMARK["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", "1",
        "--trace", str(trace),
    ]
    done = subprocess.run(
        [sys.executable if part == "python3" else part for part in command],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    lines = done.stdout.strip().splitlines()
    return done.returncode, (json.loads(lines[-1]) if lines else None), done


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_run_is_correct_and_counts_repeat(workload):
    first_rc, first, done = run(workload, trace=0)
    assert first_rc == 0, done.stderr
    assert set(first) == {"correct", "attempted", "failed", "metrics"}
    assert first["correct"] and first["failed"] == 0 and first["attempted"] >= 1
    names = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == names
    assert all(v["value"] > 0 for v in first["metrics"].values())

    second_rc, second, done = run(workload, trace=0)
    assert second_rc == 0, done.stderr
    for name in COUNT_METRICS:
        assert second["metrics"][name]["value"] == first["metrics"][name]["value"]

    _, other_seed, done = run(workload, trace=0, seed=6)
    assert other_seed["correct"], done.stderr
    assert set(other_seed["metrics"]) == set(first["metrics"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_and_counts_repeat(workload):
    rc, first, done = run(workload, trace=1)
    assert rc == 0, done.stderr
    assert first["correct"]
    names = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == names

    _, second, _ = run(workload, trace=1)
    for name, unit in names.items():
        if unit == "count":
            assert second["metrics"][name]["value"] == first["metrics"][name]["value"], name


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path)
    rc, result, _ = run(WORKLOADS[0], trace=0, cwd=tmp_path)
    assert rc != 0
    assert result is None
