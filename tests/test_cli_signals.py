"""Signal-handling subprocess tests for the CLI entry points.

Each test runs ``python -m repro …`` as a real child process and
delivers real signals, pinning the operational contracts:

* ``repro load`` / ``repro sweep`` on SIGINT: stop dispatching, drain
  in-flight work, emit a partial-but-marked report, exit **130**;
* ``repro serve`` on SIGTERM: stop admitting, drain within the
  deadline, exit **0** with a ``drained clean`` line.

Marked ``slow``: each test pays interpreter start-up plus a few
seconds of live traffic.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.loadgen.scenario import Scenario, WorkloadItem
from repro.serve.client import ServeClient

pytestmark = pytest.mark.slow

REPO_ROOT = Path(__file__).resolve().parents[1]


def _spawn(*argv: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    )
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *argv],
        cwd=REPO_ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


class _StderrTail:
    """Collects a child's stderr on a thread so the test can wait for
    marker lines without risking a pipe-buffer deadlock."""

    def __init__(self, proc: subprocess.Popen) -> None:
        self.lines: list[str] = []
        self._proc = proc
        self._thread = threading.Thread(target=self._pump, daemon=True)
        self._thread.start()

    def _pump(self) -> None:
        for line in self._proc.stderr:
            self.lines.append(line)

    def wait_for(self, needle: str, timeout: float = 30.0) -> str:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            for line in list(self.lines):
                if needle in line:
                    return line
            if self._proc.poll() is not None and not self._thread.is_alive():
                break
            time.sleep(0.05)
        raise AssertionError(
            f"never saw {needle!r} in stderr:\n{''.join(self.lines)}"
        )

    def text(self) -> str:
        self._thread.join(timeout=10)
        return "".join(self.lines)


def _long_scenario(path: Path) -> Path:
    """A duration-bounded closed loop that would run ~30 s untouched —
    plenty of runway for a mid-run SIGINT."""
    scenario = Scenario(
        name="sigint-probe",
        mix=(WorkloadItem("random", qubits=12, gates=60),),
        machines=("linear3",),
        mode="closed",
        consumers=2,
        duration=30.0,
        cache="disabled",
        sample_interval=0.25,
    )
    target = path / "scenario.json"
    target.write_text(json.dumps(scenario.to_dict()))
    return target


class TestLoadSigint:
    def test_drains_and_exits_130_with_partial_report(self, tmp_path):
        report_path = tmp_path / "report.json"
        proc = _spawn(
            "load",
            str(_long_scenario(tmp_path)),
            "--report-out",
            str(report_path),
        )
        tail = _StderrTail(proc)
        try:
            tail.wait_for("load: scenario sigint-probe")
            time.sleep(1.0)  # let some jobs complete first
            proc.send_signal(signal.SIGINT)
            returncode = proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
        assert returncode == 130, tail.text()
        report = json.loads(report_path.read_text())
        assert report["interrupted"] is True
        # The drain kept the ledger intact: nothing vanished.
        assert report["resilience"]["lost"] == 0
        assert "partial report" in tail.text()


class TestSweepSigint:
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_partial_sweep_exits_130(self, tmp_path, jobs):
        # ~20 jobs x ~150 ms keeps total runtime bounded even if the
        # signal were mishandled, while leaving seconds of runway.
        benchmarks = ",".join(
            f"random:48:3000:{seed}" for seed in range(1, 21)
        )
        proc = _spawn(
            "sweep",
            "--machines",
            "linear4",
            "--benchmarks",
            benchmarks,
            "--configs",
            "baseline",
            "--no-cache",
            "--jobs",
            jobs,
        )
        tail = _StderrTail(proc)
        try:
            tail.wait_for("[1/20]")  # first job done: mid-run for sure
            proc.send_signal(signal.SIGINT)
            returncode = proc.wait(timeout=120)
            stdout = proc.stdout.read()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
        assert returncode == 130, tail.text()
        assert "INTERRUPTED: partial sweep" in stdout


class TestServeSigterm:
    def test_drains_clean_and_exits_zero(self):
        proc = _spawn(
            "serve",
            "--port",
            "0",
            "--workers",
            "1",
            "--queue-depth",
            "8",
            "--drain-deadline",
            "60",
        )
        tail = _StderrTail(proc)
        try:
            line = tail.wait_for("repro serve: listening on")
            url = line.split("listening on", 1)[1].split()[0]
            client = ServeClient(url, identity="sigterm-test")
            assert client.wait_until_up(timeout=10.0)
            spec = {
                "kind": "random",
                "machine": "linear3",
                "config": "optimized",
                "qubits": 8,
                "gates": 30,
                "seed": 5,
            }
            body = client.submit(spec).body
            done = client.wait(body["id"], timeout=60)
            assert done.body["outcome"] == "ok"
            proc.send_signal(signal.SIGTERM)
            returncode = proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
        assert returncode == 0, tail.text()
        assert "drained clean" in tail.text()
