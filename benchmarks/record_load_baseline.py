"""Record the load-harness baseline for ``bench_load.py``.

Runs the pinned ``bench-pin`` scenario serially and with two consumers
(the fastest of ``bench_load.SERIAL_REPEATS`` runs each) and writes
``benchmarks/baselines/BENCH_load_baseline.json`` (committed — the
regression reference ``bench_load.py`` gates against).  The recording
pins two things: the fastest serial run at equal host speed, together
with the host speed it was measured at (``reference_seconds``:
perfbench's reference loop, timed just before and after that run), so
the benchmark can restate a later run at this recording's host speed
(``bench_load.fastest_serial_run`` does both); and
a SHA-256 digest over the expanded job list's content fingerprints, so
any drift in the deterministic workload expansion (seed handling, draw
order, circuit generators) fails the benchmark before timing is even
consulted.  Re-run only to re-baseline deliberately::

    PYTHONPATH=src python benchmarks/record_load_baseline.py [label]
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "perfbench"))

BASELINE_DIR = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "baselines"
)
BASELINE_PATH = os.path.join(BASELINE_DIR, "BENCH_load_baseline.json")

def record() -> dict:
    from bench_load import (
        SERIAL_REPEATS,
        _run,
        _summarize,
        fastest_serial_run,
        jobs_digest,
    )
    from repro.loadgen import PRESETS

    serial, reference = fastest_serial_run()
    parallel = min(
        (_run(consumers=2) for _ in range(SERIAL_REPEATS)),
        key=lambda report: report.duration_seconds,
    )
    return {
        "label": sys.argv[1] if len(sys.argv) > 1 else "bench-pin baseline",
        "scenario": "bench-pin",
        "repeats": SERIAL_REPEATS,
        "reference_seconds": round(reference, 5),
        "jobs_fingerprint_digest": jobs_digest(PRESETS["bench-pin"]),
        "serial": _summarize(serial),
        "parallel": _summarize(parallel),
    }


def main() -> None:
    baseline = record()
    os.makedirs(BASELINE_DIR, exist_ok=True)
    with open(BASELINE_PATH, "w", encoding="utf-8") as handle:
        json.dump(baseline, handle, indent=2)
        handle.write("\n")
    print(f"wrote {BASELINE_PATH}")
    print(json.dumps(baseline, indent=2))


if __name__ == "__main__":
    main()
