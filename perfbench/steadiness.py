"""Run one workload over several seeds and report each end-to-end
metric's spread: the distance between the first and third quartile of
its values (``statistics.quantiles(values, n=4)``) as a share of their
median, next to the metric's bound from BENCHMARK.json.

    python3 perfbench/steadiness.py --workload serve-fresh --seeds 1-10

Prints one line per run (with the host's steal share and speed
factor), then a Markdown table; "raw spread" is the same figure for
the timings before they are stated at the nominal host speed.  Runs
are sequential: the benchmark itself keeps two cores busy.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or benchmark["run_seconds"]
    first, last = (int(part) for part in args.seeds.split("-"))

    runs = []
    raws = []
    for seed in range(first, last + 1):
        done = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if done.returncode or not result["correct"]:
            print(done.stderr, file=sys.stderr)
            return 1
        runs.append(result["metrics"])
        raws.append(dict(re.findall(r"(\w+)=(\S+)", done.stderr)))
        steal = re.search(r"cpu steal (\S+)", done.stderr)
        speed = re.search(r"host speed (\S+);", done.stderr)
        print(f"seed {seed} (steal {steal.group(1) if steal else '?'}, "
              f"speed {speed.group(1) if speed else '?'}): " + " ".join(
            f"{name}={metric['value']:.6g}" for name, metric in result["metrics"].items()
        ), flush=True)

    print(f"\n{args.workload}, {len(runs)} seeds ({args.seeds}), --seconds {seconds}\n")
    print("| metric | median | q1 | q3 | spread | bound | raw spread |")
    print("|---|---|---|---|---|---|---|")
    for metric in benchmark["end_to_end"]:
        name = metric["name"]
        values = [run[name]["value"] for run in runs]
        middle, q1, q3, spread = _spread(values)
        raw = (
            f"{_spread([float(r[name]) for r in raws])[3]:.4f}"
            if all(name in r for r in raws) else ""
        )
        print(f"| `{name}` | {middle:.6g} | {q1:.6g} | {q3:.6g} "
              f"| {spread:.4f} | {metric['bound']} | {raw} |")
    return 0


def _spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return middle, q1, q3, (q3 - q1) / middle


if __name__ == "__main__":
    sys.exit(main())
