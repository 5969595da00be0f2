"""Run one benchmark workload (or all of them) and print its metrics.

Usage::

    python3 perfbench/run.py --workload paper-suite --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20

Every metric is printed as ``workload  name  value unit  (n=samples)``;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.  Any
failed correctness check makes the exit code 1; a benchmark that
cannot run at all (no ``src/repro`` beside it) exits 2 with no result.
See README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

from harness import BenchmarkError, cpu_steal_ticks, end_to_end_metrics, require_repro

WORKLOADS = ("paper-suite", "serve-fresh", "serve-repeat")
#: End-to-end timings, reported at the nominal host speed (raw on stderr).
TIMINGS = ("jobs_per_s", "latency_p50_ms", "latency_p90_ms", "cpu_ms_per_job", "setup_s")
PASS_NAMES = ("elide-roundtrips", "fuse-merge-split", "reroute", "tighten-gates")
#: Layers timed by the benchmark's spans; each reports mean ms per call.
LAYER_TIMES = (
    "circuits.build",
    "compiler.map",
    "compiler.compile",
    "passes.optimize",
    "sim.simulate",
    "batch.fingerprint",
    "batch.cache_get",
    "batch.result_pickle",
    "resilience.service",
    "resilience.queue_dispatch",
    "serve.submit",
    "serve.status",
    "serve.fetch",
    "serve.poll_lag",
    "serve.sojourn",
)
#: Exact counts summed over the measured phase.
LAYER_COUNTS = (
    "compiler.ops",
    "compiler.shuttles",
    "passes.rewrites",
    "passes.ops_removed",
    "passes.reverted",
) + tuple(
    f"passes.{name}.{what}" for name in PASS_NAMES for what in ("rewrites", "ops_removed")
)


def per_layer_metrics(record: dict) -> dict[str, tuple[float, str, int]]:
    spans = record["spans"]
    metrics = {}
    for layer in LAYER_TIMES:
        metrics[f"{layer}_ms"] = (spans.mean_ms(layer), "ms", spans.calls.get(layer, 0))
    pickles = spans.calls.get("batch.result_pickle", 0)
    metrics["batch.result_pickle_bytes"] = (
        spans.counts.get("batch.result_pickle_bytes", 0) / pickles if pickles else 0.0,
        "B",
        pickles,
    )
    for name in LAYER_COUNTS:
        metrics[name] = (spans.counts.get(name, 0), "count", 1)
    jobs = record["outcome"].attempted
    metrics["serve.polls_per_job"] = (record.get("polls_per_job", 0.0), "polls/job", jobs)
    metrics["serve.cache_hit_ratio"] = (record["cache_hit_ratio"], "ratio", jobs)
    metrics["trace.unattributed_share"] = (record["unattributed_share"], "ratio", jobs)
    metrics["trace.overhead_ratio"] = (record["overhead_ratio"], "ratio", 2)
    return metrics


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    if name == "paper-suite":
        import paper_suite

        return paper_suite.run(seed, seconds, trace)
    import serve_load

    return serve_load.run(name, seed, seconds, trace)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    # SIGTERM unwinds like an exception, so every server started is
    # stopped and waited for by the ``finally`` blocks on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        require_repro()
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        steal_start, total_start = cpu_steal_ticks()
        records = {
            name: run_workload(name, args.seed, args.seconds, bool(args.trace))
            for name in names
        }
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    steal_end, total_end = cpu_steal_ticks()
    # Timings on a shared host are only comparable between runs with
    # similar steal; the share is printed so a reader can tell.
    print(f"perfbench: cpu steal {(steal_end - steal_start) / (total_end - total_start):.1%} "
          "of host CPU time during the run", file=sys.stderr)

    metrics_out = {}
    attempted = failed = 0
    for name, record in records.items():
        outcome = record["outcome"]
        metrics = (
            per_layer_metrics(record)
            if args.trace
            else end_to_end_metrics(
                outcome, record["setup_seconds"], record["peak_rss_mb"],
                record["rss_processes"],
            )
        )
        for metric, (value, unit, samples) in metrics.items():
            print(f"{name:<13} {metric:<36} {value:>14.6f} {unit:<9} (n={samples})")
            key = metric if len(records) == 1 else f"{name}/{metric}"
            metrics_out[key] = {"value": value, "unit": unit}
        if not args.trace:
            raw = end_to_end_metrics(
                outcome, record["raw_setup_seconds"], record["peak_rss_mb"],
                record["rss_processes"], normalized=False,
            )
            speeds = [block.speed for block in outcome.blocks]
            print(
                f"perfbench: {name}: host speed {min(speeds):.3f}-{max(speeds):.3f}; raw "
                + " ".join(f"{m}={raw[m][0]:.6g}" for m in TIMINGS),
                file=sys.stderr,
            )
        for failure in outcome.failures:
            print(f"perfbench: {name}: FAILED {failure}", file=sys.stderr)
        attempted += outcome.attempted
        failed += outcome.attempted - outcome.succeeded
    correct = not any(record["outcome"].failures for record in records.values())
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics_out,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
