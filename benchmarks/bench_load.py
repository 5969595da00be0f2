"""Load-harness benchmark: pinned scenario vs the recorded baseline.

Runs the ``bench-pin`` preset (24 deterministic random circuits,
linear4, cache disabled, seed 20220308) through
:class:`repro.loadgen.LoadRunner` serially and with two consumers, and
compares against the committed recording in
``benchmarks/baselines/BENCH_load_baseline.json`` (captured by
``record_load_baseline.py``).  Writes ``benchmarks/_results/
BENCH_load.json`` with both runs' throughput and tail latencies.

Hard guarantees asserted here:

* the expanded job list's fingerprint digest equals the baseline's —
  the deterministic workload expansion cannot drift silently (a seed
  or draw-order change fails before any timing gate),
* serial and parallel runs merge to identical counters and identical
  latency-histogram counts (the registry's order-independence
  property, end to end through the harness),
* the serial wall time, restated at the recording's host speed, is no
  worse than the baseline within :data:`NO_WORSE_SLACK` (the same 25%
  as ``bench_compile.py``).  Host speed is measured as in
  ``bench_compile.py``: perfbench's fixed pure-Python reference loop
  (``harness.reference_seconds``) is timed before and after every
  serial run, here and when the baseline was recorded, and the fastest
  of :data:`SERIAL_REPEATS` runs at equal host speed is compared,
* the pinned run trips no soak detector (it is far too short for the
  trend checks to conclude, and the memory check must stay
  inconclusive below its span floor rather than extrapolating noise),
* the resilience machinery is inert when armed but uninjected: a
  supervised run with retry + timeout set (no chaos plan) costs within
  :data:`RESILIENCE_SLACK` of the default, unarmed supervised run on
  the same jobs and produces bit-identical schedules.

Run with ``pytest benchmarks/bench_load.py``.
"""

import hashlib
import json
import os
import sys
import time

from conftest import write_result

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench")
)
from harness import reference_seconds  # noqa: E402

BASELINE_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    "baselines",
    "BENCH_load_baseline.json",
)

NO_WORSE_SLACK = 1.25

#: Serial runs per timing, here and in the recording; the fastest at
#: equal host speed is compared (the least-noise statistic, as in
#: ``bench_compile.py``).
SERIAL_REPEATS = 3

#: Allowed overhead of arming retry + timeout (uninjected) over the
#: default, unarmed supervised path (a <=5% inertness budget).
RESILIENCE_SLACK = 1.05

#: Interleaved A/B repetitions for the inertness gate (minima compared,
#: as in ``bench_compile.py``'s obs overhead gate).
RESILIENCE_REPEATS = 3

#: Counters that must merge identically no matter the consumer count.
MERGE_KEYS = (
    "load.jobs",
    "load.ok",
    "batch.jobs",
    "batch.jobs_ok",
    "batch.cache_misses",
)


def jobs_digest(scenario) -> str:
    """SHA-256 over the expanded job list's content fingerprints."""
    count = scenario.job_count()
    fingerprints = [
        job.fingerprint() for job in scenario.draw_jobs(count)
    ]
    return hashlib.sha256("\n".join(fingerprints).encode()).hexdigest()


def _run(consumers):
    from repro.loadgen import LoadRunner, PRESETS

    return LoadRunner(PRESETS["bench-pin"], consumers=consumers).run()


def fastest_serial_run():
    """The fastest of :data:`SERIAL_REPEATS` serial runs at equal host
    speed, with that speed: the report and the mean of the reference
    loop timed just before and just after it."""
    runs = []
    for _ in range(SERIAL_REPEATS):
        before = reference_seconds()
        report = _run(consumers=1)
        runs.append((report, (before + reference_seconds()) / 2))
    return min(runs, key=lambda run: run[0].duration_seconds / run[1])


def _summarize(report) -> dict:
    return {
        "consumers": report.consumers,
        "wall_seconds": round(report.duration_seconds, 4),
        "jobs_per_s": round(
            report.throughput["overall_jobs_per_s"], 3
        ),
        "p50_ms": round(report.latency["p50"] * 1000, 3),
        "p90_ms": round(report.latency["p90"] * 1000, 3),
        "p99_ms": round(report.latency["p99"] * 1000, 3),
        "counts": report.counts,
    }


def test_load_harness_vs_baseline(results_dir):
    from repro.loadgen import PRESETS

    with open(BASELINE_PATH, encoding="utf-8") as handle:
        baseline = json.load(handle)

    scenario = PRESETS["bench-pin"]
    digest = jobs_digest(scenario)
    assert digest == baseline["jobs_fingerprint_digest"], (
        "the bench-pin workload expansion drifted from the baseline "
        "recording: seeded scenario -> job-list determinism is broken "
        "(or the preset changed without re-recording the baseline)"
    )

    serial, reference = fastest_serial_run()
    parallel = _run(consumers=2)

    # Order-independent merges: same counters, same histogram mass.
    for key in MERGE_KEYS:
        assert (
            serial.metrics["counters"].get(key)
            == parallel.metrics["counters"].get(key)
        ), f"counter {key} differs between serial and parallel runs"
    assert serial.counts == parallel.counts, (
        f"outcome counts differ: serial (1 consumer) {serial.counts}, "
        f"parallel (2 consumers) {parallel.counts}"
    )
    serial_hist = serial.metrics["histograms"]["load.latency_seconds"]
    parallel_hist = parallel.metrics["histograms"]["load.latency_seconds"]
    assert serial_hist["count"] == parallel_hist["count"], (
        "load.latency_seconds histogram mass differs: serial (1 "
        f"consumer) {serial_hist['count']}, parallel (2 consumers) "
        f"{parallel_hist['count']}"
    )

    # The pinned run must conclude clean: nothing trips, and the
    # sub-second memory series stays inconclusive instead of
    # extrapolating allocator warm-up into a fake leak.
    for run, report in (("serial", serial), ("parallel", parallel)):
        assert report.passed, (
            f"the {run} run ({report.consumers} consumers) tripped soak "
            "detectors: "
            + ", ".join(
                f"{trip.name}={trip.value} (threshold {trip.threshold})"
                for trip in report.tripped
            )
        )

    # Host speed: the serial wall time restated at the recording's
    # host speed, by the ratio of the reference loop's times.
    speed = baseline["reference_seconds"] / reference
    serial_wall = serial.duration_seconds * speed
    base_wall = baseline["serial"]["wall_seconds"]
    summary = {
        "scenario": "bench-pin",
        "jobs_fingerprint_digest": digest,
        "baseline_label": baseline.get("label", "baseline"),
        "reference_seconds": round(reference, 5),
        "baseline_reference_seconds": baseline["reference_seconds"],
        "speed_factor": round(speed, 4),
        "serial": _summarize(serial),
        "parallel": _summarize(parallel),
        "serial_wall_seconds_at_baseline_speed": round(serial_wall, 4),
        "serial_speedup_vs_baseline": round(base_wall / serial_wall, 3),
    }
    write_result(
        results_dir, "BENCH_load.json", json.dumps(summary, indent=2)
    )

    assert serial_wall <= base_wall * NO_WORSE_SLACK, (
        f"load harness regressed: {serial_wall:.2f}s vs baseline "
        f"{base_wall:.2f}s serial wall time (at the recording's host "
        f"speed; speed factor {speed:.2f})"
    )


def test_resilience_machinery_is_inert_when_uninjected(results_dir):
    """Armed-but-uninjected resilience must be (nearly) free and exact.

    * **Overhead gate** — running a fixed job list with retry policy
      + 60s timeout armed (*no* chaos plan) must cost within
      :data:`RESILIENCE_SLACK` of the default, unarmed run (both on
      the supervised pool at two workers), i.e. arming retry and
      timeout is nearly free.  Minima of interleaved A/B repetitions
      are compared so host drift hits both sides equally.
    * **Identity gate** — both paths produce bit-identical schedule
      fingerprints, all outcomes ``ok`` in one attempt, and the armed
      run increments none of the resilience counters.
    """
    from repro import obs
    from repro.arch.presets import machine_from_spec
    from repro.batch import BatchRunner, sweep
    from repro.batch.fingerprint import fingerprint
    from repro.bench import random_circuit
    from repro.compiler.config import CompilerConfig
    from repro.resilience import RetryPolicy

    machine = machine_from_spec("linear4")
    circuits = [random_circuit(24, 140, seed=s) for s in range(12)]
    jobs = sweep(circuits, machine, CompilerConfig.optimized())

    def default_runner():
        return BatchRunner(n_jobs=2)

    def armed_runner():
        return BatchRunner(
            n_jobs=2,
            retry=RetryPolicy(max_attempts=3),
            timeout=60.0,
        )

    def timed_run(make_runner):
        start = time.perf_counter()
        results = make_runner().run(jobs)
        return time.perf_counter() - start, results

    # Warm-up pair (fork/page-cache effects hit both sides once).
    _, default_results = timed_run(default_runner)
    _, armed_results = timed_run(armed_runner)

    default_fps = [
        fingerprint(list(r.result.schedule)) for r in default_results
    ]
    armed_fps = [fingerprint(list(r.result.schedule)) for r in armed_results]
    assert default_fps == armed_fps, (
        "arming retry and timeout changed compilation output"
    )
    for result in armed_results:
        assert result.ok and result.outcome == "ok"
        assert result.attempts == 1

    default_times, armed_times = [], []
    for _ in range(RESILIENCE_REPEATS):
        default_times.append(timed_run(default_runner)[0])
        armed_times.append(timed_run(armed_runner)[0])
    default_s, armed_s = min(default_times), min(armed_times)

    # Counter inertness: one armed run under an observation must leave
    # every resilience/chaos counter untouched.
    with obs.observe() as observation:
        armed_runner().run(jobs)
    counters = observation.metrics.counters
    for name in (
        "batch.retries",
        "batch.timeouts",
        "batch.worker_deaths",
        "batch.quarantined",
        "batch.poisoned",
        "chaos.injected",
        "cache.corrupt",
    ):
        assert counters.get(name, 0) == 0, (
            f"uninjected armed run incremented {name}"
        )

    write_result(
        results_dir,
        "BENCH_resilience_inertness.json",
        json.dumps(
            {
                "jobs": len(jobs),
                "default_wall_seconds": round(default_s, 4),
                "armed_wall_seconds": round(armed_s, 4),
                "overhead_ratio": round(armed_s / default_s, 4),
                "slack": RESILIENCE_SLACK,
            },
            indent=2,
        ),
    )

    assert armed_s <= default_s * RESILIENCE_SLACK, (
        f"armed-but-uninjected resilience is not inert: {armed_s:.3f}s "
        f"armed vs {default_s:.3f}s default "
        f"(> {(RESILIENCE_SLACK - 1) * 100:.0f}% overhead)"
    )
