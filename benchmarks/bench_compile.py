"""Compile/optimize/simulate/verify wall-time benchmark vs the baseline.

Times the four phases of the full pipeline on the paper suite
(reduced random ensemble, L6 machine) with the recorder's own
``time_suite`` and compares against the committed recording in
``benchmarks/baselines/BENCH_compile_baseline.json`` (captured by
``record_compile_baseline.py``).  Writes
``benchmarks/_results/BENCH_compile.json`` with per-circuit times,
per-phase speedups vs the baseline and the compile speedup vs the
pre-index recording.

Host speed is measured, not assumed: a fixed pure-Python reference
loop (perfbench's ``harness.reference_seconds``) is timed before
every circuit and after the last, here and when the baseline was
recorded, and this run's times are restated at the recording's host
speed by the ratio of the two.  So the gates hold on a slower or
faster host alike.

Hard guarantees asserted here:

* every compiled schedule's content fingerprint equals the baseline
  recording's — a compile-phase "optimization" that changes what the
  compiler emits fails here even if it is faster,
* neither compile nor optimize regresses more than
  :data:`NO_WORSE_SLACK` vs the baseline (the CI smoke job's >25%
  regression gate; the ~0.1s simulate and verify phases are too
  noise-dominated for per-phase wall-clock gates and are covered by
  the total instead),
* total wall time is no worse than the baseline within the same slack,
* the compile phase holds the :data:`MIN_COMPILE_SPEEDUP` × win over
  the baseline's ``pre_index`` recording (the tail-rescanning compiler
  the future-gate index retired, at perfbench's nominal host speed) —
  the indexed-decision speedup cannot silently erode.  (The
  incremental-verification engine's optimize win is pinned by the slack
  gate against the re-recorded optimize total, which was measured with
  that engine on.)
* the vectorized replay kernel holds its :data:`MIN_REPLAY_SPEEDUP` ×
  win over the scalar loop on the replay-dominated phases
  (simulate + verify), measured as an in-process A/B on the same host
  within the same run — no cross-host noise applies — with the final
  chains and the heating/clock observer floats asserted bit-identical
  between the two kernels first.

Run with ``pytest benchmarks/bench_compile.py``.
"""

import json
import os
import sys
import time
from contextlib import contextmanager

import pytest
from conftest import write_result

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench")
)
from harness import REFERENCE_NOMINAL_SECONDS  # noqa: E402

BASELINE_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    "baselines",
    "BENCH_compile_baseline.json",
)

#: Repetitions per phase; the minimum is compared (least-noise statistic,
#: matching how the baseline was recorded).
REPEATS = 3

#: Multiplicative slack on the "no worse" assertions: wall-clock
#: comparisons against a recording from another process run need head
#: room for CPU scheduling noise.  Host speed itself is taken out by
#: the reference loop (see the module docstring).
NO_WORSE_SLACK = 1.25

#: Required compile speedup over the baseline's ``pre_index`` recording
#: (the compiler that rescanned the pending tail per decision, before
#: the future-gate index), at perfbench's nominal host speed.
MIN_COMPILE_SPEEDUP = 2.5

#: Multiplicative bound on the observability no-op fast path: compiling
#: with instrumentation present-but-disabled may cost at most this
#: factor over the same circuits with observability never enabled.
OBS_SLACK = 1.05

#: Untraced/traced-off compile pairs per circuit in the overhead gate.
OBS_PAIRS = 8

#: Required simulate+verify speedup of the vectorized replay kernel
#: over the scalar loop (in-process A/B, same host, same run).
MIN_REPLAY_SPEEDUP = 2.0

PHASES = ("compile", "optimize", "simulate", "verify")


@contextmanager
def replay_kernel(vector: bool):
    """Select the replay kernel for the block: ``replay`` takes the
    scalar loop when numpy is hidden from its kernel choice."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.core.replaying.HAVE_NUMPY", vector)
        yield


def test_compile_pipeline_speed_vs_baseline(results_dir, machine):
    from record_compile_baseline import time_suite

    with open(BASELINE_PATH, encoding="utf-8") as handle:
        baseline = json.load(handle)
    baseline_fingerprints = {
        row["circuit"]: row["schedule_fingerprint"]
        for row in baseline.get("results", ())
        if "schedule_fingerprint" in row
    }

    run = time_suite(machine)
    rows = run["results"]

    # Output identity: faster must not mean different.  The baseline
    # pins a content hash of every compiled schedule; any drift in the
    # emitted op stream fails before the speed gates.
    for row in rows:
        expected_fingerprint = baseline_fingerprints.get(row["circuit"])
        if expected_fingerprint is not None:
            assert row["schedule_fingerprint"] == expected_fingerprint, (
                f"compiled schedule for {row['circuit']} differs from the "
                "baseline recording (content fingerprint mismatch): the "
                "compiler's output changed, not just its speed"
            )

    # Host speed: this run's times restated at the recording's host
    # speed, by the ratio of the reference loop's times (recorded with
    # the baseline, and measured interleaved with this run's phases).
    speed = baseline["reference_seconds"] / run["reference_seconds"]
    totals = {
        phase: round(run[f"total_{phase}_seconds"] * speed, 4)
        for phase in PHASES
    }
    base_totals = {
        phase: baseline[f"total_{phase}_seconds"] for phase in PHASES
    }
    speedups = {
        phase: round(base_totals[phase] / totals[phase], 3)
        for phase in PHASES
        if totals[phase]
    }
    total = sum(totals.values())
    base_total = sum(base_totals.values())

    # The pre-index totals were recorded on a host at about perfbench's
    # nominal speed; compare this run's compile at that speed too.
    pre_index = baseline["pre_index"]
    nominal = REFERENCE_NOMINAL_SECONDS / run["reference_seconds"]
    nominal_compile = run["total_compile_seconds"] * nominal
    compile_speedup = round(
        pre_index["total_compile_seconds"] / nominal_compile, 3
    )

    summary = {
        "machine": machine.name,
        "repeats": REPEATS,
        "reference_seconds": run["reference_seconds"],
        "baseline_reference_seconds": baseline["reference_seconds"],
        "speed_factor": round(speed, 4),
        "raw_totals_seconds": {
            phase: run[f"total_{phase}_seconds"] for phase in PHASES
        },
        "totals_seconds": totals,
        "baseline_totals_seconds": base_totals,
        "baseline_label": baseline.get("label", "baseline"),
        "total_seconds": round(total, 4),
        "baseline_total_seconds": round(base_total, 4),
        "speedup_vs_baseline": speedups,
        "total_speedup": round(base_total / total, 3) if total else None,
        "pre_index_label": pre_index.get("label"),
        "nominal_compile_seconds": round(nominal_compile, 4),
        "compile_speedup_vs_pre_index": compile_speedup,
        "results": rows,
    }
    write_result(
        results_dir, "BENCH_compile.json", json.dumps(summary, indent=2)
    )

    # Acceptance: neither compile nor optimize (nor the pipeline) may
    # regress beyond the slack vs the committed baseline, at equal host
    # speed — this is the CI smoke job's >25% regression gate.
    assert total <= base_total * NO_WORSE_SLACK, (
        f"pipeline regressed: {total:.2f}s vs baseline {base_total:.2f}s "
        f"(at the recording's host speed; speed factor {speed:.2f})"
    )
    for phase in ("compile", "optimize"):
        assert totals[phase] <= base_totals[phase] * NO_WORSE_SLACK, (
            f"{phase} phase regressed: {totals[phase]:.2f}s vs "
            f"baseline {base_totals[phase]:.2f}s (at the recording's "
            f"host speed; speed factor {speed:.2f})"
        )
    assert compile_speedup >= MIN_COMPILE_SPEEDUP, (
        "compile no longer holds the future-gate-index "
        f"win: {compile_speedup:.2f}x vs the required "
        f"{MIN_COMPILE_SPEEDUP:.1f}x over {pre_index.get('label')}"
    )


def test_obs_disabled_overhead_and_enabled_inertness(machine):
    """The telemetry spine must be free when off and inert when on.

    * **Overhead gate** — compiling after an
      ``obs.enable()``/``obs.disable()`` cycle ("traced-off") must cost
      within :data:`OBS_SLACK` of compiling with observability never
      enabled ("untraced"): disabling must restore the exact no-op fast
      path.  The "untraced" side runs with the ``repro.obs`` module
      state restored to its snapshot from before the first enable, so
      anything a cycle leaves behind is paid on the traced-off side
      only.  The two sides alternate strictly, one compile of one
      circuit at a time, :data:`OBS_PAIRS` times per circuit, and the
      per-circuit minima are summed: host drift lands on both sides.
    * **Inertness gate** — with observability (and tracing) *on*, every
      compiled schedule's content fingerprint is bit-identical to the
      obs-off compile, and still matches the committed baseline
      recording where one exists.
    """
    from repro import obs
    from repro.batch.fingerprint import fingerprint
    from repro.bench.suite import paper_suite
    from repro.compiler.compiler import QCCDCompiler
    from repro.compiler.config import CompilerConfig
    from repro.compiler.mapping import greedy_initial_mapping

    with open(BASELINE_PATH, encoding="utf-8") as handle:
        baseline = json.load(handle)
    baseline_fingerprints = {
        row["circuit"]: row["schedule_fingerprint"]
        for row in baseline.get("results", ())
        if "schedule_fingerprint" in row
    }

    compiler = QCCDCompiler(machine, CompilerConfig.optimized())
    circuits = paper_suite(full=False)
    chains = {
        circuit.name: greedy_initial_mapping(circuit, machine)
        for circuit in circuits
    }

    def compile_seconds(circuit) -> float:
        start = time.perf_counter()
        compiler.compile(circuit, initial_chains=chains[circuit.name])
        return time.perf_counter() - start

    # Reference fingerprints, observability off (also the warm-up).
    off_fingerprints = {}
    for circuit in circuits:
        result = compiler.compile(
            circuit, initial_chains=chains[circuit.name]
        )
        off_fingerprints[circuit.name] = fingerprint(list(result.schedule))

    assert obs.active() is None
    pristine = dict(vars(obs))
    untraced = {circuit.name: [] for circuit in circuits}
    traced_off = {circuit.name: [] for circuit in circuits}
    for _ in range(OBS_PAIRS):
        for circuit in circuits:
            vars(obs).update(pristine)
            untraced[circuit.name].append(compile_seconds(circuit))
            obs.enable(trace=True)
            obs.disable()
            traced_off[circuit.name].append(compile_seconds(circuit))

    untraced_s = sum(min(times) for times in untraced.values())
    traced_off_s = sum(min(times) for times in traced_off.values())
    assert traced_off_s <= untraced_s * OBS_SLACK, (
        f"disabled observability is not free: {traced_off_s:.4f}s "
        f"traced-off vs {untraced_s:.4f}s untraced "
        f"(> {(OBS_SLACK - 1) * 100:.0f}% overhead)"
    )

    with obs.observe(trace=True):
        for circuit in circuits:
            result = compiler.compile(
                circuit, initial_chains=chains[circuit.name]
            )
            fp = fingerprint(list(result.schedule))
            assert fp == off_fingerprints[circuit.name], (
                f"observability changed the schedule of {circuit.name}"
            )
            expected = baseline_fingerprints.get(circuit.name)
            if expected is not None:
                assert fp == expected, (
                    f"traced compile of {circuit.name} drifted from "
                    "the committed baseline recording"
                )
    assert obs.active() is None


def test_replay_phase_vector_speedup(results_dir, machine):
    """The vectorized replay kernel's simulate+verify win, in-process.

    Unlike the baseline gates above, this is a same-host, same-run A/B:
    the suite's optimized schedules are replayed through the scalar
    loop and the batched numpy kernel back to back, so host speed
    cancels out and the :data:`MIN_REPLAY_SPEEDUP` bound is meaningful
    anywhere.  Semantics are asserted before speed: both kernels must
    produce identical final chains (verify) and bit-identical fidelity,
    makespan and heating floats (simulate).
    """
    from repro.core.vector import HAVE_NUMPY

    if not HAVE_NUMPY:
        pytest.skip("numpy unavailable: no vector kernel to benchmark")

    from repro.bench.suite import paper_suite
    from repro.compiler.compiler import QCCDCompiler
    from repro.compiler.config import CompilerConfig
    from repro.compiler.mapping import greedy_initial_mapping
    from repro.passes.manager import PassManager
    from repro.passes.verify import verify_schedule
    from repro.sim.simulator import Simulator

    compiler = QCCDCompiler(machine, CompilerConfig.optimized())
    jobs = []
    for circuit in paper_suite(full=False):
        chains = greedy_initial_mapping(circuit, machine)
        result = compiler.compile(circuit, initial_chains=chains)
        optimization = PassManager().run(
            result.schedule, machine, result.initial_chains
        )
        jobs.append(
            (circuit.name, optimization.schedule, result.initial_chains)
        )

    simulator = Simulator(machine)

    # Semantics first: chains and observer-derived floats bit-identical.
    for name, schedule, chains in jobs:
        with replay_kernel(vector=True):
            report_v = simulator.run(schedule, chains)
            final_v = verify_schedule(machine, schedule, chains)
        with replay_kernel(vector=False):
            report_s = simulator.run(schedule, chains)
            final_s = verify_schedule(machine, schedule, chains)
        for field in (
            "program_log_fidelity",
            "duration",
            "min_gate_fidelity",
            "max_nbar",
            "mean_gate_nbar",
        ):
            assert getattr(report_v, field) == getattr(report_s, field), (
                f"{name}: vector kernel drifted on {field}: "
                f"{getattr(report_v, field)!r} != {getattr(report_s, field)!r}"
            )
        assert final_v == final_s, (
            f"{name}: vector kernel produced different final chains"
        )

    def replay_suite(vector: bool) -> float:
        with replay_kernel(vector):
            start = time.perf_counter()
            for _, schedule, chains in jobs:
                simulator.run(schedule, chains)
                verify_schedule(machine, schedule, chains)
            return time.perf_counter() - start

    # Interleaved repeats; minima cancel one-sided host drift.
    vector_times, scalar_times = [], []
    for _ in range(REPEATS):
        vector_times.append(replay_suite(True))
        scalar_times.append(replay_suite(False))
    vector_s, scalar_s = min(vector_times), min(scalar_times)
    speedup = scalar_s / vector_s if vector_s else float("inf")

    write_result(
        results_dir,
        "BENCH_replay_kernel.json",
        json.dumps(
            {
                "machine": machine.name,
                "repeats": REPEATS,
                "phases": ["simulate", "verify"],
                "scalar_seconds": round(scalar_s, 4),
                "vector_seconds": round(vector_s, 4),
                "speedup": round(speedup, 3),
                "min_required_speedup": MIN_REPLAY_SPEEDUP,
            },
            indent=2,
        ),
    )

    assert speedup >= MIN_REPLAY_SPEEDUP, (
        f"vector replay kernel win eroded: {speedup:.2f}x over the "
        f"scalar loop on simulate+verify (required "
        f"{MIN_REPLAY_SPEEDUP:.1f}x; scalar {scalar_s:.3f}s, "
        f"vector {vector_s:.3f}s)"
    )
