"""Compile/optimize/simulate/verify wall-time benchmark vs the baseline.

Times the four phases of the full pipeline on the paper suite
(reduced random ensemble, L6 machine) and compares against the
committed recording in ``benchmarks/baselines/BENCH_compile_baseline.json``
(captured by ``record_compile_baseline.py``).  Writes
``benchmarks/_results/BENCH_compile.json`` with per-circuit times,
per-phase speedups vs the baseline, and — when the baseline embeds a
``previous`` recording it superseded — the speedups vs that too (the
future-gate-index engine's compile win is pinned against the
tail-rescanning recording it retired).

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
* on a host at least as fast as the recording one (established by the
  total-time comparison), the compile phase must hold the
  :data:`MIN_COMPILE_SPEEDUP` × win over the superseded ``previous``
  recording — the indexed-decision speedup cannot silently erode.
  (The incremental-verification optimize win of PR 4 is now pinned by
  the slack gate against the re-recorded optimize total, which was
  measured with that engine on.)
* the vectorized replay kernel holds its :data:`MIN_REPLAY_SPEEDUP` ×
  win over the scalar loop on the replay-dominated phases
  (simulate + verify), measured as an in-process A/B on the same host
  within the same run — no cross-host noise applies — with the final
  chains and the heating/clock observer floats asserted bit-identical
  between the two kernels first.

Run with ``pytest benchmarks/bench_compile.py``.
"""

import importlib
import json
import os
import time
from contextlib import contextmanager

import pytest
from conftest import write_result

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
#: room for CPU scheduling noise.  The baseline is an absolute
#: recording from one host — on substantially slower hardware (e.g.
#: shared CI runners vs the recording workstation) widen the gate via
#: ``REPRO_BENCH_SLACK`` instead of re-baselining, or re-record with
#: ``record_compile_baseline.py`` on representative hardware.
NO_WORSE_SLACK = float(os.environ.get("REPRO_BENCH_SLACK", "1.25"))

#: Required compile speedup over the baseline's ``previous`` recording
#: (the pre-index compiler that rescanned the pending tail per decision).
MIN_COMPILE_SPEEDUP = 2.5

#: Multiplicative bound on the observability no-op fast path: compiling
#: with instrumentation present-but-disabled may cost at most this
#: factor over the same suite measured back to back (ISSUE: ≤5%).
#: Widen via ``REPRO_OBS_SLACK`` on noisy shared runners.
OBS_SLACK = float(os.environ.get("REPRO_OBS_SLACK", "1.05"))

#: Required simulate+verify speedup of the vectorized replay kernel
#: over the scalar loop (in-process A/B, same host, same run).
MIN_REPLAY_SPEEDUP = 2.0

PHASES = ("compile", "optimize", "simulate", "verify")


@contextmanager
def replay_kernel(vector: bool):
    """Select the replay kernel for the block: ``replay`` takes the
    scalar loop when numpy is hidden from its kernel choice.  (The
    attribute ``repro.core.replay`` is the re-exported function, so
    the module is looked up by name.)"""
    module = importlib.import_module("repro.core.replay")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, "HAVE_NUMPY", vector)
        yield


def _timed(thunk) -> float:
    start = time.perf_counter()
    thunk()
    return time.perf_counter() - start


def test_compile_pipeline_speed_vs_baseline(results_dir, machine):
    from repro.batch.fingerprint import fingerprint
    from repro.bench.suite import paper_suite
    from repro.compiler.compiler import QCCDCompiler
    from repro.compiler.config import CompilerConfig
    from repro.compiler.mapping import greedy_initial_mapping
    from repro.passes.manager import PassManager
    from repro.passes.verify import verify_schedule
    from repro.sim.simulator import Simulator

    with open(BASELINE_PATH, encoding="utf-8") as handle:
        baseline = json.load(handle)
    baseline_fingerprints = {
        row["circuit"]: row["schedule_fingerprint"]
        for row in baseline.get("results", ())
        if "schedule_fingerprint" in row
    }

    compiler = QCCDCompiler(machine, CompilerConfig.optimized())
    simulator = Simulator(machine)
    rows = []

    for circuit in paper_suite(full=False):
        chains = greedy_initial_mapping(circuit, machine)

        compile_s = min(
            _timed(lambda: compiler.compile(circuit, initial_chains=chains))
            for _ in range(REPEATS)
        )
        result = compiler.compile(circuit, initial_chains=chains)

        # Output identity: faster must not mean different.  The
        # baseline pins a content hash of every compiled schedule; any
        # drift in the emitted op stream fails before the speed gates.
        expected_fingerprint = baseline_fingerprints.get(circuit.name)
        if expected_fingerprint is not None:
            assert fingerprint(list(result.schedule)) == expected_fingerprint, (
                f"compiled schedule for {circuit.name} differs from the "
                "baseline recording (content fingerprint mismatch): the "
                "compiler's output changed, not just its speed"
            )

        optimize_s = min(
            _timed(
                lambda: PassManager().run(
                    result.schedule, machine, result.initial_chains
                )
            )
            for _ in range(REPEATS)
        )
        optimization = PassManager().run(
            result.schedule, machine, result.initial_chains
        )

        simulate_s = min(
            _timed(
                lambda: simulator.run(
                    optimization.schedule, result.initial_chains
                )
            )
            for _ in range(REPEATS)
        )

        verify_s = min(
            _timed(
                lambda: verify_schedule(
                    machine, optimization.schedule, result.initial_chains
                )
            )
            for _ in range(REPEATS)
        )

        rows.append(
            {
                "circuit": circuit.name,
                "num_ops": len(result.schedule),
                "compile_seconds": round(compile_s, 4),
                "optimize_seconds": round(optimize_s, 4),
                "simulate_seconds": round(simulate_s, 4),
                "verify_seconds": round(verify_s, 4),
            }
        )

    totals = {
        phase: round(sum(r[f"{phase}_seconds"] for r in rows), 4)
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

    previous = baseline.get("previous")
    previous_speedups = None
    if previous:
        # Older recordings may predate the verify phase split.
        previous_speedups = {
            phase: round(
                previous[f"total_{phase}_seconds"] / totals[phase], 3
            )
            for phase in PHASES
            if totals[phase] and f"total_{phase}_seconds" in previous
        }

    summary = {
        "machine": machine.name,
        "repeats": REPEATS,
        "totals_seconds": totals,
        "baseline_totals_seconds": base_totals,
        "baseline_label": baseline.get("label", "baseline"),
        "total_seconds": round(total, 4),
        "baseline_total_seconds": round(base_total, 4),
        "speedup_vs_baseline": speedups,
        "total_speedup": round(base_total / total, 3) if total else None,
        "previous_label": previous.get("label") if previous else None,
        "speedup_vs_previous": previous_speedups,
        "results": rows,
    }
    write_result(
        results_dir, "BENCH_compile.json", json.dumps(summary, indent=2)
    )

    # Acceptance: neither compile nor optimize (nor the pipeline) may
    # regress beyond the slack vs the committed baseline — this is the
    # CI smoke job's >25% regression gate.
    assert total <= base_total * NO_WORSE_SLACK, (
        f"pipeline regressed: {total:.2f}s vs baseline {base_total:.2f}s"
    )
    for phase in ("compile", "optimize"):
        assert totals[phase] <= base_totals[phase] * NO_WORSE_SLACK, (
            f"{phase} phase regressed: {totals[phase]:.2f}s vs "
            f"baseline {base_totals[phase]:.2f}s"
        )
    # The baseline is an absolute wall-clock recording from another
    # process run (possibly another machine), so the strict speedup
    # claim is only meaningful on a host at least as fast as the
    # recording one — which the total-time comparison establishes.
    # (Slower hosts still get the slack-bounded regression gates above;
    # re-baseline with record_compile_baseline.py when migrating
    # hardware.)
    if previous and total <= base_total:
        assert (
            previous_speedups["compile"] >= MIN_COMPILE_SPEEDUP
        ), (
            "compile no longer holds the future-gate-index "
            f"win: {previous_speedups['compile']:.2f}x vs the "
            f"required {MIN_COMPILE_SPEEDUP:.1f}x over "
            f"{previous.get('label', 'the superseded baseline')}"
        )


def test_obs_disabled_overhead_and_enabled_inertness(machine):
    """The telemetry spine must be free when off and inert when on.

    * **Overhead gate** — compiling the suite after an
      ``obs.enable()``/``obs.disable()`` cycle ("traced-off") must cost
      within :data:`OBS_SLACK` of the same suite compiled with
      observability never enabled ("untraced"): disabling must restore
      the exact no-op fast path.  Minima of interleaved A/B repetitions
      are compared so host drift hits both sides equally.
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

    def compile_suite() -> float:
        start = time.perf_counter()
        for circuit in circuits:
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
    untraced = [compile_suite() for _ in range(REPEATS)]
    obs.enable(trace=True)
    obs.disable()
    traced_off = [compile_suite() for _ in range(REPEATS)]
    # Interleave one more A/B pair to damp one-sided host drift.
    untraced.append(compile_suite())
    obs.enable(trace=True)
    obs.disable()
    traced_off.append(compile_suite())

    untraced_s, traced_off_s = min(untraced), min(traced_off)
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
