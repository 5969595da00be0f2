"""Record the compile/optimize/simulate/verify wall-time baseline.

Times the four phases on the paper suite (reduced random ensemble,
L6 machine) and writes ``benchmarks/baselines/BENCH_compile_baseline.json``
(committed — the regression reference ``bench_compile.py`` gates
against).  A fixed pure-Python reference loop (perfbench's
``harness.reference_seconds``, code no ``repro`` change can touch) is
timed before every circuit and after the last; its mean is recorded
as ``reference_seconds``, so the benchmark can state a later run's
times at the recording's host speed, whatever the host does now.
When an earlier baseline exists, its phase totals are carried into the
new recording under ``"previous"`` (with its label), and its
``"pre_index"`` block — the totals of the tail-rescanning compiler the
future-gate index retired, which the compile speedup gate is set
against — is carried over verbatim.  Each row also records a
process-independent content fingerprint of the raw compiled schedule
(:mod:`repro.batch.fingerprint`), so the benchmark can assert that a
performance change left the compiler's *output* byte-identical, not
just fast.  Re-run this script only to re-baseline deliberately (new
hardware, or a performance change whose win should become the new
floor)::

    PYTHONPATH=src python benchmarks/record_compile_baseline.py [label]
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "perfbench"))

from harness import reference_seconds  # noqa: E402

BASELINE_DIR = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "baselines"
)
BASELINE_PATH = os.path.join(BASELINE_DIR, "BENCH_compile_baseline.json")

#: Repetitions per phase; the minimum is recorded (standard practice for
#: wall-clock microbenchmarks — the minimum is the least noisy statistic).
REPEATS = 3

#: Reference-loop samples per probe (their median is one probe).
REFERENCE_SAMPLES = 3


def time_suite(machine=None) -> dict:
    """Phase totals and per-circuit rows on ``machine`` (default L6),
    plus ``reference_seconds``: the mean of the reference-loop probes
    taken before every circuit and after the last."""
    from repro.arch.presets import l6_machine
    from repro.batch.fingerprint import fingerprint
    from repro.bench.suite import paper_suite
    from repro.compiler.compiler import QCCDCompiler
    from repro.compiler.config import CompilerConfig
    from repro.compiler.mapping import greedy_initial_mapping
    from repro.passes.manager import PassManager
    from repro.passes.verify import verify_schedule
    from repro.sim.simulator import Simulator

    machine = machine if machine is not None else l6_machine()
    simulator = Simulator(machine)
    compiler = QCCDCompiler(machine, CompilerConfig.optimized())
    rows = []
    references = []

    for circuit in paper_suite(full=False):
        references.append(reference_seconds(REFERENCE_SAMPLES))
        chains = greedy_initial_mapping(circuit, machine)

        compile_s = min(
            _timed(lambda: compiler.compile(circuit, initial_chains=chains))
            for _ in range(REPEATS)
        )
        result = compiler.compile(circuit, initial_chains=chains)

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
                "schedule_fingerprint": fingerprint(list(result.schedule)),
                "compile_seconds": round(compile_s, 4),
                "optimize_seconds": round(optimize_s, 4),
                "simulate_seconds": round(simulate_s, 4),
                "verify_seconds": round(verify_s, 4),
            }
        )
        print(
            f"{circuit.name}: compile {compile_s:.3f}s  "
            f"optimize {optimize_s:.3f}s  simulate {simulate_s:.3f}s  "
            f"verify {verify_s:.3f}s",
            flush=True,
        )

    references.append(reference_seconds(REFERENCE_SAMPLES))
    return {
        "machine": machine.name,
        "repeats": REPEATS,
        "reference_seconds": round(sum(references) / len(references), 5),
        "total_compile_seconds": round(
            sum(r["compile_seconds"] for r in rows), 4
        ),
        "total_optimize_seconds": round(
            sum(r["optimize_seconds"] for r in rows), 4
        ),
        "total_simulate_seconds": round(
            sum(r["simulate_seconds"] for r in rows), 4
        ),
        "total_verify_seconds": round(
            sum(r["verify_seconds"] for r in rows), 4
        ),
        "results": rows,
    }


def _timed(thunk) -> float:
    start = time.perf_counter()
    thunk()
    return time.perf_counter() - start


def main() -> None:
    label = sys.argv[1] if len(sys.argv) > 1 else "current tree"
    summary = time_suite()
    summary["label"] = label
    if os.path.exists(BASELINE_PATH):
        with open(BASELINE_PATH, encoding="utf-8") as handle:
            superseded = json.load(handle)
        # Carry every phase total the superseded recording has (older
        # recordings may predate the verify phase).
        summary["previous"] = {"label": superseded.get("label", "superseded baseline")}
        for key, value in superseded.items():
            if key.startswith("total_") and key.endswith("_seconds"):
                summary["previous"][key] = value
        if "reference_seconds" in superseded:
            summary["previous"]["reference_seconds"] = superseded["reference_seconds"]
        if "pre_index" in superseded:
            summary["pre_index"] = superseded["pre_index"]
    os.makedirs(BASELINE_DIR, exist_ok=True)
    with open(BASELINE_PATH, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2)
    print(f"wrote {BASELINE_PATH}")


if __name__ == "__main__":
    main()
