"""Stable serialization of compilation/simulation outcomes.

Used by the machine-semantics golden test (and the script that records
its fixture) to reduce a full compile -> optimize -> simulate run to a
JSON-comparable summary: schedule digests, simulation-report fields and
pass accept/revert decisions.  The representation depends only on
*observable* behavior — op streams, report numbers, pass stats — so a
refactor of the implementation underneath must reproduce it exactly.
"""

from __future__ import annotations

import hashlib

from repro.core.ops import GateOp, MergeOp, MoveOp, SplitOp, SwapOp


def op_token(op) -> str:
    """Canonical one-line text form of a machine op."""
    if isinstance(op, GateOp):
        gate = op.gate
        params = ",".join(repr(p) for p in getattr(gate, "params", ()) or ())
        qubits = ",".join(str(q) for q in gate.qubits)
        return f"gate:{gate.name}:{qubits}:{params}:{op.trap}"
    if isinstance(op, SplitOp):
        return f"split:{op.ion}:{op.trap}:{op.reason.value}"
    if isinstance(op, MoveOp):
        return f"move:{op.ion}:{op.src}:{op.dst}:{op.reason.value}"
    if isinstance(op, MergeOp):
        return f"merge:{op.ion}:{op.trap}:{op.reason.value}:{op.position}"
    if isinstance(op, SwapOp):
        return f"swap:{op.ion_a}:{op.ion_b}:{op.trap}:{op.reason.value}"
    raise TypeError(f"unknown op {op!r}")


def schedule_digest(schedule) -> str:
    """Content hash of the exact op stream."""
    digest = hashlib.sha256()
    for op in schedule:
        digest.update(op_token(op).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def report_summary(report) -> dict:
    """All scalar fields of a SimulationReport, floats as exact reprs."""
    return {
        "program_log_fidelity": repr(report.program_log_fidelity),
        "duration": repr(report.duration),
        "num_gates": report.num_gates,
        "num_two_qubit_gates": report.num_two_qubit_gates,
        "num_shuttles": report.num_shuttles,
        "num_splits": report.num_splits,
        "num_merges": report.num_merges,
        "min_gate_fidelity": repr(report.min_gate_fidelity),
        "max_nbar": repr(report.max_nbar),
        "mean_gate_nbar": repr(report.mean_gate_nbar),
        "gate_fidelity_digest": hashlib.sha256(
            "\n".join(repr(f) for f in report.gate_fidelities).encode()
        ).hexdigest(),
    }


def pass_summary(stats) -> dict:
    """The accept/revert decision and op deltas of one pass run."""
    return {
        "name": stats.name,
        "rewrites": stats.rewrites,
        "shuttles_removed": stats.shuttles_removed,
        "splits_removed": stats.splits_removed,
        "merges_removed": stats.merges_removed,
        "swaps_removed": stats.swaps_removed,
        "ops_removed": stats.ops_removed,
        "reverted": stats.reverted,
    }


def chains_summary(chains: dict) -> dict:
    """Final per-trap chains as JSON-stable lists."""
    return {str(trap): list(chain) for trap, chain in sorted(chains.items())}


def circuit_case(circuit, machine) -> dict:
    """The full golden record for one benchmark circuit.

    Compiles with both paper configurations from the shared greedy
    mapping, runs the default pass pipeline on the optimized schedule,
    and simulates every stream.
    """
    from repro.compiler.compiler import QCCDCompiler
    from repro.compiler.config import CompilerConfig
    from repro.compiler.mapping import greedy_initial_mapping
    from repro.passes.manager import PassManager
    from repro.sim.simulator import Simulator

    chains = greedy_initial_mapping(circuit, machine)
    simulator = Simulator(machine)

    baseline = QCCDCompiler(machine, CompilerConfig.baseline()).compile(
        circuit, initial_chains=chains
    )
    optimized = QCCDCompiler(machine, CompilerConfig.optimized()).compile(
        circuit, initial_chains=chains
    )
    optimization = PassManager().run(
        optimized.schedule, machine, optimized.initial_chains
    )

    return {
        "circuit": circuit.name,
        "baseline_schedule": schedule_digest(baseline.schedule),
        "optimized_schedule": schedule_digest(optimized.schedule),
        "post_pass_schedule": schedule_digest(optimization.schedule),
        "baseline_report": report_summary(
            simulator.run(baseline.schedule, baseline.initial_chains)
        ),
        "optimized_report": report_summary(
            simulator.run(optimized.schedule, optimized.initial_chains)
        ),
        "post_pass_report": report_summary(
            simulator.run(optimization.schedule, optimized.initial_chains)
        ),
        "passes": [pass_summary(s) for s in optimization.passes],
        "baseline_final_chains": chains_summary(baseline.final_chains),
        "optimized_final_chains": chains_summary(optimized.final_chains),
        "post_pass_final_chains": chains_summary(
            optimization.final_chains or {}
        ),
    }
