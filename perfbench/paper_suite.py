"""paper-suite: the paper's evaluation, in-process and serial.

A researcher's ``repro sweep``: per circuit one baseline [7] job and
one this-work job (default post-passes), both simulated, run back to
back through ``BatchRunner(n_jobs=1)`` with no cache.  The circuits
are the five NISQ benchmarks at paper sizes plus a seeded draw from
the random ensemble's distribution (60/65/70/75 qubits, N(1438, 413)
two-qubit gates) on L6.

The random draw is stratified: the gate counts are fixed quantiles of
N(1438, 413) on fixed sizes, and the seed only picks the circuit
seeds.  So every seed compiles the same amount of work and the spread
between seeds is mostly the machine's, not the draw's.

Each job is one ``runner.run([job])`` call, so its latency is exactly
submit to artifacts in hand.  The job list is repeated in rounds (one
runner call per job; in-run dedup never applies), and the number of
rounds follows from ``--seconds`` and a nominal rate, never from a
clock.
"""

from __future__ import annotations

import random
from statistics import NormalDist
from time import perf_counter, process_time

from harness import (
    REFERENCE_NOMINAL_SECONDS,
    Block,
    Outcome,
    Spans,
    Probe,
    assign_speeds,
    reference_seconds,
    self_peak_rss_mb,
)

from repro.arch.presets import l6_machine
from repro.batch import BatchRunner, NullCache, paired_jobs
from repro.bench import PAPER_SIZES, nisq_suite, random_circuit
from repro.bench.random_circuits import PAPER_MEAN_GATES, PAPER_STD_GATES
from repro.compiler.compiler import QCCDCompiler
from repro.compiler.config import CompilerConfig
from repro.compiler.mapping import greedy_initial_mapping
from repro.passes.manager import PassManager
from repro.passes.verify import qubit_gate_sequences, verify_schedule
from repro.sim.simulator import Simulator

#: Jobs per second of one round on a 2-core VM; sets rounds from
#: ``--seconds`` so the job count is a pure function of the arguments.
NOMINAL_JOBS_PER_S = 5.5
#: Random-ensemble circuits per qubit size (one in smoke runs).
RANDOM_PER_SIZE = 2
_GATE_BOUNDS = (400, 2600)


def plan(seed: int, seconds: int) -> tuple[list[tuple[int, int, int]], int]:
    """(random circuit specs as (qubits, gates, circuit seed), rounds)."""
    per_size = RANDOM_PER_SIZE if seconds >= 4 else 1
    count = per_size * len(PAPER_SIZES)
    normal = NormalDist(PAPER_MEAN_GATES, PAPER_STD_GATES)
    gates = [
        max(_GATE_BOUNDS[0], min(_GATE_BOUNDS[1], round(normal.inv_cdf((i + 0.5) / count))))
        for i in range(count)
    ]
    # Sizes cycle over the sorted gate counts, so each size gets an
    # even share of small and large circuits whatever the seed.
    sizes = [PAPER_SIZES[i % len(PAPER_SIZES)] for i in range(count)]
    rng = random.Random(f"paper-suite:{seed}")
    specs = [(q, g, rng.randrange(1 << 30)) for q, g in zip(sizes, gates)]
    jobs_per_round = 2 * (5 + count)
    rounds = max(1, round(seconds * NOMINAL_JOBS_PER_S / jobs_per_round))
    return specs, rounds


def setup(specs, spans: Spans):
    """Build the circuits and the paired job list (the timed set-up)."""
    start = perf_counter()
    circuits = nisq_suite()
    spans.add("circuits.build", perf_counter() - start, calls=len(circuits))
    for qubits, gates, circuit_seed in specs:
        with spans.span("circuits.build"):
            circuits.append(random_circuit(qubits, gates, circuit_seed))
    jobs = paired_jobs(
        circuits,
        l6_machine(),
        CompilerConfig.baseline(),
        CompilerConfig.optimized().variant(post_passes=("default",)),
        simulate=True,
    )
    return jobs


def run_round(runner: BatchRunner, jobs) -> tuple[Block, list]:
    """One block: every job through the public batch runner, one
    ``run`` call each, back to back."""
    latencies = []
    results = []
    cpu_start = process_time()
    start = perf_counter()
    probe = Probe()
    for job in jobs:
        submitted = perf_counter()
        (job_result,) = runner.run([job])
        latencies.append(perf_counter() - submitted)
        results.append(job_result)
        probe.between_jobs()
    block = Block(
        perf_counter() - start - probe.wall,
        process_time() - cpu_start - probe.cpu,
        latencies,
        probe.references,
    )
    return block, results


def _circuit_sequences(circuit) -> dict[int, tuple]:
    sequences: dict[int, list] = {}
    for gate in circuit:
        for qubit in gate.qubits:
            sequences.setdefault(qubit, []).append(gate)
    return {qubit: tuple(gates) for qubit, gates in sequences.items()}


def check_round(jobs, results, first, outcome: Outcome) -> list:
    """Check one round's outputs: the first round fully (legal on the
    machine, equivalent to the circuit), later rounds against the first.

    Returns the first round's ``(result, report)`` per job (``None``
    where it failed), so only one round of schedules stays in memory.
    """
    checked = []
    for slot, (job, job_result) in enumerate(zip(jobs, results)):
        output = (job_result.result, job_result.report) if job_result.ok else None
        if output is None:
            outcome.failures.append(f"{job.label}: {job_result.outcome}: {job_result.error}")
        elif first is not None:
            if output != first[slot]:
                outcome.failures.append(f"{job.label}: round differs from the first")
                output = None
        else:
            try:
                verify_schedule(job.machine, output[0].schedule, output[0].initial_chains)
            except Exception as exc:  # noqa: BLE001 - any verdict is a failure
                outcome.failures.append(f"{job.label}: illegal schedule: {exc}")
                output = None
            else:
                if qubit_gate_sequences(output[0].schedule) != _circuit_sequences(job.circuit):
                    outcome.failures.append(f"{job.label}: schedule not equivalent to circuit")
                    output = None
        if output is not None:
            result, report = output
            outcome.record_output(result.num_shuttles, result.num_gates, report.log10_fidelity)
        checked.append(output)
    return checked if first is None else first


def run_traced(jobs, rounds: int, first: list, spans: Spans) -> tuple[float, list[str]]:
    """The same jobs with ``execute_job`` split into its layers.

    Returns the phase wall time and any mismatch against the untraced
    outputs (the optimized schedule and the fidelity must be equal).
    """
    null_cache = NullCache()
    raw_configs = {}
    mismatches = []
    start = perf_counter()
    for _ in range(rounds):
        for slot, job in enumerate(jobs):
            with spans.span("batch.fingerprint"):
                key = job.fingerprint()
            with spans.span("batch.cache_get"):
                null_cache.get(key)
            config = raw_configs.setdefault(
                job.config, job.config.variant(post_passes=())
            )
            with spans.span("compiler.compile"):
                raw = QCCDCompiler(job.machine, config).compile(
                    job.circuit, initial_chains=job.initial_chains
                )
            schedule = raw.schedule
            spans.count("compiler.ops", len(schedule))
            spans.count("compiler.shuttles", schedule.num_shuttles)
            if job.config.post_passes:
                with spans.span("passes.optimize"):
                    optimization = PassManager(job.config.post_passes).run(
                        schedule,
                        job.machine,
                        {t: list(c) for t, c in raw.initial_chains.items()},
                    )
                schedule = optimization.schedule
                for stats in optimization.passes:
                    spans.count("passes.rewrites", stats.rewrites)
                    spans.count("passes.ops_removed", stats.ops_removed)
                    spans.count("passes.reverted", int(stats.reverted))
                    spans.count(f"passes.{stats.name}.rewrites", stats.rewrites)
                    spans.count(f"passes.{stats.name}.ops_removed", stats.ops_removed)
            with spans.span("sim.simulate"):
                report = Simulator(job.machine, job.params).run(
                    schedule, raw.initial_chains
                )
            reference = first[slot]
            if reference is not None and (
                schedule != reference[0].schedule
                or report.log10_fidelity != reference[1].log10_fidelity
            ):
                mismatches.append(f"{job.label}: traced output differs from untraced")
    return perf_counter() - start, mismatches


def probe_mapping(jobs, spans: Spans) -> list[str]:
    """Time the greedy mapping ``paired_jobs`` ran once per circuit."""
    mismatches = []
    for job in jobs[::2]:
        with spans.span("compiler.map"):
            chains = greedy_initial_mapping(job.circuit, job.machine)
        if chains != job.initial_chains:
            mismatches.append(f"{job.circuit.name}: mapping differs from set-up")
    return mismatches


def run(seed: int, seconds: int, trace: bool) -> dict:
    """One run of the workload; see ``run.py`` for the record's use.

    Each round is preceded by a timed set-up, so the set-up samples
    are spread over the run like the blocks are.
    """
    specs, rounds = plan(seed, seconds)
    setup_spans = Spans()
    setup_seconds = []
    runner = BatchRunner(n_jobs=1, cache=NullCache())
    outcome = Outcome()
    first = None
    services = []
    references = []
    for round_index in range(rounds):
        if round_index == 0 or not trace:
            start = perf_counter()
            jobs = setup(specs, setup_spans)
            setup_seconds.append(perf_counter() - start)
        references.append(reference_seconds())
        block, results = run_round(runner, jobs)
        outcome.blocks.append(block)
        services.extend(r.seconds for r in results if r.seconds is not None)
        first = check_round(jobs, results, first, outcome)
    references.append(reference_seconds())
    assign_speeds(outcome.blocks, references)
    outcome.attempted = rounds * len(jobs)
    peak_rss = self_peak_rss_mb()
    record = {
        "outcome": outcome,
        "raw_setup_seconds": setup_seconds,
        "setup_seconds": [
            seconds * REFERENCE_NOMINAL_SECONDS / reference
            for seconds, reference in zip(setup_seconds, references)
        ],
        "peak_rss_mb": peak_rss,
        "rss_processes": 1,
    }
    if not trace:
        return record

    spans = Spans()
    spans.seconds.update(setup_spans.seconds)
    spans.calls.update(setup_spans.calls)
    outcome.failures.extend(probe_mapping(jobs, spans))
    traced_wall, mismatches = run_traced(jobs, rounds, first, spans)
    outcome.failures.extend(mismatches)
    latencies = [s for block in outcome.blocks for s in block.latencies]
    spans.add("resilience.service", sum(services), calls=len(services))
    spans.add(
        "resilience.queue_dispatch",
        sum(latencies) - sum(services),
        calls=len(services),
    )
    on_path = ("batch.fingerprint", "batch.cache_get", "compiler.compile",
               "passes.optimize", "sim.simulate")
    record["spans"] = spans
    record["unattributed_share"] = 1 - sum(spans.total(n) for n in on_path) / traced_wall
    record["overhead_ratio"] = traced_wall / outcome.wall_seconds
    record["cache_hit_ratio"] = 0.0
    return record
