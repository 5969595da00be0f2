"""Profile one compile (or the whole suite) and print the hot spots.

Performance PRs should start from data, not intuition: this script runs
the compiler under :mod:`cProfile` and prints the top-N functions by
cumulative time, so "which layer is the bottleneck now?" is one command
away.  It is how the future-gate-index PR found that 92% of compile
wall time was the per-decision pending-tail rescans — and how the next
perf PR should find its target::

    python benchmarks/profile_compile.py                 # full reduced suite
    python benchmarks/profile_compile.py --circuit QFT   # one benchmark
    python benchmarks/profile_compile.py --top 40 --sort tottime
    python benchmarks/profile_compile.py --baseline      # [7]'s config
    python benchmarks/profile_compile.py --phase simulate  # profile one phase
    python benchmarks/profile_compile.py --json profile.json
    python benchmarks/profile_compile.py --perfbench 1 --phase job

``--perfbench SEED`` profiles exactly the 26 jobs one round of
``perfbench/run.py --workload paper-suite --seed SEED`` times (the
five NISQ circuits plus the seeded random-ensemble draw, each under
the baseline [7] and the this-work configs), built by perfbench's own
``plan``/``setup``.  The reduced suite profiled without it is a
different workload.  ``--phase job`` (perfbench only) profiles each
job the way the batch runner executes it: compile with its post-passes,
then simulate.

``--phase`` selects which pipeline stage runs under the profiler
(``compile`` is the default; ``optimize``/``simulate``/``verify`` run
the earlier stages unprofiled to build their input).  Each job's
stages follow its own config: a job without post-passes is not
optimized.  Replays take
the vectorized kernel whenever numpy is importable; the scalar/vector
A/B lives in ``benchmarks/bench_compile.py``
(``test_replay_phase_vector_speedup``).

With ``repro`` installed (``pip install -e .``) no ``PYTHONPATH`` is
needed; an uninstalled source checkout falls back to ``../src``
relative to this file.  ``--json`` writes the top-N rows (by the
chosen sort key) as machine-readable records for trend tracking.

Circuit names match the paper suite (``Supremacy``, ``QAOA``,
``SquareRoot``, ``QFT``, ``QuadraticForm``, ``Random-<n>q-<i>``);
``--machine`` accepts ``l6`` (default), ``linear:<traps>``,
``ring:<traps>`` or ``grid:<rows>x<cols>``.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import pstats
import sys

try:  # prefer the installed package; dev checkouts fall back to ../src
    import repro  # noqa: F401
except ImportError:  # pragma: no cover - environment-dependent
    sys.path.insert(
        0, os.path.join(os.path.dirname(__file__), "..", "src")
    )


#: perfbench's directory: ``--perfbench`` imports its job builders.
PERFBENCH_DIR = os.path.join(os.path.dirname(__file__), "..", "perfbench")
#: The ``--seconds`` of the paper-suite run whose jobs ``--perfbench``
#: profiles (the benchmark's default run length; the job list is the
#: same for every value of at least 4).
PERFBENCH_SECONDS = 20


def build_machine(spec: str):
    from repro.arch.presets import (
        grid_machine,
        l6_machine,
        linear_machine,
        ring_machine,
    )

    if spec == "l6":
        return l6_machine()
    kind, _, arg = spec.partition(":")
    if kind == "linear":
        return linear_machine(int(arg))
    if kind == "ring":
        return ring_machine(int(arg))
    if kind == "grid":
        rows, _, cols = arg.partition("x")
        return grid_machine(int(rows), int(cols))
    raise SystemExit(f"unknown machine spec {spec!r}")


def top_entries(
    stats: pstats.Stats, sort: str, top: int
) -> list[dict]:
    """The top-N profile rows as JSON-able records.

    ``stats.stats`` maps ``(file, line, func)`` to
    ``(primitive_calls, calls, tottime, cumtime, callers)``; rows are
    ranked by the same key the text report would sort on.
    """
    key = {"cumulative": 3, "tottime": 2, "ncalls": 1}[sort]
    rows = sorted(
        stats.stats.items(),
        key=lambda item: item[1][key],
        reverse=True,
    )
    return [
        {
            "function": func,
            "file": filename,
            "line": line,
            "ncalls": calls,
            "primitive_calls": primitive,
            "tottime": round(tottime, 6),
            "cumtime": round(cumtime, 6),
        }
        for (filename, line, func), (
            primitive,
            calls,
            tottime,
            cumtime,
            _callers,
        ) in rows[:top]
    ]


def suite_jobs(args) -> list:
    """The reduced paper suite under one config on ``--machine``; the
    optimize phase runs the default passes."""
    from repro.batch import CompileJob
    from repro.bench.suite import paper_suite
    from repro.compiler.config import CompilerConfig
    from repro.compiler.mapping import greedy_initial_mapping

    machine = build_machine(args.machine)
    circuits = paper_suite(full=False)
    if args.circuit is not None:
        circuits = [c for c in circuits if c.name == args.circuit]
        if not circuits:
            names = ", ".join(c.name for c in paper_suite(full=False))
            raise SystemExit(
                f"unknown circuit {args.circuit!r}; choose from: {names}"
            )
    config = (
        CompilerConfig.baseline() if args.baseline else CompilerConfig.optimized()
    ).variant(post_passes=("default",))
    return [
        CompileJob(
            circuit=circuit,
            machine=machine,
            config=config,
            simulate=True,
            initial_chains=greedy_initial_mapping(circuit, machine),
        )
        for circuit in circuits
    ]


def perfbench_jobs(seed: int) -> list:
    """The 26 jobs one paper-suite round of perfbench times, built by
    perfbench's own ``plan`` and ``setup``."""
    sys.path.insert(0, PERFBENCH_DIR)
    from harness import Spans
    from paper_suite import plan, setup

    specs, _rounds = plan(seed, PERFBENCH_SECONDS)
    return setup(specs, Spans())


def run_phase(phase: str, jobs: list, repeat: int, profile) -> None:
    """Run every job's stages up to ``phase``, with only ``phase``
    (``job``: the whole job, as the batch runner executes it) under
    the profiler."""
    from repro.batch.runner import execute_job
    from repro.compiler.compiler import QCCDCompiler
    from repro.passes.manager import PassManager
    from repro.passes.verify import verify_schedule
    from repro.sim.simulator import Simulator

    for job in jobs:
        if phase == "job":
            profile.enable()
            for _ in range(repeat):
                execute_job(job)
            profile.disable()
            continue
        compiler = QCCDCompiler(
            job.machine, job.config.variant(post_passes=())
        )
        chains = job.initial_chains

        def compile_raw():
            return compiler.compile(job.circuit, initial_chains=chains)

        def optimize(schedule):
            return PassManager(job.config.post_passes).run(
                schedule, job.machine, {t: list(c) for t, c in chains.items()}
            )

        def simulate(schedule):
            return Simulator(job.machine, job.params).run(schedule, chains)

        def verify(schedule):
            return verify_schedule(job.machine, schedule, chains)

        if phase == "compile":
            profile.enable()
            for _ in range(repeat):
                compile_raw()
            profile.disable()
            continue
        schedule = compile_raw().schedule
        if phase == "optimize":
            if job.config.post_passes:
                profile.enable()
                for _ in range(repeat):
                    optimize(schedule)
                profile.disable()
            continue
        if job.config.post_passes:
            schedule = optimize(schedule).schedule
        stage = simulate if phase == "simulate" else verify
        profile.enable()
        for _ in range(repeat):
            stage(schedule)
        profile.disable()


def main() -> None:
    parser = argparse.ArgumentParser(
        description="cProfile the QCCD compiler's hot path"
    )
    parser.add_argument(
        "--circuit",
        default=None,
        help="paper-suite circuit name (default: every reduced-suite circuit)",
    )
    parser.add_argument("--machine", default="l6", help="l6 | linear:N | ring:N | grid:RxC")
    parser.add_argument("--top", type=int, default=25, help="rows to print")
    parser.add_argument(
        "--sort",
        default="cumulative",
        choices=["cumulative", "tottime", "ncalls"],
        help="pstats sort key",
    )
    parser.add_argument(
        "--repeat", type=int, default=1, help="compiles per circuit"
    )
    parser.add_argument(
        "--baseline",
        action="store_true",
        help="profile the [7] baseline config instead of this work's",
    )
    parser.add_argument(
        "--phase",
        default="compile",
        choices=["compile", "optimize", "simulate", "verify", "job"],
        help="pipeline stage to run under the profiler (earlier stages "
        "run unprofiled to build its input; job = the whole job, "
        "--perfbench only)",
    )
    parser.add_argument(
        "--perfbench",
        type=int,
        default=None,
        metavar="SEED",
        help="profile the 26 jobs of a perfbench paper-suite round for "
        "SEED instead of the reduced suite (--circuit, --machine and "
        "--baseline do not apply)",
    )
    parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also write the top-N rows as JSON (use '-' for stdout)",
    )
    args = parser.parse_args()
    if args.phase == "job" and args.perfbench is None:
        parser.error("--phase job needs --perfbench")

    from repro.core.vector import HAVE_NUMPY

    if args.perfbench is not None:
        jobs = perfbench_jobs(args.perfbench)
        machine = jobs[0].machine
        config_label = "baseline [7] + this-work"
    else:
        jobs = suite_jobs(args)
        machine = jobs[0].machine
        config_label = jobs[0].config.name
    circuits = list({id(job.circuit): job.circuit for job in jobs}.values())

    profile = cProfile.Profile()
    run_phase(args.phase, jobs, args.repeat, profile)

    label = ", ".join(c.name for c in circuits[:5])
    if len(circuits) > 5:
        label += f", ... ({len(circuits)} circuits)"
    stats = pstats.Stats(profile)
    if args.json is not None:
        document = {
            "config": config_label,
            "machine": machine.name,
            "phase": args.phase,
            "vector_kernel": HAVE_NUMPY,
            "circuits": [c.name for c in circuits],
            "repeat": args.repeat,
            "sort": args.sort,
            "entries": top_entries(stats, args.sort, args.top),
        }
        if args.json == "-":
            json.dump(document, sys.stdout, indent=2)
            sys.stdout.write("\n")
            return
        with open(args.json, "w") as handle:
            json.dump(document, handle, indent=2)
        print(f"wrote {args.json}")
    kernel = "" if HAVE_NUMPY else ", scalar replay"
    print(
        f"# {config_label} on {machine.name} — {args.phase} phase{kernel} — "
        f"{label} — top {args.top} by {args.sort}\n"
    )
    stats.sort_stats(args.sort).print_stats(args.top)


if __name__ == "__main__":
    main()
