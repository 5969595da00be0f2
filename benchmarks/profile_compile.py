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

``--phase`` selects which pipeline stage runs under the profiler
(``compile`` is the default; ``optimize``/``simulate``/``verify`` run
the earlier stages unprofiled to build their input).  Replays take
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
        choices=["compile", "optimize", "simulate", "verify"],
        help="pipeline stage to run under the profiler (earlier stages "
        "run unprofiled to build its input)",
    )
    parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also write the top-N rows as JSON (use '-' for stdout)",
    )
    args = parser.parse_args()

    from repro.bench.suite import paper_suite
    from repro.compiler.compiler import QCCDCompiler
    from repro.compiler.config import CompilerConfig
    from repro.compiler.mapping import greedy_initial_mapping
    from repro.core.vector import HAVE_NUMPY

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
    )
    compiler = QCCDCompiler(machine, config)
    jobs = [
        (circuit, greedy_initial_mapping(circuit, machine))
        for circuit in circuits
    ]

    profile = cProfile.Profile()
    if args.phase == "compile":
        profile.enable()
        for circuit, chains in jobs:
            for _ in range(args.repeat):
                compiler.compile(circuit, initial_chains=chains)
        profile.disable()
    else:
        # Build the profiled phase's input unprofiled.
        from repro.passes.manager import PassManager
        from repro.passes.verify import verify_schedule
        from repro.sim.simulator import Simulator

        compiled = [
            (compiler.compile(circuit, initial_chains=chains), chains)
            for circuit, chains in jobs
        ]
        if args.phase == "optimize":
            manager = PassManager()
            profile.enable()
            for result, _chains in compiled:
                for _ in range(args.repeat):
                    manager.run(
                        result.schedule, machine, result.initial_chains
                    )
            profile.disable()
        else:
            optimized = [
                (
                    PassManager()
                    .run(result.schedule, machine, result.initial_chains)
                    .schedule,
                    result.initial_chains,
                )
                for result, _chains in compiled
            ]
            if args.phase == "simulate":
                simulator = Simulator(machine)
                profile.enable()
                for schedule, chains in optimized:
                    for _ in range(args.repeat):
                        simulator.run(schedule, chains)
                profile.disable()
            else:  # verify
                profile.enable()
                for schedule, chains in optimized:
                    for _ in range(args.repeat):
                        verify_schedule(machine, schedule, chains)
                profile.disable()

    label = ", ".join(c.name for c in circuits[:5])
    if len(circuits) > 5:
        label += f", ... ({len(circuits)} circuits)"
    stats = pstats.Stats(profile)
    if args.json is not None:
        document = {
            "config": config.name,
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
        f"# {config.name} on {machine.name} — {args.phase} phase{kernel} — "
        f"{label} — top {args.top} by {args.sort}\n"
    )
    stats.sort_stats(args.sort).print_stats(args.top)


if __name__ == "__main__":
    main()
