"""Ablation studies (DESIGN.md experiments E4 and E5).

E4 — the gate-proximity design-parameter study backing the paper's
choice of 6 (Section III-A3: "The distance should not be too low ...
and should not be too high"), extended with the distance-metric and
score-decay variants this reproduction documents.

E5 — per-heuristic ablation: each of the paper's three optimizations
(plus this reproduction's capacity guard) toggled on top of the
baseline, and removed from the full configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..arch.machine import QCCDMachine
from ..arch.presets import l6_machine
from ..batch.jobs import CompileJob
from ..batch.runner import BatchRunner
from ..circuits.circuit import Circuit
from ..compiler.config import CompilerConfig
from ..compiler.mapping import greedy_initial_mapping
from .metrics import aggregate, reduction_percent
from .report import render_table

#: Proximity values swept in E4 (None = unbounded look-ahead).
PROXIMITY_SWEEP = (0, 1, 2, 4, 6, 8, 12, 24, None)


@dataclass
class SweepPoint:
    """Aggregate shuttle count for one configuration over a circuit set."""

    label: str
    mean_shuttles: float
    std_shuttles: float
    mean_reduction_percent: float


def _shuttle_counts(
    circuits: list[Circuit],
    machine: QCCDMachine,
    config: CompilerConfig,
    chains: list[dict[int, list[int]]],
) -> list[int]:
    """Shuttle count of each circuit compiled under ``config`` from its
    pinned initial mapping (every configuration of a sweep starts from
    the same placement, as in the paper's comparison)."""
    jobs = [
        CompileJob(circuit, machine, config, initial_chains=initial)
        for circuit, initial in zip(circuits, chains)
    ]
    return [
        job_result.result.num_shuttles
        for job_result in BatchRunner().run_or_raise(jobs)
    ]


def _run_config(
    circuits: list[Circuit],
    machine: QCCDMachine,
    config: CompilerConfig,
    chains: list[dict[int, list[int]]],
    baselines: list[int],
    label: str,
) -> SweepPoint:
    shuttles = _shuttle_counts(circuits, machine, config, chains)
    reductions = [
        reduction_percent(baseline, count)
        for baseline, count in zip(baselines, shuttles)
    ]
    agg = aggregate([float(count) for count in shuttles])
    return SweepPoint(
        label=label,
        mean_shuttles=agg.mean,
        std_shuttles=agg.std,
        mean_reduction_percent=aggregate(reductions).mean,
    )


def proximity_sweep(
    circuits: list[Circuit],
    machine: QCCDMachine | None = None,
    values: tuple = PROXIMITY_SWEEP,
    metric: str = "layers",
) -> list[SweepPoint]:
    """E4: shuttles vs the gate-proximity parameter."""
    if machine is None:
        machine = l6_machine()
    chains = [greedy_initial_mapping(c, machine) for c in circuits]
    baselines = _shuttle_counts(
        circuits, machine, CompilerConfig.baseline(), chains
    )
    points = []
    for proximity in values:
        config = CompilerConfig.optimized().variant(
            proximity=proximity, proximity_metric=metric
        )
        label = "inf" if proximity is None else str(proximity)
        points.append(
            _run_config(circuits, machine, config, chains, baselines, label)
        )
    return points


def heuristic_ablation(
    circuits: list[Circuit],
    machine: QCCDMachine | None = None,
) -> list[SweepPoint]:
    """E5: each heuristic added to the baseline and removed from the full
    configuration."""
    if machine is None:
        machine = l6_machine()
    chains = [greedy_initial_mapping(c, machine) for c in circuits]
    base = CompilerConfig.baseline()
    baselines = _shuttle_counts(circuits, machine, base, chains)
    full = CompilerConfig.optimized()
    variants: list[tuple[str, CompilerConfig]] = [
        ("baseline [7]", base),
        (
            "+future-ops",
            base.variant(shuttle_policy="future-ops", proximity=6),
        ),
        ("+reorder", base.variant(reorder=True)),
        ("+nn-rebalance", base.variant(rebalance="nearest")),
        ("+max-score-ion", base.variant(ion_selection="max-score")),
        ("full (this work)", full),
        ("full -reorder", full.variant(reorder=False)),
        ("full -nn-rebalance", full.variant(rebalance="lowest-index")),
        ("full -max-score-ion", full.variant(ion_selection="chain-head")),
        ("full -capacity-guard", full.variant(capacity_guard=0)),
        ("full +score-decay", full.variant(score_decay=0.7)),
        ("full +cheap-evict", full.variant(cheap_evict=True)),
        ("full, gate-metric", full.variant(proximity_metric="gates")),
    ]
    return [
        _run_config(circuits, machine, config, chains, baselines, label)
        for label, config in variants
    ]


def render_sweep(points: list[SweepPoint], value_header: str) -> str:
    """Render a sweep as an aligned text table."""
    return render_table(
        [value_header, "mean shuttles", "std", "mean reduction vs [7]"],
        [
            [
                p.label,
                f"{p.mean_shuttles:.1f}",
                f"{p.std_shuttles:.1f}",
                f"{p.mean_reduction_percent:.1f}%",
            ]
            for p in points
        ],
    )
