"""The LoadReport: one structured document per load run.

:class:`LoadReport` is the artifact every load/soak run produces —
JSON via :meth:`LoadReport.to_dict` (the ``--report-out`` payload) and
a text rendering via :func:`render_load_report` in the style of
``repro trace``.  Latency percentiles come off the *merged* quantile
buckets of the observation registry (``load.latency_seconds``), so a
parallel run's report equals a serial run's in every count while the
wall-clock fields stay honest per run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..eval.report import render_table
from .soak import Trip


@dataclass
class LoadRecord:
    """One planned request's terminal fate on the run's timeline (an
    in-process run's or a live run's)."""

    index: int
    label: str
    arrival: float
    finished: float
    ok: bool
    cache_hit: bool
    latency: float
    outcome: str
    #: False for server refusals (shed / rate-limited / draining) and
    #: never-submitted or never-dispatched ``interrupted`` draws —
    #: excluded from the latency percentiles, which cover *admitted*
    #: requests only.
    admitted: bool


@dataclass
class LoadReport:
    """Structured outcome of one :class:`~repro.loadgen.runner.LoadRunner` run."""

    scenario: dict
    seed: int
    consumers: int
    duration_seconds: float
    #: jobs / ok / failed / cache_hits / cache_misses counts.
    counts: dict
    #: ``{"overall_jobs_per_s": ..., "window_seconds": ...,
    #: "windows": [{"t_start", "jobs", "jobs_per_s", "mean_latency",
    #: "cache_hit_rate"}, ...]}``.
    throughput: dict
    #: ``{"source": "service"|"sojourn", "count", "mean", "min",
    #: "max", "p50", "p90", "p99"}``.
    latency: dict
    #: ``{"samples": [{"t", "rss_kb", "done"}, ...],
    #: "start_kb", "end_kb", "slope_kb_per_s"}``.
    memory: dict
    #: ``{"hit_rate": ..., "mode": ...}``.
    cache: dict
    #: Full metrics-registry snapshot of the observed run.
    metrics: dict
    #: Soak verdicts (always present; the CLI gates on them only with
    #: ``--soak``).
    soak: list[Trip] = field(default_factory=list)
    #: Resilience summary: ``{"enabled", "chaos", "max_attempts",
    #: "job_timeout", "submitted", "lost", "retries", "timeouts",
    #: "worker_deaths", "quarantined", "injected", "cache_corrupt",
    #: "outcomes"}``.  ``lost`` must be 0: every submitted job owes a
    #: terminal result, chaos or not.
    resilience: dict = field(default_factory=dict)
    #: Serve endpoint URL for a live-mode run (``repro load --target``);
    #: ``None`` for in-process runs.
    target: str | None = None
    #: True when the run was cut short (SIGINT): the report covers the
    #: drained prefix of the workload, and never-dispatched jobs carry
    #: outcome ``interrupted`` in the ledger.
    interrupted: bool = False

    @property
    def tripped(self) -> list[Trip]:
        """The degradation detectors that fired."""
        return [trip for trip in self.soak if trip.tripped]

    @property
    def passed(self) -> bool:
        """True when no degradation threshold tripped."""
        return not self.tripped

    def to_dict(self) -> dict:
        """The report as one JSON document."""
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "consumers": self.consumers,
            "target": self.target,
            "interrupted": self.interrupted,
            "duration_seconds": self.duration_seconds,
            "counts": self.counts,
            "throughput": self.throughput,
            "latency": self.latency,
            "memory": self.memory,
            "cache": self.cache,
            "soak": {
                "passed": self.passed,
                "trips": [trip.to_dict() for trip in self.soak],
            },
            "resilience": self.resilience,
            "metrics": self.metrics,
        }


def _fmt_ms(seconds: float | None) -> str:
    return "-" if seconds is None else f"{seconds * 1e3:.1f}"


def render_load_report(report: LoadReport) -> str:
    """The ``repro load`` text report."""
    counts = report.counts
    latency = report.latency
    lines = [
        f"load report: {report.scenario.get('name', '?')} "
        f"(seed {report.seed}, {report.consumers} consumers, "
        f"{report.scenario.get('mode', '?')} loop, "
        f"cache {report.cache.get('mode', '?')})",
    ]
    if report.target:
        lines.append(f"  target     {report.target} (live mode)")
    if report.interrupted:
        lines.append(
            "  INTERRUPTED: partial report — submission stopped early, "
            "in-flight jobs drained"
        )
    lines += [
        "",
        f"  jobs       {counts['jobs']} total, {counts['ok']} ok, "
        f"{counts['failed']} failed",
        f"  duration   {report.duration_seconds:.2f} s",
        f"  throughput {report.throughput['overall_jobs_per_s']:.2f} jobs/s",
        f"  latency    ({latency['source']}) mean {_fmt_ms(latency['mean'])} ms"
        f"  p50 {_fmt_ms(latency['p50'])}  p90 {_fmt_ms(latency['p90'])}"
        f"  p99 {_fmt_ms(latency['p99'])}  max {_fmt_ms(latency['max'])}",
        f"  cache      {counts['cache_hits']} hits / "
        f"{counts['cache_misses']} misses "
        f"({report.cache['hit_rate'] * 100.0:.0f}% hit rate)",
    ]
    resilience = report.resilience
    if resilience.get("enabled"):
        injected = resilience.get("injected") or {}
        injected_text = (
            ", ".join(
                f"{kind} x{count}" for kind, count in sorted(injected.items())
            )
            or "none"
        )
        outcomes = resilience.get("outcomes") or {}
        outcome_text = (
            ", ".join(
                f"{count} {name}" for name, count in sorted(outcomes.items())
            )
            or "-"
        )
        lines.append(
            f"  resilience {resilience.get('lost', 0)} lost / "
            f"{resilience.get('submitted', 0)} submitted, "
            f"{resilience.get('retries', 0)} retries, "
            f"{resilience.get('timeouts', 0)} timeouts, "
            f"{resilience.get('worker_deaths', 0)} worker deaths, "
            f"{resilience.get('quarantined', 0)} quarantined"
        )
        lines.append(
            f"  chaos      injected: {injected_text}; cache corrupt: "
            f"{resilience.get('cache_corrupt', 0)}; outcomes: {outcome_text}"
        )
    rss_start = report.memory.get("start_kb")
    rss_end = report.memory.get("end_kb")
    if rss_start is not None and rss_end is not None:
        lines.append(
            f"  memory     {rss_start / 1024.0:.1f} -> "
            f"{rss_end / 1024.0:.1f} MiB "
            f"(slope {report.memory['slope_kb_per_s']:.1f} KiB/s)"
        )
    windows = report.throughput["windows"]
    if windows:
        lines.append("")
        lines.append(
            f"  windows ({report.throughput['window_seconds']:.2f} s each):"
        )
        rows = [
            [
                f"{w['t_start']:.2f}",
                str(w["jobs"]),
                f"{w['jobs_per_s']:.2f}",
                _fmt_ms(w["mean_latency"]),
                f"{w['cache_hit_rate'] * 100.0:.0f}%",
            ]
            for w in windows
        ]
        table = render_table(
            ["t", "jobs", "jobs/s", "mean ms", "cache hit"], rows
        )
        lines.extend("  " + line for line in table.splitlines())
    if report.soak:
        lines.append("")
        lines.append(
            "  soak: " + ("PASS" if report.passed else "DEGRADED")
        )
        for trip in report.soak:
            value = (
                "n/a" if trip.value is None else f"{trip.value:.3f}"
            )
            status = "TRIP" if trip.tripped else "ok"
            lines.append(
                f"    {trip.name:<32} {value:>10}  "
                f"(threshold {trip.threshold:g})  {status}"
            )
    return "\n".join(lines)
