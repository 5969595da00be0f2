"""Scenario execution: traffic generation, sampling, report assembly.

:class:`LoadRunner` is the harness around one scenario run:

1. resolve overrides (consumers / seed / volume) into an effective
   scenario and set up the cache regime (``cold`` — a fresh directory,
   ``warm`` — the same plus an unmeasured prewarm pass, ``disabled`` —
   no cache, every request compiles);
2. execute the traffic through
   :meth:`repro.batch.runner.BatchRunner.run_timed` under a live
   :mod:`repro.obs` observation — count-bounded runs in one call,
   duration-bounded closed loops in chunks drawn from the scenario's
   single deterministic job stream until the deadline;
3. while jobs run, a :class:`~repro.loadgen.sampling.Sampler` thread
   records RSS and completion progress;
4. fold the per-job timelines into windows, read latency percentiles
   off the registry's merged quantile buckets, run the soak detectors,
   and return a :class:`~repro.loadgen.report.LoadReport`.

Latency semantics per arrival mode: closed loops report *service*
seconds (the executing process' wall time per job — consumers never
wait to submit), open loops report *sojourn* (scheduled arrival to
completion, queueing included).  Cache hits in either mode report the
parent-side lookup cost.
"""

from __future__ import annotations

import logging
import shutil
import tempfile
import threading
from dataclasses import replace
from time import perf_counter

from .. import obs
from ..batch.runner import BatchRunner, TimedResult
from ..resilience.faults import FaultPlan
from ..resilience.policy import RetryPolicy
from .live import LiveRunner
from .report import LoadRecord, LoadReport
from .sampling import Sampler
from .scenario import Scenario
from .soak import SoakThresholds, evaluate_soak, linear_slope

logger = logging.getLogger(__name__)

#: Jobs drawn per wave of a duration-bounded closed loop: large enough
#: to keep pool churn negligible, small enough to respect the deadline.
CHUNK_FACTOR = 4


class LoadRunner:
    """Executes one :class:`Scenario` and builds its :class:`LoadReport`.

    Overrides (all optional) replace the scenario's own values:
    ``consumers``, ``seed``, ``jobs`` (a job count; clears a preset
    duration), ``duration`` (seconds; clears a preset count),
    ``chaos`` (a :class:`FaultPlan`), ``max_attempts`` and
    ``job_timeout`` (resilience knobs).  ``thresholds`` tune the soak
    detectors.

    ``target`` switches to **live mode**: the same scenario draws are
    POSTed to a ``repro serve`` endpoint (see
    :mod:`repro.loadgen.live`) instead of executed in-process —
    ``identity`` names the rate-limit key, chaos/cache knobs are the
    server's business.  ``interrupt`` (a :class:`threading.Event`, set
    by the CLI's SIGINT handler) stops submission, drains in-flight
    work, and marks the report ``interrupted``.
    """

    def __init__(
        self,
        scenario: Scenario,
        consumers: int | None = None,
        seed: int | None = None,
        jobs: int | None = None,
        duration: float | None = None,
        thresholds: SoakThresholds | None = None,
        chaos: FaultPlan | None = None,
        max_attempts: int | None = None,
        job_timeout: float | None = None,
        target: str | None = None,
        identity: str | None = None,
        interrupt: threading.Event | None = None,
    ) -> None:
        overrides: dict = {}
        if consumers is not None:
            overrides["consumers"] = consumers
        if seed is not None:
            overrides["seed"] = seed
        if jobs is not None:
            overrides["jobs"] = jobs
            overrides["duration"] = None
        elif duration is not None:
            overrides["duration"] = duration
            overrides["jobs"] = None
        if chaos is not None:
            overrides["chaos"] = chaos
        if max_attempts is not None:
            overrides["max_attempts"] = max_attempts
        if job_timeout is not None:
            overrides["job_timeout"] = job_timeout
        self.scenario = (
            replace(scenario, **overrides) if overrides else scenario
        )
        self.thresholds = thresholds or SoakThresholds()
        self.target = target
        self.identity = identity
        self.interrupt = interrupt
        #: True once a run was cut short by the interrupt event.
        self.interrupted = False

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> LoadReport:
        """Execute the scenario; returns the assembled report."""
        scenario = self.scenario
        if self.target is not None:
            observation = obs.active()
            if observation is not None:
                return self._run_live(observation)
            with obs.observe() as observation:
                return self._run_live(observation)
        cache_dir: str | None = None
        try:
            if scenario.cache != "disabled":
                cache_dir = tempfile.mkdtemp(prefix="repro-load-")
            observation = obs.active()
            if observation is not None:
                return self._run_observed(observation, cache_dir)
            with obs.observe() as observation:
                return self._run_observed(observation, cache_dir)
        finally:
            if cache_dir is not None:
                shutil.rmtree(cache_dir, ignore_errors=True)

    def _run_live(self, observation) -> LoadReport:
        """Live mode: replay the scenario against a serve endpoint and
        fold the outcomes onto the same report shape."""
        live = LiveRunner(
            self.scenario,
            self.target,
            identity=self.identity,
            interrupt=self.interrupt,
        )
        done = {"count": 0}
        sampler = Sampler(
            self.scenario.sample_interval, progress=lambda: done["count"]
        )
        sampler.start()
        try:
            outcomes, wall, submitted = live.run()
            done["count"] = len(outcomes)
        finally:
            samples = sampler.finish()
        self.interrupted = live.interrupted
        records = sorted(outcomes, key=lambda o: o.index)
        return self._build_report(
            observation, records, samples, wall, submitted
        )

    def _run_observed(self, observation, cache_dir: str | None) -> LoadReport:
        scenario = self.scenario
        state = {"done": 0, "failed": 0}

        def progress(done, total, job, job_result):
            state["done"] += 1
            if not job_result.ok:
                state["failed"] += 1
            logger.debug(
                "load: [%d] %s: %s",
                state["done"],
                job.label,
                "error" if not job_result.ok else "ok",
            )

        count = scenario.job_count()
        prewarm_jobs = None
        if scenario.cache == "warm":
            # Prewarm with exactly the jobs the measured run will draw
            # (or the first wave of a duration-bounded stream) so the
            # measured pass opens on a hot cache.
            n = count if count is not None else self._chunk_size()
            prewarm_jobs = scenario.draw_jobs(n)
            # Prewarm under a throwaway observation so its metrics
            # never reach the measured run's registry.
            with obs.observe():
                BatchRunner(
                    n_jobs=scenario.consumers, cache=cache_dir
                ).run(prewarm_jobs)
        retry = None
        if scenario.max_attempts > 1:
            retry = RetryPolicy(
                max_attempts=scenario.max_attempts, seed=scenario.seed
            )
        cache = cache_dir
        if (
            cache_dir is not None
            and scenario.chaos is not None
            and (
                scenario.chaos.cache_read_corrupt_rate
                or scenario.chaos.cache_write_corrupt_rate
            )
        ):
            from ..resilience.cache import ChaosCache
            from ..batch.cache import ResultCache

            cache = ChaosCache(ResultCache(cache_dir), scenario.chaos)
        runner = BatchRunner(
            n_jobs=scenario.consumers,
            cache=cache,
            progress=progress,
            timeout=scenario.job_timeout,
            retry=retry,
            chaos=scenario.chaos,
            interrupt=self.interrupt,
        )

        sampler = Sampler(
            scenario.sample_interval, progress=lambda: state["done"]
        )
        sampler.start()
        t_zero = perf_counter()
        records: list[LoadRecord] = []
        submitted = 0
        try:
            if count is not None:
                jobs = (
                    prewarm_jobs
                    if prewarm_jobs is not None and len(prewarm_jobs) == count
                    else scenario.draw_jobs(count)
                )
                submitted += len(jobs)
                timed = runner.run_timed(jobs, scenario.arrivals(count))
                self._collect(records, timed, jobs, offset=0, t_offset=0.0)
            else:
                stream = scenario.job_stream()
                chunk_size = self._chunk_size()
                while perf_counter() - t_zero < scenario.duration:
                    if self.interrupt is not None and self.interrupt.is_set():
                        break
                    t_offset = perf_counter() - t_zero
                    chunk = [next(stream) for _ in range(chunk_size)]
                    submitted += len(chunk)
                    timed = runner.run_timed(chunk)
                    self._collect(
                        records, timed, chunk,
                        offset=len(records), t_offset=t_offset,
                    )
        finally:
            wall = perf_counter() - t_zero
            samples = sampler.finish()
            self.interrupted = runner.interrupted or (
                self.interrupt is not None and self.interrupt.is_set()
            )
        return self._build_report(
            observation, records, samples, wall, submitted
        )

    def _chunk_size(self) -> int:
        return max(CHUNK_FACTOR * self.scenario.consumers, 8)

    def _collect(
        self,
        records: list[LoadRecord],
        timed: list[TimedResult],
        jobs,
        offset: int,
        t_offset: float,
    ) -> None:
        """Fold one ``run_timed`` result batch onto the global timeline."""
        closed = self.scenario.mode == "closed"
        for entry in sorted(timed, key=lambda t: t.result.job_index):
            result = entry.result
            if closed:
                latency = result.seconds
                if latency is None:  # cache hit: parent-side lookup cost
                    latency = max(entry.finished - entry.dispatched, 0.0)
            else:
                latency = max(entry.sojourn, 0.0)
            records.append(
                LoadRecord(
                    index=offset + result.job_index,
                    label=jobs[result.job_index].label,
                    arrival=t_offset + entry.arrival,
                    finished=t_offset + entry.finished,
                    ok=result.ok,
                    cache_hit=result.cache_hit,
                    latency=latency,
                    outcome=result.outcome,
                    admitted=result.outcome != "interrupted",
                )
            )

    # ------------------------------------------------------------------
    # Report assembly
    # ------------------------------------------------------------------
    def _build_report(
        self,
        observation,
        records: list[LoadRecord],
        samples: list[dict],
        wall: float,
        submitted: int,
    ) -> LoadReport:
        scenario = self.scenario
        metrics = observation.metrics
        for record in records:
            metrics.inc("load.jobs")
            metrics.inc("load.ok" if record.ok else "load.failed")
            if record.cache_hit:
                metrics.inc("load.cache_hits")
            if not record.admitted:
                # Refusals (shed / rate-limited / draining) and
                # interrupted never-dispatched jobs: counted, but kept
                # out of the latency percentiles — those describe the
                # service experienced by *admitted* requests.
                metrics.inc("load.refused")
                continue
            metrics.observe("load.latency_seconds", record.latency)

        ok = sum(1 for r in records if r.ok)
        hits = sum(1 for r in records if r.cache_hit)
        refused = sum(1 for r in records if not r.admitted)
        counts = {
            "jobs": len(records),
            "ok": ok,
            "failed": len(records) - ok,
            "refused": refused,
            "cache_hits": hits,
            "cache_misses": len(records) - hits,
        }

        width = scenario.sample_interval
        by_window: dict[int, list[LoadRecord]] = {}
        for record in records:
            by_window.setdefault(int(record.finished // width), []).append(
                record
            )
        windows = []
        for index in sorted(by_window):
            members = by_window[index]
            windows.append(
                {
                    "t_start": index * width,
                    "jobs": len(members),
                    "jobs_per_s": len(members) / width,
                    "mean_latency": (
                        sum(r.latency for r in members) / len(members)
                    ),
                    "cache_hit_rate": (
                        sum(1 for r in members if r.cache_hit) / len(members)
                    ),
                }
            )

        hist = metrics.histograms.get("load.latency_seconds")
        if hist is not None and hist.count:
            latency = {
                "source": "service" if scenario.mode == "closed" else "sojourn",
                "count": hist.count,
                "mean": hist.mean,
                "min": hist.min,
                "max": hist.max,
                **hist.percentiles(),
            }
        else:
            latency = {
                "source": "service" if scenario.mode == "closed" else "sojourn",
                "count": 0, "mean": None, "min": None, "max": None,
                "p50": None, "p90": None, "p99": None,
            }

        memory_points = [
            (s["t"], s["rss_kb"]) for s in samples if s["rss_kb"] is not None
        ]
        memory = {
            "samples": samples,
            "start_kb": memory_points[0][1] if memory_points else None,
            "end_kb": memory_points[-1][1] if memory_points else None,
            "slope_kb_per_s": linear_slope(memory_points),
        }

        trips = evaluate_soak(
            memory_points,
            [w["mean_latency"] for w in windows],
            [w["jobs_per_s"] for w in windows],
            self.thresholds,
        )

        enabled = (
            scenario.chaos is not None
            or scenario.job_timeout is not None
            or scenario.max_attempts > 1
        )
        outcomes: dict[str, int] = {}
        for record in records:
            outcomes[record.outcome] = outcomes.get(record.outcome, 0) + 1
        resilience = {
            "enabled": enabled,
            "chaos": (
                scenario.chaos.to_dict() if scenario.chaos is not None else None
            ),
            "max_attempts": scenario.max_attempts,
            "job_timeout": scenario.job_timeout,
            # The zero-lost invariant: every job handed to the runner
            # must come back with a terminal result, faults or not.
            "submitted": submitted,
            "lost": submitted - len(records),
            "retries": metrics.counter("batch.retries"),
            "timeouts": metrics.counter("batch.timeouts"),
            "worker_deaths": metrics.counter("batch.worker_deaths"),
            "quarantined": metrics.counter("batch.quarantined"),
            "injected": {
                name.removeprefix("chaos.injected."): value
                for name, value in sorted(metrics.counters.items())
                if name.startswith("chaos.injected.")
            },
            "cache_corrupt": metrics.counter("cache.corrupt"),
            "outcomes": outcomes,
        }

        return LoadReport(
            scenario=scenario.to_dict(),
            seed=scenario.seed,
            consumers=scenario.consumers,
            duration_seconds=wall,
            counts=counts,
            throughput={
                "overall_jobs_per_s": len(records) / wall if wall else 0.0,
                "window_seconds": width,
                "windows": windows,
            },
            latency=latency,
            memory=memory,
            cache={
                "mode": scenario.cache,
                "hit_rate": hits / len(records) if records else 0.0,
            },
            metrics=metrics.snapshot(),
            soak=trips,
            resilience=resilience,
            target=self.target,
            interrupted=self.interrupted,
        )
