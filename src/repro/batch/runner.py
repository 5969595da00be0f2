"""Parallel batch executor with cache integration.

:class:`BatchRunner` turns a list of :class:`~repro.batch.jobs.CompileJob`
into a list of :class:`JobResult`, in job order, regardless of worker
completion order.  Guarantees:

* **Determinism** — results land at the index of their job; a parallel
  run is element-wise identical to a serial run of the same jobs.
* **Error isolation** — a failing job produces a ``JobResult`` carrying
  the formatted traceback; the rest of the sweep proceeds.
* **Caching** — fingerprints are checked against the
  :class:`~repro.batch.cache.ResultCache` *before* dispatch (a warm
  cache performs zero compilations), and fresh successes are stored
  after completion.  Identical jobs inside one run are compiled once
  and fanned out.
* **Progress** — an optional callback fires in the parent process as
  each job resolves.

Jobs run in-process when one worker would do and no job needs
isolation (no timeout, retry, chaos plan or per-job deadline);
otherwise they run on the supervised pool
(:class:`~repro.resilience.supervisor.Supervisor`), and jobs and
results cross the process boundary by pickling, which every model
object supports.
"""

from __future__ import annotations

import logging
import math
import multiprocessing
import pickle
import threading
import traceback
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace
from time import perf_counter, sleep

from ..compiler.compiler import QCCDCompiler
from ..compiler.mapping import greedy_initial_mapping
from ..compiler.result import CompilationResult
from ..core.ops import ShuttleReason
from ..obs import active as _obs_active
from ..obs import collect as _obs_collect
# Only the dependency-free half of repro.resilience (faults/policy) may
# be imported here — the pool/supervisor layers import this module back.
from ..resilience.faults import (
    FAULT_ERROR,
    FAULT_STALL,
    FaultPlan,
    InjectedFaultError,
    JobTimeoutError,
)
from ..resilience.policy import RetryPolicy
from ..sim.simulator import SimulationReport, Simulator
from .cache import CacheStats, NullCache, ResultCache
from .jobs import CompileJob

logger = logging.getLogger(__name__)

#: Progress callback signature: (done, total, job, result).
ProgressCallback = Callable[[int, int, CompileJob, "JobResult"], None]


@dataclass
class JobResult:
    """Outcome of one job: a result or an error, never both."""

    job_index: int
    fingerprint: str
    result: CompilationResult | None
    report: SimulationReport | None = None
    error: str | None = None
    #: The original exception object when it survives pickling (so
    #: callers can re-raise the real type, e.g. CompilationError);
    #: ``error`` always carries the formatted traceback regardless.
    exception: Exception | None = None
    cache_hit: bool = False
    #: Worker-side metrics snapshot (:meth:`MetricsRegistry.snapshot`)
    #: when the job ran under an active observation; merged into the
    #: parent registry by the runner and stripped before caching and
    #: fan-out, so cached and fresh results compare equal.
    metrics: dict | None = None
    #: Wall seconds the executing process spent on the job (service
    #: time) — recorded for failures too, so load reports can count
    #: errored work.  Stripped before caching (a hit's service time is
    #: the lookup, not the recorded compile).
    seconds: float | None = None
    #: Terminal classification: ``ok`` / ``failed`` / ``timeout`` /
    #: ``crashed`` / ``poisoned`` / ``interrupted``.  Plain failures
    #: and successes are set by the worker; ``crashed`` / ``poisoned``
    #: (and parent-kill timeouts) only arise on the supervised pool;
    #: ``interrupted`` marks jobs never dispatched because the run was
    #: interrupted (SIGINT) mid-drain.
    outcome: str = "ok"
    #: Attempts consumed to reach this terminal result (1 = no retry).
    attempts: int = 1
    #: Wall seconds of every attempt, dispatch to settlement, in order;
    #: ``None`` on the in-process path (and in cache entries).  The
    #: last entry matches :attr:`seconds` when the final attempt
    #: returned a result.
    attempt_seconds: tuple[float, ...] | None = None

    @property
    def ok(self) -> bool:
        """True when the job compiled (and simulated) successfully."""
        return self.error is None and self.result is not None


@dataclass
class TimedResult:
    """One :meth:`BatchRunner.run_timed` outcome with its timeline.

    All times are seconds relative to the run's start.  ``sojourn`` is
    the latency a load generator reports for an open-loop request:
    scheduled arrival to completion, queueing included.  For closed
    loops (every arrival at 0) use :attr:`JobResult.seconds` — the
    service time — instead.
    """

    result: JobResult
    arrival: float
    #: When the parent picked the job up (its cache lookup);
    #: ``finished - dispatched`` bounds a cache hit's parent-side cost.
    dispatched: float
    finished: float

    @property
    def sojourn(self) -> float:
        """Arrival-to-completion latency (wait + service)."""
        return self.finished - self.arrival


class BatchError(RuntimeError):
    """Raised by :meth:`BatchRunner.run` with ``errors="raise"``."""


def execute_job(job: CompileJob) -> tuple[CompilationResult, SimulationReport | None]:
    """Compile (and optionally simulate) one job, serially, in-process.

    This is the single execution path: the serial runner, every pool
    worker, and any external caller all go through it, so results are
    identical no matter where a job runs.
    """
    chains = job.initial_chains
    if chains is None:
        chains = greedy_initial_mapping(job.circuit, job.machine)
    result = QCCDCompiler(job.machine, job.config).compile(
        job.circuit, initial_chains=chains
    )
    report = None
    if job.simulate:
        t_sim = perf_counter()
        report = Simulator(job.machine, job.params).run(
            result.schedule, result.initial_chains
        )
        obs = _obs_active()
        if obs is not None:
            obs.metrics.observe(
                "phase.simulate_seconds", perf_counter() - t_sim
            )
    return result, report


def _execute_indexed(
    payload: tuple[int, CompileJob, str, bool],
    fault: str | None = None,
    chaos: FaultPlan | None = None,
) -> JobResult:
    """Pool worker: run one job, capturing any failure as a record.

    ``observed`` payloads run under :func:`repro.obs.collect`, which
    routes metrics into a fresh registry whose snapshot travels back
    with the result — the same protocol in-process and across the
    pool, so serial and parallel sweeps aggregate identically.

    ``fault`` is an optional injected worker fault (``error`` or
    ``stall``; ``crash`` never reaches this layer) applied *inside*
    the guarded window, so injected failures take the exact code path
    of genuine ones.
    """
    index, job, key, observed = payload
    if not observed:
        return _execute_one(index, job, key, fault, chaos)
    with _obs_collect() as registry:
        t_job = perf_counter()
        job_result = _execute_one(index, job, key, fault, chaos)
        registry.observe("batch.job_seconds", perf_counter() - t_job)
        # Outcome counters travel in the snapshot even when the job
        # failed — partial metrics from errored work reach the parent
        # (load reports count failures, they don't lose them).
        registry.inc("batch.jobs_ok" if job_result.ok else "batch.jobs_failed")
        return replace(job_result, metrics=registry.snapshot())


def _execute_one(
    index: int,
    job: CompileJob,
    key: str,
    fault: str | None = None,
    chaos: FaultPlan | None = None,
) -> JobResult:
    t_start = perf_counter()
    try:
        if fault == FAULT_STALL:
            sleep(chaos.stall_seconds)
        elif fault == FAULT_ERROR:
            raise InjectedFaultError(
                f"injected worker fault (plan seed {chaos.seed}, "
                f"job {key[:12]})"
            )
        result, report = execute_job(job)
        return JobResult(
            index, key, result, report, seconds=perf_counter() - t_start
        )
    except JobTimeoutError as exc:
        return JobResult(
            index,
            key,
            None,
            error=traceback.format_exc(),
            exception=exc,
            seconds=perf_counter() - t_start,
            outcome="timeout",
        )
    except Exception as exc:
        try:
            pickle.dumps(exc)
        except Exception:
            exc = None  # unpicklable: the traceback string still travels
        return JobResult(
            index,
            key,
            None,
            error=traceback.format_exc(),
            exception=exc,
            seconds=perf_counter() - t_start,
            outcome="failed",
        )


def cache_entry(job_result: JobResult) -> JobResult:
    """The copy of a fresh success that goes into a result cache.

    Execution circumstance (index, timing, attempt history, worker
    metrics) is stripped, so a cached replay of a retried job compares
    equal to a fault-free one, whichever front end wrote the entry.
    """
    return replace(
        job_result,
        job_index=-1,
        seconds=None,
        attempts=1,
        attempt_seconds=None,
        metrics=None,
    )


def result_payload(job_result: JobResult) -> dict:
    """The summary of a successful job: the JSON artifact document
    ``repro serve`` returns, and what a cache entry stores beside the
    result (:meth:`~repro.batch.cache.ResultCache.summary`)."""
    result = job_result.result
    by_reason = result.shuttles_by_reason()
    payload = {
        "circuit": result.circuit_name,
        "config": result.config_name,
        "num_gates": result.num_gates,
        "num_shuttles": result.num_shuttles,
        "gate_routing_shuttles": by_reason.get(ShuttleReason.GATE, 0),
        "rebalance_shuttles": by_reason.get(ShuttleReason.REBALANCE, 0),
        "num_reorders": result.num_reorders,
        "num_rebalances": result.num_rebalances,
        "compile_time": result.compile_time,
    }
    if result.optimized:
        payload["raw_num_shuttles"] = result.raw_num_shuttles
        payload["shuttles_removed_by_passes"] = (
            result.shuttles_removed_by_passes
        )
    if job_result.report is not None:
        report = job_result.report
        payload["simulation"] = {
            "log10_fidelity": report.log10_fidelity,
            "duration": report.duration,
            "max_nbar": report.max_nbar,
        }
    return payload


class BatchRunner:
    """Executes job lists across a worker pool with result caching.

    Parameters
    ----------
    n_jobs:
        Worker processes; ``<= 0`` means one per CPU.
    cache:
        A :class:`ResultCache`, a cache-directory path, or ``None``
        for no caching (equivalent to :class:`NullCache`).  Any object
        duck-typing ``get``/``put``/``stats`` also works (e.g.
        :class:`~repro.resilience.cache.ChaosCache`).
    progress:
        Optional callback fired in the parent as each job resolves.
    timeout:
        Default per-job wall-clock budget, seconds (a job's own
        :attr:`CompileJob.deadline` overrides it).
    retry:
        :class:`~repro.resilience.policy.RetryPolicy` for failed /
        timed-out / crashed attempts.
    chaos:
        :class:`~repro.resilience.faults.FaultPlan` to inject faults
        (testing only).
    interrupt:
        Optional :class:`threading.Event`.  Once set (typically by a
        SIGINT handler), the runner stops dispatching new jobs, drains
        whatever is already in flight, and marks never-dispatched jobs
        with outcome ``interrupted`` — a partial-but-accounted-for
        result list, never a KeyboardInterrupt mid-run.
        :attr:`interrupted` reports whether a run was cut short.

    Jobs run in-process when one worker would do (``n_jobs`` or the
    number of jobs to run is 1) and no job needs isolation (no timeout,
    retry, chaos plan or per-job deadline).  Otherwise they run on the
    supervised pool (:class:`~repro.resilience.supervisor.Supervisor`),
    where every wait is bounded and a dead worker surfaces as a
    ``crashed`` result instead of a hang.
    """

    def __init__(
        self,
        n_jobs: int = 1,
        cache: ResultCache | NullCache | str | None = None,
        progress: ProgressCallback | None = None,
        timeout: float | None = None,
        retry: RetryPolicy | None = None,
        chaos: FaultPlan | None = None,
        interrupt: threading.Event | None = None,
    ) -> None:
        if n_jobs <= 0:
            n_jobs = multiprocessing.cpu_count()
        self.n_jobs = n_jobs
        if cache is None:
            cache = NullCache()
        elif isinstance(cache, str):
            cache = ResultCache(cache)
        self.cache = cache
        self.progress = progress
        self.timeout = timeout
        self.retry = retry
        self.chaos = chaos
        self.interrupt = interrupt
        #: True once a run was cut short by the interrupt event.
        self.interrupted = False
        #: Jobs skipped because an identical job ran earlier in the
        #: same pass (in-run deduplication, not a disk hit).
        self.deduplicated = 0

    def _interrupt_set(self) -> bool:
        return self.interrupt is not None and self.interrupt.is_set()

    @staticmethod
    def _interrupted_result(index: int, key: str) -> JobResult:
        return JobResult(
            index,
            key,
            None,
            error="run interrupted before this job was dispatched",
            outcome="interrupted",
        )

    @property
    def cache_stats(self) -> CacheStats:
        """Hit/miss stats of the underlying cache."""
        return self.cache.stats

    def run(self, jobs: Sequence[CompileJob]) -> list[JobResult]:
        """Execute ``jobs``; the result list is index-aligned with them."""
        total = len(jobs)
        results: list[JobResult | None] = [None] * total
        done = 0

        def resolve(index: int, job_result: JobResult) -> None:
            nonlocal done
            results[index] = job_result
            done += 1
            if self.progress is not None:
                self.progress(done, total, jobs[index], job_result)

        # Cache pass: satisfy what we can before touching the pool, and
        # collapse identical jobs so each fingerprint compiles once.
        obs = _obs_active()
        keys = [job.fingerprint() for job in jobs]
        pending: dict[str, list[int]] = {}
        work: list[tuple[int, CompileJob]] = []
        for index, job in enumerate(jobs):
            key = keys[index]
            if key in pending:
                self.deduplicated += 1
                if obs is not None:
                    obs.metrics.inc("batch.deduplicated")
                pending[key].append(index)
                continue
            cached = self.cache.get(key)
            if cached is not None:
                resolve(
                    index,
                    replace(cached, job_index=index, cache_hit=True),
                )
                continue
            pending[key] = [index]
            work.append((index, job))

        if obs is not None:
            obs.metrics.inc("batch.jobs", total)
        logger.debug(
            "batch: %d jobs -> %d to run (%d cached, %d deduplicated)",
            total,
            len(work),
            done,
            total - done - len(work),
        )

        def finish(job_result: JobResult) -> None:
            self._finish(
                job_result, pending.pop(job_result.fingerprint), resolve
            )

        skipped = self._dispatch(
            work, lambda index, _job: keys[index], finish
        )
        for index in skipped:
            finish(self._interrupted_result(index, keys[index]))

        assert all(r is not None for r in results)
        return results  # type: ignore[return-value]

    def _dispatch(
        self,
        work: Sequence[tuple[int, CompileJob]],
        admit: Callable[[int, CompileJob], str | None],
        finish: Callable[[JobResult], None],
        due: Sequence[float] | None = None,
    ) -> list[int]:
        """Execute ``work`` in order; every terminal result goes to
        ``finish``.  Returns the indices left undispatched because the
        interrupt event fired (in-flight jobs are drained first).

        ``admit(index, job)`` runs when the job's turn comes and returns
        its fingerprint, or ``None`` once it has settled the job itself
        (a cache hit).  ``due[index]``, if given, is the
        :func:`~time.perf_counter` instant before which job ``index``
        is not dispatched.

        One worker with no isolation need runs jobs in-process.
        Otherwise a :class:`Supervisor` gets at most two jobs per worker
        at a time: enough that a finishing worker always has a queued
        successor, few enough that an interrupt drains quickly.
        """
        if not work:
            return []
        workers = min(self.n_jobs, len(work))
        isolate = (
            self.timeout is not None
            or self.retry is not None
            or self.chaos is not None
            or any(job.deadline is not None for _index, job in work)
        )
        if workers == 1 and not isolate:
            supervisor = None
        else:
            # Lazy import: the resilience package imports this module.
            from ..resilience.supervisor import Supervisor

            supervisor = Supervisor(
                workers,
                retry=self.retry,
                timeout=self.timeout,
                chaos=self.chaos,
            )
        observed = _obs_active() is not None

        def settle(timeout: float) -> None:
            for job_result in supervisor.poll(timeout):
                finish(job_result)

        def ready(start: float, window: float) -> bool:
            """Wait, settling completions, until ``start`` has passed
            and fewer than ``window`` jobs are in flight; ``False`` if
            interrupted first."""
            while not self._interrupt_set():
                delay = start - perf_counter()
                if supervisor is None or not supervisor.pending:
                    if delay <= 0:
                        return True
                    sleep(delay)
                elif delay > 0:
                    settle(min(delay, 0.05))
                elif supervisor.pending < window:
                    return True
                else:
                    settle(0.25)
            return False

        skipped: list[int] = []
        try:
            for position, (index, job) in enumerate(work):
                start = 0.0 if due is None else due[index]
                # Admission (a cache hit included) happens on arrival;
                # only a job that must execute waits for window room.
                if ready(start, math.inf):
                    key = admit(index, job)
                    if key is None:
                        continue
                    if supervisor is None:
                        finish(_execute_indexed((index, job, key, observed)))
                        continue
                    if ready(start, 2 * workers):
                        supervisor.submit(index, job, key, observed)
                        continue
                self.interrupted = True
                skipped = [index for index, _job in work[position:]]
                break
            while supervisor is not None and supervisor.pending:
                settle(0.25)
        finally:
            if supervisor is not None:
                supervisor.close()
        return skipped

    def _finish(
        self,
        job_result: JobResult,
        indices: list[int],
        resolve: Callable[[int, JobResult], None],
    ) -> None:
        """Merge a terminal result's worker metrics, cache it if it is
        a fresh success, and resolve it at every index in ``indices``
        (the job and its in-run duplicates)."""
        if job_result.metrics is not None:
            obs = _obs_active()
            if obs is not None:
                # Merge once per fresh result (before fan-out) so
                # duplicates and cache hits never double-count.
                obs.metrics.merge(job_result.metrics)
            job_result = replace(job_result, metrics=None)
        if job_result.ok and not job_result.cache_hit:
            self.cache.put(job_result.fingerprint, cache_entry(job_result))
        for index in indices:
            resolve(index, replace(job_result, job_index=index))

    def run_timed(
        self,
        jobs: Sequence[CompileJob],
        arrivals: Sequence[float] | None = None,
    ) -> list[TimedResult]:
        """Execute ``jobs`` on a request timeline; the load-generator
        entry point (:mod:`repro.loadgen`).

        ``arrivals[i]`` is when job ``i`` becomes visible, in seconds
        from the start of the call; ``None`` means every job arrives at
        0 (a closed loop: ``n_jobs`` consumers stay saturated).  With a
        staggered timeline this is an *open-loop* generator: dispatch
        happens at the scheduled instant regardless of how far behind
        the workers are, so overload shows up as growing
        :attr:`TimedResult.sojourn`, exactly like a queueing server.

        Differences from :meth:`run`, all deliberate:

        * **No in-run deduplication** — every arrival is an independent
          request; identical concurrent requests genuinely execute
          twice (a server without request coalescing).  The cache is
          still consulted per arrival, so repeats *after* a completed
          put are served as hits with the lookup as their latency.
        * **Results are returned in completion order** with their
          timeline attached (the caller sorts by ``job_index`` when it
          needs job order).
        """
        total = len(jobs)
        if arrivals is None:
            arrivals = [0.0] * total
        if len(arrivals) != total:
            raise ValueError(
                f"{len(arrivals)} arrivals for {total} jobs"
            )
        timed: list[TimedResult] = []
        dispatched: dict[int, float] = {}
        t_zero = perf_counter()

        def resolve(index: int, job_result: JobResult) -> None:
            timed.append(
                TimedResult(
                    result=job_result,
                    arrival=arrivals[index],
                    dispatched=dispatched[index],
                    finished=perf_counter() - t_zero,
                )
            )
            if self.progress is not None:
                self.progress(len(timed), total, jobs[index], job_result)

        def finish(job_result: JobResult) -> None:
            self._finish(job_result, [job_result.job_index], resolve)

        def admit(index: int, job: CompileJob) -> str | None:
            dispatched[index] = perf_counter() - t_zero
            key = job.fingerprint()
            cached = self.cache.get(key)
            if cached is None:
                return key
            finish(replace(cached, job_index=index, cache_hit=True))
            return None

        skipped = self._dispatch(
            list(enumerate(jobs)),
            admit,
            finish,
            [t_zero + arrival for arrival in arrivals],
        )
        for index in skipped:
            dispatched[index] = perf_counter() - t_zero
            finish(self._interrupted_result(index, jobs[index].fingerprint()))
        return timed

    def run_or_raise(self, jobs: Sequence[CompileJob]) -> list[JobResult]:
        """Like :meth:`run`, but re-raise the first job failure —
        with its original exception type when available, so callers
        keep the error contract of the serial path."""
        results = self.run(jobs)
        for job_result in results:
            if not job_result.ok:
                if job_result.exception is not None:
                    raise job_result.exception
                raise BatchError(
                    f"job {job_result.job_index} "
                    f"({jobs[job_result.job_index].label}) failed:\n"
                    f"{job_result.error}"
                )
        return results
