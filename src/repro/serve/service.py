"""CompileService: the job queue behind the HTTP layer.

Robustness architecture (DESIGN.md §13):

* **Bounded admission.**  :meth:`CompileService.submit` is the only
  producer; it refuses work *before* queuing it — drain mode (503),
  rate limit (429 ``rate_limited``), queue depth (429 ``shed``) —
  so the set of admitted-but-unfinished jobs can never exceed
  ``max_queue_depth``.  A shed response carries a ``Retry-After``
  derived from an EWMA of observed service times (how long until the
  backlog plausibly has room), falling back to
  ``default_retry_after`` before anything has been observed.

* **Single-threaded supervision.**  The PR-9
  :class:`~repro.resilience.supervisor.Supervisor` is not thread-safe,
  so a dedicated *collector* thread constructs and exclusively owns
  it; HTTP handler threads hand admitted records over through a
  :class:`queue.SimpleQueue`.  The shared job table is guarded by one
  lock with tiny critical sections (dict reads/writes and pure window
  math only — never compilation, never blocking waits).

* **Idempotent resubmits.**  Submissions are deduplicated twice by
  content fingerprint: against the :class:`ResultCache` (an already
  compiled spec completes instantly, ``cache_hit``) and against
  in-flight records (a resubmit of a queued spec returns the existing
  job id, ``deduped`` — a retrying client cannot amplify load).

* **Lifecycle + housekeeping.**  Admitted jobs move ``pending`` →
  ``done`` (terminal outcomes from the supervisor: ok / failed /
  timeout / crashed / poisoned, plus ``aborted`` on hard-stop); a
  housekeeper thread expires finished records after ``job_ttl`` and
  prunes idle rate-limit windows, so a long-lived server's memory is
  bounded by (queue depth + finished-jobs-per-TTL), not uptime.

* **Drain.**  :meth:`drain` flips the admission gate (new submissions
  get 503 ``draining``), waits for in-flight jobs to finish, and past
  ``drain_deadline`` hard-stops: remaining records are marked
  ``aborted`` so no admitted job is ever silently lost.

Metrics (``serve.*``, recorded into the active observation): counters
``serve.requests`` / ``serve.admitted`` / ``serve.shed`` /
``serve.rate_limited`` / ``serve.deduped`` / ``serve.cache_hits`` /
``serve.rejected`` / ``serve.completed.<outcome>`` /
``serve.expired`` / ``serve.aborted``; histogram
``serve.service_seconds``; gauges ``serve.queue_depth`` (and its
high-water mark ``serve.queue_depth_max``) / ``serve.identities``.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass, field
from time import monotonic, time

from ..batch.cache import NullCache, ResultCache
from ..batch.runner import JobResult, cache_entry, result_payload
from ..batch.spec import JobSpec
from ..obs import active as _obs_active
from ..resilience.policy import RetryPolicy
from ..resilience.supervisor import Supervisor
from .config import ServeConfig
from .errors import ServeError, outcome_to_code

#: EWMA weight for observed service times (Retry-After estimation).
_EWMA_ALPHA = 0.3


@dataclass
class JobRecord:
    """One admitted (or instantly completed) job in the table."""

    job_id: str
    spec: JobSpec
    fingerprint: str
    identity: str
    #: ``pending`` (admitted, not terminal) or ``done``.
    state: str = "pending"
    #: Terminal outcome once done: ok / failed / timeout / crashed /
    #: poisoned / aborted.
    outcome: str | None = None
    cache_hit: bool = False
    #: Resubmits of this fingerprint that were folded into this record.
    deduped: int = 0
    submitted_at: float = field(default_factory=time)
    finished_at: float | None = None
    #: Monotonic clocks for TTL/latency math (wall time is for humans).
    _admitted_mono: float = field(default_factory=monotonic, repr=False)
    _finished_mono: float | None = field(default=None, repr=False)
    seconds: float | None = None
    attempts: int = 0
    #: Artifact document (outcome ``ok`` only).
    result: dict | None = None
    #: Frozen error envelope (failed outcomes only).
    error: dict | None = None

    def status_dict(self) -> dict:
        """The ``GET /v1/jobs/<id>`` body."""
        return {
            "id": self.job_id,
            "state": self.state,
            "outcome": self.outcome,
            "label": self.spec.label,
            "fingerprint": self.fingerprint,
            "cache_hit": self.cache_hit,
            "deduped": self.deduped,
            "submitted_at": self.submitted_at,
            "finished_at": self.finished_at,
            "seconds": self.seconds,
            "attempts": self.attempts,
            "error": self.error,
        }


class CompileService:
    """The job queue: admission, supervision, lifecycle, drain."""

    def __init__(
        self,
        config: ServeConfig | None = None,
        cache: ResultCache | NullCache | None = None,
    ) -> None:
        self.config = config or ServeConfig()
        self.cache = cache if cache is not None else NullCache()
        self._lock = threading.RLock()
        self._records: dict[str, JobRecord] = {}
        #: Non-terminal records by fingerprint (in-flight dedup).
        self._inflight: dict[str, JobRecord] = {}
        #: Supervisor job index -> record, collector thread only.
        self._running: dict[int, JobRecord] = {}
        self._limiter = (
            self.config.rate_limit.limiter()
            if self.config.rate_limit
            else None
        )
        self._inbox: queue.SimpleQueue[JobRecord | None] = queue.SimpleQueue()
        self._next_id = 0
        self._next_index = 0
        self._pending = 0
        self._service_ewma: float | None = None
        self._draining = False
        self._stop = threading.Event()
        self._abort = threading.Event()
        self._idle = threading.Condition(self._lock)
        self._started = threading.Event()
        self._collector = threading.Thread(
            target=self._collector_main, name="serve-collector", daemon=True
        )
        self._housekeeper = threading.Thread(
            target=self._housekeeper_main,
            name="serve-housekeeper",
            daemon=True,
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "CompileService":
        self._collector.start()
        self._housekeeper.start()
        # Wait for the worker pool so the first request never races
        # process spawn.
        self._started.wait(timeout=30.0)
        return self

    def __enter__(self) -> "CompileService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Admission (HTTP handler threads)
    # ------------------------------------------------------------------
    def submit(self, payload: dict, identity: str) -> JobRecord:
        """Admit one job (or refuse loudly).  Raises :class:`ServeError`
        with code ``validation`` / ``draining`` / ``rate_limited`` /
        ``shed``; returns the (possibly pre-existing) record.

        The expensive steps — spec validation + content fingerprinting
        (circuit construction and hashing) and the content-addressed
        disk lookup — run *before* the lock; inside it are only dict
        operations and pure window math, so handler threads never hold
        the lock across IO or compilation-sized work.  Consequences,
        both deliberate: validation failures never consume a rate-limit
        slot, and cache hits are served even when the queue is
        saturated (they consume no queue capacity).
        """
        try:
            spec = JobSpec.from_dict(payload)
            fingerprint = spec.fingerprint()
        except (ValueError, TypeError) as exc:
            with self._lock:
                self._count("serve.requests")
                self._count("serve.rejected")
            raise ServeError("validation", str(exc)) from exc
        # Entries are content-addressed and immutable, so the read
        # needs no coordination with the job table.  A hit reads the
        # stored summary only; the schedule is never decoded.
        cached = self.cache.summary(fingerprint)
        with self._lock:
            self._count("serve.requests")
            if self._draining or self._stop.is_set():
                self._count("serve.rejected")
                raise ServeError(
                    "draining", "server is draining; not admitting jobs"
                )
            if self._limiter is not None:
                admitted, retry_after = self._limiter.check(
                    identity, monotonic()
                )
                self._gauge("serve.identities", len(self._limiter))
                if not admitted:
                    self._count("serve.rate_limited")
                    raise ServeError(
                        "rate_limited",
                        f"identity {identity!r} exceeded "
                        f"{self.config.rate_limit}",
                        retry_after=retry_after,
                    )
            inflight = self._inflight.get(fingerprint)
            if inflight is not None:
                inflight.deduped += 1
                self._count("serve.deduped")
                return inflight
            if cached is not None:
                record = JobRecord(
                    job_id=f"j{self._next_id:06d}",
                    spec=spec,
                    fingerprint=fingerprint,
                    identity=identity,
                )
                self._next_id += 1
                self._records[record.job_id] = record
                self._count("serve.admitted")
                self._count("serve.cache_hits")
                self._complete(record, None, cached)
                return record
            if self._pending >= self.config.max_queue_depth:
                self._count("serve.shed")
                raise ServeError(
                    "shed",
                    f"admission queue full "
                    f"({self._pending}/{self.config.max_queue_depth} jobs)",
                    retry_after=self._shed_retry_after(),
                    detail={"queue_depth": self._pending},
                )
            record = JobRecord(
                job_id=f"j{self._next_id:06d}",
                spec=spec,
                fingerprint=fingerprint,
                identity=identity,
            )
            self._next_id += 1
            self._records[record.job_id] = record
            self._inflight[fingerprint] = record
            self._pending += 1
            self._count("serve.admitted")
            self._gauge("serve.queue_depth", self._pending)
        self._inbox.put(record)
        return record

    def _shed_retry_after(self) -> float:
        """Expected seconds until the backlog has room: (queue depth /
        workers) x EWMA service time.  Held-lock caller."""
        if self._service_ewma is None:
            return self.config.default_retry_after
        estimate = (
            self._pending / self.config.workers
        ) * self._service_ewma
        return round(max(estimate, self.config.default_retry_after), 3)

    # ------------------------------------------------------------------
    # Lookup (HTTP handler threads)
    # ------------------------------------------------------------------
    def status(self, job_id: str) -> dict:
        with self._lock:
            record = self._records.get(job_id)
            if record is None:
                raise ServeError(
                    "not_found", f"unknown (or expired) job {job_id!r}"
                )
            return record.status_dict()

    def artifacts(self, job_id: str) -> dict:
        with self._lock:
            record = self._records.get(job_id)
            if record is None:
                raise ServeError(
                    "not_found", f"unknown (or expired) job {job_id!r}"
                )
            if record.state != "done":
                raise ServeError(
                    "not_ready",
                    f"job {job_id} is still {record.state}; poll "
                    f"status until done",
                )
            if record.outcome != "ok":
                error = record.error or {}
                inner = error.get("error", {})
                raise ServeError(
                    inner.get("code", "internal"),
                    inner.get(
                        "message", f"job {job_id} ended {record.outcome}"
                    ),
                    detail=inner.get("detail"),
                )
            return {
                "id": record.job_id,
                "fingerprint": record.fingerprint,
                "cache_hit": record.cache_hit,
                "seconds": record.seconds,
                "result": record.result,
            }

    # ------------------------------------------------------------------
    # Health (HTTP handler threads)
    # ------------------------------------------------------------------
    def health(self) -> dict:
        """Liveness: green as long as the service threads run — an
        overloaded server is alive, that is the point of shedding."""
        return {
            "ok": self._collector.is_alive(),
            "pending": self._pending,
        }

    def readiness(self) -> dict:
        """Readiness: willing to admit right now?"""
        with self._lock:
            saturated = self._pending >= self.config.max_queue_depth
            ready = (
                self._collector.is_alive()
                and not self._draining
                and not self._stop.is_set()
                and not saturated
            )
            return {
                "ready": ready,
                "draining": self._draining,
                "saturated": saturated,
                "pending": self._pending,
                "max_queue_depth": self.config.max_queue_depth,
            }

    @property
    def pending(self) -> int:
        return self._pending

    # ------------------------------------------------------------------
    # Collector thread: owns the Supervisor
    # ------------------------------------------------------------------
    def _collector_main(self) -> None:
        observed = _obs_active() is not None
        retry = RetryPolicy(max_attempts=self.config.max_attempts)
        with Supervisor(
            self.config.workers,
            retry=retry,
            timeout=self.config.job_timeout,
        ) as supervisor:
            self._started.set()
            while True:
                self._pull_inbox(supervisor, observed)
                if self._abort.is_set():
                    self._hard_stop()
                    return
                if self._stop.is_set() and supervisor.pending == 0:
                    return
                if supervisor.pending == 0:
                    # Nothing in flight: block on the inbox instead of
                    # spinning (None is the stop nudge).
                    try:
                        record = self._inbox.get(timeout=0.1)
                    except queue.Empty:
                        continue
                    if record is not None:
                        self._dispatch(supervisor, record, observed)
                    continue
                for job_result in supervisor.poll(0.05):
                    self._on_terminal(job_result)

    def _pull_inbox(self, supervisor: Supervisor, observed: bool) -> None:
        while True:
            try:
                record = self._inbox.get_nowait()
            except queue.Empty:
                return
            if record is not None:
                self._dispatch(supervisor, record, observed)

    def _dispatch(
        self, supervisor: Supervisor, record: JobRecord, observed: bool
    ) -> None:
        index = self._next_index
        self._next_index += 1
        self._running[index] = record
        supervisor.submit(
            index, record.spec.resolve(), record.fingerprint, observed
        )

    def _on_terminal(self, job_result: JobResult) -> None:
        record = self._running.pop(job_result.job_index)
        summary = None
        if job_result.ok:
            # One summary serves the record and the cache entry.  The
            # atomic content-addressed write (collector thread only) is
            # kept outside the lock like the read side.
            entry = cache_entry(job_result)
            summary = result_payload(entry)
            self.cache.put(job_result.fingerprint, entry, summary)
        with self._lock:
            self._complete(record, job_result, summary)

    def _complete(
        self,
        record: JobRecord,
        job_result: JobResult | None,
        summary: dict | None,
    ) -> None:
        """Mark a record terminal: from a supervisor result, or, when
        ``job_result`` is ``None``, from a cache hit's ``summary``.
        Held-lock caller."""
        record.state = "done"
        record.finished_at = time()
        record._finished_mono = monotonic()
        if job_result is None:
            # What the stored entry says (``cache_entry``): ok, one
            # attempt, no timing.
            record.outcome = "ok"
            record.cache_hit = True
            record.attempts = 1
            record.result = summary
            self._count("serve.completed.ok")
            return
        record.outcome = job_result.outcome
        record.seconds = job_result.seconds
        record.attempts = job_result.attempts
        if job_result.ok:
            record.result = summary
        else:
            code = outcome_to_code(job_result.outcome)
            record.error = ServeError(
                code,
                job_result.error or f"job ended {job_result.outcome}",
                detail={"outcome": job_result.outcome},
            ).envelope()
        self._count(f"serve.completed.{record.outcome}")
        self._inflight.pop(record.fingerprint, None)
        self._pending -= 1
        self._gauge("serve.queue_depth", self._pending)
        if job_result.seconds is not None:
            self._observe("serve.service_seconds", job_result.seconds)
            prev = self._service_ewma
            self._service_ewma = (
                job_result.seconds
                if prev is None
                else (1 - _EWMA_ALPHA) * prev
                + _EWMA_ALPHA * job_result.seconds
            )
        self._idle.notify_all()

    def _hard_stop(self) -> None:
        """Drain deadline passed: mark everything still in flight
        aborted so no admitted job is silently lost."""
        with self._lock:
            for record in list(self._running.values()):
                record.state = "done"
                record.outcome = "aborted"
                record.finished_at = time()
                record._finished_mono = monotonic()
                record.error = ServeError(
                    "internal",
                    "server hard-stopped past its drain deadline with "
                    "this job still in flight",
                    detail={"outcome": "aborted"},
                ).envelope()
                self._inflight.pop(record.fingerprint, None)
                self._pending -= 1
                self._count("serve.aborted")
            self._running.clear()
            self._gauge("serve.queue_depth", self._pending)
            self._idle.notify_all()

    # ------------------------------------------------------------------
    # Housekeeper thread
    # ------------------------------------------------------------------
    def _housekeeper_main(self) -> None:
        interval = self.config.housekeeping_interval
        while not self._stop.wait(timeout=interval):
            self.sweep()

    def sweep(self, now: float | None = None) -> int:
        """One housekeeping pass: expire finished records past their
        TTL, prune idle rate-limit windows.  Returns expirations."""
        now = monotonic() if now is None else now
        cutoff = now - self.config.job_ttl
        with self._lock:
            expired = [
                job_id
                for job_id, record in self._records.items()
                if record.state == "done"
                and record._finished_mono is not None
                and record._finished_mono <= cutoff
            ]
            for job_id in expired:
                del self._records[job_id]
            if expired:
                self._count("serve.expired", len(expired))
            if self._limiter is not None:
                self._limiter.prune_idle(now)
                self._gauge("serve.identities", len(self._limiter))
        return len(expired)

    # ------------------------------------------------------------------
    # Drain / shutdown
    # ------------------------------------------------------------------
    def drain(self, deadline: float | None = None) -> bool:
        """Stop admitting, wait for in-flight jobs, hard-stop past the
        deadline.  Returns ``True`` on a clean drain (nothing aborted).
        Idempotent; safe from any thread (signal handlers call it)."""
        if deadline is None:
            deadline = self.config.drain_deadline
        due = monotonic() + deadline
        with self._idle:
            self._draining = True
            while self._pending > 0:
                remaining = due - monotonic()
                if remaining <= 0:
                    break
                self._idle.wait(timeout=min(remaining, 0.25))
            clean = self._pending == 0
        self._stop.set()
        if not clean:
            self._abort.set()
        self._inbox.put(None)  # nudge a blocked collector
        self._collector.join(timeout=deadline + 10.0)
        with self._lock:
            clean = clean and all(
                record.outcome != "aborted"
                for record in self._records.values()
            )
        return clean

    def close(self) -> None:
        """Immediate shutdown (tests, ``finally`` blocks): no grace
        beyond the configured drain deadline."""
        if not self._stop.is_set():
            self.drain()
        self._housekeeper.join(
            timeout=self.config.housekeeping_interval + 5.0
        )

    # ------------------------------------------------------------------
    # Metrics plumbing — service-side writes happen under self._lock;
    # the Supervisor's batch.* writes come from the collector thread
    # only, and the key sets are disjoint, so the two writers never
    # race on one metric.
    # ------------------------------------------------------------------
    @staticmethod
    def _count(name: str, value: float = 1) -> None:
        obs = _obs_active()
        if obs is not None:
            obs.metrics.inc(name, value)

    @staticmethod
    def _gauge(name: str, value: float) -> None:
        obs = _obs_active()
        if obs is not None:
            obs.metrics.set_gauge(name, value)
            high = f"{name}_max"
            if value > obs.metrics.gauges.get(high, float("-inf")):
                obs.metrics.set_gauge(high, value)

    @staticmethod
    def _observe(name: str, value: float) -> None:
        obs = _obs_active()
        if obs is not None:
            obs.metrics.observe(name, value)

