"""Live-mode execution: replay a scenario against a serve endpoint.

``repro load <scenario> --target http://…`` runs the *same*
deterministic scenario expansion as an in-process run — the shared
:meth:`~repro.loadgen.scenario.Scenario.spec_stream` draws — but
submits each draw as a ``POST /v1/jobs`` document to a running
``repro serve`` instance instead of resolving it locally.  The server
resolves the spec to the identical content fingerprint, so live and
in-process reports describe the same workload and stay comparable.

Semantics that differ from in-process execution, by design:

* **Refusals are outcomes, not errors.**  A shed (429), rate-limited
  (429) or draining (503) response is the server degrading as built;
  it becomes a terminal record with that outcome, ``admitted=False``,
  and is excluded from the latency percentiles (which, per the
  acceptance criteria, cover *admitted* requests only).
* **The cache regime is the server's.**  The client neither prewarms
  nor owns a cache directory; ``cache_hit`` on a record reports what
  the server's content-addressed cache said.
* **Interrupt drains, never abandons.**  On SIGINT the generator stops
  submitting, keeps polling every already-admitted job to its terminal
  state (bounded by :data:`DRAIN_TIMEOUT`), and marks never-submitted
  draws ``interrupted`` — every planned request still owes a record.

Closed loops run ``consumers`` submit-and-wait threads (each keeps one
request in flight, like an in-process consumer process); open loops
pace submissions on the arrival timeline from the main thread while a
poller thread collects completions — submission is never blocked by
service progress, which is what makes overload (shedding) reachable.
"""

from __future__ import annotations

import logging
import threading
from time import perf_counter, sleep

from ..serve.client import ServeClient, ServeUnavailable
from .report import LoadRecord
from .scenario import Scenario

logger = logging.getLogger(__name__)

#: Seconds between status polls for in-flight jobs.
POLL_INTERVAL = 0.02
#: Bound on waiting for admitted jobs after submission stops (the
#: server enforces its own deadlines; this only guards a dead server).
DRAIN_TIMEOUT = 120.0
#: Refusal outcomes (server said no before queuing — by design).
REFUSAL_OUTCOMES = frozenset({"shed", "rate_limited", "draining"})


class LiveRunner:
    """Executes one scenario against a serve endpoint.

    Parameters mirror the in-process path where they apply:
    ``identity`` feeds the server's rate limiter (default
    ``loadgen-<seed>`` so one run is one identity), ``interrupt`` is
    the SIGINT event shared with the CLI.
    """

    def __init__(
        self,
        scenario: Scenario,
        target: str,
        identity: str | None = None,
        interrupt: threading.Event | None = None,
        poll_interval: float = POLL_INTERVAL,
        request_timeout: float = 30.0,
    ) -> None:
        self.scenario = scenario
        self.target = target
        self.interrupt = interrupt
        self.poll_interval = poll_interval
        self.client = ServeClient(
            target,
            identity=identity or f"loadgen-{scenario.seed}",
            timeout=request_timeout,
        )
        #: True once a run was cut short by the interrupt event.
        self.interrupted = False
        #: Requests the last run planned (the zero-lost denominator).
        self._planned = 0

    def _interrupt_set(self) -> bool:
        return self.interrupt is not None and self.interrupt.is_set()

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def run(self) -> tuple[list[LoadRecord], float, int]:
        """Execute; returns ``(records, wall_seconds, planned)``.

        Every planned request has exactly one record — admitted jobs
        carry the server's terminal outcome, refusals theirs, and
        interrupted draws ``interrupted`` — so the caller's zero-lost
        ledger (``planned - len(records)``) works unchanged.
        """
        if not self.client.wait_until_up(timeout=10.0):
            raise ServeUnavailable(
                f"no serve endpoint answering at {self.target}"
            )
        scenario = self.scenario
        self._planned = 0
        t_zero = perf_counter()
        if scenario.mode == "open":
            records = self._run_open(t_zero)
        else:
            records = self._run_closed(t_zero)
        wall = perf_counter() - t_zero
        return records, wall, self._planned

    # ------------------------------------------------------------------
    # Open loop: paced submission + background poller
    # ------------------------------------------------------------------
    def _run_open(self, t_zero: float) -> list[LoadRecord]:
        scenario = self.scenario
        count = scenario.job_count()
        specs = scenario.draw_specs(count)
        arrivals = scenario.arrivals(count)
        self._planned = count
        records: list[LoadRecord] = []
        pending: dict[str, list[tuple[int, str, float]]] = {}
        lock = threading.Lock()
        submitting = threading.Event()
        submitting.set()

        def poller() -> None:
            while True:
                with lock:
                    snapshot = list(pending.items())
                if not snapshot:
                    if not submitting.is_set():
                        return
                    sleep(self.poll_interval)
                    continue
                for job_id, waiters in snapshot:
                    response = self.client.status(job_id)
                    body = response.body
                    if response.ok and body.get("state") != "done":
                        continue
                    now = perf_counter() - t_zero
                    with lock:
                        waiters = pending.pop(job_id, [])
                        for index, label, arrival in waiters:
                            records.append(
                                self._terminal_record(
                                    index, label, arrival, now, response
                                )
                            )
                sleep(self.poll_interval)

        def submit_one(index: int, spec) -> None:
            """One POST, off the pacing thread: a slow submission (the
            server fingerprints before admitting) must never delay the
            *next* arrival, or the generator becomes closed-loop in
            disguise and overload is unreachable."""
            arrival = perf_counter() - t_zero
            response = self.client.submit(spec.to_dict())
            now = perf_counter() - t_zero
            if not response.ok:
                with lock:
                    records.append(
                        self._refusal_record(
                            index, spec.label, arrival, response, now
                        )
                    )
                return
            body = response.body
            if body.get("state") == "done":
                # Instant completion (server-side cache hit).
                with lock:
                    records.append(
                        self._terminal_record(
                            index, spec.label, arrival, now, response
                        )
                    )
                return
            with lock:
                pending.setdefault(body["id"], []).append(
                    (index, spec.label, arrival)
                )

        poll_thread = threading.Thread(
            target=poller, name="load-live-poller", daemon=True
        )
        poll_thread.start()
        submitters: list[threading.Thread] = []
        try:
            for index, (spec, due) in enumerate(zip(specs, arrivals)):
                if self._interrupt_set():
                    self.interrupted = True
                    now = perf_counter() - t_zero
                    with lock:
                        for rest in range(index, count):
                            records.append(
                                _interrupted_record(
                                    rest, specs[rest].label, now
                                )
                            )
                    break
                delay = t_zero + due - perf_counter()
                if delay > 0:
                    # Wake early on interrupt instead of sleeping past it.
                    if self.interrupt is not None:
                        self.interrupt.wait(timeout=delay)
                    else:
                        sleep(delay)
                thread = threading.Thread(
                    target=submit_one,
                    args=(index, spec),
                    name=f"load-live-submit-{index}",
                    daemon=True,
                )
                thread.start()
                submitters.append(thread)
        finally:
            for thread in submitters:
                thread.join(timeout=DRAIN_TIMEOUT)
            submitting.clear()
            poll_thread.join(timeout=DRAIN_TIMEOUT)
        return records

    # ------------------------------------------------------------------
    # Closed loop: submit-and-wait consumers
    # ------------------------------------------------------------------
    def _run_closed(self, t_zero: float) -> list[LoadRecord]:
        scenario = self.scenario
        count = scenario.job_count()
        deadline = (
            t_zero + scenario.duration
            if count is None and scenario.duration is not None
            else None
        )
        specs = scenario.draw_specs(count) if count is not None else None
        stream = scenario.spec_stream() if specs is None else None
        records: list[LoadRecord] = []
        lock = threading.Lock()
        cursor = {"next": 0}

        def take() -> tuple[int, object] | None:
            with lock:
                index = cursor["next"]
                if specs is not None and index >= len(specs):
                    return None
                cursor["next"] = index + 1
                spec = specs[index] if specs is not None else next(stream)
            return index, spec

        def consumer() -> None:
            while True:
                if self._interrupt_set():
                    self.interrupted = True
                    return
                if deadline is not None and perf_counter() >= deadline:
                    return
                item = take()
                if item is None:
                    return
                index, spec = item
                arrival = perf_counter() - t_zero
                response = self.client.submit(spec.to_dict())
                if not response.ok:
                    with lock:
                        records.append(
                            self._refusal_record(
                                index, spec.label, arrival, response,
                                perf_counter() - t_zero,
                            )
                        )
                    continue
                body = response.body
                if body.get("state") != "done":
                    response = self.client.wait(
                        body["id"], timeout=DRAIN_TIMEOUT,
                        poll_interval=self.poll_interval,
                    )
                with lock:
                    records.append(
                        self._terminal_record(
                            index, spec.label, arrival,
                            perf_counter() - t_zero, response,
                        )
                    )

        threads = [
            threading.Thread(
                target=consumer, name=f"load-live-{n}", daemon=True
            )
            for n in range(max(scenario.consumers, 1))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=DRAIN_TIMEOUT)
        if self.interrupted and specs is not None:
            now = perf_counter() - t_zero
            with lock:
                undrawn = range(cursor["next"], len(specs))
                for index in undrawn:
                    records.append(
                        _interrupted_record(index, specs[index].label, now)
                    )
        # The ledger denominator: every planned draw owes a record
        # (count-bounded: the full list, interrupted or not;
        # duration-bounded: everything actually drawn).
        self._planned = (
            len(specs) if specs is not None else cursor["next"]
        )
        return records

    # ------------------------------------------------------------------
    # Record builders
    # ------------------------------------------------------------------
    def _terminal_record(
        self,
        index: int,
        label: str,
        arrival: float,
        finished: float,
        response,
    ) -> LoadRecord:
        """An admitted job's terminal record from its last status (or
        submit) response body."""
        body = response.body if response.ok else {}
        outcome = body.get("outcome") or (
            response.error_code or "internal"
        )
        sojourn = max(finished - arrival, 0.0)
        if self.scenario.mode == "closed":
            # Closed loops report service time, like in-process runs;
            # cache hits (seconds is None) report the round trip.
            latency = body.get("seconds")
            if latency is None:
                latency = sojourn
        else:
            latency = sojourn
        return LoadRecord(
            index=index,
            label=label,
            arrival=arrival,
            finished=finished,
            ok=outcome == "ok",
            cache_hit=bool(body.get("cache_hit")),
            latency=latency,
            outcome=outcome,
            admitted=True,
        )

    def _refusal_record(
        self,
        index: int,
        label: str,
        arrival: float,
        response,
        finished: float,
    ) -> LoadRecord:
        code = response.error_code or f"http_{response.status}"
        return LoadRecord(
            index=index,
            label=label,
            arrival=arrival,
            finished=finished,
            ok=False,
            cache_hit=False,
            latency=max(finished - arrival, 0.0),
            outcome=code,
            admitted=False,
        )


def _interrupted_record(index: int, label: str, now: float) -> LoadRecord:
    return LoadRecord(
        index=index,
        label=label,
        arrival=now,
        finished=now,
        ok=False,
        cache_hit=False,
        latency=0.0,
        outcome="interrupted",
        admitted=False,
    )
