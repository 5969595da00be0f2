"""A crash-aware process pool with per-worker pipes.

Workers that share one task queue cannot tell *which* job a dead
worker was holding, and a vanished worker leaves completion callbacks
that simply never fire — the exact hang this layer exists to remove.
:class:`SupervisedPool` instead gives every worker its own duplex
:func:`multiprocessing.Pipe` and keeps **one task in flight per
worker**, which makes three things trivial that a shared queue makes
impossible:

* **crash attribution** — EOF on a worker's pipe names the task it was
  running;
* **bounded waits** — the parent blocks in
  :func:`multiprocessing.connection.wait` with a timeout clamped to the
  nearest deadline, never in an unbounded queue ``get``;
* **deadline kills + replenishment** — an overdue worker is SIGKILLed
  and a replacement spawned without corrupting any shared queue state.

The pool is mechanism only: it reports ``result`` / ``crashed`` /
``killed`` events and keeps itself at full strength.  Retry, backoff
and quarantine policy live in :class:`~repro.resilience.supervisor.Supervisor`.
"""

from __future__ import annotations

import multiprocessing
import signal
import sys
import traceback
from collections import deque
from multiprocessing import connection
from time import monotonic

from ..batch.runner import JobResult
from .execute import Task, execute_task

#: Event kinds yielded by :meth:`SupervisedPool.poll`.
EVENT_RESULT = "result"    # worker returned a JobResult
EVENT_CRASHED = "crashed"  # worker died while holding the task
EVENT_KILLED = "killed"    # parent killed the worker past its deadline


def _worker_main(conn) -> None:
    """Worker loop: recv a :class:`Task`, run it, send the result.

    A ``None`` task is the shutdown sentinel.  The loop guarantees that
    every received task is answered unless the process dies — including
    when the result itself will not pickle, which degrades to an
    errored :class:`JobResult` rather than a poisoned pipe.
    """
    # A terminal Ctrl-C delivers SIGINT to the whole foreground process
    # group, workers included.  The parent owns interruption (it stops
    # dispatching and drains); a worker must finish its in-flight task,
    # not die mid-compile and turn a graceful drain into a crash.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # non-main thread / exotic platform
        pass
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        if task is None:
            return
        try:
            job_result = execute_task(task)
        except BaseException:  # belt and braces: execute_task shouldn't raise
            job_result = JobResult(
                task.index,
                task.key,
                None,
                error=traceback.format_exc(),
                outcome="failed",
            )
        try:
            conn.send((task.task_id, job_result))
        except KeyboardInterrupt:
            return
        except Exception:
            try:
                conn.send(
                    (
                        task.task_id,
                        JobResult(
                            task.index,
                            task.key,
                            None,
                            error=(
                                "result could not cross the pool "
                                f"boundary:\n{traceback.format_exc()}"
                            ),
                            outcome="failed",
                        ),
                    )
                )
            except Exception:
                return


class _Worker:
    """Parent-side view of one worker process."""

    __slots__ = ("process", "conn", "task", "kill_at")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        self.task: Task | None = None
        self.kill_at: float | None = None

    @property
    def busy(self) -> bool:
        return self.task is not None


class SupervisedPool:
    """Fixed-size pool of supervised workers (see module docstring).

    ``submit`` enqueues; tasks are dispatched to idle workers in FIFO
    order.  ``poll`` blocks (bounded) for events and transparently
    replaces dead or killed workers so capacity never decays.
    """

    def __init__(self, processes: int):
        if processes < 1:
            raise ValueError(f"processes must be >= 1, got {processes}")
        methods = multiprocessing.get_all_start_methods()
        method = "fork" if (
            sys.platform.startswith("linux") and "fork" in methods
        ) else None
        self._ctx = multiprocessing.get_context(method)
        self._backlog: deque[tuple[Task, float | None]] = deque()
        #: Workers lost mid-task (crashes and deadline kills alike).
        self.worker_deaths = 0
        self._closed = False
        self._workers = [self._spawn() for _ in range(processes)]

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _spawn(self) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main, args=(child_conn,), daemon=True
        )
        process.start()
        # The parent must drop its copy of the child end or a dead
        # worker never reads as EOF (the socket peer would still be
        # open in this process).
        child_conn.close()
        return _Worker(process, parent_conn)

    def _retire(self, worker: _Worker) -> None:
        """Kill/reap ``worker`` and put a fresh one in its slot."""
        self.worker_deaths += 1
        try:
            worker.process.kill()
        except Exception:
            pass
        worker.process.join(timeout=5.0)
        try:
            worker.conn.close()
        except Exception:
            pass
        self._workers[self._workers.index(worker)] = self._spawn()

    # ------------------------------------------------------------------
    # Submission and dispatch
    # ------------------------------------------------------------------
    def submit(self, task: Task, kill_after: float | None = None) -> None:
        """Queue ``task``; the parent kills the worker ``kill_after``
        seconds after dispatch if no result has arrived (the backstop
        behind the worker-side SIGALRM guard)."""
        if self._closed:
            raise RuntimeError("pool is closed")
        self._backlog.append((task, kill_after))
        self._dispatch()

    def _dispatch(self) -> None:
        for worker in self._workers:
            if not self._backlog:
                return
            if worker.busy:
                continue
            task, kill_after = self._backlog[0]
            try:
                worker.conn.send(task)
            except Exception:
                # Worker died while idle; replace it and let the loop
                # retry the same task on the fresh worker.  Not a
                # mid-task death, so no event and the task survives.
                self.worker_deaths += 1
                worker.process.kill()
                worker.process.join(timeout=5.0)
                self._workers[self._workers.index(worker)] = self._spawn()
                continue
            self._backlog.popleft()
            worker.task = task
            worker.kill_at = (
                monotonic() + kill_after if kill_after is not None else None
            )

    # ------------------------------------------------------------------
    # Polling
    # ------------------------------------------------------------------
    @property
    def active(self) -> int:
        """Tasks currently in flight or queued."""
        return sum(1 for w in self._workers if w.busy) + len(self._backlog)

    def poll(self, timeout: float) -> list[tuple[str, Task, JobResult | None]]:
        """Wait (at most ``timeout`` seconds) for events.

        Returns ``(kind, task, result)`` tuples where ``kind`` is one
        of :data:`EVENT_RESULT` / :data:`EVENT_CRASHED` /
        :data:`EVENT_KILLED`; ``result`` is ``None`` unless the kind is
        ``result``.  Every wait is bounded by both ``timeout`` and the
        nearest pending deadline — there is no code path that blocks
        forever on a worker that will never answer.
        """
        events: list[tuple[str, Task, JobResult | None]] = []
        stop_at = monotonic() + max(timeout, 0.0)
        while True:
            busy = [w for w in self._workers if w.busy]
            if not busy:
                self._dispatch()
                return events
            now = monotonic()
            horizon = min(
                [stop_at]
                + [w.kill_at for w in busy if w.kill_at is not None]
            )
            ready = connection.wait(
                [w.conn for w in busy], timeout=max(horizon - now, 0.0)
            )
            for conn in ready:
                worker = next(w for w in self._workers if w.conn is conn)
                task = worker.task
                try:
                    _task_id, job_result = conn.recv()
                except Exception:
                    # EOF (worker died) or an unreadable payload; the
                    # task it was holding is reported as crashed and
                    # the slot replenished.
                    events.append((EVENT_CRASHED, task, None))
                    self._retire(worker)
                    continue
                worker.task = None
                worker.kill_at = None
                events.append((EVENT_RESULT, task, job_result))
            now = monotonic()
            for worker in list(self._workers):
                if (
                    worker.busy
                    and worker.kill_at is not None
                    and now >= worker.kill_at
                ):
                    events.append((EVENT_KILLED, worker.task, None))
                    self._retire(worker)
            self._dispatch()
            if events or now >= stop_at:
                return events

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop all workers: sentinel to the idle, SIGKILL to the busy."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            if worker.busy:
                worker.process.kill()
            else:
                try:
                    worker.conn.send(None)
                except Exception:
                    worker.process.kill()
        for worker in self._workers:
            worker.process.join(timeout=5.0)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(timeout=5.0)
            try:
                worker.conn.close()
            except Exception:
                pass
        self._workers = []
        self._backlog.clear()

    def __enter__(self) -> "SupervisedPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
