"""Deterministic fault injection: the :class:`FaultPlan` model.

A fault plan describes *attacks* on the batch engine — worker
exceptions, worker hard-exits, job stalls, cache corruption — as
per-job probabilities.  Like :class:`~repro.loadgen.scenario.Scenario`,
a plan is plain frozen data, JSON round-trippable, and its effect is a
**pure function of (plan, job key, attempt)**: :meth:`FaultPlan.decide`
hashes ``(seed, key, attempt)`` into a uniform draw and compares it
against the cumulative rates, so

* the same plan against the same job list injects the *same* faults no
  matter the worker count, dispatch order, or wall-clock timing;
* the parent can *predict* every injection without a side channel —
  the supervisor counts ``chaos.*`` metrics by replaying the decision
  it knows the worker will make;
* chaos runs are debuggable: a failing seed reproduces exactly.

``max_faults_per_job`` bounds how many *attempts* of one job fault
(attempts at or beyond the bound run clean), which is what makes the
zero-lost-jobs invariant provable: with a retry budget above the fault
budget, every chaos-hit job eventually executes the unmodified code
path, so its result is bit-identical to a fault-free run.

This module is deliberately dependency-free (stdlib only): the error
types defined here are raised inside pool workers and caught by
:mod:`repro.batch.runner`, which must stay importable without pulling
in the whole resilience stack.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass

#: Fault kinds, in cumulative-rate order (the order is part of the
#: decision function: changing it re-maps draws, like reordering a
#: scenario mix).
FAULT_ERROR = "error"      # worker raises InjectedFaultError
FAULT_CRASH = "crash"      # worker hard-exits (os._exit) mid-job
FAULT_STALL = "stall"      # worker sleeps stall_seconds before running

FAULT_KINDS = (FAULT_ERROR, FAULT_CRASH, FAULT_STALL)

#: Exit code of an injected worker hard-exit — distinguishable in
#: diagnostics from a real segfault (negative signal codes) or an
#: uncaught SystemExit (1).
INJECTED_EXIT_CODE = 86


class InjectedFaultError(RuntimeError):
    """The exception an ``error`` fault raises inside a worker.

    Picklable (plain message payload), so it crosses the pool boundary
    intact and shows up as :attr:`JobResult.exception` — chaos tests
    can tell an injected failure from a genuine compiler bug.
    """


class JobTimeoutError(RuntimeError):
    """Raised (via ``SIGALRM``) when a job exceeds its deadline budget."""


def _draw(seed: int, stream: str, key: str, attempt: int) -> float:
    """Uniform [0, 1) draw, pure in all arguments.

    SHA-256 rather than ``random.Random`` so the draw is independent of
    call order and stable across Python versions and processes.
    """
    digest = hashlib.sha256(
        f"{seed}:{stream}:{key}:{attempt}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


@dataclass(frozen=True)
class FaultPlan:
    """Seeded, declarative fault-injection rates (see module docstring).

    ``error_rate`` / ``crash_rate`` / ``stall_rate`` are per-attempt
    probabilities of the worker-side faults; their sum must stay ≤ 1.
    ``cache_read_corrupt_rate`` / ``cache_write_corrupt_rate`` drive
    :class:`~repro.resilience.cache.ChaosCache` entry-file corruption.
    """

    seed: int = 0
    error_rate: float = 0.0
    crash_rate: float = 0.0
    stall_rate: float = 0.0
    #: How long a stalled job sleeps; pair with a runner deadline below
    #: this value so stalls surface as ``timeout`` outcomes.
    stall_seconds: float = 2.0
    cache_read_corrupt_rate: float = 0.0
    cache_write_corrupt_rate: float = 0.0
    #: Attempts ``0 .. max_faults_per_job-1`` of a job may fault;
    #: attempts at or beyond the bound always run clean, so a retry
    #: budget of ``max_faults_per_job + 1`` guarantees success for any
    #: job the fault-free path can compile.
    max_faults_per_job: int = 1

    def __post_init__(self) -> None:
        for name in (
            "error_rate",
            "crash_rate",
            "stall_rate",
            "cache_read_corrupt_rate",
            "cache_write_corrupt_rate",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        total = self.error_rate + self.crash_rate + self.stall_rate
        if total > 1.0:
            raise ValueError(
                f"worker fault rates sum to {total:.3f} > 1"
            )
        if self.stall_seconds <= 0:
            raise ValueError(
                f"stall_seconds must be > 0, got {self.stall_seconds}"
            )
        if self.max_faults_per_job < 0:
            raise ValueError(
                "max_faults_per_job must be >= 0, "
                f"got {self.max_faults_per_job}"
            )

    def decide(self, key: str, attempt: int) -> str | None:
        """The worker-side fault for ``(key, attempt)``, or ``None``.

        Pure in all inputs: workers and the supervising parent call
        this independently and always agree.
        """
        if attempt >= self.max_faults_per_job:
            return None
        draw = _draw(self.seed, "worker", key, attempt)
        edge = 0.0
        for kind, rate in (
            (FAULT_ERROR, self.error_rate),
            (FAULT_CRASH, self.crash_rate),
            (FAULT_STALL, self.stall_rate),
        ):
            edge += rate
            if draw < edge:
                return kind
        return None

    def corrupt_write(self, key: str) -> bool:
        """Whether the cache entry written under ``key`` gets garbled."""
        return (
            _draw(self.seed, "cache-write", key, 0)
            < self.cache_write_corrupt_rate
        )

    def corrupt_read(self, key: str, lookup: int) -> bool:
        """Whether the ``lookup``-th read of ``key`` sees a garbled file."""
        return (
            _draw(self.seed, "cache-read", key, lookup)
            < self.cache_read_corrupt_rate
        )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-able plan document (``from_dict`` round-trips)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        """Build a plan from a :meth:`to_dict`-shaped document."""
        return cls(**data)


#: Bundled plans (``repro load --chaos <name>``).  ``ci-smoke`` is the
#: bench-smoke CI step's plan: ≥10% of jobs hit, all fault kinds
#: represented, stalls short enough for a tight deadline budget.
CHAOS_PRESETS: dict[str, FaultPlan] = {
    "light": FaultPlan(
        seed=2022,
        error_rate=0.05,
        crash_rate=0.03,
        stall_rate=0.03,
        stall_seconds=2.0,
        cache_write_corrupt_rate=0.05,
    ),
    "heavy": FaultPlan(
        seed=2022,
        error_rate=0.15,
        crash_rate=0.10,
        stall_rate=0.05,
        stall_seconds=2.0,
        cache_read_corrupt_rate=0.10,
        cache_write_corrupt_rate=0.10,
        max_faults_per_job=2,
    ),
    # Seed chosen so the `smoke` scenario's 9 unique fingerprints draw
    # one error, one crash and one stall (decide() is pure, so this is
    # a stable property, not luck of the run).
    "ci-smoke": FaultPlan(
        seed=20220312,
        error_rate=0.10,
        crash_rate=0.08,
        stall_rate=0.08,
        stall_seconds=2.0,
        cache_write_corrupt_rate=0.10,
    ),
}


def load_fault_plan(spec: str) -> FaultPlan:
    """Resolve a chaos argument: a preset name or a JSON file path."""
    preset = CHAOS_PRESETS.get(spec)
    if preset is not None:
        return preset
    if spec.endswith(".json"):
        with open(spec, encoding="utf-8") as handle:
            return FaultPlan.from_dict(json.load(handle))
    raise ValueError(
        f"unknown fault plan {spec!r}; choose a preset "
        f"({', '.join(sorted(CHAOS_PRESETS))}) or a .json plan file"
    )
