"""repro.resilience — hardened execution + deterministic chaos.

Two halves, by design:

* **Defense** — :class:`RetryPolicy`, :class:`Supervisor`,
  :class:`SupervisedPool`: per-job deadlines, retry with seeded
  exponential backoff, worker-crash detection with pool
  replenishment, poisoned-job quarantine.  :class:`BatchRunner` runs
  jobs in-process for one worker with no isolation need (no timeout,
  retry, chaos plan or job deadline) and on this supervised pool
  otherwise; the inertness gate in ``benchmarks/bench_load.py`` holds
  arming retry + timeout (injection off) to ≤5% overhead.
* **Attack** — :class:`FaultPlan`, :class:`ChaosCache`: seeded,
  JSON round-trippable fault injection whose every decision is a
  pure function of (plan, job key, attempt), so chaos runs are
  reproducible and the parent can account for injections it never
  hears back from.

Import structure: :mod:`.faults` and :mod:`.policy` are dependency-free
and imported eagerly (``repro.batch.runner`` needs the error types);
the pool/supervisor/execute/cache layers import :mod:`repro.batch` and
are loaded lazily to keep the package cycle-free.
"""

from __future__ import annotations

from .faults import (
    CHAOS_PRESETS,
    FAULT_CRASH,
    FAULT_ERROR,
    FAULT_KINDS,
    FAULT_STALL,
    INJECTED_EXIT_CODE,
    FaultPlan,
    InjectedFaultError,
    JobTimeoutError,
    load_fault_plan,
)
from .policy import RETRYABLE_OUTCOMES, RetryPolicy

__all__ = [
    "CHAOS_PRESETS",
    "FAULT_CRASH",
    "FAULT_ERROR",
    "FAULT_KINDS",
    "FAULT_STALL",
    "INJECTED_EXIT_CODE",
    "FaultPlan",
    "InjectedFaultError",
    "JobTimeoutError",
    "load_fault_plan",
    "RETRYABLE_OUTCOMES",
    "RetryPolicy",
    "ChaosCache",
    "SupervisedPool",
    "Supervisor",
    "Task",
    "execute_task",
]

_LAZY = {
    "ChaosCache": ("repro.resilience.cache", "ChaosCache"),
    "SupervisedPool": ("repro.resilience.pool", "SupervisedPool"),
    "Supervisor": ("repro.resilience.supervisor", "Supervisor"),
    "Task": ("repro.resilience.execute", "Task"),
    "execute_task": ("repro.resilience.execute", "execute_task"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    value = getattr(importlib.import_module(module_name), attr)
    globals()[name] = value
    return value
