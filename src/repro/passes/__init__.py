"""Post-compilation schedule optimization (``repro.passes``).

The compiler commits every SPLIT/MOVE/MERGE greedily; this package
revisits the emitted :class:`~repro.sim.schedule.Schedule` with
composable, individually-toggleable rewrite passes — round-trip
deletion with merge/split fusion, congestion re-routing, gate hoisting
— each verified for machine legality and circuit equivalence before
its output is accepted.  See :class:`PassManager` for the pipeline driver
and :mod:`repro.passes.registry` for the pass catalogue.
"""

from .base import Excursion, PassContext, SchedulePass
from .fuse import MergeSplitFusion
from .manager import (
    OptimizationResult,
    PassError,
    PassManager,
    PassStats,
    optimize_schedule,
)
from .registry import (
    DEFAULT_PIPELINE,
    PASS_REGISTRY,
    available_passes,
    make_passes,
    resolve_pass_names,
)
from .reroute import RouteReselection
from .tighten import GateHoisting
from .verify import (
    VerificationError,
    is_legal,
    verify_equivalent,
    verify_schedule,
)

__all__ = [
    "DEFAULT_PIPELINE",
    "Excursion",
    "GateHoisting",
    "MergeSplitFusion",
    "OptimizationResult",
    "PASS_REGISTRY",
    "PassContext",
    "PassError",
    "PassManager",
    "PassStats",
    "RouteReselection",
    "SchedulePass",
    "VerificationError",
    "available_passes",
    "is_legal",
    "make_passes",
    "optimize_schedule",
    "resolve_pass_names",
    "verify_equivalent",
    "verify_schedule",
]
