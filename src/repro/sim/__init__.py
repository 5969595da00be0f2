"""Machine-level ops, schedules, and the QCCD heating/fidelity simulator."""

from ..core.ops import (
    GateOp,
    MachineOp,
    MergeOp,
    MoveOp,
    ShuttleReason,
    SplitOp,
    SwapOp,
)
from ..core.params import DEFAULT_PARAMS, MachineParams, NoiseParams, TimingParams
from .schedule import Schedule
from .simulator import SimulationError, SimulationReport, Simulator

__all__ = [
    "DEFAULT_PARAMS",
    "GateOp",
    "MachineOp",
    "MachineParams",
    "MergeOp",
    "MoveOp",
    "NoiseParams",
    "Schedule",
    "ShuttleReason",
    "SimulationError",
    "SimulationReport",
    "Simulator",
    "SplitOp",
    "SwapOp",
    "TimingParams",
]
