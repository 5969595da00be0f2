"""Shuttle-aware QCCD compiler: baseline [7] and this-work configurations."""

from ..core.errors import CompilationError
from .compiler import QCCDCompiler, compile_and_simulate, compile_circuit
from .config import DEFAULT_PROXIMITY, CompilerConfig
from .future_index import FutureGateIndex, FutureView
from .mapping import (
    MAPPING_POLICIES,
    greedy_initial_mapping,
    initial_mapping,
    random_initial_mapping,
    round_robin_initial_mapping,
)
from .policies import (
    ExcessCapacityPolicy,
    FutureOpsPolicy,
    MoveScores,
    ShuttleDecision,
    excess_capacity_decision,
)
from .result import CompilationResult

__all__ = [
    "CompilationError",
    "CompilationResult",
    "CompilerConfig",
    "DEFAULT_PROXIMITY",
    "ExcessCapacityPolicy",
    "FutureGateIndex",
    "FutureOpsPolicy",
    "FutureView",
    "MAPPING_POLICIES",
    "MoveScores",
    "QCCDCompiler",
    "ShuttleDecision",
    "compile_and_simulate",
    "compile_circuit",
    "excess_capacity_decision",
    "greedy_initial_mapping",
    "initial_mapping",
    "random_initial_mapping",
    "round_robin_initial_mapping",
]
