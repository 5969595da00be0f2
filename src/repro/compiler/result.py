"""Compilation result container."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from ..core.ops import ShuttleReason
from ..passes.manager import PassStats
from ..sim.schedule import Schedule


@dataclass
class CompilationResult:
    """Everything the compiler produced for one circuit.

    The schedule plus the initial chains are sufficient to simulate the
    program; the remaining fields are bookkeeping for the evaluation
    harness (Table II / Table III columns).  When the configuration
    names ``post_passes``, ``schedule`` is the *optimized* stream and
    the raw (pre-pass) counts plus per-pass deltas are recorded so
    reports can show optimized-vs-raw columns.
    """

    circuit_name: str
    config_name: str
    schedule: Schedule
    initial_chains: dict[int, list[int]]
    final_chains: dict[int, list[int]]
    gate_order: list[int]  # original gate indices in execution order
    num_reorders: int  # Algorithm-1 hoists performed
    num_rebalances: int  # traffic-block evictions performed
    # Wall-clock seconds (Table III metric).  Excluded from equality:
    # timing is host- and run-dependent, so a cached batch result must
    # still compare equal to a fresh compilation of the same inputs.
    compile_time: float = field(compare=False, default=0.0)
    # Post-compilation optimization bookkeeping (empty/None when the
    # config ran no passes).  Deterministic, so part of equality.
    pass_stats: tuple[PassStats, ...] = ()
    raw_num_shuttles: int | None = None
    raw_num_ops: int | None = None

    @property
    def num_shuttles(self) -> int:
        """Total shuttles = MoveOps (Table II metric)."""
        return self.schedule.num_shuttles

    @property
    def num_gates(self) -> int:
        """Executed gates."""
        return self.schedule.num_gates

    @property
    def num_two_qubit_gates(self) -> int:
        """Executed two-qubit gates."""
        return self.schedule.num_two_qubit_gates

    def shuttles_by_reason(self) -> Counter:
        """Shuttles attributed to gate routing vs traffic re-balancing."""
        return self.schedule.shuttles_by_reason()

    @property
    def gate_routing_shuttles(self) -> int:
        """Shuttles emitted to bring gate partners together."""
        return self.shuttles_by_reason().get(ShuttleReason.GATE, 0)

    @property
    def rebalance_shuttles(self) -> int:
        """Shuttles emitted resolving traffic blocks."""
        return self.shuttles_by_reason().get(ShuttleReason.REBALANCE, 0)

    @property
    def optimized(self) -> bool:
        """True when post-compilation passes ran on this result."""
        return self.raw_num_shuttles is not None

    @property
    def shuttles_removed_by_passes(self) -> int:
        """Shuttles deleted by the post-pass pipeline (0 without one)."""
        if self.raw_num_shuttles is None:
            return 0
        return self.raw_num_shuttles - self.num_shuttles

    @property
    def pass_rewrites(self) -> int:
        """Total rewrites shipped by non-reverted passes."""
        return sum(
            s.rewrites for s in self.pass_stats if not s.reverted
        )

    def summary(self) -> str:
        """One-line human-readable summary."""
        text = (
            f"{self.circuit_name} [{self.config_name}]: "
            f"{self.num_shuttles} shuttles "
            f"({self.gate_routing_shuttles} gate / "
            f"{self.rebalance_shuttles} rebalance), "
            f"{self.num_reorders} reorders, "
            f"{self.compile_time * 1e3:.1f} ms compile"
        )
        if self.optimized:
            text += (
                f", passes: {self.raw_num_shuttles} -> "
                f"{self.num_shuttles} shuttles "
                f"({self.pass_rewrites} rewrites)"
            )
        return text
