"""Compiled machine schedule.

The compiler's output: an ordered stream of machine ops plus summary
statistics.  The schedule is the contract between compiler and
simulator — the simulator validates it instruction by instruction, so a
buggy compiler cannot silently produce an inexecutable program.

A schedule *is* its columnar stream (:class:`~repro.core.vector.CompiledStream`):
the op objects and the ``kind``/``a``/``b``/``c``/``d`` columns the
replay kernel reads, kept in step as the stream grows or is spliced,
each op encoded once.  The statistics read the ``kind`` and ``d``
columns; replay and pickling use the columns as they are.  The stream
only ever grows in place (a splice builds a new schedule), so its
length identifies its version, and the cached hash remembers the
length it describes.
"""

from __future__ import annotations

from collections import Counter

from ..core.ops import GateOp, MoveOp
from ..core.vector import (
    K_GATE,
    K_MERGE,
    K_MOVE,
    K_OTHER,
    K_SPLIT,
    K_SWAP,
    CompiledStream,
)

#: Kind name of each column code below ``K_OTHER``.
_KIND_NAMES = ("gate", "move", "split", "merge", "swap")


class Schedule(CompiledStream):
    """Ordered machine-op stream produced by compilation."""

    #: Cached content hash (None until first hash) and the length it
    #: was taken at.
    _hash: int | None = None
    _hashed = 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schedule):
            return NotImplemented
        return self._ops == other._ops

    def __hash__(self) -> int:
        """Content hash consistent with ``__eq__`` (all ops are frozen
        dataclasses).  Defining ``__eq__`` alone would set ``__hash__``
        to None and silently make schedules unusable as dict/set keys —
        which result caches and memo tables rely on.  The hash is
        computed once and cached (dict lookups used to re-hash the full
        op stream every probe); the cache is only used while the
        length it was taken at matches, so an appended-to schedule
        re-hashes correctly instead of lying about its content."""
        if self._hash is None or self._hashed != len(self._ops):
            self._hash = hash(tuple(self._ops))
            self._hashed = len(self._ops)
        return self._hash

    # ------------------------------------------------------------------
    # Statistics (the quantities the paper reports)
    # ------------------------------------------------------------------
    def _other_ops(self) -> list:
        """The ops of the ``K_OTHER`` rows, which report their own kind."""
        if K_OTHER not in self.kind_l:
            return []
        return [
            op for op, kind in zip(self._ops, self.kind_l) if kind == K_OTHER
        ]

    def _count(self, code: int) -> int:
        """Number of ops of kind ``code``."""
        name = _KIND_NAMES[code]
        return self.kind_l.count(code) + sum(
            1 for op in self._other_ops() if op.kind == name
        )

    @property
    def num_shuttles(self) -> int:
        """Number of shuttles = number of MoveOps (Table II metric)."""
        return self._count(K_MOVE)

    @property
    def num_gates(self) -> int:
        """Number of executed gates."""
        return self._count(K_GATE)

    @property
    def num_two_qubit_gates(self) -> int:
        """Number of executed two-qubit gates: the ``d`` column marks
        the encoded ones."""
        return self.d_l.count(True) + sum(
            1
            for op in self._other_ops()
            if isinstance(op, GateOp) and op.gate.is_two_qubit
        )

    @property
    def num_splits(self) -> int:
        """Number of SplitOps."""
        return self._count(K_SPLIT)

    @property
    def num_merges(self) -> int:
        """Number of MergeOps."""
        return self._count(K_MERGE)

    @property
    def num_swaps(self) -> int:
        """Number of in-chain SwapOps (chain-order tracking only)."""
        return self._count(K_SWAP)

    def shuttles_by_reason(self) -> Counter:
        """Shuttle counts attributed to gate routing vs re-balancing."""
        counts: Counter = Counter()
        for op in self._ops:
            if isinstance(op, MoveOp):
                counts[op.reason] += 1
        return counts

    @property
    def shuttle_to_gate_ratio(self) -> float:
        """Shuttles per two-qubit gate (Section IV-C's predictor of
        fidelity improvement)."""
        gates = self.num_two_qubit_gates
        return self.num_shuttles / gates if gates else 0.0

    def count_kinds(self) -> Counter:
        """Histogram over op kinds (gate/split/move/merge)."""
        counts = Counter(
            {
                _KIND_NAMES[code]: n
                for code, n in Counter(self.kind_l).items()
                if code != K_OTHER
            }
        )
        for op in self._other_ops():
            counts[op.kind] += 1
        return counts

    def gate_ops(self) -> list[GateOp]:
        """All GateOps in order."""
        return [op for op in self._ops if isinstance(op, GateOp)]

    def __repr__(self) -> str:
        kinds = self.count_kinds()
        return (
            f"Schedule(gates={kinds.get('gate', 0)}, "
            f"shuttles={kinds.get('move', 0)}, "
            f"splits={kinds.get('split', 0)}, merges={kinds.get('merge', 0)})"
        )
