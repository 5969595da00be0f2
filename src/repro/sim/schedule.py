"""Compiled machine schedule.

The compiler's output: an ordered stream of machine ops plus summary
statistics.  The schedule is the contract between compiler and
simulator — the simulator validates it instruction by instruction, so a
buggy compiler cannot silently produce an inexecutable program.

Op-kind statistics (``num_shuttles`` et al.) are maintained
incrementally: the first query counts the stream once, every later
``append``/``extend`` updates the tally, so the compiler's router —
which brackets each route with two ``num_shuttles`` reads — pays O(1)
instead of re-scanning an ever-growing stream.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator

from ..core.ops import GateOp, MachineOp, MergeOp, MoveOp, SplitOp, SwapOp

#: Exact-class -> kind discriminator (fallback: the op's own property).
_KIND_OF = {
    GateOp: "gate",
    SplitOp: "split",
    MoveOp: "move",
    MergeOp: "merge",
    SwapOp: "swap",
}


class Schedule:
    """Ordered machine-op stream produced by compilation."""

    def __init__(self, ops: Iterable[MachineOp] = ()) -> None:
        self._ops: list[MachineOp] = list(ops)
        #: Lazy kind tally (None until first statistics query).
        self._kind_counts: dict[str, int] | None = None
        #: Cached content hash (None until first hash, reset on mutation).
        self._hash: int | None = None
        #: Cached columnar form for the vectorized replay kernel
        #: (populated by repro.core.vector.compile_stream on first
        #: batched replay; reset on mutation so simulate/verify/pass
        #: replays of the same schedule share one compilation).
        self._compiled_stream = None

    def append(self, op: MachineOp) -> None:
        """Append one machine op."""
        self._ops.append(op)
        self._hash = None
        self._compiled_stream = None
        counts = self._kind_counts
        if counts is not None:
            kind = _KIND_OF.get(type(op)) or op.kind
            counts[kind] = counts.get(kind, 0) + 1

    def extend(self, ops: Iterable[MachineOp]) -> None:
        """Append several machine ops."""
        self._hash = None
        self._compiled_stream = None
        if self._kind_counts is None:
            self._ops.extend(ops)
            return
        for op in ops:
            self.append(op)

    def spliced(
        self,
        start: int,
        end: int,
        replacement: Iterable[MachineOp] = (),
    ) -> "Schedule":
        """New schedule with ``ops[start:end]`` replaced.

        This is the cheap construction path for splice rewrites (the
        incremental verification engine's edit shape): the op list is
        built by slicing, and — when this schedule's kind tally exists —
        the new tally is *derived* in O(window) from the old one
        instead of re-counting the whole stream on the next statistics
        query.
        """
        replacement = list(replacement)
        out = Schedule.__new__(Schedule)
        out._ops = self._ops[:start] + replacement + self._ops[end:]
        out._hash = None
        out._compiled_stream = None
        counts = self._kind_counts
        if counts is None:
            out._kind_counts = None
        else:
            counts = dict(counts)
            kind_of = _KIND_OF
            for op in self._ops[start:end]:
                kind = kind_of.get(type(op)) or op.kind
                counts[kind] -= 1
            for op in replacement:
                kind = kind_of.get(type(op)) or op.kind
                counts[kind] = counts.get(kind, 0) + 1
            out._kind_counts = counts
        return out

    def _counts(self) -> dict[str, int]:
        """The kind tally, built on first use."""
        counts = self._kind_counts
        if counts is None:
            counts = {}
            kind_of = _KIND_OF
            for cls, n in Counter(map(type, self._ops)).items():
                kind = kind_of.get(cls)
                if kind is None:  # subclassed op: fall back to .kind
                    continue
                counts[kind] = counts.get(kind, 0) + n
            tallied = sum(counts.values())
            if tallied != len(self._ops):
                for op in self._ops:
                    if type(op) not in kind_of:
                        kind = op.kind
                        counts[kind] = counts.get(kind, 0) + 1
            self._kind_counts = counts
        return counts

    @property
    def ops(self) -> tuple[MachineOp, ...]:
        """The op stream as an immutable tuple."""
        return tuple(self._ops)

    def __len__(self) -> int:
        return len(self._ops)

    def __iter__(self) -> Iterator[MachineOp]:
        return iter(self._ops)

    def __getitem__(self, index: int) -> MachineOp:
        return self._ops[index]

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
        op stream every probe); ``append``/``extend``/``spliced``
        invalidate or bypass the cache, so a mutated schedule re-hashes
        correctly instead of lying about its content."""
        if self._hash is None:
            self._hash = hash(tuple(self._ops))
        return self._hash

    # ------------------------------------------------------------------
    # Pickling (the batch pool / result cache round-trip)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Pickle the op stream in packed columnar form when numpy is
        available (see :mod:`repro.sim.packing`): schedules cross the
        worker-pool boundary and land in the result cache on every
        sweep job, and packing replaces tens of thousands of per-op
        dataclass reduces with a handful of ndarrays.  Caches (hash,
        kind tally survives; compiled stream does not) are rebuilt on
        demand after unpickling."""
        from .packing import pack_ops

        packed = pack_ops(self._ops)
        if packed is None:
            return {"_ops": self._ops, "_kind_counts": self._kind_counts}
        return {"_packed": packed, "_kind_counts": self._kind_counts}

    def __setstate__(self, state: dict) -> None:
        packed = state.get("_packed")
        if packed is not None:
            from .packing import unpack_ops

            self._ops = unpack_ops(packed)
        else:
            self._ops = state["_ops"]
        self._kind_counts = state.get("_kind_counts")
        self._hash = None
        self._compiled_stream = None

    # ------------------------------------------------------------------
    # Statistics (the quantities the paper reports)
    # ------------------------------------------------------------------
    @property
    def num_shuttles(self) -> int:
        """Number of shuttles = number of MoveOps (Table II metric)."""
        return self._counts().get("move", 0)

    @property
    def num_gates(self) -> int:
        """Number of executed gates."""
        return self._counts().get("gate", 0)

    @property
    def num_two_qubit_gates(self) -> int:
        """Number of executed two-qubit gates."""
        return sum(
            1
            for op in self._ops
            if isinstance(op, GateOp) and op.gate.is_two_qubit
        )

    @property
    def num_splits(self) -> int:
        """Number of SplitOps."""
        return self._counts().get("split", 0)

    @property
    def num_merges(self) -> int:
        """Number of MergeOps."""
        return self._counts().get("merge", 0)

    @property
    def num_swaps(self) -> int:
        """Number of in-chain SwapOps (chain-order tracking only)."""
        return self._counts().get("swap", 0)

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
        return Counter(
            {kind: n for kind, n in self._counts().items() if n}
        )

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
