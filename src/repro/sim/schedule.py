"""Compiled machine schedule.

The compiler's output: an ordered stream of machine ops plus summary
statistics.  The schedule is the contract between compiler and
simulator — the simulator validates it instruction by instruction, so a
buggy compiler cannot silently produce an inexecutable program.

The stream only ever grows in place (``append``/``extend``; a splice
builds a new schedule), so its length identifies its version: the
cached hash, the cached compiled stream and the op-kind tally
(``num_shuttles`` et al.) each remember the length they describe and
bring themselves up to date when read.  ``append`` is a bare list
append — the compiler emits every op through it — and a statistics
query after further appends counts only the new ops.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator

from ..core.ops import GateOp, MachineOp, MergeOp, MoveOp, SplitOp, SwapOp
from ..core.vector import HAVE_NUMPY, K_OTHER, compile_stream

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
        #: Lazy kind tally (None until first statistics query) and the
        #: number of leading ops it covers.
        self._kind_counts: dict[str, int] | None = None
        self._counted = 0
        #: Cached content hash (None until first hash) and the length
        #: it was taken at.
        self._hash: int | None = None
        self._hashed = 0
        #: Cached columnar form for the vectorized replay kernel
        #: (populated by repro.core.vector.compile_stream on first
        #: batched replay and used while its length matches, so
        #: simulate/verify/pass replays of the same schedule share one
        #: compilation).
        self._compiled_stream = None

    def append(self, op: MachineOp) -> None:
        """Append one machine op."""
        self._ops.append(op)

    def extend(self, ops: Iterable[MachineOp]) -> None:
        """Append several machine ops."""
        self._ops.extend(ops)

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
        out = Schedule(())
        out._ops = self._ops[:start] + replacement + self._ops[end:]
        if self._kind_counts is not None:
            counts = dict(self._counts())
            kind_of = _KIND_OF
            for op in self._ops[start:end]:
                kind = kind_of.get(type(op)) or op.kind
                counts[kind] -= 1
            for op in replacement:
                kind = kind_of.get(type(op)) or op.kind
                counts[kind] = counts.get(kind, 0) + 1
            out._kind_counts = counts
            out._counted = len(out._ops)
        return out

    def _counts(self) -> dict[str, int]:
        """The kind tally, built on first use and brought up to date
        with the ops appended since."""
        counts = self._kind_counts
        if counts is None:
            counts = self._kind_counts = {}
        ops = self._ops
        if self._counted == len(ops):
            return counts
        new = ops[self._counted :] if self._counted else ops
        kind_of = _KIND_OF
        tallied = 0
        for cls, n in Counter(map(type, new)).items():
            kind = kind_of.get(cls)
            if kind is None:  # subclassed op: fall back to .kind
                continue
            counts[kind] = counts.get(kind, 0) + n
            tallied += n
        if tallied != len(new):
            for op in new:
                if type(op) not in kind_of:
                    kind = op.kind
                    counts[kind] = counts.get(kind, 0) + 1
        self._counted = len(ops)
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
        op stream every probe); the cache is only used while the
        length it was taken at matches, so an appended-to schedule
        re-hashes correctly instead of lying about its content."""
        if self._hash is None or self._hashed != len(self._ops):
            self._hash = hash(tuple(self._ops))
            self._hashed = len(self._ops)
        return self._hash

    # ------------------------------------------------------------------
    # Pickling (the batch pool / result cache round-trip)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Pickle the op stream as its replay-kernel columns when numpy
        is available (see :class:`repro.core.vector.CompiledStream`):
        schedules cross the worker-pool boundary and land in the result
        cache on every sweep job, and the columns replace tens of
        thousands of per-op dataclass reduces with a handful of
        ndarrays.  A schedule that already replayed ships its cached
        stream; any other is encoded without caching the stream, so
        pickling adds no memory to it.  The kind tally travels too,
        counted here if nothing asked for it yet, so a loaded schedule
        (a cache hit's) reports ``num_shuttles`` without a pass over
        its ops; the hash and the compiled stream are rebuilt on
        demand."""
        counts = self._counts()
        if not HAVE_NUMPY:
            return {"_ops": self._ops, "_kind_counts": counts}
        stream = self._compiled_stream
        if stream is None or len(stream) != len(self._ops):
            stream = compile_stream(self._ops)  # a list: nothing cached
        return {"_stream": stream, "_kind_counts": counts}

    def __setstate__(self, state: dict) -> None:
        # Copies: a shallow ``copy.copy`` hands over the live state, and
        # the clone must not share its op list with the original.
        if "_stream" in state:
            self._ops = list(state["_stream"].ops)
        elif "_ops" in state:
            self._ops = list(state["_ops"])
        else:
            raise ValueError(
                f"unsupported Schedule pickle state: keys {sorted(state)}"
            )
        counts = state.get("_kind_counts")
        # A copy too: a shallow copy's tally must not count into the
        # original's.
        self._kind_counts = None if counts is None else dict(counts)
        self._counted = 0 if counts is None else len(self._ops)
        self._hash = None
        self._hashed = 0
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
        """Number of executed two-qubit gates.

        A schedule that replayed has its compiled stream; when that
        stream encodes every op (no ``K_OTHER`` row: no subclassed op,
        no gate on more than two qubits), its ``d`` column marks
        exactly the two-qubit gate ops, and the count is its sum.
        """
        stream = self._compiled_stream
        if (
            stream is not None
            and len(stream) == len(self._ops)
            and K_OTHER not in stream.kind_l
        ):
            return sum(stream.d_l)
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
