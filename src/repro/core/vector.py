"""Vectorized replay kernel: batched legality checks + a lean drain.

The scalar replay loop (:func:`repro.core.replaying.replay_into`) pays one
Python dispatch through :meth:`MachineState.apply` per op — after
PRs 3-5 that dispatch *is* the remaining replay cost.  The obvious
fix, batching maximal homogeneous op runs, does not survive contact
with real schedules: the compiler interleaves kinds at fine grain
(split, moves, merge, gate, ...) and the paper suite's measured mean
run length is ~1.5 ops — per-run ndarray overhead swamps the win
(see DESIGN.md §11 for the numbers).  This module therefore batches
at *whole-stream* granularity instead:

1. a :class:`CompiledStream` keeps its ops and their int columns in
   step, each op encoded once as it joins; a :class:`Schedule` *is*
   one, so simulate/verify/pass replays read the columns the schedule
   already has, and :func:`compile_stream` encodes only bare op lists,
2. :func:`check_stream` proves an entire window legal with array
   predicates — the per-ion transit discipline becomes a sorted
   (ion, position) event table with seed rows and a forward fill
   (each op's required pre-state is a pure function of the previous
   event of the same ion), trap capacity over time becomes per-trap
   prefix sums over split/merge deltas, and shuttle connectivity one
   dense boolean-matrix gather,
3. a proven-legal window is *drained*: one lean loop applies
   mutations with no legality work and drives the simulator's
   clock/heating accumulators inline, preserving the scalar per-op
   accumulation order exactly — every float is bit-identical to the
   scalar kernel (the golden suite pins this).

If the check flags anything — a real violation or any op shape the
predicates do not model (swaps, subclassed ops, out-of-range ids) —
the caller falls back to the scalar kernel from untouched state and
reproduces the exact ``"op N: ..."`` error string.  False positives
merely cost speed; the predicates are constructed so no illegal op
can pass (no false negatives).

The same columns are also the pickled form of a schedule: a
:class:`CompiledStream` pickles as its columns plus a small decode
vocabulary (gate names and params, shuttle reasons), so the worker
pool and the result cache ship the columns the schedule already has.

:func:`repro.core.replaying.replay` is the only caller that chooses
between this kernel and the scalar loop.  Everything degrades
gracefully without numpy: replays run the scalar loop and schedules
pickle as plain op objects.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator

from ..circuits.gate import (
    Gate,
    GateError,
    check_canonical_name,
    gate_signature,
    trusted_gate,
)
from .observers import FIDELITY_FLOOR, ClockObserver, HeatingObserver
from .ops import GateOp, MergeOp, MoveOp, SplitOp, SwapOp
from .state import NOWHERE, MachineState

try:  # pragma: no cover - exercised by the no-numpy CI job
    import numpy as np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover
    np = None
    HAVE_NUMPY = False

#: Op-kind codes of the ``kind`` column (order is part of the pickle
#: format).
K_GATE, K_MOVE, K_SPLIT, K_MERGE, K_SWAP, K_OTHER = range(6)

#: Pickle-format version of :class:`CompiledStream`; unpickling
#: rejects every other value (and a missing one).  Version 3: a
#: ``Schedule`` pickles as its own stream state, with no wrapper.
STREAM_FORMAT = 3

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1

def _fits(value) -> bool:
    """True when ``value`` is an int representable as int64."""
    return isinstance(value, int) and _INT64_MIN <= value <= _INT64_MAX


def _narrow(column):
    """``column`` in the smallest signed int dtype that holds it: the
    pickle state stores ids and codes compactly."""
    column = np.asarray(column, dtype=np.int64)
    if column.size:
        lo, hi = int(column.min()), int(column.max())
        for dtype in (np.int8, np.int16, np.int32):
            info = np.iinfo(dtype)
            if info.min <= lo and hi <= info.max:
                return column.astype(dtype)
    return column


class CompiledStream:
    """An op stream and its columns, kept in step.

    ``kind_l`` discriminates per op; ``a_l``/``b_l``/``c_l`` are int
    field columns (gate: trap/q0/q1-or--1; move: ion/src/dst; split:
    ion/trap/-1; merge: ion/trap/position-or--1; swap:
    ion_a/ion_b/trap) and ``d_l`` marks two-qubit gates.  ``K_OTHER``
    marks ops outside the columns, with zeroed fields:
    subclassed/foreign ops, gates on more than two qubits, ids beyond
    int64, negative merge positions.  ``needs_scalar`` is True when
    any op is ``K_SWAP`` (chain-*order* checks) or ``K_OTHER``; such
    streams replay scalar end to end.

    Each op is encoded once, when it joins the stream (:meth:`extend`;
    :meth:`spliced` and :meth:`take` reuse the rows they keep).  The
    drain loop indexes these plain lists far faster than ndarray
    items; the check reads their ndarray twins (:meth:`arrays`) and
    caches one :class:`_CheckPlan` per window, both derived on first
    use and dropped when the stream grows.

    Pickling keeps the columns and adds the vocabulary they lack (see
    :meth:`__getstate__`); unpickling checks the gate columns in bulk
    and rebuilds the ops from them (see :func:`_decode_gates`).
    """

    __slots__ = (
        "_ops",
        "kind_l",
        "a_l",
        "b_l",
        "c_l",
        "d_l",
        "_arrays",
        "_plans",
    )

    def __init__(self, ops: Iterable = ()) -> None:
        ops = list(ops)
        self._adopt(ops, _encode(ops))

    def _adopt(self, ops: list, columns) -> None:
        self._ops = ops
        self.kind_l, self.a_l, self.b_l, self.c_l, self.d_l = columns
        self._arrays = None
        #: (lo, hi) -> _CheckPlan, built lazily by check_stream.
        self._plans: dict = {}

    def _columns(self) -> tuple:
        return (self.kind_l, self.a_l, self.b_l, self.c_l, self.d_l)

    def _derived(self, ops: list, columns) -> "CompiledStream":
        """A new stream of this type over ``ops`` and their ``columns``."""
        out = type(self).__new__(type(self))
        out._adopt(ops, columns)
        return out

    def append(self, op) -> None:
        """Append one op."""
        self.extend((op,))

    def extend(self, ops: Iterable) -> None:
        """Append several ops, encoding only them."""
        ops = list(ops)
        self._ops.extend(ops)
        for column, rows in zip(self._columns(), _encode(ops)):
            column.extend(rows)
        self._arrays = None
        self._plans = {}

    def spliced(
        self, start: int, end: int, replacement: Iterable = ()
    ) -> "CompiledStream":
        """New stream with ``ops[start:end]`` replaced: the kept rows
        are sliced, only ``replacement`` is encoded."""
        replacement = list(replacement)
        return self._derived(
            self._ops[:start] + replacement + self._ops[end:],
            [
                column[:start] + rows + column[end:]
                for column, rows in zip(
                    self._columns(), _encode(replacement)
                )
            ],
        )

    def take(self, order: list[int]) -> "CompiledStream":
        """New stream of the rows at ``order`` (a reordering, say):
        nothing is re-encoded."""
        return self._derived(
            [self._ops[i] for i in order],
            [[column[i] for i in order] for column in self._columns()],
        )

    @property
    def ops(self) -> tuple:
        """The op stream as an immutable tuple."""
        return tuple(self._ops)

    def __len__(self) -> int:
        return len(self._ops)

    def __iter__(self) -> Iterator:
        return iter(self._ops)

    def __getitem__(self, index):
        return self._ops[index]

    @property
    def needs_scalar(self) -> bool:
        kinds = self.kind_l
        return K_SWAP in kinds or K_OTHER in kinds

    def arrays(self) -> tuple:
        """``(kind, a, b, c)`` as ndarrays (uint8 kinds, int64 fields),
        derived from the lists on first use."""
        if self._arrays is None:
            self._arrays = (
                # bytearray packs the kind codes far faster than a
                # per-item uint8 conversion, and the array shares it.
                np.frombuffer(bytearray(self.kind_l), dtype=np.uint8),
                np.array(self.a_l, dtype=np.int64),
                np.array(self.b_l, dtype=np.int64),
                np.array(self.c_l, dtype=np.int64),
            )
        return self._arrays

    def __getstate__(self) -> dict:
        """The columns plus the vocabulary the decoder needs.

        One pass keyed off ``kind`` (the columns already made every
        format decision) collects a name code and the params per gate,
        a reason code per shuttle op, and the ``K_OTHER`` ops verbatim
        as ``(index, op)`` pairs.  A gate op holding a ``Gate``
        subclass replays like any gate but would decode as a plain
        ``Gate``, so it travels verbatim too.  The ndarray twins and
        the check plans are never part of the state.  Without numpy
        there are no columns to narrow: the state is the op objects.
        """
        ops = self._ops
        if not HAVE_NUMPY:
            return {"_ops": ops}
        name_code: dict[str, int] = {}
        name_codes: list[int] = []
        param_counts: list[int] = []
        params: list[float] = []
        reason_code: dict = {}
        reason_codes: list[int] = []
        other: list[tuple[int, object]] = []
        for index, kind in enumerate(self.kind_l):
            if kind == K_GATE:
                gate = ops[index].gate
                if type(gate) is not Gate:
                    other.append((index, ops[index]))
                    continue
                code = name_code.get(gate.name)
                if code is None:
                    code = name_code[gate.name] = len(name_code)
                name_codes.append(code)
                param_counts.append(len(gate.params))
                params.extend(gate.params)
            elif kind == K_OTHER:
                other.append((index, ops[index]))
            else:
                reason = ops[index].reason
                code = reason_code.get(reason)
                if code is None:
                    code = reason_code[reason] = len(reason_code)
                reason_codes.append(code)
        return {
            "version": STREAM_FORMAT,
            "kind": np.frombuffer(bytearray(self.kind_l), dtype=np.uint8),
            "a": _narrow(self.a_l),
            "b": _narrow(self.b_l),
            "c": _narrow(self.c_l),
            "gate_names": list(name_code),
            "gate_name_codes": _narrow(name_codes),
            "gate_param_counts": _narrow(param_counts),
            "gate_params": np.array(params, dtype=np.float64),
            "reasons": list(reason_code),
            "reason_codes": _narrow(reason_codes),
            "other": other,
        }

    def __setstate__(self, state: dict) -> None:
        # Fresh lists throughout: a shallow ``copy.copy`` hands over the
        # live state, and the clone must share no list with the original.
        if "_ops" in state:
            ops = list(state["_ops"])
            self._adopt(ops, _encode(ops))
            return
        version = state.get("version")
        if version != STREAM_FORMAT:
            raise ValueError(
                f"unsupported {type(self).__name__} format {version!r} "
                f"(expected {STREAM_FORMAT})"
            )
        kind = state["kind"]
        if kind.size and int(kind.max()) > K_OTHER:
            raise ValueError("stream kind column holds an unknown code")
        wide_b = state["b"].astype(np.int64)
        wide_c = state["c"].astype(np.int64)
        kinds = kind.tolist()
        col_a = state["a"].tolist()
        col_b = wide_b.tolist()
        col_c = wide_c.tolist()
        col_d = ((kind == K_GATE) & (wide_c >= 0)).tolist()

        other = dict(state["other"])
        gate_rows = kind == K_GATE
        if other:
            gate_rows[list(other)] = False  # subclassed gates travel verbatim
        gates = _decode_gates(state, wide_b[gate_rows], wide_c[gate_rows])
        reasons = state["reasons"]
        shuttle_reasons = [reasons[i] for i in state["reason_codes"].tolist()]
        ops: list = []
        g = r = 0  # gate / shuttle-reason cursors
        for index, op_kind in enumerate(kinds):
            if index in other:
                ops.append(other[index])
                continue
            a = col_a[index]
            if op_kind == K_GATE:
                ops.append(GateOp(gates[g], a))
                g += 1
                continue
            if op_kind == K_OTHER:
                raise ValueError(f"stream row {index} has no verbatim op")
            b = col_b[index]
            c = col_c[index]
            reason = shuttle_reasons[r]
            r += 1
            if op_kind == K_MOVE:
                ops.append(MoveOp(a, b, c, reason))
            elif op_kind == K_SPLIT:
                ops.append(SplitOp(a, b, reason))
            elif op_kind == K_MERGE:
                ops.append(MergeOp(a, b, reason, None if c < 0 else c))
            else:
                ops.append(SwapOp(a, b, c, reason))
        columns = (kinds, col_a, col_b, col_c, col_d)
        # The verbatim rows' columns come from their ops, so the kept
        # columns describe exactly the decoded ops.
        for index, op in other.items():
            for column, (value,) in zip(columns, _encode([op])):
                column[index] = value
        self._adopt(ops, columns)


def _decode_gates(state: dict, qubit0, qubit1) -> list:
    """The plain gates of a pickled stream, in order, from their qubit
    columns (``qubit1`` is -1 for one-qubit gates) and vocabulary.

    Every invariant ``Gate.__post_init__`` enforces is checked once
    over the whole stream instead of once per gate: the lower-case
    name and the name's arity and parameter count
    (:func:`~repro.circuits.gate.gate_signature`) once per vocabulary
    entry, then non-negative, distinct qubits and each row's arity and
    parameter count as array predicates.  A violation raises
    :class:`~repro.circuits.gate.GateError`, as the constructor would;
    a clean stream builds each gate through
    :func:`~repro.circuits.gate.trusted_gate`.
    """
    gate_names = state["gate_names"]
    codes = state["gate_name_codes"].astype(np.int64)
    counts = state["gate_param_counts"].astype(np.int64)
    if not len(codes) == len(counts) == len(qubit0):
        raise ValueError("gate vocabulary columns do not match the stream")
    arity = []
    param_count = []
    for name in gate_names:
        check_canonical_name(name)
        qubits, count = gate_signature(name)
        arity.append(-1 if qubits is None else qubits)
        param_count.append(-1 if count is None else count)
    two_qubit = qubit1 >= 0
    if (qubit0 < 0).any() or (qubit1 < -1).any():
        raise GateError("decoded gate has negative qubit index")
    if (two_qubit & (qubit0 == qubit1)).any():
        raise GateError("decoded two-qubit gate acts on duplicate qubits")
    for table, actual, what in (
        (arity, np.where(two_qubit, 2, 1), "qubits"),
        (param_count, counts, "parameters"),
    ):
        expected = np.array(table, dtype=np.int64)[codes]
        bad = np.flatnonzero((expected >= 0) & (expected != actual))
        if bad.size:
            row = bad[0]
            raise GateError(
                f"decoded gate {gate_names[codes[row]]!r} expects "
                f"{expected[row]} {what}, got {actual[row]}"
            )
    params = state["gate_params"].tolist()
    if (counts < 0).any() or int(counts.sum()) != len(params):
        raise ValueError("gate parameter columns do not match the stream")
    gates = []
    p = 0
    for code, count, b, c in zip(
        codes.tolist(), counts.tolist(), qubit0.tolist(), qubit1.tolist()
    ):
        if count:
            gate_params = tuple(params[p : p + count])
            p += count
        else:
            gate_params = ()
        qubits = (b,) if c < 0 else (b, c)
        gates.append(trusted_gate(gate_names[code], qubits, gate_params))
    return gates


def compile_stream(source) -> CompiledStream:
    """``source`` as a :class:`CompiledStream`: a stream (a
    :class:`~repro.sim.schedule.Schedule` is one) is its own, any other
    op sequence is encoded into a new one."""
    if isinstance(source, CompiledStream):
        return source
    return CompiledStream(source)


def _encode(ops: list) -> tuple[list, list, list, list, list]:
    """The ``(kind, a, b, c, d)`` columns of ``ops``.

    One lean loop copies every op's fields into the columns unchecked;
    the column rule is then applied in bulk, and every row that breaks
    it becomes a zeroed ``K_OTHER`` row.  The rule: each field is an
    ``int`` (``isinstance``, so bools and int subclasses pass, numpy
    ints do not) within int64, and an explicit merge position is
    non-negative: a negative insert index is legal scalar, but -1
    already encodes "tail".  The constant fields the loop writes (-1,
    0) always pass.

    The common case is decided at once: every value's type is exactly
    ``int``, the columns' extremes lie within int64 and no explicit
    position is negative.  Anything else is checked row by row.  The
    result is the same as checking each field as it is copied.
    """
    n = len(ops)
    kind = [K_OTHER] * n
    col_a = [0] * n
    col_b = [0] * n
    col_c = [0] * n
    col_d = [False] * n
    positioned: list[int] = []  # merges with an explicit position
    for i, op in enumerate(ops):
        cls = type(op)
        if cls is GateOp:
            qubits = op.gate.qubits
            nq = len(qubits)
            if nq == 2:
                kind[i] = K_GATE
                col_a[i] = op.trap
                col_b[i], col_c[i] = qubits
                col_d[i] = True
            elif nq == 1:
                kind[i] = K_GATE
                col_a[i] = op.trap
                col_b[i] = qubits[0]
                col_c[i] = -1
        elif cls is MoveOp:
            kind[i] = K_MOVE
            col_a[i] = op.ion
            col_b[i] = op.src
            col_c[i] = op.dst
        elif cls is SplitOp:
            kind[i] = K_SPLIT
            col_a[i] = op.ion
            col_b[i] = op.trap
            col_c[i] = -1
        elif cls is MergeOp:
            kind[i] = K_MERGE
            col_a[i] = op.ion
            col_b[i] = op.trap
            position = op.position
            if position is None:
                col_c[i] = -1  # tail append
            else:
                col_c[i] = position
                positioned.append(i)
        elif cls is SwapOp:
            kind[i] = K_SWAP
            col_a[i] = op.ion_a
            col_b[i] = op.ion_b
            col_c[i] = op.trap
    columns = (kind, col_a, col_b, col_c, col_d)
    fields = (col_a, col_b, col_c)
    types = set()
    for column in fields:
        types.update(map(type, column))
    if types <= {int} and (
        not n
        or (
            min(map(min, fields)) >= _INT64_MIN
            and max(map(max, fields)) <= _INT64_MAX
            and all(col_c[i] >= 0 for i in positioned)
        )
    ):
        return columns
    explicit = set(positioned)
    for i, row_kind in enumerate(kind):
        if row_kind == K_OTHER:
            continue
        c = col_c[i]
        if (
            _fits(col_a[i])
            and _fits(col_b[i])
            and _fits(c)
            and (i not in explicit or c >= 0)
        ):
            continue
        kind[i] = K_OTHER
        col_a[i] = col_b[i] = col_c[i] = 0
        col_d[i] = False
    return columns


# ----------------------------------------------------------------------
# Whole-window legality check (array predicates, no state mutation)
# ----------------------------------------------------------------------
class _CheckPlan:
    """State-independent structure of one check window, built once per
    ``(stream, lo, hi)`` and cached on the stream.

    The per-ion event table, its ``(ion, position)`` sort, the
    forward-fill gather indices and the capacity prefix sums depend
    only on the op stream — a check against a concrete state then
    reduces to writing the state's seed values into the cached table
    and running a handful of gathers and vectorized comparisons.
    """

    __slots__ = (
        "empty",
        "ions_nonneg",
        "max_ion",
        "seed_ion",
        "num_seed",
        "after_trap",
        "after_transit",
        "sp_gather",
        "sp_trap",
        "mv_gather",
        "mv_src",
        "mg_gather",
        "mg_trap",
        "q_gather",
        "q_trap",
        "move_src",
        "move_dst",
        "read_trap",
        "read_rel",
        "conn_num_traps",
        "conn_dst_ok",
        "conn_edges_ref",
        "conn_edge_ok",
        "conn_flat",
        "cap_ref",
        "cap_arr",
    )

    def __init__(self, stream: CompiledStream, lo: int, hi: int) -> None:
        kind, a, b, c = (column[lo:hi] for column in stream.arrays())

        is_gate = kind == K_GATE
        is_move = kind == K_MOVE
        is_split = kind == K_SPLIT
        is_merge = kind == K_MERGE

        # Event rows (split/move/merge) and gate-operand query rows.
        ev_pos = np.flatnonzero(~is_gate)
        ev_ion = a[ev_pos]
        ev_kind = kind[ev_pos]
        ev_b = b[ev_pos]  # split/merge: trap; move: src
        ev_c = c[ev_pos]  # move: dst
        g_pos = np.flatnonzero(is_gate)
        q1 = c[g_pos]
        two = np.flatnonzero(q1 >= 0)
        q_pos = np.concatenate([g_pos, g_pos[two]])
        q_ion = np.concatenate([b[g_pos], q1[two]])
        g_trap = a[g_pos]
        self.q_trap = np.concatenate([g_trap, g_trap[two]])

        self.seed_ion = np.unique(np.concatenate([ev_ion, q_ion]))
        self.num_seed = num_seed = self.seed_ion.size
        self.empty = num_seed == 0
        if self.empty:
            self.ions_nonneg = True
            self.max_ion = -1
            return
        self.ions_nonneg = bool(self.seed_ion[0] >= 0)
        self.max_ion = int(self.seed_ion[-1])

        ev_k_move = ev_kind == K_MOVE
        ev_k_split = ev_kind == K_SPLIT
        ev_k_merge = ev_kind == K_MERGE
        # State each event leaves behind (split/move detach; merge lands).
        ev_after_trap = np.where(ev_k_merge, ev_b, NOWHERE)
        ev_after_transit = np.where(
            ev_k_split, ev_b, np.where(ev_k_move, ev_c, NOWHERE)
        )

        num_ev = ev_pos.size
        num_q = q_pos.size
        ion_col = np.concatenate([self.seed_ion, ev_ion, q_ion])
        pos_col = np.concatenate(
            [np.full(num_seed, -1, dtype=np.int64), ev_pos, q_pos]
        )
        rows = ion_col.size
        is_state_row = np.zeros(rows, dtype=bool)
        is_state_row[: num_seed + num_ev] = True
        # Mutable per-check: [:num_seed] is overwritten with the
        # concrete state's seed values before every gather.
        self.after_trap = np.concatenate(
            [
                np.zeros(num_seed, dtype=np.int64),
                ev_after_trap,
                np.zeros(num_q, dtype=np.int64),
            ]
        )
        self.after_transit = np.concatenate(
            [
                np.zeros(num_seed, dtype=np.int64),
                ev_after_transit,
                np.zeros(num_q, dtype=np.int64),
            ]
        )
        order = np.lexsort((pos_col, ion_col))
        # Forward fill: sorted index of the latest state row at or
        # before each sorted row; every ion group opens with its seed
        # (position -1), so the fill never crosses ions.  Row 0 is the
        # smallest ion's seed and is never checked.
        filled = np.maximum.accumulate(
            np.where(is_state_row[order], np.arange(rows), 0)
        )
        before = np.empty(rows, dtype=np.int64)
        before[0] = 0
        before[1:] = filled[:-1]
        # Original-row index of each row's predecessor state row, then
        # re-expressed per original event/query row: one gather total.
        prev_state = order[before]
        inv_order = np.empty(rows, dtype=np.int64)
        inv_order[order] = np.arange(rows)
        ev_gather = prev_state[inv_order[num_seed : num_seed + num_ev]]
        self.q_gather = prev_state[inv_order[num_seed + num_ev :]]
        self.sp_gather = ev_gather[ev_k_split]
        self.sp_trap = ev_b[ev_k_split]
        self.mv_gather = ev_gather[ev_k_move]
        self.mv_src = ev_b[ev_k_move]
        self.mg_gather = ev_gather[ev_k_merge]
        self.mg_trap = ev_b[ev_k_merge]

        # Connectivity rows (dst bounds + edge gather are finished
        # lazily per machine: trap count is not a stream property).
        mv_pos = np.flatnonzero(is_move)
        self.move_src = b[mv_pos]
        self.move_dst = c[mv_pos]
        self.conn_num_traps = -1
        self.conn_dst_ok = False
        self.conn_edges_ref = None
        self.conn_edge_ok = None
        self.conn_flat = None
        self.cap_ref = None
        self.cap_arr = None

        # Capacity over time: split -1 / merge +1 deltas in per-trap
        # prefix sums; a move reads its dst, a merge reads its trap
        # *before* its own delta (typ orders same-position rows).
        cq_pos = np.flatnonzero(is_move | is_merge)
        if cq_pos.size:
            d_pos = np.flatnonzero(is_split | is_merge)
            d_trap = b[d_pos]
            d_delta = np.where(kind[d_pos] == K_MERGE, 1, -1).astype(
                np.int64
            )
            cq_trap = np.where(is_move[cq_pos], c[cq_pos], b[cq_pos])
            t_trap = np.concatenate([cq_trap, d_trap])
            t_pos = np.concatenate([cq_pos, d_pos])
            t_typ = np.zeros(t_trap.size, dtype=np.int8)
            t_typ[cq_pos.size :] = 1
            t_delta = np.concatenate(
                [np.zeros(cq_pos.size, dtype=np.int64), d_delta]
            )
            t_order = np.lexsort((t_typ, t_pos, t_trap))
            o_trap = t_trap[t_order]
            o_typ = t_typ[t_order]
            cs = np.cumsum(t_delta[t_order])
            start_cs = np.concatenate([[0], cs[:-1]])
            group_start = np.empty(o_trap.size, dtype=bool)
            group_start[0] = True
            group_start[1:] = o_trap[1:] != o_trap[:-1]
            group_first = np.maximum.accumulate(
                np.where(group_start, np.arange(o_trap.size), 0)
            )
            group_base = start_cs[group_first]
            reads = o_typ == 0
            self.read_trap = o_trap[reads]
            #: Occupancy at each read relative to the entering state.
            self.read_rel = cs[reads] - group_base[reads]
        else:
            self.read_trap = None
            self.read_rel = None


def check_stream(
    state: MachineState, stream: CompiledStream, lo: int, hi: int
) -> bool:
    """True when ops ``[lo, hi)`` are proven legal against ``state``.

    Pure: the state is never touched.  ``False`` means "replay this
    window scalar" — every actually-illegal op is flagged (the scalar
    fallback then raises the exact error), and the only false
    positives are op shapes outside the vector model.  The window's
    state-independent structure (:class:`_CheckPlan`) is cached on
    the stream, so repeated checks — simulate, verify, pass replays —
    cost only the seed fill, a few gathers and the comparisons.
    """
    if stream.needs_scalar:
        return False
    if hi - lo <= 0:
        return True
    plan = stream._plans.get((lo, hi))
    if plan is None:
        plan = stream._plans[(lo, hi)] = _CheckPlan(stream, lo, hi)
    if plan.empty:
        return True
    # Ion ids must index the flat registries (out-of-range ids are
    # unconditionally illegal scalar: "not there"/"without a split").
    if not plan.ions_nonneg or plan.max_ion >= len(state._trap_of):
        return False

    # ---- per-ion transit/placement dataflow -------------------------
    after_trap = plan.after_trap
    after_transit = plan.after_transit
    num_seed = plan.num_seed
    trap0 = np.asarray(state._trap_of, dtype=np.int64)
    transit0 = np.asarray(state._transit, dtype=np.int64)
    after_trap[:num_seed] = trap0[plan.seed_ion]
    after_transit[:num_seed] = transit0[plan.seed_ion]

    # Gate operands: each ion must sit in the op's trap (exact scalar
    # semantics: plain equality against the flat registry).
    if plan.q_gather.size and not bool(
        (after_trap[plan.q_gather] == plan.q_trap).all()
    ):
        return False
    # Splits: not in transit, and placed exactly where the op claims.
    if plan.sp_gather.size:
        ok = (after_transit[plan.sp_gather] == NOWHERE) & (
            after_trap[plan.sp_gather] == plan.sp_trap
        )
        if not bool(ok.all()):
            return False
    # Moves and merges: in transit exactly at src / the landing trap.
    for gather, expect in (
        (plan.mv_gather, plan.mv_src),
        (plan.mg_gather, plan.mg_trap),
    ):
        if gather.size:
            at = after_transit[gather]
            if not bool(((at != NOWHERE) & (at == expect)).all()):
                return False

    # ---- connectivity ----------------------------------------------
    num_traps = len(state.chains)
    if plan.move_dst.size:
        if plan.conn_num_traps != num_traps:
            plan.conn_num_traps = num_traps
            plan.conn_dst_ok = bool(
                ((plan.move_dst >= 0) & (plan.move_dst < num_traps)).all()
            )
            plan.conn_edges_ref = None
            if plan.conn_dst_ok:
                # src == proven transit location => a real trap id.
                plan.conn_flat = plan.move_src * num_traps + plan.move_dst
        if not plan.conn_dst_ok:
            return False
        if plan.conn_edges_ref is not state._edges:
            edge_ok = np.zeros(num_traps * num_traps, dtype=bool)
            for ea, eb in state._edges:
                if 0 <= ea < num_traps and 0 <= eb < num_traps:
                    edge_ok[ea * num_traps + eb] = True
                    edge_ok[eb * num_traps + ea] = True
            plan.conn_edges_ref = state._edges
            plan.conn_edge_ok = edge_ok
        if not bool(plan.conn_edge_ok[plan.conn_flat].all()):
            return False

    # ---- capacity over time ----------------------------------------
    if plan.read_trap is not None:
        if plan.cap_ref is not state.capacities:
            plan.cap_ref = state.capacities
            plan.cap_arr = np.asarray(state.capacities, dtype=np.int64)
        occ0 = np.fromiter(
            map(len, state.chains), dtype=np.int64, count=num_traps
        )
        occupancy = occ0[plan.read_trap] + plan.read_rel
        if not bool((occupancy < plan.cap_arr[plan.read_trap]).all()):
            return False
    return True


# ----------------------------------------------------------------------
# Drain: unchecked application + inline observer accumulation
# ----------------------------------------------------------------------
def drain_stream(
    state: MachineState,
    stream: CompiledStream,
    lo: int,
    hi: int,
    clock: ClockObserver | None = None,
    heat: HeatingObserver | None = None,
) -> None:
    """Apply proven-legal ops ``[lo, hi)`` with no legality work.

    One lean loop over the columnar lists mirrors exactly what
    :meth:`MachineState.apply` mutates and what the clock/heating
    observers accumulate, in the same per-op order — every float is
    bit-identical to the scalar interleave (accumulator attributes
    are hoisted to locals and written back unchanged in value).  Only
    call after :func:`check_stream` returned True for the window.
    """
    kinds = stream.kind_l
    col_a = stream.a_l
    col_b = stream.b_l
    col_c = stream.c_l
    col_d = stream.d_l
    chains = state.chains
    trap_of = state._trap_of
    transit = state._transit
    in_transit = state._num_in_transit
    log = math.log

    if clock is not None:
        clocks = clock.clocks
        timing = clock.timing
        gate1q_time = timing.gate1q_time
        gate2q_time = timing.gate2q_time
        clock_split = timing.split_time
        clock_merge = timing.merge_time
        move_time = timing.move_time
    if heat is not None:
        noise = heat.noise
        h_timing = heat.timing
        h_gate1q = h_timing.gate1q_time
        h_gate2q = h_timing.gate2q_time
        nbar = heat.nbar
        transit_energy = heat.transit_energy
        energy_get = transit_energy.get
        energy_pop = transit_energy.pop
        add_fidelity = heat.gate_fidelities.append
        gate_fidelity = noise.gate_fidelity
        heating_rate = noise.background_heating_rate
        recool_enabled = noise.recool_enabled
        recool_floor = noise.recool_floor
        recool_decay = noise.recool_decay
        one_q_fidelity = 1.0 - noise.one_qubit_infidelity
        move_heating = noise.move_heating
        split_heating = noise.split_heating
        merge_heating = noise.merge_heating
        carried_fraction = noise.carried_energy_fraction
        log_fidelity = heat.log_fidelity
        max_nbar = heat.max_nbar
        min_gate_fidelity = heat.min_gate_fidelity
        nbar_sum = heat._nbar_sum
        nbar_count = heat._nbar_count

    for index in range(lo, hi):
        op_kind = kinds[index]
        if op_kind == K_GATE:
            trap = col_a[index]
            two_qubit = col_d[index]
            if clock is not None:
                clocks[trap] += gate2q_time if two_qubit else gate1q_time
            if heat is not None:
                if two_qubit:
                    fidelity = gate_fidelity(
                        h_gate2q, nbar[trap], len(chains[trap])
                    )
                    nbar_sum += nbar[trap]
                    nbar_count += 1
                    nbar[trap] += heating_rate * h_gate2q
                else:
                    fidelity = one_q_fidelity
                    nbar[trap] += heating_rate * h_gate1q
                if nbar[trap] > max_nbar:
                    max_nbar = nbar[trap]
                if recool_enabled and two_qubit:
                    nbar[trap] = recool_floor + (
                        nbar[trap] - recool_floor
                    ) * recool_decay
                if fidelity < FIDELITY_FLOOR:
                    fidelity = FIDELITY_FLOOR
                if fidelity < min_gate_fidelity:
                    min_gate_fidelity = fidelity
                log_fidelity += log(fidelity)
                add_fidelity(fidelity)
        elif op_kind == K_MOVE:
            ion = col_a[index]
            transit[ion] = col_c[index]
            if clock is not None:
                src = col_b[index]
                dst = col_c[index]
                start = clocks[src]
                if clocks[dst] > start:
                    start = clocks[dst]
                clocks[src] = start + move_time
                clocks[dst] = start + move_time
            if heat is not None:
                transit_energy[ion] = energy_get(ion, 0.0) + move_heating
        elif op_kind == K_SPLIT:
            ion = col_a[index]
            trap = col_b[index]
            chains[trap].remove(ion)
            trap_of[ion] = NOWHERE
            transit[ion] = trap
            in_transit += 1
            if clock is not None:
                clocks[trap] += clock_split
            if heat is not None:
                nbar[trap] += split_heating
                if nbar[trap] > max_nbar:
                    max_nbar = nbar[trap]
                transit_energy[ion] = 0.0
        else:  # K_MERGE (swaps/others never reach the drain)
            ion = col_a[index]
            trap = col_b[index]
            position = col_c[index]
            chain = chains[trap]
            if position < 0:
                chain.append(ion)
            else:
                chain.insert(position, ion)
            trap_of[ion] = trap
            transit[ion] = NOWHERE
            in_transit -= 1
            if clock is not None:
                clocks[trap] += clock_merge
            if heat is not None:
                carried = carried_fraction * energy_pop(ion, 0.0)
                nbar[trap] += carried + merge_heating
                if nbar[trap] > max_nbar:
                    max_nbar = nbar[trap]

    state._num_in_transit = in_transit
    if heat is not None:
        heat.log_fidelity = log_fidelity
        heat.max_nbar = max_nbar
        heat.min_gate_fidelity = min_gate_fidelity
        heat._nbar_sum = nbar_sum
        heat._nbar_count = nbar_count


def split_observers(observers):
    """Resolve ``observers`` into the drain's ``(clock, heat)`` slots.

    Returns ``None`` when any observer is not an exact-type
    ClockObserver/HeatingObserver (subclasses may override
    accumulation or read state mid-stream: they need the scalar
    per-op loop).
    """
    clock = None
    heat = None
    for observer in observers:
        if type(observer) is ClockObserver and clock is None:
            clock = observer
        elif type(observer) is HeatingObserver and heat is None:
            heat = observer
        else:
            return None
    return clock, heat
