"""Indexed future-gate engine: the compiler's O(window) decision hot path.

Every shuttle decision the compiler makes — move-score computation
(Section III-A2), max-score eviction (Section III-C2), Algorithm-1
re-ordering (Section III-B) — needs to look at the *upcoming* gate
stream.  The original implementation re-materialized the entire pending
tail as a fresh ``(gate, layer)`` generator per query and rescanned it,
making each decision O(remaining-program); on future-heavy circuits
(QFT, QAOA) the scan never hits the proximity cutoff because relevant
gates keep appearing, so compilation was quadratic in practice.

:class:`FutureGateIndex` replaces the stream with a per-ion index built
once per compile from the :class:`~repro.circuits.dag.DependencyDAG`:

* for each qubit, flat parallel arrays of its upcoming two-qubit gates
  in pending order (DAG node id + partner qubit), consumed through a
  monotone cursor that skips the executed prefix in O(1) amortized;
* per-node arrays ``order_key`` (the gate's current pending position),
  ``rank2q`` (number of two-qubit gates before it in pending order) and
  ``node_layer``, which let any consumer reconstruct *exactly* the
  stream-scan semantics — gate gaps for the ``"gates"`` proximity
  metric, layer gaps for ``"layers"``, eviction windows — while walking
  only the relevant ions' gate lists;
* an O(hoist-distance) :meth:`splice` patch applied when Algorithm-1
  re-ordering hoists a gate to the front of the pending tail.

Bit-identity with the retired tail scan rests on one structural
invariant, asserted at construction and on every splice: **pending-tail
layers are non-decreasing**.  The earliest-ready-first topological
order is layer-sorted, and a hoisted candidate's layer never exceeds
the active gate's, so the invariant survives every splice.  Under it,
the stream scan's break conditions collapse to conditions on the
relevant gates alone (see DESIGN.md §8 for the proof sketch), which is
what makes the per-ion walk exact rather than approximate.

The index also hosts the per-``(gate, mapping-epoch)`` move-score memo
(:attr:`score_memo`): ``favoured``, ``_score_margin`` and ``decide``
all need the same scores for the active gate, and the
:attr:`~repro.core.state.MachineState.epoch` counter tells the memo
precisely when a shuttle has invalidated them.
"""

from __future__ import annotations

from ..circuits.dag import DependencyDAG

_EMPTY: tuple = ()


class FutureView:
    """A read-only window onto the pending tail, as one consumer sees it.

    Parameters
    ----------
    index:
        The per-compile :class:`FutureGateIndex`.
    start:
        Pending position the scan starts at (``pos + 1`` for direction
        decisions and evictions, ``active_pos`` for Algorithm-1
        candidate scoring, which sees the active gate in its future).
    rank_start:
        Number of two-qubit gates at pending positions ``< start``
        (the ``"gates"``-metric origin and the eviction-window origin).
    exclude:
        DAG node id elided from the stream, or ``None`` — Algorithm 1
        scores a hoist candidate against a future that omits the
        candidate itself.

    A view is the one input every shuttle decision takes: direction
    scoring, evictions and Algorithm-1 candidates all walk the index
    through it.  Views are cheap throwaway objects: all mutable state
    (cursors, memo, counters) lives on the index.
    """

    __slots__ = ("index", "start", "rank_start", "exclude")

    def __init__(
        self,
        index: "FutureGateIndex",
        start: int,
        rank_start: int,
        exclude: int | None = None,
    ) -> None:
        self.index = index
        self.start = start
        self.rank_start = rank_start
        self.exclude = exclude


class FutureGateIndex:
    """Per-ion index of the pending two-qubit gate stream.

    Parameters
    ----------
    dag:
        The circuit's dependency DAG.
    pending:
        The compiler's pending list (DAG node ids in execution order).
        The index snapshots per-node positions from it; the compiler
        reports subsequent mutations via :meth:`mark_executed` and
        :meth:`splice`.
    num_qubits:
        Circuit width (sizes the per-qubit arrays).
    """

    __slots__ = (
        "dag",
        "order_key",
        "rank2q",
        "node_layer",
        "executed",
        "executed_2q",
        "score_memo",
        "memo_epoch",
        "num_score_passes",
        "num_memo_hits",
        "num_decision_points",
        "_pending",
        "_ion_nodes",
        "_ion_partners",
        "_ion_cursor",
    )

    def __init__(
        self,
        dag: DependencyDAG,
        pending: list[int],
        num_qubits: int,
    ) -> None:
        n = len(dag)
        self.dag = dag
        self._pending = pending
        self.order_key = [0] * n
        self.rank2q = [0] * n
        self.node_layer = [dag.layer_of(i) for i in range(n)]
        self.executed = bytearray(n)
        self.executed_2q = 0
        #: (ion_a, ion_b, start, exclude) -> MoveScores, valid for
        #: :attr:`memo_epoch` only.  The epoch is monotone, so on a
        #: mapping change every existing entry is unreachable — the
        #: scorer clears the dict instead of letting dead keys
        #: accumulate over the whole compile.
        self.score_memo: dict = {}
        self.memo_epoch = -1
        #: Actual (memo-missing) move-score computations performed.
        self.num_score_passes = 0
        #: Move-score queries answered from :attr:`score_memo`.
        self.num_memo_hits = 0
        #: Cross-trap decision sequences entered by the compiler.
        self.num_decision_points = 0

        self._ion_nodes: list[list[int]] = [[] for _ in range(num_qubits)]
        self._ion_partners: list[list[int]] = [[] for _ in range(num_qubits)]
        self._ion_cursor = [0] * num_qubits

        rank = 0
        previous_layer = -1
        layers = self.node_layer
        for position, node in enumerate(pending):
            layer = layers[node]
            if layer < previous_layer:
                raise ValueError(
                    "pending order is not layer-monotone; the future-gate "
                    "index requires an earliest-ready-first order"
                )
            previous_layer = layer
            self.order_key[node] = position
            self.rank2q[node] = rank
            gate = dag.gate(node)
            if gate.is_two_qubit:
                q0, q1 = gate.qubits
                self._ion_nodes[q0].append(node)
                self._ion_partners[q0].append(q1)
                self._ion_nodes[q1].append(node)
                self._ion_partners[q1].append(q0)
                rank += 1

    def fork(self) -> "FutureGateIndex":
        """A fresh, unadvanced index over a private copy of this one's
        pending list.

        The DAG, ``node_layer`` and the per-ion gate lists are shared:
        nothing ever writes them (a splice patches only keys and ranks,
        see :meth:`splice`).  Everything a compile mutates is copied
        (``order_key``, ``rank2q``) or new (the pending list, cursors,
        ``executed``, the score memo and counters).  So one unadvanced
        index, built once per circuit, serves every compile of it; call
        this on an index nothing has advanced or spliced.
        """
        fork = FutureGateIndex.__new__(FutureGateIndex)
        fork.dag = self.dag
        fork._pending = list(self._pending)
        fork.order_key = list(self.order_key)
        fork.rank2q = list(self.rank2q)
        fork.node_layer = self.node_layer
        fork.executed = bytearray(len(self.executed))
        fork.executed_2q = 0
        fork.score_memo = {}
        fork.memo_epoch = -1
        fork.num_score_passes = 0
        fork.num_memo_hits = 0
        fork.num_decision_points = 0
        fork._ion_nodes = self._ion_nodes
        fork._ion_partners = self._ion_partners
        fork._ion_cursor = [0] * len(self._ion_cursor)
        return fork

    @property
    def pending(self) -> list[int]:
        """The pending list this index tracks (the live list, which its
        owner mutates alongside :meth:`splice`)."""
        return self._pending

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def view(
        self, start: int, rank_start: int, exclude: int | None = None
    ) -> FutureView:
        """A :class:`FutureView` window starting at pending position
        ``start`` with ``rank_start`` two-qubit gates before it."""
        return FutureView(self, start, rank_start, exclude)

    def ion_stream(self, ion: int) -> tuple[list[int], list[int], int]:
        """``(nodes, partners, first_live)`` for one ion's gate list.

        ``nodes[first_live:]`` are the ion's unexecuted upcoming
        two-qubit gates in pending order; the executed prefix is
        skipped once and the cursor persisted (amortized O(1)).  The
        prefix property holds because per-ion lists stay sorted by
        pending position (same-qubit gates are dependency-chained, so a
        hoistable candidate is already first among them) and executed
        gates occupy exactly the positions before the program counter.
        """
        if ion >= len(self._ion_nodes):
            return _EMPTY, _EMPTY, 0
        nodes = self._ion_nodes[ion]
        cursor = self._ion_cursor[ion]
        executed = self.executed
        end = len(nodes)
        while cursor < end and executed[nodes[cursor]]:
            cursor += 1
        self._ion_cursor[ion] = cursor
        return nodes, self._ion_partners[ion], cursor

    # ------------------------------------------------------------------
    # Advancing
    # ------------------------------------------------------------------
    def mark_executed(self, node: int, is_two_qubit: bool) -> None:
        """Record that the compiler emitted gate ``node``."""
        self.executed[node] = 1
        if is_two_qubit:
            self.executed_2q += 1

    def splice(self, active_pos: int, candidate_pos: int) -> None:
        """Patch the index for an Algorithm-1 hoist, in O(hoist-distance).

        Mirrors ``pending.pop(candidate_pos); pending.insert(active_pos,
        candidate)`` *before* the list is mutated: gates in
        ``[active_pos, candidate_pos)`` shift one position later and gain
        the (always two-qubit) candidate as a predecessor in rank;
        the candidate takes over the active position's key and rank.
        Per-ion lists need no patch — the candidate's dependency
        predecessors have all executed, so no gate in the shifted window
        shares a qubit with it and every per-ion order is preserved.
        """
        pending = self._pending
        order_key = self.order_key
        rank2q = self.rank2q
        candidate = pending[candidate_pos]
        first = pending[active_pos]
        if self.node_layer[candidate] > self.node_layer[first]:
            raise ValueError(
                "hoisting a later-layer gate would break the "
                "layer-monotone pending invariant"
            )
        new_key = order_key[first]
        new_rank = rank2q[first]
        for position in range(active_pos, candidate_pos):
            moved = pending[position]
            order_key[moved] += 1
            rank2q[moved] += 1
        order_key[candidate] = new_key
        rank2q[candidate] = new_rank
