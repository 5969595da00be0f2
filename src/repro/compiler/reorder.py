"""Opportunistic gate re-ordering (Section III-B, Algorithm 1).

Invoked when the favourable shuttle destination of the *active gate* is
full.  The algorithm scans dependency-safe pending gates in the active
gate's layer and earlier layers; if one of them would shuttle an ion
*out of* the full trap (its favourable *source* trap equals the old
destination), it is hoisted in front of the active gate, freeing a slot
and becoming the new active gate.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from ..circuits.dag import DependencyDAG
from ..circuits.gate import Gate
from ..core.state import MachineState
from .future_index import FutureGateIndex, FutureView


def find_reorder_candidate(
    pending: Sequence[int],
    active_pos: int,
    dag: DependencyDAG,
    state: MachineState,
    decide: Callable[[Gate, FutureView, int], "object"],
    old_destination: int,
    future: FutureGateIndex,
) -> int | None:
    """Return the pending-list position of a hoistable gate, or None.

    Implements Algorithm 1:

    * candidates are pending gates after the active position whose layer
      is <= the active gate's layer ("this layer and preceding layers")
      and whose predecessors have all executed (dependency safety);
    * a candidate qualifies when its own favourable shuttle direction —
      computed with the compiler's direction policy — departs from
      ``old_destination``, the trap that is currently full.

    ``decide`` is a closure over the compiler's policy; it receives the
    candidate gate, the upcoming-gate view, and the candidate's layer,
    and returns an object with ``src``/``dst`` attributes (a
    ShuttleDecision).

    Only gates with a qubit whose ion currently sits in the full trap
    can have ``old_destination`` among their traps, so the candidate
    set is the union of that chain's per-ion gate lists in ``future``,
    cut at the active layer (per-ion lists inherit the pending tail's
    monotone layers, so the cut is a prefix).  Candidates are then
    visited in pending order, and each one's direction decision scores
    against a :class:`~repro.compiler.future_index.FutureView` that
    starts at the active position and omits the candidate: after
    hoisting, it executes first and everything else follows.
    """
    active_layer = future.node_layer[pending[active_pos]]
    node_layer = future.node_layer
    order_key = future.order_key
    executed = future.executed
    candidates: list[int] = []
    for ion in state.chains[old_destination]:
        nodes, _partners, i = future.ion_stream(ion)
        for j in range(i, len(nodes)):
            node = nodes[j]
            if node_layer[node] > active_layer:
                break
            if order_key[node] > active_pos:
                candidates.append(node)
    candidates.sort(key=order_key.__getitem__)
    rank_start = future.executed_2q
    for node in candidates:
        if any(not executed[pred] for pred in dag.predecessors(node)):
            continue
        gate = dag.gate(node)
        ion_a, ion_b = gate.qubits
        trap_a = state.trap_of(ion_a)
        trap_b = state.trap_of(ion_b)
        if trap_a == trap_b:
            continue  # executes without a shuttle; frees no slot
        view = future.view(active_pos, rank_start, exclude=node)
        decision = decide(gate, view, node_layer[node])
        if decision.src == old_destination:
            return order_key[node]
    return None
