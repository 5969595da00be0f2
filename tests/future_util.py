"""Build :class:`~repro.compiler.future_index.FutureView` inputs from
hand-written gate lists.

Policies and the re-balancer take only a view onto a
:class:`~repro.compiler.future_index.FutureGateIndex`.  The paper's
worked examples (Fig. 4, Fig. 5, Fig. 7) are stated as short upcoming
gate sequences, sometimes with explicit DAG layers; :func:`future_view`
turns such a sequence into a view whose pending tail is exactly that
sequence, in the given order, at the given layers.
"""

from repro.circuits.gate import Gate
from repro.compiler.future_index import FutureGateIndex


class _GateListDAG:
    """The slice of :class:`~repro.circuits.dag.DependencyDAG` the
    index reads at construction: one node per listed gate, at its
    stated layer."""

    def __init__(self, gates, layers):
        self._gates = gates
        self._layers = layers

    def __len__(self):
        return len(self._gates)

    def gate(self, node):
        return self._gates[node]

    def layer_of(self, node):
        return self._layers[node]


def future_view(upcoming):
    """A view whose pending tail is ``upcoming``, in order.

    ``upcoming`` holds bare :class:`Gate` objects (layer 0) or
    ``(gate, layer)`` pairs; layers must be non-decreasing, as in any
    earliest-ready-first order.
    """
    items = [(item, 0) if isinstance(item, Gate) else item for item in upcoming]
    gates = [gate for gate, _layer in items]
    layers = [layer for _gate, layer in items]
    width = 1 + max((q for gate in gates for q in gate.qubits), default=-1)
    dag = _GateListDAG(gates, layers)
    index = FutureGateIndex(dag, list(range(len(gates))), width)
    return index.view(0, 0)
