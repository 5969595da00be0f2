"""Quantum circuit container.

A :class:`Circuit` is an ordered list of :class:`~repro.circuits.gate.Gate`
applications over ``num_qubits`` qubits.  It is the input format of the
QCCD compiler: the compiler consumes the gate sequence, builds the gate
dependency DAG, and emits a machine-level schedule.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator

from .gate import Gate, GateError


class Circuit:
    """An ordered sequence of gates over a fixed-size qubit register.

    Parameters
    ----------
    num_qubits:
        Size of the qubit register.
    gates:
        Optional initial gate sequence.
    name:
        Optional human-readable circuit name (used in reports).
    """

    def __init__(
        self,
        num_qubits: int,
        gates: Iterable[Gate] = (),
        name: str = "circuit",
    ) -> None:
        if num_qubits <= 0:
            raise ValueError(f"num_qubits must be positive, got {num_qubits}")
        self.num_qubits = int(num_qubits)
        self.name = name
        self._gates: list[Gate] = []
        #: Canonical JSON text of the gate list, memoized by
        #: repro.batch.fingerprint.circuit_json; reset by ``append``
        #: and left out of the pickle state.
        self._gates_json: str | None = None
        #: The compiler's per-circuit plan (dependency DAG, its
        #: topological order, the future-gate index's static arrays),
        #: memoized by repro.compiler.compiler on first compile; reset
        #: by ``append`` and left out of the pickle state, like
        #: ``_gates_json``.
        self._compile_plan = None
        for gate in gates:
            self.append(gate)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def append(self, gate: Gate) -> "Circuit":
        """Append a gate, validating its qubit indices; returns self."""
        if not isinstance(gate, Gate):
            raise TypeError(f"expected Gate, got {type(gate).__name__}")
        if max(gate.qubits) >= self.num_qubits:
            raise GateError(
                f"gate {gate} uses qubit {max(gate.qubits)} but circuit has "
                f"only {self.num_qubits} qubits"
            )
        self._gates.append(gate)
        self._gates_json = None
        self._compile_plan = None
        return self

    def extend(self, gates: Iterable[Gate]) -> "Circuit":
        """Append several gates; returns self."""
        for gate in gates:
            self.append(gate)
        return self

    def add(self, name: str, *qubits: int, params: Iterable[float] = ()) -> "Circuit":
        """Convenience constructor: ``circ.add("ms", 0, 1)``."""
        return self.append(Gate(name, tuple(qubits), tuple(params)))

    def compose(self, other: "Circuit") -> "Circuit":
        """Append all gates of ``other`` (must not exceed this register)."""
        if other.num_qubits > self.num_qubits:
            raise GateError(
                f"cannot compose a {other.num_qubits}-qubit circuit onto a "
                f"{self.num_qubits}-qubit circuit"
            )
        return self.extend(other.gates)

    # ------------------------------------------------------------------
    # Pickling
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Everything but the memos: a circuit crossing to a worker
        must not carry its (large) canonical text or compile plan
        along."""
        state = self.__dict__.copy()
        del state["_gates_json"]
        del state["_compile_plan"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        # A copy: ``copy.copy`` hands over the live state, and the
        # clone must not share its gate list with the original.
        self._gates = list(self._gates)
        self._gates_json = None
        self._compile_plan = None

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    @property
    def gates(self) -> tuple[Gate, ...]:
        """The gate sequence as an immutable tuple."""
        return tuple(self._gates)

    def __len__(self) -> int:
        return len(self._gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self._gates)

    def __getitem__(self, index: int) -> Gate:
        return self._gates[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Circuit):
            return NotImplemented
        return (
            self.num_qubits == other.num_qubits and self._gates == other._gates
        )

    def __repr__(self) -> str:
        return (
            f"Circuit(name={self.name!r}, num_qubits={self.num_qubits}, "
            f"gates={len(self._gates)})"
        )

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def count_ops(self) -> Counter:
        """Histogram of gate names."""
        return Counter(gate.name for gate in self._gates)

    @property
    def num_one_qubit_gates(self) -> int:
        """Number of single-qubit gates."""
        return sum(1 for g in self._gates if g.is_one_qubit)

    @property
    def num_two_qubit_gates(self) -> int:
        """Number of two-qubit gates (the paper's ``2Q gates`` column)."""
        return sum(1 for g in self._gates if g.is_two_qubit)

    def two_qubit_gates(self) -> list[Gate]:
        """The two-qubit gates, in program order."""
        return [g for g in self._gates if g.is_two_qubit]

    def used_qubits(self) -> set[int]:
        """Set of qubit indices touched by at least one gate."""
        used: set[int] = set()
        for gate in self._gates:
            used.update(gate.qubits)
        return used

    def depth(self) -> int:
        """Circuit depth (longest path in the dependency DAG)."""
        level = [0] * self.num_qubits
        for gate in self._gates:
            layer = 1 + max(level[q] for q in gate.qubits)
            for q in gate.qubits:
                level[q] = layer
        return max(level, default=0)

    def interaction_pairs(self) -> Counter:
        """Histogram of unordered qubit pairs coupled by two-qubit gates."""
        pairs: Counter = Counter()
        for gate in self._gates:
            if gate.is_two_qubit:
                a, b = gate.qubits
                pairs[(min(a, b), max(a, b))] += 1
        return pairs

    # ------------------------------------------------------------------
    # Transformation helpers
    # ------------------------------------------------------------------
    def remap(self, mapping: dict[int, int], num_qubits: int | None = None) -> "Circuit":
        """Return a new circuit with qubits renamed through ``mapping``."""
        size = num_qubits if num_qubits is not None else self.num_qubits
        remapped = Circuit(size, name=self.name)
        for gate in self._gates:
            remapped.append(gate.remap(mapping))
        return remapped

    def without_one_qubit_gates(self) -> "Circuit":
        """Return a copy containing only multi-qubit gates.

        Shuttle scheduling is driven entirely by two-qubit gates; this
        projection is useful for compiler-focused analyses.
        """
        pruned = Circuit(self.num_qubits, name=self.name)
        for gate in self._gates:
            if not gate.is_one_qubit:
                pruned.append(gate)
        return pruned

    def copy(self, name: str | None = None) -> "Circuit":
        """Shallow copy (gates are immutable)."""
        return Circuit(
            self.num_qubits, self._gates, name=name if name is not None else self.name
        )
