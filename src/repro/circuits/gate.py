"""Gate representation for trapped-ion quantum programs.

The compiler in this package treats gates abstractly: all that matters for
shuttle scheduling is *which qubits* a gate touches.  The gate name and
parameters are preserved so circuits can be decomposed to the trapped-ion
native set and exported back to OpenQASM.

The native two-qubit gate of the modeled hardware is the Molmer-Sorensen
gate ``ms`` (an XX(pi/4) interaction), matching the paper's sample
programs (``MS q[0], q[1];``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

#: Names of supported single-qubit gates.
ONE_QUBIT_GATES = frozenset(
    {
        "id",
        "x",
        "y",
        "z",
        "h",
        "s",
        "sdg",
        "t",
        "tdg",
        "sx",
        "sxdg",
        "rx",
        "ry",
        "rz",
        "p",
        "u1",
        "u2",
        "u3",
        "u",
        "gpi",
        "gpi2",
    }
)

#: Names of supported two-qubit gates.
TWO_QUBIT_GATES = frozenset(
    {
        "ms",
        "xx",
        "rxx",
        "rzz",
        "zz",
        "cx",
        "cnot",
        "cz",
        "cy",
        "ch",
        "cp",
        "cu1",
        "crz",
        "crx",
        "cry",
        "swap",
    }
)

#: Names of three-qubit gates that the decomposer can lower.
THREE_QUBIT_GATES = frozenset({"ccx", "toffoli", "cswap", "ccz"})

#: Gates that take no parameters.
_PARAMETER_COUNTS = {
    "rx": 1,
    "ry": 1,
    "rz": 1,
    "p": 1,
    "u1": 1,
    "cu1": 1,
    "cp": 1,
    "crz": 1,
    "crx": 1,
    "cry": 1,
    "rxx": 1,
    "rzz": 1,
    "zz": 1,
    "gpi": 1,
    "gpi2": 1,
    "u2": 2,
    "u3": 3,
    "u": 3,
}


class GateError(ValueError):
    """Raised for malformed gates (bad arity, duplicate qubits, ...)."""


@dataclass(frozen=True)
class Gate:
    """A single quantum gate application.

    Parameters
    ----------
    name:
        Lower-case gate mnemonic, e.g. ``"ms"`` or ``"rz"``.
    qubits:
        Tuple of distinct qubit indices the gate acts on.
    params:
        Tuple of float parameters (rotation angles in radians).
    """

    name: str
    qubits: tuple[int, ...]
    params: tuple[float, ...] = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", self.name.lower())
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        if not self.qubits:
            raise GateError(f"gate {self.name!r} applied to no qubits")
        if len(set(self.qubits)) != len(self.qubits):
            raise GateError(
                f"gate {self.name!r} applied to duplicate qubits {self.qubits}"
            )
        if any(q < 0 for q in self.qubits):
            raise GateError(f"gate {self.name!r} has negative qubit index")
        expected, expected_params = gate_signature(self.name)
        if expected is not None and len(self.qubits) != expected:
            raise GateError(
                f"gate {self.name!r} expects {expected} qubits, "
                f"got {len(self.qubits)}"
            )
        if expected_params is not None and len(self.params) != expected_params:
            raise GateError(
                f"gate {self.name!r} expects {expected_params} parameters, "
                f"got {len(self.params)}"
            )

    @staticmethod
    def expected_arity(name: str) -> int | None:
        """Return the qubit arity of a known gate name, or None if unknown."""
        if name in ONE_QUBIT_GATES:
            return 1
        if name in TWO_QUBIT_GATES:
            return 2
        if name in THREE_QUBIT_GATES:
            return 3
        return None

    @property
    def num_qubits(self) -> int:
        """Number of qubits this gate acts on."""
        return len(self.qubits)

    @property
    def is_one_qubit(self) -> bool:
        """True for single-qubit gates."""
        return len(self.qubits) == 1

    @property
    def is_two_qubit(self) -> bool:
        """True for two-qubit gates (the ones that may require shuttles)."""
        return len(self.qubits) == 2

    def on(self, *qubits: int) -> "Gate":
        """Return a copy of this gate applied to different qubits."""
        return Gate(self.name, tuple(qubits), self.params)

    def remap(self, mapping: dict[int, int]) -> "Gate":
        """Return a copy with qubit indices translated through ``mapping``."""
        return Gate(self.name, tuple(mapping[q] for q in self.qubits), self.params)

    def __str__(self) -> str:
        args = ", ".join(f"q[{q}]" for q in self.qubits)
        if self.params:
            angles = ", ".join(_format_angle(p) for p in self.params)
            return f"{self.name}({angles}) {args};"
        return f"{self.name} {args};"


def gate_signature(name: str) -> tuple[int | None, int | None]:
    """The ``(qubit count, parameter count)`` a gate called ``name``
    must have; ``None`` where the name leaves a count free."""
    return Gate.expected_arity(name), _PARAMETER_COUNTS.get(name)


def check_canonical_name(name: object) -> None:
    """Raise :class:`GateError` unless ``name`` is a string already in
    the lower-case form every constructed :class:`Gate` holds."""
    if not isinstance(name, str) or name != name.lower():
        raise GateError(f"gate name {name!r} is not a lower-case string")


def trusted_gate(
    name: str, qubits: tuple[int, ...], params: tuple[float, ...]
) -> Gate:
    """A :class:`Gate` built without ``__post_init__``.

    The caller has validated every invariant ``__post_init__`` enforces
    (the schedule decoder in :mod:`repro.core.vector` checks a whole
    stream at once) and passes ``qubits`` as a tuple of ints and
    ``params`` as a tuple of floats.  The result is equal, hash-equal
    and repr-equal to ``Gate(name, qubits, params)``.
    """
    gate = object.__new__(Gate)
    attrs = gate.__dict__  # frozen: bypass the dataclass __setattr__
    attrs["name"] = name
    attrs["qubits"] = qubits
    attrs["params"] = params
    return gate


def _format_angle(value: float) -> str:
    """Render an angle compactly, using multiples of pi when exact."""
    if value == 0.0:
        return "0"
    ratio = value / math.pi
    for denom in (1, 2, 3, 4, 6, 8):
        scaled = ratio * denom
        if abs(scaled - round(scaled)) < 1e-12:
            num = int(round(scaled))
            if denom == 1:
                return "pi" if num == 1 else ("-pi" if num == -1 else f"{num}*pi")
            if num == 1:
                return f"pi/{denom}"
            if num == -1:
                return f"-pi/{denom}"
            return f"{num}*pi/{denom}"
    return repr(value)


def ms(a: int, b: int) -> Gate:
    """The native Molmer-Sorensen two-qubit gate, XX(pi/4)."""
    return Gate("ms", (a, b))


def cx(control: int, target: int) -> Gate:
    """Controlled-NOT gate."""
    return Gate("cx", (control, target))


def cz(a: int, b: int) -> Gate:
    """Controlled-Z gate (symmetric)."""
    return Gate("cz", (a, b))


def cp(theta: float, a: int, b: int) -> Gate:
    """Controlled-phase gate (symmetric)."""
    return Gate("cp", (a, b), (theta,))


def swap(a: int, b: int) -> Gate:
    """SWAP gate."""
    return Gate("swap", (a, b))


def h(q: int) -> Gate:
    """Hadamard gate."""
    return Gate("h", (q,))


def x(q: int) -> Gate:
    """Pauli-X gate."""
    return Gate("x", (q,))


def rx(theta: float, q: int) -> Gate:
    """X-rotation."""
    return Gate("rx", (q,), (theta,))


def ry(theta: float, q: int) -> Gate:
    """Y-rotation."""
    return Gate("ry", (q,), (theta,))


def rz(theta: float, q: int) -> Gate:
    """Z-rotation."""
    return Gate("rz", (q,), (theta,))


def rzz(theta: float, a: int, b: int) -> Gate:
    """ZZ interaction exp(-i theta/2 Z.Z), used by QAOA layers."""
    return Gate("rzz", (a, b), (theta,))
