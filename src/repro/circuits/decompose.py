"""Decomposition into the trapped-ion native gate set.

The modeled hardware executes:

* single-qubit rotations ``rx``, ``ry``, ``rz`` (and anything expressible
  as them), and
* the two-qubit Molmer-Sorensen gate ``ms`` = XX(pi/4) = exp(-i pi/4 XX).

The paper counts "2Q gates" *after* decomposition (e.g. QFT-64 reports
4032 two-qubit gates = 2016 controlled-phases x 2 MS each), so the
benchmark generators in :mod:`repro.bench` run their circuits through
:func:`decompose_circuit` before compilation.

Every rule below is verified against exact unitaries (up to global phase)
in ``tests/test_decompose.py``.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

from .circuit import Circuit
from .gate import Gate

#: Gate names executable directly by the modeled trapped-ion hardware.
#: ``rxx`` (arbitrary-angle XX interaction) is native: trapped-ion
#: hardware realizes it as a single retuned Molmer-Sorensen pulse, and
#: QCCDSim likewise charges one two-qubit operation for it.
NATIVE_GATES = frozenset(
    {"ms", "rxx", "rx", "ry", "rz", "id", "x", "y", "z", "h", "s", "sdg",
     "t", "tdg", "sx", "sxdg", "p", "u1", "u2", "u3", "u", "gpi", "gpi2"}
)


def is_native(gate: Gate) -> bool:
    """True if the gate runs directly on the modeled hardware."""
    return gate.name in NATIVE_GATES


def decompose_gate(gate: Gate) -> Iterator[Gate]:
    """Yield an equivalent native-gate sequence for one gate.

    Native gates pass through unchanged.  Unknown gate names raise
    ``ValueError`` so silent mis-compilation is impossible.
    """
    name = gate.name
    if name == "rxx":
        # rxx is native, but the native MS angle gets its proper name.
        yield from _rxx(gate.params[0], gate.qubits[0], gate.qubits[1])
        return
    if is_native(gate):
        yield gate
        return
    if name in ("cx", "cnot"):
        yield from _cx(gate.qubits[0], gate.qubits[1])
    elif name == "cz":
        yield from _cz(gate.qubits[0], gate.qubits[1])
    elif name == "cy":
        control, target = gate.qubits
        # CY = (S on target) CX (Sdg on target)
        yield Gate("sdg", (target,))
        yield from _cx(control, target)
        yield Gate("s", (target,))
    elif name == "ch":
        control, target = gate.qubits
        # CH = (Ry(pi/4) on t) CZ (Ry(-pi/4) on t) in operator order,
        # i.e. Ry(-pi/4) applied first; verified numerically in tests.
        yield Gate("ry", (target,), (-math.pi / 4,))
        yield from _cz(control, target)
        yield Gate("ry", (target,), (math.pi / 4,))
    elif name in ("cp", "cu1"):
        yield from _cp(gate.params[0], gate.qubits[0], gate.qubits[1])
    elif name == "crz":
        control, target = gate.qubits
        theta = gate.params[0]
        yield Gate("rz", (target,), (theta / 2,))
        yield from _cx(control, target)
        yield Gate("rz", (target,), (-theta / 2,))
        yield from _cx(control, target)
    elif name == "crx":
        control, target = gate.qubits
        theta = gate.params[0]
        # Rx = H Rz H, so CRX(theta) = (H on t) CRZ(theta) (H on t).
        yield Gate("h", (target,))
        yield Gate("rz", (target,), (theta / 2,))
        yield from _cx(control, target)
        yield Gate("rz", (target,), (-theta / 2,))
        yield from _cx(control, target)
        yield Gate("h", (target,))
    elif name == "cry":
        control, target = gate.qubits
        theta = gate.params[0]
        yield Gate("ry", (target,), (theta / 2,))
        yield from _cx(control, target)
        yield Gate("ry", (target,), (-theta / 2,))
        yield from _cx(control, target)
    elif name == "swap":
        a, b = gate.qubits
        yield from _cx(a, b)
        yield from _cx(b, a)
        yield from _cx(a, b)
    elif name in ("rzz", "zz"):
        a, b = gate.qubits
        theta = gate.params[0]
        # exp(-i theta/2 ZZ) = (H (x) H) exp(-i theta/2 XX) (H (x) H)
        yield Gate("h", (a,))
        yield Gate("h", (b,))
        yield from _rxx(theta, a, b)
        yield Gate("h", (a,))
        yield Gate("h", (b,))
    elif name in ("ccx", "toffoli"):
        yield from _ccx(*gate.qubits)
    elif name == "ccz":
        a, b, c = gate.qubits
        yield Gate("h", (c,))
        yield from _ccx(a, b, c)
        yield Gate("h", (c,))
    elif name == "cswap":
        control, a, b = gate.qubits
        yield from _cx(b, a)
        yield from _ccx(control, a, b)
        yield from _cx(b, a)
    else:
        raise ValueError(f"no native decomposition for gate {name!r}")


def decompose_circuit(circuit: Circuit, keep_one_qubit: bool = True) -> Circuit:
    """Decompose every gate of a circuit into the native set.

    With ``keep_one_qubit=False`` the single-qubit gates are dropped from
    the output — shuttle scheduling depends only on two-qubit structure
    and this keeps compiler inputs small.
    """
    out = Circuit(circuit.num_qubits, name=circuit.name)
    for gate in circuit:
        for native in decompose_gate(gate):
            if keep_one_qubit or not native.is_one_qubit:
                out.append(native)
    return out


# ----------------------------------------------------------------------
# Decomposition primitives (verified in tests/test_decompose.py)
# ----------------------------------------------------------------------
def _cx(control: int, target: int) -> Iterator[Gate]:
    """CNOT via one MS gate (Maslov, NJP 2017, eq. 8), up to global phase.

    CX(c,t) = Ry(pi/2)_c . XX(pi/4)_{c,t} . Rx(-pi/2)_c . Rx(-pi/2)_t
              . Ry(-pi/2)_c
    applied right-to-left.
    """
    yield Gate("ry", (control,), (math.pi / 2,))
    yield Gate("ms", (control, target))
    yield Gate("rx", (control,), (-math.pi / 2,))
    yield Gate("rx", (target,), (-math.pi / 2,))
    yield Gate("ry", (control,), (-math.pi / 2,))


def _cz(a: int, b: int) -> Iterator[Gate]:
    """CZ = (H on b) CX(a,b) (H on b)."""
    yield Gate("h", (b,))
    yield from _cx(a, b)
    yield Gate("h", (b,))


def _cp(theta: float, a: int, b: int) -> Iterator[Gate]:
    """Controlled-phase via two CX (hence two MS gates).

    cp(theta) = rz(theta/2)_a . rz(theta/2)_b . cx(a,b) . rz(-theta/2)_b
                . cx(a,b)  (up to global phase)
    """
    yield Gate("rz", (a,), (theta / 2,))
    yield from _cx(a, b)
    yield Gate("rz", (b,), (-theta / 2,))
    yield from _cx(a, b)
    yield Gate("rz", (b,), (theta / 2,))


def _rxx(theta: float, a: int, b: int) -> Iterator[Gate]:
    """XX(theta) as a single native two-qubit pulse.

    The native angle theta = pi/2 *is* the MS gate; other angles stay as
    a parametrized ``rxx`` (one retuned Molmer-Sorensen pulse — one
    two-qubit operation, matching the QCCDSim cost model).
    """
    if abs((theta % (2 * math.pi)) - math.pi / 2) < 1e-12:
        yield Gate("ms", (a, b))
    else:
        yield Gate("rxx", (a, b), (theta,))


def _ccx(a: int, b: int, c: int) -> Iterator[Gate]:
    """Toffoli via the standard 6-CNOT network (Nielsen & Chuang 4.3)."""
    yield Gate("h", (c,))
    yield from _cx(b, c)
    yield Gate("tdg", (c,))
    yield from _cx(a, c)
    yield Gate("t", (c,))
    yield from _cx(b, c)
    yield Gate("tdg", (c,))
    yield from _cx(a, c)
    yield Gate("t", (b,))
    yield Gate("t", (c,))
    yield Gate("h", (c,))
    yield from _cx(a, b)
    yield Gate("t", (a,))
    yield Gate("tdg", (b,))
    yield from _cx(a, b)
