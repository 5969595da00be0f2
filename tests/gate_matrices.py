"""Unitary matrices for the supported gate set.

These are the test oracle for the trapped-ion native-set
decompositions in :mod:`repro.circuits.decompose` — the compiler itself
never multiplies matrices, so they live with the tests.  Matrices follow the little-endian qubit convention used by
OpenQASM/Qiskit: for a gate on ``(q0, q1)``, ``q0`` is the least
significant bit of the basis-state index.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from repro.circuits.gate import Gate

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def _rotation(axis: np.ndarray, theta: float) -> np.ndarray:
    """exp(-i theta/2 * axis) for a Pauli axis."""
    return (
        math.cos(theta / 2) * np.eye(axis.shape[0], dtype=complex)
        - 1j * math.sin(theta / 2) * axis
    )


def _u3(theta: float, phi: float, lam: float) -> np.ndarray:
    return np.array(
        [
            [math.cos(theta / 2), -cmath.exp(1j * lam) * math.sin(theta / 2)],
            [
                cmath.exp(1j * phi) * math.sin(theta / 2),
                cmath.exp(1j * (phi + lam)) * math.cos(theta / 2),
            ],
        ],
        dtype=complex,
    )


def _controlled(u: np.ndarray) -> np.ndarray:
    """Controlled-U with control = qubit 0 (little-endian convention).

    Basis order |q1 q0>: the control bit is the least significant index,
    so rows/columns 1 and 3 (q0 = 1) carry U.
    """
    out = np.eye(4, dtype=complex)
    out[1, 1] = u[0, 0]
    out[1, 3] = u[0, 1]
    out[3, 1] = u[1, 0]
    out[3, 3] = u[1, 1]
    return out


_XX = np.kron(_X, _X)
_ZZ_OP = np.kron(_Z, _Z)

_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def gate_matrix(gate: Gate) -> np.ndarray:
    """Return the unitary matrix of a one- or two-qubit gate.

    The matrix is expressed on the gate's own qubits in the order they
    appear in ``gate.qubits`` (first qubit = least significant bit).
    """
    name = gate.name
    p = gate.params
    if name == "id":
        return _I2.copy()
    if name == "x":
        return _X.copy()
    if name == "y":
        return _Y.copy()
    if name == "z":
        return _Z.copy()
    if name == "h":
        return _H.copy()
    if name == "s":
        return np.diag([1, 1j]).astype(complex)
    if name == "sdg":
        return np.diag([1, -1j]).astype(complex)
    if name == "t":
        return np.diag([1, cmath.exp(1j * math.pi / 4)])
    if name == "tdg":
        return np.diag([1, cmath.exp(-1j * math.pi / 4)])
    if name == "sx":
        return 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex)
    if name == "sxdg":
        return 0.5 * np.array([[1 - 1j, 1 + 1j], [1 + 1j, 1 - 1j]], dtype=complex)
    if name == "rx":
        return _rotation(_X, p[0])
    if name == "ry":
        return _rotation(_Y, p[0])
    if name == "rz":
        return _rotation(_Z, p[0])
    if name in ("p", "u1"):
        return np.diag([1, cmath.exp(1j * p[0])])
    if name == "u2":
        return _u3(math.pi / 2, p[0], p[1])
    if name in ("u3", "u"):
        return _u3(p[0], p[1], p[2])
    if name == "gpi":
        # IonQ GPi(phi): X-like rotation, |0><1|e^{-i phi} + |1><0|e^{i phi}
        return np.array(
            [[0, cmath.exp(-1j * p[0])], [cmath.exp(1j * p[0]), 0]], dtype=complex
        )
    if name == "gpi2":
        phi = p[0]
        return (
            1
            / math.sqrt(2)
            * np.array(
                [[1, -1j * cmath.exp(-1j * phi)], [-1j * cmath.exp(1j * phi), 1]],
                dtype=complex,
            )
        )
    if name in ("ms", "xx"):
        # Native Molmer-Sorensen gate: XX(pi/4) = exp(-i pi/4 X.X)
        return _rotation(_XX, math.pi / 2)
    if name == "rxx":
        return _rotation(_XX, p[0])
    if name in ("rzz", "zz"):
        return _rotation(_ZZ_OP, p[0])
    if name in ("cx", "cnot"):
        return _controlled(_X)
    if name == "cy":
        return _controlled(_Y)
    if name == "cz":
        return _controlled(_Z)
    if name == "ch":
        return _controlled(_H)
    if name in ("cp", "cu1"):
        return _controlled(np.diag([1, cmath.exp(1j * p[0])]))
    if name == "crx":
        return _controlled(_rotation(_X, p[0]))
    if name == "cry":
        return _controlled(_rotation(_Y, p[0]))
    if name == "crz":
        return _controlled(_rotation(_Z, p[0]))
    if name == "swap":
        return _SWAP.copy()
    if name in ("ccx", "toffoli"):
        return _permutation_matrix(
            3, lambda b: b ^ 0b100 if (b & 0b011) == 0b011 else b
        )
    if name == "ccz":
        out = np.eye(8, dtype=complex)
        out[7, 7] = -1.0
        return out
    if name == "cswap":
        # control = qubit 0; swap qubits 1 and 2 (little-endian bits).
        def _cswap_rule(b: int) -> int:
            if b & 0b001:
                bit1 = (b >> 1) & 1
                bit2 = (b >> 2) & 1
                return (b & 0b001) | (bit2 << 1) | (bit1 << 2)
            return b

        return _permutation_matrix(3, _cswap_rule)
    raise ValueError(f"no matrix known for gate {name!r}")


def _permutation_matrix(num_qubits: int, rule) -> np.ndarray:
    """Matrix of a classical reversible function on basis states."""
    dim = 1 << num_qubits
    out = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        out[rule(col), col] = 1.0
    return out


def circuit_unitary(gates, num_qubits: int) -> np.ndarray:
    """Multiply out a gate sequence into a full 2^n x 2^n unitary.

    Intended for small verification circuits (n <= ~10).
    """
    dim = 1 << num_qubits
    unitary = np.eye(dim, dtype=complex)
    for gate in gates:
        unitary = _embed(gate, num_qubits) @ unitary
    return unitary


def _embed(gate: Gate, num_qubits: int) -> np.ndarray:
    """Embed a gate's matrix into the full register space."""
    small = gate_matrix(gate)
    k = gate.num_qubits
    dim = 1 << num_qubits
    full = np.zeros((dim, dim), dtype=complex)
    qubits = gate.qubits
    rest = [q for q in range(num_qubits) if q not in qubits]
    for col in range(dim):
        sub_col = 0
        for bit, q in enumerate(qubits):
            sub_col |= ((col >> q) & 1) << bit
        base = col
        for q in qubits:
            base &= ~(1 << q)
        for sub_row in range(1 << k):
            amp = small[sub_row, sub_col]
            if amp == 0:
                continue
            row = base
            for bit, q in enumerate(qubits):
                row |= ((sub_row >> bit) & 1) << q
            full[row, col] += amp
    # rest is unused but documents the embedding intent
    del rest
    return full


def allclose_up_to_phase(a: np.ndarray, b: np.ndarray, atol: float = 1e-9) -> bool:
    """True when a == e^{i phi} b for some global phase phi."""
    if a.shape != b.shape:
        return False
    index = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    if abs(b[index]) < atol:
        return bool(np.allclose(a, b, atol=atol))
    phase = a[index] / b[index]
    if abs(abs(phase) - 1.0) > 1e-6:
        return False
    return bool(np.allclose(a, phase * b, atol=atol))
