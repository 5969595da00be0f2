"""Decomposition correctness: every rule verified against exact unitaries."""

import math

import pytest

# gate_matrices is a numpy-only test oracle; numpy itself is an
# optional extra.
pytest.importorskip("numpy", exc_type=ImportError)

from repro.circuits.circuit import Circuit
from repro.circuits.decompose import (
    NATIVE_GATES,
    decompose_circuit,
    decompose_gate,
    is_native,
)
from repro.circuits.gate import Gate

from gate_matrices import (
    allclose_up_to_phase,
    circuit_unitary,
    gate_matrix,
)


def assert_equivalent(gate: Gate, num_qubits: int) -> None:
    """Decomposition must equal the original gate up to global phase."""
    expected = circuit_unitary([gate], num_qubits)
    actual = circuit_unitary(list(decompose_gate(gate)), num_qubits)
    assert allclose_up_to_phase(actual, expected), f"{gate} decomposition wrong"


class TestTwoQubitRules:
    @pytest.mark.parametrize("qubits", [(0, 1), (1, 0)])
    def test_cx(self, qubits):
        assert_equivalent(Gate("cx", qubits), 2)

    def test_cz(self):
        assert_equivalent(Gate("cz", (0, 1)), 2)

    def test_cy(self):
        assert_equivalent(Gate("cy", (0, 1)), 2)

    def test_ch(self):
        assert_equivalent(Gate("ch", (0, 1)), 2)

    @pytest.mark.parametrize("theta", [0.3, math.pi / 2, -1.2, 2 * math.pi / 3])
    def test_cp(self, theta):
        assert_equivalent(Gate("cp", (0, 1), (theta,)), 2)

    @pytest.mark.parametrize("theta", [0.7, -0.4])
    def test_crz(self, theta):
        assert_equivalent(Gate("crz", (0, 1), (theta,)), 2)

    @pytest.mark.parametrize("theta", [0.7, -0.4])
    def test_crx(self, theta):
        assert_equivalent(Gate("crx", (0, 1), (theta,)), 2)

    @pytest.mark.parametrize("theta", [0.7, -0.4])
    def test_cry(self, theta):
        assert_equivalent(Gate("cry", (0, 1), (theta,)), 2)

    def test_swap(self):
        assert_equivalent(Gate("swap", (0, 1)), 2)

    @pytest.mark.parametrize("theta", [0.5, math.pi / 2, -0.9])
    def test_rzz(self, theta):
        assert_equivalent(Gate("rzz", (0, 1), (theta,)), 2)

    def test_rxx_native_angle_becomes_ms(self):
        gates = list(decompose_gate(Gate("rxx", (0, 1), (math.pi / 2,))))
        assert gates == [Gate("ms", (0, 1))]

    def test_rxx_other_angle_stays_single_pulse(self):
        gates = list(decompose_gate(Gate("rxx", (0, 1), (0.3,))))
        assert len(gates) == 1
        assert gates[0].name == "rxx"


class TestThreeQubitRules:
    def test_ccx(self):
        assert_equivalent(Gate("ccx", (0, 1, 2)), 3)

    def test_ccx_permuted(self):
        assert_equivalent(Gate("ccx", (2, 0, 1)), 3)

    def test_ccz(self):
        assert_equivalent(Gate("ccz", (0, 1, 2)), 3)

    def test_cswap(self):
        assert_equivalent(Gate("cswap", (0, 1, 2)), 3)


class TestCounts:
    """The paper counts 2Q gates post-decomposition; these counts are
    what make the benchmark sizes come out right."""

    def test_cx_is_one_ms(self):
        gates = list(decompose_gate(Gate("cx", (0, 1))))
        assert sum(1 for g in gates if g.is_two_qubit) == 1

    def test_cp_is_two_ms(self):
        gates = list(decompose_gate(Gate("cp", (0, 1), (0.4,))))
        assert sum(1 for g in gates if g.is_two_qubit) == 2

    def test_swap_is_three_ms(self):
        gates = list(decompose_gate(Gate("swap", (0, 1))))
        assert sum(1 for g in gates if g.is_two_qubit) == 3

    def test_ccx_is_six_ms(self):
        gates = list(decompose_gate(Gate("ccx", (0, 1, 2))))
        assert sum(1 for g in gates if g.is_two_qubit) == 6

    def test_only_native_gates_out(self):
        for name, qubits, params in [
            ("cx", (0, 1), ()),
            ("cp", (0, 1), (0.3,)),
            ("ccx", (0, 1, 2), ()),
            ("swap", (0, 1), ()),
        ]:
            for gate in decompose_gate(Gate(name, qubits, params)):
                assert is_native(gate), f"{gate} not native"


class TestDecomposeCircuit:
    def test_keeps_or_drops_one_qubit_gates(self):
        circuit = Circuit(2).add("h", 0).add("cx", 0, 1)
        full = decompose_circuit(circuit, keep_one_qubit=True)
        pruned = decompose_circuit(circuit, keep_one_qubit=False)
        assert full.num_one_qubit_gates > 0
        assert pruned.num_one_qubit_gates == 0
        assert full.num_two_qubit_gates == pruned.num_two_qubit_gates == 1

    def test_unknown_gate_raises(self):
        with pytest.raises(ValueError):
            list(decompose_gate(Gate("mystery", (0, 1))))

    def test_native_set_contains_ms(self):
        assert "ms" in NATIVE_GATES
        assert "rxx" in NATIVE_GATES

    def test_circuit_unitary_preserved(self):
        circuit = Circuit(3)
        circuit.add("h", 0).add("cx", 0, 1).add("cp", 1, 2, params=[0.7])
        circuit.add("swap", 0, 2)
        decomposed = decompose_circuit(circuit)
        expected = circuit_unitary(circuit.gates, 3)
        actual = circuit_unitary(decomposed.gates, 3)
        assert allclose_up_to_phase(actual, expected)


class TestMatrices:
    def test_all_supported_matrices_unitary(self):
        import numpy as np

        cases = [
            Gate("h", (0,)),
            Gate("x", (0,)),
            Gate("y", (0,)),
            Gate("z", (0,)),
            Gate("s", (0,)),
            Gate("sdg", (0,)),
            Gate("t", (0,)),
            Gate("tdg", (0,)),
            Gate("sx", (0,)),
            Gate("sxdg", (0,)),
            Gate("rx", (0,), (0.3,)),
            Gate("ry", (0,), (0.3,)),
            Gate("rz", (0,), (0.3,)),
            Gate("p", (0,), (0.3,)),
            Gate("u2", (0,), (0.1, 0.2)),
            Gate("u3", (0,), (0.1, 0.2, 0.3)),
            Gate("gpi", (0,), (0.4,)),
            Gate("gpi2", (0,), (0.4,)),
            Gate("ms", (0, 1)),
            Gate("rxx", (0, 1), (0.5,)),
            Gate("rzz", (0, 1), (0.5,)),
            Gate("cx", (0, 1)),
            Gate("cz", (0, 1)),
            Gate("cp", (0, 1), (0.5,)),
            Gate("swap", (0, 1)),
        ]
        for gate in cases:
            matrix = gate_matrix(gate)
            dim = matrix.shape[0]
            assert np.allclose(
                matrix @ matrix.conj().T, np.eye(dim), atol=1e-12
            ), f"{gate.name} not unitary"

    def test_sdg_is_s_inverse(self):
        import numpy as np

        s = gate_matrix(Gate("s", (0,)))
        sdg = gate_matrix(Gate("sdg", (0,)))
        assert np.allclose(s @ sdg, np.eye(2))

    def test_ms_is_xx_quarter(self):
        import numpy as np

        ms = gate_matrix(Gate("ms", (0, 1)))
        rxx = gate_matrix(Gate("rxx", (0, 1), (math.pi / 2,)))
        assert np.allclose(ms, rxx)

    def test_unknown_matrix_raises(self):
        with pytest.raises(ValueError):
            gate_matrix(Gate("mystery", (0, 1)))

    def test_phase_comparison_helper(self):
        import numpy as np

        a = np.eye(2, dtype=complex)
        assert allclose_up_to_phase(1j * a, a)
        assert not allclose_up_to_phase(
            np.diag([1.0, -1.0]).astype(complex), a
        )
