"""Greedy initial-mapping tests."""

import pytest

from repro.arch import l6_machine, linear_topology, uniform_machine
from repro.circuits.circuit import Circuit
from repro.compiler.mapping import greedy_initial_mapping
from repro.compiler import CompilationError


def small_machine(traps=3, capacity=5, comm=1):
    return uniform_machine(linear_topology(traps), capacity, comm)


class TestBasics:
    def test_partners_co_located(self):
        circuit = Circuit(4).add("ms", 0, 1).add("ms", 2, 3)
        chains = greedy_initial_mapping(circuit, small_machine())
        trap_of = {q: t for t, chain in chains.items() for q in chain}
        assert trap_of[0] == trap_of[1]
        assert trap_of[2] == trap_of[3]

    def test_every_qubit_placed_once(self):
        circuit = Circuit(10).add("ms", 0, 9).add("ms", 3, 4)
        chains = greedy_initial_mapping(circuit, small_machine())
        placed = [q for chain in chains.values() for q in chain]
        assert sorted(placed) == list(range(10))

    def test_respects_load_capacity(self):
        machine = small_machine(traps=3, capacity=5, comm=2)
        circuit = Circuit(9)
        for q in range(0, 9, 2):
            if q + 1 < 9:
                circuit.add("ms", q, q + 1)
        chains = greedy_initial_mapping(circuit, machine)
        for trap_id, chain in chains.items():
            assert len(chain) <= machine.trap(trap_id).load_capacity

    def test_contiguous_fill_for_sequential_interaction(self):
        # QFT-style: qubit 0 interacts with everyone in order; the
        # mapper should fill traps contiguously (T0 = first 4 qubits).
        circuit = Circuit(12)
        for j in range(1, 12):
            circuit.add("ms", 0, j)
        chains = greedy_initial_mapping(circuit, small_machine())
        assert chains[0] == [0, 1, 2, 3]
        assert chains[1] == [4, 5, 6, 7]
        assert chains[2] == [8, 9, 10, 11]

    def test_untouched_qubits_first_fit(self):
        circuit = Circuit(6).add("ms", 4, 5)
        chains = greedy_initial_mapping(circuit, small_machine())
        placed = [q for chain in chains.values() for q in chain]
        assert sorted(placed) == list(range(6))
        # Interacting pair placed first, together.
        trap_of = {q: t for t, chain in chains.items() for q in chain}
        assert trap_of[4] == trap_of[5] == 0

    def test_too_many_qubits_rejected(self):
        machine = small_machine(traps=2, capacity=3, comm=1)
        with pytest.raises(CompilationError):
            greedy_initial_mapping(Circuit(5), machine)

    def test_exactly_load_capacity_fits(self):
        machine = small_machine(traps=2, capacity=3, comm=1)
        chains = greedy_initial_mapping(Circuit(4), machine)
        assert sum(len(c) for c in chains.values()) == 4

    def test_deterministic(self):
        circuit = Circuit(20)
        for q in range(0, 20, 2):
            circuit.add("ms", q, (q + 7) % 20)
        machine = l6_machine()
        first = greedy_initial_mapping(circuit, machine)
        second = greedy_initial_mapping(circuit, machine)
        assert first == second

    def test_one_qubit_gates_ignored(self):
        circuit = Circuit(4).add("h", 3).add("ms", 0, 1)
        chains = greedy_initial_mapping(circuit, small_machine())
        trap_of = {q: t for t, chain in chains.items() for q in chain}
        assert trap_of[0] == trap_of[1]

    def test_paper_scale(self):
        machine = l6_machine()
        circuit = Circuit(64)
        for q in range(63):
            circuit.add("ms", q, q + 1)
        chains = greedy_initial_mapping(circuit, machine)
        assert [len(chains[t]) for t in range(6)] == [15, 15, 15, 15, 4, 0]

    def test_partner_joins_nearest_trap_when_home_full(self):
        # Fill T0's load exactly, then a new partner of a T0 qubit must
        # land in T1 (nearest), not a farther trap.
        machine = small_machine(traps=3, capacity=5, comm=1)
        circuit = Circuit(5)
        circuit.add("ms", 0, 1).add("ms", 2, 3)  # fill T0 load (4)
        circuit.add("ms", 0, 4)  # 4 cannot join T0
        chains = greedy_initial_mapping(circuit, machine)
        assert 4 in chains[1]
