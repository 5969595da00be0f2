"""Alternative initial-mapping policies (Section IV-E3 extension)."""

import pytest

from repro.arch import l6_machine, linear_topology, uniform_machine
from repro.bench import qft_circuit
from repro.circuits.circuit import Circuit
from repro.compiler import CompilerConfig, compile_circuit
from repro.compiler.mapping import (
    MAPPING_POLICIES,
    initial_mapping,
    random_initial_mapping,
    round_robin_initial_mapping,
)
from repro.compiler import CompilationError


def machine():
    return uniform_machine(linear_topology(3), 5, 1)


class TestRoundRobin:
    def test_stripes_across_traps(self):
        chains = round_robin_initial_mapping(Circuit(6), machine())
        assert chains[0] == [0, 3]
        assert chains[1] == [1, 4]
        assert chains[2] == [2, 5]

    def test_respects_load_capacity(self):
        m = machine()
        chains = round_robin_initial_mapping(Circuit(12), m)
        for trap_id, chain in chains.items():
            assert len(chain) <= m.trap(trap_id).load_capacity

    def test_rejects_oversize(self):
        with pytest.raises(CompilationError):
            round_robin_initial_mapping(Circuit(100), machine())


class TestRandomMapping:
    def test_deterministic_per_seed(self):
        a = random_initial_mapping(Circuit(10), machine(), seed=4)
        b = random_initial_mapping(Circuit(10), machine(), seed=4)
        assert a == b

    def test_seeds_differ(self):
        a = random_initial_mapping(Circuit(10), machine(), seed=1)
        b = random_initial_mapping(Circuit(10), machine(), seed=2)
        assert a != b

    def test_all_qubits_placed(self):
        chains = random_initial_mapping(Circuit(10), machine(), seed=7)
        placed = sorted(q for c in chains.values() for q in c)
        assert placed == list(range(10))

    def test_rejects_oversize(self):
        with pytest.raises(CompilationError):
            random_initial_mapping(Circuit(100), machine(), seed=3)


class TestDispatch:
    def test_known_policies(self):
        assert set(MAPPING_POLICIES) == {"greedy", "round-robin", "random"}
        for policy in MAPPING_POLICIES:
            chains = initial_mapping(Circuit(6), machine(), policy=policy)
            assert sum(len(c) for c in chains.values()) == 6

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            initial_mapping(Circuit(4), machine(), policy="psychic")

    def test_load_capacity_boundary(self):
        # L6 loads 90 ions (6 traps x (17 - 2) communication-free slots):
        # every policy maps 90 qubits and refuses 91 the same way.
        m = l6_machine()
        assert m.load_capacity == 90
        for policy in MAPPING_POLICIES:
            chains = initial_mapping(Circuit(90), m, policy=policy)
            assert sum(len(c) for c in chains.values()) == 90
            with pytest.raises(CompilationError, match="load only 90"):
                initial_mapping(Circuit(91), m, policy=policy)


class TestMappingStudy:
    """The paper's Section IV-E3: the greedy mapping is the sensible
    default; interaction-blind mappings cost more shuttles, and the
    optimized compiler keeps its edge regardless of the mapping."""

    def test_greedy_beats_round_robin_on_structured_circuits(self):
        circuit = qft_circuit(num_qubits=32)
        m = l6_machine()
        greedy_chains = initial_mapping(circuit, m, policy="greedy")
        rr_chains = initial_mapping(circuit, m, policy="round-robin")
        config = CompilerConfig.optimized()
        greedy = compile_circuit(circuit, m, config, initial_chains=greedy_chains)
        rr = compile_circuit(circuit, m, config, initial_chains=rr_chains)
        assert greedy.num_shuttles < rr.num_shuttles

    def test_gains_survive_bad_mappings(self):
        circuit = qft_circuit(num_qubits=32)
        m = l6_machine()
        chains = initial_mapping(circuit, m, policy="random", seed=11)
        base = compile_circuit(
            circuit, m, CompilerConfig.baseline(), initial_chains=chains
        )
        opt = compile_circuit(
            circuit, m, CompilerConfig.optimized(), initial_chains=chains
        )
        assert opt.num_shuttles <= int(base.num_shuttles * 1.05)
