"""End-to-end compiler tests: correctness invariants on small machines."""

import pytest

from repro.arch import l6_machine, linear_topology, uniform_machine
from repro.circuits.circuit import Circuit
from repro.circuits.dag import DependencyDAG
from repro.circuits.gate import Gate
from repro.compiler import (
    CompilationError,
    CompilerConfig,
    QCCDCompiler,
    compile_and_simulate,
    compile_circuit,
)
from repro.core.ops import GateOp, MergeOp, MoveOp, SplitOp
from repro.sim.simulator import Simulator


def small_machine(traps=3, capacity=4, comm=1):
    return uniform_machine(linear_topology(traps), capacity, comm)


def replay_chains(initial, schedule):
    """Track chains through a schedule, asserting basic sanity."""
    chains = {t: list(c) for t, c in initial.items()}
    transit = {}
    for op in schedule:
        if isinstance(op, SplitOp):
            chains[op.trap].remove(op.ion)
            transit[op.ion] = op.trap
        elif isinstance(op, MoveOp):
            assert transit[op.ion] == op.src
            transit[op.ion] = op.dst
        elif isinstance(op, MergeOp):
            assert transit.pop(op.ion) == op.trap
            chains[op.trap].append(op.ion)
    return chains, transit


@pytest.fixture(params=["baseline", "optimized"])
def config(request):
    if request.param == "baseline":
        return CompilerConfig.baseline()
    return CompilerConfig.optimized()


class TestBasicCompiles:
    def test_empty_circuit(self, config):
        result = compile_circuit(Circuit(2), small_machine(), config)
        assert len(result.schedule) == 0
        assert result.num_shuttles == 0

    def test_local_gate_no_shuttle(self, config):
        circuit = Circuit(2).add("ms", 0, 1)
        result = compile_circuit(
            circuit, small_machine(), config, initial_chains={0: [0, 1]}
        )
        assert result.num_shuttles == 0
        assert result.schedule.num_gates == 1

    def test_cross_trap_gate_one_shuttle(self, config):
        circuit = Circuit(2).add("ms", 0, 1)
        result = compile_circuit(
            circuit, small_machine(), config,
            initial_chains={0: [0], 1: [1]},
        )
        assert result.num_shuttles == 1
        gate_ops = result.schedule.gate_ops()
        assert len(gate_ops) == 1

    def test_distant_gate_costs_distance_shuttles(self, config):
        circuit = Circuit(2).add("ms", 0, 1)
        result = compile_circuit(
            circuit, small_machine(traps=4), config,
            initial_chains={0: [0], 3: [1]},
        )
        assert result.num_shuttles == 3  # 3 hops either way

    def test_one_qubit_gates_never_shuttle(self, config):
        circuit = Circuit(4)
        for q in range(4):
            circuit.add("h", q)
        result = compile_circuit(
            circuit, small_machine(), config,
            initial_chains={0: [0, 1], 1: [2, 3]},
        )
        assert result.num_shuttles == 0
        assert result.schedule.num_gates == 4

    def test_three_qubit_gate_rejected(self, config):
        circuit = Circuit(3).add("ccx", 0, 1, 2)
        with pytest.raises(CompilationError):
            compile_circuit(circuit, small_machine(), config)

    def test_circuit_too_large_rejected(self, config):
        machine = small_machine(traps=2, capacity=3, comm=1)
        with pytest.raises(CompilationError):
            compile_circuit(Circuit(8).add("ms", 0, 7), machine, config)


class TestScheduleInvariants:
    def make_result(self, config, seed=3, gates=120, qubits=9):
        import random

        rng = random.Random(seed)
        circuit = Circuit(qubits)
        for _ in range(gates):
            a, b = rng.sample(range(qubits), 2)
            circuit.add("ms", a, b)
        machine = small_machine(traps=3, capacity=5, comm=1)
        return circuit, compile_circuit(circuit, machine, config)

    def test_all_gates_emitted_once(self, config):
        circuit, result = self.make_result(config)
        assert result.schedule.num_gates == len(circuit)
        assert sorted(result.gate_order) == list(range(len(circuit)))

    def test_execution_order_respects_dag(self, config):
        circuit, result = self.make_result(config)
        assert DependencyDAG(circuit).is_valid_order(result.gate_order)

    def test_gates_execute_co_located(self, config):
        circuit, result = self.make_result(config)
        chains = {t: list(c) for t, c in result.initial_chains.items()}
        transit = {}
        for op in result.schedule:
            if isinstance(op, GateOp):
                for qubit in op.gate.qubits:
                    assert qubit in chains[op.trap], (
                        f"gate {op.gate} in trap {op.trap} but chains are "
                        f"{chains}"
                    )
            elif isinstance(op, SplitOp):
                chains[op.trap].remove(op.ion)
                transit[op.ion] = op.trap
            elif isinstance(op, MoveOp):
                transit[op.ion] = op.dst
            elif isinstance(op, MergeOp):
                del transit[op.ion]
                chains[op.trap].append(op.ion)

    def test_capacity_never_exceeded(self, config):
        circuit, result = self.make_result(config)
        machine = small_machine(traps=3, capacity=5, comm=1)
        chains = {t: list(c) for t, c in result.initial_chains.items()}
        for op in result.schedule:
            if isinstance(op, SplitOp):
                chains[op.trap].remove(op.ion)
            elif isinstance(op, MergeOp):
                chains[op.trap].append(op.ion)
                assert len(chains[op.trap]) <= machine.trap(op.trap).capacity

    def test_final_chains_match_replay(self, config):
        circuit, result = self.make_result(config)
        chains, transit = replay_chains(result.initial_chains, result.schedule)
        assert not transit
        assert {t: sorted(c) for t, c in chains.items()} == {
            t: sorted(c) for t, c in result.final_chains.items()
        }

    def test_deterministic(self, config):
        _, first = self.make_result(config)
        _, second = self.make_result(config)
        assert first.schedule.ops == second.schedule.ops

    def test_simulator_accepts_schedule(self, config):
        circuit, result = self.make_result(config)
        machine = small_machine(traps=3, capacity=5, comm=1)
        report = Simulator(machine).run(result.schedule, result.initial_chains)
        assert report.num_gates == len(circuit)
        assert report.num_shuttles == result.num_shuttles


class TestMappingIntegration:
    def test_default_mapping_used(self, config):
        circuit = Circuit(4).add("ms", 0, 1).add("ms", 2, 3)
        result = compile_circuit(circuit, small_machine(), config)
        placed = sorted(
            q for chain in result.initial_chains.values() for q in chain
        )
        assert placed == [0, 1, 2, 3]

    def test_explicit_mapping_respected(self, config):
        circuit = Circuit(2).add("ms", 0, 1)
        result = compile_circuit(
            circuit, small_machine(), config, initial_chains={0: [0], 2: [1]}
        )
        assert result.initial_chains[0] == [0]
        assert result.initial_chains[2] == [1]

    def test_overfull_initial_chain_rejected(self, config):
        machine = small_machine(capacity=2)
        with pytest.raises(CompilationError):
            compile_circuit(
                Circuit(3).add("ms", 0, 1),
                machine,
                config,
                initial_chains={0: [0, 1, 2]},
            )

    def test_duplicate_ion_in_chains_rejected(self, config):
        with pytest.raises(CompilationError):
            compile_circuit(
                Circuit(2).add("ms", 0, 1),
                small_machine(),
                config,
                initial_chains={0: [0, 1], 1: [1]},
            )

    @pytest.mark.parametrize("qubits", [(2,), (0, 2)])
    def test_unmapped_qubit_rejected(self, config, qubits):
        # Qubit 2 is missing from the placement: the kernel state's
        # "is not mapped" error surfaces as a CompilationError.
        circuit = Circuit(3).add("ms", 0, 1)
        circuit.add("h" if len(qubits) == 1 else "ms", *qubits)
        with pytest.raises(CompilationError, match="ion 2 is not mapped"):
            compile_circuit(
                circuit,
                small_machine(),
                config,
                initial_chains={0: [0], 1: [1]},
            )


class TestOptimizedVsBaseline:
    def test_paper_headline_on_small_example(self):
        """The Fig. 4 pathology: baseline 4 shuttles, future-ops 1."""
        machine = uniform_machine(linear_topology(2), 4, 1)
        circuit = Circuit(5)
        for a, b in [(1, 2), (2, 3), (1, 2), (2, 4)]:
            circuit.add("ms", a, b)
        chains = {0: [0, 1], 1: [2, 3, 4]}
        base = compile_circuit(
            circuit, machine, CompilerConfig.baseline(), initial_chains=chains
        )
        opt_cfg = CompilerConfig.optimized().variant(
            capacity_guard=0, proximity_metric="gates"
        )
        opt = compile_circuit(
            circuit, machine, opt_cfg, initial_chains=chains
        )
        assert base.num_shuttles == 4
        assert opt.num_shuttles == 1

    def test_compile_and_simulate_wrapper(self):
        circuit = Circuit(4).add("ms", 0, 2).add("ms", 1, 3)
        result, report = compile_and_simulate(circuit, small_machine())
        assert report.num_gates == 2
        assert result.circuit_name == circuit.name

    def test_compile_time_recorded(self, config):
        circuit = Circuit(2).add("ms", 0, 1)
        result = compile_circuit(circuit, small_machine(), config)
        assert result.compile_time >= 0.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CompilerConfig(shuttle_policy="nope")
        with pytest.raises(ValueError):
            CompilerConfig(rebalance="nope")
        with pytest.raises(ValueError):
            CompilerConfig(ion_selection="nope")
        with pytest.raises(ValueError):
            CompilerConfig(proximity=-3)
        with pytest.raises(ValueError):
            CompilerConfig(capacity_guard=-1)
        with pytest.raises(ValueError):
            CompilerConfig(score_decay=1.5)
        with pytest.raises(ValueError):
            CompilerConfig(rebalance_window=0)

    def test_variant_preserves_other_fields(self):
        config = CompilerConfig.optimized().variant(proximity=3)
        assert config.proximity == 3
        assert config.rebalance == "nearest"

    def test_default_config_is_optimized(self):
        machine = small_machine()
        assert QCCDCompiler(machine).config.name == "this-work"
