"""Opportunistic gate re-ordering tests (Algorithm 1 / Fig. 6)."""

from repro.arch import heterogeneous_machine, linear_topology
from repro.circuits.circuit import Circuit
from repro.circuits.dag import DependencyDAG
from repro.circuits.gate import Gate
from repro.compiler.config import CompilerConfig
from repro.compiler.compiler import QCCDCompiler
from repro.compiler.future_index import FutureGateIndex
from repro.compiler.policies import FutureOpsPolicy
from repro.compiler.reorder import find_reorder_candidate
from repro.compiler.state import CompilerState


def fig6_machine():
    """Fig. 6's machine: T0 capacity 5 (EC 2 with 3 ions), T1 capacity 4
    (full with 4 ions)."""
    return heterogeneous_machine(
        linear_topology(2), capacities=[5, 4], comm_capacities=[1, 1]
    )


def fig6_chains():
    return {0: [0, 1, 2], 1: [3, 4, 5, 6]}


def fig6_circuit() -> Circuit:
    """The partial program of Fig. 6b."""
    return Circuit(
        7,
        [
            Gate("ms", (2, 3)),  # gA
            Gate("ms", (4, 0)),  # gB
            Gate("ms", (2, 5)),  # gC
            Gate("ms", (6, 2)),  # gD
            Gate("ms", (1, 4)),  # gE
        ],
        name="fig6",
    )


class TestFindCandidate:
    def test_fig6_candidate_is_gate_b(self):
        """gA's favourable destination T1 is full; gB frees it."""
        circuit = fig6_circuit()
        dag = DependencyDAG(circuit)
        state = CompilerState(fig6_machine(), fig6_chains())
        policy = FutureOpsPolicy(
            proximity=6, proximity_metric="gates", capacity_guard=0
        )
        pending = dag.topological_order()

        def decide(gate, upcoming, layer):
            return policy.decide(gate, state, upcoming, layer)

        position = find_reorder_candidate(
            pending,
            active_pos=0,
            dag=dag,
            state=state,
            decide=decide,
            old_destination=1,
            future=FutureGateIndex(dag, pending, circuit.num_qubits),
        )
        assert position is not None
        assert dag.gate(pending[position]) == Gate("ms", (4, 0))  # gB

    def test_candidate_found_once_its_predecessor_executed(self):
        """Fig. 6 behind an executed prefix: gB only becomes hoistable
        once the gate it depends on is marked executed."""
        circuit = Circuit(
            7,
            [Gate("ms", (3, 5)), Gate("ms", (0, 1)), *fig6_circuit()],
        )
        dag = DependencyDAG(circuit)
        state = CompilerState(fig6_machine(), fig6_chains())
        policy = FutureOpsPolicy(
            proximity=6, proximity_metric="gates", capacity_guard=0
        )
        pending = dag.topological_order()
        assert pending[:4] == [0, 1, 2, 3]  # prefix, gA, gB
        future = FutureGateIndex(dag, pending, circuit.num_qubits)

        def decide(gate, upcoming, layer):
            return policy.decide(gate, state, upcoming, layer)

        def candidate():
            return find_reorder_candidate(
                pending, 2, dag, state, decide, 1, future
            )

        future.mark_executed(pending[0], True)
        assert candidate() is None  # gB still waits on gate (0, 1)
        future.mark_executed(pending[1], True)
        assert candidate() == 3

    def test_no_candidate_when_nothing_leaves_the_trap(self):
        circuit = Circuit(
            5, [Gate("ms", (0, 2)), Gate("ms", (1, 3)), Gate("x", (4,))]
        )
        dag = DependencyDAG(circuit)
        machine = heterogeneous_machine(
            linear_topology(3),
            capacities=[4, 4, 4],
            comm_capacities=[1, 1, 1],
        )
        state = CompilerState(machine, {0: [0, 1], 1: [2, 3], 2: [4]})
        policy = FutureOpsPolicy(proximity=6, capacity_guard=0)
        pending = dag.topological_order()
        future = FutureGateIndex(dag, pending, circuit.num_qubits)

        def decide(gate, upcoming, layer):
            return policy.decide(gate, state, upcoming, layer)

        # Gate (1,3) could be hoisted, but neither of its ions sits in
        # trap 2, so it cannot free a slot there.
        position = find_reorder_candidate(
            pending, 0, dag, state, decide, 2, future
        )
        assert position is None

    def test_dependency_unsafe_candidates_skipped(self):
        # Second gate depends on the first: it can never be hoisted.
        circuit = Circuit(
            4, [Gate("ms", (0, 2)), Gate("ms", (0, 3))]
        )
        dag = DependencyDAG(circuit)
        machine = fig6_machine()
        state = CompilerState(machine, {0: [0, 1], 1: [2, 3]})
        policy = FutureOpsPolicy(proximity=6, capacity_guard=0)
        pending = dag.topological_order()
        future = FutureGateIndex(dag, pending, circuit.num_qubits)

        def decide(gate, upcoming, layer):
            return policy.decide(gate, state, upcoming, layer)

        assert (
            find_reorder_candidate(
                pending, 0, dag, state, decide, 1, future
            )
            is None
        )


class TestFig6EndToEnd:
    """The paper's full Fig. 6 comparison: 5 shuttles without
    re-ordering vs 2 with it."""

    def optimized_config(self, reorder: bool) -> CompilerConfig:
        return CompilerConfig.optimized().variant(
            reorder=reorder,
            capacity_guard=0,
            proximity_metric="gates",
        )

    def compile_fig6(self, reorder: bool):
        compiler = QCCDCompiler(fig6_machine(), self.optimized_config(reorder))
        return compiler.compile(fig6_circuit(), initial_chains=fig6_chains())

    def test_with_reordering_two_shuttles(self):
        result = self.compile_fig6(reorder=True)
        assert result.num_shuttles == 2
        assert result.num_reorders >= 1

    def test_without_reordering_more_shuttles(self):
        with_reorder = self.compile_fig6(reorder=True)
        without = self.compile_fig6(reorder=False)
        assert without.num_shuttles > with_reorder.num_shuttles

    def test_reordered_execution_respects_dependencies(self):
        result = self.compile_fig6(reorder=True)
        dag = DependencyDAG(fig6_circuit())
        assert dag.is_valid_order(result.gate_order)
