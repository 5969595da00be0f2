"""The paper's worked examples, end to end.

These tests pin the reproduction to the paper's own numbers:

* Fig. 2 — the sample program's dependency layers (in test_dag.py),
* Fig. 4 / Table I — EC ping-pong (4 shuttles) vs future-ops (1),
* Fig. 6 — gate re-ordering turns 5 shuttles into 2,
* Fig. 7 — re-balancing destination: trap-0-first costs 4 shuttles
  where nearest-first costs 1.
"""

from repro.arch import (
    heterogeneous_machine,
    linear_topology,
    uniform_machine,
)
from repro.circuits.circuit import Circuit
from repro.circuits.gate import Gate
from repro.compiler import CompilerConfig, compile_circuit
from repro.compiler.rebalance import select_destination_trap
from repro.core.ops import MoveOp
from repro.core.state import MachineState


class TestFig4:
    """Shuttle-direction policies on the Fig. 4 program."""

    machine = uniform_machine(linear_topology(2), 4, 1)
    chains = {0: [0, 1], 1: [2, 3, 4]}

    def program(self) -> Circuit:
        circuit = Circuit(5, name="fig4")
        for a, b in [(1, 2), (2, 3), (1, 2), (2, 4)]:
            circuit.add("ms", a, b)
        return circuit

    def test_baseline_needs_four_shuttles(self):
        result = compile_circuit(
            self.program(),
            self.machine,
            CompilerConfig.baseline(),
            initial_chains=self.chains,
        )
        assert result.num_shuttles == 4

    def test_baseline_ping_pongs_ion_2(self):
        result = compile_circuit(
            self.program(),
            self.machine,
            CompilerConfig.baseline(),
            initial_chains=self.chains,
        )
        movers = [
            op.ion for op in result.schedule if isinstance(op, MoveOp)
        ]
        assert movers == [2, 2, 2, 2]

    def test_future_ops_needs_one_shuttle(self):
        config = CompilerConfig.optimized().variant(
            capacity_guard=0, proximity_metric="gates"
        )
        result = compile_circuit(
            self.program(), self.machine, config, initial_chains=self.chains
        )
        assert result.num_shuttles == 1
        movers = [
            op.ion for op in result.schedule if isinstance(op, MoveOp)
        ]
        assert movers == [1]  # ion 1 moves to T1 once


class TestFig6:
    """Opportunistic gate re-ordering on the Fig. 6 program."""

    machine = heterogeneous_machine(
        linear_topology(2), capacities=[5, 4], comm_capacities=[1, 1]
    )
    chains = {0: [0, 1, 2], 1: [3, 4, 5, 6]}

    def program(self) -> Circuit:
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

    def optimized(self, reorder: bool) -> CompilerConfig:
        return CompilerConfig.optimized().variant(
            reorder=reorder, capacity_guard=0, proximity_metric="gates"
        )

    def test_reordering_achieves_two_shuttles(self):
        result = compile_circuit(
            self.program(),
            self.machine,
            self.optimized(reorder=True),
            initial_chains=self.chains,
        )
        assert result.num_shuttles == 2
        assert result.num_reorders == 1
        # gB (index 1) executes before gA (index 0), as in Fig. 6e.
        assert result.gate_order.index(1) < result.gate_order.index(0)

    def test_without_reordering_costs_more(self):
        result = compile_circuit(
            self.program(),
            self.machine,
            self.optimized(reorder=False),
            initial_chains=self.chains,
        )
        assert result.num_shuttles > 2


class TestFig7:
    """Re-balancing destination search on the Fig. 7 trap state."""

    def state(self) -> MachineState:
        machine = uniform_machine(linear_topology(6), 5, 1)
        chains = {
            0: [0, 1, 2],       # EC 2
            1: [3, 4, 5, 6],    # EC 1
            2: [7],             # EC 4
            3: [8, 9, 10],      # EC 2
            4: [11, 12, 13, 14, 15],  # EC 0 (full, the traffic block)
            5: [],              # EC 5
        }
        return MachineState(machine, chains)

    def test_previous_logic_sends_to_trap0(self):
        """[7]'s scan from trap 0 picks T0: 4 shuttles away from T4."""
        state = self.state()
        destination = select_destination_trap(state, 4, "lowest-index")
        assert destination == 0
        assert state.machine.topology.distance(4, destination) == 4

    def test_improved_logic_sends_to_nearest_neighbor(self):
        """Algorithm 2 picks T3 or T5: 1 shuttle."""
        state = self.state()
        destination = select_destination_trap(state, 4, "nearest")
        assert destination in (3, 5)
        assert state.machine.topology.distance(4, destination) == 1


class TestPaperHeadlineClaims:
    """Sanity on the abstract's claims, at reduced scale."""

    def test_optimized_never_worse_on_nisq_suite_members(self):
        from repro.bench import qft_circuit, supremacy_circuit
        from repro.arch import l6_machine
        from repro.compiler.mapping import greedy_initial_mapping

        machine = l6_machine()
        for circuit in (
            supremacy_circuit(cycles=6),
            qft_circuit(num_qubits=32),
        ):
            chains = greedy_initial_mapping(circuit, machine)
            base = compile_circuit(
                circuit, machine, CompilerConfig.baseline(),
                initial_chains=chains,
            )
            opt = compile_circuit(
                circuit, machine, CompilerConfig.optimized(),
                initial_chains=chains,
            )
            assert opt.num_shuttles <= base.num_shuttles
