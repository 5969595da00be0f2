"""Chain-order tracking (Fig. 3 step (i)): in-chain swaps before split."""

import pytest

from repro.arch import linear_topology, uniform_machine
from repro.circuits.circuit import Circuit
from repro.compiler import CompilerConfig, compile_circuit
from repro.compiler.state import CompilationError, CompilerState
from repro.core import MachineState, replay_into
from repro.core.ops import GateOp, MergeOp, MoveOp, SwapOp
from repro.sim import Schedule, SimulationError, Simulator


def machine(traps=3, capacity=5, comm=1):
    return uniform_machine(linear_topology(traps), capacity, comm)


def ordered_config() -> CompilerConfig:
    return CompilerConfig.optimized().variant(track_chain_order=True)


class TestSwapEmission:
    def test_head_ion_moving_left_needs_no_swaps(self):
        circuit = Circuit(4).add("ms", 0, 3)
        # ion 3 is the head of T1's chain; gate pulls one ion across.
        result = compile_circuit(
            circuit,
            machine(traps=2),
            ordered_config(),
            initial_chains={0: [0, 1], 1: [3, 2]},
        )
        # Whichever ion moved, it was at the matching chain end.
        assert result.schedule.num_swaps <= 1

    def test_buried_ion_swaps_to_exit_end(self):
        # Force ion 2 (buried mid-chain in T1) to move left to T0.
        circuit = Circuit(5).add("ms", 0, 2)
        config = ordered_config().variant(
            shuttle_policy="excess-capacity"
        )
        result = compile_circuit(
            circuit,
            machine(traps=2),
            config,
            initial_chains={0: [0], 1: [1, 2, 3]},
        )
        # EC moves ion 2 into the roomier T0; it sits at index 1 of
        # [1, 2, 3] and must first swap with ion 1 (the head, since the
        # exit edge toward T0 is the low end).
        swaps = [op for op in result.schedule if isinstance(op, SwapOp)]
        assert len(swaps) == 1
        assert {swaps[0].ion_a, swaps[0].ion_b} == {1, 2}

    def test_swaps_not_counted_as_shuttles(self):
        circuit = Circuit(5).add("ms", 0, 2)
        config = ordered_config().variant(shuttle_policy="excess-capacity")
        chains = {0: [0], 1: [1, 2, 3]}
        plain = compile_circuit(
            circuit,
            machine(traps=2),
            config.variant(track_chain_order=False),
            initial_chains=chains,
        )
        ordered = compile_circuit(
            circuit, machine(traps=2), config, initial_chains=chains
        )
        assert ordered.num_shuttles == plain.num_shuttles

    def test_merge_side_recorded(self):
        # Ion moving right (T0 -> T1) enters T1 from the low edge:
        # it lands at the chain head (position 0).
        circuit = Circuit(3).add("ms", 0, 2)
        config = ordered_config().variant(shuttle_policy="excess-capacity")
        result = compile_circuit(
            circuit,
            machine(traps=2),
            config,
            initial_chains={0: [0, 1], 1: [2]},
        )
        merges = [op for op in result.schedule if isinstance(op, MergeOp)]
        moves = [op for op in result.schedule if isinstance(op, MoveOp)]
        assert len(merges) == 1
        if moves[0].dst > moves[0].src:
            assert merges[0].position == 0
        else:
            assert merges[0].position is None

    def test_multi_hop_chain_order_consistent(self):
        import random

        rng = random.Random(8)
        circuit = Circuit(12)
        for _ in range(60):
            a, b = rng.sample(range(12), 2)
            circuit.add("ms", a, b)
        result = compile_circuit(circuit, machine(traps=4), ordered_config())
        report = Simulator(machine(traps=4)).run(
            result.schedule, result.initial_chains
        )
        assert report.num_gates == 60

    def test_compiler_final_chains_match_simulator(self):
        import random

        rng = random.Random(9)
        circuit = Circuit(10)
        for _ in range(40):
            a, b = rng.sample(range(10), 2)
            circuit.add("ms", a, b)
        m = machine(traps=3)
        result = compile_circuit(circuit, m, ordered_config())
        # Replay through the machine kernel and compare exact chain ORDER.
        state = replay_into(
            MachineState(m, result.initial_chains), result.schedule
        )
        assert state.chains_dict() == result.final_chains


class TestSimulatorSwapValidation:
    def params(self):
        from repro.sim import MachineParams

        return MachineParams()

    def test_swap_of_non_adjacent_rejected(self):
        ops = [SwapOp(ion_a=0, ion_b=2, trap=0)]
        with pytest.raises(SimulationError):
            Simulator(machine()).run(Schedule(ops), {0: [0, 1, 2]})

    def test_swap_of_absent_ion_rejected(self):
        ops = [SwapOp(ion_a=0, ion_b=9, trap=0)]
        with pytest.raises(SimulationError):
            Simulator(machine()).run(Schedule(ops), {0: [0, 1]})

    def test_swap_charges_time_and_heat(self):
        from repro.sim import MachineParams, NoiseParams, TimingParams

        params = MachineParams(
            TimingParams(),
            NoiseParams(
                swap_heating=1.5,
                background_heating_rate=0.0,
                recool_enabled=False,
                gate_infidelity_scale=0.0,
                heating_rate=0.0,
                one_qubit_infidelity=0.0,
            ),
        )
        ops = [
            SwapOp(ion_a=0, ion_b=1, trap=0),
            GateOp(gate=__import__("repro.circuits.gate", fromlist=["Gate"]).Gate("ms", (0, 1)), trap=0),
        ]
        report = Simulator(machine(), params).run(Schedule(ops), {0: [0, 1]})
        assert report.mean_gate_nbar == pytest.approx(1.5)
        assert report.duration == pytest.approx(
            params.timing.swap_time + params.timing.gate2q_time
        )

    def test_swap_updates_order_for_merge_positions(self):
        ops = [
            SwapOp(ion_a=0, ion_b=1, trap=0),
        ]
        sim = Simulator(machine())
        report = sim.run(Schedule(ops), {0: [0, 1]})
        assert report.num_gates == 0


class TestStateHelpers:
    def test_swap_adjacent(self):
        state = CompilerState(machine(), {0: [0, 1, 2]})
        state.swap_adjacent(0, 1)
        assert state.chains[0] == [0, 2, 1]

    def test_swap_adjacent_bounds(self):
        state = CompilerState(machine(), {0: [0, 1]})
        with pytest.raises(CompilationError):
            state.swap_adjacent(0, 1)
        with pytest.raises(CompilationError):
            state.swap_adjacent(0, -1)

    def test_positional_attach(self):
        state = CompilerState(machine(), {0: [0, 1]})
        state.detach_ion(0)
        state.attach_ion(0, 0, position=0)
        assert state.chains[0] == [0, 1]


class TestOverheadStudy:
    """Chain-order modeling adds swap overhead but preserves the
    optimized compiler's shuttle advantage."""

    def test_shuttle_counts_invariant(self):
        from repro.bench import qft_circuit
        from repro.arch import l6_machine
        from repro.compiler.mapping import greedy_initial_mapping

        circuit = qft_circuit(num_qubits=24)
        m = l6_machine()
        chains = greedy_initial_mapping(circuit, m)
        plain = compile_circuit(
            circuit, m, CompilerConfig.optimized(), initial_chains=chains
        )
        ordered = compile_circuit(
            circuit, m, ordered_config(), initial_chains=chains
        )
        assert ordered.num_shuttles == plain.num_shuttles
        assert ordered.schedule.num_swaps > 0
