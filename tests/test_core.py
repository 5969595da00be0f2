"""Unit tests of the machine-semantics kernel (``repro.core``)."""

import math

import pytest

from repro.arch import linear_topology, ring_topology, uniform_machine
from repro.circuits.gate import Gate
from repro.core import (
    ClockObserver,
    HeatingObserver,
    MachineModelError,
    MachineState,
    OccupancyTraceObserver,
    estimate_makespan,
    occupancy_at,
    replay,
)
from repro.core.ops import GateOp, MergeOp, MoveOp, SplitOp, SwapOp
from repro.passes.verify import is_legal
from repro.sim import MachineParams, Schedule, Simulator, TimingParams


def machine(traps=3, capacity=4, comm=1):
    return uniform_machine(linear_topology(traps), capacity, comm)


def trip(ion, path):
    ops = [SplitOp(ion=ion, trap=path[0])]
    ops.extend(MoveOp(ion=ion, src=a, dst=b) for a, b in zip(path, path[1:]))
    ops.append(MergeOp(ion=ion, trap=path[-1]))
    return ops


class TestMachineState:
    def test_initial_placement(self):
        state = MachineState(machine(), {0: [0, 1], 2: [2]})
        assert state.trap_of(0) == 0
        assert state.trap_of(2) == 2
        assert state.occupancy(0) == 2
        assert state.occupancy(1) == 0
        assert state.excess_capacity(0) == 2
        assert not state.is_full(0)
        assert state.co_located(0, 1)
        assert not state.co_located(0, 2)

    def test_initial_overflow_rejected(self):
        with pytest.raises(MachineModelError, match="capacity"):
            MachineState(machine(capacity=2), {0: [0, 1, 2]})

    def test_initial_duplicate_rejected(self):
        with pytest.raises(MachineModelError, match="multiple traps"):
            MachineState(machine(), {0: [7], 1: [7]})

    def test_apply_full_trip(self):
        state = MachineState(machine(), {0: [0], 2: [1]})
        for op in trip(0, [0, 1, 2]):
            state.apply(op)
        assert state.trap_of(0) == 2
        assert state.chains[2] == [1, 0]
        state.require_settled()

    def test_transit_registry(self):
        state = MachineState(machine(), {0: [0]})
        state.apply(SplitOp(ion=0, trap=0))
        assert state.in_transit(0)
        assert state.transit_ions() == [0]
        with pytest.raises(MachineModelError, match="in transit"):
            state.require_settled()
        with pytest.raises(MachineModelError, match="is not mapped"):
            state.trap_of(0)

    def test_move_requires_edge(self):
        state = MachineState(machine(), {0: [0]})
        state.apply(SplitOp(ion=0, trap=0))
        with pytest.raises(MachineModelError, match="no shuttle path"):
            state.apply(MoveOp(ion=0, src=0, dst=2))

    def test_move_into_full_trap_rejected(self):
        state = MachineState(machine(capacity=1, comm=0), {0: [0], 1: [1]})
        state.apply(SplitOp(ion=0, trap=0))
        with pytest.raises(MachineModelError, match="full trap"):
            state.apply(MoveOp(ion=0, src=0, dst=1))

    def test_gate_requires_placement(self):
        state = MachineState(machine(), {0: [0], 1: [1]})
        with pytest.raises(MachineModelError, match="is not there"):
            state.apply(GateOp(gate=Gate("ms", (0, 1)), trap=0))

    def test_swap_adjacency(self):
        state = MachineState(machine(), {0: [0, 1, 2]})
        with pytest.raises(MachineModelError, match="not adjacent"):
            state.apply(SwapOp(ion_a=0, ion_b=2, trap=0))
        state.apply(SwapOp(ion_a=0, ion_b=1, trap=0))
        assert state.chains[0] == [1, 0, 2]

    def test_rejected_op_leaves_state_unchanged(self):
        state = MachineState(machine(), {0: [0, 1]})
        before = state.chains_dict()
        with pytest.raises(MachineModelError):
            state.apply(SplitOp(ion=5, trap=0))
        assert state.chains_dict() == before
        assert not state.in_transit(5)

    def test_unknown_ion_ids_are_errors_not_crashes(self):
        state = MachineState(machine(), {0: [0]})
        with pytest.raises(MachineModelError):
            state.apply(SplitOp(ion=99, trap=0))
        with pytest.raises(MachineModelError):
            state.apply(MoveOp(ion=99, src=0, dst=1))
        with pytest.raises(MachineModelError):
            state.apply(MergeOp(ion=99, trap=0))

    def test_compiler_primitives(self):
        state = MachineState(machine(), {0: [0, 1]})
        assert state.detach_ion(0) == 0
        state.attach_ion(0, 1)
        assert state.trap_of(0) == 1
        with pytest.raises(MachineModelError, match="still in trap"):
            state.attach_ion(0, 0)

    def test_has_edge(self):
        state = MachineState(machine(traps=4), {})
        assert state.has_edge(0, 1) and state.has_edge(1, 0)
        assert not state.has_edge(0, 2)


class TestReplay:
    def test_replay_returns_final_state(self):
        m = machine()
        state = replay(m, trip(0, [0, 1]), {0: [0]})
        assert state.chains_dict() == {0: [], 1: [0], 2: []}

    def test_replay_prefixes_op_position(self):
        m = machine()
        with pytest.raises(MachineModelError, match="op 1:"):
            replay(
                m,
                [SplitOp(ion=0, trap=0), MoveOp(ion=0, src=0, dst=2)],
                {0: [0]},
            )

    def test_replay_rejects_stranded_transit(self):
        with pytest.raises(MachineModelError, match="in transit"):
            replay(machine(), [SplitOp(ion=0, trap=0)], {0: [0]})

    def test_is_legal(self):
        m = machine()
        assert is_legal(m, trip(0, [0, 1]), {0: [0]})
        assert not is_legal(m, [MoveOp(ion=0, src=0, dst=1)], {0: [0]})


class TestObservers:
    def test_clock_observer_matches_simulator_duration(self):
        m = machine()
        ops = trip(0, [0, 1, 2]) + [GateOp(gate=Gate("ms", (0, 1)), trap=2)]
        schedule = Schedule(ops)
        report = Simulator(m).run(schedule, {0: [0], 2: [1]})
        clock = ClockObserver(m.num_traps)
        replay(m, ops, {0: [0], 2: [1]}, (clock,))
        assert clock.makespan == report.duration

    def test_clock_drive_equals_replay_observation(self):
        m = machine()
        ops = trip(0, [0, 1, 2]) + [GateOp(gate=Gate("x", (1,)), trap=2)]
        driven = ClockObserver(m.num_traps).drive(ops)
        observed = ClockObserver(m.num_traps)
        replay(m, ops, {0: [0], 2: [1]}, (observed,))
        assert driven.clocks == observed.clocks

    def test_heating_observer_matches_simulator_fidelity(self):
        m = machine()
        ops = trip(0, [0, 1]) + [GateOp(gate=Gate("ms", (0, 1)), trap=1)]
        report = Simulator(m).run(Schedule(ops), {0: [0], 1: [1]})
        heat = HeatingObserver(m.num_traps)
        replay(m, ops, {0: [0], 1: [1]}, (heat,))
        assert heat.log_fidelity == report.program_log_fidelity
        assert heat.max_nbar == report.max_nbar
        assert heat.gate_fidelities == report.gate_fidelities
        assert math.isclose(heat.mean_gate_nbar, report.mean_gate_nbar)

    def test_occupancy_trace(self):
        m = machine()
        ops = trip(0, [0, 1, 2])
        trace = OccupancyTraceObserver()
        replay(m, ops, {0: [0, 1]}, (trace,))
        assert trace.events == [(0, 0, -1), (3, 2, +1)]
        assert trace.events == OccupancyTraceObserver.events_of(ops)
        assert occupancy_at(trace.events, [2, 0, 0], 0) == [2, 0, 0]
        assert occupancy_at(trace.events, [2, 0, 0], 2) == [1, 0, 0]
        assert occupancy_at(trace.events, [2, 0, 0], 4) == [1, 0, 1]

    def test_estimate_makespan_custom_timing(self):
        timing = TimingParams(move_time=1.0, split_time=2.0, merge_time=3.0)
        ops = trip(0, [0, 1])
        assert estimate_makespan(3, ops, timing) == 6.0


class TestErrorHierarchy:
    """Satellite regression: one base class across all three layers."""

    def test_compilation_error_is_machine_model_error(self):
        from repro.compiler.state import CompilationError, CompilerState

        with pytest.raises(MachineModelError) as excinfo:
            CompilerState(machine(capacity=2), {0: [0, 1, 2]})
        assert isinstance(excinfo.value, CompilationError)

    def test_simulation_error_is_machine_model_error(self):
        from repro.sim.simulator import SimulationError

        with pytest.raises(MachineModelError) as excinfo:
            Simulator(machine()).run(
                Schedule([MoveOp(ion=0, src=0, dst=1)]), {0: [0]}
            )
        assert isinstance(excinfo.value, SimulationError)

    def test_verification_error_is_machine_model_error(self):
        from repro.passes.verify import VerificationError, verify_schedule

        with pytest.raises(MachineModelError) as excinfo:
            verify_schedule(
                machine(), Schedule([MoveOp(ion=0, src=0, dst=1)]), {0: [0]}
            )
        assert isinstance(excinfo.value, VerificationError)

    def test_one_handler_catches_all_layers(self):
        """A caller can guard compile+simulate+verify with one except."""
        from repro.passes.verify import verify_schedule

        m = machine(capacity=2)
        caught = []
        for thunk in (
            lambda: CompilerStateOverflow(m),
            lambda: Simulator(m).run(
                Schedule([SplitOp(ion=0, trap=0)]), {0: [0]}
            ),
            lambda: verify_schedule(
                m, Schedule([SplitOp(ion=0, trap=0)]), {0: [0]}
            ),
        ):
            try:
                thunk()
            except MachineModelError as exc:
                caught.append(type(exc).__name__)
        assert caught == [
            "CompilationError",
            "SimulationError",
            "VerificationError",
        ]

    def test_exported_from_repro(self):
        import repro

        assert repro.MachineModelError is MachineModelError
        assert issubclass(repro.CompilationError, repro.MachineModelError)


def CompilerStateOverflow(m):
    from repro.compiler.state import CompilerState

    return CompilerState(m, {0: [0, 1, 2]})


class TestRingTopology:
    def test_ring_edges_in_kernel(self):
        m = uniform_machine(ring_topology(4), 2, 1)
        state = MachineState(m, {0: [0]})
        assert state.has_edge(0, 3)  # the wrap-around edge
        state.apply(SplitOp(ion=0, trap=0))
        state.apply(MoveOp(ion=0, src=0, dst=3))
        state.apply(MergeOp(ion=0, trap=3))
        assert state.trap_of(0) == 3
