"""Visualisation helper tests."""

from repro.arch import grid_machine, l6_machine, linear_machine
from repro.circuits.gate import Gate
from repro.core.ops import GateOp, MergeOp, MoveOp, SplitOp
from repro.sim.schedule import Schedule
from repro.viz import (
    gate_trap_histogram,
    render_chains,
    render_occupancy_bar,
    render_topology,
    schedule_summary,
    shuttle_trace,
)


def sample_schedule() -> Schedule:
    return Schedule(
        [
            GateOp(gate=Gate("ms", (0, 1)), trap=0),
            SplitOp(ion=2, trap=1),
            MoveOp(ion=2, src=1, dst=0),
            MergeOp(ion=2, trap=0),
            GateOp(gate=Gate("ms", (0, 2)), trap=0),
        ]
    )


class TestTrapView:
    def test_render_chains(self):
        machine = linear_machine(2, capacity=4, comm_capacity=1)
        text = render_chains(machine, {0: [0, 1], 1: [2]}, label="state:")
        assert "state:" in text
        assert "T0 (EC=2): [0 1]" in text
        assert "T1 (EC=3): [2]" in text

    def test_render_topology_linear(self):
        assert render_topology(l6_machine()) == (
            "T0 -- T1 -- T2 -- T3 -- T4 -- T5"
        )

    def test_render_topology_grid(self):
        text = render_topology(grid_machine(2, 2))
        assert "T0 -- T1" in text

    def test_render_occupancy_bar(self):
        machine = linear_machine(2, capacity=4, comm_capacity=1)
        text = render_occupancy_bar(machine, {0: [0, 1], 1: []})
        assert "T0 |##..| 2/4" in text
        assert "T1 |....| 0/4" in text


class TestTimeline:
    def test_shuttle_trace(self):
        text = shuttle_trace(sample_schedule())
        assert "split ion 2 from T1" in text
        assert "move  ion 2: T1 -> T0" in text
        assert "merge ion 2 into T0" in text

    def test_shuttle_trace_limit(self):
        text = shuttle_trace(sample_schedule(), limit=1)
        assert text.endswith("...")

    def test_shuttle_trace_empty(self):
        assert shuttle_trace(Schedule()) == "(no shuttles)"

    def test_schedule_summary(self):
        text = schedule_summary(sample_schedule())
        assert "gates=2" in text
        assert "moves=1" in text

    def test_gate_trap_histogram(self):
        histogram = gate_trap_histogram(sample_schedule())
        assert histogram == {0: 2}
