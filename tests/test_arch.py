"""Unit tests for the trap/topology/machine model."""

import pytest

from repro.arch import (
    QCCDMachine,
    TrapError,
    TrapSpec,
    TrapTopology,
    grid_machine,
    grid_topology,
    heterogeneous_machine,
    l6_machine,
    linear_machine,
    linear_topology,
    ring_machine,
    ring_topology,
    uniform_machine,
)
from repro.arch.presets import machine_from_spec, spec_num_traps
from repro.arch.topology import TopologyError
from repro.core import MachineModelError, MachineState


class TestTrapSpec:
    def test_valid(self):
        spec = TrapSpec(trap_id=0, capacity=17, comm_capacity=2)
        assert spec.load_capacity == 15

    def test_zero_capacity_rejected(self):
        with pytest.raises(TrapError):
            TrapSpec(trap_id=0, capacity=0, comm_capacity=0)

    def test_comm_capacity_must_leave_room(self):
        with pytest.raises(TrapError):
            TrapSpec(trap_id=0, capacity=4, comm_capacity=4)
        with pytest.raises(TrapError):
            TrapSpec(trap_id=0, capacity=4, comm_capacity=-1)


class TestTrapState:
    """A trap's runtime chain lives in the kernel's
    :class:`~repro.core.state.MachineState`: the per-trap chain rules."""

    def state(self, chain=()):
        machine = uniform_machine(linear_topology(2), 3, 1)
        return MachineState(machine, {0: list(chain)})

    def test_add_remove(self):
        state = self.state()
        state.attach_ion(5, 0)
        assert state.occupancy(0) == 1
        assert state.excess_capacity(0) == 2
        assert state.detach_ion(5) == 0
        assert state.occupancy(0) == 0

    def test_full_rejects_add(self):
        state = self.state([1, 2, 3])
        assert state.is_full(0)
        with pytest.raises(MachineModelError, match="full trap"):
            state.attach_ion(4, 0)

    def test_duplicate_ion_rejected(self):
        state = self.state([1])
        with pytest.raises(MachineModelError, match="still in trap"):
            state.attach_ion(1, 0)

    def test_remove_missing_rejected(self):
        with pytest.raises(MachineModelError, match="not mapped"):
            self.state().detach_ion(9)

    def test_positional_insert(self):
        state = self.state([1, 2])
        state.detach_ion(2)
        state.attach_ion(3, 0, position=0)
        assert state.chain(0) == [3, 1]

    def test_copy_is_deep(self):
        state = self.state([1])
        other = state.fork()
        other.attach_ion(2, 0)
        assert state.chain(0) == [1]


class TestTopology:
    def test_linear(self):
        topo = linear_topology(6)
        assert topo.name == "L6"
        assert topo.edges == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]
        assert topo.neighbors(0) == [1]
        assert topo.neighbors(3) == [2, 4]

    def test_linear_distance(self):
        topo = linear_topology(6)
        assert topo.distance(0, 5) == 5
        assert topo.distance(4, 4) == 0
        assert topo.distance(3, 1) == 2

    def test_linear_path(self):
        assert linear_topology(6).shortest_path(1, 4) == [1, 2, 3, 4]
        assert linear_topology(6).shortest_path(4, 1) == [4, 3, 2, 1]

    def test_ring_wraps(self):
        topo = ring_topology(6)
        assert topo.distance(0, 5) == 1
        assert topo.distance(0, 3) == 3

    def test_ring_minimum_size(self):
        with pytest.raises(TopologyError):
            ring_topology(2)

    def test_grid(self):
        topo = grid_topology(2, 3)
        assert topo.num_traps == 6
        assert topo.distance(0, 5) == 3  # (0,0) -> (1,2)
        assert topo.distance(0, 3) == 1  # (0,0) -> (1,0)

    def test_self_loop_rejected(self):
        with pytest.raises(TopologyError):
            TrapTopology(2, [(0, 0)])

    def test_unknown_trap_edge_rejected(self):
        with pytest.raises(TopologyError):
            TrapTopology(2, [(0, 5)])

    def test_duplicate_edges_deduplicated(self):
        topo = TrapTopology(2, [(0, 1), (1, 0)])
        assert topo.edges == [(0, 1)]

    def test_disconnected_distance_raises(self):
        topo = TrapTopology(3, [(0, 1)])
        with pytest.raises(TopologyError):
            topo.distance(0, 2)
        assert not topo.is_connected()

    def test_path_endpoints_inclusive(self):
        topo = grid_topology(3, 3)
        path = topo.shortest_path(0, 8)
        assert path[0] == 0 and path[-1] == 8
        assert len(path) == topo.distance(0, 8) + 1
        for a, b in zip(path, path[1:]):
            assert b in topo.neighbors(a)


class TestUniqueShortestPaths:
    @pytest.mark.parametrize(
        "topo",
        [
            linear_topology(6),
            TrapTopology(5, [(0, leaf) for leaf in range(1, 5)]),  # star
            TrapTopology(6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)]),
            ring_topology(5),
        ],
        ids=["L6", "star", "tree", "ring5"],
    )
    def test_unique(self, topo):
        assert topo.has_unique_shortest_paths()

    @pytest.mark.parametrize(
        "topo", [ring_topology(6), grid_topology(2, 3)], ids=str
    )
    def test_not_unique(self, topo):
        assert not topo.has_unique_shortest_paths()

    def test_add_edge_resets_the_cached_answer(self):
        topo = linear_topology(4)
        assert topo.has_unique_shortest_paths()
        topo.add_edge(0, 3)  # closes a 4-ring: 0 -> 2 has two routes
        assert not topo.has_unique_shortest_paths()

    def test_disconnected_topology_does_not_raise(self):
        assert TrapTopology(4, [(0, 1), (2, 3)]).has_unique_shortest_paths()
        square_and_island = TrapTopology(
            5, [(0, 1), (1, 2), (2, 3), (3, 0)]
        )
        assert not square_and_island.has_unique_shortest_paths()
        assert TrapTopology(1, []).has_unique_shortest_paths()


class TestMachine:
    def test_l6_preset_matches_paper(self):
        machine = l6_machine()
        assert machine.num_traps == 6
        assert machine.trap(0).capacity == 17
        assert machine.trap(0).comm_capacity == 2
        assert machine.total_capacity == 102
        assert machine.load_capacity == 90

    def test_uniform_machine(self):
        machine = uniform_machine(linear_topology(3), 5, 1)
        assert machine.load_capacity == 12

    def test_heterogeneous_machine(self):
        machine = heterogeneous_machine(
            linear_topology(2), capacities=[5, 4], comm_capacities=[1, 1]
        )
        assert machine.trap(0).capacity == 5
        assert machine.trap(1).capacity == 4

    def test_heterogeneous_length_mismatch(self):
        with pytest.raises(TrapError):
            heterogeneous_machine(
                linear_topology(2), capacities=[5], comm_capacities=[1, 1]
            )

    def test_spec_count_mismatch_rejected(self):
        specs = (TrapSpec(0, 4, 1),)
        with pytest.raises(TrapError):
            QCCDMachine(topology=linear_topology(2), traps=specs)

    def test_spec_id_mismatch_rejected(self):
        specs = (TrapSpec(1, 4, 1), TrapSpec(0, 4, 1))
        with pytest.raises(TrapError):
            QCCDMachine(topology=linear_topology(2), traps=specs)

    def test_disconnected_machine_rejected(self):
        topo = TrapTopology(3, [(0, 1)])
        with pytest.raises(TrapError):
            uniform_machine(topo, 4, 1)

    def test_presets(self):
        assert linear_machine(3).num_traps == 3
        assert ring_machine(4).num_traps == 4
        assert grid_machine(2, 3).num_traps == 6


class TestMachineSpecs:
    @pytest.mark.parametrize(
        "spec", ["l6", "linear2", "linear7", "ring5", "grid2x3", "grid3x1"]
    )
    def test_trap_count_read_off_the_spec(self, spec):
        assert spec_num_traps(spec) == machine_from_spec(spec).num_traps

    @pytest.mark.parametrize(
        "spec", ["warp9", "linear", "linearx", "grid2", "grid2x", "L6", 6]
    )
    def test_malformed_spec_rejected(self, spec):
        with pytest.raises(ValueError, match="unknown machine"):
            spec_num_traps(spec)
        with pytest.raises(ValueError, match="unknown machine"):
            machine_from_spec(spec)

    def test_unbuildable_size_rejected(self):
        with pytest.raises(ValueError, match="unknown machine"):
            machine_from_spec("linear0")
