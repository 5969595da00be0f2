"""Router tests: multi-hop routes and traffic-block resolution."""

import pytest

from repro.arch import linear_topology, uniform_machine
from repro.circuits.gate import Gate
from repro.compiler.config import CompilerConfig
from repro.compiler.routing import Router
from repro.compiler import CompilationError, compile_circuit
from repro.core.ops import MergeOp, MoveOp, ShuttleReason, SplitOp
from repro.core.state import MachineState
from repro.passes import verify_schedule
from repro.sim.schedule import Schedule

from corpus_util import CORPUS_CONFIGS, CORPUS_MACHINES, CORPUS_SEEDS
from corpus_util import corpus_circuit
from future_util import future_view


def make_router(chains, traps=4, capacity=3, comm=1, config=None, upcoming=()):
    machine = uniform_machine(linear_topology(traps), capacity, comm)
    state = MachineState(machine, chains)
    schedule = Schedule()
    router = Router(
        state,
        schedule,
        config or CompilerConfig.optimized(),
        upcoming_factory=lambda: future_view(upcoming),
    )
    return router, state, schedule


class TestPlainRoutes:
    def test_single_hop(self):
        router, state, schedule = make_router({0: [0], 1: [1]})
        moves = router.route(0, 1, ShuttleReason.GATE, frozenset())
        assert moves == 1
        kinds = [op.kind for op in schedule]
        assert kinds == ["split", "move", "merge"]
        assert state.trap_of(0) == 1

    def test_multi_hop(self):
        router, state, schedule = make_router({0: [0], 3: [1]})
        moves = router.route(0, 3, ShuttleReason.GATE, frozenset())
        assert moves == 3
        assert state.trap_of(0) == 3
        move_ops = [op for op in schedule if isinstance(op, MoveOp)]
        assert [(m.src, m.dst) for m in move_ops] == [(0, 1), (1, 2), (2, 3)]

    def test_noop_route(self):
        router, state, schedule = make_router({0: [0]})
        assert router.route(0, 0, ShuttleReason.GATE, frozenset()) == 0
        assert len(schedule) == 0

    def test_reason_propagated(self):
        router, _, schedule = make_router({0: [0], 1: [1]})
        router.route(0, 1, ShuttleReason.REBALANCE, frozenset())
        assert all(op.reason == ShuttleReason.REBALANCE for op in schedule)


class TestTrafficBlocks:
    def test_blocked_intermediate_trap_resolved(self):
        """Fig. 7: the route passes through a full trap, which must
        first evict one ion."""
        chains = {0: [0], 1: [1, 2, 3], 2: [4], 3: []}
        router, state, schedule = make_router(chains, capacity=3)
        moves = router.route(0, 2, ShuttleReason.GATE, frozenset())
        # 2 hops for ion 0 plus at least 1 eviction hop out of trap 1.
        assert moves >= 3
        assert router.num_rebalances == 1
        assert state.trap_of(0) == 2
        assert state.occupancy(1) <= 3

    def test_full_destination_resolved(self):
        chains = {0: [0], 1: [1, 2, 3]}
        router, state, schedule = make_router(chains, traps=3, capacity=3)
        router.route(0, 1, ShuttleReason.GATE, frozenset())
        assert state.trap_of(0) == 1
        assert router.num_rebalances == 1

    def test_pinned_ion_not_evicted(self):
        chains = {0: [0], 1: [1, 2, 3]}
        router, state, schedule = make_router(
            chains, traps=3, capacity=3
        )
        router.route(0, 1, ShuttleReason.GATE, frozenset({1}))
        assert state.trap_of(1) == 1  # pinned partner stayed

    def test_both_full_resolves_via_freed_source_slot(self):
        # Two traps, both full: splitting the routed ion frees a slot
        # in the source, so the destination's evictee can land there.
        machine_chains = {0: [0, 1, 2], 1: [3, 4, 5]}
        router, state, _ = make_router(machine_chains, traps=2, capacity=3)
        router.route(0, 1, ShuttleReason.GATE, frozenset())
        assert state.trap_of(0) == 1

    def test_unresolvable_when_every_evictee_pinned(self):
        machine_chains = {0: [0, 1, 2], 1: [3, 4, 5]}
        router, _, _ = make_router(machine_chains, traps=2, capacity=3)
        with pytest.raises(CompilationError):
            router.route(
                0, 1, ShuttleReason.GATE, frozenset({1, 2, 3, 4, 5})
            )

    def test_eviction_respects_strategy(self):
        # lowest-index sends the evicted ion toward trap 0 even when a
        # nearer free trap exists on the other side.
        chains = {0: [0], 1: [1], 2: [2, 3, 4], 3: []}
        config = CompilerConfig.baseline()
        router, state, schedule = make_router(
            chains, traps=4, capacity=3, config=config
        )
        router.route(0, 2, ShuttleReason.GATE, frozenset())
        rebalance_moves = [
            op
            for op in schedule
            if isinstance(op, MoveOp) and op.reason == ShuttleReason.REBALANCE
        ]
        # Baseline: evicted ion goes to trap 0 side (first with room).
        assert rebalance_moves[0].dst < 2

    def test_cheap_evict_requires_free_neighbor(self):
        chains = {0: [0, 1, 2], 1: [3, 4, 5]}
        router, _, _ = make_router(chains, traps=2, capacity=3)
        assert router.cheap_evict(0, frozenset()) is False

    def test_cheap_evict_moves_one_ion(self):
        chains = {0: [0, 1, 2], 1: []}
        router, state, schedule = make_router(chains, traps=2, capacity=3)
        assert router.cheap_evict(0, frozenset()) is True
        assert state.occupancy(0) == 2
        assert schedule.num_shuttles == 1

    def test_cheap_evict_skips_anchored_ions(self):
        # Every ion in the full trap has near-future work there:
        # the eviction is declined.
        chains = {0: [0, 1, 2], 1: []}
        upcoming = [Gate("ms", (0, 1)), Gate("ms", (1, 2)), Gate("ms", (0, 2))]
        router, _, _ = make_router(
            chains, traps=2, capacity=3, upcoming=upcoming
        )
        assert router.cheap_evict(0, frozenset()) is False


class TestRefilledBlock:
    """A nested eviction can refill the blocked trap it just freed; the
    ion in transit must not then move into the full trap."""

    def test_nested_eviction_refill_is_resolved(self):
        # Ion 6 leaves trap 0, and the eviction resolving its own block
        # sends ion 9 into trap 0; ion 0 in transit then found trap 0
        # full again ("op 138: ion 0 moved into full trap 0").
        circuit, machine = corpus_circuit("grid2x3", 2)
        result = compile_circuit(circuit, machine, CompilerConfig.baseline())
        verify_schedule(machine, result.schedule, result.initial_chains)

    def test_trap_that_stays_full_raises(self, monkeypatch):
        monkeypatch.setattr(Router, "_resolve_block", lambda *args: 0)
        router, _, _ = make_router({0: [0], 1: [1, 2, 3]})
        with pytest.raises(CompilationError, match="stayed full"):
            router.route(0, 2, ShuttleReason.GATE, frozenset())


@pytest.mark.parametrize("config", sorted(CORPUS_CONFIGS))
@pytest.mark.parametrize("machine_name", sorted(CORPUS_MACHINES))
def test_corpus_compiles_are_legal(machine_name, config):
    """Every compiler configuration emits a legal schedule on every
    small, congested corpus machine."""
    for seed in CORPUS_SEEDS:
        circuit, machine = corpus_circuit(machine_name, seed)
        result = compile_circuit(circuit, machine, CORPUS_CONFIGS[config]())
        verify_schedule(machine, result.schedule, result.initial_chains)
