"""Shuttle-direction policy tests, including the paper's worked examples."""

import pytest

from repro.arch import linear_topology, uniform_machine
from repro.circuits.gate import Gate
from repro.compiler.policies import (
    ExcessCapacityPolicy,
    FutureOpsPolicy,
    ShuttleDecision,
    excess_capacity_decision,
    make_policy,
)
from repro.core.state import MachineState

from future_util import future_view


def two_trap_state(chains, capacity=4, comm=1):
    machine = uniform_machine(linear_topology(2), capacity, comm)
    return MachineState(machine, chains)


def fig4_state():
    """Fig. 4's setup: capacity 4, T0 = [0, 1], T1 = [2, 3, 4]."""
    return two_trap_state({0: [0, 1], 1: [2, 3, 4]})


def fig4_program():
    """Gates A-D of Fig. 4."""
    return [
        Gate("ms", (1, 2)),  # A
        Gate("ms", (2, 3)),  # B
        Gate("ms", (1, 2)),  # C
        Gate("ms", (2, 4)),  # D
    ]


class TestExcessCapacityPolicy:
    """Listing 1 semantics, verified against the Fig. 4 walk-through."""

    def test_fig4_gate_a_moves_ion2_to_t0(self):
        state = fig4_state()
        # EC(T0)=2 > EC(T1)=1 -> the T1 ion moves into T0.
        decision = excess_capacity_decision(1, 2, state)
        assert decision == ShuttleDecision(ion=2, src=1, dst=0)

    def test_moves_into_roomier_trap(self):
        state = two_trap_state({0: [0], 1: [1, 2, 3]})
        # EC(T0)=3 > EC(T1)=1: second ion comes to T0.
        assert excess_capacity_decision(0, 1, state).ion == 1
        # Mirrored: EC(T0) < EC(T1) moves the first ion to T1.
        state2 = two_trap_state({0: [0, 1, 2], 1: [3]})
        assert excess_capacity_decision(0, 3, state2) == ShuttleDecision(
            ion=0, src=0, dst=1
        )

    def test_tie_moves_first_ion(self):
        state = two_trap_state({0: [0, 1], 1: [2, 3]})
        decision = excess_capacity_decision(0, 2, state)
        assert decision == ShuttleDecision(ion=0, src=0, dst=1)

    def test_fig4_full_sequence_ping_pongs(self):
        """Replaying Fig. 4: the EC policy shuttles on every gate."""
        state = fig4_state()
        policy = ExcessCapacityPolicy()
        shuttles = 0
        for gate in fig4_program():
            a, b = gate.qubits
            if state.trap_of(a) == state.trap_of(b):
                continue
            decision = policy.decide(gate, state, future_view([]))
            state.detach_ion(decision.ion)
            state.attach_ion(decision.ion, decision.dst)
            shuttles += 1
        assert shuttles == 4  # the paper's count for the baseline

    def test_policy_object_matches_function(self):
        state = fig4_state()
        gate = Gate("ms", (1, 2))
        assert ExcessCapacityPolicy().decide(
            gate, state, future_view([])
        ) == excess_capacity_decision(1, 2, state)


class TestFutureOpsScores:
    """Table I of the paper: move-score computation for Fig. 4 gate A."""

    def test_table1_scores(self):
        state = fig4_state()
        policy = FutureOpsPolicy(proximity=6, proximity_metric="gates")
        upcoming = fig4_program()[1:]  # gates B, C, D
        scores = policy.move_scores(1, 2, state, future_view(upcoming))
        assert scores.a_to_b == 3  # ionA(A->B): C counts 1, B and D count 2
        assert scores.b_to_a == 1  # ionB(B->A): C counts 1

    def test_fig4_optimized_needs_one_shuttle(self):
        """Future-ops moves ion 1 once; gates B-D then run in T1."""
        state = fig4_state()
        policy = FutureOpsPolicy(
            proximity=6, proximity_metric="gates", capacity_guard=0
        )
        program = fig4_program()
        shuttles = 0
        for position, gate in enumerate(program):
            a, b = gate.qubits
            if state.trap_of(a) == state.trap_of(b):
                continue
            decision = policy.decide(
                gate, state, future_view(program[position + 1 :])
            )
            state.detach_ion(decision.ion)
            state.attach_ion(decision.ion, decision.dst)
            shuttles += 1
        assert shuttles == 1  # the paper's count for this work

    def test_symmetric_pair_counts_both_directions(self):
        state = fig4_state()
        policy = FutureOpsPolicy(proximity=None)
        # A repeat of the same gate counts +1 on both scores.
        scores = policy.move_scores(
            1, 2, state, future_view([Gate("ms", (1, 2))])
        )
        assert scores.a_to_b == 1
        assert scores.b_to_a == 1


class TestProximityCutoff:
    def make_wide_state(self):
        machine = uniform_machine(linear_topology(2), 8, 1)
        return MachineState(machine, {0: [0, 1, 2, 3], 1: [4, 5, 6, 7]})

    def test_gate_metric_cutoff(self):
        """Fig. 5: a gap longer than the proximity excludes later gates."""
        state = self.make_wide_state()
        policy = FutureOpsPolicy(proximity=2, proximity_metric="gates")
        filler = [Gate("ms", (2, 3))] * 3  # gap of 3 > 2
        upcoming = filler + [Gate("ms", (0, 4))]
        scores = policy.move_scores(0, 4, state, future_view(upcoming))
        assert scores.a_to_b == 0
        assert scores.b_to_a == 0

    def test_gate_metric_within_window(self):
        state = self.make_wide_state()
        policy = FutureOpsPolicy(proximity=3, proximity_metric="gates")
        filler = [Gate("ms", (2, 3))] * 3  # gap of exactly 3 <= 3
        upcoming = filler + [Gate("ms", (0, 5))]
        scores = policy.move_scores(0, 4, state, future_view(upcoming))
        assert scores.a_to_b == 1  # partner 5 lives in trap B

    def test_layer_metric_cutoff(self):
        state = self.make_wide_state()
        policy = FutureOpsPolicy(proximity=2, proximity_metric="layers")
        # Relevant gate 5 layers after the active gate: excluded.
        upcoming = [(Gate("ms", (0, 5)), 5)]
        scores = policy.move_scores(
            0, 4, state, future_view(upcoming), active_layer=0
        )
        assert scores.a_to_b == 0

    def test_layer_metric_chained_window(self):
        state = self.make_wide_state()
        policy = FutureOpsPolicy(proximity=2, proximity_metric="layers")
        # Each relevant gate within 2 layers of the previous one: the
        # window slides along and all three count.
        upcoming = [
            (Gate("ms", (0, 5)), 2),
            (Gate("ms", (0, 6)), 4),
            (Gate("ms", (0, 7)), 6),
        ]
        scores = policy.move_scores(
            0, 4, state, future_view(upcoming), active_layer=0
        )
        assert scores.a_to_b == 3

    def test_unbounded_proximity(self):
        state = self.make_wide_state()
        policy = FutureOpsPolicy(proximity=None)
        filler = [Gate("ms", (2, 3))] * 50
        upcoming = filler + [Gate("ms", (0, 5))]
        scores = policy.move_scores(0, 4, state, future_view(upcoming))
        assert scores.a_to_b == 1

    def test_proximity_zero_still_sees_adjacent(self):
        state = self.make_wide_state()
        policy = FutureOpsPolicy(proximity=0, proximity_metric="gates")
        upcoming = [Gate("ms", (0, 5)), Gate("ms", (2, 3)), Gate("ms", (0, 6))]
        scores = policy.move_scores(0, 4, state, future_view(upcoming))
        assert scores.a_to_b == 1  # second relevant gate behind a gap


class TestDecideAndGuard:
    def test_higher_score_wins(self):
        state = fig4_state()
        policy = FutureOpsPolicy(
            proximity=6, proximity_metric="gates", capacity_guard=0
        )
        decision = policy.decide(
            Gate("ms", (1, 2)), state, future_view(fig4_program()[1:])
        )
        assert decision == ShuttleDecision(ion=1, src=0, dst=1)

    def test_tie_falls_back_to_excess_capacity(self):
        state = fig4_state()
        policy = FutureOpsPolicy(proximity=6)
        decision = policy.decide(
            Gate("ms", (1, 2)), state, future_view([])
        )
        assert decision == excess_capacity_decision(1, 2, state)

    def test_tie_first_ion_option(self):
        state = fig4_state()
        policy = FutureOpsPolicy(proximity=6, tie_break="first-ion")
        decision = policy.decide(
            Gate("ms", (1, 2)), state, future_view([])
        )
        assert decision.ion == 1

    def test_capacity_guard_vetoes_tight_destination(self):
        # T1 has EC=1; with guard=1 the winning direction flips.
        state = fig4_state()
        policy = FutureOpsPolicy(
            proximity=6, proximity_metric="gates", capacity_guard=1
        )
        decision = policy.decide(
            Gate("ms", (1, 2)), state, future_view(fig4_program()[1:])
        )
        assert decision == ShuttleDecision(ion=2, src=1, dst=0)

    def test_score_decay_weights_near_future(self):
        state = fig4_state()
        policy = FutureOpsPolicy(
            proximity=None, score_decay=0.5, proximity_metric="layers"
        )
        upcoming = [(Gate("ms", (1, 3)), 1), (Gate("ms", (1, 3)), 4)]
        scores = policy.move_scores(
            1, 2, state, future_view(upcoming), active_layer=0
        )
        assert scores.a_to_b == pytest.approx(0.5 + 0.5**4)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            FutureOpsPolicy(proximity=-1)
        with pytest.raises(ValueError):
            FutureOpsPolicy(tie_break="nope")
        with pytest.raises(ValueError):
            FutureOpsPolicy(proximity_metric="nope")
        with pytest.raises(ValueError):
            FutureOpsPolicy(capacity_guard=-1)
        with pytest.raises(ValueError):
            FutureOpsPolicy(score_decay=0.0)

    def test_make_policy(self):
        assert isinstance(
            make_policy("excess-capacity", None, "excess-capacity"),
            ExcessCapacityPolicy,
        )
        policy = make_policy("future-ops", 6, "first-ion", "gates", 2, 0.9)
        assert isinstance(policy, FutureOpsPolicy)
        assert policy.proximity == 6
        assert policy.capacity_guard == 2
        with pytest.raises(ValueError):
            make_policy("nope", None, "first-ion")
