"""Traffic-block resolution tests (Section III-C / Algorithm 2)."""

import pytest

from repro.arch import linear_topology, uniform_machine
from repro.circuits.gate import Gate
from repro.compiler.rebalance import (
    max_score_with_value,
    select_destination_trap,
    select_eviction,
    select_ion_chain_head,
    select_ion_max_score,
)
from repro.compiler import CompilationError
from repro.core.state import MachineState

from future_util import future_view


def fig7_state():
    """Fig. 7's setup: L6 with T4 full.

    ECs in the figure: T0=2, T1=1, T2=4, T3=2, T4=0, T5=5.  With
    capacity 5 that means occupancies 3, 4, 1, 3, 5, 0.
    """
    machine = uniform_machine(linear_topology(6), 5, 1)
    chains = {
        0: [0, 1, 2],
        1: [3, 4, 5, 6],
        2: [7],
        3: [8, 9, 10],
        4: [11, 12, 13, 14, 15],
        5: [],
    }
    return MachineState(machine, chains)


class TestDestinationSelection:
    def test_lowest_index_reproduces_fig7_problem(self):
        """The [7] logic scans from trap 0 and picks T0 (4 shuttles away)."""
        state = fig7_state()
        assert select_destination_trap(state, 4, "lowest-index") == 0

    def test_nearest_reproduces_fig7_fix(self):
        """Algorithm 2 picks a free direct neighbour of T4 (1 shuttle)."""
        state = fig7_state()
        destination = select_destination_trap(state, 4, "nearest")
        assert destination in (3, 5)
        assert state.machine.topology.distance(4, destination) == 1

    def test_nearest_tie_breaks_to_lower_id(self):
        state = fig7_state()
        assert select_destination_trap(state, 4, "nearest") == 3

    def test_full_traps_excluded(self):
        machine = uniform_machine(linear_topology(3), 2, 1)
        state = MachineState(machine, {0: [0, 1], 1: [2, 3], 2: []})
        assert select_destination_trap(state, 0, "nearest") == 2

    def test_exclude_parameter(self):
        state = fig7_state()
        destination = select_destination_trap(
            state, 4, "nearest", exclude=frozenset({3})
        )
        assert destination == 5

    def test_no_destination_raises(self):
        machine = uniform_machine(linear_topology(2), 2, 1)
        state = MachineState(machine, {0: [0, 1], 1: [2, 3]})
        with pytest.raises(CompilationError):
            select_destination_trap(state, 0, "nearest")

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            select_destination_trap(fig7_state(), 4, "nope")


class TestIonSelection:
    def test_chain_head(self):
        state = fig7_state()
        assert select_ion_chain_head(state, 4, frozenset()) == 11

    def test_chain_head_skips_pinned(self):
        state = fig7_state()
        assert select_ion_chain_head(state, 4, frozenset({11, 12})) == 13

    def test_chain_head_all_pinned_raises(self):
        state = fig7_state()
        with pytest.raises(CompilationError):
            select_ion_chain_head(state, 4, frozenset(range(11, 16)))

    def test_max_score_prefers_destination_gates(self):
        state = fig7_state()
        # Ion 12 has two upcoming gates with partners in T5... T5 is
        # empty, so use T3 as destination: partner 8 lives there.
        upcoming = [Gate("ms", (12, 8)), Gate("ms", (12, 9))]
        ion = select_ion_max_score(
            state, 4, 3, frozenset(), future_view(upcoming), window=16
        )
        assert ion == 12

    def test_max_score_avoids_source_anchored_ions(self):
        state = fig7_state()
        # Ion 11 has gates inside T4 (partner 12): keep it there.
        upcoming = [Gate("ms", (11, 12)), Gate("ms", (11, 13))]
        ion = select_ion_max_score(
            state, 4, 3, frozenset(), future_view(upcoming), window=16
        )
        assert ion != 11

    def test_max_score_value_signs(self):
        state = fig7_state()
        # dest_count > source_count: positive score
        _, score = max_score_with_value(
            state, 4, 3, frozenset(), future_view([Gate("ms", (12, 8))]), 16
        )
        assert score > 0
        # no gates at all: score 0 under the tie weights
        _, score0 = max_score_with_value(
            state, 4, 3, frozenset(), future_view([]), 16
        )
        assert score0 == 0.0

    def test_tie_weights_give_negative_score(self):
        """Equal dest/source counts use wd=0.49/ws=0.51 => score < 0."""
        state = fig7_state()
        upcoming = [Gate("ms", (12, 8)), Gate("ms", (12, 13))]
        counts_equal_ion = 12  # one dest (8 in T3), one source (13 in T4)
        eligible = {
            ion: max_score_with_value(
                state, 4, 3, frozenset({i for i in range(11, 16) if i != ion}),
                future_view(upcoming), 16,
            )[1]
            for ion in [counts_equal_ion]
        }
        assert eligible[counts_equal_ion] == pytest.approx(0.49 - 0.51)

    def test_window_limits_scan(self):
        state = fig7_state()
        filler = [Gate("ms", (0, 1))] * 20
        upcoming = filler + [Gate("ms", (12, 8))]
        # window smaller than the filler: the informative gate is unseen
        ion = select_ion_max_score(
            state, 4, 3, frozenset(), future_view(upcoming), window=5
        )
        assert ion == 11  # falls back to first (all scores equal)

    def test_transit_partner_skipped(self):
        state = fig7_state()
        # Partner 99 is not mapped anywhere (in transit): no crash.
        upcoming = [Gate("ms", (12, 99))]
        ion = select_ion_max_score(
            state, 4, 3, frozenset(), future_view(upcoming), window=16
        )
        assert ion in state.chains[4] or ion in range(11, 16)


class TestSelectEviction:
    def test_combined(self):
        state = fig7_state()
        ion, destination = select_eviction(
            state,
            4,
            strategy="nearest",
            ion_selection="max-score",
            pinned=frozenset(),
            upcoming=future_view([Gate("ms", (12, 8))]),
            window=16,
        )
        assert destination == 3
        assert ion == 12

    def test_unknown_ion_selection(self):
        with pytest.raises(ValueError):
            select_eviction(
                fig7_state(),
                4,
                strategy="nearest",
                ion_selection="nope",
                pinned=frozenset(),
                upcoming=future_view([]),
                window=16,
            )
