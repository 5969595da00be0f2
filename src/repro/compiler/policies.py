"""Shuttle direction policies (Section III-A).

Given a two-qubit gate whose ions sit in different traps, a policy
decides *which* ion moves.  Two policies are implemented:

* :class:`ExcessCapacityPolicy` — Listing 1 of [7]: move the ion into
  the trap with more excess capacity; when ECs tie, move the gate's
  first ion.  The paper's Fig. 4 shows how this ping-pongs ions.
* :class:`FutureOpsPolicy` — this work (Section III-A2): compute a
  *move score* for each direction by counting near-future gates that the
  direction satisfies, bounded by the *gate proximity* cutoff
  (Section III-A3), and move the ion with the higher score.  Ties fall
  back to the configured tie-break rule.

The proximity *distance* between two gates involving the active ions is
ambiguous in the paper (its Fig. 5 walk-through is consistent with both
readings), so both are implemented:

* ``"layers"`` (default): distance = dependency-DAG layer difference
  between consecutive relevant gates.  Scale-invariant: "6" means six
  circuit time-steps whether the circuit is 12 or 78 qubits wide.
* ``"gates"``: distance = number of intervening gates in the remaining
  program stream, the most literal reading of Fig. 5.

The ablation harness (DESIGN.md experiment E4) sweeps both.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..circuits.gate import Gate
from ..core.state import MachineState
from .future_index import FutureView


@dataclass(frozen=True)
class ShuttleDecision:
    """Outcome of a direction decision: move ``ion`` from ``src`` to ``dst``."""

    ion: int
    src: int
    dst: int


@dataclass(frozen=True)
class MoveScores:
    """The two move scores of Section III-A2 (exposed for tests/reports)."""

    a_to_b: int
    b_to_a: int


def excess_capacity_decision(
    ion_a: int, ion_b: int, state: MachineState
) -> ShuttleDecision:
    """Listing 1 of [7], verbatim semantics.

    ``trap0``/``trap1`` are the traps of the gate's first/second ion.
    ``EC(trap0) < EC(trap1)`` moves the first ion into trap1 (the roomier
    trap); equality also moves the first ion; otherwise the second ion
    moves into trap0.
    """
    trap0 = state.trap_of(ion_a)
    trap1 = state.trap_of(ion_b)
    capacities = state.capacities
    chains = state.chains
    ec0 = capacities[trap0] - len(chains[trap0])
    ec1 = capacities[trap1] - len(chains[trap1])
    if ec0 < ec1:
        return ShuttleDecision(ion=ion_a, src=trap0, dst=trap1)
    if ec0 == ec1:
        return ShuttleDecision(ion=ion_a, src=trap0, dst=trap1)
    return ShuttleDecision(ion=ion_b, src=trap1, dst=trap0)


class ExcessCapacityPolicy:
    """The baseline policy of [7] (Listing 1)."""

    name = "excess-capacity"

    def decide(
        self,
        gate: Gate,
        state: MachineState,
        upcoming: FutureView,
        active_layer: int | None = None,
    ) -> ShuttleDecision:
        """Pick the direction; ``upcoming`` is ignored by this policy."""
        ion_a, ion_b = gate.qubits
        return excess_capacity_decision(ion_a, ion_b, state)

    def favoured(
        self,
        gate: Gate,
        state: MachineState,
        upcoming: FutureView,
        active_layer: int | None = None,
    ) -> ShuttleDecision:
        """Same as :meth:`decide`: the EC rule has no separate notion of
        a score-favoured direction."""
        return self.decide(gate, state, upcoming, active_layer)


class FutureOpsPolicy:
    """Future-operations-based policy (Section III-A2 + III-A3).

    Parameters
    ----------
    proximity:
        Gate-proximity cutoff: scanning the upcoming gate sequence stops
        once the distance since the last relevant gate exceeds
        ``proximity`` (Fig. 5).  ``None`` scans the whole remaining
        program.
    proximity_metric:
        ``"layers"`` (distance = DAG-layer difference, default) or
        ``"gates"`` (distance = intervening gate count); see the module
        docstring.
    tie_break:
        ``"excess-capacity"`` (default) or ``"first-ion"`` when the two
        move scores are equal.
    capacity_guard:
        Riding an ion into a trap whose excess capacity is at or below
        this value is vetoed; the decision falls back to the opposite
        direction (if allowed) and then the excess-capacity rule.  The
        default of 1 keeps one slot of every trap free — the lesson of
        the machine model's *communication capacity* — and prevents the
        score-driven pile-ups into nearly-full traps that would
        otherwise trigger re-balancing storms (measured in the E5
        ablation).  0 disables the veto.
    score_decay:
        Geometric per-layer weight applied to future gates when scoring
        (1.0 = paper's unweighted counts, default).  Values < 1
        emphasize the immediate future; an extension studied in the E4
        ablation.
    """

    name = "future-ops"

    def __init__(
        self,
        proximity: int | None = 6,
        tie_break: str = "excess-capacity",
        proximity_metric: str = "layers",
        capacity_guard: int = 1,
        score_decay: float = 1.0,
    ) -> None:
        if proximity is not None and proximity < 0:
            raise ValueError("proximity must be non-negative or None")
        if tie_break not in ("excess-capacity", "first-ion"):
            raise ValueError(f"unknown tie_break {tie_break!r}")
        if proximity_metric not in ("layers", "gates"):
            raise ValueError(f"unknown proximity_metric {proximity_metric!r}")
        if capacity_guard < 0:
            raise ValueError("capacity_guard must be non-negative")
        if not 0.0 < score_decay <= 1.0:
            raise ValueError("score_decay must be in (0, 1]")
        self.proximity = proximity
        self.tie_break = tie_break
        self.proximity_metric = proximity_metric
        self.capacity_guard = capacity_guard
        self.score_decay = score_decay

    def move_scores(
        self,
        ion_a: int,
        ion_b: int,
        state: MachineState,
        upcoming: FutureView,
        active_layer: int | None = None,
    ) -> MoveScores:
        """Compute the Section III-A2 move scores over ``upcoming``.

        * ``a_to_b`` = # upcoming ion_a-gates whose partner is in trap_b
          + # upcoming ion_b-gates whose partner is in trap_b
        * ``b_to_a`` = the mirror with trap_a

        Partner traps are evaluated at the *current* mapping.  The scan
        visits the upcoming two-qubit gates in execution order and
        stops once the distance from the last relevant gate exceeds the
        proximity cutoff.  It merge-walks only the two active ions'
        indexed gate lists — O(window on those lists), not O(remaining
        program).  Only gates involving ``ion_a`` or ``ion_b`` can
        contribute to a score, and — thanks to the index's
        layer-monotone pending invariant — only they can terminate the
        scan either: an irrelevant gate breaching the ``"layers"``
        cutoff implies the next relevant gate breaches it too, and
        ``"gates"``-metric gaps are reconstructed exactly from the
        per-node two-qubit ranks (DESIGN.md §8).

        Results are memoized per mapping epoch: ``favoured``, the
        compiler's ``_score_margin`` and ``decide`` ask for the same
        scores back to back, and the epoch key invalidates them the
        moment an eviction moves an ion.
        """
        index = upcoming.index
        if state.epoch != index.memo_epoch:
            index.score_memo.clear()
            index.memo_epoch = state.epoch
        memo_key = (ion_a, ion_b, upcoming.start, upcoming.exclude)
        cached = index.score_memo.get(memo_key)
        if cached is not None:
            index.num_memo_hits += 1
            return cached
        index.num_score_passes += 1

        trap_a = state.trap_of(ion_a)
        trap_b = state.trap_of(ion_b)
        # Partner placements are read straight off the state's ion ->
        # trap list: partners are circuit qubits (never negative), so
        # an IndexError or a negative entry is exactly where trap_of
        # would raise, and it is asked to raise there.
        lookup = state._trap_of
        score_ab = 0.0
        score_ba = 0.0
        proximity = self.proximity
        use_layers = self.proximity_metric == "layers"
        use_decay = self.score_decay < 1.0
        track_gaps = proximity is not None and not use_layers
        last_relevant_layer = active_layer

        nodes_a, partners_a, ia = index.ion_stream(ion_a)
        nodes_b, partners_b, ib = index.ion_stream(ion_b)
        end_a = len(nodes_a)
        end_b = len(nodes_b)
        order_key = index.order_key
        node_layer = index.node_layer
        rank2q = index.rank2q
        start = upcoming.start
        exclude = upcoming.exclude
        exclude_key = order_key[exclude] if exclude is not None else None
        # "gates" metric: rank of the last relevant gate; seeded one
        # before the window origin so the first gap comes out as the
        # number of two-qubit gates between the window start and the
        # first relevant gate, exactly like the stream scan's counter.
        previous_rank = upcoming.rank_start - 1

        while True:
            while ia < end_a and (
                order_key[nodes_a[ia]] < start or nodes_a[ia] == exclude
            ):
                ia += 1
            while ib < end_b and (
                order_key[nodes_b[ib]] < start or nodes_b[ib] == exclude
            ):
                ib += 1
            key_a = order_key[nodes_a[ia]] if ia < end_a else None
            key_b = order_key[nodes_b[ib]] if ib < end_b else None
            if key_a is None and key_b is None:
                break
            if key_b is None or (key_a is not None and key_a <= key_b):
                node = nodes_a[ia]
                a_in = True
                b_in = key_a == key_b
            else:
                node = nodes_b[ib]
                a_in = False
                b_in = True

            layer = node_layer[node]
            if use_layers:
                if (
                    proximity is not None
                    and last_relevant_layer is not None
                    and layer - last_relevant_layer > proximity
                ):
                    break
            elif track_gaps:
                rank = rank2q[node]
                if exclude_key is not None and exclude_key < order_key[node]:
                    rank -= 1
                if rank - previous_rank - 1 > proximity:
                    break
                previous_rank = rank
            last_relevant_layer = layer

            weight = 1.0
            if use_decay and active_layer is not None:
                weight = self.score_decay ** max(0, layer - active_layer)
            if a_in:
                partner = partners_a[ia]
                try:
                    partner_trap = lookup[partner]
                except IndexError:
                    partner_trap = -1
                if partner_trap < 0:
                    state.trap_of(partner)  # raises "not mapped"
                if partner_trap == trap_b:
                    score_ab += weight
                if partner_trap == trap_a:
                    score_ba += weight
                ia += 1
            if b_in:
                partner = partners_b[ib]
                try:
                    partner_trap = lookup[partner]
                except IndexError:
                    partner_trap = -1
                if partner_trap < 0:
                    state.trap_of(partner)  # raises "not mapped"
                if partner_trap == trap_b:
                    score_ab += weight
                if partner_trap == trap_a:
                    score_ba += weight
                ib += 1

        scores = MoveScores(a_to_b=score_ab, b_to_a=score_ba)
        index.score_memo[memo_key] = scores
        return scores

    def favoured(
        self,
        gate: Gate,
        state: MachineState,
        upcoming: FutureView,
        active_layer: int | None = None,
    ) -> ShuttleDecision:
        """The raw score-favoured direction (Section III-A2), with no
        capacity considerations.

        This is what Algorithm 1 consults: the favourable direction may
        point into a *full* trap, which is exactly the situation gate
        re-ordering exists to resolve.
        """
        ion_a, ion_b = gate.qubits
        trap_a = state.trap_of(ion_a)
        trap_b = state.trap_of(ion_b)
        scores = self.move_scores(ion_a, ion_b, state, upcoming, active_layer)
        if scores.a_to_b > scores.b_to_a:
            return ShuttleDecision(ion=ion_a, src=trap_a, dst=trap_b)
        if scores.b_to_a > scores.a_to_b:
            return ShuttleDecision(ion=ion_b, src=trap_b, dst=trap_a)
        if self.tie_break == "first-ion":
            return ShuttleDecision(ion=ion_a, src=trap_a, dst=trap_b)
        return excess_capacity_decision(ion_a, ion_b, state)

    def decide(
        self,
        gate: Gate,
        state: MachineState,
        upcoming: FutureView,
        active_layer: int | None = None,
    ) -> ShuttleDecision:
        """Pick the direction with the larger move score (Section III-A2).

        A direction is only taken when it leaves more than
        ``capacity_guard`` free slots in its destination; a vetoed
        winner falls back to the opposite direction (same test) and
        finally to the excess-capacity rule, which is inherently
        capacity-safe.
        """
        ion_a, ion_b = gate.qubits
        trap_a = state.trap_of(ion_a)
        trap_b = state.trap_of(ion_b)
        scores = self.move_scores(ion_a, ion_b, state, upcoming, active_layer)

        def roomy(trap: int) -> bool:
            return state.excess_capacity(trap) > self.capacity_guard

        if scores.a_to_b > scores.b_to_a:
            if roomy(trap_b):
                return ShuttleDecision(ion=ion_a, src=trap_a, dst=trap_b)
            if roomy(trap_a):
                return ShuttleDecision(ion=ion_b, src=trap_b, dst=trap_a)
        elif scores.b_to_a > scores.a_to_b:
            if roomy(trap_a):
                return ShuttleDecision(ion=ion_b, src=trap_b, dst=trap_a)
            if roomy(trap_b):
                return ShuttleDecision(ion=ion_a, src=trap_a, dst=trap_b)
        elif self.tie_break == "first-ion":
            return ShuttleDecision(ion=ion_a, src=trap_a, dst=trap_b)
        return excess_capacity_decision(ion_a, ion_b, state)


def make_policy(
    shuttle_policy: str,
    proximity: int | None,
    tie_break: str,
    proximity_metric: str = "layers",
    capacity_guard: int = 1,
    score_decay: float = 1.0,
) -> ExcessCapacityPolicy | FutureOpsPolicy:
    """Instantiate the policy named by a :class:`CompilerConfig`."""
    if shuttle_policy == "excess-capacity":
        return ExcessCapacityPolicy()
    if shuttle_policy == "future-ops":
        return FutureOpsPolicy(
            proximity=proximity,
            tie_break=tie_break,
            proximity_metric=proximity_metric,
            capacity_guard=capacity_guard,
            score_decay=score_decay,
        )
    raise ValueError(f"unknown shuttle policy {shuttle_policy!r}")
