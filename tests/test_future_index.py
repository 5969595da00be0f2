"""Property suite for the future-gate index (the compiler's hot path).

The :class:`~repro.compiler.future_index.FutureGateIndex` replaces the
per-decision rescan of the whole pending tail with per-ion gate-list
walks.  The engine's contract is *bit-identity*: indexed move scores,
eviction picks, Algorithm-1 re-order candidates and final schedules
must equal the tail scan's exactly, for every policy, proximity metric
and proximity cutoff.  This suite holds it to that on random circuits
over linear/ring/grid machines, comparing:

* the naive reference scans kept *in this test* (frozen copies of the
  pre-index stream algorithms, immune to refactors of the library),
* the library's indexed path through a :class:`FutureView`,
* for whole compilations, a literal table of digests recorded from the
  tail-scanning reference compiler before it was deleted.

It also pins the memoization contract: one scoring pass per cross-trap
decision (``favoured`` + ``decide`` share the per-(gate, mapping-epoch)
memo), with the counter-based regression test the re-decision double
scan used to evade.
"""

import hashlib
import random
import zlib

import pytest
from golden_util import schedule_digest

from repro.arch import grid_machine, linear_machine, ring_machine
from repro.circuits.circuit import Circuit
from repro.circuits.dag import DependencyDAG
from repro.compiler import CompilerConfig
from repro.compiler.compiler import QCCDCompiler
from repro.compiler.future_index import FutureGateIndex
from repro.compiler.mapping import greedy_initial_mapping
from repro.compiler.policies import (
    FutureOpsPolicy,
    MoveScores,
    ShuttleDecision,
    excess_capacity_decision,
)
from repro.compiler.rebalance import max_score_with_value
from repro.compiler.reorder import find_reorder_candidate
from repro.compiler.config import (
    DEFAULT_WEIGHT_DEST,
    DEFAULT_WEIGHT_SOURCE,
    TIE_WEIGHT_DEST,
    TIE_WEIGHT_SOURCE,
)
from repro.core.state import MachineState

MACHINES = {
    "linear": lambda: linear_machine(4, capacity=4, comm_capacity=1),
    "ring": lambda: ring_machine(5, capacity=4, comm_capacity=1),
    "grid": lambda: grid_machine(2, 3, capacity=4, comm_capacity=1),
}

PROXIMITIES = (0, 3, 6, None)


def random_circuit(rng: random.Random, num_qubits: int, num_gates: int):
    circuit = Circuit(num_qubits, name=f"fidx-{num_qubits}q")
    for _ in range(num_gates):
        if rng.random() < 0.2:
            circuit.add("x", rng.randrange(num_qubits))
        else:
            a, b = rng.sample(range(num_qubits), 2)
            circuit.add("ms", a, b)
    return circuit


def reference_move_scores(
    policy, ion_a, ion_b, state, stream, active_layer
) -> MoveScores:
    """The pre-index stream scan, frozen verbatim as the test oracle."""
    trap_a = state.trap_of(ion_a)
    trap_b = state.trap_of(ion_b)
    score_ab = 0.0
    score_ba = 0.0
    use_layers = policy.proximity_metric == "layers"
    use_decay = policy.score_decay < 1.0
    last_relevant_layer = active_layer
    gap = 0
    for gate, layer in stream:
        if not gate.is_two_qubit:
            continue
        qubits = gate.qubits
        a_in = ion_a in qubits
        b_in = ion_b in qubits
        if not a_in and not b_in:
            if policy.proximity is None:
                continue
            if use_layers:
                if (
                    last_relevant_layer is not None
                    and layer - last_relevant_layer > policy.proximity
                ):
                    break
            else:
                gap += 1
                if gap > policy.proximity:
                    break
            continue
        if (
            policy.proximity is not None
            and use_layers
            and last_relevant_layer is not None
            and layer - last_relevant_layer > policy.proximity
        ):
            break
        last_relevant_layer = layer
        gap = 0
        weight = 1.0
        if use_decay and active_layer is not None:
            weight = policy.score_decay ** max(0, layer - active_layer)
        for ion, present in ((ion_a, a_in), (ion_b, b_in)):
            if not present:
                continue
            partner = qubits[0] if qubits[1] == ion else qubits[1]
            partner_trap = state.trap_of(partner)
            if partner_trap == trap_b:
                score_ab += weight
            if partner_trap == trap_a:
                score_ba += weight
    return MoveScores(a_to_b=score_ab, b_to_a=score_ba)


def reference_favoured(policy, gate, state, stream, active_layer):
    """The score-favoured direction from :func:`reference_move_scores`,
    with ``FutureOpsPolicy.favoured``'s tie rules."""
    ion_a, ion_b = gate.qubits
    trap_a = state.trap_of(ion_a)
    trap_b = state.trap_of(ion_b)
    scores = reference_move_scores(
        policy, ion_a, ion_b, state, stream, active_layer
    )
    if scores.a_to_b > scores.b_to_a:
        return ShuttleDecision(ion=ion_a, src=trap_a, dst=trap_b)
    if scores.b_to_a > scores.a_to_b:
        return ShuttleDecision(ion=ion_b, src=trap_b, dst=trap_a)
    if policy.tie_break == "first-ion":
        return ShuttleDecision(ion=ion_a, src=trap_a, dst=trap_b)
    return excess_capacity_decision(ion_a, ion_b, state)


class Harness:
    """A mid-compile snapshot: prefix executed, everything else pending."""

    def __init__(self, rng, machine, num_qubits, num_gates):
        self.circuit = random_circuit(rng, num_qubits, num_gates)
        self.dag = DependencyDAG(self.circuit)
        self.pending = self.dag.topological_order()
        self.index = FutureGateIndex(
            self.dag, self.pending, self.circuit.num_qubits
        )
        chains = greedy_initial_mapping(self.circuit, machine)
        self.state = MachineState(machine, chains)
        self.executed: set[int] = set()
        self.pos = 0

    def advance(self, count: int) -> None:
        """Mark the next ``count`` pending gates executed (placement is
        left untouched — scoring only reads the current mapping)."""
        count = min(count, len(self.pending) - self.pos)
        for _ in range(count):
            node = self.pending[self.pos]
            self.executed.add(node)
            self.index.mark_executed(
                node, self.dag.gate(node).is_two_qubit
            )
            self.pos += 1

    def stream(self, start: int, exclude: int | None = None):
        return [
            (self.dag.gate(node), self.dag.layer_of(node))
            for node in self.pending[start:]
            if node != exclude
        ]

    def rank_at(self, start: int) -> int:
        return sum(
            1
            for node in self.pending[:start]
            if self.dag.gate(node).is_two_qubit
        )

    def view(self, start: int, exclude: int | None = None):
        return self.index.view(start, self.rank_at(start), exclude)


@pytest.mark.parametrize("machine_name", sorted(MACHINES))
@pytest.mark.parametrize("metric", ["layers", "gates"])
def test_indexed_move_scores_bit_identical(machine_name, metric):
    rng = random.Random(zlib.crc32(f"scores/{machine_name}/{metric}".encode()))
    machine = MACHINES[machine_name]()
    for proximity in PROXIMITIES:
        for decay in (1.0, 0.75):
            policy = FutureOpsPolicy(
                proximity=proximity,
                proximity_metric=metric,
                score_decay=decay,
            )
            harness = Harness(
                rng, machine, rng.randint(6, machine.load_capacity), 45
            )
            while harness.pos < len(harness.pending) - 1:
                start = harness.pos
                active = harness.pending[start]
                active_layer = harness.dag.layer_of(active)
                ions = sorted(
                    {
                        q
                        for node in harness.pending[start:]
                        for q in harness.dag.gate(node).qubits
                    }
                )
                pairs = [
                    (a, b)
                    for a in ions
                    for b in ions
                    if a < b and not harness.state.co_located(a, b)
                ]
                for ion_a, ion_b in rng.sample(pairs, min(4, len(pairs))):
                    expected = reference_move_scores(
                        policy,
                        ion_a,
                        ion_b,
                        harness.state,
                        harness.stream(start),
                        active_layer,
                    )
                    via_index = policy.move_scores(
                        ion_a,
                        ion_b,
                        harness.state,
                        harness.view(start),
                        active_layer,
                    )
                    assert via_index == expected, (
                        machine_name,
                        metric,
                        proximity,
                        decay,
                        (ion_a, ion_b),
                    )
                harness.advance(rng.randint(1, 6))


def reference_eviction_counts(
    state, eligible, source_trap, destination_trap, stream, window
):
    """Frozen copy of the stream-scan eviction counting."""
    from repro.compiler import CompilationError

    dest_count = {ion: 0 for ion in eligible}
    source_count = {ion: 0 for ion in eligible}
    seen = 0
    for gate, _layer in stream:
        if not gate.is_two_qubit:
            continue
        seen += 1
        if seen > window:
            break
        q0, q1 = gate.qubits
        for ion, partner in ((q0, q1), (q1, q0)):
            if ion not in dest_count:
                continue
            try:
                partner_trap = state.trap_of(partner)
            except CompilationError:
                continue
            if partner_trap == destination_trap:
                dest_count[ion] += 1
            elif partner_trap == source_trap:
                source_count[ion] += 1
    return dest_count, source_count


def reference_max_score(state, source, destination, pinned, stream, window):
    eligible = [i for i in state.chains[source] if i not in pinned]
    dest_count, source_count = reference_eviction_counts(
        state, eligible, source, destination, stream, window
    )
    best_ion = eligible[0]
    best_score = float("-inf")
    for ion in eligible:
        dest = dest_count[ion]
        src = source_count[ion]
        if dest == src:
            score = TIE_WEIGHT_DEST * dest - TIE_WEIGHT_SOURCE * src
        else:
            score = DEFAULT_WEIGHT_DEST * dest - DEFAULT_WEIGHT_SOURCE * src
        if score > best_score:
            best_score = score
            best_ion = ion
    return best_ion, best_score


@pytest.mark.parametrize("machine_name", sorted(MACHINES))
def test_indexed_eviction_pick_bit_identical(machine_name):
    rng = random.Random(zlib.crc32(f"evict/{machine_name}".encode()))
    machine = MACHINES[machine_name]()
    for trial in range(3):
        harness = Harness(
            rng, machine, rng.randint(6, machine.load_capacity), 40
        )
        while harness.pos < len(harness.pending) - 1:
            start = harness.pos
            occupied = [
                t
                for t in range(machine.num_traps)
                if harness.state.chains[t]
            ]
            for window in (1, 5, 64):
                source = rng.choice(occupied)
                destination = rng.choice(
                    [t for t in range(machine.num_traps) if t != source]
                )
                chain = harness.state.chains[source]
                pinned = frozenset(
                    rng.sample(chain, min(len(chain) - 1, 1))
                )
                expected = reference_max_score(
                    harness.state,
                    source,
                    destination,
                    pinned,
                    harness.stream(start),
                    window,
                )
                via_index = max_score_with_value(
                    harness.state,
                    source,
                    destination,
                    pinned,
                    harness.view(start),
                    window,
                )
                assert via_index == expected, (machine_name, trial, window)
            harness.advance(rng.randint(2, 7))


def reference_reorder_candidate(
    pending, active_pos, executed, dag, state, decide, old_destination
):
    """The pre-index Algorithm-1 tail scan, frozen verbatim as the test
    oracle: every pending gate after the active position is visited."""
    active_index = pending[active_pos]
    active_layer = dag.layer_of(active_index)
    for pos in range(active_pos + 1, len(pending)):
        index = pending[pos]
        if dag.layer_of(index) > active_layer:
            continue
        gate = dag.gate(index)
        if not gate.is_two_qubit:
            continue
        if any(pred not in executed for pred in dag.predecessors(index)):
            continue
        ion_a, ion_b = gate.qubits
        trap_a = state.trap_of(ion_a)
        trap_b = state.trap_of(ion_b)
        if trap_a == trap_b:
            continue  # executes without a shuttle; frees no slot
        if old_destination not in (trap_a, trap_b):
            continue  # cannot possibly depart from the full trap
        upcoming = _candidate_upcoming(pending, active_pos, pos, dag)
        decision = decide(gate, upcoming, dag.layer_of(index))
        if decision.src == old_destination:
            return pos
    return None


def _candidate_upcoming(
    pending,
    active_pos: int,
    candidate_pos: int,
    dag: DependencyDAG,
):
    """Upcoming (gate, layer) pairs as seen by a hoisted candidate.

    After hoisting, the candidate executes first and everything from the
    active position onward (minus the candidate itself) follows, so that
    is the future the candidate's direction decision should look at.
    """
    for pos in range(active_pos, len(pending)):
        if pos == candidate_pos:
            continue
        index = pending[pos]
        yield dag.gate(index), dag.layer_of(index)


@pytest.mark.parametrize("machine_name", sorted(MACHINES))
@pytest.mark.parametrize("metric", ["layers", "gates"])
def test_indexed_reorder_candidates_bit_identical(machine_name, metric):
    rng = random.Random(zlib.crc32(f"reorder/{machine_name}/{metric}".encode()))
    machine = MACHINES[machine_name]()
    for proximity in PROXIMITIES:
        policy = FutureOpsPolicy(proximity=proximity, proximity_metric=metric)
        harness = Harness(
            rng, machine, rng.randint(6, machine.load_capacity), 40
        )
        checked = 0
        while harness.pos < len(harness.pending) - 1:
            active_pos = harness.pos

            def decide(gate, upcoming, layer):
                return policy.favoured(gate, harness.state, upcoming, layer)

            def reference_decide(gate, stream, layer):
                return reference_favoured(
                    policy, gate, harness.state, stream, layer
                )

            for old_destination in range(machine.num_traps):
                naive = reference_reorder_candidate(
                    harness.pending,
                    active_pos,
                    harness.executed,
                    harness.dag,
                    harness.state,
                    reference_decide,
                    old_destination,
                )
                indexed = find_reorder_candidate(
                    harness.pending,
                    active_pos,
                    harness.dag,
                    harness.state,
                    decide,
                    old_destination,
                    harness.index,
                )
                assert naive == indexed, (
                    machine_name,
                    metric,
                    proximity,
                    old_destination,
                    active_pos,
                )
                checked += 1
            harness.advance(rng.randint(1, 5))
        assert checked > 0


def full_compilation_cases(machine_name, policy_name):
    """Yield the seeded ``(config, circuit, initial_chains)`` cases of one
    machine/policy pair: both proximity metrics, all cutoffs,
    re-ordering, cheap eviction, chain-order tracking and score decay."""
    rng = random.Random(zlib.crc32(f"full/{machine_name}/{policy_name}".encode()))
    machine = MACHINES[machine_name]()
    variants = []
    if policy_name == "excess-capacity":
        variants.append(CompilerConfig.baseline())
        variants.append(
            CompilerConfig.baseline().variant(
                reorder=True, rebalance="nearest", ion_selection="max-score"
            )
        )
    else:
        for metric in ("layers", "gates"):
            for proximity in PROXIMITIES:
                variants.append(
                    CompilerConfig.optimized().variant(
                        proximity=proximity, proximity_metric=metric
                    )
                )
        variants.append(CompilerConfig.optimized().variant(cheap_evict=True))
        variants.append(
            CompilerConfig.optimized().variant(track_chain_order=True)
        )
        variants.append(CompilerConfig.optimized().variant(score_decay=0.8))
    for config in variants:
        num_qubits = rng.randint(6, machine.load_capacity)
        circuit = random_circuit(rng, num_qubits, rng.randint(25, 60))
        chains = greedy_initial_mapping(circuit, machine)
        yield config, circuit, chains


def compilation_digest(result) -> str:
    """sha256 over a compile's schedule ops, gate order, re-order and
    re-balance counts and final chains."""
    digest = hashlib.sha256(schedule_digest(result.schedule).encode())
    digest.update(
        repr(
            (
                result.gate_order,
                result.num_reorders,
                result.num_rebalances,
                sorted(result.final_chains.items()),
            )
        ).encode()
    )
    return digest.hexdigest()


#: One :func:`compilation_digest` per :func:`full_compilation_cases` case,
#: recorded from the tail-scanning reference compiler (see
#: :func:`test_full_compilation_bit_identical` for how).
REFERENCE_DIGESTS = {
    ("grid", "excess-capacity"): (
        "997c4de9c3c23182061d1b1096d96aaba15b104e184b0a206e88c2ef7168c95f",
        "1b0a3ffd5a4ecab8c506c5b566954ce4765709132393bae4f254b1561bae9e60",
    ),
    ("grid", "future-ops"): (
        "a6bf9269bcb39597ce0773918720e71fde411780eda655d939401d8cc4745c2f",
        "bfaf332b94f8914e894d1d50be109a21d849eb79526ad74a4530520ae09b79e8",
        "f578c22e7b8218e60d5f74d59f11b7b22fa934678fae88554c2fa7aec9c7dcec",
        "342c881884e1f67ba3613cfc4171a22f794ce8ed40bfb63e09da83d91f6a0a71",
        "057cc320bb00d984e4e936e4c9173d5e6d0fec25cdc4075ffe0dd47c6d5e8461",
        "3d13df179554e486bde9f91ffcd521383fef748af78754a2f249231f0c29a6fa",
        "3dd4a7fd7ddc87cc53bb2094580cabeddc7514cce68f8983bce3be9e661058f3",
        "ca4c51d863ed6156839c42933bf38faefce47920d9875c2153e197bbb038c7a8",
        "2c1143bba3d87964399c19d4c624280048609037d00b161f497d17657b36edc5",
        "0671d36e235d8e1a3ef5956c614d67cd7206b61d14abe8bcb5ff38033367b228",
        "693136bd46f3f600f183dd0ca11fede0df57fa5d6266c2f2ff1056284b17d9a6",
    ),
    ("linear", "excess-capacity"): (
        "ea7a36c1eba491069f4771f6f18d32196f50a2ad10cfadee51ec6eb370e38080",
        "142ffcdd2ac47a9fb91406d88a0f63ba083fb2bc82314414e1173cfa85e4f1c8",
    ),
    ("linear", "future-ops"): (
        "dfb1327c9a0afc4e3d20a4f869e4f742c2644f92ee510f89ca1fafa2b748b62d",
        "b7326fce11be92a64e87fd98bdf9d91330bdd4a43b70eebe987e568d87a22ad2",
        "f750da430723e114e8f0b4b13fbbea5668677c542ea99edb341e2ebef970d798",
        "830e8c0ea75b28c5edffd96a31aa519991f8aad34272a1d9b0e37033a4f26279",
        "8aa19f07b392bb2d4d8e2b88cf0f0e4014dc5110228ea6bba56b09a7cfab8138",
        "4d106d9f79cc2a8544bec92883061bbe70f5d4ef756ad3178e192e8cc6007af2",
        "127b85c7ee16227a763095f9168c82414acee2edf180f30b3e97f757f570ee03",
        "ff5e658eac3a56d9e133cbdd5065ecfc490ac3268ff439a4fa4b42bc77017609",
        "2b7212fba5e7f5938f3d5066bc566af12142c4038d30471224a73a444b5d996f",
        "258332114ef3c3775d8580e44d0cd42e83deea0c70c6dd9fdd7c17235d4b1c68",
        "8286085cede1536ec045841dd3dcae283b6b18ef5d7fc08d33bd2e593b04c22c",
    ),
    ("ring", "excess-capacity"): (
        "1716683d8abd653ce235b7e103b2a00383b66a95911004e63566ad2aa680f9dc",
        "6ffc46de7130465481c7fedbaa4bd23ea870039188130a1bbc90407358f14887",
    ),
    ("ring", "future-ops"): (
        "10c8310f8fdfff2d4de3145acb0a97ed5abaee5596af5c3a1330b5e097d08ac6",
        "b6955fac04cd31dc27a9ba70ff54d52bbd27138c7e241fb63c03057558c9b61d",
        "7789a3616172de1263cf4f64f0b1bdd7678db446bcadd97b17df592c05f67de4",
        "babae376566c923bcd602ffd110481ee18fb86b1dfc30160018a49b57da3f7f0",
        "bc05c71c9fb218c6f0864be85bfaf69011da972d28a1f0812ec3785da0fbcb62",
        "6d1e764bea2afc314df4cf1a1229f68f1a2ba890cd8a38905636b8c71e894f34",
        "19a685d610ef281c083951b11422b051a890bad40caa1099a19a9db887fb9ecf",
        "779460562f0f167c04a290c391637e48391985621e3542b24dc59024c251a536",
        "ce4d8f40006f9cee9eb71a19228d2736dfbfe660b0b3452888d562fc5c830389",
        "9103381e2a9adfeab6767d2cdfcd4ff56466fed280c76bafee00f47b3f139ee3",
        "4e47493f5afe0c30f5895cb9f8f7d04b881db1aeee4f80cbcc8b4efbf4fa9cda",
    ),
}


@pytest.mark.parametrize("machine_name", sorted(MACHINES))
@pytest.mark.parametrize(
    "policy_name", ["excess-capacity", "future-ops"]
)
def test_full_compilation_bit_identical(machine_name, policy_name):
    """End-to-end: the indexed compiler reproduces, case for case, the
    outputs of the tail-scanning reference compiler it replaced.

    ``REFERENCE_DIGESTS`` was recorded at commit f051886, the last with
    the reference compiler (its third positional parameter selected the
    tail scan), by running from the repository root::

        PYTHONPATH=src:tests python -c "
        import test_future_index as t
        from repro.compiler.compiler import QCCDCompiler
        for m in sorted(t.MACHINES):
            for p in ('excess-capacity', 'future-ops'):
                print((m, p), tuple(
                    t.compilation_digest(
                        QCCDCompiler(t.MACHINES[m](), c, False)
                        .compile(k, initial_chains=ch))
                    for c, k, ch in t.full_compilation_cases(m, p)))"
    """
    machine = MACHINES[machine_name]()
    digests = tuple(
        compilation_digest(
            QCCDCompiler(machine, config).compile(
                circuit, initial_chains=chains
            )
        )
        for config, circuit, chains in full_compilation_cases(
            machine_name, policy_name
        )
    )
    assert digests == REFERENCE_DIGESTS[(machine_name, policy_name)]


class TestScoringMemo:
    """The shared per-(gate, mapping-epoch) memo: one scoring pass per
    decision, where the pre-index compiler paid two (``favoured`` in
    the main loop plus ``decide``, and a third on the cheap-eviction
    margin check)."""

    def _compile(self, config):
        rng = random.Random(zlib.crc32(b"memo"))
        machine = linear_machine(4, capacity=4, comm_capacity=1)
        circuit = random_circuit(rng, machine.load_capacity - 2, 60)
        compiler = QCCDCompiler(machine, config)
        compiler.compile(circuit)
        return compiler._last_future_index

    def test_one_scoring_pass_per_decision(self):
        index = self._compile(
            CompilerConfig.optimized().variant(
                reorder=False, cheap_evict=False
            )
        )
        assert index.num_decision_points > 0
        assert index.num_score_passes == index.num_decision_points

    def test_margin_check_rides_the_same_memo(self):
        # cheap_evict adds a _score_margin call per full-destination
        # event; an eviction in between legitimately re-scores (the
        # mapping changed), so the bound is two passes per decision.
        index = self._compile(
            CompilerConfig.optimized().variant(
                reorder=False, cheap_evict=True
            )
        )
        assert index.num_decision_points > 0
        assert (
            index.num_score_passes <= 2 * index.num_decision_points
        )

    def test_baseline_policy_never_scores(self):
        index = self._compile(CompilerConfig.baseline())
        assert index.num_decision_points > 0
        assert index.num_score_passes == 0


class TestIndexInvariants:
    def test_rejects_non_monotone_pending(self):
        circuit = Circuit(3).add("ms", 0, 1).add("ms", 0, 2)
        dag = DependencyDAG(circuit)
        with pytest.raises(ValueError, match="layer-monotone"):
            FutureGateIndex(dag, [1, 0], circuit.num_qubits)
