"""Property tests: incremental verification ≡ fresh full replay.

The checkpointed splice engine (:class:`repro.core.CheckpointedReplay`)
promises that verifying a rewritten schedule incrementally — restore
the nearest checkpoint, replay the divergent window, reuse or early
-exit the suffix — reaches *exactly* the verdict a from-scratch
:func:`repro.core.replay` of the rewritten stream would reach: the
same accept/reject answer, the same error message (index and all),
the same final chains, and (through ``replay_splice``) observer
aggregates whose floats match to the last ulp.

These tests pin that equivalence hypothesis-style: seeded random
circuits compiled to linear/ring/grid machines, then hundreds of
random splices per schedule — identity rewrites, deletions, shuffled
windows, cross-stream garbage, excursion removals — each checked
against the ground truth, with legal splices randomly committed along
the way so the engine is also exercised on edited streams and healed
checkpoints.
"""

from __future__ import annotations

import random

import pytest

from repro.arch import grid_machine, linear_machine, ring_machine
from repro.circuits.circuit import Circuit
from repro.compiler import CompilerConfig, compile_circuit
from repro.core import (
    CheckpointedReplay,
    ClockObserver,
    HeatingObserver,
    MachineState,
    replay,
)
from repro.core import replaying
from repro.core.errors import MachineModelError
from repro.core.params import DEFAULT_PARAMS
from repro.core.vector import HAVE_NUMPY
from repro.passes.base import extract_excursions

MACHINES = {
    "linear": lambda: linear_machine(4, capacity=4, comm_capacity=1),
    "ring": lambda: ring_machine(5, capacity=4, comm_capacity=1),
    "grid": lambda: grid_machine(2, 3, capacity=4, comm_capacity=1),
}


def random_circuit(rng: random.Random, num_qubits: int, num_gates: int):
    circuit = Circuit(num_qubits, name=f"incr-{num_qubits}q")
    for _ in range(num_gates):
        if rng.random() < 0.2:
            circuit.add("x", rng.randrange(num_qubits))
        else:
            a, b = rng.sample(range(num_qubits), 2)
            circuit.add("ms", a, b)
    return circuit


def compiled_stream(rng: random.Random, machine):
    circuit = random_circuit(rng, 10, 60)
    result = compile_circuit(circuit, machine, CompilerConfig.optimized())
    return list(result.schedule.ops), result.initial_chains


def random_splice(rng: random.Random, ops: list):
    """One random (start, end, replacement) edit, legal or not."""
    n = len(ops)
    start = rng.randrange(0, n)
    end = rng.randrange(start, min(n, start + rng.randrange(1, 25)) + 1)
    kind = rng.randrange(5)
    if kind == 0:  # identity rewrite
        replacement = ops[start:end]
    elif kind == 1:  # plain deletion
        replacement = []
    elif kind == 2:  # shuffled window
        replacement = list(ops[start:end])
        rng.shuffle(replacement)
    elif kind == 3:  # cross-stream garbage
        replacement = [
            ops[rng.randrange(n)] for _ in range(rng.randrange(0, 4))
        ]
    else:  # duplicate the window (often overfills/repeats transit)
        replacement = list(ops[start:end]) * 2
    return start, end, replacement


def full_replay_outcome(machine, ops, chains):
    """(legal, final chains | None, error | None) via a fresh replay."""
    try:
        state = replay(machine, ops, chains)
    except MachineModelError as exc:
        return False, None, str(exc)
    return True, state.chains_dict(), None


class TestStateSnapshots:
    """MachineState fork/checkpoint/restore/matches."""

    def setup_method(self):
        self.machine = MACHINES["linear"]()
        self.chains = {0: [0, 1], 1: [2], 2: [3, 4]}

    def test_fork_is_independent(self):
        state = MachineState(self.machine, self.chains)
        twin = state.fork()
        twin.detach_ion(0)
        assert state.trap_of(0) == 0
        assert state.chain(0) == [0, 1]
        with pytest.raises(MachineModelError, match="not mapped"):
            twin.trap_of(0)

    def test_checkpoint_restores_repeatedly(self):
        state = MachineState(self.machine, self.chains)
        saved = state.checkpoint()
        for _ in range(3):
            state.detach_ion(0)
            state.attach_ion(0, 1)
            assert not state.matches(saved)
            state.restore(saved)
            assert state.matches(saved)
            assert state.chain(0) == [0, 1]

    def test_matches_is_chain_order_sensitive(self):
        state = MachineState(self.machine, self.chains)
        other = MachineState(self.machine, {0: [1, 0], 1: [2], 2: [3, 4]})
        assert not state.matches(other)
        assert state.matches(MachineState(self.machine, self.chains))


class TestObserverSnapshots:
    def test_clock_resume_is_exact(self):
        rng = random.Random(3)
        machine = MACHINES["ring"]()
        ops, chains = compiled_stream(rng, machine)
        mid = len(ops) // 2
        whole = ClockObserver(machine.num_traps).drive(ops)
        split = ClockObserver(machine.num_traps)
        split.drive(ops[:mid])
        snapshot = split.snapshot()
        split.drive(ops[mid:])
        resumed = ClockObserver(machine.num_traps).resume(snapshot)
        resumed.drive(ops[mid:])
        assert [repr(c) for c in resumed.clocks] == [
            repr(c) for c in whole.clocks
        ]
        assert [repr(c) for c in split.clocks] == [
            repr(c) for c in whole.clocks
        ]

    def test_heating_resume_is_exact_after_pollution(self):
        rng = random.Random(4)
        machine = MACHINES["grid"]()
        ops, chains = compiled_stream(rng, machine)
        mid = len(ops) // 3
        heat = HeatingObserver(machine.num_traps, DEFAULT_PARAMS)
        state = MachineState(machine, chains)
        for index, op in enumerate(ops[:mid]):
            state.apply(op)
            heat.observe(index, op, state)
        snapshot = heat.snapshot()
        saved = state.checkpoint()
        # Pollute: observe a different continuation, then resume.
        for index, op in enumerate(ops[mid : mid + 40]):
            state.apply(op)
            heat.observe(index, op, state)
        heat.resume(snapshot)
        state.restore(saved)
        for index, op in enumerate(ops[mid:], mid):
            state.apply(op)
            heat.observe(index, op, state)
        fresh = HeatingObserver(machine.num_traps, DEFAULT_PARAMS)
        replay(machine, ops, chains, (fresh,))
        assert repr(heat.log_fidelity) == repr(fresh.log_fidelity)
        assert repr(heat.max_nbar) == repr(fresh.max_nbar)
        assert repr(heat.mean_gate_nbar) == repr(fresh.mean_gate_nbar)
        assert [repr(f) for f in heat.gate_fidelities] == [
            repr(f) for f in fresh.gate_fidelities
        ]


@pytest.mark.parametrize("name", sorted(MACHINES))
def test_splice_verdicts_match_full_replay(name):
    """Verdict, error message and final chains: engine ≡ fresh replay."""
    rng = random.Random(hash(name) & 0xFFFF)
    machine = MACHINES[name]()
    ops, chains = compiled_stream(rng, machine)
    engine = CheckpointedReplay(machine, ops, chains, interval=8)
    legal = illegal = 0
    for _ in range(300):
        start, end, replacement = random_splice(rng, ops)
        candidate = ops[:start] + list(replacement) + ops[end:]
        verdict = engine.verify_splice(start, end, replacement)
        ok, chains_after, error = full_replay_outcome(
            machine, candidate, chains
        )
        assert verdict.ok == ok, (name, start, end)
        if ok:
            legal += 1
            assert verdict.final_chains == chains_after
        else:
            illegal += 1
            assert verdict.error == error, (name, start, end)
    # The generator must exercise both outcomes to mean anything.
    assert legal > 20 and illegal > 20


@pytest.mark.parametrize("name", sorted(MACHINES))
def test_splice_verdicts_survive_commits(name):
    """Same equivalence on a stream being edited: legal splices are
    randomly committed and later verdicts still match fresh replays of
    the evolving stream (shifted/healed checkpoints included)."""
    rng = random.Random(0xC0 + hash(name) % 97)
    machine = MACHINES[name]()
    ops, chains = compiled_stream(rng, machine)
    engine = CheckpointedReplay(machine, ops, chains, interval=8)
    current = list(ops)
    commits = 0
    for _ in range(250):
        start, end, replacement = random_splice(rng, current)
        candidate = current[:start] + list(replacement) + current[end:]
        verdict = engine.verify_splice(start, end, replacement)
        ok, chains_after, error = full_replay_outcome(
            machine, candidate, chains
        )
        assert verdict.ok == ok
        if ok:
            assert verdict.final_chains == chains_after
            if rng.random() < 0.4:
                engine.commit(verdict)
                current = candidate
                commits += 1
                assert list(engine.ops) == current
                assert engine.final_chains == chains_after
    assert commits > 10


def rebuild(ops, deleted):
    """Materialize an edited op stream: ``deleted`` indices dropped.

    The reference implementation of the edit semantics the passes
    used to verify with a full replay per candidate;
    :class:`~repro.passes.base.SpliceEditor` submits exactly these
    streams to the incremental engine."""
    return [op for index, op in enumerate(ops) if index not in deleted]


@pytest.mark.parametrize("name", sorted(MACHINES))
def test_excursion_deletions_match_full_replay(name):
    """The pass-shaped edit: deleting whole excursions (round trips),
    the splice round-trip deletion submits.  Candidates are built with
    :func:`rebuild`, the full-replay reference."""
    rng = random.Random(0xE11 + hash(name) % 31)
    machine = MACHINES[name]()
    ops, chains = compiled_stream(rng, machine)
    engine = CheckpointedReplay(machine, ops, chains)
    trips = extract_excursions(ops)
    assert trips, "compiled stream should contain excursions"
    for trip in trips:
        span = sorted(trip.op_indices())
        start, end = span[0], span[-1] + 1
        candidate = rebuild(ops, set(span))
        replacement = candidate[start : end - len(span)]
        assert candidate == ops[:start] + replacement + ops[end:]
        verdict = engine.verify_splice(start, end, replacement)
        ok, chains_after, error = full_replay_outcome(
            machine, candidate, chains
        )
        assert verdict.ok == ok, (name, trip.ion, start, end)
        if ok:
            assert verdict.final_chains == chains_after
        else:
            assert verdict.error == error


@pytest.mark.parametrize("name", sorted(MACHINES))
def test_observer_floats_bit_identical(name):
    """replay_splice: every observer aggregate — log-fidelity, clocks,
    n̄ extrema, the full per-gate fidelity list — matches a fresh full
    replay of the candidate float for float (compared by repr)."""
    rng = random.Random(0x0B5 + hash(name) % 53)
    machine = MACHINES[name]()
    ops, chains = compiled_stream(rng, machine)
    heat = HeatingObserver(machine.num_traps, DEFAULT_PARAMS)
    clock = ClockObserver(machine.num_traps)
    engine = CheckpointedReplay(
        machine, ops, chains, observers=(heat, clock), interval=9
    )
    current = list(ops)
    checked = 0
    for _ in range(150):
        start, end, replacement = random_splice(rng, current)
        candidate = current[:start] + list(replacement) + current[end:]
        verdict = engine.replay_splice(start, end, replacement)
        ok, chains_after, _ = full_replay_outcome(
            machine, candidate, chains
        )
        assert verdict.ok == ok
        if not ok:
            continue
        fresh_heat = HeatingObserver(machine.num_traps, DEFAULT_PARAMS)
        fresh_clock = ClockObserver(machine.num_traps)
        replay(machine, candidate, chains, (fresh_heat, fresh_clock))
        assert repr(heat.log_fidelity) == repr(fresh_heat.log_fidelity)
        assert repr(heat.max_nbar) == repr(fresh_heat.max_nbar)
        assert repr(heat.min_gate_fidelity) == repr(
            fresh_heat.min_gate_fidelity
        )
        assert repr(heat.mean_gate_nbar) == repr(
            fresh_heat.mean_gate_nbar
        )
        assert [repr(f) for f in heat.gate_fidelities] == [
            repr(f) for f in fresh_heat.gate_fidelities
        ]
        assert [repr(c) for c in clock.clocks] == [
            repr(c) for c in fresh_clock.clocks
        ]
        assert verdict.final_chains == chains_after
        checked += 1
        if rng.random() < 0.25:
            engine.commit(verdict)
            current = candidate
    assert checked > 20


def test_illegal_base_stream_raises_like_replay():
    rng = random.Random(99)
    machine = MACHINES["linear"]()
    ops, chains = compiled_stream(rng, machine)
    corrupted = list(ops)
    del corrupted[next(
        i for i, op in enumerate(corrupted) if hasattr(op, "ion")
    )]
    try:
        replay(machine, corrupted, chains)
        expected = None
    except MachineModelError as exc:
        expected = str(exc)
    assert expected is not None
    with pytest.raises(MachineModelError) as caught:
        CheckpointedReplay(machine, corrupted, chains)
    assert str(caught.value) == expected


#: The replay module, whose kernel choice reads ``HAVE_NUMPY``.
REPLAY_MODULE = replaying


def build_on_kernel(monkeypatch, vector, machine, ops, chains, observers):
    """A CheckpointedReplay built on the chosen construction kernel."""
    monkeypatch.setattr(REPLAY_MODULE, "HAVE_NUMPY", vector)
    return CheckpointedReplay(machine, ops, chains, observers, interval=9)


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy unavailable")
@pytest.mark.parametrize("with_observers", [False, True])
@pytest.mark.parametrize("name", sorted(MACHINES))
def test_construction_kernels_record_identical_checkpoints(
    name, with_observers, monkeypatch
):
    """The construction loop drains chunk by chunk on the vector kernel
    and runs the scalar window per chunk otherwise; both must leave the
    same checkpoints, observer snapshots and final chains behind."""
    machine = MACHINES[name]()
    ops, chains = compiled_stream(random.Random(name), machine)
    drained = []
    drain = REPLAY_MODULE.drain_stream

    def counting_drain(state, stream, start, stop, clock, heat):
        drained.append((start, stop))
        drain(state, stream, start, stop, clock, heat)

    monkeypatch.setattr(REPLAY_MODULE, "drain_stream", counting_drain)

    def observers():
        if not with_observers:
            return ()
        return (
            ClockObserver(machine.num_traps, DEFAULT_PARAMS.timing),
            HeatingObserver(machine.num_traps, DEFAULT_PARAMS),
        )

    scalar = build_on_kernel(
        monkeypatch, False, machine, ops, chains, observers()
    )
    assert drained == []
    vector = build_on_kernel(
        monkeypatch, True, machine, ops, chains, observers()
    )
    assert len(drained) == -(-len(ops) // 9)

    assert scalar._cp_indices == vector._cp_indices
    assert scalar._cp_indices == list(range(0, len(ops), 9))
    for (s_cp, s_snaps), (v_cp, v_snaps) in zip(
        scalar._cp_data, vector._cp_data, strict=True
    ):
        for field in ("chains", "trap_of", "transit", "num_in_transit"):
            assert getattr(s_cp, field) == getattr(v_cp, field)
        assert repr(s_snaps) == repr(v_snaps)
    assert scalar.final_chains == vector.final_chains


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy unavailable")
@pytest.mark.parametrize("name", sorted(MACHINES))
def test_construction_kernels_raise_identical_errors(name, monkeypatch):
    machine = MACHINES[name]()
    ops, chains = compiled_stream(random.Random(name), machine)
    corrupted = list(ops)
    # Drop a split past the first few checkpoints: its ion's later ops
    # fail mid-stream, after several chunks have already run.
    del corrupted[next(
        i for i, op in enumerate(corrupted)
        if i > 30 and type(op).__name__ == "SplitOp"
    )]
    errors = []
    for vector in (False, True):
        with pytest.raises(MachineModelError) as caught:
            build_on_kernel(
                monkeypatch, vector, machine, corrupted, chains, ()
            )
        errors.append(str(caught.value))
    assert errors[0] == errors[1]
    assert errors[0].startswith("op ")
