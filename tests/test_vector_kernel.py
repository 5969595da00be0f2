"""Differential property suite for the vectorized replay kernel.

``repro.core.vector`` replays op streams through a columnar numpy
kernel: one whole-window legality proof over array predicates, then an
unchecked drain; :func:`repro.core.replay.replay` takes it whenever it
applies.  Its contract is *exact* equivalence with the scalar loop
(``replay_into`` on a fresh state): same accept/reject verdicts, the same
``"op N: ..."`` error strings (via the scalar fallback), the same
final chains, and bit-identical observer floats (the drain accumulates
in the same order as ``ClockObserver``/``HeatingObserver``).  This
module pins that contract:

* random compiled schedules — legal and mutation-corrupted — across
  linear/ring/grid machines and all compiler configurations, replayed
  through both kernels with and without observers,
* op streams with fields outside the int64 kernel model (and with
  subclassed ops), which must take the scalar path end to end,
* the golden machine-semantics fixture, reproduced with numpy hidden
  from ``repro.core.replay`` — the recording was made with the vector
  kernel on, so the two kernels are pinned to each other through the
  fixture.
"""

from __future__ import annotations

import importlib
import json
import os
import random

import pytest

from golden_util import circuit_case
from test_differential import CONFIGS, MACHINES, random_circuit

from repro.compiler import compile_circuit
from repro.core import (
    ClockObserver,
    HeatingObserver,
    MachineModelError,
    MachineState,
    replay,
    replay_into,
)
from repro.core.ops import GateOp, MergeOp, MoveOp, SplitOp
from repro.core.params import MachineParams
from repro.core.vector import HAVE_NUMPY, compile_stream
from repro.sim.schedule import Schedule

pytestmark = pytest.mark.skipif(
    not HAVE_NUMPY, reason="numpy unavailable: only the scalar kernel exists"
)

PARAMS = MachineParams()


def scalar_replay(machine, ops, chains, observers=()):
    """The scalar loop alone: the reference ``replay`` must match."""
    state = replay_into(MachineState(machine, chains), ops, observers)
    state.require_settled()
    return state


def _observers(machine):
    return (
        ClockObserver(machine.num_traps, PARAMS.timing),
        HeatingObserver(machine.num_traps, PARAMS),
    )


def _outcome(kernel, machine, ops, chains, with_observers):
    """(verdict, payload) of one replay through ``kernel``.

    Legal streams reduce to final chains plus exact observer snapshots;
    illegal ones to the exact error string.
    """
    observers = _observers(machine) if with_observers else ()
    try:
        state = kernel(machine, Schedule(ops), chains, observers)
    except MachineModelError as exc:
        return ("error", str(exc))
    return (
        "ok",
        state.chains_dict(),
        tuple(obs.snapshot() for obs in observers),
    )


def _mutations(ops, machine, count=8, seed=7):
    """Corrupted variants of a legal stream: one op rewritten each."""
    rng = random.Random(seed)
    num_traps = machine.num_traps
    variants = []
    for _ in range(count):
        bad = list(ops)
        index = rng.randrange(len(bad))
        op = bad[index]
        if isinstance(op, MoveOp):
            bad[index] = MoveOp(
                op.ion, op.src, (op.dst + 1) % num_traps, op.reason
            )
        elif isinstance(op, MergeOp):
            bad[index] = MergeOp(
                op.ion + 100, op.trap, op.reason, op.position
            )
        elif isinstance(op, SplitOp):
            bad[index] = SplitOp(
                op.ion, (op.trap + 1) % num_traps, op.reason
            )
        elif isinstance(op, GateOp):
            bad[index] = GateOp(op.gate, (op.trap + 1) % num_traps)
        variants.append((index, bad))
    return variants


@pytest.mark.parametrize("machine_name", sorted(MACHINES))
@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_vector_matches_scalar_on_random_schedules(
    machine_name, config_name
):
    """Verdicts, error strings, chains and floats agree op-for-op."""
    machine = MACHINES[machine_name]()
    rng = random.Random(hash((machine_name, config_name)) & 0xFFFF)
    circuit = random_circuit(rng, min(8, machine.num_traps * 2), 40)
    result = compile_circuit(
        circuit, machine, config=CONFIGS[config_name]()
    )
    chains = result.initial_chains
    streams = [list(result.schedule.ops)]
    streams += [bad for _, bad in _mutations(streams[0], machine)]

    for ops in streams:
        for with_observers in (False, True):
            scalar = _outcome(
                scalar_replay, machine, ops, chains, with_observers
            )
            vector = _outcome(replay, machine, ops, chains, with_observers)
            assert scalar == vector


def test_chain_order_streams_take_scalar_path():
    """Swap-bearing streams are outside the vector model (chain-ORDER
    checks) and must replay scalar — with identical outcomes."""
    machine = MACHINES["linear"]()
    rng = random.Random(11)
    circuit = random_circuit(rng, 8, 40)
    result = compile_circuit(
        circuit, machine, config=CONFIGS["chain-order"]()
    )
    ops = list(result.schedule.ops)
    if result.schedule.num_swaps:
        assert compile_stream(ops).needs_scalar
    scalar = _outcome(
        scalar_replay, machine, ops, result.initial_chains, True
    )
    vector = _outcome(replay, machine, ops, result.initial_chains, True)
    assert scalar == vector


def test_out_of_model_int_fields_fall_back_to_scalar():
    """Fields outside int64 can't be columnized: the stream compiles to
    the scalar path, and both kernels still agree exactly."""
    machine = MACHINES["linear"]()
    rng = random.Random(3)
    circuit = random_circuit(rng, 8, 20)
    result = compile_circuit(circuit, machine, config=CONFIGS["baseline"]())
    chains = result.initial_chains
    legal = list(result.schedule.ops)
    move = next(op for op in legal if isinstance(op, MoveOp))
    at = legal.index(move)

    for huge in (2**63, -(2**63) - 1, 2**100):
        ops = list(legal)
        ops[at] = MoveOp(huge, move.src, move.dst, move.reason)
        assert compile_stream(ops).needs_scalar
        scalar = _outcome(scalar_replay, machine, ops, chains, True)
        vector = _outcome(replay, machine, ops, chains, True)
        assert scalar == vector
        assert scalar[0] == "error"
        assert scalar[1].startswith(f"op {at}:")

    # At the int64 edge the columns build fine; the ion id is simply
    # out of range, which the check proves illegal and the scalar
    # fallback reports with the exact op index.
    ops = list(legal)
    ops[at] = MoveOp(2**63 - 1, move.src, move.dst, move.reason)
    assert not compile_stream(ops).needs_scalar
    scalar = _outcome(scalar_replay, machine, ops, chains, True)
    vector = _outcome(replay, machine, ops, chains, True)
    assert scalar == vector
    assert scalar[0] == "error"


def test_subclassed_ops_fall_back_to_scalar():
    """Op subclasses may override behavior; the kernel must not guess."""

    class TracedMove(MoveOp):
        pass

    machine = MACHINES["linear"]()
    rng = random.Random(5)
    circuit = random_circuit(rng, 8, 20)
    result = compile_circuit(circuit, machine, config=CONFIGS["baseline"]())
    ops = list(result.schedule.ops)
    move = next(op for op in ops if isinstance(op, MoveOp))
    ops[ops.index(move)] = TracedMove(
        move.ion, move.src, move.dst, move.reason
    )
    assert compile_stream(ops).needs_scalar
    scalar = _outcome(
        scalar_replay, machine, ops, result.initial_chains, True
    )
    vector = _outcome(replay, machine, ops, result.initial_chains, True)
    assert scalar == vector


GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    "golden",
    "machine_semantics.json",
)

#: Two suite members exercise every golden field without re-running the
#: whole fixture twice (test_golden_semantics already covers the vector
#: kernel).
GOLDEN_SPOT_CHECKS = ("QFT", "Supremacy")


@pytest.mark.parametrize("name", GOLDEN_SPOT_CHECKS)
def test_golden_semantics_with_kernel_off(name, monkeypatch):
    """The golden fixture is reproduced on the scalar loop (numpy
    hidden from the kernel choice): both kernels pin to the same
    recorded behavior."""
    from repro.arch.presets import l6_machine
    from repro.bench.suite import paper_suite

    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        golden = json.load(handle)
    expected = next(
        case for case in golden["cases"] if case["circuit"] == name
    )
    circuit = next(c for c in paper_suite(full=False) if c.name == name)

    # The attribute repro.core.replay is the re-exported function, so
    # the module is looked up by name rather than by dotted path.
    monkeypatch.setattr(
        importlib.import_module("repro.core.replay"), "HAVE_NUMPY", False
    )
    actual = circuit_case(circuit, l6_machine())
    for key in expected:
        assert actual[key] == expected[key], (
            f"{name}: {key} diverged with the vector kernel off"
        )
