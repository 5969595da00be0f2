"""The compile phase's per-op fast paths leave every output unchanged.

Each fast path replaced slower code that computed the same thing; these
tests pin the equalities the replacements rest on (DESIGN.md §16):

* the router walks the topology's next-hop table, and the route is
  ``shortest_path`` on every machine shape, degraded ones included,
  with the same error for a disconnected pair;
* one compile interns its shuttle ops (equal ops are one object), and
  a schedule still pickles to the same bytes and loads equal;
* the circuit memoizes its dependency DAG and the future-gate index's
  static arrays for the compiler, which leaves no trace in its pickle,
  its equality or its fingerprint, and is rebuilt after an append;
* the stream encoder fills its columns unchecked and checks them in
  bulk, and matches the per-field checking loop it replaced (kept
  below as the oracle) column for column and flag for flag.
"""

from __future__ import annotations

import enum
import pickle
import random
from dataclasses import replace

import pytest

from repro.arch.machine import QCCDMachine, TrapSpec
from repro.arch.presets import l6_machine
from repro.arch.topology import (
    TopologyError,
    TrapTopology,
    grid_topology,
    linear_topology,
    ring_topology,
)
from repro.batch.fingerprint import fingerprint
from repro.bench import random_circuit
from repro.circuits.circuit import Circuit
from repro.circuits.gate import Gate, trusted_gate
from repro.compiler.compiler import QCCDCompiler
from repro.compiler.config import CompilerConfig
from repro.compiler.routing import Router
from repro.core.ops import (
    GateOp,
    MergeOp,
    MoveOp,
    ShuttleReason,
    SplitOp,
    SwapOp,
)
from repro.core.state import MachineState
from repro.core.vector import (
    HAVE_NUMPY,
    K_GATE,
    K_MERGE,
    K_MOVE,
    K_OTHER,
    K_SPLIT,
    K_SWAP,
    _fits,
    compile_stream,
)
from repro.sim.schedule import Schedule

from future_util import future_view

CONFIGS = {
    "baseline": CompilerConfig.baseline(),
    "this-work": CompilerConfig.optimized(),
    "chain-order": CompilerConfig.optimized().variant(track_chain_order=True),
}


# ----------------------------------------------------------------------
# Next-hop routing
# ----------------------------------------------------------------------
def star_topology(leaves: int) -> TrapTopology:
    return TrapTopology(leaves + 1, [(0, i) for i in range(1, leaves + 1)], "S")


def without(topology: TrapTopology, *removed) -> TrapTopology:
    """A copy of ``topology`` with some edges taken out."""
    gone = {tuple(sorted(edge)) for edge in removed}
    edges = [edge for edge in topology.edges if edge not in gone]
    return TrapTopology(topology.num_traps, edges, f"{topology.name}-cut")


CONNECTED = {
    "linear5": linear_topology(5),
    "ring5": ring_topology(5),
    "ring6": ring_topology(6),
    "grid3x3": grid_topology(3, 3),
    "grid2x4": grid_topology(2, 4),
    "star5": star_topology(5),
    "ring6-cut": without(ring_topology(6), (2, 3)),
    "grid3x3-cut": without(grid_topology(3, 3), (0, 1), (4, 5), (4, 7)),
}

DISCONNECTED = {
    "linear5-split": without(linear_topology(5), (1, 2)),
    "grid3x3-island": without(grid_topology(3, 3), (2, 5), (1, 2)),
    "star5-orphan": without(star_topology(5), (0, 3)),
}


def unchecked_machine(topology: TrapTopology, capacity: int) -> QCCDMachine:
    """A machine on ``topology`` even when it is disconnected (the
    machine constructor refuses those; the router's error path needs
    one)."""
    machine = object.__new__(QCCDMachine)
    specs = tuple(
        TrapSpec(trap_id=i, capacity=capacity, comm_capacity=1)
        for i in range(topology.num_traps)
    )
    object.__setattr__(machine, "topology", topology)
    object.__setattr__(machine, "traps", specs)
    object.__setattr__(machine, "name", topology.name)
    return machine


def routed_path(topology: TrapTopology, src: int, dst: int) -> list[int]:
    """The traps one routed ion passes through, on an empty machine."""
    machine = unchecked_machine(topology, capacity=4)
    state = MachineState(machine, {src: [0]})
    schedule = Schedule()
    router = Router(
        state,
        schedule,
        CompilerConfig.optimized(),
        upcoming_factory=lambda: future_view([]),
    )
    moves = router.route(0, dst, ShuttleReason.GATE, frozenset())
    hops = [op for op in schedule if isinstance(op, MoveOp)]
    assert moves == len(hops)
    return [src] + [op.dst for op in hops]


@pytest.mark.parametrize("name", sorted(CONNECTED))
def test_routes_follow_shortest_paths(name):
    topology = CONNECTED[name]
    table = topology.next_hop_table()
    for src in range(topology.num_traps):
        for dst in range(topology.num_traps):
            path = topology.shortest_path(src, dst)
            assert table[src][dst] == (path[1] if len(path) > 1 else src)
            if src != dst:
                assert routed_path(topology, src, dst) == path


@pytest.mark.parametrize("name", sorted(DISCONNECTED))
def test_disconnected_pairs_raise_the_same_error(name):
    topology = DISCONNECTED[name]
    table = topology.next_hop_table()
    checked = 0
    for src in range(topology.num_traps):
        for dst in range(topology.num_traps):
            try:
                path = topology.shortest_path(src, dst)
            except TopologyError as exc:
                expected = str(exc)
            else:
                if src != dst:
                    assert routed_path(topology, src, dst) == path
                continue
            assert table[src][dst] == -1
            machine = unchecked_machine(topology, capacity=4)
            state = MachineState(machine, {src: [0]})
            schedule = Schedule()
            router = Router(
                state,
                schedule,
                CompilerConfig.optimized(),
                upcoming_factory=lambda: future_view([]),
            )
            with pytest.raises(TopologyError) as caught:
                router.route(0, dst, ShuttleReason.GATE, frozenset())
            assert str(caught.value) == expected
            assert len(schedule) == 0 and state.trap_of(0) == src
            checked += 1
    assert checked > 0


# ----------------------------------------------------------------------
# Interned shuttle ops
# ----------------------------------------------------------------------
def compiled(config_name: str, seed: int = 3):
    circuit = random_circuit(60, 500, seed)
    return QCCDCompiler(l6_machine(), CONFIGS[config_name]).compile(circuit)


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_equal_shuttle_ops_are_one_object(config_name):
    schedule = compiled(config_name).schedule
    shuttle_ops = [
        op for op in schedule if type(op) in (SplitOp, MoveOp, MergeOp)
    ]
    first: dict = {}
    for op in shuttle_ops:
        assert first.setdefault(op, op) is op
    assert len(first) < len(shuttle_ops)  # some ops did repeat
    reasons = {op.reason for op in shuttle_ops}
    assert reasons == {ShuttleReason.GATE, ShuttleReason.REBALANCE}


def fresh_copy(schedule: Schedule) -> Schedule:
    """The same ops, every one a distinct object."""
    return Schedule([replace(op) for op in schedule])


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_interned_schedule_pickles_like_fresh_ops(config_name, monkeypatch):
    schedule = compiled(config_name).schedule
    twin = fresh_copy(schedule)
    assert twin == schedule
    if HAVE_NUMPY:
        assert pickle.dumps(schedule) == pickle.dumps(twin)
    clone = pickle.loads(pickle.dumps(schedule))
    assert clone == schedule
    assert [type(op) for op in clone] == [type(op) for op in schedule]
    # The columns travel: a loaded schedule (a cache hit's) reads its
    # statistics off them without re-encoding its ops.
    assert clone._columns() == schedule._columns()
    assert clone.count_kinds() == schedule.count_kinds()

    # Without numpy a schedule pickles as its op objects; pickle's memo
    # may share repeated ops, and the load must still be equal.
    monkeypatch.setattr("repro.core.vector.HAVE_NUMPY", False)
    blob = pickle.dumps(schedule)
    assert "_ops" in schedule.__getstate__()
    assert len(blob) <= len(pickle.dumps(twin))
    clone = pickle.loads(blob)
    assert clone == schedule == twin
    assert clone.num_shuttles == schedule.num_shuttles


# ----------------------------------------------------------------------
# The per-circuit compile plan
# ----------------------------------------------------------------------
def compile_twice(config: CompilerConfig, circuit: Circuit):
    compiler = QCCDCompiler(l6_machine(), config)
    return compiler.compile(circuit), compiler.compile(circuit)


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_memo_reuse_leaves_compiles_unchanged(config_name):
    config = CONFIGS[config_name]
    circuit = random_circuit(60, 500, 11)
    first, second = compile_twice(config, circuit)
    (fresh, _) = compile_twice(config, circuit.copy())
    for result in (first, second):
        assert result.schedule == fresh.schedule
        assert result.gate_order == fresh.gate_order
        assert result.num_reorders == fresh.num_reorders
    if config_name == "this-work":
        assert first.num_reorders > 0  # splices ran on a fork


def test_memo_is_rebuilt_after_append():
    circuit = random_circuit(30, 200, 5)
    compiler = QCCDCompiler(l6_machine(), CompilerConfig.optimized())
    compiler.compile(circuit)
    plan = circuit._compile_plan
    assert plan is not None
    compiler.compile(circuit)
    assert circuit._compile_plan is plan
    circuit.append(Gate("ms", (0, 29)))
    assert circuit._compile_plan is None
    result = compiler.compile(circuit)
    assert circuit._compile_plan is not plan
    assert len(circuit._compile_plan.dag) == len(circuit) == 201
    assert result.schedule.num_gates == 201
    expected = QCCDCompiler(l6_machine(), CompilerConfig.optimized()).compile(
        Circuit(circuit.num_qubits, circuit.gates, name=circuit.name)
    )
    assert result.schedule == expected.schedule


def test_memo_leaves_no_trace_in_pickle_equality_or_fingerprint():
    circuit = random_circuit(30, 200, 6)
    blob = pickle.dumps(circuit)
    key = fingerprint(circuit)
    twin = circuit.copy()
    QCCDCompiler(l6_machine(), CompilerConfig.baseline()).compile(circuit)
    assert circuit._compile_plan is not None
    assert pickle.dumps(circuit) == blob
    assert fingerprint(circuit) == key
    assert circuit == twin and twin._compile_plan is None
    clone = pickle.loads(blob)
    assert clone._compile_plan is None
    assert clone == circuit


# ----------------------------------------------------------------------
# The stream encoder against the per-field loop it replaced
# ----------------------------------------------------------------------
def reference_columns(ops):
    """The column encoding as the per-field checking loop built it."""
    n = len(ops)
    kind = [K_OTHER] * n
    col_a = [0] * n
    col_b = [0] * n
    col_c = [0] * n
    col_d = [False] * n
    for i, op in enumerate(ops):
        cls = type(op)
        if cls is GateOp:
            qubits = op.gate.qubits
            nq = len(qubits)
            trap = op.trap
            if nq == 1:
                q0 = qubits[0]
                if _fits(trap) and _fits(q0):
                    kind[i] = K_GATE
                    col_a[i], col_b[i], col_c[i] = trap, q0, -1
            elif nq == 2:
                q0, q1 = qubits
                if _fits(trap) and _fits(q0) and _fits(q1):
                    kind[i] = K_GATE
                    col_a[i], col_b[i], col_c[i] = trap, q0, q1
                    col_d[i] = True
        elif cls is MoveOp:
            ion, src, dst = op.ion, op.src, op.dst
            if _fits(ion) and _fits(src) and _fits(dst):
                kind[i] = K_MOVE
                col_a[i], col_b[i], col_c[i] = ion, src, dst
        elif cls is SplitOp:
            ion, trap = op.ion, op.trap
            if _fits(ion) and _fits(trap):
                kind[i] = K_SPLIT
                col_a[i], col_b[i], col_c[i] = ion, trap, -1
        elif cls is MergeOp:
            ion, trap, position = op.ion, op.trap, op.position
            if (
                _fits(ion)
                and _fits(trap)
                and (position is None or (_fits(position) and position >= 0))
            ):
                kind[i] = K_MERGE
                col_a[i], col_b[i] = ion, trap
                col_c[i] = -1 if position is None else position
        elif cls is SwapOp:
            ion_a, ion_b, trap = op.ion_a, op.ion_b, op.trap
            if _fits(ion_a) and _fits(ion_b) and _fits(trap):
                kind[i] = K_SWAP
                col_a[i], col_b[i], col_c[i] = ion_a, ion_b, trap
    return kind, col_a, col_b, col_c, col_d


def typed(column):
    """Values with their exact types: ``True == 1``, but a column
    holding ``True`` is not one holding ``1``."""
    return [(type(value), value) for value in column]


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class SubMove(MoveOp):
    pass


BIG = 2**63
EDGES = (BIG - 1, -BIG, BIG, -BIG - 1, 2**70)


def odd_values():
    values = [True, False, Level.HIGH, 1.0, "3", None, *EDGES]
    if HAVE_NUMPY:
        import numpy as np

        values += [np.int64(3), np.int32(-2), np.uint64(7)]
    return values


def adversarial_ops() -> list:
    """Well-formed ops of every kind plus each field set, in turn, to
    every odd value, and shapes the columns do not model."""
    ops = [
        GateOp(Gate("ms", (0, 1)), 2),
        GateOp(Gate("rz", (3,), (0.5,)), 1),
        GateOp(Gate("ccx", (0, 1, 2)), 0),
        MoveOp(4, 1, 2, ShuttleReason.REBALANCE),
        SplitOp(4, 1),
        MergeOp(4, 2),
        MergeOp(4, 2, position=0),
        MergeOp(4, 2, position=3),
        MergeOp(4, 2, position=-1),
        MergeOp(4, 2, position=-5),
        SwapOp(1, 2, 0),
        SubMove(4, 1, 2),
    ]
    for value in odd_values():
        ops += [
            GateOp(trusted_gate("ms", (value, 1), ()), 0),
            GateOp(trusted_gate("ms", (0, value), ()), 0),
            GateOp(trusted_gate("rz", (value,), (0.1,)), 0),
            GateOp(Gate("ms", (0, 1)), value),
            GateOp(Gate("h", (2,)), value),
            MoveOp(value, 0, 1),
            MoveOp(0, value, 1),
            MoveOp(0, 1, value),
            SplitOp(value, 0),
            SplitOp(0, value),
            MergeOp(value, 0),
            MergeOp(0, value),
            MergeOp(0, 0, position=value),
            SwapOp(value, 1, 0),
            SwapOp(0, value, 0),
            SwapOp(0, 1, value),
        ]
    return ops


def assert_matches_reference(ops):
    stream = compile_stream(ops)
    kind, col_a, col_b, col_c, col_d = reference_columns(ops)
    assert stream.kind_l == kind
    assert typed(stream.a_l) == typed(col_a)
    assert typed(stream.b_l) == typed(col_b)
    assert typed(stream.c_l) == typed(col_c)
    assert typed(stream.d_l) == typed(col_d)
    if HAVE_NUMPY:
        kind_array, *fields = stream.arrays()
        assert kind_array.tolist() == kind
        for column, expected in zip(fields, (col_a, col_b, col_c)):
            assert column.dtype.name == "int64"
            assert column.tolist() == [int(v) for v in expected]
    assert stream.needs_scalar == any(k >= K_SWAP for k in kind)
    assert list(stream) == list(ops)


def test_compile_stream_matches_reference_on_adversarial_ops():
    ops = adversarial_ops()
    assert_matches_reference(ops)
    stream = compile_stream(ops)
    assert K_OTHER in stream.kind_l and K_GATE in stream.kind_l


@pytest.mark.parametrize("seed", range(12))
def test_compile_stream_matches_reference_on_mixed_streams(seed):
    """Mostly clean streams with a few odd rows: the bulk check must
    fall back for exactly the rows the per-field rule rejects."""
    rng = random.Random(seed)
    clean = list(compiled("baseline", seed=seed % 3).schedule)[:400]
    odd = adversarial_ops()
    ops = clean + rng.sample(odd, rng.randrange(0, 4))
    rng.shuffle(ops)
    assert_matches_reference(ops)


@pytest.mark.parametrize("edge", EDGES)
def test_one_out_of_range_int_flags_only_its_row(edge):
    ops = list(compiled("baseline").schedule)[:200]
    ops[57] = MoveOp(edge, 0, 1)
    assert_matches_reference(ops)


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_compile_stream_matches_reference_on_compiled_schedules(config_name):
    assert_matches_reference(list(compiled(config_name).schedule))


@pytest.mark.parametrize("source", ["compiled", "adversarial"])
def test_two_qubit_gate_count_from_the_stream(source):
    """A schedule counts its two-qubit gates off the ``d`` column;
    the count must equal the op scan's, also when odd rows leave the
    columns incomplete."""
    if source == "compiled":
        ops = list(compiled("this-work").schedule)
    else:
        ops = [op for op in adversarial_ops() if type(op) is not SwapOp]
        ops.append(GateOp(Gate("ms", (4, 5)), 1))
    assert Schedule(ops).num_two_qubit_gates == sum(
        1 for op in ops if isinstance(op, GateOp) and len(op.gate.qubits) == 2
    )



# ----------------------------------------------------------------------
# One encoding per op
# ----------------------------------------------------------------------
def test_each_op_is_encoded_once_per_schedule(monkeypatch):
    """compile -> default passes -> simulate -> pickle round trip: the
    compiled schedule is encoded once, in bulk; after that only splice
    replacements are (``tighten`` takes rows, replay and pickling read
    the columns as they are)."""
    from repro.core import vector
    from repro.sim.simulator import Simulator

    encoded: list[int] = []
    encode = vector._encode
    monkeypatch.setattr(
        vector, "_encode", lambda ops: encoded.append(len(ops)) or encode(ops)
    )
    replacements: list[int] = []
    spliced = vector.CompiledStream.spliced

    def counting_spliced(self, start, end, replacement=()):
        replacement = list(replacement)
        replacements.append(len(replacement))
        return spliced(self, start, end, replacement)

    monkeypatch.setattr(vector.CompiledStream, "spliced", counting_spliced)
    machine = l6_machine()
    config = CompilerConfig.optimized().variant(post_passes=("default",))
    result = QCCDCompiler(machine, config).compile(random_circuit(60, 1400, 1))
    rewrites = {stats.name: stats.rewrites for stats in result.pass_stats}
    assert rewrites["fuse-merge-split"] > 0 and rewrites["tighten-gates"] > 0
    assert replacements
    assert encoded == [result.raw_num_ops] + replacements

    Simulator(machine).run(result.schedule, result.initial_chains)
    clone = pickle.loads(pickle.dumps(result.schedule))
    assert clone == result.schedule
    assert clone._columns() == result.schedule._columns()
    # Without numpy the state is the op objects, encoded on load.
    reloaded = [] if HAVE_NUMPY else [len(clone)]
    assert encoded == [result.raw_num_ops] + replacements + reloaded
