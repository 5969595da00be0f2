"""Schedule container tests."""

import copy
import pickle

import pytest

from repro.batch import ResultCache
from repro.circuits.gate import Gate, GateError
from repro.core.ops import (
    GateOp,
    MergeOp,
    MoveOp,
    ShuttleReason,
    SplitOp,
    SwapOp,
)
from repro.core import vector
from repro.core.vector import (
    HAVE_NUMPY,
    STREAM_FORMAT,
    CompiledStream,
    compile_stream,
)
from repro.sim.schedule import Schedule

if HAVE_NUMPY:
    import numpy as np


def mixed_schedule() -> Schedule:
    schedule = Schedule()
    schedule.append(GateOp(gate=Gate("ms", (0, 1)), trap=0))
    schedule.append(SplitOp(ion=2, trap=1))
    schedule.append(MoveOp(ion=2, src=1, dst=0))
    schedule.append(
        MoveOp(ion=2, src=0, dst=1, reason=ShuttleReason.REBALANCE)
    )
    schedule.append(MergeOp(ion=2, trap=1))
    schedule.append(GateOp(gate=Gate("h", (0,)), trap=0))
    return schedule


class TestCounts:
    def test_len_and_iter(self):
        schedule = mixed_schedule()
        assert len(schedule) == 6
        assert len(list(schedule)) == 6
        assert schedule[0].kind == "gate"

    def test_num_shuttles_counts_moves(self):
        assert mixed_schedule().num_shuttles == 2

    def test_gate_counts(self):
        schedule = mixed_schedule()
        assert schedule.num_gates == 2
        assert schedule.num_two_qubit_gates == 1

    def test_split_merge_counts(self):
        schedule = mixed_schedule()
        assert schedule.num_splits == 1
        assert schedule.num_merges == 1

    def test_shuttles_by_reason(self):
        by_reason = mixed_schedule().shuttles_by_reason()
        assert by_reason[ShuttleReason.GATE] == 1
        assert by_reason[ShuttleReason.REBALANCE] == 1

    def test_shuttle_to_gate_ratio(self):
        assert mixed_schedule().shuttle_to_gate_ratio == 2.0
        assert Schedule().shuttle_to_gate_ratio == 0.0

    def test_count_kinds(self):
        kinds = mixed_schedule().count_kinds()
        assert kinds == {"gate": 2, "split": 1, "move": 2, "merge": 1}

    def test_gate_ops(self):
        gate_ops = mixed_schedule().gate_ops()
        assert len(gate_ops) == 2
        assert all(isinstance(op, GateOp) for op in gate_ops)

    def test_extend(self):
        schedule = Schedule()
        schedule.extend(mixed_schedule().ops)
        assert len(schedule) == 6

    def test_repr(self):
        text = repr(mixed_schedule())
        assert "shuttles=2" in text


class TestHashing:
    def test_hash_consistent_with_eq(self):
        # Regression: __eq__ without __hash__ silently made schedules
        # unhashable; the content hash must match content equality.
        a, b = mixed_schedule(), mixed_schedule()
        assert a == b and a is not b
        assert hash(a) == hash(b)

    def test_schedules_work_as_dict_keys(self):
        memo = {mixed_schedule(): "cached"}
        assert memo[mixed_schedule()] == "cached"
        assert Schedule() not in memo
        assert len({mixed_schedule(), mixed_schedule(), Schedule()}) == 2

    def test_hash_differs_for_different_content(self):
        other = Schedule(mixed_schedule().ops[:-1])
        assert hash(other) != hash(mixed_schedule())

    def test_hash_is_cached(self):
        schedule = mixed_schedule()
        assert schedule._hash is None
        first = hash(schedule)
        assert schedule._hash == first
        assert hash(schedule) == first

    def test_mutation_invalidates_cached_hash(self):
        # Regression: the cached hash must not survive a mutation — a
        # schedule appended to after hashing has to re-hash to its new
        # content, matching __eq__ against a fresh equal schedule.
        schedule = mixed_schedule()
        stale = hash(schedule)
        schedule.append(GateOp(gate=Gate("h", (1,)), trap=0))
        assert hash(schedule) != stale
        assert hash(schedule) == hash(Schedule(schedule.ops))
        extended = mixed_schedule()
        stale = hash(extended)
        extended.extend([GateOp(gate=Gate("h", (1,)), trap=0)])
        assert hash(extended) != stale
        assert hash(extended) == hash(schedule)


class TestSpliced:
    def test_spliced_ops_and_counts(self):
        schedule = mixed_schedule()
        replacement = [SplitOp(ion=3, trap=0), MergeOp(ion=3, trap=0)]
        out = schedule.spliced(2, 4, replacement)
        expected = Schedule(
            list(schedule.ops[:2]) + replacement + list(schedule.ops[4:])
        )
        assert out == expected
        # Sliced columns match a from-scratch encoding.
        assert out._columns() == expected._columns()
        assert out.count_kinds() == expected.count_kinds()
        assert out.num_shuttles == 0
        assert out.num_splits == 2
        assert hash(out) == hash(expected)

    def test_spliced_encodes_only_the_replacement(self, monkeypatch):
        schedule = mixed_schedule()
        encoded = []
        encode = vector._encode
        monkeypatch.setattr(
            vector, "_encode", lambda ops: encoded.append(len(ops)) or encode(ops)
        )
        out = schedule.spliced(1, 5, [SplitOp(ion=3, trap=0)])
        assert encoded == [1]
        assert len(out) == 3
        assert out.num_shuttles == 0
        assert out._columns() == Schedule(out.ops)._columns()

    def test_spliced_pure_insertion(self):
        schedule = mixed_schedule()
        extra = [GateOp(gate=Gate("h", (1,)), trap=0)]
        out = schedule.spliced(3, 3, extra)
        assert len(out) == 7
        assert out.num_gates == 3
        assert out.count_kinds() == Schedule(out.ops).count_kinds()

    def test_take_reorders_rows_without_encoding(self, monkeypatch):
        schedule = mixed_schedule()
        order = [5, 0, 1, 2, 3, 4]
        monkeypatch.setattr(vector, "_encode", None)  # any encode fails
        out = schedule.take(order)
        monkeypatch.undo()
        assert type(out) is Schedule
        assert out.ops == tuple(schedule.ops[i] for i in order)
        assert out._columns() == Schedule(out.ops)._columns()

    def test_growth_keeps_the_columns_in_step(self):
        schedule = Schedule()
        for op in mixed_schedule():
            schedule.append(op)
        schedule.extend(mixed_schedule().ops[:3])
        assert schedule._columns() == Schedule(schedule.ops)._columns()
        assert schedule.num_shuttles == 3


class TracedMove(MoveOp):
    """A subclassed op: outside the columns, pickled verbatim."""


class TracedGate(Gate):
    """A subclassed gate: replays as a gate, pickled verbatim."""


#: One schedule per op shape the pickle format distinguishes.
ROUND_TRIP_CASES = {
    "1q-gate": [GateOp(Gate("h", (3,)), 0)],
    "1q-gate-params": [GateOp(Gate("rz", (1,), (0.25,)), 2)],
    "2q-gate": [GateOp(Gate("ms", (0, 1)), 0)],
    "2q-gate-params": [GateOp(Gate("rxx", (4, 2), (-1.5,)), 1)],
    "3q-gate": [GateOp(Gate("ccx", (0, 1, 2)), 0)],
    "move": [MoveOp(3, 0, 1, ShuttleReason.REBALANCE)],
    "split": [SplitOp(3, 0, ShuttleReason.INITIAL)],
    "merge-tail": [MergeOp(3, 1)],
    "merge-head": [MergeOp(3, 1, ShuttleReason.REBALANCE, 0)],
    "merge-negative": [MergeOp(3, 1, position=-1)],
    "swap": [SwapOp(0, 1, 2, ShuttleReason.REBALANCE)],
    "subclassed-op": [TracedMove(3, 0, 1)],
    "subclassed-gate": [GateOp(TracedGate("ms", (0, 1)), 0)],
    "ion-beyond-int64": [MoveOp(2**63, 0, 1), SplitOp(-(2**63) - 1, 0)],
    "empty": [],
}
ROUND_TRIP_CASES["mixed"] = [
    op for ops in ROUND_TRIP_CASES.values() for op in ops
] + list(mixed_schedule().ops)


def _columns(ops):
    stream = compile_stream(list(ops))
    return stream._columns(), stream.needs_scalar


class TestPickle:
    @pytest.mark.parametrize(
        "ops", ROUND_TRIP_CASES.values(), ids=ROUND_TRIP_CASES.keys()
    )
    def test_round_trip(self, ops):
        schedule = Schedule(ops)
        tally = schedule.count_kinds()
        clone = pickle.loads(pickle.dumps(schedule))
        assert clone == schedule
        assert [type(op) for op in clone] == [type(op) for op in ops]
        assert hash(clone) == hash(schedule)
        assert clone.count_kinds() == tally
        assert Schedule(clone.ops).count_kinds() == tally
        assert clone.num_two_qubit_gates == schedule.num_two_qubit_gates
        assert clone.shuttles_by_reason() == schedule.shuttles_by_reason()
        assert _columns(clone.ops) == _columns(ops)
        # The decoded columns are the ones the decoded ops encode to.
        assert (clone._columns(), clone.needs_scalar) == _columns(clone.ops)

    def test_shallow_copy_owns_its_ops(self):
        schedule = mixed_schedule()
        clone = copy.copy(schedule)
        clone.append(SplitOp(5, 0))
        assert len(schedule) == len(clone) - 1
        assert all(len(column) == len(schedule) for column in schedule._columns())

    def test_pickling_attaches_no_stream(self):
        schedule = mixed_schedule()
        pickle.dumps(schedule)
        assert schedule._arrays is None  # no ndarray twins kept

    @pytest.mark.skipif(not HAVE_NUMPY, reason="columns need numpy")
    def test_pickling_reuses_the_replay_stream(self):
        """The state is the schedule's own columns, narrowed."""
        schedule = mixed_schedule()
        state = schedule.__getstate__()
        assert state["version"] == STREAM_FORMAT
        assert state["kind"].tolist() == schedule.kind_l
        for name, column in zip("abc", schedule._columns()[1:4]):
            assert state[name].tolist() == column
        clone = pickle.loads(pickle.dumps(schedule))
        assert clone == schedule
        assert clone._columns() == schedule._columns()
        assert clone._arrays is None

    @pytest.mark.skipif(not HAVE_NUMPY, reason="columns need numpy")
    def test_stream_round_trip(self):
        ops = ROUND_TRIP_CASES["mixed"]
        stream = compile_stream(ops)
        clone = pickle.loads(pickle.dumps(stream))
        assert type(clone) is CompiledStream
        assert clone.ops == stream.ops
        assert clone._columns() == stream._columns()
        assert clone.needs_scalar == stream.needs_scalar
        for column, restored in zip(stream.arrays(), clone.arrays()):
            assert restored.dtype == column.dtype
            assert restored.tolist() == column.tolist()
        state = stream.__getstate__()
        assert not {"_ops", "_arrays", "_plans"} & set(state)

    @pytest.mark.skipif(not HAVE_NUMPY, reason="columns need numpy")
    @pytest.mark.parametrize("version", [None, 1, 2, STREAM_FORMAT + 1])
    def test_unknown_stream_format_rejected(self, version):
        state = compile_stream(mixed_schedule().ops).__getstate__()
        if version is None:
            del state["version"]
        else:
            state["version"] = version
        with pytest.raises(ValueError, match="unsupported CompiledStream"):
            CompiledStream.__new__(CompiledStream).__setstate__(state)

    def test_unknown_schedule_state_rejected(self):
        with pytest.raises(ValueError, match="unsupported Schedule"):
            Schedule.__new__(Schedule).__setstate__(
                {"_packed": {"version": 1}, "_kind_counts": None}
            )


def _gate_row(state, name, *, two_qubit):
    """Index among the gate rows (the order of the name/param-count
    columns) and the stream index of the first plain gate ``name``."""
    names = state["gate_names"]
    kind = state["kind"].tolist()
    gate_index = [i for i, k in enumerate(kind) if k == 0]
    for row, code in enumerate(state["gate_name_codes"].tolist()):
        index = gate_index[row]
        if names[code] == name and (state["c"][index] >= 0) == two_qubit:
            return row, index
    raise AssertionError(f"no {name} gate in the stream")


def _uppercase_name(state):
    state["gate_names"] = [n.upper() if n == "ms" else n for n in state["gate_names"]]


def _negative_qubit(state):
    _, index = _gate_row(state, "h", two_qubit=False)
    state["b"][index] = -3


def _equal_qubits(state):
    _, index = _gate_row(state, "ms", two_qubit=True)
    state["c"][index] = state["b"][index]


def _one_qubit_ms(state):
    _, index = _gate_row(state, "ms", two_qubit=True)
    state["c"][index] = -1


def _rz_without_params(state):
    row, _ = _gate_row(state, "rz", two_qubit=False)
    counts = state["gate_param_counts"]
    start = int(counts[:row].sum())
    state["gate_params"] = np.delete(state["gate_params"], start)
    counts[row] = 0


#: One hand edit per invariant ``Gate.__post_init__`` enforces.
CORRUPTIONS = {
    "upper-case-name": _uppercase_name,
    "negative-qubit": _negative_qubit,
    "equal-qubits": _equal_qubits,
    "ms-with-one-qubit": _one_qubit_ms,
    "rz-without-params": _rz_without_params,
}


def _corrupt_blob(corrupt, monkeypatch) -> bytes:
    """A pickled schedule whose stream state went through ``corrupt``."""
    schedule = mixed_schedule()
    schedule.append(GateOp(Gate("rz", (1,), (0.5,)), 0))
    schedule.append(GateOp(Gate("ms", (2, 1)), 1))
    state = compile_stream(schedule).__getstate__()
    corrupt(state)
    with monkeypatch.context() as patch:
        patch.setattr(CompiledStream, "__getstate__", lambda self: state)
        return pickle.dumps({"schedule": schedule})


@pytest.mark.skipif(not HAVE_NUMPY, reason="columns need numpy")
class TestCorruptStreamDecode:
    """Decoding checks every gate invariant on the columns: a stream
    edited to break one raises GateError instead of building a gate
    its constructor would refuse."""

    def test_unedited_state_decodes_to_constructed_gates(self, monkeypatch):
        blob = _corrupt_blob(lambda state: None, monkeypatch)
        decoded = [op.gate for op in pickle.loads(blob)["schedule"].gate_ops()]
        built = [Gate(g.name, g.qubits, g.params) for g in decoded]
        assert len(decoded) == 4
        assert all(type(gate) is Gate for gate in decoded)
        assert decoded == built
        assert [hash(g) for g in decoded] == [hash(g) for g in built]
        assert [repr(g) for g in decoded] == [repr(g) for g in built]

    @pytest.mark.parametrize(
        "corrupt", CORRUPTIONS.values(), ids=CORRUPTIONS.keys()
    )
    def test_corrupt_column_raises_gate_error(self, corrupt, monkeypatch):
        blob = _corrupt_blob(corrupt, monkeypatch)
        with pytest.raises(GateError):
            pickle.loads(blob)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda state: state.update(
                gate_name_codes=state["gate_name_codes"][:-1]
            ),
            lambda state: state.update(
                gate_params=np.append(state["gate_params"], 1.0)
            ),
        ],
        ids=["missing-name-code", "extra-param"],
    )
    def test_misaligned_vocabulary_is_rejected(self, corrupt, monkeypatch):
        blob = _corrupt_blob(corrupt, monkeypatch)
        with pytest.raises(ValueError, match="columns do not match"):
            pickle.loads(blob)

    @pytest.mark.parametrize(
        "corrupt", CORRUPTIONS.values(), ids=CORRUPTIONS.keys()
    )
    def test_corrupt_cache_entry_is_quarantined(
        self, corrupt, monkeypatch, tmp_path
    ):
        cache = ResultCache(tmp_path / "cache")
        key = "ab" + "c" * 62
        path = cache._path(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(_corrupt_blob(corrupt, monkeypatch))
        assert cache.get(key) is None
        assert cache.stats.misses == 1
        assert cache.stats.corrupt == 1
        assert not path.exists()
        assert path.with_suffix(".pkl.corrupt").exists()

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda state: state["kind"].__setitem__(1, 9),
            lambda state: state["kind"].__setitem__(1, 5),
        ],
        ids=["unknown-kind", "other-row-without-op"],
    )
    def test_rows_the_ops_cannot_back_are_rejected(self, corrupt, monkeypatch):
        blob = _corrupt_blob(corrupt, monkeypatch)
        with pytest.raises(ValueError, match="stream"):
            pickle.loads(blob)

    def test_verbatim_rows_take_their_columns_from_their_ops(self, monkeypatch):
        """A verbatim op's row is re-encoded from the op, so the kept
        columns never disagree with the decoded ops."""

        def mislabel(state):
            state["other"].append((1, SplitOp(2, 1)))
            state["kind"][1] = 0  # claims to be a gate

        clone = pickle.loads(_corrupt_blob(mislabel, monkeypatch))["schedule"]
        assert clone[1] == SplitOp(2, 1)
        assert clone._columns() == Schedule(clone.ops)._columns()
