"""Schedule container tests."""

from repro.circuits.gate import Gate
from repro.core.ops import GateOp, MergeOp, MoveOp, ShuttleReason, SplitOp
from repro.sim.schedule import Schedule


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
        _ = schedule.num_shuttles  # force the kind tally into existence
        replacement = [SplitOp(ion=3, trap=0), MergeOp(ion=3, trap=0)]
        out = schedule.spliced(2, 4, replacement)
        expected = Schedule(
            list(schedule.ops[:2]) + replacement + list(schedule.ops[4:])
        )
        assert out == expected
        # Derived counts match a from-scratch tally.
        assert out.count_kinds() == expected.count_kinds()
        assert out.num_shuttles == 0
        assert out.num_splits == 2
        assert hash(out) == hash(expected)

    def test_spliced_without_counts_stays_lazy(self):
        schedule = mixed_schedule()
        out = schedule.spliced(0, 1)
        assert out._kind_counts is None
        assert len(out) == 5
        assert out.num_shuttles == 2

    def test_spliced_pure_insertion(self):
        schedule = mixed_schedule()
        _ = schedule.count_kinds()
        extra = [GateOp(gate=Gate("h", (1,)), trap=0)]
        out = schedule.spliced(3, 3, extra)
        assert len(out) == 7
        assert out.num_gates == 3
        assert out.count_kinds() == Schedule(out.ops).count_kinds()
