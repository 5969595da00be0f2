"""Unit and integration tests for the post-compilation pass subsystem."""

from collections import Counter

import pytest

from repro import obs
from repro.arch import (
    l6_machine,
    linear_topology,
    ring_topology,
    uniform_machine,
)
from repro.circuits.circuit import Circuit
from repro.circuits.gate import Gate
from repro.compiler import CompilerConfig, compile_circuit
from repro.core import estimate_makespan
from repro.core.ops import GateOp, MergeOp, MoveOp, SplitOp, SwapOp
from repro.eval.exact import optimal_shuttle_count
from repro.passes import (
    DEFAULT_PIPELINE,
    GateHoisting,
    MergeSplitFusion,
    OptimizationResult,
    PassContext,
    PassError,
    PassManager,
    RouteReselection,
    SchedulePass,
    VerificationError,
    available_passes,
    is_legal,
    make_passes,
    optimize_schedule,
    resolve_pass_names,
    verify_equivalent,
    verify_schedule,
)
from repro.sim.schedule import Schedule
from repro.sim.simulator import Simulator


def small_machine(traps=3, capacity=4, comm=1):
    return uniform_machine(linear_topology(traps), capacity, comm)


def sched(*ops) -> Schedule:
    return Schedule(ops)


def count_engines(monkeypatch) -> list:
    """Record the source of every splice engine the passes build."""
    import repro.passes.base as base

    built = []
    real = base.CheckpointedReplay

    def counting(machine, ops, *args, **kwargs):
        built.append(ops)
        return real(machine, ops, *args, **kwargs)

    monkeypatch.setattr(base, "CheckpointedReplay", counting)
    return built


def trip(ion, path, gate_after=None):
    """Ops for one excursion along ``path`` (list of traps)."""
    ops = [SplitOp(ion=ion, trap=path[0])]
    ops += [
        MoveOp(ion=ion, src=a, dst=b) for a, b in zip(path, path[1:])
    ]
    ops.append(MergeOp(ion=ion, trap=path[-1]))
    if gate_after is not None:
        ops.append(gate_after)
    return ops


class TestVerifySchedule:
    def test_accepts_compiler_output(self):
        circuit = Circuit(6, name="v")
        for a, b in [(0, 5), (1, 4), (2, 3), (0, 3)]:
            circuit.add("ms", a, b)
        machine = small_machine()
        result = compile_circuit(circuit, machine)
        final = verify_schedule(
            machine, result.schedule, result.initial_chains
        )
        assert final == result.final_chains

    def test_rejects_gate_on_absent_ion(self):
        machine = small_machine()
        schedule = sched(GateOp(gate=Gate("ms", (0, 1)), trap=1))
        with pytest.raises(VerificationError, match="is not there"):
            verify_schedule(machine, schedule, {0: [0, 1]})

    def test_rejects_move_without_split(self):
        machine = small_machine()
        schedule = sched(MoveOp(ion=0, src=0, dst=1))
        with pytest.raises(VerificationError, match="without a split"):
            verify_schedule(machine, schedule, {0: [0]})

    def test_rejects_move_without_edge(self):
        machine = small_machine()
        schedule = sched(
            SplitOp(ion=0, trap=0), MoveOp(ion=0, src=0, dst=2)
        )
        with pytest.raises(VerificationError, match="no shuttle path"):
            verify_schedule(machine, schedule, {0: [0]})

    def test_rejects_move_into_full_trap(self):
        machine = small_machine(capacity=2)
        schedule = sched(
            SplitOp(ion=0, trap=0),
            MoveOp(ion=0, src=0, dst=1),
        )
        with pytest.raises(VerificationError, match="full trap"):
            verify_schedule(machine, schedule, {0: [0], 1: [1, 2]})

    def test_rejects_merge_at_wrong_trap(self):
        machine = small_machine()
        schedule = sched(
            SplitOp(ion=0, trap=0),
            MoveOp(ion=0, src=0, dst=1),
            MergeOp(ion=0, trap=2),
        )
        with pytest.raises(VerificationError, match="it is at trap"):
            verify_schedule(machine, schedule, {0: [0]})

    def test_rejects_stranded_transit(self):
        machine = small_machine()
        schedule = sched(SplitOp(ion=0, trap=0))
        with pytest.raises(VerificationError, match="in transit"):
            verify_schedule(machine, schedule, {0: [0]})

    def test_rejects_non_adjacent_swap(self):
        machine = small_machine()
        schedule = sched(SwapOp(ion_a=0, ion_b=2, trap=0))
        with pytest.raises(VerificationError, match="not adjacent"):
            verify_schedule(machine, schedule, {0: [0, 1, 2]})

    def test_rejects_overfull_initial_chain(self):
        machine = small_machine(capacity=2)
        with pytest.raises(VerificationError, match="capacity"):
            verify_schedule(machine, sched(), {0: [0, 1, 2]})

    def test_returns_final_chains(self):
        machine = small_machine()
        schedule = sched(*trip(0, [0, 1]))
        final = verify_schedule(machine, schedule, {0: [0], 1: [1]})
        assert final[0] == []
        assert final[1] == [1, 0]


class TestVerifyEquivalent:
    def test_accepts_identical(self):
        a = sched(GateOp(gate=Gate("ms", (0, 1)), trap=0))
        verify_equivalent(a, a)

    def test_accepts_independent_reorder(self):
        g1 = GateOp(gate=Gate("ms", (0, 1)), trap=0)
        g2 = GateOp(gate=Gate("ms", (2, 3)), trap=1)
        verify_equivalent(sched(g1, g2), sched(g2, g1))

    def test_rejects_dropped_gate(self):
        g1 = GateOp(gate=Gate("ms", (0, 1)), trap=0)
        with pytest.raises(VerificationError, match="multiset"):
            verify_equivalent(sched(g1), sched())

    def test_rejects_dependent_reorder(self):
        g1 = GateOp(gate=Gate("h", (0,)), trap=0)
        g2 = GateOp(gate=Gate("x", (0,)), trap=0)
        with pytest.raises(VerificationError, match="reordered"):
            verify_equivalent(sched(g1, g2), sched(g2, g1))


class TestRoundTripElision:
    """The round-trip deletion phase of ``MergeSplitFusion``."""

    def ctx(self, machine=None, chains=None):
        machine = machine or small_machine()
        return PassContext(
            machine=machine, initial_chains=chains or {0: [0], 1: [1]}
        )

    def test_elides_simple_round_trip(self):
        schedule = sched(*trip(0, [0, 1]), *trip(0, [1, 0]))
        out, rewrites = MergeSplitFusion().run(schedule, self.ctx())
        assert rewrites == 1
        assert len(out) == 0

    def test_keeps_trip_that_served_a_gate(self):
        gate = GateOp(gate=Gate("ms", (0, 1)), trap=1)
        schedule = sched(
            *trip(0, [0, 1], gate_after=gate), *trip(0, [1, 0])
        )
        out, rewrites = MergeSplitFusion().run(schedule, self.ctx())
        assert rewrites == 0
        assert out == schedule

    def test_keeps_trip_other_traffic_depends_on(self):
        # Trap 0 (capacity 2) starts full; ion 0 vacates so ion 2 can
        # merge in for a gate and leave again, then ion 0 returns.
        # Deleting ion 0's round trip would overfill trap 0 the moment
        # ion 2 arrives, so the verifier rejects the deletion — and the
        # gate on ion 2 blocks deleting *its* round trip.  Ion 0 may
        # still wait in transit at trap 1 (plain fusion), but its
        # moves stay.
        machine = small_machine(capacity=2)
        chains = {0: [0, 1], 1: [], 2: [2]}
        gate = GateOp(gate=Gate("ms", (1, 2)), trap=0)
        schedule = sched(
            *trip(0, [0, 1]),
            *trip(2, [2, 1, 0], gate_after=gate),
            *trip(2, [0, 1, 2]),
            *trip(0, [1, 0]),
        )
        verify_schedule(machine, schedule, chains)
        out, rewrites = MergeSplitFusion().run(
            schedule, PassContext(machine=machine, initial_chains=chains)
        )
        assert rewrites == 1
        assert out.num_shuttles == schedule.num_shuttles
        assert out.num_merges == schedule.num_merges - 1
        assert is_legal(machine, out, chains)

    def test_no_candidate_builds_no_engine(self, monkeypatch):
        built = count_engines(monkeypatch)
        gate = GateOp(gate=Gate("ms", (0, 1)), trap=1)
        schedule = sched(
            *trip(0, [0, 1], gate_after=gate), *trip(0, [1, 0])
        )
        out, rewrites = MergeSplitFusion().run(schedule, self.ctx())
        assert (out, rewrites) == (schedule, 0)
        assert built == []

    def test_engine_shares_the_schedule(self, monkeypatch):
        # Built from the cache-bearing Schedule, not a copy of its ops,
        # so the columnar compilation is shared with the pass manager.
        built = count_engines(monkeypatch)
        schedule = sched(*trip(0, [0, 1]), *trip(0, [1, 0]))
        MergeSplitFusion().run(schedule, self.ctx())
        assert len(built) == 1 and built[0] is schedule

    def test_elides_multi_excursion_chain(self):
        # 0 -> 1 -> 2 -> 0 across three excursions, no gates anywhere.
        schedule = sched(
            *trip(0, [0, 1]), *trip(0, [1, 2]), *trip(0, [2, 1, 0])
        )
        ctx = self.ctx(chains={0: [0]})
        out, rewrites = MergeSplitFusion().run(schedule, ctx)
        assert rewrites == 1
        assert len(out) == 0


class TestMergeSplitFusion:
    def ctx(self, machine=None, chains=None):
        machine = machine or small_machine()
        return PassContext(
            machine=machine, initial_chains=chains or {0: [0]}
        )

    def test_plain_fusion_drops_merge_and_split(self):
        gate = GateOp(gate=Gate("h", (0,)), trap=2)
        schedule = sched(
            *trip(0, [0, 1]), *trip(0, [1, 2], gate_after=gate)
        )
        out, rewrites = MergeSplitFusion().run(schedule, self.ctx())
        assert rewrites == 1
        assert out.num_splits == 1
        assert out.num_merges == 1
        assert out.num_shuttles == 2  # straight-line: no moves saved
        assert gate in out.ops

    def test_shortened_fusion_saves_shuttles(self):
        # Evicted two traps right, then needed one trap left of the
        # park: 0->2 then 2->1 walks 3 hops where 1 suffices.
        gate = GateOp(gate=Gate("h", (0,)), trap=1)
        schedule = sched(
            *trip(0, [0, 1, 2]), *trip(0, [2, 1], gate_after=gate)
        )
        out, rewrites = MergeSplitFusion().run(schedule, self.ctx())
        assert rewrites == 1
        assert out.num_shuttles == 1
        assert out.num_splits == 1 and out.num_merges == 1
        assert is_legal(small_machine(), out, {0: [0]})

    def test_fusion_reuses_the_deletion_analysis(self, monkeypatch):
        # Deletion accepts nothing, so its analysis serves the first
        # fusion sweep; only the accepting fusion sweep re-analyses.
        import repro.passes.fuse as fuse

        calls = []
        real = fuse.extract_excursions
        monkeypatch.setattr(
            fuse,
            "extract_excursions",
            lambda ops: calls.append(len(ops)) or real(ops),
        )
        gate = GateOp(gate=Gate("h", (0,)), trap=2)
        schedule = sched(
            *trip(0, [0, 1]), *trip(0, [1, 2], gate_after=gate)
        )
        _, rewrites = MergeSplitFusion().run(schedule, self.ctx())
        assert rewrites == 1
        assert calls == [len(schedule), len(schedule) - 2]

    def test_gate_at_park_blocks_fusion(self):
        gate = GateOp(gate=Gate("h", (0,)), trap=1)
        schedule = sched(
            *trip(0, [0, 1], gate_after=gate), *trip(0, [1, 2])
        )
        out, rewrites = MergeSplitFusion().run(schedule, self.ctx())
        assert rewrites == 0
        assert out == schedule


class TestRouteReselection:
    def test_reroutes_around_congestion(self):
        # Ring of 4: 0 -> 2 goes via 1 or via 3; trap 1 is crowded,
        # trap 3 empty, so the pass flips the route to 0 -> 3 -> 2.
        machine = uniform_machine(ring_topology(4), 4, 1)
        chains = {0: [0], 1: [1, 2, 3], 3: []}
        schedule = sched(
            SplitOp(ion=0, trap=0),
            MoveOp(ion=0, src=0, dst=1),
            MoveOp(ion=0, src=1, dst=2),
            MergeOp(ion=0, trap=2),
        )
        verify_schedule(machine, schedule, chains)
        out, rewrites = RouteReselection().run(
            schedule, PassContext(machine=machine, initial_chains=chains)
        )
        assert rewrites == 1
        moves = [op for op in out if isinstance(op, MoveOp)]
        assert [(m.src, m.dst) for m in moves] == [(0, 3), (3, 2)]
        assert is_legal(machine, out, chains)

    def test_noop_on_linear_machine(self):
        machine = small_machine(traps=4)
        chains = {0: [0], 1: [1, 2, 3]}
        schedule = sched(*trip(0, [0, 1, 2, 3]))
        out, rewrites = RouteReselection().run(
            schedule, PassContext(machine=machine, initial_chains=chains)
        )
        assert rewrites == 0
        assert out == schedule

    def test_unique_paths_skip_without_replay(self, monkeypatch):
        built = count_engines(monkeypatch)
        machine = small_machine(traps=4)
        chains = {0: [0], 1: [1, 2, 3]}
        schedule = sched(*trip(0, [0, 1, 2, 3]))
        ctx = PassContext(machine=machine, initial_chains=chains)
        with obs.observe() as observation:
            out, rewrites = RouteReselection().run(schedule, ctx)
        assert out is schedule and rewrites == 0
        assert built == []
        counters = observation.metrics.counters
        assert counters["passes.reroute.skipped_unique_paths"] == 1

    def test_diverse_paths_are_not_skipped(self):
        machine = uniform_machine(ring_topology(4), 4, 1)
        chains = {0: [0], 1: [1, 2, 3], 3: []}
        schedule = sched(*trip(0, [0, 1, 2]))
        ctx = PassContext(machine=machine, initial_chains=chains)
        with obs.observe() as observation:
            _, rewrites = RouteReselection().run(schedule, ctx)
        assert rewrites == 1
        assert "passes.reroute.skipped_unique_paths" not in (
            observation.metrics.counters
        )


class TestGateHoisting:
    def test_hoists_gate_ahead_of_barrier(self):
        # Ion 2 shuttles from busy trap 2 through trap 1 to trap 0; the
        # move into trap 1 synchronizes trap 1 with trap 2's long gate,
        # stalling the trap-1 gates that could have run during the wait.
        machine = small_machine(traps=3, capacity=4)
        chains = {0: [4], 1: [0, 1], 2: [2, 3]}
        busy = GateOp(gate=Gate("ms", (2, 3)), trap=2)
        idle = GateOp(gate=Gate("h", (0,)), trap=1)
        final = GateOp(gate=Gate("ms", (0, 1)), trap=1)
        schedule = sched(
            busy,
            SplitOp(ion=2, trap=2),
            MoveOp(ion=2, src=2, dst=1),
            MoveOp(ion=2, src=1, dst=0),
            MergeOp(ion=2, trap=0),
            idle,
            final,
        )
        ctx = PassContext(machine=machine, initial_chains=chains)
        verify_schedule(machine, schedule, chains)
        out, rewrites = GateHoisting().run(schedule, ctx)
        assert rewrites == 2
        assert out.ops[0] == idle
        assert out.ops[1] == final
        num_traps = machine.num_traps
        assert estimate_makespan(num_traps, out) < estimate_makespan(
            num_traps, schedule
        )
        verify_equivalent(schedule, out)
        verify_schedule(machine, out, chains)

    def test_never_crosses_dependent_gate(self):
        machine = small_machine(traps=2)
        chains = {0: [0], 1: [1]}
        g1 = GateOp(gate=Gate("h", (0,)), trap=0)
        g2 = GateOp(gate=Gate("x", (0,)), trap=0)
        schedule = sched(g1, g2)
        out, rewrites = GateHoisting().run(
            schedule, PassContext(machine=machine, initial_chains=chains)
        )
        assert rewrites == 0
        assert out == schedule

    def test_fidelity_unchanged_by_hoisting(self):
        circuit = Circuit(8, name="hoist")
        for a, b in [(0, 7), (1, 6), (2, 5), (3, 4), (0, 4), (2, 7)]:
            circuit.add("ms", a, b)
        machine = small_machine(traps=4, capacity=3)
        result = compile_circuit(circuit, machine)
        ctx = PassContext(
            machine=machine, initial_chains=result.initial_chains
        )
        out, rewrites = GateHoisting().run(result.schedule, ctx)
        simulator = Simulator(machine)
        before = simulator.run(result.schedule, result.initial_chains)
        after = simulator.run(out, result.initial_chains)
        assert after.program_log_fidelity == pytest.approx(
            before.program_log_fidelity, abs=1e-12
        )
        assert after.duration <= before.duration + 1e-12


class _BrokenPass(SchedulePass):
    name = "broken"
    description = "drops the last op (test only)"

    def run(self, schedule, ctx):
        return Schedule(schedule.ops[:-1]), 1


class _HeatingPass(SchedulePass):
    """Legal, equivalent, shuttle-neutral — but heats a chain before
    its gates run, so program fidelity strictly drops."""

    name = "heater"
    description = "prepends a pointless in-chain swap (test only)"

    def run(self, schedule, ctx):
        swap = SwapOp(ion_a=0, ion_b=1, trap=0)
        return Schedule([swap] + list(schedule.ops)), 1


class TestPassManager:
    def compiled(self):
        circuit = Circuit(6, name="pm")
        for a, b in [(0, 5), (1, 4), (2, 3), (0, 3), (1, 5)]:
            circuit.add("ms", a, b)
        machine = small_machine()
        result = compile_circuit(circuit, machine)
        return machine, result

    def test_refuses_illegal_input(self):
        machine = small_machine()
        schedule = sched(SplitOp(ion=9, trap=0))
        with pytest.raises(VerificationError):
            PassManager().run(schedule, machine, {0: [0]})

    def test_refuses_broken_pass_output(self):
        machine, result = self.compiled()
        manager = PassManager([_BrokenPass()], fidelity_guard=False)
        with pytest.raises(PassError, match="broken"):
            manager.run(
                result.schedule, machine, result.initial_chains
            )

    def test_fidelity_guard_reverts_heating_pass(self):
        machine = small_machine(traps=2, capacity=3)
        chains = {0: [0, 1], 1: [2]}
        schedule = sched(GateOp(gate=Gate("ms", (0, 1)), trap=0))

        guarded = PassManager(
            [_HeatingPass()], fidelity_guard=True
        ).run(schedule, machine, chains)
        assert guarded.passes[0].reverted
        assert guarded.schedule == schedule

        unguarded = PassManager(
            [_HeatingPass()], fidelity_guard=False
        ).run(schedule, machine, chains)
        assert not unguarded.passes[0].reverted
        assert len(unguarded.schedule) == len(schedule) + 1

    def test_records_per_pass_stats(self):
        machine, result = self.compiled()
        optimization = PassManager().run(
            result.schedule, machine, result.initial_chains
        )
        assert isinstance(optimization, OptimizationResult)
        assert [s.name for s in optimization.passes] == list(
            DEFAULT_PIPELINE
        )
        assert optimization.num_shuttles <= optimization.raw_num_shuttles
        assert "shuttles" in optimization.summary()

    def test_optimize_schedule_wrapper(self):
        machine, result = self.compiled()
        optimization = optimize_schedule(
            result.schedule, machine, result.initial_chains
        )
        verify_schedule(
            machine, optimization.schedule, result.initial_chains
        )
        verify_equivalent(result.schedule, optimization.schedule)


class TestRegistry:
    def test_available_passes_lists_all(self):
        names = [name for name, _ in available_passes()]
        assert names == list(DEFAULT_PIPELINE)
        assert all(doc for _, doc in available_passes())

    def test_resolve_default_and_all(self):
        assert resolve_pass_names(None) == DEFAULT_PIPELINE
        assert resolve_pass_names(("default",)) == DEFAULT_PIPELINE
        assert resolve_pass_names(("all",)) == DEFAULT_PIPELINE

    def test_resolve_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown pass"):
            resolve_pass_names(("optimize-harder",))

    def test_resolve_deduplicates(self):
        assert resolve_pass_names(
            ("reroute", "default", "reroute")
        ) == ("reroute",) + tuple(
            n for n in DEFAULT_PIPELINE if n != "reroute"
        )

    def test_make_passes_accepts_mixed_forms(self):
        pipeline = make_passes(
            ["reroute", GateHoisting, MergeSplitFusion()]
        )
        assert [p.name for p in pipeline] == [
            "reroute", "tighten-gates", "fuse-merge-split",
        ]
        with pytest.raises(TypeError):
            make_passes([42])


class TestCompilerIntegration:
    def circuit(self):
        circuit = Circuit(8, name="integ")
        for a, b in [(0, 7), (1, 6), (2, 5), (3, 4), (0, 4), (2, 6)]:
            circuit.add("ms", a, b)
        return circuit

    def test_post_passes_config_validation(self):
        with pytest.raises(ValueError, match="unknown pass"):
            CompilerConfig(post_passes=("bogus",))
        config = CompilerConfig(post_passes=("default",))
        assert config.post_passes == DEFAULT_PIPELINE

    def test_post_passes_changes_fingerprint(self):
        from repro.batch.jobs import CompileJob

        machine = small_machine()
        plain = CompileJob(
            self.circuit(), machine, CompilerConfig.optimized()
        )
        passed = CompileJob(
            self.circuit(),
            machine,
            CompilerConfig.optimized().variant(
                post_passes=("default",)
            ),
        )
        assert plain.fingerprint() != passed.fingerprint()

    def test_compile_with_post_passes(self):
        machine = small_machine(traps=4, capacity=3)
        config = CompilerConfig.optimized().variant(
            post_passes=("default",)
        )
        result = compile_circuit(self.circuit(), machine, config)
        assert result.optimized
        assert result.raw_num_shuttles is not None
        assert result.num_shuttles <= result.raw_num_shuttles
        assert result.raw_num_ops is not None
        assert len(result.pass_stats) == len(DEFAULT_PIPELINE)
        assert "passes:" in result.summary()
        # The recorded schedule and final chains match a real replay.
        final = verify_schedule(
            machine, result.schedule, result.initial_chains
        )
        assert final == result.final_chains
        # And the simulator accepts the optimized stream.
        Simulator(machine).run(result.schedule, result.initial_chains)

    def test_gate_order_tracks_pass_reordering(self):
        # tighten-gates may hoist gates; gate_order must keep mapping
        # the shipped schedule's gates back to circuit positions.
        circuit = self.circuit()
        machine = small_machine(traps=4, capacity=3)
        config = CompilerConfig.optimized().variant(
            post_passes=("default",)
        )
        result = compile_circuit(circuit, machine, config)
        assert sorted(result.gate_order) == list(range(len(circuit)))
        scheduled = [op.gate for op in result.schedule.gate_ops()]
        assert scheduled == [
            circuit.gates[index] for index in result.gate_order
        ]

    def test_without_passes_fields_are_none(self):
        result = compile_circuit(self.circuit(), small_machine(4, 3))
        assert not result.optimized
        assert result.raw_num_shuttles is None
        assert result.pass_stats == ()
        assert result.shuttles_removed_by_passes == 0

    def test_records_carry_pass_columns(self):
        from repro.batch.jobs import CompileJob
        from repro.batch.records import build_record
        from repro.batch.runner import execute_job, JobResult

        machine = small_machine(traps=4, capacity=3)
        job = CompileJob(
            self.circuit(),
            machine,
            CompilerConfig.optimized().variant(
                post_passes=("default",)
            ),
        )
        result, report = execute_job(job)
        record = build_record(
            job, JobResult(0, job.fingerprint(), result, report)
        )
        assert record.raw_num_shuttles == result.raw_num_shuttles
        assert record.shuttles_removed == (
            result.raw_num_shuttles - result.num_shuttles
        )
        assert record.pass_rewrites == result.pass_rewrites


class TestExactEquivalence:
    """Optimized schedules stay within the exact solver's bounds on the
    small-circuit set (eval/exact machinery, Section IV-E1)."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_optimized_never_beats_exact_optimum(self, seed):
        import random

        rng = random.Random(seed)
        circuit = Circuit(6, name=f"exact-{seed}")
        for _ in range(8):
            a, b = rng.sample(range(6), 2)
            circuit.add("ms", a, b)
        machine = small_machine(traps=3, capacity=4, comm=1)
        result = compile_circuit(circuit, machine)
        optimization = PassManager().run(
            result.schedule, machine, result.initial_chains
        )
        optimum = optimal_shuttle_count(
            circuit, machine, result.initial_chains
        )
        assert optimization.num_shuttles >= optimum
        # Equivalence: the optimized stream executes the same circuit.
        verify_equivalent(result.schedule, optimization.schedule)
        assert Counter(
            op.gate for op in optimization.schedule.gate_ops()
        ) == Counter(op.gate for op in result.schedule.gate_ops())
        report = Simulator(machine).run(
            optimization.schedule, result.initial_chains
        )
        assert report.num_gates == len(circuit.gates)
