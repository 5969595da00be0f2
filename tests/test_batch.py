"""Batch-engine tests: fingerprints, cache, runner, and the
serial-vs-batch equivalence regression (cold and warm cache)."""

import os
import pickle
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import pytest

from repro.arch import l6_machine, linear_topology, uniform_machine
from repro.batch import (
    BatchError,
    BatchRunner,
    CompileJob,
    FingerprintError,
    NullCache,
    ResultCache,
    build_records,
    fingerprint,
    paired_jobs,
    records_to_json,
    sweep,
    write_csv,
    write_json,
)
from repro.batch.cache import CACHE_FORMAT
from repro.batch.runner import cache_entry, result_payload
from repro.bench import random_circuit
from repro.bench.suite import paper_suite
from repro.circuits.circuit import Circuit
from repro.compiler.compiler import QCCDCompiler
from repro.compiler.config import CompilerConfig
from repro.compiler.mapping import greedy_initial_mapping
from repro.core.ops import MoveOp, ShuttleReason
from repro.core.params import DEFAULT_PARAMS
from repro.core.vector import CompiledStream
from repro.eval.harness import BenchmarkComparison, compare, run_suite
from repro.sim.schedule import Schedule
from repro.sim.simulator import Simulator


def tiny_machine():
    return uniform_machine(linear_topology(3), 6, 2)


def tiny_suite():
    return [
        random_circuit(10, 60, seed=1),
        random_circuit(10, 60, seed=2),
    ]


def golden_job():
    circuit = (
        Circuit(4, name="golden")
        .add("ms", 0, 1)
        .add("rz", 2, params=[0.5])
        .add("ms", 2, 3)
    )
    machine = uniform_machine(linear_topology(2), 4, 2)
    return CompileJob(circuit, machine, CompilerConfig.baseline())


def result_blob(result):
    """Byte-comparable encoding of every deterministic result field.

    ``compile_time`` is wall-clock and deliberately excluded — it is
    the one field allowed to differ between a fresh compilation and a
    cached or parallel replay.
    """
    return repr(
        (
            result.circuit_name,
            result.config_name,
            result.schedule.ops,
            sorted(result.initial_chains.items()),
            sorted(result.final_chains.items()),
            result.gate_order,
            result.num_reorders,
            result.num_rebalances,
        )
    )


def report_blob(report):
    if report is None:
        return "None"
    return repr(
        (
            report.program_log_fidelity.hex(),
            report.duration.hex(),
            report.num_gates,
            report.num_shuttles,
            report.min_gate_fidelity.hex(),
            report.max_nbar.hex(),
            report.mean_gate_nbar.hex(),
        )
    )


def comparison_blob(comparison):
    return "\n".join(
        [
            result_blob(comparison.baseline),
            result_blob(comparison.optimized),
            report_blob(comparison.baseline_report),
            report_blob(comparison.optimized_report),
        ]
    )


class TestFingerprint:
    def test_equal_content_equal_fingerprint(self):
        a = golden_job()
        b = golden_job()
        assert a is not b
        assert a.fingerprint() == b.fingerprint()

    def test_golden_value_is_process_independent(self):
        # Hard-coded digest: hash() is salted per process, so any use
        # of it (or other run-dependent state) in the canonical
        # encoding would break this test across interpreter runs.
        assert golden_job().fingerprint() == (
            "cbcae31116a02ac2e85c3618b88bdcb5de1e2d97473006bf7bb7c66c6f66440a"
        )

    def test_circuit_content_changes_fingerprint(self):
        base = golden_job()
        changed = CompileJob(
            base.circuit.copy().add("ms", 0, 2),
            base.machine,
            base.config,
        )
        assert base.fingerprint() != changed.fingerprint()

    def test_gate_params_change_fingerprint(self):
        machine = tiny_machine()
        config = CompilerConfig.baseline()
        a = CompileJob(
            Circuit(2, name="c").add("rz", 0, params=[0.5]), machine, config
        )
        b = CompileJob(
            Circuit(2, name="c").add("rz", 0, params=[0.25]), machine, config
        )
        assert a.fingerprint() != b.fingerprint()

    def test_machine_changes_fingerprint(self):
        base = golden_job()
        bigger = uniform_machine(linear_topology(2), 6, 2)
        changed = CompileJob(base.circuit, bigger, base.config)
        assert base.fingerprint() != changed.fingerprint()

    def test_config_changes_fingerprint(self):
        base = golden_job()
        changed = CompileJob(
            base.circuit, base.machine, CompilerConfig.optimized()
        )
        assert base.fingerprint() != changed.fingerprint()

    def test_params_only_matter_when_simulating(self):
        base = golden_job()
        hot = DEFAULT_PARAMS.with_noise(heating_rate=99.0)
        compiled_only = CompileJob(
            base.circuit, base.machine, base.config, params=hot
        )
        assert base.fingerprint() == compiled_only.fingerprint()
        simulated = CompileJob(
            base.circuit, base.machine, base.config, simulate=True
        )
        simulated_hot = CompileJob(
            base.circuit, base.machine, base.config, params=hot, simulate=True
        )
        assert base.fingerprint() != simulated.fingerprint()
        assert simulated.fingerprint() != simulated_hot.fingerprint()

    def test_unknown_type_raises(self):
        with pytest.raises(FingerprintError):
            fingerprint(object())


class TestSweep:
    def test_grid_expansion(self):
        circuits = tiny_suite()
        machines = [tiny_machine(), uniform_machine(linear_topology(4), 6, 2)]
        configs = [CompilerConfig.baseline(), CompilerConfig.optimized()]
        jobs = sweep(circuits, machines, configs)
        assert len(jobs) == len(circuits) * len(machines) * len(configs)
        # Nesting: circuit > machine > config.
        assert jobs[0].circuit is circuits[0]
        assert jobs[0].machine is machines[0]
        assert jobs[0].config is configs[0]
        assert jobs[1].config is configs[1]
        assert jobs[2].machine is machines[1]
        assert jobs[4].circuit is circuits[1]

    def test_single_objects_accepted(self):
        jobs = sweep(
            tiny_suite()[0], tiny_machine(), CompilerConfig.baseline()
        )
        assert len(jobs) == 1

    def test_deterministic_expansion(self):
        make = lambda: sweep(
            tiny_suite(),
            tiny_machine(),
            [CompilerConfig.baseline(), CompilerConfig.optimized()],
        )
        assert [j.fingerprint() for j in make()] == [
            j.fingerprint() for j in make()
        ]

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            sweep([], tiny_machine(), CompilerConfig.baseline())

    def test_paired_jobs_layout(self):
        circuits = tiny_suite()
        jobs = paired_jobs(
            circuits,
            tiny_machine(),
            CompilerConfig.baseline(),
            CompilerConfig.optimized(),
        )
        assert len(jobs) == 4
        assert jobs[0].config.name == "baseline[7]"
        assert jobs[1].config.name == "this-work"
        assert jobs[2].circuit is circuits[1]


class TestCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = "ab" + "c" * 62
        assert cache.get(key) is None
        cache.put(key, {"value": 41})
        assert cache.get(key) == {"value": 41}
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.puts == 1
        assert key in cache
        assert len(cache) == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = "ab" + "c" * 62
        cache.put(key, [1, 2, 3])
        cache._path(key).write_bytes(b"not a pickle")
        assert cache.get(key) is None
        assert cache.stats.misses == 1

    def test_stale_packed_schedule_entry_is_quarantined(
        self, tmp_path, monkeypatch
    ):
        """An entry pickled in the retired ``{"_packed": {"version": 1}}``
        schedule layout is a counted, quarantined miss: no decoder for
        that layout exists, so it can never turn into a wrong schedule."""
        packed = {
            "version": 1,
            "kinds": bytes([1]),
            "shuttle_ints": (3, 0, 1),
            "reasons": [ShuttleReason.GATE],
            "reason_codes": bytes([0]),
            "other": [],
        }
        old_state = {"_packed": packed, "_kind_counts": {"move": 1}}
        with monkeypatch.context() as patch:
            patch.setattr(Schedule, "__getstate__", lambda self: old_state)
            blob = pickle.dumps({"schedule": Schedule()})
        cache = ResultCache(tmp_path / "cache")
        key = "ab" + "c" * 62
        path = cache._path(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(blob)
        assert cache.get(key) is None
        assert cache.stats.misses == 1
        assert cache.stats.corrupt == 1
        assert not path.exists()
        assert path.with_suffix(".pkl.corrupt").exists()
        assert cache.get(key) is None  # quarantined: a plain miss now
        assert cache.stats.corrupt == 1

    def test_stale_wrapped_stream_entry_is_quarantined(
        self, tmp_path, monkeypatch
    ):
        """An entry pickled in the retired format-2 layout (the stream
        wrapped as ``{"_stream": ..., "_kind_counts": ...}``) is a
        counted, quarantined miss."""
        pytest.importorskip("numpy", exc_type=ImportError)
        stream = CompiledStream([MoveOp(3, 0, 1)])
        old_stream = dict(stream.__getstate__(), version=2)
        old_state = {"_stream": stream, "_kind_counts": {"move": 1}}
        with monkeypatch.context() as patch:
            patch.setattr(
                CompiledStream,
                "__getstate__",
                lambda self: old_stream if self is stream else old_state,
            )
            blob = pickle.dumps({"schedule": Schedule()})
        cache = ResultCache(tmp_path / "cache")
        key = "ab" + "c" * 62
        path = cache._path(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(blob)
        assert cache.get(key) is None
        assert cache.stats.misses == 1
        assert cache.stats.corrupt == 1
        assert path.with_suffix(".pkl.corrupt").exists()

    def test_summary_is_stored_beside_the_result(self, tmp_path):
        """An entry holds the job's summary next to its result, and
        reading the summary counts as a hit like ``get`` does."""
        cache = ResultCache(tmp_path / "cache")
        [job_result] = BatchRunner(cache=cache).run([golden_job()])
        key = job_result.fingerprint
        summary = cache.summary(key)
        assert summary == result_payload(cache.get(key))
        assert summary == result_payload(job_result)
        assert summary["num_shuttles"] == job_result.result.num_shuttles
        assert (cache.stats.hits, cache.stats.misses) == (2, 1)

    @pytest.mark.parametrize("read", ["get", "summary"])
    @pytest.mark.parametrize("layout", ["bare", "stale-format", "bad-result"])
    def test_entry_in_another_layout_is_quarantined(
        self, tmp_path, read, layout
    ):
        """A bare pickled ``JobResult`` (the layout before summaries),
        a tuple of another format, or result bytes that will not load
        are counted, quarantined misses for either read."""
        job_result = cache_entry(BatchRunner().run([golden_job()])[0])
        result_bytes = pickle.dumps(job_result)
        entry = {
            "bare": job_result,
            "stale-format": (
                CACHE_FORMAT + 1,
                result_payload(job_result),
                result_bytes,
            ),
            "bad-result": (
                CACHE_FORMAT,
                result_payload(job_result),
                b"not a pickle",
            ),
        }[layout]
        cache = ResultCache(tmp_path / "cache")
        key = job_result.fingerprint
        path = cache._path(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(pickle.dumps(entry))
        if layout == "bad-result" and read == "summary":
            # Only the outer tuple is read: its summary is served.
            assert cache.summary(key) == result_payload(job_result)
            return
        assert getattr(cache, read)(key) is None
        assert cache.stats.misses == 1
        assert cache.stats.corrupt == 1
        assert not path.exists()
        assert path.with_suffix(".pkl.corrupt").exists()
        assert getattr(cache, read)(key) is None  # a plain miss now
        assert cache.stats.corrupt == 1

    def test_summary_of_an_entry_stored_without_one_is_a_miss(
        self, tmp_path
    ):
        """A value with no summary is a counted miss on a summary read,
        but not corrupt: the entry stays and ``get`` still serves it."""
        cache = ResultCache(tmp_path / "cache")
        key = "ab" + "c" * 62
        cache.put(key, [1, 2, 3])
        assert cache.summary(key) is None
        assert cache.stats.misses == 1
        assert cache.stats.corrupt == 0
        assert cache._path(key).exists()
        assert cache.get(key) == [1, 2, 3]
        assert cache.stats.hits == 1

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.put("ab" + "c" * 62, 1)
        cache.put("cd" + "e" * 62, 2)
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_null_cache_never_stores(self):
        cache = NullCache()
        cache.put("ab" + "c" * 62, 1)
        assert cache.get("ab" + "c" * 62) is None
        assert cache.summary("ab" + "c" * 62) is None
        assert cache.stats.hits == 0
        assert cache.stats.misses == 2


class TestCacheCrashSafety:
    """A writer killed mid-``put`` must leave the store fully usable:
    no truncated entry, no phantom count, no quarantine on next read."""

    def test_kill_mid_write_leaves_no_trace(self, tmp_path):
        key = "ab" + "c" * 62
        root = tmp_path / "cache"
        # The child pickles a payload whose tail hard-kills the
        # process (os._exit skips every finally/atexit), after a body
        # large enough that partial frames have already hit the disk —
        # the worst-case torn write.
        script = textwrap.dedent(
            """
            import os, sys
            from repro.batch.cache import ResultCache

            class Bomb:
                def __reduce__(self):
                    os._exit(86)

            cache = ResultCache(sys.argv[1])
            cache.put(sys.argv[2], [b"x" * (1 << 20), Bomb()])
            """
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", script, str(root), key],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 86, proc.stderr

        # The kill really landed mid-write: an orphaned temp file is
        # on disk...
        shard = root / key[:2]
        leftovers = [p.name for p in shard.iterdir()]
        assert leftovers, "child died before opening its temp file"
        # ...but it is invisible to the entry globs (the `.part`
        # suffix regression: pathlib's `*.pkl` DOES match dotfiles).
        cache = ResultCache(root)
        assert len(cache) == 0
        assert key not in cache
        # The torn write is a clean miss — not a corrupt entry, not a
        # quarantine.
        assert cache.get(key) is None
        assert cache.stats.corrupt == 0
        # And the slot is immediately writable again.
        cache.put(key, {"value": 7})
        assert cache.get(key) == {"value": 7}
        assert len(cache) == 1


class TestRunnerInterrupt:
    def _jobs(self):
        return paired_jobs(
            tiny_suite(),
            tiny_machine(),
            CompilerConfig.baseline(),
            CompilerConfig.optimized(),
        )

    def test_preset_event_interrupts_serial_run(self):
        event = threading.Event()
        event.set()
        runner = BatchRunner(n_jobs=1, interrupt=event)
        results = runner.run(self._jobs())
        assert runner.interrupted
        assert [r.job_index for r in results] == list(range(len(results)))
        assert all(r.outcome == "interrupted" for r in results)
        assert all(not r.ok for r in results)

    def test_progress_callback_interrupts_mid_run(self):
        """Setting the event from the progress hook (how the CLI's
        SIGINT handler reaches a running batch) stops dispatch after
        the in-flight job."""
        event = threading.Event()

        def progress(done, total, job, job_result):
            event.set()

        runner = BatchRunner(n_jobs=1, progress=progress, interrupt=event)
        results = runner.run(self._jobs())
        assert runner.interrupted
        assert results[0].ok
        assert {r.outcome for r in results[1:]} == {"interrupted"}

    def test_preset_event_interrupts_pool_run(self):
        event = threading.Event()
        event.set()
        runner = BatchRunner(n_jobs=2, interrupt=event)
        results = runner.run(self._jobs())
        assert runner.interrupted
        assert all(r.outcome == "interrupted" for r in results)

    def test_preset_event_interrupts_run_timed(self):
        """The timeline path owes every planned arrival a record even
        when interrupted before the first dispatch."""
        event = threading.Event()
        event.set()
        jobs = self._jobs()
        runner = BatchRunner(n_jobs=1, interrupt=event)
        timed = runner.run_timed(jobs)
        assert runner.interrupted
        assert len(timed) == len(jobs)
        assert all(t.result.outcome == "interrupted" for t in timed)

    def test_no_event_means_no_interruption(self):
        runner = BatchRunner(n_jobs=1)
        results = runner.run(self._jobs())
        assert not runner.interrupted
        assert all(r.ok for r in results)


class TestRunner:
    def _jobs(self):
        return paired_jobs(
            tiny_suite(),
            tiny_machine(),
            CompilerConfig.baseline(),
            CompilerConfig.optimized(),
        )

    def test_results_are_index_aligned(self):
        jobs = self._jobs()
        results = BatchRunner(n_jobs=1).run(jobs)
        assert [r.job_index for r in results] == list(range(len(jobs)))
        for job, job_result in zip(jobs, results):
            assert job_result.ok
            assert job_result.result.config_name == job.config.name

    def test_parallel_matches_serial(self):
        jobs = self._jobs()
        serial = BatchRunner(n_jobs=1).run(jobs)
        parallel = BatchRunner(n_jobs=2).run(jobs)
        for a, b in zip(serial, parallel):
            assert result_blob(a.result) == result_blob(b.result)

    def test_error_isolation(self):
        too_small = uniform_machine(linear_topology(2), 4, 2)
        jobs = [
            CompileJob(
                tiny_suite()[0], tiny_machine(), CompilerConfig.baseline()
            ),
            CompileJob(tiny_suite()[0], too_small, CompilerConfig.baseline()),
            CompileJob(
                tiny_suite()[1], tiny_machine(), CompilerConfig.optimized()
            ),
        ]
        results = BatchRunner(n_jobs=1).run(jobs)
        assert results[0].ok
        assert not results[1].ok
        assert "CompilationError" in results[1].error
        assert results[2].ok

    def test_run_or_raise_preserves_exception_type(self):
        from repro.compiler import CompilationError

        too_small = uniform_machine(linear_topology(2), 4, 2)
        jobs = [
            CompileJob(tiny_suite()[0], too_small, CompilerConfig.baseline())
        ]
        with pytest.raises(CompilationError):
            BatchRunner(n_jobs=1).run_or_raise(jobs)

    def test_run_or_raise_falls_back_to_batch_error(self):
        too_small = uniform_machine(linear_topology(2), 4, 2)
        jobs = [
            CompileJob(tiny_suite()[0], too_small, CompilerConfig.baseline())
        ]
        results = BatchRunner(n_jobs=1).run(jobs)
        results[0].exception = None  # simulate an unpicklable original
        runner = BatchRunner(n_jobs=1)
        runner.run = lambda _jobs: results
        with pytest.raises(BatchError):
            runner.run_or_raise(jobs)

    def test_progress_callback(self):
        seen = []
        jobs = self._jobs()
        runner = BatchRunner(
            n_jobs=1,
            progress=lambda done, total, job, jr: seen.append(
                (done, total, jr.job_index)
            ),
        )
        runner.run(jobs)
        assert len(seen) == len(jobs)
        assert seen[-1][0] == len(jobs)
        assert all(total == len(jobs) for _, total, _ in seen)

    def test_in_run_deduplication(self):
        job = CompileJob(
            tiny_suite()[0], tiny_machine(), CompilerConfig.baseline()
        )
        runner = BatchRunner(n_jobs=1)
        results = runner.run([job, job])
        assert runner.deduplicated == 1
        assert result_blob(results[0].result) == result_blob(
            results[1].result
        )
        assert [r.job_index for r in results] == [0, 1]

    def test_warm_cache_replays_without_compiling(self, tmp_path):
        jobs = self._jobs()
        cold = BatchRunner(n_jobs=1, cache=ResultCache(tmp_path / "c"))
        cold_results = cold.run(jobs)
        assert cold.cache_stats.misses == len(jobs)
        warm = BatchRunner(n_jobs=1, cache=ResultCache(tmp_path / "c"))
        warm_results = warm.run(jobs)
        assert warm.cache_stats.hits == len(jobs)
        assert warm.cache_stats.misses == 0
        assert all(r.cache_hit for r in warm_results)
        for a, b in zip(cold_results, warm_results):
            assert result_blob(a.result) == result_blob(b.result)

    def test_failures_are_not_cached(self, tmp_path):
        too_small = uniform_machine(linear_topology(2), 4, 2)
        jobs = [
            CompileJob(tiny_suite()[0], too_small, CompilerConfig.baseline())
        ]
        cache = ResultCache(tmp_path / "c")
        BatchRunner(n_jobs=1, cache=cache).run(jobs)
        assert cache.stats.puts == 0
        assert len(cache) == 0

    def test_jobs_and_results_are_picklable(self):
        jobs = self._jobs()[:1]
        results = BatchRunner(n_jobs=1).run(jobs)
        assert pickle.loads(pickle.dumps(jobs[0])).label == jobs[0].label
        restored = pickle.loads(pickle.dumps(results[0]))
        assert restored.result == results[0].result


class TestRecords:
    def test_flat_records_and_export(self, tmp_path):
        jobs = paired_jobs(
            tiny_suite()[:1],
            tiny_machine(),
            CompilerConfig.baseline(),
            CompilerConfig.optimized(),
            simulate=True,
        )
        results = BatchRunner(n_jobs=1).run(jobs)
        records = build_records(jobs, results)
        assert len(records) == 2
        assert records[0].config == "baseline[7]"
        assert records[0].num_shuttles == results[0].result.num_shuttles
        assert records[0].log10_fidelity is not None
        json_path = tmp_path / "records.json"
        csv_path = tmp_path / "records.csv"
        write_json(records, str(json_path))
        write_csv(records, str(csv_path))
        assert '"num_shuttles"' in json_path.read_text()
        header = csv_path.read_text().splitlines()[0]
        assert header.startswith("job_index,fingerprint,circuit")
        assert "num_shuttles" in records_to_json(records)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            build_records([], [object()])


class TestCompileTimeExcludedFromEquality:
    def test_fresh_recompilations_compare_equal(self):
        job = CompileJob(
            tiny_suite()[0], tiny_machine(), CompilerConfig.optimized()
        )
        first = BatchRunner(n_jobs=1).run([job])[0].result
        second = BatchRunner(n_jobs=1).run([job])[0].result
        # Wall-clock differs between the two compilations...
        assert first.compile_time != 0.0
        # ...but equality is content-based, so they compare equal.
        assert first == second

    def test_different_schedules_compare_unequal(self):
        baseline = CompileJob(
            tiny_suite()[0], tiny_machine(), CompilerConfig.baseline()
        )
        optimized = CompileJob(
            tiny_suite()[0], tiny_machine(), CompilerConfig.optimized()
        )
        results = BatchRunner(n_jobs=1).run([baseline, optimized])
        assert results[0].result != results[1].result


def direct_comparison(circuit, machine, simulate):
    """The serial reference path, with no batch machinery: the greedy
    mapping, one QCCDCompiler per configuration, then the Simulator."""
    chains = greedy_initial_mapping(circuit, machine)
    results = [
        QCCDCompiler(machine, config).compile(circuit, initial_chains=chains)
        for config in (CompilerConfig.baseline(), CompilerConfig.optimized())
    ]
    reports = [
        Simulator(machine, DEFAULT_PARAMS).run(
            result.schedule, result.initial_chains
        )
        if simulate
        else None
        for result in results
    ]
    return BenchmarkComparison(
        circuit.name,
        circuit.num_qubits,
        circuit.num_two_qubit_gates,
        *results,
        *reports,
    )


class TestRunSuiteEquivalence:
    """The regression the cache must never break: run_suite and compare
    through the batch engine — serial, parallel, cold and warm cache —
    produce byte-identical metrics to the direct serial path."""

    def direct_serial(self):
        return [
            direct_comparison(circuit, tiny_machine(), simulate=True)
            for circuit in tiny_suite()
        ]

    def test_batch_matches_direct_serial_path(self, tmp_path):
        reference = [comparison_blob(c) for c in self.direct_serial()]
        assert [
            comparison_blob(compare(circuit, tiny_machine(), simulate=True))
            for circuit in tiny_suite()
        ] == reference
        cache = ResultCache(tmp_path / "cache")

        serial_cold = run_suite(
            circuits=tiny_suite(),
            machine=tiny_machine(),
            simulate=True,
            n_jobs=1,
            cache=cache,
        )
        assert [comparison_blob(c) for c in serial_cold] == reference
        assert cache.stats.hits == 0

        parallel_warm_runner = BatchRunner(
            n_jobs=2, cache=ResultCache(tmp_path / "cache")
        )
        parallel_warm = run_suite(
            circuits=tiny_suite(),
            machine=tiny_machine(),
            simulate=True,
            runner=parallel_warm_runner,
        )
        assert [comparison_blob(c) for c in parallel_warm] == reference
        # Warm replay: zero recompilations.
        assert parallel_warm_runner.cache_stats.misses == 0
        assert parallel_warm_runner.cache_stats.hits == 4

        parallel_cold = run_suite(
            circuits=tiny_suite(),
            machine=tiny_machine(),
            simulate=True,
            n_jobs=2,
        )
        assert [comparison_blob(c) for c in parallel_cold] == reference

    def test_run_suite_propagates_compilation_errors(self):
        # The serial path's error contract survives the batch engine:
        # an oversized circuit raises CompilationError, not a wrapper.
        from repro.compiler import CompilationError

        too_small = uniform_machine(linear_topology(2), 4, 2)
        with pytest.raises(CompilationError):
            run_suite(
                circuits=tiny_suite()[:1],
                machine=too_small,
                simulate=False,
            )

    def test_parallel_run_suite_propagates_compilation_errors(self):
        from repro.compiler import CompilationError

        too_small = uniform_machine(linear_topology(2), 4, 2)
        with pytest.raises(CompilationError):
            run_suite(
                circuits=tiny_suite(),
                machine=too_small,
                simulate=False,
                n_jobs=2,
            )

    def test_run_suite_verbose_output(self, capsys):
        run_suite(
            circuits=tiny_suite()[:1],
            machine=tiny_machine(),
            simulate=False,
            verbose=True,
        )
        assert "shuttles" in capsys.readouterr().out


@pytest.mark.slow
class TestPaperSuiteEquivalence:
    """Acceptance run: the paper suite through the batch engine with
    n_jobs=4 is identical to the direct serial path, and a warm-cache
    replay performs zero recompilations."""

    def test_paper_suite_parallel_and_warm_cache(self, tmp_path):
        circuits = paper_suite(full=False)
        reference = [
            comparison_blob(
                direct_comparison(circuit, l6_machine(), simulate=False)
            )
            for circuit in circuits
        ]

        cold_runner = BatchRunner(
            n_jobs=4, cache=ResultCache(tmp_path / "cache")
        )
        cold = run_suite(
            circuits=circuits, simulate=False, runner=cold_runner
        )
        assert [comparison_blob(c) for c in cold] == reference
        assert cold_runner.cache_stats.misses == 2 * len(circuits)

        warm_runner = BatchRunner(
            n_jobs=4, cache=ResultCache(tmp_path / "cache")
        )
        warm = run_suite(
            circuits=circuits, simulate=False, runner=warm_runner
        )
        assert [comparison_blob(c) for c in warm] == reference
        # Zero recompilations, verified by cache hit stats.
        assert warm_runner.cache_stats.hits == 2 * len(circuits)
        assert warm_runner.cache_stats.misses == 0
