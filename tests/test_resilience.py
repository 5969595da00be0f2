"""Resilience-layer tests: fault plans, retry policy, the supervised
pool (crash / timeout / poison handling), chaos caches, and the
zero-lost + bit-identical chaos acceptance run."""

import json
import pickle
import signal
from contextlib import contextmanager
from time import sleep

import pytest

from repro import obs
from repro.arch import linear_topology, uniform_machine
from repro.batch import BatchRunner, CompileJob, ResultCache, sweep
from repro.bench import random_circuit
from repro.compiler.config import CompilerConfig
from repro.resilience import (
    CHAOS_PRESETS,
    FAULT_CRASH,
    FAULT_ERROR,
    FAULT_STALL,
    ChaosCache,
    FaultPlan,
    InjectedFaultError,
    RetryPolicy,
    Supervisor,
    load_fault_plan,
)

from test_batch import result_blob


def tiny_machine():
    return uniform_machine(linear_topology(3), 6, 2)


def tiny_jobs(n=4, qubits=8, gates=30):
    machine = tiny_machine()
    circuits = [random_circuit(qubits, gates, seed=s) for s in range(n)]
    return sweep(circuits, machine, CompilerConfig(name="cfg"))


#: Retry curve tuned for tests: effectively instant backoff.
FAST_RETRY = dict(backoff_base=0.005, backoff_cap=0.02, jitter=0.5)


@contextmanager
def no_hang(seconds=120):
    """Fail the test (instead of hanging the suite) if the block takes
    longer than ``seconds`` — the regression the bounded-poll design
    exists to prevent."""

    def fire(signum, frame):
        raise AssertionError(f"block exceeded {seconds}s: runner hang")

    previous = signal.signal(signal.SIGALRM, fire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestFaultPlan:
    def test_decide_is_pure_and_order_independent(self):
        plan = FaultPlan(seed=5, error_rate=0.2, crash_rate=0.2, stall_rate=0.2)
        keys = [f"key-{i}" for i in range(50)]
        forward = [plan.decide(k, 0) for k in keys]
        backward = [plan.decide(k, 0) for k in reversed(keys)]
        assert forward == list(reversed(backward))
        again = FaultPlan.from_dict(plan.to_dict())
        assert [again.decide(k, 0) for k in keys] == forward

    def test_rates_partition_the_draw(self):
        plan = FaultPlan(seed=9, error_rate=0.3, crash_rate=0.3, stall_rate=0.3)
        kinds = {plan.decide(f"k{i}", 0) for i in range(300)}
        assert kinds == {FAULT_ERROR, FAULT_CRASH, FAULT_STALL, None}

    def test_max_faults_per_job_bounds_attempts(self):
        plan = FaultPlan(seed=1, error_rate=1.0, max_faults_per_job=2)
        assert plan.decide("job", 0) == FAULT_ERROR
        assert plan.decide("job", 1) == FAULT_ERROR
        assert plan.decide("job", 2) is None  # clean attempt guaranteed

    def test_seed_changes_decisions(self):
        a = FaultPlan(seed=1, error_rate=0.5)
        b = FaultPlan(seed=2, error_rate=0.5)
        keys = [f"k{i}" for i in range(60)]
        assert [a.decide(k, 0) for k in keys] != [b.decide(k, 0) for k in keys]

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(error_rate=1.2),
            dict(crash_rate=-0.1),
            dict(error_rate=0.6, crash_rate=0.6),
            dict(stall_seconds=0.0),
            dict(max_faults_per_job=-1),
            dict(cache_read_corrupt_rate=2.0),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FaultPlan(**kwargs)

    def test_json_round_trip(self, tmp_path):
        plan = FaultPlan(
            seed=77,
            error_rate=0.1,
            crash_rate=0.05,
            stall_rate=0.02,
            stall_seconds=1.5,
            cache_write_corrupt_rate=0.2,
            max_faults_per_job=3,
        )
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan.to_dict()))
        assert load_fault_plan(str(path)) == plan

    def test_presets_resolve(self):
        for name in CHAOS_PRESETS:
            assert load_fault_plan(name) is CHAOS_PRESETS[name]
        with pytest.raises(ValueError):
            load_fault_plan("no-such-plan")


class TestRetryPolicy:
    def test_backoff_is_deterministic_and_capped(self):
        policy = RetryPolicy(
            max_attempts=5, backoff_base=0.1, backoff_cap=0.5, jitter=0.5, seed=3
        )
        delays = [policy.backoff("job", n) for n in range(1, 8)]
        assert delays == [policy.backoff("job", n) for n in range(1, 8)]
        assert all(0.0 <= d <= 0.5 for d in delays)
        # The un-jittered curve doubles until the cap.
        flat = RetryPolicy(backoff_base=0.1, backoff_cap=0.5, jitter=0.0)
        assert [flat.backoff("k", n) for n in range(1, 5)] == [
            pytest.approx(0.1),
            pytest.approx(0.2),
            pytest.approx(0.4),
            pytest.approx(0.5),
        ]

    def test_round_trip_and_validation(self):
        policy = RetryPolicy(max_attempts=4, poison_threshold=3, seed=9)
        assert RetryPolicy.from_dict(policy.to_dict()) == policy
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(poison_threshold=0)


class TestSupervisedOutcomes:
    def test_injected_error_is_retried_to_success(self):
        jobs = tiny_jobs(2)
        plan = FaultPlan(seed=1, error_rate=1.0, max_faults_per_job=1)
        runner = BatchRunner(
            n_jobs=2,
            retry=RetryPolicy(max_attempts=2, **FAST_RETRY),
            chaos=plan,
        )
        with no_hang():
            results = runner.run(jobs)
        assert all(r.ok for r in results)
        assert all(r.attempts == 2 for r in results)
        assert all(r.outcome == "ok" for r in results)
        assert all(len(r.attempt_seconds) == 2 for r in results)

    def test_exhausted_budget_lands_failed_with_real_exception(self):
        jobs = tiny_jobs(1)
        plan = FaultPlan(seed=1, error_rate=1.0, max_faults_per_job=5)
        runner = BatchRunner(
            n_jobs=1,
            retry=RetryPolicy(max_attempts=3, **FAST_RETRY),
            chaos=plan,
        )
        with no_hang():
            (result,) = runner.run(jobs)
        assert not result.ok
        assert result.outcome == "failed"
        assert result.attempts == 3
        assert isinstance(result.exception, InjectedFaultError)
        assert "InjectedFaultError" in result.error

    def test_worker_crash_is_detected_and_retried(self):
        jobs = tiny_jobs(1)
        plan = FaultPlan(seed=1, crash_rate=1.0, max_faults_per_job=1)
        runner = BatchRunner(
            n_jobs=1,
            retry=RetryPolicy(max_attempts=2, **FAST_RETRY),
            chaos=plan,
        )
        with no_hang(), obs.observe() as observation:
            (result,) = runner.run(jobs)
        assert result.ok
        assert result.attempts == 2
        assert observation.metrics.counter("batch.worker_deaths") == 1
        assert observation.metrics.counter("batch.retries") == 1
        assert observation.metrics.counter("chaos.injected.crash") == 1

    def test_poisoned_job_is_quarantined_not_retried_forever(self):
        jobs = tiny_jobs(1)
        plan = FaultPlan(seed=1, crash_rate=1.0, max_faults_per_job=10)
        runner = BatchRunner(
            n_jobs=1,
            retry=RetryPolicy(max_attempts=8, poison_threshold=2, **FAST_RETRY),
            chaos=plan,
        )
        with no_hang(), obs.observe() as observation:
            (result,) = runner.run(jobs)
        assert not result.ok
        assert result.outcome == "poisoned"
        assert result.attempts == 2  # stopped at the threshold, not 8
        assert "poisoned" in result.error
        assert observation.metrics.counter("batch.quarantined") == 1
        assert observation.metrics.counter("batch.worker_deaths") == 2

    def test_stall_hits_deadline_and_retries_clean(self):
        jobs = tiny_jobs(1)
        plan = FaultPlan(
            seed=1, stall_rate=1.0, stall_seconds=30.0, max_faults_per_job=1
        )
        runner = BatchRunner(
            n_jobs=1,
            timeout=0.3,
            retry=RetryPolicy(max_attempts=2, **FAST_RETRY),
            chaos=plan,
        )
        with no_hang(), obs.observe() as observation:
            (result,) = runner.run(jobs)
        assert result.ok
        assert result.attempts == 2
        # First attempt settled near the 0.3s deadline, not the 30s stall.
        assert result.attempt_seconds[0] < 5.0
        assert observation.metrics.counter("batch.timeouts") == 1

    def test_per_job_deadline_overrides_runner_timeout(self):
        import dataclasses

        (job,) = tiny_jobs(1)
        slow_plan = FaultPlan(
            seed=1, stall_rate=1.0, stall_seconds=30.0, max_faults_per_job=10
        )
        job = dataclasses.replace(job, deadline=0.3)
        runner = BatchRunner(n_jobs=1, chaos=slow_plan)  # no runner timeout
        with no_hang():
            (result,) = runner.run([job])
        assert not result.ok
        assert result.outcome == "timeout"

    def test_deadline_field_does_not_change_fingerprint(self):
        import dataclasses

        (job,) = tiny_jobs(1)
        assert (
            dataclasses.replace(job, deadline=1.0).fingerprint()
            == job.fingerprint()
        )


class TestHardKilledWorker:
    def test_externally_killed_worker_cannot_hang_the_run(self, monkeypatch):
        """Satellite regression: SIGKILL a worker mid-job; the bounded
        poll + liveness check must surface a terminal ``crashed``
        result instead of waiting forever."""
        import repro.batch.runner as runner_module

        real_execute_job = runner_module.execute_job

        def stalling_execute_job(job):
            if job.circuit.name.startswith("slow"):
                sleep(300.0)
            return real_execute_job(job)

        # fork start method: workers inherit the patched module.
        monkeypatch.setattr(
            runner_module, "execute_job", stalling_execute_job
        )
        machine = tiny_machine()
        slow = random_circuit(8, 30, seed=1)
        slow.name = "slow-victim"
        job = CompileJob(slow, machine, CompilerConfig(name="cfg"))
        with no_hang():
            supervisor = Supervisor(1)
            try:
                supervisor.submit(0, job, job.fingerprint(), False)
                sleep(0.3)  # let the worker pick the job up
                supervisor.pool._workers[0].process.kill()
                terminals = []
                while not terminals:
                    terminals = supervisor.poll(0.25)
            finally:
                supervisor.close()
        (result,) = terminals
        assert result.outcome == "crashed"
        assert not result.ok
        assert "worker process died" in result.error

    def test_default_run_survives_a_killed_worker(
        self, monkeypatch, tmp_path
    ):
        """A plain ``BatchRunner(n_jobs=2).run`` — no resilience option
        set — with one worker SIGKILLed mid-job must return that job as
        ``crashed`` and every other job ``ok``, not wait forever."""
        import multiprocessing
        import os
        import threading

        import repro.batch.runner as runner_module

        real_execute_job = runner_module.execute_job
        marker = tmp_path / "victim.pid"

        def stalling_execute_job(job):
            if job.circuit.name.startswith("slow"):
                marker.write_text(str(os.getpid()))
                sleep(300.0)
            return real_execute_job(job)

        # fork start method: workers inherit the patched module.
        monkeypatch.setattr(
            runner_module, "execute_job", stalling_execute_job
        )
        slow = random_circuit(8, 30, seed=1)
        slow.name = "slow-victim"
        jobs = [
            CompileJob(slow, tiny_machine(), CompilerConfig(name="cfg"))
        ] + tiny_jobs(3)
        killed = []

        def kill_victim():
            for _ in range(600):
                if marker.exists() and marker.read_text():
                    break
                sleep(0.05)
            pid = int(marker.read_text())
            children = {p.pid for p in multiprocessing.active_children()}
            killed.append(pid in children)
            os.kill(pid, signal.SIGKILL)

        killer = threading.Thread(target=kill_victim, daemon=True)
        killer.start()
        with no_hang():
            results = BatchRunner(n_jobs=2).run(jobs)
        killer.join(timeout=10)
        assert killed == [True]
        assert [r.outcome for r in results] == ["crashed", "ok", "ok", "ok"]
        assert "worker process died" in results[0].error
        assert all(r.ok for r in results[1:])

    def test_run_timed_survives_crashed_workers(self):
        """The old ``completions.get(timeout=None)`` path hung forever
        when a worker vanished; every job must now settle."""
        jobs = tiny_jobs(4)
        plan = FaultPlan(seed=1, crash_rate=1.0, max_faults_per_job=1)
        runner = BatchRunner(n_jobs=2, chaos=plan)  # no retry budget
        with no_hang():
            timed = runner.run_timed(jobs)
        assert len(timed) == len(jobs)
        outcomes = {t.result.outcome for t in timed}
        assert outcomes == {"crashed"}


def _chaos_plan_for(keys, error_rate=0.25, crash_rate=0.2, stall_rate=0.2):
    """Deterministically pick a plan seed that injects all three fault
    kinds across ``keys`` (decide() is pure, so the search is exact)."""
    for seed in range(10_000):
        plan = FaultPlan(
            seed=seed,
            error_rate=error_rate,
            crash_rate=crash_rate,
            stall_rate=stall_rate,
            stall_seconds=30.0,
            max_faults_per_job=1,
        )
        kinds = [plan.decide(k, 0) for k in keys]
        if (
            FAULT_ERROR in kinds
            and FAULT_CRASH in kinds
            and FAULT_STALL in kinds
        ):
            return plan, kinds
    raise AssertionError("no seed found — rates too low for the key set")


class TestChaosAcceptance:
    def test_zero_lost_and_bit_identical_under_fire(self):
        """The issue's acceptance run: >=10% of jobs faulted including
        >=1 hard-exit and >=1 timeout; every job reaches a terminal
        result and retried successes are bit-identical to a fault-free
        run."""
        jobs = tiny_jobs(10)
        keys = [j.fingerprint() for j in jobs]
        plan, kinds = _chaos_plan_for(keys)
        faulted = sum(1 for k in kinds if k)
        assert faulted >= len(jobs) * 0.10
        assert kinds.count(FAULT_CRASH) >= 1
        assert kinds.count(FAULT_STALL) >= 1  # becomes a timeout

        clean = BatchRunner(n_jobs=2).run(jobs)
        runner = BatchRunner(
            n_jobs=2,
            timeout=0.5,
            retry=RetryPolicy(max_attempts=3, **FAST_RETRY),
            chaos=plan,
        )
        with no_hang(), obs.observe() as observation:
            chaotic = runner.run(jobs)

        assert len(chaotic) == len(jobs)  # zero lost: all terminal
        for kind, clean_result, chaos_result in zip(kinds, clean, chaotic):
            assert chaos_result.ok, chaos_result.error
            assert result_blob(chaos_result.result) == result_blob(
                clean_result.result
            )
            if kind is None:
                assert chaos_result.attempts == 1
            else:
                assert chaos_result.attempts == 2

        counters = observation.metrics.counters
        assert counters["chaos.injected"] == faulted
        assert counters["batch.worker_deaths"] >= 1
        assert counters["batch.timeouts"] >= 1
        assert counters["batch.retries"] == faulted

    def test_chaos_decisions_identical_across_worker_counts(self):
        jobs = tiny_jobs(6)
        keys = [j.fingerprint() for j in jobs]
        plan, _kinds = _chaos_plan_for(keys)
        retry = RetryPolicy(max_attempts=3, **FAST_RETRY)
        with no_hang():
            serial = BatchRunner(
                n_jobs=1, timeout=0.5, retry=retry, chaos=plan
            ).run(jobs)
            parallel = BatchRunner(
                n_jobs=3, timeout=0.5, retry=retry, chaos=plan
            ).run(jobs)
        for a, b in zip(serial, parallel):
            assert a.attempts == b.attempts
            assert a.outcome == b.outcome
            assert result_blob(a.result) == result_blob(b.result)


class TestChaosCache:
    def test_corrupted_write_is_quarantined_on_read(self, tmp_path):
        inner = ResultCache(tmp_path / "cache")
        plan = FaultPlan(seed=1, cache_write_corrupt_rate=1.0)
        cache = ChaosCache(inner, plan)
        with obs.observe() as observation:
            cache.put("ab" + "c" * 62, {"payload": 1})
            assert cache.corrupted_writes == 1
            assert cache.get("ab" + "c" * 62) is None  # corrupt -> miss
        assert inner.stats.corrupt == 1
        assert observation.metrics.counter("cache.corrupt") == 1
        # Quarantined sidecar, not a live entry.
        assert len(inner) == 0
        assert list((tmp_path / "cache").rglob("*.pkl.corrupt"))

    def test_read_corruption_stream_is_per_lookup(self, tmp_path):
        inner = ResultCache(tmp_path / "cache")
        key = "de" + "f" * 62
        # Corrupt only some lookups; find a plan where lookup 0 is
        # clean so the first get is a genuine hit.
        plan = next(
            p
            for p in (
                FaultPlan(seed=s, cache_read_corrupt_rate=0.5)
                for s in range(100)
            )
            if not p.corrupt_read(key, 0) and p.corrupt_read(key, 1)
        )
        cache = ChaosCache(inner, plan)
        cache.put(key, {"payload": 2})
        assert cache.get(key) == {"payload": 2}  # lookup 0: clean hit
        assert cache.get(key) is None  # lookup 1: corrupted -> miss
        assert cache.corrupted_reads == 1

    def test_summary_read_shares_the_read_corruption_stream(self, tmp_path):
        """``summary`` draws from the same per-key stream as ``get``,
        and a garbled entry is a counted, quarantined miss on a
        summary read."""
        inner = ResultCache(tmp_path / "cache")
        key = "de" + "f" * 62
        plan = next(
            p
            for p in (
                FaultPlan(seed=s, cache_read_corrupt_rate=0.5)
                for s in range(100)
            )
            if not p.corrupt_read(key, 0) and p.corrupt_read(key, 1)
        )
        cache = ChaosCache(inner, plan)
        cache.put(key, {"payload": 3}, {"num_shuttles": 5})
        assert cache.get(key) == {"payload": 3}  # lookup 0: clean hit
        with obs.observe() as observation:
            assert cache.summary(key) is None  # lookup 1: corrupted
        assert cache.corrupted_reads == 1
        assert inner.stats.corrupt == 1
        assert observation.metrics.counter("cache.corrupt") == 1
        assert observation.metrics.counter("cache.misses") == 1
        assert len(inner) == 0
        assert list((tmp_path / "cache").rglob("*.pkl.corrupt"))

    def test_chaos_cache_end_to_end_recomputes(self, tmp_path):
        jobs = tiny_jobs(3)
        plan = FaultPlan(seed=1, cache_write_corrupt_rate=1.0)
        cache = ChaosCache(ResultCache(tmp_path / "cache"), plan)
        runner = BatchRunner(n_jobs=1, cache=cache, chaos=plan)
        with no_hang():
            first = runner.run(jobs)
            second = runner.run(jobs)  # every entry corrupt: recompute
        assert all(r.ok for r in first + second)
        assert not any(r.cache_hit for r in second)
        for a, b in zip(first, second):
            assert result_blob(a.result) == result_blob(b.result)


class TestInertness:
    def test_disabled_machinery_never_touches_the_supervisor(
        self, monkeypatch
    ):
        """One worker without resilience options runs in-process: the
        supervisor layer is not even constructed."""
        import repro.resilience.supervisor as supervisor_module

        def boom(*args, **kwargs):
            raise AssertionError("supervisor constructed on in-process path")

        monkeypatch.setattr(supervisor_module, "Supervisor", boom)
        jobs = tiny_jobs(3)
        results = BatchRunner(n_jobs=1).run(jobs)
        assert all(r.ok for r in results)

    def test_default_jobresult_fields_are_inert(self):
        jobs = tiny_jobs(1)
        (result,) = BatchRunner().run(jobs)
        assert result.outcome == "ok"
        assert result.attempts == 1
        assert result.attempt_seconds is None


class TestScenarioChaos:
    def test_scenario_chaos_round_trip(self):
        from repro.loadgen import Scenario, WorkloadItem

        scenario = Scenario(
            name="chaotic",
            mix=(WorkloadItem("random", qubits=8, gates=30),),
            machines=("linear3",),
            jobs=4,
            consumers=1,
            chaos=FaultPlan(seed=3, error_rate=0.2),
            job_timeout=2.0,
            max_attempts=3,
        )
        hydrated = Scenario.from_dict(
            json.loads(json.dumps(scenario.to_dict()))
        )
        assert hydrated == scenario
        assert hydrated.chaos == scenario.chaos

    def test_scenario_validation(self):
        from repro.loadgen import Scenario, WorkloadItem

        mix = (WorkloadItem("random", qubits=8, gates=30),)
        with pytest.raises(ValueError):
            Scenario(name="x", mix=mix, jobs=2, max_attempts=0)
        with pytest.raises(ValueError):
            Scenario(name="x", mix=mix, jobs=2, job_timeout=-1.0)

    def test_load_run_under_chaos_loses_nothing(self):
        from repro.loadgen import LoadRunner, load_scenario

        scenario = load_scenario("smoke")
        keys = [j.fingerprint() for j in scenario.draw_jobs(12)]
        plan, _ = _chaos_plan_for(list(dict.fromkeys(keys)))
        runner = LoadRunner(
            scenario,
            chaos=plan,
            max_attempts=3,
            job_timeout=0.5,
        )
        with no_hang():
            report = runner.run()
        resilience = report.resilience
        assert resilience["enabled"]
        assert resilience["submitted"] == 12
        assert resilience["lost"] == 0
        assert sum(resilience["injected"].values()) >= 2
        assert resilience["worker_deaths"] >= 1
        assert resilience["timeouts"] >= 1
        assert report.counts["jobs"] == 12
        assert report.counts["ok"] == 12  # all retried to success
        assert resilience["outcomes"] == {"ok": 12}


class TestResultCacheQuarantine:
    def test_truncated_entry_quarantined_once(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = "aa" + "b" * 62
        cache.put(key, {"payload": 3})
        path = cache._path(key)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])  # truncate mid-pickle
        assert cache.get(key) is None
        assert cache.stats.corrupt == 1
        assert not path.exists()  # moved aside
        assert path.with_suffix(".pkl.corrupt").exists()
        # Second lookup: a plain miss, not another corruption event.
        assert cache.get(key) is None
        assert cache.stats.corrupt == 1
        assert cache.stats.misses == 2

    def test_garbage_entry_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = "cc" + "d" * 62
        path = cache._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"this is not a pickle at all")
        with obs.observe() as observation:
            assert cache.get(key) is None
        assert cache.stats.corrupt == 1
        assert observation.metrics.counter("cache.corrupt") == 1
        assert not path.exists()
        assert "corrupt quarantined" in str(cache.stats)

    def test_quarantined_entries_leave_len_and_clear_alone(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        good = "ee" + "f" * 62
        bad = "11" + "2" * 62
        cache.put(good, 1)
        cache.put(bad, 2)
        bad_path = cache._path(bad)
        bad_path.write_bytes(b"garbage")
        assert cache.get(bad) is None
        assert len(cache) == 1  # the sidecar is not an entry
        assert cache.clear() == 1


class TestErrorFidelity:
    """JobResult error fidelity across the pickle boundary (satellite)."""

    def failing_jobs(self):
        # A machine too small for the circuit: compilation raises a
        # genuine (picklable) CompilationError inside the worker.
        machine = uniform_machine(linear_topology(2), 4, 2)
        circuits = [random_circuit(10, 60, seed=s) for s in (1, 2)]
        return sweep(circuits, machine, CompilerConfig(name="cfg"))

    def test_exception_type_and_message_survive_the_pool(self):
        jobs = self.failing_jobs()
        serial = BatchRunner(n_jobs=1).run(jobs)
        pooled = BatchRunner(n_jobs=2).run(jobs)
        for a, b in zip(serial, pooled):
            assert not a.ok and not b.ok
            assert type(a.exception) is type(b.exception)
            assert str(a.exception) == str(b.exception)
            assert b.error and type(b.exception).__name__ in b.error
            # The terminal record itself must round-trip pickling
            # (results cross process boundaries and land in caches).
            clone = pickle.loads(pickle.dumps(b))
            assert str(clone.exception) == str(b.exception)

    def test_unpicklable_exception_degrades_to_error_string(
        self, monkeypatch
    ):
        import repro.batch.runner as runner_module

        class UnpicklableError(RuntimeError):
            def __init__(self):
                super().__init__("cursed payload")
                self.payload = lambda: None  # never pickles

        def explode(job):
            raise UnpicklableError()

        # fork start method: workers inherit the patched module.
        monkeypatch.setattr(runner_module, "execute_job", explode)
        jobs = tiny_jobs(2)
        with no_hang():
            results = BatchRunner(n_jobs=2).run(jobs)
        for result in results:
            assert not result.ok
            assert result.outcome == "failed"
            assert result.exception is None  # degraded, not crashed
            assert "UnpicklableError" in result.error
            assert "cursed payload" in result.error
