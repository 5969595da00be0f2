"""Tests for the serving layer: spec wire format, error envelope,
config, admission control, lifecycle, HTTP end-to-end, overload
acceptance, and live-mode load generation.

Layered for determinism:

* **Admission tests** run against an *unstarted* :class:`CompileService`
  — submissions are admitted into the table but never dispatched, so
  queue-depth shedding, in-flight dedup and rate limiting are exact,
  not timing-dependent.
* **Lifecycle tests** start the service with tiny circuits (6 qubits /
  20 gates compile in well under a millisecond).
* **The overload acceptance test** uses deliberately heavy jobs
  (48q/800g, ~40 ms each) against 2 workers and a queue depth of 4,
  with an open-loop arrival rate far above service capacity.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
from time import monotonic, sleep

import pytest

from repro.batch.cache import NullCache, ResultCache
from repro.batch.spec import MAX_TRAPS, JobSpec
from repro.loadgen import LiveRunner, LoadRunner
from repro.loadgen.scenario import Scenario, WorkloadItem
from repro.serve import (
    ERROR_STATUS,
    SERVE_PRESETS,
    CompileService,
    RateLimit,
    ServeClient,
    ServeConfig,
    ServeError,
    ServerHandle,
    error_envelope,
    load_serve_config,
    outcome_to_code,
)

# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def tiny_payload(seed: int = 1) -> dict:
    """A spec document that compiles in well under a millisecond."""
    return {
        "kind": "random",
        "machine": "linear3",
        "qubits": 6,
        "gates": 20,
        "seed": seed,
    }


def heavy_payload(seed: int = 1) -> dict:
    """~40 ms of real compilation work (overload tests)."""
    return {
        "kind": "random",
        "machine": "linear4",
        "qubits": 48,
        "gates": 800,
        "seed": seed,
    }


FAST_CONFIG = ServeConfig(
    workers=2,
    max_queue_depth=16,
    housekeeping_interval=0.1,
    drain_deadline=30.0,
)


def wait_done(service: CompileService, job_id: str, timeout: float = 30.0) -> dict:
    deadline = monotonic() + timeout
    while monotonic() < deadline:
        status = service.status(job_id)
        if status["state"] == "done":
            return status
        sleep(0.01)
    raise AssertionError(f"job {job_id} not done within {timeout}s")


# ---------------------------------------------------------------------------
# JobSpec: the wire format
# ---------------------------------------------------------------------------


class TestJobSpec:
    def test_round_trip(self):
        spec = JobSpec.from_dict(tiny_payload())
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown job spec field"):
            JobSpec.from_dict({**tiny_payload(), "qbits": 6})

    def test_non_object_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            JobSpec.from_dict([1, 2, 3])

    @pytest.mark.parametrize(
        "mutation,match",
        [
            ({"kind": "quantum"}, "unknown job kind"),
            ({"config": "turbo"}, "unknown config"),
            ({"kind": "bench", "name": "fourier"}, "unknown bench circuit"),
            ({"seed": None}, "circuit seed"),
            ({"qubits": None}, "qubit count"),
            ({"qubits": 100_000}, "qubits must be"),
            ({"gates": 10_000_000}, "gates must be"),
            ({"family": "exotic"}, "unknown random family"),
            ({"deadline": -1.0}, "deadline must be"),
            ({"qubits": 1, "family": "layered"}, "at least 2 qubits"),
        ],
    )
    def test_validation(self, mutation, match):
        with pytest.raises(ValueError, match=match):
            JobSpec.from_dict({**tiny_payload(), **mutation})

    def test_bad_machine_rejected(self):
        with pytest.raises(ValueError):
            JobSpec.from_dict({**tiny_payload(), "machine": "warp9"})

    @pytest.mark.parametrize(
        "machine", ["linear5000", "ring100000", "grid80x80", "grid1x65"]
    )
    def test_oversize_machine_rejected_before_it_is_built(self, machine):
        start = monotonic()
        with pytest.raises(ValueError, match=f"at most {MAX_TRAPS} are admitted"):
            JobSpec.from_dict({**tiny_payload(), "machine": machine})
        assert monotonic() - start < 0.5

    def test_every_machine_spec_in_use_is_admitted(self):
        for machine in ("l6", "linear2", "linear3", "linear4", "ring3",
                        "ring6", "grid2x3", f"linear{MAX_TRAPS}"):
            spec = JobSpec.from_dict({**tiny_payload(), "machine": machine})
            assert spec.resolve().machine.num_traps <= MAX_TRAPS

    def test_fingerprint_survives_serialization(self):
        """The core wire-format property: a spec resolves to the same
        content fingerprint on either side of a JSON round trip."""
        spec = JobSpec.from_dict(heavy_payload(seed=7))
        wire = json.loads(json.dumps(spec.to_dict()))
        assert JobSpec.from_dict(wire).fingerprint() == spec.fingerprint()

    def test_deadline_excluded_from_fingerprint(self):
        plain = JobSpec.from_dict(tiny_payload())
        budgeted = JobSpec.from_dict({**tiny_payload(), "deadline": 5.0})
        assert plain.fingerprint() == budgeted.fingerprint()

    def test_deadline_reaches_compile_job(self):
        spec = JobSpec.from_dict({**tiny_payload(), "deadline": 5.0})
        assert spec.resolve().deadline == 5.0

    def test_scenario_streams_agree(self):
        """spec_stream and job_stream expand to the same fingerprints
        — the live/in-process equivalence at the draw level."""
        scenario = Scenario(
            name="eq",
            mix=(WorkloadItem("random", qubits=8, gates=30),),
            machines=("linear3",),
            jobs=5,
            seed=11,
        )
        spec_fps = [s.fingerprint() for s in scenario.draw_specs(5)]
        job_fps = [j.fingerprint() for j in scenario.draw_jobs(5)]
        assert spec_fps == job_fps


# ---------------------------------------------------------------------------
# The frozen error envelope
# ---------------------------------------------------------------------------


class TestErrorEnvelope:
    def test_shape_is_frozen(self):
        doc = error_envelope("shed", "queue full", retry_after=1.5,
                             detail={"queue_depth": 4})
        assert set(doc) == {"error"}
        assert set(doc["error"]) == {
            "code", "message", "retry_after", "detail",
        }
        assert doc["error"]["code"] == "shed"
        assert doc["error"]["retry_after"] == 1.5

    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError):
            error_envelope("teapot", "short and stout")
        with pytest.raises(ValueError):
            ServeError("teapot", "short and stout")

    @pytest.mark.parametrize(
        "outcome,code",
        [
            ("failed", "internal"),
            ("timeout", "timeout"),
            ("crashed", "crashed"),
            ("poisoned", "quarantined"),
            ("anything-else", "internal"),
        ],
    )
    def test_outcome_mapping(self, outcome, code):
        assert outcome_to_code(outcome) == code

    def test_http_status_table(self):
        assert ERROR_STATUS["validation"] == 400
        assert ERROR_STATUS["not_found"] == 404
        assert ERROR_STATUS["not_ready"] == 409
        assert ERROR_STATUS["rate_limited"] == 429
        assert ERROR_STATUS["shed"] == 429
        assert ERROR_STATUS["draining"] == 503
        assert ERROR_STATUS["timeout"] == 504
        for code in ("quarantined", "crashed", "internal"):
            assert ERROR_STATUS[code] == 500
        for code in ERROR_STATUS:
            assert ServeError(code, "x").http_status == ERROR_STATUS[code]


# ---------------------------------------------------------------------------
# ServeConfig + presets
# ---------------------------------------------------------------------------


class TestServeConfig:
    def test_round_trip(self):
        config = ServeConfig(
            workers=3,
            max_queue_depth=9,
            rate_limit=RateLimit(limit=5, window_seconds=2.0),
            job_timeout=7.0,
        )
        assert ServeConfig.from_dict(config.to_dict()) == config

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown serve config"):
            ServeConfig.from_dict({"wrokers": 2})

    def test_validation(self):
        for bad in (
            {"workers": 0},
            {"max_queue_depth": 0},
            {"max_attempts": 0},
            {"job_timeout": -1.0},
            {"drain_deadline": 0.0},
        ):
            with pytest.raises(ValueError):
                ServeConfig(**bad)
        with pytest.raises(ValueError):
            RateLimit(limit=0, window_seconds=1.0)

    def test_override_ignores_none(self):
        config = ServeConfig()
        assert config.override(workers=None, job_ttl=None) is config
        assert config.override(workers=5).workers == 5

    def test_presets_resolve(self):
        for name, preset in SERVE_PRESETS.items():
            assert load_serve_config(name) == preset
            assert preset.describe()  # renders without raising

    def test_load_from_json_file(self, tmp_path):
        path = tmp_path / "serve.json"
        config = SERVE_PRESETS["steady"]
        path.write_text(json.dumps(config.to_dict()))
        assert load_serve_config(str(path)) == config

    def test_unknown_spec_rejected(self):
        with pytest.raises(ValueError, match="unknown serve config"):
            load_serve_config("hyperdrive")


# ---------------------------------------------------------------------------
# Admission control (unstarted service: nothing dispatches, so queue
# state is exact)
# ---------------------------------------------------------------------------


class TestAdmission:
    def test_submit_admits_pending_record(self):
        service = CompileService(FAST_CONFIG)
        record = service.submit(tiny_payload(), "alice")
        assert record.state == "pending"
        assert record.job_id == "j000000"
        assert service.pending == 1
        status = service.status(record.job_id)
        assert status["state"] == "pending"
        assert status["outcome"] is None

    def test_unknown_job_is_not_found(self):
        service = CompileService(FAST_CONFIG)
        with pytest.raises(ServeError) as excinfo:
            service.status("j999999")
        assert excinfo.value.code == "not_found"

    def test_artifacts_before_done_is_not_ready(self):
        service = CompileService(FAST_CONFIG)
        record = service.submit(tiny_payload(), "alice")
        with pytest.raises(ServeError) as excinfo:
            service.artifacts(record.job_id)
        assert excinfo.value.code == "not_ready"
        assert excinfo.value.http_status == 409

    def test_invalid_payload_is_validation_error(self):
        service = CompileService(FAST_CONFIG)
        with pytest.raises(ServeError) as excinfo:
            service.submit({"kind": "quantum"}, "alice")
        assert excinfo.value.code == "validation"

    def test_inflight_resubmit_dedups(self):
        service = CompileService(FAST_CONFIG)
        first = service.submit(tiny_payload(seed=3), "alice")
        second = service.submit(tiny_payload(seed=3), "bob")
        assert second is first
        assert first.deduped == 1
        assert service.pending == 1  # the duplicate consumed no slot

    def test_queue_depth_sheds_with_retry_after(self):
        config = ServeConfig(
            workers=1, max_queue_depth=2, default_retry_after=0.25
        )
        service = CompileService(config)
        service.submit(tiny_payload(seed=1), "alice")
        service.submit(tiny_payload(seed=2), "alice")
        with pytest.raises(ServeError) as excinfo:
            service.submit(tiny_payload(seed=3), "alice")
        err = excinfo.value
        assert err.code == "shed"
        assert err.http_status == 429
        # No service time observed yet: the configured fallback.
        assert err.retry_after == 0.25
        assert err.detail == {"queue_depth": 2}
        assert service.pending == 2  # the shed request queued nothing

    def test_rate_limit_per_identity(self):
        config = ServeConfig(
            workers=1,
            max_queue_depth=32,
            rate_limit=RateLimit(limit=2, window_seconds=60.0),
        )
        service = CompileService(config)
        service.submit(tiny_payload(seed=1), "alice")
        service.submit(tiny_payload(seed=2), "alice")
        with pytest.raises(ServeError) as excinfo:
            service.submit(tiny_payload(seed=3), "alice")
        assert excinfo.value.code == "rate_limited"
        assert excinfo.value.retry_after > 0
        # A different identity has its own window.
        record = service.submit(tiny_payload(seed=4), "bob")
        assert record.state == "pending"

    def test_validation_never_consumes_a_rate_slot(self):
        config = ServeConfig(
            workers=1,
            rate_limit=RateLimit(limit=1, window_seconds=60.0),
        )
        service = CompileService(config)
        with pytest.raises(ServeError):
            service.submit({"kind": "quantum"}, "alice")
        # The malformed request must not have burned alice's only slot.
        record = service.submit(tiny_payload(), "alice")
        assert record.state == "pending"

    def test_readiness_reports_saturation(self):
        config = ServeConfig(workers=1, max_queue_depth=1)
        service = CompileService(config)
        assert service.readiness()["saturated"] is False
        service.submit(tiny_payload(), "alice")
        readiness = service.readiness()
        assert readiness["saturated"] is True
        assert readiness["ready"] is False


# ---------------------------------------------------------------------------
# Lifecycle (started service, real compilation)
# ---------------------------------------------------------------------------


class TestLifecycle:
    def test_submit_poll_fetch_and_clean_drain(self):
        with CompileService(FAST_CONFIG) as service:
            record = service.submit(tiny_payload(), "alice")
            status = wait_done(service, record.job_id)
            assert status["outcome"] == "ok"
            assert status["seconds"] is not None
            artifacts = service.artifacts(record.job_id)
            assert artifacts["id"] == record.job_id
            assert artifacts["result"]["num_shuttles"] >= 0
            assert artifacts["cache_hit"] is False
            assert service.drain() is True
        # After drain, admission is closed.
        with pytest.raises(ServeError) as excinfo:
            service.submit(tiny_payload(seed=9), "alice")
        assert excinfo.value.code == "draining"
        assert excinfo.value.http_status == 503

    def test_failed_job_carries_error_envelope(self):
        with CompileService(FAST_CONFIG) as service:
            # 40 qubits on a 3-trap machine with 2-ion traps: the
            # compiler cannot place the register -> failed outcome.
            record = service.submit(
                {
                    "kind": "random",
                    "machine": "linear3",
                    "qubits": 64,
                    "gates": 30,
                    "seed": 1,
                },
                "alice",
            )
            status = wait_done(service, record.job_id)
            assert status["outcome"] == "failed"
            assert status["error"]["error"]["code"] == "internal"
            with pytest.raises(ServeError) as excinfo:
                service.artifacts(record.job_id)
            assert excinfo.value.code == "internal"

    def test_cache_hit_completes_instantly(self, tmp_path):
        cache = ResultCache(tmp_path)
        payload = tiny_payload(seed=42)
        with CompileService(FAST_CONFIG, cache) as service:
            record = service.submit(payload, "alice")
            wait_done(service, record.job_id)
            assert service.drain() is True
        assert len(cache) == 1
        # A fresh service over the same cache: instant completion,
        # without consuming queue capacity.
        fresh = CompileService(FAST_CONFIG, ResultCache(tmp_path))
        record = fresh.submit(payload, "bob")
        assert record.state == "done"
        assert record.cache_hit is True
        assert record.outcome == "ok"
        assert fresh.pending == 0
        artifacts = fresh.artifacts(record.job_id)
        assert artifacts["cache_hit"] is True

    def test_cache_entries_match_the_batch_runner(self, tmp_path):
        """``repro serve`` and ``BatchRunner`` write the same cache
        entry for the same job, so a hit reports the same attempts
        whichever front end compiled it."""
        from dataclasses import replace

        from repro.batch import BatchRunner

        from test_batch import result_blob

        payload = tiny_payload(seed=11)
        spec = JobSpec.from_dict(payload)
        key = spec.fingerprint()
        BatchRunner(cache=ResultCache(tmp_path / "runner")).run(
            [spec.resolve()]
        )
        with CompileService(FAST_CONFIG, ResultCache(tmp_path / "serve")) as service:
            wait_done(service, service.submit(payload, "alice").job_id)
            assert service.drain() is True
        # The disk cache pickles on put and unpickles on get.
        runner_entry = ResultCache(tmp_path / "runner").get(key)
        serve_entry = ResultCache(tmp_path / "serve").get(key)
        assert result_blob(runner_entry.result) == result_blob(
            serve_entry.result
        )
        assert runner_entry.report == serve_entry.report
        assert replace(runner_entry, result=None, report=None) == replace(
            serve_entry, result=None, report=None
        )
        assert serve_entry.attempts == 1
        assert serve_entry.attempt_seconds is None
        hit = CompileService(FAST_CONFIG, ResultCache(tmp_path / "serve"))
        record = hit.submit(payload, "bob")
        assert record.cache_hit is True
        assert hit.status(record.job_id)["attempts"] == 1

    def test_housekeeper_expires_done_records(self):
        with CompileService(FAST_CONFIG) as service:
            record = service.submit(tiny_payload(seed=5), "alice")
            wait_done(service, record.job_id)
            # Within TTL the record survives a sweep...
            assert service.sweep() == 0
            # ...past it, the record expires and lookups 404.
            expired = service.sweep(
                now=monotonic() + FAST_CONFIG.job_ttl + 1.0
            )
            assert expired == 1
            with pytest.raises(ServeError) as excinfo:
                service.status(record.job_id)
            assert excinfo.value.code == "not_found"
            assert service.drain() is True

    def test_hard_stop_marks_inflight_aborted(self):
        config = ServeConfig(workers=1, max_queue_depth=16)
        with CompileService(config) as service:
            # ~300 ms of compilation per job on one worker: the tiny
            # drain deadline below is guaranteed to strand in-flight
            # work (a poll slice is ~50 ms, far below one job).
            ids = [
                service.submit(
                    {
                        "kind": "random",
                        "machine": "linear4",
                        "qubits": 48,
                        "gates": 6000,
                        "seed": s,
                    },
                    "alice",
                ).job_id
                for s in range(1, 4)
            ]
            # A deadline far shorter than the backlog: the drain must
            # hard-stop, and every admitted job still gets a terminal
            # state — aborted, never silently lost.
            clean = service.drain(deadline=0.02)
            assert clean is False
            assert service.pending == 0
            outcomes = {service.status(j)["outcome"] for j in ids}
            assert "aborted" in outcomes
            assert all(
                service.status(j)["state"] == "done" for j in ids
            )
            aborted = [
                j for j in ids
                if service.status(j)["outcome"] == "aborted"
            ]
            envelope = service.status(aborted[0])["error"]["error"]
            assert envelope["code"] == "internal"
            assert "drain deadline" in envelope["message"]

    def test_health_is_green_while_running(self):
        with CompileService(FAST_CONFIG) as service:
            assert service.health()["ok"] is True
            service.drain()


# ---------------------------------------------------------------------------
# HTTP end-to-end
# ---------------------------------------------------------------------------


class TestHTTP:
    def test_full_job_cycle(self):
        with ServerHandle(FAST_CONFIG) as handle:
            client = ServeClient(handle.url, identity="t-http")
            response = client.submit(tiny_payload())
            assert response.status == 202
            job_id = response.body["id"]
            done = client.wait(job_id, timeout=30.0)
            assert done.ok and done.body["outcome"] == "ok"
            artifacts = client.artifacts(job_id)
            assert artifacts.status == 200
            assert artifacts.body["result"]["num_shuttles"] >= 0
            assert client.health().ok
            assert client.readiness().ok
            config_doc = client.server_config()
            assert config_doc.status == 200
            assert config_doc.body == FAST_CONFIG.to_dict()

    def test_error_routes(self):
        with ServerHandle(FAST_CONFIG) as handle:
            client = ServeClient(handle.url)
            assert client.status("j999999").status == 404
            nope = client.request("GET", "/v2/frobnicate")
            assert nope.status == 404
            assert nope.error_code == "not_found"
            bad = client.submit({"kind": "quantum"})
            assert bad.status == 400
            assert bad.error_code == "validation"
            not_object = client.request("POST", "/v1/jobs", None)
            assert not_object.status == 400

    def test_oversize_machine_is_a_400(self):
        service = CompileService(FAST_CONFIG)
        with pytest.raises(ServeError) as excinfo:
            service.submit({**tiny_payload(), "machine": "grid80x80"}, "alice")
        assert excinfo.value.http_status == 400
        with ServerHandle(FAST_CONFIG) as handle:
            start = monotonic()
            response = ServeClient(handle.url).submit(
                {"kind": "bench", "name": "qft", "machine": "grid80x80"}
            )
            assert monotonic() - start < 1.0
            assert response.status == 400
            assert response.error_code == "validation"
            assert "traps" in response.body["error"]["message"]

    def test_listen_backlog_absorbs_a_connection_burst(self):
        """64 clients connecting at once are all accepted promptly.  An
        overflowing accept queue makes the kernel drop the handshake
        (the client retries after ~1 s) or reset the connection."""
        latencies = []
        with ServerHandle(FAST_CONFIG) as handle:

            def probe():
                start = monotonic()
                ServeClient(handle.url).health()
                latencies.append(monotonic() - start)

            threads = [threading.Thread(target=probe) for _ in range(64)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        assert len(latencies) == 64
        assert max(latencies) < 0.9

    def test_oversized_body_rejected(self):
        with ServerHandle(FAST_CONFIG) as handle:
            client = ServeClient(handle.url)
            huge = {**tiny_payload(), "machine": "l6"}
            huge = dict(huge)  # 64 KiB of padding via a rejected field
            huge["padding"] = "x" * (70 * 1024)
            response = client.submit(huge)
            assert response.status == 400
            assert response.error_code == "validation"
            assert "byte limit" in response.body["error"]["message"]

    @pytest.mark.parametrize("length", ["abc", "-5", "1_0"])
    def test_malformed_content_length_rejected(self, length):
        """A Content-Length that is not a decimal byte count is a typed
        400, never an internal 500, and the connection is closed (the
        body's extent is unknown).  Sent over a raw socket: HTTP
        clients refuse to send such a header."""
        with ServerHandle(FAST_CONFIG) as handle:
            request = (
                "POST /v1/jobs HTTP/1.1\r\n"
                f"Host: 127.0.0.1:{handle.port}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {length}\r\n\r\n"
            )
            with socket.create_connection(
                ("127.0.0.1", handle.port), timeout=10
            ) as sock:
                sock.sendall(request.encode("ascii"))
                response = http.client.HTTPResponse(sock)
                response.begin()
                body = json.loads(response.read())
        assert response.status == 400
        assert body["error"]["code"] == "validation"
        assert "Content-Length" in body["error"]["message"]
        assert response.getheader("Connection") == "close"

    def test_rate_limit_keyed_by_identity_header(self):
        config = ServeConfig(
            workers=2,
            max_queue_depth=32,
            rate_limit=RateLimit(limit=1, window_seconds=3600.0),
        )
        with ServerHandle(config) as handle:
            alice = ServeClient(handle.url, identity="alice")
            bob = ServeClient(handle.url, identity="bob")
            assert alice.submit(tiny_payload(seed=1)).status == 202
            limited = alice.submit(tiny_payload(seed=2))
            assert limited.status == 429
            assert limited.error_code == "rate_limited"
            assert limited.retry_after > 0
            # The other identity is untouched.
            assert bob.submit(tiny_payload(seed=3)).status == 202

    def test_server_fingerprint_matches_local_resolution(self):
        """Live equivalence: the server resolves a submitted spec to
        the same content fingerprint the client computes locally."""
        scenario = Scenario(
            name="fp",
            mix=(
                WorkloadItem("random", qubits=8, gates=30),
                WorkloadItem("bench", name="qft", qubits=8),
            ),
            machines=("linear3",),
            jobs=4,
            seed=23,
        )
        with ServerHandle(FAST_CONFIG) as handle:
            client = ServeClient(handle.url, identity="fp")
            for spec in scenario.draw_specs(4):
                response = client.submit(spec.to_dict())
                assert response.status == 202
                assert response.body["fingerprint"] == spec.fingerprint()


# ---------------------------------------------------------------------------
# The overload acceptance test
# ---------------------------------------------------------------------------


OVERLOAD_SCENARIO = Scenario(
    name="overload",
    description="Arrivals far above service capacity: sheds expected.",
    mix=(WorkloadItem("random", qubits=48, gates=800),),
    machines=("linear4",),
    mode="open",
    rate=200.0,
    jobs=40,
    cache="disabled",
    seed=7,
    sample_interval=0.25,
)


class TestOverloadAcceptance:
    def test_sheds_stays_healthy_drains_clean(self):
        """The PR's acceptance criteria, in one test: a 2-worker
        service under an arrival rate far above capacity (a) sheds
        with 429s instead of queueing unboundedly, (b) keeps /healthz
        green throughout, (c) bounds the latency of *admitted*
        requests, and (d) drains clean — zero admitted jobs lost."""
        config = ServeConfig(
            workers=2,
            max_queue_depth=4,
            default_retry_after=0.05,
            housekeeping_interval=0.1,
            drain_deadline=60.0,
        )
        handle = ServerHandle(config).start()
        health_client = ServeClient(handle.url, timeout=5.0)
        health_samples: list[bool] = []
        stop_health = threading.Event()

        def watch_health() -> None:
            while not stop_health.wait(timeout=0.05):
                health_samples.append(health_client.health().ok)

        watcher = threading.Thread(target=watch_health, daemon=True)
        watcher.start()
        try:
            runner = LoadRunner(OVERLOAD_SCENARIO, target=handle.url)
            report = runner.run()
        finally:
            stop_health.set()
            watcher.join(timeout=5.0)
            clean = handle.drain()
            handle.close()

        counts = report.counts
        # (a) Overload was real and answered with shedding, and the
        # queue stayed bounded (pending can never exceed the depth —
        # submit() refuses first — so shed > 0 proves the bound bit).
        assert counts["refused"] > 0, counts
        admitted = counts["jobs"] - counts["refused"]
        assert admitted > 0, counts
        refusals = {
            o: n
            for o, n in report.resilience["outcomes"].items()
            if o in ("shed", "rate_limited", "draining")
        }
        assert sum(refusals.values()) == counts["refused"]
        assert refusals.get("shed", 0) > 0
        # (b) Liveness stayed green under overload — every sample.
        assert health_samples, "health watcher never sampled"
        assert all(health_samples)
        # (c) Latency percentiles cover admitted requests only and are
        # bounded: depth-4 queue x ~40ms jobs on 2 workers keeps even
        # p99 sojourn far below this generous ceiling.
        assert report.latency["count"] == admitted
        assert report.latency["p99"] is not None
        assert report.latency["p99"] < 30.0
        # (d) Zero lost: every planned request has a terminal record,
        # and the drain finished everything admitted.
        assert report.resilience["lost"] == 0
        assert counts["jobs"] == OVERLOAD_SCENARIO.jobs
        assert clean is True


# ---------------------------------------------------------------------------
# Live-mode load generation
# ---------------------------------------------------------------------------


LIVE_SCENARIO = Scenario(
    name="live-smoke",
    mix=(WorkloadItem("random", qubits=8, gates=30),),
    machines=("linear3",),
    mode="closed",
    consumers=2,
    jobs=6,
    seed=5,
)


class TestLiveMode:
    def test_closed_loop_against_live_server(self):
        with ServerHandle(FAST_CONFIG) as handle:
            report = LoadRunner(LIVE_SCENARIO, target=handle.url).run()
        assert report.target == handle.url
        assert report.interrupted is False
        assert report.counts["jobs"] == 6
        assert report.counts["ok"] == 6
        assert report.counts["refused"] == 0
        assert report.resilience["lost"] == 0
        assert report.latency["count"] == 6

    def test_open_loop_live_records_are_index_complete(self):
        scenario = Scenario(
            name="live-open",
            mix=(WorkloadItem("random", qubits=8, gates=30),),
            machines=("linear3",),
            mode="open",
            rate=50.0,
            jobs=8,
            seed=5,
        )
        with ServerHandle(FAST_CONFIG) as handle:
            records, wall, planned = LiveRunner(
                scenario, handle.url
            ).run()
        assert planned == 8
        assert sorted(r.index for r in records) == list(range(8))
        assert all(r.outcome == "ok" for r in records)

    def test_preset_interrupt_yields_partial_marked_report(self):
        interrupt = threading.Event()
        interrupt.set()
        with ServerHandle(FAST_CONFIG) as handle:
            report = LoadRunner(
                LIVE_SCENARIO, target=handle.url, interrupt=interrupt
            ).run()
        assert report.interrupted is True
        # Every planned draw still owes a record: all interrupted.
        assert report.counts["jobs"] == 6
        assert report.counts["refused"] == 6
        assert report.resilience["outcomes"] == {"interrupted": 6}
        assert report.resilience["lost"] == 0

    def test_unreachable_target_raises(self):
        from repro.serve import ServeUnavailable

        runner = LiveRunner(LIVE_SCENARIO, "http://127.0.0.1:1")
        runner.client.wait_until_up = lambda timeout=0: False
        with pytest.raises(ServeUnavailable):
            runner.run()
