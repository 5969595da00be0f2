"""serve-fresh and serve-repeat: ``repro serve`` under a closed loop.

The service runs as its own process (``repro serve --workers 1`` with
an on-disk ``ResultCache``), so at most two processes are busy on two
cores: the server's worker and, between polls, the server or this
client.  One client thread submits a job, polls its status every
:data:`POLL_SECONDS` until it is done, then fetches the artifacts;
only then does it submit the next one.

* serve-fresh: distinct seeded random specs (24 qubits, 120 gates,
  ``linear4``, simulated).  Every request misses the cache, compiles
  in the worker and is written to the cache.
* serve-repeat: the ten paper-size bench specs (5 circuits x
  baseline/optimized, ``l6``, simulated) are compiled once during
  set-up; the measured phase resubmits them in seeded shuffled rounds,
  so every request is a cache hit and every seed sends the same mix.

Job counts follow from ``--seconds`` and a nominal rate, never from a
clock, so the set of jobs (and every count metric) is fixed by the
arguments.
"""

from __future__ import annotations

import os
import pickle
import random
import re
import signal
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter, process_time, sleep, time

from harness import (
    REPO_ROOT,
    SRC,
    BenchmarkError,
    Block,
    Outcome,
    REFERENCE_NOMINAL_SECONDS,
    Spans,
    child_pids,
    Probe,
    assign_speeds,
    peak_rss_mb_of,
    process_tree_cpu_seconds,
    reference_seconds,
    self_peak_rss_mb,
    work_dir,
)

from repro.batch import JobResult, ResultCache, execute_job
from repro.batch.spec import BENCH_FACTORIES, JobSpec
from repro.bench import random_circuit
from repro.compiler.compiler import QCCDCompiler
from repro.compiler.mapping import greedy_initial_mapping
from repro.serve import ServeClient
from repro.sim.simulator import Simulator

#: Client poll interval: fixed, and small next to a ~5 ms service time
#: (a 50 ms poll measured 64 ms p50 against 26 ms at 2 ms).
POLL_SECONDS = 0.002
#: Blocks per measured phase, each preceded by a timed set-up.
BLOCKS = 5
FRESH_WARMUP_JOBS = 5
#: Closed-loop jobs per second on a 2-core VM; they set the job count
#: from ``--seconds``.
NOMINAL_JOBS_PER_S = {"serve-fresh": 58.0, "serve-repeat": 19.0}
BENCH_SPECS = [
    {"kind": "bench", "name": name, "machine": "l6", "config": config,
     "simulate": True}
    for name in ("supremacy", "qaoa", "squareroot", "qft", "quadraticform")
    for config in ("baseline", "optimized")
]


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------
class Server:
    """``repro serve`` in a child process, with its own cache."""

    def __init__(self, directory) -> None:
        self.cache_dir = directory / "cache"
        self._log_path = directory / "serve.log"
        self._log = open(self._log_path, "w")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), env.get("PYTHONPATH")])
        )
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--workers", "1",
             "--port", "0", "--cache-dir", str(self.cache_dir)],
            cwd=REPO_ROOT,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=self._log,
        )
        try:
            self.client = ServeClient(self._wait_listening(60.0), timeout=60.0)
        except BaseException:
            self.stop()
            raise

    def _wait_listening(self, timeout: float) -> str:
        due = perf_counter() + timeout
        while perf_counter() < due:
            text = self._log_path.read_text()
            match = re.search(r"listening on (http://\S+)", text)
            if match:
                return match.group(1)
            if self.proc.poll() is not None:
                raise BenchmarkError(f"repro serve exited early:\n{text}")
            sleep(0.005)
        raise BenchmarkError("repro serve did not start listening")

    def cpu_seconds(self) -> float:
        return process_tree_cpu_seconds(self.proc.pid)

    def peak_rss(self) -> tuple[float, int]:
        """(summed VmHWM in MiB, process count) of server and workers."""
        pids = [self.proc.pid] + child_pids(self.proc.pid)
        return sum(peak_rss_mb_of(pid) for pid in pids), len(pids)

    def stop(self) -> None:
        """SIGTERM (the server drains), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


# ----------------------------------------------------------------------
# One closed-loop request
# ----------------------------------------------------------------------
@dataclass
class Exchange:
    """Submit -> poll -> fetch for one spec, with its timeline."""

    spec: dict
    latency: float = 0.0
    error: str | None = None
    submit: float = 0.0
    statuses: list[float] = field(default_factory=list)
    fetch: float = 0.0
    #: Wall clock at submit and when the client saw ``done``; the
    #: server's stamps are wall clock too, on the same host.
    start_wall: float = 0.0
    done_wall: float = 0.0
    status: dict = field(default_factory=dict)
    artifacts: dict = field(default_factory=dict)


def request(client: ServeClient, spec: dict) -> Exchange:
    exchange = Exchange(spec)
    exchange.start_wall = time()
    start = perf_counter()
    response = client.submit(spec)
    exchange.submit = perf_counter() - start
    body = response.body
    while response.ok and body.get("state") != "done":
        sleep(POLL_SECONDS)
        polled = perf_counter()
        response = client.status(body["id"])
        exchange.statuses.append(perf_counter() - polled)
        body = response.body
    if not response.ok:
        exchange.error = f"HTTP {response.status} {response.error_code}"
        exchange.latency = perf_counter() - start
        return exchange
    exchange.done_wall = time()
    exchange.status = body
    fetched = perf_counter()
    response = client.artifacts(body["id"])
    end = perf_counter()
    exchange.fetch = end - fetched
    exchange.latency = end - start
    if response.ok:
        exchange.artifacts = response.body
    else:
        exchange.error = f"HTTP {response.status} {response.error_code}"
    return exchange


def run_block(server: Server, specs: list[dict], exchanges: list) -> Block:
    cpu_start = process_time()
    server_cpu_start = server.cpu_seconds()
    start = perf_counter()
    probe = Probe()
    block = []
    for spec in specs:
        block.append(request(server.client, spec))
        probe.between_jobs()
    wall = perf_counter() - start - probe.wall
    cpu = process_time() - cpu_start + server.cpu_seconds() - server_cpu_start
    exchanges.extend(block)
    return Block(wall, cpu - probe.cpu, [e.latency for e in block], probe.references)


# ----------------------------------------------------------------------
# Workload definitions
# ----------------------------------------------------------------------
def _spec_key(spec: dict) -> str:
    return JobSpec.from_dict(spec).label


def plan(workload: str, seed: int, seconds: int) -> tuple[list[list[dict]], list[list[dict]]]:
    """(measured specs per block, warm-up specs per set-up)."""
    rng = random.Random(f"{workload}:{seed}")
    per_block = max(1, round(seconds * NOMINAL_JOBS_PER_S[workload] / BLOCKS))
    if workload == "serve-repeat":
        rounds = max(1, round(per_block / len(BENCH_SPECS)))
        blocks = []
        for _ in range(BLOCKS):
            block = []
            for _ in range(rounds):
                order = list(BENCH_SPECS)
                rng.shuffle(order)
                block.extend(order)
            blocks.append(block)
        return blocks, [BENCH_SPECS] * BLOCKS
    warmups = FRESH_WARMUP_JOBS * BLOCKS
    seeds = rng.sample(range(1 << 31), per_block * BLOCKS + warmups)
    docs = [
        JobSpec(kind="random", machine="linear4", qubits=24, gates=120,
                seed=s, simulate=True).to_dict()
        for s in seeds
    ]
    chunks = [docs[i:i + per_block] for i in range(0, len(seeds), per_block)]
    return chunks[:BLOCKS], [
        docs[i:i + FRESH_WARMUP_JOBS]
        for i in range(per_block * BLOCKS, len(docs), FRESH_WARMUP_JOBS)
    ]


def start_server(directory, warmup: list[dict]) -> tuple[Server, float, list[str]]:
    """Spawn a server and run the warm-up jobs (the timed set-up)."""
    directory.mkdir()
    start = perf_counter()
    server = Server(directory)
    try:
        errors = [
            f"warm-up {_spec_key(e.spec)}: {e.error}"
            for e in (request(server.client, spec) for spec in warmup)
            if e.error
        ]
    except BaseException:
        server.stop()
        raise
    return server, perf_counter() - start, errors


def reference_outputs(specs: list[dict]) -> dict[str, tuple]:
    """In-process ``execute_job`` result per distinct spec."""
    table = {}
    for spec in specs:
        key = _spec_key(spec)
        if key not in table:
            result, report = execute_job(JobSpec.from_dict(spec).resolve())
            table[key] = (result.num_shuttles, result.num_gates, report.log10_fidelity)
    return table


def verify(
    exchanges: list[Exchange], table: dict, outcome: Outcome, expect_hit: bool
) -> None:
    """Served counts equal the in-process result; hits as designed."""
    for exchange in exchanges:
        key = _spec_key(exchange.spec)
        if exchange.error:
            outcome.failures.append(f"{key}: {exchange.error}")
            continue
        served = exchange.artifacts["result"]
        got = (served["num_shuttles"], served["num_gates"],
               served["simulation"]["log10_fidelity"])
        if got != table[key]:
            outcome.failures.append(f"{key}: served {got} != in-process {table[key]}")
            continue
        if exchange.artifacts["cache_hit"] != expect_hit:
            outcome.failures.append(f"{key}: cache_hit={exchange.artifacts['cache_hit']}")
            continue
        outcome.record_output(*got)


# ----------------------------------------------------------------------
# Per-layer probes (traced run)
# ----------------------------------------------------------------------
def _build(spec: JobSpec):
    if spec.kind == "random":
        return random_circuit(spec.qubits, spec.gates, spec.seed, spec.family)
    return BENCH_FACTORIES[spec.name](spec.qubits)


def probe_intake(specs: list[dict], cache_dir, spans: Spans) -> None:
    """Circuit build, fingerprint and cache lookup, each timed on the
    inputs the server sees, in the cache state it sees at submit."""
    cache = ResultCache(cache_dir)
    seen = set()
    for doc in specs:
        spec = JobSpec.from_dict(doc)
        if spec.label in seen:
            continue
        seen.add(spec.label)
        with spans.span("circuits.build"):
            _build(spec)
        job = spec.resolve()
        with spans.span("batch.fingerprint"):
            key = job.fingerprint()
        with spans.span("batch.cache_get"):
            cache.get(key)


def probe_workers(exchanges: list[Exchange], spans: Spans) -> list[str]:
    """Map, compile and simulate every job the worker compiled, and
    pickle its result as it crosses the pool and enters the cache."""
    mismatches = []
    for exchange in exchanges:
        if exchange.error or exchange.status.get("cache_hit"):
            continue
        job = JobSpec.from_dict(exchange.spec).resolve()
        with spans.span("compiler.map"):
            chains = greedy_initial_mapping(job.circuit, job.machine)
        with spans.span("compiler.compile"):
            result = QCCDCompiler(job.machine, job.config).compile(
                job.circuit, initial_chains=chains
            )
        with spans.span("sim.simulate"):
            report = Simulator(job.machine, job.params).run(
                result.schedule, result.initial_chains
            )
        spans.count("compiler.ops", len(result.schedule))
        spans.count("compiler.shuttles", result.num_shuttles)
        served = exchange.artifacts["result"]
        if (result.num_shuttles, report.log10_fidelity) != (
            served["num_shuttles"], served["simulation"]["log10_fidelity"]
        ):
            mismatches.append(f"{job.label}: traced split differs from served")
        job_result = JobResult(-1, exchange.status["fingerprint"], result, report)
        start = perf_counter()
        blob = pickle.dumps(job_result, protocol=pickle.HIGHEST_PROTOCOL)
        spans.add("batch.result_pickle", perf_counter() - start)
        spans.count("batch.result_pickle_bytes", len(blob))
    return mismatches


def timeline_spans(exchanges: list[Exchange], spans: Spans) -> float:
    """Record the client/server timeline; returns the seconds of the
    blocking path it attributes to layers.

    The path is cut at the server's stamps so the pieces do not
    overlap: intake (submit until the server records the job: HTTP,
    validation, circuit build, fingerprint, cache lookup), sojourn
    (queue, dispatch and service), poll lag, fetch.
    """
    attributed = 0.0
    for exchange in exchanges:
        if exchange.error:
            continue
        status = exchange.status
        sojourn = status["finished_at"] - status["submitted_at"]
        poll_lag = exchange.done_wall - status["finished_at"]
        spans.add("serve.submit", exchange.submit)
        spans.add("serve.fetch", exchange.fetch)
        spans.add("serve.sojourn", sojourn)
        spans.add("serve.poll_lag", poll_lag)
        spans.count("serve.polls", len(exchange.statuses))
        spans.count("serve.cache_hits", int(status["cache_hit"]))
        for seconds in exchange.statuses:
            spans.add("serve.status", seconds)
        if status["seconds"] is not None:
            spans.add("resilience.service", status["seconds"])
            spans.add("resilience.queue_dispatch", sojourn - status["seconds"])
        intake = status["submitted_at"] - exchange.start_wall
        attributed += intake + sojourn + poll_lag + exchange.fetch
    return attributed


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """One run of the workload; see ``run.py`` for the record's use.

    The first set-up starts the server that serves every block.  Before
    each later block a throwaway server is set up, timed and stopped,
    so the set-up samples are spread over the run like the blocks are.
    """
    blocks, warmups = plan(workload, seed, seconds)
    specs = [spec for block in blocks for spec in block]
    expect_hit = workload == "serve-repeat"
    failures: list[str] = []
    outcome = Outcome()
    exchanges: list[Exchange] = []
    setup_seconds = []
    reference_times = []
    with work_dir(workload) as directory:
        server, taken, errors = start_server(directory / "setup0", warmups[0])
        setup_seconds.append(taken)
        failures.extend(errors)
        try:
            for index, block in enumerate(blocks):
                if index and not trace:
                    spare, taken, errors = start_server(
                        directory / f"setup{index}", warmups[index]
                    )
                    spare.stop()
                    setup_seconds.append(taken)
                    failures.extend(errors)
                reference_times.append(reference_seconds())
                outcome.blocks.append(run_block(server, block, exchanges))
            reference_times.append(reference_seconds())
            peak_rss, rss_processes = server.peak_rss()
        finally:
            server.stop()
        assign_speeds(outcome.blocks, reference_times)
        record = {
            "outcome": outcome,
            "raw_setup_seconds": setup_seconds,
            "setup_seconds": [
                seconds * REFERENCE_NOMINAL_SECONDS / reference
                for seconds, reference in zip(setup_seconds, reference_times)
            ],
            "peak_rss_mb": peak_rss + self_peak_rss_mb(),
            "rss_processes": rss_processes + 1,
        }
        if trace:
            spans = Spans()
            traced = Outcome()
            traced_exchanges: list[Exchange] = []
            server, _, errors = start_server(directory / "traced", warmups[-1])
            try:
                failures.extend(errors)
                probe_intake(specs, server.cache_dir, spans)
                for block in blocks:
                    traced.blocks.append(run_block(server, block, traced_exchanges))
            finally:
                server.stop()
    outcome.attempted = len(exchanges)
    table = reference_outputs(specs)
    verify(exchanges, table, outcome, expect_hit)
    outcome.failures.extend(failures)
    if not trace:
        return record

    verify(traced_exchanges, table, traced, expect_hit)
    outcome.failures.extend(traced.failures)
    outcome.failures.extend(probe_workers(traced_exchanges, spans))
    attributed = timeline_spans(traced_exchanges, spans)
    jobs = len(traced_exchanges)
    record["spans"] = spans
    record["polls_per_job"] = spans.counts.get("serve.polls", 0) / jobs
    record["cache_hit_ratio"] = spans.counts.get("serve.cache_hits", 0) / jobs
    record["unattributed_share"] = 1 - attributed / traced.wall_seconds
    record["overhead_ratio"] = traced.wall_seconds / outcome.wall_seconds
    return record
