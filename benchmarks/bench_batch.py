"""Batch-engine benchmark: parallel speedup and warm-cache replay.

Runs the paper suite (reduced random ensemble) through the batch
engine three ways — serial cold, ``n_jobs=4`` cold, and warm-cache
replay — and writes a ``BENCH_batch.json`` summary to
``benchmarks/_results/``.  On multi-core hosts the parallel run should
approach ``min(4, cores)`` times the serial throughput; the warm run
must perform zero compilations regardless of core count.

Every pass builds its circuits afresh before its timer starts, so a
pass time is the batch engine's alone (fingerprints, cache reads,
compile and simulate), never circuit construction.  The
warm-beats-serial gate is an interleaved in-process A/B: serial cold
and warm passes alternate (the first side alternates too), and the
medians are compared, so host noise hits both sides alike.

Run with ``pytest benchmarks/bench_batch.py``.
"""

import json
import time
from statistics import median

from conftest import write_result

#: Serial-cold / warm-cache pairs of the A/B.
AB_PAIRS = 5


def _suite_jobs():
    from repro.batch import sweep
    from repro.bench.suite import paper_suite
    from repro.compiler.config import CompilerConfig

    return sweep(
        paper_suite(full=False),
        _machine(),
        [CompilerConfig.baseline(), CompilerConfig.optimized()],
    )


def _machine():
    from repro.arch.presets import l6_machine

    return l6_machine()


def _timed_run(n_jobs, cache=None):
    from repro.batch import BatchRunner

    # Fresh circuits every pass, built before the clock starts: the
    # pass times the batch engine, not circuit construction.
    jobs = _suite_jobs()
    runner = BatchRunner(n_jobs=n_jobs, cache=cache)
    start = time.perf_counter()
    results = runner.run_or_raise(jobs)
    elapsed = time.perf_counter() - start
    return elapsed, results, runner


def test_batch_speedup_and_warm_cache(results_dir, tmp_path):
    from repro.batch import ResultCache

    _, serial_results, _ = _timed_run(n_jobs=1)
    parallel_seconds, parallel_results, _ = _timed_run(n_jobs=4)

    # Determinism: a parallel pass is element-wise identical.
    for a, b in zip(serial_results, parallel_results):
        assert a.result == b.result

    cache_dir = tmp_path / "cache"
    fill_seconds, _, fill_runner = _timed_run(
        n_jobs=1, cache=ResultCache(cache_dir)
    )

    def serial():
        return _timed_run(n_jobs=1)[0]

    def warm():
        seconds, warm_results, warm_runner = _timed_run(
            n_jobs=1, cache=ResultCache(cache_dir)
        )
        # Zero recompilations on a warm pass.
        assert warm_runner.cache_stats.misses == 0
        assert warm_runner.cache_stats.hits == len(warm_results)
        for a, b in zip(serial_results, warm_results):
            assert a.result == b.result
        return seconds

    times = {serial: [], warm: []}
    for pair in range(AB_PAIRS):
        for side in (serial, warm) if pair % 2 == 0 else (warm, serial):
            times[side].append(side())
    serial_seconds = median(times[serial])
    warm_seconds = median(times[warm])

    summary = {
        "suite_jobs": len(serial_results),
        "ab_pairs": AB_PAIRS,
        "n_jobs1_seconds": round(serial_seconds, 3),
        "n_jobs4_seconds": round(parallel_seconds, 3),
        "parallel_speedup": round(serial_seconds / parallel_seconds, 3),
        "cold_cached_seconds": round(fill_seconds, 3),
        "warm_cache_seconds": round(warm_seconds, 3),
        "warm_replay_speedup": round(serial_seconds / warm_seconds, 3),
        "warm_cache_hits": len(serial_results),
        "warm_recompilations": 0,
        "cache_entries": fill_runner.cache_stats.puts,
    }
    write_result(
        results_dir, "BENCH_batch.json", json.dumps(summary, indent=2)
    )
    assert summary["warm_cache_seconds"] < summary["n_jobs1_seconds"]
