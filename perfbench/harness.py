"""Shared plumbing for the workloads: import path, spans, statistics,
process accounting, and the result record.

Nothing here knows a workload.  Everything the benchmark measures
goes through :class:`Spans` (per-layer time and counts, recorded
around public ``repro`` calls from outside the library) or through
:class:`Outcome` (end-to-end numbers of one measured phase).
"""

from __future__ import annotations

import math
import os
import resource
import shutil
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter, process_time

#: The checkout the benchmark runs in: the parent of this directory.
REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run (not an output check)."""


def require_repro() -> None:
    """Put ``src/`` on the import path; fail loudly when it is absent.

    Raised before any work, so a directory holding only the benchmark
    exits non-zero without printing a result.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(
            f"repro sources not found under {SRC}; run from a checkout"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


@contextmanager
def work_dir(tag: str):
    """A scratch directory inside the checkout, removed on exit."""
    root = REPO_ROOT / ".perfbench_work"
    path = root / f"{tag}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            root.rmdir()
        except OSError:
            pass


class Spans:
    """Per-layer busy time (seconds, with call counts) and counters."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}

    def add(self, name: str, seconds: float, calls: int = 1) -> None:
        self.seconds[name] = self.seconds.get(name, 0.0) + seconds
        self.calls[name] = self.calls.get(name, 0) + calls

    @contextmanager
    def span(self, name: str):
        start = perf_counter()
        try:
            yield
        finally:
            self.add(name, perf_counter() - start)

    def count(self, name: str, value: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def total(self, name: str) -> float:
        return self.seconds.get(name, 0.0)

    def mean_ms(self, name: str) -> float:
        """Mean milliseconds per call; 0.0 when the layer was never
        called on this workload."""
        calls = self.calls.get(name, 0)
        return 1e3 * self.seconds[name] / calls if calls else 0.0


#: Seconds :func:`reference_seconds` takes on a quiet, fast host.
REFERENCE_NOMINAL_SECONDS = 0.017
#: Least wall time between two reference probes inside a block.
PROBE_SECONDS = 0.5


def _reference_work() -> int:
    table: dict[int, int] = {}
    items = []
    for i in range(40000):
        key = (i * 7919) % 1009
        table[key] = table.get(key, 0) + i
        items.append((key, i))
    items.sort()
    return len(table) + items[0][1]


def reference_seconds(samples: int = 5) -> float:
    """Median time of a fixed pure-Python loop (dict updates, tuple
    building, a sort) that no ``repro`` change can touch.

    The shared host this was built on runs at speeds up to 2x apart
    from one period to the next, and this loop's time tracks the swing.
    Taken around and inside every block, it gives each block a
    host-speed factor (see :func:`assign_speeds`).
    """
    times = []
    for _ in range(samples):
        start = perf_counter()
        _reference_work()
        times.append(perf_counter() - start)
    return median(times)


class Probe:
    """Reference-loop timings taken between the jobs of one block, at
    most every :data:`PROBE_SECONDS`, so the speed factor follows the
    host's drift within the block.  Their wall and CPU time are kept
    out of the block's figures."""

    def __init__(self) -> None:
        self.references: list[float] = []
        self.wall = 0.0
        self.cpu = 0.0
        self._due = perf_counter() + PROBE_SECONDS

    def between_jobs(self) -> None:
        start = perf_counter()
        if start < self._due:
            return
        cpu_start = process_time()
        self.references.append(reference_seconds(samples=1))
        self.cpu += process_time() - cpu_start
        end = perf_counter()
        self.wall += end - start
        self._due = end + PROBE_SECONDS


def assign_speeds(blocks: list, boundaries: list[float]) -> None:
    """Set each block's speed factor: nominal reference time over the
    mean of the references taken before it, inside it and after it
    (below 1 on a slow host)."""
    for block, before, after in zip(blocks, boundaries, boundaries[1:]):
        references = [before, *block.references, after]
        block.speed = REFERENCE_NOMINAL_SECONDS / (sum(references) / len(references))


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (0 < q < 1) of ``values``."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


# ----------------------------------------------------------------------
# Process accounting (Linux /proc)
# ----------------------------------------------------------------------
_TICKS = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> list[str]:
    with open(f"/proc/{pid}/stat") as handle:
        raw = handle.read()
    # The command name may hold spaces; fields resume after its ')'.
    return raw[raw.rindex(")") + 2:].split()


def child_pids(pid: int) -> list[int]:
    """Live direct children of ``pid``."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            if int(_stat_fields(int(entry))[1]) == pid:
                children.append(int(entry))
        except (OSError, ValueError, IndexError):
            continue
    return children


def process_tree_cpu_seconds(pid: int) -> float:
    """CPU seconds of ``pid``, its reaped children, and its live ones."""
    total = 0.0
    for index, member in enumerate([pid] + child_pids(pid)):
        try:
            fields = _stat_fields(member)
        except OSError:
            continue
        # utime, stime, cutime, cstime (stat fields 14-17).
        ticks = int(fields[11]) + int(fields[12])
        if index == 0:
            ticks += int(fields[13]) + int(fields[14])
        total += ticks / _TICKS
    return total


def peak_rss_mb_of(pid: int) -> float:
    """Peak resident set (VmHWM) of one live process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchmarkError(f"no VmHWM for pid {pid}")


def cpu_steal_ticks() -> tuple[int, int]:
    """(steal, total) CPU ticks of the host view since boot: the share
    of time the hypervisor ran someone else, read from /proc/stat."""
    with open("/proc/stat") as handle:
        fields = [int(v) for v in handle.readline().split()[1:]]
    return fields[7], sum(fields[:8])


def self_peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class Block:
    """One block of a measured phase.  Every block holds the same job
    mix and is preceded by a timed set-up, so set-up samples spread
    over the run like the jobs do."""

    wall_seconds: float
    cpu_seconds: float
    #: Seconds from submit to artifacts in hand, one per job.
    latencies: list[float]
    #: Reference times probed inside the block (:class:`Probe`).
    references: list[float] = field(default_factory=list)
    #: Host-speed factor (:func:`assign_speeds`); end-to-end timings
    #: are multiplied by it, which states them at the nominal speed.
    speed: float = 1.0


@dataclass
class Outcome:
    """End-to-end record of one measured phase.

    ``shuttles``/``gates``/``log10_fidelities`` sum over the jobs whose
    outputs passed every check.
    """

    blocks: list[Block] = field(default_factory=list)
    attempted: int = 0
    #: Jobs that returned artifacts which passed every check.
    succeeded: int = 0
    failures: list[str] = field(default_factory=list)
    shuttles: int = 0
    gates: int = 0
    log10_fidelities: list[float] = field(default_factory=list)

    @property
    def wall_seconds(self) -> float:
        return sum(block.wall_seconds for block in self.blocks)

    def record_output(
        self, shuttles: int, gates: int, log10_fidelity: float
    ) -> None:
        self.succeeded += 1
        self.shuttles += shuttles
        self.gates += gates
        self.log10_fidelities.append(log10_fidelity)

    def quality(self) -> tuple[float, float]:
        """(shuttles, -log10 fidelity) per thousand executed gates.

        ``math.fsum`` is exactly rounded, so the fidelity figure does
        not depend on job order.
        """
        kgates = self.gates / 1e3
        return (
            self.shuttles / kgates,
            -math.fsum(self.log10_fidelities) / kgates,
        )


def end_to_end_metrics(
    outcome: Outcome, setup_seconds: list[float], peak_rss_mb: float,
    rss_processes: int, normalized: bool = True,
) -> dict[str, tuple[float, str, int]]:
    """The nine end-to-end metrics: name -> (value, unit, samples).

    Timings are stated at the nominal host speed: every time in a block
    is multiplied by the block's speed factor (``setup_seconds`` come
    already scaled).  ``normalized=False`` gives the raw figures.
    """
    jobs = outcome.attempted
    blocks = outcome.blocks

    def scale(block: Block) -> float:
        return block.speed if normalized else 1.0

    latencies_ms = [
        1e3 * s * scale(block) for block in blocks for s in block.latencies
    ]
    wall = sum(block.wall_seconds * scale(block) for block in blocks)
    cpu_seconds = sum(block.cpu_seconds * scale(block) for block in blocks)
    shuttles_per_kgate, neg_log10_fid_per_kgate = outcome.quality()
    return {
        "jobs_per_s": (jobs / wall, "1/s", jobs),
        "latency_p50_ms": (percentile(latencies_ms, 0.5), "ms", jobs),
        "latency_p90_ms": (percentile(latencies_ms, 0.9), "ms", jobs),
        "success_ratio": (outcome.succeeded / jobs, "ratio", jobs),
        "cpu_ms_per_job": (1e3 * cpu_seconds / jobs, "ms", jobs),
        "shuttles_per_kgate": (
            shuttles_per_kgate, "1/kgate", outcome.succeeded,
        ),
        "neg_log10_fidelity_per_kgate": (
            neg_log10_fid_per_kgate, "1/kgate", outcome.succeeded,
        ),
        "setup_s": (median(setup_seconds), "s", len(setup_seconds)),
        "peak_rss_mb": (peak_rss_mb, "MiB", rss_processes),
    }
