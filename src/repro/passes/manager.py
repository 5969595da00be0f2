"""The pass manager: composable, verified schedule optimization.

:class:`PassManager` applies a pipeline of
:class:`~repro.passes.base.SchedulePass` rewrites to a compiled
schedule.  Safety is non-negotiable:

* the input schedule is verified before any pass runs (garbage in is
  reported, not "optimized"),
* after every pass that rewrote anything, the output is re-verified for
  machine legality *and* circuit equivalence against the original
  schedule — a pass emitting an unverifiable stream is a bug and raises
  :class:`PassError`; the manager never returns an unverified schedule,
* a pass that *increased* the shuttle count is discarded (defense in
  depth — no shipped pass can, by construction),
* with ``fidelity_guard`` enabled, each pass's output is additionally
  scored for program fidelity and the pass is rolled back when fidelity
  dropped — heat-redistributing rewrites are kept only when they pay.

The verify-and-revert loop runs on the kernel's *incremental* replay:
the input schedule is replayed once into a
:class:`~repro.core.replaying.CheckpointedReplay` (machine-state
checkpoints every √N ops, each carrying a
:class:`~repro.core.observers.HeatingObserver` snapshot when the
fidelity guard is on), and every pass output is then verified as a
``(start, end, replacement)`` splice: one scan from the checkpoint
nearest the first divergent op computes the legality verdict, the
final chains *and* the program log-fidelity — bit-identical floats to
a from-scratch replay, at a fraction of the work when the pass's
edits cluster late in the stream.  Circuit equivalence is checked
against the input schedule's per-qubit gate sequences, precomputed
once.

The result records a per-pass stats delta so reports can attribute
savings to individual rewrites.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

from ..arch.machine import QCCDMachine
from ..obs import active as _obs_active
from ..core.errors import MachineModelError
from ..core.observers import HeatingObserver
from ..core.params import DEFAULT_PARAMS, MachineParams
from ..core.replaying import CheckpointedReplay
from ..sim.schedule import Schedule
from .base import PassContext, SchedulePass
from .registry import make_passes
from .verify import EquivalenceReference, VerificationError

#: Log-fidelity slack below which a guarded pass counts as "no worse".
_LOG_FIDELITY_TOLERANCE = 1e-9


class PassError(RuntimeError):
    """Raised when a pass emits an illegal or non-equivalent schedule."""


def _diff_splice(
    current: list, candidate: tuple
) -> tuple[int, int, list]:
    """Describe ``candidate`` as a splice of ``current``.

    Returns ``(start, end, replacement)`` with
    ``candidate == current[:start] + replacement + current[end:]`` —
    the longest shared prefix and suffix are factored out, so the
    incremental engine verifies only the divergent window.  Untouched
    ops are shared by reference between the streams (passes copy
    references), so the scans are dominated by identity checks.
    """
    n_current, n_candidate = len(current), len(candidate)
    limit = min(n_current, n_candidate)
    start = 0
    while start < limit:
        a, b = current[start], candidate[start]
        if a is not b and a != b:
            break
        start += 1
    end_current, end_candidate = n_current, n_candidate
    while end_current > start and end_candidate > start:
        a, b = current[end_current - 1], candidate[end_candidate - 1]
        if a is not b and a != b:
            break
        end_current -= 1
        end_candidate -= 1
    return start, end_current, list(candidate[start:end_candidate])


@dataclass(frozen=True)
class PassStats:
    """What one pass did to the op stream."""

    name: str
    rewrites: int
    shuttles_removed: int = 0
    splits_removed: int = 0
    merges_removed: int = 0
    swaps_removed: int = 0
    ops_removed: int = 0
    #: True when the fidelity guard rolled the pass back (its rewrites
    #: were legal but made the simulated program fidelity worse).
    reverted: bool = False

    @property
    def effective(self) -> bool:
        """True when the pass changed the shipped schedule."""
        return self.rewrites > 0 and not self.reverted


@dataclass
class OptimizationResult:
    """Outcome of one pass-pipeline run."""

    schedule: Schedule
    raw_schedule: Schedule
    passes: tuple[PassStats, ...] = ()
    #: Per-trap chains after executing the optimized schedule (from the
    #: verification replay; pass rewrites can change final chain order).
    final_chains: dict[int, list[int]] | None = None

    @property
    def raw_num_shuttles(self) -> int:
        return self.raw_schedule.num_shuttles

    @property
    def num_shuttles(self) -> int:
        return self.schedule.num_shuttles

    @property
    def shuttles_removed(self) -> int:
        return self.raw_num_shuttles - self.num_shuttles

    @property
    def total_rewrites(self) -> int:
        return sum(s.rewrites for s in self.passes if not s.reverted)

    def summary(self) -> str:
        """One-line human-readable outcome."""
        applied = [s.name for s in self.passes if s.effective]
        return (
            f"{self.raw_num_shuttles} -> {self.num_shuttles} shuttles "
            f"({self.shuttles_removed} removed, "
            f"{self.total_rewrites} rewrites via "
            f"{', '.join(applied) if applied else 'no passes'})"
        )


class PassManager:
    """Applies a verified pipeline of schedule-optimization passes.

    Parameters
    ----------
    passes:
        Pass names (see :mod:`repro.passes.registry`), pass instances,
        or ``None`` for the default pipeline.
    fidelity_guard:
        Score each pass's output for program fidelity and roll the
        pass back when it regressed.  Piggybacks on the verification
        replay (a heating observer on the same kernel scan), so the
        guard costs no extra replay; recommended (and the compiler's
        default) since heat-redistributing rewrites are not
        universally profitable.
    params:
        Timing/noise parameters used by the fidelity guard.
    """

    def __init__(
        self,
        passes: object = None,
        fidelity_guard: bool = True,
        params: MachineParams = DEFAULT_PARAMS,
    ) -> None:
        self.passes: list[SchedulePass] = make_passes(passes)
        self.fidelity_guard = fidelity_guard
        self.params = params

    def run(
        self,
        schedule: Schedule,
        machine: QCCDMachine,
        initial_chains: dict[int, list[int]],
    ) -> OptimizationResult:
        """Optimize ``schedule``; never returns an unverified stream.

        When observability is enabled the run records an ``optimize``
        span with one child span per pass (splice verifications nest
        under the pass that triggered them), per-pass delta counters,
        and — with tracing on — one ``pass_candidate`` event per pass
        that produced rewrites.
        """
        obs = _obs_active()
        if obs is None:
            return self._run(schedule, machine, initial_chains, None)
        with obs.spans.span("optimize"):
            with obs.metrics.timer("phase.optimize_seconds"):
                return self._run(schedule, machine, initial_chains, obs)

    def _run(
        self,
        schedule: Schedule,
        machine: QCCDMachine,
        initial_chains: dict[int, list[int]],
        obs,
    ) -> OptimizationResult:
        # One verification replay of the input builds the incremental
        # engine: legality, final chains and (when the guard is on) the
        # log-fidelity of the input, plus the checkpoints every later
        # candidate scan restarts from.
        heat: HeatingObserver | None = None
        observers: tuple = ()
        if self.fidelity_guard:
            heat = HeatingObserver(machine.num_traps, self.params)
            observers = (heat,)
        try:
            engine = CheckpointedReplay(
                machine,
                schedule,  # replays on the schedule's own columns
                initial_chains,
                observers,
            )
        except MachineModelError as exc:
            raise VerificationError(str(exc)) from None
        final_chains = engine.final_chains
        current_log_fidelity = (
            heat.log_fidelity if heat is not None else None
        )
        reference = EquivalenceReference(schedule)
        ctx = PassContext(machine=machine, initial_chains=initial_chains)

        current = schedule
        stats: list[PassStats] = []

        for schedule_pass in self.passes:
            pass_span = (
                obs.spans.span(schedule_pass.name)
                if obs is not None
                else nullcontext()
            )
            with pass_span:
                candidate, rewrites = schedule_pass.run(current, ctx)
                if rewrites == 0:
                    stats.append(PassStats(schedule_pass.name, 0))
                    continue

                try:
                    start, end, replacement = _diff_splice(
                        engine.ops, candidate.ops
                    )
                    if heat is not None:
                        verdict = engine.replay_splice(
                            start, end, replacement
                        )
                        candidate_log_fidelity = heat.log_fidelity
                    else:
                        verdict = engine.verify_splice(
                            start, end, replacement
                        )
                        candidate_log_fidelity = None
                    if not verdict.ok:
                        raise VerificationError(verdict.error)
                    candidate_chains = verdict.final_chains
                    reference.verify(candidate)
                except Exception as exc:
                    raise PassError(
                        f"pass {schedule_pass.name!r} produced an invalid "
                        f"schedule: {exc}"
                    ) from exc

                reverted = False
                reason = "applied"
                if candidate.num_shuttles > current.num_shuttles:
                    # Defense in depth; see module docstring.
                    reverted = True
                    reason = "shuttles-increased"
                elif self.fidelity_guard:
                    if (
                        candidate_log_fidelity
                        < current_log_fidelity - _LOG_FIDELITY_TOLERANCE
                    ):
                        reverted = True
                        reason = "fidelity-regressed"
                    else:
                        current_log_fidelity = candidate_log_fidelity

                shuttles_removed = (
                    current.num_shuttles - candidate.num_shuttles
                )
                stats.append(
                    PassStats(
                        name=schedule_pass.name,
                        rewrites=rewrites,
                        shuttles_removed=shuttles_removed,
                        splits_removed=(
                            current.num_splits - candidate.num_splits
                        ),
                        merges_removed=(
                            current.num_merges - candidate.num_merges
                        ),
                        swaps_removed=(
                            current.num_swaps - candidate.num_swaps
                        ),
                        ops_removed=len(current) - len(candidate),
                        reverted=reverted,
                    )
                )
                if obs is not None:
                    name = schedule_pass.name
                    obs.metrics.inc(f"passes.{name}.rewrites", rewrites)
                    if reverted:
                        obs.metrics.inc(f"passes.{name}.reverted")
                    else:
                        obs.metrics.inc(
                            f"passes.{name}.shuttles_removed",
                            shuttles_removed,
                        )
                        obs.metrics.inc(
                            f"passes.{name}.ops_removed",
                            len(current) - len(candidate),
                        )
                    if obs.trace is not None:
                        obs.trace.emit(
                            "pass_candidate",
                            **{"pass": name},
                            rewrites=rewrites,
                            accepted=not reverted,
                            reason=reason,
                            shuttles_removed=shuttles_removed,
                        )
                if not reverted:
                    engine.commit(verdict)
                    current = candidate
                    final_chains = candidate_chains

        return OptimizationResult(
            schedule=current,
            raw_schedule=schedule,
            passes=tuple(stats),
            final_chains=final_chains,
        )


def optimize_schedule(
    schedule: Schedule,
    machine: QCCDMachine,
    initial_chains: dict[int, list[int]],
    passes: object = None,
    fidelity_guard: bool = True,
    params: MachineParams = DEFAULT_PARAMS,
) -> OptimizationResult:
    """One-shot convenience wrapper around :class:`PassManager`."""
    return PassManager(passes, fidelity_guard, params).run(
        schedule, machine, initial_chains
    )
