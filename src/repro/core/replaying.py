"""Kernel replay: apply a schedule op by op, notifying observers.

:func:`replay` is the one replay entry point under the simulator, the
schedule verifier, and the pass manager's verify-and-revert fast path.
A full legality check costs one linear scan; attaching observers folds
what used to be *additional* full replays (timing, heating/fidelity,
occupancy tracing) into the same scan.  The replay picks its own
kernel (:func:`_replay_windows`): the vectorized check-and-drain of
:mod:`repro.core.vector` when it applies, the scalar loop otherwise —
verdicts, error strings and observer floats are identical either way.

:class:`CheckpointedReplay` is the incremental layer on top: it
replays a schedule once, records state checkpoints every K ops
(K auto-tuned to √N), and can then verify any *rewritten* schedule
that shares a prefix/suffix with the original by restoring the nearest
checkpoint before the first divergent op and replaying only the
divergent window — the speculative-rewrite verification of the pass
pipeline drops from O(schedule) to O(window) per candidate.  See
DESIGN.md §7.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from collections.abc import Iterable, Sequence
from math import isqrt
from time import perf_counter

from ..arch.machine import QCCDMachine
from ..obs import active as _obs_active
from .errors import MachineModelError
from .state import MachineState
from .vector import (
    HAVE_NUMPY,
    CompiledStream,
    check_stream,
    compile_stream,
    drain_stream,
    split_observers,
)


def replay(
    machine: QCCDMachine,
    ops: Iterable,
    initial_chains: dict[int, list[int]],
    observers: tuple = (),
) -> MachineState:
    """Replay ``ops`` from ``initial_chains``; returns the final state.

    Raises :class:`~repro.core.errors.MachineModelError` on the first
    illegal op, with the offending stream position prefixed as
    ``"op {index}: ..."`` (initial-chain violations carry no prefix).
    A schedule that leaves ions in transit is also rejected.

    ``observers`` are notified *after* each op is applied; a rejected
    op reaches no observer, so observer state is always consistent
    with the machine state on error.
    """
    state = MachineState(machine, initial_chains)
    for _ in _replay_windows(state, ops, observers, None):
        pass
    state.require_settled()
    return state


def replay_into(
    state: MachineState, ops: Iterable, observers: tuple = ()
) -> MachineState:
    """Scalar replay of ``ops`` onto an existing state (no strandedness
    check)."""
    ops = _as_sequence(ops)
    _replay_window(state, ops, 0, len(ops), observers)
    return state


def _as_sequence(ops: Iterable) -> Sequence:
    """``ops`` as an indexable sequence (an iterator is drained once)."""
    if isinstance(ops, (list, tuple, CompiledStream)):
        return ops
    return list(ops)


def _replay_windows(
    state: MachineState,
    source: Iterable,
    observers: tuple,
    interval: int | None,
):
    """Replay ``source`` onto ``state`` in windows of ``interval`` ops
    (one window when ``None``), yielding each window's stop index.

    The one place the replay kernel is chosen.  With numpy and only
    exact :class:`ClockObserver`/:class:`HeatingObserver` observers,
    the stream's columns (a :class:`Schedule` source's own, a bare op
    list's encoded here) are proven legal as a whole by
    :func:`check_stream`; a proven stream
    is drained window by window.  Anything else — no numpy, other
    observers, swap-bearing or out-of-model streams, a real violation
    — runs the scalar loop, which raises the exact ``"op N: ..."``
    error.
    """
    drain = split_observers(observers) if HAVE_NUMPY else None
    if drain is None:
        stream = None
        ops = _as_sequence(source)
    else:
        stream = ops = compile_stream(source)
        if not check_stream(state, stream, 0, len(ops)):
            stream = None
    n = len(ops)
    step = interval or max(n, 1)
    for start in range(0, n, step):
        stop = min(start + step, n)
        if stream is None:
            _replay_window(state, ops, start, stop, observers)
        else:
            drain_stream(state, stream, start, stop, *drain)
        yield stop


def _replay_window(
    state: MachineState,
    ops: Sequence,
    start: int,
    stop: int,
    observers: tuple,
) -> None:
    """The scalar loop: apply + observe ``ops[start:stop]``, raising
    errors prefixed with the absolute stream position."""
    apply = state.apply
    window = enumerate(ops[start:stop], start)
    position = start - 1
    try:
        if not observers:
            for position, op in window:
                apply(op)
        elif len(observers) == 2:
            # The simulator's clock+heating pair is the common case;
            # unrolling skips an inner loop per op.
            first, second = observers
            first_observe, second_observe = first.observe, second.observe
            for position, op in window:
                apply(op)
                first_observe(position, op, state)
                second_observe(position, op, state)
        else:
            for position, op in window:
                apply(op)
                for observer in observers:
                    observer.observe(position, op, state)
    except MachineModelError as exc:
        raise MachineModelError(f"op {position}: {exc}") from None


class SpliceVerdict:
    """Outcome of one incremental splice verification.

    ``ok``/``error`` mirror what a fresh full replay of the rewritten
    stream would report (``error`` indices are positions in the
    *rewritten* stream, exactly as :func:`replay` would prefix them).
    ``rejoin`` is the base-stream index from which the suffix was
    proven identical and skipped (``None`` when the candidate was
    replayed to its end).  ``final_chains`` is only present on legal
    candidates.  The verdict carries everything :meth:`CheckpointedReplay.commit`
    needs to splice the edit in without another replay.
    """

    __slots__ = (
        "ok",
        "error",
        "start",
        "end",
        "replacement",
        "rejoin",
        "final_chains",
        "_fresh_checkpoints",
    )

    def __init__(
        self,
        ok: bool,
        start: int,
        end: int,
        replacement: Sequence,
        error: str | None = None,
        rejoin: int | None = None,
        final_chains: dict[int, list[int]] | None = None,
        fresh_checkpoints=None,
    ) -> None:
        self.ok = ok
        self.error = error
        self.start = start
        self.end = end
        self.replacement = replacement
        self.rejoin = rejoin
        self.final_chains = final_chains
        self._fresh_checkpoints = fresh_checkpoints

    def __bool__(self) -> bool:
        return self.ok

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        status = "ok" if self.ok else f"illegal ({self.error})"
        return (
            f"SpliceVerdict([{self.start}:{self.end}) -> "
            f"{len(self.replacement)} ops, {status}, rejoin={self.rejoin})"
        )


class CheckpointedReplay:
    """Incremental schedule verification via checkpointed replay.

    The engine replays ``ops`` once at construction (raising
    :class:`~repro.core.errors.MachineModelError` exactly as
    :func:`replay` would if the base stream is illegal), recording a
    :class:`~repro.core.state.Checkpoint` every ``interval`` ops —
    auto-tuned to √N, balancing restore cost against checkpoint count.

    A *candidate* rewrite is described as a splice
    ``(start, end, replacement)``: the rewritten stream is
    ``ops[:start] + replacement + ops[end:]``.  :meth:`verify_splice`
    computes the verdict a fresh full replay would reach, in
    O(window + √N) in the common case:

    * the prefix is skipped by restoring the nearest checkpoint at or
      before ``start`` and replaying only ``[checkpoint, start)``,
    * the replacement window is replayed op by op,
    * the suffix is skipped entirely when the machine state after the
      window *matches* the base state entering ``ops[end:]`` — replaying
      identical ops from identical state is deterministic, so legality
      and the final chains are inherited from the base replay.  When
      the states differ the suffix is replayed, but the scan still
      exits early as soon as the state re-converges with a stored
      checkpoint (falling back to a full scan only when it never does).

    Accepted rewrites are installed with :meth:`commit`, which splices
    the op list, re-indexes the still-valid checkpoints, and keeps the
    engine ready for the next candidate — so a verify-and-revert loop
    pays O(window) per candidate instead of O(schedule).

    With ``observers`` attached, checkpoints additionally carry
    observer snapshots and :meth:`replay_splice` re-scores a candidate
    on a single scan from the nearest checkpoint: the observers are
    ``resume()``-d to the checkpoint's exact floats and driven over the
    rewritten remainder, yielding aggregates bit-identical to a fresh
    full replay (same accumulation order, same prefix floats).  Suffix
    skipping does not apply there — observer totals depend on the whole
    stream — but prefix reuse alone converts the pass manager's
    fidelity guard from one full replay per pass to one tail scan.
    """

    __slots__ = (
        "machine",
        "initial_chains",
        "observers",
        "interval",
        "_ops",
        "_cp_indices",
        "_cp_data",
        "_scratch",
        "_probe",
        "_final_chains",
    )

    def __init__(
        self,
        machine: QCCDMachine,
        ops: Iterable,
        initial_chains: dict[int, list[int]],
        observers: tuple = (),
        interval: int | None = None,
    ) -> None:
        self.machine = machine
        self.initial_chains = {
            trap: list(chain) for trap, chain in initial_chains.items()
        }
        self.observers = tuple(observers)
        self._ops = list(ops)
        n = len(self._ops)
        if interval is None:
            interval = max(16, isqrt(n))
        self.interval = max(1, interval)

        # The construction replay is the engine's only O(N) scan; it
        # takes whichever kernel replay() would, one checkpoint
        # interval at a time.  Splice scans stay scalar: they are
        # O(window + √N) by design.  A stream source (a Schedule)
        # replays on its own columns: the pass pipeline re-verifies
        # the same schedule repeatedly, and nothing is re-encoded.
        state = MachineState(machine, initial_chains)
        self._scratch = state.fork()
        self._probe = state.fork()
        self._cp_indices: list[int] = [0]
        self._cp_data: list[tuple] = [
            (state.checkpoint(), self._observer_snapshots())
        ]
        source = ops if isinstance(ops, CompiledStream) else self._ops
        for stop in _replay_windows(
            state, source, self.observers, self.interval
        ):
            if stop < n:
                self._cp_indices.append(stop)
                self._cp_data.append(
                    (state.checkpoint(), self._observer_snapshots())
                )
        state.require_settled()
        self._final_chains = state.chains_dict()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def ops(self) -> list:
        """The current (base) op stream.  Treat as read-only: all edits
        must go through :meth:`commit` so checkpoints stay consistent."""
        return self._ops

    def __len__(self) -> int:
        return len(self._ops)

    @property
    def final_chains(self) -> dict[int, list[int]]:
        """Final per-trap chains of the current base stream (copy)."""
        return {t: list(c) for t, c in self._final_chains.items()}

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _observer_snapshots(self) -> tuple:
        return tuple(obs.snapshot() for obs in self.observers)

    def _restore_base(self, state: MachineState, index: int) -> None:
        """Set ``state`` to the base state after ``ops[:index]``,
        restoring the nearest checkpoint and replaying the gap.  Long
        gaps self-heal: fresh checkpoints are recorded every
        ``interval`` ops along the way (observer-free engines only —
        observer snapshots cannot be reconstructed without an observer
        replay, and observer-carrying engines never develop gaps: their
        commits install freshly recorded checkpoints)."""
        obs = _obs_active()
        if obs is not None:
            obs.metrics.inc("replay.checkpoint_restores")
        cp_pos = bisect_right(self._cp_indices, index) - 1
        cp_index = self._cp_indices[cp_pos]
        state.restore(self._cp_data[cp_pos][0])
        if cp_index == index:
            return
        ops = self._ops
        heal = not self.observers
        interval = self.interval
        apply = state.apply
        for position in range(cp_index, index):
            apply(ops[position])  # base stream: never raises
            here = position + 1
            if (
                heal
                and here < index
                and here % interval == 0
                and self._cp_indices[
                    bisect_right(self._cp_indices, here) - 1
                ]
                != here
            ):
                insort(self._cp_indices, here)
                self._cp_data.insert(
                    bisect_right(self._cp_indices, here) - 1,
                    (state.checkpoint(), ()),
                )

    # ------------------------------------------------------------------
    # Incremental verification
    # ------------------------------------------------------------------
    def verify_splice(
        self, start: int, end: int, replacement: Sequence
    ) -> SpliceVerdict:
        """Legality verdict for ``ops[:start] + replacement + ops[end:]``.

        The verdict (accept/reject, error message, final chains) is
        identical to a fresh :func:`replay` of the rewritten stream —
        proven property-test-wise against random splices — but costs
        O(window + √N) when the rewrite's effect stays local, and never
        more than one linear scan when it does not.
        """
        obs = _obs_active()
        if obs is None:
            return self._verify_splice(start, end, replacement)
        t_verify = perf_counter()
        verdict = self._verify_splice(start, end, replacement)
        obs.spans.add("verify-splice", perf_counter() - t_verify)
        self._observe_verdict(obs, verdict, scored=False)
        return verdict

    def _observe_verdict(
        self, obs, verdict: SpliceVerdict, scored: bool
    ) -> None:
        metrics = obs.metrics
        metrics.inc("replay.splice_verifies")
        metrics.observe(
            "replay.window_ops", len(verdict.replacement)
        )
        if scored:
            mode = "scored"
            metrics.inc("replay.scored_splices")
        elif verdict.rejoin == verdict.end:
            mode = "rejoin"
            metrics.inc("replay.suffix_rejoins")
        elif verdict.rejoin is not None:
            mode = "reconverged"
            metrics.inc("replay.suffix_rejoins")
        else:
            mode = "replayed"
            metrics.inc("replay.suffix_replays")
        if obs.trace is not None:
            obs.trace.emit(
                "splice_verify",
                start=verdict.start,
                end=verdict.end,
                window=len(verdict.replacement),
                ok=verdict.ok,
                mode=mode,
                rejoin=verdict.rejoin,
            )

    def _verify_splice(
        self, start: int, end: int, replacement: Sequence
    ) -> SpliceVerdict:
        ops = self._ops
        n = len(ops)
        if not 0 <= start <= end <= n:
            raise ValueError(f"splice [{start}:{end}) out of range 0..{n}")
        delta = len(replacement) - (end - start)

        scratch = self._scratch
        self._restore_base(scratch, start)
        position = start - 1
        try:
            for position, op in enumerate(replacement, start):
                scratch.apply(op)
        except MachineModelError as exc:
            return SpliceVerdict(
                False, start, end, replacement,
                error=f"op {position}: {exc}",
            )

        if end == n:
            return self._finish_at_end(start, end, replacement, scratch)

        # Rejoin probe: does the window leave the machine exactly where
        # the base stream was when it entered ops[end:]?
        self._restore_base(self._probe, end)
        if scratch.matches(self._probe):
            return SpliceVerdict(
                True, start, end, replacement,
                rejoin=end, final_chains=self.final_chains,
            )

        # Divergent suffix: replay it, exiting early the moment the
        # state re-converges with a stored base checkpoint.
        cp_indices = self._cp_indices
        cp_data = self._cp_data
        cp_pos = bisect_right(cp_indices, end)
        next_cp = cp_indices[cp_pos] if cp_pos < len(cp_indices) else -1
        apply = scratch.apply
        position = end - 1
        try:
            for position in range(end, n):
                if position == next_cp:
                    if scratch.matches(cp_data[cp_pos][0]):
                        return SpliceVerdict(
                            True, start, end, replacement,
                            rejoin=position,
                            final_chains=self.final_chains,
                        )
                    cp_pos += 1
                    next_cp = (
                        cp_indices[cp_pos]
                        if cp_pos < len(cp_indices)
                        else -1
                    )
                apply(ops[position])
        except MachineModelError as exc:
            return SpliceVerdict(
                False, start, end, replacement,
                error=f"op {position + delta}: {exc}",
            )
        return self._finish_at_end(start, end, replacement, scratch)

    def _finish_at_end(
        self, start: int, end: int, replacement: Sequence,
        scratch: MachineState,
    ) -> SpliceVerdict:
        """Settledness check + verdict for a candidate replayed to its
        final op."""
        try:
            scratch.require_settled()
        except MachineModelError as exc:
            return SpliceVerdict(
                False, start, end, replacement, error=str(exc)
            )
        return SpliceVerdict(
            True, start, end, replacement,
            final_chains=scratch.chains_dict(),
        )

    def replay_splice(
        self, start: int, end: int, replacement: Sequence
    ) -> SpliceVerdict:
        """Observer-scoring scan of the rewritten stream.

        Restores the nearest checkpoint (machine state *and* observer
        snapshots) at or before ``start`` and replays the rewritten
        remainder with the engine's observers attached; afterwards each
        observer holds aggregates bit-identical to a fresh full replay
        of the candidate.  Fresh checkpoints are recorded along the
        scan and travel with the verdict, so :meth:`commit` can install
        an accepted candidate without replaying anything again.
        """
        obs = _obs_active()
        if obs is None:
            return self._replay_splice(start, end, replacement)
        t_replay = perf_counter()
        verdict = self._replay_splice(start, end, replacement)
        obs.spans.add("replay-splice", perf_counter() - t_replay)
        self._observe_verdict(obs, verdict, scored=True)
        return verdict

    def _replay_splice(
        self, start: int, end: int, replacement: Sequence
    ) -> SpliceVerdict:
        ops = self._ops
        n = len(ops)
        if not 0 <= start <= end <= n:
            raise ValueError(f"splice [{start}:{end}) out of range 0..{n}")
        delta = len(replacement) - (end - start)

        cp_pos = bisect_right(self._cp_indices, start) - 1
        cp_index = self._cp_indices[cp_pos]
        checkpoint, snapshots = self._cp_data[cp_pos]
        scratch = self._scratch
        scratch.restore(checkpoint)
        observers = self.observers
        for observer, snapshot in zip(observers, snapshots):
            observer.resume(snapshot)

        interval = self.interval
        fresh: list[tuple[int, tuple]] = []
        candidate_length = n + delta
        apply = scratch.apply

        def segments():
            # (candidate index, op) across prefix gap, window, suffix.
            for position in range(cp_index, start):
                yield position, ops[position]
            for offset, op in enumerate(replacement):
                yield start + offset, op
            for position in range(end, n):
                yield position + delta, ops[position]

        last_cp = cp_index
        position = cp_index - 1
        try:
            for position, op in segments():
                apply(op)
                for observer in observers:
                    observer.observe(position, op, scratch)
                here = position + 1
                if (
                    here - last_cp >= interval
                    and here > start
                    and here < candidate_length
                ):
                    fresh.append(
                        (here, (scratch.checkpoint(),
                                self._observer_snapshots()))
                    )
                    last_cp = here
        except MachineModelError as exc:
            return SpliceVerdict(
                False, start, end, replacement,
                error=f"op {position}: {exc}",
            )
        try:
            scratch.require_settled()
        except MachineModelError as exc:
            return SpliceVerdict(
                False, start, end, replacement, error=str(exc)
            )
        return SpliceVerdict(
            True, start, end, replacement,
            final_chains=scratch.chains_dict(),
            fresh_checkpoints=fresh,
        )

    # ------------------------------------------------------------------
    # Committing accepted rewrites
    # ------------------------------------------------------------------
    def commit(self, verdict: SpliceVerdict) -> None:
        """Install an accepted splice: the op list is edited in place
        and checkpoints are re-indexed — still-valid ones are kept
        (prefix checkpoints verbatim; post-rejoin checkpoints shifted,
        since the suffix states were proven identical), invalidated
        ones dropped and later self-healed on demand."""
        if not verdict.ok:
            raise ValueError(f"cannot commit a rejected splice: {verdict!r}")
        start, end = verdict.start, verdict.end
        replacement = list(verdict.replacement)
        delta = len(replacement) - (end - start)
        self._ops[start:end] = replacement

        keep = bisect_right(self._cp_indices, start)
        indices = self._cp_indices[:keep]
        data = self._cp_data[:keep]
        if verdict._fresh_checkpoints is not None:
            for index, payload in verdict._fresh_checkpoints:
                if index > start:
                    indices.append(index)
                    data.append(payload)
        elif verdict.rejoin is not None and not self.observers:
            shift_from = bisect_right(self._cp_indices, verdict.rejoin - 1)
            for pos in range(shift_from, len(self._cp_indices)):
                shifted = self._cp_indices[pos] + delta
                if shifted > start:
                    indices.append(shifted)
                    data.append(self._cp_data[pos])
        self._cp_indices = indices
        self._cp_data = data

        if verdict.rejoin is None:
            self._final_chains = {
                t: list(c) for t, c in verdict.final_chains.items()
            }
