"""The QCCD compiler main loop.

Gates execute in earliest-ready-gate-first order (Section III-B keeps
the baseline order of [7]).  For every two-qubit gate whose ions sit in
different traps the compiler:

1. asks the configured *shuttle direction policy* which ion to move
   (Section III-A);
2. if the favourable destination trap is full, the favourable direction
   is "not achievable" (Section III-B):

   a. with re-ordering enabled, an Algorithm-1 candidate gate is hoisted
      in front of the active gate to free the destination, and the
      hoisted gate becomes the new active gate;
   b. otherwise the direction *flips* — the other ion moves into the
      other trap — when that trap has room;
   c. when both traps are full, one ion is evicted from the favourable
      destination via the re-balancing logic;

3. routes the moving ion hop by hop, resolving traffic blocks on
   *intermediate* traps via the configured re-balancing logic
   (Section III-C / Fig. 7), and
4. emits the gate in the destination trap.

Single-qubit gates execute wherever their ion currently resides.  The
compiler is deterministic: every tie-break is defined.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import nullcontext

from ..arch.machine import QCCDMachine
from ..circuits.circuit import Circuit
from ..circuits.dag import DependencyDAG
from ..core.errors import CompilationError, MachineModelError
from ..core.ops import GateOp, MachineOp, ShuttleReason
from ..core.params import DEFAULT_PARAMS, MachineParams
from ..core.state import MachineState
from ..obs import active as _obs_active
from ..sim.schedule import Schedule
from .config import CompilerConfig
from .future_index import FutureGateIndex
from .mapping import greedy_initial_mapping
from .policies import ShuttleDecision, make_policy
from .reorder import find_reorder_candidate
from .result import CompilationResult
from .routing import Router


class QCCDCompiler:
    """Shuttle-aware compiler for multi-trap trapped-ion machines.

    Parameters
    ----------
    machine:
        Target machine model.
    config:
        Heuristic configuration; defaults to the paper's optimized
        compiler.  Use :meth:`CompilerConfig.baseline` for [7].

    Direction decisions, eviction scoring and re-order candidate search
    run against the per-ion
    :class:`~repro.compiler.future_index.FutureGateIndex`: O(window)
    per decision instead of a rescan of the pending tail.
    """

    def __init__(
        self,
        machine: QCCDMachine,
        config: CompilerConfig | None = None,
    ) -> None:
        self.machine = machine
        self.config = config if config is not None else CompilerConfig.optimized()
        self._policy = make_policy(
            self.config.shuttle_policy,
            self.config.proximity,
            self.config.tie_break,
            self.config.proximity_metric,
            self.config.capacity_guard,
            self.config.score_decay,
        )
        #: The last compile's index (introspection: tests and
        #: profiling read its memo/scan counters).  None before the
        #: first compile.
        self._last_future_index: FutureGateIndex | None = None
        #: The favoured direction feeds only Algorithm 1, the cheap
        #: eviction and the trace.  With the first two off, a policy
        #: with no scores to memoize (the [7] baseline, whose favoured
        #: direction *is* its decision) need not be asked for it.
        self._skip_favoured = not (
            self.config.reorder
            or self.config.cheap_evict
            or hasattr(self._policy, "move_scores")
        )

    def _score_margin(self, gate, state, upcoming, active_layer) -> int:
        """Margin between the two move scores of the active gate.

        Used to gate the cheap-eviction fallback: evicting an ion out of
        the full favourable destination costs one shuttle, so it is only
        taken when the favourable direction is worth strictly more than
        one future gate over the alternative.  Returns a large margin
        for the baseline policy (which has no scores), effectively
        leaving the decision to the ``cheap_evict`` flag alone.

        This rides the same per-(gate, mapping-epoch) memo as
        ``favoured`` and ``decide``: the margin check costs a dict
        lookup, not a rescan.
        """
        if not hasattr(self._policy, "move_scores"):
            return 0
        ion_a, ion_b = gate.qubits
        scores = self._policy.move_scores(
            ion_a, ion_b, state, upcoming, active_layer
        )
        return abs(scores.a_to_b - scores.b_to_a)

    def _trace_consideration(
        self, obs, gate, state, upcoming, layer, pos, favoured
    ) -> None:
        """Emit the ``gate_considered`` (+ ``move_scores``) events for a
        cross-trap two-qubit gate.  Trace-only path: the extra
        ``move_scores`` call rides the index memo populated by the
        ``favoured`` call just made, so it costs a dict lookup."""
        ion_a, ion_b = gate.qubits
        trap_a, trap_b = state.trap_of(ion_a), state.trap_of(ion_b)
        obs.trace.emit(
            "gate_considered",
            gate=_gate_label(gate),
            qubits=[ion_a, ion_b],
            traps=[trap_a, trap_b],
            pos=pos,
            layer=layer,
        )
        if hasattr(self._policy, "move_scores"):
            scores = self._policy.move_scores(
                ion_a, ion_b, state, upcoming, layer
            )
            obs.trace.emit(
                "move_scores",
                gate=_gate_label(gate),
                score_a_to_b=scores.a_to_b,
                score_b_to_a=scores.b_to_a,
                favoured_dst=favoured.dst,
            )

    def compile(
        self,
        circuit: Circuit,
        initial_chains: dict[int, list[int]] | None = None,
    ) -> CompilationResult:
        """Compile a circuit to a machine schedule.

        ``initial_chains`` overrides the greedy initial mapping — useful
        for controlled experiments where both compilers must start from
        the identical placement (as the paper's comparison does).

        When observability is enabled (:mod:`repro.obs`), the compile
        additionally records a ``compile`` phase-span subtree, decision
        counters, and — with tracing on — per-decision events.  The
        instrumentation only reads compiler state: the emitted schedule
        is bit-identical with observability off and on.

        A machine rule the emission runs into — an overfull, duplicate
        or unmapped placement — raises :class:`CompilationError`; the
        optimize passes keep their own error types.
        """
        obs = _obs_active()
        if obs is None:
            return self._compile(circuit, initial_chains, None)
        with obs.spans.span("compile"):
            return self._compile(circuit, initial_chains, obs)

    def _emit(
        self,
        future: FutureGateIndex,
        initial_chains: dict[int, list[int]],
        obs,
        start_time: float,
    ) -> tuple[MachineState, Schedule, list[int], int, int]:
        """Schedule every gate of ``future``'s pending tail from the
        ``initial_chains`` placement, emitting gate and shuttle ops.

        Returns the final machine state, the raw schedule, the executed
        gate order and the re-order and re-balance counts.
        """
        dag = future.dag
        pending = future.pending
        state = MachineState(self.machine, initial_chains)
        # Ops are emitted into a plain list and encoded in one pass
        # when the schedule is built from it at the end.
        ops: list[MachineOp] = []

        gate_order: list[int] = []
        reorder_attempts: dict[int, int] = defaultdict(int)
        num_reorders = 0
        pos = 0

        self._last_future_index = future
        if obs is not None:
            obs.spans.add("setup", time.perf_counter() - start_time)

        def decision_window():
            """The upcoming-gate view for decisions about the active
            gate: the tail after ``pos``.  The active gate is two-qubit
            here, hence the ``+ 1`` on the executed two-qubit count."""
            return future.view(pos + 1, future.executed_2q + 1)

        router = Router(
            state,
            ops,
            self.config,
            upcoming_factory=decision_window,
        )

        loop_span = (
            obs.spans.span("schedule-gates")
            if obs is not None
            else nullcontext()
        )
        perf = time.perf_counter
        emit = ops.append
        gate_at = dag.gate
        skip_favoured = self._skip_favoured
        # Placements are read straight off the state's ion -> trap
        # list.  Gate qubits are never negative, so an IndexError or a
        # negative entry is exactly where ``trap_of`` raises, and the
        # fallbacks below ask it to raise there.
        lookup = state._trap_of
        with loop_span:
            while pos < len(pending):
                index = pending[pos]
                gate = gate_at(index)
                qubits = gate.qubits
                ion_a = qubits[0]
                try:
                    trap_a = lookup[ion_a]
                except IndexError:
                    trap_a = -1

                if len(qubits) == 1:
                    if trap_a < 0:
                        trap_a = state.trap_of(ion_a)
                    emit(GateOp(gate=gate, trap=trap_a))
                    gate_order.append(index)
                    future.mark_executed(index, False)
                    pos += 1
                    continue

                ion_b = qubits[1]
                try:
                    trap_b = lookup[ion_b]
                except IndexError:
                    trap_b = -1
                if trap_a < 0 or trap_b < 0:
                    state.co_located(ion_a, ion_b)  # raises
                if trap_a == trap_b:
                    emit(GateOp(gate=gate, trap=trap_a))
                    gate_order.append(index)
                    future.mark_executed(index, True)
                    pos += 1
                    continue

                pinned = frozenset((ion_a, ion_b))
                future.num_decision_points += 1
                if obs is None and skip_favoured:
                    favoured = None
                else:
                    if obs is not None:
                        t_decide = perf()
                    favoured = self._policy.favoured(
                        gate, state, decision_window(), dag.layer_of(index)
                    )
                    if obs is not None:
                        obs.spans.add("decide", perf() - t_decide)
                        if obs.trace is not None:
                            self._trace_consideration(
                                obs, gate, state, decision_window(),
                                dag.layer_of(index), pos, favoured,
                            )

                if favoured is not None and state.is_full(favoured.dst):
                    # Favourable direction not achievable (Section
                    # III-B): try Algorithm 1 before settling for
                    # another direction.
                    if (
                        self.config.reorder
                        and reorder_attempts[index]
                        < self.config.max_reorder_attempts
                    ):
                        if obs is not None:
                            t_reorder = perf()
                        candidate_pos = find_reorder_candidate(
                            pending,
                            pos,
                            dag,
                            state,
                            decide=lambda g, upcoming, layer: (
                                self._policy.favoured(
                                    g, state, upcoming, layer
                                )
                            ),
                            old_destination=favoured.dst,
                            future=future,
                        )
                        if obs is not None:
                            obs.spans.add("reorder", perf() - t_reorder)
                        if candidate_pos is not None:
                            if obs is not None and obs.trace is not None:
                                candidate_gate = dag.gate(
                                    pending[candidate_pos]
                                )
                                obs.trace.emit(
                                    "reorder_splice",
                                    active_gate=_gate_label(gate),
                                    candidate_gate=_gate_label(
                                        candidate_gate
                                    ),
                                    active_pos=pos,
                                    candidate_pos=candidate_pos,
                                )
                            future.splice(pos, candidate_pos)
                            candidate = pending.pop(candidate_pos)
                            pending.insert(pos, candidate)
                            reorder_attempts[index] += 1
                            num_reorders += 1
                            continue  # the hoisted gate becomes active
                    if self.config.cheap_evict:
                        if obs is not None:
                            t_decide = perf()
                        score_margin = self._score_margin(
                            gate, state, decision_window(), dag.layer_of(index)
                        )
                        if obs is not None:
                            obs.spans.add("decide", perf() - t_decide)
                        if score_margin > 1 and router.cheap_evict(
                            favoured.dst, pinned
                        ):
                            # Favourable destination freed with one
                            # shuttle; fall through to the guarded
                            # decision below.
                            pass

                if obs is not None:
                    t_decide = perf()
                decision = self._policy.decide(
                    gate, state, decision_window(), dag.layer_of(index)
                )
                if obs is not None:
                    obs.spans.add("decide", perf() - t_decide)
                flipped = False
                if state.is_full(decision.dst):
                    flip = ShuttleDecision(
                        ion=ion_b if decision.ion == ion_a else ion_a,
                        src=decision.dst,
                        dst=decision.src,
                    )
                    if not state.is_full(flip.dst):
                        decision = flip
                        flipped = True
                    else:
                        # Both traps full: evict one ion from the chosen
                        # destination so the gate can proceed.
                        router.evict_one(decision.dst, pinned)
                if obs is not None and obs.trace is not None:
                    obs.trace.emit(
                        "shuttle_decision",
                        gate=_gate_label(gate),
                        ion=decision.ion,
                        src=decision.src,
                        dst=decision.dst,
                        flipped=flipped,
                    )

                router.route(
                    decision.ion, decision.dst, ShuttleReason.GATE, pinned
                )
                emit(GateOp(gate=gate, trap=decision.dst))
                gate_order.append(index)
                future.mark_executed(index, True)
                pos += 1
        return state, Schedule(ops), gate_order, num_reorders, router.num_rebalances

    def _compile(
        self,
        circuit: Circuit,
        initial_chains: dict[int, list[int]] | None,
        obs,
    ) -> CompilationResult:
        start_time = time.perf_counter()
        future = _compile_plan(circuit).fork()
        if initial_chains is None:
            initial_chains = greedy_initial_mapping(circuit, self.machine)
        try:
            state, schedule, gate_order, num_reorders, num_rebalances = (
                self._emit(future, initial_chains, obs, start_time)
            )
        except CompilationError:
            raise
        except MachineModelError as exc:
            # The emission boundary: the kernel state reports a broken
            # placement rule under its own type; the compiler's callers
            # catch CompilationError.
            raise CompilationError(str(exc)) from None

        pass_stats: tuple = ()
        raw_num_shuttles = raw_num_ops = None
        final_chains = state.chains_dict()
        if self.config.post_passes:
            # Post-compilation optimization (repro.passes): rewrite the
            # emitted stream, verifying legality + circuit equivalence
            # per pass and rolling back fidelity regressions.
            from ..passes.manager import PassManager

            optimization = PassManager(self.config.post_passes).run(
                schedule,
                self.machine,
                {t: list(c) for t, c in initial_chains.items()},
            )
            raw_num_shuttles = optimization.raw_num_shuttles
            raw_num_ops = len(optimization.raw_schedule)
            pass_stats = optimization.passes
            if optimization.schedule is not schedule:
                gate_order = _remap_gate_order(
                    gate_order, schedule, optimization.schedule
                )
            schedule = optimization.schedule
            if optimization.final_chains is not None:
                final_chains = {
                    t: list(c)
                    for t, c in optimization.final_chains.items()
                }

        compile_time = time.perf_counter() - start_time
        if obs is not None:
            metrics = obs.metrics
            metrics.inc("compile.circuits")
            metrics.inc("compile.gates", schedule.num_gates)
            metrics.inc("compile.shuttles", schedule.num_shuttles)
            metrics.inc("compile.ops", len(schedule))
            metrics.inc("compile.reorders", num_reorders)
            metrics.inc("compile.rebalances", num_rebalances)
            metrics.inc("compile.mapping_epochs", state.epoch)
            metrics.inc(
                "compile.index.decision_points", future.num_decision_points
            )
            metrics.inc("compile.index.score_passes", future.num_score_passes)
            metrics.inc("compile.index.memo_hits", future.num_memo_hits)
            metrics.observe("phase.compile_seconds", compile_time)
        return CompilationResult(
            circuit_name=circuit.name,
            config_name=self.config.name,
            schedule=schedule,
            initial_chains={t: list(c) for t, c in initial_chains.items()},
            final_chains=final_chains,
            gate_order=gate_order,
            num_reorders=num_reorders,
            num_rebalances=num_rebalances,
            compile_time=compile_time,
            pass_stats=pass_stats,
            raw_num_shuttles=raw_num_shuttles,
            raw_num_ops=raw_num_ops,
        )


def _compile_plan(circuit: Circuit) -> FutureGateIndex:
    """The circuit's unadvanced future-gate index, which holds its
    dependency DAG and topological order too.

    Built on the circuit's first compile and memoized on it
    (``Circuit._compile_plan``, reset by ``append``), so the paired
    baseline and this-work compiles of one circuit build it once.
    Each compile works on a :meth:`~FutureGateIndex.fork`, never on the
    memo itself.
    """
    plan = getattr(circuit, "_compile_plan", None)
    if plan is None:
        for gate in circuit:
            if gate.num_qubits > 2:
                raise CompilationError(
                    f"gate {gate} has {gate.num_qubits} qubits; decompose "
                    "to one- and two-qubit gates first "
                    "(repro.circuits.decompose_circuit)"
                )
        dag = DependencyDAG(circuit)
        plan = FutureGateIndex(
            dag, dag.topological_order(), circuit.num_qubits
        )
        circuit._compile_plan = plan
    return plan


def _gate_label(gate) -> str:
    """Compact ``name(q0,q1)`` form for trace-event payloads."""
    return f"{gate.name}({','.join(map(str, gate.qubits))})"


def _remap_gate_order(
    gate_order: list[int], raw: Schedule, optimized: Schedule
) -> list[int]:
    """Re-derive original-circuit gate indices for an optimized stream.

    Pass rewrites may reorder independent gates, so the emission-time
    ``gate_order`` no longer lines up with the shipped schedule's gate
    ops.  Identical gates are interchangeable, so matching each
    optimized gate to the earliest unconsumed raw occurrence of the
    same gate yields a consistent order.
    """
    from collections import defaultdict, deque

    available: dict = defaultdict(deque)
    for index, op in zip(gate_order, raw.gate_ops()):
        available[op.gate].append(index)
    return [available[op.gate].popleft() for op in optimized.gate_ops()]


def compile_circuit(
    circuit: Circuit,
    machine: QCCDMachine,
    config: CompilerConfig | None = None,
    initial_chains: dict[int, list[int]] | None = None,
) -> CompilationResult:
    """One-shot convenience wrapper around :class:`QCCDCompiler`."""
    return QCCDCompiler(machine, config).compile(circuit, initial_chains)


def compile_and_simulate(
    circuit: Circuit,
    machine: QCCDMachine,
    config: CompilerConfig | None = None,
    params: MachineParams = DEFAULT_PARAMS,
    initial_chains: dict[int, list[int]] | None = None,
):
    """Compile then simulate; returns (CompilationResult, SimulationReport)."""
    from ..sim.simulator import Simulator

    result = compile_circuit(circuit, machine, config, initial_chains)
    report = Simulator(machine, params).run(result.schedule, result.initial_chains)
    return result, report
