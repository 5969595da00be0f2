"""The tighten-gates dominance prefilter against a prefilter-free oracle.

:func:`reference_evaluate` is ``GateHoisting._evaluate`` as it was
before the clock-dominance prefilter, frozen verbatim as the test
oracle: every candidate is scored by a clock scan from the nearest
checkpoint, abandoned only on re-convergence or the makespan bound.
The shipped ``_evaluate`` must reach the same accept/reject decision on
every candidate and, for accepted ones, the same makespan float and
checkpoint snapshots.  A pruned candidate must also use up the
``max_evaluations`` budget exactly like a scored one.
"""

from bisect import bisect_right

import pytest
from golden_util import schedule_digest
from test_pass_pins import HOIST_MACHINES, random_compiled

from repro import obs
from repro.arch.presets import l6_machine
from repro.bench import nisq_suite
from repro.compiler import CompilerConfig, compile_circuit
from repro.core.observers import ClockObserver
from repro.passes import GateHoisting, PassContext


def reference_evaluate(
    clock, plain, target, position, cp_indices, cp_clocks, makespan
):
    """Prefilter-free candidate scoring: (accepted, makespan, snapshots)."""
    cp_pos = bisect_right(cp_indices, target) - 1
    clock.resume(cp_clocks[cp_pos])
    if cp_indices[cp_pos] < target:
        clock.drive(plain[cp_indices[cp_pos] : target])
    clock.drive((plain[position],))
    clock.drive(plain[target:position])

    clocks = clock.clocks
    bound = makespan - 1e-15
    cand_cps = []
    scan = position + 1
    for k in range(bisect_right(cp_indices, position), len(cp_indices)):
        stop = cp_indices[k]
        clock.drive(plain[scan:stop])
        scan = stop
        snapshot = tuple(clocks)
        if snapshot == cp_clocks[k] or max(clocks) >= bound:
            return False, makespan, cand_cps
        cand_cps.append((stop, snapshot))
    clock.drive(plain[scan:])
    cand_makespan = clock.makespan
    return cand_makespan < bound, cand_makespan, cand_cps


class OracleHoisting(GateHoisting):
    """GateHoisting scored by the oracle alone (no prefilter)."""

    def _evaluate(self, clock, *args):
        return reference_evaluate(clock, *args)


class CheckedHoisting(GateHoisting):
    """GateHoisting that scores every candidate twice, shipped and
    oracle, and records both verdicts."""

    def __init__(self):
        self.decisions = []

    def _evaluate(self, clock, *args):
        oracle_clock = ClockObserver(len(clock.clocks), clock.timing)
        expected = reference_evaluate(oracle_clock, *args)
        verdict = super()._evaluate(clock, *args)
        self.decisions.append((expected, verdict))
        return verdict


def _sources():
    """Seeded (label, schedule, machine, chains) over linear, ring, grid
    and star machines, plus one paper circuit on L6."""
    for name in HOIST_MACHINES:
        for seed in range(3):
            for config in ("baseline", "optimized"):
                yield (f"{name}-s{seed}-{config}",) + random_compiled(
                    name, seed, config
                )
    machine = l6_machine()
    circuit = nisq_suite()[0]
    result = compile_circuit(circuit, machine, CompilerConfig.optimized())
    yield (
        f"L6-{circuit.name}",
        result.schedule,
        machine,
        result.initial_chains,
    )


SOURCES = list(_sources())


def _ctx(machine, chains):
    return PassContext(machine=machine, initial_chains=chains)


@pytest.mark.parametrize(
    "label, schedule, machine, chains",
    SOURCES,
    ids=[source[0] for source in SOURCES],
)
def test_every_decision_matches_the_oracle(label, schedule, machine, chains):
    hoisting = CheckedHoisting()
    out, rewrites = hoisting.run(schedule, _ctx(machine, chains))
    assert hoisting.decisions, label
    for expected, verdict in hoisting.decisions:
        if verdict is None:  # pruned: the oracle must reject it too
            assert expected[0] is False
            continue
        assert verdict[0] == expected[0]
        if expected[0]:
            assert verdict[1] == expected[1]  # exact float
            assert verdict[2] == expected[2]
    oracle_out, oracle_rewrites = OracleHoisting().run(
        schedule, _ctx(machine, chains)
    )
    assert rewrites == oracle_rewrites
    assert schedule_digest(out) == schedule_digest(oracle_out)


def test_prefilter_prunes_and_accepts_across_the_sources():
    pruned = accepted = 0
    for _, schedule, machine, chains in SOURCES:
        hoisting = CheckedHoisting()
        hoisting.run(schedule, _ctx(machine, chains))
        pruned += sum(v is None for _, v in hoisting.decisions)
        accepted += sum(e[0] for e, _ in hoisting.decisions)
    assert pruned > 0
    assert accepted > 0


def _budget_run(hoisting_cls, schedule, machine, chains, budget):
    hoisting = hoisting_cls()
    hoisting.max_evaluations = budget
    out, rewrites = hoisting.run(schedule, _ctx(machine, chains))
    return schedule_digest(out), rewrites, hoisting


def test_pruned_candidate_exhausts_the_budget():
    """The last candidate the budget admits is pruned, and a candidate
    beyond it would be accepted: had the pruned one not counted, the
    output would differ from the oracle's."""
    schedule, machine, chains = random_compiled("ring6c6", 2, "baseline")
    budget = 4
    digest, rewrites, hoisting = _budget_run(
        CheckedHoisting, schedule, machine, chains, budget
    )
    assert len(hoisting.decisions) == budget
    assert hoisting.decisions[-1][1] is None  # the budget's last: pruned
    oracle_digest, oracle_rewrites, _ = _budget_run(
        OracleHoisting, schedule, machine, chains, budget
    )
    assert (digest, rewrites) == (oracle_digest, oracle_rewrites)
    # One more candidate changes the outcome, so the count is load-bearing.
    assert _budget_run(
        GateHoisting, schedule, machine, chains, budget + 1
    )[:2] != (digest, rewrites)


def test_prefilter_counters_with_telemetry_on():
    _, schedule, machine, chains = SOURCES[-1]
    hoisting = CheckedHoisting()
    with obs.observe() as observation:
        hoisting.run(schedule, _ctx(machine, chains))
    counters = observation.metrics.counters
    assert counters["passes.tighten-gates.evaluations"] == len(
        hoisting.decisions
    )
    assert counters["passes.tighten-gates.pruned"] == sum(
        verdict is None for _, verdict in hoisting.decisions
    )


def test_telemetry_leaves_the_output_unchanged():
    _, schedule, machine, chains = SOURCES[-1]
    assert obs.active() is None
    off = GateHoisting().run(schedule, _ctx(machine, chains))
    with obs.observe():
        on = GateHoisting().run(schedule, _ctx(machine, chains))
    assert off[1] == on[1]
    assert schedule_digest(off[0]) == schedule_digest(on[0])
