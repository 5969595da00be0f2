"""Pinned pass outputs beyond L6: optimized schedules must never drift.

The golden fixture runs the default pipeline only on L6, where
``reroute`` never fires and ``fuse-merge-split`` deletes no round
trip.  This table pins the exact optimized op stream
(``golden_util.schedule_digest``), every
:class:`~repro.passes.manager.PassStats` and the final chains for:

* seeded random circuits on ring, grid, star and linear machines;
* every case of the ``corpus_util`` corpus whose default pipeline
  deletes a gate-free round trip;
* hand-built schedules on which each pass rewrites.

It also pins :class:`~repro.passes.tighten.GateHoisting` run alone
under small ``max_evaluations`` budgets, where the budget decides
which candidates are ever scored.

A speed-up of any pass must reproduce every row byte for byte.
Re-record (only for an intended change of pass behaviour) with::

    PYTHONPATH=src:tests python tests/test_pass_pins.py
"""

import hashlib
import random
from dataclasses import astuple

import pytest
from corpus_util import (
    CORPUS_CONFIGS,
    MACHINES,
    corpus_circuit,
    star_topology,
)
from golden_util import schedule_digest

from repro.arch import (
    grid_topology,
    linear_topology,
    ring_topology,
    uniform_machine,
)
from repro.circuits.circuit import Circuit
from repro.circuits.gate import Gate
from repro.compiler import CompilerConfig, compile_circuit
from repro.core.ops import GateOp, MergeOp, MoveOp, SplitOp
from repro.passes import GateHoisting, PassContext, PassManager
from repro.sim.schedule import Schedule

CONFIGS = {
    "baseline": CompilerConfig.baseline,
    "optimized": CompilerConfig.optimized,
}

SEEDS = (0, 1)

#: Roomier machines for the tighten-gates budget rows: longer circuits
#: with more single-qubit gates give the hoister candidates to score.
HOIST_MACHINES = {
    "linear4c8": lambda: uniform_machine(linear_topology(4), 8, 2),
    "linear6c6": lambda: uniform_machine(linear_topology(6), 6, 2),
    "ring6c6": lambda: uniform_machine(ring_topology(6), 6, 2),
    "grid2x3c6": lambda: uniform_machine(grid_topology(2, 3), 6, 2),
    "star5c6": lambda: uniform_machine(star_topology(5), 6, 2),
}


def random_compiled(machine_name: str, seed: int, config: str):
    """A seeded random circuit sized to the machine, compiled onto it."""
    if machine_name in MACHINES:
        machine = MACHINES[machine_name]()
        min_qubits, gates, h_share = 10, 60, 0.2
    else:
        machine = HOIST_MACHINES[machine_name]()
        min_qubits, gates, h_share = 16, 150, 0.3
    rng = random.Random(f"{machine_name}-{seed}")
    num_qubits = min(machine.load_capacity, min_qubits + rng.randrange(6))
    circuit = Circuit(num_qubits, name=f"pin-{seed}")
    for _ in range(gates):
        if rng.random() < h_share:
            circuit.add("h", rng.randrange(num_qubits))
        else:
            a, b = rng.sample(range(num_qubits), 2)
            circuit.add("ms", a, b)
    result = compile_circuit(circuit, machine, CONFIGS[config]())
    return result.schedule, machine, result.initial_chains


def trip(ion, path, gate_after=None):
    """Ops for one excursion along ``path`` (list of traps)."""
    ops = [SplitOp(ion=ion, trap=path[0])]
    ops += [MoveOp(ion=ion, src=a, dst=b) for a, b in zip(path, path[1:])]
    ops.append(MergeOp(ion=ion, trap=path[-1]))
    if gate_after is not None:
        ops.append(gate_after)
    return ops


def _gate(name, *qubits, trap):
    return GateOp(gate=Gate(name, qubits), trap=trap)


def elide_case():
    # Ion 0 wanders 0 -> 1 -> 0 and serves no gate while away.
    machine = uniform_machine(linear_topology(3), 4, 1)
    ops = [
        _gate("ms", 0, 1, trap=0),
        *trip(0, [0, 1]),
        *trip(0, [1, 0]),
        _gate("h", 0, trap=0),
    ]
    return Schedule(ops), machine, {0: [0, 1], 1: [2]}


def fuse_plain_case():
    machine = uniform_machine(linear_topology(3), 4, 1)
    ops = [
        *trip(0, [0, 1]),
        *trip(0, [1, 2], gate_after=_gate("ms", 0, 2, trap=2)),
    ]
    return Schedule(ops), machine, {0: [0], 2: [2]}


def fuse_shortened_case():
    # Evicted two traps right, then needed one trap left of the park.
    machine = uniform_machine(linear_topology(3), 4, 1)
    ops = [
        *trip(0, [0, 1, 2]),
        *trip(0, [2, 1], gate_after=_gate("ms", 0, 1, trap=1)),
    ]
    return Schedule(ops), machine, {0: [0], 1: [1]}


def reroute_case():
    # Ring of 4: 0 -> 2 via the crowded trap 1 flips to 0 -> 3 -> 2.
    machine = uniform_machine(ring_topology(4), 4, 1)
    ops = [
        *trip(0, [0, 1, 2], gate_after=_gate("ms", 0, 4, trap=2)),
    ]
    return Schedule(ops), machine, {0: [0], 1: [1, 2, 3], 2: [4]}


def tighten_case():
    # The move into trap 1 syncs it with trap 2's long gate; the trap-1
    # gates behind the barrier hoist in front of it.
    machine = uniform_machine(linear_topology(3), 4, 1)
    ops = [
        _gate("ms", 2, 3, trap=2),
        SplitOp(ion=2, trap=2),
        MoveOp(ion=2, src=2, dst=1),
        MoveOp(ion=2, src=1, dst=0),
        MergeOp(ion=2, trap=0),
        _gate("h", 0, trap=1),
        _gate("ms", 0, 1, trap=1),
    ]
    return Schedule(ops), machine, {0: [4], 1: [0, 1], 2: [2, 3]}


HAND_BUILT = {
    "hand-elide": elide_case,
    "hand-fuse-plain": fuse_plain_case,
    "hand-fuse-shortened": fuse_shortened_case,
    "hand-reroute": reroute_case,
    "hand-tighten": tighten_case,
}


#: Corpus cases (``corpus_util``, ``machine-seed-config``) whose
#: default pipeline deletes a gate-free round trip.
CORPUS_ROUND_TRIP_CASES = """
grid2x3-s0-guard0 grid2x3-s2-cheap-evict-chain grid2x3-s2-guard0
grid2x3-s2-optimized-chain grid2x3-s4-cheap-evict-chain
grid3x3-s0-baseline-chain grid3x3-s0-cheap-evict grid3x3-s0-guard0
grid3x3-s1-baseline-chain grid3x3-s1-cheap-evict
grid3x3-s1-cheap-evict-chain grid3x3-s1-guard0
grid3x3-s2-baseline-chain grid3x3-s2-cheap-evict-chain
grid3x3-s2-decay07 grid3x3-s2-gates-metric grid3x3-s2-guard0
grid3x3-s2-optimized grid3x3-s2-optimized-chain grid3x3-s3-cheap-evict
grid3x3-s3-cheap-evict-chain grid3x3-s3-guard0
grid3x3-s4-cheap-evict-chain grid3x3-s5-guard0
grid3x3-s5-optimized-chain linear4-s0-cheap-evict-chain
linear4-s0-guard0 linear4-s1-cheap-evict linear4-s1-cheap-evict-chain
linear4-s2-cheap-evict linear4-s2-cheap-evict-chain linear4-s3-guard0
linear4-s4-guard0 linear4-s5-baseline-chain linear4c8-s2-cheap-evict
ring5-s2-baseline-chain ring5-s2-cheap-evict-chain ring5-s2-guard0
ring5-s3-cheap-evict ring5-s3-guard0 ring5-s4-lowest-index
ring6-s0-cheap-evict ring6-s0-cheap-evict-chain
ring6-s1-baseline-chain ring6-s2-guard0 ring6-s5-cheap-evict
ring6-s5-cheap-evict-chain star5-s2-decay07 star5-s2-optimized-chain
star5-s3-cheap-evict star5-s3-cheap-evict-chain star5-s3-decay07
star5-s3-guard0 star5-s3-lowest-index star5-s3-optimized
star5-s3-optimized-chain star5-s4-guard0 star5-s5-guard0
""".split()


def corpus_compiled(case: str):
    """The corpus circuit of ``case`` compiled onto its machine."""
    machine_name, seed, config = case.split("-", 2)
    circuit, machine = corpus_circuit(machine_name, int(seed[1:]))
    result = compile_circuit(circuit, machine, CORPUS_CONFIGS[config]())
    return result.schedule, machine, result.initial_chains


def pipeline_cases():
    """(case id, zero-argument builder of (schedule, machine, chains))."""
    cases = [
        (
            f"{name}-s{seed}-{config}",
            lambda n=name, s=seed, c=config: random_compiled(n, s, c),
        )
        for name in MACHINES
        for seed in SEEDS
        for config in CONFIGS
    ]
    cases.extend(
        (f"corpus-{case}", lambda c=case: corpus_compiled(c))
        for case in CORPUS_ROUND_TRIP_CASES
    )
    cases.extend(HAND_BUILT.items())
    return cases


def _chains_digest(chains) -> str:
    text = repr(sorted((trap, list(c)) for trap, c in chains.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def pipeline_pin(builder):
    schedule, machine, chains = builder()
    result = PassManager().run(schedule, machine, chains)
    return (
        schedule_digest(result.schedule),
        tuple(astuple(stats) for stats in result.passes),
        _chains_digest(result.final_chains),
    )


#: (machine, seed, config) of the schedules tighten-gates runs alone on.
HOIST_SOURCES = (
    ("linear4c8", 3, "optimized"),
    ("linear6c6", 1, "baseline"),
    ("ring6c6", 2, "baseline"),
    ("grid2x3c6", 1, "optimized"),
    ("star5c6", 0, "baseline"),
)

HOIST_BUDGETS = (1, 3, 8)


def hoist_cases():
    return [
        (
            f"hoist-{name}-s{seed}-{config}-e{budget}",
            (name, seed, config, budget),
        )
        for name, seed, config in HOIST_SOURCES
        for budget in HOIST_BUDGETS
    ]


def hoist_pin(name, seed, config, budget):
    schedule, machine, chains = random_compiled(name, seed, config)
    hoisting = GateHoisting()
    hoisting.max_evaluations = budget
    out, rewrites = hoisting.run(
        schedule, PassContext(machine=machine, initial_chains=chains)
    )
    return schedule_digest(out), rewrites


PIPELINE_PINS = {
    'ring5-s0-baseline': (
        'f5a236226d116be88c3223fe742cc834009a6c93f2c20b628e9321a923ef5420',
        (
            ('fuse-merge-split', 0, 0, 0, 0, 0, 0, False),
            ('reroute', 0, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        '60089b747b414ef4',
    ),
    'ring5-s0-optimized': (
        '31a0d3ec88ac5b371de01d20d5108776abf51fffb17d288678df6c0bd8a82d4b',
        (
            ('fuse-merge-split', 0, 0, 0, 0, 0, 0, False),
            ('reroute', 0, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        '5ab873321c7738c9',
    ),
    'ring5-s1-baseline': (
        '3cd2de9c51bc8d486f83118e32a84febc476fcd90a06140f81d3b92174157e09',
        (
            ('fuse-merge-split', 2, 0, 2, 2, 0, 4, False),
            ('reroute', 0, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        '81771193b5d8a2e7',
    ),
    'ring5-s1-optimized': (
        '95985bb3f9171ead200acdefacf1bd2b8fb56bbc71f2f69fd4cf41f6d4813423',
        (
            ('fuse-merge-split', 0, 0, 0, 0, 0, 0, False),
            ('reroute', 0, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        '4e7cc9b1e1cf85d8',
    ),
    'ring6-s0-baseline': (
        'a65341b213d4c74b823cd3285e6f2d3ee06140dfd5a1b2357b0cb9cd62ffa9bc',
        (
            ('fuse-merge-split', 4, 6, 5, 5, 0, 16, False),
            ('reroute', 4, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 1, 0, 0, 0, 0, 0, False),
        ),
        '1f1fdf68f611c7d3',
    ),
    'ring6-s0-optimized': (
        '7d4fb55601b59f22f47f83740f5fd4e6dda53d324ea1b366ae0aaa166e8a76d0',
        (
            ('fuse-merge-split', 2, 2, 2, 2, 0, 6, False),
            ('reroute', 7, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        '995abe0490e11d38',
    ),
    'ring6-s1-baseline': (
        'cc230bb942a205eaf8c4e170fe675ee4727bc2313106de82c5d11b9e4ded2bb3',
        (
            ('fuse-merge-split', 1, 0, 1, 1, 0, 2, False),
            ('reroute', 6, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        'dec1cbac7a7cceac',
    ),
    'ring6-s1-optimized': (
        '9235e044fbf11efe5889498ba39ec970bcbad9f10cedcf8710d9ed7d33702ec4',
        (
            ('fuse-merge-split', 0, 0, 0, 0, 0, 0, False),
            ('reroute', 7, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        '8744fc2c66975656',
    ),
    'grid2x3-s0-baseline': (
        '4e63c8f61804389795d88c5d37d68c7ba2e7650d44e42eca3daebf92f17516f6',
        (
            ('fuse-merge-split', 3, 4, 3, 3, 0, 10, False),
            ('reroute', 4, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        '93581df43abddd71',
    ),
    'grid2x3-s0-optimized': (
        '86c9c306082c2acc8da83fd860b32708cf69ca4d7d4925ebb8f099d91ce60a78',
        (
            ('fuse-merge-split', 2, 2, 2, 2, 0, 6, False),
            ('reroute', 3, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        '6b393c80c7e144aa',
    ),
    'grid2x3-s1-baseline': (
        '5356b3c6f062c28b916f95113f717d29ab5777dd45f09b5c831f09ed2e575564',
        (
            ('fuse-merge-split', 1, 4, 1, 1, 0, 6, False),
            ('reroute', 11, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        'e81b66b9c360675c',
    ),
    'grid2x3-s1-optimized': (
        '707ded5fd3f9f97feaa6487abbdb56c95d83dce66f01a09f1f9a3c34fe2b100d',
        (
            ('fuse-merge-split', 2, 0, 2, 2, 0, 4, True),
            ('reroute', 15, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        '25bc1da25be6f0e9',
    ),
    'grid3x3-s0-baseline': (
        'c55a8bc540d268cbc405f7f70cfa3c1f9abb955922b0f1d89fc4b6cc7f68f5ed',
        (
            ('fuse-merge-split', 6, 2, 6, 6, 0, 14, False),
            ('reroute', 11, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        'ea4d13efd9fcffc4',
    ),
    'grid3x3-s0-optimized': (
        '86876953a2fb743e7982d28bc73f93e61de6fee983705b5ab88d5f0c39841fa8',
        (
            ('fuse-merge-split', 0, 0, 0, 0, 0, 0, False),
            ('reroute', 10, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        'd2077a194c703730',
    ),
    'grid3x3-s1-baseline': (
        '53c2da44e2f23d3f1ab9dbc6b0f697573a925897231b272855e27269f42fa5e6',
        (
            ('fuse-merge-split', 3, 4, 3, 3, 0, 10, False),
            ('reroute', 4, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        'bdc53a7ca72920d7',
    ),
    'grid3x3-s1-optimized': (
        'ad1f0ecca932479f08745dc3fdeef9bd1121b3986c610485237ec2302c0efd26',
        (
            ('fuse-merge-split', 2, 2, 2, 2, 0, 6, True),
            ('reroute', 5, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        'ccf957aa42f280dd',
    ),
    'star5-s0-baseline': (
        '30d7453bf8181f98c527718fe57172f1d81ab3bb4d59e9c2f698008796a9f966',
        (
            ('fuse-merge-split', 0, 0, 0, 0, 0, 0, False),
            ('reroute', 0, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        'd2b058cec8f5f933',
    ),
    'star5-s0-optimized': (
        '2fc77927f0a196971e7b1edec55c405a4a0885d41888a02c9fb0c3d5e87491a6',
        (
            ('fuse-merge-split', 4, 4, 5, 5, 0, 14, False),
            ('reroute', 0, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        'bff863c8f39f1d09',
    ),
    'star5-s1-baseline': (
        '52efc8c65464cfac773ed1fc0dd3ffcc1589d64d4b19a5ddde3f41202fcc024c',
        (
            ('fuse-merge-split', 1, 2, 1, 1, 0, 4, False),
            ('reroute', 0, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        'a26c44489edc2256',
    ),
    'star5-s1-optimized': (
        '23ab645c6768ca9c3a3f3088110e8f7f631ccd07465bea3ce216ec1bf6fd9c15',
        (
            ('fuse-merge-split', 5, 10, 7, 7, 0, 24, False),
            ('reroute', 0, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        'e609d0f1baba625a',
    ),
    'linear4-s0-baseline': (
        '551dfe0e4e3d0b73ed89686ba896100879b78f79c6dacd8bec038c385de8e3d6',
        (
            ('fuse-merge-split', 2, 2, 2, 2, 0, 6, False),
            ('reroute', 0, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        '489edcce9241956d',
    ),
    'linear4-s0-optimized': (
        '03e1dbe92fe3e708021a0cd921ffe6887bd78b3ea20afddfeeba2ba21c004922',
        (
            ('fuse-merge-split', 1, 0, 1, 1, 0, 2, False),
            ('reroute', 0, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        '27173f52f7edac31',
    ),
    'linear4-s1-baseline': (
        '876733867f9aa892511b82a0d0f2bc42bf2e719e433971205055886714b8aabb',
        (
            ('fuse-merge-split', 2, 0, 2, 2, 0, 4, False),
            ('reroute', 0, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        'd3aca79f1118a8c8',
    ),
    'linear4-s1-optimized': (
        '9a46f3648956122b00d22950e1c920949720900d1c26e30a351c9f33ab24ca4d',
        (
            ('fuse-merge-split', 3, 2, 3, 3, 0, 8, False),
            ('reroute', 0, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        '205f19e7bf1caaf6',
    ),
    'hand-elide': (
        'e469bafa83ffe97b1e909b5b6bc32a04f2cbd10ac79e9034576d57ee7a3a2adc',
        (
            ('fuse-merge-split', 1, 2, 2, 2, 0, 6, False),
            ('reroute', 0, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        'bdefa36712daeecd',
    ),
    'hand-fuse-plain': (
        '9ca0b60593d12fbc2f3a8c5a238c04e710076d3028babdb52836b78cbefbd859',
        (
            ('fuse-merge-split', 1, 0, 1, 1, 0, 2, True),
            ('reroute', 0, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        '3bca6cdafbe27c9b',
    ),
    'hand-fuse-shortened': (
        'a4718009948c396e7f0086f13cf32a07d3769867081b5237c3b3c0a8330a9369',
        (
            ('fuse-merge-split', 1, 2, 1, 1, 0, 4, False),
            ('reroute', 0, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        'ba9740c644d54d6b',
    ),
    'hand-reroute': (
        'da20de83bb250933ef634bde0bb34cdce30674a1e5515f1666ce362f22e47319',
        (
            ('fuse-merge-split', 0, 0, 0, 0, 0, 0, False),
            ('reroute', 1, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        '880d69d55f600908',
    ),
    'hand-tighten': (
        'b9a54506d87f1063b1fbc5e6699a3a08b2106766ff479076f93118ec7ce0e478',
        (
            ('fuse-merge-split', 0, 0, 0, 0, 0, 0, False),
            ('reroute', 0, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 2, 0, 0, 0, 0, 0, False),
        ),
        '911f79acc7022ac2',
    ),
    'corpus-grid2x3-s0-guard0': (
        '5adc957710b105305c7726489e5d1223c6f72e64da7bc657070d4c17a3fd6baf',
        (
            ('fuse-merge-split', 8, 6, 9, 9, 0, 24, False),
            ('reroute', 10, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        '177730275cd181a3',
    ),
    'corpus-grid2x3-s2-cheap-evict-chain': (
        '93f8e0966eebfce0208a522b7dcfea1df1b947150247d14875b697e8aeaf8350',
        (
            ('fuse-merge-split', 4, 2, 5, 5, 1, 13, False),
            ('reroute', 0, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 1, 0, 0, 0, 0, 0, False),
        ),
        'b71a095ceb9d9a7d',
    ),
    'corpus-grid2x3-s2-guard0': (
        'dae8abb542bafd4bb819f8ce951638594c87b6421d35db22039009d6653105f8',
        (
            ('fuse-merge-split', 9, 8, 11, 11, 0, 30, False),
            ('reroute', 16, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        '085c9ea68ede6585',
    ),
    'corpus-grid2x3-s2-optimized-chain': (
        'e747c39f75854fca5f9366b212346374d4fc416a855ea2b83d15a98443aae016',
        (
            ('fuse-merge-split', 4, 2, 5, 5, 1, 13, False),
            ('reroute', 0, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 1, 0, 0, 0, 0, 0, False),
        ),
        'b71a095ceb9d9a7d',
    ),
    'corpus-grid2x3-s4-cheap-evict-chain': (
        '2de441b634f8002c6389e44084ab0ac5fd8664b6ec10f7a38a019810c12abe29',
        (
            ('fuse-merge-split', 7, 2, 8, 8, 5, 23, False),
            ('reroute', 0, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        '3279f649f78169b0',
    ),
    'corpus-grid3x3-s0-baseline-chain': (
        'a8fac8d6e8ca89c264e27c57e68fe589b57be391da86f5fccb0f4683c75b5f26',
        (
            ('fuse-merge-split', 20, 4, 22, 22, 11, 59, False),
            ('reroute', 0, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        'f9522394526a2ce3',
    ),
    'corpus-grid3x3-s0-cheap-evict': (
        'c0287da2988f5252b64ab87827644c58e3d3d8b70d060a4805d8ae44004c44e4',
        (
            ('fuse-merge-split', 28, 12, 29, 29, 0, 70, False),
            ('reroute', 19, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 1, 0, 0, 0, 0, 0, False),
        ),
        'b05136068e042302',
    ),
    'corpus-grid3x3-s0-guard0': (
        'a8714d52af65c91ebc55edd15f705a822ef554fa9a30f33e832725cd2e41dd75',
        (
            ('fuse-merge-split', 35, 10, 38, 38, 0, 86, False),
            ('reroute', 17, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        '9b588fb8a2fc6e99',
    ),
    'corpus-grid3x3-s1-baseline-chain': (
        'eba5eccc873161a934620675b2c07c5d531724400b5e1743da3f68b88ca5fc87',
        (
            ('fuse-merge-split', 11, 2, 12, 12, 3, 29, False),
            ('reroute', 0, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 2, 0, 0, 0, 0, 0, False),
        ),
        'bc460c6cf9d6d75a',
    ),
    'corpus-grid3x3-s1-cheap-evict': (
        'c48c5a806fdc16675c512d05d4bfdfb5d16221dafdc65c9a118154a827d456f9',
        (
            ('fuse-merge-split', 12, 12, 15, 15, 0, 42, False),
            ('reroute', 19, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        '072bcd1530edccc4',
    ),
    'corpus-grid3x3-s1-cheap-evict-chain': (
        'fa8bb292d8a43f06e2cc4314325475acdfad3cc71c8e52bdaa1b2b41369ba3a9',
        (
            ('fuse-merge-split', 8, 2, 9, 9, 4, 24, False),
            ('reroute', 1, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        '37c9b4897de53a3a',
    ),
    'corpus-grid3x3-s1-guard0': (
        '8b842fe6a2cb3004c46fb276b28b78bb16c4bf43feb23622802ffb7defdabf5a',
        (
            ('fuse-merge-split', 23, 4, 24, 24, 0, 52, False),
            ('reroute', 5, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        'a46c4dae0aabd44b',
    ),
    'corpus-grid3x3-s2-baseline-chain': (
        '35cfd371ace5de61e84c4a5166bf0127ea4092d023610c60dcaf22d0d91a8ff1',
        (
            ('fuse-merge-split', 14, 4, 16, 16, 5, 41, False),
            ('reroute', 2, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        '7d1bcec3db95958b',
    ),
    'corpus-grid3x3-s2-cheap-evict-chain': (
        '02ac91ec361cc1143ba1da92c0704a88f541708726fbe7411553b61b16a78ac2',
        (
            ('fuse-merge-split', 6, 2, 7, 7, 2, 18, False),
            ('reroute', 1, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        '99be0af90f6d3329',
    ),
    'corpus-grid3x3-s2-decay07': (
        '8fe8c2effe9c191f2b2525ade56dbc86de788d2706c88ae72839eaeca4ad7109',
        (
            ('fuse-merge-split', 21, 8, 22, 22, 0, 52, False),
            ('reroute', 8, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        '2c55b9f5fc537e36',
    ),
    'corpus-grid3x3-s2-gates-metric': (
        'ffa3b09aa7604a8e46a920a3a637cc572cda77fd46a7e181738cf0baea8e3fa0',
        (
            ('fuse-merge-split', 22, 10, 24, 24, 0, 58, False),
            ('reroute', 9, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        '81984b50f01bb512',
    ),
    'corpus-grid3x3-s2-guard0': (
        '25d0adb9b64523058381b8d11bb996d6006e7cab7dbeb33d3c1b1f05ff7e6341',
        (
            ('fuse-merge-split', 21, 4, 22, 22, 0, 48, False),
            ('reroute', 21, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 1, 0, 0, 0, 0, 0, False),
        ),
        '8d2ced3f180dfae6',
    ),
    'corpus-grid3x3-s2-optimized': (
        '06ed188aec9c05c8403de4160682d07f311ce69e611765d693c3e76451322ced',
        (
            ('fuse-merge-split', 19, 6, 21, 21, 0, 48, False),
            ('reroute', 13, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        '08d8531f4e24964d',
    ),
    'corpus-grid3x3-s2-optimized-chain': (
        'a959fc433354b5ff011f14de054aad680d95e67b972ec3f9804e9a2a125418ce',
        (
            ('fuse-merge-split', 16, 4, 18, 18, 14, 54, False),
            ('reroute', 1, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        '9131770d08ff909c',
    ),
    'corpus-grid3x3-s3-cheap-evict': (
        '6f6d8252c59838ca8ab315f13a6fd41fe8091ee02b4fe11a9b809f53a32e91a3',
        (
            ('fuse-merge-split', 14, 14, 16, 16, 0, 46, False),
            ('reroute', 20, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        '534df3af138d85c3',
    ),
    'corpus-grid3x3-s3-cheap-evict-chain': (
        '3435f2e4268e1ec897d306ae9cdd544b3e0dac1b889429e70581c7e32b7dccb3',
        (
            ('fuse-merge-split', 15, 4, 17, 17, 14, 52, False),
            ('reroute', 2, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 2, 0, 0, 0, 0, 0, False),
        ),
        'e373e2808798e852',
    ),
    'corpus-grid3x3-s3-guard0': (
        '86fb321086d9eb40ecbaf0949cb9a41d933f53162caadbf38549cd6ac2a2d426',
        (
            ('fuse-merge-split', 25, 12, 26, 26, 0, 64, False),
            ('reroute', 11, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 1, 0, 0, 0, 0, 0, False),
        ),
        'cbda486d65210f2f',
    ),
    'corpus-grid3x3-s4-cheap-evict-chain': (
        '7142ed63a95dda34fbab1bace82af0b48a4b67afe2968f0197cac2ffcdb7b2c7',
        (
            ('fuse-merge-split', 14, 2, 15, 15, 9, 41, False),
            ('reroute', 0, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 1, 0, 0, 0, 0, 0, False),
        ),
        'bb988427800dc5f7',
    ),
    'corpus-grid3x3-s5-guard0': (
        'd48a4377873b984a5eb4d6596151d0186290d5f7cf571fd9e0efe3221f8edfd0',
        (
            ('fuse-merge-split', 13, 8, 16, 16, 0, 40, False),
            ('reroute', 9, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        'ae80f8f2bc9a77e1',
    ),
    'corpus-grid3x3-s5-optimized-chain': (
        '81acf21d1a8dfd7aca11834ebc41c2671aeca45d1b39bd6a0eb2afadc41dd2ff',
        (
            ('fuse-merge-split', 8, 4, 10, 10, 5, 29, False),
            ('reroute', 1, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        'd04845a1796ddbaa',
    ),
    'corpus-linear4-s0-cheap-evict-chain': (
        'e5433eac93c77962d96ac62135fa119d35c5c94d271d6124d4516f663a685c44',
        (
            ('fuse-merge-split', 11, 2, 12, 12, 9, 35, False),
            ('reroute', 0, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 1, 0, 0, 0, 0, 0, False),
        ),
        '12f052c6793a51bf',
    ),
    'corpus-linear4-s0-guard0': (
        'a99f7b6d6c7e6b5d42d862c528c3184577901f9bff3653b668c0916e37bdfc95',
        (
            ('fuse-merge-split', 30, 16, 35, 35, 0, 86, False),
            ('reroute', 0, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        'ef759c969d7c8590',
    ),
    'corpus-linear4-s1-cheap-evict': (
        'e160b3f1494ce80189ffe5feaee4d33544e7ddfbb8f5d615af10b2d00cdfa5aa',
        (
            ('fuse-merge-split', 6, 6, 7, 7, 0, 20, False),
            ('reroute', 0, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        '88620bce24c62e89',
    ),
    'corpus-linear4-s1-cheap-evict-chain': (
        '922cfb60a16e2444886a6d4e8510c7861cd1d778b4cda85b7acffb2b0609a94c',
        (
            ('fuse-merge-split', 5, 2, 6, 6, 3, 17, False),
            ('reroute', 0, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        '111007b03f17a51d',
    ),
    'corpus-linear4-s2-cheap-evict': (
        '6810539ef16aafc331ca1f3c1584f40244a3904efa35dfc70544ce18c20958b6',
        (
            ('fuse-merge-split', 6, 4, 8, 8, 0, 20, False),
            ('reroute', 0, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        'abcbd2e9d663f2a4',
    ),
    'corpus-linear4-s2-cheap-evict-chain': (
        'b7209c3e1bbc334024e14e6eef687850ba5aa0467ec75aa5752c206ac10baf53',
        (
            ('fuse-merge-split', 1, 2, 2, 2, 0, 6, False),
            ('reroute', 0, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 1, 0, 0, 0, 0, 0, False),
        ),
        'd6d46dfb2c1dab63',
    ),
    'corpus-linear4-s3-guard0': (
        'e93e415e2bd38c45d510349d78ffc837db03af13fd3b3612973b443c686ab864',
        (
            ('fuse-merge-split', 2, 2, 3, 3, 0, 8, False),
            ('reroute', 0, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 1, 0, 0, 0, 0, 0, False),
        ),
        'a98ae6399cd5a0c8',
    ),
    'corpus-linear4-s4-guard0': (
        '231279e4829314ddcd750e4a5d9ffad19f201c8dc3f88908c7eb9de8d89ce74d',
        (
            ('fuse-merge-split', 9, 2, 10, 10, 0, 22, False),
            ('reroute', 0, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        'c2cd2b2a0c0a0377',
    ),
    'corpus-linear4-s5-baseline-chain': (
        'b1ff3b765a1a1102e623cc3ce02509af1ede94ab9f321ae3974da57f2fbd5a72',
        (
            ('fuse-merge-split', 5, 2, 6, 6, 1, 15, False),
            ('reroute', 0, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 1, 0, 0, 0, 0, 0, False),
        ),
        '8dd85928757a14ec',
    ),
    'corpus-linear4c8-s2-cheap-evict': (
        '2a4c982a0f53dad35cb897edb0edcb54945f74996c0c35f7c8b9c46e51cc11f4',
        (
            ('fuse-merge-split', 1, 2, 2, 2, 0, 6, False),
            ('reroute', 0, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        'ea99a057319ce4f3',
    ),
    'corpus-ring5-s2-baseline-chain': (
        'f59aeacd102e33ac70fa1bbe887f38d1d384fad948dc687d4538a2f94d381494',
        (
            ('fuse-merge-split', 4, 2, 5, 5, 0, 12, False),
            ('reroute', 0, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        '32c1d42901a58180',
    ),
    'corpus-ring5-s2-cheap-evict-chain': (
        'eed4be07b25ef65da6945caaa3242c7c3dce392f648acec58f61d5f6fe15303d',
        (
            ('fuse-merge-split', 4, 2, 5, 5, 5, 17, False),
            ('reroute', 0, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        '9559c0cf5ef75d55',
    ),
    'corpus-ring5-s2-guard0': (
        '167931cc62e1dae336c1986f8238517cd3a1d1195d2649468761ec52076d3eb0',
        (
            ('fuse-merge-split', 14, 8, 16, 16, 0, 40, False),
            ('reroute', 0, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        'f297655bb3df64e9',
    ),
    'corpus-ring5-s3-cheap-evict': (
        'c65d5d6e4b487d601abf9cc0167a462cf76a6e35c192e9dde105d23537468359',
        (
            ('fuse-merge-split', 11, 5, 13, 13, 0, 31, False),
            ('reroute', 0, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 1, 0, 0, 0, 0, 0, False),
        ),
        '6b194a2ee5b20bfd',
    ),
    'corpus-ring5-s3-guard0': (
        '629d1095a85f1498280da0d5006940df9bed95dd8a9553807cf7ff944d88c106',
        (
            ('fuse-merge-split', 11, 7, 12, 12, 0, 31, False),
            ('reroute', 0, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        '2dcb5f8f2a0bc870',
    ),
    'corpus-ring5-s4-lowest-index': (
        'ae6f6390f5d6a1abbcde9dc550353ce7a90cbee5e5760c0e990b1cbb67bbd17a',
        (
            ('fuse-merge-split', 18, 7, 20, 20, 0, 47, False),
            ('reroute', 0, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        '7b786d41c839d893',
    ),
    'corpus-ring6-s0-cheap-evict': (
        'ca5b6515523b5f564310d6ac04e4945b3e128ff53820882fa88d58823a40f0b6',
        (
            ('fuse-merge-split', 2, 2, 3, 3, 0, 8, False),
            ('reroute', 10, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        'd0c439211ed41d45',
    ),
    'corpus-ring6-s0-cheap-evict-chain': (
        '842b1dba223616c732dc452dff253f06833b501379231df053e33bddddbf062d',
        (
            ('fuse-merge-split', 2, 2, 3, 3, 2, 10, False),
            ('reroute', 1, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        '5da6df2fbb2bc877',
    ),
    'corpus-ring6-s1-baseline-chain': (
        '3c93c043485b9778d402b5f1e473c60e046345eac212ed2939dd507f7bf53db7',
        (
            ('fuse-merge-split', 4, 2, 5, 5, 2, 14, False),
            ('reroute', 1, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        '39c430b911abc0d2',
    ),
    'corpus-ring6-s2-guard0': (
        'caa5c1a3b40babe1ea4a47ea1dd33d8751065c362cc5f96663f17cf9c6957f7c',
        (
            ('fuse-merge-split', 19, 6, 20, 20, 0, 46, False),
            ('reroute', 5, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        '103807c8df2fd426',
    ),
    'corpus-ring6-s5-cheap-evict': (
        'ff4c4d21891f4d3d33d8e91b79756623cfe7de577f5f065f30cc8ae5699fc0a1',
        (
            ('fuse-merge-split', 5, 4, 6, 6, 0, 16, False),
            ('reroute', 6, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 1, 0, 0, 0, 0, 0, False),
        ),
        '8db589a3e21d0ed4',
    ),
    'corpus-ring6-s5-cheap-evict-chain': (
        'f55fd306a1048a2ebb7c28463dcf5df0ff59bfcb72d10dfde5d53e9d598f818a',
        (
            ('fuse-merge-split', 4, 2, 5, 5, 4, 16, False),
            ('reroute', 0, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        'f53532b026fb2169',
    ),
    'corpus-star5-s2-decay07': (
        'de0bb8150bc6f0945939d2b5c9ccd633913b6bba37b0c23733cda0fa6779f01d',
        (
            ('fuse-merge-split', 16, 8, 17, 17, 0, 42, False),
            ('reroute', 0, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 1, 0, 0, 0, 0, 0, False),
        ),
        'dd8b5f90355377d4',
    ),
    'corpus-star5-s2-optimized-chain': (
        '11449c6fe48f5c9342ff7d6f725d99392d8e14e7c3ab8b368280544a38408f75',
        (
            ('fuse-merge-split', 14, 6, 17, 17, 0, 40, False),
            ('reroute', 0, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 2, 0, 0, 0, 0, 0, False),
        ),
        'cf7c2a220bde49e1',
    ),
    'corpus-star5-s3-cheap-evict': (
        '8ba0d6b6a99f57a3c11d03ea8583d77e164702acc8b5b60625f95da054c69bd3',
        (
            ('fuse-merge-split', 15, 12, 16, 16, 0, 44, False),
            ('reroute', 0, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        'ae8f829bda590429',
    ),
    'corpus-star5-s3-cheap-evict-chain': (
        'f6ffa0b55bb17e4b5896470ceddf6a2be5736fe502973bda5733c0d3e7018553',
        (
            ('fuse-merge-split', 3, 2, 4, 4, 4, 14, False),
            ('reroute', 0, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        '52c8f9fd7436cce7',
    ),
    'corpus-star5-s3-decay07': (
        'bb821583ea120f736fe97ffb6dd7ba59f19cec2ad28ebfab11af46557597a528',
        (
            ('fuse-merge-split', 4, 6, 5, 5, 0, 16, False),
            ('reroute', 0, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        'c465c24e0b7d0af3',
    ),
    'corpus-star5-s3-guard0': (
        '18327499a2e944e8e08b3e79103a49d44bb9302d0a692ab08616a7a92824932c',
        (
            ('fuse-merge-split', 30, 10, 33, 33, 0, 76, False),
            ('reroute', 0, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        'cbb54b52aec7d435',
    ),
    'corpus-star5-s3-lowest-index': (
        '2b135e72b079f13bc3f2d14ef66001ae97bf7b818daecdb470868efb6272abad',
        (
            ('fuse-merge-split', 6, 6, 7, 7, 0, 20, False),
            ('reroute', 0, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        '2c15c4c572cc501c',
    ),
    'corpus-star5-s3-optimized': (
        '2b135e72b079f13bc3f2d14ef66001ae97bf7b818daecdb470868efb6272abad',
        (
            ('fuse-merge-split', 6, 6, 7, 7, 0, 20, False),
            ('reroute', 0, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        '2c15c4c572cc501c',
    ),
    'corpus-star5-s3-optimized-chain': (
        '40e86f87fdd68f78e603cc5772a2f6fbc8df45192efcb64d900216f9b2957ba7',
        (
            ('fuse-merge-split', 6, 2, 7, 7, 3, 19, False),
            ('reroute', 0, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        '73a3a96367d7e9d9',
    ),
    'corpus-star5-s4-guard0': (
        '47235cfc94b614520f0e6ad137c69f4d4ea97e3562a5deac224dea21bb0fd717',
        (
            ('fuse-merge-split', 24, 12, 25, 25, 0, 62, False),
            ('reroute', 0, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        'd1b7fc2a8a1fbf09',
    ),
    'corpus-star5-s5-guard0': (
        '06c4e057ad227662fa5b65c76f9061f350318ef3af94a6daced5c691ef0cb1af',
        (
            ('fuse-merge-split', 16, 2, 17, 17, 0, 36, False),
            ('reroute', 0, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        'e9ce01ca78588fae',
    ),
}

HOIST_PINS = {
    'hoist-linear4c8-s3-optimized-e1': (
        '1726c921280a868804342c0643fab35b666257576cf0c66de234b8115039c43b',
        0,
    ),
    'hoist-linear4c8-s3-optimized-e3': (
        '1726c921280a868804342c0643fab35b666257576cf0c66de234b8115039c43b',
        0,
    ),
    'hoist-linear4c8-s3-optimized-e8': (
        'ee75eadf7ef6955e2bfc9c64743a767a114fb157c9f7731f28fde067d5fdc0b5',
        1,
    ),
    'hoist-linear6c6-s1-baseline-e1': (
        '2846f57e7eebdeb9e13d6451ed1246140189d53b281de21d88f2cf10ebcb9073',
        0,
    ),
    'hoist-linear6c6-s1-baseline-e3': (
        '2846f57e7eebdeb9e13d6451ed1246140189d53b281de21d88f2cf10ebcb9073',
        0,
    ),
    'hoist-linear6c6-s1-baseline-e8': (
        '63452a24f18615f7541304ae82537694c25ca2f869c4b25d0ec64c09d87eb558',
        1,
    ),
    'hoist-ring6c6-s2-baseline-e1': (
        '5862aaf8c0fc4f3feb463f84a3c9415f962a85a9f78102558fae5f00f3a8165d',
        0,
    ),
    'hoist-ring6c6-s2-baseline-e3': (
        '60dc6a51c3ef9eb8695006f223619458e3c53049457505779a508f022fd8ccc5',
        1,
    ),
    'hoist-ring6c6-s2-baseline-e8': (
        '780c5c19daea507ab4992bfa0be1f09d5fc2cc15bbdb9a8030d7bab19af80c01',
        2,
    ),
    'hoist-grid2x3c6-s1-optimized-e1': (
        '78bcae0ce2baf2ae0e7abd79dd54a552c3bf53ba210c297867d3f17b4c809c4c',
        1,
    ),
    'hoist-grid2x3c6-s1-optimized-e3': (
        'de9c63da46b581aab7f2656dd1055cd01b9e8618637ea27f07de2007561c0000',
        2,
    ),
    'hoist-grid2x3c6-s1-optimized-e8': (
        'de9c63da46b581aab7f2656dd1055cd01b9e8618637ea27f07de2007561c0000',
        2,
    ),
    'hoist-star5c6-s0-baseline-e1': (
        'a40377b9161fcb1ba4a99172e2b34b04758eff195924da51ddfd44519ec49842',
        0,
    ),
    'hoist-star5c6-s0-baseline-e3': (
        'a40377b9161fcb1ba4a99172e2b34b04758eff195924da51ddfd44519ec49842',
        0,
    ),
    'hoist-star5c6-s0-baseline-e8': (
        '6e4b23c195a51ba354ba10c94e892b692e4d632a8e175f62776d26e1a040c51a',
        1,
    ),
}


@pytest.mark.parametrize(
    "case_id, builder", pipeline_cases(), ids=[c for c, _ in pipeline_cases()]
)
def test_pipeline_pin(case_id, builder):
    assert pipeline_pin(builder) == PIPELINE_PINS[case_id]


@pytest.mark.parametrize(
    "case_id, args", hoist_cases(), ids=[c for c, _ in hoist_cases()]
)
def test_hoist_budget_pin(case_id, args):
    assert hoist_pin(*args) == HOIST_PINS[case_id]


def test_every_pass_rewrites_somewhere_in_the_table():
    fired = {
        stats[0]
        for _, stats, _ in PIPELINE_PINS.values()
        for stats in stats
        if stats[1] > 0 and not stats[-1]
    }
    assert fired == {"fuse-merge-split", "reroute", "tighten-gates"}


def test_hand_built_cases_fire_their_pass():
    expected = {
        "hand-elide": "fuse-merge-split",
        "hand-fuse-plain": "fuse-merge-split",
        "hand-fuse-shortened": "fuse-merge-split",
        "hand-reroute": "reroute",
        "hand-tighten": "tighten-gates",
    }
    for case_id, name in expected.items():
        rewrites = {s[0]: s[1] for s in PIPELINE_PINS[case_id][1]}
        assert rewrites[name] > 0, case_id


def test_hoist_budgets_bind():
    """The budget changes the outcome on at least one source, so the
    rows exercise the candidate count rather than just the pass."""
    for name, seed, config in HOIST_SOURCES:
        rows = {
            HOIST_PINS[f"hoist-{name}-s{seed}-{config}-e{b}"]
            for b in HOIST_BUDGETS
        }
        if len(rows) > 1:
            return
    pytest.fail("no hoist source distinguishes its budgets")


def _print_table():
    print("PIPELINE_PINS = {")
    for case_id, builder in pipeline_cases():
        digest, stats, chains = pipeline_pin(builder)
        print(f"    {case_id!r}: (\n        {digest!r},\n        (")
        for row in stats:
            print(f"            {row!r},")
        print(f"        ),\n        {chains!r},\n    ),")
    print("}\n\nHOIST_PINS = {")
    for case_id, args in hoist_cases():
        digest, rewrites = hoist_pin(*args)
        print(f"    {case_id!r}: (\n        {digest!r},\n        {rewrites},")
        print("    ),")
    print("}")


if __name__ == "__main__":
    _print_table()
