"""Pinned pass outputs beyond L6: optimized schedules must never drift.

The golden fixture runs the default pipeline only on L6, where
``reroute`` and ``elide-roundtrips`` never fire.  This table pins, for
seeded random circuits on ring, grid, star and linear machines and for
hand-built schedules on which each of the four passes rewrites, the
exact optimized op stream (``golden_util.schedule_digest``), every
:class:`~repro.passes.manager.PassStats` and the final chains.  It
also pins :class:`~repro.passes.tighten.GateHoisting` run alone under
small ``max_evaluations`` budgets, where the budget decides which
candidates are ever scored.

A speed-up of any pass must reproduce every row byte for byte.
Re-record (only for an intended change of pass behaviour) with::

    PYTHONPATH=src:tests python tests/test_pass_pins.py
"""

import hashlib
import random
from dataclasses import astuple

import pytest
from golden_util import schedule_digest

from repro.arch import (
    TrapTopology,
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


def star_topology(num_traps: int) -> TrapTopology:
    """A hub trap 0 with every other trap a leaf (a depth-1 tree)."""
    return TrapTopology(
        num_traps, [(0, leaf) for leaf in range(1, num_traps)], name="S"
    )


MACHINES = {
    "ring5": lambda: uniform_machine(ring_topology(5), 4, 1),
    "ring6": lambda: uniform_machine(ring_topology(6), 4, 1),
    "grid2x3": lambda: uniform_machine(grid_topology(2, 3), 4, 1),
    "grid3x3": lambda: uniform_machine(grid_topology(3, 3), 3, 1),
    "star5": lambda: uniform_machine(star_topology(5), 4, 1),
    "linear4": lambda: uniform_machine(linear_topology(4), 4, 1),
}

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
            ('elide-roundtrips', 0, 0, 0, 0, 0, 0, False),
            ('fuse-merge-split', 0, 0, 0, 0, 0, 0, False),
            ('reroute', 0, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        '60089b747b414ef4',
    ),
    'ring5-s0-optimized': (
        '31a0d3ec88ac5b371de01d20d5108776abf51fffb17d288678df6c0bd8a82d4b',
        (
            ('elide-roundtrips', 0, 0, 0, 0, 0, 0, False),
            ('fuse-merge-split', 0, 0, 0, 0, 0, 0, False),
            ('reroute', 0, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        '5ab873321c7738c9',
    ),
    'ring5-s1-baseline': (
        '3cd2de9c51bc8d486f83118e32a84febc476fcd90a06140f81d3b92174157e09',
        (
            ('elide-roundtrips', 0, 0, 0, 0, 0, 0, False),
            ('fuse-merge-split', 2, 0, 2, 2, 0, 4, False),
            ('reroute', 0, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        '81771193b5d8a2e7',
    ),
    'ring5-s1-optimized': (
        '95985bb3f9171ead200acdefacf1bd2b8fb56bbc71f2f69fd4cf41f6d4813423',
        (
            ('elide-roundtrips', 0, 0, 0, 0, 0, 0, False),
            ('fuse-merge-split', 0, 0, 0, 0, 0, 0, False),
            ('reroute', 0, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        '4e7cc9b1e1cf85d8',
    ),
    'ring6-s0-baseline': (
        'a65341b213d4c74b823cd3285e6f2d3ee06140dfd5a1b2357b0cb9cd62ffa9bc',
        (
            ('elide-roundtrips', 0, 0, 0, 0, 0, 0, False),
            ('fuse-merge-split', 4, 6, 5, 5, 0, 16, False),
            ('reroute', 4, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 1, 0, 0, 0, 0, 0, False),
        ),
        '1f1fdf68f611c7d3',
    ),
    'ring6-s0-optimized': (
        '7d4fb55601b59f22f47f83740f5fd4e6dda53d324ea1b366ae0aaa166e8a76d0',
        (
            ('elide-roundtrips', 0, 0, 0, 0, 0, 0, False),
            ('fuse-merge-split', 2, 2, 2, 2, 0, 6, False),
            ('reroute', 7, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        '995abe0490e11d38',
    ),
    'ring6-s1-baseline': (
        'cc230bb942a205eaf8c4e170fe675ee4727bc2313106de82c5d11b9e4ded2bb3',
        (
            ('elide-roundtrips', 0, 0, 0, 0, 0, 0, False),
            ('fuse-merge-split', 1, 0, 1, 1, 0, 2, False),
            ('reroute', 6, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        'dec1cbac7a7cceac',
    ),
    'ring6-s1-optimized': (
        '9235e044fbf11efe5889498ba39ec970bcbad9f10cedcf8710d9ed7d33702ec4',
        (
            ('elide-roundtrips', 0, 0, 0, 0, 0, 0, False),
            ('fuse-merge-split', 0, 0, 0, 0, 0, 0, False),
            ('reroute', 7, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        '8744fc2c66975656',
    ),
    'grid2x3-s0-baseline': (
        '4e63c8f61804389795d88c5d37d68c7ba2e7650d44e42eca3daebf92f17516f6',
        (
            ('elide-roundtrips', 0, 0, 0, 0, 0, 0, False),
            ('fuse-merge-split', 3, 4, 3, 3, 0, 10, False),
            ('reroute', 4, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        '93581df43abddd71',
    ),
    'grid2x3-s0-optimized': (
        '86c9c306082c2acc8da83fd860b32708cf69ca4d7d4925ebb8f099d91ce60a78',
        (
            ('elide-roundtrips', 0, 0, 0, 0, 0, 0, False),
            ('fuse-merge-split', 2, 2, 2, 2, 0, 6, False),
            ('reroute', 3, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        '6b393c80c7e144aa',
    ),
    'grid2x3-s1-baseline': (
        '5356b3c6f062c28b916f95113f717d29ab5777dd45f09b5c831f09ed2e575564',
        (
            ('elide-roundtrips', 0, 0, 0, 0, 0, 0, False),
            ('fuse-merge-split', 1, 4, 1, 1, 0, 6, False),
            ('reroute', 11, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        'e81b66b9c360675c',
    ),
    'grid2x3-s1-optimized': (
        '707ded5fd3f9f97feaa6487abbdb56c95d83dce66f01a09f1f9a3c34fe2b100d',
        (
            ('elide-roundtrips', 0, 0, 0, 0, 0, 0, False),
            ('fuse-merge-split', 2, 0, 2, 2, 0, 4, True),
            ('reroute', 15, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        '25bc1da25be6f0e9',
    ),
    'grid3x3-s0-baseline': (
        'c55a8bc540d268cbc405f7f70cfa3c1f9abb955922b0f1d89fc4b6cc7f68f5ed',
        (
            ('elide-roundtrips', 0, 0, 0, 0, 0, 0, False),
            ('fuse-merge-split', 6, 2, 6, 6, 0, 14, False),
            ('reroute', 11, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        'ea4d13efd9fcffc4',
    ),
    'grid3x3-s0-optimized': (
        '86876953a2fb743e7982d28bc73f93e61de6fee983705b5ab88d5f0c39841fa8',
        (
            ('elide-roundtrips', 0, 0, 0, 0, 0, 0, False),
            ('fuse-merge-split', 0, 0, 0, 0, 0, 0, False),
            ('reroute', 10, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        'd2077a194c703730',
    ),
    'grid3x3-s1-baseline': (
        '53c2da44e2f23d3f1ab9dbc6b0f697573a925897231b272855e27269f42fa5e6',
        (
            ('elide-roundtrips', 0, 0, 0, 0, 0, 0, False),
            ('fuse-merge-split', 3, 4, 3, 3, 0, 10, False),
            ('reroute', 4, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        'bdc53a7ca72920d7',
    ),
    'grid3x3-s1-optimized': (
        'ad1f0ecca932479f08745dc3fdeef9bd1121b3986c610485237ec2302c0efd26',
        (
            ('elide-roundtrips', 0, 0, 0, 0, 0, 0, False),
            ('fuse-merge-split', 2, 2, 2, 2, 0, 6, True),
            ('reroute', 5, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        'ccf957aa42f280dd',
    ),
    'star5-s0-baseline': (
        '30d7453bf8181f98c527718fe57172f1d81ab3bb4d59e9c2f698008796a9f966',
        (
            ('elide-roundtrips', 0, 0, 0, 0, 0, 0, False),
            ('fuse-merge-split', 0, 0, 0, 0, 0, 0, False),
            ('reroute', 0, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        'd2b058cec8f5f933',
    ),
    'star5-s0-optimized': (
        '2fc77927f0a196971e7b1edec55c405a4a0885d41888a02c9fb0c3d5e87491a6',
        (
            ('elide-roundtrips', 0, 0, 0, 0, 0, 0, False),
            ('fuse-merge-split', 4, 4, 5, 5, 0, 14, False),
            ('reroute', 0, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        'bff863c8f39f1d09',
    ),
    'star5-s1-baseline': (
        '52efc8c65464cfac773ed1fc0dd3ffcc1589d64d4b19a5ddde3f41202fcc024c',
        (
            ('elide-roundtrips', 0, 0, 0, 0, 0, 0, False),
            ('fuse-merge-split', 1, 2, 1, 1, 0, 4, False),
            ('reroute', 0, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        'a26c44489edc2256',
    ),
    'star5-s1-optimized': (
        '23ab645c6768ca9c3a3f3088110e8f7f631ccd07465bea3ce216ec1bf6fd9c15',
        (
            ('elide-roundtrips', 0, 0, 0, 0, 0, 0, False),
            ('fuse-merge-split', 5, 10, 7, 7, 0, 24, False),
            ('reroute', 0, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        'e609d0f1baba625a',
    ),
    'linear4-s0-baseline': (
        '551dfe0e4e3d0b73ed89686ba896100879b78f79c6dacd8bec038c385de8e3d6',
        (
            ('elide-roundtrips', 0, 0, 0, 0, 0, 0, False),
            ('fuse-merge-split', 2, 2, 2, 2, 0, 6, False),
            ('reroute', 0, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        '489edcce9241956d',
    ),
    'linear4-s0-optimized': (
        '03e1dbe92fe3e708021a0cd921ffe6887bd78b3ea20afddfeeba2ba21c004922',
        (
            ('elide-roundtrips', 0, 0, 0, 0, 0, 0, False),
            ('fuse-merge-split', 1, 0, 1, 1, 0, 2, False),
            ('reroute', 0, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        '27173f52f7edac31',
    ),
    'linear4-s1-baseline': (
        '876733867f9aa892511b82a0d0f2bc42bf2e719e433971205055886714b8aabb',
        (
            ('elide-roundtrips', 0, 0, 0, 0, 0, 0, False),
            ('fuse-merge-split', 2, 0, 2, 2, 0, 4, False),
            ('reroute', 0, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        'd3aca79f1118a8c8',
    ),
    'linear4-s1-optimized': (
        '9a46f3648956122b00d22950e1c920949720900d1c26e30a351c9f33ab24ca4d',
        (
            ('elide-roundtrips', 0, 0, 0, 0, 0, 0, False),
            ('fuse-merge-split', 3, 2, 3, 3, 0, 8, False),
            ('reroute', 0, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        '205f19e7bf1caaf6',
    ),
    'hand-elide': (
        'e469bafa83ffe97b1e909b5b6bc32a04f2cbd10ac79e9034576d57ee7a3a2adc',
        (
            ('elide-roundtrips', 1, 2, 2, 2, 0, 6, False),
            ('fuse-merge-split', 0, 0, 0, 0, 0, 0, False),
            ('reroute', 0, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        'bdefa36712daeecd',
    ),
    'hand-fuse-plain': (
        '9ca0b60593d12fbc2f3a8c5a238c04e710076d3028babdb52836b78cbefbd859',
        (
            ('elide-roundtrips', 0, 0, 0, 0, 0, 0, False),
            ('fuse-merge-split', 1, 0, 1, 1, 0, 2, True),
            ('reroute', 0, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        '3bca6cdafbe27c9b',
    ),
    'hand-fuse-shortened': (
        'a4718009948c396e7f0086f13cf32a07d3769867081b5237c3b3c0a8330a9369',
        (
            ('elide-roundtrips', 0, 0, 0, 0, 0, 0, False),
            ('fuse-merge-split', 1, 2, 1, 1, 0, 4, False),
            ('reroute', 0, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        'ba9740c644d54d6b',
    ),
    'hand-reroute': (
        'da20de83bb250933ef634bde0bb34cdce30674a1e5515f1666ce362f22e47319',
        (
            ('elide-roundtrips', 0, 0, 0, 0, 0, 0, False),
            ('fuse-merge-split', 0, 0, 0, 0, 0, 0, False),
            ('reroute', 1, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 0, 0, 0, 0, 0, 0, False),
        ),
        '880d69d55f600908',
    ),
    'hand-tighten': (
        'b9a54506d87f1063b1fbc5e6699a3a08b2106766ff479076f93118ec7ce0e478',
        (
            ('elide-roundtrips', 0, 0, 0, 0, 0, 0, False),
            ('fuse-merge-split', 0, 0, 0, 0, 0, 0, False),
            ('reroute', 0, 0, 0, 0, 0, 0, False),
            ('tighten-gates', 2, 0, 0, 0, 0, 0, False),
        ),
        '911f79acc7022ac2',
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
    assert fired == {
        "elide-roundtrips", "fuse-merge-split", "reroute", "tighten-gates"
    }


def test_hand_built_cases_fire_their_pass():
    expected = {
        "hand-elide": "elide-roundtrips",
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
