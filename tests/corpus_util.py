"""A fixed-seed corpus of small machines, random circuits and compiler
configurations.

Small machines with little spare capacity are where re-balancing
evictions pile up: nested traffic-block resolutions, evictions that are
later undone, and round trips the optimizer deletes.  The corpus is
``CORPUS_MACHINES`` x ``CORPUS_SEEDS`` x ``CORPUS_CONFIGS``;
:func:`corpus_circuit` builds the seeded 120-gate circuit for one
machine and seed.
"""

import random

from repro.arch import (
    TrapTopology,
    grid_topology,
    linear_topology,
    ring_topology,
    uniform_machine,
)
from repro.circuits.circuit import Circuit
from repro.compiler import CompilerConfig


def star_topology(num_traps: int) -> TrapTopology:
    """A hub trap 0 with every other trap a leaf (a depth-1 tree)."""
    return TrapTopology(
        num_traps, [(0, leaf) for leaf in range(1, num_traps)], name="S"
    )


#: The small machines of ``tests/test_pass_pins.py``'s pipeline rows.
MACHINES = {
    "ring5": lambda: uniform_machine(ring_topology(5), 4, 1),
    "ring6": lambda: uniform_machine(ring_topology(6), 4, 1),
    "grid2x3": lambda: uniform_machine(grid_topology(2, 3), 4, 1),
    "grid3x3": lambda: uniform_machine(grid_topology(3, 3), 3, 1),
    "star5": lambda: uniform_machine(star_topology(5), 4, 1),
    "linear4": lambda: uniform_machine(linear_topology(4), 4, 1),
}

CORPUS_MACHINES = {
    **MACHINES,
    "linear4c8": lambda: uniform_machine(linear_topology(4), 8, 2),
    "ring6c6": lambda: uniform_machine(ring_topology(6), 6, 2),
}

_baseline = CompilerConfig.baseline
_optimized = CompilerConfig.optimized

CORPUS_CONFIGS = {
    "baseline": _baseline,
    "optimized": _optimized,
    "baseline-chain": lambda: _baseline().variant(track_chain_order=True),
    "optimized-chain": lambda: _optimized().variant(track_chain_order=True),
    "gates-metric": lambda: _optimized().variant(proximity_metric="gates"),
    "guard0": lambda: _optimized().variant(capacity_guard=0),
    "decay07": lambda: _optimized().variant(score_decay=0.7),
    "baseline-futureops": lambda: _baseline().variant(
        shuttle_policy="future-ops"
    ),
    "baseline-reorder": lambda: _baseline().variant(reorder=True),
    "lowest-index": lambda: _optimized().variant(rebalance="lowest-index"),
    "chain-head": lambda: _optimized().variant(ion_selection="chain-head"),
    "cheap-evict": lambda: _optimized().variant(cheap_evict=True),
    "cheap-evict-chain": lambda: _optimized().variant(
        cheap_evict=True, track_chain_order=True
    ),
}

CORPUS_SEEDS = tuple(range(6))


def corpus_circuit(machine_name: str, seed: int):
    """The seeded 120-gate circuit (20% ``h``, the rest ``ms``) for one
    corpus machine, and that machine."""
    machine = CORPUS_MACHINES[machine_name]()
    rng = random.Random(f"{machine_name}-{seed}")
    num_qubits = min(machine.load_capacity, 10 + rng.randrange(8))
    circuit = Circuit(num_qubits, name=f"corpus-{seed}")
    for _ in range(120):
        if rng.random() < 0.2:
            circuit.add("h", rng.randrange(num_qubits))
        else:
            a, b = rng.sample(range(num_qubits), 2)
            circuit.add("ms", a, b)
    return circuit, machine
