"""Random-circuit workload (Table II row 6).

The paper tests 120 random circuits: 30 each at 60, 65, 70 and 75
qubits, averaging 1438 two-qubit gates with sigma ~ 413.  The exact
generator is not specified; two standard families are provided:

* ``"uniform"`` (default) — every gate couples a uniformly random qubit
  pair.  Maximally unstructured.
* ``"layered"`` — random-circuit-sampling style: layers of disjoint
  random pairings, so every qubit participates once per layer.

Gate counts per circuit are drawn from N(1438, 413), clamped, so the
ensemble matches the paper's reported statistics.  Everything is
deterministic given the seed.
"""

from __future__ import annotations

import random

from ..circuits.circuit import Circuit
from ..circuits.gate import Gate

#: Paper ensemble statistics (Section IV-A).
PAPER_SIZES = (60, 65, 70, 75)
PAPER_CIRCUITS_PER_SIZE = 30
PAPER_MEAN_GATES = 1438
PAPER_STD_GATES = 413

_MIN_GATES = 400
_MAX_GATES = 2600


def random_circuit(
    num_qubits: int,
    num_gates: int,
    seed: int,
    family: str = "uniform",
) -> Circuit:
    """One random circuit of exactly ``num_gates`` MS gates.

    Raises ``ValueError`` for fewer than two qubits: no pair exists.
    """
    if num_qubits < 2:
        raise ValueError(
            f"random circuits need at least 2 qubits, got {num_qubits}"
        )
    rng = random.Random(seed)
    name = f"Random-{family}-{num_qubits}q-s{seed}"
    circuit = Circuit(num_qubits, name=name)
    if family == "uniform":
        for _ in range(num_gates):
            a, b = rng.sample(range(num_qubits), 2)
            circuit.append(Gate("ms", (a, b)))
    elif family == "layered":
        emitted = 0
        while emitted < num_gates:
            order = list(range(num_qubits))
            rng.shuffle(order)
            for k in range(0, num_qubits - 1, 2):
                if emitted >= num_gates:
                    break
                circuit.append(Gate("ms", (order[k], order[k + 1])))
                emitted += 1
    else:
        raise ValueError(f"unknown random-circuit family {family!r}")
    return circuit


def sample_gate_count(rng: random.Random) -> int:
    """Draw a circuit size from the paper's N(1438, 413), clamped."""
    value = int(round(rng.gauss(PAPER_MEAN_GATES, PAPER_STD_GATES)))
    return max(_MIN_GATES, min(_MAX_GATES, value))


def paper_random_suite(
    circuits_per_size: int = PAPER_CIRCUITS_PER_SIZE,
    family: str = "uniform",
    seed: int = 2022,
) -> list[Circuit]:
    """The paper's random ensemble: ``circuits_per_size`` per qubit size.

    With the default ``circuits_per_size=30`` this is the full
    120-circuit suite; the quick harness uses 3 per size.
    """
    rng = random.Random(seed)
    suite: list[Circuit] = []
    for num_qubits in PAPER_SIZES:
        for index in range(circuits_per_size):
            gates = sample_gate_count(rng)
            circuit_seed = rng.randrange(1 << 30)
            suite.append(
                random_circuit(num_qubits, gates, circuit_seed, family)
            )
            suite[-1].name = (
                f"Random-{num_qubits}q-{index:02d}"
            )
    return suite
