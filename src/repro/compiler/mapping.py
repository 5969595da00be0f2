"""Greedy initial mapping (Section IV-E3, policy of [14]).

Qubits are assigned to traps by walking the program's two-qubit gates in
order and greedily co-locating gate partners:

* if neither qubit is placed yet, both go to the lowest-id trap that can
  still take two ions (first-fit keeps interacting groups contiguous,
  which is how QCCDSim fills its traps);
* if exactly one is placed, the other joins it when its trap has load
  room, otherwise it goes to the trap *nearest to its partner's trap*
  with free load capacity (ties toward the lower trap id);
* qubits never touched by a two-qubit gate are placed first-fit at the
  end.

The mapping is deterministic, and the communication capacity stays
unoccupied, as required by the hardware model (Section II-B1).
"""

from __future__ import annotations

from ..arch.machine import QCCDMachine
from ..circuits.circuit import Circuit
from ..core.errors import CompilationError


def _check_load(circuit: Circuit, machine: QCCDMachine) -> None:
    """The load-capacity check every mapping policy makes first."""
    machine_load = machine.load_capacity
    if circuit.num_qubits > machine_load:
        raise CompilationError(
            f"circuit {circuit.name!r} has {circuit.num_qubits} qubits but "
            f"machine {machine.name!r} can initially load only {machine_load}"
        )


def greedy_initial_mapping(
    circuit: Circuit, machine: QCCDMachine
) -> dict[int, list[int]]:
    """Compute trap id -> ordered ion chain for a circuit.

    Raises :class:`CompilationError` when the circuit has more qubits
    than the machine's load capacity.
    """
    _check_load(circuit, machine)

    num_traps = machine.num_traps
    topology = machine.topology
    chains: list[list[int]] = [[] for _ in range(num_traps)]
    free = [machine.trap(t).load_capacity for t in range(num_traps)]
    placed: dict[int, int] = {}

    def first_fit(min_free: int = 1) -> int:
        for trap in range(num_traps):
            if free[trap] >= min_free:
                return trap
        raise CompilationError("machine load capacity exhausted")

    def nearest_with_room(home: int) -> int:
        candidates = [t for t in range(num_traps) if free[t] > 0]
        if not candidates:
            raise CompilationError("machine load capacity exhausted")
        return min(candidates, key=lambda t: (topology.distance(home, t), t))

    def place(qubit: int, trap: int) -> None:
        chains[trap].append(qubit)
        free[trap] -= 1
        placed[qubit] = trap

    for gate in circuit:
        if not gate.is_two_qubit:
            continue
        a, b = gate.qubits
        a_placed = a in placed
        b_placed = b in placed
        if a_placed and b_placed:
            continue
        if not a_placed and not b_placed:
            try:
                trap = first_fit(min_free=2)
            except CompilationError:
                trap = first_fit(min_free=1)
            place(a, trap)
            place(b, trap if free[trap] > 0 else nearest_with_room(trap))
        elif a_placed:
            home = placed[a]
            place(b, home if free[home] > 0 else nearest_with_room(home))
        else:
            home = placed[b]
            place(a, home if free[home] > 0 else nearest_with_room(home))

    for qubit in range(circuit.num_qubits):
        if qubit not in placed:
            place(qubit, first_fit())

    return {t: chain for t, chain in enumerate(chains)}


def round_robin_initial_mapping(
    circuit: Circuit, machine: QCCDMachine
) -> dict[int, list[int]]:
    """Interaction-blind mapping: qubit ``q`` -> trap ``q mod traps``.

    A deliberately weak alternative used by the initial-mapping study
    (the paper's Section IV-E3 names mapping policies as future work).
    """
    _check_load(circuit, machine)
    num_traps = machine.num_traps
    chains: list[list[int]] = [[] for _ in range(num_traps)]
    free = [machine.trap(t).load_capacity for t in range(num_traps)]
    for qubit in range(circuit.num_qubits):
        trap = qubit % num_traps
        while free[trap] <= 0:
            trap = (trap + 1) % num_traps
        chains[trap].append(qubit)
        free[trap] -= 1
    return {t: chain for t, chain in enumerate(chains)}


def random_initial_mapping(
    circuit: Circuit, machine: QCCDMachine, seed: int = 0
) -> dict[int, list[int]]:
    """Seeded random placement (the other pole of the mapping study)."""
    import random

    _check_load(circuit, machine)
    rng = random.Random(seed)
    qubits = list(range(circuit.num_qubits))
    rng.shuffle(qubits)
    num_traps = machine.num_traps
    chains: list[list[int]] = [[] for _ in range(num_traps)]
    free = [machine.trap(t).load_capacity for t in range(num_traps)]
    for qubit in qubits:
        candidates = [t for t in range(num_traps) if free[t] > 0]
        trap = rng.choice(candidates)
        chains[trap].append(qubit)
        free[trap] -= 1
    return {t: chain for t, chain in enumerate(chains)}


#: Named mapping policies for the initial-mapping study.
MAPPING_POLICIES = {
    "greedy": greedy_initial_mapping,
    "round-robin": round_robin_initial_mapping,
    "random": random_initial_mapping,
}


def initial_mapping(
    circuit: Circuit, machine: QCCDMachine, policy: str = "greedy", **kwargs
) -> dict[int, list[int]]:
    """Dispatch to a named initial-mapping policy."""
    try:
        factory = MAPPING_POLICIES[policy]
    except KeyError as exc:
        raise ValueError(
            f"unknown mapping policy {policy!r}; "
            f"choose from {sorted(MAPPING_POLICIES)}"
        ) from exc
    return factory(circuit, machine, **kwargs)
