"""Differential property test: simulator and verifier agree exactly.

Before the kernel, ``Simulator.run`` and ``verify_schedule``
re-implemented the machine's op-application rules independently and
could in principle drift apart; both now replay through
``repro.core``, so they accept and reject *identical* schedule sets by
construction.  This test pins that property observably: on random
circuits compiled to linear/ring/grid machines, the two layers agree
on every legal compiled schedule and on every mutated (corrupted-op)
variant.
"""

import random
import zlib

import pytest

from repro.arch import grid_machine, linear_machine, ring_machine
from repro.circuits.circuit import Circuit
from repro.compiler import CompilerConfig, compile_circuit
from repro.core.ops import GateOp, MergeOp, MoveOp, SplitOp, SwapOp
from repro.sim import Schedule, SimulationError, Simulator
from repro.passes.verify import VerificationError, verify_schedule

MACHINES = {
    "linear": lambda: linear_machine(4, capacity=4, comm_capacity=1),
    "ring": lambda: ring_machine(5, capacity=4, comm_capacity=1),
    "grid": lambda: grid_machine(2, 3, capacity=4, comm_capacity=1),
}

CONFIGS = {
    "baseline": CompilerConfig.baseline,
    "optimized": CompilerConfig.optimized,
    "chain-order": lambda: CompilerConfig.optimized().variant(
        track_chain_order=True
    ),
}


def random_circuit(rng: random.Random, num_qubits: int, num_gates: int):
    circuit = Circuit(num_qubits, name=f"diff-{num_qubits}q")
    for _ in range(num_gates):
        if rng.random() < 0.2:
            circuit.add("x", rng.randrange(num_qubits))
        else:
            a, b = rng.sample(range(num_qubits), 2)
            circuit.add("ms", a, b)
    return circuit


def simulator_accepts(machine, schedule, chains) -> bool:
    try:
        Simulator(machine).run(schedule, {t: list(c) for t, c in chains.items()})
    except SimulationError:
        return False
    return True


def verifier_accepts(machine, schedule, chains) -> bool:
    try:
        verify_schedule(machine, schedule, chains)
    except VerificationError:
        return False
    return True


def mutations(rng: random.Random, ops: list):
    """A generator of corrupted op streams (one mutation each).

    Covers every rule family: placement (wrong trap), capacity
    (duplicated merge traffic), transit discipline (dropped / doubled
    split+merge, re-ordered moves), connectivity (skipped hop) and
    adjacency (shuffled swap operands).
    """
    n = len(ops)

    def copy():
        return list(ops)

    # Drop one random op of each kind present.
    for cls in (GateOp, SplitOp, MoveOp, MergeOp, SwapOp):
        indices = [i for i, op in enumerate(ops) if isinstance(op, cls)]
        if indices:
            mutated = copy()
            del mutated[rng.choice(indices)]
            yield f"drop-{cls.__name__}", mutated

    # Duplicate one op of each kind present.
    for cls in (SplitOp, MoveOp, MergeOp):
        indices = [i for i, op in enumerate(ops) if isinstance(op, cls)]
        if indices:
            mutated = copy()
            index = rng.choice(indices)
            mutated.insert(index, mutated[index])
            yield f"duplicate-{cls.__name__}", mutated

    # Retarget a gate to another trap.
    gate_indices = [i for i, op in enumerate(ops) if isinstance(op, GateOp)]
    if gate_indices:
        index = rng.choice(gate_indices)
        op = ops[index]
        mutated = copy()
        mutated[index] = GateOp(gate=op.gate, trap=op.trap + 1)
        yield "retarget-gate", mutated

    # Skip a hop: rewrite a move's destination two steps over.
    move_indices = [i for i, op in enumerate(ops) if isinstance(op, MoveOp)]
    if move_indices:
        index = rng.choice(move_indices)
        op = ops[index]
        mutated = copy()
        mutated[index] = MoveOp(
            ion=op.ion, src=op.src, dst=op.dst + 2, reason=op.reason
        )
        yield "skip-hop", mutated

    # Swap two random ops (may or may not stay legal — the point is
    # that both layers give the same verdict either way).
    if n >= 2:
        a, b = rng.sample(range(n), 2)
        mutated = copy()
        mutated[a], mutated[b] = mutated[b], mutated[a]
        yield "transpose", mutated


@pytest.mark.parametrize("machine_name", sorted(MACHINES))
@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_simulator_and_verifier_agree(machine_name, config_name):
    # str hash() is salted per process; crc32 keeps the seed stable.
    rng = random.Random(
        zlib.crc32(f"{machine_name}/{config_name}".encode())
    )
    machine = MACHINES[machine_name]()
    config = CONFIGS[config_name]()

    for trial in range(4):
        num_qubits = rng.randint(6, machine.load_capacity)
        circuit = random_circuit(rng, num_qubits, rng.randint(15, 40))
        result = compile_circuit(circuit, machine, config)
        chains = result.initial_chains
        schedule = result.schedule

        # Every compiled schedule is accepted by both layers.
        assert simulator_accepts(machine, schedule, chains)
        assert verifier_accepts(machine, schedule, chains)

        disagreements = []
        rejections = 0
        for label, mutated_ops in mutations(rng, list(schedule.ops)):
            mutated = Schedule(mutated_ops)
            sim_verdict = simulator_accepts(machine, mutated, chains)
            ver_verdict = verifier_accepts(machine, mutated, chains)
            if sim_verdict != ver_verdict:
                disagreements.append((label, sim_verdict, ver_verdict))
            if not sim_verdict:
                rejections += 1
        assert not disagreements, (
            f"{machine_name}/{config_name} trial {trial}: simulator and "
            f"verifier disagree on {disagreements}"
        )
        # Sanity: the mutation battery actually exercises rejections.
        if schedule.num_shuttles:
            assert rejections > 0
