"""Pinned content fingerprints: the cache keys must never drift.

Every digest in :data:`PINNED` was recorded with the generic
``canonicalize`` + ``json.dumps`` encoder, before circuits got their
direct gate-list encoder.  A change to either encoder that alters one
byte of any key fails here.  Re-record (only together with a
``FINGERPRINT_VERSION`` bump) with::

    PYTHONPATH=src python -c "import tests.test_fingerprint_pins as t; \
        [print(f'    {k!r}: {j.fingerprint()!r},') for k, j in t.cases()]"
"""

import copy
import json
import math
import pickle
import sys
import threading
from dataclasses import dataclass

import pytest

from repro.arch import grid_topology, linear_topology, uniform_machine
from repro.batch import CompileJob, fingerprint
from repro.batch.fingerprint import FINGERPRINT_VERSION, canonicalize, circuit_json
from repro.batch.spec import BENCH_FACTORIES, JobSpec
from repro.circuits.circuit import Circuit
from repro.circuits.gate import Gate
from repro.compiler.config import CompilerConfig
from repro.core.params import DEFAULT_PARAMS


@dataclass(frozen=True)
class TaggedGate(Gate):
    """A gate subclass with an extra field (encoded by the generic walk)."""

    tag: str = "calibrated"


AWKWARD_NAMES = {
    "quote": 'say "hi"',
    "backslash": "back\\slash\\",
    "non-ascii": "αβγ ∮ ünï 😀",
    "newline": "two\nlines\tand\x00nul",
}

AWKWARD_PARAMS = (-0.0, math.nan, math.inf, -math.inf, 1e-300, 5e-324)


def awkward_circuit(name: str) -> Circuit:
    circuit = Circuit(4, name=name)
    circuit.add("ms", 0, 1)
    circuit.append(Gate(name, (2,)))  # the awkward text as a gate name
    circuit.append(Gate(name.upper(), (1, 3), (0.5,)))
    circuit.add("rz", 3, params=[-0.0])
    return circuit


def params_circuit() -> Circuit:
    circuit = Circuit(3, name="params")
    for value in AWKWARD_PARAMS:
        circuit.add("rz", 0, params=[value])
        circuit.add("rzz", 1, 2, params=[value])
    circuit.append(Gate("custom", (2,), AWKWARD_PARAMS))
    circuit.add("u3", 1, params=[math.pi, -math.pi / 2, 1e-300])
    circuit.append(Gate("custom", (0, 1, 2)))  # unknown name, no params
    return circuit


def three_qubit_circuit() -> Circuit:
    circuit = Circuit(3, name="toffoli")
    circuit.add("h", 2)
    circuit.add("ccx", 0, 1, 2)
    circuit.add("ms", 0, 2)
    return circuit


def subclass_circuit() -> Circuit:
    circuit = Circuit(3, name="tagged")
    circuit.add("ms", 0, 1)
    circuit.append(TaggedGate("rz", (2,), (0.25,), tag='x"y\\'))
    circuit.append(TaggedGate("ms", (1, 2)))
    circuit.add("rz", 1, params=[0.125])
    return circuit


def hand_built_circuits() -> list[tuple[str, Circuit]]:
    built = [(f"name-{k}", awkward_circuit(v)) for k, v in AWKWARD_NAMES.items()]
    built += [
        ("params", params_circuit()),
        ("three-qubit", three_qubit_circuit()),
        ("subclass", subclass_circuit()),
        ("empty", Circuit(2, name="empty")),
    ]
    return built


def cases() -> list[tuple[str, CompileJob]]:
    """Every pinned (id, job) pair, in table order."""
    out = []
    for name in sorted(BENCH_FACTORIES):
        for config in ("baseline", "optimized"):
            for simulate in (False, True):
                spec = JobSpec(
                    kind="bench", name=name, config=config, simulate=simulate
                )
                out.append((f"bench-{name}-{config}-sim{int(simulate)}",
                            spec.resolve()))
    for family, qubits, gates, seed, machine in (
        ("uniform", 24, 120, 1, "linear4"),
        ("uniform", 60, 1400, 7, "l6"),
        ("layered", 24, 120, 3, "grid2x3"),
        ("layered", 40, 600, 11, "ring5"),
    ):
        spec = JobSpec(
            kind="random", qubits=qubits, gates=gates, seed=seed,
            family=family, machine=machine, simulate=seed % 2 == 1,
        )
        out.append((f"random-{family}-{qubits}-{gates}-{seed}-{machine}",
                    spec.resolve()))
    machine = uniform_machine(linear_topology(3), 6, 2)
    grid = uniform_machine(grid_topology(2, 2), 5, 2)
    for key, circuit in hand_built_circuits():
        out.append((f"circuit-{key}",
                    CompileJob(circuit, machine, CompilerConfig.baseline())))
        out.append((f"circuit-{key}-simulated-pinned",
                    CompileJob(circuit, grid, CompilerConfig.optimized(),
                               params=DEFAULT_PARAMS.with_noise(heating_rate=3.0),
                               simulate=True,
                               initial_chains={0: [0, 1], 1: [2]})))
    return out


PINNED = {
    'bench-qaoa-baseline-sim0': '0a6252697ecc54a006941e302e9f8dc1024b8e6a139ff24cb4af5316444ee2a6',
    'bench-qaoa-baseline-sim1': 'a6eafc74a75576125f59c52faca320c4675964e4a5a1d9daab548e9ae7e8980b',
    'bench-qaoa-optimized-sim0': '1316855e054fbcde0c85bdaa67f45ddaae09cb1d4d91d534558c0466047179d9',
    'bench-qaoa-optimized-sim1': 'f85c410ca47bc60d56acaf7348ff45fc23fa20701b7e2fd54553e9e2c41412d8',
    'bench-qft-baseline-sim0': '3bc7b0833a94ed1f1f1c22e8e5211c28b6148c49b375ba9ba93d5cff9f4f8128',
    'bench-qft-baseline-sim1': '0d205f462a4c063616ce9aa3e596da146bf0ab0622a8871f68fb525a8700c284',
    'bench-qft-optimized-sim0': '90123c7248259e4e0a474dce4ad5d1bdbdefc9a763aadb6e90d8ce4e1fb139df',
    'bench-qft-optimized-sim1': '408f0d94faf012225a157ff1ee47e82f66b41e9f1b7422e84cb10cd748be3ddf',
    'bench-quadraticform-baseline-sim0': '317a96af4796be0bb7b48bde8dacac6dce191435d02cc337cacb35fbc6435e25',
    'bench-quadraticform-baseline-sim1': 'd62e0be5f9bd35f13dfc9c3716951d4877ccb03ef0ecd6fcad55d2d63bd2f4c5',
    'bench-quadraticform-optimized-sim0': '3a5dbfbc3cce865625ae2fd4a5f39f40494330de1ff662eccc212f322bff2541',
    'bench-quadraticform-optimized-sim1': '91ad0d5db914053c8e6fd5467499628cb1ccb048b64e6215d41963cc16dd4e5c',
    'bench-squareroot-baseline-sim0': '256c90d538528b80741920c64bf470bd12a9a9a6090589277b59c32104c4e93a',
    'bench-squareroot-baseline-sim1': '2c9d32bb8112bbd03b3455d1ade550b53de12ffc8d736780a8b256eec89baf77',
    'bench-squareroot-optimized-sim0': '6c5b636a506c0571b26438654b772081ce4eb3ce0ef6562195e73812baa0e15b',
    'bench-squareroot-optimized-sim1': '1acaf00077cbb2157404e3a3c97ed4b2354631fae441871d4364dbc455433668',
    'bench-supremacy-baseline-sim0': 'f8abf6082abaee1a8c5d1a7cf7ed62b79577ba11bee941819eb7327e99f2ebbb',
    'bench-supremacy-baseline-sim1': '34775371867dd8ef983ce8fc2a18be74fb628f7e99fdfa150588998db2c50989',
    'bench-supremacy-optimized-sim0': '2a5f0c445a37a2ffffc1fe42d189ba6639e590a34c8235c85100045770c27e91',
    'bench-supremacy-optimized-sim1': 'f095c6f45c101db8f92e4692a74bbb5dcb8e1b35b841551c2b4832eb01a2e3a5',
    'random-uniform-24-120-1-linear4': '5a56a35633abcd767164ba5db971d082259cbff0df06d05664e4153e80219300',
    'random-uniform-60-1400-7-l6': '20e24e904dd3377ed1ca8f7617338ddd92072ee66175a02bd4bf8e8300040177',
    'random-layered-24-120-3-grid2x3': '6091b707dca35a8943c14e93492e74398076bb05ef45c46be7539e6ad66581aa',
    'random-layered-40-600-11-ring5': '28deff7f3bc13b4d87fc2cc12cb8df3f6fa1a2002e265b312588db265dcccea6',
    'circuit-name-quote': '6dcd9f94de0a85bb4ec136e4e7e34c65c2c7003c0e41672521fc8148875cf670',
    'circuit-name-quote-simulated-pinned': '7f24cefc11a133478e9c99024b8fc7493a11ce144bbaec42819671dcc6063693',
    'circuit-name-backslash': '1f7e267038b67c4497ccc9620bcad29c077b076044cd9b1b4a5be9a9fcd6e06a',
    'circuit-name-backslash-simulated-pinned': '103121e646d0db6fac31d9b0f45cf3b0064521bdd5797a63c07505badd1004ef',
    'circuit-name-non-ascii': 'db39dfcd9a4c26ce62d41f98afbb49d0c8f87ddfd2cdc432c13267e76cf2bc6d',
    'circuit-name-non-ascii-simulated-pinned': '0975358ea4da32a01cf1e407caf1d7067981edddd8df3a8ff908f8d56c597ecf',
    'circuit-name-newline': '4491852cbf2532519eb5c0e36591cd638695e43a7698d944e7d3806f0c6b4a79',
    'circuit-name-newline-simulated-pinned': 'f8c2e77feb85a59204967aa5f6ca4ce3e8158d11568bb120ed5c018945af4f0e',
    'circuit-params': '57422679e715463e0b99c6dd12c45551580a9fa37ae07a27f0468b8cd1cc2463',
    'circuit-params-simulated-pinned': '0f45cb4ccfc20913e53b851e54e9fef5b06d0fe5633686fb17dda6ff1be80e09',
    'circuit-three-qubit': '9e5b12115fece87c3a9358fc402f5a7d99a7124f4b5116d0c4d533805c84b704',
    'circuit-three-qubit-simulated-pinned': '91df30e975435b7a5e25430b032946e8a291f9aa41146f8608bd1bbc03620245',
    'circuit-subclass': '4c280517d65640b61a1c2dff6bf2e35ddd6fad2740caaec49bdb9d8e7b1580c8',
    'circuit-subclass-simulated-pinned': 'cbe235fc8a280faa6c51a0a12ca37d5aa9d99a71d8ecfc7965b4d021b5b7a481',
    'circuit-empty': '2c91e5e6f86bfeabf7f5279da0b78caf52907072475386c33d9b42f1b5f6b702',
    'circuit-empty-simulated-pinned': '0c8b6fc2f77268087be48900e9230531ee33267b77e8a73a16b37aff247204ff',
}


def generic_text(obj) -> str:
    """The reference encoding every key is defined by."""
    return json.dumps(canonicalize(obj), sort_keys=True, separators=(",", ":"))


def job_document(job: CompileJob) -> dict:
    return {
        "version": FINGERPRINT_VERSION,
        "circuit": job.circuit,
        "machine": job.machine,
        "config": job.config,
        "params": job.params if job.simulate else None,
        "simulate": job.simulate,
        "initial_chains": job.initial_chains,
    }


CASES = cases()


def test_table_covers_every_case():
    assert sorted(PINNED) == sorted(key for key, _ in CASES)


@pytest.mark.parametrize("key,job", CASES, ids=[key for key, _ in CASES])
def test_fingerprint_is_pinned(key, job):
    assert job.fingerprint() == PINNED[key]
    assert job.fingerprint() == PINNED[key]  # memoized second call too


@pytest.mark.parametrize("key,job", CASES, ids=[key for key, _ in CASES])
def test_job_key_matches_the_generic_encoder(key, job):
    assert job.fingerprint() == fingerprint(job_document(job))


CIRCUITS = hand_built_circuits() + [
    (key, job.circuit) for key, job in CASES if not key.startswith("circuit-")
]


@pytest.mark.parametrize(
    "circuit", [c for _, c in CIRCUITS], ids=[k for k, _ in CIRCUITS]
)
def test_direct_text_equals_the_generic_text(circuit):
    assert circuit_json(circuit) == generic_text(circuit)
    assert circuit_json(circuit) == generic_text(circuit)  # memoized


def small_job(circuit: Circuit) -> CompileJob:
    machine = uniform_machine(linear_topology(3), 6, 2)
    return CompileJob(circuit, machine, CompilerConfig.baseline())


def small_circuit() -> Circuit:
    return Circuit(4, name="memo").add("ms", 0, 1).add("rz", 2, params=[0.5])


def expected_key(circuit: Circuit) -> str:
    return fingerprint(job_document(small_job(circuit)))


MUTATIONS = {
    "append": lambda c: c.append(Gate("ms", (2, 3))),
    "extend": lambda c: c.extend([Gate("h", (3,)), Gate("ms", (0, 3))]),
    "add": lambda c: c.add("rz", 1, params=[-0.0]),
    "compose": lambda c: c.compose(Circuit(2).add("ms", 0, 1)),
}


class TestMemo:
    """The memoized gate text never outlives the gates it encodes."""

    @pytest.mark.parametrize(
        "mutate", MUTATIONS.values(), ids=MUTATIONS.keys()
    )
    def test_mutation_after_a_fingerprint_changes_it(self, mutate):
        circuit = small_circuit()
        before = small_job(circuit).fingerprint()
        mutate(circuit)
        after = small_job(circuit).fingerprint()
        assert after != before
        assert after == expected_key(circuit)

    def test_renaming_changes_it(self):
        circuit = small_circuit()
        before = small_job(circuit).fingerprint()
        circuit.name = "renamed"
        assert small_job(circuit).fingerprint() != before
        assert small_job(circuit).fingerprint() == expected_key(circuit)

    @pytest.mark.parametrize("clone", [Circuit.copy, copy.copy, copy.deepcopy])
    def test_copies_do_not_share_a_stale_memo(self, clone):
        circuit = small_circuit()
        original = small_job(circuit).fingerprint()
        twin = clone(circuit)
        assert small_job(twin).fingerprint() == original
        twin.add("ms", 2, 3)
        assert small_job(twin).fingerprint() == expected_key(twin)
        assert small_job(twin).fingerprint() != original
        assert len(circuit) == len(twin) - 1
        assert small_job(circuit).fingerprint() == original

    def test_memo_is_not_pickled(self):
        circuit = JobSpec(kind="bench", name="qft", qubits=16).resolve().circuit
        circuit = circuit.copy()  # a fresh memo, whatever ran before
        size = len(pickle.dumps(circuit))
        key = small_job(circuit).fingerprint()
        assert len(pickle.dumps(circuit)) == size
        clone = pickle.loads(pickle.dumps(circuit))
        assert clone == circuit
        assert small_job(clone).fingerprint() == key

    def test_concurrent_fingerprints_agree(self):
        """Serve handler threads fingerprint one cached circuit at once:
        racing fills of the memo must all produce the one true key."""
        circuit = JobSpec(kind="bench", name="qft", qubits=24).resolve().circuit.copy()
        expected = expected_key(circuit)
        keys = []
        lock = threading.Lock()

        def work():
            for _ in range(20):
                circuit._gates_json = None  # force racing refills
                key = small_job(circuit).fingerprint()
                with lock:
                    keys.append(key)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert keys == [expected] * 160
