"""Stable, process-independent content fingerprints.

The batch cache (:mod:`repro.batch.cache`) keys results by the *content*
of a compilation job, so identical (circuit, machine, config, params)
tuples hit the same cache entry across interpreter runs, hosts and
worker processes.  Python's built-in ``hash()`` is salted per process
(``PYTHONHASHSEED``) and therefore useless for on-disk keys; instead
every object is lowered to a canonical, JSON-serializable form and the
SHA-256 of its compact JSON encoding is used.

Canonicalization rules:

* floats are rendered with ``float.hex()`` (exact, locale/precision
  independent),
* dataclasses become ``["dc", class-name, {field: value}]`` with fields
  in declaration order,
* :class:`~repro.circuits.circuit.Circuit` and
  :class:`~repro.arch.topology.TrapTopology` (not dataclasses) get
  explicit encodings,
* enums become ``["enum", class-name, value]``.

:func:`canonicalize` is the specification.  Circuits, the one large
input, also have a direct text encoder (:func:`circuit_json`) that
writes the same bytes without building the intermediate tree and
memoizes the gate list on the circuit; ``CompileJob.fingerprint``
splices that text into its document.

Wall-clock outputs (e.g. ``CompilationResult.compile_time``) never
enter a fingerprint: fingerprints cover compilation *inputs* only, so
cached replays are byte-identical modulo timing.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from enum import Enum
from typing import Any

from ..arch.topology import TrapTopology
from ..circuits.circuit import Circuit
from ..circuits.gate import Gate

#: Bump to invalidate every existing cache entry when the canonical
#: encoding (or compilation semantics) changes incompatibly.
#: v2: CompilerConfig grew ``post_passes`` (and CompilationResult grew
#: pass-delta fields), changing both the canonical config encoding and
#: the pickled result layout.
FINGERPRINT_VERSION = 2


_SEPARATORS = (",", ":")


class FingerprintError(TypeError):
    """Raised when an object has no canonical encoding."""


def canonicalize(obj: Any) -> Any:
    """Lower ``obj`` to a deterministic JSON-serializable structure."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return float(obj).hex()
    if isinstance(obj, Enum):
        return ["enum", type(obj).__name__, canonicalize(obj.value)]
    if isinstance(obj, Circuit):
        return [
            "circuit",
            obj.name,
            obj.num_qubits,
            [canonicalize(g) for g in obj.gates],
        ]
    if isinstance(obj, TrapTopology):
        return [
            "topology",
            obj.name,
            obj.num_traps,
            [list(edge) for edge in obj.edges],
        ]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return [
            "dc",
            type(obj).__name__,
            {
                f.name: canonicalize(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
            },
        ]
    if isinstance(obj, (list, tuple)):
        return [canonicalize(item) for item in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(canonicalize(item) for item in obj)
    if isinstance(obj, dict):
        return {str(key): canonicalize(value) for key, value in obj.items()}
    raise FingerprintError(
        f"no canonical encoding for {type(obj).__name__}: {obj!r}"
    )


def canonical_json(obj: Any) -> str:
    """The compact, key-sorted JSON text of ``canonicalize(obj)``: the
    bytes a fingerprint hashes."""
    return json.dumps(canonicalize(obj), sort_keys=True, separators=_SEPARATORS)


def circuit_json(circuit: Circuit) -> str:
    """``canonical_json(circuit)``, written directly.

    The gate list is encoded once and memoized on the circuit
    (``Circuit._gates_json``, reset by every append and never
    pickled); the name and register size are formatted on every call,
    so renaming a circuit changes its text.
    """
    gates = circuit._gates_json
    if gates is None:
        gates = circuit._gates_json = _gate_list_json(circuit)
    head = json.dumps(
        ["circuit", circuit.name, circuit.num_qubits], separators=_SEPARATORS
    )
    return f"{head[:-1]},{gates}]"


def _gate_list_json(gates) -> str:
    """``canonical_json(list(gates))`` for a gate sequence.

    A plain :class:`Gate` holds a str name, int qubits and float params
    (its constructor guarantees the types), so its encoding is a fixed
    template, ``["dc","Gate",{"name":…,"params":[hex…],"qubits":[…]}]``:
    keys in sorted order, the name escaped by :mod:`json`, params as
    ``float.hex`` strings (which need no escaping).  Gate subclasses
    take the generic walk.
    """
    heads: dict[str, str] = {}
    parts = []
    for gate in gates:
        if type(gate) is not Gate:
            parts.append(canonical_json(gate))
            continue
        head = heads.get(gate.name)
        if head is None:
            head = heads[gate.name] = (
                f'["dc","Gate",{{"name":{json.dumps(gate.name)},"params":['
            )
        params = ""
        if gate.params:
            params = '"' + '","'.join([v.hex() for v in gate.params]) + '"'
        qubits = ",".join(map(str, gate.qubits))
        parts.append(f'{head}{params}],"qubits":[{qubits}]}}]')
    return f"[{','.join(parts)}]"


def digest(text: str) -> str:
    """SHA-256 hex digest of ``text`` (UTF-8)."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fingerprint(obj: Any) -> str:
    """SHA-256 hex digest of the canonical JSON encoding of ``obj``."""
    return digest(canonical_json(obj))
