"""Benchmark-generator tests: paper sizes and structural properties."""

import hashlib

import pytest

from repro.bench import (
    PAPER_NISQ_SIZES,
    nisq_suite,
    paper_random_suite,
    paper_suite,
    qaoa_circuit,
    qaoa_path_circuit,
    qft_circuit,
    quadratic_form_circuit,
    random_circuit,
    random_regular_graph,
    squareroot_circuit,
    supremacy_circuit,
    supremacy_patterns,
)
from repro.circuits.decompose import NATIVE_GATES


class TestPaperSizes:
    """Qubit and 2q-gate counts must match Section IV-A."""

    def test_supremacy(self):
        circuit = supremacy_circuit()
        assert circuit.num_qubits == 64
        assert circuit.num_two_qubit_gates == 560

    def test_qaoa(self):
        circuit = qaoa_circuit()
        assert circuit.num_qubits == 64
        # 96 edges x 2 MS x 7 rounds; paper reports 1260 (within 7%).
        assert circuit.num_two_qubit_gates == 1344

    def test_qaoa_path_exact_count(self):
        circuit = qaoa_path_circuit()
        assert circuit.num_qubits == 64
        assert circuit.num_two_qubit_gates == 1260  # the paper's number

    def test_squareroot(self):
        circuit = squareroot_circuit()
        assert circuit.num_qubits == 78
        assert abs(circuit.num_two_qubit_gates - 1028) <= 10

    def test_qft(self):
        circuit = qft_circuit()
        assert circuit.num_qubits == 64
        assert circuit.num_two_qubit_gates == 4032  # 2016 cp x 2 MS

    def test_quadraticform(self):
        circuit = quadratic_form_circuit()
        assert circuit.num_qubits == 64
        assert circuit.num_two_qubit_gates == 3400  # exact

    def test_suite_names_match_paper_table(self):
        names = [c.name for c in nisq_suite()]
        assert names == list(PAPER_NISQ_SIZES)


class TestStructure:
    def test_supremacy_patterns_cover_all_grid_edges(self):
        patterns = supremacy_patterns(4, 4)
        edges = {frozenset(e) for pattern in patterns for e in pattern}
        # 4x4 grid: 2 * 4 * 3 = 24 edges
        assert len(edges) == 24

    def test_supremacy_pattern_gates_disjoint_within_layer(self):
        for pattern in supremacy_patterns(8, 8):
            qubits = [q for edge in pattern for q in edge]
            assert len(qubits) == len(set(qubits))

    def test_supremacy_native_gates_only(self):
        assert all(g.name in NATIVE_GATES for g in supremacy_circuit())

    def test_supremacy_single_qubit_option(self):
        with_sq = supremacy_circuit(cycles=2, with_single_qubit=True)
        assert with_sq.num_one_qubit_gates > 0

    def test_qft_all_to_all(self):
        circuit = qft_circuit(num_qubits=8)
        pairs = set(circuit.interaction_pairs())
        assert len(pairs) == 8 * 7 // 2  # every pair interacts

    def test_qft_approximation_truncates(self):
        exact = qft_circuit(num_qubits=16)
        approx = qft_circuit(num_qubits=16, approximation_degree=4)
        assert approx.num_two_qubit_gates < exact.num_two_qubit_gates

    def test_random_regular_graph_degrees(self):
        edges = random_regular_graph(20, 3, seed=5)
        degree = {}
        for a, b in edges:
            degree[a] = degree.get(a, 0) + 1
            degree[b] = degree.get(b, 0) + 1
        assert all(d == 3 for d in degree.values())
        assert len(edges) == 30

    def test_random_regular_graph_parity_check(self):
        with pytest.raises(ValueError):
            random_regular_graph(5, 3)

    def test_qaoa_rounds_scale_gates(self):
        one = qaoa_circuit(num_qubits=16, rounds=1, seed=3)
        two = qaoa_circuit(num_qubits=16, rounds=2, seed=3)
        assert two.num_two_qubit_gates == 2 * one.num_two_qubit_gates

    def test_squareroot_has_short_and_long_range_gates(self):
        circuit = squareroot_circuit()
        spans = [
            abs(g.qubits[0] - g.qubits[1])
            for g in circuit
            if g.is_two_qubit
        ]
        assert min(spans) == 1  # ripple carries
        assert max(spans) > 30  # cross-register fan-out

    def test_quadraticform_term_counts_drive_size(self):
        small = quadratic_form_circuit(num_linear=5, num_quadratic=5)
        assert small.num_two_qubit_gates == 8 * (5 * 2 + 5 * 8) + 56

    def test_quadraticform_validation(self):
        with pytest.raises(ValueError):
            quadratic_form_circuit(num_input=4, num_linear=10)
        with pytest.raises(ValueError):
            quadratic_form_circuit(num_input=4, num_quadratic=100)


class TestRandomEnsemble:
    def test_exact_gate_count(self):
        circuit = random_circuit(16, 200, seed=1)
        assert circuit.num_two_qubit_gates == 200

    def test_deterministic(self):
        a = random_circuit(16, 50, seed=9)
        b = random_circuit(16, 50, seed=9)
        assert a.gates == b.gates

    def test_different_seeds_differ(self):
        a = random_circuit(16, 50, seed=1)
        b = random_circuit(16, 50, seed=2)
        assert a.gates != b.gates

    def test_layered_family_pairs_disjoint_per_layer(self):
        circuit = random_circuit(10, 45, seed=4, family="layered")
        assert circuit.num_two_qubit_gates == 45
        first_layer = circuit.gates[:5]
        qubits = [q for g in first_layer for q in g.qubits]
        assert len(qubits) == len(set(qubits))

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            random_circuit(10, 10, seed=1, family="nope")

    @pytest.mark.parametrize("family", ["uniform", "layered"])
    @pytest.mark.parametrize("qubits", [0, 1])
    def test_fewer_than_two_qubits_rejected(self, family, qubits):
        # A single qubit has no pair to couple: the layered loop used
        # to spin forever instead of failing.
        with pytest.raises(ValueError, match="at least 2 qubits"):
            random_circuit(qubits, 5, seed=0, family=family)

    @pytest.mark.parametrize(
        "qubits,gates,seed,family,digest",
        [
            (16, 200, 1, "uniform", "3c61f2af3edb8637"),
            (70, 1438, 5, "uniform", "28c47a7c93730bff"),
            (2, 5, 11, "uniform", "c4905fa7c052924d"),
            (10, 45, 4, "layered", "8c1163bd0ba4c37d"),
            (61, 999, 3, "layered", "4ad85a987c20dc59"),
            (2, 7, 0, "layered", "a810ff9ae324fc76"),
        ],
    )
    def test_gate_list_digest_pinned(
        self, qubits, gates, seed, family, digest
    ):
        """The generator's RNG draw order is part of every recorded
        random-circuit result: these digests pin the exact gate lists."""
        circuit = random_circuit(qubits, gates, seed, family)
        assert {gate.name for gate in circuit.gates} == {"ms"}
        pairs = (gate.qubits for gate in circuit.gates)
        text = ";".join(f"{a},{b}" for a, b in pairs)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest

    def test_paper_suite_sizes(self):
        suite = paper_random_suite(circuits_per_size=2)
        assert len(suite) == 8
        sizes = sorted({c.num_qubits for c in suite})
        assert sizes == [60, 65, 70, 75]

    @pytest.mark.slow
    def test_full_suite_has_125_circuits(self):
        assert len(paper_suite(full=True)) == 125

    def test_reduced_suite_has_17_circuits(self):
        assert len(paper_suite(full=False)) == 17

    @pytest.mark.slow
    def test_gate_counts_near_paper_mean(self):
        suite = paper_random_suite(circuits_per_size=30)
        counts = [c.num_two_qubit_gates for c in suite]
        mean = sum(counts) / len(counts)
        assert 1200 < mean < 1700  # paper: 1438
