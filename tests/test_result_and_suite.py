"""CompilationResult accounting and suite-module behaviour."""

import pytest

from repro.arch import linear_topology, uniform_machine
from repro.bench.suite import (
    PAPER_FIG8_IMPROVEMENT,
    PAPER_NISQ_SIZES,
    PAPER_TABLE2_SHUTTLES,
    PAPER_TABLE3_SECONDS,
    full_random_requested,
    paper_suite,
)
from repro.circuits.circuit import Circuit
from repro.compiler import CompilerConfig, compile_circuit
from repro.core.ops import ShuttleReason


def machine():
    return uniform_machine(linear_topology(3), 4, 1)


class TestCompilationResult:
    def result(self):
        circuit = Circuit(6, name="acct")
        circuit.add("ms", 0, 3).add("ms", 1, 4).add("ms", 2, 5)
        return compile_circuit(
            circuit,
            machine(),
            CompilerConfig.optimized(),
            initial_chains={0: [0, 1, 2], 1: [3, 4, 5]},
        )

    def test_counters_consistent(self):
        result = self.result()
        assert result.num_gates == 3
        assert result.num_two_qubit_gates == 3
        assert result.num_shuttles == (
            result.gate_routing_shuttles + result.rebalance_shuttles
        )

    def test_reason_split(self):
        result = self.result()
        by_reason = result.shuttles_by_reason()
        assert sum(by_reason.values()) == result.num_shuttles
        assert set(by_reason) <= {
            ShuttleReason.GATE,
            ShuttleReason.REBALANCE,
        }

    def test_summary_mentions_names(self):
        text = self.result().summary()
        assert "acct" in text
        assert "shuttles" in text

    def test_chains_are_copies(self):
        result = self.result()
        result.initial_chains[0].append(99)
        fresh = self.result()
        assert 99 not in fresh.initial_chains[0]


class TestPaperConstants:
    def test_all_tables_cover_same_benchmarks(self):
        names = set(PAPER_NISQ_SIZES)
        assert set(PAPER_TABLE2_SHUTTLES) == names | {"Random"}
        assert set(PAPER_FIG8_IMPROVEMENT) == names | {"Random"}
        assert set(PAPER_TABLE3_SECONDS) == names | {"Random"}

    def test_paper_reductions_match_percentages(self):
        # Table II's %Delta column re-derives from its own counts.
        expected = {
            "Supremacy": 38.90,
            "QAOA": 38.34,
            "SquareRoot": 50.49,  # paper prints 51.17 from unrounded data
            "QFT": 18.67,
            "QuadraticForm": 28.07,
        }
        for name, (base, opt) in PAPER_TABLE2_SHUTTLES.items():
            if name == "Random":
                continue
            measured = 100.0 * (base - opt) / base
            assert measured == pytest.approx(expected[name], abs=0.8)


class TestSuiteAssembly:
    def test_env_toggle(self, monkeypatch):
        monkeypatch.setenv("REPRO_FULL", "1")
        assert full_random_requested()
        monkeypatch.setenv("REPRO_FULL", "0")
        assert not full_random_requested()
        monkeypatch.delenv("REPRO_FULL")
        assert not full_random_requested()

    def test_paper_suite_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_FULL", "0")
        assert len(paper_suite()) == 17

    def test_nisq_circuits_lead_the_suite(self):
        suite = paper_suite(full=False)
        assert [c.name for c in suite[:5]] == list(PAPER_NISQ_SIZES)
