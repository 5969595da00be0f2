"""Evaluation-harness tests: metrics, table builders, renderers."""

import math

import pytest

from repro.arch import l6_machine, linear_topology, uniform_machine
from repro.bench import qft_circuit, random_circuit
from repro.bench.suite import nisq_suite
from repro.circuits.circuit import Circuit
from repro.compiler.config import CompilerConfig
from repro.eval import (
    aggregate,
    build_figure8,
    build_table2,
    build_table3,
    compare,
    heuristic_ablation,
    improvement_factor,
    overall_reduction,
    proximity_sweep,
    reduction_percent,
    render_bar_chart,
    render_figure8,
    render_markdown_table,
    render_sweep,
    render_table,
    render_table2,
    render_table3,
    run_suite,
    wins_everywhere,
)


def tiny_machine():
    return uniform_machine(linear_topology(3), 6, 2)


def tiny_suite():
    return [
        random_circuit(10, 60, seed=1),
        random_circuit(10, 60, seed=2),
    ]


@pytest.fixture(scope="module")
def comparisons():
    return run_suite(
        circuits=tiny_suite(), machine=tiny_machine(), simulate=True
    )


class TestMetrics:
    def test_reduction_percent(self):
        assert reduction_percent(100, 75) == 25.0
        assert reduction_percent(0, 0) == 0.0
        assert reduction_percent(50, 60) == -20.0

    def test_improvement_factor(self):
        assert improvement_factor(-1.0, -2.0) == pytest.approx(math.e)
        assert improvement_factor(-2.0, -2.0) == 1.0

    def test_aggregate(self):
        agg = aggregate([1.0, 2.0, 3.0])
        assert agg.mean == 2.0
        assert agg.std == pytest.approx(1.0)
        assert agg.count == 3

    def test_aggregate_edge_cases(self):
        assert aggregate([]).count == 0
        assert aggregate([5.0]).std == 0.0

    def test_aggregate_str(self):
        assert str(aggregate([1.0, 3.0])) == "2.0 (1.4)"


class TestCompare:
    def test_compare_runs_both_configs(self, comparisons):
        comparison = comparisons[0]
        assert comparison.baseline.config_name == "baseline[7]"
        assert comparison.optimized.config_name == "this-work"
        assert comparison.baseline_report is not None

    def test_same_initial_mapping(self, comparisons):
        comparison = comparisons[0]
        assert comparison.baseline.initial_chains == (
            comparison.optimized.initial_chains
        )

    def test_metric_properties(self, comparisons):
        comparison = comparisons[0]
        assert comparison.shuttle_delta == (
            comparison.baseline.num_shuttles
            - comparison.optimized.num_shuttles
        )
        assert comparison.fidelity_improvement > 0.0

    def test_compare_without_simulation(self):
        comparison = compare(
            tiny_suite()[0], tiny_machine(), simulate=False
        )
        assert comparison.baseline_report is None
        with pytest.raises(ValueError):
            _ = comparison.fidelity_improvement

    def test_is_random_flag(self, comparisons):
        assert all(c.is_random for c in comparisons)
        qft_comp = compare(
            Circuit(4, name="QFT"), tiny_machine(), simulate=False
        )
        assert not qft_comp.is_random


class TestTableBuilders:
    def test_table2_random_aggregate_row(self, comparisons):
        rows = build_table2(comparisons)
        assert len(rows) == 1  # both circuits fold into one Random row
        assert rows[0].benchmark.startswith("Random")

    def test_table2_render_contains_headers(self, comparisons):
        text = render_table2(comparisons)
        assert "Benchmark" in text
        assert "%Delta" in text

    def test_table2_markdown(self, comparisons):
        text = render_table2(comparisons, markdown=True)
        assert text.startswith("| Benchmark")
        assert "|---" in text

    def test_table3_rows(self, comparisons):
        rows = build_table3(comparisons)
        assert len(rows) == 1
        text = render_table3(comparisons)
        assert "This work (s)" in text

    def test_figure8_bars(self, comparisons):
        bars = build_figure8(comparisons)
        assert len(bars) == 1
        assert bars[0].improvement > 0

    def test_figure8_render(self, comparisons):
        text = render_figure8(comparisons)
        assert "Improvement" in text
        assert "#" in text  # the ASCII chart

    def test_overall_reduction_and_wins(self, comparisons):
        value = overall_reduction(comparisons)
        assert isinstance(value, float)
        assert isinstance(wins_everywhere(comparisons), bool)


class TestRenderers:
    def test_render_table_alignment(self):
        text = render_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_render_markdown(self):
        text = render_markdown_table(["x"], [["1"]])
        assert text == "| x |\n|---|\n| 1 |"

    def test_render_bar_chart(self):
        text = render_bar_chart(["one", "two"], [1.0, 2.0], unit="X")
        assert "one" in text
        assert "2.00X" in text

    def test_render_bar_chart_empty(self):
        assert render_bar_chart([], []) == "(no data)"


class TestAblations:
    def test_proximity_sweep_points(self):
        circuits = [random_circuit(10, 40, seed=3)]
        points = proximity_sweep(
            circuits, tiny_machine(), values=(2, None)
        )
        assert [p.label for p in points] == ["2", "inf"]
        assert all(p.mean_shuttles >= 0 for p in points)

    def test_heuristic_ablation_variants(self):
        circuits = [random_circuit(10, 40, seed=3)]
        points = heuristic_ablation(circuits, tiny_machine())
        labels = [p.label for p in points]
        assert "baseline [7]" in labels
        assert "full (this work)" in labels
        assert len(labels) == 13

    def test_render_sweep(self):
        circuits = [random_circuit(10, 40, seed=3)]
        points = proximity_sweep(circuits, tiny_machine(), values=(6,))
        text = render_sweep(points, "proximity")
        assert "proximity" in text


#: ``(label, mean_shuttles, std_shuttles, mean_reduction_percent)`` of
#: every E4 point on the NISQ suite over L6, as the sweep computed them
#: when it still called the compiler directly (before it ran its jobs
#: through the batch engine).
PROXIMITY_SWEEP_PINS = (
    ('0', 632.0, 353.38859630723795, 1.502183406113537),
    ('1', 531.2, 371.19900323142036, 19.510329774419194),
    ('2', 519.2, 321.21908411549896, 19.231697063306505),
    ('4', 496.8, 293.1598540046028, 21.932447337361154),
    ('6', 516.6, 299.16182911594854, 19.099600669722832),
    ('8', 517.0, 299.49290475735813, 19.05718285424033),
    ('12', 526.0, 315.4813782143092, 18.271156653366965),
    ('24', 529.4, 314.54538623225744, 17.55524779763734),
    ('inf', 565.2, 401.0251862414629, 15.476024303773638),
)

#: The same for every E5 variant.
HEURISTIC_ABLATION_PINS = (
    ('baseline [7]', 649.2, 380.42568262408366, 0.0),
    ('+future-ops', 527.2, 312.49111987382935, 18.027926092383918),
    ('+reorder', 649.2, 380.42568262408366, 0.0),
    ('+nn-rebalance', 632.0, 353.38859630723795, 1.502183406113537),
    ('+max-score-ion', 649.2, 380.42568262408366, 0.0),
    ('full (this work)', 516.6, 299.16182911594854, 19.099600669722832),
    ('full -reorder', 512.6, 295.9793911744532, 19.523778824547858),
    ('full -nn-rebalance', 549.4, 342.69709657363603, 15.228708880560157),
    ('full -max-score-ion', 538.8, 339.46826066659014, 17.160736040901874),
    ('full -capacity-guard', 505.2, 279.9860710821165, 9.329083154435432),
    ('full +score-decay', 531.0, 348.98495669584383, 16.56248406322808),
    ('full +cheap-evict', 597.8, 282.50610612869946, -8.610609224883138),
    ('full, gate-metric', 581.4, 333.89414490224294, 9.311935905844134),
)


def sweep_rows(points):
    return [
        (p.label, p.mean_shuttles, p.std_shuttles, p.mean_reduction_percent)
        for p in points
    ]


class TestAblationPins:
    """The E4/E5 tables ``repro ablation`` prints, pinned point for
    point on the paper's NISQ suite and the L6 machine."""

    def test_proximity_sweep_on_nisq_suite(self):
        points = proximity_sweep(nisq_suite(), l6_machine())
        assert sweep_rows(points) == list(PROXIMITY_SWEEP_PINS)

    def test_heuristic_ablation_on_nisq_suite(self):
        points = heuristic_ablation(nisq_suite(), l6_machine())
        assert sweep_rows(points) == list(HEURISTIC_ABLATION_PINS)
