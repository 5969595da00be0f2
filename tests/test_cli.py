"""CLI smoke tests (fast paths only)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for command in ("table2", "table3", "fig8", "ablation", "info"):
            args = parser.parse_args([command])
            assert args.command == command

    def test_compile_arguments(self):
        args = build_parser().parse_args(
            ["compile", "random", "--qubits", "12", "--gates", "30"]
        )
        assert args.benchmark == "random"
        assert args.qubits == 12

    def test_version(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_sweep_arguments(self):
        args = build_parser().parse_args(
            ["sweep", "--machines", "l6,ring6", "--jobs", "4", "--dry-run"]
        )
        assert args.command == "sweep"
        assert args.jobs == 4
        assert args.dry_run


class TestExecution:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "L6" in out
        assert "T0 -- T1" in out

    def test_info_other_machines(self, capsys):
        assert main(["info", "--machine", "linear3"]) == 0
        assert main(["info", "--machine", "ring4"]) == 0
        assert main(["info", "--machine", "grid2x3"]) == 0

    def test_unknown_machine(self):
        with pytest.raises(SystemExit):
            main(["info", "--machine", "warp9"])

    def test_compile_random_small(self, capsys):
        code = main(
            ["compile", "random", "--qubits", "12", "--gates", "40",
             "--seed", "2", "--trace", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "shuttle reduction" in out
        assert "baseline [7]" in out

    def test_compile_unknown_benchmark(self):
        with pytest.raises(SystemExit):
            main(["compile", "frobnicate"])

    def test_info_lists_passes(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "post-compilation passes" in out
        for name in (
            "fuse-merge-split",
            "reroute",
            "tighten-gates",
        ):
            assert name in out


class TestOptimizeCommand:
    def test_optimize_random_small(self, capsys):
        code = main(
            ["optimize", "random:12:40:2", "--machine", "linear3",
             "--diff", "5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fuse-merge-split" in out
        assert "raw shuttles" in out and "opt shuttles" in out
        assert "shuttles" in out

    def test_optimize_pass_subset(self, capsys):
        code = main(
            ["optimize", "random:12:40:2", "--machine", "linear3",
             "--passes", "tighten-gates", "--no-guard"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "tighten-gates" in out
        assert "fuse-merge-split" not in out

    def test_optimize_unknown_pass(self):
        with pytest.raises(SystemExit):
            main(
                ["optimize", "random:12:40:2", "--passes", "frobnicate"]
            )


class TestSweepCommand:
    def test_dry_run_compiles_nothing(self, capsys):
        code = main(
            ["sweep", "--benchmarks", "random:10:30:1", "--machines",
             "linear3,ring3", "--dry-run"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "dry run: nothing compiled" in out
        assert "4 jobs" in out  # 1 circuit x 2 machines x 2 configs
        assert "fingerprint" in out

    def test_sweep_cold_then_warm_cache(self, tmp_path, capsys):
        argv = [
            "sweep", "--benchmarks", "random:10:30:1,random:10:30:2",
            "--machines", "linear3", "--configs", "baseline,optimized",
            "--cache-dir", str(tmp_path / "cache"),
            "--csv", str(tmp_path / "out.csv"),
            "--json", str(tmp_path / "out.json"),
        ]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "0% hit rate" in captured.out
        assert (tmp_path / "out.csv").exists()
        assert (tmp_path / "out.json").exists()

        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "100% hit rate" in captured.out
        # Progress diagnostics are logged to stderr; stdout is reports.
        assert "(cached)" in captured.err
        assert "(cached)" not in captured.out

    def test_sweep_no_cache(self, capsys):
        code = main(
            ["sweep", "--benchmarks", "random:10:30:1", "--machines",
             "linear3", "--configs", "baseline", "--no-cache"]
        )
        assert code == 0
        assert "hit rate" not in capsys.readouterr().out

    def test_sweep_unknown_config(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--benchmarks", "random:10:30:1", "--configs",
                  "frobnicate", "--dry-run"])

    def test_sweep_bad_random_spec(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--benchmarks", "random:ten", "--dry-run"])

    def test_sweep_malformed_random_spec_rejected(self):
        # "random10" (missing colon) must error, not silently become
        # the 64-qubit default circuit.
        with pytest.raises(SystemExit):
            main(["sweep", "--benchmarks", "random10", "--dry-run"])

    def test_sweep_with_passes(self, capsys):
        code = main(
            ["sweep", "--benchmarks", "random:10:30:1", "--machines",
             "linear3", "--configs", "optimized", "--no-cache",
             "--passes", "default"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "this-work+passes" in out
        assert "raw" in out and "removed" in out

    def test_sweep_summary_has_cache_and_phase_lines(self, capsys):
        code = main(
            ["sweep", "--benchmarks", "random:10:30:1", "--machines",
             "linear3", "--configs", "baseline", "--no-cache"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cache: disabled (--no-cache)" in out
        assert "phases: compile" in out

    def test_sweep_quiet_hides_progress(self, capsys):
        code = main(
            ["--quiet", "sweep", "--benchmarks", "random:10:30:1",
             "--machines", "linear3", "--configs", "baseline",
             "--no-cache"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "[1/1]" not in captured.err
        assert "shuttles" in captured.out  # the report itself survives

    def test_sweep_metrics_out(self, tmp_path, capsys):
        import json

        path = tmp_path / "metrics.json"
        code = main(
            ["sweep", "--benchmarks", "random:10:30:1", "--machines",
             "linear3", "--configs", "baseline", "--no-cache",
             "--metrics-out", str(path)]
        )
        assert code == 0
        document = json.loads(path.read_text())
        assert document["metrics"]["counters"]["compile.circuits"] == 1
        assert document["metrics"]["counters"]["batch.jobs"] == 1
        assert any(
            node["name"] == "compile" for node in document["spans"]
        )
        assert f"wrote {path}" in capsys.readouterr().out


class TestTraceCommand:
    def test_trace_text_report(self, capsys):
        code = main(
            ["trace", "random:10:30:1", "--machine", "linear3",
             "--passes", "default"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "trace: Random-uniform-10q-s1" in out
        assert "span tree (wall time):" in out
        assert "compile" in out
        assert "metrics:" in out
        assert "decision events:" in out

    def test_trace_json(self, capsys):
        import json

        code = main(
            ["trace", "random:10:30:1", "--machine", "linear3", "--json"]
        )
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["metrics"]["counters"]["compile.circuits"] == 1
        assert isinstance(document["events"], list)
        assert document["trace_events"] == len(document["events"])

    def test_trace_jsonl(self, tmp_path, capsys):
        from repro.obs import read_jsonl, validate_stream

        path = tmp_path / "events.jsonl"
        code = main(
            ["trace", "random:10:30:1", "--machine", "linear3",
             "--jsonl", str(path)]
        )
        assert code == 0
        events = read_jsonl(str(path))
        assert validate_stream(events) == len(events)

    def test_trace_leaves_obs_disabled(self):
        from repro import obs

        assert main(
            ["trace", "random:10:30:1", "--machine", "linear3"]
        ) == 0
        assert obs.active() is None

    def test_compile_metrics_out(self, tmp_path, capsys):
        import json

        path = tmp_path / "metrics.json"
        code = main(
            ["compile", "random", "--qubits", "10", "--gates", "30",
             "--machine", "linear3", "--metrics-out", str(path)]
        )
        assert code == 0
        document = json.loads(path.read_text())
        # `repro compile` compiles both configs under one observation.
        assert document["metrics"]["counters"]["compile.circuits"] == 2

    def test_optimize_metrics_out_shows_prune_rate(self, tmp_path, capsys):
        import json

        path = tmp_path / "metrics.json"
        assert main(["optimize", "qaoa", "--metrics-out", str(path)]) == 0
        counters = json.loads(path.read_text())["metrics"]["counters"]
        evaluations = counters["passes.tighten-gates.evaluations"]
        pruned = counters["passes.tighten-gates.pruned"]
        assert 0 < pruned <= evaluations  # prune rate = pruned / evaluations
        # L6 is linear: reroute proves itself a no-op without a replay.
        assert counters["passes.reroute.skipped_unique_paths"] == 1

    def test_sweep_unknown_pass(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--benchmarks", "random:10:30:1",
                  "--passes", "frobnicate", "--dry-run"])


class TestLoadCommand:
    def test_load_arguments(self):
        args = build_parser().parse_args(
            ["load", "smoke", "--jobs", "4", "--seed", "9",
             "--count", "6", "--soak", "--report-out", "r.json"]
        )
        assert args.command == "load"
        assert args.scenario == "smoke"
        assert args.jobs == 4
        assert args.seed == 9
        assert args.count == 6
        assert args.soak

    def test_count_and_duration_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["load", "smoke", "--count", "4", "--duration", "2"]
            )

    def test_load_smoke_end_to_end(self, tmp_path, capsys):
        import json

        path = tmp_path / "report.json"
        code = main(
            ["load", "smoke", "--count", "6", "--seed", "3",
             "--report-out", str(path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "load report: smoke" in out
        assert "p50" in out and "soak: " in out
        document = json.loads(path.read_text())
        assert document["counts"]["jobs"] == 6
        assert document["seed"] == 3
        assert {"p50", "p90", "p99"} <= set(document["latency"])
        assert document["throughput"]["windows"]
        assert document["memory"]["samples"]
        assert document["metrics"]["counters"]["load.jobs"] == 6

    def test_load_report_out_creates_parent_dirs(self, tmp_path, capsys):
        import json

        path = tmp_path / "not" / "yet" / "there" / "report.json"
        metrics = tmp_path / "deep" / "er" / "metrics.json"
        code = main(
            ["load", "smoke", "--count", "2", "--seed", "3",
             "--report-out", str(path), "--metrics-out", str(metrics)]
        )
        assert code == 0
        assert json.loads(path.read_text())["counts"]["jobs"] == 2
        assert "metrics" in json.loads(metrics.read_text())

    def test_load_unknown_scenario(self):
        with pytest.raises(SystemExit):
            main(["load", "no-such-scenario"])

    def test_load_scenario_file(self, tmp_path, capsys):
        import json

        from repro.loadgen import PRESETS

        spec = tmp_path / "mini.json"
        document = PRESETS["smoke"].to_dict()
        document["name"] = "mini"
        document["jobs"] = 4
        spec.write_text(json.dumps(document))
        assert main(["load", str(spec)]) == 0
        assert "load report: mini" in capsys.readouterr().out
