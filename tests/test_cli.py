"""Tests for the command-line interface (`python -m repro`)."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_cache_defaults(self):
        args = build_parser().parse_args(["cache"])
        assert args.dataset == "cora"
        assert args.mechanism == ["victim", "miss", "stream"]
        assert args.policy == "vertex_order"

    def test_cache_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "--policy", "belady"])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.dataset == "cora"
        assert args.model == "gcn"
        assert args.design is None

    def test_rejects_unknown_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--dataset", "imagenet"])

    def test_rejects_unknown_model(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--model", "transformer"])


    @pytest.mark.parametrize(
        "command", ["simulate", "plan", "compare", "designs", "profile", "cache", "sweep", "tune"]
    )
    @pytest.mark.parametrize(
        "flag, value",
        [("--scale", "0"), ("--scale", "1.5"), ("--scale", "nan"), ("--scale", "x"),
         ("--seed", "-1"), ("--seed", "0.5")],
    )
    def test_rejects_bad_scale_and_seed(self, command, flag, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, flag, value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if "error:" in line] == [
            f"repro {command}: error: argument {flag}: invalid {flag[2:]} {value!r}: "
            + ("must be in (0, 1]" if flag == "--scale" else "must be an integer >= 0")
        ]
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            # User-supplied files and stores that cannot be read or written.
            ["store", "verify", "--store", "{tmp}"],
            ["store", "repair", "--store", "{tmp}"],
            ["store", "verify", "--store", "{tmp}/missing.jsonl"],
            ["tune", "--store", "{tmp}"],
            ["check", "--paths", "{tmp}/missing"],
            ["profile", "--scale", "0.05", "--trace-out", "{tmp}/missing/t.json"],
            ["sweep", "--faults", '{"oops": 1}', "--store", "{tmp}/s.jsonl"],
            ["sweep", "--faults", '{"specs": 1}', "--store", "{tmp}/s.jsonl"],
            ["sweep", "--faults", '{"specs": [{"match": 3}]}', "--store", "{tmp}/s.jsonl"],
            ["sweep", "--faults", '{"specs": [{"times": "x"}]}', "--store", "{tmp}/s.jsonl"],
            # Counts, durations and lists checked by argparse converters.
            ["tune", "--mac-budget", "0"],
            ["tune", "--mac-budget", "-5"],
            ["tune", "--jobs", "0"],
            ["tune", "--generations", "0"],
            ["sweep", "--designs", ""],
            ["sweep", "--chips", "a"],
            ["sweep", "--chips", "0"],
            ["sweep", "--jobs", "0"],
            ["sweep", "--max-attempts", "0"],
            ["sweep", "--timeout", "-1"],
            ["sweep", "--datasets", "foo"],
            ["plan", "--chips", "0"],
            ["compare", "--chips", "-1"],
            ["cache", "--feature-length", "0"],
            ["cache", "--mechanism", "foo"],
            ["cache", "--stream-depth", "0"],
        ],
        ids=" ".join,
    )
    def test_bad_arguments_fail_with_one_error_line(self, argv, tmp_path, capsys):
        argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
        try:
            code = main(argv)
        except SystemExit as exit:
            code = exit.code
        assert code == 2
        err = capsys.readouterr().err
        command = " ".join(arg for arg in argv[:2] if not arg.startswith("-"))
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert errors[0].startswith(f"repro {command}: error:")
        assert "Traceback" not in err


class TestCommands:
    def test_datasets_command(self, capsys):
        assert main(["datasets"]) == 0
        output = capsys.readouterr().out
        assert "Cora" in output and "Reddit" in output

    def test_simulate_command_table(self, capsys):
        exit_code = main(
            ["simulate", "--dataset", "cora", "--model", "gcn", "--scale", "0.1", "--seed", "3"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Per-phase breakdown" in output
        assert "weighting" in output and "aggregation" in output

    def test_simulate_command_json(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "--dataset",
                    "cora",
                    "--model",
                    "gat",
                    "--scale",
                    "0.1",
                    "--json",
                ]
            )
            == 0
        )
        report = json.loads(capsys.readouterr().out)
        assert report["model"] == "GAT"
        assert report["total_cycles"] > 0

    def test_simulate_with_design_and_roofline(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "--dataset",
                    "cora",
                    "--model",
                    "gcn",
                    "--scale",
                    "0.1",
                    "--design",
                    "A",
                    "--roofline",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "Roofline classification" in output
        assert "compute-bound fraction" in output

    def test_plan_command_table(self, capsys):
        assert main(["plan", "--dataset", "cora", "--model", "gat", "--scale", "0.1"]) == 0
        output = capsys.readouterr().out
        assert "Inference plan: GAT" in output
        assert "WeightingOp" in output and "AttentionOp" in output and "AggregationOp" in output
        assert "preprocess(degree_binning)" in output

    def test_plan_command_json(self, capsys):
        assert (
            main(["plan", "--dataset", "cora", "--model", "diffpool", "--scale", "0.1", "--json"])
            == 0
        )
        document = json.loads(capsys.readouterr().out)
        assert document["family"] == "diffpool"
        assert len(document["layers"]) == 3
        assert document["layers"][2]["ops"][0]["op"] == "DenseMatmulOp"

    def test_plan_command_every_family(self, capsys):
        from repro.models import MODEL_FAMILIES

        for family in MODEL_FAMILIES:
            assert main(["plan", "--dataset", "cora", "--model", family, "--scale", "0.1"]) == 0
        assert "Inference plan" in capsys.readouterr().out

    def test_compare_command(self, capsys):
        assert main(["compare", "--dataset", "cora", "--model", "gcn", "--scale", "0.1"]) == 0
        output = capsys.readouterr().out
        assert "PyG-CPU" in output and "AWB-GCN" in output and "EnGN" in output

    def test_compare_command_json(self, capsys):
        assert (
            main(["compare", "--dataset", "cora", "--model", "gcn", "--scale", "0.1", "--json"])
            == 0
        )
        document = json.loads(capsys.readouterr().out)
        assert document["model"] == "GCN"
        platforms = [row["platform"] for row in document["rows"]]
        assert platforms[0] == "GNNIE" and "EnGN" in platforms
        assert all(row["supported"] for row in document["rows"])
        assert all(row["speedup"] >= 1.0 for row in document["rows"])

    def test_compare_command_json_unsupported_platforms_stay_typed(self, capsys):
        assert (
            main(["compare", "--dataset", "cora", "--model", "gat", "--scale", "0.1", "--json"])
            == 0
        )
        rows = json.loads(capsys.readouterr().out)["rows"]
        unsupported = [row for row in rows if not row["supported"]]
        assert {row["platform"] for row in unsupported} == {"HyGCN", "AWB-GCN", "EnGN"}
        # Numeric fields are null, never placeholder strings, so consumers
        # can aggregate without type checks.
        assert all(row["latency_ms"] is None and row["speedup"] is None for row in unsupported)
        assert all(
            isinstance(row["speedup"], float) for row in rows if row["supported"]
        )

    def test_compare_multi_chip_json_divides_baseline_by_fleet_latency(self, capsys):
        from repro.datasets import build_dataset
        from repro.plan import executor, lower
        from repro.scaleout import execute_scaleout
        from repro.sim import GNNIEExecutor

        argv = ["compare", "--dataset", "cora", "--model", "gcn", "--scale", "0.1"]
        assert main(argv + ["--chips", "2", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["chips"] == 2
        rows = document["rows"]
        assert len(rows) == 6
        assert rows[0]["platform"] == "GNNIE x2"
        graph = build_dataset("cora", scale=0.1, seed=0)
        plan = lower("gcn", graph)
        fleet = execute_scaleout(GNNIEExecutor(), plan, graph, None, chips=2).latency_seconds
        assert rows[0]["latency_ms"] == round(fleet * 1e3, 4)
        # The baselines run single-chip; each ratio is over the fleet latency.
        for row, backend in zip(rows[1:], ("pyg-cpu", "pyg-gpu", "hygcn", "awb-gcn", "engn")):
            platform = executor(backend)
            baseline = platform.execute(plan, graph).latency_seconds
            assert row["platform"] == platform.name
            assert row["supported"] is True
            assert row["latency_ms"] == round(baseline * 1e3, 4)
            assert row["speedup"] == round(baseline / fleet, 2)

    def test_compare_single_chip_json_matches_speedup_rows(self, capsys):
        from repro.analysis import speedup_rows
        from repro.sweep import SweepCell, run_cell

        backends = ("gnnie", "pyg-cpu", "pyg-gpu", "hygcn", "awb-gcn", "engn")
        argv = ["compare", "--dataset", "cora", "--model", "gat", "--scale", "0.1", "--json"]
        assert main(argv) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        cell_rows = [run_cell(SweepCell("cora", 0.1, 0, "gat", backend)) for backend in backends]
        entries = {entry["backend"]: entry for entry in speedup_rows(cell_rows)}
        assert len(rows) == len(backends)
        assert rows[0]["latency_ms"] == round(cell_rows[0]["metrics"]["latency_seconds"] * 1e3, 4)
        for row, cell_row in zip(rows[1:], cell_rows[1:]):
            assert row["supported"] is cell_row["supported"]
            entry = entries.get(cell_row["backend"])
            assert (entry is not None) is cell_row["supported"]
            if entry is not None:
                assert row["speedup"] == round(entry["speedup"], 2)

    def test_compare_marks_unsupported_platforms(self, capsys):
        assert main(["compare", "--dataset", "cora", "--model", "gat", "--scale", "0.1"]) == 0
        output = capsys.readouterr().out
        assert "unsupported" in output

    def test_designs_command(self, capsys):
        assert main(["designs", "--dataset", "cora", "--model", "gcn", "--scale", "0.1"]) == 0
        output = capsys.readouterr().out
        assert "Design A" in output and "Design E" in output

    def test_cache_command_per_mechanism_table(self, capsys):
        assert main(["cache", "--dataset", "cora", "--mechanism", "victim,stream"]) == 0
        output = capsys.readouterr().out
        assert "Miss-path hierarchy" in output
        assert "victim" in output and "stream" in output and "victim+stream" in output
        assert "dram_random_avoided" in output and "hit_rate_pct" in output

    def test_cache_command_all_policies(self, capsys):
        assert (
            main(
                [
                    "cache",
                    "--dataset",
                    "cora",
                    "--scale",
                    "0.2",
                    "--policy",
                    "all",
                    "--mechanism",
                    "stream",
                    "--stream-buffers",
                    "2",
                    "--stream-depth",
                    "32",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "degree_aware" in output and "vertex_order" in output
        assert "mru" in output and "static_partition" in output

    def test_cache_command_rejects_unknown_mechanism(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["cache", "--dataset", "cora", "--mechanism", "belady"])
        assert excinfo.value.code == 2
        assert "unknown mechanisms" in capsys.readouterr().err


class TestProfileCommand:
    def test_parser_accepts_family_and_model_alias(self):
        assert build_parser().parse_args(["profile", "--family", "gat"]).model == "gat"
        assert build_parser().parse_args(["profile", "--model", "gat"]).model == "gat"

    def test_profile_table_output(self, capsys):
        assert main(["profile", "--dataset", "cora", "--family", "gcn", "--scale", "0.2"]) == 0
        output = capsys.readouterr().out
        assert "Span attribution" in output
        assert "inference/layer0/op:weighting" in output
        assert "Metrics" in output and "executor.cache_sim.runs" in output

    def test_profile_json_report(self, capsys):
        assert main(
            ["profile", "--dataset", "cora", "--family", "gcn", "--scale", "0.2", "--json"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        op_cycles = sum(
            row["cycles"] for row in report["spans"] if "/op:" in row["span"] or "preprocess" in row["span"]
        )
        assert op_cycles == report["summary"]["cycles"]
        assert report["trace"] is None
        assert any(row["name"] == "executor.cache_sim.runs" for row in report["metrics"])

    def test_profile_trace_and_metrics_files(self, tmp_path, capsys):
        from repro.obs import assert_valid_chrome_trace

        trace_path = tmp_path / "t.json"
        metrics_path = tmp_path / "m.csv"
        assert main(
            [
                "profile",
                "--dataset", "cora",
                "--family", "gcn",
                "--scale", "0.2",
                "--trace-out", str(trace_path),
                "--metrics-out", str(metrics_path),
            ]
        ) == 0
        document = json.loads(trace_path.read_text())
        assert_valid_chrome_trace(document)
        # The acceptance invariant: per-phase-op modeled cycles in the trace
        # sum to the inference's total_cycles (stored in the metadata).
        op_cycles = sum(
            event["args"].get("cycles", 0)
            for event in document["traceEvents"]
            if event["ph"] == "B" and event.get("cat") == "op"
        )
        assert op_cycles == document["metadata"]["total_cycles"]
        # Layer tracks: thread metadata names one row per layer.
        thread_names = {
            event["args"]["name"]
            for event in document["traceEvents"]
            if event["ph"] == "M" and event["name"] == "thread_name"
        }
        assert "layer 0" in thread_names and "inference" in thread_names
        assert metrics_path.read_text().startswith("name,kind,labels,value")
        assert str(trace_path) in capsys.readouterr().out

    def test_profile_design_override(self, capsys):
        assert main(
            ["profile", "--dataset", "cora", "--family", "gcn", "--scale", "0.2",
             "--design", "E", "--json"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["summary"]["config"].startswith("Design E")
