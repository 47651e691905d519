"""Unit tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import main
from repro.data.io import load_csv, load_npy


class TestGenerate:
    def test_csv(self, tmp_path, capsys):
        out = tmp_path / "ui.csv"
        assert main(["generate", "UI", str(out), "-n", "50", "-d", "3"]) == 0
        loaded = load_csv(out)
        assert loaded.values.shape == (50, 3)
        assert "wrote" in capsys.readouterr().out

    def test_npy(self, tmp_path):
        out = tmp_path / "ac.npy"
        assert main(["generate", "AC", str(out), "-n", "40", "-d", "2"]) == 0
        assert load_npy(out).values.shape == (40, 2)

    def test_real_kind(self, tmp_path):
        out = tmp_path / "nba.csv"
        assert main(["generate", "nba", str(out), "-n", "30"]) == 0
        assert load_csv(out).values.shape == (30, 8)

    def test_bad_kind_reports_error(self, tmp_path, capsys):
        assert main(["generate", "XX", str(tmp_path / "x.csv")]) == 2
        assert "error" in capsys.readouterr().err


class TestRun:
    def test_on_generated_workload(self, capsys):
        assert main(["run", "-a", "sfs", "--kind", "UI", "-n", "80", "-d", "3"]) == 0
        out = capsys.readouterr().out
        assert "skyline" in out
        assert "mean DT" in out

    def test_on_file(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        main(["generate", "UI", str(path), "-n", "60", "-d", "3"])
        capsys.readouterr()
        assert main(["run", "-a", "sdi-subset", "-i", str(path), "--sigma", "2"]) == 0
        assert "sdi-subset" in capsys.readouterr().out

    def test_ids_flag(self, capsys):
        assert main(["run", "-a", "sfs", "-n", "30", "-d", "2", "--ids"]) == 0
        assert "ids" in capsys.readouterr().out

    def test_unknown_algorithm(self, capsys):
        assert main(["run", "-a", "nope", "-n", "30"]) == 2
        assert "error" in capsys.readouterr().err

    def test_ragged_csv_reports_the_line(self, tmp_path, capsys):
        path = tmp_path / "r.csv"
        path.write_text("a,b\n1,2\n3\n")
        assert main(["run", "-i", str(path), "-a", "sfs"]) == 2
        assert f"{path}:3: expected 2 cells, got 1" in capsys.readouterr().err


class TestOthers:
    def test_algorithms_listing(self, capsys):
        assert main(["algorithms"]) == 0
        out = capsys.readouterr().out
        assert "sdi-subset" in out and "bskytree-p" in out

    def test_tune(self, capsys):
        assert main(["tune", "--kind", "UI", "-n", "200", "-d", "4", "--sample", "100"]) == 0
        out = capsys.readouterr().out
        assert "best sigma" in out


class TestExplain:
    def test_explain_prints_the_pinned_plan(self, capsys):
        args = ["run", "-a", "sdi-subset", "--kind", "UI", "-n", "80", "-d", "3"]
        assert main(args + ["--explain"]) == 0
        out = capsys.readouterr().out
        assert "Plan: sdi-subset" in out
        assert "[pinned]" in out

    def test_auto_lets_the_planner_choose(self, capsys):
        args = ["run", "-a", "auto", "--kind", "UI", "-n", "80", "-d", "3"]
        assert main(args + ["--explain"]) == 0
        out = capsys.readouterr().out
        assert "[adaptive]" in out
        assert "signals:" in out


class TestTelemetry:
    ARGS = ["run", "-a", "auto", "--kind", "UI", "-n", "300", "-d", "4"]

    def test_explain_analyze_prints_estimate_vs_actual(self, capsys):
        assert main(self.ARGS + ["--explain-analyze"]) == 0
        out = capsys.readouterr().out
        assert "EXPLAIN ANALYZE:" in out
        assert "skyline_size" in out
        assert "estimated" in out and "actual" in out

    def test_events_flag_writes_parseable_jsonl(self, tmp_path, capsys):
        import json

        path = tmp_path / "events.jsonl"
        assert main(self.ARGS + ["--events", str(path)]) == 0
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        names = [line["name"] for line in lines]
        assert {"prepare", "plan", "execute"} <= set(names)
        assert all(line["dur"] >= 0.0 for line in lines)
        (execute,) = [line for line in lines if line["name"] == "execute"]
        out = capsys.readouterr().out
        size = int(out.split("skyline    : ")[1].split()[0])
        assert execute["args"]["skyline_size"] == size
        assert "events" in out

    def test_prom_flag_writes_exposition(self, tmp_path, capsys):
        path = tmp_path / "metrics.prom"
        assert main(self.ARGS + ["--prom", str(path)]) == 0
        content = path.read_text()
        assert "# TYPE repro_" in content
        assert "repro_counter_" in content  # counter gauges exported
        assert 'repro_query_wall_s_bucket{le="+Inf"} 1' in content  # histogram
        assert "metrics" in capsys.readouterr().out

    def test_metrics_include_planner_accuracy_ratios(self, tmp_path):
        import json

        path = tmp_path / "metrics.json"
        args = self.ARGS + ["--explain-analyze", "--metrics", str(path)]
        assert main(args) == 0
        metrics = json.loads(path.read_text())
        assert "planner.skyline_size_ratio" in metrics
        assert metrics["planner.skyline_size_ratio"] > 0
