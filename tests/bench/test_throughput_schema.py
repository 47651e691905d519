"""Schema-v2 report handling of ``benchmarks/bench_throughput.py``.

The script is not a package module, so it is loaded from its file path;
these tests exercise the pure report-file helpers (load/upsert/key) that
implement the dedup-on-rerun contract — no benchmark workloads run here.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "bench_throughput.py"
)


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_throughput", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestReportSchema:
    def test_missing_file_yields_fresh_report(self, bench, tmp_path):
        report = bench.load_report(tmp_path / "nope.json")
        assert report == {
            "schema_version": bench.SCHEMA_VERSION,
            "scenarios": {},
        }

    def test_legacy_report_discarded(self, bench, tmp_path):
        target = tmp_path / "BENCH.json"
        target.write_text(json.dumps({"config": {}, "hosts": {}}))
        report = bench.load_report(target)
        assert report["schema_version"] == bench.SCHEMA_VERSION
        assert report["scenarios"] == {}

    def test_corrupt_file_discarded(self, bench, tmp_path):
        target = tmp_path / "BENCH.json"
        target.write_text("{not json")
        assert bench.load_report(target)["scenarios"] == {}

    def test_upsert_replaces_not_appends(self, bench, tmp_path):
        target = tmp_path / "BENCH.json"
        report = bench.load_report(target)
        key = bench.scenario_key("batched_vs_scalar", "UI", 100, 4, 0)
        bench.upsert(report, key, {"speedup": 1.0})
        bench.upsert(report, key, {"speedup": 2.0})
        assert len(report["scenarios"]) == 1
        assert report["scenarios"][key]["speedup"] == 2.0

    def test_distinct_configs_coexist(self, bench):
        report = {"schema_version": bench.SCHEMA_VERSION, "scenarios": {}}
        bench.upsert(
            report, bench.scenario_key("batched_vs_scalar", "UI", 100, 4, 0), {}
        )
        bench.upsert(
            report, bench.scenario_key("batched_vs_scalar", "UI", 4000, 6, 0), {}
        )
        bench.upsert(
            report, bench.scenario_key("block_parallel", "UI", 100, 4, 0), {}
        )
        assert len(report["scenarios"]) == 3

    def test_roundtrip_preserves_other_scenarios(self, bench, tmp_path):
        target = tmp_path / "BENCH.json"
        first = bench.load_report(target)
        bench.upsert(
            first, bench.scenario_key("phases", "UI", 100, 4, 0), {"a": 1}
        )
        target.write_text(json.dumps(first))
        second = bench.load_report(target)
        bench.upsert(
            second, bench.scenario_key("phases", "CO", 100, 4, 0), {"b": 2}
        )
        assert len(second["scenarios"]) == 2

    def test_entries_are_timestamped(self, bench):
        report = {"schema_version": bench.SCHEMA_VERSION, "scenarios": {}}
        key = bench.scenario_key("phases", "UI", 1, 1, 0)
        bench.upsert(report, key, {})
        assert isinstance(report["scenarios"][key]["recorded_unix"], int)


class TestTrajectoryHistory:
    def test_upsert_accumulates_history_samples(self, bench):
        report = {"schema_version": bench.SCHEMA_VERSION, "scenarios": {}}
        key = bench.scenario_key("repeated_queries", "UI", 100, 4, 0)
        bench.upsert(report, key, {"cold_s": 1.0})
        bench.upsert(report, key, {"cold_s": 2.0})
        history = report["scenarios"][key]["history"]
        assert len(history) == 2
        assert history[0]["metrics"]["cold_s"] == 1.0
        assert history[1]["metrics"]["cold_s"] == 2.0

    def test_history_never_nests_inside_samples(self, bench):
        # trajectory_sample collects metrics, not the history subtree —
        # otherwise the report would grow quadratically run over run.
        report = {"schema_version": bench.SCHEMA_VERSION, "scenarios": {}}
        key = bench.scenario_key("repeated_queries", "UI", 100, 4, 0)
        bench.upsert(report, key, {"cold_s": 1.0})
        bench.upsert(report, key, {"cold_s": 2.0})
        for sample in report["scenarios"][key]["history"]:
            assert set(sample) == {"recorded_unix", "plan", "metrics"}
            assert "history" not in sample["metrics"]

    def test_history_capped_at_max(self, bench):
        report = {"schema_version": bench.SCHEMA_VERSION, "scenarios": {}}
        key = bench.scenario_key("phases", "UI", 1, 1, 0)
        for i in range(bench.MAX_HISTORY + 5):
            bench.upsert(report, key, {"cold_s": float(i)})
        history = report["scenarios"][key]["history"]
        assert len(history) == bench.MAX_HISTORY
        # Oldest samples rotated out; the newest survives.
        assert history[-1]["metrics"]["cold_s"] == float(bench.MAX_HISTORY + 4)

    def test_plan_carried_into_samples(self, bench):
        report = {"schema_version": bench.SCHEMA_VERSION, "scenarios": {}}
        key = bench.scenario_key("repeated_queries", "UI", 100, 4, 0)
        plan = {"algorithm": "sfs-subset", "workers": 1}
        bench.upsert(report, key, {"cold_s": 1.0, "plan": plan})
        assert report["scenarios"][key]["history"][0]["plan"] == plan

    def test_plan_fields_extracts_executed_plan(self, bench):
        class Plan:
            label = "sdi-subset"
            incremental = None
            parallel_strategy = "blocks"
            workers = 4

        fields = bench.plan_fields(Plan())
        assert fields == {
            "algorithm": "sdi-subset",
            "incremental": False,
            "parallel_strategy": "blocks",
            "workers": 4,
        }


class TestScenarios:
    def test_scenarios_in_run_order(self, bench):
        assert bench.SCENARIOS == (
            "batched_vs_scalar",
            "block_parallel",
            "repeated_queries",
            "incremental_repair",
            "phases",
        )

    def test_pr2_gate_judges_the_batched_scan(self, bench, monkeypatch):
        # Shrink the canonical configuration so the gate runs in a test;
        # baselines far above or below any real scan time fix the verdict.
        config = ("UI", 300, 4, 0)
        monkeypatch.setattr(bench, "PR2_BASELINE_CONFIG", config)
        monkeypatch.setattr(bench, "PR2_BATCHED_BASELINE_S", dict.fromkeys(bench.HOSTS, 1e3))
        report, ok = bench.run_batched_vs_scalar(*config, repeats=1)
        assert ok and report["gate_pass"] is True
        assert report["gate_speedup"] == bench.PR2_GATE_SPEEDUP == 1.5
        assert all("speedup_vs_pr2" in host for host in report["hosts"].values())
        monkeypatch.setattr(bench, "PR2_BATCHED_BASELINE_S", dict.fromkeys(bench.HOSTS, 1e-9))
        report, ok = bench.run_batched_vs_scalar(*config, repeats=1)
        assert not ok and report["gate_pass"] is False
        # Off the canonical configuration the gate is not evaluated.
        report, ok = bench.run_batched_vs_scalar("UI", 300, 3, 0, repeats=1)
        assert ok and "gate_pass" not in report


class TestGateStatus:
    def test_block_parallel_skip_records_explicit_reason(self, bench):
        # The schema contract: a skipped wall gate is never a silent null —
        # run_block_parallel writes gate_pass=None together with a
        # skip_reason string (asserted end-to-end by the CI smoke run);
        # describe_gates must surface that reason.
        entry = {
            "gate_pass": None,
            "skip_reason": "cpu_count=1 < workers=4: no cores",
            "dt_gate_pass": True,
            "identical": True,
        }
        status = bench.describe_gates(entry)
        assert "wall-gate=SKIPPED (cpu_count=1 < workers=4: no cores)" in status
        assert "dt-gate=PASS" in status
        assert "identical=yes" in status

    def test_describe_gates_handles_legacy_gate_skipped(self, bench):
        entry = {"gate_pass": None, "gate_skipped": "old reason"}
        assert "wall-gate=SKIPPED (old reason)" in bench.describe_gates(entry)

    def test_describe_gates_pass_fail_and_bare_entries(self, bench):
        assert "wall-gate=PASS" in bench.describe_gates({"gate_pass": True})
        assert "wall-gate=FAIL" in bench.describe_gates({"gate_pass": False})
        assert "dt-gate=FAIL" in bench.describe_gates({"dt_gate_pass": False})
        assert "warm-2x=PASS" in bench.describe_gates({"meets_2x": True})
        assert "identical=NO" in bench.describe_gates({"identical": False})
        assert bench.describe_gates({}) == "no gates"

    def test_list_scenarios_prints_every_recorded_key(
        self, bench, tmp_path, capsys
    ):
        target = tmp_path / "BENCH.json"
        report = bench.load_report(target)
        key = bench.scenario_key("block_parallel", "UI", 1000, 6, 0)
        bench.upsert(
            report,
            key,
            {"gate_pass": True, "dt_gate_pass": True, "identical": True},
        )
        target.write_text(json.dumps(report))
        assert bench.main(["--list-scenarios", "--out", str(target)]) == 0
        out = capsys.readouterr().out
        assert key in out
        assert "wall-gate=PASS" in out

    def test_list_scenarios_marks_retired_scenarios(self, bench, tmp_path, capsys):
        target = tmp_path / "BENCH.json"
        report = bench.load_report(target)
        retired = bench.scenario_key("flat_vs_map", "UI", 1000, 6, 0)
        current = bench.scenario_key("batched_vs_scalar", "UI", 1000, 6, 0)
        bench.upsert(report, retired, {"gate_pass": True})
        bench.upsert(report, current, {"identical": True})
        target.write_text(json.dumps(report))
        assert bench.main(["--list-scenarios", "--out", str(target)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert f"{retired}  [retired: history only]" in lines
        assert current in lines

    def test_list_scenarios_empty_report(self, bench, tmp_path, capsys):
        assert (
            bench.main(["--list-scenarios", "--out", str(tmp_path / "x.json")])
            == 0
        )
        assert "no recorded scenarios" in capsys.readouterr().out
