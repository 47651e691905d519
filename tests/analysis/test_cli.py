"""``python -m repro.analysis`` exit codes, output formats and the baseline."""

import json
import textwrap

import pytest

from repro.analysis.__main__ import main


CLEAN = "x = 1\n"
VIOLATING = textwrap.dedent(
    """
    from repro.dominance import dominates

    def f(p, q):
        return dominates(p, q)
    """
)
WARNING_ONLY = textwrap.dedent(
    """
    def f(order, coords):
        for i in order:
            x = float(coords[i])
        return x
    """
)


@pytest.fixture(autouse=True)
def _isolate_cwd(tmp_path, monkeypatch):
    """Run every CLI test from a scratch cwd.

    The CLI discovers ``analysis-baseline.json`` in the working directory;
    tests must not pick up the repository's own baseline.
    """
    monkeypatch.chdir(tmp_path)


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text(CLEAN)
        assert main([str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().err

    def test_findings_exit_one(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(VIOLATING)
        assert main([str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "RPR001" in captured.out
        assert "1 error" in captured.err

    def test_warnings_pass_unless_strict(self, tmp_path):
        (tmp_path / "warn.py").write_text(WARNING_ONLY)
        assert main([str(tmp_path)]) == 0

    def test_unknown_select_is_usage_error(self, tmp_path):
        (tmp_path / "ok.py").write_text(CLEAN)
        with pytest.raises(SystemExit) as excinfo:
            main(["--select", "RPR999", str(tmp_path)])
        assert excinfo.value.code == 2

    def test_missing_path_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main([str(tmp_path / "nope")])
        assert excinfo.value.code == 2


class TestOutput:
    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("RPR001", "RPR004", "RPR008", "RPR012"):
            assert code in out

    def test_json_format_parses(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(VIOLATING)
        assert main(["--format", "json", str(tmp_path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["rule"] == "RPR001"

    def test_json_always_printed_even_when_clean(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text(CLEAN)
        assert main(["--format", "json", str(tmp_path)]) == 0
        assert json.loads(capsys.readouterr().out) == []

    def test_github_format_annotations(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(VIOLATING)
        assert main(["--format", "github", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert out.startswith("::error file=")
        assert ",line=5::RPR001" in out

    def test_select_narrows_the_gate(self, tmp_path):
        (tmp_path / "bad.py").write_text(VIOLATING)
        assert main(["--select", "RPR002", str(tmp_path)]) == 0


class TestExplain:
    def test_explain_prints_rule(self, capsys):
        assert main(["--explain", "RPR010"]) == 0
        out = capsys.readouterr().out
        assert "RPR010" in out and "counter-threading" in out

    def test_explain_is_case_insensitive(self, capsys):
        assert main(["--explain", "rpr008"]) == 0
        assert "cache-coherence" in capsys.readouterr().out

    def test_explain_unknown_code_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["--explain", "RPR999"])
        assert excinfo.value.code == 2


class TestBaseline:
    def test_write_then_gate_fails_until_justified(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(VIOLATING)
        assert main(["--write-baseline", str(tmp_path)]) == 0
        baseline = tmp_path / "analysis-baseline.json"
        assert baseline.exists()
        # The FIXME placeholder does not buy a pass.
        assert main([str(tmp_path)]) == 1
        assert "without justification" in capsys.readouterr().out

    def test_justified_entry_suppresses(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(VIOLATING)
        main(["--write-baseline", str(tmp_path)])
        baseline = tmp_path / "analysis-baseline.json"
        payload = json.loads(baseline.read_text())
        payload["entries"][0]["reason"] = "legacy site, tracked in ROADMAP"
        baseline.write_text(json.dumps(payload))
        assert main([str(tmp_path)]) == 0
        assert "1 baselined" in capsys.readouterr().err

    def test_reasons_survive_regeneration(self, tmp_path):
        (tmp_path / "bad.py").write_text(VIOLATING)
        main(["--write-baseline", str(tmp_path)])
        baseline = tmp_path / "analysis-baseline.json"
        payload = json.loads(baseline.read_text())
        payload["entries"][0]["reason"] = "kept across regen"
        baseline.write_text(json.dumps(payload))
        main(["--write-baseline", str(tmp_path)])
        regenerated = json.loads(baseline.read_text())
        assert regenerated["entries"][0]["reason"] == "kept across regen"

    def test_stale_entry_warns(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(VIOLATING)
        main(["--write-baseline", str(tmp_path)])
        baseline = tmp_path / "analysis-baseline.json"
        payload = json.loads(baseline.read_text())
        payload["entries"][0]["reason"] = "was justified once"
        baseline.write_text(json.dumps(payload))
        (tmp_path / "bad.py").write_text(CLEAN)  # the finding is gone
        assert main([str(tmp_path)]) == 0  # warning only in the default gate
        captured = capsys.readouterr()
        assert "stale baseline entry" in captured.out
        assert "1 warning" in captured.err

    @pytest.mark.parametrize("flags", [["--no-lint"], ["--select", "RPR002"]])
    def test_a_rule_that_did_not_run_leaves_its_entries_alone(
        self, tmp_path, capsys, flags
    ):
        (tmp_path / "bad.py").write_text(VIOLATING)
        main(["--write-baseline", str(tmp_path)])
        baseline = tmp_path / "analysis-baseline.json"
        payload = json.loads(baseline.read_text())
        payload["entries"][0]["reason"] = "still matches the RPR001 finding"
        baseline.write_text(json.dumps(payload))
        capsys.readouterr()
        # Neither run checks RPR001, so neither can tell its entry is stale.
        assert main([*flags, str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert "stale baseline entry" not in captured.out
        assert "clean" in captured.err

    def test_an_obsolete_entry_is_stale_when_its_rule_ran(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(VIOLATING)
        main(["--write-baseline", str(tmp_path)])
        baseline = tmp_path / "analysis-baseline.json"
        payload = json.loads(baseline.read_text())
        payload["entries"][0]["reason"] = "was justified once"
        baseline.write_text(json.dumps(payload))
        (tmp_path / "bad.py").write_text(CLEAN)  # the finding is gone
        for flags in ([], ["--select", "RPR001"]):
            capsys.readouterr()
            assert main([*flags, str(tmp_path)]) == 0  # a warning
            assert "stale baseline entry" in capsys.readouterr().out

    def test_no_baseline_reports_everything(self, tmp_path):
        (tmp_path / "bad.py").write_text(VIOLATING)
        main(["--write-baseline", str(tmp_path)])
        baseline = tmp_path / "analysis-baseline.json"
        payload = json.loads(baseline.read_text())
        payload["entries"][0]["reason"] = "justified"
        baseline.write_text(json.dumps(payload))
        assert main([str(tmp_path)]) == 0
        assert main(["--no-baseline", str(tmp_path)]) == 1

    def test_no_baseline_conflicts_with_write(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["--no-baseline", "--write-baseline", str(tmp_path)])
        assert excinfo.value.code == 2

    def test_explicit_missing_baseline_is_usage_error(self, tmp_path):
        (tmp_path / "ok.py").write_text(CLEAN)
        with pytest.raises(SystemExit) as excinfo:
            main(["--baseline", str(tmp_path / "nope.json"), str(tmp_path)])
        assert excinfo.value.code == 2
