"""The RPR rules on synthetic modules, plus noqa suppression semantics."""

import textwrap

import pytest

from repro.analysis.lint import lint_paths, suppressed_codes
from repro.analysis.rules import active_rules, rule_codes


def lint_source(tmp_path, source, filename="mod.py", select=None):
    """Write ``source`` into a temp tree and lint it."""
    path = tmp_path / filename
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return lint_paths([tmp_path], select=select, root=tmp_path)


class TestRPR001UncountedDominance:
    def test_flags_missing_counter(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            from repro.dominance import dominates

            def f(p, q):
                return dominates(p, q)
            """,
        )
        assert [f.rule for f in findings] == ["RPR001"]
        assert findings[0].line == 5

    def test_accepts_positional_counter(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            from repro.dominance import first_dominator

            def f(block, q, c):
                return first_dominator(block, q, c)
            """,
        )
        assert findings == []

    def test_accepts_keyword_counter(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            from repro.dominance import dominating_subspaces

            def f(block, p, c):
                return dominating_subspaces(block, p, counter=c)
            """,
        )
        assert findings == []

    def test_flags_attribute_calls(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            from repro import dominance

            def f(p, q):
                return dominance.weakly_dominates(p, q)
            """,
        )
        assert [f.rule for f in findings] == ["RPR001"]

    def test_dominance_module_itself_is_exempt(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def incomparable(p, q, counter=None):
                return not dominates(p, q) and not dominates(q, p)
            """,
            filename="repro/dominance.py",
        )
        assert findings == []


class TestRPR002RawBitmaskSurgery:
    def test_flags_bitor_on_mask(self, tmp_path):
        findings = lint_source(tmp_path, "mask = mask | 4\n")
        assert [f.rule for f in findings] == ["RPR002"]

    def test_flags_augassign(self, tmp_path):
        findings = lint_source(tmp_path, "subspace_mask = 0\nsubspace_mask |= 2\n")
        assert [f.rule for f in findings] == ["RPR002"]

    def test_flags_invert_on_attribute(self, tmp_path):
        findings = lint_source(tmp_path, "x = ~obj.query_mask\n")
        assert [f.rule for f in findings] == ["RPR002"]

    def test_ignores_non_mask_names(self, tmp_path):
        findings = lint_source(tmp_path, "flags = flags | 4\nsel = ~chosen\n")
        assert findings == []

    def test_bitset_module_is_exempt(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "def union(mask_a, mask_b):\n    return mask_a | mask_b\n",
            filename="repro/structures/bitset.py",
        )
        assert findings == []

    def test_one_finding_per_line(self, tmp_path):
        findings = lint_source(tmp_path, "x = full_mask & ~path_mask\n")
        assert len(findings) == 1


class TestRPR003RegistryHygiene:
    def test_missing_all_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            class Foo:
                name = "foo"
            """,
            filename="algorithms/foo.py",
        )
        assert any("__all__" in f.message for f in findings)

    def test_two_algorithms_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            __all__ = ["Foo", "Bar"]

            class Foo:
                name = "foo"

            class Bar:
                name = "bar"
            """,
            filename="algorithms/foobar.py",
        )
        assert any("2 algorithm classes" in f.message for f in findings)

    def test_algorithm_missing_from_all(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            __all__ = ["helper"]

            class Foo:
                name = "foo"
            """,
            filename="algorithms/foo.py",
        )
        assert any("missing from __all__" in f.message for f in findings)

    def test_clean_module_passes(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            __all__ = ["Foo"]

            class Foo:
                name = "foo"
            """,
            filename="algorithms/foo.py",
        )
        assert findings == []

    def test_rule_only_applies_inside_algorithms_dir(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            class Foo:
                name = "foo"
            """,
            filename="core/foo.py",
        )
        assert findings == []


class TestRPR004NumpyScalarLeak:
    def test_flags_float_subscript_in_loop(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def f(order, coords):
                for i in order:
                    x = float(coords[i])
                return x
            """,
        )
        assert [f.rule for f in findings] == ["RPR004"]
        assert findings[0].severity.value == "warning"

    def test_ignores_float_outside_loop(self, tmp_path):
        findings = lint_source(tmp_path, "x = float(coords[0])\n")
        assert findings == []

    def test_ignores_float_of_call(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def f(rows):
                for row in rows:
                    x = float(row.sum())
                return x
            """,
        )
        assert findings == []


class TestSuppression:
    def test_noqa_with_code_suppresses(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "mask = mask | 4  # noqa: RPR002 — synthetic mask for the suppression test\n",
        )
        assert findings == []

    def test_unjustified_noqa_suppresses_but_fails_hygiene(self, tmp_path):
        findings = lint_source(tmp_path, "mask = mask | 4  # noqa: RPR002\n")
        assert [f.rule for f in findings] == ["RPR011"]
        assert "justif" in findings[0].message.lower()

    def test_noqa_with_other_code_does_not(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "mask = mask | 4  # noqa: RPR001 — wrong code on purpose\n",
        )
        # The RPR002 finding is unsuppressed, and the RPR001 tag is stale.
        assert sorted(f.rule for f in findings) == ["RPR002", "RPR011"]

    def test_bare_noqa_is_ignored(self, tmp_path):
        findings = lint_source(tmp_path, "mask = mask | 4  # noqa\n")
        assert [f.rule for f in findings] == ["RPR002"]

    def test_comma_separated_codes(self):
        assert suppressed_codes("x  # noqa: RPR001, RPR004") == {"RPR001", "RPR004"}


class TestEngine:
    def test_syntax_error_reported_as_rpr000(self, tmp_path):
        findings = lint_source(tmp_path, "def broken(:\n")
        assert [f.rule for f in findings] == ["RPR000"]

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            lint_paths([tmp_path / "nope"], root=tmp_path)

    def test_select_unknown_code_raises(self):
        with pytest.raises(ValueError, match="unknown rule"):
            active_rules(["RPR999"])

    def test_select_filters_rules(self, tmp_path):
        source = """
        from repro.dominance import dominates

        def f(p, q, mask):
            mask = mask | 2
            return dominates(p, q)
        """
        all_rules = lint_source(tmp_path, source)
        only_bitmask = lint_source(tmp_path, source, select=["RPR002"])
        assert {f.rule for f in all_rules} == {"RPR001", "RPR002"}
        assert {f.rule for f in only_bitmask} == {"RPR002"}

    def test_rule_codes_catalogue(self):
        assert rule_codes() == [
            "RPR001",
            "RPR002",
            "RPR003",
            "RPR004",
            "RPR005",
            "RPR006",
            "RPR007",
            "RPR008",
            "RPR009",
            "RPR010",
            "RPR011",
            "RPR012",
        ]


class TestRPR005HandWiredBoost:
    BOOST_SOURCE = """
    from repro.algorithms.sfs import SFS
    from repro.core.boost import SubsetBoost

    def f(dataset):
        return SubsetBoost(SFS(), sigma=2).compute(dataset)
    """

    def test_flags_direct_construction(self, tmp_path):
        findings = lint_source(tmp_path, self.BOOST_SOURCE, select=["RPR005"])
        assert [f.rule for f in findings] == ["RPR005"]
        assert "SkylineEngine" in findings[0].message

    def test_flags_attribute_construction(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            from repro.core import boost

            def f(host):
                return boost.SubsetBoost(host)
            """,
            select=["RPR005"],
        )
        assert [f.rule for f in findings] == ["RPR005"]

    def test_core_and_engine_own_the_wiring(self, tmp_path):
        for filename in ("repro/core/factory.py", "repro/engine/custom.py"):
            findings = lint_source(
                tmp_path, self.BOOST_SOURCE, filename=filename, select=["RPR005"]
            )
            assert findings == []

    def test_noqa_escape_hatch(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            from repro.core.boost import SubsetBoost

            def f(host):
                return SubsetBoost(host)  # noqa: RPR005
            """,
            select=["RPR005"],
        )
        assert findings == []


class TestRPR007HandBuiltIndex:
    INDEX_SOURCE = """
    from repro.core.subset_index import SkylineIndex

    def f(d):
        return SkylineIndex(d)
    """

    def test_flags_direct_construction(self, tmp_path):
        findings = lint_source(tmp_path, self.INDEX_SOURCE, select=["RPR007"])
        assert [f.rule for f in findings] == ["RPR007"]
        assert "SubsetContainer" in findings[0].message

    def test_flags_module_qualified_construction(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            from repro.core import subset_index

            def f(d):
                return subset_index.SkylineIndex(d)
            """,
            select=["RPR007"],
        )
        assert [f.rule for f in findings] == ["RPR007"]

    def test_core_and_engine_own_the_wiring(self, tmp_path):
        for filename in ("repro/core/container.py", "repro/engine/custom.py"):
            findings = lint_source(
                tmp_path, self.INDEX_SOURCE, filename=filename, select=["RPR007"]
            )
            assert findings == []

    def test_noqa_escape_hatch(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            from repro.core.subset_index import SkylineIndex

            def f(d):
                return SkylineIndex(d)  # noqa: RPR007
            """,
            select=["RPR007"],
        )
        assert findings == []


class TestRPR006RawClockRead:
    CLOCK_SOURCE = """
    import time

    def f(body):
        started = time.perf_counter()
        body()
        return time.perf_counter() - started
    """

    def test_flags_raw_perf_counter(self, tmp_path):
        findings = lint_source(tmp_path, self.CLOCK_SOURCE, select=["RPR006"])
        assert [f.rule for f in findings] == ["RPR006", "RPR006"]
        assert "repro.obs.clock" in findings[0].message

    def test_flags_process_time_and_bare_name(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            from time import perf_counter, process_time

            def f():
                return perf_counter(), process_time()
            """,
            select=["RPR006"],
        )
        assert [f.rule for f in findings] == ["RPR006", "RPR006"]

    def test_obs_and_base_own_the_clocks(self, tmp_path):
        for filename in (
            "repro/obs/clock.py",
            "repro/obs/trace.py",
            "repro/algorithms/base.py",
        ):
            findings = lint_source(
                tmp_path, self.CLOCK_SOURCE, filename=filename, select=["RPR006"]
            )
            assert findings == []

    def test_noqa_escape_hatch(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import time

            def f():
                return time.perf_counter()  # noqa: RPR006
            """,
            select=["RPR006"],
        )
        assert findings == []

    def test_monotonic_is_allowed(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import time

            def f(deadline):
                return time.monotonic() < deadline
            """,
            select=["RPR006"],
        )
        assert findings == []
