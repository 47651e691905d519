"""Unit and property tests for partially ordered attribute domains."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidParameterError
from repro.extensions.partialorder import (
    PartialOrder,
    _dominates_mixed,
    partial_order_skyline,
)
from repro.stats.counters import DominanceCounter
from tests.conftest import brute_skyline_ids


@pytest.fixture(scope="module")
def sizes():
    return PartialOrder([("S", "M"), ("M", "L")])


@pytest.fixture(scope="module")
def colours():
    # red > pink, red > orange; pink/orange incomparable; blue isolated.
    return PartialOrder([("red", "pink"), ("red", "orange")], values=["blue"])


class TestPartialOrder:
    def test_transitive_closure(self, sizes):
        assert sizes.prefers("S", "L")

    def test_no_self_preference(self, sizes):
        assert not sizes.prefers("M", "M")
        assert sizes.at_least_as_good("M", "M")

    def test_incomparable_values(self, colours):
        assert not colours.prefers("pink", "orange")
        assert not colours.prefers("orange", "pink")
        assert not colours.comparable("pink", "orange")
        assert not colours.comparable("blue", "red")

    def test_domain_membership(self, colours):
        assert "blue" in colours
        assert "green" not in colours
        assert set(colours.domain) == {"red", "pink", "orange", "blue"}

    def test_unknown_value_rejected(self, sizes):
        with pytest.raises(InvalidParameterError):
            sizes.prefers("XL", "S")

    def test_cycle_rejected(self):
        with pytest.raises(InvalidParameterError):
            PartialOrder([("a", "b"), ("b", "a")])

    def test_empty_rejected(self):
        with pytest.raises(InvalidParameterError):
            PartialOrder([])

    def test_rank_matrix(self, sizes):
        ranks = sizes.rank_matrix(["S", "L", "S"])
        assert ranks[0] == ranks[2]
        assert ranks[0] != ranks[1]


class TestMixedDominance:
    def test_numeric_plus_partial(self, sizes):
        assert _dominates_mixed((1.0, "S"), (2.0, "L"), {1: sizes})
        assert not _dominates_mixed((2.0, "S"), (1.0, "L"), {1: sizes})

    def test_incomparable_partial_blocks_dominance(self, colours):
        assert not _dominates_mixed((1.0, "pink"), (2.0, "orange"), {1: colours})

    def test_equal_partial_values_pass_through(self, sizes):
        assert _dominates_mixed((1.0, "M"), (2.0, "M"), {1: sizes})
        assert not _dominates_mixed((1.0, "M"), (1.0, "M"), {1: sizes})


class TestPartialOrderSkyline:
    def test_doc_example(self, sizes):
        rows = [(10.0, "S"), (5.0, "L"), (5.0, "M"), (4.0, "L")]
        assert partial_order_skyline(rows, {1: sizes}) == [0, 2, 3]

    def test_empty_input(self, sizes):
        assert partial_order_skyline([], {1: sizes}) == []

    def test_pure_numeric_matches_oracle(self):
        rng = np.random.default_rng(0)
        values = rng.random((120, 3))
        got = partial_order_skyline([tuple(r) for r in values], orders={})
        assert got == brute_skyline_ids(values)

    def test_all_incomparable_domain_keeps_everything(self, colours):
        rows = [(1.0, "pink"), (1.0, "orange"), (1.0, "blue")]
        assert partial_order_skyline(rows, {1: colours}) == [0, 1, 2]

    def test_dimension_validation(self, sizes):
        with pytest.raises(InvalidParameterError):
            partial_order_skyline([(1.0,)], {5: sizes})

    def test_ragged_rows_rejected(self, sizes):
        with pytest.raises(InvalidParameterError):
            partial_order_skyline([(1.0, "S"), (1.0,)], {1: sizes})

    def test_counter_charged(self, sizes):
        counter = DominanceCounter()
        partial_order_skyline(
            [(1.0, "S"), (2.0, "M"), (3.0, "L")], {1: sizes}, counter=counter
        )
        assert counter.tests > 0

    def test_members_mutually_undominated(self, sizes, colours):
        rng = np.random.default_rng(1)
        size_values = ["S", "M", "L"]
        colour_values = ["red", "pink", "orange", "blue"]
        rows = [
            (
                float(rng.integers(0, 4)),
                size_values[rng.integers(0, 3)],
                colour_values[rng.integers(0, 4)],
            )
            for _ in range(120)
        ]
        orders = {1: sizes, 2: colours}
        sky = partial_order_skyline(rows, orders)
        members = set(sky)
        for i in sky:
            for j in range(len(rows)):
                if i != j:
                    assert not _dominates_mixed(rows[j], rows[i], orders)
        for i in range(len(rows)):
            if i not in members:
                assert any(
                    _dominates_mixed(rows[j], rows[i], orders) for j in members
                )


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.sampled_from(["S", "M", "L"])),
        max_size=40,
    )
)
def test_partial_skyline_equals_total_order_on_a_chain(rows):
    """A chain partial order is a total order: results must match numeric."""
    sizes = PartialOrder([("S", "M"), ("M", "L")])
    rank = {"S": 0.0, "M": 1.0, "L": 2.0}
    got = partial_order_skyline(rows, {1: sizes})
    numeric = [(float(a), rank[b]) for a, b in rows]
    expected = brute_skyline_ids(np.asarray(numeric).reshape(len(rows), 2)) if rows else []
    assert got == expected


def test_importing_the_extensions_package_leaves_networkx_unloaded():
    # The engine's replay stream imports repro.extensions, whose __init__
    # imports this module; networkx must wait for a PartialOrder.
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src), *filter(None, [env.get("PYTHONPATH")])]
    )
    probe = (
        "import sys, repro.extensions.streaming; "
        "print('networkx' in sys.modules); "
        "repro.extensions.PartialOrder([(0, 1)]); "
        "print('networkx' in sys.modules)"
    )
    completed = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout.split() == ["False", "True"]
