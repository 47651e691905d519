"""Unit tests for the throughput-oriented fast_skyline kernel."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import repro
from repro.errors import InvalidParameterError
from repro.fast import fast_skyline
from tests.conftest import brute_skyline_ids


class TestFastSkyline:
    def test_chunk_size_validation(self):
        with pytest.raises(InvalidParameterError):
            fast_skyline(np.ones((2, 2)), chunk_size=0)

    @pytest.mark.parametrize("fixture", ["ui_small", "ac_small", "co_small",
                                         "duplicate_heavy", "with_negatives"])
    def test_matches_oracle_on_every_regime(self, fixture, request):
        dataset = request.getfixturevalue(fixture)
        got = fast_skyline(dataset)
        assert list(got) == brute_skyline_ids(dataset.values)

    @pytest.mark.parametrize("chunk_size", [1, 7, 100, 10_000])
    def test_any_chunk_size(self, chunk_size, ui_small):
        got = fast_skyline(ui_small, chunk_size=chunk_size)
        assert list(got) == brute_skyline_ids(ui_small.values)

    @pytest.mark.parametrize(
        "rows, chunk_size",
        [
            ([[0.0, 0.1 + 1e-4 * k] for k in range(255)] + [[1.0, 1e-17], [1.0, 0.0]], 256),
            ([[1.0, 1e-17], [1.0, 0.0]], 1),
        ],
        ids=["chunk-boundary", "pair"],
    )
    def test_equal_float_sum_dominator_is_scanned_first(self, rows, chunk_size):
        # [1.0, 0.0] dominates [1.0, 1e-17], yet 1.0 + 1e-17 == 1.0.
        values = np.array(rows)
        got = fast_skyline(values, chunk_size=chunk_size)
        assert list(got) == brute_skyline_ids(values)

    def test_single_point(self):
        assert list(fast_skyline(np.ones((1, 3)))) == [0]

    def test_identical_points(self):
        assert list(fast_skyline(np.ones((9, 2)))) == list(range(9))

    @pytest.mark.slow
    def test_much_faster_than_the_counting_oracle(self):
        data = repro.generate("UI", n=8_000, d=6, seed=0)
        started = time.perf_counter()
        fast = fast_skyline(data)
        fast_elapsed = time.perf_counter() - started
        result = repro.skyline(data, algorithm="bruteforce")
        assert list(fast) == list(result.indices)
        assert fast_elapsed * 3 < result.elapsed_seconds


@settings(max_examples=40, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 80), st.integers(1, 5)),
        elements=st.floats(0, 1, allow_nan=False, width=16),
    ),
    st.integers(1, 64),
)
def test_fast_skyline_property(values, chunk_size):
    got = fast_skyline(values, chunk_size=chunk_size)
    assert list(got) == brute_skyline_ids(values)
