"""Unit and property tests for the k-skyband operator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import repro
from repro.errors import InvalidParameterError
from repro.extensions.skyband import skyband, skyband_ids
from repro.stats.counters import DominanceCounter


def brute_skyband(values: np.ndarray, k: int) -> dict[int, int]:
    """Reference: exact dominator counts via the O(N^2) definition."""
    n = values.shape[0]
    result = {}
    for i in range(n):
        count = 0
        for j in range(n):
            if j != i and np.all(values[j] <= values[i]) and np.any(values[j] < values[i]):
                count += 1
        if count < k:
            result[i] = count
    return result


class TestSkyband:
    def test_k_validation(self):
        with pytest.raises(InvalidParameterError):
            skyband(np.ones((2, 2)), k=0)

    def test_k1_equals_skyline(self, ui_small):
        band = skyband_ids(ui_small, k=1)
        sky = repro.skyline(ui_small, algorithm="bruteforce")
        assert band == list(sky.indices)

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_matches_bruteforce_counts(self, k):
        rng = np.random.default_rng(k)
        values = rng.random((150, 3))
        assert skyband(values, k=k) == brute_skyband(values, k)

    def test_equal_float_sum_dominator_is_counted(self):
        # [1.0, 0.0] dominates [1.0, 1e-17], yet 1.0 + 1e-17 == 1.0.
        values = np.array([[1.0, 1e-17], [1.0, 0.0]])
        assert skyband(values, k=1) == brute_skyband(values, 1) == {1: 0}

    def test_duplicates(self, duplicate_heavy):
        got = skyband(duplicate_heavy.values, k=2)
        assert got == brute_skyband(duplicate_heavy.values, 2)

    def test_band_grows_with_k(self, ui_small):
        sizes = [len(skyband(ui_small, k=k)) for k in (1, 2, 4)]
        assert sizes == sorted(sizes)
        assert sizes[0] < sizes[2]

    def test_skyband_nests(self, ui_small):
        band2 = set(skyband_ids(ui_small, k=2))
        band4 = set(skyband_ids(ui_small, k=4))
        assert band2 <= band4

    def test_counts_below_k(self, ui_small):
        for point_id, count in skyband(ui_small, k=3).items():
            assert 0 <= count < 3

    def test_counter_charged(self, ui_small):
        counter = DominanceCounter()
        skyband(ui_small, k=2, counter=counter)
        assert counter.tests > 0

    def test_mask_filter_cheaper_than_full_scan(self):
        rng = np.random.default_rng(9)
        values = rng.random((800, 6))
        filtered = DominanceCounter()
        skyband(values, k=2, counter=filtered)
        # A full-scan skyband would test every pair of band members; the
        # mask filter must do strictly better on 6-D uniform data.
        band = brute_skyband(values, 2)
        assert filtered.tests < len(values) * len(band)


@settings(max_examples=40, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 40), st.integers(1, 4)),
        elements=st.floats(0, 1, allow_nan=False, width=16),
    ),
    st.integers(1, 4),
)
def test_skyband_property(values, k):
    assert skyband(values, k=k) == brute_skyband(values, k)
