"""Unit tests for the UI skyline-size estimator."""

import pytest

import repro
from repro.errors import InvalidParameterError
from repro.stats.estimate import (
    expected_skyline_size,
    expected_skyline_size_asymptotic,
)


def _harmonic_prefixes(n, d):
    """``H_{d-1, i}`` for ``i = 1..n`` by the scalar recurrence (the oracle)."""
    current = [1.0] * n
    for _ in range(d - 1):
        running = 0.0
        previous = current
        current = []
        for i in range(1, n + 1):
            running += previous[i - 1] / i
            current.append(running)
    return current


class TestHarmonicRecurrence:
    def test_vectorised_recurrence_is_bit_identical_to_the_loop(self):
        # H_{k, i} depends only on prefixes up to i, so one oracle run of
        # length 400 covers every n <= 400.
        for d in range(1, 10):
            oracle = _harmonic_prefixes(400, d)
            for n in range(1, 401):
                assert expected_skyline_size(n, d) == oracle[n - 1], (n, d)
        for n, d in ((20_000, 8), (49_999, 12)):
            assert expected_skyline_size(n, d) == _harmonic_prefixes(n, d)[-1]

    def test_returns_a_python_float(self):
        assert type(expected_skyline_size(10, 3)) is float

    def test_d1_is_one(self):
        assert expected_skyline_size(1000, 1) == 1.0

    def test_n1_is_one(self):
        assert expected_skyline_size(1, 7) == 1.0

    def test_d2_is_harmonic_number(self):
        # H_5 = 1 + 1/2 + 1/3 + 1/4 + 1/5
        assert expected_skyline_size(5, 2) == pytest.approx(137 / 60)

    def test_d3_small_case(self):
        # H_{2,3} = sum_{i<=3} H_{1,i}/i = 1/1 + (3/2)/2 + (11/6)/3
        assert expected_skyline_size(3, 3) == pytest.approx(1 + 0.75 + 11 / 18)

    def test_monotone_in_n_and_d(self):
        assert expected_skyline_size(2000, 4) > expected_skyline_size(1000, 4)
        assert expected_skyline_size(1000, 5) > expected_skyline_size(1000, 4)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            expected_skyline_size(0, 3)
        with pytest.raises(InvalidParameterError):
            expected_skyline_size(5, 0)

    def test_asymptotic_tracks_exact_at_large_n(self):
        exact = expected_skyline_size(100_000, 4)
        approx = expected_skyline_size_asymptotic(100_000, 4)
        assert 0.5 < approx / exact < 1.5

    def test_predicts_measured_ui_skylines(self):
        """The estimator lands within ~35% of measured UI skyline sizes."""
        for d in (3, 4, 5):
            sizes = []
            for seed in range(3):
                data = repro.generate("UI", n=3000, d=d, seed=seed)
                sizes.append(repro.skyline(data, algorithm="sdi").size)
            measured = sum(sizes) / len(sizes)
            predicted = expected_skyline_size(3000, d)
            assert 0.65 < predicted / measured < 1.35
