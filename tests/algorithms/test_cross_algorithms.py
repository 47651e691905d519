"""Integration: every algorithm returns the oracle skyline on every regime.

This is the library's central correctness net: all 20 registry entries
(plain, baseline, and boosted) are run over uniform, correlated,
anti-correlated, duplicate-heavy, and negative-valued data and must agree
exactly with an independent brute-force oracle.  Two seeded searches over
sub-ulp ties (``1e-17`` beside ``±1`` vanishes in a float sum or a corner
shift) hold every name and the adaptive engine to the same oracle.
"""

import functools

import numpy as np
import pytest

import repro
from repro.algorithms.registry import available_algorithms
from tests.conftest import brute_skyline_ids

ALL_ALGORITHMS = available_algorithms()


@pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
class TestAgainstOracle:
    def test_ui(self, algorithm, ui_small):
        got = repro.skyline(ui_small, algorithm=algorithm)
        assert list(got.indices) == brute_skyline_ids(ui_small.values)

    def test_ac(self, algorithm, ac_small):
        got = repro.skyline(ac_small, algorithm=algorithm)
        assert list(got.indices) == brute_skyline_ids(ac_small.values)

    def test_co(self, algorithm, co_small):
        got = repro.skyline(co_small, algorithm=algorithm)
        assert list(got.indices) == brute_skyline_ids(co_small.values)

    def test_duplicates(self, algorithm, duplicate_heavy):
        got = repro.skyline(duplicate_heavy, algorithm=algorithm)
        assert list(got.indices) == brute_skyline_ids(duplicate_heavy.values)

    def test_negative_values(self, algorithm, with_negatives):
        got = repro.skyline(with_negatives, algorithm=algorithm)
        assert list(got.indices) == brute_skyline_ids(with_negatives.values)

    def test_single_point(self, algorithm):
        got = repro.skyline(np.array([[1.0, 2.0, 3.0]]), algorithm=algorithm)
        assert list(got.indices) == [0]

    def test_all_identical_points(self, algorithm):
        values = np.ones((12, 3))
        got = repro.skyline(values, algorithm=algorithm)
        assert list(got.indices) == list(range(12))

    def test_totally_ordered_chain(self, algorithm):
        values = np.array([[float(i)] * 4 for i in range(20)])
        got = repro.skyline(values, algorithm=algorithm)
        assert list(got.indices) == [0]

    def test_2d(self, algorithm):
        rng = np.random.default_rng(77)
        values = rng.random((150, 2))
        got = repro.skyline(values, algorithm=algorithm)
        assert list(got.indices) == brute_skyline_ids(values)


#: Seeded searches: ``(seed, datasets, levels)``; each dataset has 2–29 rows
#: and 2–4 columns drawn from the levels.
_TIE_SEARCHES = {
    "levels-0-1e-17-1-2": (0, 400, (0.0, 1e-17, 1.0, 2.0)),
    "levels-neg1-0-1e-17-1": (1, 300, (-1.0, 0.0, 1e-17, 1.0)),
}


@functools.cache
def _tie_search(search):
    seed, count, levels = _TIE_SEARCHES[search]
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(count):
        n, d = int(rng.integers(2, 30)), int(rng.integers(2, 5))
        values = rng.choice(np.array(levels), size=(n, d))
        cases.append((values, brute_skyline_ids(values)))
    return cases


@pytest.mark.parametrize("search", sorted(_TIE_SEARCHES))
@pytest.mark.parametrize("algorithm", [*ALL_ALGORITHMS, None], ids=str)
def test_seeded_sub_ulp_tie_search(algorithm, search):
    """``None`` is the engine's adaptive plan."""
    wrong = [
        values.tolist()
        for values, expected in _tie_search(search)
        if list(repro.skyline(values, algorithm=algorithm).indices) != expected
    ]
    assert not wrong, f"{len(wrong)} wrong datasets, first: {wrong[0]}"


#: Minimal datasets on which a dominator ties its victim on every float
#: key and sum; each one misordered some scan before ``scan_order``.
_SUB_ULP_CASES = (
    ([[1.0, 1e-17], [0.0, 2.0], [1.0, 0.0]], [1, 2]),
    ([[1.0, 1e-17], [1.0, 0.0]], [1]),
    ([[-1.0, 1e-17], [-1.0, 0.0]], [1]),
    ([[1e-17, -1.0], [-1.0, 1e-17], [-1.0, 0.0]], [0, 2]),
    ([[1e-17, 1.0, 1.0], [0.0, 1.0, 1.0], [1.0, 0.0, 2.0], [2.0, 2.0, 0.0]], [1, 2, 3]),
)


@pytest.mark.parametrize("case", range(len(_SUB_ULP_CASES)))
@pytest.mark.parametrize("algorithm", [*ALL_ALGORITHMS, None], ids=str)
def test_scan_puts_a_sub_ulp_dominator_first(algorithm, case):
    rows, expected = _SUB_ULP_CASES[case]
    values = np.array(rows)
    assert brute_skyline_ids(values) == expected
    assert list(repro.skyline(values, algorithm=algorithm).indices) == expected


@pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
def test_result_metadata(algorithm, ui_small):
    result = repro.skyline(ui_small, algorithm=algorithm)
    assert result.algorithm == algorithm
    assert result.cardinality == ui_small.cardinality
    assert result.elapsed_seconds >= 0
    assert result.dominance_tests == result.counter.tests
    assert np.all(np.diff(result.indices) > 0)  # sorted, unique


def test_skyline_is_idempotent(ui_small):
    """The skyline of a skyline is itself (a classic invariant)."""
    first = repro.skyline(ui_small, algorithm="sfs")
    reduced = ui_small.values[first.indices]
    second = repro.skyline(reduced, algorithm="sfs")
    assert list(second.indices) == list(range(first.size))


def test_skyline_in_result_contains(ui_small):
    result = repro.skyline(ui_small, algorithm="sfs")
    sky = set(int(i) for i in result.indices)
    for pid in list(sky)[:5]:
        assert pid in result
    for pid in range(ui_small.cardinality):
        if pid not in sky:
            assert pid not in result
            break
