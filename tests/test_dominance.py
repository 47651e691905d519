"""Unit tests for the dominance kernels and their exact test accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import dominance
from repro.dominance import (
    dominance_matrix,
    dominates,
    dominating_subspace,
    dominating_subspaces,
    first_dominator,
    first_dominator_prefix,
    incomparable,
    scan_order,
    weakly_dominates,
)
from repro.stats.counters import DominanceCounter

P = np.array([1.0, 2.0, 3.0])
Q = np.array([2.0, 2.0, 4.0])


class TestDominates:
    def test_strict_dominance(self):
        assert dominates(P, Q)

    def test_not_dominated_backwards(self):
        assert not dominates(Q, P)

    def test_equal_points_do_not_dominate(self):
        assert not dominates(P, P.copy())

    def test_weak_inequality_with_one_strict_dimension(self):
        assert dominates(np.array([1.0, 2.0]), np.array([1.0, 3.0]))

    def test_incomparable_points(self):
        a = np.array([1.0, 5.0])
        b = np.array([5.0, 1.0])
        assert not dominates(a, b)
        assert not dominates(b, a)
        assert incomparable(a, b)

    def test_counter_charged_once(self):
        counter = DominanceCounter()
        dominates(P, Q, counter)
        assert counter.tests == 1

    def test_weakly_dominates_accepts_equality(self):
        assert weakly_dominates(P, P.copy())
        assert weakly_dominates(P, Q)
        assert not weakly_dominates(Q, P)


class TestDominatingSubspace:
    def test_strict_win_dimensions_only(self):
        # q beats p in dim 0; ties and losses are excluded (Definition 3.4).
        q = np.array([0.0, 2.0, 9.0])
        assert dominating_subspace(q, P) == 0b001

    def test_empty_when_weakly_dominated(self):
        # Q is nowhere strictly better than P, so D_{Q<P} is empty.
        assert dominating_subspace(Q, P) == 0
        assert dominating_subspace(P, P.copy()) == 0

    def test_full_mask_means_domination_of_pivot(self):
        q = np.array([0.0, 0.0, 0.0])
        assert dominating_subspace(q, P) == 0b111

    def test_counter_charged(self):
        counter = DominanceCounter()
        dominating_subspace(P, Q, counter)
        assert counter.tests == 1

    def test_vectorised_matches_scalar(self):
        rng = np.random.default_rng(5)
        block = rng.random((40, 6))
        pivot = rng.random(6)
        vector = dominating_subspaces(block, pivot)
        for row, mask in zip(block, vector):
            assert dominating_subspace(row, pivot) == int(mask)

    def test_vectorised_counter_charged_per_row(self):
        counter = DominanceCounter()
        dominating_subspaces(np.zeros((7, 3)), np.ones(3), counter)
        assert counter.tests == 7


class TestFirstDominator:
    def test_empty_block(self):
        counter = DominanceCounter()
        assert first_dominator(np.empty((0, 3)), P, counter) == -1
        assert counter.tests == 0

    def test_no_dominator_charges_full_block(self):
        counter = DominanceCounter()
        block = np.array([[9.0, 9.0, 9.0], [8.0, 8.0, 8.0]])
        assert first_dominator(block, P, counter) == -1
        assert counter.tests == 2

    def test_first_dominator_index_and_early_exit_count(self):
        counter = DominanceCounter()
        block = np.array(
            [[9.0, 9.0, 9.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
        )
        assert first_dominator(block, P, counter) == 1
        assert counter.tests == 2  # sequential loop would stop at index 1

    def test_equal_row_is_not_a_dominator(self):
        block = np.array([P])
        assert first_dominator(block, P) == -1

    def test_matches_sequential_scan(self):
        rng = np.random.default_rng(9)
        block = rng.random((60, 4))
        for _ in range(25):
            q = rng.random(4)
            expected = -1
            for idx, row in enumerate(block):
                if np.all(row <= q) and np.any(row < q):
                    expected = idx
                    break
            assert first_dominator(block, q) == expected


class TestDominanceMask:
    def test_mask_matches_pairwise(self):
        rng = np.random.default_rng(2)
        block = rng.random((30, 3))
        q = rng.random(3)
        mask = dominance_matrix(q[None, :], block)[0]
        for row, flag in zip(block, mask):
            assert flag == dominates(row, q)

    def test_row_blocks_do_not_change_the_matrix(self, monkeypatch):
        rng = np.random.default_rng(3)
        rows = rng.integers(0, 3, (50, 3)).astype(float)
        dominators = rng.integers(0, 3, (7, 3)).astype(float)
        whole = dominance_matrix(rows, dominators)
        monkeypatch.setattr(dominance, "_MATRIX_BLOCK", 1)
        assert np.array_equal(dominance_matrix(rows, dominators), whole)


#: Tie-heavy coordinates: ``1e-17`` beside ``1.0`` vanishes in a float sum,
#: and four levels in at most three columns make duplicate rows common.
_TIE_LEVELS = st.sampled_from((0.0, 1e-17, 1.0, 2.0))


def _tie_block(d):
    rows = st.lists(st.lists(_TIE_LEVELS, min_size=d, max_size=d), max_size=8)
    return rows.map(lambda r: np.array(r, dtype=np.float64).reshape(len(r), d))


@given(st.integers(1, 3).flatmap(lambda d: st.tuples(_tie_block(d), _tie_block(d))))
def test_dominance_matrix_matches_scalar_dominates(blocks):
    rows, dominators = blocks
    matrix = dominance_matrix(rows, dominators)
    assert matrix.shape == (len(rows), len(dominators))
    for i, row in enumerate(rows):
        for j, dominator in enumerate(dominators):
            assert matrix[i, j] == dominates(dominator, row)
    assert not dominance_matrix(rows, rows).diagonal().any()


def _assert_dominators_first(ranked):
    for i in range(len(ranked)):
        for j in range(i + 1, len(ranked)):
            assert not dominates(ranked[j], ranked[i])


@given(st.integers(1, 3).flatmap(_tie_block))
def test_sum_order_puts_every_dominator_first(rows):
    """``scan_order`` without a key: the row sum, then the columns."""
    _assert_dominators_first(rows[scan_order(rows)])
    sums = rows.sum(axis=1)
    if np.unique(sums).size == sums.size:  # tie-free: the plain stable sort
        assert scan_order(rows).tolist() == np.argsort(sums, kind="stable").tolist()


#: Weakly monotone keys: a dominator's key never exceeds its victim's, and
#: ties are common.
_WEAK_KEYS = {
    "min-coordinate": lambda rows: rows.min(axis=1),
    "constant": lambda rows: np.zeros(rows.shape[0]),
}


@pytest.mark.parametrize("key", sorted(_WEAK_KEYS))
@given(
    st.integers(1, 4).flatmap(
        lambda d: st.lists(
            st.lists(st.sampled_from((-1.0, 0.0, 1e-17, 1.0, 2.0)), min_size=d, max_size=d),
            max_size=10,
        ).map(lambda r: np.array(r, dtype=np.float64).reshape(len(r), d))
    )
)
def test_scan_order_puts_every_dominator_first_under_a_weak_key(key, rows):
    keys = _WEAK_KEYS[key](rows)
    order = scan_order(rows, keys)
    assert sorted(order.tolist()) == list(range(len(rows)))
    _assert_dominators_first(rows[order])
    sums = rows.sum(axis=1)
    pairs = set(zip(keys.tolist(), sums.tolist()))
    if len(pairs) == len(rows):  # no (key, sum) tie: the plain two-key sort
        assert order.tolist() == np.lexsort((sums, keys)).tolist()


def test_scan_order_breaks_a_sub_ulp_tie_on_the_columns():
    # 1.0 + 1e-17 == 1.0: the key and the sum both tie, the columns do not.
    rows = np.array([[1e-17, 1.0], [0.0, 1.0]])
    assert scan_order(rows, np.array([1.0, 1.0])).tolist() == [1, 0]


#: Half-precision values: coarse, so equal coordinates recur.
_HALF = st.floats(0, 1, allow_nan=False, width=16)


def _sort_then_scan(block, col, bound, q):
    """Stable-sort the rows with ``col <= bound`` by ``col``, then scan:
    the dominating row's index in ``block`` and the charged tests."""
    eligible = np.flatnonzero(col <= bound)
    order = eligible[np.argsort(col[eligible], kind="stable")]
    counter = DominanceCounter()
    hit = first_dominator(block[order], q, counter)
    return (int(order[hit]) if hit != -1 else -1), counter.tests


@st.composite
def _prefix_cases(draw):
    """An unsorted block with duplicate rows (possibly empty), a testing
    point (often a copy of a row), a column and a bound at, below or
    above the testing point's coordinate."""
    level = draw(st.sampled_from((_TIE_LEVELS, _HALF)))
    d = draw(st.integers(1, 3))
    row = st.lists(level, min_size=d, max_size=d)
    pool = draw(st.lists(row, min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=12))
    block = np.array([pool[i] for i in picks], dtype=np.float64).reshape(len(picks), d)
    q = np.array(draw(st.one_of(st.sampled_from(pool), row)), dtype=np.float64)
    dim = draw(st.integers(0, d - 1))
    bound = draw(st.one_of(st.just(float(q[dim])), level))
    return block, dim, bound, q


@settings(max_examples=300)
@given(_prefix_cases())
def test_first_dominator_prefix_matches_sort_then_scan(case):
    block, dim, bound, q = case
    expected = _sort_then_scan(block, block[:, dim], bound, q)
    for layout in (block, np.asfortranarray(block)):
        counter = DominanceCounter()
        got = first_dominator_prefix(layout, layout[:, dim], bound, q, counter)
        assert (got, counter.tests) == expected


@given(
    hnp.arrays(np.float64, (2, 4), elements=st.floats(0, 1, allow_nan=False))
)
def test_dominance_is_antisymmetric(pair):
    p, q = pair
    assert not (dominates(p, q) and dominates(q, p))


@given(
    hnp.arrays(np.float64, (3, 3), elements=st.floats(0, 1, allow_nan=False))
)
def test_dominance_is_transitive(triple):
    a, b, c = triple
    if dominates(a, b) and dominates(b, c):
        assert dominates(a, c)


@given(
    hnp.arrays(np.float64, (2, 5), elements=st.floats(0, 1, allow_nan=False))
)
def test_superset_mask_property(pair):
    """q1 <= q2 componentwise implies D_{q1<p} ⊇ D_{q2<p} for any pivot p."""
    q2, pivot = pair
    q1 = q2 - 0.25  # q1 dominates or equals q2 componentwise
    m1 = dominating_subspace(q1, pivot)
    m2 = dominating_subspace(q2, pivot)
    assert m2 & ~m1 == 0


def test_dominating_subspace_asymmetry_example():
    # Worked example from Definition 3.4.
    p = np.array([0.3, 0.7])
    q = np.array([0.5, 0.2])
    assert dominating_subspace(q, p) == 0b10
    assert dominating_subspace(p, q) == 0b01


@pytest.mark.parametrize("d", [1, 2, 5, 24])
def test_dominating_subspaces_supports_dimensionality(d):
    block = np.zeros((3, d))
    pivot = np.ones(d)
    masks = dominating_subspaces(block, pivot)
    assert list(masks) == [(1 << d) - 1] * 3
