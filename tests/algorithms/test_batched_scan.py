"""Scan paths against their references: bit-identical results.

The grouped settlement of a boosted scan (one index walk and one matrix
pass per subspace) is a pure execution-strategy change: skylines *and*
charged dominance-test counts must match the per-point scan exactly on
every distribution.  The per-point path of a boosted host runs over a
:class:`~tests.conftest.PointwiseSubsetContainer`.  SDI's unsorted
prefix test is held to the filter-then-sort reference in
``tests/test_dominance.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.algorithms.salsa import SaLSa
from repro.algorithms.sdi import SDI
from repro.algorithms.sfs import SFS
from repro.core.boost import SubsetBoost
from repro.data import generate
from repro.dominance import first_dominator, first_dominator_prefix
from repro.stats.counters import DominanceCounter
from tests.conftest import brute_skyline_ids, pointwise_boost
from tests.test_dominance import _TIE_LEVELS

KINDS = ("UI", "CO", "AC")


def _run(boost, dataset):
    counter = DominanceCounter()
    result = boost.compute(dataset, counter=counter)
    return list(result.indices), counter.tests


def _sdi_subset_paths(dataset):
    """SDI-Subset grouped and per-point: ``(ids, tests)`` of each."""
    grouped = _run(SubsetBoost(SDI()), dataset)
    with pointwise_boost():
        pointwise = _run(SubsetBoost(SDI()), dataset)
    return grouped, pointwise


class TestBatchedEqualsScalar:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("seed", [1, 7])
    def test_sdi_subset(self, kind, seed):
        dataset = generate(kind, n=400, d=5, seed=seed)
        grouped, pointwise = _sdi_subset_paths(dataset)
        assert grouped == pointwise

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("host", [SFS, SaLSa])
    def test_memoized_hosts(self, kind, host):
        dataset = generate(kind, n=400, d=5, seed=3)
        grouped = _run(SubsetBoost(host()), dataset)
        with pointwise_boost():
            pointwise = _run(SubsetBoost(host()), dataset)
        assert grouped == pointwise

    @settings(max_examples=30, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(2, 60), st.integers(2, 5)),
            elements=st.floats(0, 1, allow_nan=False, width=16),
        )
    )
    def test_sdi_subset_on_random_data(self, values):
        grouped, pointwise = _sdi_subset_paths(values)
        assert grouped == pointwise


#: Integer levels: every float sum is exact.  On ``_TIE_LEVELS`` sums tie
#: between a dominator and its victim, which SDI's per-dimension
#: ``scan_order`` must still put first; both are checked against brute force.
_INTEGER_LEVELS = st.sampled_from((0.0, 1.0, 2.0, 3.0))


def _level_arrays(levels):
    return st.integers(1, 4).flatmap(
        lambda d: hnp.arrays(
            np.float64, st.tuples(st.integers(1, 40), st.just(d)), elements=levels
        )
    )


class TestSDIOnTies:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from((_TIE_LEVELS, _INTEGER_LEVELS)).flatmap(_level_arrays))
    def test_batched_equals_scalar(self, values):
        expected = brute_skyline_ids(values)
        plain = _run(SDI(), values)  # the ListContainer path
        assert sorted(plain[0]) == expected
        grouped, pointwise = _sdi_subset_paths(values)
        assert grouped == pointwise
        assert sorted(grouped[0]) == expected


class TestFirstDominatorPrefix:
    @settings(max_examples=80, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(0, 30), st.integers(1, 4)),
            elements=st.floats(0, 1, allow_nan=False, width=16),
        ),
        st.integers(0, 3),
        st.floats(0, 1, allow_nan=False, width=16),
    )
    def test_matches_filter_then_scan(self, block, dim, bound_q):
        dim = dim % block.shape[1]
        # Sorted input, the special case: rows ascending by ``col``.
        order = np.argsort(block[:, dim], kind="stable")
        block = block[order]
        col = block[:, dim]
        q = np.full(block.shape[1], bound_q)

        prefix_counter = DominanceCounter()
        got = first_dominator_prefix(block, col, q[dim], q, prefix_counter)

        # Scalar reference: boolean-filter then scan.  The filtered rows
        # form a prefix of the sorted block, so indices coincide.
        scalar_counter = DominanceCounter()
        eligible = block[col <= q[dim]]
        expected = first_dominator(eligible, q, scalar_counter)

        assert got == expected
        assert prefix_counter.tests == scalar_counter.tests
