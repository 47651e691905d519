"""Batched scan phase vs the scalar reference path: bit-identical results.

The vectorised candidate gathering (column-backed blocks in the container,
SDI's unsorted prefix test, memoized index queries) is a pure
execution-strategy change — skylines *and* charged dominance-test counts
must match the scalar path exactly on every distribution.
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
from tests.conftest import brute_skyline_ids
from tests.test_dominance import _TIE_LEVELS

KINDS = ("UI", "CO", "AC")


def _run(boost, dataset):
    counter = DominanceCounter()
    result = boost.compute(dataset, counter=counter)
    return list(result.indices), counter.tests


class TestBatchedEqualsScalar:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("seed", [1, 7])
    def test_sdi_subset(self, kind, seed):
        dataset = generate(kind, n=400, d=5, seed=seed)
        batched = _run(SubsetBoost(SDI(batched=True), memoize=True), dataset)
        scalar = _run(SubsetBoost(SDI(batched=False), memoize=False), dataset)
        assert batched == scalar

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("host", [SFS, SaLSa])
    def test_memoized_hosts(self, kind, host):
        dataset = generate(kind, n=400, d=5, seed=3)
        memoized = _run(SubsetBoost(host(), memoize=True), dataset)
        scalar = _run(SubsetBoost(host(), memoize=False), dataset)
        assert memoized == scalar

    @settings(max_examples=30, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(2, 60), st.integers(2, 5)),
            elements=st.floats(0, 1, allow_nan=False, width=16),
        )
    )
    def test_sdi_subset_on_random_data(self, values):
        batched = _run(SubsetBoost(SDI(batched=True), memoize=True), values)
        scalar = _run(SubsetBoost(SDI(batched=False), memoize=False), values)
        assert batched == scalar


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
        pairs = (
            (SDI(batched=True), SDI(batched=False)),  # the ListContainer path
            (
                SubsetBoost(SDI(batched=True), memoize=True),
                SubsetBoost(SDI(batched=False), memoize=False),
            ),
        )
        for batched_host, scalar_host in pairs:
            batched = _run(batched_host, values)
            assert batched == _run(scalar_host, values)
            assert sorted(batched[0]) == brute_skyline_ids(values)


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
