"""Library-wide property tests: every algorithm on hypothesis-built data.

The per-algorithm files test crafted scenarios; this suite lets hypothesis
search the input space for disagreements between the whole algorithm
portfolio and the independent oracle, plus the structural invariants that
must hold for *any* dataset.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import repro
from repro.core.merge import merge
from repro.core.stability import default_threshold
from repro.dataset import Dataset
from tests.conftest import brute_skyline_ids

# Small shapes keep the O(N^2) oracle and 18 algorithms affordable per case.
datasets = hnp.arrays(
    np.float64,
    st.tuples(st.integers(1, 50), st.integers(1, 5)),
    elements=st.floats(0, 1, allow_nan=False, width=16),
)

# Duplicate-prone grids: few distinct values per dimension.
grid_datasets = hnp.arrays(
    np.float64,
    st.tuples(st.integers(1, 40), st.integers(1, 4)),
    elements=st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
)

FAST_ALGORITHMS = [
    "bnl",
    "sfs",
    "less",
    "salsa",
    "sdi",
    "zorder",
    "zsearch",
    "dnc",
    "index",
    "bbs",
    "bskytree-s",
    "bskytree-p",
    "sfs-subset",
    "salsa-subset",
    "sdi-subset",
]


@settings(max_examples=25, deadline=None)
@given(datasets)
def test_all_algorithms_agree_on_random_data(values):
    expected = brute_skyline_ids(values)
    for name in FAST_ALGORITHMS:
        got = repro.skyline(values, algorithm=name)
        assert list(got.indices) == expected, f"{name} disagrees with the oracle"


@settings(max_examples=25, deadline=None)
@given(grid_datasets)
def test_all_algorithms_agree_on_duplicate_grids(values):
    expected = brute_skyline_ids(values)
    for name in FAST_ALGORITHMS:
        got = repro.skyline(values, algorithm=name)
        assert list(got.indices) == expected, f"{name} disagrees with the oracle"


@settings(max_examples=40, deadline=None)
@given(datasets)
def test_skyline_members_are_mutually_incomparable(values):
    result = repro.skyline(values, algorithm="sfs")
    sky = values[result.indices]
    for i in range(sky.shape[0]):
        dominated = np.all(sky <= sky[i], axis=1) & np.any(sky < sky[i], axis=1)
        assert not dominated.any()


@settings(max_examples=40, deadline=None)
@given(datasets)
def test_every_non_skyline_point_has_a_skyline_dominator(values):
    result = repro.skyline(values, algorithm="sfs")
    sky = values[result.indices]
    members = set(int(i) for i in result.indices)
    for i in range(values.shape[0]):
        if i in members:
            continue
        dominated = np.all(sky <= values[i], axis=1) & np.any(sky < values[i], axis=1)
        assert dominated.any()


@settings(max_examples=30, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        st.tuples(st.integers(2, 50), st.integers(2, 5)),
        elements=st.floats(0, 1, allow_nan=False, width=16),
    ),
    st.integers(2, 5),
)
def test_merge_partitions_the_dataset(values, sigma):
    d = values.shape[1]
    sigma = min(sigma, d)
    if sigma < 2:
        return
    result = merge(Dataset(values), sigma=sigma)
    skyline = set(result.initial_skyline_ids)
    remaining = set(int(i) for i in result.remaining_ids)
    pruned = set(range(values.shape[0])) - skyline - remaining
    # The three groups partition the dataset.
    assert not (skyline & remaining)
    assert len(skyline) + len(remaining) + len(pruned) == values.shape[0]
    # True skyline ⊆ merge skyline ∪ remaining (no skyline point is pruned).
    for true_id in brute_skyline_ids(values):
        assert true_id in skyline or true_id in remaining


@settings(max_examples=30, deadline=None)
@given(datasets)
def test_boost_is_exact_for_the_default_sigma(values):
    if values.shape[1] < 2:
        return
    got = repro.skyline(values, algorithm="sdi-subset")
    assert list(got.indices) == brute_skyline_ids(values)
    sigma = default_threshold(values.shape[1])
    assert 1 < sigma <= values.shape[1]


@settings(max_examples=30, deadline=None)
@given(datasets, st.floats(-5, 5), st.floats(0.1, 10))
def test_skyline_invariant_under_positive_affine_maps(values, shift, scale):
    """Shifting and positively scaling coordinates preserves the skyline."""
    base = repro.skyline(values, algorithm="sfs")
    transformed = repro.skyline(values * scale + shift, algorithm="sfs")
    assert np.array_equal(base.indices, transformed.indices)


@settings(max_examples=10, deadline=None)
@given(datasets)
def test_parallel_bridge_matches_serial(values):
    """Prune-aware block-parallel == serial, across partitions and mergers.

    Covers both partitioning modes (sort-order with the prefix exchange
    and seeded merge, plus the legacy even split) and both boosted merge
    algorithms — every combination must reproduce the oracle skyline bit
    for bit.
    """
    from repro.extensions.parallel import get_pool, parallel_skyline

    expected = brute_skyline_ids(values)
    pool = get_pool(3)
    for partition in ("sorted", "even"):
        for merge_algorithm in ("sfs-subset", "sdi-subset"):
            got = parallel_skyline(
                values,
                workers=3,
                algorithm="sdi-subset",
                merge_algorithm=merge_algorithm,
                partition=partition,
                pool=pool,
            )
            assert list(got) == expected, (
                f"parallel({partition}, {merge_algorithm}) disagrees with serial"
            )
