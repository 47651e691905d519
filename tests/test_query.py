"""Unit tests for the declarative SkylineQuery API."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.algorithms.registry import get_algorithm
from repro.dataset import Dataset
from repro.errors import InvalidDatasetError, InvalidParameterError
from repro.query import SkylineQuery
from tests.conftest import brute_skyline_ids
from tests.test_dominance import _TIE_LEVELS


@pytest.fixture
def hotels():
    rng = np.random.default_rng(0)
    values = np.column_stack(
        [
            rng.uniform(50, 300, 200),   # price (min)
            rng.uniform(0, 10, 200),     # distance (min)
            rng.uniform(1, 10, 200),     # rating (max)
        ]
    )
    return Dataset(values, name="hotels", columns=("price", "distance", "rating"))


class TestColumnNames:
    def test_names_resolved(self, hotels):
        assert hotels.column_index("rating") == 2
        assert hotels.column_index(1) == 1

    def test_unknown_name(self, hotels):
        with pytest.raises(InvalidDatasetError):
            hotels.column_index("stars")

    def test_index_bounds(self, hotels):
        with pytest.raises(InvalidDatasetError):
            hotels.column_index(3)

    def test_unnamed_dataset_rejects_names(self):
        ds = Dataset(np.ones((2, 2)))
        with pytest.raises(InvalidDatasetError):
            ds.column_index("x")

    def test_duplicate_names_rejected(self):
        with pytest.raises(InvalidDatasetError):
            Dataset(np.ones((2, 2)), columns=("a", "a"))

    def test_wrong_name_count_rejected(self):
        with pytest.raises(InvalidDatasetError):
            Dataset(np.ones((2, 2)), columns=("a",))


class TestSkylineQuery:
    def test_minimize_all_matches_plain_skyline(self, hotels):
        result = SkylineQuery().minimize("price", "distance", "rating").execute(hotels)
        assert list(result.indices) == brute_skyline_ids(hotels.values)

    def test_maximize_flips_direction(self, hotels):
        result = (
            SkylineQuery().minimize("price", "distance").maximize("rating").execute(hotels)
        )
        flipped = hotels.values.copy()
        flipped[:, 2] = flipped[:, 2].max() - flipped[:, 2]
        assert list(result.indices) == brute_skyline_ids(flipped)

    def test_projection_to_subset(self, hotels):
        result = SkylineQuery().minimize("price").maximize("rating").execute(hotels)
        projected = hotels.values[:, [0, 2]].copy()
        projected[:, 1] = projected[:, 1].max() - projected[:, 1]
        assert list(result.indices) == brute_skyline_ids(projected)

    def test_where_constrains_before_skyline(self, hotels):
        result = (
            SkylineQuery()
            .minimize("price", "distance")
            .where("price", max_value=150)
            .execute(hotels)
        )
        keep = np.nonzero(hotels.values[:, 0] <= 150)[0]
        expected = [int(keep[i]) for i in brute_skyline_ids(hotels.values[keep][:, :2])]
        assert list(result.indices) == expected
        assert all(hotels.values[i, 0] <= 150 for i in result.indices)

    def test_where_min_and_max(self, hotels):
        result = (
            SkylineQuery()
            .minimize("distance")
            .where("price", min_value=100, max_value=200)
            .execute(hotels)
        )
        for i in result.indices:
            assert 100 <= hotels.values[i, 0] <= 200

    def test_empty_filter_returns_empty(self, hotels):
        result = (
            SkylineQuery().minimize("price").where("price", max_value=-1).execute(hotels)
        )
        assert result.size == 0

    def test_where_requires_a_bound(self):
        with pytest.raises(InvalidParameterError):
            SkylineQuery().where("price")

    def test_needs_at_least_one_direction(self, hotels):
        with pytest.raises(InvalidParameterError):
            SkylineQuery().execute(hotels)

    def test_conflicting_directions_rejected(self, hotels):
        with pytest.raises(InvalidParameterError):
            SkylineQuery().minimize("price").maximize("price").execute(hotels)

    def test_duplicate_column_rejected(self, hotels):
        with pytest.raises(InvalidParameterError):
            SkylineQuery().minimize("price", "price").execute(hotels)

    def test_algorithm_and_sigma_forwarded(self, hotels):
        result = (
            SkylineQuery()
            .minimize("price", "distance", "rating")
            .execute(hotels, algorithm="sdi-subset", sigma=2)
        )
        assert result.algorithm == "sdi-subset"
        assert list(result.indices) == brute_skyline_ids(hotels.values)

    def test_integer_columns_work_without_names(self):
        rng = np.random.default_rng(1)
        values = rng.random((100, 3))
        result = SkylineQuery().minimize(0, 1, 2).execute(values)
        assert list(result.indices) == brute_skyline_ids(values)

    def test_cardinality_reports_original_size(self, hotels):
        result = (
            SkylineQuery().minimize("price").where("price", max_value=150).execute(hotels)
        )
        assert result.cardinality == hotels.cardinality


@st.composite
def _tie_tables(draw):
    """2-8 rows of 2-3 tie-level columns and a non-empty set to maximize."""
    d = draw(st.integers(2, 3))
    values = draw(
        hnp.arrays(np.float64, st.tuples(st.integers(2, 8), st.just(d)), elements=_TIE_LEVELS)
    )
    maximized = draw(st.sets(st.integers(0, d - 1), min_size=1))
    return values, sorted(maximized)


def _maximize_sites(values, maximized):
    """Sorted skyline ids from each site that flips a maximized column."""
    d = values.shape[1]
    minimized = [dim for dim in range(d) if dim not in maximized]

    def query():
        return SkylineQuery().minimize(*minimized).maximize(*maximized)

    unfiltered = query().execute(values).indices
    # A row the filter drops sends the query down its range path.
    padded = np.vstack([values, np.full((1, d), 10.0)])
    ranged = query().where(0, max_value=5).execute(padded).indices
    flipped = Dataset(values).minimizing(maximized)
    brute = get_algorithm("bruteforce").compute(flipped).indices
    return {
        "unfiltered": sorted(unfiltered.tolist()),
        "range": sorted(ranged.tolist()),
        "minimizing": sorted(brute.tolist()),
    }


class TestExactMaximize:
    """Every site that flips a maximized column negates it exactly, so a
    sub-ulp difference between two values survives the flip."""

    @settings(max_examples=150, deadline=None)
    @given(_tie_tables())
    # Brute force on the negated columns says [0, 2]; ``max - value``
    # rounded 2 - 1e-17 to 2 and returned [0, 1, 2].
    @example(table=(np.array([[0.0, 1e-17], [0.0, 0.0], [1.0, 2.0]]), [1]))
    def test_maximize_sites_match_brute_force(self, table):
        values, maximized = table
        negated = values.copy()
        negated[:, maximized] = -negated[:, maximized]
        expected = brute_skyline_ids(negated)
        for site, ids in _maximize_sites(values, maximized).items():
            assert ids == expected, site
