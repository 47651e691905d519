"""An unfiltered query returns the engine's ids for its view directly."""

import numpy as np

from repro.dataset import Dataset
from repro.engine import SkylineEngine
from repro.query import SkylineQuery


class TestUnfilteredQuery:
    def test_unfiltered_query_returns_the_views_engine_ids(self):
        rng = np.random.default_rng(3)
        data = Dataset(rng.random((500, 4)))
        engine = SkylineEngine()
        view = engine.prepare(data).view([2, 0], maximize=[0])
        expected = engine.execute(view, "sfs").indices
        result = SkylineQuery().minimize(2).maximize(0).execute(data, engine=engine)
        assert np.array_equal(result.indices, expected)
        assert result.cardinality == data.cardinality
