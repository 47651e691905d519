"""Registry aliases: the keys ``rebind`` keeps never outlive their arrays."""

import numpy as np
import pytest

from repro.dataset import Dataset
from repro.engine import SkylineEngine
from tests.conftest import brute_skyline_ids


def _single_row_deltas(engine, rng, deltas):
    prepared = engine.prepare(Dataset(rng.random((40, 3))))
    engine.execute(prepared, "sfs")
    for _ in range(deltas):
        engine.apply_delta(prepared, inserts=rng.random((1, 3)), deletes=[0])
    return prepared


class TestRegistryAliases:
    """Aliases kept by ``rebind`` never outlive the arrays they name."""

    @pytest.mark.parametrize("seed", range(20))
    def test_a_reused_address_is_not_served_the_mutated_caches(self, seed):
        # Each delta drops the previous value array; CPython reuses freed
        # addresses, so a fresh dataset can land on a dead alias's key.
        rng = np.random.default_rng(seed)
        engine = SkylineEngine()
        _single_row_deltas(engine, rng, 50)
        others = [Dataset(rng.random((40, 3))) for _ in range(5)]
        for other in others:
            result = engine.execute(other, "sfs")
            assert result.indices.tolist() == brute_skyline_ids(other.values)

    def test_dead_aliases_leave_the_fifo_bound_intact(self):
        engine = SkylineEngine()
        prepared = _single_row_deltas(engine, np.random.default_rng(0), 200)
        assert engine.context.prepared_count <= engine.context._max_prepared
        assert engine.prepare(prepared.dataset) is prepared
