"""The witness→dependents index behind ``StreamingSkyline.delete_many``."""

import numpy as np

from repro.extensions.streaming import StreamingSkyline


class TestDependentsIndex:
    def test_finds_exactly_the_orphans(self):
        rng = np.random.default_rng(7)
        sky = StreamingSkyline.from_dataset(rng.random((300, 3)), anchors=4)
        for step in range(30):
            live = np.asarray(sky.live_ids())
            ids = np.sort(rng.choice(live, size=8, replace=False))
            buffer = live[~np.isin(live, sky.skyline_ids())]
            expected = buffer[np.isin(sky._witness[buffer], ids)]
            assert np.array_equal(sky._orphans(ids), expected)
            sky.delete_many(ids)
            if step % 2:
                sky.insert_many(rng.random((6, 3)))
            else:
                sky.insert(rng.random(3))
