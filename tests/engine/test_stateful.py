"""Stateful fuzz: one engine through interleaved queries, deltas, views and
invalidations.

A hypothesis ``RuleBasedStateMachine`` drives a single
:class:`~repro.engine.SkylineEngine` over a small tie-heavy dataset.  Every
step is checked against the brute-force oracle on the values the machine
tracks itself (deletes close ranks, inserts append), and the session
counter's charged dominance tests must never decrease.  Small deltas stay
under the prepared dataset's repair threshold, so the next adaptive query
may replay them incrementally; large ones force a recompute.
"""

import numpy as np
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from repro.engine import SkylineEngine
from repro.query import SkylineQuery
from tests.conftest import brute_skyline_ids

D = 4
#: Coordinates come from a handful of levels, so ties are everywhere.
LEVELS = 4
#: Cardinality bounds keep every delta's fraction on a known side of the
#: 5% repair threshold: one or two rows stay under it, eight exceed it.
MIN_ROWS, MAX_ROWS = 48, 64
PINNED = ("sfs", "sfs-subset", "salsa-subset", "sdi-subset")

_row = st.lists(st.integers(0, LEVELS - 1), min_size=D, max_size=D)

#: (query, preference columns, maximized columns) — two- and three-column
#: views, one of them maximizing a column.
VIEWS = (
    (SkylineQuery().minimize(0, 1), (0, 1), ()),
    (SkylineQuery().minimize(1, 2, 3), (1, 2, 3), ()),
    (SkylineQuery().minimize(0).maximize(2), (0, 2), (2,)),
)


def _oracle(values: np.ndarray, columns=None, maximized=()) -> list[int]:
    if columns is None:
        return brute_skyline_ids(values)
    projected = values[:, list(columns)].copy()
    for local, column in enumerate(columns):
        if column in maximized:
            projected[:, local] = -projected[:, local]
    return brute_skyline_ids(projected)


class EngineMachine(RuleBasedStateMachine):
    @initialize(rows=st.lists(_row, min_size=MIN_ROWS, max_size=MAX_ROWS))
    def start(self, rows):
        self.values = np.asarray(rows, dtype=float)
        self.engine = SkylineEngine()
        self.prepared = self.engine.prepare(self.values)
        self.session_tests = 0
        # A first full query notes the skyline later deltas repair from.
        self.execute_adaptive(workers=1)

    def teardown(self):
        if hasattr(self, "engine"):
            self.engine.close()

    def _check(self, indices, expected: list[int]) -> None:
        assert sorted(np.asarray(indices).tolist()) == expected
        self._check_session_tests()

    def _check_session_tests(self) -> None:
        tests = self.engine.context.counter.tests
        assert tests >= self.session_tests
        self.session_tests = tests

    @rule(algorithm=st.sampled_from(PINNED), workers=st.sampled_from((1, 2)))
    def execute_pinned(self, algorithm, workers):
        result = self.engine.execute(self.prepared, algorithm, workers=workers)
        self._check(result.indices, _oracle(self.values))

    @rule(workers=st.sampled_from((1, 2)))
    def execute_adaptive(self, workers):
        # After a small delta the planner may replay it incrementally.
        result = self.engine.execute(self.prepared, workers=workers)
        self._check(result.indices, _oracle(self.values))

    @rule(data=st.data(), size=st.sampled_from((1, 2, 8)), then_read=st.booleans())
    def apply_delta(self, data, size, then_read):
        n = self.values.shape[0]
        # Split the batch into deletes and inserts so the cardinality stays
        # in bounds (the split range is never empty for n in bounds).
        low = max(0, -(-(n + size - MAX_ROWS) // 2))
        high = min(size, (n + size - MIN_ROWS) // 2)
        deleting = data.draw(st.integers(low, high))
        added = size - deleting
        deletes = sorted(
            data.draw(
                st.sets(st.integers(0, n - 1), min_size=deleting, max_size=deleting)
            )
        )
        inserts = np.asarray(
            data.draw(st.lists(_row, min_size=added, max_size=added)), dtype=float
        ).reshape(added, D)
        report = self.engine.apply_delta(
            self.prepared, inserts=inserts, deletes=deletes
        )
        expected_mode = "repair" if size <= 2 else "recompute"
        assert report.mode == expected_mode
        self.values = np.vstack([np.delete(self.values, deletes, axis=0), inserts])
        assert np.array_equal(self.prepared.dataset.values, self.values)
        self._check_session_tests()
        if then_read:
            # The read right after a write is the one a repair can serve.
            self.execute_adaptive(workers=1)

    @rule(view=st.sampled_from(VIEWS), algorithm=st.sampled_from(("sfs", None)))
    def query_view(self, view, algorithm):
        query, columns, maximized = view
        result = query.execute(
            self.prepared.dataset, algorithm=algorithm, engine=self.engine
        )
        self._check(result.indices, _oracle(self.values, columns, maximized))

    @rule()
    def invalidate(self):
        self.prepared.invalidate()
        self._check_session_tests()


EngineMachine.TestCase.settings = settings(
    max_examples=100,
    stateful_step_count=20,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
TestEngineMachine = EngineMachine.TestCase
