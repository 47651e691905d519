"""The grouped settlement against the per-point reference loops.

A host scan over a :class:`SubsetContainer` settles its testing points one
subspace group at a time (:mod:`repro.core.settle`).  These tests run each
boosted host that way and, over the same container state, the per-point
loop the hosts ran before — kept here as the reference — and require the
same skyline ids, the same stored points and the same charged dominance
tests.  Containers are empty or pre-seeded the way the parallel
extension's seeded union scan seeds them.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.core.settle as settle_module
from repro.algorithms.less import LESS
from repro.algorithms.salsa import SaLSa
from repro.algorithms.sdi import SDI, _traverse
from repro.algorithms.sfs import SFS
from repro.algorithms.zorder_scan import ZOrderScan
from repro.core.container import SubsetContainer
from repro.core.merge import merge
from repro.core.settle import first_hits
from repro.data import generate
from repro.dataset import Dataset
from repro.dominance import first_dominator, first_dominator_prefix, scan_order
from repro.stats.counters import DominanceCounter
from tests.conftest import brute_skyline_ids
from tests.test_dominance import _TIE_LEVELS

HOSTS = {"sfs": SFS, "less": LESS, "zorder": ZOrderScan, "salsa": SaLSa, "sdi": SDI}


def _reference_sorted(values, cache, masks, container, counter):
    """The SFS loop over the cached scan order."""
    skyline = []
    for point_id in cache["order"].tolist():
        mask = int(masks[point_id])
        _, block = container.candidates(mask)
        if first_dominator(block, values[point_id], counter) == -1:
            skyline.append(point_id)
            container.add(point_id, mask)
    return skyline


def _reference_salsa(values, cache, masks, container, counter):
    """The SFS loop, stopped once ``minC`` passes the stop point's max."""
    order = cache["order"].tolist()
    min_keys, max_coords = cache["salsa_scan"]
    skyline, stop, position = [], np.inf, 0
    while position < len(order) and min_keys[position] <= stop:
        point_id = order[position]
        mask = int(masks[point_id])
        _, block = container.candidates(mask)
        if first_dominator(block, values[point_id], counter) == -1:
            skyline.append(point_id)
            container.add(point_id, mask)
            stop = min(stop, max_coords[position])
        position += 1
    return skyline


def _reference_sdi(values, cache, masks, container, counter):
    """SDI's traversal with the per-point dimension-prefix test."""
    orders, stop_point = cache["sdi_sort"]

    def test(point_id, dim):
        mask = int(masks[point_id])
        _, block = container.candidates(mask)
        point = values[point_id]
        if first_dominator_prefix(block, block[:, dim], point[dim], point, counter) != -1:
            return False
        container.add(point_id, mask)
        return True

    return _traverse(values, orders, stop_point, test)


REFERENCES = {
    "sfs": _reference_sorted,
    "less": _reference_sorted,
    "zorder": _reference_sorted,
    "salsa": _reference_salsa,
    "sdi": _reference_sdi,
}


def _setup(values, sigma, seeded):
    """Merge, then seeds as the seeded union scan plants them: the head
    half's local skyline, strongest first, held before the scan."""
    dataset = Dataset(values)
    merged = merge(dataset, sigma, DominanceCounter())
    masks = np.zeros(dataset.cardinality, dtype=np.int64)
    masks[merged.remaining_ids] = merged.masks
    ids = merged.remaining_ids
    seeds = np.empty(0, dtype=np.intp)
    if seeded and ids.size:
        ranked = ids[scan_order(values[ids])]
        head = ranked[: (ranked.size + 1) // 2]
        seeds = head[brute_skyline_ids(values[head])]
        ids = np.setdiff1d(ids, seeds)
    return dataset, ids, masks, seeds


def _container(values, masks, seeds, counter):
    container = SubsetContainer(values, values.shape[1], counter)
    for point_id in seeds.tolist():
        container.add(point_id, int(masks[point_id]))
    return container


def assert_grouped_matches_reference(name, values, sigma, seeded):
    dataset, ids, masks, seeds = _setup(values, sigma, seeded)
    if ids.size == 0:
        return
    host = HOSTS[name]()
    # A warm sort cache: LESS charges its elimination filter only when it
    # sorts, and the reference replays the cached order.
    cache: dict[str, object] = {}
    scratch = DominanceCounter()
    host.run_phase(
        dataset, ids, masks, _container(values, masks, seeds, scratch), scratch,
        sort_cache=cache,
    )
    grouped_counter, reference_counter = DominanceCounter(), DominanceCounter()
    grouped = _container(values, masks, seeds, grouped_counter)
    reference = _container(values, masks, seeds, reference_counter)
    got = host.run_phase(dataset, ids, masks, grouped, grouped_counter, sort_cache=cache)
    expected = REFERENCES[name](values, cache, masks, reference, reference_counter)
    assert sorted(got) == sorted(expected)
    assert sorted(grouped.ids()) == sorted(reference.ids())
    assert grouped_counter.tests == reference_counter.tests
    # One walk per subspace among the scanned points (LESS's elimination
    # filter drops some before its scan).
    scanned = cache.get("order", ids)
    assert grouped_counter.index_queries == np.unique(masks[scanned]).size


_DECIMALS = st.sampled_from(np.round(np.linspace(0.0, 1.0, 11), 1).tolist())


@st.composite
def scan_inputs(draw):
    """Tie-heavy or one-decimal coordinates, with duplicated rows."""
    d = draw(st.integers(2, 9))
    levels = draw(st.sampled_from((_TIE_LEVELS, _DECIMALS)))
    rows = draw(st.lists(st.lists(levels, min_size=d, max_size=d), min_size=2, max_size=40))
    copies = draw(st.lists(st.integers(0, len(rows) - 1), max_size=6))
    values = np.array(rows + [rows[i] for i in copies], dtype=float)
    return values, draw(st.booleans())


#: Merge rarely leaves a point that SaLSa's stop cut skips; at σ = 2 this
#: input leaves some (see ``test_salsa_cut_skips_remaining_points``).
_CUT_INPUT = generate("UI", n=262, d=5, seed=0).values


@pytest.mark.parametrize("name", sorted(HOSTS))
@settings(max_examples=40, deadline=None)
@given(scan_inputs())
@example((_CUT_INPUT, False))
def test_grouped_scan_matches_the_per_point_loop(name, inputs):
    values, seeded = inputs
    for sigma in range(2, values.shape[1] + 1):
        assert_grouped_matches_reference(name, values, sigma, seeded)


def test_salsa_cut_skips_remaining_points():
    dataset, ids, masks, _ = _setup(_CUT_INPUT, 2, seeded=False)
    counter = DominanceCounter()
    cache: dict[str, object] = {}
    SaLSa().run_phase(
        dataset, ids, masks, SubsetContainer(_CUT_INPUT, 5, counter), counter,
        sort_cache=cache,
    )
    reference_counter = DominanceCounter()
    reference = SubsetContainer(_CUT_INPUT, 5, reference_counter)
    _reference_salsa(_CUT_INPUT, cache, masks, reference, reference_counter)
    assert reference_counter.index_queries < ids.size  # the cut skipped some
    assert counter.tests == reference_counter.tests


@pytest.mark.parametrize("name", sorted(HOSTS))
@pytest.mark.parametrize("kind", ["UI", "AC"])
def test_grouped_scan_matches_on_generated_data(name, kind):
    values = generate(kind, n=600, d=6, seed=4).values
    for seeded in (False, True):
        assert_grouped_matches_reference(name, values, 2, seeded)


def _brute_first(rows, cols):
    """Index of the first column that dominates each row, or -1."""
    found = []
    for row in rows:
        hits = [j for j, col in enumerate(cols) if (col <= row).all() and (col < row).any()]
        found.append(hits[0] if hits else -1)
    return found


@settings(max_examples=60, deadline=None)
@given(scan_inputs(), st.randoms(use_true_random=False))
def test_first_hits_row_by_row_and_matrix_agree(inputs, rnd):
    """Small groups are tested row by row, larger ones by the matrix pass;
    both find each row's first dominator before its end."""
    values, _ = inputs
    cols = values[::-1]
    expected = _brute_first(values, cols)
    # A row's end lies past its first dominator: no dominator beyond it
    # is left unmasked, as first_hits requires.
    ends = np.array(
        [rnd.randint(f + 1, len(cols)) if f >= 0 else rnd.randint(0, len(cols)) for f in expected]
    )
    for min_rows in (0, len(values) + 1):  # all matrix, all row by row
        with mock.patch.object(settle_module, "MATRIX_MIN_ROWS", min_rows):
            assert first_hits(values, cols, ends).tolist() == expected


class _ForwardingProxy:
    """A container wrapper that forwards what it does not define, as a
    timing proxy does: only ``candidates`` and ``add`` are its own."""

    def __init__(self, container):
        self._container = container
        self.per_point_calls = 0

    def candidates(self, mask):
        self.per_point_calls += 1
        return self._container.candidates(mask)

    def add(self, point_id, mask):
        self.per_point_calls += 1
        self._container.add(point_id, mask)

    def __len__(self):
        return len(self._container)

    def __getattr__(self, name):
        return getattr(self._container, name)


@pytest.mark.parametrize("name", sorted(HOSTS))
def test_a_forwarding_proxy_takes_the_grouped_path(name):
    values = np.random.default_rng(2).random((800, 6))
    dataset, ids, masks, _ = _setup(values, 2, seeded=False)
    counter = DominanceCounter()
    proxy = _ForwardingProxy(SubsetContainer(values, 6, counter))
    skyline = HOSTS[name]().run_phase(dataset, ids, masks, proxy, counter)
    assert counter.index_queries == np.unique(masks[ids]).size
    assert proxy.per_point_calls == 0
    assert sorted(skyline) == sorted(set(brute_skyline_ids(values)) & set(ids.tolist()))


@pytest.mark.parametrize("name", ["sfs", "sdi"])
@pytest.mark.parametrize(
    "budget, first, n",
    [
        (settle_module.PAIR_BUDGET, settle_module.FIRST_CHUNK, 4500),
        (4096, 64, 1500),
    ],
    ids=["module-budget", "small-budget"],
)
def test_no_matrix_exceeds_the_pair_budget(name, budget, first, n, monkeypatch):
    """One subspace group larger than a block of rows: blocks and chunks
    stay within ``PAIR_BUDGET`` pairs per ``dominance_matrix`` call."""
    monkeypatch.setattr(settle_module, "PAIR_BUDGET", budget)
    monkeypatch.setattr(settle_module, "FIRST_CHUNK", first)
    original = settle_module.dominance_matrix
    shapes = []

    def recorded(rows, dominators):
        shapes.append((len(rows), len(dominators)))
        return original(rows, dominators)

    monkeypatch.setattr(settle_module, "dominance_matrix", recorded)
    rng = np.random.default_rng(5)
    # Mostly points on an anti-correlated band, so many survive.
    values = rng.random((n, 3))
    values[:, 2] = 1.5 - values[:, 0] - values[:, 1] + 0.05 * rng.random(n)
    ids = np.arange(values.shape[0], dtype=np.intp)
    masks = np.full(values.shape[0], 0b011, dtype=np.int64)  # one group
    grouped_counter, reference_counter = DominanceCounter(), DominanceCounter()
    cache: dict[str, object] = {}
    got = HOSTS[name]().run_phase(
        Dataset(values), ids, masks,
        SubsetContainer(values, 3, grouped_counter), grouped_counter, sort_cache=cache,
    )
    assert shapes and max(rows * cols for rows, cols in shapes) <= budget
    # The group is larger than a block of rows, and no call takes more.
    assert n > budget // first >= max(rows for rows, _ in shapes)
    expected = REFERENCES[name](
        values, cache, masks, SubsetContainer(values, 3, reference_counter), reference_counter
    )
    assert sorted(got) == sorted(expected)
    assert grouped_counter.tests == reference_counter.tests
