"""The generic skyline *container* the paper proposes (Section 1 sketch).

The subset approach is deliberately algorithm-agnostic: it is "designed as a
component like a container that allows to store (as ``put`` function) the
skyline points and to retrieve (as a ``get`` function) a minimum number of
skyline points to compare with a testing point".  This module defines that
interface plus its two implementations:

- :class:`ListContainer` — the classic presorted-scan store: an
  insertion-ordered list; every stored point is a candidate.
- :class:`SubsetContainer` — the paper's contribution: candidates are
  retrieved from the :class:`~repro.core.subset_index.SkylineIndex` by
  subspace, so provably-incomparable skyline points are never tested.

Both return candidates as an ``(ids, values_block)`` pair so hosts can run
the vectorised exact-count dominance kernel on the block directly.  Blocks
are column-backed: ``block`` is the transpose of a ``(d, capacity)``
buffer, so the kernel's per-row reductions run over ``d`` contiguous
columns.  The blocks are also *stable-prefix*: between two ``add`` calls
the returned block is identical, and an ``add`` only ever appends rows, so
a block handed out earlier never changes.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterator

import numpy as np

from repro.core.subset_index import CandidateBuffer, SkylineIndex
from repro.dominance import first_dominator
from repro.stats.counters import DominanceCounter


class SkylineContainer(ABC):
    """Store for confirmed skyline points during a presorted scan."""

    @abstractmethod
    def add(self, point_id: int, mask: int) -> None:
        """Store a confirmed skyline point with its maximum dominating subspace."""

    @abstractmethod
    def candidates(self, mask: int) -> tuple[np.ndarray, np.ndarray]:
        """Candidate dominators for a testing point with subspace ``mask``.

        Returns ``(ids, block)`` where ``block[k]`` holds the coordinates of
        skyline point ``ids[k]``.  Every stored point that could possibly
        dominate the testing point is guaranteed to be in the result, and
        consecutive calls with the same ``mask`` and no intervening ``add``
        return identical arrays (stable-prefix contract).
        """

    @abstractmethod
    def ids(self) -> list[int]:
        """All stored skyline point ids."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of stored points."""


class ListContainer(SkylineContainer):
    """Insertion-ordered list store; every stored point is always a candidate.

    This is what plain SFS/SaLSa/LESS use: testing in insertion order means
    low-score (highly dominating) points are compared first.
    """

    def __init__(self, values: np.ndarray) -> None:
        self._values = values
        self._stored = CandidateBuffer([], values)

    def add(self, point_id: int, mask: int) -> None:
        self._stored.extend(np.array((point_id,), dtype=np.intp), self._values)

    def candidates(self, mask: int) -> tuple[np.ndarray, np.ndarray]:
        return self._stored.array(), self._stored.rows()

    def ids(self) -> list[int]:
        return self._stored.ids_list()

    def __len__(self) -> int:
        return self._stored.size


class SubsetContainer(SkylineContainer):
    """Subset-index-backed store: candidates filtered by Lemma 5.1.

    ``candidates(mask)`` returns only the stored points whose maximum
    dominating subspace is a superset of ``mask`` — the minimal correct
    candidate set.  Index accesses are recorded on the counter separately
    from dominance tests.

    Parameters
    ----------
    values:
        The dataset's value matrix, or ``None`` for an *id-only*
        container: subset-index maintenance (:meth:`add`, :meth:`remove`,
        :meth:`clear`, :meth:`query_ids`) works normally, but
        :meth:`candidates` — which gathers coordinate blocks — raises.
        The streaming extension uses this mode: it owns its own row
        storage (points arrive one at a time).
    memoize:
        Forwarded to the index, whose per-subspace cache then also holds
        the gathered candidate rows.  ``False`` reproduces the scalar
        reference path (fresh traversal + fresh gather per query) with
        bit-identical results and dominance-test accounting.
    """

    def __init__(
        self,
        values: np.ndarray | None,
        d: int,
        counter: DominanceCounter | None = None,
        memoize: bool = True,
    ) -> None:
        self._index = SkylineIndex(d, memoize=memoize, values=values)
        self._counter = counter
        # Insertion-ordered, so ``ids()`` keeps the add order and
        # ``remove`` is O(1).
        self._all_ids: dict[int, None] = {}

    @property
    def index(self) -> SkylineIndex:
        """The underlying subset index (exposed for diagnostics)."""
        return self._index

    def add(self, point_id: int, mask: int) -> None:
        self._index.put(point_id, mask)
        self._all_ids[point_id] = None

    def remove(self, point_id: int, mask: int) -> None:
        """Remove a point previously :meth:`add`-ed under ``mask``.

        Needed by incremental maintenance (streaming deletes); the index
        bumps its epoch so memoized views rebuild instead of trusting the
        stable-prefix contract.
        """
        self._index.remove(point_id, mask)
        del self._all_ids[point_id]

    def clear(self) -> None:
        """Drop every stored point and all cached per-mask views."""
        self._index.clear()
        self._all_ids.clear()

    def query_ids(self, mask: int) -> list[int]:
        """Candidate ids for ``mask``, without gathering coordinate rows.

        The id-level complement of :meth:`candidates` for hosts that keep
        their own row storage (works on value-less containers too).
        """
        return self._index.query(mask, self._counter)

    def candidates(self, mask: int) -> tuple[np.ndarray, np.ndarray]:
        return self._index.candidates(mask, self._counter)

    def ids(self) -> list[int]:
        return list(self._all_ids)

    def __len__(self) -> int:
        return len(self._all_ids)


def presorted_scan(
    values: np.ndarray, order: np.ndarray, counter: DominanceCounter | None
) -> Iterator[int]:
    """Yield the skyline ids among the rows ``order``, in that order.

    ``order`` must be a :func:`~repro.dominance.scan_order` of its rows
    (every dominator before the rows it dominates), so one early-exit test
    of each row against the rows confirmed so far settles it: the SFS loop
    over a :class:`ListContainer`, charged as that loop charges.  The ids
    yielded so far are always skyline points of ``order``'s rows, so a
    caller may stop consuming at any time.
    """
    container = ListContainer(values)
    _, block = container.candidates(0)
    for point_id in np.asarray(order).tolist():
        if first_dominator(block, values[point_id], counter) == -1:
            container.add(point_id, 0)
            _, block = container.candidates(0)
            yield point_id
