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
the vectorised exact-count dominance kernel on the block directly.  The
list's blocks are column-backed: ``block`` is the transpose of a ``(d,
capacity)`` buffer, so the kernel's per-row reductions run over ``d``
contiguous columns.  Blocks are *stable-prefix*: between two ``add`` calls
the returned block is identical, and an ``add`` only ever appends rows.

A container whose candidates depend on the testing point's subspace says
so with :attr:`SkylineContainer.by_subspace`; a host scan over it settles
its points one subspace group at a time (:mod:`repro.core.settle`)
instead of asking for each point's candidates.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterator

import numpy as np

from repro.core.subset_index import SkylineIndex
from repro.dominance import first_dominator
from repro.errors import InvalidParameterError
from repro.stats.counters import DominanceCounter


class SkylineContainer(ABC):
    """Store for confirmed skyline points during a presorted scan."""

    #: Whether :meth:`candidates` depends on the testing point's subspace.
    #: Such a container also answers :meth:`walk` and :meth:`add_many`, and
    #: host scans over it settle their points one subspace group at a
    #: time; over any other container they keep the per-point loop.
    by_subspace = False

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

    def walk(self, mask: int) -> np.ndarray:
        """Ids of the stored points that may dominate a point of ``mask``,
        in no particular order: one index walk (``by_subspace`` only)."""
        raise NotImplementedError(f"{type(self).__name__} does not group by subspace")

    def add_many(self, point_ids: list[int], mask: int) -> None:
        """:meth:`add` for several points of one subspace, in order
        (``by_subspace`` only)."""
        raise NotImplementedError(f"{type(self).__name__} does not group by subspace")

    @abstractmethod
    def ids(self) -> list[int]:
        """All stored skyline point ids, in insertion order."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of stored points."""


class CandidateBuffer:
    """Candidate ids and their rows, grown append-only in lockstep.

    The ids live in an amortised-doubling ``intp`` buffer, and ``cols``
    holds the gathered rows column-major, ``(d, capacity)``: a dominance
    test then reduces over ``d`` contiguous columns.  Callers receive views
    of the buffer prefixes — appends only ever touch positions beyond every
    view handed out so far, and growth moves to a fresh buffer, so a view
    handed out never changes.
    """

    __slots__ = ("buf", "cols", "size")

    def __init__(self, d: int) -> None:
        self.size = 0
        self.buf = np.empty(4, dtype=np.intp)
        self.cols = np.empty((d, 4))

    def extend(self, new_ids: np.ndarray, values: np.ndarray) -> None:
        grown = self.size + new_ids.shape[0]
        if grown > self.buf.shape[0]:
            capacity = max(grown, 2 * self.buf.shape[0])
            buf = np.empty(capacity, dtype=np.intp)
            buf[: self.size] = self.buf[: self.size]
            self.buf = buf
            cols = np.empty((self.cols.shape[0], capacity))
            cols[:, : self.size] = self.cols[:, : self.size]
            self.cols = cols
        self.buf[self.size : grown] = new_ids
        self.cols[:, self.size : grown] = values[new_ids].T
        self.size = grown

    def ids_list(self) -> list[int]:
        return self.buf[: self.size].tolist()

    def array(self) -> np.ndarray:
        view = self.buf[: self.size]
        view.flags.writeable = False
        return view

    def rows(self) -> np.ndarray:
        """The rows as a ``(size, d)`` view: ``rows()[k]`` is ``values[ids[k]]``."""
        return self.cols[:, : self.size].T


class ListContainer(SkylineContainer):
    """Insertion-ordered list store; every stored point is always a candidate.

    This is what plain SFS/SaLSa/LESS use: testing in insertion order means
    low-score (highly dominating) points are compared first.
    """

    def __init__(self, values: np.ndarray) -> None:
        self._values = values
        self._stored = CandidateBuffer(values.shape[1])

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
    candidate set — in insertion order, and :meth:`walk` the same ids
    unordered; each is one tree walk.  Index accesses are recorded on the
    counter separately from dominance tests.

    Parameters
    ----------
    values:
        The dataset's value matrix, or ``None`` for an *id-only*
        container: subset-index maintenance (:meth:`add`, :meth:`remove`,
        :meth:`clear`, :meth:`query_ids`, :meth:`walk`) works normally,
        but :meth:`candidates` — which gathers coordinate rows — raises.
        The streaming extension uses this mode: it owns its own row
        storage (points arrive one at a time).
    """

    by_subspace = True

    def __init__(
        self,
        values: np.ndarray | None,
        d: int,
        counter: DominanceCounter | None = None,
    ) -> None:
        self._values = values
        self._index = SkylineIndex(d)
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

    def add_many(self, point_ids: list[int], mask: int) -> None:
        self._index.put_many(point_ids, mask)
        self._all_ids.update(dict.fromkeys(point_ids))

    def remove(self, point_id: int, mask: int) -> None:
        """Remove a point previously :meth:`add`-ed under ``mask``.

        Needed by incremental maintenance (streaming deletes).
        """
        self._index.remove(point_id, mask)
        del self._all_ids[point_id]

    def clear(self) -> None:
        """Drop every stored point."""
        self._index.clear()
        self._all_ids.clear()

    def query_ids(self, mask: int) -> np.ndarray:
        """Candidate ids for ``mask`` in insertion order, as an ``intp``
        array, without gathering coordinate rows.

        The id-level complement of :meth:`candidates` for hosts that keep
        their own row storage (works on value-less containers too).
        """
        return self._index.query(mask, self._counter)

    def walk(self, mask: int) -> np.ndarray:
        return self._index.walk(mask, self._counter)

    def candidates(self, mask: int) -> tuple[np.ndarray, np.ndarray]:
        if self._values is None:
            raise InvalidParameterError(
                "candidates() needs the value matrix; this container was "
                "built id-only (values=None) — use query_ids() instead"
            )
        ids = self._index.query(mask, self._counter)
        ids.flags.writeable = False
        return ids, self._values.T.take(ids, axis=1).T  # column-backed, like the list's

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
