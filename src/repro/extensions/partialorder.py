"""Skylines over partially ordered attribute domains (the ZINC setting).

The paper restricts itself to totally ordered domains and cites ZINC
(Liu & Chan, PVLDB 2010) as the system that "can perform skyline
computation in both totally ordered and partially ordered data attribute
domains".  This module supplies that capability as an extension: attribute
domains may be partial orders (e.g. colour preferences, brand hierarchies,
interval containment), given as directed acyclic preference graphs.

- :class:`PartialOrder` wraps a DAG whose edge ``u -> v`` means "``u`` is
  preferred to ``v``"; dominance within the dimension is reachability,
  computed once into a closure matrix.
- :func:`partial_order_skyline` runs a BNL-style scan under the mixed
  dominance relation (some dimensions totally ordered, some partial).

Dominance over mixed domains: ``p`` dominates ``q`` iff ``p`` is better or
equal in every dimension and strictly better in at least one, where
"better" in a partial-order dimension means reachability in the preference
DAG.  Incomparable values (neither reaches the other) block dominance in
both directions — the semantics ZINC formalises.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Sequence

import numpy as np

from repro.errors import InvalidParameterError
from repro.stats.counters import DominanceCounter


class PartialOrder:
    """A preference partial order over a finite domain of values.

    Parameters
    ----------
    edges:
        Pairs ``(better, worse)``; the transitive closure is taken, so
        listing a covering relation suffices.
    values:
        Optional extra domain values that participate in no preference
        (mutually incomparable with everything unless related by edges).

    >>> colours = PartialOrder([("red", "pink"), ("pink", "white")])
    >>> colours.prefers("red", "white")
    True
    >>> colours.prefers("white", "red")
    False
    >>> colours.comparable("red", "red")
    True
    """

    def __init__(
        self,
        edges: Iterable[tuple[Hashable, Hashable]],
        values: Iterable[Hashable] = (),
    ) -> None:
        # Imported here, its only use: every `repro.extensions` import
        # (the engine's replay stream among them) loads this module.
        import networkx as nx

        graph = nx.DiGraph()
        graph.add_edges_from(edges)
        graph.add_nodes_from(values)
        if graph.number_of_nodes() == 0:
            raise InvalidParameterError("a partial order needs at least one value")
        if not nx.is_directed_acyclic_graph(graph):
            cycle = nx.find_cycle(graph)
            raise InvalidParameterError(f"preference graph has a cycle: {cycle}")
        self._graph = graph
        self._index = {value: i for i, value in enumerate(graph.nodes)}
        n = len(self._index)
        closure = np.zeros((n, n), dtype=bool)
        for value in graph.nodes:
            row = self._index[value]
            for worse in nx.descendants(graph, value):
                closure[row, self._index[worse]] = True
        self._closure = closure

    @property
    def domain(self) -> list[Hashable]:
        """All values of the domain, in insertion order."""
        return list(self._index)

    def __contains__(self, value: Hashable) -> bool:
        return value in self._index

    def prefers(self, a: Hashable, b: Hashable) -> bool:
        """True when ``a`` is strictly preferred to ``b``."""
        return bool(self._closure[self._id(a), self._id(b)])

    def at_least_as_good(self, a: Hashable, b: Hashable) -> bool:
        """True when ``a == b`` or ``a`` is strictly preferred to ``b``."""
        return a == b or self.prefers(a, b)

    def comparable(self, a: Hashable, b: Hashable) -> bool:
        """True when the two values are related (either direction, or equal)."""
        return a == b or self.prefers(a, b) or self.prefers(b, a)

    def _id(self, value: Hashable) -> int:
        try:
            return self._index[value]
        except KeyError:
            raise InvalidParameterError(
                f"value {value!r} is not in this partial order's domain"
            ) from None

    def rank_matrix(self, column: Sequence[Hashable]) -> np.ndarray:
        """Map a data column to domain ids (used by the scan's fast path)."""
        return np.asarray([self._id(v) for v in column], dtype=np.intp)


def _dominates_mixed(
    row_p: Sequence,
    row_q: Sequence,
    orders: dict[int, PartialOrder],
) -> bool:
    """Mixed-domain dominance: numeric minimisation + DAG preference."""
    strict = False
    for dim, (a, b) in enumerate(zip(row_p, row_q)):
        order = orders.get(dim)
        if order is None:
            if a > b:
                return False
            if a < b:
                strict = True
        else:
            if a == b:
                continue
            if order.prefers(a, b):
                strict = True
            else:
                return False
    return strict


def partial_order_skyline(
    rows: Sequence[Sequence],
    orders: dict[int, PartialOrder],
    counter: DominanceCounter | None = None,
) -> list[int]:
    """Skyline of mixed totally/partially ordered rows (sorted row ids).

    Parameters
    ----------
    rows:
        A sequence of equal-length records; dimensions not in ``orders``
        are numeric and minimised, the rest hold partial-order values.
    orders:
        0-based dimension index → :class:`PartialOrder`.

    >>> size = PartialOrder([("S", "M"), ("M", "L")])
    >>> partial_order_skyline(
    ...     [(10.0, "S"), (5.0, "L"), (5.0, "M"), (4.0, "L")],
    ...     orders={1: size},
    ... )
    [0, 2, 3]
    """
    if not rows:
        return []
    width = len(rows[0])
    for dim in orders:
        if not 0 <= dim < width:
            raise InvalidParameterError(f"order dimension {dim} outside [0, {width})")
    if any(len(row) != width for row in rows):
        raise InvalidParameterError("all rows must have the same arity")
    counter = counter if counter is not None else DominanceCounter()

    skyline: list[int] = []
    for i, candidate in enumerate(rows):
        dominated = False
        evicted: list[int] = []
        for kept in skyline:
            counter.add()
            if _dominates_mixed(rows[kept], candidate, orders):
                dominated = True
                break
            if _dominates_mixed(candidate, rows[kept], orders):
                evicted.append(kept)
        if dominated:
            continue
        for kept in evicted:
            skyline.remove(kept)
        skyline.append(i)
    return sorted(skyline)
