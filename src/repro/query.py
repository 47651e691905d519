"""A declarative skyline-query API on top of the algorithm library.

The skyline operator of Börzsönyi et al. [4] was proposed as a SQL
extension (``SKYLINE OF price MIN, rating MAX``); this module provides the
Python equivalent a downstream application would actually call: name the
dimensions, state each one's direction, optionally restrict the data with
range predicates and project onto a dimension subset, then execute with
any registered algorithm.

>>> import numpy as np
>>> from repro.dataset import Dataset
>>> hotels = Dataset(
...     np.array([[120.0, 0.5, 8.0], [90.0, 2.0, 9.5], [200.0, 0.2, 6.0]]),
...     columns=("price", "distance", "rating"),
... )
>>> query = (
...     SkylineQuery()
...     .minimize("price", "distance")
...     .maximize("rating")
...     .where("price", max_value=150)
... )
>>> sorted(int(i) for i in query.execute(hotels).indices)
[0, 1]
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.algorithms.base import SkylineResult
from repro.dataset import Dataset, as_dataset
from repro.engine import SkylineEngine
from repro.errors import InvalidParameterError
from repro.stats.counters import DominanceCounter


@dataclass(frozen=True)
class _Range:
    column: int | str
    min_value: float | None
    max_value: float | None


class SkylineQuery:
    """Builder for skyline queries with directions, filters and projection.

    Methods return ``self`` so calls chain; :meth:`execute` runs the query
    against a dataset and returns a standard :class:`SkylineResult` whose
    indices refer to the *original* dataset rows.
    """

    def __init__(self) -> None:
        self._minimize: list[int | str] = []
        self._maximize: list[int | str] = []
        self._ranges: list[_Range] = []

    def minimize(self, *columns: int | str) -> "SkylineQuery":
        """Prefer smaller values in these columns."""
        self._minimize.extend(columns)
        return self

    def maximize(self, *columns: int | str) -> "SkylineQuery":
        """Prefer larger values in these columns."""
        self._maximize.extend(columns)
        return self

    def where(
        self,
        column: int | str,
        min_value: float | None = None,
        max_value: float | None = None,
    ) -> "SkylineQuery":
        """Keep only rows with ``min_value <= value <= max_value``.

        The constrained skyline is computed *after* filtering, so points
        outside the range neither appear nor dominate (the standard
        constrained-skyline semantics).
        """
        if min_value is None and max_value is None:
            raise InvalidParameterError("where() needs min_value and/or max_value")
        self._ranges.append(_Range(column, min_value, max_value))
        return self

    def execute(
        self,
        data: Dataset | np.ndarray,
        algorithm: str | None = "sfs",
        sigma: int | None = None,
        counter: DominanceCounter | None = None,
        engine: SkylineEngine | None = None,
        **kwargs: object,
    ) -> SkylineResult:
        """Run the query; result indices refer to the input dataset's rows.

        ``algorithm=None`` lets the engine's planner choose adaptively.
        Passing a shared :class:`~repro.engine.SkylineEngine` lets repeated
        queries over the same dataset reuse prepared subspace views, Merge
        results and sort orders; the returned result carries the executed
        :class:`~repro.engine.plan.Plan` and the run's full counter.
        """
        dataset = as_dataset(data)
        skyline_dims = self._preference_dims(dataset)
        engine = engine if engine is not None else SkylineEngine()

        kept_ids = None  # every row
        if self._ranges:
            keep = np.ones(dataset.cardinality, dtype=bool)
            for constraint in self._ranges:
                column = dataset.column_index(constraint.column)
                values = dataset.values[:, column]
                if constraint.min_value is not None:
                    keep &= values >= constraint.min_value
                if constraint.max_value is not None:
                    keep &= values <= constraint.max_value
            if not keep.all():
                kept_ids = np.nonzero(keep)[0]
        if kept_ids is not None and kept_ids.size == 0:
            return SkylineResult(
                indices=np.empty(0, dtype=np.intp),
                algorithm=algorithm or "auto",
                dominance_tests=0,
                elapsed_seconds=0.0,
                cardinality=dataset.cardinality,
                counter=counter if counter is not None else DominanceCounter(),
            )

        max_dims = self._max_dims(dataset)
        if kept_ids is None:
            # Every row takes part: execute over the prepared, cached
            # subspace view so repeated queries share projections, Merge
            # results and sort orders, and its ids are the input's row ids.
            # The flip (max(col) - col over all rows) matches the ephemeral
            # path below exactly.
            target: Dataset | object = engine.prepare(dataset).view(
                skyline_dims, maximize=sorted(max_dims), counter=counter
            )
        else:
            # Range-filtered query: the max-flip is relative to the rows
            # that survive the filter, so the projection is query-specific
            # and not worth caching.
            projected = dataset.values[np.ix_(kept_ids, skyline_dims)].copy()
            flip = [i for i, dim in enumerate(skyline_dims) if dim in max_dims]
            for local_dim in flip:
                column = projected[:, local_dim]
                projected[:, local_dim] = column.max() - column
            target = Dataset(
                projected, name=f"{dataset.name}[query]", kind=dataset.kind
            )
        local = engine.execute(
            target,  # type: ignore[arg-type]
            algorithm,
            sigma,
            counter=counter,
            host_options=kwargs or None,
        )
        return replace(
            local,
            indices=local.indices if kept_ids is None else kept_ids[local.indices],
            cardinality=dataset.cardinality,
        )

    def _preference_dims(self, dataset: Dataset) -> list[int]:
        minimized = [dataset.column_index(c) for c in self._minimize]
        maximized = [dataset.column_index(c) for c in self._maximize]
        if not minimized and not maximized:
            raise InvalidParameterError(
                "a skyline query needs at least one minimize()/maximize() column"
            )
        overlap = set(minimized) & set(maximized)
        if overlap:
            raise InvalidParameterError(
                f"columns {sorted(overlap)} are both minimized and maximized"
            )
        dims = minimized + maximized
        if len(set(dims)) != len(dims):
            raise InvalidParameterError("a column may appear only once per direction")
        return dims

    def _max_dims(self, dataset: Dataset) -> set[int]:
        return {dataset.column_index(c) for c in self._maximize}
