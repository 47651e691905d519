"""The :class:`Dataset` wrapper shared by every algorithm in the library.

A dataset is an immutable ``(n, d)`` float64 matrix plus descriptive
metadata.  Row ``i`` is the point with id ``i``; skyline results refer back
to these row ids.  The preference order is minimisation in every dimension
(Definition 3.1); :meth:`Dataset.minimizing` converts columns where larger
is better.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.errors import InvalidDatasetError


@dataclass(frozen=True)
class Dataset:
    """An in-memory multidimensional dataset.

    Parameters
    ----------
    values:
        Array of shape ``(n, d)``; copied and made read-only on construction.
    name:
        Human-readable label used by the benchmark harness.
    kind:
        Correlation regime tag: ``"AC"``, ``"CO"``, ``"UI"``, ``"REAL"`` or
        ``"custom"``.
    """

    values: np.ndarray
    name: str = "dataset"
    kind: str = "custom"
    metadata: dict[str, object] = field(default_factory=dict)
    columns: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=np.float64, copy=True)
        if values.ndim != 2:
            raise InvalidDatasetError(
                f"dataset must be a 2-D array, got shape {values.shape}"
            )
        if values.shape[0] == 0 or values.shape[1] == 0:
            raise InvalidDatasetError(f"dataset must be non-empty, got {values.shape}")
        if not np.isfinite(values).all():
            raise InvalidDatasetError("dataset contains NaN or infinite values")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        if self.columns is not None:
            columns = tuple(str(c) for c in self.columns)
            if len(columns) != values.shape[1]:
                raise InvalidDatasetError(
                    f"{len(columns)} column names for {values.shape[1]} dimensions"
                )
            if len(set(columns)) != len(columns):
                raise InvalidDatasetError(f"duplicate column names in {columns}")
            object.__setattr__(self, "columns", columns)

    @classmethod
    def _trusted(cls, values: np.ndarray, name: str, kind: str) -> "Dataset":
        """Wrap rows validated on arrival, without a copy or a second check.

        ``values`` must be a non-empty 2-D float64 array of finite values
        that nothing writes to any more; it is made read-only here.  The
        prepared layer builds its positional datasets this way from rows
        it already checked.
        """
        values.setflags(write=False)
        dataset = object.__new__(cls)
        for attr, value in (
            ("values", values),
            ("name", name),
            ("kind", kind),
            ("metadata", {}),
            ("columns", None),
        ):
            object.__setattr__(dataset, attr, value)
        return dataset

    def column_index(self, column: "int | str") -> int:
        """Resolve a 0-based index or a column name to its index."""
        if isinstance(column, (int, np.integer)):
            if not 0 <= int(column) < self.dimensionality:
                raise InvalidDatasetError(
                    f"column index {column} outside [0, {self.dimensionality})"
                )
            return int(column)
        if self.columns is None:
            raise InvalidDatasetError(
                f"dataset {self.name!r} has no column names; use an index"
            )
        try:
            return self.columns.index(column)
        except ValueError:
            raise InvalidDatasetError(
                f"unknown column {column!r}; columns are {self.columns}"
            ) from None

    @classmethod
    def from_columns(
        cls,
        columns: "dict[str, Sequence[float] | np.ndarray]",
        name: str = "dataset",
        kind: str = "custom",
    ) -> "Dataset":
        """Build a named-column dataset from a mapping of column -> values.

        >>> ds = Dataset.from_columns({"price": [1.0, 2.0], "size": [3.0, 4.0]})
        >>> ds.columns
        ('price', 'size')
        >>> ds.column_index("size")
        1
        """
        if not columns:
            raise InvalidDatasetError("from_columns needs at least one column")
        names = tuple(columns)
        arrays = [np.asarray(values, dtype=np.float64) for values in columns.values()]
        lengths = {arr.shape for arr in arrays}
        if len(lengths) != 1 or arrays[0].ndim != 1:
            raise InvalidDatasetError(
                f"columns must be equal-length 1-D sequences, got shapes "
                f"{[arr.shape for arr in arrays]}"
            )
        return cls(np.column_stack(arrays), name=name, kind=kind, columns=names)

    @property
    def cardinality(self) -> int:
        """Number of points ``N``."""
        return int(self.values.shape[0])

    @property
    def dimensionality(self) -> int:
        """Number of dimensions ``d``."""
        return int(self.values.shape[1])

    def __len__(self) -> int:
        return self.cardinality

    def point(self, point_id: int) -> np.ndarray:
        """The coordinates of point ``point_id`` (a read-only view)."""
        return self.values[point_id]

    def subset(self, ids: Sequence[int] | np.ndarray, name: str | None = None) -> "Dataset":
        """A new dataset containing only the given rows (ids re-based to 0..k)."""
        ids = np.asarray(ids, dtype=np.intp)
        return Dataset(
            self.values[ids],
            name=name or f"{self.name}[subset:{len(ids)}]",
            kind=self.kind,
            metadata=dict(self.metadata),
        )

    def minimizing(self, maximize_dims: Sequence[int]) -> "Dataset":
        """Convert max-is-better columns into the library's min convention.

        Each listed column ``j`` is replaced by ``max(col_j) - col_j``, a
        monotone flip that preserves the skyline.
        """
        flipped = np.array(self.values, copy=True)
        for dim in maximize_dims:
            column = flipped[:, dim]
            flipped[:, dim] = column.max() - column
        return Dataset(
            flipped,
            name=f"{self.name}[minimizing]",
            kind=self.kind,
            metadata=dict(self.metadata),
        )

    def euclidean_scores(self) -> np.ndarray:
        """Euclidean distance of every point to the origin (Merge scoring)."""
        return np.sqrt(np.einsum("ij,ij->i", self.values, self.values))

    def describe(self) -> str:
        """One-line summary used in logs and example output."""
        return (
            f"{self.name}: N={self.cardinality} d={self.dimensionality} "
            f"kind={self.kind}"
        )


def as_dataset(data: "Dataset | np.ndarray | Sequence[Sequence[float]]") -> Dataset:
    """Coerce raw arrays into a :class:`Dataset`; pass datasets through."""
    if isinstance(data, Dataset):
        return data
    return Dataset(np.asarray(data, dtype=np.float64))
