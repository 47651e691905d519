"""Dataset persistence: CSV (interchange) and NPY (fast) round-trips."""

from __future__ import annotations

import csv
import warnings
from pathlib import Path

import numpy as np

from repro.dataset import Dataset
from repro.errors import InvalidDatasetError


def save_csv(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset to CSV with a ``dim_0..dim_{d-1}`` header row."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([f"dim_{i}" for i in range(dataset.dimensionality)])
        writer.writerows(dataset.values.tolist())


def load_csv(path: str | Path, name: str | None = None, kind: str = "custom") -> Dataset:
    """Read a dataset from CSV; a header row is detected and skipped.

    Line 1 is a header exactly when one of its cells does not parse as a
    float.  Plain numeric files take one vectorised parse; anything else
    (quoted or ``1_000``-style cells, ragged or non-numeric rows, no data)
    goes through the cell-by-cell reader, whose values are the same bits
    and whose errors name the offending line.
    """
    path = Path(path)
    values = _load_plain(path)
    if values is None:
        values = _load_cells(path)
    return Dataset(values, name=name or path.stem, kind=kind)


def _load_plain(path: Path) -> np.ndarray | None:
    """The file parsed by :func:`numpy.loadtxt`, or ``None`` if it is not plain.

    ``loadtxt`` reads each cell with the parser ``float()`` uses, so the
    values are bit-identical.  Without a header the whole file parses; with
    one, everything after line 1 does and line 1 itself is no data row.
    """
    for skiprows in (0, 1):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # "input contained no data"
                values = np.loadtxt(
                    path, delimiter=",", comments=None, ndmin=2, skiprows=skiprows
                )
        except ValueError:
            continue
        if values.size == 0 or (skiprows and not _has_header(path)):
            return None
        return values
    return None


def _has_header(path: Path) -> bool:
    """Whether line 1 of ``path`` holds a cell ``float()`` rejects."""
    with path.open(newline="") as handle:
        first = next(csv.reader(handle), [])
    try:
        for cell in first:
            float(cell)
    except ValueError:
        return True
    return False


def _load_cells(path: Path) -> np.ndarray:
    """Parse ``path`` cell by cell, raising on the first bad line."""
    rows: list[list[float]] = []
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        for lineno, row in enumerate(reader):
            if not row:
                continue
            try:
                rows.append([float(cell) for cell in row])
            except ValueError:
                if lineno == 0:
                    continue  # header row
                raise InvalidDatasetError(
                    f"{path}:{lineno + 1}: non-numeric cell in {row!r}"
                ) from None
    if not rows:
        raise InvalidDatasetError(f"{path}: no data rows")
    try:
        return np.asarray(rows, dtype=np.float64)
    except ValueError:
        raise _ragged_row_error(path, len(rows), len(rows[0])) from None


def _ragged_row_error(path: Path, data_rows: int, width: int) -> InvalidDatasetError:
    """Name the first data row of ``path`` whose cell count is not ``width``.

    Re-reads the file, so only a load that already failed pays for it.
    Every non-empty line is a data row except a skipped header on line 1.
    """
    with path.open(newline="") as handle:
        lines = [(n, row) for n, row in enumerate(csv.reader(handle), start=1) if row]
    header = len(lines) - data_rows
    lineno, row = next((n, row) for n, row in lines[header:] if len(row) != width)
    return InvalidDatasetError(f"{path}:{lineno}: expected {width} cells, got {len(row)}")


def save_npy(dataset: Dataset, path: str | Path) -> None:
    """Write the raw value matrix to a ``.npy`` file."""
    np.save(Path(path), dataset.values)


def load_npy(path: str | Path, name: str | None = None, kind: str = "custom") -> Dataset:
    """Read a value matrix from a ``.npy`` file."""
    path = Path(path)
    values = np.load(path)
    return Dataset(values, name=name or path.stem, kind=kind)
