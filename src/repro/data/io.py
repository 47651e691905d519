"""Dataset persistence: CSV (interchange) and NPY (fast) round-trips."""

from __future__ import annotations

import csv
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
    """Read a dataset from CSV; a header row is detected and skipped."""
    path = Path(path)
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
        values = np.asarray(rows, dtype=np.float64)
    except ValueError:
        raise _ragged_row_error(path, len(rows), len(rows[0])) from None
    return Dataset(values, name=name or path.stem, kind=kind)


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
