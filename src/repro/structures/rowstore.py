"""``RowStore`` — an append-only float64 row matrix addressed by stable id.

Row ``i`` of the buffer is the point with stable id ``i``.  Rows are written
once, on arrival, and never move or change, so a delete is a tombstone kept
by the owner and costs the store nothing.  The buffer is over-allocated and
grows by a bounded step (an eighth of the ids it must hold) rather than by
doubling, so a full store never holds much more than the rows it serves.

A prepared dataset and its replay stream share one store: the stream reads
the rows the prepared layer appended instead of holding a second copy.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RowStore"]

#: Smallest buffer a growing store allocates.
_MIN_CAPACITY = 64


class RowStore:
    """Rows by stable id in an over-allocated ``(capacity, d)`` buffer.

    ``rows`` may start as a read-only array (a dataset's own values, with
    no spare room); the first :meth:`reserve` past it copies the rows into
    a writable buffer.  Holders must re-read ``rows`` after a ``reserve``.
    """

    def __init__(self, rows: np.ndarray) -> None:
        self.rows = rows

    @classmethod
    def empty(cls, d: int) -> "RowStore":
        """A writable store for ``d`` columns with room for a few rows."""
        return cls(np.empty((_MIN_CAPACITY, d), dtype=np.float64))

    def reserve(self, needed: int) -> None:
        """Make ids ``[0, needed)`` writable, growing by an eighth past them."""
        capacity = self.rows.shape[0]
        if needed <= capacity and self.rows.flags.writeable:
            return
        grown = max(_MIN_CAPACITY, needed + needed // 8, capacity)
        rows = np.empty((grown, self.rows.shape[1]), dtype=np.float64)
        rows[:capacity] = self.rows
        self.rows = rows
