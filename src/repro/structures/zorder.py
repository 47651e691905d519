"""Z-order (Morton) addresses for multidimensional points.

ZSearch / Z-sky (Lee et al., VLDBJ 2010) exploit the fact that the Z-order
curve is *monotone with respect to dominance*: if ``p`` dominates ``q`` (all
coordinates of ``p`` are <= those of ``q`` on the quantisation grid), then
``z(p) <= z(q)``.  Scanning points in Z-address order is therefore a valid
monotone presort for a sorting-based skyline scan, which is how
:mod:`repro.algorithms.zorder_scan` uses this module.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvalidParameterError


def grid_coordinates(values: np.ndarray, bits: int = 16) -> np.ndarray:
    """Quantise an ``(n, d)`` float array onto a ``2**bits`` integer grid.

    The mapping is monotone per dimension (min-max normalised), so dominance
    on the grid is implied by dominance on the raw values.
    """
    if bits < 1 or bits > 21:
        raise InvalidParameterError(f"bits must be in [1, 21], got {bits}")
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise InvalidParameterError(f"values must be 2-D, got shape {values.shape}")
    lo = values.min(axis=0)
    hi = values.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    scaled = (values - lo) / span
    grid = np.floor(scaled * ((1 << bits) - 1)).astype(np.int64)
    return np.clip(grid, 0, (1 << bits) - 1)


def z_address(cell: np.ndarray) -> int:
    """Morton address of a single integer grid cell (arbitrary precision).

    Bit ``b`` of dimension ``i`` lands at position ``b * d + i`` of the
    address, which interleaves all dimensions evenly.
    """
    cell = np.asarray(cell, dtype=np.int64)
    d = cell.shape[0]
    address = 0
    for dim in range(d):
        value = int(cell[dim])
        bit_pos = 0
        while value:
            if value & 1:
                address |= 1 << (bit_pos * d + dim)
            value >>= 1
            bit_pos += 1
    return address


def z_addresses(grid: np.ndarray, bits: int = 16) -> list[int]:
    """Morton addresses for every row of an ``(n, d)`` integer grid array.

    Returns Python ints because ``d * bits`` can exceed 64 bits for the
    high-dimensional datasets in the paper (up to 24-D).
    """
    grid = np.asarray(grid, dtype=np.int64)
    if grid.ndim != 2:
        raise InvalidParameterError(f"grid must be 2-D, got shape {grid.shape}")
    n, d = grid.shape
    addresses = [0] * n
    for dim in range(d):
        column = grid[:, dim]
        for bit_pos in range(bits):
            plane_bit = 1 << bit_pos
            target = 1 << (bit_pos * d + dim)
            hits = np.nonzero(column & plane_bit)[0]
            for row in hits:
                addresses[row] |= target
    return addresses


def z_ranks(values: np.ndarray, bits: int) -> np.ndarray:
    """Dense ranks of the Morton addresses of ``values`` on a ``2**bits`` grid.

    The addresses are Python ints (they can exceed 64 bits); their dense
    ranks are an integer array in the same order, weakly monotone under
    dominance like the addresses, and usable as a
    :func:`~repro.dominance.scan_order` key.
    """
    addresses = z_addresses(grid_coordinates(values, bits=bits), bits=bits)
    _, ranks = np.unique(np.asarray(addresses, dtype=object), return_inverse=True)
    return ranks.astype(np.intp)
