"""Monotone sorting functions for presort-and-scan skyline algorithms.

Section 2: a sorting function ``f`` must satisfy ``f(p) < f(q) ⇒ q ⊀ p`` —
when points are scanned in ascending ``f`` order, a dominator is always
seen before the points it dominates.  The choice of ``f`` is "heuristic
[and] heavily affects the total number of dominance tests", which the
``ablation_sort`` benchmark measures.

All keys are computed after shifting by the dataset's componentwise minimum
corner so they remain well-defined (entropy) and monotone for arbitrary
real-valued data; on the paper's ``[0, 1]`` benchmarks the shift is a no-op.
In floats every key is only *weakly* monotone (``1.0 + 1e-17 == 1.0``, and
the shift itself can round a sub-ulp difference away), so a key alone
never fixes the scan order: callers pass it to
:func:`~repro.dominance.scan_order`, which breaks its ties on the raw rows.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvalidParameterError

__all__ = ["sort_keys"]

SORT_FUNCTIONS = ("entropy", "sum", "euclidean", "minc")


def sort_keys(
    values: np.ndarray, function: str, corner: np.ndarray | None = None
) -> np.ndarray:
    """Per-point sort keys for one of :data:`SORT_FUNCTIONS`.

    ``entropy``, ``sum`` and ``euclidean`` are strictly monotone under
    dominance in exact arithmetic, ``minc`` (SaLSa's min-coordinate) only
    weakly; in floats all four are weakly monotone, so equal keys are
    ordered by :func:`~repro.dominance.scan_order`.

    ``corner`` overrides the shift origin: a boosted scan phase computes
    keys over only the merge survivors but must keep the *full* dataset's
    minimum corner so the order matches a whole-dataset sort exactly.
    """
    if function not in SORT_FUNCTIONS:
        raise InvalidParameterError(
            f"unknown sort function {function!r}; expected one of {SORT_FUNCTIONS}"
        )
    shifted = values - (values.min(axis=0) if corner is None else corner)
    if function == "entropy":
        return np.log1p(shifted).sum(axis=1)
    if function == "sum":
        return shifted.sum(axis=1)
    if function == "euclidean":
        return np.sqrt(np.einsum("ij,ij->i", shifted, shifted))
    return shifted.min(axis=1)  # minc
