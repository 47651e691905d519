"""Expected skyline cardinality under uniform independence.

Godfrey et al. [9, 10] analyse the average-case behaviour of skyline
algorithms under the *uniform independence* (UI) and *component
independence* assumptions.  The classical result (Godfrey; originally
Bentley et al.): with independent, duplicate-free dimensions, the expected
skyline size of ``n`` points in ``d`` dimensions is the generalised
harmonic number

    E[|skyline|] = H_{d-1, n},   H_{0, n} = 1,
    H_{k, n} = sum_{i=1..n} H_{k-1, i} / i,

which grows as ``(ln n)^{d-1} / (d-1)!``.  The benchmark harness uses this
to sanity-check the UI generator's Table 1 shape, and downstream users can
use it to size skyline buffers before computing anything.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import InvalidParameterError


def expected_skyline_size(n: int, d: int) -> float:
    """``E[|skyline|] = H_{d-1, n}`` under uniform independence.

    Exact O(d·n) dynamic program over the harmonic recurrence, one
    cumulative sum per level: ``np.cumsum`` adds left to right, so every
    value equals the scalar recurrence's bit for bit.

    >>> expected_skyline_size(100, 1)
    1.0
    >>> round(expected_skyline_size(100, 2), 4)   # H_{1,100} = H_100
    5.1874
    """
    if n < 1:
        raise InvalidParameterError(f"n must be >= 1, got {n}")
    if d < 1:
        raise InvalidParameterError(f"d must be >= 1, got {d}")
    # current[i-1] holds H_{k, i}; start with H_0 = 1 for every prefix.
    current = np.ones(n, dtype=np.float64)
    divisors = np.arange(1, n + 1, dtype=np.float64)
    for _ in range(d - 1):
        current = np.cumsum(current / divisors)
    return float(current[n - 1])


def expected_skyline_size_asymptotic(n: int, d: int) -> float:
    """The closed-form approximation ``(ln n)^{d-1} / (d-1)!``."""
    if n < 1:
        raise InvalidParameterError(f"n must be >= 1, got {n}")
    if d < 1:
        raise InvalidParameterError(f"d must be >= 1, got {d}")
    if n == 1:
        return 1.0
    return math.log(n) ** (d - 1) / math.factorial(d - 1)


def correlation_signal(values: np.ndarray) -> float:
    """Mean pairwise Pearson correlation between dimensions, in ``[-1, 1]``.

    The workload-regime signal the planner keys algorithm selection on:
    strongly positive for the paper's AC-style generators (tiny skylines,
    stop points terminate scans early), near zero for UI, strongly
    negative for CO (large skylines, index filtering dominates).  Constant
    dimensions carry no preference information and contribute zero.

    >>> import numpy as np
    >>> base = np.linspace(0.0, 1.0, 64)
    >>> round(correlation_signal(np.column_stack([base, base])), 6)
    1.0
    >>> round(correlation_signal(np.column_stack([base, -base])), 6)
    -1.0
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise InvalidParameterError(
            f"expected an (n, d) array, got shape {values.shape}"
        )
    n, d = values.shape
    if n < 2 or d < 2:
        return 0.0
    deviations = values - values.mean(axis=0)
    norms = np.sqrt(np.einsum("ij,ij->j", deviations, deviations))
    varying = norms > 0.0
    if int(varying.sum()) < 2:
        return 0.0
    unit = deviations[:, varying] / norms[varying]
    matrix = unit.T @ unit
    k = matrix.shape[0]
    off_diagonal = matrix.sum() - np.trace(matrix)
    return float(np.clip(off_diagonal / (k * (k - 1)), -1.0, 1.0))
