"""The paper's primary contribution: subspace union + subset-query skyline index.

- :mod:`repro.core.subspace` — Definitions 3.3/3.4 and Lemmas 3.5/3.6/4.2/4.3
  as executable predicates.
- :mod:`repro.core.stability` — the subspace-size histogram and the σ′
  stability measure of Section 4.
- :mod:`repro.core.merge` — Algorithm 1 (subspace union over pivot points).
- :mod:`repro.core.subset_index` — Figure 3's map-based prefix tree with
  Algorithm 2 (``put``) and Algorithms 3/4 (``query``).
- :mod:`repro.core.container` — the generic skyline-container abstraction the
  paper proposes, with list-backed and subset-index-backed implementations.
- :mod:`repro.core.boost` — ``SubsetBoost``: wires Merge + the subset index
  into any sorting-based host algorithm (SFS-Subset, SaLSa-Subset, ...).
- :mod:`repro.core.prefix` — shared-survivor prefix kernels for prune-aware
  block-parallel execution (monotone scan order, prefix selection and the
  vectorised early-exit block filter).
- :mod:`repro.core.autotune` — sample-based stability-threshold selection
  (the paper's future-work item (2)).
"""

from repro.core.boost import SubsetBoost
from repro.core.container import ListContainer, SkylineContainer, SubsetContainer
from repro.core.merge import MergeResult, merge
from repro.core.prefix import (
    block_bounds,
    monotone_order,
    prefix_filter,
    select_prefix,
)
from repro.core.stability import StabilityTracker, subspace_size_histogram
from repro.core.subset_index import SkylineIndex
from repro.core.subspace import (
    implies_incomparable,
    may_dominate,
    maximum_dominating_subspace,
)

__all__ = [
    "ListContainer",
    "MergeResult",
    "SkylineContainer",
    "SkylineIndex",
    "StabilityTracker",
    "SubsetBoost",
    "SubsetContainer",
    "block_bounds",
    "implies_incomparable",
    "maximum_dominating_subspace",
    "may_dominate",
    "merge",
    "monotone_order",
    "prefix_filter",
    "select_prefix",
    "subspace_size_histogram",
]
