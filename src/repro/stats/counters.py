"""Dominance-test accounting.

The paper's primary evaluation metric is the *mean dominance test number*
(Section 6): total dominance tests divided by the dataset cardinality.  Every
algorithm in this library threads a :class:`DominanceCounter` through its
dominance kernel so the metric is exact, including the dominating-subspace
computations performed by the Merge phase (each of which inspects one point
pair and is charged as one test).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class DominanceCounter:
    """Mutable tally of point-pair dominance tests plus auxiliary counters.

    Attributes
    ----------
    tests:
        Number of point-pair dominance (or dominating-subspace) evaluations.
    index_queries:
        Number of subset-index ``query`` calls (boosted algorithms only).
    index_nodes_visited:
        Prefix-tree nodes touched by those queries.
    index_cache_hits, index_cache_misses:
        Always 0: the subset index keeps no query cache.
    prepared_cache_hits:
        :class:`~repro.engine.prepared.PreparedDataset` cache lookups
        (Merge results, sort keys, views, anchor masks, statistics) served
        without recomputation.  A hit performs no dominance tests, so the
        DT saving of the warm path is exactly the tests the cold path
        charged for the same artefact.
    prepared_cache_misses:
        Prepared-cache lookups that had to compute (and cache) the
        artefact; the computation's dominance tests are charged normally.
    """

    tests: int = 0
    index_queries: int = 0
    index_nodes_visited: int = 0
    # The subset index has no query cache, so these two stay 0.  They are
    # kept because perfbench reads them by name (``workloads.COUNTER_FIELDS``)
    # and derives ``index.hit_ratio`` from them.
    index_cache_hits: int = 0
    index_cache_misses: int = 0
    prepared_cache_hits: int = 0
    prepared_cache_misses: int = 0
    extras: dict[str, float] = field(default_factory=dict)

    def add(self, n: int = 1) -> None:
        """Charge ``n`` dominance tests."""
        self.tests += n

    def add_query(self, nodes_visited: int) -> None:
        """Record one subset-index query that touched ``nodes_visited`` nodes."""
        self.index_queries += 1
        self.index_nodes_visited += nodes_visited

    def add_prepared_hit(self, n: int = 1) -> None:
        """Record ``n`` prepared-dataset cache hits (no work performed)."""
        self.prepared_cache_hits += n

    def add_prepared_miss(self, n: int = 1) -> None:
        """Record ``n`` prepared-dataset cache misses (artefact computed)."""
        self.prepared_cache_misses += n

    def absorb(self, other: "DominanceCounter") -> None:
        """Fold another counter's tallies into this one.

        Used by :class:`~repro.engine.context.ExecutionContext` to
        aggregate per-query counters into a session-wide total.
        """
        self.tests += other.tests
        self.index_queries += other.index_queries
        self.index_nodes_visited += other.index_nodes_visited
        self.prepared_cache_hits += other.prepared_cache_hits
        self.prepared_cache_misses += other.prepared_cache_misses
        for key, value in other.extras.items():
            self.extras[key] = self.extras.get(key, 0.0) + value

    def as_dict(self) -> dict[str, float]:
        """Every tally as a flat mapping with stable key order.

        Scalar fields come first in declaration order, then ``extras``
        entries (sorted) under an ``extras.`` prefix.  This is the single
        serialisation of a counter — the metrics registry, the bench
        report and the CLI all consume it, so two snapshots can be
        compared key-by-key (span boundaries diff them to attribute
        dominance tests per phase).
        """
        out: dict[str, float] = {
            "tests": float(self.tests),
            "index_queries": float(self.index_queries),
            "index_nodes_visited": float(self.index_nodes_visited),
            "prepared_cache_hits": float(self.prepared_cache_hits),
            "prepared_cache_misses": float(self.prepared_cache_misses),
        }
        for key, value in sorted(self.extras.items()):
            out[f"extras.{key}"] = float(value)
        return out

    def snapshot(self) -> "DominanceCounter":
        """An independent copy of the current tallies."""
        return DominanceCounter(
            tests=self.tests,
            index_queries=self.index_queries,
            index_nodes_visited=self.index_nodes_visited,
            prepared_cache_hits=self.prepared_cache_hits,
            prepared_cache_misses=self.prepared_cache_misses,
            extras=dict(self.extras),
        )

    def mean_tests(self, cardinality: int) -> float:
        """The paper's mean dominance test number: ``tests / N``."""
        if cardinality <= 0:
            raise ValueError(f"cardinality must be positive, got {cardinality}")
        return self.tests / cardinality

    def reset(self) -> None:
        """Zero every counter; reuse one counter across runs."""
        self.tests = 0
        self.index_queries = 0
        self.index_nodes_visited = 0
        self.prepared_cache_hits = 0
        self.prepared_cache_misses = 0
        self.extras.clear()
