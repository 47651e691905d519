"""``Plan`` — the inspectable outcome of planning one skyline query.

A plan is to the skyline operator what ``EXPLAIN`` output is to a SQL
query: which host algorithm runs, whether the subset boost wraps it, which
container backs the scan, the stability threshold σ, and the execution
knobs (worker count, parallel strategy) — plus the signals and reasons
that led there.  Plans are immutable and comparable, so planner
determinism is testable as plain equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import InvalidParameterError

if TYPE_CHECKING:
    from repro.algorithms.base import SkylineResult
    from repro.engine.analyze import PlanAnalysis

__all__ = ["Plan"]


@dataclass(frozen=True)
class Plan:
    """An executable description of one skyline computation.

    Attributes
    ----------
    algorithm:
        Registry name of the host algorithm (``"sfs"``, ``"salsa"``, ...).
    boosted:
        Whether the subset approach (Merge + subset container) wraps the
        host.
    sigma:
        Stability threshold for the Merge pass; ``None`` when not boosted.
    container:
        Skyline store for the boosted scan: ``"subset"`` or ``"list"``.
    pivot_strategy:
        Merge pivot selection strategy.
    workers:
        Process count for block-parallel execution; ``1`` is sequential.
    parallel_strategy:
        How block-parallel execution partitions and prunes: ``"none"``
        (sequential), ``"prefix"`` (sort-order partitioning with the
        shared-survivor prefix exchange — the default for ``workers > 1``)
        or ``"even"`` (the PR 5 even row-range split, no pruning).
    prefix_size:
        Shared-survivor prefix points broadcast to every worker before the
        local scans (``0`` when the strategy does not exchange a prefix).
    block_growth:
        Geometric block-size growth along the partition order; ``1.0`` is
        an even split.  Derived from the expected skyline fraction in
        adaptive plans: the stronger the prefix prunes, the larger late
        blocks can be.
    adaptive:
        ``True`` when the planner chose the algorithm from dataset
        statistics; ``False`` when the caller pinned it (the mode with
        dominance-test parity guarantees versus direct calls).
    incremental:
        ``True`` when execution repairs the previously noted skyline from
        the prepared dataset's pending delta log instead of scanning; the
        host/boost knobs above are inert for such plans.
    pending_mutations:
        Rows inserted plus deleted since the last noted full skyline (set
        whenever a pending delta informed the decision, even on full
        plans).
    delta_fraction:
        ``pending_mutations`` over the current cardinality.
    repair_cost, recompute_cost:
        The cost model's dominance-test estimates for replaying the delta
        log versus recomputing from scratch — the inputs behind the
        repair-vs-recompute decision shown by :meth:`explain`.
    estimates:
        The ``(name, value)`` cost-model inputs the decision was weighed
        against — the size/dimensionality thresholds, correlation
        cutoffs and per-op repair cost constants in force when the plan
        was made.  Recorded so :meth:`analyze` can show the estimates next
        to measured actuals after execution; empty for pinned plans (which
        never consult the cost model).
    host_options:
        Constructor keyword arguments for the host, as sorted pairs.
    signals:
        The ``(name, value)`` estimator signals the decision consumed.
        Incremental plans carry ``n``, ``d`` and ``expected_skyline``
        (computable without a pass over the rows); full adaptive plans
        add ``correlation`` from the prepared statistics.
    reasons:
        Human-readable justification, one clause per decision.
    """

    algorithm: str
    boosted: bool = False
    sigma: int | None = None
    container: str = "subset"
    pivot_strategy: str = "euclidean"
    workers: int = 1
    parallel_strategy: str = "none"
    prefix_size: int = 0
    block_growth: float = 1.0
    adaptive: bool = False
    incremental: bool = False
    pending_mutations: int = 0
    delta_fraction: float = 0.0
    repair_cost: float = 0.0
    recompute_cost: float = 0.0
    estimates: tuple[tuple[str, float], ...] = ()
    host_options: tuple[tuple[str, object], ...] = ()
    signals: tuple[tuple[str, float], ...] = field(default=(), compare=True)
    reasons: tuple[str, ...] = ()

    #: The subset index behind a ``"subset"`` container: always the paper's
    #: map prefix tree.  Kept readable for callers that record it.
    index_backend = "map"

    @property
    def label(self) -> str:
        """The registry-style name of the planned execution.

        Matches the names direct calls produce (``"sfs"``,
        ``"sfs-subset"``), so results are comparable across paths.
        """
        return f"{self.algorithm}-subset" if self.boosted else self.algorithm

    @property
    def sort_cache_key(self) -> str:
        """The :meth:`PreparedDataset.sort_cache` key for this plan.

        Encodes everything that changes the scanned id set or the scan
        order: host name and options, boost mode, σ and pivot strategy
        (these determine ``remaining_ids``).  The container deliberately
        does not appear — it changes neither.
        """
        options = ",".join(f"{k}={v!r}" for k, v in self.host_options)
        if self.boosted:
            return (
                f"{self.algorithm}({options})|boosted"
                f"|σ{self.sigma}|{self.pivot_strategy}"
            )
        return f"{self.algorithm}({options})|plain"

    def explain(self) -> str:
        """A multi-line, ``EXPLAIN``-style description of the plan."""
        mode = "adaptive" if self.adaptive else "pinned"
        lines = [f"Plan: {self.label}  [{mode}]"]
        if self.incremental:
            lines.append("  execution: incremental delta-repair")
            self._explain_delta(lines)
            if self.signals:
                rendered = ", ".join(
                    f"{name}={value:g}" for name, value in self.signals
                )
                lines.append(f"  signals: {rendered}")
            for reason in self.reasons:
                lines.append(f"  - {reason}")
            return "\n".join(lines)
        if self.boosted:
            lines.append(
                f"  boost: merge(σ={self.sigma}, pivots={self.pivot_strategy})"
                f" -> {self.container} container"
            )
        else:
            lines.append("  boost: off (plain list container)")
        if self.host_options:
            options = ", ".join(f"{k}={v!r}" for k, v in self.host_options)
            lines.append(f"  host options: {options}")
        if self.workers > 1:
            detail = self.parallel_strategy
            if self.prefix_size:
                detail += f", prefix={self.prefix_size}"
            if self.block_growth != 1.0:
                detail += f", growth={self.block_growth:g}"
            lines.append(f"  execution: parallel x{self.workers} [{detail}]")
        else:
            lines.append("  execution: sequential")
        if self.pending_mutations:
            self._explain_delta(lines)
        if self.signals:
            rendered = ", ".join(f"{name}={value:g}" for name, value in self.signals)
            lines.append(f"  signals: {rendered}")
        for reason in self.reasons:
            lines.append(f"  - {reason}")
        return "\n".join(lines)

    def analyze(self, result: "SkylineResult") -> "PlanAnalysis":
        """EXPLAIN ANALYZE: this plan's estimates against ``result``'s actuals.

        ``result`` must come from executing this plan (checked by
        equality).  Imported lazily so the plain ``explain`` path never
        loads the analysis machinery.
        """
        # Imported lazily: analyze pulls in the obs phase aggregation.
        from repro.engine.analyze import analyze as run_analyze

        if result.plan is not None and result.plan != self:
            raise InvalidParameterError(
                "result was executed under a different plan "
                f"({result.plan.label!r}, not {self.label!r})"
            )
        return run_analyze(result)

    def _explain_delta(self, lines: list[str]) -> None:
        """Append the repair-vs-recompute decision and its cost inputs."""
        lines.append(
            f"  delta: {self.pending_mutations} pending ops "
            f"({self.delta_fraction:.2%} of n)"
        )
        chosen = "delta repair" if self.incremental else "full recompute"
        lines.append(
            f"  repair-vs-recompute: est {self.repair_cost:g} vs "
            f"{self.recompute_cost:g} tests -> {chosen}"
        )
