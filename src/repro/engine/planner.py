"""``Planner`` — cost-based algorithm and container selection.

The survey literature (Kalyvas & Tzouramanis, arXiv:1704.01788) and the
SDI framework paper (Liu, arXiv:1908.04083) both observe that no single
skyline algorithm wins across data regimes: stop-point scans (SaLSa)
dominate on correlated data, index-filtered scans on anti-correlated and
high-dimensional data, and plain scans on inputs too small to repay any
setup.  The planner encodes those regime boundaries over the estimator
signals of :meth:`~repro.engine.prepared.PreparedDataset.statistics` —
cardinality, dimensionality, the pairwise correlation signal and the
expected skyline size — and emits an inspectable
:class:`~repro.engine.plan.Plan`.  A pending delta is weighed first, from
the shape and the delta log alone: an incremental plan never computes the
statistics.

Two modes:

- **pinned** (``algorithm`` given): the caller's choice is honoured
  exactly; the emitted plan reproduces the direct
  :func:`~repro.algorithms.registry.get_algorithm` wiring bit-for-bit,
  including dominance-test accounting.  This is the compatibility mode
  every refactored call site uses by default.
- **adaptive** (``algorithm=None``): the planner selects host, boost and σ
  from the dataset statistics.  Decisions are pure functions of the
  statistics (plus the seeded sigma autotuner when enabled), so the same
  dataset and seed always produce the identical plan.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.algorithms.registry import available_algorithms
from repro.core.stability import default_threshold, validate_threshold
from repro.engine.plan import Plan
from repro.engine.prepared import DatasetStatistics, PreparedDataset
from repro.errors import InvalidParameterError, UnknownAlgorithmError
from repro.stats.counters import DominanceCounter

__all__ = ["Planner"]

#: Correlation above which the stop point of a sort-and-limit scan is
#: expected to terminate the scan almost immediately (Table 8's regime),
#: making the Merge pass pure overhead.
_CORRELATED_CUTOFF = 0.35

#: Correlation below which the skyline is large enough that subset-index
#: filtering (and SDI's per-dimension traversal) pays off at any d.
_ANTI_CORRELATED_CUTOFF = -0.2

#: Below this cardinality no preprocessing is worth its setup cost.
_SMALL_N = 600

#: From this dimensionality upward SDI's dimension-indexed traversal beats
#: the entropy-sorted scan as the boosted host (Tables 4-7).
_HIGH_D = 5

#: From this cardinality upward block-parallel execution repays process
#: dispatch and the sequential merge over the union of local skylines.
_PARALLEL_N = 200_000

#: Minimum rows per parallel block.  ``default_workers`` is uncapped (the
#: host CPU count), so the planner bounds the *effective* worker count by
#: block size instead: below this many rows per block, process dispatch
#: and per-block Merge setup dominate any split of the scan work.
_MIN_BLOCK_ROWS = 50_000

#: Shared-survivor prefix bounds for adaptive plans.  The prefix grows
#: slowly with the expected skyline (more prefix points keep their pruning
#: power when the skyline is large) but stays small: every survivor is
#: charged one dominance test per prefix point during the worker-side
#: filter, so an oversized prefix taxes exactly the points that matter.
_MIN_PREFIX, _MAX_PREFIX = 8, 32

#: Prefix size and block growth of *pinned* plans with ``workers > 1``.
#: Pinned mode must stay a pure function of the caller's arguments (no
#: estimator statistics), so fixed defaults replace the adaptive formulas.
_PINNED_PREFIX = 16
_PINNED_GROWTH = 1.5

#: Estimated dominance tests the replay stream charges per pending delta
#: operation: an insert probes the anchor masks (8 tests) plus the current
#: skyline's demotion sweep; a delete's exposure filter touches the buffer.
#: 64 over-estimates small skylines and under-estimates huge ones, but the
#: decision only has to be right about the *order of magnitude* against a
#: full ``n * d``-shaped recompute.
_REPAIR_OP_COST = 64.0


class Planner:
    """Chooses algorithm, container and execution mode for one query.

    Parameters
    ----------
    autotune:
        Select σ with :func:`~repro.core.autotune.tune_sigma` on a seeded
        sample instead of the paper's ``round(d/3)`` default.  Off by
        default — it spends sample runs to pick σ, which only pays off
        for sessions with many queries against the same preparation.
    sample_size:
        Sample rows for the autotuner.
    seed:
        Autotuner sampling seed; part of the determinism contract.
    """

    def __init__(
        self,
        autotune: bool = False,
        sample_size: int = 2000,
        seed: int = 0,
    ) -> None:
        self.autotune = autotune
        self.sample_size = sample_size
        self.seed = seed

    def plan(
        self,
        prepared: PreparedDataset,
        algorithm: str | None = None,
        sigma: int | None = None,
        *,
        container: str = "subset",
        pivot_strategy: str = "euclidean",
        workers: int | None = None,
        parallel_strategy: str | None = None,
        incremental: bool | None = None,
        host_options: Mapping[str, object] | None = None,
        counter: DominanceCounter | None = None,
    ) -> Plan:
        """Emit the :class:`Plan` for one query over ``prepared``.

        ``algorithm`` pins a registry name (``"sfs"``, ``"sdi-subset"``,
        ...); ``None`` selects adaptively from the dataset statistics.
        ``workers``: an explicit count is honoured as given, ``None`` lets
        adaptive plans turn on block-parallel execution above
        ``_PARALLEL_N`` rows (pinned plans stay sequential).
        ``parallel_strategy`` pins how a parallel plan partitions and
        prunes (``"prefix"``/``"even"``); ``None`` selects the prune-aware
        prefix exchange whenever ``workers > 1``.

        ``incremental`` controls delta repair when the prepared dataset has
        pending mutations logged by :meth:`PreparedDataset.apply_delta`:
        ``None`` lets the cost model choose between replaying the delta log
        and a full recompute, ``True`` forces repair (an error when no
        repairable state exists or the algorithm is pinned — pinned mode is
        the bit-for-bit parity contract and never repairs), ``False``
        forces a full plan.
        """
        if incremental and algorithm is not None:
            raise InvalidParameterError(
                "incremental=True conflicts with a pinned algorithm: pinned "
                "plans guarantee direct-call parity and never delta-repair"
            )
        if workers is not None and workers < 1:
            raise InvalidParameterError(f"workers must be >= 1, got {workers}")
        if container not in ("subset", "list"):
            raise InvalidParameterError(
                f"container must be 'subset' or 'list', got {container!r}"
            )
        if parallel_strategy not in (None, "prefix", "even"):
            raise InvalidParameterError(
                "parallel_strategy must be 'prefix' or 'even', "
                f"got {parallel_strategy!r}"
            )
        options = tuple(sorted((host_options or {}).items()))
        if algorithm is not None:
            return self._pinned(
                prepared,
                algorithm,
                sigma,
                container=container,
                pivot_strategy=pivot_strategy,
                workers=workers,
                parallel_strategy=parallel_strategy,
                host_options=options,
            )
        return self._adaptive(
            prepared,
            sigma,
            container=container,
            pivot_strategy=pivot_strategy,
            workers=workers,
            parallel_strategy=parallel_strategy,
            incremental=incremental,
            host_options=options,
            counter=counter,
        )

    # -- pinned mode --------------------------------------------------------

    def _pinned(
        self,
        prepared: PreparedDataset,
        algorithm: str,
        sigma: int | None,
        *,
        container: str,
        pivot_strategy: str,
        workers: int | None,
        parallel_strategy: str | None,
        host_options: tuple[tuple[str, object], ...],
    ) -> Plan:
        key = algorithm.lower()
        if key not in available_algorithms():
            raise UnknownAlgorithmError(
                f"unknown algorithm {algorithm!r}; available: {available_algorithms()}"
            )
        boosted = key.endswith("-subset")
        host = key.removesuffix("-subset") if boosted else key
        if boosted:
            d = prepared.dimensionality
            if d < 2:
                # The boost falls back to the plain host below d=2; no σ to
                # resolve (default_threshold is undefined there).
                resolved = sigma
            else:
                resolved = sigma if sigma is not None else default_threshold(d)
                validate_threshold(resolved, d)
        else:
            if sigma is not None:
                raise InvalidParameterError(
                    f"sigma is only meaningful for '-subset' algorithms, got {key!r}"
                )
            resolved = None
        resolved_workers = workers if workers is not None else 1
        reasons = [f"algorithm pinned by caller: {key}"]
        strategy, prefix_size, growth = self._resolve_strategy(
            resolved_workers, parallel_strategy, _PINNED_PREFIX, _PINNED_GROWTH
        )
        if resolved_workers > 1:
            reasons.append(
                f"workers={resolved_workers} pinned by caller: "
                f"{strategy} block-parallel execution"
            )
        return Plan(
            algorithm=host,
            boosted=boosted,
            sigma=resolved,
            container=container,
            pivot_strategy=pivot_strategy,
            # Pinned plans keep the direct-call default of sequential
            # execution unless the caller asks otherwise — the mode with
            # bit-for-bit counter parity versus get_algorithm calls.
            # Parallel knobs (prefix size, growth) use fixed defaults so
            # pinned plans stay a pure function of the caller's arguments.
            workers=resolved_workers,
            parallel_strategy=strategy,
            prefix_size=prefix_size,
            block_growth=growth,
            adaptive=False,
            host_options=host_options,
            reasons=tuple(reasons),
        )

    @staticmethod
    def _resolve_strategy(
        workers: int,
        parallel_strategy: str | None,
        prefix_size: int,
        growth: float,
    ) -> tuple[str, int, float]:
        """Normalise the parallel knobs for a resolved worker count."""
        if workers <= 1:
            return "none", 0, 1.0
        strategy = parallel_strategy if parallel_strategy is not None else "prefix"
        if strategy == "even":
            # The legacy PR 5 split: even row ranges, no pruning exchange.
            return "even", 0, 1.0
        return "prefix", prefix_size, growth

    # -- adaptive mode ------------------------------------------------------

    def _adaptive(
        self,
        prepared: PreparedDataset,
        sigma: int | None,
        *,
        container: str,
        pivot_strategy: str,
        workers: int | None,
        parallel_strategy: str | None,
        incremental: bool | None,
        host_options: tuple[tuple[str, object], ...],
        counter: DominanceCounter | None,
    ) -> Plan:
        # The cost-model inputs this decision is weighed against, recorded
        # on the plan so EXPLAIN ANALYZE can line estimates up with
        # post-execution actuals.  Pinned plans never consult these.
        estimates = (
            ("small_n_threshold", float(_SMALL_N)),
            ("high_d_threshold", float(_HIGH_D)),
            ("correlated_cutoff", _CORRELATED_CUTOFF),
            ("parallel_n_threshold", float(_PARALLEL_N)),
            ("repair_op_cost", _REPAIR_OP_COST),
        )
        reasons: list[str] = []

        # Repair-vs-recompute needs only the shape and the delta log, so
        # an incremental plan never pays for the statistics pass below.
        delta = self._consider_incremental(prepared, incremental, estimates, reasons)
        if isinstance(delta, Plan):
            return delta
        pending, fraction, repair_cost, recompute_cost = delta

        stats = prepared.statistics(counter)
        signals = (
            ("n", float(stats.cardinality)),
            ("d", float(stats.dimensionality)),
            ("correlation", stats.correlation),
            ("expected_skyline", stats.expected_skyline),
        )
        host, boosted = self._select_host(stats, reasons)
        resolved_sigma: int | None = None
        if boosted:
            resolved_sigma = self._select_sigma(prepared, host, sigma, reasons)
        resolved_workers = self._select_workers(stats, workers, reasons)
        strategy, prefix_size, growth = self._select_parallel(
            stats, resolved_workers, parallel_strategy, reasons
        )

        return Plan(
            algorithm=host,
            boosted=boosted,
            sigma=resolved_sigma,
            container=container,
            pivot_strategy=pivot_strategy,
            workers=resolved_workers,
            parallel_strategy=strategy,
            prefix_size=prefix_size,
            block_growth=growth,
            adaptive=True,
            pending_mutations=pending,
            delta_fraction=fraction,
            repair_cost=repair_cost,
            recompute_cost=recompute_cost,
            estimates=estimates,
            host_options=host_options,
            signals=signals,
            reasons=tuple(reasons),
        )

    def _consider_incremental(
        self,
        prepared: PreparedDataset,
        incremental: bool | None,
        estimates: tuple[tuple[str, float], ...],
        reasons: list[str],
    ) -> "Plan | tuple[int, float, float, float]":
        """Decide repair vs recompute for a pending delta.

        Returns the incremental :class:`Plan` when repair wins (or is
        forced), else the ``(pending, fraction, repair_cost,
        recompute_cost)`` tuple the full plan carries so ``explain`` can
        show why repair lost.  A clean dataset yields all zeros.  Reads
        only the shape and :meth:`PreparedDataset.delta_state`: the
        incremental plan records the signals computable without a pass
        over the rows (``n``, ``d``, ``expected_skyline``).
        """
        state = prepared.delta_state()
        if state is None:
            if incremental:
                raise InvalidParameterError(
                    "incremental=True but the prepared dataset has no "
                    "pending delta covered by a noted skyline; run a full "
                    "query, then apply_delta, then replan"
                )
            return (0, 0.0, 0.0, 0.0)
        n = prepared.cardinality
        d = prepared.dimensionality
        # Replay charges ~_REPAIR_OP_COST tests per logged op; a cold
        # stream additionally pays the O(n * anchors) bootstrap mask pass.
        # Recompute must re-scan everything: n * d is the scale of the
        # Merge pass plus the boosted scan's residual tests.
        repair_cost = state.pending_ops * _REPAIR_OP_COST + (
            0.0 if state.stream_ready else float(n)
        )
        recompute_cost = float(n) * float(d)
        if incremental is False:
            reasons.append(
                f"incremental=False pinned by caller: recomputing despite "
                f"{state.pending_ops} pending ops"
            )
            return (state.pending_ops, state.fraction, repair_cost, recompute_cost)
        if incremental is None and repair_cost >= recompute_cost:
            reasons.append(
                f"delta repair loses the cost model (est {repair_cost:g} "
                f">= {recompute_cost:g} tests): full recompute"
            )
            return (state.pending_ops, state.fraction, repair_cost, recompute_cost)
        if incremental:
            reasons.append("incremental repair pinned by caller")
        else:
            reasons.append(
                f"{state.pending_ops} pending ops over {state.batches} "
                f"batch(es): delta repair wins the cost model "
                f"(est {repair_cost:g} < {recompute_cost:g} tests)"
            )
        reasons.append(
            "replay stream "
            + ("is warm" if state.stream_ready else "bootstraps from the noted skyline")
        )
        return Plan(
            algorithm="incremental-repair",
            boosted=False,
            sigma=None,
            workers=1,
            adaptive=True,
            incremental=True,
            pending_mutations=state.pending_ops,
            delta_fraction=state.fraction,
            repair_cost=repair_cost,
            recompute_cost=recompute_cost,
            estimates=estimates,
            signals=(
                ("n", float(n)),
                ("d", float(d)),
                ("expected_skyline", prepared.expected_skyline()),
            ),
            reasons=tuple(reasons),
        )

    @staticmethod
    def _select_host(
        stats: DatasetStatistics, reasons: list[str]
    ) -> tuple[str, bool]:
        if stats.dimensionality < 2:
            reasons.append("d < 2: no non-trivial subspaces, boost undefined")
            return "sfs", False
        if stats.correlation >= _CORRELATED_CUTOFF:
            reasons.append(
                f"correlation {stats.correlation:.2f} >= {_CORRELATED_CUTOFF}: "
                "correlated regime, SaLSa's stop point ends the scan early"
            )
            return "salsa", False
        if stats.cardinality < _SMALL_N:
            reasons.append(
                f"n={stats.cardinality} < {_SMALL_N}: "
                "input too small to repay Merge preprocessing"
            )
            return "sfs", False
        if (
            stats.dimensionality >= _HIGH_D
            or stats.correlation <= _ANTI_CORRELATED_CUTOFF
        ):
            reasons.append(
                f"d={stats.dimensionality}, correlation {stats.correlation:.2f}: "
                "large skyline expected, boosted SDI's indexed prefix tests win"
            )
            return "sdi", True
        reasons.append(
            "moderate d and independent dimensions: boosted entropy-sorted scan"
        )
        return "sfs", True

    @staticmethod
    def _select_workers(
        stats: DatasetStatistics, workers: int | None, reasons: list[str]
    ) -> int:
        if workers is not None:
            if workers > 1:
                reasons.append(f"workers={workers} pinned by caller")
            return workers
        if stats.cardinality >= _PARALLEL_N:
            # Imported lazily: the planner must not drag multiprocessing
            # into the import graph of sequential-only sessions.
            from repro.extensions.parallel import default_workers

            by_size = max(1, stats.cardinality // _MIN_BLOCK_ROWS)
            chosen = min(default_workers(), by_size)
            if chosen > 1:
                reasons.append(
                    f"n={stats.cardinality} >= {_PARALLEL_N}: block-parallel "
                    f"execution across {chosen} workers "
                    f"(cpus={default_workers()}, capped so blocks keep "
                    f">= {_MIN_BLOCK_ROWS} rows) repays dispatch and the "
                    "union merge"
                )
            return chosen
        return 1

    def _select_parallel(
        self,
        stats: DatasetStatistics,
        workers: int,
        parallel_strategy: str | None,
        reasons: list[str],
    ) -> tuple[str, int, float]:
        """Strategy, prefix size and block growth for ``workers`` blocks.

        The prefix grows with the cube root of the expected skyline —
        enough extra pruning points to keep coverage on skyline-heavy data
        without taxing every survivor with a long filter pass.  Block
        growth rises as the expected skyline *fraction* falls: a strong
        prefix clears most of the late (sort-order tail) blocks, so they
        can be larger without unbalancing the per-block scan work.
        """
        if workers <= 1:
            return "none", 0, 1.0
        if parallel_strategy == "even":
            reasons.append("parallel strategy 'even' pinned by caller")
            return "even", 0, 1.0
        prefix_size = min(
            _MAX_PREFIX,
            max(_MIN_PREFIX, int(round(stats.expected_skyline ** (1.0 / 3.0)))),
        )
        growth = round(
            1.0 + max(0.0, min(1.0, 1.0 - 8.0 * stats.skyline_fraction)), 2
        )
        reasons.append(
            f"prefix exchange: {prefix_size} shared survivors filter every "
            f"block before its local scan; sort-order blocks grow x{growth:g} "
            f"(expected skyline {stats.expected_skyline:.0f})"
        )
        return "prefix", prefix_size, growth

    def _select_sigma(
        self,
        prepared: PreparedDataset,
        host: str,
        sigma: int | None,
        reasons: list[str],
    ) -> int:
        d = prepared.dimensionality
        if sigma is not None:
            validate_threshold(sigma, d)
            reasons.append(f"σ={sigma} pinned by caller")
            return sigma
        if self.autotune:
            # Imported lazily: autotune drags in the full boost pipeline.
            from repro.algorithms.registry import get_algorithm
            from repro.core.autotune import tune_sigma

            host_algorithm = get_algorithm(host)
            choice = tune_sigma(
                prepared.dataset,
                host_algorithm,  # type: ignore[arg-type]
                sample_size=self.sample_size,
                seed=self.seed,
            )
            reasons.append(
                f"σ={choice.sigma} autotuned on a {choice.sample_size}-row sample "
                f"(seed={self.seed})"
            )
            return choice.sigma
        resolved = default_threshold(d)
        reasons.append(f"σ={resolved} from the paper's round(d/3) heuristic")
        return resolved
