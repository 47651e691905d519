"""Runtime contract checks for the paper's structural lemmas.

Static lint can prove a counter was *threaded*; it cannot prove the subset
index returns the right candidates.  This module re-verifies, at runtime
and against independent brute-force oracles, the invariants the subset
approach rests on:

- **Lemma 5.1** — for a testing point with maximum dominating subspace
  ``D_q``, :meth:`SkylineIndex.query` must return *exactly* the stored
  points whose subspace is a superset of ``D_q``; equivalently, the
  superset-filtered subset of what a :class:`ListContainer` would return
  on identical ``add`` traffic.
- **Algorithm 1** — Merge must assign every surviving point the true
  maximum dominating subspace ``D_{q<S} = ⋃ D_{q<p}`` over the selected
  pivots, the subspace must be non-empty, and no survivor may be weakly
  dominated by a pivot.
- **Engine equivalence** — a pinned plan executed by the engine must
  reproduce the direct registry call bit-for-bit on a cold run (skyline
  and charged dominance tests), and warm runs must serve boosted plans
  from the prepared caches without changing the skyline.

Checks are opt-in (they cost a brute-force pass per query) and report
problems as :class:`~repro.analysis.report.Finding` records so the CLI
gate can fail on them.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.report import Finding, Severity
from repro.core.container import ListContainer, SkylineContainer, SubsetContainer
from repro.core.merge import merge
from repro.core.subspace import maximum_dominating_subspace
from repro.data import generate
from repro.dataset import Dataset
from repro.errors import ReproError
from repro.stats.counters import DominanceCounter
from repro.structures import bitset


class ContractViolation(ReproError):
    """A runtime invariant of the subset approach does not hold."""


class CheckedSubsetContainer(SkylineContainer):
    """A :class:`SubsetContainer` that re-verifies Lemma 5.1 on every query.

    Maintains a shadow :class:`ListContainer` plus the stored masks; each
    ``candidates(mask)`` call brute-forces the expected superset filter
    over the shadow store and raises :class:`ContractViolation` the moment
    the subset index diverges — either by returning a point it must not
    (unsound pruning downstream is *masked*, wrong results are possible)
    or by omitting one (unsound: a true dominator is never tested).
    """

    def __init__(self, values: np.ndarray, d: int) -> None:
        self._subset = SubsetContainer(values, d)
        self._shadow = ListContainer(values)
        self._masks: dict[int, int] = {}
        self.queries_checked = 0

    def add(self, point_id: int, mask: int) -> None:
        self._subset.add(point_id, mask)
        self._shadow.add(point_id, mask)
        self._masks[point_id] = mask

    def candidates(self, mask: int) -> tuple[np.ndarray, np.ndarray]:
        ids, block = self._subset.candidates(mask)
        shadow_ids = set(self._shadow.ids())
        got = {int(i) for i in ids}
        expected = {
            pid
            for pid, stored_mask in self._masks.items()
            if bitset.is_superset(stored_mask, mask)
        }
        self.queries_checked += 1
        if got != expected:
            extra = sorted(got - expected)
            missing = sorted(expected - got)
            raise ContractViolation(
                "Lemma 5.1 violated by SkylineIndex.query: for subspace "
                f"{mask:#x} expected candidates {sorted(expected)}, got "
                f"{sorted(got)} (extra={extra}, missing={missing})"
            )
        if not got <= shadow_ids:
            raise ContractViolation(
                "subset container returned ids never added to the store: "
                f"{sorted(got - shadow_ids)}"
            )
        return ids, block

    def ids(self) -> list[int]:
        return self._subset.ids()

    def __len__(self) -> int:
        return len(self._subset)


def verify_index_superset_filter(dataset: Dataset, sigma: int | None = None) -> int:
    """End-to-end Lemma 5.1 check: boosted SFS scan with a checked container.

    Runs Merge, then the SFS scan phase with a
    :class:`CheckedSubsetContainer`, then cross-checks the final skyline
    against a brute-force oracle.  Returns the number of queries verified;
    raises :class:`ContractViolation` on any divergence.
    """
    from repro.algorithms.sfs import SFS
    from repro.core.stability import default_threshold

    d = dataset.dimensionality
    counter = DominanceCounter()  # noqa: RPR010 — verification-only scratch; contract DT is deliberately unreported
    sigma = sigma if sigma is not None else default_threshold(d)
    merged = merge(dataset, sigma, counter)
    container = CheckedSubsetContainer(dataset.values, d)
    skyline = list(merged.initial_skyline_ids)
    if merged.remaining_ids.size:
        masks = np.zeros(dataset.cardinality, dtype=np.int64)
        masks[merged.remaining_ids] = merged.masks
        skyline += SFS().run_phase(
            dataset, merged.remaining_ids, masks, container, counter
        )
    expected = _oracle_skyline(dataset.values)
    if sorted(skyline) != expected:
        raise ContractViolation(
            "checked boosted scan produced a wrong skyline: "
            f"got {sorted(skyline)}, expected {expected}"
        )
    return container.queries_checked


def verify_merge_masks(dataset: Dataset, sigma: int) -> None:
    """Algorithm 1 contract: masks are the true maximum dominating subspaces.

    Recomputes ``D_{q<S}`` for every surviving point by brute force over
    the selected pivots and compares with what Merge assigned; also checks
    that survivors carry non-empty subspaces and are not weakly dominated
    by any pivot (otherwise they would have been pruned).
    """
    merged = merge(dataset, sigma)
    values = dataset.values
    pivot_rows = [values[pid] for pid in merged.pivot_ids]
    scratch = DominanceCounter()  # noqa: RPR010 — verification-only scratch; contract DT is deliberately unreported
    for position, point_id in enumerate(merged.remaining_ids):
        point_id = int(point_id)
        expected = maximum_dominating_subspace(values[point_id], pivot_rows, scratch)
        assigned = int(merged.masks[position])
        if assigned != expected:
            raise ContractViolation(
                f"Merge assigned point {point_id} subspace {assigned:#x}; "
                f"brute-force union over {len(pivot_rows)} pivots gives "
                f"{expected:#x}"
            )
        if assigned == bitset.EMPTY:
            raise ContractViolation(
                f"surviving point {point_id} carries an empty subspace — it "
                "is weakly dominated by a pivot and should have been pruned"
            )
    for pid in merged.pivot_ids:
        others = np.delete(values, pid, axis=0)
        dominated = np.all(others <= values[pid], axis=1) & np.any(
            others < values[pid], axis=1
        )
        if bool(dominated.any()):
            raise ContractViolation(
                f"Merge selected pivot {pid} which is not a skyline point"
            )


def verify_engine_equivalence(
    dataset: Dataset,
    algorithms: tuple[str, ...] = ("sfs", "salsa", "sdi", "sfs-subset", "sdi-subset"),
) -> None:
    """Engine contract: planned execution ≡ direct algorithm calls.

    For each pinned algorithm, a cold :class:`~repro.engine.SkylineEngine`
    run must return bit-identical skyline indices *and* charge the
    identical dominance-test count as the direct registry call, and a
    second (warm) run on the same engine must return the identical skyline
    while recording prepared-cache hits for boosted plans.
    """
    from repro.algorithms.registry import get_algorithm
    from repro.engine import SkylineEngine

    for name in algorithms:
        direct_counter = DominanceCounter()
        direct = get_algorithm(name).compute(dataset, counter=direct_counter)
        engine = SkylineEngine()
        cold_counter = DominanceCounter()
        cold = engine.execute(dataset, name, counter=cold_counter)
        if not np.array_equal(direct.indices, cold.indices):
            raise ContractViolation(
                f"engine({name}) returned a different skyline than the "
                f"direct call: {cold.indices.tolist()} vs "
                f"{direct.indices.tolist()}"
            )
        if cold_counter.tests != direct_counter.tests:
            raise ContractViolation(
                f"engine({name}) charged {cold_counter.tests} dominance "
                f"tests on a cold run; the direct call charged "
                f"{direct_counter.tests}"
            )
        warm_counter = DominanceCounter()
        warm = engine.execute(dataset, name, counter=warm_counter)
        if not np.array_equal(direct.indices, warm.indices):
            raise ContractViolation(
                f"engine({name}) warm run diverged from the direct skyline"
            )
        if name.endswith("-subset") and warm_counter.prepared_cache_hits == 0:
            raise ContractViolation(
                f"engine({name}) warm run recorded no prepared-cache "
                "hits — the Merge result was recomputed instead of reused"
            )


def _oracle_skyline(values: np.ndarray) -> list[int]:
    """Independent O(N^2) skyline oracle (no library kernels involved)."""
    n = values.shape[0]
    result: list[int] = []
    for i in range(n):
        le = np.all(values <= values[i], axis=1)
        lt = np.any(values < values[i], axis=1)
        dominators = le & lt
        dominators[i] = False
        if not bool(dominators.any()):
            result.append(i)
    return result


def run_contract_checks(
    kinds: tuple[str, ...] = ("UI", "CO", "AC"),
    n: int = 160,
    d: int = 5,
    seeds: tuple[int, ...] = (7, 21),
) -> list[Finding]:
    """Run every contract check over a seeded workload matrix.

    Returns findings (empty = all contracts hold) rather than raising, so
    the CLI can render them alongside lint output.
    """
    findings: list[Finding] = []
    for kind in kinds:
        for seed in seeds:
            dataset = generate(kind, n=n, d=d, seed=seed)
            label = f"{kind}/n={n}/d={d}/seed={seed}"
            try:
                verify_index_superset_filter(dataset)
                verify_merge_masks(dataset, sigma=2)
                verify_engine_equivalence(dataset)
            except ContractViolation as exc:
                findings.append(
                    Finding(
                        rule="contract",
                        path=label,
                        line=0,
                        message=str(exc),
                        severity=Severity.ERROR,
                    )
                )
    return findings
