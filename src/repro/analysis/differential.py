"""Differential testing: every registered algorithm vs an independent oracle.

The registry promises that every name in
:func:`repro.algorithms.registry.available_algorithms` computes the exact
skyline.  This harness checks that promise the only way that scales with
the registry: run them all on seeded independent / correlated /
anti-correlated datasets, plus a sub-ulp tie regime, and diff against a
brute-force oracle that shares no code with the library's dominance
kernels.  The tie regime draws every coordinate from ``TIE_LEVELS``, where
``1e-17`` vanishes beside ``±1`` in a float sum or a corner shift: it
catches a scan order that lets a victim precede its dominator.

On divergence the harness *minimizes* the counterexample with a greedy
delta-debugging pass (drop chunks of rows while the divergence persists),
so a failure report shows a handful of points rather than a 100-row dump.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.algorithms.registry import available_algorithms, get_algorithm
from repro.analysis.report import Finding, Severity
from repro.data import generate

#: Coordinate levels of the ``"TIE"`` regime.
TIE_LEVELS = (-1.0, 0.0, 1e-17, 1.0)


@dataclass(frozen=True)
class Divergence:
    """One algorithm disagreeing with the oracle on one dataset."""

    algorithm: str
    kind: str
    n: int
    d: int
    seed: int
    missing: tuple[int, ...]
    extra: tuple[int, ...]
    minimized_rows: tuple[tuple[float, ...], ...] = field(default=())

    def describe(self) -> str:
        parts = [
            f"{self.algorithm} diverges from the oracle on "
            f"{self.kind} (n={self.n}, d={self.d}, seed={self.seed}):"
        ]
        if self.missing:
            parts.append(f" misses skyline ids {list(self.missing)}")
        if self.extra:
            parts.append(f" reports non-skyline ids {list(self.extra)}")
        if self.minimized_rows:
            rows = "; ".join(
                "(" + ", ".join(f"{v:.4g}" for v in row) + ")"
                for row in self.minimized_rows
            )
            parts.append(f" — minimized to {len(self.minimized_rows)} rows: {rows}")
        return "".join(parts)


def oracle_skyline(values: np.ndarray) -> list[int]:
    """Brute-force skyline ids, independent of every library kernel."""
    values = np.asarray(values, dtype=np.float64)
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


def _regime_values(kind: str, n: int, d: int, seed: int) -> np.ndarray:
    """The seeded ``(n, d)`` dataset of one regime: a generator kind, or ``"TIE"``."""
    if kind == "TIE":
        return np.random.default_rng(seed).choice(np.array(TIE_LEVELS), size=(n, d))
    return generate(kind, n=n, d=d, seed=seed).values


def _algorithm_skyline(name: str, values: np.ndarray) -> list[int]:
    result = get_algorithm(name).compute(values)
    return [int(i) for i in result.indices]


def _diverges(name: str, values: np.ndarray) -> bool:
    try:
        return sorted(_algorithm_skyline(name, values)) != oracle_skyline(values)
    except Exception:
        # A crash is a divergence too: the minimizer can shrink it.
        return True


def minimize_counterexample(
    name: str, values: np.ndarray, max_rounds: int = 12
) -> np.ndarray:
    """Greedy ddmin over rows: smallest dataset still showing the divergence.

    Repeatedly tries to delete contiguous chunks (halving the chunk size
    down to single rows); keeps any deletion that preserves the
    divergence.  Bounded by ``max_rounds`` full sweeps for predictability.
    """
    current = np.asarray(values, dtype=np.float64)
    for _ in range(max_rounds):
        n = current.shape[0]
        if n <= 2:
            break
        shrunk = False
        chunk = max(n // 2, 1)
        while chunk >= 1:
            start = 0
            while start < current.shape[0] and current.shape[0] > 2:
                candidate = np.delete(
                    current, slice(start, start + chunk), axis=0
                )
                if candidate.shape[0] >= 1 and _diverges(name, candidate):
                    current = candidate
                    shrunk = True
                else:
                    start += chunk
            chunk //= 2
        if not shrunk:
            break
    return current


def run_differential(
    algorithms: tuple[str, ...] | None = None,
    kinds: tuple[str, ...] = ("UI", "CO", "AC", "TIE"),
    n: int = 96,
    d: int = 4,
    seeds: tuple[int, ...] = (5,),
    minimize: bool = True,
) -> list[Divergence]:
    """Cross-validate registered algorithms against the oracle.

    Parameters
    ----------
    algorithms:
        Registry names to check (default: every registered algorithm).
    kinds, n, d, seeds:
        The seeded dataset matrix (see :func:`_regime_values`).
    minimize:
        Shrink each divergent dataset to a minimal counterexample.
    """
    names = algorithms if algorithms is not None else tuple(available_algorithms())
    failures: list[Divergence] = []
    for kind in kinds:
        for seed in seeds:
            values = _regime_values(kind, n, d, seed)
            expected = oracle_skyline(values)
            for name in names:
                got = sorted(_algorithm_skyline(name, values))
                if got == expected:
                    continue
                missing = tuple(sorted(set(expected) - set(got)))
                extra = tuple(sorted(set(got) - set(expected)))
                minimized: tuple[tuple[float, ...], ...] = ()
                if minimize:
                    small = minimize_counterexample(name, values)
                    minimized = tuple(tuple(float(v) for v in row) for row in small)
                failures.append(
                    Divergence(
                        algorithm=name,
                        kind=kind,
                        n=n,
                        d=d,
                        seed=seed,
                        missing=missing,
                        extra=extra,
                        minimized_rows=minimized,
                    )
                )
    return failures


def differential_findings(**kwargs: object) -> list[Finding]:
    """:func:`run_differential` wrapped as gate findings for the CLI."""
    return [
        Finding(
            rule="differential",
            path=f"registry:{divergence.algorithm}",
            line=0,
            message=divergence.describe(),
            severity=Severity.ERROR,
        )
        for divergence in run_differential(**kwargs)  # type: ignore[arg-type]
    ]
