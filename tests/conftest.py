"""Shared fixtures: small deterministic workloads, the brute-force oracle
and the per-point reference for boosted scans."""

from __future__ import annotations

import contextlib
from collections.abc import Iterator
from unittest import mock

import numpy as np
import pytest

from repro.core.container import SubsetContainer
from repro.data import generate
from repro.dataset import Dataset


def brute_skyline_ids(values: np.ndarray) -> list[int]:
    """Reference skyline via an independent O(N^2) loop (not the library's)."""
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    result = []
    for i in range(n):
        dominated = False
        for j in range(n):
            if j == i:
                continue
            if np.all(values[j] <= values[i]) and np.any(values[j] < values[i]):
                dominated = True
                break
        if not dominated:
            result.append(i)
    return result


class PointwiseSubsetContainer(SubsetContainer):
    """A subset container that hosts scan point by point.

    With ``by_subspace`` off, a host runs its per-point loop over this
    container's ``candidates`` (one index query per testing point, through
    the memo cache or not) instead of the grouped settlement: the
    reference a grouped scan is compared against.
    """

    by_subspace = False


@contextlib.contextmanager
def pointwise_boost() -> Iterator[None]:
    """Boosted scans inside the block run the hosts' per-point loops."""
    with mock.patch("repro.core.boost.SubsetContainer", PointwiseSubsetContainer):
        yield


@pytest.fixture(scope="session")
def ui_small() -> Dataset:
    return generate("UI", n=300, d=4, seed=11)


@pytest.fixture(scope="session")
def ac_small() -> Dataset:
    return generate("AC", n=300, d=4, seed=12)


@pytest.fixture(scope="session")
def co_small() -> Dataset:
    return generate("CO", n=300, d=4, seed=13)


@pytest.fixture(scope="session")
def ui_medium() -> Dataset:
    return generate("UI", n=1200, d=6, seed=21)


@pytest.fixture(scope="session")
def duplicate_heavy() -> Dataset:
    """A tiny grid dataset where duplicate coordinates abound."""
    rng = np.random.default_rng(31)
    values = rng.integers(0, 4, size=(250, 4)).astype(float)
    return Dataset(values, name="dup-grid", kind="custom")


@pytest.fixture(scope="session")
def with_negatives() -> Dataset:
    """Real-valued data including negatives (paper data is [0,1]; we go wider)."""
    rng = np.random.default_rng(41)
    return Dataset(rng.normal(0.0, 3.0, size=(250, 5)), name="gauss", kind="custom")
