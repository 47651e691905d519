"""Name-based algorithm registry.

Factories keyed by the names used throughout the paper's tables: plain
hosts (``sfs``, ``salsa``, ``sdi``, ...), their subset-boosted variants
(``sfs-subset``, ``salsa-subset``, ``sdi-subset``, ...) and the baselines
(``bskytree-s``, ``bskytree-p``, ``bnl``, ``dnc``, ``index``, ``bbs``,
``zorder``, ``bruteforce``).

Keyword arguments are forwarded to the algorithm constructor; boosted names
additionally accept ``sigma`` for the merge phase's stability threshold.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.algorithms.base import SkylineAlgorithm
from repro.algorithms.bbs import BBS
from repro.algorithms.bnl import BNL
from repro.algorithms.bruteforce import BruteForce
from repro.algorithms.bskytree import BSkyTreeP, BSkyTreeS
from repro.algorithms.dnc import DivideAndConquer
from repro.algorithms.external import ExternalBNL
from repro.algorithms.index_tree import IndexSkyline
from repro.algorithms.less import LESS
from repro.algorithms.salsa import SaLSa
from repro.algorithms.sdi import SDI
from repro.algorithms.sfs import SFS
from repro.algorithms.sskyline import SSkyline
from repro.algorithms.zorder_scan import ZOrderScan
from repro.algorithms.zsearch import ZSearch
from repro.core.boost import SubsetBoost
from repro.errors import UnknownAlgorithmError

__all__ = ["available_algorithms", "get_algorithm"]

_PLAIN: dict[str, Callable[..., SkylineAlgorithm]] = {
    "bruteforce": BruteForce,
    "bnl": BNL,
    "external-bnl": ExternalBNL,
    "sfs": SFS,
    "sskyline": SSkyline,
    "less": LESS,
    "salsa": SaLSa,
    "sdi": SDI,
    "zorder": ZOrderScan,
    "zsearch": ZSearch,
    "dnc": DivideAndConquer,
    "index": IndexSkyline,
    "bbs": BBS,
    "bskytree-s": BSkyTreeS,
    "bskytree-p": BSkyTreeP,
}

_BOOSTABLE = ("sfs", "less", "salsa", "sdi", "zorder")


def available_algorithms() -> list[str]:
    """All registered algorithm names, plain first, then boosted."""
    return [*_PLAIN, *(f"{host}-subset" for host in _BOOSTABLE)]


def get_algorithm(
    name: str,
    sigma: int | None = None,
    **kwargs: object,
) -> SkylineAlgorithm | SubsetBoost:
    """Instantiate an algorithm by registry name.

    Parameters
    ----------
    name:
        One of :func:`available_algorithms` (case-insensitive).
    sigma:
        Stability threshold for ``*-subset`` names; defaults to the paper's
        rounded ``d/3`` at compute time.  Rejected for plain algorithms.
    kwargs:
        Forwarded to the algorithm constructor (e.g. ``window_size`` for
        BNL/LESS, ``sort_function`` for SFS).
    """
    key = name.lower()
    if key.endswith("-subset"):
        host_name = key.removesuffix("-subset")
        if host_name not in _BOOSTABLE:
            raise UnknownAlgorithmError(
                f"{name!r}: host {host_name!r} is not boostable; "
                f"boostable hosts are {_BOOSTABLE}"
            )
        host = _PLAIN[host_name](**kwargs)
        return SubsetBoost(host, sigma=sigma)  # noqa: RPR005 — the registry is the sanctioned factory
    if sigma is not None:
        raise UnknownAlgorithmError(
            f"sigma is only meaningful for '-subset' algorithms, got {name!r}"
        )
    factory = _PLAIN.get(key)
    if factory is None:
        raise UnknownAlgorithmError(
            f"unknown algorithm {name!r}; available: {available_algorithms()}"
        )
    return factory(**kwargs)
