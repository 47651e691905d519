"""Unit tests for the algorithm registry."""

import pytest

from repro.algorithms.registry import available_algorithms, get_algorithm
from repro.core.boost import SubsetBoost
from repro.errors import UnknownAlgorithmError


class TestRegistry:
    def test_catalogue_contains_papers_lineup(self):
        names = available_algorithms()
        for expected in (
            "sfs",
            "salsa",
            "sdi",
            "bskytree-s",
            "bskytree-p",
            "sfs-subset",
            "salsa-subset",
            "sdi-subset",
        ):
            assert expected in names

    def test_plain_instantiation(self):
        assert get_algorithm("sfs").name == "sfs"

    def test_case_insensitive(self):
        assert get_algorithm("SFS").name == "sfs"
        assert get_algorithm("SDI-Subset").name == "sdi-subset"

    def test_boosted_instantiation(self):
        algo = get_algorithm("sfs-subset", sigma=3)
        assert isinstance(algo, SubsetBoost)
        assert algo.sigma == 3

    def test_kwargs_forwarded(self):
        algo = get_algorithm("bnl", window_size=5)
        assert algo.window_size == 5
        boosted = get_algorithm("sfs-subset", sort_function="sum")
        assert boosted.host.sort_function == "sum"

    def test_unknown_name(self):
        with pytest.raises(UnknownAlgorithmError):
            get_algorithm("quantum-skyline")

    def test_non_boostable_subset_rejected(self):
        with pytest.raises(UnknownAlgorithmError):
            get_algorithm("bnl-subset")

    def test_sigma_on_plain_algorithm_rejected(self):
        with pytest.raises(UnknownAlgorithmError):
            get_algorithm("sfs", sigma=3)

    def test_every_name_instantiates(self):
        for name in available_algorithms():
            instance = get_algorithm(name)
            assert instance.name == name
