"""Benchmark the accounting-free fast kernel against the counting paths.

The inputs have n = 4 x REPRO_BENCH_N rows (4,000 by default): CO d=8, UI
d=8 and house.  Against a cold `sdi-subset` run (2-core host, Python
3.11.7, numpy 2.4.6, best of 3), `repro.fast_skyline` wins UI (32 vs
93 ms) and house (17 vs 55 ms) and loses CO (2.9 vs 1.7 ms), whose skyline
is 8 points.  `repro/fast.py` gives the positioning at n=100k.
"""

import pytest

from common import BASE_N, run_skyline_benchmark, workload
from repro.data import house
from repro.fast import fast_skyline


@pytest.mark.parametrize("kind", ["CO", "UI"])
def test_fast_kernel_synthetic(benchmark, kind):
    dataset = workload(kind, 4 * BASE_N, 8)
    result = benchmark.pedantic(
        lambda: fast_skyline(dataset), rounds=3, iterations=1
    )
    benchmark.extra_info["skyline_size"] = int(result.shape[0])


def test_fast_kernel_house(benchmark):
    dataset = house(4 * BASE_N, seed=0)
    result = benchmark.pedantic(
        lambda: fast_skyline(dataset), rounds=3, iterations=1
    )
    benchmark.extra_info["skyline_size"] = int(result.shape[0])


@pytest.mark.parametrize("algorithm", ["sfs", "sdi-subset"])
def test_counting_reference_house(benchmark, algorithm):
    run_skyline_benchmark(benchmark, house(4 * BASE_N, seed=0), algorithm)
