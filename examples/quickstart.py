"""Quickstart: compute a skyline and see what the subset approach buys you.

Generates an 8-D uniform-independent workload (the regime where the paper's
method shines), runs the plain and subset-boosted algorithms, and prints
the paper's two metrics side by side.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import repro


def main() -> None:
    data = repro.generate("UI", n=20_000, d=8, seed=42)
    print(f"workload: {data.describe()}\n")

    print(f"{'algorithm':16s} {'skyline':>8s} {'mean DT':>10s} {'time (ms)':>10s}")
    for name in ("sfs", "sfs-subset", "salsa", "salsa-subset", "sdi", "sdi-subset",
                 "bskytree-s", "bskytree-p"):
        result = repro.skyline(data, algorithm=name)
        print(
            f"{name:16s} {result.size:8d} "
            f"{result.mean_dominance_tests:10.2f} "
            f"{result.elapsed_seconds * 1000:10.1f}"
        )

    # The contribution is also usable standalone: a container that stores
    # skyline points by subspace and retrieves only comparable candidates.
    index = repro.SkylineIndex(d=4)
    index.put(point_id=0, subspace=0b0011)   # this point beats pivots in dims {0,1}
    index.put(point_id=1, subspace=0b0111)   # ... in dims {0,1,2}
    index.put(point_id=2, subspace=0b1000)   # ... in dim {3}
    candidates = index.query(0b0011).tolist()  # who could dominate a {0,1} point?
    print(f"\nsubset index: candidates for subspace {{0,1}} -> {sorted(candidates)}")
    print("(point 2 is provably incomparable and is never tested)")


if __name__ == "__main__":
    main()
