"""Benchmark the GF(2) reduction kernel, ``hypercode._gf2.reduce_lows``.

Workload: full persistence reduction of random flag-complex filtrations,
the same column layout the homology module produces.

Usage: python benchmarks/bench_gf2.py [--points N] [--repeats R]
"""

from __future__ import annotations

import argparse
import random
import time
from itertools import combinations

from hypercode import _gf2


def random_filtration_columns(n_points: int, edge_prob: float, seed: int):
    """Simplices of a random flag complex in a valid filtration order."""
    rng = random.Random(seed)
    edges = {
        frozenset(e): rng.random()
        for e in combinations(range(n_points), 2)
        if rng.random() < edge_prob
    }
    simplices = [((v,), 0.0) for v in range(n_points)]
    simplices += [(tuple(sorted(e)), w) for e, w in edges.items()]
    for tri in combinations(range(n_points), 3):
        tri_edges = [frozenset(e) for e in combinations(tri, 2)]
        if all(e in edges for e in tri_edges):
            simplices.append((tri, max(edges[e] for e in tri_edges)))
    simplices.sort(key=lambda sv: (sv[1], len(sv[0]), sv[0]))
    position = {s: i for i, (s, _) in enumerate(simplices)}
    return [
        sorted(position[f] for f in combinations(s, len(s) - 1)) if len(s) > 1 else []
        for s, _ in simplices
    ]


def bench(fn, columns, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(columns, len(columns))
        best = min(best, time.perf_counter() - t0)
    return best


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=120)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    columns = random_filtration_columns(args.points, 0.35, args.seed)
    print(f"{len(columns)} simplices, {sum(len(c) for c in columns)} nonzeros")

    seconds = bench(_gf2.reduce_lows, columns, args.repeats)
    print(f"reduce_lows : {seconds * 1e3:9.2f} ms")


if __name__ == "__main__":
    main()
