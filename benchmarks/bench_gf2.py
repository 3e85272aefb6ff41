"""Benchmark the GF(2) persistence reduction two ways on one filtration.

Workload: a random flag-complex filtration.  ``flat`` reduces the whole
filtration's boundary matrix left to right with ``_gf2.reduce_lows``,
rows and columns indexed by filtration position.  ``graded`` is
``homology._graded_lows``, the path ``persistence`` and ``betti`` run: one
coboundary matrix per dimension, bottom up, with clearing.  Both times
include building the columns.  The two must give the same (dim, birth,
death) pairs; the script exits with an error if they differ.

Usage: python benchmarks/bench_gf2.py [--points N] [--repeats R] [--seed S]
"""

from __future__ import annotations

import argparse
import random
import time
from itertools import combinations

from hypercode import _gf2
from hypercode.homology import _graded_lows


def random_filtration(n_points: int, edge_prob: float, seed: int):
    """(simplex, value) pairs of a random flag complex in a valid filtration order."""
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
    return simplices


def flat_pairs(filtration):
    simplices = [s for s, _ in filtration]
    position = {s: i for i, s in enumerate(simplices)}
    columns = [
        [position[f] for f in combinations(s, len(s) - 1)] if len(s) > 1 else []
        for s in simplices
    ]
    lows = _gf2.reduce_lows(columns)
    return sorted(
        (len(s) - 2, filtration[low][1], filtration[j][1])
        for j, (s, low) in enumerate(zip(simplices, lows))
        if low >= 0
    )


def graded_pairs(filtration):
    levels, values = [], []
    for s, v in filtration:
        while len(levels) < len(s):
            levels.append([])
            values.append([])
        levels[len(s) - 1].append(s)
        values[len(s) - 1].append(v)
    pairs = _graded_lows(levels)
    return sorted(
        (d, values[d][j], values[d + 1][p])
        for d, level_pairs in enumerate(pairs)
        for j, p in enumerate(level_pairs)
        if p >= 0
    )


def bench(fn, filtration, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        pairs = fn(filtration)
        best = min(best, time.perf_counter() - t0)
    return best, pairs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=120)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    filtration = random_filtration(args.points, 0.35, args.seed)
    nonzeros = sum(len(s) for s, _ in filtration if len(s) > 1)
    print(f"{len(filtration)} simplices, {nonzeros} nonzeros")

    flat_s, flat = bench(flat_pairs, filtration, args.repeats)
    graded_s, graded = bench(graded_pairs, filtration, args.repeats)
    if flat != graded:
        raise SystemExit("error: flat and graded reductions give different pairs")
    print(f"{len(flat)} (birth, death) pairs, equal on both paths")
    print(f"flat reduce_lows     : {flat_s * 1e3:9.2f} ms")
    print(f"graded with clearing : {graded_s * 1e3:9.2f} ms")


if __name__ == "__main__":
    main()
