"""Independent brute-force oracles, deliberately naive.

Nothing here imports the kernels or algorithms under test: dense GF(2)
elimination, powerset face enumeration, and a straight re-implementation
of the chronological detection pass.
"""

from __future__ import annotations

from itertools import combinations


def gf2_rank_dense(matrix: list[list[int]]) -> int:
    """Gaussian elimination on a dense 0/1 row-list matrix."""
    rows = [list(r) for r in matrix]
    if not rows or not rows[0]:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                rows[i] = [a ^ b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def all_faces(maximal: list[tuple[int, ...]], max_dim: int) -> list[list[tuple[int, ...]]]:
    by_dim = [set() for _ in range(max_dim + 1)]
    for s in maximal:
        for k in range(1, min(len(s), max_dim + 1) + 1):
            by_dim[k - 1].update(combinations(sorted(s), k))
    return [sorted(level) for level in by_dim]


def betti_naive(maximal: list[tuple[int, ...]], max_dim: int) -> tuple[int, ...]:
    """Rank-nullity Betti numbers via dense elimination."""
    faces = all_faces(maximal, max_dim + 1)
    ranks = [0] * (max_dim + 2)
    for d in range(1, max_dim + 2):
        if not faces[d]:
            break
        row_of = {s: i for i, s in enumerate(faces[d - 1])}
        dense = [[0] * len(faces[d]) for _ in faces[d - 1]]
        for j, s in enumerate(faces[d]):
            for f in combinations(s, d):
                dense[row_of[f]][j] = 1
        ranks[d] = gf2_rank_dense(dense)
    counts = [len(level) for level in faces]
    return tuple(counts[d] - ranks[d] - ranks[d + 1] for d in range(max_dim + 1))


def maximal_naive(family) -> set[tuple[int, ...]]:
    """Nonempty members of a family not strictly contained in another member."""
    present = set(family)
    return {s for s in present if s and not any(set(s) < set(t) for t in present)}


def subcomplex_at(
    simplices: list[tuple[int, ...]], values: dict[tuple[int, ...], float], theta: float
) -> list[tuple[int, ...]]:
    return sorted(maximal_naive(s for s in simplices if values[s] <= theta))


def frequency_values_naive(bonds, maximal, top_dim):
    """Filtration value of every face of ``maximal`` up to ``top_dim``.

    ``bonds`` is a list of (constituents, count).  A face enters at the
    minimum ``c_max - count`` over the bonds containing it, 0.0 if none.
    """
    c_max = max(count for _, count in bonds)
    values = {}
    for level in all_faces(maximal, top_dim):
        for s in level:
            vals = [c_max - count for members, count in bonds if set(s) <= set(members)]
            values[s] = float(min(vals)) if vals else 0.0
    return values


def rebuild_pass_naive(bins, max_level=3):
    """Straight re-implementation of the per-bin detection rule.

    ``bins`` is a list of (bin_index, frozenset-of-neurons).  Returns the
    levels as lists of (constituents, count) in registration order, using
    exact-cover realization with largest-first greedy covers.
    """
    levels = [[] for _ in range(max_level)]  # entries: [constituents, count, bins]

    def find(level, constituents):
        for idx, entry in enumerate(levels[level - 1]):
            if entry[0] == constituents:
                return idx
        return None

    for t, active in bins:
        if not active:
            continue
        known = [entry[0] for entry in levels[0]]
        order = sorted(range(len(known)), key=lambda i: (-len(known[i]), tuple(sorted(known[i]))))
        remaining = set(active)
        chosen = []
        for idx in order:
            if set(known[idx]) <= remaining:
                remaining -= set(known[idx])
                chosen.append(idx)
        if remaining or not chosen:
            constituents = tuple(sorted(active))
            idx = find(1, constituents)
            if idx is None:
                levels[0].append([constituents, 0, []])
                idx = len(levels[0]) - 1
            chosen = [idx]
        realized = set(chosen)
        for bid in realized:
            entry = levels[0][bid]
            if not entry[2] or entry[2][-1] != t:
                entry[1] += 1
                entry[2].append(t)
        for lvl in range(1, max_level):
            if len(realized) < 2:
                break
            key = tuple(sorted(realized))
            idx = find(lvl + 1, key)
            if idx is None:
                levels[lvl].append([key, 0, []])
                idx = len(levels[lvl]) - 1
            nxt = {
                bid
                for bid, entry in enumerate(levels[lvl])
                if set(entry[0]) <= realized
            }
            nxt.add(idx)
            for bid in nxt:
                entry = levels[lvl][bid]
                if not entry[2] or entry[2][-1] != t:
                    entry[1] += 1
                    entry[2].append(t)
            realized = nxt
    return [[(tuple(e[0]), e[1]) for e in lvl] for lvl in levels]
