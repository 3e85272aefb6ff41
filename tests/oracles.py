"""Independent brute-force oracles, deliberately naive.

Nothing here imports the kernels or algorithms under test: dense GF(2)
elimination, powerset face enumeration, a per-cell spike-matrix parser,
and a straight re-implementation of the chronological detection pass.  The one name taken from
:mod:`hypercode` is the value type ``SimplicialComplex``, which
``generated_complex_naive`` builds so that tests can compare complexes
directly.
"""

from __future__ import annotations

import csv
import io
from itertools import combinations

from hypercode.codes import SimplicialComplex


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


def gf2_lows_dense(columns, n_rows) -> list[int]:
    """Lowest 1 of each column after dense left-to-right elimination, -1 if zeroed.

    A repeated row index in a column counts once.
    """
    reduced = []
    lows = []
    for rows in columns:
        col = [0] * n_rows
        for r in rows:
            col[r] = 1
        low = -1
        while any(col):
            low = max(i for i in range(n_rows) if col[i])
            if low not in lows:
                break
            col = [a ^ b for a, b in zip(col, reduced[lows.index(low)])]
            low = -1
        reduced.append(col)
        lows.append(low)
    return lows


def all_faces(maximal: list[tuple[int, ...]], max_dim: int) -> list[list[tuple[int, ...]]]:
    by_dim = [set() for _ in range(max_dim + 1)]
    for s in maximal:
        for k in range(1, min(len(s), max_dim + 1) + 1):
            by_dim[k - 1].update(combinations(sorted(s), k))
    return [sorted(level) for level in by_dim]


def euler_characteristic_naive(maximal) -> int:
    """sum (-1)^d f_d over the faces of the complex with these maximal simplices."""
    top = max((len(s) for s in maximal), default=0) - 1
    return sum((-1) ** d * len(level) for d, level in enumerate(all_faces(list(maximal), top)))


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


def persistence_naive(simplices, values) -> list[tuple[int, float, float]]:
    """Sorted (dim, birth, death) intervals, zero-length ones included.

    Dense left-to-right reduction of the whole filtration's boundary
    matrix, rows and columns in the given order, with no clearing.
    """
    n = len(simplices)
    position = {s: i for i, s in enumerate(simplices)}
    reduced = []
    low_to_col = {}
    for j, s in enumerate(simplices):
        col = [0] * n
        if len(s) > 1:
            for f in combinations(s, len(s) - 1):
                col[position[f]] = 1
        while any(col):
            low = max(i for i in range(n) if col[i])
            if low not in low_to_col:
                low_to_col[low] = j
                break
            col = [a ^ b for a, b in zip(col, reduced[low_to_col[low]])]
        reduced.append(col)
    intervals = [
        (len(simplices[low]) - 1, values[low], values[j]) for low, j in low_to_col.items()
    ]
    intervals += [
        (len(s) - 1, values[j], float("inf"))
        for j, s in enumerate(simplices)
        if not any(reduced[j]) and j not in low_to_col
    ]
    return sorted(intervals)


def maximal_naive(family) -> set[tuple[int, ...]]:
    """Nonempty members of a family not strictly contained in another member."""
    present = set(family)
    return {s for s in present if s and not any(set(s) < set(t) for t in present)}


def maximal_by_value_naive(valued) -> list[tuple[int, float]]:
    """The (mask, value) pairs that no other contains at a value no later.

    Equal masks merge at their smallest value, in the place of the first;
    the rest are sorted by value, then by decreasing size, keeping their
    order on ties, and a pair is kept iff no pair kept before it contains
    it.  The empty mask is never kept.
    """
    first: dict[int, float] = {}
    for mask, value in valued:
        first[mask] = min(value, first.get(mask, value))
    kept: list[tuple[int, float]] = []
    for mask, value in sorted(first.items(), key=lambda p: (p[1], -bin(p[0]).count("1"))):
        if mask and not any(mask & other == mask for other, _ in kept):
            kept.append((mask, value))
    return kept


def generated_complex_naive(family, n: int) -> SimplicialComplex:
    """Smallest complex on the vertices 0..n-1 containing every set of ``family``."""
    maximal = maximal_naive(tuple(sorted(s)) for s in family)
    return SimplicialComplex(tuple(range(n)), frozenset(sum(1 << v for v in s) for s in maximal))


def maximal_cliques_naive(n: int, edges: set[tuple[int, int]]) -> set[tuple[int, ...]]:
    """Maximal cliques of the graph on 0..n-1 with edges (a, b), a < b: every vertex subset tried."""
    cliques = [
        s
        for size in range(1, n + 1)
        for s in combinations(range(n), size)
        if all(pair in edges for pair in combinations(s, 2))
    ]
    return maximal_naive(cliques)


def count_at_naive(intervals, theta: float, d: int) -> int:
    """How many d-dimensional (dim, birth, death) intervals are alive at theta."""
    return sum(1 for dim, b, e in intervals if dim == d and b <= theta < e)


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


def filtration_faces_naive(generators, top: int):
    """``(simplices, values)`` of a filtration given by its generators.

    ``generators`` is a list of (mask, value), bit i of a mask for vertex
    i.  Every face of a generator up to dimension ``top`` enters at the
    smallest value among the generators containing it; the faces are
    listed in (value, dim, lex) order.
    """
    sets = [({i for i in range(mask.bit_length()) if mask >> i & 1}, v) for mask, v in generators]
    faces = {
        s
        for vertices, _ in sets
        for size in range(1, top + 2)
        for s in combinations(sorted(vertices), size)
    }
    value = {s: min(v for vertices, v in sets if vertices >= set(s)) for s in faces}
    simplices = sorted(faces, key=lambda s: (value[s], len(s), s))
    return simplices, [value[s] for s in simplices]


def coboundary_lows_naive(generators, top: int):
    """Each face of a filtration up to dimension ``top`` with its oldest coface.

    ``generators`` is a list of (mask, value), bit i of a mask for vertex
    i; every face of a generator enters at the smallest value among the
    generators containing it.  Returns one list per dimension 0..top of
    ``(mask, value, low, cofaces)``, youngest first (value descending, then
    mask ascending).  ``cofaces`` is the sorted ``(mask, value)`` of every
    coface of the face; ``low`` is that of its oldest coface, the one of
    smallest value and then largest mask, or None if it has none.
    """
    sets = [({i for i in range(mask.bit_length()) if mask >> i & 1}, v) for mask, v in generators]

    def mask_of(face):
        return sum(1 << i for i in face)

    def value(face):
        return min(v for vertices, v in sets if vertices >= face)

    out = []
    for size in range(1, top + 2):
        faces = {frozenset(c) for vertices, _ in sets for c in combinations(sorted(vertices), size)}
        rows = []
        for face in faces:
            cofaces = [face | {u} for vertices, _ in sets if vertices >= face for u in vertices - face]
            oldest = min(cofaces, key=lambda t: (value(t), -mask_of(t)), default=None)
            low = None if oldest is None else (mask_of(oldest), value(oldest))
            listed = sorted({(mask_of(t), value(t)) for t in cofaces})
            rows.append((mask_of(face), value(face), low, listed))
        out.append(sorted(rows, key=lambda row: (-row[1], row[0])))
    return out


def parse_spike_matrix_naive(text: str, header: bool = False):
    """A CSV spike matrix read cell by cell: ``(n, [(bin, members)])``, or
    ``(error class name, message)`` for the first fault a parser must report.

    Each cell is stripped of whitespace and must then be 0 or 1; blank lines
    (and, with ``header``, the first line) are skipped; rows of another
    width than the first are ragged, reported only once every cell is read.
    """
    rows = []
    for rownum, raw in enumerate(csv.reader(io.StringIO(text))):
        if (header and rownum == 0) or not raw:
            continue
        row = []
        for colnum, cell in enumerate(raw):
            cell = cell.strip()
            if cell not in ("0", "1"):
                return "ParseError", f"non-binary cell {cell!r} at row {len(rows)}, column {colnum}"
            row.append(int(cell))
        rows.append(row)
    for i, row in enumerate(rows):
        if len(row) != len(rows[0]):
            return "DimensionError", f"ragged row {i}: {len(row)} cells, expected {len(rows[0])}"
    columns = enumerate(zip(*rows))
    return len(rows), [(j, tuple(i for i, c in enumerate(col) if c)) for j, col in columns]


def rebuild_pass_naive(bins, max_level=3, mode="exact-cover", two_pass=False, keep_union=False):
    """Straight re-implementation of the per-bin detection rule.

    ``bins`` is a list of (bin_index, frozenset-of-neurons).  Returns the
    levels as lists of (constituents, count, bins) in registration order.
    A bin realizes, under ``mode`` "exact-cover", a largest-first greedy
    cover of its active set by known patterns, and under
    "subset-realization" every known pattern inside its active set;
    realizing nothing makes the active set a new pattern.  With
    ``keep_union``, an exact cover by two or more patterns makes the active
    set a pattern too.  With ``two_pass``, a first pass with one level
    collects the patterns, which the second pass knows from its start.
    """
    levels = [[] for _ in range(max_level)]  # entries: [constituents, count, bins]
    if two_pass:
        vocabulary = rebuild_pass_naive(bins, 1, mode, keep_union=keep_union)[0]
        levels[0] = [[constituents, 0, []] for constituents, _, _ in vocabulary]

    def find(level, constituents):
        for idx, entry in enumerate(levels[level - 1]):
            if entry[0] == constituents:
                return idx
        levels[level - 1].append([constituents, 0, []])
        return len(levels[level - 1]) - 1

    for t, active in bins:
        if not active:
            continue
        known = [entry[0] for entry in levels[0]]
        if mode == "exact-cover":
            order = sorted(
                range(len(known)), key=lambda i: (-len(known[i]), tuple(sorted(known[i])))
            )
            remaining = set(active)
            chosen = []
            for idx in order:
                if set(known[idx]) <= remaining:
                    remaining -= set(known[idx])
                    chosen.append(idx)
            if remaining:
                chosen = []
        else:
            chosen = [idx for idx, members in enumerate(known) if set(members) <= active]
        if not chosen or (keep_union and mode == "exact-cover" and len(chosen) > 1):
            chosen.append(find(1, tuple(sorted(active))))
        realized = set(chosen)
        for bid in realized:
            entry = levels[0][bid]
            if not entry[2] or entry[2][-1] != t:
                entry[1] += 1
                entry[2].append(t)
        for lvl in range(1, max_level):
            if len(realized) < 2:
                break
            idx = find(lvl + 1, tuple(sorted(realized)))
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
    return [[(tuple(e[0]), e[1], tuple(e[2])) for e in lvl] for lvl in levels]


def downset_naive(levels, i, bond, j):
    """Level-j descendants of one level-i bond; ``levels`` as in ``nerve_naive``."""
    current = {bond}
    for lvl in range(i, j, -1):
        current = {c for b in current for c in levels[lvl - 1][b]}
    return current


def compose_naive(levels, i, ids, j):
    """(union, overlaps) of a chain of level-i bonds glued at level j, or
    the error it must raise: "empty" for no bond, "level" for i outside
    1..k or j outside 0..i-1, "unknown" for an id that is no level-i bond,
    "gluing" for neighbours that are equal or whose downsets are disjoint.
    """
    if not ids:
        return "empty"
    if not 1 <= i <= len(levels) or not 0 <= j < i:
        return "level"
    if any(b not in range(len(levels[i - 1])) for b in ids):
        return "unknown"
    downs = [downset_naive(levels, i, b, j) for b in ids]
    overlaps = []
    for a, b, down_a, down_b in zip(ids, ids[1:], downs, downs[1:]):
        if a == b or not down_a & down_b:
            return "gluing"
        overlaps.append(tuple(sorted(down_a & down_b)))
    return tuple(sorted(set().union(*downs))), tuple(overlaps)


def nerve_naive(levels, rule="pairwise", include_levels=None):
    """(labels, maximal simplices) of the nerve, built stratum by stratum.

    ``levels`` lists each level's bond constituents (neurons at level 1,
    bond ids one level down above).  Every stratum (i, j) with j < i joins
    two level-i bonds when their level-j downsets meet; its maximal cliques
    ("pairwise") or components ("connected") are unioned over all strata
    with every vertex as a singleton, then filtered by ``maximal_naive``.
    """
    labels, family = [], []
    for i in range(1, len(levels) + 1):
        if include_levels is not None and i not in include_levels:
            continue
        offset = len(labels)
        vertices = range(len(levels[i - 1]))
        labels += [(i, v) for v in vertices]
        family += [(offset + v,) for v in vertices]
        for j in range(i):
            downs = [downset_naive(levels, i, v, j) for v in vertices]
            adj = {v: {u for u in vertices if u != v and downs[u] & downs[v]} for v in vertices}
            if rule == "pairwise":
                cliques = [{v} for v in vertices]
                for clique in cliques:  # grows while iterated: every clique once
                    for w in vertices:
                        if w > max(clique) and clique <= adj[w]:
                            cliques.append(clique | {w})
                groups = [c for c in cliques if not any(c <= adj[w] for w in vertices)]
            else:
                groups = []
                for v in vertices:
                    comp = {v}
                    while any(adj[u] - comp for u in comp):
                        comp |= {w for u in comp for w in adj[u]}
                    groups.append(comp)
            family += [tuple(sorted(offset + v for v in g)) for g in groups]
    return labels, maximal_naive(family)
