"""Raw data model: patterns, binned spike logs and their parsers, and simplicial
complexes stored by their maximal simplices as vertex bitmasks.

Neuron indices are 0-based throughout.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from itertools import combinations
from operator import lt
from typing import Iterable, Iterator, Sequence

from hypercode.errors import ConfigError, DimensionError, ParseError


@dataclass(frozen=True)
class Pattern:
    """A sorted, duplicate-free set of neuron indices, as a SynthSpec pattern."""

    members: tuple[int, ...]

    @classmethod
    def of(cls, indices: Iterable[int]) -> "Pattern":
        return cls(tuple(sorted(set(indices))))

    def __post_init__(self) -> None:
        m = self.members
        if m and min(m) < 0:
            raise DimensionError(f"negative neuron index in {m}")
        if not all(map(lt, m, m[1:])):
            raise DimensionError(f"pattern members must be strictly sorted: {m}")


@dataclass(frozen=True)
class OccurrenceLog:
    """Binned firing record: per bin, its index and the bitmask of its
    active neurons (bit i = neuron i; see :func:`bitmask`)."""

    n: int
    bins: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise DimensionError(f"neuron count must be >= 0, got {self.n}")
        prev = -1
        for idx, active in self.bins:
            if idx <= prev:
                raise DimensionError("bin indices must be strictly increasing")
            prev = idx
            if active < 0:
                raise DimensionError(f"negative neuron mask {active}")
            if active.bit_length() > self.n:
                raise DimensionError(
                    f"neuron {active.bit_length() - 1} out of range for n={self.n}"
                )


@dataclass(frozen=True)
class SimplicialComplex:
    """A complex stored by its inclusion-maximal simplices, each a vertex
    bitmask (bit i = vertex i; see :func:`bitmask`).

    ``vertex_labels`` is the ambient universe; only vertices occurring in
    some maximal simplex belong to the complex.  Faces are not stored:
    :mod:`hypercode.homology` enumerates them from the maximal simplices.

    The constructor trusts its caller that the simplices are pairwise
    incomparable (filter an arbitrary family with :func:`_maximal` first),
    and checks only that each is nonempty and indexes ``vertex_labels``.
    """

    vertex_labels: tuple
    maximal_simplices: frozenset[int]

    def __post_init__(self) -> None:
        n = len(self.vertex_labels)
        for mask in self.maximal_simplices:
            if not 0 < mask < 1 << n:
                raise DimensionError(f"simplex {mask} is not a nonempty mask of 0..{n - 1}")

    @property
    def dim(self) -> int:
        return max((mask.bit_count() for mask in self.maximal_simplices), default=0) - 1

    def to_json_obj(self) -> dict:
        return {
            "vertices": list(self.vertex_labels),
            "maximal": sorted(list(members(mask)) for mask in self.maximal_simplices),
        }


_BINARY = frozenset(("0", "1"))


def parse_spike_matrix(text: str | Iterable[str], header: bool = False) -> tuple[int, OccurrenceLog]:
    """Parse a CSV spike matrix (rows = neurons, columns = time bins).

    Cells must be 0 or 1, with any surrounding whitespace; ragged rows are
    rejected.  Empty bins are retained in the log with an empty mask.
    """
    if isinstance(text, str):
        text = io.StringIO(text)
    rows: list[list[str]] = []
    reader = csv.reader(text)
    for rownum, row in enumerate(reader):
        if header and rownum == 0:
            continue
        if not row:
            continue
        if not _BINARY.issuperset(row):
            row = [cell.strip() for cell in row]
            for colnum, cell in enumerate(row):
                if cell not in _BINARY:
                    raise ParseError(
                        f"non-binary cell {cell!r} at row {len(rows)}, column {colnum}"
                    )
        rows.append(row)
    if not rows:
        return 0, OccurrenceLog(0, ())
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise DimensionError(f"ragged row {i}: {len(row)} cells, expected {width}")
    n = len(rows)
    # rows bottom up, so that each column reads as its mask in binary
    bins = tuple((j, int("".join(column), 2)) for j, column in enumerate(zip(*rows[::-1])))
    return n, OccurrenceLog(n, bins)


def matrix_to_csv(grid: list[list[int]]) -> str:
    """A 0/1 spike matrix, one row per neuron, as the CSV :func:`parse_spike_matrix` reads."""
    return "\n".join(",".join(str(c) for c in row) for row in grid) + ("\n" if grid else "")


def bin_event_list(
    events: Sequence[tuple[int, float]], dt: float, n: int
) -> OccurrenceLog:
    """Bin (neuron_id, timestamp) events into half-open windows [k*dt, (k+1)*dt).

    Only the bins that hold an event are listed.
    """
    if not 0 < dt < math.inf:
        raise ConfigError(f"dt must be positive and finite, got {dt}")
    binned: dict[int, int] = {}
    for neuron, t in events:
        if not 0 <= neuron < n:
            raise DimensionError(f"neuron id {neuron} out of range for n={n}")
        if not 0 <= t < math.inf:
            raise DimensionError(f"timestamp {t} is negative or not finite")
        k = t // dt
        if k == math.inf:
            raise DimensionError(f"bin index of timestamp {t} at dt={dt} is not finite")
        binned[int(k)] = binned.get(int(k), 0) | 1 << neuron
    return OccurrenceLog(n, tuple(sorted(binned.items())))


def bitmask(ids: Iterable[int]) -> int:
    """The int with bit i set for every index i in ``ids``."""
    mask = 0
    for i in ids:
        mask |= 1 << i
    return mask


def members(mask: int) -> Iterator[int]:
    """Inverse of :func:`bitmask`: the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _maximal(
    valued: Iterable[tuple[int, float]],
) -> tuple[list[tuple[int, float]], dict[int, int]]:
    """The (mask, value) pairs that no other pair contains at a value no later.

    Equal masks merge at their minimum value.  The pairs are visited by
    value, then by decreasing size, so a mask is kept iff no kept mask
    contains it.  Each vertex has a bond set of the kept masks containing
    it (bit g for the g-th kept); a kept mask contains a mask iff the AND
    of its vertices' bond sets is nonzero, so the empty mask is never
    kept.  Returns the kept pairs and the vertices' bond sets.
    """
    first: dict[int, float] = {}
    for mask, value in valued:
        if value < first.get(mask, math.inf):
            first[mask] = value
    kept: list[tuple[int, float]] = []
    bonds: dict[int, int] = {}
    for mask, value in sorted(first.items(), key=lambda item: (item[1], -item[0].bit_count())):
        containing = -1
        for v in members(mask):
            containing &= bonds.get(v, 0)
            if not containing:
                break
        if not containing:
            for v in members(mask):
                bonds[v] = bonds.get(v, 0) | 1 << len(kept)
            kept.append((mask, value))
    return kept, bonds


def strong_collapse(
    valued: Iterable[tuple[int, float]],
) -> tuple[list[tuple[int, float]], dict[int, int]]:
    """Strong-collapse a filtration given by its (mask, value) generators.

    Every face of a generator enters at the smallest value of a generator
    containing it.  A vertex v is dominated in every sublevel complex at
    once iff every generator containing v contains some other vertex u:
    the AND of their masks has a bit other than v.  Deleting v from those
    generators retracts each sublevel complex onto the rest (v to u), so
    the persistence module is kept, apart from zero-length bars (Boissonnat,
    Pritam & Pareek 2018; Barmak & Minian 2012).

    A generator inside another that enters no later adds no face, so
    :func:`_maximal` drops it first.  The first pass tests every vertex
    in turn, in :func:`_maximal`'s order of first appearance, against the
    masks as the pass has left them, so of two vertices in the same
    generators only one goes.  After a pass that deletes a vertex, only a
    generator it shrank can have come inside another: each is dropped if
    a generator entering earlier, or at its value and larger, or equal and
    before it, contains it, and the rest are sorted again, as
    :func:`_maximal` would filter them.  A shrink only clears bits of the
    AND, so only a vertex of a dropped generator can have become
    dominated: the next pass tests those alone, in the same order.  The
    collapse stops after a pass that deletes nothing, or drops nothing.
    Returns the surviving generators and their vertices' bond sets, as
    :func:`_maximal` does.
    """
    kept, bonds = _maximal(valued)
    masks = [mask for mask, _ in kept]
    values = [value for _, value in kept]
    order = list(range(len(kept)))  # indices into kept, whose bits the bond sets keep
    vertices, moved = list(bonds), 0
    while vertices:
        shrunk = 0
        for v in vertices:
            row, bit, common = bonds[v], 1 << v, -1
            for g in members(row):
                common &= masks[g]
                if common == bit:
                    break
            if common != bit:
                shrunk |= row
                for g in members(row):
                    masks[g] ^= bit
                del bonds[v]
        if not shrunk:
            break
        moved |= shrunk
        place = {g: i for i, g in enumerate(order)}
        retest = 0  # the vertices of the generators dropped
        for g in members(shrunk):
            containing = -1
            for v in members(masks[g]):
                containing &= bonds[v]
            for h in members(containing ^ 1 << g):
                if values[h] < values[g] or values[h] == values[g] and (
                    masks[h] != masks[g] or place[h] < place[g]
                ):
                    for v in members(masks[g]):
                        bonds[v] ^= 1 << g
                    retest |= masks[g]
                    order.remove(g)
                    break
        order.sort(key=lambda g: (values[g], -masks[g].bit_count()))
        vertices = []
        for g in order:
            if not retest:
                break
            vertices += members(masks[g] & retest)
            retest &= ~masks[g]
    if not moved:
        return kept, bonds
    kept = [(masks[g], values[g]) for g in order]
    bonds = {}
    for i, (mask, _) in enumerate(kept):
        for v in members(mask):
            bonds[v] = bonds.get(v, 0) | 1 << i
    return kept, bonds


def edge_collapse(
    kept: list[tuple[int, float]], bonds: dict[int, int]
) -> tuple[list[tuple[int, float]], dict[int, int]]:
    """Delete every edge dominated in every sublevel complex from the
    generators and bond sets that :func:`_maximal` or
    :func:`strong_collapse` returns.

    The generators holding an edge {u, v} are its row, bonds[u] &
    bonds[v].  The edge is dominated iff some other vertex w is in every
    one of them: then in every sublevel complex holding the edge its link
    is a cone with apex w, so its closed star is contractible, and so is
    that star's meet with the rest, the join of u and v with the link.
    Deleting the edge's open star, each generator g of the row split into
    g - u and g - v at g's value, is thus a homotopy equivalence in each
    sublevel complex, and these inclusions commute with the filtration:
    every bar of positive length and every Betti number is kept
    (Boissonnat & Pritam 2020).  Such a w is a vertex of any one
    generator of the row, so only those are tested, each by bonds[w] &
    row == row.

    The edges are the vertex pairs with a nonzero row, visited fewest
    common generators first; a pair is listed only if both vertices lie
    in generators of three vertices or more, as a dominated edge's do.
    A piece inside a live generator entering no later adds no face and is
    dropped.  Every vertex of a piece was one of its generator's, so a
    split leaves no edge newly dominated; only a drop, which takes a
    generator out of rows, can, and the edges of each dropped piece are
    tested again, in a later round.  Returns the input if no edge goes,
    and otherwise the survivors as :func:`_maximal` filters them.
    """
    masks = [mask for mask, _ in kept]
    values = [value for _, value in kept]
    rows = dict(bonds)
    wide = 0  # the vertices of generators of three vertices or more
    for mask in masks:
        if mask.bit_count() > 2:
            wide |= mask
    ends = [(v, rows[v]) for v in members(wide)]
    edges = [
        ((row_u & row_v).bit_count(), u, v)
        for (u, row_u), (v, row_v) in combinations(ends, 2)
        if row_u & row_v
    ]
    removed = False
    while edges:
        # per vertex u, the vertices v > u whose edge with u is to be tested
        # again: a piece holding both was dropped after the edge's last test
        retest = dict.fromkeys(rows, 0)
        edges.sort()
        for _, u, v in edges:
            retest[u] &= ~(1 << v)
            edge, row = 1 << u | 1 << v, rows[u] & rows[v]
            for w in members(masks[(row & -row).bit_length() - 1] ^ edge):
                if rows[w] & row == row:
                    break
            else:
                continue
            removed = True
            for g in members(row):
                mask, value, bit = masks[g], values[g], 1 << g
                masks[g] = 0
                vertices = [*members(mask)]
                inside = -1  # the generators holding g - {u, v}
                for x in vertices:
                    rows[x] ^= bit
                    if x != u and x != v:
                        inside &= rows[x]
                for cut, held in ((u, v), (v, u)):
                    piece = mask ^ 1 << cut
                    if any(values[h] <= value for h in members(inside & rows[held])):
                        for x in vertices:
                            if x != cut:
                                retest[x] |= piece
                    else:
                        new = 1 << len(masks)
                        for x in vertices:
                            if x != cut:
                                rows[x] |= new
                        masks.append(piece)
                        values.append(value)
        edges = [
            ((rows[u] & rows[v]).bit_count(), u, v)
            for u, near in retest.items()
            for v in members(near >> u + 1 << u + 1)
        ]
    if not removed:
        return kept, bonds
    return _maximal((mask, value) for mask, value in zip(masks, values) if mask)


def log_to_json_obj(log: OccurrenceLog) -> dict:
    return {
        "n": log.n,
        "bins": [[idx, list(members(active))] for idx, active in log.bins],
    }


def _json_int(x, what: str) -> int:
    if type(x) is not int:
        raise ParseError(f"{what} must be an integer, got {x!r}")
    return x


def log_from_json_obj(obj: dict) -> OccurrenceLog:
    try:
        n = _json_int(obj["n"], "n")
        bins = tuple(
            (_json_int(idx, "bin index"), _neuron_mask(ids, n)) for idx, ids in obj["bins"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed log JSON: {exc}") from exc
    return OccurrenceLog(n, bins)


def _neuron_mask(ids, n: int) -> int:
    """The mask of a JSON neuron id list, each id range-checked before its shift."""
    ids = {_json_int(i, "neuron id") for i in ids}
    if ids and min(ids) < 0:
        raise DimensionError(f"negative neuron index in {tuple(sorted(ids))}")
    if ids and max(ids) >= n:
        raise DimensionError(f"neuron {max(ids)} out of range for n={n}")
    return bitmask(ids)
