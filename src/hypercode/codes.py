"""Raw data model: patterns, binned spike logs and their parsers, and simplicial
complexes stored by their maximal simplices as vertex bitmasks.

Neuron indices are 0-based throughout.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from operator import itemgetter, lt, or_
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
            if idx < 0:
                raise DimensionError(f"bin index {idx} is negative")
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
# :func:`_add_bonds` writes masks out in binary from this many on, if their
# vertices' range is at most this many times their mean size
_BULK_ADD = 64
_BULK_SPREAD = 16


def parse_spike_matrix(text: str | Iterable[str], header: bool = False) -> tuple[int, OccurrenceLog]:
    """Parse a CSV spike matrix (rows = neurons, columns = time bins).

    Cells must be 0 or 1, with any surrounding whitespace; ragged rows are
    rejected.  Empty bins are retained in the log with an empty mask.

    Plain text, every row one-character 0/1 cells joined by single commas
    and ended by LF, with no blank line and no header, is read by slicing:
    its even characters reversed are the cells with the rows bottom up, so
    each column reads as its mask in binary.  Anything else goes through
    ``csv.reader``.
    """
    if isinstance(text, str):
        stride = text.find("\n") + 1  # a plain row of w cells is 2w characters
        if not header and stride % 2 == 0 < stride and len(text) % stride == 0:
            width, n = stride // 2, len(text) // stride
            cells = text[-2::-2]
            if text[1::2] == ("," * (width - 1) + "\n") * n and not cells.strip("01"):
                bins = tuple((j, int(cells[width - 1 - j :: width], 2)) for j in range(width))
                return n, OccurrenceLog(n, bins)
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
    kept.  Masks of one value and size cannot contain each other, so each
    such class is tested against the bond sets as they stand and its kept
    masks are added at once.  Returns the kept pairs and the vertices' bond
    sets.
    """
    first: dict[int, float] = {}
    for mask, value in valued:
        if value < first.get(mask, math.inf):
            first[mask] = value
    kept: list[tuple[int, float]] = []
    bonds: dict[int, int] = {}
    fresh: list[int] = []  # the kept masks of the current class, not yet added
    top = size = None  # the current class: its value and its size, negated
    by_class = [(value, -mask.bit_count(), mask) for mask, value in first.items()]
    for value, negsize, mask in sorted(by_class, key=itemgetter(0, 1)):
        if negsize != size or value != top:
            if fresh:
                _add_bonds(bonds, fresh, len(kept) - len(fresh))
                fresh = []
            top, size = value, negsize
        containing, rest = -1, mask
        while rest and containing:
            low = rest & -rest
            containing &= bonds.get(low.bit_length() - 1, 0)
            rest ^= low
        if not containing:
            fresh.append(mask)
            kept.append((mask, value))
    _add_bonds(bonds, fresh, len(kept) - len(fresh))
    return kept, bonds


def _add_bonds(bonds: dict[int, int], masks: list[int], start: int) -> None:
    """Set bit ``start + i`` of the bond set of each vertex of ``masks[i]``.

    Added a bit at a time, each OR copies a bond set as wide as all the
    masks before it.  So many masks over few vertices are instead written
    out in binary, the last first, and each vertex's bits read as one
    column of that text, which costs the text's width per mask.
    """
    if len(masks) >= _BULK_ADD:
        width = max(map(int.bit_length, masks))
        if width * len(masks) <= _BULK_SPREAD * sum(map(int.bit_count, masks)):
            text = "".join([format(mask, f"0{width}b") for mask in reversed(masks)])
            for v in members(reduce(or_, masks)):
                bonds[v] = bonds.get(v, 0) | int(text[width - 1 - v :: width], 2) << start
            return
    for g, rest in enumerate(masks, start):
        bit = 1 << g
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            bonds[v] = bonds.get(v, 0) | bit
            rest ^= low


def face_collapse(
    kept: list[tuple[int, float]], bonds: dict[int, int]
) -> tuple[list[tuple[int, float]], dict[int, int]]:
    """Delete every face of one vertex, then of two, then of three,
    dominated in every sublevel complex, from the generators and bond sets
    that :func:`_maximal` returns.

    The generators holding a face sigma are its row, the AND of its
    vertices' bond sets.  sigma is dominated iff some vertex w outside it
    is in every one of them.  Then every face tau containing sigma pairs
    with tau | w, at the same value, in every sublevel complex, so deleting
    sigma's open star, each generator g of the row split into g - x for
    each x in sigma at g's value, is a collapse in each of them, and these
    inclusions commute with the filtration: every bar of positive length
    and every Betti number is kept (Boissonnat, Pritam & Pareek 2018 give
    the rule for vertices, the strong collapse, and Boissonnat & Pritam
    2020 for edges; it holds for a face of any size).  Such a w is a
    vertex of any one generator of the row, so only those of the first
    are tested, each by bonds[w] & row == row.

    Only a face that a generator of more vertices holds can be dominated.
    The vertices are those of such generators, the edges the vertex pairs
    whose rows among those generators meet, and the triangles, listed
    after the edge pass, two such edges from their first vertex; each
    pass visits its faces fewest common generators first.  A split keeps
    the first piece kept in g's slot, so only the cut vertex's bond set
    changes, and puts each further one in a freed slot, or a new one.  A
    vertex has one piece, g without it, so it only shrinks or drops
    generators.  A piece g - x inside a live generator entering no later
    adds no face and is dropped.  No live generator holds another entering
    no later, so such a generator is outside the row: it holds sigma - x
    and w but not sigma, and only those are tested.  A split only shrinks
    the generators holding a face, so it leaves no face newly dominated;
    only a drop, which takes a generator out of rows, can.  So while a
    round drops a piece another follows, and it tests again only the faces
    whose row has changed, or holds a refilled slot, since their last
    test.  Returns the input if no face goes, and otherwise the survivors
    as :func:`_maximal` filters them.
    """
    masks = [mask for mask, _ in kept]
    values = [value for _, value in kept]
    rows = {1 << v: row for v, row in bonds.items()}  # keyed by the vertex's bit
    free: list[int] = []  # the slots of generators split into nothing
    watched: dict[int, list] = {}  # per size: (face, its vertices, its row at its last test)
    refilled = 0  # the freed slots refilled in this round; recent, in the last one
    removed, dropped = False, True
    while dropped:
        recent, refilled, dropped = refilled, 0, False
        for size in 1, 2, 3:
            if size in watched:
                faces = watched[size]
            else:
                listed = sorted(_held_faces(masks, rows, size))  # fewest common generators first
                faces = [(sigma, verts, 0) for _, sigma, verts in listed]
            watched[size] = watching = []
            for sigma, verts, seen in faces:
                row = -1
                for x in verts:
                    row &= rows[x]
                if not row:
                    continue
                if row == seen and not row & (recent | refilled):
                    watching.append((sigma, verts, seen))
                    continue
                rest = masks[(row & -row).bit_length() - 1] ^ sigma
                while rest:
                    w = rest & -rest
                    if rows[w] & row == row:
                        break
                    rest ^= w
                if not rest:
                    watching.append((sigma, verts, row))
                    continue
                removed = True
                # per cut vertex x, the generators outside the row holding
                # sigma - x and w: the only ones that can hold a piece g - x
                # at g's value or earlier, and that the row's splits leave
                cuts, near = [], 0
                for x in verts:
                    holders = rows[w] & ~row
                    for y in verts:
                        if y != x:
                            holders &= rows[y]
                    cuts.append((x, holders))
                    near |= holders
                while row:
                    bit = row & -row
                    row ^= bit
                    g = bit.bit_length() - 1
                    mask, value = masks[g], values[g]
                    inside, rest = near, mask ^ sigma ^ w  # of those, the ones holding g - sigma
                    while rest and inside:
                        low = rest & -rest
                        inside &= rows[low]
                        rest ^= low
                    slot = g
                    for x, holders in cuts:
                        piece = mask ^ x
                        holders &= inside
                        while holders:
                            h = holders & -holders
                            if values[h.bit_length() - 1] <= value:
                                break
                            holders ^= h
                        if holders:
                            dropped = True
                        elif slot == g:
                            masks[g] = piece
                            rows[x] ^= bit
                            slot = -1
                        else:
                            if free:
                                s = free.pop()
                                masks[s], values[s] = piece, value
                                refilled |= 1 << s
                            else:
                                s = len(masks)
                                masks.append(piece)
                                values.append(value)
                            new, rest = 1 << s, piece
                            while rest:
                                low = rest & -rest
                                rows[low] |= new
                                rest ^= low
                    if slot == g:
                        masks[g] = 0
                        free.append(g)
                        rest = mask
                        while rest:
                            low = rest & -rest
                            rows[low] ^= bit
                            rest ^= low
    if not removed:
        return kept, bonds
    return _maximal((mask, value) for mask, value in zip(masks, values) if mask)


def _held_faces(
    masks: list[int], rows: dict[int, int], size: int
) -> list[tuple[int, int, tuple[int, ...]]]:
    """(count, face, its vertices) for every face of ``size`` vertices, 1 to
    3, that a generator of more vertices holds, count being the number of
    those generators; ``rows`` are the bond sets keyed by vertex bit."""
    # the generators of more than ``size`` vertices, read as one binary
    # string, in time linear in their number
    big = int("0" + "".join("1" if mask.bit_count() > size else "0" for mask in reversed(masks)), 2)
    ends = sorted((v, row & big) for v, row in rows.items() if row & big)
    if size == 1:
        return [(row.bit_count(), v, (v,)) for v, row in ends]
    edges = [
        (u, v, both) for (u, row_u), (v, row_v) in combinations(ends, 2) if (both := row_u & row_v)
    ]
    if size == 2:
        return [(row.bit_count(), u | v, (u, v)) for u, v, row in edges]
    star: dict[int, list[tuple[int, int]]] = {}  # per vertex, its edges to later ones
    for u, v, row in edges:
        star.setdefault(u, []).append((v, row))
    return [
        (both.bit_count(), u | v | w, (u, v, w))
        for u, later in star.items()
        for (v, row_v), (w, row_w) in combinations(later, 2)
        if (both := row_v & row_w)
    ]


def log_to_json_obj(log: OccurrenceLog) -> dict:
    """The log as JSON; bins with one mask share one list of its neuron ids."""
    ids = {active: list(members(active)) for active in {active for _, active in log.bins}}
    return {"n": log.n, "bins": [[idx, ids[active]] for idx, active in log.bins]}


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
