"""GF(2) simplicial homology, frequency filtrations and persistence barcodes.

A filtration is stored as its generators: (mask, value) pairs, bit i of
a mask for vertex i, every face of which enters at the smallest value of
a generator containing it (the bonds for ``frequency_filtration``, the
maximal simplices at one value for ``betti``).  They are filtered by
:func:`hypercode.codes._maximal` and then rid of their dominated
vertices, edges and triangles (:func:`hypercode.codes.face_collapse`),
or only filtered where ``persistence`` keeps zero-length bars;
``_Generators`` indexes what is left by the vertex bond sets of that
filter.  ``_columns`` lists the faces of each column dimension together
with each face's low, its oldest coface, in one bulk pass over blocks of
each generator's faces; the faces that clearing pairs one dimension down
leave the listing before its one sort.
``_reduced`` is the only reduction (coboundary, bottom up, with
clearing; inner loop in :mod:`hypercode._gf2`), and generates a column's
cofaces from the generators only when the kernel needs them.
``persistence`` reads its pairs as intervals, and ``betti`` counts its
zero columns, the infinite bars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, compress, repeat
from operator import add, and_, itemgetter, lt, mul, rshift, sub, xor
from typing import Generator, Iterator

from hypercode import _gf2
from hypercode.codes import SimplicialComplex, _maximal, face_collapse, members
from hypercode.errors import ConfigError, DimCapError
from hypercode.hyperstructure import Hyperstructure, level_generators

DEFAULT_DIM_CAP = 5


def resolve_dim_cap(dim_cap: int | None = None) -> int:
    """The explicit cap, else the default of 5.

    A cap below 1 would leave no boundary to reduce, so it raises.
    """
    if dim_cap is None:
        return DEFAULT_DIM_CAP
    if dim_cap < 1:
        raise ConfigError(f"dim_cap must be at least 1, got {dim_cap}")
    return dim_cap


@dataclass(frozen=True)
class Filtration:
    """A face-monotone value per simplex, stored as its generators.

    A generator is a (mask, value) pair, bit i of the mask for vertex i.
    Every face of a generator, up to dimension ``top``, enters at the
    smallest value of a generator containing it, so no face enters after
    a coface.  ``persistence`` reduces the columns of dimensions 0..top,
    their lows listed with the faces and their cofaces generated one
    dimension up only when needed; on a ``truncated`` filtration, whose
    ``top`` is a dim cap below its generators' dimension, it stops below
    the cap.  ``simplices`` lists the faces the benchmark counts, as
    sorted vertex tuples, one dimension after another, in no set order
    within a dimension.
    """

    generators: tuple[tuple[int, float], ...]
    top: int
    truncated: bool  # top is a dim cap that some generator exceeds

    @property
    def simplices(self) -> tuple[tuple[int, ...], ...]:
        """Every face up to ``top``, enumerated from the generators on each read."""
        gens = _generators(self.generators, collapse=False)
        return tuple(
            tuple(members(key & gens.vertices))
            for keys, _ in _columns(gens, self.top)
            for key in keys
        )


def _generators(generators, collapse: bool) -> "_Generators":
    """The generators indexed for listing, as :func:`_maximal` filters
    them, or, with ``collapse``, after the collapse of their dominated
    vertices, edges and triangles: the smaller filtration has every bar of
    positive length and every Betti number of the given one, but not its
    zero-length bars."""
    if collapse:
        return _Generators(*face_collapse(*_maximal(generators)))
    return _Generators(*_maximal(generators))


class _Generators:
    """A filtration's generators as bitmasks, indexed for (co)face lookup.

    Bit i of a mask is vertex i.  The generators, in value order, and
    ``inc``, each vertex's bond set (bit g for generator g), come from
    :func:`hypercode.codes._maximal` or its face collapse, so the
    generators containing sigma are the AND of its vertices' rows, which
    ``cofaces`` reads to build the column of a key the kernel passes back;
    a generator equal to sigma adds no coface.  The key of a simplex is
    (rank of its value counted from the top) << n | mask: a larger key is
    an older simplex in (value, descending mask) order, so the kernel's
    low, the largest key, is the oldest coface; :func:`_columns` lists
    every low in bulk, with no AND per face.
    """

    def __init__(self, kept: list[tuple[int, float]], inc: dict[int, int]):
        self.masks = [mask for mask, _ in kept]
        self.n = n = max((mask.bit_length() for mask in self.masks), default=0)
        self.vertices = (1 << n) - 1
        self.values = sorted({value for _, value in kept}, reverse=True)  # by rank
        rank = {value: r for r, value in enumerate(self.values)}
        self.shifts = [rank[value] << n for _, value in kept]
        self.inc = inc
        # every key and low is below the largest possible key; one more bit
        # leaves room for -1 in ``_columns``' packed ints
        self.width = (max(self.shifts, default=0) | self.vertices).bit_length() + 1

    def value(self, key: int) -> float:
        return self.values[key >> self.n]

    def cofaces(self, key: int) -> list[int]:
        """Keys of the cofaces of the face with this key: the generators
        containing it, the AND of its vertices' bond sets, visited in value
        order, each add the cofaces no older one has, at its own value."""
        sigma = key & self.vertices
        bonds, inc, rest = -1, self.inc, sigma
        while rest:
            v = rest & -rest
            bonds &= inc[v.bit_length() - 1]
            rest ^= v
        keys, seen = [], sigma
        while bonds:
            b = bonds & -bonds
            g = b.bit_length() - 1
            extra = self.masks[g] & ~seen
            seen |= extra
            base = self.shifts[g] | sigma
            while extra:
                v = extra & -extra
                keys.append(base | v)
                extra ^= v
            bonds ^= b
        return keys


def _columns(
    gens: _Generators, top: int
) -> Generator[tuple[list[int], list[int]], list[int] | None, None]:
    """Per dimension 0..top, the keys of the generators' faces, ascending
    (youngest first), and each face's low, the key of its oldest coface,
    or -1 if it has none; one dimension at a time, so one is held at once.

    Keys sent back after a dimension, the reduced lows of its columns,
    leave the next dimension's listing before any key or low is built
    (clearing: they are pivots one dimension down); -1 is skipped.
    Iterating sends nothing, so every face is listed.

    sigma's low is sigma | max(shift_g | e_g) over the generators g
    strictly containing sigma, e_g the bit of g's largest vertex not in
    sigma.  The faces of g that hold g's k largest vertices but not its
    (k+1)-th share that term, so they come as a block: a prefix | each
    combination of the rest.  The blocks go into one dict in ascending
    term order, so each face keeps its largest term, whose shift is that
    of the oldest generator containing the face: the face's own.  A face
    that is a generator keeps its own shift, which ``_maximal`` makes older
    than any container's.

    Each face is sorted as one int, key << w | low, w = ``gens.width``,
    one more than the width of the largest possible key, so every low
    fits below the top bit of its field and -1 packs as the all-ones
    field, which unpacks to -1 again.
    Its key is sigma | shift_g and its low sigma | shift_g | e_g, so the
    dict maps sigma to the block's packed term, shift_g << w | shift_g |
    e_g, and the face packs as sigma * (2**w + 1) + that term.
    """
    w = gens.width
    m, ones, half = (1 << w) | 1, (1 << w) - 1, 1 << w - 1
    descending = [[1 << v for v in reversed(list(members(mask)))] for mask in gens.masks]
    cleared: list[int] | None = None
    for size in range(1, top + 2):
        blocks = []
        for bits, shift in zip(descending, gens.shifts):
            if len(bits) > size:  # a generator is no strict face of itself
                prefix, base = 0, shift << w | shift
                for k in range(size + 1):
                    blocks.append((base | bits[k], prefix, bits[k + 1 :], size - k))
                    prefix |= bits[k]
        blocks.sort(key=itemgetter(0))
        terms: dict[int, int] = {}
        for term, prefix, rest, r in blocks:
            terms.update(zip(map(sum, combinations(rest, r), repeat(prefix)), repeat(term)))
        own: dict[int, int] = {}  # the generators' own keys -> their packed ints
        for mask, shift in zip(gens.masks, gens.shifts):
            if mask.bit_count() == size:
                term = terms.pop(mask, None)
                key = shift | mask
                own[key] = key << w | (ones if term is None else mask | term & ones)
        for low in cleared or ():
            if low >= 0:
                terms.pop(low & gens.vertices, None)
                own.pop(low, None)
        packed = [*map(add, map(mul, terms, repeat(m)), terms.values()), *own.values()]
        del terms, own  # peak memory: only the packed list lives through the sort
        packed.sort()
        keys = [*map(rshift, packed, repeat(w))]
        # the field read as a signed w-bit int: all ones is -1
        lows = [*map(sub, map(xor, map(and_, packed, repeat(ones)), repeat(half)), repeat(half))]
        del packed
        cleared = yield keys, lows


def _reduced(gens: _Generators, top: int) -> Iterator[tuple[list[int], list[int]]]:
    """Per dimension 0..top, the keys of the columns that clearing left
    and their lows after reduction, -1 for a zeroed column, which is an
    infinite bar."""
    columns, lows = _columns(gens, top), None
    for _ in range(top + 1):
        keys, lows = columns.send(lows)
        lows = _gf2.reduce_lows(zip(lows, keys), gens.cofaces)
        yield keys, lows


@dataclass(frozen=True)
class Barcode:
    """Persistence intervals (dim, birth, death); death may be infinite."""

    intervals: tuple[tuple[int, float, float], ...]

    def in_dim(self, d: int) -> list[tuple[float, float]]:
        return [(b, e) for dim, b, e in self.intervals if dim == d]


def betti(
    k: SimplicialComplex, max_dim: int | None = None, dim_cap: int | None = None
) -> tuple[int, ...]:
    """Betti numbers over GF(2) up to max_dim.

    The dim cap is ``dim_cap``, or 5 when it is None (``resolve_dim_cap``).
    The default max_dim is the complex dimension, or cap - 1 when the
    complex exceeds the dim cap: cofaces are generated up to the cap only,
    so that is the highest dimension whose Betti number they determine;
    callers tell such a cut vector by its length, at most dim.  An
    explicit max_dim at or above the cap of such a complex raises
    ``DimCapError``.

    beta_d counts the zero columns of delta_d that ``_reduced`` leaves
    over the complex rid of its dominated vertices, edges and triangles,
    every face at one value: the infinite d-bars of ``persistence``.
    Columns are listed up to max_dim or the complex dimension, whichever
    is lower; above the complex every beta_d is 0.
    """
    cap = resolve_dim_cap(dim_cap)
    if max_dim is None:
        max_dim = max(k.dim, 0) if k.dim <= cap else cap - 1
    if max_dim < 0:
        raise ConfigError(f"max_dim must be non-negative, got {max_dim}")
    if k.dim > cap and max_dim >= cap:
        raise DimCapError(
            f"complex dimension {k.dim} exceeds dim_cap {cap}; "
            f"homology above dimension {cap - 1} unavailable"
        )
    gens = _generators(((mask, 0.0) for mask in k.maximal_simplices), collapse=True)
    counts = [lows.count(-1) for _, lows in _reduced(gens, min(max_dim, max(k.dim, 0)))]
    return (*counts, *repeat(0, max_dim + 1 - len(counts)))


def frequency_filtration(
    h: Hyperstructure, i: int, dim_cap: int | None = None
) -> Filtration:
    """Filter the level-i complex by bond frequency: frequent patterns first.

    Built from the level-i bonds alone: a bond is a generator at c_max -
    count, so each face, up to the dim cap, enters at the min over the
    bonds containing it.  The generators are ``level_generators``, so a
    level-(i-1) bond bound by no level-i bond enters at 0 as an isolated
    vertex.  ``truncated`` means the widest bond has more than cap + 1
    constituents; then ``top`` is the cap.
    """
    generators = level_generators(h, i)
    cap = resolve_dim_cap(dim_cap)
    c_max = max(count for _, count in generators)
    top = max(mask.bit_count() for mask, _ in generators) - 1
    valued = tuple((mask, float(c_max - count)) for mask, count in generators)
    return Filtration(valued, min(top, cap), top > cap)


def persistence(f: Filtration, keep_zero: bool = False) -> Barcode:
    """Barcode of a filtration: coboundary, bottom up, with clearing.

    Each coboundary operator delta_d is reduced on its own, from dimension
    0 up (de Silva, Morozov & Vejdemo-Johansson 2011; Bauer, Ripser 2021):
    columns are the d-simplices, youngest first, and rows their cofaces,
    keyed so that a column's low is its oldest coface and the pairs are
    those of the boundary reduction.  :func:`_reduced` does it: each
    column's low comes from :func:`_columns`, listed in bulk with the
    faces, and the kernel gets each column as its key, with
    ``_Generators.cofaces`` to build it from the generators only when its
    low is already a pivot, so an apparent pair costs no column.  Clearing
    runs upward: a (d+1)-simplex that is already a pivot of delta_d leaves
    the listing of delta_{d+1} before its sort, so every column left is
    one interval; a simplex neither paired nor such a pivot, a zero
    column, is an infinite bar.  A pair (sigma, tau) is the interval (dim
    sigma, value sigma, value tau); whether it has positive length is read
    off the value ranks in the keys, and only the intervals reported read
    values.

    Zero-length intervals are dropped unless ``keep_zero``; without it,
    the generators are rid of their dominated vertices, edges and
    triangles first (:func:`_generators`), which keeps every interval of
    positive length, can shrink a wide generator to a few vertices and,
    on noisy recordings, leaves under a fiftieth of the faces above
    dimension 1.
    ``top`` and ``truncated`` stay those of ``f``: the columns run over
    dimensions 0..top, or below the cap on a truncated filtration, so
    every interval of dimension cap and above is dropped from its
    barcode, and a dimension above the collapsed generators has no faces.
    """
    gens = _generators(f.generators, collapse=not keep_zero)
    n, value = gens.n, gens.value
    intervals: list[tuple[int, float, float]] = []
    for d, (keys, lows) in enumerate(_reduced(gens, f.top - f.truncated)):
        bars = zip(keys, lows)
        if not keep_zero:
            # ranks count values from the top, so a bar has positive length
            # iff its low's rank is the smaller; -1 >> n is -1, so every
            # infinite bar passes too
            bars = compress(
                bars, map(lt, map(rshift, lows, repeat(n)), map(rshift, keys, repeat(n)))
            )
        for key, low in bars:
            intervals.append((d, value(key), value(low) if low >= 0 else math.inf))
    intervals.sort()
    return Barcode(tuple(intervals))


def barcodes_to_csv(sequence: list[tuple[int, Barcode]]) -> str:
    """Render barcodes as CSV rows `level,dim,birth,death` (death `inf` allowed)."""
    rows = []
    for level, barcode in sequence:
        for dim, birth, death in barcode.intervals:
            rows.append((level, dim, birth, death))
    rows.sort()
    out = ["level,dim,birth,death"]
    for level, dim, birth, death in rows:
        death_s = "inf" if math.isinf(death) else _fmt(death)
        out.append(f"{level},{dim},{_fmt(birth)},{death_s}")
    return "\n".join(out) + "\n"


def _fmt(x: float) -> str:
    return str(int(x)) if float(x).is_integer() else repr(x)
