"""GF(2) simplicial homology, frequency filtrations and persistence barcodes.

A filtration is stored as its generators: (mask, value) pairs, bit i of
a mask for vertex i, every face of which enters at the smallest value of
a generator containing it (the bonds for ``frequency_filtration``, the
maximal simplices at one value for ``betti``).  They are strong-collapsed
(:func:`hypercode.codes.strong_collapse`), or only filtered by
:func:`hypercode.codes._maximal` where ``persistence`` keeps zero-length
bars; ``_Generators`` indexes what is left by the vertex bond
sets of that filter, ``_faces`` enumerates the faces of the column
dimensions, and ``persistence``, the only reduction (coboundary, bottom
up, with clearing; inner loop in :mod:`hypercode._gf2`), generates a
column's cofaces from the generators only when the kernel needs them.
Betti numbers are its infinite bars.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import partial
from itertools import combinations, repeat
from operator import or_
from typing import Iterator

from hypercode import _gf2
from hypercode.codes import SimplicialComplex, _maximal, members, strong_collapse
from hypercode.errors import ConfigError, DimCapError
from hypercode.hyperstructure import Hyperstructure, level_generators

DEFAULT_DIM_CAP = 5


def resolve_dim_cap(dim_cap: int | None = None) -> int:
    """Explicit value, else HYPERCODE_DIM_CAP, else the default of 5.

    A cap below 1 would leave no boundary to reduce, so it raises.
    """
    if dim_cap is not None:
        if dim_cap < 1:
            raise ConfigError(f"dim_cap must be at least 1, got {dim_cap}")
        return dim_cap
    raw = os.environ.get("HYPERCODE_DIM_CAP")
    if raw is None:
        return DEFAULT_DIM_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ConfigError(f"HYPERCODE_DIM_CAP must be an integer, got {raw!r}") from None
    if cap < 1:
        raise ConfigError(f"HYPERCODE_DIM_CAP must be at least 1, got {raw!r}")
    return cap


@dataclass(frozen=True)
class Filtration:
    """A face-monotone value per simplex, stored as its generators.

    A generator is a (mask, value) pair, bit i of the mask for vertex i.
    Every face of a generator, up to dimension ``top``, enters at the
    smallest value of a generator containing it, so no face enters after
    a coface.  ``persistence`` reduces the columns of dimensions 0..top,
    their cofaces generated one dimension up; on a ``truncated``
    filtration, whose ``top`` is a dim cap below its generators'
    dimension, it stops below the cap.  ``simplices`` lists the faces the
    benchmark counts, as sorted vertex tuples, one dimension after
    another, in no set order within a dimension.
    """

    generators: tuple[tuple[int, float], ...]
    top: int
    truncated: bool  # top is a dim cap that some generator exceeds

    @property
    def simplices(self) -> tuple[tuple[int, ...], ...]:
        """Every face up to ``top``, enumerated from the generators on each read."""
        gens = _generators(self.generators, collapse=False)
        return tuple(
            tuple(members(key & gens.vertices)) for keys in _faces(gens, self.top) for key in keys
        )


def _generators(generators, collapse: bool) -> "_Generators":
    return _Generators(*(strong_collapse if collapse else _maximal)(generators))


class _Generators:
    """A filtration's generators as bitmasks, indexed for (co)face lookup.

    Bit i of a mask is vertex i.  The generators, in value order, and
    ``inc``, each vertex's bond set (bit g for generator g), come from
    :func:`hypercode.codes._maximal` or its strong collapse, so the
    generators containing sigma are the AND of its vertices' rows.  The
    key of a simplex is (rank of its value counted from the top) << n |
    mask: a larger key is an older simplex in (value, descending mask)
    order, so the kernel's low, the largest key, is the oldest coface.
    """

    def __init__(self, kept: list[tuple[int, float]], inc: dict[int, int]):
        self.masks = [mask for mask, _ in kept]
        self.n = n = max((mask.bit_length() for mask in self.masks), default=0)
        self.vertices = (1 << n) - 1
        self.values = sorted({value for _, value in kept}, reverse=True)  # by rank
        rank = {value: r for r, value in enumerate(self.values)}
        self.shifts = [rank[value] << n for _, value in kept]
        self.inc = inc
        self.exact = {mask: 1 << g for g, mask in enumerate(self.masks)}

    def value(self, key: int) -> float:
        return self.values[key >> self.n]

    def column(self, key: int):
        """sigma's coboundary column as the kernel's (low, rows) pair.

        The low, sigma's oldest coface, costs a few ANDs: the lowest-valued
        generators that contain sigma and have an extra vertex give its
        value, and their largest extra vertex its largest mask.
        """
        sigma = key & self.vertices
        bonds = self._containing(sigma)
        if not bonds:
            return -1, None
        shifts, masks = self.shifts, self.masks
        shift, extra = shifts[(bonds & -bonds).bit_length() - 1], 0
        while bonds:
            b = bonds & -bonds
            g = b.bit_length() - 1
            if shifts[g] != shift:
                break
            extra |= masks[g]
            bonds ^= b
        low = shift | sigma | 1 << ((extra & ~sigma).bit_length() - 1)
        return low, partial(self.cofaces, sigma)

    def cofaces(self, sigma: int) -> list[int]:
        """Keys of sigma's cofaces: the generators strictly containing sigma,
        visited in value order, each add the cofaces no older one has, at
        its own value."""
        keys, seen, bonds = [], sigma, self._containing(sigma)
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

    def _containing(self, sigma: int) -> int:
        """The bond set of the generators that strictly contain sigma."""
        bonds, inc, rest = -1, self.inc, sigma
        while rest:
            v = rest & -rest
            bonds &= inc[v.bit_length() - 1]
            rest ^= v
        return bonds & ~self.exact.get(sigma, 0)


def _faces(gens: _Generators, top: int) -> Iterator[list[int]]:
    """Keys of the faces of dimension 0..top of the generators, ascending
    (youngest first), each face at the smallest value of a generator
    containing it; one dimension at a time, so one is held at once."""
    for size in range(1, top + 2):
        level: dict[int, int] = {}
        # largest value first, so a smaller value overwrites: each face at its min
        for mask, shift in zip(reversed(gens.masks), reversed(gens.shifts)):
            if mask.bit_count() >= size:
                bits = [1 << v for v in members(mask)]
                level.update(zip(map(sum, combinations(bits, size)), repeat(shift)))
        yield sorted(map(or_, level, level.values()))


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

    The default max_dim is the complex dimension, or cap - 1 when the
    complex exceeds the dim cap: cofaces are generated up to the cap only,
    so that is the highest dimension whose Betti number they determine;
    callers tell such a cut vector by its length, at most dim.  An
    explicit max_dim at or above the cap of such a complex raises
    ``DimCapError``.

    beta_d counts the infinite d-bars of ``persistence`` over the complex
    with every face at one value, its columns of dimension 0..max_dim.
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
    valued = tuple((mask, 0.0) for mask in k.maximal_simplices)
    bars = persistence(Filtration(valued, max_dim, False))
    return tuple(sum(math.isinf(e) for _, e in bars.in_dim(d)) for d in range(max_dim + 1))


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
    those of the boundary reduction.  Cofaces are generated from the
    generators, never enumerated: the kernel gets each column's low for a
    few ANDs and builds the column only when that low is already a pivot,
    so an apparent pair costs no column.  A pair (sigma, tau) is the
    interval (dim sigma, value sigma, value tau).  Clearing runs upward: a
    (d+1)-simplex that is already a pivot of delta_d gets no column in
    delta_{d+1}; a simplex neither paired nor such a pivot is an infinite
    bar.

    Zero-length intervals are dropped unless ``keep_zero``; without it,
    the generators are strong-collapsed first, which keeps every interval
    of positive length and can shrink a wide generator to a few vertices.
    ``top`` and ``truncated`` stay those of ``f``: the columns run over
    dimensions 0..top, or below the cap on a truncated filtration, so
    every interval of dimension cap and above is dropped from its
    barcode, and a dimension above the collapsed generators has no faces.
    """
    gens = _generators(f.generators, collapse=not keep_zero)
    value = gens.value
    intervals: list[tuple[int, float, float]] = []
    cleared: set[int] = set()  # keys of the pivots of delta_{d-1}
    for d, keys in enumerate(_faces(gens, f.top - f.truncated)):
        live = [key for key in keys if key not in cleared]
        lows = _gf2.reduce_lows(map(gens.column, live))
        for key, low in zip(live, lows):
            birth = value(key)
            if low < 0:
                intervals.append((d, birth, math.inf))
            elif keep_zero or value(low) > birth:
                intervals.append((d, birth, value(low)))
        cleared = set(lows)
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
