"""GF(2) simplicial homology, frequency filtrations and persistence barcodes.

``_faces`` lists every face, per dimension, at the smallest value of a
given simplex containing it: the bonds for ``frequency_filtration``, the
maximal simplices at one value for ``betti``.  Only ``persistence`` reduces
(coboundary, bottom up, with clearing; inner loop in :mod:`hypercode._gf2`),
and Betti numbers are its infinite bars.
"""

from __future__ import annotations

import heapq
import math
import os
from dataclasses import dataclass
from itertools import combinations
from operator import itemgetter
from typing import Iterable

from hypercode import _gf2
from hypercode.codes import SimplicialComplex
from hypercode.errors import ConfigError, DimCapError, FiltrationError, LevelRangeError
from hypercode.hyperstructure import Hyperstructure

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
    """A face-monotone value per simplex, stored per dimension.

    ``faces[d]`` holds the d-simplices in (value, lex) order, the order
    ``persistence`` reduces in, and ``face_values[d]`` their values.
    ``from_values`` checks a caller's values with ``validate()`` and reads
    ``complex`` only to set ``truncated``.
    """

    faces: tuple[tuple[tuple[int, ...], ...], ...]
    face_values: tuple[tuple[float, ...], ...]
    dim_cap: int
    truncated: bool  # complex dimension exceeded dim_cap

    @property
    def simplices(self) -> tuple[tuple[int, ...], ...]:
        """Every simplex in (value, dim, lex) order, as is ``values``; built on each read."""
        return tuple(s for _, s in self._flat())

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(v for v, _ in self._flat())

    def _flat(self):
        # merge breaks value ties by argument order: lower dimensions first
        levels = (zip(values, level) for level, values in zip(self.faces, self.face_values))
        return heapq.merge(*levels, key=itemgetter(0))

    @classmethod
    def from_values(
        cls,
        complex: SimplicialComplex,
        values: dict[tuple[int, ...], float],
        dim_cap: int | None = None,
    ) -> "Filtration":
        cap = resolve_dim_cap(dim_cap)
        _check_monotone(values)
        top = max(map(len, values), default=0) - 1
        return cls(*_faces(values.items(), top), cap, complex.dim > cap)

    def validate(self) -> None:
        _check_monotone(dict(zip(self.simplices, self.values)))


def _check_monotone(value_of: dict[tuple[int, ...], float]) -> None:
    for s, v in value_of.items():
        if len(s) < 2:
            continue
        for face in combinations(s, len(s) - 1):
            if face not in value_of:
                raise FiltrationError(f"face {face} of {s} missing from filtration")
            if value_of[face] > v:
                raise FiltrationError(
                    f"face {face} (value {value_of[face]}) enters after {s} (value {v})"
                )


def _faces(valued: Iterable[tuple[tuple[int, ...], float]], top: int):
    """Faces of dimension 0..top of the given simplices: per dimension, the
    faces in (value, lex) order and their values, each face at the smallest
    value of a given simplex containing it."""
    value_of: list[dict[tuple[int, ...], float]] = [{} for _ in range(top + 1)]
    for s, value in sorted(valued, key=itemgetter(1)):  # so the first value seen is the min
        for size in range(1, min(len(s), top + 1) + 1):
            for face in combinations(s, size):
                value_of[size - 1].setdefault(face, value)
    # a stable sort by value of the lex order: (value, lex)
    faces = [sorted(sorted(level), key=level.__getitem__) for level in value_of]
    values = (tuple(map(level.__getitem__, order)) for level, order in zip(value_of, faces))
    return tuple(map(tuple, faces)), tuple(values)


@dataclass(frozen=True)
class Barcode:
    """Persistence intervals (dim, birth, death); death may be infinite."""

    intervals: tuple[tuple[int, float, float], ...]

    def in_dim(self, d: int) -> list[tuple[float, float]]:
        return [(b, e) for dim, b, e in self.intervals if dim == d]

    def count_at(self, theta: float, d: int) -> int:
        return sum(
            1 for dim, b, e in self.intervals if dim == d and b <= theta < e
        )


def betti(
    k: SimplicialComplex, max_dim: int | None = None, dim_cap: int | None = None
) -> tuple[int, ...]:
    """Betti numbers over GF(2) up to max_dim.

    The default max_dim is the complex dimension, or cap - 1 when the
    complex exceeds the dim cap: faces are enumerated up to the cap only,
    so that is the highest dimension whose Betti number they determine;
    callers tell such a cut vector by its length, at most dim.  An
    explicit max_dim at or above the cap of such a complex raises
    ``DimCapError``.

    beta_d counts the infinite d-bars of ``persistence`` over the complex
    with every face at one value, its faces up to dimension max_dim + 1.
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
    valued = ((s, 0.0) for s in k.maximal_simplices)
    bars = persistence(Filtration(*_faces(valued, min(max_dim + 1, cap)), cap, k.dim > cap))
    return tuple(sum(math.isinf(e) for _, e in bars.in_dim(d)) for d in range(max_dim + 1))


def euler_characteristic_ok(k: SimplicialComplex, dim_cap: int | None = None) -> bool:
    """Check sum (-1)^d f_d == sum (-1)^d beta_d (valid when dim <= cap)."""
    cap = resolve_dim_cap(dim_cap)
    if k.dim > cap:
        raise DimCapError(f"complex dimension {k.dim} exceeds dim_cap {cap}")
    if k.dim < 0:
        return True
    faces, _ = _faces(((s, 0.0) for s in k.maximal_simplices), k.dim)
    chi_f = sum((-1) ** d * len(level) for d, level in enumerate(faces))
    b = betti(k, k.dim, dim_cap=cap)
    chi_b = sum((-1) ** d * bd for d, bd in enumerate(b))
    return chi_f == chi_b


def frequency_filtration(
    h: Hyperstructure, i: int, dim_cap: int | None = None
) -> Filtration:
    """Filter the level-i complex by bond frequency: frequent patterns first.

    Built from the level-i bonds alone: a bond enters at c_max - count and
    ``_faces`` gives each face, up to the dim cap, the min over the bonds
    containing it, so no face enters after a coface and no ``validate()``
    is needed.  Level-(i-1) bonds bound by no level-i bond enter at 0 as
    isolated vertices.  ``truncated`` means the widest bond has more than
    cap + 1 constituents.
    """
    if not 1 <= i <= h.k:
        raise LevelRangeError(f"level {i} out of range 1..{h.k}")
    cap = resolve_dim_cap(dim_cap)
    bonds = h.level(i)
    c_max = max(b.count for b in bonds)
    valued = [(b.constituents, float(c_max - b.count)) for b in bonds]
    if i >= 2:
        covered = {c for b in bonds for c in b.constituents}
        valued.extend(((b.id,), 0.0) for b in h.level(i - 1) if b.id not in covered)
    top = max(len(b.constituents) for b in bonds) - 1
    return Filtration(*_faces(valued, min(top, cap)), cap, top > cap)


def persistence(f: Filtration, keep_zero: bool = False) -> Barcode:
    """Barcode of a filtration: coboundary, bottom up, with clearing.

    Each coboundary operator delta_d is reduced on its own, from dimension
    0 up (de Silva, Morozov & Vejdemo-Johansson 2011; Bauer, Ripser 2021):
    columns are the d-simplices and rows the (d+1)-simplices, both in
    reverse order, so a column's low is its first coface in order and the
    pairs are those of the boundary reduction.  A pair (sigma, tau) is the
    interval (dim sigma, value sigma, value tau).  Clearing runs upward: a
    (d+1)-simplex that is already a pivot of delta_d gets an empty column
    in delta_{d+1}; a simplex neither paired nor such a pivot is an
    infinite bar.

    Zero-length intervals are dropped unless ``keep_zero``.  A truncated
    filtration (complex dimension above dim_cap) holds simplices only up
    to dimension dim_cap, so every interval of dimension dim_cap and above
    is dropped from its barcode.
    """
    faces, values = f.faces, f.face_values
    intervals: list[tuple[int, float, float]] = []
    cleared: set[int] = set()  # pivots of delta_{d-1}, as reversed positions in faces[d]
    for d in range(min(len(faces), f.dim_cap) if f.truncated else len(faces)):
        rows = faces[d + 1] if d + 1 < len(faces) else ()
        cofaces: dict[tuple[int, ...], list[int]] = {s: [] for s in faces[d]}
        for row, t in enumerate(reversed(rows)):
            for face in combinations(t, d + 1):
                cofaces[face].append(row)
        columns = (() if k in cleared else cofaces[s] for k, s in enumerate(reversed(faces[d])))
        lows = _gf2.reduce_lows(columns)
        for k, (low, birth) in enumerate(zip(lows, reversed(values[d]))):
            if low >= 0:
                death = values[d + 1][-1 - low]
                if keep_zero or death > birth:
                    intervals.append((d, birth, death))
            elif k not in cleared:
                intervals.append((d, birth, math.inf))
        cleared = set(lows)
    intervals.sort()
    return Barcode(tuple(intervals))


def barcode_sequence(
    h: Hyperstructure, dim_cap: int | None = None, keep_zero: bool = False
) -> list[tuple[int, Barcode]]:
    """One frequency-filtered barcode per populated level, bottom up."""
    return [
        (i, persistence(frequency_filtration(h, i, dim_cap), keep_zero=keep_zero))
        for i in range(1, h.k + 1)
    ]


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
