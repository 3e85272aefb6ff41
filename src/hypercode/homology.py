"""GF(2) simplicial homology, frequency filtrations and persistence barcodes.

Frequency filtration values are pushed down from a level's bonds, so they
are face-monotone by construction; ``validate()`` checks the values passed
to ``Filtration.from_values``.  Betti numbers and barcodes both reduce the
coboundary, bottom up, with clearing (``_graded_lows``), and read infinite
bars and Betti numbers off the same unpaired simplices (``_essential``);
the reduction inner loop is :mod:`hypercode._gf2`.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

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
    """A face-monotone value per simplex, in a valid reduction order.

    ``frequency_filtration`` pushes values down from the bonds; ``from_values``
    runs ``validate()`` on a caller's values and reads ``complex`` only to
    set ``truncated``.
    """

    simplices: tuple[tuple[int, ...], ...]  # (value asc, dim asc, lex)
    values: tuple[float, ...]
    dim_cap: int
    truncated: bool  # complex dimension exceeded dim_cap

    @classmethod
    def from_values(
        cls,
        complex: SimplicialComplex,
        values: dict[tuple[int, ...], float],
        dim_cap: int | None = None,
    ) -> "Filtration":
        cap = resolve_dim_cap(dim_cap)
        f = _ordered(values, cap, complex.dim > cap)
        f.validate()
        return f

    def validate(self) -> None:
        value_of = dict(zip(self.simplices, self.values))
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


def _ordered(values: dict[tuple[int, ...], float], cap: int, truncated: bool) -> Filtration:
    order = sorted(values, key=lambda s: (values[s], len(s), s))
    return Filtration(tuple(order), tuple(values[s] for s in order), cap, truncated)


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


def _graded_lows(levels: Sequence[Sequence[tuple[int, ...]]]) -> list[list[int]]:
    """Pair the simplices of a complex by dimension: coboundary, bottom up, clearing.

    ``levels[d]`` holds the d-simplices in reduction order.  Returns, per
    dimension d, for each d-simplex ``levels[d][j]`` the index into
    ``levels[d + 1]`` of the (d+1)-simplex it pairs with, or -1 (always -1
    in the top dimension).

    Each coboundary operator delta_d is reduced on its own, from dimension
    0 up (de Silva, Morozov & Vejdemo-Johansson 2011; Bauer, Ripser 2021):
    columns are the d-simplices and rows the (d+1)-simplices, both in
    reverse order, so a column's low is the first coface in order and the
    pairs are those of the boundary reduction.  Clearing runs upward: a
    (d+1)-simplex that is already a pivot of delta_d gets an empty column
    in delta_{d+1}.  A d-simplex is essential when it is neither paired
    nor a pivot one dimension down, and rank d_{d+1} = rank delta_d.
    """
    pairs = [[-1] * len(level) for level in levels]
    cleared: set[int] = set()
    for d in range(len(levels) - 1):
        level, n_rows, last = levels[d], len(levels[d + 1]), len(levels[d]) - 1
        cofaces: dict[tuple[int, ...], list[int]] = {s: [] for s in level}
        for row, t in zip(range(n_rows - 1, -1, -1), levels[d + 1]):
            for f in combinations(t, d + 1):
                cofaces[f].append(row)
        columns = (() if j in cleared else cofaces[level[j]] for j in range(last, -1, -1))
        lows = _gf2.reduce_lows(columns)
        cleared = set()
        for k, low in enumerate(lows):
            if low >= 0:
                pairs[d][last - k] = n_rows - 1 - low
                cleared.add(n_rows - 1 - low)
    return pairs


def _essential(pairs: list[list[int]]) -> list[list[int]]:
    """Per dimension, the simplices neither paired one dimension up nor a
    pivot from below: the infinite bars, as many as beta_d."""
    essential: list[list[int]] = []
    killed: set[int] = set()
    for level in pairs:
        essential.append([j for j, p in enumerate(level) if p < 0 and j not in killed])
        killed = set(level)
    return essential


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

    beta_d counts the d-simplices of the lexicographic coboundary pairing
    (bottom up, with clearing) that are neither paired one dimension up
    nor a pivot from below, i.e. #d-simplices - rank d_d - rank d_{d+1}.
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
    essential = _essential(_graded_lows(k.faces(min(max_dim + 1, cap))))
    return tuple(([len(e) for e in essential] + [0] * max_dim)[: max_dim + 1])


def euler_characteristic_ok(k: SimplicialComplex, dim_cap: int | None = None) -> bool:
    """Check sum (-1)^d f_d == sum (-1)^d beta_d (valid when dim <= cap)."""
    cap = resolve_dim_cap(dim_cap)
    if k.dim > cap:
        raise DimCapError(f"complex dimension {k.dim} exceeds dim_cap {cap}")
    if k.dim < 0:
        return True
    faces = k.faces(k.dim)
    chi_f = sum((-1) ** d * len(level) for d, level in enumerate(faces))
    b = betti(k, k.dim, dim_cap=cap)
    chi_b = sum((-1) ** d * bd for d, bd in enumerate(b))
    return chi_f == chi_b


def frequency_filtration(
    h: Hyperstructure, i: int, dim_cap: int | None = None
) -> Filtration:
    """Filter the level-i complex by bond frequency: frequent patterns first.

    Built from the level-i bonds alone.  A bond enters at c_max - count and
    pushes that value down to its faces up to the dim cap, most frequent
    bond first, so each face gets the min over the bonds containing it and
    never enters after a coface; no ``validate()`` is needed.  Level-(i-1)
    bonds bound by no level-i bond enter at 0 as isolated vertices.
    ``truncated`` means the widest bond has more than cap + 1 constituents.
    """
    if not 1 <= i <= h.k:
        raise LevelRangeError(f"level {i} out of range 1..{h.k}")
    cap = resolve_dim_cap(dim_cap)
    bonds = sorted(h.level(i), key=lambda b: -b.count)
    c_max = bonds[0].count
    values: dict[tuple[int, ...], float] = {}
    for b in bonds:
        value = float(c_max - b.count)
        for size in range(1, min(len(b.constituents), cap + 1) + 1):
            for face in combinations(b.constituents, size):
                values.setdefault(face, value)
    if i >= 2:
        for b in h.level(i - 1):
            values.setdefault((b.id,), 0.0)
    truncated = max(len(b.constituents) for b in bonds) > cap + 1
    return _ordered(values, cap, truncated)


def persistence(f: Filtration, keep_zero: bool = False) -> Barcode:
    """Barcode of a filtration: coboundary, bottom up, clearing.

    A pair (sigma, tau) of the coboundary reduction is the interval
    (dim sigma, value sigma, value tau); a simplex neither paired nor a
    pivot one dimension down is an infinite bar.

    Zero-length intervals are dropped unless ``keep_zero``.  A truncated
    filtration (complex dimension above dim_cap) holds simplices only up
    to dimension dim_cap, so every interval of dimension dim_cap and above
    is dropped from its barcode.
    """
    levels: list[list[tuple[int, ...]]] = []
    values: list[list[float]] = []
    for s, v in zip(f.simplices, f.values):
        while len(levels) < len(s):
            levels.append([])
            values.append([])
        levels[len(s) - 1].append(s)
        values[len(s) - 1].append(v)
    pairs = _graded_lows(levels)
    intervals: list[tuple[int, float, float]] = []
    for d, level_pairs in enumerate(pairs):
        for j, p in enumerate(level_pairs):
            if p >= 0:
                birth, death = values[d][j], values[d + 1][p]
                if keep_zero or death > birth:
                    intervals.append((d, birth, death))
    for d, essential in enumerate(_essential(pairs)):
        intervals.extend((d, values[d][j], math.inf) for j in essential)
    if f.truncated:
        intervals = [iv for iv in intervals if iv[0] < f.dim_cap]
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
