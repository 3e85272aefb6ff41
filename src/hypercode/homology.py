"""GF(2) simplicial homology, frequency filtrations and persistence barcodes.

The rank/reduction inner loop is :mod:`hypercode._gf2`.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from itertools import combinations

from hypercode import _gf2
from hypercode.codes import SimplicialComplex
from hypercode.errors import DimCapError, FiltrationError, LevelRangeError
from hypercode.hyperstructure import Hyperstructure
from hypercode.topology import level_complex

DEFAULT_DIM_CAP = 5


def resolve_dim_cap(dim_cap: int | None = None) -> int:
    """Explicit value, else HYPERCODE_DIM_CAP, else the default of 5."""
    if dim_cap is not None:
        return dim_cap
    return int(os.environ.get("HYPERCODE_DIM_CAP", DEFAULT_DIM_CAP))


@dataclass(frozen=True)
class BoundaryMatrix:
    """Sparse GF(2) boundary operator from d-simplices to (d-1)-faces."""

    dim: int
    rows: tuple[tuple[int, ...], ...]  # (d-1)-simplices, lexicographic
    cols: tuple[tuple[int, ...], ...]  # d-simplices, lexicographic
    columns: tuple[tuple[int, ...], ...]  # per column, sorted row indices

    def rank(self) -> int:
        return _gf2.rank(list(self.columns), len(self.rows))


@dataclass(frozen=True)
class Filtration:
    """A face-monotone value per simplex, in a valid reduction order."""

    complex: SimplicialComplex
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
        truncated = complex.dim > cap
        order = sorted(values, key=lambda s: (values[s], len(s), s))
        f = cls(
            complex=complex,
            simplices=tuple(order),
            values=tuple(values[s] for s in order),
            dim_cap=cap,
            truncated=truncated,
        )
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


def boundary_matrix(
    k: SimplicialComplex, d: int, dim_cap: int | None = None
) -> BoundaryMatrix:
    """The GF(2) boundary operator in dimension d, lexicographic orderings."""
    cap = resolve_dim_cap(dim_cap)
    if d > cap:
        raise DimCapError(f"dimension {d} exceeds dim_cap {cap}")
    if d < 1:
        vertices = tuple(k.faces(0)[0])
        return BoundaryMatrix(d, (), vertices, tuple(() for _ in vertices))
    faces = k.faces(d)
    rows = tuple(faces[d - 1])
    cols = tuple(faces[d])
    row_index = {s: i for i, s in enumerate(rows)}
    columns = tuple(
        tuple(sorted(row_index[f] for f in combinations(s, d))) for s in cols
    )
    return BoundaryMatrix(d, rows, cols, columns)


def betti(
    k: SimplicialComplex, max_dim: int | None = None, dim_cap: int | None = None
) -> tuple[int, ...]:
    """Betti numbers over GF(2) up to max_dim (default: the complex dimension).

    beta_d = #d-simplices - rank d_d - rank d_{d+1}, ranks by GF(2)
    column elimination.
    """
    cap = resolve_dim_cap(dim_cap)
    if max_dim is None:
        max_dim = max(k.dim, 0)
    if k.dim > cap and max_dim >= cap:
        raise DimCapError(
            f"complex dimension {k.dim} exceeds dim_cap {cap}; "
            f"homology above dimension {cap - 1} unavailable"
        )
    faces = k.faces(min(max_dim + 1, cap))
    counts = [len(level) for level in faces]
    counts += [0] * (max_dim + 2 - len(counts))
    ranks = [0] * (max_dim + 2)
    for d in range(1, max_dim + 2):
        if d >= len(faces) or not faces[d]:
            break
        row_index = {s: i for i, s in enumerate(faces[d - 1])}
        columns = [
            sorted(row_index[f] for f in combinations(s, d)) for s in faces[d]
        ]
        ranks[d] = _gf2.rank(columns, len(faces[d - 1]))
    return tuple(counts[d] - ranks[d] - ranks[d + 1] for d in range(max_dim + 1))


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

    A generating bond enters at c_max - count; each simplex at the min over
    generating bonds containing it.  Isolated vertices bound by no level-i
    bond enter at 0.
    """
    if not 1 <= i <= h.k:
        raise LevelRangeError(f"level {i} out of range 1..{h.k}")
    cap = resolve_dim_cap(dim_cap)
    k = level_complex(h, i)
    bonds = h.level(i)
    c_max = max(b.count for b in bonds)
    generators = [(frozenset(b.constituents), float(c_max - b.count)) for b in bonds]
    values: dict[tuple[int, ...], float] = {}
    for simplex_level in k.faces(min(max(k.dim, 0), cap)):
        for s in simplex_level:
            sset = set(s)
            vals = [v for gen, v in generators if sset <= gen]
            values[s] = min(vals) if vals else 0.0
    return Filtration.from_values(k, values, dim_cap=cap)


def persistence(f: Filtration, keep_zero: bool = False) -> Barcode:
    """Barcode of a filtration by standard GF(2) column reduction.

    Zero-length intervals are dropped unless ``keep_zero``; when the
    complex was truncated at dim_cap, intervals at dim_cap and above are
    discarded as unreliable.
    """
    position = {s: i for i, s in enumerate(f.simplices)}
    columns = [
        sorted(position[face] for face in combinations(s, len(s) - 1))
        if len(s) > 1
        else []
        for s in f.simplices
    ]
    lows = _gf2.reduce_lows(columns, len(f.simplices))
    paired_rows = {low for low in lows if low >= 0}
    intervals: list[tuple[int, float, float]] = []
    for j, low in enumerate(lows):
        if low >= 0:
            dim = len(f.simplices[low]) - 1
            birth, death = f.values[low], f.values[j]
            if keep_zero or death > birth:
                intervals.append((dim, birth, death))
        elif j not in paired_rows:
            intervals.append((len(f.simplices[j]) - 1, f.values[j], math.inf))
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
