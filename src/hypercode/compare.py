"""Levelwise comparison of two hyperstructures over the same neuron universe."""

from __future__ import annotations

from dataclasses import asdict, dataclass

from hypercode.codes import SimplicialComplex
from hypercode.errors import UniverseError
from hypercode.homology import betti, resolve_dim_cap
from hypercode.hyperstructure import Hyperstructure, _canonical_forms
from hypercode.topology import NerveConfig, level_complex, nerve


@dataclass(frozen=True)
class LevelComparison:
    level: int
    size_a: int
    size_b: int
    shared: int
    jaccard: float
    map_status: str
    betti_a: tuple[int, ...]
    betti_b: tuple[int, ...]


@dataclass(frozen=True)
class ComparisonReport:
    n: int
    levels: tuple[LevelComparison, ...]
    nerve_betti_a: tuple[int, ...] | None = None
    nerve_betti_b: tuple[int, ...] | None = None
    dim_cap: int | None = None  # set iff some Betti vector was cut below its complex dimension

    def to_json_obj(self) -> dict:
        obj: dict = {
            "n": self.n,
            "levels": [asdict(lc) for lc in self.levels],
        }
        if self.nerve_betti_a is not None:
            obj["nerve"] = {
                "betti_a": list(self.nerve_betti_a),
                "betti_b": list(self.nerve_betti_b or ()),
            }
        if self.dim_cap is not None:
            obj["dim_cap"] = self.dim_cap
        return obj

    def to_table(self) -> str:
        header = ("level", "|A|", "|B|", "shared", "jaccard", "map", "betti_A", "betti_B")
        rows = [header]
        for lc in self.levels:
            rows.append(
                (
                    str(lc.level),
                    str(lc.size_a),
                    str(lc.size_b),
                    str(lc.shared),
                    f"{lc.jaccard:.3f}",
                    lc.map_status,
                    ",".join(map(str, lc.betti_a)),
                    ",".join(map(str, lc.betti_b)),
                )
            )
        widths = [max(len(r[c]) for r in rows) for c in range(len(header))]
        lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in rows]
        if self.nerve_betti_a is not None:
            lines.append(
                "nerve betti: A=(%s)  B=(%s)"
                % (
                    ",".join(map(str, self.nerve_betti_a)),
                    ",".join(map(str, self.nerve_betti_b or ())),
                )
            )
        if self.dim_cap is not None:
            lines.append(
                f"betti cut at dim_cap {self.dim_cap}: complexes above it list "
                f"beta_0..beta_{self.dim_cap - 1}"
            )
        return "\n".join(lines) + "\n"


def _map_status(size_a: int, size_b: int, shared: int) -> str:
    if shared == size_a == size_b:
        return "bijective"
    if shared == size_a:
        return "injective-only(A->B)"
    if shared == size_b:
        return "injective-only(B->A)"
    return "neither"


def _betti(k: SimplicialComplex, cut: list[bool]) -> tuple[int, ...]:
    b = betti(k)
    cut.append(len(b) <= k.dim)
    return b


def compare_levels(
    a: Hyperstructure, b: Hyperstructure, with_nerve: bool = False
) -> ComparisonReport:
    """Match bonds levelwise by canonical-form equality and report sizes.

    Levels present in only one structure are reported with the other side
    empty.  Canonical forms are unique within a level, so the matching is
    a partial bijection by construction.  Betti vectors stop below the
    dim cap (see ``homology.betti``), and ``dim_cap`` names the cap when
    one did.
    """
    if a.n != b.n:
        raise UniverseError(f"neuron universes differ: {a.n} != {b.n}")
    levels = []
    cut: list[bool] = []
    all_a, all_b = _canonical_forms(a, a.k), _canonical_forms(b, b.k)
    for i in range(1, max(a.k, b.k) + 1):
        forms_a = set(all_a[i - 1]) if i <= a.k else set()
        forms_b = set(all_b[i - 1]) if i <= b.k else set()
        shared = len(forms_a & forms_b)
        denom = len(forms_a) + len(forms_b) - shared
        jaccard = shared / denom if denom else 1.0
        betti_a = _betti(level_complex(a, i), cut) if i <= a.k else ()
        betti_b = _betti(level_complex(b, i), cut) if i <= b.k else ()
        levels.append(
            LevelComparison(
                level=i,
                size_a=len(forms_a),
                size_b=len(forms_b),
                shared=shared,
                jaccard=jaccard,
                map_status=_map_status(len(forms_a), len(forms_b), shared),
                betti_a=betti_a,
                betti_b=betti_b,
            )
        )
    nerve_a = nerve_b = None
    if with_nerve:
        nerve_a = _betti(nerve(a, NerveConfig()), cut)
        nerve_b = _betti(nerve(b, NerveConfig()), cut)
    return ComparisonReport(
        n=a.n,
        levels=tuple(levels),
        nerve_betti_a=nerve_a,
        nerve_betti_b=nerve_b,
        dim_cap=resolve_dim_cap() if any(cut) else None,
    )
