"""Level complexes, gluing graphs, bond composition and the nerve.

Every operation here is a pure function of an immutable
:class:`~hypercode.hyperstructure.Hyperstructure`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from hypercode.codes import Pattern, SimplicialComplex, generated_complex, maximal_sets
from hypercode.errors import CliqueBudgetError, CompositionError, ConfigError, LevelRangeError
from hypercode.hyperstructure import Hyperstructure, boundary, downset

NERVE_RULES = ("pairwise", "connected")
DEFAULT_CLIQUE_BUDGET = 10**6


@dataclass(frozen=True)
class Correspondence:
    """The boundary map of one level step, tabulated as exportable data."""

    from_level: int
    to_level: int
    map: dict[int, frozenset[int]]


@dataclass(frozen=True)
class GluingGraph:
    """Bonds of one level as vertices; edges where downsets overlap."""

    level_i: int
    level_j: int
    vertices: tuple[int, ...]
    edges: dict[tuple[int, int], frozenset[int]]  # (a, b) with a < b -> overlap

    def neighbors(self, v: int) -> set[int]:
        out = set()
        for a, b in self.edges:
            if a == v:
                out.add(b)
            elif b == v:
                out.add(a)
        return out

    def to_dot(self) -> str:
        lines = [f'graph gluing_{self.level_i}_{self.level_j} {{']
        for v in self.vertices:
            lines.append(f"  {v};")
        for (a, b), overlap in sorted(self.edges.items()):
            label = ",".join(str(x) for x in sorted(overlap))
            lines.append(f'  {a} -- {b} [label="{label}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class NerveConfig:
    rule: str = "pairwise"
    include_levels: frozenset[int] | None = None  # None = all levels
    clique_budget: int = DEFAULT_CLIQUE_BUDGET

    def validate(self) -> None:
        if self.rule not in NERVE_RULES:
            raise ConfigError(f"nerve rule must be one of {NERVE_RULES}, got {self.rule!r}")
        if self.clique_budget < 1:
            raise ConfigError("clique_budget must be positive")


@dataclass(frozen=True)
class CompositeDescriptor:
    """Result of composing a chain of gluable bonds (a query, not a mutation)."""

    level_i: int
    level_j: int
    bond_ids: tuple[int, ...]
    union: tuple[int, ...]
    overlaps: tuple[tuple[int, ...], ...]


def _check_level(h: Hyperstructure, i: int) -> None:
    if not 1 <= i <= h.k:
        raise LevelRangeError(f"level {i} out of range 1..{h.k}")


def level_complex(h: Hyperstructure, i: int) -> SimplicialComplex:
    """The complex of level i: vertices one level down, simplices the bonds.

    For i = 1 this is the classical code complex of the level-1 supports.
    For i >= 2, level-(i-1) bonds not bound by any level-i bond appear as
    isolated vertices.
    """
    _check_level(h, i)
    if i == 1:
        return generated_complex(
            [Pattern(b.constituents) for b in h.level(1)], h.n
        )
    below = h.level(i - 1)
    constituent_sets = [set(b.constituents) for b in h.level(i)]
    covered = set().union(*constituent_sets) if constituent_sets else set()
    candidates = [tuple(sorted(s)) for s in constituent_sets]
    candidates.extend((b.id,) for b in below if b.id not in covered)
    return SimplicialComplex(
        tuple(b.id for b in below), frozenset(maximal_sets(candidates))
    )


def delta_correspondence(h: Hyperstructure, i: int) -> Correspondence:
    """Tabulated boundary of every level-(i+1) bond."""
    _check_level(h, i)
    if i + 1 > h.k:
        raise LevelRangeError(f"level {i + 1} out of range 1..{h.k}")
    return Correspondence(
        from_level=i + 1,
        to_level=i,
        map={b.id: boundary(h, i + 1, b.id) for b in h.level(i + 1)},
    )


def gluing_graph(h: Hyperstructure, i: int, j: int) -> GluingGraph:
    """Edge between two level-i bonds iff their level-j downsets intersect."""
    _check_level(h, i)
    if not 0 <= j < i:
        raise LevelRangeError(f"gluing level {j} must satisfy 0 <= j < {i}")
    bonds = h.level(i)
    downsets = {b.id: downset(h, i, b.id, j) for b in bonds}
    edges: dict[tuple[int, int], frozenset[int]] = {}
    ids = [b.id for b in bonds]
    for a_pos, a in enumerate(ids):
        for b in ids[a_pos + 1 :]:
            overlap = downsets[a] & downsets[b]
            if overlap:
                edges[(a, b)] = overlap
    return GluingGraph(i, j, tuple(ids), edges)


def compose_bonds(
    h: Hyperstructure, i: int, ids: Sequence[int], j: int
) -> CompositeDescriptor:
    """Glue a chain of level-i bonds along their level-j overlaps."""
    if not ids:
        raise CompositionError("empty composition")
    graph = gluing_graph(h, i, j)
    overlaps: list[tuple[int, ...]] = []
    for a, b in zip(ids, ids[1:]):
        key = (min(a, b), max(a, b))
        if a == b or key not in graph.edges:
            raise CompositionError(
                f"bonds {a} and {b} at level {i} are not gluable at level {j}"
            )
        overlaps.append(tuple(sorted(graph.edges[key])))
    union: set[int] = set()
    for bid in ids:
        union |= downset(h, i, bid, j)
    return CompositeDescriptor(
        level_i=i,
        level_j=j,
        bond_ids=tuple(ids),
        union=tuple(sorted(union)),
        overlaps=tuple(overlaps),
    )


def max_cliques(
    vertices: Sequence[int], adjacency: dict[int, set[int]], budget: int
) -> Iterator[frozenset[int]]:
    """Bron-Kerbosch with pivoting; raises past the clique budget."""
    emitted = 0

    def bk(r: set[int], p: set[int], x: set[int]) -> Iterator[frozenset[int]]:
        nonlocal emitted
        if not p and not x:
            emitted += 1
            if emitted > budget:
                raise CliqueBudgetError(f"clique enumeration exceeded budget {budget}")
            yield frozenset(r)
            return
        pivot = max(p | x, key=lambda v: len(adjacency[v] & p))
        for v in sorted(p - adjacency[pivot]):
            yield from bk(r | {v}, p & adjacency[v], x & adjacency[v])
            p.remove(v)
            x.add(v)

    yield from bk(set(), set(vertices), set())


def _connected_components(
    vertices: Sequence[int], adjacency: dict[int, set[int]]
) -> list[frozenset[int]]:
    seen: set[int] = set()
    components = []
    for v in vertices:
        if v in seen:
            continue
        stack, comp = [v], set()
        while stack:
            u = stack.pop()
            if u in comp:
                continue
            comp.add(u)
            stack.extend(adjacency[u] - comp)
        seen |= comp
        components.append(frozenset(comp))
    return components


def nerve(h: Hyperstructure, cfg: NerveConfig | None = None) -> SimplicialComplex:
    """The nerve of the hyperstructure: composable bond chains as simplices.

    Vertices are all bonds of the included levels, labelled (level, id).
    Each stratum (i, j), j < i, adds the cliques (pairwise rule) or the
    connected vertex sets (connected rule) of the gluing graph G(i, j).
    G(i, 0) alone suffices: bonds sharing a level-(j+1) descendant share its
    neuron support, nonempty as every bond has a constituent (builds and the
    loader ensure it), so G(i, j) is a subgraph of G(i, 0) on the same
    vertices.  The maximal cliques or components of G(i, 0) are pairwise
    incomparable and cover every vertex, and levels share no vertex, so
    they are the maximal simplices as they stand.
    """
    cfg = cfg or NerveConfig()
    cfg.validate()
    labels: list[tuple[int, int]] = []
    maximal: set[tuple[int, ...]] = set()
    for i in range(1, h.k + 1):
        if cfg.include_levels is not None and i not in cfg.include_levels:
            continue
        graph = gluing_graph(h, i, 0)
        adjacency = {v: set() for v in graph.vertices}
        for a, b in graph.edges:
            adjacency[a].add(b)
            adjacency[b].add(a)
        if cfg.rule == "pairwise":
            groups = max_cliques(graph.vertices, adjacency, cfg.clique_budget)
        else:
            groups = _connected_components(graph.vertices, adjacency)
        offset = len(labels)  # bond ids are positions within their level
        maximal.update(tuple(sorted(offset + v for v in group)) for group in groups)
        labels.extend((i, v) for v in graph.vertices)
    return SimplicialComplex(tuple(labels), frozenset(maximal))
