"""Level complexes, gluing graphs, bond composition and the nerve.

Every operation here is a pure function of an immutable
:class:`~hypercode.hyperstructure.Hyperstructure`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Iterator, Sequence

from hypercode.codes import SimplicialComplex, _maximal, members
from hypercode.errors import CliqueBudgetError, CompositionError, ConfigError
from hypercode.hyperstructure import Hyperstructure, downsets, level_generators

NERVE_RULES = ("pairwise", "connected")
DEFAULT_CLIQUE_BUDGET = 10**6


@dataclass(frozen=True)
class GluingGraph:
    """Bonds of one level as vertices; edges where downsets overlap."""

    level_i: int
    level_j: int
    vertices: tuple[int, ...]  # bond ids, which are positions within their level
    downsets: tuple[int, ...]  # per vertex, the bitmask of its level-j downset
    adjacency: tuple[int, ...]  # per vertex, the bitmask of its neighbours

    @property
    def edges(self) -> dict[tuple[int, int], frozenset[int]]:
        """(a, b) with a < b -> the overlap of their downsets, worked out on each read."""
        return {
            (a, b): frozenset(members(self.downsets[a] & self.downsets[b]))
            for a in self.vertices
            for b in members(self.adjacency[a] >> (a + 1) << (a + 1))
        }

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


def level_complex(h: Hyperstructure, i: int) -> SimplicialComplex:
    """The complex of level i: vertices one level down, simplices the bonds.

    Its maximal simplices are the inclusion-maximal ``level_generators``:
    at level 1 the classical code complex of the level-1 supports; above
    it the level-i bonds, with each level-(i-1) bond they leave unbound as
    an isolated vertex.
    """
    kept, _ = _maximal((mask, 0) for mask, _ in level_generators(h, i))
    return SimplicialComplex(tuple(range(h.width(i - 1))), frozenset(mask for mask, _ in kept))


def gluing_graph(h: Hyperstructure, i: int, j: int) -> GluingGraph:
    """Edge between two level-i bonds iff their level-j downsets intersect
    (:func:`~hypercode.hyperstructure.downsets`, which checks 0 <= j < i)."""
    downs = downsets(h, i, j)
    adjacency = [0] * len(downs)
    for a, down_a in enumerate(downs):
        for b in range(a + 1, len(downs)):
            if down_a & downs[b]:
                adjacency[a] |= 1 << b
                adjacency[b] |= 1 << a
    return GluingGraph(i, j, tuple(range(len(downs))), tuple(downs), tuple(adjacency))


def compose_bonds(
    h: Hyperstructure, i: int, ids: Sequence[int], j: int
) -> CompositeDescriptor:
    """Glue a chain of level-i bonds along their level-j overlaps.

    Consecutive bonds must be joined in G(i, j): distinct, with level-j
    downsets that meet.
    """
    if not ids:
        raise CompositionError("empty composition")
    downs = downsets(h, i, j)
    chain = [downs[h.bond(i, bid).id] for bid in ids]  # raises on an unknown id
    overlaps: list[tuple[int, ...]] = []
    for a, b, down_a, down_b in zip(ids, ids[1:], chain, chain[1:]):
        overlap = down_a & down_b
        if a == b or not overlap:
            raise CompositionError(
                f"bonds {a} and {b} at level {i} are not gluable at level {j}"
            )
        overlaps.append(tuple(members(overlap)))
    return CompositeDescriptor(
        level_i=i,
        level_j=j,
        bond_ids=tuple(ids),
        union=tuple(members(reduce(or_, chain))),
        overlaps=tuple(overlaps),
    )


def max_cliques(adjacency: Sequence[int], budget: int) -> Iterator[int]:
    """Maximal cliques, as bitmasks, of the graph with neighbour masks ``adjacency``.

    Bron-Kerbosch with pivoting on an explicit stack of (clique,
    candidates, excluded) masks; raises past the clique budget.
    """
    emitted = 0
    stack = [(0, (1 << len(adjacency)) - 1, 0)]
    while stack:
        clique, candidates, excluded = stack.pop()
        if not candidates:
            if not excluded:
                emitted += 1
                if emitted > budget:
                    raise CliqueBudgetError(f"clique enumeration exceeded budget {budget}")
                yield clique
            continue
        # any pivot in P | X gives the same cliques; take the one with the
        # most candidate neighbours, up to the first that meets its bound
        # (every candidate for one in X, every other candidate for one in P)
        size, best = candidates.bit_count(), -1
        for u in members(candidates | excluded):
            count = (adjacency[u] & candidates).bit_count()
            if count > best:
                pivot, best = u, count
                if count == size - (candidates >> u & 1):
                    break
        for v in members(candidates & ~adjacency[pivot]):
            stack.append((clique | 1 << v, candidates & adjacency[v], excluded & adjacency[v]))
            candidates ^= 1 << v
            excluded |= 1 << v


def _components(adjacency: Sequence[int]) -> Iterator[int]:
    """Connected components, as bitmasks, by flood fill on neighbour masks."""
    unseen = (1 << len(adjacency)) - 1
    while unseen:
        component = frontier = unseen & -unseen
        while frontier:
            reached = 0
            for v in members(frontier):
                reached |= adjacency[v]
            frontier = reached & ~component
            component |= frontier
        unseen &= ~component
        yield component


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
    they are the maximal simplices as they stand.  An included level
    outside 1..k raises ``LevelRangeError`` before any graph is built.
    """
    cfg = cfg or NerveConfig()
    cfg.validate()
    for i in sorted(cfg.include_levels or ()):
        h.level(i)
    labels: list[tuple[int, int]] = []
    maximal: set[int] = set()
    for i in range(1, h.k + 1):
        if cfg.include_levels is not None and i not in cfg.include_levels:
            continue
        graph = gluing_graph(h, i, 0)
        if cfg.rule == "pairwise":
            groups = max_cliques(graph.adjacency, cfg.clique_budget)
        else:
            groups = _components(graph.adjacency)
        offset = len(labels)  # bond ids are positions within their level
        maximal.update(group << offset for group in groups)
        labels.extend((i, v) for v in graph.vertices)
    return SimplicialComplex(tuple(labels), frozenset(maximal))
