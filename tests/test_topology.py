from __future__ import annotations

import json
import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from hypercode.codes import (
    OccurrenceLog,
    Pattern,
    SimplicialComplex,
    bitmask,
    generated_complex,
    members,
)
from hypercode.errors import (
    BondLookupError,
    CliqueBudgetError,
    CompositionError,
    ConfigError,
    LevelRangeError,
)
from hypercode.hyperstructure import (
    Bond,
    BuildConfig,
    Hyperstructure,
    boundary,
    build_hyperstructure,
    canonical_form,
    downset,
)
from hypercode.topology import (
    NERVE_RULES,
    NerveConfig,
    compose_bonds,
    gluing_graph,
    level_complex,
    max_cliques,
    nerve,
)

from oracles import betti_naive, compose_naive, maximal_cliques_naive, maximal_naive, nerve_naive


def _log(bins, n):
    return OccurrenceLog(n, tuple((t, Pattern.of(s)) for t, s in enumerate(bins)))


def _form_id(hs, level, form):
    for b in hs.level(level):
        if canonical_form(hs, level, b.id) == form:
            return b.id
    raise AssertionError(form)


# two level-2 bonds that share neurons but no level-1 bond
_NEURON_GLUED = [{0, 1}, {2, 3}, {1, 2}, {4}, {0, 1, 2, 3}, {1, 2, 4}]
_CHAIN = [{0}, {1, 2}, {3}, {4, 5}]
_CHAIN_BINS = _CHAIN + [set().union(*_CHAIN[a:b]) for a, b in [(0, 2), (1, 3), (2, 4), (0, 3), (1, 4), (0, 4)]]


class TestLevelComplex:
    def test_triad_level1_three_triangles(self, triad):
        k = level_complex(triad, 1)
        assert k.maximal_simplices == frozenset({(0, 1, 2), (3, 4, 5), (6, 7, 8)})
        assert betti_naive(sorted(k.maximal_simplices), 2) == (3, 0, 0)

    def test_triad_level2_hollow_triangle(self, triad):
        k = level_complex(triad, 2)
        assert len(k.vertex_labels) == 3
        assert all(len(s) == 2 for s in k.maximal_simplices)
        assert len(k.maximal_simplices) == 3
        assert betti_naive(sorted(k.maximal_simplices), 1) == (1, 1)

    def test_single_bond_edge(self):
        hs = build_hyperstructure(_log([{0, 1}], 2))
        k = level_complex(hs, 1)
        assert k.maximal_simplices == frozenset({(0, 1)})

    def test_matches_generated_complex(self, triad):
        supports = [Pattern(b.constituents) for b in triad.level(1)]
        assert level_complex(triad, 1) == generated_complex(supports, triad.n)

    def test_isolated_vertex_at_level2(self):
        # {4,5} never co-fires with anything: isolated vertex upstairs
        bins = [{0, 1}, {2, 3}, {4, 5}, {0, 1, 2, 3}]
        hs = build_hyperstructure(_log(bins, 6))
        k = level_complex(hs, 2)
        singletons = {s for s in k.maximal_simplices if len(s) == 1}
        assert len(singletons) == 1

    def test_range_error(self, triad):
        with pytest.raises(LevelRangeError):
            level_complex(triad, 3)


class TestCorrespondence:
    def test_triad_tabulated_boundary(self, triad):
        assert len(triad.level(2)) == 3
        for b in triad.level(2):
            image = boundary(triad, 2, b.id)
            assert image == frozenset(b.constituents)
            assert len(image) == 2

    def test_k1_range_error(self):
        hs = build_hyperstructure(_log([{0, 1}], 2))
        with pytest.raises(LevelRangeError):
            boundary(hs, 2, 0)

    def test_no_pruned_references(self):
        # {4, 5}, seen first and once, is pruned; the level-2 bond survives
        bins = [{4, 5}, {0, 1}, {2, 3}, {0, 1}, {2, 3}, {0, 1, 2, 3}, {0, 1, 2, 3}]
        hs = build_hyperstructure(_log(bins, 6), BuildConfig(min_count=2))
        assert hs.k == 2 and len(hs.level(1)) == 2
        for i in range(2, hs.k + 1):
            ids_below = {b.id for b in hs.level(i - 1)}
            for b in hs.level(i):
                assert boundary(hs, i, b.id) <= ids_below


class TestGluingGraph:
    def test_triad_level2_is_k3(self, triad):
        g = gluing_graph(triad, 2, 1)
        assert len(g.vertices) == 3
        assert len(g.edges) == 3
        # every overlap is a single shared level-1 bond
        assert all(len(ov) == 1 for ov in g.edges.values())

    def test_triad_level1_disjoint(self, triad):
        g = gluing_graph(triad, 1, 0)
        assert g.edges == {}

    def test_single_vertex(self):
        hs = build_hyperstructure(_log([{0, 1}], 2))
        g = gluing_graph(hs, 1, 0)
        assert g.vertices == (0,) and g.edges == {}

    def test_dot_export(self, triad):
        dot = gluing_graph(triad, 2, 1).to_dot()
        assert dot.startswith("graph gluing_2_1 {")
        assert "--" in dot

    def test_range_error(self, triad):
        with pytest.raises(LevelRangeError):
            gluing_graph(triad, 2, 2)


class TestCompose:
    def test_overlapping_supports(self):
        bins = [{0, 1, 2}, {2, 3, 4}]
        hs = build_hyperstructure(_log(bins, 5))
        comp = compose_bonds(hs, 1, [0, 1], 0)
        assert comp.union == (0, 1, 2, 3, 4)
        assert comp.overlaps == ((2,),)

    def test_single_id_identity(self, triad):
        comp = compose_bonds(triad, 1, [0], 0)
        assert set(comp.union) == set(triad.bond(1, 0).constituents)
        assert comp.overlaps == ()

    def test_disjoint_error(self, triad):
        a = _form_id(triad, 1, "{0,1,2}")
        b = _form_id(triad, 1, "{3,4,5}")
        with pytest.raises(CompositionError) as err:
            compose_bonds(triad, 1, [a, b], 0)
        assert str(a) in str(err.value) and str(b) in str(err.value)

    def test_triad_level2_chain(self, triad):
        ab = _form_id(triad, 2, "{{0,1,2},{3,4,5}}")
        bc = _form_id(triad, 2, "{{3,4,5},{6,7,8}}")
        ac = _form_id(triad, 2, "{{0,1,2},{6,7,8}}")
        comp = compose_bonds(triad, 2, [ab, bc, ac], 1)
        assert set(comp.union) == {b.id for b in triad.level(1)}
        assert len(comp.overlaps) == 2


class TestNerve:
    def test_triad_pairwise(self, triad):
        k = nerve(triad)
        assert len(k.vertex_labels) == 6
        level2 = {i for i, (lvl, _) in enumerate(k.vertex_labels) if lvl == 2}
        maximal = set(k.maximal_simplices)
        assert tuple(sorted(level2)) in maximal
        assert sum(1 for s in maximal if len(s) == 1) == 3
        assert betti_naive(sorted(maximal), 2) == (4, 0, 0)

    def test_triad_connected_same(self, triad):
        assert nerve(triad, NerveConfig(rule="connected")) == nerve(triad)

    def test_empty(self):
        hs = build_hyperstructure(OccurrenceLog(3, ()))
        k = nerve(hs)
        assert k.vertex_labels == () and k.maximal_simplices == frozenset()

    def test_vertex_count_is_bond_count(self, triad):
        k = nerve(triad)
        assert len(k.vertex_labels) == sum(len(l) for l in triad.levels)

    def test_include_levels(self, triad):
        k = nerve(triad, NerveConfig(include_levels=frozenset({1})))
        assert len(k.vertex_labels) == 3
        assert all(len(s) == 1 for s in k.maximal_simplices)

    @pytest.mark.parametrize("levels", [{7}, {0, -1}, {1, 3}])
    def test_include_levels_out_of_range(self, triad, levels):
        with pytest.raises(LevelRangeError, match="out of range 1..2"):
            nerve(triad, NerveConfig(include_levels=frozenset(levels)))

    def test_flag_complex_property(self):
        # every edge of every maximal simplex is a gluing edge and every
        # maximal clique appears
        bins = [{0, 1, 2}, {2, 3}, {3, 4, 5}, {0, 5}]
        hs = build_hyperstructure(_log(bins, 6))
        k = nerve(hs, NerveConfig(include_levels=frozenset({1})))
        g = gluing_graph(hs, 1, 0)
        edges = set(g.edges)
        for s in k.maximal_simplices:
            labels = [k.vertex_labels[v][1] for v in s]
            for x in range(len(labels)):
                for y in range(x + 1, len(labels)):
                    pair = (min(labels[x], labels[y]), max(labels[x], labels[y]))
                    assert pair in edges
        budget = 10**6
        for clique in max_cliques(g.adjacency, budget):
            s = tuple(members(clique))
            assert any(set(s) <= {k.vertex_labels[v][1] for v in m}
                       for m in k.maximal_simplices
                       if all(k.vertex_labels[v][0] == 1 for v in m))

    def test_connected_rule_downward_closure(self):
        bins = [{0, 1, 2}, {2, 3}, {3, 4, 5}, {6, 7}]
        hs = build_hyperstructure(_log(bins, 8))
        k = nerve(hs, NerveConfig(rule="connected", include_levels=frozenset({1})))
        rng = random.Random(7)
        maximal = sorted(k.maximal_simplices)
        faces = {s for m in maximal for s in _random_faces(m, rng)}
        for f in faces:
            assert any(set(f) <= set(m) for m in maximal)

    def test_bad_rule(self, triad):
        with pytest.raises(ConfigError):
            nerve(triad, NerveConfig(rule="chain"))

    def test_clique_budget_not_positive(self, triad):
        with pytest.raises(ConfigError):
            nerve(triad, NerveConfig(clique_budget=0))

    def test_json_roundtrip(self, triad):
        k = nerve(triad)
        assert SimplicialComplex.from_json_obj(json.loads(json.dumps(k.to_json_obj()))) == k

    def test_clique_budget(self):
        bins = [{0, 1}, {2, 3}]
        hs = build_hyperstructure(_log(bins, 4))
        with pytest.raises(CliqueBudgetError):
            nerve(hs, NerveConfig(clique_budget=1))

    def test_clique_budget_counts_only_level_graph(self):
        # G(2, 1) has no edge, so two maximal cliques; G(2, 0) is one edge
        bins = _NEURON_GLUED
        hs = build_hyperstructure(_log(bins, 5))
        k = nerve(hs, NerveConfig(include_levels=frozenset({2}), clique_budget=1))
        assert k.vertex_labels == ((2, 0), (2, 1))
        assert k.maximal_simplices == frozenset({(0, 1)})

    @pytest.mark.parametrize("rule", NERVE_RULES)
    def test_clique_deeper_than_recursion_limit(self, rule):
        # 1,100 level-1 bonds that all share neuron 0: G(1, 0) is complete
        n = 1100
        bonds = tuple(Bond(b, 1, (0, b + 1), 1, (b,)) for b in range(n))
        hs = Hyperstructure(n + 1, (bonds,), BuildConfig(max_level=1))
        k = nerve(hs, NerveConfig(rule=rule))
        assert k.maximal_simplices == frozenset({tuple(range(n))})


def _random_faces(simplex, rng, count=5):
    out = []
    for _ in range(count):
        size = rng.randint(1, len(simplex))
        out.append(tuple(sorted(rng.sample(list(simplex), size))))
    return out


@given(st.lists(st.sets(st.integers(0, 5), max_size=4), min_size=1, max_size=10))
@settings(max_examples=40, deadline=None)
def test_gluing_graph_invariants(bins):
    hs = build_hyperstructure(_log(bins, 6))
    for i in range(1, hs.k + 1):
        for j in range(i):
            g = gluing_graph(hs, i, j)
            downs = [downset(hs, i, v, j) for v in g.vertices]
            assert g.edges == {
                (a, b): downs[a] & downs[b]
                for a, b in combinations(g.vertices, 2)
                if downs[a] & downs[b]
            }
            for v in g.vertices:
                joined = {u for e in g.edges if v in e for u in e if u != v}
                assert g.adjacency[v] == bitmask(joined)
            for b in hs.level(i):
                # a bond's downset is the union of its constituents' downsets
                parts = [{c} if j == i - 1 else downset(hs, i - 1, c, j) for c in b.constituents]
                assert downset(hs, i, b.id, j) == frozenset().union(*parts)


@st.composite
def _graphs(draw):
    """(n, edges) on vertices 0..n-1, each edge (a, b) with a < b."""
    n = draw(st.integers(1, 9))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return n, {pair for pair, kept in zip(pairs, keep) if kept}


@given(_graphs())
@settings(max_examples=300, deadline=None)
def test_max_cliques_matches_naive_oracle(graph):
    n, edges = graph
    adjacency = [bitmask(u for e in edges if v in e for u in e if u != v) for v in range(n)]
    cliques = [tuple(members(c)) for c in max_cliques(adjacency, budget=10**6)]
    expected = maximal_cliques_naive(n, edges)
    assert sorted(cliques) == sorted(expected)  # each maximal clique exactly once
    with pytest.raises(CliqueBudgetError):
        list(max_cliques(adjacency, budget=len(expected) - 1))


@st.composite
def _assemblies(draw):
    """A few patterns shown alone, then unions of them, smaller unions first."""
    patterns = draw(st.lists(st.sets(st.integers(0, 5), min_size=1, max_size=3), min_size=2, max_size=5))
    unions = draw(st.lists(st.sets(st.sampled_from(range(len(patterns))), min_size=2), max_size=8))
    return patterns + [set().union(*(patterns[p] for p in u)) for u in sorted(unions, key=len)]


@given(
    _assemblies(),
    st.sampled_from(["pairwise", "connected"]),
    st.sampled_from(["exact-cover", "subset-realization"]),
    st.integers(1, 2),
    st.integers(1, 4),
    st.none() | st.frozensets(st.integers(1, 4)),
)
# the chain reaches level 4 (4, 6, 3 and 1 bonds) in both modes
@example(_CHAIN_BINS, "pairwise", "exact-cover", 1, 4, None)
@example(_CHAIN_BINS, "connected", "subset-realization", 1, 4, frozenset({1, 3}))
@example(_CHAIN_BINS * 2, "pairwise", "subset-realization", 2, 4, frozenset({2, 4}))
@example(_NEURON_GLUED, "pairwise", "exact-cover", 1, 2, None)
@settings(max_examples=200, deadline=None)
def test_nerve_matches_all_strata_oracle(bins, rule, mode, min_count, max_level, include):
    cfg = BuildConfig(max_level=max_level, decomposition=mode, min_count=min_count)
    hs = build_hyperstructure(_log(bins, 6), cfg)
    if include is not None and include - set(range(1, hs.k + 1)):
        with pytest.raises(LevelRangeError):
            nerve(hs, NerveConfig(rule=rule, include_levels=include))
        include &= set(range(1, hs.k + 1))
    k = nerve(hs, NerveConfig(rule=rule, include_levels=include))
    levels = [[b.constituents for b in bonds] for bonds in hs.levels]
    labels, maximal = nerve_naive(levels, rule, include)
    assert list(k.vertex_labels) == labels
    assert k.maximal_simplices == maximal


_MODES = ["exact-cover", "subset-realization"]


@given(_assemblies(), st.sampled_from(_MODES), st.integers(1, 2), st.integers(1, 4))
@example(_CHAIN_BINS, "subset-realization", 1, 4)
@settings(max_examples=200, deadline=None)
def test_level_complex_matches_maximal_oracle(bins, mode, min_count, max_level):
    cfg = BuildConfig(max_level=max_level, decomposition=mode, min_count=min_count)
    hs = build_hyperstructure(_log(bins, 6), cfg)
    for i in range(1, hs.k + 1):
        family = [tuple(sorted(b.constituents)) for b in hs.level(i)]
        if i >= 2:
            covered = {c for b in hs.level(i) for c in b.constituents}
            family += [(b.id,) for b in hs.level(i - 1) if b.id not in covered]
        assert level_complex(hs, i).maximal_simplices == maximal_naive(family)


_COMPOSE_ERRORS = {
    "empty": CompositionError,
    "level": LevelRangeError,
    "unknown": BondLookupError,
    "gluing": CompositionError,
}


@given(_assemblies(), st.sampled_from(_MODES), st.integers(1, 2), st.integers(1, 4), st.data())
@settings(max_examples=200, deadline=None)
def test_compose_bonds_matches_naive_oracle(bins, mode, min_count, max_level, data):
    cfg = BuildConfig(max_level=max_level, decomposition=mode, min_count=min_count)
    hs = build_hyperstructure(_log(bins, 6), cfg)
    levels = [[b.constituents for b in bonds] for bonds in hs.levels]
    # every stratum and levels one past each end; for each, unknown ids,
    # every pair of bonds ([a, a] is never gluable) and a few longer chains
    for i in range(hs.k + 2):
        for j in range(-1, i + 1):
            n = len(levels[i - 1]) if 1 <= i <= hs.k else 1
            pairs = [[a, b] for a in range(n) for b in range(n)]
            bond = st.integers(0, n - 1)
            chains = data.draw(st.lists(st.lists(bond, min_size=3, max_size=5), max_size=4))
            for ids in [[], [-1], [n], [n - 1], [0, n], *pairs, *chains]:
                expected = compose_naive(levels, i, ids, j)
                if isinstance(expected, str):
                    with pytest.raises(_COMPOSE_ERRORS[expected]):
                        compose_bonds(hs, i, ids, j)
                else:
                    comp = compose_bonds(hs, i, ids, j)
                    assert (comp.union, comp.overlaps) == expected
