from __future__ import annotations

import math
import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from hypercode.codes import Pattern, SimplicialComplex, generated_complex
from hypercode.errors import DimCapError, LevelRangeError
from hypercode.homology import (
    Barcode,
    Filtration,
    barcodes_to_csv,
    betti,
    euler_characteristic_ok,
    frequency_filtration,
    persistence,
)
from hypercode.codes import OccurrenceLog
from hypercode.hyperstructure import Bond, BuildConfig, Hyperstructure, build_hyperstructure
from hypercode.topology import level_complex

from oracles import betti_naive, frequency_values_naive, persistence_naive, subcomplex_at


def _complex(maximal, n):
    return generated_complex([Pattern.of(s) for s in maximal], n)


def _level1_hs(weighted_patterns, n):
    """Hyperstructure with a hand-planted level 1 of (members, count) pairs."""
    bonds = []
    t = 0
    for bid, (members, count) in enumerate(weighted_patterns):
        bins = tuple(range(t, t + count))
        t += count
        bonds.append(Bond(bid, 1, tuple(sorted(members)), count, bins))
    return Hyperstructure(n, (tuple(bonds),), BuildConfig())


class TestBetti:
    def test_hollow_tetrahedron_is_sphere(self):
        k = _complex([s for s in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))], 4)
        assert betti(k, 2) == (1, 0, 1)

    def test_triad_level1(self, triad):
        from hypercode.topology import level_complex

        assert betti(level_complex(triad, 1)) == (3, 0, 0)

    def test_triad_level2(self, triad):
        from hypercode.topology import level_complex

        assert betti(level_complex(triad, 2)) == (1, 1)

    def test_solid_simplex_contractible(self):
        assert betti(_complex([(0, 1, 2)], 3), 2) == (1, 0, 0)

    def test_dim_cap_error(self):
        big = _complex([tuple(range(8))], 8)
        with pytest.raises(DimCapError):
            betti(big, max_dim=6, dim_cap=5)

    def test_default_max_dim_stops_below_cap(self):
        assert betti(_complex([tuple(range(8))], 8), dim_cap=5) == (1, 0, 0, 0, 0)
        # a complex of dimension cap is not cut
        assert betti(_complex([tuple(range(6))], 6), dim_cap=5) == (1, 0, 0, 0, 0, 0)

    def test_empty_complex(self):
        k = SimplicialComplex((), frozenset())
        assert betti(k, 0) == (0,)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.sets(st.integers(0, 7), min_size=1, max_size=4),
        min_size=1,
        max_size=8,
    )
)
def test_betti_matches_dense_oracle(maximal_sets):
    k = _complex(maximal_sets, 8)
    assert betti(k, 3) == betti_naive(sorted(k.maximal_simplices), 3)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.sets(st.integers(0, 7), min_size=1, max_size=6),
        min_size=1,
        max_size=6,
    ),
    st.sampled_from([1, 2, 3]),
)
def test_betti_below_cap_matches_dense_oracle(maximal_sets, cap):
    # complexes may exceed the cap; beta_0..beta_{cap-1} need rank d_cap,
    # the dimension whose pivots clear columns one dimension down
    k = _complex(maximal_sets, 8)
    assert betti(k, cap - 1, dim_cap=cap) == betti_naive(sorted(k.maximal_simplices), cap - 1)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.sets(st.integers(0, 6), min_size=1, max_size=4),
        min_size=1,
        max_size=8,
    )
)
def test_euler_characteristic(maximal_sets):
    assert euler_characteristic_ok(_complex(maximal_sets, 7))


def test_euler_characteristic_empty_and_above_cap():
    assert euler_characteristic_ok(SimplicialComplex((), frozenset()))
    with pytest.raises(DimCapError):
        euler_characteristic_ok(_complex([tuple(range(7))], 7), dim_cap=5)


class TestFrequencyFiltration:
    def test_uniform_counts_single_step(self, triad):
        f = frequency_filtration(triad, 1)
        assert set(f.values) == {0.0}

    def test_four_cycle_values(self):
        hs = _level1_hs([({0, 1}, 3), ({1, 2}, 2), ({2, 3}, 1), ({3, 0}, 1)], 4)
        f = frequency_filtration(hs, 1)
        value = dict(zip(f.simplices, f.values))
        assert value[(0, 1)] == 0.0
        assert value[(1, 2)] == 1.0
        assert value[(2, 3)] == 2.0
        assert value[(0, 3)] == 2.0
        assert value[(0,)] == 0.0 and value[(1,)] == 0.0
        assert value[(2,)] == 1.0 and value[(3,)] == 2.0

    def test_pruned_level_still_defined(self):
        from hypercode.codes import OccurrenceLog

        bins = [{0, 1}, {0, 1}, {2, 3}]
        log = OccurrenceLog(4, tuple((t, Pattern.of(s)) for t, s in enumerate(bins)))
        from hypercode.hyperstructure import build_hyperstructure

        hs = build_hyperstructure(log, BuildConfig(min_count=2))
        f = frequency_filtration(hs, 1)
        assert len(f.simplices) > 0

    def test_range_error(self, triad):
        with pytest.raises(LevelRangeError):
            frequency_filtration(triad, 5)

    def test_monotone(self):
        hs = _level1_hs([({0, 1, 2}, 2), ({2, 3}, 5)], 4)
        f = frequency_filtration(hs, 1)
        expected = frequency_values_naive(
            [((0, 1, 2), 2), ((2, 3), 5)], [(0, 1, 2), (2, 3)], 2
        )
        assert dict(zip(f.simplices, f.values)) == expected
        assert expected[(2,)] == 0.0 and expected[(0, 2)] == 3.0

    def test_bond_wider_than_cap(self):
        # only faces up to the cap enter, even of a bond with > cap + 1 vertices
        hs = _level1_hs([({0, 1, 2, 3}, 2), ({3, 4}, 1)], 5)
        f = frequency_filtration(hs, 1, dim_cap=1)
        value = dict(zip(f.simplices, f.values))
        assert f.truncated
        assert max(len(s) for s in f.simplices) == 2
        expected = frequency_values_naive(
            [((0, 1, 2, 3), 2), ((3, 4), 1)], [(0, 1, 2, 3), (3, 4)], 1
        )
        assert value == expected
        assert value[(3, 4)] == 1.0 and value[(4,)] == 1.0 and value[(0, 3)] == 0.0


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sets(st.integers(0, 6), max_size=5), max_size=14),
    st.sampled_from(["exact-cover", "subset-realization"]),
    st.sampled_from([1, 2, 5]),
)
def test_frequency_values_match_scan_oracle(bins, mode, cap):
    log = OccurrenceLog(7, tuple((t, Pattern.of(s)) for t, s in enumerate(bins)))
    hs = build_hyperstructure(log, BuildConfig(decomposition=mode))
    for i in range(1, hs.k + 1):
        f = frequency_filtration(hs, i, dim_cap=cap)
        k = level_complex(hs, i)
        expected = frequency_values_naive(
            [(b.constituents, b.count) for b in hs.level(i)],
            sorted(k.maximal_simplices),
            min(max(k.dim, 0), cap),
        )
        assert dict(zip(f.simplices, f.values)) == expected
        assert f.truncated == (k.dim > cap)


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(
        st.frozensets(st.integers(0, 6), min_size=1, max_size=6),
        st.integers(1, 5),
        min_size=1,
        max_size=6,
    ),
    st.sampled_from([1, 2, 3, 5]),
)
def test_persistence_matches_dense_oracle(patterns, cap):
    f = frequency_filtration(_level1_hs(list(patterns.items()), 7), 1, dim_cap=cap)
    expected = persistence_naive(f.simplices, f.values)
    if f.truncated:
        expected = [iv for iv in expected if iv[0] < cap]
    assert list(persistence(f, keep_zero=True).intervals) == expected


@settings(max_examples=80, deadline=None)
@given(
    st.dictionaries(
        st.frozensets(st.integers(0, 7), min_size=1, max_size=7),
        st.integers(1, 5),
        min_size=1,
        max_size=6,
    ),
    st.sampled_from([1, 2, 3, 5]),
)
def test_infinite_bars_match_betti(patterns, cap):
    # persistence reduces in filtration order, betti in lexicographic
    # order; below the cap both must count the same homology
    hs = _level1_hs(list(patterns.items()), 8)
    k = level_complex(hs, 1)
    bars = persistence(frequency_filtration(hs, 1, dim_cap=cap))
    top = min(k.dim, cap - 1)
    expected = list(betti(k, max_dim=top, dim_cap=cap)) + [0] * (cap - 1 - top)
    infinite = [sum(1 for _, e in bars.in_dim(d) if math.isinf(e)) for d in range(cap)]
    assert infinite == expected


@st.composite
def _recordings(draw):
    """Each of a few disjoint blocks of neurons, then bins that are unions
    of blocks, so exact covers exist and bonds reach the higher levels,
    with counts that tie; now and then an arbitrary bin."""
    neurons = draw(st.permutations(range(7)))
    cuts = sorted(draw(st.sets(st.integers(1, 6), min_size=1, max_size=4)))
    blocks = [set(neurons[a:b]) for a, b in zip([0, *cuts], [*cuts, 7])]
    unions = st.lists(st.sampled_from(blocks), min_size=1, max_size=4).map(
        lambda parts: set().union(*parts)
    )
    arbitrary = st.sets(st.integers(0, 6), max_size=5)
    return blocks + draw(st.lists(st.one_of(unions, unions, arbitrary), max_size=14))


@settings(max_examples=150, deadline=None)
@given(
    _recordings(),
    st.sampled_from(["exact-cover", "subset-realization"]),
    st.sampled_from([4, 3, 2, 1]),
    st.sampled_from([1, 2, 3, 5]),
    st.booleans(),
)
def test_persistence_every_level_matches_dense_oracle(bins, mode, max_level, cap, keep_zero):
    # cofaces generated from the bonds must pair as the dense reduction of
    # the listed faces does, at every level, below the cap when truncated
    log = OccurrenceLog(7, tuple((t, Pattern.of(s)) for t, s in enumerate(bins)))
    hs = build_hyperstructure(log, BuildConfig(max_level=max_level, decomposition=mode))
    for i in range(1, hs.k + 1):
        f = frequency_filtration(hs, i, dim_cap=cap)
        expected = [
            (d, b, e)
            for d, b, e in persistence_naive(f.simplices, f.values)
            if (d < cap or not f.truncated) and (keep_zero or e > b)
        ]
        assert list(persistence(f, keep_zero=keep_zero).intervals) == expected


@st.composite
def _flag_filtrations(draw):
    """(complex, values) of a random flag complex up to dimension 3, values distinct.

    Vertices and edges get distinct random weights; a simplex's key is the
    largest weight among its vertices and edges, so sorting by (key, dim)
    lists every face before its cofaces, and positions are the values.
    """
    n = draw(st.integers(1, 7))
    edges = [e for e in combinations(range(n), 2) if draw(st.booleans())]
    cells = [(v,) for v in range(n)] + edges
    weight = dict(zip(cells, draw(st.permutations(range(len(cells))))))
    simplices = [
        s
        for size in range(1, 5)
        for s in combinations(range(n), size)
        if all(e in weight for e in combinations(s, 2))
    ]
    simplices.sort(key=lambda s: (max(weight[c] for c in cells if set(c) <= set(s)), len(s)))
    k = generated_complex([Pattern(s) for s in simplices], n)
    return k, {s: float(t) for t, s in enumerate(simplices)}


@settings(max_examples=60, deadline=None)
@given(_flag_filtrations(), st.sampled_from([1, 2, 5]))
def test_persistence_from_values_matches_dense_oracle(filtration, cap):
    # every drawn simplex is a generator at its own value
    k, values = filtration
    f = Filtration(tuple(values.items()), min(k.dim, cap), k.dim > cap)
    assert f.simplices == tuple(sorted((s for s in values if len(s) <= cap + 1), key=values.get))
    expected = persistence_naive(f.simplices, f.values)
    if f.truncated:
        expected = [iv for iv in expected if iv[0] < cap]
    assert list(persistence(f, keep_zero=True).intervals) == expected


class TestPersistence:
    def test_single_vertex(self):
        f = Filtration((((0,), 0.0),), 0, False)
        assert persistence(f).intervals == ((0, 0.0, math.inf),)

    def test_four_cycle_bars(self):
        hs = _level1_hs([({0, 1}, 3), ({1, 2}, 2), ({2, 3}, 1), ({3, 0}, 1)], 4)
        bars = persistence(frequency_filtration(hs, 1))
        assert bars.in_dim(0) == [(0.0, math.inf)]
        assert bars.in_dim(1) == [(2.0, math.inf)]

    def test_triad_level2(self, triad):
        bars = persistence(frequency_filtration(triad, 2))
        assert bars.in_dim(0) == [(0.0, math.inf)]
        assert bars.in_dim(1) == [(0.0, math.inf)]

    def test_keep_zero(self):
        hs = _level1_hs([({0, 1}, 1)], 2)
        f = frequency_filtration(hs, 1)
        default = persistence(f)
        kept = persistence(f, keep_zero=True)
        assert len(kept.intervals) >= len(default.intervals)
        assert all(b <= d for _, b, d in kept.intervals)


def _random_weighted_level(rng, n=8):
    m = rng.randint(1, 6)
    patterns = []
    seen = set()
    for _ in range(m):
        size = rng.randint(1, 4)
        members = tuple(sorted(rng.sample(range(n), size)))
        if members in seen:
            continue
        seen.add(members)
        patterns.append((set(members), rng.randint(1, 5)))
    return _level1_hs(patterns, n)


def test_persistence_consistency_random():
    # bar counts at every threshold equal the Betti numbers of the
    # threshold subcomplex, per dimension
    rng = random.Random(11)
    for _ in range(30):
        hs = _random_weighted_level(rng)
        f = frequency_filtration(hs, 1)
        bars = persistence(f)
        values = dict(zip(f.simplices, f.values))
        for theta in sorted(set(f.values)):
            sub = subcomplex_at(list(f.simplices), values, theta)
            expected = betti_naive(sub, 3)
            for d in range(4):
                assert bars.count_at(theta, d) == expected[d]


def _barcode_sequence(h):
    return [(i, persistence(frequency_filtration(h, i))) for i in range(1, h.k + 1)]


def test_barcode_sequence_triad(triad):
    seq = _barcode_sequence(triad)
    assert [level for level, _ in seq] == [1, 2]
    level1 = seq[0][1]
    assert level1.in_dim(0) == [(0.0, math.inf)] * 3
    level2 = seq[1][1]
    assert level2.in_dim(0) == [(0.0, math.inf)]
    assert level2.in_dim(1) == [(0.0, math.inf)]


def test_barcode_csv_format(triad):
    csv_text = barcodes_to_csv(_barcode_sequence(triad))
    lines = csv_text.strip().split("\n")
    assert lines[0] == "level,dim,birth,death"
    assert lines[1] == "1,0,0,inf"
    assert len(lines) == 6
    # stable row order: (level, dim, birth)
    keys = [tuple(l.split(",")[:3]) for l in lines[1:]]
    assert keys == sorted(keys)
