from __future__ import annotations

import math
import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from hypercode import homology
from hypercode.codes import SimplicialComplex, _maximal, bitmask, face_collapse
from hypercode.errors import DimCapError, LevelRangeError
from hypercode.homology import (
    Filtration,
    _columns,
    _Generators,
    barcodes_to_csv,
    betti,
    frequency_filtration,
    persistence,
)
from hypercode.codes import OccurrenceLog
from hypercode.hyperstructure import Bond, BuildConfig, Hyperstructure, build_hyperstructure
from hypercode.topology import level_complex

from conftest import maximal_tuples
from oracles import (
    betti_naive,
    coboundary_lows_naive,
    count_at_naive,
    euler_characteristic_naive,
    filtration_faces_naive,
    frequency_values_naive,
    generated_complex_naive,
    persistence_naive,
    subcomplex_at,
)


def _face_values(f):
    """Each face of ``f`` up to its top, with its value, from the naive oracle."""
    return dict(zip(*filtration_faces_naive(f.generators, f.top)))


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
        k = generated_complex_naive([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)], 4)
        assert betti(k, 2) == (1, 0, 1)

    def test_triad_level1(self, triad):
        from hypercode.topology import level_complex

        assert betti(level_complex(triad, 1)) == (3, 0, 0)

    def test_triad_level2(self, triad):
        from hypercode.topology import level_complex

        assert betti(level_complex(triad, 2)) == (1, 1)

    def test_solid_simplex_contractible(self):
        assert betti(generated_complex_naive([(0, 1, 2)], 3), 2) == (1, 0, 0)

    def test_dim_cap_error(self):
        big = generated_complex_naive([tuple(range(8))], 8)
        with pytest.raises(DimCapError):
            betti(big, max_dim=6, dim_cap=5)

    def test_default_max_dim_stops_below_cap(self):
        big = generated_complex_naive([tuple(range(8))], 8)
        assert betti(big, dim_cap=5) == (1, 0, 0, 0, 0)
        # a complex of dimension cap is not cut
        at_cap = generated_complex_naive([tuple(range(6))], 6)
        assert betti(at_cap, dim_cap=5) == (1, 0, 0, 0, 0, 0)

    def test_empty_complex(self):
        k = SimplicialComplex((), frozenset())
        assert betti(k, 0) == (0,)

    def test_no_column_above_the_complex_dimension(self, monkeypatch):
        # a dimension above the complex has no face and beta 0, so a
        # max_dim above it lists no columns there
        tops = []
        columns = homology._columns

        def recording(gens, top):
            tops.append(top)
            return columns(gens, top)

        monkeypatch.setattr(homology, "_columns", recording)
        k = generated_complex_naive([(0, 1, 2), (2, 3)], 4)
        assert betti(k, 1000) == (1,) + (0,) * 1000
        assert tops == [k.dim]

    def test_huge_max_dim_is_zeros(self):
        k = generated_complex_naive([(0, 1), (1, 2), (0, 2)], 3)
        assert betti(k, 10**6) == (1, 1) + (0,) * (10**6 - 1)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.sets(st.integers(0, 7), min_size=1, max_size=4),
        min_size=1,
        max_size=8,
    )
)
def test_betti_matches_dense_oracle(maximal_sets):
    k = generated_complex_naive(maximal_sets, 8)
    assert betti(k, 3) == betti_naive(sorted(maximal_tuples(k)), 3)


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
    k = generated_complex_naive(maximal_sets, 8)
    assert betti(k, cap - 1, dim_cap=cap) == betti_naive(sorted(maximal_tuples(k)), cap - 1)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.sets(st.integers(0, 6), min_size=1, max_size=4),
        min_size=1,
        max_size=8,
    )
)
def test_euler_characteristic(maximal_sets):
    k = generated_complex_naive(maximal_sets, 7)
    chi = sum((-1) ** d * b for d, b in enumerate(betti(k, k.dim)))
    assert chi == euler_characteristic_naive(maximal_tuples(k))


def test_euler_characteristic_empty_and_above_cap():
    assert betti(SimplicialComplex((), frozenset())) == (0,)
    assert euler_characteristic_naive(()) == 0
    # above the cap the Betti numbers up to the dimension that chi needs are refused
    k = generated_complex_naive([tuple(range(7))], 7)
    with pytest.raises(DimCapError):
        betti(k, k.dim, dim_cap=5)


class TestFrequencyFiltration:
    def test_uniform_counts_single_step(self, triad):
        f = frequency_filtration(triad, 1)
        assert set(_face_values(f).values()) == {0.0}

    def test_four_cycle_values(self):
        hs = _level1_hs([({0, 1}, 3), ({1, 2}, 2), ({2, 3}, 1), ({3, 0}, 1)], 4)
        f = frequency_filtration(hs, 1)
        value = _face_values(f)
        assert value[(0, 1)] == 0.0
        assert value[(1, 2)] == 1.0
        assert value[(2, 3)] == 2.0
        assert value[(0, 3)] == 2.0
        assert value[(0,)] == 0.0 and value[(1,)] == 0.0
        assert value[(2,)] == 1.0 and value[(3,)] == 2.0

    def test_pruned_level_still_defined(self):
        from hypercode.codes import OccurrenceLog

        bins = [{0, 1}, {0, 1}, {2, 3}]
        log = OccurrenceLog(4, tuple((t, bitmask(s)) for t, s in enumerate(bins)))
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
        assert _face_values(f) == expected
        assert expected[(2,)] == 0.0 and expected[(0, 2)] == 3.0

    def test_bond_wider_than_cap(self):
        # only faces up to the cap enter, even of a bond with > cap + 1 vertices
        hs = _level1_hs([({0, 1, 2, 3}, 2), ({3, 4}, 1)], 5)
        f = frequency_filtration(hs, 1, dim_cap=1)
        value = _face_values(f)
        assert f.truncated
        assert max(len(s) for s in f.simplices) == 2
        assert sorted(f.simplices) == sorted(value)
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
    log = OccurrenceLog(7, tuple((t, bitmask(s)) for t, s in enumerate(bins)))
    hs = build_hyperstructure(log, BuildConfig(decomposition=mode))
    for i in range(1, hs.k + 1):
        f = frequency_filtration(hs, i, dim_cap=cap)
        k = level_complex(hs, i)
        expected = frequency_values_naive(
            [(b.constituents, b.count) for b in hs.level(i)],
            sorted(maximal_tuples(k)),
            min(max(k.dim, 0), cap),
        )
        assert _face_values(f) == expected
        assert sorted(f.simplices) == sorted(expected)
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
    expected = persistence_naive(*filtration_faces_naive(f.generators, f.top))
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
    log = OccurrenceLog(7, tuple((t, bitmask(s)) for t, s in enumerate(bins)))
    hs = build_hyperstructure(log, BuildConfig(max_level=max_level, decomposition=mode))
    for i in range(1, hs.k + 1):
        f = frequency_filtration(hs, i, dim_cap=cap)
        expected = [
            (d, b, e)
            for d, b, e in persistence_naive(*filtration_faces_naive(f.generators, f.top))
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
    k = generated_complex_naive(simplices, n)
    return k, {s: float(t) for t, s in enumerate(simplices)}


@settings(max_examples=120, deadline=None)
@given(_flag_filtrations(), st.sampled_from([1, 2, 3, 5]), st.booleans())
def test_persistence_from_values_matches_dense_oracle(filtration, cap, keep_zero):
    # every drawn simplex is a generator at its own value; without
    # keep_zero they are collapsed first, and a face entering before its
    # cofaces must stay
    k, values = filtration
    generators = tuple((bitmask(s), value) for s, value in values.items())
    f = Filtration(generators, min(k.dim, cap), k.dim > cap)
    assert sorted(f.simplices) == sorted(s for s in values if len(s) <= cap + 1)
    expected = [
        (d, b, e)
        for d, b, e in persistence_naive(*filtration_faces_naive(f.generators, f.top))
        if (d < cap or not f.truncated) and (keep_zero or e > b)
    ]
    assert list(persistence(f, keep_zero=keep_zero).intervals) == expected


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(1, 2**7 - 1), st.sampled_from([0.0, 1.0, 2.0, 5.0])),
        min_size=1,
        max_size=6,
    ),
    st.sampled_from([0, 1, 2, 3, 5]),
    st.booleans(),
)
@example([(0b011, 0.0), (0b111, 5.0)], 1, False)  # a generator inside a later one
def test_column_lows_match_naive_oracle(generators, top, collapse):
    # every face key and low listed in bulk is the face's own value and
    # its oldest coface, and the cofaces the kernel builds from a key are
    # the face's, each once, read off the generators one face at a time
    kept, inc = face_collapse(*_maximal(generators)) if collapse else _maximal(generators)
    gens = _Generators(kept, inc)

    def decoded(key):
        return key & gens.vertices, gens.value(key)

    got = [
        [
            (
                *decoded(key),
                decoded(low) if low >= 0 else None,
                sorted(map(decoded, gens.cofaces(key))),
            )
            for key, low in zip(keys, lows)
        ]
        for keys, lows in _columns(gens, top)
    ]
    assert got == coboundary_lows_naive(kept if collapse else generators, top)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(1, 2**7 - 1), st.sampled_from([0.0, 1.0, 2.0, 5.0])),
        min_size=1,
        max_size=6,
    ),
    st.sampled_from([1, 2, 3, 5]),
    st.booleans(),
    st.integers(0, 2**35 - 1),
)
@example([(0b011, 0.0), (0b111, 5.0)], 1, False, 0b100)  # a generator with a coface is cleared
@example([(0b0111, 0.0), (0b1100, 2.0)], 2, False, 0)  # generators with low -1
def test_cleared_faces_leave_the_listing(generators, top, collapse, chosen):
    # keys sent back after dimension d - 1 leave dimension d's listing,
    # which keeps the order and lows of the full listing, and of the
    # naive oracle, for every face that stays; -1 clears nothing
    kept, inc = face_collapse(*_maximal(generators)) if collapse else _maximal(generators)
    gens = _Generators(kept, inc)
    full = list(_columns(gens, top))
    oracle = coboundary_lows_naive(kept if collapse else generators, top)

    def key_of(mask, value):
        return gens.values.index(value) << gens.n | mask

    def decoded(key):
        return key & gens.vertices, gens.value(key)

    for d in range(1, top + 1):
        rows = [(key_of(mask, value), (mask, value), low) for mask, value, low, _ in oracle[d]]
        cleared = [-1, *(key for i, (key, _, _) in enumerate(rows) if chosen >> i & 1)]
        columns = _columns(gens, top)
        for _ in range(d):
            next(columns)
        keys, lows = columns.send(cleared)
        assert [
            (key, low) for key, low in zip(*full[d]) if key not in cleared
        ] == list(zip(keys, lows))
        assert [
            (decoded(key), decoded(low) if low >= 0 else None) for key, low in zip(keys, lows)
        ] == [(face, low) for key, face, low in rows if key not in cleared]


class TestPersistence:
    def test_single_vertex(self):
        f = Filtration(((0b1, 0.0),), 0, False)
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

    def test_collapse_keeps_the_cap(self):
        # the triangle makes the level 2-dimensional, so at cap 1 only
        # dimension 0 is reduced; it collapses to a point, and the square's
        # 1-cycle must stay dropped although the collapsed top is 1
        square = [({0, 1}, 1), ({1, 2}, 1), ({2, 3}, 1), ({3, 0}, 1)]
        f = frequency_filtration(_level1_hs([*square, ({4, 5, 6}, 1)], 7), 1, dim_cap=1)
        assert (f.top, f.truncated) == (1, True)
        assert persistence(f).intervals == ((0, 0.0, math.inf), (0, 0.0, math.inf))

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
        simplices, face_values = filtration_faces_naive(f.generators, f.top)
        values = dict(zip(simplices, face_values))
        for theta in sorted(set(face_values)):
            sub = subcomplex_at(simplices, values, theta)
            expected = betti_naive(sub, 3)
            for d in range(4):
                assert count_at_naive(bars.intervals, theta, d) == expected[d]


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
