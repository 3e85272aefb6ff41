from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from hypercode.codes import Pattern, SimplicialComplex, generated_complex
from hypercode.errors import DimCapError, FiltrationError, LevelRangeError
from hypercode.homology import (
    Barcode,
    Filtration,
    barcode_sequence,
    barcodes_to_csv,
    betti,
    boundary_matrix,
    euler_characteristic_ok,
    frequency_filtration,
    persistence,
)
from hypercode.codes import OccurrenceLog
from hypercode.hyperstructure import Bond, BuildConfig, Hyperstructure, build_hyperstructure
from hypercode.topology import level_complex

from oracles import betti_naive, frequency_values_naive, subcomplex_at


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


HOLLOW_TRIANGLE = _complex([(0, 1), (1, 2), (0, 2)], 3)


class TestBoundaryMatrix:
    def test_hollow_triangle_d1(self):
        bm = boundary_matrix(HOLLOW_TRIANGLE, 1)
        assert len(bm.rows) == 3 and len(bm.cols) == 3
        assert all(len(c) == 2 for c in bm.columns)
        assert bm.rank() == 2

    def test_single_vertex_d1(self):
        bm = boundary_matrix(_complex([(0,)], 1), 1)
        assert bm.cols == () and bm.columns == ()

    def test_full_triangle_d2(self):
        bm = boundary_matrix(_complex([(0, 1, 2)], 3), 2)
        assert len(bm.cols) == 1
        assert len(bm.columns[0]) == 3

    def test_dim_cap(self):
        with pytest.raises(DimCapError):
            boundary_matrix(HOLLOW_TRIANGLE, 6, dim_cap=5)


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
        f.validate()  # raises on violation

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


class TestPersistence:
    def test_single_vertex(self):
        k = _complex([(0,)], 1)
        f = Filtration.from_values(k, {(0,): 0.0})
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

    def test_non_monotone_rejected(self):
        k = _complex([(0, 1)], 2)
        with pytest.raises(FiltrationError):
            Filtration.from_values(k, {(0,): 1.0, (1,): 0.0, (0, 1): 0.5})

    def test_missing_face_rejected(self):
        k = _complex([(0, 1)], 2)
        with pytest.raises(FiltrationError):
            Filtration.from_values(k, {(0,): 0.0, (0, 1): 1.0})

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


def test_barcode_sequence_triad(triad):
    seq = barcode_sequence(triad)
    assert [level for level, _ in seq] == [1, 2]
    level1 = seq[0][1]
    assert level1.in_dim(0) == [(0.0, math.inf)] * 3
    level2 = seq[1][1]
    assert level2.in_dim(0) == [(0.0, math.inf)]
    assert level2.in_dim(1) == [(0.0, math.inf)]


def test_barcode_sequence_empty():
    from hypercode.codes import OccurrenceLog
    from hypercode.hyperstructure import build_hyperstructure

    hs = build_hyperstructure(OccurrenceLog(3, ()))
    assert barcode_sequence(hs) == []


def test_barcode_csv_format(triad):
    csv_text = barcodes_to_csv(barcode_sequence(triad))
    lines = csv_text.strip().split("\n")
    assert lines[0] == "level,dim,birth,death"
    assert lines[1] == "1,0,0,inf"
    assert len(lines) == 6
    # stable row order: (level, dim, birth)
    keys = [tuple(l.split(",")[:3]) for l in lines[1:]]
    assert keys == sorted(keys)
