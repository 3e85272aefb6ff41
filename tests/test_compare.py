from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from hypercode.codes import OccurrenceLog, bitmask
from hypercode.compare import compare_levels
from hypercode.errors import UniverseError
from hypercode.hyperstructure import build_hyperstructure


def _build(bins, n):
    log = OccurrenceLog(n, tuple((t, bitmask(s)) for t, s in enumerate(bins)))
    return build_hyperstructure(log)


def test_self_comparison(triad):
    report = compare_levels(triad, triad)
    assert all(lc.map_status == "bijective" for lc in report.levels)
    assert all(lc.jaccard == 1.0 for lc in report.levels)


def test_triad_vs_truncated(triad, triad_no_t6):
    report = compare_levels(triad, triad_no_t6)
    lvl1 = report.levels[0]
    assert (lvl1.size_a, lvl1.size_b, lvl1.map_status) == (3, 3, "bijective")
    lvl2 = report.levels[1]
    assert (lvl2.size_a, lvl2.size_b, lvl2.shared) == (3, 2, 2)
    assert lvl2.map_status == "injective-only(B->A)"


def test_universe_error(triad):
    other = _build([{0, 1}], 8)
    with pytest.raises(UniverseError):
        compare_levels(triad, other)


def test_missing_level_reported_empty(triad):
    shallow = _build([{0, 1, 2}], 9)
    report = compare_levels(triad, shallow)
    lvl2 = report.levels[1]
    assert lvl2.size_b == 0 and lvl2.shared == 0
    assert lvl2.betti_b == ()


def test_with_nerve(triad):
    report = compare_levels(triad, triad, with_nerve=True)
    assert report.nerve_betti_a == (4, 0, 0)
    assert report.nerve_betti_a == report.nerve_betti_b


def test_table_rendering(triad, triad_no_t6):
    table = compare_levels(triad, triad_no_t6).to_table()
    assert "jaccard" in table.splitlines()[0]
    assert "injective-only(B->A)" in table


bins_strategy = st.lists(st.sets(st.integers(0, 5), max_size=4), max_size=10)


@given(bins_strategy, bins_strategy)
@settings(max_examples=40, deadline=None)
def test_symmetry_up_to_side_swap(bins_a, bins_b):
    a, b = _build(bins_a, 6), _build(bins_b, 6)
    fwd = compare_levels(a, b)
    rev = compare_levels(b, a)
    swap = {
        "injective-only(A->B)": "injective-only(B->A)",
        "injective-only(B->A)": "injective-only(A->B)",
    }
    for lf, lr in zip(fwd.levels, rev.levels):
        assert (lf.size_a, lf.size_b) == (lr.size_b, lr.size_a)
        assert lf.shared == lr.shared
        assert lf.jaccard == lr.jaccard
        assert lr.map_status == swap.get(lf.map_status, lf.map_status)


@given(bins_strategy)
@settings(max_examples=30, deadline=None)
def test_jaccard_one_iff_equal_forms(bins):
    a = _build(bins, 6)
    report = compare_levels(a, a)
    assert all(lc.jaccard == 1.0 for lc in report.levels)
    if a.k:
        b = _build(list(bins) + [{0, 1, 2, 3, 4, 5}], 6)
        report2 = compare_levels(a, b)
        for lc in report2.levels:
            if lc.size_a != lc.size_b or lc.shared != lc.size_a:
                assert lc.jaccard < 1.0


def test_bijective_implies_equal_sizes(triad):
    for lc in compare_levels(triad, triad).levels:
        assert lc.size_a == lc.size_b == lc.shared
