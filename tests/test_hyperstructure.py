from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from hypercode.codes import OccurrenceLog, Pattern, parse_spike_matrix
from hypercode.errors import BondLookupError, ConfigError
from hypercode.hyperstructure import (
    BuildConfig,
    Hyperstructure,
    boundary,
    build_hyperstructure,
    canonical_form,
    downset,
    realize_level1,
)

from conftest import TRIAD_CSV, matrix_csv
from oracles import rebuild_pass_naive


def _log(bins, n):
    return OccurrenceLog(n, tuple((t, Pattern.of(s)) for t, s in enumerate(bins)))


def _bond_by_form(hs, level, form):
    for b in hs.level(level):
        if canonical_form(hs, level, b.id) == form:
            return b
    raise AssertionError(f"no bond with form {form} at level {level}")


class TestRealizeLevel1:
    def test_exact_cover_of_union(self):
        a, b = Pattern((0, 1, 2)), Pattern((3, 4, 5))
        res = realize_level1(Pattern((0, 1, 2, 3, 4, 5)), [a, b], "exact-cover")
        assert set(res) == {0, 1}

    def test_first_sighting(self):
        res = realize_level1(Pattern((1, 3)), [], "exact-cover")
        assert res == ()

    def test_no_exact_cover_makes_new_pattern(self):
        a = Pattern((0, 1, 2))
        active = Pattern((0, 1, 2, 8))
        res = realize_level1(active, [a], "exact-cover")
        assert res == ()
        # exhaustive check: no sub-multiset of known patterns covers it
        assert a.as_set() != active.as_set()

    def test_subset_realization(self):
        known = [Pattern((0, 1)), Pattern((2,)), Pattern((5, 6))]
        res = realize_level1(Pattern((0, 1, 2, 3)), known, "subset-realization")
        assert set(res) == {0, 1}

    def test_subset_realization_none(self):
        res = realize_level1(Pattern((9,)), [Pattern((0, 1))], "subset-realization")
        assert res == ()

    def test_empty_active_rejected(self):
        with pytest.raises(ConfigError):
            realize_level1(Pattern(()), [], "exact-cover")


class TestBuild:
    def test_triad_levels(self, triad):
        assert [len(l) for l in triad.levels] == [3, 3]
        forms1 = {canonical_form(triad, 1, b.id) for b in triad.level(1)}
        assert forms1 == {"{0,1,2}", "{3,4,5}", "{6,7,8}"}
        forms2 = {canonical_form(triad, 2, b.id) for b in triad.level(2)}
        assert forms2 == {
            "{{0,1,2},{3,4,5}}",
            "{{3,4,5},{6,7,8}}",
            "{{0,1,2},{6,7,8}}",
        }

    def test_single_bin_no_level2(self):
        hs = build_hyperstructure(_log([{0, 1}], 2))
        assert [len(l) for l in hs.levels] == [1]

    def test_triad_plus_t7_grows_level3(self):
        bins = [{0, 1, 2}, {3, 4, 5}, {6, 7, 8},
                {0, 1, 2, 3, 4, 5}, {3, 4, 5, 6, 7, 8}, {0, 1, 2, 6, 7, 8},
                {0, 1, 2, 3, 4, 5, 6, 7, 8}]
        hs = build_hyperstructure(_log(bins, 9), BuildConfig(max_level=3))
        assert [len(l) for l in hs.levels] == [3, 4, 1]
        top = hs.level(3)[0]
        assert len(top.constituents) == 4
        # independent brute-force re-implementation of the pass agrees
        naive = rebuild_pass_naive([(t, frozenset(s)) for t, s in enumerate(bins)])
        assert [len(l) for l in naive] == [3, 4, 1]
        assert {(c, cnt) for c, cnt in naive[0]} == {
            (b.constituents, b.count) for b in hs.level(1)
        }
        assert {(c, cnt) for c, cnt in naive[1]} == {
            (b.constituents, b.count) for b in hs.level(2)
        }

    def test_empty_log(self):
        hs = build_hyperstructure(OccurrenceLog(3, ()))
        assert hs.k == 0

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            build_hyperstructure(OccurrenceLog(1, ()), BuildConfig(max_level=0))
        with pytest.raises(ConfigError):
            build_hyperstructure(OccurrenceLog(1, ()), BuildConfig(decomposition="nope"))

    def test_min_count_pruning_cascades(self):
        # the level-2 bond {A,B} occurs once; min_count=2 drops it
        bins = [{0, 1}, {2, 3}, {0, 1}, {2, 3}, {0, 1, 2, 3}]
        hs = build_hyperstructure(_log(bins, 4), BuildConfig(min_count=2))
        assert [len(l) for l in hs.levels] == [2]
        assert all(b.count >= 2 for b in hs.level(1))

    def test_keep_union_words(self):
        bins = [{0, 1}, {2, 3}, {0, 1, 2, 3}]
        hs = build_hyperstructure(_log(bins, 4), BuildConfig(keep_union_words=True))
        forms = {canonical_form(hs, 1, b.id) for b in hs.level(1)}
        assert "{0,1,2,3}" in forms
        assert len(hs.level(1)) == 3

    def test_two_pass_order_robust(self):
        # union first: the single pass cannot realize patterns it has not
        # seen yet, the two-pass build replays with the full vocabulary
        bins = [{0, 1, 2, 3}, {0, 1}, {2, 3}]
        cfg = BuildConfig(decomposition="subset-realization")
        single = build_hyperstructure(_log(bins, 4), cfg)
        assert single.k == 1  # no co-realization ever seen
        cfg2 = BuildConfig(decomposition="subset-realization", two_pass=True)
        double = build_hyperstructure(_log(bins, 4), cfg2)
        assert double.k == 2  # bin 0 now realizes all three patterns at once
        assert {len(b.constituents) for b in double.level(2)} == {3}


QUERY_ERRORS = {
    "min-count-0": (lambda hs: BuildConfig(min_count=0).validate(), ConfigError),
    "unknown-mode": (lambda hs: realize_level1(Pattern((0,)), [], "nope"), ConfigError),
    "boundary-level-1": (lambda hs: boundary(hs, 1, 0), BondLookupError),
    "downset-target-not-below": (lambda hs: downset(hs, 2, 0, 2), BondLookupError),
}


@pytest.mark.parametrize("call, error", QUERY_ERRORS.values(), ids=QUERY_ERRORS.keys())
def test_bad_config_or_query_raises(triad, call, error):
    with pytest.raises(error):
        call(triad)


class TestQueries:
    def test_boundary_is_constituents(self, triad):
        ab = _bond_by_form(triad, 2, "{{0,1,2},{3,4,5}}")
        ids = {b.id for b in triad.level(1)
               if canonical_form(triad, 1, b.id) in ("{0,1,2}", "{3,4,5}")}
        assert boundary(triad, 2, ab.id) == frozenset(ids)

    def test_boundary_cardinality(self, triad):
        for b in triad.level(2):
            assert len(boundary(triad, 2, b.id)) >= 2

    def test_boundary_unknown_id(self, triad):
        with pytest.raises(BondLookupError):
            boundary(triad, 2, 99)

    def test_downset_to_support(self, triad):
        ab = _bond_by_form(triad, 2, "{{0,1,2},{3,4,5}}")
        assert downset(triad, 2, ab.id, 0) == frozenset(range(6))

    def test_downset_one_step_is_boundary(self, triad):
        ab = triad.level(2)[0]
        assert downset(triad, 2, ab.id, 1) == boundary(triad, 2, ab.id)

    def test_downset_level1(self, triad):
        a = _bond_by_form(triad, 1, "{0,1,2}")
        assert downset(triad, 1, a.id, 0) == frozenset({0, 1, 2})

    def test_canonical_form_sorts(self):
        hs = build_hyperstructure(_log([{2, 0, 1}], 3))
        assert canonical_form(hs, 1, 0) == "{0,1,2}"

    def test_canonical_form_cross_structure(self, triad):
        _, log = parse_spike_matrix(TRIAD_CSV)
        other = build_hyperstructure(log)
        forms_a = sorted(canonical_form(triad, 2, b.id) for b in triad.level(2))
        forms_b = sorted(canonical_form(other, 2, b.id) for b in other.level(2))
        assert forms_a == forms_b


# -- invariants -------------------------------------------------------------

bins_strategy = st.lists(
    st.sets(st.integers(0, 6), max_size=5), min_size=0, max_size=14
)


@given(bins_strategy, st.sampled_from(["exact-cover", "subset-realization"]))
@settings(max_examples=60, deadline=None)
def test_referential_integrity_and_monotone_counts(bins, mode):
    hs = build_hyperstructure(_log(bins, 7), BuildConfig(decomposition=mode))
    for lvl in range(2, hs.k + 1):
        below = {b.id for b in hs.level(lvl - 1)}
        for b in hs.level(lvl):
            assert set(b.constituents) <= below
            assert b.count == len(b.bins)
            assert b.count <= min(
                hs.bond(lvl - 1, c).count for c in b.constituents
            )


# bins that are unions of a few overlapping assemblies, so that covers
# both succeed and fail
assembly_bins_strategy = st.lists(
    st.frozensets(st.integers(0, 5), min_size=1, max_size=3), min_size=2, max_size=6
).flatmap(
    lambda assemblies: st.lists(
        st.lists(st.sampled_from(assemblies), min_size=1, max_size=3).map(
            lambda parts: set().union(*parts)
        ),
        min_size=4,
        max_size=24,
    )
)


@given(
    st.one_of(bins_strategy, assembly_bins_strategy),
    st.sampled_from(["exact-cover", "subset-realization"]),
    st.integers(1, 4),
)
@settings(max_examples=500, deadline=None)
def test_build_matches_naive_pass(bins, mode, max_level):
    hs = build_hyperstructure(
        _log(bins, 7), BuildConfig(max_level=max_level, decomposition=mode)
    )
    naive = rebuild_pass_naive(
        [(t, frozenset(s)) for t, s in enumerate(bins)], max_level, mode
    )
    while naive and not naive[-1]:
        naive.pop()
    assert [[(b.constituents, b.count) for b in level] for level in hs.levels] == naive


@given(
    st.one_of(bins_strategy, assembly_bins_strategy),
    st.sampled_from(["exact-cover", "subset-realization"]),
    st.booleans(),
    st.booleans(),
    st.integers(1, 4),
    st.integers(1, 3),
)
@settings(max_examples=300, deadline=None)
def test_min_count_prunes_by_count_alone(bins, mode, two_pass, keep_union, max_level, min_count):
    # a bond records a bin only where each of its constituents recorded it,
    # so no bond outlives a constituent dropped for its count
    config = BuildConfig(max_level, mode, 1, two_pass, keep_union)
    full = build_hyperstructure(_log(bins, 7), config)
    for lvl in range(2, full.k + 1):
        for b in full.level(lvl):
            for c in b.constituents:
                assert set(b.bins) <= set(full.bond(lvl - 1, c).bins)
    pruned = build_hyperstructure(_log(bins, 7), replace(config, min_count=min_count))

    def forms(hs, keep):
        levels = [
            [(canonical_form(hs, lvl, b.id), b.count, b.bins) for b in hs.level(lvl) if keep(b)]
            for lvl in range(1, hs.k + 1)
        ]
        while levels and not levels[-1]:
            levels.pop()
        return levels

    assert forms(pruned, lambda b: True) == forms(full, lambda b: b.count >= min_count)


@given(bins_strategy)
@settings(max_examples=40, deadline=None)
def test_build_deterministic(bins):
    log = _log(bins, 7)
    assert build_hyperstructure(log) == build_hyperstructure(log)


@given(bins_strategy)
@settings(max_examples=40, deadline=None)
def test_max_level_1_equals_realize_outputs(bins):
    log = _log(bins, 7)
    hs = build_hyperstructure(log, BuildConfig(max_level=1))
    known: list[Pattern] = []
    for _, active in log.bins:
        if active.is_empty:
            continue
        if not realize_level1(active, known, "exact-cover"):
            known.append(active)
    if hs.k == 0:
        assert not known
    else:
        assert [Pattern(b.constituents) for b in hs.level(1)] == known


@given(bins_strategy)
@example([{0}, {0, 1}, {2, 6}, {0, 2, 6}, {0, 1, 2, 6}])
@settings(max_examples=30, deadline=None)
def test_rebuild_stability(bins):
    # restricting the log to the bins of a bond's recursive downset, plus
    # the first sighting of every level-1 pattern known by the last of
    # those bins, reproduces a bond with the same canonical form.  The
    # downset alone is not enough under exact cover: in the example,
    # {0, 2, 6} decomposes only while {0} is known.
    log = _log(bins, 7)
    hs = build_hyperstructure(log)
    for lvl in range(1, hs.k + 1):
        for b in hs.level(lvl):
            keep = set(b.bins)
            level, frontier = lvl, {b.id}
            while level > 1:
                frontier = {
                    c for bid in frontier for c in hs.bond(level, bid).constituents
                }
                level -= 1
                keep.update(t for bid in frontier for t in hs.bond(level, bid).bins)
            last = max(keep)
            keep.update(p.bins[0] for p in hs.level(1) if p.bins[0] <= last)
            sublog = OccurrenceLog(
                7, tuple(bt for bt in log.bins if bt[0] in keep)
            )
            rebuilt = build_hyperstructure(sublog)
            form = canonical_form(hs, lvl, b.id)
            assert lvl <= rebuilt.k
            assert form in {
                canonical_form(rebuilt, lvl, rb.id) for rb in rebuilt.level(lvl)
            }


def test_json_roundtrip(triad):
    obj = triad.to_json_obj()
    assert Hyperstructure.from_json_obj(obj) == triad
    # ids are array positions per level
    for bonds in obj["levels"]:
        assert [b["id"] for b in bonds] == list(range(len(bonds)))
