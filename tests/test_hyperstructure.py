from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from hypercode.codes import OccurrenceLog, bitmask, members, parse_spike_matrix
from hypercode.errors import BondLookupError, ConfigError
from hypercode.hyperstructure import (
    BuildConfig,
    Hyperstructure,
    boundary,
    build_hyperstructure,
    canonical_form,
    downset,
)

from conftest import TRIAD_CSV
from oracles import rebuild_pass_naive


def _log(bins, n):
    return OccurrenceLog(n, tuple((t, bitmask(s)) for t, s in enumerate(bins)))


def _bond_by_form(hs, level, form):
    for b in hs.level(level):
        if canonical_form(hs, level, b.id) == form:
            return b
    raise AssertionError(f"no bond with form {form} at level {level}")


class TestRealizeLevel1:
    """Which level-1 patterns the last bin of a log realizes, read off the
    (constituents, bins) of each level-1 bond."""

    @staticmethod
    def _level1(bins, n, mode="exact-cover"):
        hs = build_hyperstructure(_log(bins, n), BuildConfig(decomposition=mode))
        return [(b.constituents, b.bins) for b in hs.level(1)]

    def test_exact_cover_of_union(self):
        level1 = self._level1([{0, 1, 2}, {3, 4, 5}, {0, 1, 2, 3, 4, 5}], 6)
        assert level1 == [((0, 1, 2), (0, 2)), ((3, 4, 5), (1, 2))]

    def test_first_sighting(self):
        assert self._level1([{1, 3}], 4) == [((1, 3), (0,))]

    def test_no_exact_cover_makes_new_pattern(self):
        level1 = self._level1([{0, 1, 2}, {0, 1, 2, 8}], 9)
        assert level1 == [((0, 1, 2), (0,)), ((0, 1, 2, 8), (1,))]

    def test_subset_realization(self):
        level1 = self._level1([{0, 1}, {2}, {5, 6}, {0, 1, 2, 3}], 7, "subset-realization")
        assert level1 == [((0, 1), (0, 3)), ((2,), (1, 3)), ((5, 6), (2,))]

    def test_subset_realization_none(self):
        level1 = self._level1([{0, 1}, {9}], 10, "subset-realization")
        assert level1 == [((0, 1), (0,)), ((9,), (1,))]


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
        assert {(c, cnt) for c, cnt, _ in naive[0]} == {
            (b.constituents, b.count) for b in hs.level(1)
        }
        assert {(c, cnt) for c, cnt, _ in naive[1]} == {
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
    "unknown-mode": (lambda hs: BuildConfig(decomposition="nope").validate(), ConfigError),
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


@pytest.mark.parametrize(
    "bins, level1, level2",
    [
        ([{0, 1, 2}, {0}, {0, 1, 2}, {0}], [((0, 1, 2), (0, 2)), ((0,), (1, 2, 3))], (2,)),
        ([{0}, {0, 1, 2}, {1}, {0, 1, 2}], [((0,), (0, 1, 3)), ((1,), (2, 3))], (3,)),
    ],
    ids=["bond-inside-after-first-sighting", "bond-inside-after-repeat"],
)
def test_repeated_subset_query_sees_bonds_registered_since(bins, level1, level2):
    """A bin whose active set was queried before realizes the bonds that
    registered in between, and so reaches level 2."""
    hs = build_hyperstructure(_log(bins, 3), BuildConfig(decomposition="subset-realization"))
    assert [(b.constituents, b.bins) for b in hs.level(1)] == level1
    assert [(b.constituents, b.bins) for b in hs.level(2)] == [((0, 1), level2)]
    naive = rebuild_pass_naive(
        [(t, frozenset(s)) for t, s in enumerate(bins)], mode="subset-realization"
    )
    assert [[(b.constituents, b.count, b.bins) for b in level] for level in hs.levels] == naive[:2]


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
    st.booleans(),
    st.booleans(),
)
@example([{0, 1, 2}, {0}, {0, 1, 2}, {0}], "subset-realization", 2, False, False)
@example([{0}, {0, 1, 2}, {1}, {0, 1, 2}], "subset-realization", 2, False, False)
# a repeated bin meets a bond registered since its last sighting: at level
# 2, inside the mask of its level-1 ids, and at level 1, inside the bin, in
# each mode; and a first sighting that registers the union it covers
@example(
    [{1, 2, 3}, {1}, {2}, {1, 2, 3}, {1, 2, 3}, {1, 2}, {1, 2, 3}], "subset-realization", 2, False, False
)
@example([{0, 1}, {0, 1, 2}, {2}, {0, 1, 2}], "subset-realization", 2, False, False)
@example([{0}, {1, 2}, {0, 1, 2}, {0, 1}, {0, 1, 2}], "exact-cover", 2, False, False)
@example([{0, 1}, {2, 3}, {0, 1, 2, 3}, {0, 1, 2, 3}], "exact-cover", 2, False, True)
# bins 3 and 5 differ but query one level-2 mask, and bin 4 registers the
# level-2 bond {0, 1} inside it in between: bin 5 realizes both
@example([{0}, {1}, {2}, {0, 1, 2}, {0, 1}, {0, 1, 2, 3}], "subset-realization", 2, False, False)
# bond {0, 1, 2, 3} meets the last bin but sticks out of it, and the bonds
# {1, 2} and {0, 1} inside it tie on size: the greedy takes {0, 1} by its
# members, then {2}.  With two passes and union words kept, the prepass
# registers {0, 1, 2}, which the greedy takes before both
@example([{0, 1, 2, 3}, {1, 2}, {0, 1}, {0}, {2}, {0, 1, 2}], "exact-cover", 2, False, False)
@example([{0, 1, 2, 3}, {1, 2}, {0, 1}, {0}, {2}, {0, 1, 2}], "exact-cover", 2, True, True)
@settings(max_examples=500, deadline=None)
def test_build_matches_naive_pass(bins, mode, max_level, two_pass, keep_union):
    config = BuildConfig(max_level, mode, 1, two_pass, keep_union)
    hs = build_hyperstructure(_log(bins, 7), config)
    naive = rebuild_pass_naive(
        [(t, frozenset(s)) for t, s in enumerate(bins)], max_level, mode, two_pass, keep_union
    )
    while naive and not naive[-1]:
        naive.pop()
    assert [[(b.constituents, b.count, b.bins) for b in level] for level in hs.levels] == naive


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
    (naive,) = rebuild_pass_naive([(t, frozenset(members(active))) for t, active in log.bins], max_level=1)
    assert [(b.constituents, b.count, b.bins) for b in (hs.level(1) if hs.k else ())] == naive


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
