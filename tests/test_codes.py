from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from hypercode.codes import (
    OccurrenceLog,
    Pattern,
    SimplicialComplex,
    _maximal,
    bin_event_list,
    bitmask,
    face_collapse,
    log_from_json_obj,
    log_to_json_obj,
    matrix_to_csv,
    members,
    parse_spike_matrix,
)
from hypercode.errors import ConfigError, DimensionError, HypercodeError, ParseError
from hypercode.hyperstructure import Bond, BuildConfig, Hyperstructure, build_hyperstructure
from hypercode.topology import level_complex

from conftest import TRIAD_CSV, maximal_tuples
from oracles import (
    filtration_faces_naive,
    maximal_by_value_naive,
    maximal_naive,
    parse_spike_matrix_naive,
    persistence_naive,
)


def _support(word: str) -> tuple[int, ...]:
    """The active set of the one-column spike matrix ``word``, one neuron per row."""
    n, log = parse_spike_matrix("\n".join(word))
    assert n == len(word)
    ((_, active),) = log.bins
    return tuple(members(active))


def test_support_paper_word():
    assert _support("1011011100") == (0, 2, 3, 5, 6, 7)


def test_support_all_zero():
    assert _support("000") == ()


def test_support_all_one():
    assert _support("111") == (0, 1, 2)


def test_support_indicator_roundtrip_exhaustive():
    # every pattern on 1 <= n <= 12 neurons, as one column, parses back
    from itertools import combinations

    for n in range(1, 13):
        for size in range(n + 1):
            for members in combinations(range(n), size):
                word = "".join("1" if i in members else "0" for i in range(n))
                assert _support(word) == members


def test_parse_identity_matrix():
    n, log = parse_spike_matrix("1,0\n0,1")
    assert n == 2
    assert [(i, tuple(members(p))) for i, p in log.bins] == [(0, (0,)), (1, (1,))]


def test_parse_triad_layout():
    n, log = parse_spike_matrix(TRIAD_CSV)
    assert n == 9
    expected = [
        (0, (0, 1, 2)),
        (1, (3, 4, 5)),
        (2, (6, 7, 8)),
        (3, (0, 1, 2, 3, 4, 5)),
        (4, (3, 4, 5, 6, 7, 8)),
        (5, (0, 1, 2, 6, 7, 8)),
    ]
    assert [(i, tuple(members(p))) for i, p in log.bins] == expected


def test_parse_rejects_non_binary():
    with pytest.raises(ParseError):
        parse_spike_matrix("1,2")


def test_parse_rejects_ragged():
    with pytest.raises(DimensionError):
        parse_spike_matrix("1,0\n1")


@pytest.mark.parametrize(
    "text, n, bins",
    [("1,0\n\n0,1\n\n", 2, [(0, (0,)), (1, (1,))]), ("", 0, []), ("\n\n", 0, [])],
    ids=["blank-lines", "empty", "only-blank-lines"],
)
def test_parse_skips_blank_lines(text, n, bins):
    log = OccurrenceLog(n, tuple((i, bitmask(ids)) for i, ids in bins))
    assert parse_spike_matrix(text) == (n, log)


def test_log_json_merges_unsorted_and_repeated_ids():
    log = log_from_json_obj({"n": 3, "bins": [[0, [2, 0, 2]]]})
    assert log.bins == ((0, 0b101),)
    assert log_to_json_obj(log) == {"n": 3, "bins": [[0, [0, 2]]]}


REJECTED = {
    "pattern-unsorted": (lambda: Pattern((1, 0)), DimensionError),
    "pattern-negative": (lambda: Pattern((-1, 0)), DimensionError),
    "log-mask-negative": (lambda: OccurrenceLog(3, ((0, -1),)), DimensionError),
    "log-mask-bit-at-n": (lambda: OccurrenceLog(3, ((0, 0b1000),)), DimensionError),
    "log-json-id-negative": (
        lambda: log_from_json_obj({"n": 3, "bins": [[0, [2, -1]]]}),
        DimensionError,
    ),
    # range-checked before the shift, so a huge id allocates no mask
    "log-json-id-huge": (
        lambda: log_from_json_obj({"n": 3, "bins": [[0, [10**18]]]}),
        DimensionError,
    ),
    "generated-complex-past-n": (lambda: _generated_complex([Pattern((0, 3))], 3), DimensionError),
    "complex-mask-empty": (lambda: SimplicialComplex((0, 1), frozenset({0})), DimensionError),
    "complex-mask-negative": (lambda: SimplicialComplex((0, 1), frozenset({-1})), DimensionError),
    "complex-mask-bit-at-n": (
        lambda: SimplicialComplex((0, 1), frozenset({0b101})),
        DimensionError,
    ),
}


@pytest.mark.parametrize("make, error", REJECTED.values(), ids=REJECTED.keys())
def test_malformed_value_rejected(make, error):
    with pytest.raises(error):
        make()


def test_log_rejects_a_negative_bin_index():
    # a log of one bin has no order to break: the index itself is wrong
    with pytest.raises(DimensionError, match="bin index -5 is negative"):
        log_from_json_obj({"n": 2, "bins": [[-5, [0]]]})


def test_parse_header_flag():
    n, log = parse_spike_matrix("t0,t1\n1,0\n0,1", header=True)
    assert n == 2


@given(
    st.tuples(st.integers(1, 32), st.integers(1, 64)).flatmap(
        lambda shape: st.lists(
            st.lists(st.integers(0, 1), min_size=shape[1], max_size=shape[1]),
            min_size=shape[0],
            max_size=shape[0],
        )
    )
)
def test_parse_render_roundtrip(rows):
    n, log = parse_spike_matrix(matrix_to_csv(rows))
    assert n == len(rows)
    assert [(j, tuple(members(p))) for j, p in log.bins] == [
        (j, tuple(i for i, row in enumerate(rows) if row[j])) for j in range(len(rows[0]))
    ]


BAD_CELLS = ["2", "", "x", "10", "-1", "1 1", "1.0"]


@st.composite
def spike_matrix_texts(draw):
    """A 0/1 matrix as CSV text with padded cells, LF or CRLF line ends, blank
    lines and an optional header, and at most one bad cell or ragged row; half
    the examples are plain: no padding or blank line, no header, and each
    line ended by LF."""
    plain = draw(st.booleans())
    rows = draw(
        st.tuples(st.integers(0, 5), st.integers(1, 6)).flatmap(
            lambda shape: st.lists(
                st.lists(st.sampled_from("01"), min_size=shape[1], max_size=shape[1]),
                min_size=shape[0],
                max_size=shape[0],
            )
        )
    )
    fault = draw(st.sampled_from(["none", "cell", "ragged"])) if rows else "none"
    if fault != "none":
        r = draw(st.integers(0, len(rows) - 1))
        if fault == "cell":
            rows[r][draw(st.integers(0, len(rows[r]) - 1))] = draw(st.sampled_from(BAD_CELLS))
        elif len(rows[r]) > 1 and draw(st.booleans()):
            rows[r].pop()
        else:
            rows[r].append("1")
    pad = st.sampled_from([""] if plain else ["", "", " ", "  ", "\t"])
    lines = [",".join(draw(pad) + cell + draw(pad) for cell in row) for row in rows]
    for _ in range(0 if plain else draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), "")
    header = not plain and draw(st.booleans())
    if header:
        lines.insert(0, ",".join(f"t{j}" for j in range(len(rows[0]) if rows else 1)))
    if plain:
        return "".join(line + "\n" for line in lines), header
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end])), header


@given(spike_matrix_texts())
# texts that look plain but are not: an empty cell, a two-character cell,
# CRLF, a quoted cell, no final line end, a blank line
@example(("1,0\n0,,\n", False))
@example(("10,1\n0,1\n", False))
@example(("1,0\r\n0,1\r\n", False))
@example(('"1",0\n0,1\n', False))
@example(("1\n0\n1", False))
@example(("\n", False))
@settings(max_examples=300)
def test_parse_matches_per_cell_oracle(case):
    text, header = case
    try:
        n, log = parse_spike_matrix(text, header)
    except HypercodeError as exc:
        got = (type(exc).__name__, str(exc))
    else:
        got = (n, [(j, tuple(members(p))) for j, p in log.bins])
    assert got == parse_spike_matrix_naive(text, header)


@given(st.lists(st.integers(-3, 8), max_size=6).map(tuple))
def test_pattern_rejects_exactly_negative_or_unsorted(members):
    if any(i < 0 for i in members):
        expected = f"negative neuron index in {members}"
    elif any(a >= b for a, b in zip(members, members[1:])):
        expected = f"pattern members must be strictly sorted: {members}"
    else:
        expected = members
    try:
        got = Pattern(members).members
    except DimensionError as exc:
        got = str(exc)
    assert got == expected


def test_bin_event_boundary():
    log = bin_event_list([(0, 0.4), (1, 0.6)], dt=0.5, n=2)
    assert [(i, tuple(members(p))) for i, p in log.bins] == [(0, (0,)), (1, (1,))]


def test_bin_event_duplicate_collapse():
    log = bin_event_list([(0, 0.1), (0, 0.2)], dt=1.0, n=1)
    assert [(i, tuple(members(p))) for i, p in log.bins] == [(0, (0,))]


def test_bin_event_empty():
    assert bin_event_list([], dt=1.0, n=3).bins == ()


def test_bin_event_lists_only_occupied_bins():
    log = bin_event_list([(0, 0.0), (1, 1e9)], dt=1.0, n=2)
    assert [(i, tuple(members(p))) for i, p in log.bins] == [(0, (0,)), (10**9, (1,))]


def test_bin_event_gaps_render_as_empty_columns():
    events = [(0, 0.2), (2, 1.1), (1, 4.7), (0, 4.9)]
    sparse = bin_event_list(events, dt=1.0, n=3)
    assert [i for i, _ in sparse.bins] == [0, 1, 4]
    grid = [[1, 0, 0, 0, 1], [0, 0, 0, 0, 1], [0, 1, 0, 0, 0]]
    n, dense = parse_spike_matrix(matrix_to_csv(grid))
    assert n == 3 and [i for i, _ in dense.bins] == [0, 1, 2, 3, 4]
    assert [bt for bt in dense.bins if bt[1]] == list(sparse.bins)
    assert build_hyperstructure(sparse) == build_hyperstructure(dense)


def test_bin_event_bad_dt():
    with pytest.raises(ConfigError):
        bin_event_list([(0, 0.1)], dt=0.0, n=1)


def test_bin_event_bad_neuron():
    with pytest.raises(DimensionError):
        bin_event_list([(5, 0.1)], dt=1.0, n=2)


@given(
    st.lists(
        st.tuples(st.integers(0, 4), st.floats(0, 10, allow_nan=False)), max_size=30
    )
)
def test_bin_event_permutation_invariant(events):
    forward = bin_event_list(events, dt=0.5, n=5)
    assert bin_event_list(list(reversed(events)), dt=0.5, n=5) == forward


def _generated_complex(patterns, n):
    """The complex the patterns generate: the level-1 complex with each
    distinct pattern as a bond."""
    sets = sorted({p.members for p in patterns})
    bonds = tuple(Bond(i, 1, s, 1, (i,)) for i, s in enumerate(sets))
    return level_complex(Hyperstructure(n, (bonds,), BuildConfig()), 1)


def test_generated_complex_single_simplex():
    k = _generated_complex([Pattern((0, 1, 2))], 3)
    assert maximal_tuples(k) == frozenset({(0, 1, 2)})


def test_generated_complex_hollow_triangle():
    k = _generated_complex([Pattern((0, 1)), Pattern((1, 2)), Pattern((0, 2))], 3)
    assert maximal_tuples(k) == frozenset({(0, 1), (1, 2), (0, 2)})


def test_generated_complex_absorbs_faces():
    k = _generated_complex([Pattern((0, 1)), Pattern((0, 1, 2))], 3)
    assert maximal_tuples(k) == frozenset({(0, 1, 2)})


@given(
    st.lists(
        st.sets(st.integers(0, 7), min_size=1, max_size=5).map(Pattern.of),
        max_size=12,
    )
)
def test_generated_complex_no_comparable_maximal(patterns):
    k = _generated_complex(patterns, 8)
    sims = list(maximal_tuples(k))
    for a in sims:
        for b in sims:
            assert a == b or not set(a) <= set(b)


# a small universe, so that random families have duplicates, the empty
# tuple and nested members; indices past 64 give multi-word masks
@given(
    st.lists(
        st.sets(st.sampled_from([0, 1, 2, 3, 4, 5, 63, 64, 65, 200]), max_size=5).map(
            lambda s: tuple(sorted(s))
        ),
        max_size=30,
    )
)
def test_maximal_matches_naive(family):
    kept, _ = _maximal((bitmask(s), 0) for s in family)
    assert {tuple(members(mask)) for mask, _ in kept} == maximal_naive(family)


# a class of 64 or more five-vertex masks at one value, whose bond sets are
# added in bulk, among masks that other classes test against them
@given(
    st.sets(st.frozensets(st.integers(0, 9), min_size=5, max_size=5), min_size=64),
    st.lists(
        st.tuples(st.frozensets(st.integers(0, 9), min_size=1, max_size=6), st.integers(0, 1)),
        max_size=100,
    ),
)
@settings(max_examples=30, deadline=None)
def test_maximal_adds_large_classes_in_bulk(large, family):
    valued = [(bitmask(s), 0.0) for s in large] + [(bitmask(s), float(v)) for s, v in family]
    kept, bonds = _maximal(valued)
    assert kept == maximal_by_value_naive(valued)
    assert bonds == {
        v: sum(1 << g for g, (mask, _) in enumerate(kept) if mask >> v & 1)
        for v in set().union(*(members(mask) for mask, _ in kept))
    }


def _faces(generators) -> dict[tuple[int, ...], float]:
    """Every face of (mask, value) generators, with the value it enters at."""
    top = max((mask.bit_count() for mask, _ in generators), default=0) - 1
    return dict(zip(*filtration_faces_naive(generators, top)))


def _bars(generators) -> list[tuple[int, float, float]]:
    """The (dim, birth, death) intervals of positive length of the filtration."""
    faces = _faces(generators)
    return [bar for bar in persistence_naive(list(faces), list(faces.values())) if bar[1] < bar[2]]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sets(st.sampled_from([0, 1, 2, 3, 4, 5, 63, 64, 65, 200]), max_size=4),
            st.integers(0, 3),
        ),
        max_size=8,
    )
)
@example([({0, 2}, 1), ({1, 4}, 1), ({3}, 2), ({0, 3}, 1)])  # two shrink to one mask
@example([({0, 3}, 0), ({2, 3}, 1), ({0, 1}, 2)])  # the visiting order decides which twin goes
@example([({0, 1, 2}, 0), ({0, 1, 3}, 0), ({0, 1, 2, 3}, 2)])  # {0, 1} dominated at 2 only
@example([({0, 1}, 0), ({0, 1, 2, 4}, 1), ({0, 2}, 0)])  # a drop leaves {1, 2} dominated
@example([({1, 2, 4}, 2), ({1, 2, 4, 5}, 3), ({2, 4, 5}, 0), ({1, 5}, 2)])  # a row at two values
@example(  # {1, 3, 4} dominated by 5, and none of its edges
    [
        ({0, 1, 2, 3}, 0),
        ({0, 1, 2, 5}, 0),
        ({0, 2, 3, 5}, 0),
        ({0, 4}, 0),
        ({1, 2, 4}, 0),
        ({1, 3, 4, 5}, 0),
        ({2, 3, 4}, 0),
        ({2, 4, 5}, 0),
    ]
)
@example([({1, 3}, 0), ({1, 3, 4, 5}, 3), ({1, 5}, 1), ({3, 4}, 2)])  # {3, 5} after a later drop
@example(  # a triangle of two generators with no other vertex in common stays
    [({0, 1, 2, 3}, 0), ({0, 1, 2, 4}, 1), ({0, 2, 3, 4}, 3), ({0, 3, 4, 5}, 1), ({2, 3, 4, 64}, 0)]
)
def test_face_collapse_keeps_every_bar(family):
    # the output is a subcomplex at the input's values, filtered as
    # _maximal filters, with no vertex, edge or triangle left that another
    # vertex dominates and every bar of positive length kept
    kept, bonds = _maximal((bitmask(s), float(v)) for s, v in family)
    out, out_bonds = face_collapse(kept, bonds)
    faces = _faces(kept)
    assert all(faces.get(face) == value for face, value in _faces(out).items())
    assert maximal_by_value_naive(out) == out
    assert out_bonds == {
        v: sum(1 << g for g, (mask, _) in enumerate(out) if mask >> v & 1)
        for v in set().union(*(members(mask) for mask, _ in out))
    }
    sets = [set(members(mask)) for mask, _ in out]
    for s in sets:
        for size in 1, 2, 3:
            for face in map(set, combinations(sorted(s), size)):
                assert set.intersection(*(t for t in sets if face <= t)) == face
    assert _bars(out) == _bars(kept)
