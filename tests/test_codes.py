from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from hypercode.codes import (
    Code,
    Codeword,
    OccurrenceLog,
    Pattern,
    SimplicialComplex,
    bin_event_list,
    code_of_log,
    generated_complex,
    indicator_word,
    maximal_sets,
    parse_spike_matrix,
    render_matrix,
    support,
)
from hypercode.errors import ConfigError, DimensionError, ParseError
from hypercode.hyperstructure import build_hyperstructure

from conftest import TRIAD_CSV
from oracles import maximal_naive


def test_support_paper_word():
    word = Codeword((1, 0, 1, 1, 0, 1, 1, 1, 0, 0))
    assert support(word).members == (0, 2, 3, 5, 6, 7)


def test_support_all_zero():
    assert support(Codeword((0, 0, 0))).members == ()


def test_support_all_one():
    assert support(Codeword((1, 1, 1))).members == (0, 1, 2)


def test_support_indicator_roundtrip_exhaustive():
    # every pattern on n <= 12 neurons survives the roundtrip
    from itertools import combinations

    for n in range(13):
        for size in range(n + 1):
            for members in combinations(range(n), size):
                p = Pattern(members)
                assert support(indicator_word(p, n)) == p


def test_parse_identity_matrix():
    n, log = parse_spike_matrix("1,0\n0,1")
    assert n == 2
    assert [(i, p.members) for i, p in log.bins] == [(0, (0,)), (1, (1,))]


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
    assert [(i, p.members) for i, p in log.bins] == expected


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
    log = OccurrenceLog(n, tuple((i, Pattern(members)) for i, members in bins))
    assert parse_spike_matrix(text) == (n, log)


REJECTED = {
    "pattern-unsorted": (lambda: Pattern((1, 0)), DimensionError),
    "pattern-negative": (lambda: Pattern((-1, 0)), DimensionError),
    "codeword-not-binary": (lambda: Codeword((0, 2)), ParseError),
    "code-word-length": (lambda: Code(frozenset({Codeword((0, 1))}), 3), DimensionError),
    "indicator-word-past-n": (lambda: indicator_word(Pattern((0, 3)), 3), DimensionError),
    "generated-complex-past-n": (lambda: generated_complex([Pattern((0, 3))], 3), DimensionError),
}


@pytest.mark.parametrize("make, error", REJECTED.values(), ids=REJECTED.keys())
def test_malformed_value_rejected(make, error):
    with pytest.raises(error):
        make()


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
    text = "\n".join(",".join(map(str, r)) for r in rows)
    n, log = parse_spike_matrix(text)
    assert render_matrix(n, log).strip() == text.strip()


def test_bin_event_boundary():
    log = bin_event_list([(0, 0.4), (1, 0.6)], dt=0.5, n=2)
    assert [(i, p.members) for i, p in log.bins] == [(0, (0,)), (1, (1,))]


def test_bin_event_duplicate_collapse():
    log = bin_event_list([(0, 0.1), (0, 0.2)], dt=1.0, n=1)
    assert [(i, p.members) for i, p in log.bins] == [(0, (0,))]


def test_bin_event_empty():
    assert bin_event_list([], dt=1.0, n=3).bins == ()


def test_bin_event_lists_only_occupied_bins():
    log = bin_event_list([(0, 0.0), (1, 1e9)], dt=1.0, n=2)
    assert [(i, p.members) for i, p in log.bins] == [(0, (0,)), (10**9, (1,))]


def test_bin_event_gaps_render_as_empty_columns():
    events = [(0, 0.2), (2, 1.1), (1, 4.7), (0, 4.9)]
    sparse = bin_event_list(events, dt=1.0, n=3)
    assert [i for i, _ in sparse.bins] == [0, 1, 4]
    dense = OccurrenceLog(3, tuple((k, dict(sparse.bins).get(k, Pattern(()))) for k in range(5)))
    assert render_matrix(3, sparse) == render_matrix(3, dense)
    assert code_of_log(sparse) == code_of_log(dense)
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


def test_code_of_log_triad():
    _, log = parse_spike_matrix(TRIAD_CSV)
    code = code_of_log(log)
    assert len(code) == 6
    supports = {support(w).members for w in code.words}
    assert supports == {
        (0, 1, 2),
        (3, 4, 5),
        (6, 7, 8),
        (0, 1, 2, 3, 4, 5),
        (3, 4, 5, 6, 7, 8),
        (0, 1, 2, 6, 7, 8),
    }


def test_code_of_log_dedup():
    n, log = parse_spike_matrix("1,1\n0,0")
    assert len(code_of_log(log)) == 1


def test_code_of_log_all_empty():
    n, log = parse_spike_matrix("0,0\n0,0")
    assert len(code_of_log(log)) == 0


def test_generated_complex_single_simplex():
    k = generated_complex([Pattern((0, 1, 2))], 3)
    assert k.maximal_simplices == frozenset({(0, 1, 2)})


def test_generated_complex_hollow_triangle():
    k = generated_complex([Pattern((0, 1)), Pattern((1, 2)), Pattern((0, 2))], 3)
    assert k.maximal_simplices == frozenset({(0, 1), (1, 2), (0, 2)})


def test_generated_complex_absorbs_faces():
    k = generated_complex([Pattern((0, 1)), Pattern((0, 1, 2))], 3)
    assert k.maximal_simplices == frozenset({(0, 1, 2)})


@given(
    st.lists(
        st.sets(st.integers(0, 7), min_size=1, max_size=5).map(Pattern.of),
        max_size=12,
    )
)
def test_generated_complex_no_comparable_maximal(patterns):
    k = generated_complex(patterns, 8)
    sims = list(k.maximal_simplices)
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
def test_maximal_sets_matches_naive(family):
    assert maximal_sets(family) == maximal_naive(family)


def test_maximal_sets_rejects_negative_index():
    with pytest.raises(DimensionError):
        maximal_sets([(-1, 0)])


def test_simplicial_complex_rejects_non_maximal_simplex():
    # the loader checks maximality; the constructor trusts its caller
    sims = [[0, 1], [0, 1, 2]]
    with pytest.raises(DimensionError, match=r"\(0, 1\)"):
        SimplicialComplex.from_json_obj({"vertices": [0, 1, 2], "maximal": sims})


@pytest.mark.parametrize("simplex", [(1, 0), (0, 0), (-1,), (2,), ()])
def test_simplicial_complex_rejects_bad_simplex(simplex):
    with pytest.raises(DimensionError):
        SimplicialComplex((0, 1), frozenset({simplex}))


@pytest.mark.parametrize(
    "obj",
    [
        {"maximal": [[0]]},
        {"vertices": [0], "maximal": [["a"]]},
        {"vertices": [0, 1], "maximal": [[0.5]]},
        {"vertices": 3, "maximal": [[0]]},
        {"vertices": [0], "maximal": 7},
        [],
        {"vertices": [0, 1], "maximal": [[True]]},
    ],
)
def test_complex_loader_raises_parse_error(obj):
    with pytest.raises(ParseError):
        SimplicialComplex.from_json_obj(obj)
