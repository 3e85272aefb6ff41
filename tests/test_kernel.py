from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from hypercode import _gf2
from oracles import gf2_lows_dense, gf2_rank_dense


def _rank(columns):
    return sum(1 for low in _gf2.reduce_lows(columns) if low >= 0)


def _dense(columns, n_rows):
    mat = [[0] * len(columns) for _ in range(n_rows)]
    for j, rows in enumerate(columns):
        for r in rows:
            mat[r][j] = 1
    return mat


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 40).flatmap(
        lambda n: st.lists(
            st.sets(st.integers(0, n - 1), max_size=n).map(sorted), max_size=25
        ).map(lambda cols: (n, cols))
    )
)
def test_rank_matches_dense_oracle(case):
    n_rows, columns = case
    assert _rank(columns) == gf2_rank_dense(_dense(columns, n_rows))


@st.composite
def _columns(draw):
    """Unsorted columns with repeated rows and empty ones, plus a run of
    columns sharing one low, so one stored pivot is XORed several times."""
    n_rows = draw(st.integers(1, 40))
    shared = draw(st.integers(0, n_rows - 1))
    anywhere = st.lists(st.integers(0, n_rows - 1), max_size=n_rows + 3)
    on_shared = st.lists(st.integers(0, shared), max_size=shared + 2).map(
        lambda rows: rows + [shared]
    )
    return n_rows, draw(st.lists(st.one_of(anywhere, on_shared), max_size=25))


@settings(max_examples=200, deadline=None)
@given(_columns(), st.booleans())
@example((5, [[3, 1], [3], [3, 0], [3, 1, 0], [], [2, 2]]), True)
def test_reduce_lows_matches_dense_oracle(case, generators):
    n_rows, columns = case
    expected = gf2_lows_dense(columns, n_rows)
    if generators:
        columns = ((r for r in rows) for rows in columns)
    assert _gf2.reduce_lows(columns) == expected


def test_empty_matrix():
    assert _gf2.reduce_lows([]) == []
    assert _rank([[], []]) == 0


def test_known_small_case():
    # hollow triangle boundary: rank 2, third column zeroed
    columns = [[0, 1], [1, 2], [0, 2]]
    lows = _gf2.reduce_lows(columns)
    assert lows[0] == 1 and lows[1] == 2 and lows[2] == -1
