from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from hypercode import _gf2
from oracles import gf2_lows_dense, gf2_rank_dense


def _pairs(columns):
    """Row lists as the kernel's (low, key) columns, key j for
    ``columns[j]``, so ``columns.__getitem__`` builds them."""
    return [(max(rows, default=-1), j) for j, rows in enumerate(columns)]


def _rank(columns):
    return sum(1 for low in _gf2.reduce_lows(_pairs(columns), columns.__getitem__) if low >= 0)


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
    pairs, rows = _pairs(columns), columns.__getitem__
    if generators:
        pairs, rows = iter(pairs), lambda j: (r for r in columns[j])
    assert _gf2.reduce_lows(pairs, rows) == expected


@settings(max_examples=100, deadline=None)
@given(_columns(), st.data())
def test_sparse_keys_map_to_oracle_lows(case, data):
    # keys need not be dense indices: any strictly increasing map of the
    # rows, here into ints >= 2**40, must map the lows the same way, and a
    # column's key may be any distinct int, here 2**80 apart
    n_rows, columns = case
    gaps = data.draw(st.lists(st.integers(1, 2**70), min_size=n_rows, max_size=n_rows))
    key, total = [], 2**40
    for gap in gaps:
        total += gap
        key.append(total)
    mapped = {(j + 1) << 80: [key[r] for r in rows] for j, rows in enumerate(columns)}
    pairs = [(max(rows, default=-1), j) for j, rows in mapped.items()]
    expected = [key[low] if low >= 0 else -1 for low in gf2_lows_dense(columns, n_rows)]
    assert _gf2.reduce_lows(pairs, mapped.__getitem__) == expected


@settings(max_examples=100, deadline=None)
@given(_columns())
def test_rows_built_only_on_collision(case):
    # a column is built only when its low is already a pivot's, any column
    # at most once (a stored pivot at its first XOR), and only from a key
    # already passed in
    n_rows, columns = case
    passed: list[int] = []
    calls: list[tuple[int, int]] = []  # (column built, column being reduced)

    def stream():
        for j, rows in enumerate(columns):
            passed.append(j)
            yield max(rows, default=-1), j

    def build(j):
        assert j in passed
        calls.append((j, passed[-1]))
        return columns[j]

    lows = _gf2.reduce_lows(stream(), build)
    assert lows == gf2_lows_dense(columns, n_rows)
    built = [j for j, _ in calls]
    assert len(built) == len(set(built))
    pivots: set[int] = set()
    for j, rows in enumerate(columns):
        if max(rows, default=-1) not in pivots:
            assert (j, j) not in calls
        if lows[j] >= 0:
            pivots.add(lows[j])


def test_empty_matrix():
    assert _gf2.reduce_lows([], [].__getitem__) == []
    assert _rank([[], []]) == 0


def test_known_small_case():
    # hollow triangle boundary: rank 2, third column zeroed
    columns = [[0, 1], [1, 2], [0, 2]]
    lows = _gf2.reduce_lows(_pairs(columns), columns.__getitem__)
    assert lows[0] == 1 and lows[1] == 2 and lows[2] == -1
