"""GF(2) column reduction on big-int bitset columns."""

from __future__ import annotations

GF2_BACKEND = "python"


def reduce_lows(columns, n_rows):
    """Left-to-right column reduction over GF(2).

    ``columns`` is any iterable (a generator too) of row-index iterables,
    one per column, each in any row order; an empty one is a zero column.
    Returns, for each column, the row index of its lowest 1 after
    reduction, or -1 if the column was zeroed out.  The number of
    non-negative entries is the rank of the matrix.
    """
    lows: list[int] = []
    reduced: list[int] = []
    low_to_col: dict[int, int] = {}
    for rows in columns:
        bits = 0
        for r in rows:
            bits |= 1 << r
        while bits:
            low = bits.bit_length() - 1
            pivot = low_to_col.get(low)
            if pivot is None:
                break
            bits ^= reduced[pivot]
        reduced.append(bits)
        if bits:
            low = bits.bit_length() - 1
            low_to_col[low] = len(reduced) - 1
            lows.append(low)
        else:
            lows.append(-1)
    return lows


def rank(columns, n_rows):
    """GF(2) rank of a sparse column matrix."""
    return sum(1 for low in reduce_lows(columns, n_rows) if low >= 0)
