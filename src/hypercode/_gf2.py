"""GF(2) column reduction on sparse columns, promoted to big-int bitsets."""

from __future__ import annotations

from hypercode.codes import bitmask

GF2_BACKEND = "python"


def reduce_lows(columns):
    """Left-to-right column reduction over GF(2).

    ``columns`` is any iterable (a generator too) of row-index iterables,
    one per column, each in any row order; an empty one is a zero column
    and a repeated row index counts once.  Returns, for each column, the
    row index of its lowest 1 after reduction, or -1 if the column was
    zeroed out.  The number of non-negative entries is the rank of the
    matrix.

    Columns stay sparse until their first XOR: a column is kept as its
    row tuple with low ``max(rows)``, and becomes a big-int bitset only
    when that low is already a pivot's.  A stored pivot is converted to
    a big-int the first time it is XORed into another column.
    """
    lows: list[int] = []
    pivots: dict[int, tuple[int, ...] | int] = {}
    for rows in columns:
        column = tuple(rows)
        low = max(column, default=-1)
        pivot = pivots.get(low)
        if pivot is not None:
            column = bitmask(column)
            while pivot is not None:
                if type(pivot) is tuple:
                    pivot = pivots[low] = bitmask(pivot)
                column ^= pivot
                low = column.bit_length() - 1
                pivot = pivots.get(low)
        if low >= 0:
            pivots[low] = column
        lows.append(low)
    return lows
