"""GF(2) column reduction on columns built only when they collide."""

from __future__ import annotations

GF2_BACKEND = "python"


def reduce_lows(columns, rows):
    """Left-to-right column reduction over GF(2).

    ``columns`` is any iterable (a generator too) of (low, key) int pairs,
    one per column.  ``rows(key)`` returns the column's row keys, any
    non-negative ints in any order, a repeated key counting once; ``low``
    is their maximum, or -1 for a zero column.  Returns, for each column,
    the row key of its lowest 1 after reduction, or -1 if the column was
    zeroed out.  The number of non-negative entries is the rank of the
    matrix.

    ``rows`` is called only on a collision, when ``low`` is already a
    pivot's, and only with a key passed in: a stored pivot is its key
    until it is first XORed into another column, and its built set after
    that.  So a zero column's key is never read, and a column that never
    collides is never built.  Keys can be too sparse for bitsets, so a
    built column is a set of keys and XOR is symmetric difference.
    """
    lows: list[int] = []
    pivots: dict[int, int | set[int]] = {}  # low -> its column: key, or the built set
    for low, column in columns:
        pivot = pivots.get(low)
        if pivot is not None:
            column = set(rows(column))
            while pivot is not None:
                if type(pivot) is not set:
                    pivot = pivots[low] = set(rows(pivot))
                column ^= pivot
                low = max(column, default=-1)
                pivot = pivots.get(low)
        if low >= 0:
            pivots[low] = column
        lows.append(low)
    return lows
