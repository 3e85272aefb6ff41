"""Raw data model: codewords, supports, binned spike logs and the code complex.

Neuron indices are 0-based throughout.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from hypercode.errors import ConfigError, DimensionError, ParseError


@dataclass(frozen=True, order=True)
class Pattern:
    """A sorted, duplicate-free set of neuron indices."""

    members: tuple[int, ...]

    @classmethod
    def of(cls, indices: Iterable[int]) -> "Pattern":
        return cls(tuple(sorted(set(indices))))

    def __post_init__(self) -> None:
        if any(i < 0 for i in self.members):
            raise DimensionError(f"negative neuron index in {self.members}")
        if list(self.members) != sorted(set(self.members)):
            raise DimensionError(f"pattern members must be strictly sorted: {self.members}")

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    @property
    def is_empty(self) -> bool:
        return not self.members

    def as_set(self) -> frozenset[int]:
        return frozenset(self.members)


@dataclass(frozen=True)
class Codeword:
    """A binary word marking which neurons fire in one time bin."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(b not in (0, 1) for b in self.bits):
            raise ParseError(f"codeword entries must be 0/1: {self.bits}")

    @property
    def n(self) -> int:
        return len(self.bits)


@dataclass(frozen=True)
class Code:
    """A finite set of distinct codewords of a shared length."""

    words: frozenset[Codeword]
    n: int

    def __post_init__(self) -> None:
        for w in self.words:
            if w.n != self.n:
                raise DimensionError(f"codeword length {w.n} != n={self.n}")

    def __len__(self) -> int:
        return len(self.words)


@dataclass(frozen=True)
class OccurrenceLog:
    """Binned firing record: which neurons were active in each time bin."""

    n: int
    bins: tuple[tuple[int, Pattern], ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise DimensionError(f"neuron count must be >= 0, got {self.n}")
        prev = -1
        for idx, active in self.bins:
            if idx <= prev:
                raise DimensionError("bin indices must be strictly increasing")
            prev = idx
            if active.members and active.members[-1] >= self.n:
                raise DimensionError(
                    f"neuron {active.members[-1]} out of range for n={self.n}"
                )


@dataclass(frozen=True)
class SimplicialComplex:
    """A complex stored by its inclusion-maximal simplices.

    ``vertex_labels`` is the ambient universe; only vertices occurring in
    some maximal simplex belong to the complex.  Faces are not stored:
    :mod:`hypercode.homology` enumerates them from the maximal simplices.

    The constructor trusts its caller that the simplices are pairwise
    incomparable, and checks only that each is nonempty, sorted,
    duplicate-free and indexes ``vertex_labels``.  Build a complex from an
    arbitrary family with :func:`generated_complex`; ``from_json_obj``
    checks maximality too.
    """

    vertex_labels: tuple
    maximal_simplices: frozenset[tuple[int, ...]]

    def __post_init__(self) -> None:
        n = len(self.vertex_labels)
        for s in self.maximal_simplices:
            if not s or list(s) != sorted(set(s)):
                raise DimensionError(f"simplex must be nonempty, sorted and duplicate-free: {s}")
            if s[0] < 0 or s[-1] >= n:
                raise DimensionError(f"vertex index out of range 0..{n - 1} in {s}")

    @property
    def dim(self) -> int:
        if not self.maximal_simplices:
            return -1
        return max(len(s) for s in self.maximal_simplices) - 1

    def to_json_obj(self) -> dict:
        return {
            "vertices": list(self.vertex_labels),
            "maximal": sorted(list(s) for s in self.maximal_simplices),
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "SimplicialComplex":
        try:
            labels = tuple(tuple(v) if isinstance(v, list) else v for v in obj["vertices"])
            sims = frozenset(
                tuple(_json_int(i, "vertex index") for i in s) for s in obj["maximal"]
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed complex JSON: {exc}") from exc
        k = cls(labels, sims)
        extra = sims - maximal_sets(sims)
        if extra:
            raise DimensionError(f"simplex {min(extra)} is not inclusion-maximal")
        return k


def support(word: Codeword) -> Pattern:
    """Index set of the 1-entries of a codeword."""
    return Pattern.of(i for i, b in enumerate(word.bits) if b == 1)


def indicator_word(pattern: Pattern, n: int) -> Codeword:
    """Inverse of :func:`support`: the length-n indicator word of a pattern."""
    if pattern.members and pattern.members[-1] >= n:
        raise DimensionError(f"pattern {pattern.members} exceeds n={n}")
    bits = [0] * n
    for i in pattern:
        bits[i] = 1
    return Codeword(tuple(bits))


def parse_spike_matrix(text: str | Iterable[str], header: bool = False) -> tuple[int, OccurrenceLog]:
    """Parse a CSV spike matrix (rows = neurons, columns = time bins).

    Cells must be 0 or 1; ragged rows are rejected.  Empty bins are
    retained in the log with an empty active set.
    """
    if isinstance(text, str):
        text = io.StringIO(text)
    rows: list[list[int]] = []
    reader = csv.reader(text)
    for rownum, raw in enumerate(reader):
        if header and rownum == 0:
            continue
        if not raw:
            continue
        row = []
        for colnum, cell in enumerate(raw):
            cell = cell.strip()
            if cell not in ("0", "1"):
                raise ParseError(
                    f"non-binary cell {cell!r} at row {len(rows)}, column {colnum}"
                )
            row.append(int(cell))
        rows.append(row)
    if not rows:
        return 0, OccurrenceLog(0, ())
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise DimensionError(f"ragged row {i}: {len(row)} cells, expected {width}")
    n = len(rows)
    bins = tuple(
        (j, Pattern.of(i for i in range(n) if rows[i][j] == 1)) for j in range(width)
    )
    return n, OccurrenceLog(n, bins)


def render_matrix(n: int, log: OccurrenceLog) -> str:
    """Inverse of :func:`parse_spike_matrix` (CSV, no header)."""
    width = max((idx for idx, _ in log.bins), default=-1) + 1
    grid = [[0] * width for _ in range(n)]
    for idx, active in log.bins:
        for i in active:
            grid[i][idx] = 1
    return matrix_to_csv(grid)


def matrix_to_csv(grid: list[list[int]]) -> str:
    """A 0/1 spike matrix, one row per neuron, as the CSV :func:`parse_spike_matrix` reads."""
    return "\n".join(",".join(str(c) for c in row) for row in grid) + ("\n" if grid else "")


def bin_event_list(
    events: Sequence[tuple[int, float]], dt: float, n: int
) -> OccurrenceLog:
    """Bin (neuron_id, timestamp) events into half-open windows [k*dt, (k+1)*dt).

    Only the bins that hold an event are listed.
    """
    if not 0 < dt < math.inf:
        raise ConfigError(f"dt must be positive and finite, got {dt}")
    binned: dict[int, set[int]] = {}
    for neuron, t in events:
        if not 0 <= neuron < n:
            raise DimensionError(f"neuron id {neuron} out of range for n={n}")
        if not 0 <= t < math.inf:
            raise DimensionError(f"timestamp {t} is negative or not finite")
        k = t // dt
        if k == math.inf:
            raise DimensionError(f"bin index of timestamp {t} at dt={dt} is not finite")
        binned.setdefault(int(k), set()).add(neuron)
    return OccurrenceLog(n, tuple((k, Pattern.of(binned[k])) for k in sorted(binned)))


def code_of_log(log: OccurrenceLog) -> Code:
    """Distinct nonempty active sets of a log, re-encoded as codewords."""
    patterns = {active for _, active in log.bins if not active.is_empty}
    return Code(frozenset(indicator_word(p, log.n) for p in patterns), log.n)


def bitmask(ids: Iterable[int]) -> int:
    """The int with bit i set for every index i in ``ids``."""
    mask = 0
    for i in ids:
        mask |= 1 << i
    return mask


def members(mask: int) -> Iterator[int]:
    """Inverse of :func:`bitmask`: the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def maximal_sets(family: Iterable[tuple[int, ...]]) -> set[tuple[int, ...]]:
    """Inclusion-maximal members of a family of sorted index tuples.

    The empty tuple is dropped; a negative index raises DimensionError.
    Distinct tuples are visited in decreasing size, so a tuple is maximal
    iff its bitmask lies in no mask kept so far.
    """
    kept: list[int] = []
    out: set[tuple[int, ...]] = set()
    for s in sorted(set(family), key=len, reverse=True):
        if not s:
            break
        if s[0] < 0:
            raise DimensionError(f"negative index in {s}")
        mask = bitmask(s)
        if not any(mask & m == mask for m in kept):
            kept.append(mask)
            out.add(s)
    return out


def generated_complex(patterns: Iterable[Pattern], n: int) -> SimplicialComplex:
    """Smallest simplicial complex containing every given pattern.

    Vertices are the neuron ids 0..n-1; maximal simplices are the
    inclusion-maximal patterns.
    """
    maximal = maximal_sets(p.members for p in patterns)
    for s in maximal:
        if s[-1] >= n:
            raise DimensionError(f"pattern {s} exceeds n={n}")
    return SimplicialComplex(tuple(range(n)), frozenset(maximal))


def log_to_json_obj(log: OccurrenceLog) -> dict:
    return {
        "n": log.n,
        "bins": [[idx, list(active.members)] for idx, active in log.bins],
    }


def _json_int(x, what: str) -> int:
    if type(x) is not int:
        raise ParseError(f"{what} must be an integer, got {x!r}")
    return x


def log_from_json_obj(obj: dict) -> OccurrenceLog:
    try:
        n = _json_int(obj["n"], "n")
        bins = tuple(
            (_json_int(idx, "bin index"), Pattern.of(_json_int(i, "neuron id") for i in members))
            for idx, members in obj["bins"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed log JSON: {exc}") from exc
    return OccurrenceLog(n, bins)
