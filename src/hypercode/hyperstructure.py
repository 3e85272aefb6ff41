"""Leveled cofiring structure: patterns, patterns of patterns, and boundaries.

Level-1 bonds bind neurons; a level-(l+1) bond binds level-l bonds that were
co-realized in one time bin.  Construction is a single chronological pass
over the bins of an :class:`~hypercode.codes.OccurrenceLog`.
"""

from __future__ import annotations

import bisect
from dataclasses import asdict, dataclass, fields
from typing import Sequence

from hypercode.codes import OccurrenceLog, Pattern, _json_int, bitmask
from hypercode.errors import BondLookupError, ConfigError, LevelRangeError, ParseError

DECOMPOSITION_MODES = ("exact-cover", "subset-realization")


@dataclass(frozen=True)
class Bond:
    """One pattern at one level, with its occurrence statistics.

    ``constituents`` holds neuron indices at level 1 and bond ids of the
    level below at levels >= 2.
    """

    id: int
    level: int
    constituents: tuple[int, ...]
    count: int
    bins: tuple[int, ...]


@dataclass(frozen=True)
class BuildConfig:
    max_level: int = 3
    decomposition: str = "exact-cover"
    min_count: int = 1
    two_pass: bool = False
    keep_union_words: bool = False

    def validate(self) -> None:
        if self.max_level < 1:
            raise ConfigError(f"max_level must be >= 1, got {self.max_level}")
        if self.decomposition not in DECOMPOSITION_MODES:
            raise ConfigError(
                f"decomposition must be one of {DECOMPOSITION_MODES}, "
                f"got {self.decomposition!r}"
            )
        if self.min_count < 1:
            raise ConfigError(f"min_count must be >= 1, got {self.min_count}")

    def to_json_obj(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_obj(cls, obj: dict) -> "BuildConfig":
        """Read exactly the five fields, integers and flags of their JSON types."""
        if set(obj) != {f.name for f in fields(cls)}:
            raise ParseError(f"config keys must be the BuildConfig fields, got {sorted(obj)}")
        for name in ("max_level", "min_count"):
            _json_int(obj[name], f"config {name}")
        for name in ("two_pass", "keep_union_words"):
            if type(obj[name]) is not bool:
                raise ParseError(f"config {name} must be true or false, got {obj[name]!r}")
        cfg = cls(**obj)
        cfg.validate()
        return cfg


@dataclass(frozen=True)
class Hyperstructure:
    """The leveled collection of bonds built from one dataset."""

    n: int
    levels: tuple[tuple[Bond, ...], ...]
    config: BuildConfig

    @property
    def k(self) -> int:
        return len(self.levels)

    def level(self, i: int) -> tuple[Bond, ...]:
        """The level-i bonds; raises ``LevelRangeError`` unless 1 <= i <= k.

        Every query by level goes through this one range check."""
        if not 1 <= i <= self.k:
            raise LevelRangeError(f"level {i} out of range 1..{self.k}")
        return self.levels[i - 1]

    def width(self, i: int) -> int:
        """How many level-i items there are: the neurons at level 0, else the bonds."""
        return len(self.level(i)) if i else self.n

    def bond(self, level: int, bond_id: int) -> Bond:
        bonds = self.level(level)
        if not 0 <= bond_id < len(bonds):
            raise BondLookupError(f"no bond {bond_id} at level {level}")
        return bonds[bond_id]

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "config": self.config.to_json_obj(),
            "levels": [
                [
                    {
                        "id": b.id,
                        "constituents": list(b.constituents),
                        "count": b.count,
                        "bins": list(b.bins),
                    }
                    for b in bonds
                ]
                for bonds in self.levels
            ],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Hyperstructure":
        """Load an artifact, checking ids, nonempty constituents, bins and counts."""
        try:
            config = BuildConfig.from_json_obj(obj["config"])
            n = _json_int(obj["n"], "n")
            if n < 0:
                raise ParseError(f"n must be >= 0, got {n}")
            levels: list[tuple[Bond, ...]] = []
            for lvl, bonds in enumerate(obj["levels"], start=1):
                if not bonds:
                    raise ParseError(f"level {lvl} has no bonds")
                universe = n if lvl == 1 else len(levels[-1])
                level = []
                for pos, b in enumerate(bonds):
                    where = f"level {lvl} bond {pos}"
                    if _json_int(b["id"], f"{where} id") != pos:
                        raise ParseError(f"{where}: id {b['id']} is not its position")
                    members = _increasing(b["constituents"], f"{where} constituents", universe)
                    if not members:
                        raise ParseError(f"{where}: no constituents")
                    bins = _increasing(b["bins"], f"{where} bins")
                    if _json_int(b["count"], f"{where} count") != len(bins):
                        raise ParseError(f"{where}: count {b['count']} != {len(bins)} bins")
                    level.append(Bond(pos, lvl, members, len(bins), bins))
                levels.append(tuple(level))
            return cls(n, tuple(levels), config)
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed hyperstructure JSON: {exc}") from exc


def _increasing(xs, what: str, universe: int | None = None) -> tuple[int, ...]:
    """Strictly increasing ints, each in 0..universe-1 when a universe is given."""
    out = tuple(_json_int(x, what) for x in xs)
    if any(a >= b for a, b in zip(out, out[1:])):
        raise ParseError(f"{what} must be strictly increasing, got {list(out)}")
    if universe is not None and out and (out[0] < 0 or out[-1] >= universe):
        raise ParseError(f"{what} {list(out)} outside 0..{universe - 1}")
    return out


def _inside(masks: Sequence[int], mask: int) -> list[int]:
    """Ids, ascending, of the known masks that lie inside ``mask``."""
    return [i for i, m in enumerate(masks) if m & mask == m]


def _realize(
    active: int, masks: Sequence[int], order: Sequence[tuple], mode: str
) -> tuple[int, ...]:
    """Ids of the known level-1 masks that ``active`` realizes; () if none.

    ``order`` lists ``(-size, members, id)`` for every mask, sorted: the
    exact-cover greedy takes disjoint candidates in that order.
    """
    if mode == "subset-realization":
        return tuple(_inside(masks, active))
    remaining = active
    chosen: list[int] = []
    for _, _, i in order:
        m = masks[i]
        if m & remaining == m:
            remaining ^= m
            chosen.append(i)
            if not remaining:
                return tuple(chosen)
    return ()


def realize_level1(
    active: Pattern, known: Sequence[Pattern], mode: str = "exact-cover"
) -> tuple[int, ...]:
    """Positions in ``known`` of the level-1 patterns a bin's active set realizes.

    exact-cover: greedy disjoint cover, candidates ordered by
    (size desc, members asc); anything short of an exact cover realizes
    nothing.  subset-realization: every known pattern contained in the
    active set is realized.  An empty result means the active set is a
    new level-1 pattern.
    """
    if active.is_empty:
        raise ConfigError("active set must be nonempty")
    if mode not in DECOMPOSITION_MODES:
        raise ConfigError(f"unknown decomposition mode {mode!r}")
    order = sorted((-len(p), p.members, i) for i, p in enumerate(known))
    return _realize(bitmask(active), [bitmask(p) for p in known], order, mode)


class _Builder:
    """Mutable working state for one chronological pass."""

    def __init__(self, max_level: int):
        self.max_level = max_level
        # per level: list of (constituents, bins); a bond's count is len(bins)
        self.levels: list[list[tuple]] = [[] for _ in range(max_level)]
        self.index: list[dict[tuple[int, ...], int]] = [{} for _ in range(max_level)]
        # per level, by bond id: constituents as a bitmask (neuron bits at
        # level 1, lower-level bond ids above)
        self.masks: list[list[int]] = [[] for _ in range(max_level)]
        self.order: list[tuple] = []  # level 1: (-size, members, id), sorted

    def register(self, level: int, constituents: tuple[int, ...]) -> int:
        table = self.index[level - 1]
        bid = table.get(constituents)
        if bid is None:
            bid = len(self.levels[level - 1])
            table[constituents] = bid
            self.levels[level - 1].append((constituents, []))
            self.masks[level - 1].append(bitmask(constituents))
            if level == 1:
                bisect.insort(self.order, (-len(constituents), constituents, bid))
        return bid

    def process_bin(self, t: int, active: Pattern, mode: str, keep_union: bool) -> None:
        realized = set(_realize(bitmask(active), self.masks[0], self.order, mode))
        if not realized or (keep_union and mode == "exact-cover" and len(realized) >= 2):
            realized.add(self.register(1, active.members))
        current = sorted(realized)
        for bid in current:
            self.levels[0][bid][1].append(t)
        for lvl in range(1, self.max_level):
            if len(current) < 2:
                break
            # the new bond's mask is the mask of ``current``, so it lies inside
            self.register(lvl + 1, tuple(current))
            current = _inside(self.masks[lvl], bitmask(current))
            for bid in current:
                self.levels[lvl][bid][1].append(t)


def build_hyperstructure(log: OccurrenceLog, config: BuildConfig | None = None) -> Hyperstructure:
    """Detect level-1 patterns and iterated co-realizations from a log.

    A single chronological pass over the bins; deterministic given the log
    and the config.  After the pass, bonds below ``min_count`` are dropped
    and the survivors renumbered per level.  Dropping by count alone
    leaves no bond above a dropped one: a level-(l+1) bond records a bin
    only where each of its constituents recorded it, so its count is at
    most each constituent's count.
    """
    config = config or BuildConfig()
    config.validate()
    builder = _Builder(config.max_level)

    if config.two_pass:
        # Pass 1 only collects the level-1 vocabulary; counts accrue in pass 2.
        prepass = _Builder(1)
        for t, active in log.bins:
            if not active.is_empty:
                prepass.process_bin(t, active, config.decomposition, config.keep_union_words)
        for constituents, _ in prepass.levels[0]:
            builder.register(1, constituents)

    for t, active in log.bins:
        if not active.is_empty:
            builder.process_bin(t, active, config.decomposition, config.keep_union_words)

    # Prune by count, reindexing per level; an orphan would raise at remap[c].
    levels: list[tuple[Bond, ...]] = []
    remap: dict[int, int] = {}
    for lvl0, bonds in enumerate(builder.levels):
        level = lvl0 + 1
        survivors: list[Bond] = []
        new_remap: dict[int, int] = {}
        for bid, (constituents, bins) in enumerate(bonds):
            if len(bins) < config.min_count:
                continue
            if level >= 2:
                constituents = tuple(remap[c] for c in constituents)  # remap keeps order
            new_remap[bid] = len(survivors)
            survivors.append(
                Bond(
                    id=len(survivors),
                    level=level,
                    constituents=constituents,
                    count=len(bins),
                    bins=tuple(bins),
                )
            )
        remap = new_remap
        levels.append(tuple(survivors))
    while levels and not levels[-1]:
        levels.pop()
    return Hyperstructure(log.n, tuple(levels), config)


def level_generators(h: Hyperstructure, i: int) -> list[tuple[tuple[int, ...], int]]:
    """The (simplex, count) pairs that generate the level-i complex.

    Its vertices are the level-(i-1) items (neurons at i = 1).  Each
    level-i bond is a simplex at its own count; each level-(i-1) bond that
    no level-i bond binds is an isolated vertex, counted as often as the
    most frequent level-i bond so that it enters a frequency filtration
    first.
    """
    bonds = h.level(i)
    generators = [(b.constituents, b.count) for b in bonds]
    if i >= 2:
        covered = {c for b in bonds for c in b.constituents}
        c_max = max(b.count for b in bonds)
        generators.extend(((b.id,), c_max) for b in h.level(i - 1) if b.id not in covered)
    return generators


def boundary(h: Hyperstructure, level: int, bond_id: int) -> frozenset[int]:
    """Constituent ids of a bond one level down ("dissolving the bond")."""
    if level < 2:
        raise BondLookupError(f"boundary requires level >= 2, got {level}")
    return frozenset(h.bond(level, bond_id).constituents)


def downset(h: Hyperstructure, level: int, bond_id: int, target: int) -> frozenset[int]:
    """Iterated boundary down to ``target``; target 0 gives the neuron support."""
    if not 0 <= target < level:
        raise BondLookupError(f"target {target} must satisfy 0 <= target < {level}")
    current = frozenset({bond_id})
    for lvl in range(level, target, -1):
        current = frozenset(c for bid in current for c in h.bond(lvl, bid).constituents)
    return current


def canonical_form(h: Hyperstructure, level: int, bond_id: int) -> str:
    """Fully expanded nested-set rendering; equal iff structurally equal."""
    bond = h.bond(level, bond_id)
    if level == 1:
        return "{" + ",".join(str(i) for i in bond.constituents) + "}"
    parts = sorted(canonical_form(h, level - 1, c) for c in bond.constituents)
    return "{" + ",".join(parts) + "}"
