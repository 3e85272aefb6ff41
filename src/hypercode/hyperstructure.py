"""Leveled cofiring structure: patterns, patterns of patterns, and boundaries.

Level-1 bonds bind neurons; a level-(l+1) bond binds level-l bonds that were
co-realized in one time bin.  Construction is a single chronological pass
over the bins of an :class:`~hypercode.codes.OccurrenceLog`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from hypercode.codes import OccurrenceLog, Pattern
from hypercode.errors import BondLookupError, ConfigError, ParseError

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
        return {
            "max_level": self.max_level,
            "decomposition": self.decomposition,
            "min_count": self.min_count,
            "two_pass": self.two_pass,
            "keep_union_words": self.keep_union_words,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "BuildConfig":
        cfg = cls(**{k: obj[k] for k in obj})
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
        if not 1 <= i <= self.k:
            raise BondLookupError(f"level {i} out of range 1..{self.k}")
        return self.levels[i - 1]

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
        try:
            config = BuildConfig.from_json_obj(obj["config"])
            levels = tuple(
                tuple(
                    Bond(
                        id=b["id"],
                        level=lvl + 1,
                        constituents=tuple(b["constituents"]),
                        count=b["count"],
                        bins=tuple(b["bins"]),
                    )
                    for b in bonds
                )
                for lvl, bonds in enumerate(obj["levels"])
            )
            return cls(int(obj["n"]), levels, config)
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed hyperstructure JSON: {exc}") from exc


@dataclass(frozen=True)
class Cover:
    """Realization of an active set by already-known level-1 patterns."""

    pattern_ids: tuple[int, ...]


@dataclass(frozen=True)
class NewPattern:
    """An active set that did not decompose: a fresh level-1 pattern."""

    pattern: Pattern


def realize_level1(
    active: Pattern, known: Sequence[Pattern], mode: str = "exact-cover"
) -> Union[Cover, NewPattern]:
    """Decide which known level-1 patterns a bin's active set realizes.

    exact-cover: greedy disjoint cover, candidates ordered by
    (size desc, members asc); anything short of an exact cover yields a
    NewPattern.  subset-realization: every known pattern contained in the
    active set counts as realized.
    """
    if active.is_empty:
        raise ConfigError("active set must be nonempty")
    if mode == "exact-cover":
        order = sorted(range(len(known)), key=lambda i: (-len(known[i]), known[i].members))
        remaining = set(active.members)
        chosen: list[int] = []
        for idx in order:
            if known[idx].as_set() <= remaining:
                remaining -= known[idx].as_set()
                chosen.append(idx)
                if not remaining:
                    break
        if not remaining and chosen:
            return Cover(tuple(chosen))
        return NewPattern(active)
    if mode == "subset-realization":
        hits = tuple(i for i, p in enumerate(known) if p.as_set() <= active.as_set())
        if hits:
            return Cover(hits)
        return NewPattern(active)
    raise ConfigError(f"unknown decomposition mode {mode!r}")


class _Builder:
    """Mutable working state for one chronological pass."""

    def __init__(self, n: int, max_level: int):
        self.n = n
        self.max_level = max_level
        # per level: list of [constituents, count, [bins]]
        self.levels: list[list[list]] = [[] for _ in range(max_level)]
        self.index: list[dict[tuple[int, ...], int]] = [{} for _ in range(max_level)]

    def register(self, level: int, constituents: tuple[int, ...]) -> int:
        table = self.index[level - 1]
        bid = table.get(constituents)
        if bid is None:
            bid = len(self.levels[level - 1])
            table[constituents] = bid
            self.levels[level - 1].append([constituents, 0, []])
        return bid

    def hit(self, level: int, bond_id: int, t: int) -> None:
        entry = self.levels[level - 1][bond_id]
        if not entry[2] or entry[2][-1] != t:
            entry[1] += 1
            entry[2].append(t)

    def level1_patterns(self) -> list[Pattern]:
        return [Pattern(c) for c, _, _ in self.levels[0]]

    def process_bin(self, t: int, active: Pattern, mode: str, keep_union: bool) -> None:
        res = realize_level1(active, self.level1_patterns(), mode)
        if isinstance(res, NewPattern):
            realized = {self.register(1, res.pattern.members)}
        else:
            realized = set(res.pattern_ids)
            if keep_union and mode == "exact-cover" and len(res.pattern_ids) >= 2:
                realized.add(self.register(1, active.members))
        for bid in realized:
            self.hit(1, bid, t)
        current = realized
        for lvl in range(1, self.max_level):
            if len(current) < 2:
                break
            key = tuple(sorted(current))
            new_id = self.register(lvl + 1, key)
            nxt = {
                bid
                for bid, (constituents, _, _) in enumerate(self.levels[lvl])
                if set(constituents) <= current
            }
            nxt.add(new_id)
            for bid in nxt:
                self.hit(lvl + 1, bid, t)
            current = nxt


def build_hyperstructure(log: OccurrenceLog, config: BuildConfig | None = None) -> Hyperstructure:
    """Detect level-1 patterns and iterated co-realizations from a log.

    A single chronological pass over the bins; deterministic given the log
    and the config.  After the pass, bonds below ``min_count`` are dropped
    and higher bonds referencing them are dropped in cascade.
    """
    config = config or BuildConfig()
    config.validate()
    builder = _Builder(log.n, config.max_level)

    if config.two_pass:
        # Pass 1 only collects the level-1 vocabulary; counts accrue in pass 2.
        prepass = _Builder(log.n, 1)
        for t, active in log.bins:
            if not active.is_empty:
                prepass.process_bin(t, active, config.decomposition, config.keep_union_words)
        for pattern in prepass.level1_patterns():
            builder.register(1, pattern.members)

    for t, active in log.bins:
        if not active.is_empty:
            builder.process_bin(t, active, config.decomposition, config.keep_union_words)

    # Prune by count, then cascade-drop orphans upward, reindexing per level.
    levels: list[tuple[Bond, ...]] = []
    remap: dict[int, int] = {}
    for lvl0, bonds in enumerate(builder.levels):
        level = lvl0 + 1
        survivors: list[Bond] = []
        new_remap: dict[int, int] = {}
        for bid, (constituents, count, bins) in enumerate(bonds):
            if count < config.min_count:
                continue
            if level >= 2:
                if any(c not in remap for c in constituents):
                    continue
                constituents = tuple(sorted(remap[c] for c in constituents))
            new_remap[bid] = len(survivors)
            survivors.append(
                Bond(
                    id=len(survivors),
                    level=level,
                    constituents=constituents,
                    count=count,
                    bins=tuple(bins),
                )
            )
        remap = new_remap
        levels.append(tuple(survivors))
    while levels and not levels[-1]:
        levels.pop()
    return Hyperstructure(log.n, tuple(levels), config)


def boundary(h: Hyperstructure, level: int, bond_id: int) -> frozenset[int]:
    """Constituent ids of a bond one level down ("dissolving the bond")."""
    if level < 2:
        raise BondLookupError(f"boundary requires level >= 2, got {level}")
    return frozenset(h.bond(level, bond_id).constituents)


def downset(h: Hyperstructure, level: int, bond_id: int, target: int) -> frozenset[int]:
    """Iterated boundary down to ``target``; target 0 gives the neuron support."""
    if not 0 <= target < level:
        raise BondLookupError(f"target {target} must satisfy 0 <= target < {level}")
    bond = h.bond(level, bond_id)
    if level == 1:
        return frozenset(bond.constituents)  # target is 0
    current = frozenset(bond.constituents)
    lvl = level - 1
    while lvl > max(target, 1):
        current = frozenset(
            c for bid in current for c in h.bond(lvl, bid).constituents
        )
        lvl -= 1
    if target == 0:
        return frozenset(
            c for bid in current for c in h.bond(1, bid).constituents
        )
    return current


def canonical_form(h: Hyperstructure, level: int, bond_id: int) -> str:
    """Fully expanded nested-set rendering; equal iff structurally equal."""
    bond = h.bond(level, bond_id)
    if level == 1:
        return "{" + ",".join(str(i) for i in bond.constituents) + "}"
    parts = sorted(canonical_form(h, level - 1, c) for c in bond.constituents)
    return "{" + ",".join(parts) + "}"
