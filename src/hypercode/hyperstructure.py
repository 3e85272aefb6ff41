"""Leveled cofiring structure: patterns, patterns of patterns, and boundaries.

Level-1 bonds bind neurons; a level-(l+1) bond binds level-l bonds that were
co-realized in one time bin.  Construction is a single chronological pass
over the bins of an :class:`~hypercode.codes.OccurrenceLog`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace
from functools import reduce
from operator import or_

from hypercode.codes import OccurrenceLog, _json_int, bitmask, members
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
        """Load an artifact, checking the level count, ids, nonempty and
        distinct constituents, bins and counts."""
        try:
            config = BuildConfig.from_json_obj(obj["config"])
            n = _json_int(obj["n"], "n")
            if n < 0:
                raise ParseError(f"n must be >= 0, got {n}")
            if len(obj["levels"]) > config.max_level:
                raise ParseError(
                    f"{len(obj['levels'])} levels, above config max_level {config.max_level}"
                )
            levels: list[tuple[Bond, ...]] = []
            for lvl, bonds in enumerate(obj["levels"], start=1):
                if not bonds:
                    raise ParseError(f"level {lvl} has no bonds")
                universe = n if lvl == 1 else len(levels[-1])
                level = []
                seen: dict[tuple[int, ...], int] = {}
                for pos, b in enumerate(bonds):
                    where = f"level {lvl} bond {pos}"
                    if _json_int(b["id"], f"{where} id") != pos:
                        raise ParseError(f"{where}: id {b['id']} is not its position")
                    members = _increasing(b["constituents"], f"{where} constituents", universe)
                    if not members:
                        raise ParseError(f"{where}: no constituents")
                    if members in seen:
                        raise ParseError(f"{where}: same constituents as bond {seen[members]}")
                    seen[members] = pos
                    bins = _increasing(b["bins"], f"{where} bins")
                    if _json_int(b["count"], f"{where} count") != len(bins):
                        raise ParseError(f"{where}: count {b['count']} != {len(bins)} bins")
                    level.append(Bond(pos, lvl, members, len(bins), bins))
                levels.append(tuple(level))
            return cls(n, tuple(levels), config)
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed hyperstructure JSON: {exc}") from exc


def _increasing(xs, what: str, universe: int | None = None) -> tuple[int, ...]:
    """Strictly increasing non-negative ints, each below universe when one is given."""
    out = tuple(_json_int(x, what) for x in xs)
    if any(a >= b for a, b in zip(out, out[1:])):
        raise ParseError(f"{what} must be strictly increasing, got {list(out)}")
    if out and out[0] < 0:
        raise ParseError(f"{what} {list(out)} include the negative index {out[0]}")
    if universe is not None and out and out[-1] >= universe:
        raise ParseError(f"{what} {list(out)} outside 0..{universe - 1}")
    return out


class _Builder:
    """Mutable working state for one chronological pass.

    ``ids`` has one dict per level that a bin has reached, level 1 from
    the start.  It maps each bond's constituents as a bitmask (neuron bits
    at level 1, lower-level bond ids above) to the bond's id, in
    first-sighting order; ``masks`` lists the same masks by id, so the
    bonds registered since the level had ``seen`` bonds are
    ``masks[seen:]``, and ``bins`` lists each bond's bins by id.  ``memo``
    has one dict per level too, mapping each query mask to its answer: the
    ids, ascending, their mask (the next level's query) and the level's
    table length when the answer was last brought up to date.  Under exact
    cover ``holders`` maps each neuron to its bond set, bit i for each
    level-1 bond i that holds it, and ``keys`` has each level-1 bond's
    greedy rank, (-size, members), by id.
    """

    def __init__(self, config: BuildConfig):
        self.config = config
        self.ids: list[dict[int, int]] = [{}]
        self.masks: list[list[int]] = [[]]
        self.bins: list[list[list[int]]] = [[]]
        self.memo: list[dict[int, list]] = [{}]  # per query: [ids, their mask, seen]
        # exact cover only: each neuron's bond set, each level-1 bond's rank
        self.holders: dict[int, int] = {}
        self.keys: list[tuple[int, tuple[int, ...]]] = []

    def register(self, level: int, mask: int) -> int:
        """The id of the level-``level`` bond of ``mask``, registered first
        if new; under exact cover a new level-1 bond also joins the bond
        set of each of its neurons."""
        if level > len(self.ids):
            self.ids.append({})
            self.masks.append([])
            self.bins.append([])
            self.memo.append({})
        table = self.ids[level - 1]
        bid = table.get(mask)
        if bid is None:
            bid = table[mask] = len(table)
            self.masks[level - 1].append(mask)
            self.bins[level - 1].append([])
            if level == 1 and self.config.decomposition == "exact-cover":
                neurons = tuple(members(mask))
                self.keys.append((-len(neurons), neurons))
                for v in neurons:
                    self.holders[v] = self.holders.get(v, 0) | 1 << bid
        return bid

    def process_bin(self, t: int, active: int) -> None:
        """Record bin ``t``, whose active neurons are the bits of ``active``.

        The bin realizes, under subset realization, every known level-1
        mask inside ``active``; under exact cover, the masks a greedy takes
        disjointly, largest first and then by members, when they cover
        ``active``.  Realizing nothing, or (with keep-union-words) a union
        under exact cover, registers ``active`` itself.  At each level
        l >= 2 it realizes every bond inside the mask of its level-(l-1)
        ids, whose own bond registers when that mask is first queried.

        Each answer depends only on the bonds inside its query, so a
        level's memo answers a repeated query after scanning only the bonds
        registered since.
        """
        entry = self.memo[0].get(active)
        if entry is None or entry[2] < len(self.masks[0]):
            entry = self._level_one(active, entry)
        max_level = self.config.max_level
        for level in range(1, max_level + 1):
            ids, mask, _ = entry
            level_bins = self.bins[level - 1]
            for bid in ids:
                level_bins[bid].append(t)
            if level == max_level or len(ids) < 2:
                break
            entry = self.memo[level].get(mask) if level < len(self.memo) else None
            if entry is None:
                self.register(level + 1, mask)
                entry = self.memo[level][mask] = [[], 0, 0]
            if entry[2] < len(self.masks[level]):
                self._extend(self.masks[level], mask, entry)

    def _level_one(self, active: int, entry: list | None) -> list:
        """Bring the level-1 answer for bin mask ``active`` up to date.

        Under exact cover the bonds inside ``active`` are those in no bond
        set of a neuron outside it, and the greedy visits them by their
        keys.  A repeat runs the greedy again only if a bond registered
        since lies inside ``active``: a larger vocabulary can change what
        the greedy takes, so its ids are not extended.  The table length is
        taken before the bin registers ``active``, so an answer that
        registered it (under keep-union-words, next to the bonds it covers)
        finds that bond new on a repeat and covers again, taking it alone.
        """
        masks = self.masks[0]
        if self.config.decomposition != "exact-cover":
            entry = entry or self.memo[0].setdefault(active, [[], 0, 0])
            if not self._extend(masks, active, entry):
                self.register(1, active)
                self._extend(masks, active, entry)
            return entry
        if entry and not any(m & active == m for m in masks[entry[2]:]):
            entry[2] = len(masks)
            return entry
        seen, outside = len(masks), 0
        for v, bonds in self.holders.items():
            if not active >> v & 1:
                outside |= bonds
        realized, remaining = [], active
        for i in sorted(members((1 << seen) - 1 ^ outside), key=self.keys.__getitem__):
            m = masks[i]
            if m & remaining == m:
                remaining ^= m
                realized.append(i)
                if not remaining:
                    break
        if remaining:
            realized = []
        if not realized or (self.config.keep_union_words and len(realized) >= 2):
            realized.append(self.register(1, active))
        realized.sort()
        entry = self.memo[0][active] = [realized, bitmask(realized), seen]
        return entry

    @staticmethod
    def _extend(masks: list[int], query: int, entry: list) -> list[int]:
        """Append to ``entry`` the ids of the bonds in ``masks`` registered
        since that lie inside ``query``; they are larger, so the ids stay
        ascending."""
        ids, mask, seen = entry
        for i, m in enumerate(masks[seen:], seen):
            if m & query == m:
                ids.append(i)
                mask |= 1 << i
        entry[1:] = mask, len(masks)
        return ids


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
    bins = [bt for bt in log.bins if bt[1]]
    builder = _Builder(config)
    if config.two_pass:
        # Pass 1 only collects the level-1 vocabulary; counts accrue in pass 2.
        prepass = _Builder(replace(config, max_level=1))
        for t, active in bins:
            prepass.process_bin(t, active)
        for mask in prepass.masks[0]:
            builder.register(1, mask)
    for t, active in bins:
        builder.process_bin(t, active)

    # Prune by count, reindexing per level (remap keeps order); an orphan
    # would raise at remap[c].
    # A level left empty leaves every level above it empty too.
    levels: list[tuple[Bond, ...]] = []
    remap: dict[int, int] = {}
    for level, (masks, bond_bins) in enumerate(zip(builder.masks, builder.bins), start=1):
        survivors: list[Bond] = []
        new_remap: dict[int, int] = {}
        for bid, (mask, seen) in enumerate(zip(masks, bond_bins)):
            if len(seen) < config.min_count:
                continue
            constituents = members(mask) if level == 1 else (remap[c] for c in members(mask))
            new_remap[bid] = len(survivors)
            survivors.append(
                Bond(len(survivors), level, tuple(constituents), len(seen), tuple(seen))
            )
        if not survivors:
            break
        remap = new_remap
        levels.append(tuple(survivors))
    return Hyperstructure(log.n, tuple(levels), config)


def level_generators(h: Hyperstructure, i: int) -> list[tuple[int, int]]:
    """The (mask, count) pairs that generate the level-i complex.

    Its vertices are the level-(i-1) items (neurons at i = 1), bit v of a
    mask for vertex v.  Each level-i bond is its constituent mask, from
    :func:`downsets`, at its own count; each level-(i-1) bond that no
    level-i bond binds is an isolated vertex, counted as often as the most
    frequent level-i bond so that it enters a frequency filtration first.
    """
    bonds = h.level(i)
    downs = downsets(h, i, i - 1)
    generators = list(zip(downs, (b.count for b in bonds)))
    if i >= 2:
        c_max = max(b.count for b in bonds)
        unbound = (1 << h.width(i - 1)) - 1 & ~reduce(or_, downs)
        generators.extend((1 << v, c_max) for v in members(unbound))
    return generators


def boundary(h: Hyperstructure, level: int, bond_id: int) -> frozenset[int]:
    """Constituent ids of a bond one level down ("dissolving the bond")."""
    if level < 2:
        raise BondLookupError(f"boundary requires level >= 2, got {level}")
    return frozenset(h.bond(level, bond_id).constituents)


def downsets(h: Hyperstructure, i: int, j: int) -> list[int]:
    """Per level-i bond, by id, the bitmask of its level-j downset.

    Raises ``LevelRangeError`` unless 1 <= i <= k and 0 <= j < i.  Level
    j+1's downsets are its bonds' constituent masks, ORed upward from
    there, so they take bonds x width(j) bits rather than width(j)^2.
    """
    h.level(i)
    if not 0 <= j < i:
        raise LevelRangeError(f"downset level {j} must satisfy 0 <= j < {i}")
    downs = [bitmask(b.constituents) for b in h.level(j + 1)]
    for level in range(j + 2, i + 1):
        downs = [reduce(or_, (downs[c] for c in b.constituents)) for b in h.level(level)]
    return downs


def downset(h: Hyperstructure, level: int, bond_id: int, target: int) -> frozenset[int]:
    """Iterated boundary down to ``target``, read off :func:`downsets`;
    target 0 gives the neuron support."""
    bond = h.bond(level, bond_id)
    return frozenset(members(downsets(h, level, target)[bond.id]))


def canonical_form(h: Hyperstructure, level: int, bond_id: int) -> str:
    """Fully expanded nested-set rendering; equal iff structurally equal."""
    bond = h.bond(level, bond_id)
    return _canonical_forms(h, level)[-1][bond.id]


def _canonical_forms(h: Hyperstructure, i: int) -> list[list[str]]:
    """Per level 1..i, each bond's :func:`canonical_form` by id, built
    bottom-up from the level below, so no level recurses."""
    forms: list[list[str]] = []
    for level in range(1, i + 1):
        bonds = h.level(level)
        if level == 1:
            parts = [map(str, b.constituents) for b in bonds]
        else:
            parts = [sorted(forms[-1][c] for c in b.constituents) for b in bonds]
        forms.append(["{" + ",".join(p) + "}" for p in parts])
    return forms
