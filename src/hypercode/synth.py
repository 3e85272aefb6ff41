"""Synthetic spike-matrix generator for fixtures and property tests.

Noise uses Python's ``random.Random`` (Mersenne Twister), so a given seed
reproduces the same matrix on every platform.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from hypercode.codes import Pattern, _json_int, matrix_to_csv  # noqa: F401 (re-exported)
from hypercode.errors import ConfigError, ParseError

MAX_CELLS = 10**7  # n x (largest bin + 1) bound on the dense grid synth_generate allocates


@dataclass(frozen=True)
class SynthSpec:
    n: int
    patterns: dict[str, Pattern]
    schedule: tuple[tuple[int, tuple[str, ...]], ...]  # (bin, pattern names)
    noise_rate: float = 0.0
    seed: int = 0

    def validate(self) -> None:
        if self.n < 0:
            raise ConfigError(f"n must be >= 0, got {self.n}")
        if not 0.0 <= self.noise_rate <= 1.0:
            raise ConfigError(f"noise_rate must be in [0, 1], got {self.noise_rate}")
        for name, p in self.patterns.items():
            if p.members and p.members[-1] >= self.n:
                raise ConfigError(f"pattern {name!r} exceeds n={self.n}")
        for b, names in self.schedule:
            if b < 0:
                raise ConfigError(f"schedule bin must be >= 0, got {b}")
            for name in names:
                if name not in self.patterns:
                    raise ConfigError(f"schedule references undefined pattern {name!r}")
        width = max((b for b, _ in self.schedule), default=-1) + 1
        if self.n * width > MAX_CELLS:
            raise ConfigError(
                f"spec needs a {self.n} x {width} grid, more than {MAX_CELLS} cells"
            )

    @classmethod
    def from_json_obj(cls, obj: dict) -> "SynthSpec":
        try:
            if not isinstance(obj["patterns"], dict):
                raise ParseError(f"patterns must be an object, got {obj['patterns']!r}")
            noise_rate = obj.get("noise_rate", 0.0)
            if type(noise_rate) not in (int, float):
                raise ParseError(f"noise_rate must be a number, got {noise_rate!r}")
            spec = cls(
                n=_json_int(obj["n"], "n"),
                patterns={
                    name: Pattern.of(_json_int(i, f"pattern {name!r} member") for i in members)
                    for name, members in obj["patterns"].items()
                },
                schedule=tuple(
                    (_json_int(b, "schedule bin"), _names(names)) for b, names in obj["schedule"]
                ),
                noise_rate=float(noise_rate),
                seed=_json_int(obj.get("seed", 0), "seed"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed synth spec JSON: {exc}") from exc
        spec.validate()
        return spec


def _names(names) -> tuple[str, ...]:
    if not isinstance(names, list) or not all(isinstance(x, str) for x in names):
        raise ParseError(f"schedule pattern names must be a list of strings, got {names!r}")
    return tuple(names)


def synth_generate(spec: SynthSpec) -> list[list[int]]:
    """Build the n x (max bin + 1) spike matrix of a spec.

    Each scheduled bin activates the union of its patterns; every cell is
    then flipped independently with probability ``noise_rate``.  With
    noise 0 the matrix is the exact scheduled unions.
    """
    spec.validate()
    width = max((b for b, _ in spec.schedule), default=-1) + 1
    grid = [[0] * width for _ in range(spec.n)]
    for b, names in spec.schedule:
        for name in names:
            for i in spec.patterns[name]:
                grid[i][b] = 1
    if spec.noise_rate > 0:
        rng = random.Random(spec.seed)
        for i in range(spec.n):
            for j in range(width):
                if rng.random() < spec.noise_rate:
                    grid[i][j] ^= 1
    return grid
