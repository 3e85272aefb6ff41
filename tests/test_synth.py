from __future__ import annotations

import pytest

from hypercode.codes import Pattern, members, parse_spike_matrix
from hypercode.errors import ConfigError
from hypercode.synth import MAX_CELLS, SynthSpec, matrix_to_csv, synth_generate

from conftest import TRIAD_CSV


def triad_spec(noise=0.0, seed=0):
    return SynthSpec(
        n=9,
        patterns={
            "A": Pattern.of({0, 1, 2}),
            "B": Pattern.of({3, 4, 5}),
            "C": Pattern.of({6, 7, 8}),
        },
        schedule=(
            (0, ("A",)),
            (1, ("B",)),
            (2, ("C",)),
            (3, ("A", "B")),
            (4, ("B", "C")),
            (5, ("A", "C")),
        ),
        noise_rate=noise,
        seed=seed,
    )


def test_triad_exact():
    assert matrix_to_csv(synth_generate(triad_spec())) == TRIAD_CSV


def test_empty_schedule_all_zero():
    spec = SynthSpec(n=3, patterns={}, schedule=())
    assert synth_generate(spec) == [[], [], []]


def test_noise_seeded_determinism():
    a = synth_generate(triad_spec(noise=0.1, seed=42))
    b = synth_generate(triad_spec(noise=0.1, seed=42))
    assert a == b
    c = synth_generate(triad_spec(noise=0.1, seed=43))
    assert a != c


def test_undefined_pattern_rejected():
    spec = SynthSpec(n=2, patterns={"A": Pattern.of({0})}, schedule=((0, ("B",)),))
    with pytest.raises(ConfigError):
        synth_generate(spec)


def test_bad_noise_rate():
    with pytest.raises(ConfigError):
        SynthSpec(n=1, patterns={}, schedule=(), noise_rate=1.5).validate()


def test_grid_bound_checked_before_allocating():
    bin_ = MAX_CELLS // 10 - 1  # a 10 x (bin + 1) grid fits exactly
    SynthSpec(n=10, patterns={}, schedule=((bin_, ()),)).validate()
    with pytest.raises(ConfigError):
        synth_generate(SynthSpec(n=10, patterns={}, schedule=((bin_ + 1, ()),)))


def test_grid_bound_counts_empty_rows():
    # no bin scheduled: still one (empty) row list per neuron
    SynthSpec(n=MAX_CELLS, patterns={}, schedule=()).validate()
    with pytest.raises(ConfigError):
        SynthSpec(n=MAX_CELLS + 1, patterns={}, schedule=()).validate()


def test_json_roundtrip():
    obj = {
        "n": 4,
        "patterns": {"P": [0, 1], "Q": [2, 3]},
        "schedule": [[0, ["P"]], [1, ["Q"]], [2, ["P", "Q"]]],
        "noise_rate": 0.0,
        "seed": 7,
    }
    spec = SynthSpec.from_json_obj(obj)
    grid = synth_generate(spec)
    n, log = parse_spike_matrix(matrix_to_csv(grid))
    assert n == 4
    assert [tuple(members(p)) for _, p in log.bins] == [(0, 1), (2, 3), (0, 1, 2, 3)]
