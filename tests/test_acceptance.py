"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

from __future__ import annotations

import random
import time

from click.testing import CliRunner

from hypercode.cli import cli
from hypercode.codes import Pattern, parse_spike_matrix
from hypercode.compare import compare_levels
from hypercode.homology import betti, frequency_filtration, persistence
from hypercode.hyperstructure import (
    Bond,
    BuildConfig,
    Hyperstructure,
    build_hyperstructure,
)
from hypercode.synth import SynthSpec, matrix_to_csv, synth_generate
from hypercode.topology import NerveConfig, level_complex, nerve

from conftest import TRIAD_CSV, TRIAD_NO_T6_CSV, maximal_tuples
from oracles import (
    betti_naive,
    count_at_naive,
    euler_characteristic_naive,
    filtration_faces_naive,
    generated_complex_naive,
    subcomplex_at,
)


def _report(num: int, name: str, ok: bool) -> None:
    print(f"criterion {num} [{name}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def _triad():
    _, log = parse_spike_matrix(TRIAD_CSV)
    return build_hyperstructure(log)


def test_criterion_1_triad_end_to_end():
    start = time.perf_counter()
    hs = _triad()
    sizes = [len(l) for l in hs.levels]
    b1 = betti(level_complex(hs, 1))
    b2 = betti(level_complex(hs, 2))
    elapsed = time.perf_counter() - start
    ok = sizes == [3, 3] and b1 == (3, 0, 0) and b2 == (1, 1) and elapsed < 1.0
    _report(1, "TRIAD end-to-end", ok)


def test_criterion_2_triad_nerve():
    hs = _triad()
    k = nerve(hs)
    level2 = tuple(
        i for i, (lvl, _) in enumerate(k.vertex_labels) if lvl == 2
    )
    singles = {s for s in maximal_tuples(k) if len(s) == 1}
    ok = (
        len(k.vertex_labels) == 6
        and level2 in maximal_tuples(k)
        and len(singles) == 3
        and len(k.maximal_simplices) == 4
        and betti(k, 2) == (4, 0, 0)
        and nerve(hs, NerveConfig(rule="connected")) == k
    )
    _report(2, "TRIAD nerve", ok)


def test_criterion_3_homology_oracle():
    rng = random.Random(2024)
    start = time.perf_counter()
    mismatches = 0
    for _ in range(200):
        m = rng.randint(1, 8)
        maximal = [
            set(rng.sample(range(8), rng.randint(1, 4))) for _ in range(m)
        ]
        k = generated_complex_naive(maximal, 8)
        if betti(k, 3) != betti_naive(sorted(maximal_tuples(k)), 3):
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 10.0
    _report(3, "homology oracle, 200 random complexes", ok)


def _random_weighted_hs(rng, n):
    bonds, seen, t = [], set(), 0
    for _ in range(rng.randint(1, 6)):
        members = tuple(sorted(rng.sample(range(n), rng.randint(1, min(4, n)))))
        if members in seen:
            continue
        seen.add(members)
        count = rng.randint(1, 5)
        bonds.append(Bond(len(bonds), 1, members, count, tuple(range(t, t + count))))
        t += count
    return Hyperstructure(n, (tuple(bonds),), BuildConfig())


def test_criterion_4_persistence_consistency():
    rng = random.Random(7)
    ok = True
    for _ in range(50):
        n = rng.randint(2, 10)
        hs = _random_weighted_hs(rng, n)
        f = frequency_filtration(hs, 1)
        bars = persistence(f)
        simplices, face_values = filtration_faces_naive(f.generators, f.top)
        values = dict(zip(simplices, face_values))
        for theta in sorted(set(face_values)):
            sub = subcomplex_at(simplices, values, theta)
            expected = betti_naive(sub, 3)
            for d in range(4):
                if count_at_naive(bars.intervals, theta, d) != expected[d]:
                    ok = False
    _report(4, "persistence consistency, 50 random codes", ok)


def test_criterion_5_euler_characteristic():
    hs = _triad()
    complexes = [level_complex(hs, 1), level_complex(hs, 2), nerve(hs)]
    rng = random.Random(2024)
    for _ in range(50):
        maximal = [rng.sample(range(8), rng.randint(1, 4)) for _ in range(rng.randint(1, 8))]
        complexes.append(generated_complex_naive(maximal, 8))
    rng2 = random.Random(7)
    for _ in range(20):
        complexes.append(level_complex(_random_weighted_hs(rng2, rng2.randint(2, 10)), 1))
    ok = all(
        sum((-1) ** d * b for d, b in enumerate(betti(k)))
        == euler_characteristic_naive(maximal_tuples(k))
        for k in complexes
    )
    _report(5, "Euler characteristic identity", ok)


def test_criterion_6_synthetic_recovery():
    ok = True
    for seed in range(20):
        rng = random.Random(seed)
        n = rng.randint(6, 14)
        # disjoint planted patterns partition a prefix of the neurons
        cut_points = sorted(rng.sample(range(1, n), rng.randint(1, min(4, n - 1))))
        bounds = [0] + cut_points + [n]
        names = [f"P{i}" for i in range(len(bounds) - 1)]
        patterns = {
            name: Pattern.of(range(a, b))
            for name, a, b in zip(names, bounds, bounds[1:])
        }
        schedule = [(t, (name,)) for t, name in enumerate(names)]
        planted_pairs = set()
        for t in range(len(names), len(names) + rng.randint(1, 6)):
            group = tuple(sorted(rng.sample(names, rng.randint(2, len(names)))))
            schedule.append((t, group))
            planted_pairs.add(group)
        spec = SynthSpec(n=n, patterns=patterns, schedule=tuple(schedule), seed=seed)
        _, log = parse_spike_matrix(matrix_to_csv(synth_generate(spec)))
        hs = build_hyperstructure(log)
        got_level1 = {b.constituents for b in hs.level(1)}
        want_level1 = {p.members for p in patterns.values()}
        want_level2 = {
            tuple(sorted(frozenset().union(*(patterns[nm].members for nm in group))))
            for group in planted_pairs
        }
        got_level2 = {
            tuple(sorted(frozenset(
                c for cid in b.constituents for c in hs.bond(1, cid).constituents
            )))
            for b in (hs.level(2) if hs.k >= 2 else ())
        }
        # sensitivity and precision 1.0 means exact set equality
        if got_level1 != want_level1 or got_level2 != want_level2:
            ok = False
    _report(6, "synthetic recovery, 20 seeded specs", ok)


def test_criterion_7_comparison_sanity():
    hs = _triad()
    _, log6 = parse_spike_matrix(TRIAD_NO_T6_CSV)
    hs6 = build_hyperstructure(log6)
    self_report = compare_levels(hs, hs)
    cross = compare_levels(hs, hs6)
    lvl2 = cross.levels[1]
    ok = (
        all(lc.map_status == "bijective" and lc.jaccard == 1.0 for lc in self_report.levels)
        and (lvl2.size_a, lvl2.size_b, lvl2.shared) == (3, 2, 2)
    )
    _report(7, "comparison sanity", ok)


def test_criterion_8_pipeline_determinism(tmp_path):
    runner = CliRunner()
    artifacts = []
    for tag in ("run1", "run2"):
        d = tmp_path / tag
        d.mkdir()
        src = d / "triad.csv"
        src.write_text(TRIAD_CSV)
        log, hs = d / "log.json", d / "hs.json"
        bars, nerve_json = d / "bars.csv", d / "nerve.json"
        for args in (
            ["ingest", "--format", "matrix", str(src), "-o", str(log)],
            ["build", str(log), "--max-level", "3", "-o", str(hs)],
            ["persist", str(hs), "-o", str(bars)],
            ["nerve", str(hs), "-o", str(nerve_json)],
        ):
            result = runner.invoke(cli, args)
            assert result.exit_code == 0, result.output
        artifacts.append(
            tuple(p.read_bytes() for p in (log, hs, bars, nerve_json))
        )
    _report(8, "pipeline determinism", artifacts[0] == artifacts[1])
