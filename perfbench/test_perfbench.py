"""Smoke test of the pipeline benchmark: each workload's call sequence at a tiny size.

Run with: python3 -m pytest perfbench
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"

_spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
bench = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = bench  # dataclasses resolve annotations through it
_spec.loader.exec_module(bench)

DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
def test_prints_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--size", "tiny",
         "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    context, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    # At seed, the only failing call is compare_levels' DimCapError.
    assert set(context["context"]["failed_by_call"]) <= {"compare.compare_levels"}


def test_corrupted_digest_is_a_failed_op():
    key = ("tiny", "events-subset")
    clean = bench.run("events-subset", bench.DEFAULT_SEED, 0, trace=False, size="tiny")
    corrupted = {**bench.DIGESTS, key: ("0" * 64, bench.DIGESTS[key][1])}
    bad = bench.run(
        "events-subset", bench.DEFAULT_SEED, 0, trace=False, size="tiny", digests=corrupted
    )
    assert clean["result"]["correct"] and clean["result"]["failed"] == 0
    assert not bad["result"]["correct"]
    assert bad["result"]["attempted"] == clean["result"]["attempted"]
    assert bad["result"]["failed"] == 1
    assert bad["context"]["failed_by_call"] == {"hyperstructure.build_hyperstructure": 1}


@pytest.mark.parametrize("schedule_seed", [1, 2, 3])
def test_infinite_bars_match_rank_betti_on_s_size(schedule_seed):
    """The reduction path and the rank path agree on ROADMAP's S recording."""
    s_size = bench.Workload(30, 500, 10, 0.0, "matrix", "exact-cover", None, False, False)
    grid = bench.synth.synth_generate(bench.assembly_spec(s_size, schedule_seed, 7))
    inputs = bench.Inputs(bench.synth.matrix_to_csv(grid), None, None, 0, 0.0)
    calls = bench.Calls(tracing=False)
    cap = bench.homology.resolve_dim_cap()
    out = bench.analyze(s_size, inputs, calls, cap)
    assert calls.failed == 0
    assert bench.check_outputs(s_size, out, inputs) == []
    assert bench.counts_of(out, cap)["intervals"] > 0
