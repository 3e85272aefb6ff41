"""Smoke test of benchmarks/bench_gf2.py: the flat and graded pairs agree."""

from __future__ import annotations

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_gf2.py"


def test_main_runs_and_paths_agree(capsys):
    spec = importlib.util.spec_from_file_location("bench_gf2", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    bench.main(["--points", "30", "--repeats", "1"])
    assert "equal on both paths" in capsys.readouterr().out
