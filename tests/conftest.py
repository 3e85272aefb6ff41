from __future__ import annotations

import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from hypercode.codes import members, parse_spike_matrix
from hypercode.hyperstructure import build_hyperstructure

A = frozenset({0, 1, 2})
B = frozenset({3, 4, 5})
C = frozenset({6, 7, 8})
TRIAD_BINS = [A, B, C, A | B, B | C, A | C]


def matrix_csv(n: int, bins) -> str:
    rows = ["".join("1" if r in col else "0" for col in bins) for r in range(n)]
    return "\n".join(",".join(row) for row in rows) + "\n"


def maximal_tuples(k) -> frozenset[tuple[int, ...]]:
    """A complex's maximal simplices as sorted vertex tuples, as the oracles list them."""
    return frozenset(tuple(members(mask)) for mask in k.maximal_simplices)


TRIAD_CSV = matrix_csv(9, TRIAD_BINS)
TRIAD_NO_T6_CSV = matrix_csv(9, TRIAD_BINS[:5])


@pytest.fixture
def triad_log():
    _, log = parse_spike_matrix(TRIAD_CSV)
    return log


@pytest.fixture
def triad(triad_log):
    return build_hyperstructure(triad_log)


@pytest.fixture
def triad_no_t6():
    _, log = parse_spike_matrix(TRIAD_NO_T6_CSV)
    return build_hyperstructure(log)


def limited_cli(cap: int, *args: str) -> subprocess.CompletedProcess:
    """Run the CLI in a subprocess whose address space is capped at ``cap`` bytes."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.getenv("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", "from hypercode.cli import main; main()", *args],
        env={**os.environ, "PYTHONPATH": path},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        capture_output=True,
        text=True,
        timeout=300,
    )
