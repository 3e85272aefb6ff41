"""Every command on the benchmark's seed-1 recordings, under its 3 GiB address-space cap.

Each digest, Betti line and face count below is what these commands wrote
when it was recorded.  Each build runs twice, in two processes, so an output
that depends on the hash seed fails its pair.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from hypercode import synth

from conftest import limited_cli

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"

_spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
bench = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = bench  # dataclasses resolve annotations through it
_spec.loader.exec_module(bench)

INGEST = {"matrix": [], "events": ["--format", "events", "--dt", "0.01", "--neurons", "30"]}

# homology.simplices / boundary_nonzeros / cap_simplices of one traced run:
# Filtration.simplices lists its faces in no set order, so pin how many
FACES = {
    "clean-long": "16172/82308/7269",
    "noisy-wide": "160871/839768/76890",
    "events-subset": "8541/39033/2185",
}
LOG_SHA256 = {
    "clean-long": "eb98689f0cc5b21452420f7edaa66a7d2b3609229db581905e15a802ec9e3be4",
    "noisy-wide": "e336c5fbb05f90b54cdc70880366adff8f05ea1c4b46ea30262997c1c7505be4",
    "events-subset": "8ce94120d7fd2a52265db32982a8acb251efe81632ef94958bc931baa2134fdb",
}
# events-subset's barcodes of every level; perfbench analyses levels 1-2
# only, and level 3 has a 50-constituent bond
LEVEL3_BARS_SHA256 = "7f6177376389770a374842c9fd5a014c1d2f3becab9b9ff0136de4e134b9c0ac"
# `betti --level 1`, `--level 2` and `--level 3` on each built recording
BETTI = {
    "clean-long": ["1,0,0,0,0", "70,25,0", "51,1,0,0"],
    "noisy-wide": ["1,1,8,25,17", "412,59,0", "127,0,0"],
    "events-subset": ["1,1,0,0,0", "1,0,29,0,0", "1,37,7,0,0"],
}
# `compare` reads the second session too; `persist --keep-zero` runs no
# strong collapse
OUTPUT_SHA256 = {
    ("clean-long", "nerve"): "0714860d4505eec57e879b8a72739cffc072a14c69be0c233b517cb73bf60e9b",
    ("events-subset", "nerve"): "420e4ff782fbcbb9ed2a40a6ac591de4a8d077a358f483aefa5ccbf94fce6eab",
    ("clean-long", "compare"): "0cac8887ce7dd5f4ba86b29ce10353564748e4cbac6baac57f2450ea8b8f52a9",
    ("noisy-wide", "compare"): "8b821357a0f36449cc178265b49bb081c3c93b24819185bc95c653235036c4d6",
    ("events-subset", "compare"): "ae48af7839dde7b42955dfb8f65b0456d8e9c6e8b5ecb31a77693aaaeac889a1",
    ("clean-long", "compare --with-nerve"):
        "8457f6b33dc6d25cea165b8a661fa59a9f4f32591672b9ddd813a111380890c2",
    ("events-subset", "compare --with-nerve"):
        "c7d8df3b471fa76b1ba640d16c6312ffc815531cdaacebd10e09a36bdc7e1473",
    ("clean-long", "persist --keep-zero"):
        "d6624c8dedb7c2d2abea9854f77fd7f4aa4ca77d56d289649b270b1a2e96f17e",
    ("noisy-wide", "persist --keep-zero"):
        "631110208c0e70f5156c50e11fb38bbab05c4d99c65f34f5335ff253634bff1e",
}


def cli(*args) -> str:
    r = limited_cli(bench.ADDRESS_SPACE_BYTES, *map(str, args))
    assert r.returncode == 0, r.stderr
    return r.stdout


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def perfbench(*args: str) -> dict:
    """The result line of one untimed perfbench run."""
    argv = [sys.executable, str(RUN), *args, "--seconds", "0"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="session")
def rec(tmp_path_factory) -> Path:
    """Each recording as perfbench makes it: {name}.csv, the matrix or the
    event list with its header; for a matrix, {name}-padded.csv, every cell
    padded and CRLF line ends; {name}-second.csv, a second session by
    perfbench's compare recipe.  Each is ingested to {name}.json and built
    with its workload's decomposition to {name}-hs.json."""
    rec = tmp_path_factory.mktemp("recordings")
    for name, wl in bench.WORKLOADS.items():
        payload = bench.set_up(wl, 1).payload
        if wl.source == "matrix":
            (rec / f"{name}.csv").write_text(payload)
            rows = [",".join(f" {cell} " for cell in line.split(",")) for line in payload.splitlines()]
            (rec / f"{name}-padded.csv").write_text("\r\n".join(rows) + "\r\n", newline="")
        else:
            (rec / f"{name}.csv").write_text(
                "neuron_id,timestamp\n" + "".join(f"{neuron},{t!r}\n" for neuron, t in payload)
            )
        second = bench.relabel(synth.synth_generate(bench.assembly_spec(wl, 2, 8)), 1)
        (rec / f"{name}-second.csv").write_text(synth.matrix_to_csv(second))
        cli("ingest", *INGEST[wl.source], rec / f"{name}.csv", "-o", rec / f"{name}.json")
        cli("ingest", rec / f"{name}-second.csv", "-o", rec / f"{name}-second.json")
        for session in (name, f"{name}-second"):
            cli("build", rec / f"{session}.json", "--decomposition", wl.decomposition,
                "-o", rec / f"{session}-hs.json")
    return rec


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_perfbench_is_correct(name, seed):
    result = perfbench("--workload", name, "--seed", str(seed), "--trace", "0")
    assert result["correct"] is True and result["failed"] == 0


@pytest.mark.parametrize("name", list(FACES))
def test_faces_the_benchmark_counts(name):
    m = perfbench("--workload", name, "--seed", "1", "--trace", "1")["metrics"]
    keys = ("homology.simplices", "homology.boundary_nonzeros", "homology.cap_simplices")
    assert "/".join(str(m[k]["value"]) for k in keys) == FACES[name]


def test_logs_match_their_digests(rec, tmp_path):
    assert {name: sha256(rec / f"{name}.json") for name in LOG_SHA256} == LOG_SHA256
    for name in ("clean-long", "noisy-wide"):
        cli("ingest", rec / f"{name}-padded.csv", "-o", tmp_path / "padded.json")
        assert sha256(tmp_path / "padded.json") == LOG_SHA256[name]


def test_level3_barcodes_on_events_subset(rec, tmp_path):
    assert sha256(rec / "events-subset-hs.json") == bench.DIGESTS[("full", "events-subset")][0]
    cli("persist", rec / "events-subset-hs.json", "-o", tmp_path / "bars.csv")
    assert sha256(tmp_path / "bars.csv") == LEVEL3_BARS_SHA256


@pytest.mark.parametrize(
    "option", ["--two-pass", "--keep-union-words", "--min-count 2", "--max-level 1000000"]
)
@pytest.mark.parametrize("decomposition", ["exact-cover", "subset-realization"])
@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_build_writes_the_same_bytes_twice(rec, tmp_path, name, decomposition, option):
    argv = ["build", rec / f"{name}.json", "--decomposition", decomposition, *option.split()]
    cli(*argv, "-o", tmp_path / "hs-1.json")
    cli(*argv, "-o", tmp_path / "hs-2.json")
    assert (tmp_path / "hs-1.json").read_bytes() == (tmp_path / "hs-2.json").read_bytes()


@pytest.mark.parametrize("name", BETTI)
def test_betti_lines(rec, name):
    lines = [cli("betti", rec / f"{name}-hs.json", "--level", level) for level in (1, 2, 3)]
    assert lines == [line + "\n" for line in BETTI[name]]


@pytest.mark.parametrize("name, command", OUTPUT_SHA256)
def test_output_matches_its_digest(rec, tmp_path, name, command):
    verb, *flags = command.split()
    sessions = [f"{name}-hs.json", f"{name}-second-hs.json"][: 2 if verb == "compare" else 1]
    cli(verb, *(rec / s for s in sessions), *flags, "-o", tmp_path / "out")
    assert sha256(tmp_path / "out") == OUTPUT_SHA256[name, command]
