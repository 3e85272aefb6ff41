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
# each build option's hyperstructure, by recording and decomposition
BUILD_SHA256 = {
    ("clean-long", "exact-cover", "--two-pass"):
        "290611d4ae2c0031a293d357980118412dbd4a82ec3c196ebc3d33eebe1c683a",
    ("clean-long", "exact-cover", "--keep-union-words"):
        "13f480e8cfd10d0d1b3200db814df6c8741680e3684266725896e3713f1cf9e6",
    ("clean-long", "exact-cover", "--min-count 2"):
        "df1ca97c11e5913ed6e010f7278a169e806ae5cb3bfb225c32ba4538994a3b1d",
    ("clean-long", "exact-cover", "--max-level 1000000"):
        "f46c232e5e348a4b5d4f6ffafa95b8a4fdab46bd5ef909639648506b10ca0660",
    ("clean-long", "subset-realization", "--two-pass"):
        "313b55370aaf1351712cc6679f7b03f01b9287c00b07de125207a071bdd3ca0d",
    ("clean-long", "subset-realization", "--keep-union-words"):
        "d9819072862f8745388aed1d4e52fb712b598a4254672e758f43db90daa28bbd",
    ("clean-long", "subset-realization", "--min-count 2"):
        "9244df792c694cee516411e2bc975ee6328dc9cd4b6efc513bd36eaac7b888b4",
    ("clean-long", "subset-realization", "--max-level 1000000"):
        "ad4064142b148bf6a35a060902577fd6fbad9eec1e7bd2783b31cbb01cc2e985",
    ("noisy-wide", "exact-cover", "--two-pass"):
        "0a322007a9864e6c85adc33affc12ed99eefb98cb327a806134f92b97e2876df",
    ("noisy-wide", "exact-cover", "--keep-union-words"):
        "b76b88f56706fb5373a58ad2ea885b179a3bc169664473ffa004267868672cfd",
    ("noisy-wide", "exact-cover", "--min-count 2"):
        "3bbe4adfe07ba67f3a70cff3f19f3c6afb6c403dceb0cb6c52d9628a7d8392ae",
    ("noisy-wide", "exact-cover", "--max-level 1000000"):
        "8f5e824fba9702b9dbd5b653852694f516af7e5d466d44aed60e809210e128f2",
    ("noisy-wide", "subset-realization", "--two-pass"):
        "1f4b42c43f399b41317a2fc8c6385c33f39f2c912914c2d84917e3c52b30d954",
    ("noisy-wide", "subset-realization", "--keep-union-words"):
        "d8f700b53762ab896abbf76e093f027573fc2560df04dbd95cef801aff75d9d9",
    ("noisy-wide", "subset-realization", "--min-count 2"):
        "4ef84fc08f5f3224dd9394a30bf74edc775c2929e65184b1737e2ad8e8da77ac",
    ("noisy-wide", "subset-realization", "--max-level 1000000"):
        "3ee94644a51985c5df70b9c7e3f31dddeff3c8d34fa35d2e806641f7bec4806d",
    ("events-subset", "exact-cover", "--two-pass"):
        "11795993daa4218872c1efea231720b62ca6d76931e07ee7b1d3f6eb978c66a6",
    ("events-subset", "exact-cover", "--keep-union-words"):
        "36e2a29b34d3043fb77666a1a0d4ea659817896c68446be7e9fe97c73a662138",
    ("events-subset", "exact-cover", "--min-count 2"):
        "13e341971a707c52370021346f7d27ddd3e502d1b0c182a42734039afcf4df34",
    ("events-subset", "exact-cover", "--max-level 1000000"):
        "4d34b576873ffc6cac377017d82cea256804a9ab2b226f668d1380cee7bd7f52",
    ("events-subset", "subset-realization", "--two-pass"):
        "79eeb9d26a14aa5b3136afb37750792b0283c3eda67a90a278820511c8043325",
    ("events-subset", "subset-realization", "--keep-union-words"):
        "730107f33390c10dd856df3c9a618259eb5078616e2a72f31cbcec31da754f22",
    ("events-subset", "subset-realization", "--min-count 2"):
        "a8873e1df653ecc41ee0668c6efce5cc7869c3f12dd00a3ac4b7b4a8a1c2df07",
    ("events-subset", "subset-realization", "--max-level 1000000"):
        "1983fa0b230519f7afacc6130604287b33b8e0578553f808eaf94bfebf1391d3",
}
# `betti --level 1`, `--level 2` and `--level 3` on each built recording
BETTI = {
    "clean-long": ["1,0,0,0,0", "70,25,0", "51,1,0,0"],
    "noisy-wide": ["1,1,8,25,17", "412,59,0", "127,0,0"],
    "events-subset": ["1,1,0,0,0", "1,0,29,0,0", "1,37,7,0,0"],
}
# `compare` reads the second session too; `persist --keep-zero` runs no collapse
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
    assert sha256(tmp_path / "hs-1.json") == BUILD_SHA256[name, decomposition, option]


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
