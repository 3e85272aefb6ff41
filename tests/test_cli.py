from __future__ import annotations

import json
from itertools import combinations

import pytest
from click.testing import CliRunner

from hypercode.cli import cli
from hypercode.codes import OccurrenceLog, members
from hypercode.homology import Barcode, barcodes_to_csv, frequency_filtration
from hypercode.hyperstructure import BuildConfig, Hyperstructure, build_hyperstructure

from conftest import TRIAD_CSV, limited_cli, matrix_csv
from oracles import betti_naive, filtration_faces_naive, maximal_naive, persistence_naive


@pytest.fixture
def runner():
    return CliRunner()


def _pipeline(runner, tmp_path, csv_text=TRIAD_CSV):
    src = tmp_path / "triad.csv"
    src.write_text(csv_text)
    log = tmp_path / "log.json"
    hs = tmp_path / "hs.json"
    r = runner.invoke(cli, ["ingest", "--format", "matrix", str(src), "-o", str(log)])
    assert r.exit_code == 0, r.output
    r = runner.invoke(cli, ["build", str(log), "--max-level", "3", "-o", str(hs)])
    assert r.exit_code == 0, r.output
    return log, hs


def test_ingest_build_betti(runner, tmp_path):
    _, hs = _pipeline(runner, tmp_path)
    r = runner.invoke(cli, ["betti", str(hs), "--level", "2"])
    assert r.exit_code == 0
    assert r.output.strip() == "1,1"
    r = runner.invoke(cli, ["betti", str(hs), "--level", "1"])
    assert r.output.strip() == "3,0,0"


def test_persist_csv(runner, tmp_path):
    _, hs = _pipeline(runner, tmp_path)
    bars = tmp_path / "bars.csv"
    r = runner.invoke(cli, ["persist", str(hs), "--level", "1", "-o", str(bars)])
    assert r.exit_code == 0
    lines = bars.read_text().strip().split("\n")
    assert lines[0] == "level,dim,birth,death"
    assert lines[1:] == ["1,0,0,inf"] * 3


def test_nerve_output(runner, tmp_path):
    _, hs = _pipeline(runner, tmp_path)
    out = tmp_path / "nerve.json"
    r = runner.invoke(cli, ["nerve", str(hs), "-o", str(out), "--betti"])
    assert r.exit_code == 0
    assert r.output.strip() == "4,0,0"
    obj = json.loads(out.read_text())
    assert len(obj["vertices"]) == 6


def test_nerve_dot_export(runner, tmp_path):
    _, hs = _pipeline(runner, tmp_path)
    dot = tmp_path / "g.dot"
    r = runner.invoke(
        cli,
        ["nerve", str(hs), "--dot", str(dot), "--dot-levels", "2", "1"],
    )
    assert r.exit_code == 0
    assert dot.read_text().startswith("graph gluing_2_1")


def test_compare_command(runner, tmp_path):
    _, hs = _pipeline(runner, tmp_path)
    r = runner.invoke(cli, ["compare", str(hs), str(hs), "--format", "table"])
    assert r.exit_code == 0
    assert "bijective" in r.output


# level 1 is one bond {0, 1}; each of levels 2..1501 is one bond on the bond below
TALL_ARTIFACT = {
    "n": 2,
    "config": BuildConfig(max_level=1501).to_json_obj(),
    "levels": [[{"id": 0, "constituents": [0, 1], "count": 1, "bins": [0]}]]
    + [[{"id": 0, "constituents": [0], "count": 1, "bins": [0]}]] * 1500,
}


def test_compare_tall_hyperstructure(runner, tmp_path):
    # one canonical form per level, each nesting the one below
    hs = tmp_path / "tall.json"
    hs.write_text(json.dumps(TALL_ARTIFACT))
    r = runner.invoke(cli, ["compare", str(hs), str(hs), "--format", "table"])
    assert r.exit_code == 0, r.output
    rows = r.output.splitlines()[1:]
    assert len(rows) == 1501 and all(" bijective " in row for row in rows)


def test_compare_with_nerve_table_to_file(runner, tmp_path):
    _, hs = _pipeline(runner, tmp_path)
    out = tmp_path / "report.txt"
    r = runner.invoke(
        cli, ["compare", str(hs), str(hs), "--with-nerve", "--format", "table", "-o", str(out)]
    )
    assert (r.exit_code, r.output) == (0, "")
    assert out.read_text().splitlines()[-1] == "nerve betti: A=(4,0,0)  B=(4,0,0)"


def test_synth_roundtrip(runner, tmp_path):
    spec = {
        "n": 9,
        "patterns": {"A": [0, 1, 2], "B": [3, 4, 5], "C": [6, 7, 8]},
        "schedule": [
            [0, ["A"]], [1, ["B"]], [2, ["C"]],
            [3, ["A", "B"]], [4, ["B", "C"]], [5, ["A", "C"]],
        ],
        "noise_rate": 0.0,
        "seed": 1,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "m.csv"
    r = runner.invoke(cli, ["synth", str(spec_path), "-o", str(out)])
    assert r.exit_code == 0
    assert out.read_text() == TRIAD_CSV


def test_ingest_events(runner, tmp_path):
    src = tmp_path / "events.csv"
    src.write_text("neuron_id,timestamp\n0,0.4\n1,0.6\n")
    log = tmp_path / "log.json"
    r = runner.invoke(
        cli, ["ingest", "--format", "events", "--dt", "0.5", str(src), "-o", str(log)]
    )
    assert r.exit_code == 0
    obj = json.loads(log.read_text())
    assert obj == {"n": 2, "bins": [[0, [0]], [1, [1]]]}


def test_domain_error_exit_1(runner, tmp_path):
    src = tmp_path / "bad.csv"
    src.write_text("1,2\n")
    r = runner.invoke(cli, ["ingest", str(src), "-o", str(tmp_path / "x.json")])
    assert r.exit_code == 1
    assert "error:" in r.output


def test_malformed_artifact_exit_1(runner, tmp_path):
    _, hs = _pipeline(runner, tmp_path)
    obj = json.loads(hs.read_text())
    obj["n"] = "x"
    hs.write_text(json.dumps(obj))
    r = runner.invoke(cli, ["persist", str(hs), "-o", str(tmp_path / "bars.csv")])
    assert r.exit_code == 1
    assert [line[:6] for line in r.stderr.splitlines()] == ["error:"]


def _set(path, value):
    """Mutation that sets obj[path[0]][path[1]]... to value."""

    def mutate(obj):
        *head, last = path
        for key in head:
            obj = obj[key]
        obj[last] = value

    return mutate


def _drop_bins(obj):
    del obj["levels"][0][0]["bins"]


ARTIFACT_MUTATIONS = {
    "n-float": _set(["n"], 9.0),
    "n-bool": _set(["n"], True),
    "n-negative": lambda obj: obj.update(n=-1, levels=[]),
    "id-string": _set(["levels", 0, 0, "id"], "0"),
    "id-not-position": _set(["levels", 0, 1, "id"], 0),
    "count-string": _set(["levels", 0, 0, "count"], "x"),
    "count-not-len-bins": _set(["levels", 0, 0, "count"], 5),
    "constituent-string": _set(["levels", 0, 0, "constituents"], ["a", 1]),
    "constituent-out-of-range": _set(["levels", 0, 0, "constituents"], [0, 1, 9]),
    "constituent-negative": _set(["levels", 0, 0, "constituents"], [-1, 1]),
    "constituents-unsorted": _set(["levels", 0, 0, "constituents"], [1, 0, 2]),
    "constituents-not-a-list": _set(["levels", 0, 0, "constituents"], 3),
    "constituents-empty": _set(["levels", 0, 0, "constituents"], []),
    "level2-constituents-empty": _set(["levels", 1, 0, "constituents"], []),
    "level2-dangling-id": _set(["levels", 1, 0, "constituents"], [0, 3]),
    "level2-unsorted": _set(["levels", 1, 0, "constituents"], [1, 0]),
    "bins-unsorted": _set(["levels", 0, 0, "bins"], [5, 1, 3]),
    "bins-repeated": _set(["levels", 0, 0, "bins"], [0, 0, 3]),
    "bin-string": _set(["levels", 0, 0, "bins"], ["0", 3, 5]),
    "bin-negative": lambda obj: obj["levels"][0][0].update(bins=[-7, 4], count=2),
    "bins-missing": _drop_bins,
    "empty-level": lambda obj: obj["levels"].append([]),
    "duplicate-bond": lambda obj: obj["levels"][0].append({**obj["levels"][0][0], "id": 3}),
    "levels-not-a-list": _set(["levels"], 5),
    "config-max-level-float": _set(["config", "max_level"], 2.5),
    "config-max-level-bool": _set(["config", "max_level"], True),
    "levels-above-max-level": _set(["config", "max_level"], 1),
    "config-min-count-float": _set(["config", "min_count"], 1.0),
    "config-two-pass-string": _set(["config", "two_pass"], "no"),
    "config-keep-union-words-int": _set(["config", "keep_union_words"], 0),
    "config-key-missing": lambda obj: obj["config"].pop("min_count"),
    "config-key-unknown": _set(["config", "seed"], 1),
}


@pytest.mark.parametrize("mutate", ARTIFACT_MUTATIONS.values(), ids=ARTIFACT_MUTATIONS.keys())
def test_mutated_artifact_is_one_error_line(runner, tmp_path, mutate):
    _, hs = _pipeline(runner, tmp_path)
    obj = json.loads(hs.read_text())
    mutate(obj)
    hs.write_text(json.dumps(obj))
    r = runner.invoke(cli, ["persist", str(hs), "-o", str(tmp_path / "bars.csv")])
    assert r.exit_code == 1
    assert isinstance(r.exception, SystemExit)
    assert [line[:6] for line in r.stderr.splitlines()] == ["error:"]
    assert "Traceback" not in r.output


def test_nerve_dot_without_levels_fails_before_work(runner, tmp_path):
    _, hs = _pipeline(runner, tmp_path)
    out = tmp_path / "nerve.json"
    r = runner.invoke(cli, ["nerve", str(hs), "-o", str(out), "--dot", str(tmp_path / "g.dot")])
    assert r.exit_code == 1
    assert "--dot-levels" in r.stderr
    assert not out.exists()


def test_nerve_dot_levels_out_of_range_fails_before_writing(runner, tmp_path):
    _, hs = _pipeline(runner, tmp_path)
    out, dot = tmp_path / "nerve.json", tmp_path / "g.dot"
    r = runner.invoke(
        cli, ["nerve", str(hs), "-o", str(out), "--dot", str(dot), "--dot-levels", "5", "0"]
    )
    assert r.exit_code == 1
    assert [line[:6] for line in r.stderr.splitlines()] == ["error:"]
    assert not out.exists() and not dot.exists()


@pytest.mark.parametrize("refused", ["dot", "output", "same"])
def test_nerve_refused_path_writes_neither_file(runner, tmp_path, refused):
    _, hs = _pipeline(runner, tmp_path)
    out, dot = tmp_path / "nerve.json", tmp_path / "g.dot"
    if refused == "dot":
        dot = tmp_path / "missing" / "g.dot"
    elif refused == "output":
        out = tmp_path / "missing" / "nerve.json"
    else:
        (tmp_path / "sub").mkdir()
        dot = tmp_path / "sub" / ".." / "nerve.json"  # the -o file under another name
    r = runner.invoke(
        cli, ["nerve", str(hs), "-o", str(out), "--dot", str(dot), "--dot-levels", "1", "0"]
    )
    assert r.exit_code == 1
    assert [line[:6] for line in r.stderr.splitlines()] == ["error:"]
    assert not out.exists() and not dot.exists()


# flags that apply to another format or need another flag
UNUSED_FLAGS = {
    "nerve-dot-levels-without-dot": ["nerve", "hs.json", "--dot-levels", "1", "0"],
    "ingest-matrix-dt": ["ingest", "triad.csv", "--dt", "0.5", "-o", "out"],
    "ingest-matrix-neurons": ["ingest", "triad.csv", "--neurons", "9", "-o", "out"],
    "ingest-events-header": [
        "ingest", "triad.csv", "--format", "events", "--dt", "0.5", "--header", "-o", "out"
    ],
}


@pytest.mark.parametrize("argv", UNUSED_FLAGS.values(), ids=UNUSED_FLAGS.keys())
def test_unused_flag_is_one_error_line(runner, tmp_path, monkeypatch, argv):
    _pipeline(runner, tmp_path)
    monkeypatch.chdir(tmp_path)
    r = runner.invoke(cli, argv)
    assert r.exit_code == 1
    assert isinstance(r.exception, SystemExit)
    assert [line[:6] for line in r.stderr.splitlines()] == ["error:"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("levels", ["7", "0,-1"])
def test_nerve_include_levels_out_of_range(runner, tmp_path, levels):
    _, hs = _pipeline(runner, tmp_path)
    out = tmp_path / "nerve.json"
    r = runner.invoke(cli, ["nerve", str(hs), "--include-levels", levels, "-o", str(out)])
    assert r.exit_code == 1
    assert isinstance(r.exception, SystemExit)
    assert [line[:6] for line in r.stderr.splitlines()] == ["error:"]
    assert "out of range 1..2" in r.stderr
    assert not out.exists()


@pytest.mark.parametrize("levels", ["a,b", ""], ids=["a,b", "empty"])
def test_nerve_include_levels_not_integers(runner, tmp_path, levels):
    _, hs = _pipeline(runner, tmp_path)
    r = runner.invoke(cli, ["nerve", str(hs), "--include-levels", levels])
    assert r.exit_code == 1
    assert isinstance(r.exception, SystemExit)
    assert [line[:6] for line in r.stderr.splitlines()] == ["error:"]
    assert "--include-levels" in r.stderr


@pytest.mark.parametrize(
    "command", [["build"], ["persist"], ["ingest"]], ids=["build-json", "persist-json", "ingest-csv"]
)
def test_input_not_utf8_is_one_error_line(runner, tmp_path, command):
    src = tmp_path / "input"
    src.write_bytes(b"\xff\xfe")
    r = runner.invoke(cli, [*command, str(src), "-o", str(tmp_path / "out")])
    assert r.exit_code == 1
    assert isinstance(r.exception, SystemExit)
    assert [line[:6] for line in r.stderr.splitlines()] == ["error:"]
    assert not (tmp_path / "out").exists()


def test_usage_error_exit_2(runner):
    r = runner.invoke(cli, ["build", "--definitely-not-a-flag"])
    assert r.exit_code == 2


def test_version(runner):
    r = runner.invoke(cli, ["--version"])
    assert r.exit_code == 0
    assert "schema" in r.output and "gf2 kernel" in r.output


def test_end_to_end_determinism(runner, tmp_path):
    outputs = []
    for tag in ("one", "two"):
        d = tmp_path / tag
        d.mkdir()
        log, hs = _pipeline(runner, d)
        bars = d / "bars.csv"
        nerve_json = d / "nerve.json"
        runner.invoke(cli, ["persist", str(hs), "-o", str(bars)])
        runner.invoke(cli, ["nerve", str(hs), "-o", str(nerve_json)])
        outputs.append(
            (
                log.read_bytes(),
                hs.read_bytes(),
                bars.read_bytes(),
                nerve_json.read_bytes(),
            )
        )
    assert outputs[0] == outputs[1]


def test_dim_cap_env_override(runner, tmp_path, monkeypatch):
    _, hs = _pipeline(runner, tmp_path)
    monkeypatch.setenv("HYPERCODE_DIM_CAP", "1")
    # the level-1 complex has 2-simplices beyond the cap: beta_0 only
    r = runner.invoke(cli, ["betti", str(hs), "--level", "1"])
    assert r.exit_code == 0
    assert r.stdout == "3\n"
    assert "dim_cap 1" in r.stderr
    r = runner.invoke(cli, ["betti", str(hs), "--level", "1", "--max-dim", "1"])
    assert r.exit_code == 1


# a 7-neuron bin, then six pairs that each share neuron 0 with it: the
# level-1 complex is a 6-simplex and so is the nerve, both above the cap of 5
WIDE_CSV = matrix_csv(7, [set(range(7))] + [{0, j} for j in range(1, 7)])


def test_betti_above_cap_stops_below_it(runner, tmp_path, monkeypatch):
    monkeypatch.delenv("HYPERCODE_DIM_CAP", raising=False)
    _, hs = _pipeline(runner, tmp_path, WIDE_CSV)
    r = runner.invoke(cli, ["betti", str(hs), "--level", "1"])
    assert r.exit_code == 0, r.output
    assert r.stdout == "1,0,0,0,0\n"
    assert r.stderr.count("\n") == 1 and "dimension 6 exceeds dim_cap 5" in r.stderr
    r = runner.invoke(cli, ["betti", str(hs), "--level", "1", "--max-dim", "3"])
    assert (r.exit_code, r.stdout, r.stderr) == (0, "1,0,0,0\n", "")
    r = runner.invoke(cli, ["betti", str(hs), "--level", "1", "--max-dim", "5"])
    assert r.exit_code == 1


def test_nerve_betti_above_cap_stops_below_it(runner, tmp_path, monkeypatch):
    monkeypatch.delenv("HYPERCODE_DIM_CAP", raising=False)
    _, hs = _pipeline(runner, tmp_path, WIDE_CSV)
    out = tmp_path / "nerve.json"
    r = runner.invoke(cli, ["nerve", str(hs), "--betti", "-o", str(out)])
    assert r.exit_code == 0, r.output
    assert r.stdout == "1,0,0,0,0\n"
    assert r.stderr.count("\n") == 1 and "dimension 6 exceeds dim_cap 5" in r.stderr
    assert json.loads(out.read_text())["maximal"] == [list(range(7))]


def test_persist_no_levels_writes_only_the_header(runner, tmp_path):
    hs = tmp_path / "hs.json"
    hs.write_text(json.dumps(build_hyperstructure(OccurrenceLog(3, ())).to_json_obj()))
    bars = tmp_path / "bars.csv"
    r = runner.invoke(cli, ["persist", str(hs), "-o", str(bars)])
    assert r.exit_code == 0, r.output
    assert bars.read_text() == "level,dim,birth,death\n"
    assert r.output == ""


def test_persist_names_the_cap_only_when_cut(runner, tmp_path, monkeypatch):
    monkeypatch.delenv("HYPERCODE_DIM_CAP", raising=False)
    note = (
        "note: level 1: complex dimension exceeds dim_cap 5; "
        "intervals of dimension 5 and above dropped\n"
    )
    bars = tmp_path / "bars.csv"
    _, hs = _pipeline(runner, tmp_path, WIDE_CSV)
    for level in ([], ["--level", "1"]):
        r = runner.invoke(cli, ["persist", str(hs), *level, "-o", str(bars)])
        assert (r.exit_code, r.stderr) == (0, note), r.output
    _, hs = _pipeline(runner, tmp_path)
    r = runner.invoke(cli, ["persist", str(hs), "-o", str(bars)])
    assert (r.exit_code, r.stderr) == (0, "")


def test_compare_names_the_cap_only_when_cut(runner, tmp_path, monkeypatch):
    monkeypatch.delenv("HYPERCODE_DIM_CAP", raising=False)
    _, hs = _pipeline(runner, tmp_path, WIDE_CSV)
    r = runner.invoke(cli, ["compare", str(hs), str(hs), "--with-nerve"])
    assert r.exit_code == 0, r.output
    report = json.loads(r.stdout)
    assert report["levels"][0]["betti_a"] == [1, 0, 0, 0, 0]
    assert report["nerve"]["betti_a"] == [1, 0, 0, 0, 0]
    assert report["dim_cap"] == 5
    r = runner.invoke(cli, ["compare", str(hs), str(hs), "--format", "table"])
    assert r.stdout.splitlines()[-1].startswith("betti cut at dim_cap 5")
    (tmp_path / "triad").mkdir()
    _, triad = _pipeline(runner, tmp_path / "triad")
    for fmt in ("json", "table"):
        r = runner.invoke(cli, ["compare", str(triad), str(triad), "--format", fmt])
        assert "dim_cap" not in r.stdout


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_dim_cap_below_one(runner, tmp_path, monkeypatch, cap):
    _, hs = _pipeline(runner, tmp_path)
    out = tmp_path / "bars.csv"
    r = runner.invoke(cli, ["persist", str(hs), "--dim-cap", cap, "-o", str(out)])
    assert r.exit_code == 1
    assert [line[:6] for line in r.stderr.splitlines()] == ["error:"]
    assert not out.exists()
    monkeypatch.setenv("HYPERCODE_DIM_CAP", cap)
    r = runner.invoke(cli, ["betti", str(hs), "--level", "1"])
    assert r.exit_code == 1
    assert "HYPERCODE_DIM_CAP" in r.stderr and repr(cap) in r.stderr


def test_betti_negative_max_dim(runner, tmp_path):
    _, hs = _pipeline(runner, tmp_path)
    r = runner.invoke(cli, ["betti", str(hs), "--level", "1", "--max-dim", "-3"])
    assert r.exit_code == 1
    assert r.stdout == ""
    assert [line[:6] for line in r.stderr.splitlines()] == ["error:"]


def test_dim_cap_env_not_an_integer(runner, tmp_path, monkeypatch):
    _, hs = _pipeline(runner, tmp_path)
    monkeypatch.setenv("HYPERCODE_DIM_CAP", "abc")
    r = runner.invoke(cli, ["betti", str(hs), "--level", "1"])
    assert r.exit_code == 1
    assert [line[:6] for line in r.stderr.splitlines()] == ["error:"]
    assert "HYPERCODE_DIM_CAP" in r.stderr and "'abc'" in r.stderr


LOG_NOT_INTEGER = {
    "n-float": {"n": 3.9, "bins": [[0, [0, 1]]]},
    "n-bool": {"n": True, "bins": [[0, [0]]]},
    "bin-index-float": {"n": 3, "bins": [[0.5, [0, 1]]]},
    "neuron-float": {"n": 3, "bins": [[0, [0.5, 1]]]},
}


@pytest.mark.parametrize("obj", LOG_NOT_INTEGER.values(), ids=LOG_NOT_INTEGER.keys())
def test_build_log_not_integer_is_one_error_line(runner, tmp_path, obj):
    log = tmp_path / "log.json"
    log.write_text(json.dumps(obj))
    out = tmp_path / "hs.json"
    r = runner.invoke(cli, ["build", str(log), "-o", str(out)])
    assert r.exit_code == 1
    assert isinstance(r.exception, SystemExit)
    assert [line[:6] for line in r.stderr.splitlines()] == ["error:"]
    assert not out.exists()


# deeper than the JSON decoder's recursion limit
NESTED_JSON = "[" * 100_000 + "]" * 100_000
BAD_INPUT = {
    "json-invalid": ("{", ["build"]),
    "log-key-missing": ('{"bins": []}', ["build"]),
    "log-bins-not-increasing": ('{"n": 2, "bins": [[1, [0]], [0, [1]]]}', ["build"]),
    "log-neuron-out-of-range": ('{"n": 2, "bins": [[0, [0, 2]]]}', ["build"]),
    "log-neuron-negative": ('{"n": 2, "bins": [[0, [-1]]]}', ["build"]),
    "log-n-negative": ('{"n": -3, "bins": []}', ["build"]),
    "events-without-dt": ("0,0.1\n", ["ingest", "--format", "events"]),
    "event-row-bad": ("0,abc\n", ["ingest", "--format", "events", "--dt", "0.5"]),
    "event-row-short": ("0\n", ["ingest", "--format", "events", "--dt", "0.5"]),
    "event-row-long": ("0,0.1,9\n", ["ingest", "--format", "events", "--dt", "0.5"]),
    "events-neurons-negative": (
        "neuron_id,timestamp\n",
        ["ingest", "--format", "events", "--dt", "0.1", "--neurons", "-1"],
    ),
    "json-nested-build": (NESTED_JSON, ["build"]),
    "json-nested-betti": (NESTED_JSON, ["betti", "--level", "1"]),
    "json-nested-synth": (NESTED_JSON, ["synth"]),
}


@pytest.mark.parametrize("text, command", BAD_INPUT.values(), ids=BAD_INPUT.keys())
def test_bad_input_is_one_error_line(runner, tmp_path, text, command):
    src = tmp_path / "input"
    src.write_text(text)
    out = tmp_path / "out.json"
    output = [] if command[0] == "betti" else ["-o", str(out)]
    r = runner.invoke(cli, [*command, str(src), *output])
    assert r.exit_code == 1
    assert isinstance(r.exception, SystemExit)
    assert [line[:6] for line in r.stderr.splitlines()] == ["error:"]
    assert not out.exists()


# each pair of the 60 level-1 bonds {0, b + 1} meets at neuron 0, so the
# nerve is one 59-simplex: its faces below the dim cap would need
# gigabytes, but it collapses to a point
STAR_ARTIFACT = {
    "n": 61,
    "config": BuildConfig().to_json_obj(),
    "levels": [
        [{"id": b, "constituents": [0, b + 1], "count": 1, "bins": [b]} for b in range(60)]
    ],
}


def _cross_polytope_artifact(m: int) -> dict:
    """Level-1 bonds a_i, b_i (i < m); each pair with different i shares one
    private neuron, so a_i and b_i are disjoint and every other pair meets.
    G(1, 0) is the cross-polytope graph: 2^m maximal cliques and no
    dominated vertex, so nothing collapses."""
    bonds = [(i, side) for i in range(m) for side in (0, 1)]
    meeting = [(x, y) for x, y in combinations(bonds, 2) if x[0] != y[0]]
    support: dict[tuple[int, int], list[int]] = {b: [] for b in bonds}
    for neuron, (x, y) in enumerate(meeting):
        support[x].append(neuron)
        support[y].append(neuron)
    return {
        "n": len(meeting),
        "config": BuildConfig().to_json_obj(),
        "levels": [
            [
                {"id": k, "constituents": support[b], "count": 1, "bins": [k]}
                for k, b in enumerate(bonds)
            ]
        ],
    }


# 2^19 cliques of 19 bonds: within the clique budget, but their faces
# below the dim cap need gigabytes
CROSS_ARTIFACT = _cross_polytope_artifact(19)
ADDRESS_SPACE = 256 << 20  # bytes each limited_cli run may map


@pytest.mark.parametrize(
    "command", [["nerve", "--betti"], ["compare", "--with-nerve"]], ids=["nerve", "compare"]
)
def test_out_of_memory_is_one_error_line(tmp_path, command):
    hs = tmp_path / "hs.json"
    hs.write_text(json.dumps(CROSS_ARTIFACT))
    name, *flags = command
    paths = [str(hs)] * (2 if name == "compare" else 1)
    r = limited_cli(ADDRESS_SPACE, name, *paths, *flags)
    assert r.returncode == 1, r.stderr
    assert r.stderr == "error: out of memory\n"
    assert r.stdout == ""


def test_star_nerve_collapses_to_a_point(tmp_path):
    hs = tmp_path / "hs.json"
    hs.write_text(json.dumps(STAR_ARTIFACT))
    r = limited_cli(ADDRESS_SPACE, "nerve", str(hs), "--betti")
    assert r.returncode == 0, r.stderr
    assert r.stdout == "1,0,0,0,0\n"
    assert r.stderr == "note: complex dimension 59 exceeds dim_cap 5; printing beta_0..beta_4\n"


def _level1_artifact(bonds) -> dict:
    """A one-level artifact of (constituents, count) bonds, bins in turn."""
    starts = [sum(count for _, count in bonds[:k]) for k in range(len(bonds))]
    return {
        "n": max(max(s) for s, _ in bonds) + 1,
        "config": BuildConfig().to_json_obj(),
        "levels": [
            [
                {
                    "id": k,
                    "constituents": sorted(s),
                    "count": count,
                    "bins": list(range(t, t + count)),
                }
                for k, ((s, count), t) in enumerate(zip(bonds, starts))
            ]
        ],
    }


# one 50-neuron bond (C(50, 6), about 16M faces of dimension 5), met in
# neurons 0-3 by two cycles of smaller bonds, the first filled later
WIDE_BOND = [
    (range(50), 4),
    ([0, 50], 3),
    ([50, 51], 3),
    ([51, 1], 3),
    ([2, 52], 2),
    ([52, 53], 2),
    ([53, 3], 2),
    ([0, 1, 50, 51], 1),
]


def test_wide_bond_matches_dense_oracle(tmp_path):
    hs = tmp_path / "hs.json"
    hs.write_text(json.dumps(_level1_artifact(WIDE_BOND)))
    bars = tmp_path / "bars.csv"
    r = limited_cli(ADDRESS_SPACE, "persist", str(hs), "-o", str(bars))
    assert r.returncode == 0, r.stderr
    assert r.stderr.startswith("note: level 1: complex dimension exceeds dim_cap 5")
    betti = limited_cli(ADDRESS_SPACE, "betti", str(hs), "--level", "1")
    assert betti.returncode == 0, betti.stderr
    # neurons 4..49 lie in the wide bond alone, so every sublevel complex
    # retracts onto the one where that bond is cut to neurons 0..3: the
    # dense oracle reduces that one, all its faces enumerated
    cut = [(range(4), 4), *WIDE_BOND[1:]]
    f = frequency_filtration(Hyperstructure.from_json_obj(_level1_artifact(cut)), 1)
    faces = filtration_faces_naive(f.generators, f.top)
    expected = [iv for iv in persistence_naive(*faces) if iv[2] > iv[1]]
    assert bars.read_text() == barcodes_to_csv([(1, Barcode(tuple(expected)))])
    maximal = maximal_naive(tuple(members(mask)) for mask, _ in f.generators)
    assert betti.stdout == ",".join(map(str, betti_naive(list(maximal), 4))) + "\n"


# two bonds that meet in neuron 1 of 100,000: a gluing graph that starts
# its downsets from one mask per neuron, rather than per bond, takes n^2 bits
TWO_BONDS_WIDE = _level1_artifact([([0, 1], 1), ([1, 99_999], 1)])


@pytest.mark.parametrize("command", ["nerve", "nerve-dot", "compare"])
def test_nerve_memory_grows_with_bonds_times_neurons(tmp_path, command):
    hs = tmp_path / "hs.json"
    hs.write_text(json.dumps(TWO_BONDS_WIDE))
    args = {
        "nerve": ["nerve", str(hs)],
        "nerve-dot": ["nerve", str(hs), "-o", str(tmp_path / "nerve.json"),
                      "--dot", str(tmp_path / "g.dot"), "--dot-levels", "1", "0"],
        "compare": ["compare", str(hs), str(hs), "--with-nerve"],
    }[command]
    r = limited_cli(ADDRESS_SPACE, *args)
    assert r.returncode == 0, r.stderr
    if command == "nerve":
        assert r.stdout == "1,0\n"
    if command == "nerve-dot":
        assert (tmp_path / "g.dot").read_text() == (
            'graph gluing_1_0 {\n  0;\n  1;\n  0 -- 1 [label="1"];\n}\n'
        )


def test_build_max_level_is_only_an_upper_bound(tmp_path):
    # the builder makes a level when a bin first reaches it, so a bound far
    # above the levels a log reaches costs nothing
    log = tmp_path / "log.json"
    log.write_text(json.dumps({"n": 3, "bins": [[0, [0, 1]], [1, [0, 1, 2]]]}))
    artifacts = []
    for bound in ("3", "100000000"):
        hs = tmp_path / f"hs-{bound}.json"
        r = limited_cli(ADDRESS_SPACE, "build", str(log), "--max-level", bound, "-o", str(hs))
        assert r.returncode == 0, r.stderr
        artifact = json.loads(hs.read_text())
        assert artifact["config"].pop("max_level") == int(bound)
        artifacts.append(artifact)
    assert artifacts[0] == artifacts[1]


# (input text, argv before the input; {out} is the written path): ints too
# large for a mask, a vertex table or a float, in a process capped at 256 MiB
TOO_LARGE = {
    "build-neuron": (
        json.dumps({"n": 10**31, "bins": [[0, [10**30]]]}),
        ["build", "-o", "{out}"],
    ),
    "ingest-neuron": (
        f"neuron_id,timestamp\n{10**30},0.1\n",
        ["ingest", "--format", "events", "--dt", "0.5", "-o", "{out}"],
    ),
    "betti-n": (
        json.dumps({**_level1_artifact([([0, 1], 1)]), "n": 10**31}),
        ["betti", "--level", "1"],
    ),
    "synth-noise-rate": (
        json.dumps({"n": 3, "patterns": {}, "schedule": [], "noise_rate": 10**400}),
        ["synth", "-o", "{out}"],
    ),
}


@pytest.mark.parametrize("text, argv", TOO_LARGE.values(), ids=TOO_LARGE.keys())
def test_int_too_large_is_one_error_line(tmp_path, text, argv):
    src = tmp_path / "input"
    src.write_text(text)
    out = tmp_path / "out"
    r = limited_cli(ADDRESS_SPACE, *(arg.format(out=out) for arg in argv), str(src))
    assert r.returncode == 1
    assert [line[:6] for line in r.stderr.splitlines()] == ["error:"]
    assert not out.exists()


def test_synth_empty_schedule_too_many_rows_is_one_error_line(tmp_path):
    # n x 0 cells, but n row lists: under the cap, an unchecked spec runs out of memory
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"n": 10**8, "patterns": {}, "schedule": []}))
    out = tmp_path / "m.csv"
    r = limited_cli(ADDRESS_SPACE, "synth", str(spec), "-o", str(out))
    assert r.returncode == 1
    assert r.stderr.startswith("error: spec needs a 100000000 x 0 grid")
    assert len(r.stderr.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "events, dt",
    [
        ("0,nan\n", "0.5"),
        ("0,inf\n", "0.5"),
        ("0,1e300\n", "1e-10"),
        ("0,0.4\n", "nan"),
        ("0,0.4\n", "inf"),
        ("0,0.4\n", "1e-320"),
    ],
    ids=["t-nan", "t-inf", "bin-index-not-finite", "dt-nan", "dt-inf", "dt-subnormal"],
)
def test_ingest_events_not_finite_is_one_error_line(runner, tmp_path, events, dt):
    src = tmp_path / "events.csv"
    src.write_text("neuron_id,timestamp\n" + events)
    out = tmp_path / "log.json"
    r = runner.invoke(cli, ["ingest", "--format", "events", "--dt", dt, str(src), "-o", str(out)])
    assert r.exit_code == 1
    assert isinstance(r.exception, SystemExit)
    assert [line[:6] for line in r.stderr.splitlines()] == ["error:"]
    assert not out.exists()


SYNTH_BAD = {
    "n-float": {"n": 3.9, "patterns": {"a": [0, 1]}, "schedule": [[0, ["a"]]]},
    "seed-float": {"n": 3, "patterns": {"a": [0, 1]}, "schedule": [[0, ["a"]]], "seed": 2.5},
    "bin-float": {"n": 3, "patterns": {"a": [0, 1]}, "schedule": [[0.7, ["a"]]]},
    "bin-negative": {"n": 3, "patterns": {"a": [0, 1]}, "schedule": [[-1, ["a"]]]},
    "bin-negative-late": {"n": 3, "patterns": {"a": [0, 1]}, "schedule": [[2, ["a"]], [-1, ["a"]]]},
    "member-float": {"n": 3, "patterns": {"a": [0.5, 1]}, "schedule": [[0, ["a"]]]},
    "member-string": {"n": 3, "patterns": {"a": ["0", 1]}, "schedule": [[0, ["a"]]]},
    "grid-too-large": {"n": 3, "patterns": {"a": [0, 1]}, "schedule": [[10**12, ["a"]]]},
    "n-negative": {"n": -1, "patterns": {}, "schedule": []},
    "pattern-past-n": {"n": 3, "patterns": {"a": [0, 3]}, "schedule": [[0, ["a"]]]},
    "schedule-missing": {"n": 3, "patterns": {"a": [0, 1]}},
    "patterns-list": {"n": 3, "patterns": [], "schedule": []},
    "names-string": {"n": 3, "patterns": {"a": [0], "b": [1]}, "schedule": [[0, "ab"]]},
    "noise-rate-string": {"n": 3, "patterns": {}, "schedule": [], "noise_rate": "0.5"},
    "noise-rate-bool": {"n": 3, "patterns": {}, "schedule": [], "noise_rate": True},
    "unknown-key": {"n": 3, "patterns": {"a": [0, 1]}, "schedule": [[0, ["a"]]], "noise": 0.5},
}


@pytest.mark.parametrize("obj", SYNTH_BAD.values(), ids=SYNTH_BAD.keys())
def test_synth_spec_not_strict_is_one_error_line(runner, tmp_path, obj):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(obj))
    out = tmp_path / "m.csv"
    r = runner.invoke(cli, ["synth", str(spec), "-o", str(out)])
    assert r.exit_code == 1
    assert isinstance(r.exception, SystemExit)
    assert [line[:6] for line in r.stderr.splitlines()] == ["error:"]
    assert not out.exists()


# command -> (its input files, argv from the inputs and the written path)
PATH_COMMANDS = {
    "ingest": (["triad.csv"], lambda src, out: ["ingest", *src, "-o", out]),
    "build": (["log.json"], lambda src, out: ["build", *src, "-o", out]),
    "persist": (["hs.json"], lambda src, out: ["persist", *src, "-o", out]),
    "compare": (["hs.json", "hs.json"], lambda src, out: ["compare", *src, "-o", out]),
    "synth": (["spec.json"], lambda src, out: ["synth", *src, "-o", out]),
    "nerve-dot": (
        ["hs.json"],
        lambda src, out: ["nerve", *src, "--dot", out, "--dot-levels", "1", "0"],
    ),
}


@pytest.mark.parametrize("fault", ["input-dir", "output-dir", "output-in-missing-dir"])
@pytest.mark.parametrize("command", PATH_COMMANDS)
def test_refused_path_is_one_error_line(runner, tmp_path, command, fault):
    _pipeline(runner, tmp_path)
    (tmp_path / "spec.json").write_text(
        json.dumps({"n": 3, "patterns": {"a": [0, 1]}, "schedule": [[0, ["a"]]]})
    )
    inputs, argv = PATH_COMMANDS[command]
    src = [str(tmp_path / name) for name in inputs]
    out = str(tmp_path / "out")
    if fault == "input-dir":
        src[0] = str(tmp_path)
    elif fault == "output-dir":
        out = str(tmp_path)
    else:
        out = str(tmp_path / "missing" / "out")
    r = runner.invoke(cli, argv(src, out))
    assert r.exit_code == 1
    assert isinstance(r.exception, SystemExit)
    assert [line[:6] for line in r.stderr.splitlines()] == ["error:"]
    assert not (tmp_path / "out").exists()
