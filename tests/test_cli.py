from __future__ import annotations

import json

import pytest
from click.testing import CliRunner

from hypercode.cli import cli

from conftest import TRIAD_CSV


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
    "id-string": _set(["levels", 0, 0, "id"], "0"),
    "id-not-position": _set(["levels", 0, 1, "id"], 0),
    "count-string": _set(["levels", 0, 0, "count"], "x"),
    "count-not-len-bins": _set(["levels", 0, 0, "count"], 5),
    "constituent-string": _set(["levels", 0, 0, "constituents"], ["a", 1]),
    "constituent-out-of-range": _set(["levels", 0, 0, "constituents"], [0, 1, 9]),
    "constituent-negative": _set(["levels", 0, 0, "constituents"], [-1, 1]),
    "constituents-unsorted": _set(["levels", 0, 0, "constituents"], [1, 0, 2]),
    "constituents-not-a-list": _set(["levels", 0, 0, "constituents"], 3),
    "level2-dangling-id": _set(["levels", 1, 0, "constituents"], [0, 3]),
    "level2-unsorted": _set(["levels", 1, 0, "constituents"], [1, 0]),
    "bins-unsorted": _set(["levels", 0, 0, "bins"], [5, 1, 3]),
    "bins-repeated": _set(["levels", 0, 0, "bins"], [0, 0, 3]),
    "bin-string": _set(["levels", 0, 0, "bins"], ["0", 3, 5]),
    "bins-missing": _drop_bins,
    "empty-level": lambda obj: obj["levels"].append([]),
    "levels-not-a-list": _set(["levels"], 5),
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
    r = runner.invoke(cli, ["betti", str(hs), "--level", "1"])
    assert r.exit_code == 1  # level-1 complex has 2-simplices beyond the cap


def test_dim_cap_env_not_an_integer(runner, tmp_path, monkeypatch):
    _, hs = _pipeline(runner, tmp_path)
    monkeypatch.setenv("HYPERCODE_DIM_CAP", "abc")
    r = runner.invoke(cli, ["betti", str(hs), "--level", "1"])
    assert r.exit_code == 1
    assert [line[:6] for line in r.stderr.splitlines()] == ["error:"]
    assert "HYPERCODE_DIM_CAP" in r.stderr and "'abc'" in r.stderr
