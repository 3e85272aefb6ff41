from __future__ import annotations

import json

import pytest
from click.testing import CliRunner

from hypercode.cli import cli

from conftest import TRIAD_CSV, matrix_csv


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
    "constituents-empty": _set(["levels", 0, 0, "constituents"], []),
    "level2-constituents-empty": _set(["levels", 1, 0, "constituents"], []),
    "level2-dangling-id": _set(["levels", 1, 0, "constituents"], [0, 3]),
    "level2-unsorted": _set(["levels", 1, 0, "constituents"], [1, 0]),
    "bins-unsorted": _set(["levels", 0, 0, "bins"], [5, 1, 3]),
    "bins-repeated": _set(["levels", 0, 0, "bins"], [0, 0, 3]),
    "bin-string": _set(["levels", 0, 0, "bins"], ["0", 3, 5]),
    "bins-missing": _drop_bins,
    "empty-level": lambda obj: obj["levels"].append([]),
    "levels-not-a-list": _set(["levels"], 5),
    "config-max-level-float": _set(["config", "max_level"], 2.5),
    "config-max-level-bool": _set(["config", "max_level"], True),
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


def test_nerve_include_levels_not_integers(runner, tmp_path):
    _, hs = _pipeline(runner, tmp_path)
    r = runner.invoke(cli, ["nerve", str(hs), "--include-levels", "a,b"])
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
