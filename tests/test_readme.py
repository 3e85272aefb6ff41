from __future__ import annotations

import json
import re
import shlex
from pathlib import Path

from click.testing import CliRunner

from hypercode.cli import cli
from hypercode.codes import parse_spike_matrix
from hypercode.hyperstructure import build_hyperstructure

from conftest import TRIAD_BINS, TRIAD_CSV

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_minimal_session_runs(tmp_path, monkeypatch, capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    (tmp_path / "spikes.csv").write_text(TRIAD_CSV)
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out == "1 (3, 0, 0)\n2 (1, 1)\n"


def test_readme_command_line_block_runs(tmp_path, monkeypatch):
    block = re.search(r"## Command line\n.*?```sh\n(.*?)```", README.read_text(), re.S).group(1)
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [args[1:] for args in commands if args[:1] == ["hypercode"]]
    assert len(commands) == len(block.splitlines())
    monkeypatch.chdir(tmp_path)
    Path("spikes.csv").write_text(TRIAD_CSV)
    # the triad as events at dt 0.01, each spike in the middle of its bin
    events = [f"{i},{(t + 0.5) * 0.01}" for t, active in enumerate(TRIAD_BINS) for i in active]
    Path("events.csv").write_text("neuron_id,timestamp\n" + "\n".join(events) + "\n")
    artifact = json.dumps(build_hyperstructure(parse_spike_matrix(TRIAD_CSV)[1]).to_json_obj())
    Path("a.json").write_text(artifact)
    Path("b.json").write_text(artifact)
    spec = {"n": 3, "patterns": {"a": [0, 1]}, "schedule": [[0, ["a"]], [2, ["a"]]]}
    Path("spec.json").write_text(json.dumps(spec))
    runner = CliRunner()
    for args in commands:
        r = runner.invoke(cli, args)
        assert r.exit_code == 0, (args, r.output)
