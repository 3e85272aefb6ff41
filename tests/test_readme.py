from __future__ import annotations

import re
from pathlib import Path

from conftest import TRIAD_CSV

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_minimal_session_runs(tmp_path, monkeypatch, capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    (tmp_path / "spikes.csv").write_text(TRIAD_CSV)
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out == "1 (3, 0, 0)\n2 (1, 1)\n"
