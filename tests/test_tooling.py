"""The test configuration, the package's export list and the oracles' independence."""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import hypercode

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
ORACLES = Path(__file__).resolve().parent / "oracles.py"

PROPERTY_TESTS = """
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x != 0


def test_passes():
    assert True
"""


def test_failing_property_test_is_reported_and_the_run_goes_on(tmp_path):
    # Hypothesis's failure report can import third-party modules whose
    # DeprecationWarnings must not turn the report into an INTERNALERROR
    # under the suite's filterwarnings = ["error"].
    (tmp_path / "test_props.py").write_text(PROPERTY_TESTS)
    r = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert r.returncode == 1, r.stdout + r.stderr
    assert "INTERNALERROR" not in r.stdout + r.stderr
    assert "1 failed, 1 passed" in r.stdout, r.stdout


def test_every_exported_name_resolves():
    namespace: dict = {}
    exec("from hypercode import *", namespace)  # a stale name raises AttributeError
    assert set(hypercode.__all__) <= namespace.keys()


def test_oracles_import_only_the_complex_value_type():
    # an oracle that reused the code under test would check it against itself
    imported = set()
    for node in ast.walk(ast.parse(ORACLES.read_text())):
        if isinstance(node, ast.Import):
            imported |= {(alias.name, None) for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {(node.module or "", alias.name) for alias in node.names}
    from_package = {(m, name) for m, name in imported if m.split(".")[0] == "hypercode"}
    assert from_package <= {("hypercode.codes", "SimplicialComplex")}
