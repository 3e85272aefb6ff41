"""The test configuration, the package's export list, the oracles' independence,
unused imports and unused definitions."""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import hypercode

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
TESTS = Path(__file__).resolve().parent
ORACLES = TESTS / "oracles.py"
PACKAGE = TESTS.parent / "src" / "hypercode"
PERFBENCH_RUN = TESTS.parent / "perfbench" / "run.py"

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


def test_every_imported_name_is_read():
    # __init__.py imports to export; a line marked noqa: F401 re-exports
    paths = sorted([*TESTS.glob("*.py"), *PACKAGE.glob("*.py")])
    assert PACKAGE / "codes.py" in paths
    unused = []
    for path in paths:
        if path.name == "__init__.py":
            continue
        text = path.read_text()
        lines, tree = text.splitlines(), ast.parse(text)
        imported = {}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if getattr(node, "module", None) == "__future__":
                continue
            if any("noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
                continue
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in read]
    assert unused == []


def _is_cli_command(decorator: ast.expr) -> bool:
    """Whether ``decorator`` is ``@cli.command`` or ``@cli.group``, called or not."""
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return (
        isinstance(target, ast.Attribute)
        and target.attr in ("command", "group")
        and isinstance(target.value, ast.Name)
        and target.value.id == "cli"
    )


def test_every_definition_is_read_by_the_program():
    # a function, class or method that only the tests read is a superseded
    # path; click reaches the commands through their decorators, Python the
    # dunder methods, and a method is read only as an attribute
    names, attributes = set(hypercode.__all__), set()
    for path in [*PACKAGE.glob("*.py"), PERFBENCH_RUN]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
    paths = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "codes.py" in paths
    read, unread = names | attributes, []
    for path in paths:
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name not in read and not any(
                map(_is_cli_command, node.decorator_list)
            ):
                unread.append(f"{path.name} {node.name}")
            for method in node.body if isinstance(node, ast.ClassDef) else ():
                if (
                    isinstance(method, ast.FunctionDef)
                    and not (method.name.startswith("__") and method.name.endswith("__"))
                    and method.name not in attributes
                ):
                    unread.append(f"{path.name} {node.name}.{method.name}")
    assert unread == []
