"""The package as installed and as the benchmark's tracer sees it."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

from nvalue.polyring import Polynomial

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))
import spans  # noqa: E402


def test_no_runtime_dependency():
    # numpy is only for mvgroup.pn_roots, a reference no command calls
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project.get("dependencies", []) == []


def test_traced_names_resolve():
    # benchmarks/spans.py looks these up by name; a missing one fails --trace 1
    for span, (module, attr) in spans.SPANS.items():
        assert callable(getattr(importlib.import_module(module), attr, None)), span
    for span, names in spans.METHODS.items():
        for name in names:
            assert callable(getattr(Polynomial, name, None)), (span, name)


@pytest.mark.parametrize("module", ("polyring", "symdecomp", "newton"))
def test_generic_modules_import_nothing_specific_to_pn(module):
    tree = ast.parse((ROOT / "src" / "nvalue" / f"{module}.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(part for a in node.names for part in a.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            imported.update((node.module or "").split("."))
            imported.update(a.name for a in node.names)
    assert not imported & {"construct", "conjectures", "mvgroup", "cli"}
