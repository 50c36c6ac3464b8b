"""Runtime dependencies stay at numpy alone."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ALLOWED = {"fdrelay", "numpy"} | set(sys.stdlib_module_names)


def _imported_roots(path: Path):
    """Top-level package of every import in a source file, nested ones included."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "fdrelay" if node.level else node.module.partition(".")[0]


def test_package_imports_only_numpy_and_the_standard_library():
    sources = sorted((ROOT / "src" / "fdrelay").glob("*.py"))
    assert sources
    for path in sources:
        foreign = set(_imported_roots(path)) - ALLOWED
        assert not foreign, f"{path.name} imports {sorted(foreign)}"


def test_pyproject_lists_only_numpy_at_runtime():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    names = [re.match(r"[A-Za-z0-9._-]+", dep).group(0) for dep in project["dependencies"]]
    assert names == ["numpy"]
