"""The package exports only names that the program uses or the README documents,
and pyproject.toml declares the version the package reports."""

import ast
import re
from pathlib import Path

import pytest

import collapselab

PACKAGE = Path(collapselab.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"
PYPROJECT = README.with_name("pyproject.toml")


def exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def test_every_export_is_used_or_documented():
    modules = "\n".join(p.read_text() for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py")
    readme = README.read_text()
    # Two occurrences in the other modules are the definition and one use.
    unused = [
        name for name in exported_names()
        if len(re.findall(rf"\b{name}\b", modules)) < 2 and not re.search(rf"\b{name}\b", readme)
    ]
    assert unused == []


def test_pyproject_version_is_the_package_version():
    tomllib = pytest.importorskip("tomllib")
    assert tomllib.loads(PYPROJECT.read_text())["project"]["version"] == collapselab.__version__
