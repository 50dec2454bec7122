"""Every name a library module imports must be used in it.

A parse of each module with ``ast``, standing in for a linter's F401 check
without depending on one.  An import stays when the module reads the name,
lists it in ``__all__``, or marks the alias's line with ``# noqa: F401``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "coupledrec"


def _imported(tree: ast.Module):
    """(name bound, line of its alias) for every import of the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], alias.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, alias.lineno


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list[tuple[int, str]]:
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported(tree)
    return [
        (line, name)
        for name, line in _imported(tree)
        if name not in used and "# noqa: F401" not in lines[line - 1]
    ]


def test_the_check_finds_an_unused_import():
    source = (
        "import os\n"
        "import numpy as np  # noqa: F401\n"
        "from math import pi, tau\n"
        "from .x import (\n"
        "    kept,\n"
        "    exported,\n"
        "    dropped,\n"
        ")\n"
        "__all__ = ['exported']\n"
        "y = tau + kept\n"
    )
    assert unused_imports(source) == [(1, "os"), (3, "pi"), (7, "dropped")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_library_modules_import_no_unused_name(path):
    unused = unused_imports(path.read_text())
    assert not unused, ", ".join(f"{path.name}:{line} {name}" for line, name in unused)
