"""Every name a library module imports must be used in it, and every private
module-level name it defines must be read somewhere in the library.

A parse of each module with ``ast``, standing in for a linter's F401 check
without depending on one.  An import stays when the module reads the name,
lists it in ``__all__``, or marks the alias's line with ``# noqa: F401``.
A private definition (``_name``, not a dunder) stays when some library
module reads it; a helper that only tests use is dead library code.
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


def _private_definitions(tree: ast.Module):
    """(name, line) of every module-level function, class or assigned name
    that starts with an underscore and is not a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [(node.name, node.lineno)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [
                (n.id, n.lineno) for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)
            ]
        else:
            continue
        for name, line in names:
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                yield name, line


def _read_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def unread_private_names(sources: dict[str, str]) -> list[tuple[str, int, str]]:
    """(module, line, name) of each private definition no module reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = {name for tree in trees.values() for name in _read_names(tree)}
    return sorted(
        (module, line, name)
        for module, tree in trees.items()
        for name, line in _private_definitions(tree)
        if name not in read
    )


def test_the_check_finds_an_unread_private_name():
    sources = {
        "a.py": (
            "_TABLE = {}\n"
            "_unused_const: int = 3\n"
            "def _helper():\n"
            "    return _TABLE\n"
            "def _dead():\n"
            "    pass\n"
            "class _Kept:\n"
            "    pass\n"
            "def __getattr__(name):\n"
            "    pass\n"
        ),
        "b.py": "from .a import _helper\nimport a\nx = a._Kept\n",
    }
    assert unread_private_names(sources) == [("a.py", 2, "_unused_const"), ("a.py", 5, "_dead")]


def test_library_defines_no_unread_private_name():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    unread = unread_private_names(sources)
    assert not unread, ", ".join(f"{module}:{line} {name}" for module, line, name in unread)
