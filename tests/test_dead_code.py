"""Every top-level function and class of ``src/repro`` has a user.

A name counts as used when some module of ``src/`` other than a package
``__init__.py`` (whose imports only re-export), or some test, refers to it:
as a name, an attribute or an imported name, anywhere but its own
definition.  Console-script entry points named in ``pyproject.toml`` count as
used too.  Code that only its own tests reach still passes; code nothing
reaches at all fails here, so it is deleted instead of kept.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"


def _trees(paths):
    return {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}


def _definitions(trees) -> dict[str, list[str]]:
    """Top-level function and class names, with the modules defining them."""
    found: dict[str, list[str]] = {}
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found.setdefault(node.name, []).append(str(path.relative_to(ROOT)))
    return found


def _references(trees) -> set[str]:
    """Every name, attribute and imported name the modules refer to."""
    names: set[str] = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
    return names


def _entry_points() -> set[str]:
    """The callables of ``[project.scripts]`` (``module:callable``)."""
    text = (ROOT / "pyproject.toml").read_text()
    section = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    return set(re.findall(r":(\w+)\"", section.group(1))) if section else set()


def unreferenced() -> list[str]:
    """``module: name`` of every top-level definition nothing refers to."""
    sources = _trees(sorted(SRC.rglob("*.py")))
    users = {path: tree for path, tree in sources.items() if path.name != "__init__.py"}
    users.update(_trees(sorted((ROOT / "tests").rglob("*.py"))))
    used = _references(users) | _entry_points()
    return sorted(
        f"{module}: {name}"
        for name, modules in _definitions(sources).items()
        if name not in used
        for module in modules
    )


def test_every_top_level_definition_has_a_user():
    assert unreferenced() == []


def test_entry_points_are_read_from_pyproject():
    assert "main" in _entry_points()
