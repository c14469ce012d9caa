"""No evbounds module, demo or benchmark file imports another module's private names.

A name with a leading underscore is a module's own detail; a caller that
needs it should get a public name instead.  So a module-level private name
of evbounds is read in its own module or nowhere, and each one must be
read there: a helper left with no caller fails.  The files are read with
ast, function-local imports included: nothing is imported or run.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "evbounds").glob("*.py"))
SOURCES = sorted(
    [
        *PACKAGE,
        *(ROOT / "demos").glob("*.py"),
        *(ROOT / "bench").glob("*.py"),
    ]
)


def _private_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "evbounds":
            continue
        where = "." * node.level + module
        found += [f"{where}.{a.name}" for a in node.names if a.name.startswith("_")]
    return found


def test_sources_are_found():
    names = {p.name for p in SOURCES}
    assert {"harness.py", "extension.py", "calibrate_constants.py", "cli_campaign.py"} <= names
    extension = ast.parse((ROOT / "src" / "evbounds" / "extension.py").read_text(encoding="utf-8"))
    assert {"_GRAM_ROWS", "_Rows", "_gram"} <= {name for name, _ in _private_definitions(extension)}


@pytest.mark.parametrize("path", SOURCES, ids=[p.relative_to(ROOT).as_posix() for p in SOURCES])
def test_no_private_names_cross_modules(path):
    assert _private_imports(path) == []


def _private_definitions(tree):
    """A module's top-level private names, each with its def or class node (None for an assignment)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found = [(node.name, node)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found = [(n.id, None) for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from ((name, n) for name, n in found if name.startswith("_") and not name.startswith("__"))


def _reads(tree):
    return Counter(n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))


@pytest.mark.parametrize("path", PACKAGE, ids=[p.name for p in PACKAGE])
def test_every_private_name_is_read_outside_its_definition(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    reads = _reads(tree)
    unread = [
        name for name, node in _private_definitions(tree)
        if reads[name] - (_reads(node)[name] if node else 0) == 0
    ]
    assert unread == []
