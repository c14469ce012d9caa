"""No evbounds module, demo or benchmark file imports another module's private names.

A name with a leading underscore is a module's own detail; a caller that
needs it should get a public name instead.  The files are read with ast,
function-local imports included: nothing is imported or run.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(
    [
        *(ROOT / "src" / "evbounds").glob("*.py"),
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


@pytest.mark.parametrize("path", SOURCES, ids=[p.relative_to(ROOT).as_posix() for p in SOURCES])
def test_no_private_names_cross_modules(path):
    assert _private_imports(path) == []
