"""Every randomized sandwich of evbounds is drawn in one routine, harness._draw_norms.

A with_omega call anywhere else in src/evbounds would be a second draw
loop, one without the worker-count check, the one-thread BLAS setting and
the reaping of failed workers that _draw_norms gives every draw.  The
files are read with ast: nothing is imported or run.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "evbounds").glob("*.py"))


def _with_omega_callers(path: Path) -> list[str]:
    """file:definition for each with_omega call, by the module-level definition around it."""
    found = []
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        name = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if called == "with_omega":
                found.append(f"{path.name}:{name}")
    return found


def test_with_omega_is_called_only_in_the_draw_routine():
    assert {p.name for p in PACKAGE} >= {"harness.py", "cli.py", "extension.py"}
    callers = [caller for path in PACKAGE for caller in _with_omega_callers(path)]
    assert callers == ["harness.py:_draw_norms"]
