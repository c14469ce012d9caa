"""The benchmark's traced runs wrap library names listed in bench/*.py HOOKS.

A hook whose module or dotted name no longer resolves breaks every
`--trace 1` run, so each one is checked here.  The tuples are read with
ast.literal_eval: nothing in bench/ is imported or run.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _hooks():
    found = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            targets = node.targets if isinstance(node, ast.Assign) else []
            if any(isinstance(t, ast.Name) and t.id == "HOOKS" for t in targets):
                hooks = ast.literal_eval(node.value)
                found += [(path.name, module, dotted) for module, dotted, _ in hooks]
    return found


HOOKS = _hooks()


def test_bench_declares_hooks():
    assert any(name == "cli_campaign.py" for name, _, _ in HOOKS)


@pytest.mark.parametrize("source,module,dotted", HOOKS, ids=[f"{s}:{m}.{d}" for s, m, d in HOOKS])
def test_bench_hook_resolves(source, module, dotted):
    owner = importlib.import_module(module)
    for part in dotted.split("."):
        assert hasattr(owner, part), f"{source}: {module}.{dotted} does not resolve at {part!r}"
        owner = getattr(owner, part)
    assert callable(owner)
