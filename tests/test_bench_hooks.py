"""The benchmark and the demos reach into evbounds by name.

The benchmark's traced runs wrap library names listed in bench/*.py HOOKS;
a hook whose module or dotted name no longer resolves breaks every
`--trace 1` run.  Every `from evbounds... import name` in bench/*.py and
demos/*.py must resolve too, so removing a public name has to keep them
working.  The files are read with ast: nothing in bench/ or demos/ is
imported or run.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


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


def _imports():
    found = []
    for path in sorted([*BENCH.glob("*.py"), *(ROOT / "demos").glob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "evbounds":
                rel = path.relative_to(ROOT).as_posix()
                found += [(rel, node.module, alias.name) for alias in node.names]
    return found


IMPORTS = _imports()


def test_bench_and_demos_import_from_evbounds():
    sources = {source.split("/")[0] for source, _, _ in IMPORTS}
    assert sources == {"bench", "demos"}


@pytest.mark.parametrize(
    "source,module,name", IMPORTS, ids=[f"{s}:{m}.{n}" for s, m, n in IMPORTS]
)
def test_bench_and_demo_imports_resolve(source, module, name):
    owner = importlib.import_module(module)
    if not hasattr(owner, name):  # `from package import submodule` imports it
        try:
            importlib.import_module(f"{module}.{name}")
        except ModuleNotFoundError:
            pass
    assert hasattr(owner, name), f"{source}: from {module} import {name} does not resolve"
