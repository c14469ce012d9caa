"""The benchmark and the demos reach into evbounds by name.

The benchmark's traced runs wrap library names listed in bench/*.py HOOKS;
a hook whose module or dotted name no longer resolves breaks every
`--trace 1` run.  Every `from evbounds... import name` in bench/*.py and
demos/*.py must resolve too, so removing a public name has to keep them
working, and so must every `--flag` the benchmark passes to `cli.main`.
The files are read with ast: nothing in bench/ or demos/ is imported or
run.
"""

from __future__ import annotations

import ast
import contextlib
import importlib
import io
import re
from pathlib import Path

import pytest

from evbounds import cli

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


def _cli_argvs():
    """(file, command, flags) of every literal argv list bench/*.py passes to a `main` call."""
    found = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            func = node.func if isinstance(node, ast.Call) else None
            name = getattr(func, "attr", getattr(func, "id", None))
            if name != "main" or not node.args or not isinstance(node.args[0], ast.List):
                continue
            words = [e.value for e in node.args[0].elts if isinstance(e, ast.Constant)]
            flags = [w for w in words if w.startswith("--")]
            found.append((path.name, words[0], flags))
    return found


CLI_ARGVS = _cli_argvs()


def _cli_options(command: str) -> set[str]:
    """The --flags `cli.main` defines for one command, read from its --help."""
    text = io.StringIO()
    with contextlib.redirect_stdout(text), pytest.raises(SystemExit):
        cli.main([command, "--help"])
    return set(re.findall(r"--[\w-]+", text.getvalue()))


def test_bench_passes_flags_to_the_cli():
    assert any(source == "cli_campaign.py" and flags for source, _, flags in CLI_ARGVS)


@pytest.mark.parametrize(
    "source,command,flags", CLI_ARGVS, ids=[f"{s}:{c}" for s, c, _ in CLI_ARGVS]
)
def test_bench_cli_flags_are_defined(source, command, flags):
    missing = set(flags) - _cli_options(command)
    assert not missing, f"{source}: cli.main {command} defines no {sorted(missing)}"
