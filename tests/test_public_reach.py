"""Every public evbounds name is reached from a program that uses the package.

The roots are the command line (src/evbounds/cli.py), the demos, the
benchmark and the acceptance tests.  A name is reached when a root loads
it, or when the body of a reached module-level definition loads it; a
string constant that spells an identifier counts as a load, since the
benchmark wraps functions it names by string.  Every name in a module's
__all__ and every name the package __init__ imports must be reached, and
so must every method, property and annotated field of a class under
src/evbounds.  Members are matched by name alone, like module names: a
member shares its reach with any attribute of the same name.  The files
are read with ast: nothing is imported or run.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "evbounds"
ROOTS = sorted(
    [
        PACKAGE / "cli.py",
        *(ROOT / "demos").glob("*.py"),
        *(ROOT / "bench").glob("*.py"),
        ROOT / "tests" / "test_acceptance.py",
    ]
)


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _loads(node: ast.AST) -> set[str]:
    """Names a subtree loads: bare names, attribute names and identifier strings."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if sub.value.isidentifier():
                found.add(sub.value)
    return found


def _definitions(tree: ast.Module) -> dict[str, list[ast.AST]]:
    """Module-level functions, classes and assignments, by the name they bind."""
    defs: dict[str, list[ast.AST]] = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name != "__all__":
                defs.setdefault(name, []).append(stmt)
    return defs


def _exports() -> dict[str, str]:
    """Public name -> where it is exported: module __all__ lists and the package __init__."""
    exports = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _tree(path)
        for stmt in tree.body:
            if path.name == "__init__.py" and isinstance(stmt, ast.ImportFrom):
                exports.update((a.asname or a.name, f"evbounds.{stmt.module}") for a in stmt.names)
            elif isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
            ):
                names = ast.literal_eval(stmt.value)
                exports.update((n, f"evbounds.{path.stem}") for n in names)
    return exports


def _reached() -> set[str]:
    defs: dict[str, list[ast.AST]] = {}
    for path in PACKAGE.glob("*.py"):
        for name, nodes in _definitions(_tree(path)).items():
            defs.setdefault(name, []).extend(nodes)
    reached = set().union(*(_loads(_tree(p)) for p in ROOTS))
    todo = list(reached)
    while todo:
        for node in defs.get(todo.pop(), ()):
            new = _loads(node) - reached
            reached |= new
            todo += new
    return reached


def _members() -> list[tuple[str, str]]:
    """(qualified name, name) of every method, property and annotated field of a class.

    Dunder methods are left out: Python calls them, no program names them.
    """
    members = []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in _tree(path).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for stmt in cls.body:
                if isinstance(stmt, ast.FunctionDef):
                    name = stmt.name
                elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    name = stmt.target.id
                else:
                    continue
                if not (name.startswith("__") and name.endswith("__")):
                    members.append((f"evbounds.{path.stem}.{cls.name}.{name}", name))
    return members


def test_roots_are_found():
    names = {p.relative_to(ROOT).as_posix() for p in ROOTS}
    assert {"src/evbounds/cli.py", "demos/well_spectrum.py", "bench/run.py"} <= names
    assert "tests/test_acceptance.py" in names


def test_every_export_is_reached():
    exports = _exports()
    assert {"main", "GridSpec", "assemble_bs", "ConfigError"} <= exports.keys()
    reached = _reached()
    unreached = sorted(f"{where}.{name}" for name, where in exports.items() if name not in reached)
    assert unreached == []


def test_every_class_member_is_reached():
    members = _members()
    assert ("evbounds.grid.GridSpec.coords", "coords") in members
    reached = _reached()
    assert sorted(qual for qual, name in members if name not in reached) == []
