"""The runtime package holds only code that something outside the tests runs.

Every public top-level function and class of ``src/wrapcheck/*.py`` must
be exported in ``wrapcheck.__all__``, be referred to from ``src/`` (other
than by its own definition), ``scripts/`` or ``perfbench/``, or be named
by the README or an acceptance criterion (ALLOWED).  A helper that only
tests use belongs in ``tests/``.
"""

import ast
import pathlib

import wrapcheck

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "wrapcheck"
USERS = [ROOT / "src", ROOT / "scripts", ROOT / "perfbench"]

# names that no runtime code refers to, with the README phrase or the
# acceptance criterion that names them
ALLOWED = {
    "geom2d.nodule_profile": "README geom2d row (revolution profiles with shrinking nodules); criterion 10",
    "geom2d.loop_to_cycle": "README geom2d row (cycle filling); criterion 7",
    "geom2d.cycle_mass": "README geom2d row (cycle filling); criterion 7",
    "geom2d.splice_across_square": "README geom2d row (turning numbers); criterion 7",
    "wrapmaps.f0_map": 'README: "the strip-to-disk spiral"',
}


def _referred(node: ast.AST) -> set[str]:
    """The identifiers that names, attributes and import aliases under node refer to."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rsplit(".", 1)[-1])
    return out


def _defined(stmt: ast.stmt) -> str | None:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return stmt.name
    return None


def unreferenced(allowed) -> list[str]:
    """module.name of every public top-level function or class of the
    package that is neither exported, nor referred to, nor in ``allowed``."""
    # (file, the name a top-level statement defines, what it refers to)
    uses = []
    for root in USERS:
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            uses += [(path, _defined(stmt), _referred(stmt)) for stmt in tree.body]
    flagged = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            name = _defined(stmt)
            if name is None or name.startswith("_") or name in wrapcheck.__all__:
                continue
            if f"{path.stem}.{name}" in allowed:
                continue
            if not any(
                name in refs and (where, defined) != (path, name) for where, defined, refs in uses
            ):
                flagged.append(f"{path.stem}.{name}")
    return flagged


def test_no_test_only_names_in_the_package():
    assert unreferenced(ALLOWED) == []


def test_every_allowed_name_needs_its_entry():
    # an entry whose name is gone, or that runtime code now refers to, leaves the list
    assert sorted(unreferenced({})) == sorted(ALLOWED)
