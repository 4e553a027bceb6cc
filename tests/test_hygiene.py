"""Source hygiene: no module of the package imports a name it never uses,
and no module-level private name goes unused.

No linter ships with the toolchain, so this parses each module with
``ast``. A package ``__init__.py`` is exempt from the import check, since
its imports are re-exports, and so is a name listed in the module's
``__all__``.
"""
import ast
from collections import Counter
from pathlib import Path

import pytest

import leastdiff

PACKAGE = Path(leastdiff.__file__).resolve().parent
SOURCES = sorted(PACKAGE.rglob("*.py"))
MODULES = [path for path in SOURCES if path.name != "__init__.py"]


def _imported_names(tree):
    """Name bound by each import, with its line number."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                yield bound, node.lineno


def _used_names(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets)
        ):
            used.update(ast.literal_eval(node.value))
    return used


def test_modules_are_found():
    assert {"stats.py", "cli.py", "riskbench.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize(
    "path", MODULES, ids=[str(p.relative_to(PACKAGE)) for p in MODULES]
)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = _used_names(tree)
    unused = [
        f"{name} (line {line})"
        for name, line in _imported_names(tree)
        if name not in used
    ]
    assert not unused, f"{path.name} imports unused names: {unused}"


def _private_definitions(tree):
    """Top-level statements binding a private (leading ``_``, not dunder)
    name, with that name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.endswith("__"):
                yield node, name


def _references(tree):
    """Names a syntax tree reads: loaded names, attributes, and names
    imported from another module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_private_name_is_referenced():
    # names are matched across modules without their module, so a name
    # defined in two modules counts as used if either use is found
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in SOURCES
    }
    refs = Counter()
    for tree in trees.values():
        refs.update(_references(tree))
    unused = [
        f"{path.relative_to(PACKAGE)}:{node.lineno} {name}"
        for path, tree in trees.items()
        for node, name in _private_definitions(tree)
        if refs[name] == sum(ref == name for ref in _references(node))
    ]
    assert not unused, f"private names nothing references: {unused}"
