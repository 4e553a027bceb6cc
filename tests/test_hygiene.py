"""Source hygiene: no module of the package imports a name it never uses.

No linter ships with the toolchain, so this parses each module with
``ast``. A package ``__init__.py`` is exempt, since its imports are
re-exports, and so is a name listed in the module's ``__all__``.
"""
import ast
from pathlib import Path

import pytest

import leastdiff

PACKAGE = Path(leastdiff.__file__).resolve().parent
MODULES = sorted(
    path for path in PACKAGE.rglob("*.py") if path.name != "__init__.py"
)


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
