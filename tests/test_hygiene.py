"""Source hygiene: no module of the package imports a name it never uses,
no module-level private name goes unused, no public function is there
only for the tests, and the package docstring's example runs.

No linter ships with the toolchain, so this parses each module with
``ast``. A package ``__init__.py`` is exempt from the import check, since
its imports are re-exports, and so is a name listed in the module's
``__all__``.
"""
import ast
import contextlib
import io
import math
import textwrap
from collections import Counter
from pathlib import Path

import pytest

import leastdiff

PACKAGE = Path(leastdiff.__file__).resolve().parent
SOURCES = sorted(PACKAGE.rglob("*.py"))
MODULES = [path for path in SOURCES if path.name != "__init__.py"]
REPO = Path(__file__).resolve().parent.parent
# the package's re-exports in __init__.py call nothing
CALLERS = MODULES + sorted(REPO.glob("demos/*.py")) + sorted(
    REPO.glob("bench/*.py"))

# Public functions that no package module, demo or bench script calls,
# kept because a library user reads the package through them.
DELIBERATE_API = {
    "credible_bounds": "the interval of any draws; the package itself "
                       "reads already sorted draws",
    "most_difference": "the most plausible difference of any draws; the "
                       "suite reads already sorted draws",
    "decide_stronger": "one candidate's verdict on two suites, the "
                       "comparison the risk study makes in bulk",
    "is_practically_significant": "the yes/no form of designate",
    "write_studies_csv": "writes the study table that read_studies_csv "
                         "and analyze read",
}


def _imported_names(tree):
    """Name bound by each import, with its line number."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                yield bound, node.lineno


def _exported(tree):
    """The names a module's ``__all__`` lists."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets)
        ):
            yield from ast.literal_eval(node.value)


def _used_names(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(_exported(tree))
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


def _public_functions(tree):
    """Top-level function definitions whose name the module's ``__all__``
    lists."""
    exported = set(_exported(tree))
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in exported:
            yield node


def test_every_public_function_has_a_caller():
    # names are matched without their module, as for private names; a
    # function's own body does not count as a caller, and importing a
    # function counts, since a package module must use what it imports
    refs = Counter()
    public = {}
    for path in CALLERS:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        refs.update(_references(tree))
        if path in MODULES:
            public.update(
                (node.name, (path, node)) for node in _public_functions(tree)
            )
    called = {
        name for name, (_, node) in public.items()
        if refs[name] > sum(ref == name for ref in _references(node))
    }
    uncalled = [
        f"{path.relative_to(PACKAGE)}:{node.lineno} {name}"
        for name, (path, node) in public.items()
        if name not in called and name not in DELIBERATE_API
    ]
    assert not uncalled, (
        "public functions only the tests call; move them to the tests or "
        f"list them in DELIBERATE_API: {uncalled}"
    )
    # an entry outlives its reason once the function is gone or called
    stale = [name for name in DELIBERATE_API
             if name not in public or name in called]
    assert not stale, f"DELIBERATE_API entries to drop: {stale}"


def test_package_docstring_example_runs():
    doc = leastdiff.__doc__
    block = doc[doc.index("::\n") + 3:]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(textwrap.dedent(block), {})
    value, designation = out.getvalue().split()
    assert math.isfinite(float(value))
    assert designation in {str(d) for d in leastdiff.Designation}
