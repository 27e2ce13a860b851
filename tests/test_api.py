"""Guards on the package's surface.

A public name that nothing but the tests calls is dead weight in the
library, and an import that nothing reads is noise; both are checked
from the sources by ast, without importing the package.  Importing the
package and its CLI must not pull in scipy, which only the tests and
scripts/ need: it would add about 0.3 s to every command's start-up.
Nor may it pull in mpmath, which only the special-function series need.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gegwalk"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _public_names(tree: ast.Module) -> list[str]:
    """The module's __all__ if it has one, else its public top-level defs."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return [
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]


def _used_names(tree: ast.AST) -> set[str]:
    """Identifiers read as a bare name or as an attribute.

    A def or class statement binds its name without a Name node, and the
    strings of __all__ are constants, so neither counts as a use.
    """
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def _caller_files() -> list[Path]:
    files = list(MODULES)
    files += sorted((ROOT / "scripts").glob("*.py"))
    files += sorted((ROOT / "perfbench").glob("*.py"))  # not perfbench/tests
    return files


@pytest.fixture(scope="module")
def used_outside_tests() -> set[str]:
    used = set()
    for path in _caller_files():
        used |= _used_names(_tree(path))
    return used


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.stem)
def test_every_public_name_has_a_caller(module, used_outside_tests):
    uncalled = [n for n in _public_names(_tree(module)) if n not in used_outside_tests]
    assert not uncalled, (
        f"gegwalk.{module.stem} exports names that only tests call: {uncalled}"
    )


def _imported_names(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.stem)
def test_no_unused_module_imports(module):
    tree = _tree(module)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = [n for n in _imported_names(tree) if n not in used]
    assert not unused, f"gegwalk.{module.stem} imports names it never reads: {unused}"


def _loaded_by_import(module: str) -> bool:
    """Whether importing gegwalk and its CLI, in a fresh interpreter,
    puts `module` into sys.modules."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    code = f"import sys, gegwalk, gegwalk.cli; print({module!r} in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip() == "True"


def test_import_pulls_in_no_scipy():
    assert not _loaded_by_import("scipy"), "importing gegwalk imports scipy"


def test_import_defers_mpmath():
    # the special functions that sum in mpmath import it on first use, so
    # localtime and the exact kernels never load it
    assert not _loaded_by_import("mpmath"), "importing gegwalk imports mpmath"
