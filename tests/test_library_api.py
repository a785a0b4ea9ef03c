"""The library's own surface: every public module-level function or class of `src/disjunct` is named
somewhere that is not a unit test, and every submodule imports on its own."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "disjunct"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# what may name a library function: the library itself, the benchmark, and the acceptance suite
READERS = [*MODULES, *sorted((ROOT / "perfbench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]
TREES = {path: ast.parse(path.read_text()) for path in READERS}


def _public_definitions():
    """(module, name, node) of each public top-level def or class, but click commands, which the CLI
    runs by their decorators."""
    for path in MODULES:
        for node in TREES[path].body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                if not any(isinstance(d, ast.Call) and ast.unparse(d.func).endswith((".command", ".group"))
                           for d in node.decorator_list):
                    yield path.stem, node.name, node


DEFINITIONS = {f"{module}.{name}": node for module, name, node in _public_definitions()}


def _named_outside(node: ast.AST, tree: ast.AST, name: str) -> bool:
    """Whether `tree` holds `name` as a name or an attribute anywhere but inside `node`; an import
    alone does not count."""
    stack = [tree]
    while stack:
        here = stack.pop()
        if here is node:
            continue
        if isinstance(here, ast.Name) and here.id == name or isinstance(here, ast.Attribute) and here.attr == name:
            return True
        stack.extend(ast.iter_child_nodes(here))
    return False


def test_the_guard_sees_the_library():
    assert len(DEFINITIONS) > 50 and "codes.rs_code" in DEFINITIONS and "cli.construct" not in DEFINITIONS


@pytest.mark.parametrize("qualified", sorted(DEFINITIONS))
def test_public_name_is_used_outside_the_unit_tests(qualified):
    node, name = DEFINITIONS[qualified], qualified.split(".")[1]
    assert any(_named_outside(node, tree, name) for tree in TREES.values()), (
        f"{qualified} is named only by its own definition and the unit tests; move it to tests/conftest.py")


def test_package_names_only_its_version():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    docstring, version = tree.body
    assert isinstance(docstring, ast.Expr) and isinstance(docstring.value, ast.Constant)
    assert isinstance(version, ast.Assign) and [t.id for t in version.targets] == ["__version__"]


def test_only_codes_names_the_linear_ks_shortcut():
    # one module knows that a translation carries any column of a linear KS image to any other
    assert [p.name for p in sorted(PACKAGE.glob("*.py")) if "linear_ks_counts" in p.read_text()] == ["codes.py"]


@pytest.mark.parametrize("module", [p.stem for p in MODULES])
def test_submodule_imports_alone(module):
    # a fresh interpreter, so no other test's imports can complete a cycle
    proc = subprocess.run([sys.executable, "-c", f"import disjunct.{module}"], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
