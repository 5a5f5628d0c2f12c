"""Every name a package module imports is used in that module, and every
private helper it defines is used somewhere in the package."""

import ast
import os

import pytest

PACKAGE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "src", "hypermatroid")

# `__init__.py` imports to re-export
MODULES = sorted(name for name in os.listdir(PACKAGE)
                 if name.endswith(".py") and name != "__init__.py")


def unused_imports(source: str) -> list:
    """The names bound by the module's imports that no expression reads,
    `from __future__` aside."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_unused_imports_are_found():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == \
        [(1, "os"), (2, "b")]
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as handle:
        assert unused_imports(handle.read()) == [], module


def private_definitions(tree) -> list:
    """The private functions and classes a module defines at top level."""
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")]


def referenced_names(tree, skip=None) -> set:
    """The names a module reads, as names, attributes or imports, outside
    the subtree `skip`."""
    inside = set() if skip is None else {id(node) for node in ast.walk(skip)}
    names = set()
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def orphans(sources: dict) -> list:
    """(module, name) of each private top-level function or class that no
    module refers to outside its own definition."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    names = {module: referenced_names(tree) for module, tree in trees.items()}
    found = []
    for module, tree in trees.items():
        for node in private_definitions(tree):
            if not any(node.name in used for other, used in names.items()
                       if other != module) and \
                    node.name not in referenced_names(tree, node):
                found.append((module, node.name))
    return sorted(found)


def test_orphans_are_found():
    sources = {"a.py": "def _used():\n    pass\n\ndef _alone():\n    _alone()\n\n"
                       "class _Kept:\n    pass\n",
               "b.py": "from a import _used\nimport a\n_used()\na._Kept()\n"}
    assert orphans(sources) == [("a.py", "_alone")]


def test_every_private_helper_is_used():
    sources = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as handle:
                sources[name] = handle.read()
    assert orphans(sources) == []


def shadowing_methods(source: str) -> list:
    """(class, method) of each public method that a class of the module
    defines under the name of one of the module's top-level functions."""
    tree = ast.parse(source)
    functions = {node.name for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    return sorted((cls.name, node.name) for cls in tree.body
                  if isinstance(cls, ast.ClassDef) for node in cls.body
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and not node.name.startswith("_") and node.name in functions)


def test_shadowing_methods_are_found():
    source = ("def mul(a, b):\n    pass\n\ndef _norm(a):\n    pass\n\n"
              "class F:\n    def mul(self, a, b):\n        pass\n\n"
              "    def _norm(self, a):\n        pass\n\n"
              "    def product(self, a, b):\n        pass\n")
    assert shadowing_methods(source) == [("F", "mul")]


def test_element_operations_have_one_entry_point():
    """The element operations are the module functions of `hyperfields`;
    a family defines payload operations under other names."""
    with open(os.path.join(PACKAGE, "hyperfields.py"), encoding="utf-8") as handle:
        assert shadowing_methods(handle.read()) == []


# `hyperfields` reads the angle helpers and gives each family its `sums`
# class; `circuits` folds hypersums for the elimination witnesses
SUMSETS_IMPORTERS = ["circuits.py", "hyperfields.py"]


def imports_module(source: str, module: str) -> bool:
    """Whether the source imports `module` or a name from it."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[-1] == module or \
                    any(alias.name == module for alias in node.names):
                return True
        elif isinstance(node, ast.Import):
            if any(alias.name.split(".")[-1] == module for alias in node.names):
                return True
    return False


def test_imports_module_is_found():
    assert imports_module("from .sumsets import fold\n", "sumsets")
    assert imports_module("from . import sumsets\n", "sumsets")
    assert imports_module("import hypermatroid.sumsets\n", "sumsets")
    assert not imports_module("from .hyperfields import EPS\n", "sumsets")


def test_only_the_hypersum_layers_import_sumsets():
    found = []
    for name in MODULES:
        with open(os.path.join(PACKAGE, name), encoding="utf-8") as handle:
            if imports_module(handle.read(), "sumsets"):
                found.append(name)
    assert found == SUMSETS_IMPORTERS
