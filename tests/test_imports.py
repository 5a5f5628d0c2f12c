"""Every name a package module imports is used in that module, and every
private helper it defines is used somewhere in the package.  Importing the
CLI loads only the parse-and-check path, and the package still exports
every name it exported when it loaded every module eagerly."""

import ast
import json
import os
import subprocess
import sys

import pytest

import hypermatroid

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


# -- what loads when -----------------------------------------------------------

# the names the package exported when it imported every module eagerly, by
# defining module; the modules themselves were exported too (`sumsets`
# through `hyperfields`)
EXPORTS = {
    "axioms": ["check_hyperfield_axioms"],
    "circuits": ["CircuitSignature", "check_C0_C2", "check_C3_doubleprime",
                 "check_strong_elimination", "check_weak_elimination"],
    "corpus": ["CORPUS", "CorpusEntry", "corpus_entries", "get_entry", "run_demo"],
    "errors": ["ConsistencyError", "InputError", "InvalidDualPairError",
               "MismatchError", "RatioInconsistencyError"],
    "experiments": ["ExperimentConfig", "config_from_json", "random_weak_gp",
                    "run_perfection_experiment"],
    "gp": ["Classification", "GPFunction", "check_gp_strong", "check_gp_weak",
           "circuits_from_gp", "classify", "cocircuit_signature_from_circuits",
           "dual_pair_witness", "gp_from_dual_pair", "nonorthogonal_pair",
           "orthogonality_verdict", "relation_terms"],
    "hyperfields": ["HFElement", "Hyperfield", "KRASNER", "PHASE", "PHASE_PLAIN",
                    "RATIONALS", "SIGN", "TRIANGLE", "TROPICAL", "eq", "gf", "inv",
                    "mul", "neg", "sample_element", "signed", "zero_in_sum"],
    "matroids": ["ClassicalMatroid", "validate_circuits"],
    "serialization": ["hyperfield_from_id", "parse_object", "parse_text",
                      "serialize", "to_jsonable"],
    "sumsets": [],
    "transforms": ["HyperfieldHom", "dual_gp", "minor_circuits", "minor_gp",
                   "pushforward_circuits", "pushforward_gp", "rational_padic",
                   "rational_sign", "to_krasner"],
    "vectors": ["FVector", "GroundSet", "orthogonal", "projectively_equal",
                "scalar_mul", "support"],
}

# what no checking or transforming command runs
NOT_ON_THE_CHECK_PATH = ["dataclasses", "hypermatroid.axioms", "hypermatroid.corpus",
                         "hypermatroid.experiments", "hypermatroid.transforms"]


def fresh(code: str):
    """What `code` prints as JSON, run in a new interpreter that finds the
    package where this test does."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.abspath(PACKAGE))] +
        [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          stdout=subprocess.PIPE, timeout=60)
    return json.loads(done.stdout)


def test_the_cli_loads_only_the_check_path():
    """Importing the CLI loads none of the modules that only some commands
    run, and the transforms load no `dataclasses`."""
    loaded = fresh(
        "import json, sys\nimport hypermatroid.cli\n"
        f"gone = {NOT_ON_THE_CHECK_PATH!r}\n"
        "after_cli = [m for m in gone if m in sys.modules]\n"
        "import hypermatroid.transforms\n"
        "print(json.dumps([after_cli, 'dataclasses' in sys.modules]))\n")
    assert loaded == [[], False]


def test_every_export_resolves_to_its_module():
    """Each name the package exported when it loaded every module eagerly
    is the defining module's object, on first access in a new interpreter,
    and `dir` lists it."""
    found = fresh(
        "import importlib, json\nimport hypermatroid\n"
        f"exports = {EXPORTS!r}\n"
        "listed = set(dir(hypermatroid))\nbad = []\n"
        "for module, names in exports.items():\n"
        "    owner = importlib.import_module('hypermatroid.' + module)\n"
        "    for name in names:\n"
        "        if getattr(hypermatroid, name) is not getattr(owner, name):\n"
        "            bad.append(name)\n"
        "    if getattr(hypermatroid, module) is not owner:\n"
        "        bad.append(module)\n"
        "print(json.dumps([bad, sorted({*exports, *sum(exports.values(), [])} - listed)]))\n")
    assert found == [[], []]
    with pytest.raises(AttributeError):
        hypermatroid.no_such_name  # noqa: B018


def test_records_compare_as_their_dataclasses_did():
    """The records that were dataclasses: equal when of one class with
    equal fields, hashed by their fields when they were frozen, and
    unhashable when they were not."""
    from hypermatroid import (SIGN, TROPICAL, Classification, GroundSet,
                              HFElement, HyperfieldHom)
    from hypermatroid.matroids import CircuitViolation
    from hypermatroid.sumsets import FiniteSet, TropicalSet

    def rule(a):
        return a

    ground = GroundSet((1, 2))
    frozen = [(HFElement(SIGN, 1), HFElement(SIGN, 1), HFElement(SIGN, -1)),
              (FiniteSet(SIGN, frozenset({1})), FiniteSet(SIGN, frozenset({1})),
               TropicalSet(SIGN, frozenset({1}))),
              (HyperfieldHom("h", SIGN, SIGN, rule), HyperfieldHom("h", SIGN, SIGN, rule),
               HyperfieldHom("h", SIGN, TROPICAL, rule))]
    plain = [(Classification("WeakOnly", {"I": [1]}), Classification("WeakOnly", {"I": [1]}),
              Classification("Strong")),
             (CircuitViolation("nonempty", {}, ground), CircuitViolation("nonempty", {}, ground),
              CircuitViolation("nonempty", {}, GroundSet((1,))))]
    for a, same, other in frozen + plain:
        assert a == same and not a != same and a != other and a != (a,)
    for a, same, _ in frozen:
        assert hash(a) == hash(same) and len({a, same}) == 1
    for a, _, _ in plain:
        with pytest.raises(TypeError):
            hash(a)
    assert repr(HFElement(SIGN, -1)) == "<sign:-1>"
    assert repr(frozen[2][0]) == "HyperfieldHom(h: sign -> sign)"
