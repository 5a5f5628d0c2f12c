"""Every function and method the package defines is reached by a golden
`hfm` command, named by a per-layer row of the benchmark, or allowed below
with the reason it stays.

The commands of `test_golden_cli` are replayed once, in process, under
`sys.setprofile`, which sees the code object of every Python call.  A
definition is reached when the code object starting at its first line
(its first decorator, if any) in its file was called.  Benchmark rows are
read as `test_perfbench_keys` reads them.
"""

import ast
import importlib
import os
import sys

import hypermatroid

from test_golden_cli import commands, run, write_inputs
from test_perfbench_keys import function_keys

PACKAGE = os.path.dirname(os.path.abspath(hypermatroid.__file__))

ONLY_C3_DOUBLEPRIME = ("reached only from check_C3_doubleprime, whose benchmark "
                       "row waits on ROADMAP item 2a")
SAMPLE = "members of a hypersum, which the tests and oracles read"
ORACLE_SUMS = ("hypersum arithmetic that only the test oracles read (membership, "
               "equality, products of sums); it leaves src/ with SumSet, ROADMAP "
               "item 13, step 2")

# reason per definition that stays although no golden command reaches it
ALLOWED = {
    "matroids.ClassicalMatroid.bases": ONLY_C3_DOUBLEPRIME,
    "sumsets.SumSet.contains": ORACLE_SUMS,
    "sumsets.SumSet.mul": ORACLE_SUMS,
    "sumsets.SumSet.equals": ORACLE_SUMS,
    "sumsets.SumSet._equals": ORACLE_SUMS,
    "sumsets.FiniteSet._contains": ORACLE_SUMS,
    "sumsets.FiniteSet._mul": ORACLE_SUMS,
    "sumsets.TropicalSet._contains": ORACLE_SUMS,
    "sumsets.TropicalSet._mul": ORACLE_SUMS,
    "sumsets.IntervalSet._contains": ORACLE_SUMS,
    "sumsets.IntervalSet._mul": ORACLE_SUMS,
    "sumsets.IntervalSet._equals": ORACLE_SUMS,
    "sumsets.ArcSet._mul": ORACLE_SUMS,
    "sumsets.ArcSet._equals": ORACLE_SUMS,
    "sumsets.FiniteSet.sample": SAMPLE,
    "sumsets.TropicalSet.sample": SAMPLE,
    "sumsets.IntervalSet.sample": SAMPLE,
    "sumsets.ArcSet.sample": SAMPLE,
    "hyperfields.Hyperfield.elements": "abstract: each finite family defines its own",
    "gp.GPFunction.values": "the element view of a function, which the public API and the tests read",
}

# constructors of objects that a module binds at top level, such as the
# built-in hyperfields (or keeps in a top-level dict, as `gf` interns
# each prime field), ran before any command could reach them
BUILT_AT_IMPORT = "constructor of an object bound at module level"

# dunder methods other than constructors are called by the interpreter
# (repr, equality, hashing, operators), not named on a command's path
DUNDER = "dunder method"


def definitions(source: str) -> dict:
    """{first line: qualified name} of the functions a module defines at
    top level and the methods of its classes; a decorated definition
    starts at its first decorator, as its code object does."""
    found = {}

    def visit(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([d.lineno for d in node.decorator_list] + [node.lineno])
                found[line] = prefix + node.name
            elif isinstance(node, ast.ClassDef):
                visit(node.body, prefix + node.name + ".")

    visit(ast.parse(source).body, "")
    return found


def calls(action) -> set:
    """(file, first line) of the code of every Python call `action()` makes."""
    seen = set()

    def record(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(record)
    try:
        action()
    finally:
        sys.setprofile(None)
    return {(os.path.realpath(code.co_filename), code.co_firstlineno) for code in seen}


def unreached(paths: dict, reached: set) -> list:
    """`<module>.<qualified name>` of each definition in the files
    `paths` ({module: path}) whose code `reached` does not hold."""
    found = []
    for module, path in sorted(paths.items()):
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
        real = os.path.realpath(path)
        found += [f"{module}.{name}" for line, name in sorted(definitions(source).items())
                  if (real, line) not in reached]
    return found


def category(name: str):
    """BUILT_AT_IMPORT, DUNDER or None for a package definition."""
    module, *owner, method = name.split(".")
    if not (method.startswith("__") and method.endswith("__")):
        return None
    if method != "__init__":
        return DUNDER
    bound = vars(importlib.import_module(f"hypermatroid.{module}"))
    values = [v for value in bound.values()
              for v in (value.values() if isinstance(value, dict) else [value])]
    cls = bound[owner[-1]]
    return BUILT_AT_IMPORT if any(isinstance(v, cls) for v in values) else None


def test_unreached_definitions_are_found(tmp_path):
    source = ("import functools\n\n\ndef used():\n    return Box().get()\n\n\n"
              "def alone():\n    pass\n\n\nclass Box:\n    def get(self):\n"
              "        return 1\n\n    @functools.lru_cache\n    def cached(self):\n"
              "        return 2\n")
    path = tmp_path / "toy.py"
    path.write_text(source, encoding="utf-8")
    namespace = {}
    exec(compile(source, str(path), "exec"), namespace)
    reached = calls(namespace["used"])
    assert unreached({"toy": str(path)}, reached) == ["toy.alone", "toy.Box.cached"]
    reached |= calls(lambda: namespace["Box"]().cached())
    assert unreached({"toy": str(path)}, reached) == ["toy.alone"]


def test_categories():
    assert category("hyperfields.Phase.__init__") == BUILT_AT_IMPORT
    assert category("gp.GPFunction.__init__") is None
    assert category("gp.GPFunction.__repr__") == DUNDER
    assert category("gp.check_gp_weak") is None


def test_every_definition_is_reached_pinned_or_allowed(tmp_path):
    directory = str(tmp_path)
    write_inputs(directory)
    argvs = commands()
    # memoized functions run again, as in a fresh `hfm` process
    for name, module in list(sys.modules.items()):
        if name.startswith("hypermatroid."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
    reached = calls(lambda: [run(directory, argv) for argv in argvs])
    paths = {name[:-3]: os.path.join(PACKAGE, name)
             for name in os.listdir(PACKAGE) if name.endswith(".py")}
    left = unreached(paths, reached)
    pinned = set(function_keys())
    assert [name for name in left if name not in pinned and name not in ALLOWED
            and category(name) is None] == []
    assert sorted(set(ALLOWED) - set(left)) == [], "allowed but reached, or gone"
