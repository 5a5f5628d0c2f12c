"""The function keys that the benchmark's traced mode reads still exist.

`perfbench/run.py --trace 1` reads per-function counts and self times out
of the tracer's snapshot by key, `<module>.<function>` or
`<module>.<Class>.<method>`, and the tracer only makes a key for a public
function or class method that the package defines.  A key whose function
was removed or renamed ends the traced run in a KeyError, so this test
reads `PER_LAYER` from the benchmark's source and resolves every such key.
"""

import ast
import importlib
import inspect
from pathlib import Path

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def per_layer_keys():
    tree = ast.parse(RUN_PY.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "PER_LAYER" for t in node.targets):
            return [key for _, _, key in ast.literal_eval(node.value)]
    raise AssertionError("perfbench/run.py defines no PER_LAYER")


def function_keys():
    """The keys below the layer level that end in .calls or .self_s, as
    the dotted path of the function they name."""
    found = []
    for key in per_layer_keys():
        for suffix in (".calls", ".self_s"):
            if key.endswith(suffix) and key.count(".") >= 2:
                found.append(key[:-len(suffix)])
    return found


def is_traced_function(path):
    layer, *names = path.split(".")
    module = importlib.import_module(f"hypermatroid.{layer}")
    if len(names) == 1:
        obj = vars(module).get(names[0])
        return inspect.isfunction(obj) and obj.__module__ == module.__name__
    cls_name, method = names
    cls = vars(module).get(cls_name)
    if not (inspect.isclass(cls) and cls.__module__ == module.__name__):
        return False
    raw = vars(cls).get(method)
    if isinstance(raw, (classmethod, staticmethod)):
        raw = raw.__func__
    return inspect.isfunction(raw)


def test_every_traced_function_key_names_a_package_function():
    paths = function_keys()
    assert "circuits.check_strong_elimination" in paths
    assert "hyperfields.Hyperfield.zero" in paths
    missing = [p for p in paths
               if p.split(".")[-1].startswith("_") or not is_traced_function(p)]
    assert missing == []
