"""Outside-in tracing of hypermatroid, installed from the benchmark's files.

`Tracer.install()` replaces every binding of each public function of each
package module (the defining module's attribute, every module that
imported the same object by name, and public methods of public classes,
such as `ClassicalMatroid.rank`) with a wrapper that keeps:

  * per function: calls, self time (own time minus wrapped children);
  * per layer (module): self time;
  * spans (name, start, end, parent span, operation id), in memory.  A
    function's first SPAN_CAP calls in each operation become spans; later
    calls of the same function in that operation are aggregated into its
    counts and times only, which keeps high-frequency scalar calls cheap.

`search.first_witness` is wrapped to count tasks enumerated and checked,
and the `check` callable it is given is timed as part of the calling
function, so the checkers' closures are not billed to `search`.
`uninstall()` restores every original binding.
"""

from __future__ import annotations

import importlib
import inspect
import json
import pkgutil
import time

SPAN_CAP = 16

clock = time.perf_counter


class Stat:
    """Counts and self time of one wrapped function."""

    __slots__ = ("layer", "calls", "self_s", "op_calls", "hits")

    def __init__(self, layer):
        self.layer = layer
        self.calls = 0
        self.self_s = 0.0
        self.op_calls = 0
        self.hits = 0


class Tracer:
    def __init__(self, package):
        self.package = package
        self.modules = [importlib.import_module(f"{package.__name__}.{m.name}")
                        for m in pkgutil.iter_modules(package.__path__)]
        self.stats = {}
        self.spans = []
        self.op_id = -1
        self.t0 = clock()
        self.counters = {"search.tasks_enumerated": 0, "search.tasks_checked": 0,
                         "serialization.output_bytes": 0,
                         "experiments.weak_checks": 0}
        self._undo = []
        # frame: [seconds in wrapped children, span id (or the nearest
        # recorded ancestor's), Stat of the running function]
        self._stack = [[0.0, -1, None]]
        self._sampling_depth = 0

    # -- installation -----------------------------------------------------

    def install(self):
        originals = {}
        for mod in self.modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    originals[id(obj)] = (obj, self._wrap(f"{layer}.{name}",
                                                          layer, obj))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__ \
                        and not issubclass(obj, BaseException):
                    self._wrap_class(layer, obj)
        for mod in [self.package] + self.modules:
            for name, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._undo.append((mod, name, obj))
                    setattr(mod, name, hit[1])

    def _wrap_class(self, layer, cls):
        for name, raw in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            key = f"{layer}.{cls.__name__}.{name}"
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(self._wrap(key, layer, raw.__func__))
            elif inspect.isfunction(raw):
                new = self._wrap(key, layer, raw)
            else:
                continue
            self._undo.append((cls, name, raw))
            setattr(cls, name, new)

    def uninstall(self):
        for owner, name, obj in reversed(self._undo):
            setattr(owner, name, obj)
        self._undo.clear()

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, key, layer, fn):
        stat = self.stats[key] = Stat(layer)
        stack, spans, tracer = self._stack, self.spans, self
        push, pop = stack.append, stack.pop
        special = {"search.first_witness": self._first_witness,
                   "serialization.serialize": self._serialize,
                   "experiments.random_weak_gp": self._sampler,
                   "gp.check_gp_weak": self._weak_check,
                   "matroids.modular_family": self._counting_hits}
        body = special.get(key, lambda f, s: f)(fn, stat)

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            stat.calls += 1
            stat.op_calls += 1
            span = -1
            if stat.op_calls <= SPAN_CAP:
                span = len(spans)
                spans.append(None)
            frame = [0.0, parent[1] if span < 0 else span, stat]
            push(frame)
            start = clock()
            try:
                return body(*args, **kwargs)
            finally:
                end = clock()
                pop()
                stat.self_s += end - start - frame[0]
                parent[0] += end - start
                if span >= 0:
                    spans[span] = (key, start - tracer.t0, end - tracer.t0,
                                   parent[1], tracer.op_id)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _first_witness(self, fn, stat):
        counters, stack = self.counters, self._stack

        def body(candidates, check, *args, **kwargs):
            if not hasattr(candidates, "__len__"):
                candidates = list(candidates)
            counters["search.tasks_enumerated"] += len(candidates)
            caller = stack[-2][2]

            def timed_check(task):
                counters["search.tasks_checked"] += 1
                parent = stack[-1]
                frame = [0.0, parent[1], caller]
                stack.append(frame)
                start = clock()
                try:
                    return check(task)
                finally:
                    dt = clock() - start
                    stack.pop()
                    parent[0] += dt
                    if caller is not None:
                        caller.self_s += dt - frame[0]
            return fn(candidates, timed_check, *args, **kwargs)
        return body

    def _serialize(self, fn, stat):
        counters = self.counters

        def body(*args, **kwargs):
            text = fn(*args, **kwargs)
            counters["serialization.output_bytes"] += len(text.encode())
            return text
        return body

    def _sampler(self, fn, stat):
        def body(*args, **kwargs):
            self._sampling_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._sampling_depth -= 1
        return body

    def _weak_check(self, fn, stat):
        counters = self.counters

        def body(*args, **kwargs):
            if self._sampling_depth:
                counters["experiments.weak_checks"] += 1
            return fn(*args, **kwargs)
        return body

    def _counting_hits(self, fn, stat):
        def body(*args, **kwargs):
            result = fn(*args, **kwargs)
            if result:
                stat.hits += 1
            return result
        return body

    # -- operations and results -------------------------------------------

    def exclude(self, seconds):
        """Keep `seconds` spent by an interrupting sampler out of the self
        time of the function that was running."""
        self._stack[-1][0] += seconds

    def begin_op(self):
        """Start the next execution: spans carry its number."""
        self.op_id += 1
        for stat in self.stats.values():
            stat.op_calls = 0

    def snapshot(self) -> dict:
        """Cumulative counts and times, to difference between rounds."""
        out = dict(self.counters)
        for key, stat in self.stats.items():
            out[f"{key}.calls"] = stat.calls
            out[f"{key}.self_s"] = stat.self_s
            out[f"{key}.hits"] = stat.hits
        for stat in self.stats.values():
            key = f"{stat.layer}.self_s"
            out[key] = out.get(key, 0.0) + stat.self_s
        return out

    def write(self, path, ops):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "op"],
                       "ops": ops,
                       "spans": [s for s in self.spans if s is not None]},
                      handle)
