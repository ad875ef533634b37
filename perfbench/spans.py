"""Spans around the calls into each layer, recorded from outside the library.

``Tracer.install`` replaces every public function of each module in
``src/balanceable`` with a wrapper, wherever another module (or the
package) holds a reference to it, and wraps the graph constructors.  Calls
inside one module stay unwrapped, so a span marks a call *into* a layer.
Spans live in memory as lists [name, layer, start, end, parent, op, size]
and are written out once, when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import json
from time import perf_counter

LAYERS = ("graphs", "families", "oracle", "conditions", "witnesses", "ramsey", "reduction")
# constant-time helpers called inside the brute-force loops: a span would
# cost more than the call it measures
UNWRAPPED = {"half_edge_targets", "edge_slot", "tri_vertex"}


def _size(layer: str, value) -> int:
    """Work measure of a layer's return value: edges built by a family
    generator, vertices covered by a construction."""
    if layer == "families":
        return getattr(value, "m", 0)
    if layer == "witnesses":
        return value.graph.n
    return 0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.active = False
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, name: str, fn):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.spans)
            span = [name, layer, perf_counter(), 0.0, self.stack[-1] if self.stack else -1, self.op, 0]
            self.spans.append(span)
            self.stack.append(index)
            try:
                value = fn(*args, **kwargs)
                span[6] = _size(layer, value)
                return value
            finally:
                self.stack.pop()
                span[3] = perf_counter()

        traced.__wrapped__ = fn
        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, package) -> None:
        modules = {layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for name in module.__all__:
                fn = getattr(module, name)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__ and name not in UNWRAPPED:
                    wrappers[id(fn)] = (fn, self._wrap(layer, name, fn))
        for namespace in (package, *modules.values()):
            for attr, value in list(vars(namespace).items()):
                found = wrappers.get(id(value))
                if found and found[0] is value and value.__module__ != namespace.__name__:
                    self._set(namespace, attr, found[1])
        graphs = modules["graphs"]
        self._set(graphs.Graph, "__init__", self._wrap("graphs", "Graph", graphs.Graph.__init__))
        for cls, name in ((graphs.Graph, "from_rows"), (graphs.VertexSet, "from_indices")):
            method = cls.__dict__[name].__func__
            self._set(cls, name, classmethod(self._wrap("graphs", f"{cls.__name__}.{name}", method)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def begin(self, op_id: int, name: str) -> None:
        self.op = op_id
        self.stack.append(len(self.spans))
        self.spans.append([name, "bench", perf_counter(), 0.0, -1, op_id, 0])
        self.active = True

    def end(self) -> None:
        self.active = False
        self.spans[self.stack.pop()][3] = perf_counter()
        self.stack.clear()

    def layers(self) -> dict:
        """Per layer: calls, self time (duration minus the child spans it
        covers), and the summed work measure; per reduction entry point: its
        inclusive time."""
        covered = [0.0] * len(self.spans)
        for name, layer, start, end, parent, op, size in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        table: dict = {}
        for (name, layer, start, end, parent, op, size), inner in zip(self.spans, covered):
            row = table.setdefault(layer, {"calls": 0, "self_s": 0.0, "size": 0, "by_name_s": {}})
            row["calls"] += 1
            row["self_s"] += end - start - inner
            row["size"] += size
            row["by_name_s"][name] = row["by_name_s"].get(name, 0.0) + end - start
        return table

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "layer", "start", "end", "parent", "op", "size"], "spans": self.spans}, handle)
