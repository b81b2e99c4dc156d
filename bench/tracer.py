"""Per-layer spans recorded from outside the package.

The layers are the package's modules.  ``Tracer.install`` replaces every
binding of each layer's public functions, and the public methods of its
public classes, with a wrapper that records one span per call: name,
start, end, parent span, op id, whether it raised, and a work count.  That
covers the names other modules import (``cli``, ``construct``,
``assignment`` and ``enumerate_ds`` hold their own references), so calls
between layers are seen.  ``uninstall`` puts the originals back, and
``install`` binds the same wrappers again.

``IntMatrix.at`` and ``IntMatrix.row`` are left unwrapped: they are
per-entry and per-row accessors called inside loops, and a span per row
would bury the layer timings in tracing cost.  Their time counts as self
time of the caller.

Span times are process CPU time in nanoseconds, the clock the op timings
use.  Spans stay in parallel arrays until the run ends, then ``save``
writes them out.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from pathlib import Path
from time import process_time_ns

import numpy as np

PACKAGE = "tropdet"
LAYERS = ("cli", "matrices", "construct", "assignment", "blocks", "bounds", "enumerate_ds")
UNWRAPPED_METHODS = frozenset({"at", "row"})
CELL_LAYERS = ("matrices", "construct", "assignment")
VISIT_FUNCTIONS = frozenset({"count_D", "enumerate_D", "brute_L", "brute_U"})


def _cells(args, result) -> int:
    """Entries of the largest matrix a call takes or returns."""
    best = 0
    for value in (*args, result):
        value = getattr(value, "matrix", value)
        rows, cols = getattr(value, "rows", None), getattr(value, "cols", None)
        if isinstance(rows, int) and isinstance(cols, int):
            best = max(best, rows * cols)
    return best


def _work_counter(layer: str, name: str):
    if layer == "bounds" and name == "smallest_l":
        return lambda args, result: result[0] + 1  # l values scanned
    if layer == "enumerate_ds" and name in VISIT_FUNCTIONS:
        return lambda args, result: result if isinstance(result, int) else result.count
    if layer in CELL_LAYERS:
        return _cells
    return None


def _public_names(module) -> list[str]:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [name for name in vars(module) if not name.startswith("_")]
    return list(names)


class Tracer:
    """Spans of calls into the package's layers, and their totals."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[int] = []
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.raised = array("b")
        self.outer = array("b")  # no enclosing span of the same layer
        self.work = array("q")
        self.op_id = -1
        self._stack: list[int] = []
        self._depth = [0] * len(LAYERS)
        self._bindings: list[tuple[object, str, object, object]] | None = None

    # ------------------------------------------------------------ install

    def install(self) -> None:
        """Bind the wrappers.  They are built on the first call, so a
        tracer can be switched on and off around single ops cheaply."""
        if self._bindings is None:
            self._bindings = self._build()
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._bindings or []):
            setattr(owner, attr, original)

    def _build(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every binding."""
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if key == PACKAGE or key.startswith(PACKAGE + ".")
        ]
        bindings = []
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for name in _public_names(module):
                obj = getattr(module, name)
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap(obj, layer, f"{layer}.{name}", _work_counter(layer, name))
                    bindings += [
                        (mod, attr, obj, wrapper)
                        for mod in modules
                        for attr, value in vars(mod).items()
                        if value is obj
                    ]
                elif inspect.isclass(obj):
                    bindings += self._method_bindings(obj, layer, name)
        return bindings

    def _method_bindings(self, cls, layer: str, cls_name: str):
        counter = _work_counter(layer, cls_name)
        for attr, raw in vars(cls).items():
            if attr in UNWRAPPED_METHODS or (attr.startswith("_") and attr != "__post_init__"):
                continue
            label = f"{layer}.{cls_name}.{attr}"
            if isinstance(raw, classmethod):
                yield cls, attr, raw, classmethod(self._wrap(raw.__func__, layer, label, counter))
            elif inspect.isfunction(raw):
                yield cls, attr, raw, self._wrap(raw, layer, label, counter)

    def _wrap(self, fn, layer: str, label: str, counter):
        name_id = len(self.names)
        self.names.append(label)
        layer_id = LAYERS.index(layer)
        self.layer_of.append(layer_id)
        stack, depth = self._stack, self._depth

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.outer.append(depth[layer_id] == 0)
            self.raised.append(0)
            self.work.append(0)
            self.end.append(0)
            stack.append(idx)
            depth[layer_id] += 1
            self.start.append(process_time_ns())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end[idx] = process_time_ns()
                self.raised[idx] = 1
                raise
            else:
                self.end[idx] = process_time_ns()
                if counter:
                    self.work[idx] = counter(args, result)
                return result
            finally:
                stack.pop()
                depth[layer_id] -= 1

        return traced

    # ------------------------------------------------------------ results

    def _columns(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "raised": np.frombuffer(self.raised, dtype=np.int8),
            "outer": np.frombuffer(self.outer, dtype=np.int8),
            "work": np.frombuffer(self.work, dtype=np.int64),
        }

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """calls, busy_s, self_s and failed per layer, plus work rates.

        busy_s sums the layer's outermost spans, so nested calls within one
        layer are not counted twice; self_s sums every span of the layer
        minus the time its child spans cover.
        """
        c = self._columns()
        dur = (c["end"] - c["start"]).astype(np.float64) / 1e9
        child = np.zeros_like(dur)
        has_parent = c["parent"] >= 0
        np.add.at(child, c["parent"][has_parent], dur[has_parent])
        layer = np.asarray(self.layer_of, dtype=np.int32)[c["name"]]
        outer = c["outer"] == 1
        out: dict[str, tuple[float, str]] = {}
        for k, lname in enumerate(LAYERS):
            mine = layer == k
            top = mine & outer
            busy = float(dur[top].sum())
            out[f"{lname}.calls"] = (int(mine.sum()), "count")
            out[f"{lname}.busy_s"] = (busy, "s")
            out[f"{lname}.self_s"] = (float((dur[mine] - child[mine]).sum()), "s")
            out[f"{lname}.failed"] = (int((top & (c["raised"] == 1)).sum()), "count")
            work = int(c["work"][top].sum())
            if lname in CELL_LAYERS:
                out[f"{lname}.cells_per_s"] = (work / busy if busy else 0.0, "1/s")
            elif lname == "bounds":
                out["bounds.l_scanned"] = (int(c["work"][mine].sum()), "count")
            elif lname == "enumerate_ds":
                out["enumerate_ds.visited"] = (work, "count")
                out["enumerate_ds.visited_per_s"] = (work / busy if busy else 0.0, "1/s")
        return out

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self._columns())
