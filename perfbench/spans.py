"""Span tracing of the isoparam layers, installed from outside the package.

`Tracer.install()` rebinds, in place, every function the benchmark traces:

* the public functions of each layer module, the private ones that another
  module imports (such as `tube_geometry._galpha_flat`) and the private
  counters the metrics name (`indefinite_linalg._classify_pass`,
  `classifier._specializes`);
* `__init__`, the public methods and the arithmetic operators of every class
  a layer module defines, so that an `ANVector` built anywhere is counted and
  timed in `solvable_model`;
* the `verification` suite runners and the `cli` subcommand table;
* the dense kernels of `numpy.linalg`, as the `numpy.linalg` layer.

Every `from ... import` binding of a wrapped function in any `isoparam`
module is rebound too, so no call escapes its span.  `uninstall()` puts the
original objects back.

A span records its op, its parent span, the traced function and its start
and end times.  Spans stay in memory, in flat arrays, until `write()` dumps
them at the end of a run.  A span's self time is its duration minus the
durations of its children; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import time
from pathlib import Path

import numpy as np

LAYERS = (
    "cli",
    "verification",
    "classifier",
    "hopf_lift",
    "tube_geometry",
    "indefinite_linalg",
    "kahler_angle",
    "solvable_model",
)
NUMPY_LAYER = "numpy.linalg"
NUMPY_KERNELS = (
    "eig", "eigh", "eigvals", "eigvalsh", "svd", "inv", "solve", "qr", "matrix_power",
)
# private functions the per-layer counters are defined on
NAMED_PRIVATE = {
    "indefinite_linalg": ("_classify_pass",),
    "classifier": ("_specializes",),
}
# function tables that hold private functions by value
DISPATCH_TABLES = {"verification": "_SUITE_RUNNERS", "cli": "_COMMANDS"}
OPERATORS = ("__init__", "__add__", "__sub__", "__mul__", "__rmul__", "__neg__")
OP_LAYER = "op"


class Tracer:
    """Records spans of the traced functions while installed."""

    def __init__(self):
        self.names: list[str] = []  # qualified name per traced function
        self.layer_of: list[str] = []  # layer per traced function
        self.op = array.array("i")
        self.parent = array.array("i")
        self.func = array.array("i")
        self.t0 = array.array("d")
        self.t1 = array.array("d")
        self._stack = [-1]
        self._op_id = -1
        self._restore: list[tuple] = []
        self._op_func = self._register(OP_LAYER, "op")

    # -- recording ---------------------------------------------------------

    def _register(self, layer: str, name: str) -> int:
        self.names.append(f"{layer}.{name}")
        self.layer_of.append(layer)
        return len(self.names) - 1

    def _open(self, fidx: int) -> int:
        idx = len(self.t0)
        self.op.append(self._op_id)
        self.parent.append(self._stack[-1])
        self.func.append(fidx)
        self.t1.append(0.0)
        self._stack.append(idx)
        self.t0.append(time.perf_counter())
        return idx

    def _close(self, idx: int):
        self.t1[idx] = time.perf_counter()
        self._stack.pop()

    def run_op(self, op_id: int, fn, *args):
        """Call fn(*args) as the root span of op op_id."""
        self._op_id = op_id
        idx = self._open(self._op_func)
        try:
            return fn(*args)
        finally:
            self._close(idx)
            self._op_id = -1

    def _wrap(self, layer: str, name: str, fn):
        fidx = self._register(layer, name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(fidx)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return traced

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr: str, value):
        if isinstance(owner, dict):
            self._restore.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._restore.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

    def install(self):
        """Rebind every traced function to its span-recording wrapper."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = {name: importlib.import_module(f"isoparam.{name}") for name in LAYERS}
        package = importlib.import_module("isoparam")
        wrapped: dict[int, object] = {}  # id(original) -> wrapper

        def wrap_once(layer, name, fn):
            if id(fn) not in wrapped:
                wrapped[id(fn)] = self._wrap(layer, name, fn)
            return wrapped[id(fn)]

        imported_private = {
            (getattr(obj, "__module__", None), key)
            for mod in modules.values()
            for key, obj in vars(mod).items()
            if key.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ != mod.__name__
        }
        for layer, mod in modules.items():
            private = set(NAMED_PRIVATE.get(layer, ()))
            for key, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    if (not key.startswith("_") or key in private
                            or (mod.__name__, key) in imported_private):
                        self._set(mod, key, wrap_once(layer, key, obj))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._install_class(layer, obj, wrap_once)
            table = DISPATCH_TABLES.get(layer)
            if table:
                entries = getattr(mod, table)
                for key, fn in list(entries.items()):
                    self._set(entries, key, wrap_once(layer, fn.__name__, fn))

        # rebind `from ... import` bindings and the package namespace
        for mod in (*modules.values(), package):
            for key, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped and obj is not wrapped[id(obj)]:
                    self._set(mod, key, wrapped[id(obj)])

        for key in NUMPY_KERNELS:
            self._set(np.linalg, key, self._wrap(NUMPY_LAYER, key, getattr(np.linalg, key)))

    def _install_class(self, layer, cls, wrap_once):
        for key, obj in list(vars(cls).items()):
            if not (key in OPERATORS or not key.startswith("_")):
                continue
            name = f"{cls.__name__}.{key}"
            if isinstance(obj, staticmethod):
                self._set(cls, key, staticmethod(wrap_once(layer, name, obj.__func__)))
            elif inspect.isfunction(obj):
                self._set(cls, key, wrap_once(layer, name, obj))

    def uninstall(self):
        """Put back every object install() replaced."""
        for owner, attr, value in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def arrays(self):
        """(op, parent, func, duration, self time) as numpy arrays."""
        op, parent, func = (np.asarray(a, dtype=np.int64) for a in (self.op, self.parent, self.func))
        dur = np.asarray(self.t1) - np.asarray(self.t0)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return op, parent, func, dur, dur - child

    def summary(self) -> dict:
        """Per-op layer totals: calls and self seconds, suite durations,
        counters, and the largest ratio of summed self time to op wall time."""
        op, parent, func, dur, self_t = self.arrays()
        inside = op >= 0  # spans outside any op (input generation, checks) are left out
        op, func, dur, self_t = op[inside], func[inside], dur[inside], self_t[inside]
        roots = func == self._op_func
        n_ops = int(roots.sum())
        layer_idx = {name: i for i, name in enumerate(LAYERS + (NUMPY_LAYER,))}
        func_layer = np.array([layer_idx.get(layer, -1) for layer in self.layer_of])
        span_layer = func_layer[func]
        calls = np.bincount(span_layer[~roots], minlength=len(layer_idx))
        selfs = np.bincount(span_layer[~roots], weights=self_t[~roots], minlength=len(layer_idx))
        per_name = {}
        for fname in ("indefinite_linalg._classify_pass", "indefinite_linalg.classify_jordan",
                      "classifier._specializes", "solvable_model.ANVector.__init__"):
            idx = [i for i, name in enumerate(self.names) if name == fname]
            per_name[fname] = int(np.isin(func, idx).sum())
        suites = {}
        for i, name in enumerate(self.names):
            if name.startswith("verification._suite_"):
                suites[name[len("verification._suite_"):]] = float(dur[func == i].sum())
        # summed self time of an op's spans, excluding the root, over its wall
        worst = 0.0
        if n_ops:
            op_self = np.bincount(op[~roots], weights=self_t[~roots], minlength=int(op.max()) + 1)
            op_wall = np.zeros_like(op_self)
            op_wall[op[roots]] = dur[roots]
            ran = op_wall > 0
            worst = float((op_self[ran] / op_wall[ran]).max())
        return {
            "ops": n_ops,
            "calls": {name: int(calls[i]) for name, i in layer_idx.items()},
            "self_s": {name: float(selfs[i]) for name, i in layer_idx.items()},
            "counts": per_name,
            "suite_s": suites,
            "max_self_over_wall": worst,
        }

    def write(self, path: Path):
        """Dump every span to an .npz file: span i has op[i], parent[i]
        (-1 for an op root), function[i] (an index into functions),
        start_s[i] and duration_s[i]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        op, parent, func, dur, _ = self.arrays()
        np.savez(path, op=op, parent=parent, function=func, start_s=np.asarray(self.t0),
                 duration_s=dur, functions=np.array(self.names))
