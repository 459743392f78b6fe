"""Spans around the calls into collapsim's modules, installed from outside.

``install`` wraps every public function of each module (the names in its
``__all__``), the public methods, ``__init__`` and ``__call__`` of every
public class, and ``numpy.fft.fftn/ifftn/fft/ifft``. A function imported
with ``from .x import f`` is rebound in every module that holds it, and a
class attribute that aliases a method (``__call__ = observe``) gets its
own span name. ``install`` then fails if any module still holds an
unwrapped original, so a missed binding site cannot pass silently.

Spans (name, start, end, parent, run id) are kept in flat arrays in
memory and written out by ``write_spans`` after the timed call. ``aggregate``
gives per span name the call count, inclusive seconds and self seconds
(duration minus the time covered by child spans).
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import json
import time

LAYERS = ("config", "cli", "integrator", "collapse", "operators", "state",
          "noise", "walk", "diagnostics", "experiments")
FFT_FUNCTIONS = ("fftn", "ifftn", "fft", "ifft")
DERIVATIVES = ("operators.derivative1", "operators.derivative2")


class Tracer:
    def __init__(self, run_id: int):
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self._stack = [-1]
        # bytes of the arrays handed to FFT and stencil-derivative kernels
        self.kernel_bytes = 0
        # largest state stepped by integrator.ito_step, in grid points
        self.max_step_points = 0

    def wrap(self, name: str, fn, before=None):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        span_name, parent, start, end = (self.span_name, self.parent,
                                         self.start, self.end)
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            index = len(start)
            span_name.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(index)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                start[index] = t0
                stack.pop()

        traced.traced_original = fn
        return traced

    # argument hooks for the computed kernel counts

    def _fft_bytes(self, args, kwargs):
        self.kernel_bytes += getattr(args[0], "nbytes", 0)

    def _stencil_bytes(self, args, kwargs):
        scheme = args[3] if len(args) > 3 else kwargs.get("scheme")
        if scheme == "stencil":
            self.kernel_bytes += args[0].nbytes

    def _step_points(self, args, kwargs):
        self.max_step_points = max(self.max_step_points,
                                   args[0].amplitudes.size)

    def aggregate(self) -> dict:
        """{span name: {"calls", "incl_s", "self_s"}} for every name called."""
        n = len(self.start)
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        out = {}
        for i in range(n):
            entry = out.setdefault(self.names[self.span_name[i]],
                                   {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            duration = self.end[i] - self.start[i]
            entry["calls"] += 1
            entry["incl_s"] += duration
            entry["self_s"] += duration - covered[i]
        return out

    def write_spans(self, path: str) -> None:
        """Write the spans as a JSON header line followed by raw arrays.

        The header names the layout; the arrays follow in its order, each
        ``count`` items long, in native byte order.
        """
        header = {"run_id": self.run_id, "names": self.names,
                  "count": len(self.start),
                  "arrays": [["span_name", "int32"], ["parent", "int32"],
                             ["start", "float64"], ["end", "float64"]]}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode("utf-8") + b"\n")
            for column in (self.span_name, self.parent, self.start, self.end):
                column.tofile(handle)


def _public_members(module):
    """(span name, owner, attribute, function) for each traced callable."""
    layer = module.__name__.rsplit(".", 1)[-1]
    for name in getattr(module, "__all__", ()):
        obj = getattr(module, name)
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield "%s.%s" % (layer, name), module, name, obj
        elif inspect.isclass(obj):
            for attr, value in list(vars(obj).items()):
                if inspect.isfunction(value) and (
                        not attr.startswith("_")
                        or attr in ("__init__", "__call__")):
                    yield "%s.%s.%s" % (layer, name, attr), obj, attr, value


def _bindings(modules):
    """Every (owner, attribute, value) a call could be looked up through."""
    for module in modules:
        for attr, value in vars(module).items():
            yield module, attr, value
            if inspect.isclass(value) and value.__module__.startswith(
                    "collapsim"):
                for key, member in vars(value).items():
                    yield value, key, member
            elif isinstance(value, dict):
                for key, member in value.items():
                    yield value, key, member
            elif isinstance(value, (list, tuple)):
                for key, member in enumerate(value):
                    yield value, key, member


def install(tracer: Tracer) -> None:
    """Wrap collapsim and numpy.fft in place for the rest of the process."""
    import numpy

    package = importlib.import_module("collapsim")
    modules = [importlib.import_module("collapsim." + layer)
               for layer in LAYERS]
    hooks = {"integrator.ito_step": tracer._step_points}
    hooks.update({name: tracer._stencil_bytes for name in DERIVATIVES})

    originals, wrapped = {}, {}
    for module in modules:
        for name, owner, attr, fn in list(_public_members(module)):
            originals[id(fn)] = fn
            if inspect.isclass(owner):
                setattr(owner, attr, tracer.wrap(name, fn, hooks.get(name)))
            else:
                wrapped[id(fn)] = (fn, tracer.wrap(name, fn, hooks.get(name)))
    for module in [package] + modules:
        for attr, value in list(vars(module).items()):
            if id(value) in wrapped and wrapped[id(value)][0] is value:
                setattr(module, attr, wrapped[id(value)][1])
    for name in FFT_FUNCTIONS:
        setattr(numpy.fft, name, tracer.wrap("numpy.fft." + name,
                                             getattr(numpy.fft, name),
                                             tracer._fft_bytes))

    missed = ["%s.%s" % (getattr(owner, "__name__", type(owner).__name__), key)
              for owner, key, value in _bindings([package] + modules)
              if originals.get(id(value), None) is value is not None]
    if missed:
        raise RuntimeError("unwrapped binding sites: %s" % ", ".join(missed))
