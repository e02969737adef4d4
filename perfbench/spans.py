"""Span tracer that attributes the time of one pass to fanofib's modules.

``Tracer.install`` wraps every public function of each layer module and
rebinds the wrapper under every name that refers to the original in any
loaded ``fanofib`` module, because the package imports functions by name
(``from .calculus import lap``) as well as through function-local imports.
Non-public helpers and closures are not wrapped: their time is self time
of the public function that calls them.  The SKE residual and Jacobian
closures, for example, count as ``solvers.probe_jacobian`` or
``solvers.newton_semilinear``.

Each span records its name, start, end and parent.  Spans stay in memory
until ``write`` is called after the pass.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter

LAYERS = ("model", "fiberwise", "wpform", "basespace", "cohomology",
          "calculus", "solvers", "report", "pipeline")

ATTRIBUTION_NOTE = (
    "self time of a public function includes the non-public helpers and "
    "closures it calls; the SKE residual and Jacobian closures count as "
    "solvers.probe_jacobian or solvers.newton_semilinear")


class Tracer:
    """Records nested spans for calls into the public functions of LAYERS."""

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.functions: list[str] = []
        self.errors: Counter = Counter()
        self.newton_iterations: list[int] = []
        self.base_ma_iterations: list[int] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of every layer module and rebind them."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None and (name == "fanofib" or name.startswith("fanofib."))}
        wrappers = {}
        for layer in LAYERS:
            mod = modules[f"fanofib.{layer}"]
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not name.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrappers[id(fn)] = self._wrap(layer, name, fn)
                    self.functions.append(f"{layer}.{name}")
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    def _wrap(self, layer: str, name: str, fn):
        qualname = f"{layer}.{name}"
        observe = {"solvers.newton_semilinear": self.newton_iterations,
                   "basespace.solve_base_ma": self.base_ma_iterations}.get(qualname)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.names)
            self.names.append(qualname)
            self.layers.append(layer)
            self.parents.append(parent)
            self.ends.append(float("nan"))
            self._stack.append(idx)
            self.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                # an exception leaves the layer when the caller is outside it
                if parent < 0 or self.layers[parent] != layer:
                    self.errors[layer] += 1
                raise
            finally:
                self.ends[idx] = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                observe.append(int(result.iterations))
            return result

        return traced

    # -- results --------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus the time its direct children cover."""
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        own = list(durations)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= durations[idx]
        return own

    def metrics(self) -> dict[str, float]:
        """Per-layer and per-function self time, calls, errors, totals and
        solver outcomes, keyed by benchmark metric name."""
        own = self.self_times()
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = 0.0
            out[f"{layer}.calls"] = 0
            out[f"{layer}.errors"] = self.errors[layer]
        for name in self.functions:
            out[f"{name}.self_s"] = out[f"{name}.total_s"] = 0.0
            out[f"{name}.calls"] = 0
        for idx, name in enumerate(self.names):
            layer = self.layers[idx]
            out[f"{layer}.self_s"] += own[idx]
            out[f"{layer}.calls"] += 1
            out[f"{name}.self_s"] += own[idx]
            out[f"{name}.calls"] += 1
            out[f"{name}.total_s"] += self.ends[idx] - self.starts[idx]
        solves = len(self.newton_iterations)
        out["solvers.newton.solves"] = solves
        out["solvers.newton.iterations"] = sum(self.newton_iterations)
        out["solvers.newton.zero_iter_share"] = (
            self.newton_iterations.count(0) / solves if solves else 0.0)
        out["basespace.solve_base_ma.iterations"] = sum(self.base_ma_iterations)
        return out

    def write(self, path, origin: float) -> None:
        """Write every span as [name, parent, start, end], times relative to
        ``origin`` in seconds."""
        spans = [[n, p, s - origin, e - origin] for n, p, s, e in
                 zip(self.names, self.parents, self.starts, self.ends)]
        with open(path, "w") as fh:
            json.dump({"note": ATTRIBUTION_NOTE, "spans": spans}, fh)
