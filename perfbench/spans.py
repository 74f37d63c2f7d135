"""Per-layer spans recorded from outside the library.

`Tracer.install()` rebinds every public function of each oscilab layer module
(and `scipy.optimize.linprog` / `milp`) to a timing wrapper, in every module
namespace that holds it, so intra-module calls and re-exports are timed too.
Each call becomes one span record: name, layer, start, end, parent span, op
id and the time covered by its child spans.  Self time is duration minus
child time, so the self times of all spans of an op sum to the op's wall
time.  Records stay in memory until `write()`.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time

# layers named after their oscilab modules; their public functions are wrapped
LAYER_MODULES = (
    "cli",
    "grid",
    "rearrange",
    "spaces",
    "maximal",
    "packing",
    "functionals",
    "kfunctional",
    "verify",
)
SOLVER_FUNCS = ("linprog", "milp")
LAYERS = LAYER_MODULES + ("solver",)

# per-function inclusive times reported as `<name>.s`
TIMED_FUNCS = (
    "kfunctional.f_sharp_curve",
    "packing.additive_pareto_1d",
    "packing.max_additive_packing",
    "functionals.jn_norm",
    "functionals.gp_norm",
    "functionals.garo_p_lambda",
    "functionals.garo_norm",
    "maximal.sharp_maximal",
    "maximal.local_maximal",
    "maximal.hl_maximal",
    "grid.cube_stat_tables",
)

_NAME, _LAYER, _START, _END, _PARENT, _OP, _CHILD, _BUSY, _NESTED = range(9)


class Tracer:
    def __init__(self):
        self.records: list = []
        self.stack: list = []
        self.op_id = -1
        self.counts = {
            "kfunctional.t_points": 0,
            "grid.window_cells": 0,
            "packing.enumerate_packings.items": 0,
            "verify.checks": 0,
            "io.bytes_written": 0,
        }
        self._depth: dict = {}
        self._saved: list = []

    # -- span bookkeeping ---------------------------------------------------

    def open(self, name: str, layer: str) -> list:
        parent = self.stack[-1] if self.stack else None
        depth = self._depth.get(name, 0)
        self._depth[name] = depth + 1
        rec = [name, layer, time.perf_counter(), 0.0, parent, self.op_id,
               0.0, None, depth > 0]
        self.stack.append(rec)
        return rec

    def close(self, rec: list) -> None:
        rec[_END] = end = time.perf_counter()
        self.stack.pop()
        self._depth[rec[_NAME]] -= 1
        if rec[_PARENT] is not None:
            rec[_PARENT][_CHILD] += end - rec[_START]
        self.records.append(rec)

    def _resume(self, rec: list) -> float:
        self.stack.append(rec)
        return time.perf_counter()

    def _suspend(self, rec: list, t0: float) -> None:
        rec[_END] = end = time.perf_counter()
        self.stack.pop()
        rec[_BUSY] += end - t0
        if self.stack:
            self.stack[-1][_CHILD] += end - t0

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str, hook=None):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            counter = name + ".items"

            def gen_wrapper(*args, **kwargs):
                parent = tracer.stack[-1] if tracer.stack else None
                now = time.perf_counter()
                rec = [name, layer, now, now, parent, tracer.op_id, 0.0, 0.0,
                       False]
                tracer.records.append(rec)
                it = fn(*args, **kwargs)
                while True:
                    t0 = tracer._resume(rec)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._suspend(rec, t0)
                    tracer.counts[counter] = tracer.counts.get(counter, 0) + 1
                    yield item

            gen_wrapper.__wrapped__ = fn
            return gen_wrapper

        def wrapper(*args, **kwargs):
            rec = tracer.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(rec)
            if hook is not None:
                hook(tracer.counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Rebind every public layer function in every oscilab namespace."""
        import scipy.optimize

        replace = {}
        for layer in LAYER_MODULES:
            mod = importlib.import_module(f"oscilab.{layer}")
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                replace[id(fn)] = (fn, self._wrap(fn, name, layer, _HOOKS.get(name)))
        for attr in SOLVER_FUNCS:
            fn = getattr(scipy.optimize, attr)
            replace[id(fn)] = (fn, self._wrap(fn, f"solver.{attr}", "solver"))
        namespaces = [m for n, m in sys.modules.items()
                      if n == "oscilab" or n.startswith("oscilab.")]
        namespaces.append(scipy.optimize)
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(ns, attr, hit[1])
                    self._saved.append((ns, attr, value))

    def uninstall(self) -> None:
        for ns, attr, value in reversed(self._saved):
            setattr(ns, attr, value)
        self._saved.clear()

    # -- summaries ----------------------------------------------------------

    @staticmethod
    def duration(rec: list) -> float:
        return rec[_BUSY] if rec[_BUSY] is not None else rec[_END] - rec[_START]

    def self_time(self, rec: list) -> float:
        return self.duration(rec) - rec[_CHILD]

    def summary(self, passes: int) -> dict:
        """Per-pass layer self times, call counts, named spans and counts."""
        out = {f"{layer}.self_s": 0.0 for layer in LAYERS + ("bench",)}
        out.update({f"{layer}.calls": 0 for layer in LAYERS})
        out.update({f"{name}.s": 0.0 for name in TIMED_FUNCS})
        out.update({f"solver.{fn}.calls": 0 for fn in SOLVER_FUNCS})
        op_wall = 0.0
        for rec in self.records:
            name, layer = rec[_NAME], rec[_LAYER]
            out[f"{layer}.self_s"] += self.self_time(rec)
            if layer == "bench":
                op_wall += self.duration(rec)
                continue
            out[f"{layer}.calls"] += 1
            if layer == "solver":
                out[f"{name}.calls"] += 1
            if name in TIMED_FUNCS and not rec[_NESTED]:
                out[f"{name}.s"] += self.duration(rec)
        out.update(self.counts)
        out["grid.window_bytes_computed"] = 8 * self.counts["grid.window_cells"]
        out["trace.op_wall_s"] = op_wall
        return {k: v / passes for k, v in out.items()}

    def write(self, path) -> None:
        """One JSON line per span: name, layer, start, end, parent, op."""
        index = {id(rec): i for i, rec in enumerate(self.records)}
        with open(path, "w") as fh:
            for i, rec in enumerate(self.records):
                parent = rec[_PARENT]
                fh.write(json.dumps({
                    "id": i,
                    "name": rec[_NAME],
                    "layer": rec[_LAYER],
                    "start": rec[_START],
                    "end": rec[_END],
                    "busy": rec[_BUSY],
                    "self": self.self_time(rec),
                    "parent": None if parent is None else index.get(id(parent)),
                    "op": rec[_OP],
                }) + "\n")


def _count_t_points(counts, args, kwargs, result):
    t_grid = args[1] if len(args) > 1 else kwargs["t_grid"]
    counts["kfunctional.t_points"] += len(t_grid)


def _count_window_cells(counts, args, kwargs, result):
    counts["grid.window_cells"] += result.size


def _count_checks(counts, args, kwargs, result):
    counts["verify.checks"] += len(result["checks"])


_HOOKS = {
    "kfunctional.f_sharp_curve": _count_t_points,
    "grid.cube_windows": _count_window_cells,
    "verify.run_suite": _count_checks,
}
