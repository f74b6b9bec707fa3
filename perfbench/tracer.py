"""Layer spans for the herglotz benchmark, recorded from outside the package.

The tracer replaces the public callables of each herglotz module with timing
wrappers. Modules import each other's names (``cli``, ``solver`` and
``conditions`` each hold their own ``integrate_z``; ``CubicSpline`` is bound
in ``trajectory``, ``integrate`` and ``solver``), so every wrapper is
installed in every herglotz namespace that holds the original object; a
reference left behind would make its calls go uncounted. The one binding out
of reach is the function-local ``CubicSpline`` import in
``conditions.weak_form_values``, which no workload calls. No file of the
package is modified.

A span records its kind, start, end, parent span, operation id, whether it
is the outermost open span of its layer, and one size attribute (binding
points, trajectory points, integration panels, bytes written or solver
iterations) plus a flag (solver converged). Spans live in flat arrays while
the run lasts and are written out with ``save`` when it ends.
"""

from __future__ import annotations

import array
import sys
from time import perf_counter

import numpy as np

# (module, attribute or Class.method, layer); the span kind is "module.attribute"
TARGETS = (
    ("herglotz.expr", "evaluate", "expr"),
    ("herglotz.expr", "partial", "expr"),
    ("herglotz.expr", "value_and_partial", "expr"),
    ("herglotz.trajectory", "SampledTrajectory.eval_many", "trajectory"),
    ("herglotz.trajectory", "SampledTrajectory.eval", "trajectory"),
    ("herglotz.trajectory", "PiecewiseTrajectory.eval_many", "trajectory"),
    ("herglotz.trajectory", "PiecewiseTrajectory.eval", "trajectory"),
    ("herglotz.trajectory", "CubicSpline", "spline"),
    ("herglotz.integrate", "integrate_z", "integrate"),
    ("herglotz.integrate", "first_variation", "integrate"),
    ("herglotz.solver", "solve_direct", "solver"),
    ("herglotz.solver", "variational_gradient", "solver.gradient"),
    ("herglotz.conditions", "el_residuals", "conditions"),
    ("herglotz.conditions", "dbr_residuals", "conditions"),
    ("herglotz.conditions", "hypothesis_profiles", "conditions"),
    ("herglotz.conditions", "weak_form_values", "conditions"),
    ("herglotz.conditions", "node_tables", "conditions"),
    ("herglotz.noether", "check_noether", "noether"),
    ("herglotz.noether", "conserved_quantities", "noether"),
    ("herglotz.noether", "group_variation", "noether"),
    ("herglotz.noether", "quantity_values", "noether"),
    ("herglotz.reportio", "csv_text", "reportio.format"),
    ("herglotz.reportio", "json_text", "reportio.format"),
    ("herglotz.reportio", "write_text_atomic", "reportio.write"),
    ("herglotz.config", "load_config", "config.load"),
    ("herglotz.config", "ProblemConfig.build", "config.build"),
    ("herglotz.cli", "main", "cli"),
)

# per-layer metric name -> unit; values are per set-up plus one pass
METRIC_UNITS = {
    "expr.calls": "count", "expr.points": "count", "expr.s": "s",
    "trajectory.eval_calls": "count", "trajectory.points": "count", "trajectory.s": "s",
    "spline.builds": "count", "spline.build_s": "s",
    "integrate.calls": "count", "integrate.panels": "count",
    "integrate.s": "s", "integrate.self_s": "s",
    "solver.iterations": "count", "solver.objective_evals": "count",
    "solver.backtracks": "count", "solver.accept_ratio": "ratio",
    "solver.s": "s", "solver.self_s": "s", "solver.converged": "count",
    "solver.gradient.calls": "count", "solver.gradient.s": "s",
    "solver.gradient.self_s": "s", "solver.gradient.spline_builds": "count",
    "conditions.calls": "count", "conditions.s": "s",
    "conditions.node_tables.calls": "count", "conditions.node_tables.s": "s",
    "noether.calls": "count", "noether.s": "s", "noether.self_s": "s",
    "reportio.files": "count", "reportio.bytes": "bytes",
    "reportio.format_s": "s", "reportio.write_s": "s",
    "config.load_s": "s", "config.build_s": "s",
    "cli.self_s": "s",
}


def _binding_points(args, kwargs):
    b = kwargs.get("bindings", args[-1])
    return max((v.size if isinstance(v, np.ndarray) else 1 for v in b.values()), default=0)


def _integration_panels(args, kwargs):
    from herglotz.integrate import integration_stops
    return len(integration_stops(args[0], args[1])[0]) - 1


def _size_function(kind: str):
    """Size attribute of a span, computed from the arguments outside the span."""
    if kind.startswith("herglotz.expr."):
        return _binding_points
    if kind.endswith(".eval_many"):
        return lambda args, kwargs: np.size(args[1])
    if kind.endswith(".eval"):
        return lambda args, kwargs: 1
    if kind == "herglotz.integrate.integrate_z":
        return _integration_panels
    if kind == "herglotz.reportio.write_text_atomic":
        return lambda args, kwargs: len(args[1].encode())
    return lambda args, kwargs: 0


class Tracer:
    """Span store plus the wrappers that fill it.

    ``op`` is the id of the operation in progress: -1 during set-up, >= 0
    inside a timed operation, None while the harness itself works (input
    generation, correctness gates), when wrappers call straight through.
    """

    def __init__(self):
        self.kinds: list = []
        self.kind_layer: list = []
        self.layers: list = []
        self.kind = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("q")
        self.op_of = array.array("q")
        self.top = array.array("b")
        self.size = array.array("d")
        self.flag = array.array("b")
        self._stack: list = []
        self._depth: list = []
        self.op = None

    def _kind_id(self, kind: str, layer: str) -> int:
        if layer not in self.layers:
            self.layers.append(layer)
            self._depth.append(0)
        self.kinds.append(kind)
        self.kind_layer.append(self.layers.index(layer))
        return len(self.kinds) - 1

    def wrap(self, fn, kind: str, layer: str):
        kid = self._kind_id(kind, layer)
        lid = self.kind_layer[kid]
        tr = self
        depth = self._depth
        stack = self._stack
        size_of = _size_function(kind)
        is_solver = kind == "herglotz.solver.solve_direct"

        def traced(*args, **kwargs):
            if tr.op is None:
                return fn(*args, **kwargs)
            size = size_of(args, kwargs)
            idx = len(tr.kind)
            tr.kind.append(kid)
            tr.parent.append(stack[-1] if stack else -1)
            tr.op_of.append(tr.op)
            tr.top.append(depth[lid] == 0)
            tr.size.append(size)
            tr.flag.append(0)
            tr.end.append(0.0)
            stack.append(idx)
            depth[lid] += 1
            tr.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.end[idx] = perf_counter()
                depth[lid] -= 1
                stack.pop()
            if is_solver:
                tr.size[idx] = result.iterations
                tr.flag[idx] = bool(result.converged)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in every herglotz namespace that holds it."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "herglotz" or name.startswith("herglotz."))]
        for modname, attr, layer in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(getattr(cls, meth), f"{modname}.{attr}", layer))
                continue
            original = getattr(owner, attr)
            traced = self.wrap(original, f"{modname}.{attr}", layer)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, name, traced)

    def _arrays(self):
        n = len(self.kind)
        kind = np.frombuffer(self.kind, dtype=np.int32, count=n).copy()
        start = np.frombuffer(self.start, dtype=np.float64, count=n).copy()
        end = np.frombuffer(self.end, dtype=np.float64, count=n).copy()
        parent = np.frombuffer(self.parent, dtype=np.int64, count=n).copy()
        op = np.frombuffer(self.op_of, dtype=np.int64, count=n).copy()
        top = np.frombuffer(self.top, dtype=np.int8, count=n).astype(bool)
        size = np.frombuffer(self.size, dtype=np.float64, count=n).copy()
        flag = np.frombuffer(self.flag, dtype=np.int8, count=n).astype(bool)
        return kind, start, end, parent, op, top, size, flag

    def save(self, path) -> None:
        kind, start, end, parent, op, top, size, flag = self._arrays()
        np.savez(path, kind=kind, start=start, end=end, parent=parent, op=op,
                 top=top, size=size, flag=flag, kinds=np.array(self.kinds),
                 layers=np.array([self.layers[i] for i in self.kind_layer]))

    def metrics(self, passes: int) -> dict:
        """Per-layer metrics: set-up spans once plus operation spans divided
        by the number of passes of the operation list."""
        kind, start, end, parent, op, top, size, flag = self._arrays()
        n = len(kind)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_t = dur - child
        w = np.where(op >= 0, 1.0 / max(passes, 1), 1.0)
        span_layer = np.array(self.kind_layer, dtype=np.int64)[kind] if n else kind
        parent_layer = np.where(has_parent, span_layer[np.maximum(parent, 0)], -1)

        def layer_id(name):
            return self.layers.index(name) if name in self.layers else -2

        def total(values, mask):
            return float(np.sum((w * values)[mask]))

        def count(mask):
            return float(np.sum(w[mask]))

        def layer(name):
            return span_layer == layer_id(name)

        def of_kind(name):
            return kind == (self.kinds.index(name) if name in self.kinds else -1)

        out = {}
        for lname, prefix in (("expr", "expr"), ("trajectory", "trajectory")):
            m = layer(lname) & top
            out[f"{prefix}.{'calls' if lname == 'expr' else 'eval_calls'}"] = count(m)
            out[f"{prefix}.points"] = total(size, m)
            out[f"{prefix}.s"] = total(dur, m)
        out["spline.builds"] = count(layer("spline"))
        out["spline.build_s"] = total(dur, layer("spline"))
        integ = layer("integrate")
        out["integrate.calls"] = count(integ & top)
        out["integrate.panels"] = total(size, integ & of_kind("herglotz.integrate.integrate_z"))
        out["integrate.s"] = total(dur, integ & top)
        out["integrate.self_s"] = total(self_t, integ)

        solver = layer("solver")
        solves = count(solver)
        evals = count(integ & (parent_layer == layer_id("solver")))
        accepted = total(size, solver)
        trials = evals - solves
        out["solver.iterations"] = accepted
        out["solver.objective_evals"] = evals
        out["solver.backtracks"] = trials - accepted
        out["solver.accept_ratio"] = accepted / trials if trials > 0 else 0.0
        out["solver.s"] = total(dur, solver & top)
        out["solver.self_s"] = total(self_t, solver)
        out["solver.converged"] = total(flag.astype(float), solver)
        grad = layer("solver.gradient")
        out["solver.gradient.calls"] = count(grad & top)
        out["solver.gradient.s"] = total(dur, grad & top)
        out["solver.gradient.self_s"] = total(self_t, grad)
        out["solver.gradient.spline_builds"] = count(
            layer("spline") & (parent_layer == layer_id("solver.gradient")))

        cond = layer("conditions")
        tables = of_kind("herglotz.conditions.node_tables")
        out["conditions.calls"] = count(cond & top)
        out["conditions.s"] = total(dur, cond & top)
        out["conditions.node_tables.calls"] = count(tables)
        out["conditions.node_tables.s"] = total(dur, tables)
        noe = layer("noether")
        out["noether.calls"] = count(noe & top)
        out["noether.s"] = total(dur, noe & top)
        out["noether.self_s"] = total(self_t, noe)

        write = layer("reportio.write")
        out["reportio.files"] = count(write)
        out["reportio.bytes"] = total(size, write)
        out["reportio.format_s"] = total(dur, layer("reportio.format") & top)
        out["reportio.write_s"] = total(dur, write & top)
        out["config.load_s"] = total(dur, layer("config.load") & top)
        out["config.build_s"] = total(dur, layer("config.build") & top)
        out["cli.self_s"] = total(self_t, layer("cli"))
        return out
