"""Span tracing of fbt from the outside, for the traced benchmark run.

`Tracer.install` replaces each traced public function at every fbt module
attribute that binds it (and the traced `MetricField` / `GeodesicPath`
methods on their classes).  fbt's internal calls look these names up at call
time, so the wrappers see them without any change under `src/`.
`Tracer.uninstall` puts the originals back.

Two kinds of wrapper:

* recorded calls become spans (name, start, end, parent span, task id, self
  time, attributes) kept in memory and written out when the run ends;
* hot calls (`spray`, `state`, ...) run tens of thousands of times per task,
  so they are only aggregated: calls and inclusive time per name, plus a
  per-span count of the hot calls made under it.  They still sit on the call
  stack, so their time counts as child time of the span that made them.

Closures returned by `expr.bind` are wrapped to count evaluations only.
"""

from __future__ import annotations

import functools
import json
import os
from time import perf_counter

import fbt
import fbt.bifurc
import fbt.cli
import fbt.expr
import fbt.geoflow
import fbt.jacobi
import fbt.metric
import fbt.morse
import fbt.nav

MODULES = (fbt, fbt.expr, fbt.metric, fbt.geoflow, fbt.jacobi, fbt.morse,
           fbt.bifurc, fbt.nav, fbt.cli)

METRIC_FACTORIES = ("euclidean", "sphere_stereo", "riemannian_expr",
                    "quadratic_expr", "randers_expr", "from_callables")


def _steps(args, kwargs, result):
    return {"steps": len(result.ts) - 1}


def _instants(args, kwargs, result):
    return {"instants": len(result.instants)}


def _agree(args, kwargs, result):
    return {"agree": bool(result.agree)}


def _meshes(args, kwargs, result):
    return {"meshes": len(result.spectral.history)}


def _dof(args, kwargs, result):
    return {"dof": int(args[0].shape[0])}


def _hunt(args, kwargs, result):
    # every budgeted seed starts unless max_found is reached first; the
    # probes the benchmark runs keep nothing, so budget and starts coincide
    rungs = len(kwargs.get("rho_ladder", fbt.bifurc.DEFAULT_RHO_LADDER))
    per_rung = kwargs.get("seeds_per_rung", fbt.bifurc.DEFAULT_SEEDS_PER_RUNG)
    offsets = len(kwargs.get("offsets", (-2, -1, 0, 1, 2)))
    return {"kept": len(result.solutions), "seeds": rungs * per_rung * offsets}


def _bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# (module holding the original, attribute, span name, attribute extractor)
RECORDED = (
    [(fbt.metric, name, "metric.build", None) for name in METRIC_FACTORIES]
    + [
        (fbt.geoflow, "integrate_geodesic", "geoflow.integrate", _steps),
        (fbt.geoflow, "connect", "geoflow.connect", None),
        (fbt.jacobi, "jacobi_frame", "jacobi.frame", _steps),
        (fbt.jacobi, "conjugate_scan", "jacobi.scan", _instants),
        (fbt.jacobi, "focal_scan", "jacobi.scan", _instants),
        (fbt.jacobi, "expmap_jacobian", "jacobi.expmap_jacobian", None),
        (fbt.morse, "cross_check", "morse.cross_check", _agree),
        (fbt.morse, "index_spectral", "morse.spectral", _meshes),
        (fbt.morse, "smallest_eigenvalue", "morse.smallest_eigenvalue", None),
        (fbt.morse, "eigh", "morse.eigh", _dof),
        (fbt.bifurc, "sweep_family", "bifurc.sweep", None),
        (fbt.bifurc, "realize_branch", "bifurc.realize", None),
        (fbt.bifurc, "find_branches", "bifurc.hunt", _hunt),
        (fbt.nav, "zermelo_to_randers", "nav.build", None),
        (fbt.nav, "fermat_metric", "nav.build", None),
        (fbt.nav, "travel_time", "nav.travel_time", None),
        (fbt.nav, "lift_lightlike", "nav.lift", None),
        (fbt.cli, "load_config", "cli.load_config", None),
        (fbt.cli, "run_command", "cli.command", None),
        (fbt.cli, "write_csv", "cli.write", _bytes),
        (fbt.cli, "write_json", "cli.write", _bytes),
    ]
)

# (module or class holding the original, attribute, aggregate name)
HOT = (
    (fbt.expr, "bind", "expr.bind"),
    (fbt.metric.MetricField, "spray", "metric.spray"),
    (fbt.metric.MetricField, "second_derivatives", "metric.second_derivatives"),
    (fbt.metric.MetricField, "F", "metric.F"),
    (fbt.geoflow.GeodesicPath, "state", "geoflow.state"),
    (fbt.jacobi, "spray_jacobians", "jacobi.spray_jacobians"),
)


class _Frame:
    __slots__ = ("span_id", "child_s", "owner", "hot")

    def __init__(self, span_id, owner):
        self.span_id = span_id
        self.child_s = 0.0
        self.owner = owner  # nearest recorded frame (itself if recorded)
        self.hot = None


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "task", "self_s",
                 "hot", "attrs")

    def __init__(self, id, name, start, end, parent, task, self_s, hot, attrs):
        self.id = id
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.task = task
        self.self_s = self_s
        self.hot = hot
        self.attrs = attrs

    def as_dict(self):
        return {"id": self.id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "task": self.task,
                "self_s": self.self_s, "hot": self.hot, "attrs": self.attrs}


class Tracer:
    """Spans and hot-call aggregates of one traced run."""

    def __init__(self):
        self.spans = []
        self.hot_calls = {}
        self.hot_busy = {}
        self.hot_self = {}
        self.expr_evals = 0
        self.task = None
        self._stack = []
        self._next_id = 0
        self._patches = []

    # -- spans -------------------------------------------------------------

    def _push(self, recorded):
        stack = self._stack
        if recorded:
            span_id = self._next_id
            self._next_id += 1
            frame = _Frame(span_id, None)
            frame.owner = frame
        else:
            frame = _Frame(None, stack[-1].owner if stack else None)
        stack.append(frame)
        return frame

    def _pop(self, dur):
        stack = self._stack
        frame = stack.pop()
        if stack:
            stack[-1].child_s += dur
        return frame

    def span(self, name, fn, extract=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1].owner if tracer._stack else None
            frame = tracer._push(True)
            start = perf_counter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = perf_counter()
                tracer._pop(end - start)
                attrs = extract(args, kwargs, result) if ok and extract else {}
                if not ok:
                    attrs["raised"] = True
                tracer.spans.append(Span(
                    frame.span_id, name, start, end,
                    None if parent is None else parent.span_id, tracer.task,
                    end - start - frame.child_s, frame.hot, attrs,
                ))

        return wrapper

    def hot(self, name, fn):
        tracer = self
        self.hot_calls.setdefault(name, 0)
        self.hot_busy.setdefault(name, 0.0)
        self.hot_self.setdefault(name, 0.0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._push(False)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                tracer._pop(dur)
                tracer.hot_calls[name] += 1
                tracer.hot_busy[name] += dur
                tracer.hot_self[name] += dur - frame.child_s
                owner = frame.owner
                if owner is not None:
                    if owner.hot is None:
                        owner.hot = {}
                    owner.hot[name] = owner.hot.get(name, 0) + 1

        return wrapper

    def run_task(self, task_id, fn):
        """Run fn() as the root span of one benchmark task."""
        self.task = task_id
        try:
            return self.span("task", fn)()
        finally:
            self.task = None

    # -- installation --------------------------------------------------------

    def _patch_everywhere(self, original, wrapper):
        for mod in MODULES:
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self):
        for owner, attr, name, extract in RECORDED:
            original = getattr(owner, attr)
            self._patch_everywhere(original, self.span(name, original, extract))
        for owner, attr, name in HOT:
            original = vars(owner)[attr]
            if isinstance(owner, type):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, self.hot(name, original))
                continue
            inner = self._counting_bind(original) if attr == "bind" else original
            self._patch_everywhere(original, self.hot(name, inner))

    def _counting_bind(self, bind):
        tracer = self

        @functools.wraps(bind)
        def counting_bind(*args, **kwargs):
            f = bind(*args, **kwargs)

            def counted(x):
                tracer.expr_evals += 1
                return f(x)

            return counted

        return counting_bind

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [s.as_dict() for s in self.spans],
                       "hot_calls": self.hot_calls,
                       "hot_busy_s": self.hot_busy,
                       "hot_self_s": self.hot_self,
                       "expr_evals": self.expr_evals}, fh)
            fh.write("\n")


# ---------------------------------------------------------------------------
# Per-layer metrics derived from the spans


def _ratio(num, den, empty):
    return num / den if den else empty


def layer_metrics(tracer, exit_codes):
    """Every per-layer metric, from one traced run's spans and aggregates.

    *.calls count calls, *.busy_s is inclusive time (a span nested in one of
    the same name is not counted twice), *.self_s is busy time minus the time
    of the calls made under it.
    """
    spans = tracer.spans
    by_id = {s.id: s for s in spans}

    def ancestors(s):
        p = s.parent
        while p is not None:
            a = by_id[p]
            yield a
            p = a.parent

    def named(name):
        return [s for s in spans if s.name == name]

    def under(name, ancestor):
        return [s for s in named(name)
                if any(a.name == ancestor for a in ancestors(s))]

    def busy(name):
        return sum(s.end - s.start for s in named(name)
                   if not any(a.name == name for a in ancestors(s)))

    def self_s(*names):
        return sum(s.self_s for s in spans if s.name in names)

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in named(name))

    def hot_under(hot_name, ancestor):
        return sum((s.hot or {}).get(hot_name, 0) for s in spans
                   if s.name == ancestor
                   or any(a.name == ancestor for a in ancestors(s)))

    hc, hb = tracer.hot_calls, tracer.hot_busy
    checks = named("morse.cross_check")
    hunts = named("bifurc.hunt")
    out = {
        "expr.bind.calls": hc["expr.bind"],
        "expr.eval.calls": tracer.expr_evals,
        "metric.build.calls": len(named("metric.build")),
        "metric.build.busy_s": busy("metric.build"),
        "metric.spray.calls": hc["metric.spray"],
        "metric.spray.busy_s": hb["metric.spray"],
        "metric.spray.us_per_call": 1e6 * _ratio(hb["metric.spray"],
                                                 hc["metric.spray"], 0.0),
        "metric.second_derivatives.calls": hc["metric.second_derivatives"],
        "metric.second_derivatives.busy_s": hb["metric.second_derivatives"],
        "metric.F.calls": hc["metric.F"],
        "metric.F.busy_s": hb["metric.F"],
        "geoflow.integrate.calls": len(named("geoflow.integrate")),
        "geoflow.integrate.busy_s": busy("geoflow.integrate"),
        "geoflow.integrate.self_s": self_s("geoflow.integrate"),
        "geoflow.integrate.steps": attr_sum("geoflow.integrate", "steps"),
        "geoflow.state.calls": hc["geoflow.state"],
        "geoflow.state.busy_s": hb["geoflow.state"],
        "geoflow.connect.calls": len(named("geoflow.connect")),
        "geoflow.connect.busy_s": busy("geoflow.connect"),
        "geoflow.connect.newton_iters": len(under("jacobi.expmap_jacobian",
                                                  "geoflow.connect")),
        "jacobi.frame.calls": len(named("jacobi.frame")),
        "jacobi.frame.busy_s": busy("jacobi.frame"),
        "jacobi.frame.self_s": self_s("jacobi.frame"),
        "jacobi.frame.steps": attr_sum("jacobi.frame", "steps"),
        "jacobi.frame.spray_calls": hot_under("metric.spray", "jacobi.frame"),
        "jacobi.spray_jacobians.calls": hc["jacobi.spray_jacobians"],
        "jacobi.spray_jacobians.busy_s": hb["jacobi.spray_jacobians"],
        "jacobi.scan.calls": len(named("jacobi.scan")),
        "jacobi.scan.self_s": self_s("jacobi.scan"),
        "jacobi.scan.instants": attr_sum("jacobi.scan", "instants"),
        "jacobi.expmap_jacobian.calls": len(named("jacobi.expmap_jacobian")),
        "jacobi.expmap_jacobian.busy_s": busy("jacobi.expmap_jacobian"),
        "morse.cross_check.calls": len(checks),
        "morse.cross_check.busy_s": busy("morse.cross_check"),
        # share of cross-checks whose two routes agree; 1 when there are none
        "morse.agree_ratio": _ratio(sum(s.attrs.get("agree", False)
                                        for s in checks), len(checks), 1.0),
        "morse.spectral.calls": len(named("morse.spectral")),
        "morse.spectral.busy_s": busy("morse.spectral"),
        "morse.spectral.self_s": self_s("morse.spectral",
                                        "morse.smallest_eigenvalue"),
        "morse.spectral.meshes": attr_sum("morse.spectral", "meshes"),
        "morse.smallest_eigenvalue.calls": len(named("morse.smallest_eigenvalue")),
        "morse.smallest_eigenvalue.busy_s": busy("morse.smallest_eigenvalue"),
        "morse.eigh.calls": len(named("morse.eigh")),
        "morse.eigh.busy_s": busy("morse.eigh"),
        "morse.eigh.dof_max": max((s.attrs.get("dof", 0)
                                   for s in named("morse.eigh")), default=0),
        "bifurc.sweep.calls": len(named("bifurc.sweep")),
        "bifurc.sweep.busy_s": busy("bifurc.sweep"),
        "bifurc.sweep.self_s": self_s("bifurc.sweep"),
        "bifurc.realize.calls": len(named("bifurc.realize")),
        "bifurc.realize.busy_s": busy("bifurc.realize"),
        "bifurc.hunt.calls": len(hunts),
        "bifurc.hunt.busy_s": busy("bifurc.hunt"),
        "bifurc.hunt.self_s": self_s("bifurc.hunt"),
        "bifurc.hunt.shots": len(under("geoflow.integrate", "bifurc.hunt")),
        # solutions kept per seed started; 0 when nothing was hunted
        "bifurc.hunt.useful_ratio": _ratio(attr_sum("bifurc.hunt", "kept"),
                                           attr_sum("bifurc.hunt", "seeds"), 0.0),
        "nav.build.calls": len(named("nav.build")),
        "nav.build.busy_s": busy("nav.build"),
        "nav.travel_time.calls": len(named("nav.travel_time")),
        "nav.travel_time.busy_s": busy("nav.travel_time"),
        "nav.lift.calls": len(named("nav.lift")),
        "nav.lift.busy_s": busy("nav.lift"),
        "cli.load_config.calls": len(named("cli.load_config")),
        "cli.load_config.busy_s": busy("cli.load_config"),
        "cli.command.calls": len(named("cli.command")),
        "cli.command.busy_s": busy("cli.command"),
        "cli.command.self_s": self_s("cli.command"),
        "cli.write.calls": len(named("cli.write")),
        "cli.write.busy_s": busy("cli.write"),
        "cli.write.bytes": attr_sum("cli.write", "bytes"),
        "cli.exit_nonzero": sum(1 for code in exit_codes if code != 0),
    }
    return out


def self_time_table(tracer):
    """Self time per layer, {layer: seconds}: spans and hot calls grouped by
    the part of their name before the first dot.  "bench" is the benchmark's
    own code inside tasks.  Evaluations of bound expressions are not timed,
    so their time shows as self time of the metric calls that make them."""
    table = {}
    for s in tracer.spans:
        layer = "bench" if s.name == "task" else s.name.split(".", 1)[0]
        table[layer] = table.get(layer, 0.0) + s.self_s
    for name, seconds in tracer.hot_self.items():
        layer = name.split(".", 1)[0]
        table[layer] = table.get(layer, 0.0) + seconds
    return table
