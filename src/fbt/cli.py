"""Configuration loading, subcommand dispatch, and report persistence.

The only module with I/O.  Configs are strict JSON validated against the
published schema (config.schema.json, shipped inside the package) by
fbt's own walk, which knows exactly the keywords the schema uses; numpy
is the only run-time dependency.  Artifacts are CSV for sampled data and
JSON for structured verdicts, a result dataclass written by its fields
(_jsonable); every artifact embeds or sits next to the fully resolved
configuration so that a run can be reproduced byte for byte.
A config error, in loading or inside a command, writes nothing.

    fbt <command> --config cfg.json [--out DIR] [--seed N]

Commands: metric-check geodesic expmap conjugate focal index sweep branch
zermelo fermat.  Exit codes: 0 success, 1 configuration error, 2 numerical
failure (diagnostic JSON is still written).  Log level comes from FBT_LOG
(error, warn, info, debug).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import logging
import os
import sys
from importlib import resources

import numpy as np

from .errors import ConfigError, NumericalError
from . import expr as _expr
from . import metric as _metric
from . import geoflow as _geoflow
from . import jacobi as _jacobi
from . import morse as _morse
from . import bifurc as _bifurc
from . import nav as _nav

__all__ = ["load_config", "run_command", "write_csv", "write_json", "main"]

log = logging.getLogger("fbt")

SOLVER_DEFAULTS = {
    "rtol": _geoflow.DEFAULT_RTOL,
    "atol": _geoflow.DEFAULT_ATOL,
    "seed": 12345,
    "scan_grid": _jacobi.DEFAULT_GRID,
    "mesh0": _morse.DEFAULT_MESH0,
    "max_mesh": _morse.DEFAULT_MAX_MESH,
    "samples_out": 200,
    "invariant_samples": _metric.INVARIANT_SAMPLES,
    "seeds_per_rung": _bifurc.DEFAULT_SEEDS_PER_RUNG,
    "max_found": _bifurc.DEFAULT_MAX_FOUND,
    "grid_oracle": False,
    "check_lorentz": True,
}


class ParseError(ConfigError):
    pass


class SchemaError(ConfigError):
    pass


class ExpressionError(ConfigError):
    pass


@functools.cache
def _schema():
    with resources.files("fbt").joinpath("config.schema.json").open("rb") as fh:
        return json.load(fh)


_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
          "number": (int, float), "integer": int}


def _is(node, name):
    """JSON Schema's type test: a bool is a boolean only; 2.0 is an integer."""
    if isinstance(node, bool):
        return name == "boolean"
    if name == "integer" and isinstance(node, float):
        return node.is_integer()
    return isinstance(node, _TYPES[name])


def _walk(node, schema, path, errors):
    """Check node against a subschema of config.schema.json as JSON Schema
    2020-12 does, appending (path, message) per failure in keyword order.
    Knows exactly the schema's keywords and raises on any other.  Returns
    node, an int if it is an integral float at an integer leaf."""
    obj, arr = isinstance(node, dict), isinstance(node, list)
    for key, arg in schema.items():
        fail = None
        if key == "$ref" and arg.startswith("#/$defs/"):
            node = _walk(node, _schema()["$defs"][arg[len("#/$defs/"):]], path, errors)
        elif key == "type":
            fail = not _is(node, arg) and f"{node!r} is not of type {arg!r}"
        elif key == "enum":
            fail = node not in arg and f"{node!r} is not one of {arg!r}"
        elif key == "minimum":
            fail = (_is(node, "number") and node < arg
                    and f"{node!r} is less than the minimum of {arg!r}")
        elif key == "exclusiveMinimum":
            fail = (_is(node, "number") and node <= arg
                    and f"{node!r} is less than or equal to the minimum of {arg!r}")
        elif key == "minItems":
            fail = arr and len(node) < arg and f"{node!r} is too short"
        elif key == "maxItems":
            fail = arr and len(node) > arg and f"{node!r} is too long"
        elif key == "items":
            for i, item in enumerate(node if arr else ()):
                node[i] = _walk(item, arg, path + (i,), errors)
        elif key == "properties":
            for name, sub in arg.items():
                if obj and name in node:
                    node[name] = _walk(node[name], sub, path + (name,), errors)
        elif key == "required":
            errors.extend((path, f"{name!r} is a required property")
                          for name in arg if obj and name not in node)
        elif key == "additionalProperties":
            known = schema.get("properties", {})
            extras = sorted(k for k in node if k not in known) if obj else []
            if arg is not False:
                for name in extras:
                    node[name] = _walk(node[name], arg, path + (name,), errors)
            elif extras:
                verb = "was" if len(extras) == 1 else "were"
                fail = (f"Additional properties are not allowed "
                        f"({', '.join(map(repr, extras))} {verb} unexpected)")
        elif key not in ("$schema", "title", "$defs"):
            raise NotImplementedError(f"config schema keyword {key!r}")
        if fail:
            errors.append((path, fail))
    return int(node) if schema.get("type") == "integer" and _is(node, "integer") else node


def _check_schema(cfg):
    """Validate cfg in place (2.0 at an integer leaf becomes 2); raise the
    first error by path."""
    errors = []
    _walk(cfg, _schema(), (), errors)
    if errors:
        path, message = min(errors, key=lambda e: e[0])
        raise SchemaError(f"/{'/'.join(map(str, path))}: {message}")


def load_config(path):
    """Read, schema-validate, and default-fill a JSON config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read config: {exc}") from None
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from None

    _check_schema(cfg)
    cfg.setdefault("solver", {})
    for key, val in SOLVER_DEFAULTS.items():
        cfg["solver"].setdefault(key, val)
    _validate_semantics(cfg)
    return cfg


def _validate_semantics(cfg):
    mc = cfg["metric"]
    dim = mc["dim"]
    kind = mc["kind"]
    required, optional, names, _ = KINDS[kind]
    for name in mc:
        if name not in ("kind", "dim", "params", "chart_box", "v_min", *required, *optional):
            raise SchemaError(f"/metric/{name}: kind '{kind}' does not read it")
    for name in required + optional:
        if name in mc:
            for where, src in _cells(mc, name):
                try:
                    _expr.parse(src)
                except _expr.ExprSyntaxError as exc:
                    raise ExpressionError(f"{where}: {exc}") from None
        elif name in required:
            raise SchemaError(f"/metric/{name}: required for kind '{kind}'")
    for name in names:
        if name not in mc.get("params", {}):
            raise SchemaError(f"/metric/params/{name}: required for kind '{kind}'")
    sv = cfg["solver"]
    if sv["max_mesh"] <= 2 * sv["mesh0"]:
        raise SchemaError(f"/solver/max_mesh: {sv['max_mesh']} must exceed 2 * mesh0 = "
                          f"{2 * sv['mesh0']}, since the index counts settle on three "
                          "meshes mesh0, 2 mesh0 and 4 mesh0")
    problem = cfg.get("problem", {})
    if "initial" in problem and "connect" in problem:
        raise SchemaError("/problem: give an 'initial' or a 'connect' block, not both")
    for vec_name in ("initial", "connect"):
        block = problem.get(vec_name)
        if block:
            for key in ("x", "v", "p", "q", "v_seed"):
                if key in block:
                    _check_vector(block[key], dim, f"/problem/{vec_name}/{key}")
    bd = problem.get("boundary")
    if bd is not None:
        _check_vector(bd["x0"], dim, "/problem/boundary/x0")
        # the path starts at initial.x, or at connect.p (see _branch_from_config)
        start = (problem["initial"]["x"] if "initial" in problem
                 else problem.get("connect", {}).get("p"))
        if start is not None and not np.array_equal(bd["x0"], start):
            raise SchemaError(f"/problem/boundary/x0: the boundary must pass through "
                              f"the path's start {start}")
        for i, row in enumerate(bd["basis"]):
            _check_vector(row, dim, f"/problem/boundary/basis/{i}")
        if "shape_operator" in bd:
            _check_matrix(bd["shape_operator"], len(bd["basis"]),
                          "/problem/boundary/shape_operator")


def _check_vector(block, n, pointer):
    if len(block) != n:
        raise SchemaError(f"{pointer}: expected {n} components")


def _check_matrix(block, n, pointer):
    if len(block) != n or any(len(r) != n for r in block):
        raise SchemaError(f"{pointer}: expected a {n}x{n} matrix")


def _cells(mc, name):
    """The (pointer, source) expression cells of the metric field name, after
    checking its size against dim.  The schema gives the field's shape: a
    matrix, a vector or one string of expressions, or no expression."""
    shape = _schema()["properties"]["metric"]["properties"][name]
    block, pointer = mc[name], f"/metric/{name}"
    if shape.get("$ref") == "#/$defs/matrix":
        _check_matrix(block, mc["dim"], pointer)
        return [(f"{pointer}/{i}/{j}", src) for i, row in enumerate(block)
                for j, src in enumerate(row)]
    if shape.get("$ref") == "#/$defs/vector":
        _check_vector(block, mc["dim"], pointer)
        return [(f"{pointer}/{i}", src) for i, src in enumerate(block)]
    return [(pointer, block)] if shape.get("type") == "string" else []


def _stationary(dim, g0, V, f, sign, params, chart_box=None, **kw):
    """A fermat config's stationary data, which the fermat command lifts
    through."""
    return _nav.StationaryData.from_exprs(dim, g0, V, f, params, chart_box)


def _fermat(dim, g0, V, f, sign, params, **kw):
    """F+ of a fermat config, or F- where fermat_sign is 'minus'."""
    pair = _nav.fermat_metric(_stationary(dim, g0, V, f, sign, params, **kw), **kw)
    return pair[1] if sign == "minus" else pair[0]


# each metric kind: the fields it requires, its optional fields, the
# parameters it reads outside its expression fields, and its factory, called
# as factory(dim, *fields, params, **kw) with the fields in that order (None
# for an optional field not given) and kw the chart_box and v_min given.
# No kind reads a metric field outside these but kind, dim, params,
# chart_box and v_min.
KINDS = {
    "euclidean": ((), (), (), lambda dim, params, **kw: _metric.euclidean(dim, **kw)),
    "sphere_stereo": ((), (), ("K",), lambda dim, params, **kw: _metric.sphere_stereo(
        params["K"], dim, **kw)),
    "riemannian_expr": (("g",), (), (), _metric.riemannian_expr),
    "quadratic_expr": (("g",), (), (), _metric.quadratic_expr),
    "randers": (("h", "beta"), (), (), _metric.randers_expr),
    "zermelo": (("h", "W"), (), (), lambda dim, h, W, params, **kw: _nav.zermelo_to_randers(
        _nav.ZermeloData.from_exprs(dim, h, W, params, kw.get("chart_box")), **kw)),
    "fermat": (("g0", "V"), ("f", "fermat_sign"), (), _fermat),
}


def metric_from_config(cfg, param_overrides=None, factory=None):
    """The configured metric, or what factory makes of the arguments of the
    kind's factory.  A config error the library raises is reported at
    /metric, or at /family/range naming the sample's value where a family
    sample overrides a parameter."""
    mc = cfg["metric"]
    required, optional, _, kind_factory = KINDS[mc["kind"]]
    params = {**mc.get("params", {}), **(param_overrides or {})}
    kw = {key: mc[key] for key in ("chart_box", "v_min") if key in mc}
    try:  # a bound or name the library rejects is an error of the metric block
        return (factory or kind_factory)(
            mc["dim"], *(mc.get(name) for name in required + optional), params, **kw)
    except ConfigError as exc:
        where = "/metric"
        if param_overrides:
            where = "/family/range: at " + ", ".join(
                f"{k} = {float(v)!r}" for k, v in param_overrides.items())
        raise SchemaError(f"{where}: {exc}") from None


def _branch_from_config(cfg):
    """The problem's trivial branch spec, from its 'initial' or 'connect'
    block."""
    prob = cfg.get("problem", {})
    if "initial" in prob:
        ini = prob["initial"]
        return _bifurc.InitialStateBranch(
            ini["x"], ini["v"], ini["tau"],
            normalize_speed=ini.get("normalize_speed"),
        )
    if "connect" in prob:
        con = prob["connect"]
        seed = con.get("v_seed", (np.asarray(con["q"], float)
                                  - np.asarray(con["p"], float)).tolist())
        return _bifurc.ConnectBranch(con["p"], con["q"], seed,
                                     con.get("tau", _bifurc.ConnectBranch.tau))
    raise SchemaError("/problem: an 'initial' or 'connect' block is required")


def _problem_path(cfg, m):
    """Realize the configured problem on m as a GeodesicPath."""
    sv = cfg["solver"]
    return _branch_from_config(cfg).realize(m, rtol=sv["rtol"], atol=sv["atol"])


def _boundary_from_config(cfg):
    bd = cfg.get("problem", {}).get("boundary")
    if bd is None:
        return None
    basis = np.asarray(bd["basis"], dtype=float).T  # rows in config -> columns
    shape = bd.get("shape_operator")
    try:
        return _geoflow.BoundaryData(bd["x0"], basis,
                                     None if shape is None else np.asarray(shape, float))
    except ValueError as exc:
        raise SchemaError(f"/problem/boundary: {exc}") from None


def _parameters_read(mc):
    """The parameter names the configured metric reads: those its kind reads
    outside expressions (K for sphere_stereo), and the names other than
    chart coordinates in its expression fields."""
    required, optional, names, _ = KINDS[mc["kind"]]
    srcs = [src for name in required + optional if name in mc
            for _, src in _cells(mc, name)]
    found = {n for s in srcs for n in _expr.names(_expr.parse(s))}
    return set(names) | {n for n in found if not _expr._COORD_RE.match(n)}


def _family_from_config(cfg):
    fam = cfg["family"]
    pname = fam["parameter"]

    def builder(lam):
        return metric_from_config(cfg, {pname: lam})

    branch = _branch_from_config(cfg)
    if pname not in _parameters_read(cfg["metric"]):
        raise SchemaError(f"/family/parameter: no metric field reads {pname!r}")
    try:
        return _bifurc.FamilySpec(
            param_name=pname, param_range=tuple(fam["range"]), samples=fam["samples"],
            metric_builder=builder, branch=branch,
            continuity_tol=fam.get("continuity_tol", _bifurc.FamilySpec.continuity_tol),
        )
    except ValueError as exc:
        raise SchemaError(f"/family/range: {exc}") from None


# ---------------------------------------------------------------------------
# Artifact writers


def _fmt(x):
    if x is None:
        return ""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    data = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(data)


# result fields that the JSON artifacts spell otherwise
ARTIFACT_KEYS = {
    "lam": "lambda",
    "m_left": "index_left",
    "m_right": "index_right",
    "m0_left": "nullity_left",
    "m0_right": "nullity_right",
}


def _jsonable(obj):
    """obj as JSON values; a result dataclass becomes the dict of its fields,
    keyed by field name or its ARTIFACT_KEYS spelling."""
    if dataclasses.is_dataclass(obj):
        return {ARTIFACT_KEYS.get(f.name, f.name): _jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def write_json(path, payload, cfg=None):
    obj = _jsonable(payload)
    if cfg is not None:
        obj = {"config": _jsonable(cfg), **obj}
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_path_csv(file, cfg, m, path, velocity):
    """t, x, v (with velocity) and F at solver.samples_out times of path."""
    n = m.dim
    header = ["t"] + [f"x{i+1}" for i in range(n)]
    header += [f"v{i+1}" for i in range(n) if velocity] + ["F"]
    ts = np.linspace(0.0, path.tau, cfg["solver"]["samples_out"])
    x, v = path.state(ts)
    cols = [ts[:, None], x, *([v] if velocity else []), m.F(x, v)[:, None]]
    write_csv(file, header, np.concatenate(cols, axis=1).tolist())


# ---------------------------------------------------------------------------
# Command implementations


def _cmd_metric_check(cfg, out):
    m = metric_from_config(cfg)
    rep = m.check_invariants(
        samples=cfg["solver"]["invariant_samples"], seed=cfg["solver"]["seed"]
    )
    write_json(os.path.join(out, "metric_check.json"), rep, cfg=cfg)
    return 0


def _cmd_geodesic(cfg, out):
    m = metric_from_config(cfg)
    path = _problem_path(cfg, m)
    _write_path_csv(os.path.join(out, "geodesic.csv"), cfg, m, path, True)
    return 0


def _cmd_expmap(cfg, out):
    m = metric_from_config(cfg)
    ini = cfg["problem"]["initial"]
    sv = cfg["solver"]
    endpoint = _geoflow.exp_map(m, ini["x"], ini["v"], rtol=sv["rtol"], atol=sv["atol"])
    J = _jacobi.expmap_jacobian(m, ini["x"], ini["v"], rtol=sv["rtol"],
                                atol=sv["atol"])
    sigma = np.linalg.svd(J, compute_uv=False)
    write_json(
        os.path.join(out, "expmap.json"),
        {"endpoint": endpoint, "jacobian": J, "singular_values": sigma},
        cfg=cfg,
    )
    return 0


def _scan_command(cfg, out):
    """conjugate and focal: the scan of the configured start, a point or
    problem.boundary."""
    m = metric_from_config(cfg)
    path = _problem_path(cfg, m)
    boundary = _boundary_from_config(cfg)
    rep = _jacobi.focal_scan(path, boundary, grid=cfg["solver"]["scan_grid"])
    stem = "conjugate" if boundary is None else "focal"
    write_csv(
        os.path.join(out, f"{stem}.csv"),
        ["t", "multiplicity", "sigma_min"],
        [(c.t, c.multiplicity, c.sigma_min_rel) for c in rep.instants],
    )
    write_json(
        os.path.join(out, f"{stem}.json"),
        {"tau": rep.tau, "grid": rep.grid, "theta_null": _jacobi.THETA_NULL,
         "instants": rep.instants, "warnings": rep.warnings},
        cfg=cfg,
    )
    return 0


def _cmd_index(cfg, out):
    m = metric_from_config(cfg)
    path = _problem_path(cfg, m)
    boundary = _boundary_from_config(cfg)
    sv = cfg["solver"]
    rep = _morse.cross_check(path, boundary, grid=sv["scan_grid"],
                             mesh0=sv["mesh0"], max_mesh=sv["max_mesh"])
    doc = _jsonable(rep)
    # index.json leaves out an empty instant list and the eigenvalue that
    # only sweep.csv reads
    if not rep.instants:
        del doc["instants"]
    del doc["spectral"]["min_abs_eig"]
    write_json(os.path.join(out, "index.json"), doc, cfg=cfg)
    return 0


def _sweep_options(sv):
    """sweep_family's keywords from the solver block."""
    return {"grid": sv["scan_grid"], "mesh0": sv["mesh0"], "max_mesh": sv["max_mesh"],
            "seed": sv["seed"], "rtol": sv["rtol"], "atol": sv["atol"]}


def _cmd_sweep(cfg, out):
    fam = _family_from_config(cfg)
    sv = cfg["solver"]
    boundary = _boundary_from_config(cfg)
    scan = _bifurc.sweep_family(fam, boundary, **_sweep_options(sv))
    verdicts = _bifurc.detect_bifurcation(scan)
    write_csv(
        os.path.join(out, "sweep.csv"),
        ["lambda", "m_minus", "m_zero", "min_abs_eig"],
        [(r.lam, r.m_minus, r.m_zero, r.min_abs_eig) for r in scan.records],
    )
    write_json(
        os.path.join(out, "detections.json"),
        {"parameter": scan.param_name, "range": scan.param_range,
         "detections": scan.detections, "verdicts": verdicts},
        cfg=cfg,
    )
    return 0


def _cmd_branch(cfg, out):
    fam = _family_from_config(cfg)
    sv = cfg["solver"]
    mu = cfg["family"].get("mu")
    if mu is None:
        scan = _bifurc.sweep_family(fam, **_sweep_options(sv))
        if not scan.detections:
            diag = _bifurc.Diagnosis(label="undetermined", distinct_speeds=False,
                                     counts={"at_mu": 0, "left": 0, "right": 0})
            write_json(os.path.join(out, "branch_evidence.json"),
                       {"evidence": None, "diagnosis": diag}, cfg=cfg)
            return 0
        mu = scan.detections[0].mu
    ev = _bifurc.find_branches(
        fam, mu, seed=sv["seed"], seeds_per_rung=sv["seeds_per_rung"],
        max_found=sv["max_found"], rtol=sv["rtol"], atol=sv["atol"],
    )
    diag = _bifurc.classify_alternative(ev)
    write_json(
        os.path.join(out, "branch_evidence.json"),
        {"evidence": ev, "diagnosis": diag},
        cfg=cfg,
    )
    return 0


def _cmd_zermelo(cfg, out):
    if cfg["metric"]["kind"] != "zermelo":
        raise SchemaError("/metric/kind: the zermelo command needs kind 'zermelo'")
    sv = cfg["solver"]
    branch = _branch_from_config(cfg)
    if sv["grid_oracle"] and not isinstance(branch, _bifurc.ConnectBranch):
        raise SchemaError("/solver/grid_oracle: the grid oracle needs a 'connect' "
                          "problem")
    m = metric_from_config(cfg)
    path = branch.realize(m, rtol=sv["rtol"], atol=sv["atol"])
    time = _nav.travel_time(m, path)
    payload = {
        "travel_time": time,
        "initial_velocity": path.v0,
        "endpoint": path.endpoint,
        "speed_F": path.F0,
    }
    if sv["grid_oracle"]:
        lo = np.minimum(branch.p, branch.q) - 0.25
        hi = np.maximum(branch.p, branch.q) + 0.25
        res = _nav.grid_travel_time(m, branch.p, branch.q,
                                    box=np.stack([lo, hi], axis=1))
        payload["grid_oracle"] = {
            "time": res.time,
            "cell_time": res.cell_time,
            "headings": res.headings,
        }
    write_json(os.path.join(out, "zermelo.json"), payload, cfg=cfg)
    _write_path_csv(os.path.join(out, "zermelo_path.csv"), cfg, m, path, False)
    return 0


def _cmd_fermat(cfg, out):
    if cfg["metric"]["kind"] != "fermat":
        raise SchemaError("/metric/kind: the fermat command needs kind 'fermat'")
    if cfg["metric"].get("fermat_sign") == "minus":
        # t' = F-(x, x') is not lightlike: F- governs past-pointing curves
        raise SchemaError("/metric/fermat_sign: the fermat command lifts F+ "
                          "geodesics only")
    m = metric_from_config(cfg)
    s = metric_from_config(cfg, factory=_stationary)
    path = _problem_path(cfg, m)
    sv = cfg["solver"]
    t0 = cfg["problem"].get("t0", 0.0)
    lift = _nav.lift_lightlike(s, path, t0, fermat=m,
                               check_lorentz=sv["check_lorentz"])
    write_json(
        os.path.join(out, "fermat.json"),
        {
            "null_residual_max": lift.null_residual_max,
            "lorentz_projection_gap": lift.lorentz_gap,
            "arrival_time": float(lift.t[-1]),
        },
        cfg=cfg,
    )
    header = ["s"] + [f"x{i+1}" for i in range(s.dim)] + ["t"]
    rows = np.column_stack([lift.s_grid, lift.x, lift.t]).tolist()
    write_csv(os.path.join(out, "fermat_lift.csv"), header, rows)
    return 0


# each command: its handler, the config parts it requires, and which of the
# optional parts problem/boundary, problem/t0, family and family/mu it reads;
# run_command rejects an optional part that the command does not read
COMMANDS = {
    "metric-check": (_cmd_metric_check, (), ()),
    "geodesic": (_cmd_geodesic, (), ()),
    "expmap": (_cmd_expmap, ("problem/initial",), ()),
    "conjugate": (_scan_command, (), ()),
    "focal": (_scan_command, ("problem/boundary",), ("problem/boundary",)),
    "index": (_cmd_index, (), ("problem/boundary",)),
    "sweep": (_cmd_sweep, ("family",), ("family", "problem/boundary")),
    "branch": (_cmd_branch, ("family",), ("family", "family/mu")),
    "zermelo": (_cmd_zermelo, (), ()),
    "fermat": (_cmd_fermat, (), ("problem/t0",)),
}


def _has(cfg, part):
    *blocks, leaf = part.split("/")
    for key in blocks:
        cfg = cfg.get(key, {})
    return leaf in cfg


def run_command(cmd, cfg, out_dir="."):
    """Execute one subcommand; returns the process exit code.  A part the
    command requires and lacks, or an optional part it does not read, is a
    config error raised before anything is written."""
    if cmd not in COMMANDS:
        raise ConfigError(f"unknown command {cmd!r}")
    handler, required, reads = COMMANDS[cmd]
    for part in required:
        if not _has(cfg, part):
            raise SchemaError(f"/{part}: required for the {cmd} command")
    for part in sorted({p for _, _, r in COMMANDS.values() for p in r} - set(reads)):
        if _has(cfg, part):
            raise SchemaError(f"/{part}: the {cmd} command does not read it")
    os.makedirs(out_dir, exist_ok=True)
    try:
        code = handler(cfg, out_dir)
    except NumericalError as exc:
        write_json(
            os.path.join(out_dir, "diagnostic.json"),
            {"error": type(exc).__name__, "message": str(exc), "command": cmd},
            cfg=cfg,
        )
        log.error("%s failed: %s", cmd, exc)
        code = 2
    # written last: a config error raised by the command leaves nothing behind
    write_json(os.path.join(out_dir, "resolved_config.json"), {}, cfg=cfg)
    return code


def _setup_logging():
    level = os.environ.get("FBT_LOG", "warn").lower()
    levels = {"error": logging.ERROR, "warn": logging.WARNING,
              "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(
        level=levels.get(level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )


def main(argv=None):
    _setup_logging()
    parser = argparse.ArgumentParser(
        prog="fbt",
        description="Finsler geodesic, Morse index, and bifurcation toolkit",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="JSON configuration file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override solver.seed")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["solver"]["seed"] = args.seed
            _check_schema(cfg)
        return run_command(args.command, cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
