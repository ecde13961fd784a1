"""Configuration loading, subcommand dispatch, and report persistence.

The only module with I/O.  Configs are strict JSON validated against the
published schema (docs/config.schema.json, also shipped inside the package).
Artifacts are CSV for sampled data and JSON for structured verdicts; every
artifact embeds or sits next to the fully resolved configuration so that a
run can be reproduced byte for byte.

    fbt <command> --config cfg.json [--out DIR] [--seed N]

Commands: metric-check geodesic expmap conjugate focal index sweep branch
zermelo fermat.  Exit codes: 0 success, 1 configuration error, 2 numerical
failure (diagnostic JSON is still written).  Log level comes from FBT_LOG
(error, warn, info, debug).
"""

from __future__ import annotations

import argparse
import copy
import json
import logging
import os
import sys
from importlib import resources

import jsonschema
import numpy as np

from .errors import ConfigError, NumericalError
from . import expr as _expr
from . import metric as _metric
from . import geoflow as _geoflow
from . import jacobi as _jacobi
from . import morse as _morse
from . import bifurc as _bifurc
from . import nav as _nav
from .metric import PhaseState

__all__ = ["load_config", "run_command", "write_csv", "write_json", "main"]

log = logging.getLogger("fbt")

COMMANDS = (
    "metric-check", "geodesic", "expmap", "conjugate", "focal",
    "index", "sweep", "branch", "zermelo", "fermat",
)
# commands whose flows run on DOP853 whatever solver.method says
DOP853_ONLY = ("expmap", "conjugate", "focal", "sweep", "branch")

SOLVER_DEFAULTS = {
    "rtol": 1e-9,
    "atol": 1e-12,
    "seed": 12345,
    "scan_grid": 400,
    "mesh0": 16,
    "max_mesh": 1024,
    "samples_out": 200,
    "invariant_samples": 200,
    "seeds_per_rung": 16,
    "max_found": 12,
    "grid_oracle": False,
    "check_lorentz": True,
    "method": "dop853",
}

OUTPUT_DEFAULTS = {"dir": ".", "formats": ["csv", "json"]}


class ParseError(ConfigError):
    pass


class SchemaError(ConfigError):
    pass


class ExpressionError(ConfigError):
    pass


def _schema():
    with resources.files("fbt").joinpath("config.schema.json").open("rb") as fh:
        return json.load(fh)


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

    validator = jsonschema.Draft202012Validator(_schema())
    errors = sorted(validator.iter_errors(cfg), key=lambda e: list(e.absolute_path))
    if errors:
        e = errors[0]
        pointer = "/" + "/".join(str(p) for p in e.absolute_path)
        raise SchemaError(f"{pointer or '/'}: {e.message}")

    cfg.setdefault("solver", {})
    for key, val in SOLVER_DEFAULTS.items():
        cfg["solver"].setdefault(key, val)
    cfg.setdefault("output", {})
    for key, val in OUTPUT_DEFAULTS.items():
        cfg["output"].setdefault(key, copy.deepcopy(val))
    _validate_semantics(cfg)
    return cfg


def _validate_semantics(cfg):
    mc = cfg["metric"]
    dim = mc["dim"]
    kind = mc["kind"]
    needed = {
        "euclidean": [],
        "sphere_stereo": [],
        "riemannian_expr": ["g"],
        "quadratic_expr": ["g"],
        "randers": ["h", "beta"],
        "zermelo": ["h", "W"],
        "fermat": ["g0", "V"],
    }[kind]
    for name in needed:
        if name not in mc:
            raise SchemaError(f"/metric/{name}: required for kind '{kind}'")
        block = mc[name]
        rows = block if isinstance(block[0], list) else [block]
        if isinstance(block[0], list) and (
            len(block) != dim or any(len(r) != dim for r in block)
        ):
            raise SchemaError(f"/metric/{name}: expected a {dim}x{dim} matrix")
        if not isinstance(block[0], list) and len(block) != dim:
            raise SchemaError(f"/metric/{name}: expected {dim} components")
        for i, row in enumerate(rows):
            for j, src in enumerate(row):
                try:
                    _expr.parse(src)
                except _expr.ExprSyntaxError as exc:
                    where = f"/metric/{name}/{i}" + (
                        f"/{j}" if isinstance(block[0], list) else ""
                    )
                    raise ExpressionError(f"{where}: {exc}") from None
    if kind == "sphere_stereo" and "K" not in mc.get("params", {}):
        raise SchemaError("/metric/params/K: required for kind 'sphere_stereo'")
    if "f" in mc and mc["f"] is not None:
        try:
            _expr.parse(mc["f"])
        except _expr.ExprSyntaxError as exc:
            raise ExpressionError(f"/metric/f: {exc}") from None
    for vec_name in ("initial", "connect"):
        prob = cfg.get("problem", {}).get(vec_name)
        if prob:
            for key in ("x", "v", "p", "q", "v_seed"):
                if key in prob and len(prob[key]) != dim:
                    raise SchemaError(
                        f"/problem/{vec_name}/{key}: expected {dim} components"
                    )


def metric_from_config(cfg, param_overrides=None):
    mc = cfg["metric"]
    dim = mc["dim"]
    kind = mc["kind"]
    params = dict(mc.get("params", {}))
    if param_overrides:
        params.update(param_overrides)
    kw = {}
    if "chart_box" in mc:
        kw["chart_box"] = mc["chart_box"]
    if "v_min" in mc:
        kw["v_min"] = mc["v_min"]
    if kind == "euclidean":
        return _metric.euclidean(dim, **kw)
    if kind == "sphere_stereo":
        return _metric.sphere_stereo(params["K"], dim, params=params, **kw)
    if kind == "riemannian_expr":
        return _metric.riemannian_expr(dim, mc["g"], params, **kw)
    if kind == "quadratic_expr":
        return _metric.quadratic_expr(dim, mc["g"], params, **kw)
    if kind == "randers":
        return _metric.randers_expr(dim, mc["h"], mc["beta"], params, **kw)
    if kind == "zermelo":
        return _nav.zermelo_to_randers(_zermelo_from_config(cfg, params),
                                       **{k: v for k, v in kw.items()
                                          if k != "chart_box"})
    if kind == "fermat":
        s = _stationary_from_config(cfg, params)
        pair = _nav.fermat_metric(s, **{k: v for k, v in kw.items()
                                        if k != "chart_box"})
        return pair[0] if mc.get("fermat_sign", "plus") == "plus" else pair[1]
    raise SchemaError(f"/metric/kind: unknown kind {kind!r}")


def _zermelo_from_config(cfg, params=None):
    mc = cfg["metric"]
    return _nav.ZermeloData.from_exprs(
        mc["dim"], mc["h"], mc["W"],
        params if params is not None else mc.get("params", {}),
        chart_box=mc.get("chart_box"),
    )


def _stationary_from_config(cfg, params=None):
    mc = cfg["metric"]
    return _nav.StationaryData.from_exprs(
        mc["dim"], mc["g0"], mc["V"], mc.get("f"),
        params if params is not None else mc.get("params", {}),
        chart_box=mc.get("chart_box"),
    )


def _problem_path(cfg, m):
    """Realize the configured problem as a GeodesicPath."""
    prob = cfg.get("problem", {})
    sv = cfg["solver"]
    if "initial" in prob:
        ini = prob["initial"]
        v0 = np.asarray(ini["v"], dtype=float)
        if "normalize_speed" in ini:
            v0 = v0 * (ini["normalize_speed"] / m.F(ini["x"], v0))
        return _geoflow.integrate_geodesic(
            m, PhaseState(ini["x"], v0), ini["tau"],
            rtol=sv["rtol"], atol=sv["atol"], method=sv["method"],
        )
    if "connect" in prob:
        con = prob["connect"]
        seed = con.get("v_seed", (np.asarray(con["q"], float)
                                  - np.asarray(con["p"], float)).tolist())
        tau = con.get("tau", 1.0)
        v = _geoflow.connect(m, con["p"], con["q"], seed, tau=tau,
                             rtol=sv["rtol"], atol=sv["atol"])
        return _geoflow.integrate_geodesic(
            m, PhaseState(con["p"], v), tau,
            rtol=sv["rtol"], atol=sv["atol"], method=sv["method"],
        )
    raise SchemaError("/problem: an 'initial' or 'connect' block is required")


def _boundary_from_config(cfg):
    bd = cfg.get("problem", {}).get("boundary")
    if bd is None:
        return "point-point"
    basis = np.asarray(bd["basis"], dtype=float).T  # rows in config -> columns
    shape = bd.get("shape_operator")
    return _geoflow.BoundaryData(bd["x0"], basis,
                                 None if shape is None else np.asarray(shape, float))


def _family_from_config(cfg):
    fam = cfg.get("family")
    if fam is None:
        raise SchemaError("/family: required for this command")
    prob = cfg.get("problem", {})
    pname = fam["parameter"]

    def builder(lam):
        return metric_from_config(cfg, {pname: lam})

    if "initial" in prob:
        ini = prob["initial"]
        branch = _bifurc.InitialStateBranch(
            ini["x"], ini["v"], ini["tau"],
            normalize_speed=ini.get("normalize_speed"),
        )
    elif "connect" in prob:
        con = prob["connect"]
        seed = con.get("v_seed", (np.asarray(con["q"], float)
                                  - np.asarray(con["p"], float)).tolist())
        branch = _bifurc.ConnectBranch(con["p"], con["q"], seed, con.get("tau", 1.0))
    else:
        raise SchemaError("/problem: family sweeps need an 'initial' or 'connect' block")
    return _bifurc.FamilySpec(
        param_name=pname,
        param_range=tuple(fam["range"]),
        samples=fam["samples"],
        metric_builder=builder,
        branch=branch,
        continuity_tol=fam.get("continuity_tol", 0.5),
    )


# ---------------------------------------------------------------------------
# Artifact writers


def _fmt(x):
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


def _jsonable(obj):
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


def _write_config_sibling(out_dir, cfg):
    write_json(os.path.join(out_dir, "resolved_config.json"), {}, cfg=cfg)


# ---------------------------------------------------------------------------
# Command implementations


def _cmd_metric_check(cfg, out):
    m = metric_from_config(cfg)
    rep = m.check_invariants(
        samples=cfg["solver"]["invariant_samples"], seed=cfg["solver"]["seed"]
    )
    write_json(os.path.join(out, "metric_check.json"), rep.as_dict(), cfg=cfg)
    return 0


def _cmd_geodesic(cfg, out):
    m = metric_from_config(cfg)
    path = _problem_path(cfg, m)
    n_out = cfg["solver"]["samples_out"]
    header = (
        ["t"]
        + [f"x{i+1}" for i in range(m.dim)]
        + [f"v{i+1}" for i in range(m.dim)]
        + ["F"]
    )
    rows = []
    for t in np.linspace(0.0, path.tau, n_out):
        x, v = path.state(t)
        rows.append([t, *x, *v, m.F(x, v)])
    write_csv(os.path.join(out, "geodesic.csv"), header, rows)
    return 0


def _cmd_expmap(cfg, out):
    m = metric_from_config(cfg)
    ini = cfg.get("problem", {}).get("initial")
    if ini is None:
        raise SchemaError("/problem/initial: required for expmap")
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


def _scan_command(cfg, out, focal):
    m = metric_from_config(cfg)
    path = _problem_path(cfg, m)
    sv = cfg["solver"]
    if focal:
        boundary = _boundary_from_config(cfg)
        if boundary == "point-point":
            raise SchemaError("/problem/boundary: required for focal scans")
        rep = _jacobi.focal_scan(path, boundary, grid=sv["scan_grid"])
        stem = "focal"
    else:
        rep = _jacobi.conjugate_scan(path, grid=sv["scan_grid"])
        stem = "conjugate"
    write_csv(
        os.path.join(out, f"{stem}.csv"),
        ["t", "multiplicity", "sigma_min"],
        rep.as_rows(),
    )
    write_json(
        os.path.join(out, f"{stem}.json"),
        {
            "tau": rep.tau,
            "grid": rep.grid,
            "theta_null": rep.theta_null,
            "instants": [
                {"t": c.t, "multiplicity": c.multiplicity, "sigma_min_rel": c.sigma_min_rel}
                for c in rep.instants
            ],
            "warnings": rep.warnings,
        },
        cfg=cfg,
    )
    return 0


def _cmd_index(cfg, out):
    m = metric_from_config(cfg)
    path = _problem_path(cfg, m)
    boundary = _boundary_from_config(cfg)
    sv = cfg["solver"]
    rep = _morse.cross_check(
        path, boundary,
        scan_opts={"grid": sv["scan_grid"]},
        spectral_opts={"mesh0": sv["mesh0"], "max_mesh": sv["max_mesh"]},
    )
    write_json(os.path.join(out, "index.json"), rep.as_dict(), cfg=cfg)
    return 0


def _cmd_sweep(cfg, out):
    fam = _family_from_config(cfg)
    sv = cfg["solver"]
    boundary = _boundary_from_config(cfg)
    scan = _bifurc.sweep_family(
        fam, boundary,
        mesh0=sv["mesh0"], max_mesh=sv["max_mesh"],
        scan_opts={"grid": sv["scan_grid"]},
        seed=sv["seed"],
    )
    verdicts = _bifurc.detect_bifurcation(scan)
    write_csv(
        os.path.join(out, "sweep.csv"),
        ["lambda", "m_minus", "m_zero", "min_abs_eig"],
        [(r.lam, r.m_minus, r.m_zero, r.min_abs_eig) for r in scan.records],
    )
    write_json(
        os.path.join(out, "detections.json"),
        {
            "parameter": scan.param_name,
            "range": list(scan.param_range),
            "detections": [
                {
                    "mu": d.mu,
                    "nullity": d.nullity,
                    "index_left": d.m_left,
                    "index_right": d.m_right,
                    "nullity_left": d.m0_left,
                    "nullity_right": d.m0_right,
                    "refined": d.refined,
                    "plateau": d.plateau,
                }
                for d in scan.detections
            ],
            "verdicts": [v.as_dict() for v in verdicts],
        },
        cfg=cfg,
    )
    return 0


def _cmd_branch(cfg, out):
    if cfg.get("problem", {}).get("boundary") is not None:
        raise SchemaError("/problem/boundary: branch hunts are point-to-point")
    fam = _family_from_config(cfg)
    sv = cfg["solver"]
    mu = cfg.get("family", {}).get("mu")
    if mu is None:
        scan = _bifurc.sweep_family(
            fam, mesh0=sv["mesh0"], max_mesh=sv["max_mesh"],
            scan_opts={"grid": sv["scan_grid"]}, seed=sv["seed"],
        )
        if not scan.detections:
            write_json(os.path.join(out, "branch_evidence.json"),
                       {"detections": [], "evidence": None,
                        "diagnosis": {"label": "undetermined"}},
                       cfg=cfg)
            return 0
        mu = scan.detections[0].mu
    ev = _bifurc.find_branches(
        fam, mu, seed=sv["seed"], seeds_per_rung=sv["seeds_per_rung"],
        max_found=sv["max_found"],
    )
    diag = _bifurc.classify_alternative(ev)
    write_json(
        os.path.join(out, "branch_evidence.json"),
        {"evidence": ev.as_dict(), "diagnosis": diag.as_dict()},
        cfg=cfg,
    )
    return 0


def _cmd_zermelo(cfg, out):
    if cfg["metric"]["kind"] != "zermelo":
        raise SchemaError("/metric/kind: the zermelo command needs kind 'zermelo'")
    m = metric_from_config(cfg)
    path = _problem_path(cfg, m)
    time = _nav.travel_time(m, path)
    sv = cfg["solver"]
    payload = {
        "travel_time": time,
        "initial_velocity": path.v0,
        "endpoint": path.endpoint,
        "speed_F": path.F0,
    }
    if sv["grid_oracle"]:
        prob = cfg["problem"]["connect"]
        lo = np.minimum(prob["p"], prob["q"]) - 0.25
        hi = np.maximum(prob["p"], prob["q"]) + 0.25
        res = _nav.grid_travel_time(
            m, prob["p"], prob["q"], box=np.stack([lo, hi], axis=1),
            assume_homogeneous=_zermelo_from_config(cfg).homogeneous,
        )
        payload["grid_oracle"] = {
            "time": res.time,
            "cell_time": res.cell_time,
            "headings": res.headings,
        }
    write_json(os.path.join(out, "zermelo.json"), payload, cfg=cfg)
    n_out = sv["samples_out"]
    header = ["t"] + [f"x{i+1}" for i in range(m.dim)] + ["F"]
    rows = []
    for t in np.linspace(0.0, path.tau, n_out):
        x, v = path.state(t)
        rows.append([t, *x, m.F(x, v)])
    write_csv(os.path.join(out, "zermelo_path.csv"), header, rows)
    return 0


def _cmd_fermat(cfg, out):
    if cfg["metric"]["kind"] != "fermat":
        raise SchemaError("/metric/kind: the fermat command needs kind 'fermat'")
    s = _stationary_from_config(cfg)
    m = metric_from_config(cfg)
    path = _problem_path(cfg, m)
    sv = cfg["solver"]
    t0 = cfg.get("problem", {}).get("t0", 0.0)
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
    write_csv(os.path.join(out, "fermat_lift.csv"), header, lift.as_rows())
    return 0


_DISPATCH = {
    "metric-check": _cmd_metric_check,
    "geodesic": _cmd_geodesic,
    "expmap": _cmd_expmap,
    "conjugate": lambda cfg, out: _scan_command(cfg, out, focal=False),
    "focal": lambda cfg, out: _scan_command(cfg, out, focal=True),
    "index": _cmd_index,
    "sweep": _cmd_sweep,
    "branch": _cmd_branch,
    "zermelo": _cmd_zermelo,
    "fermat": _cmd_fermat,
}


def run_command(cmd, cfg, out_dir="."):
    """Execute one subcommand; returns the process exit code."""
    if cmd not in _DISPATCH:
        raise ConfigError(f"unknown command {cmd!r}")
    if cmd in DOP853_ONLY and cfg["solver"]["method"] != "dop853":
        raise SchemaError(f"/solver/method: {cmd} integrates by dop853 only")
    os.makedirs(out_dir, exist_ok=True)
    _write_config_sibling(out_dir, cfg)
    try:
        return _DISPATCH[cmd](cfg, out_dir)
    except NumericalError as exc:
        write_json(
            os.path.join(out_dir, "diagnostic.json"),
            {"error": type(exc).__name__, "message": str(exc), "command": cmd},
            cfg=cfg,
        )
        log.error("%s failed: %s", cmd, exc)
        return 2


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
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    if args.seed is not None:
        cfg["solver"]["seed"] = args.seed
    try:
        return run_command(args.command, cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
