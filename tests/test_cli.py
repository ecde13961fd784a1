import copy
import inspect
import json
import os

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fbt
from fbt import cli
from fbt.cli import (
    ExpressionError,
    ParseError,
    SchemaError,
    load_config,
    metric_from_config,
    run_command,
)

from _oracles import path_csv_loop


def write_cfg(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


MINIMAL = {"metric": {"kind": "euclidean", "dim": 2}}

SPHERE = {
    "metric": {"kind": "sphere_stereo", "dim": 2, "params": {"K": 1.0}},
    "problem": {"initial": {"x": [0, -1], "v": [1, 0], "tau": 3.2}},
}


class TestLoadConfig:
    def test_minimal_defaults(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, MINIMAL))
        assert cfg["solver"]["rtol"] == 1e-9
        assert cfg["solver"]["seed"] == 12345

    def test_missing_file(self):
        with pytest.raises(ParseError):
            load_config("/nonexistent/cfg.json")

    def test_bad_json_reports_line(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"metric": \n [}')
        with pytest.raises(ParseError) as exc:
            load_config(str(p))
        assert "line" in str(exc.value)

    def test_dimension_mismatch(self, tmp_path):
        bad = {
            "metric": {
                "kind": "riemannian_expr", "dim": 2,
                "g": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
            }
        }
        with pytest.raises(SchemaError) as exc:
            load_config(write_cfg(tmp_path, bad))
        assert "/metric/g" in str(exc.value)

    def test_broken_expression(self, tmp_path):
        bad = {
            "metric": {
                "kind": "riemannian_expr", "dim": 2,
                "g": [["sin(x1", "0"], ["0", "1"]],
            }
        }
        with pytest.raises(ExpressionError) as exc:
            load_config(write_cfg(tmp_path, bad))
        assert "offset" in str(exc.value)

    def test_unknown_kind_rejected_by_schema(self, tmp_path):
        with pytest.raises(SchemaError):
            load_config(write_cfg(tmp_path, {"metric": {"kind": "weird", "dim": 2}}))

    def test_metric_factory(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, SPHERE))
        m = metric_from_config(cfg)
        assert m.kind == "sphere_stereo"
        assert m.F([0, -1], [1, 0]) == pytest.approx(1.0)


class TestCommands:
    def test_geodesic_csv(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, {
            "metric": {"kind": "euclidean", "dim": 2},
            "problem": {"initial": {"x": [0, 0], "v": [1, 0], "tau": 3.0}},
            "solver": {"samples_out": 5},
        }))
        out = tmp_path / "run"
        assert run_command("geodesic", cfg, str(out)) == 0
        lines = (out / "geodesic.csv").read_text().splitlines()
        assert lines[0] == "t,x1,x2,v1,v2,F"
        assert len(lines) == 6
        last = [float(x) for x in lines[-1].split(",")]
        assert last[1] == pytest.approx(3.0, abs=1e-12)
        assert (out / "resolved_config.json").exists()

    def test_connect_tau_reaches_q(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, {
            "metric": {"kind": "euclidean", "dim": 2},
            "problem": {"connect": {"p": [0, 0], "q": [1, 0.5], "tau": 2.0}},
            "solver": {"samples_out": 5},
        }))
        out = tmp_path / "run"
        assert run_command("geodesic", cfg, str(out)) == 0
        last = [float(x) for x in
                (out / "geodesic.csv").read_text().splitlines()[-1].split(",")]
        assert last[0] == 2.0
        assert np.max(np.abs(np.array(last[1:3]) - [1, 0.5])) < 1e-8

    @pytest.mark.parametrize("velocity", [True, False], ids=["geodesic", "zermelo_path"])
    def test_path_csv_matches_per_row_loop(self, tmp_path, velocity):
        """_write_path_csv reads the path and F as stacks; its file equals
        the per-row loop's of _oracles byte for byte."""
        from fbt.geoflow import integrate_geodesic
        from fbt.metric import PhaseState
        from fbt import nav

        z = nav.ZermeloData.from_exprs(2, [["1", "0"], ["0", "1"]],
                                       ["0.6*exp(-x1^2)", "0"])
        cfg = {"solver": {"samples_out": cli.SOLVER_DEFAULTS["samples_out"]}}
        for m, x, v, tau in [
            (fbt.sphere_stereo(1.3, dim=3), [0.0, -1.0, 0.2], [1.0, 0.3, 0.0], 2.5),
            (nav.zermelo_to_randers(z), [-0.5, 0.1], [1.0, 0.2], 1.0),
        ]:
            path = integrate_geodesic(m, PhaseState(x, v), tau)
            cli._write_path_csv(tmp_path / "stacked.csv", cfg, m, path, velocity)
            path_csv_loop(tmp_path / "loop.csv", cfg["solver"]["samples_out"], m, path,
                          velocity)
            assert ((tmp_path / "stacked.csv").read_bytes()
                    == (tmp_path / "loop.csv").read_bytes())

    def test_index_json(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, SPHERE))
        out = tmp_path / "run"
        assert run_command("index", cfg, str(out)) == 0
        data = json.loads((out / "index.json").read_text())
        assert data["m_minus"] == 1
        assert data["m_zero"] == 0
        assert data["route"] == "both"
        assert data["agree"] is True
        assert "config" in data

    def test_conjugate_csv_columns(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, SPHERE))
        out = tmp_path / "run"
        assert run_command("conjugate", cfg, str(out)) == 0
        lines = (out / "conjugate.csv").read_text().splitlines()
        assert lines[0] == "t,multiplicity,sigma_min"
        t = float(lines[1].split(",")[0])
        assert t == pytest.approx(np.pi, abs=1e-6)

    @pytest.mark.parametrize("cmd", ["conjugate", "index"])
    def test_one_dimensional_metric(self, tmp_path, cmd):
        # a 1-D frame carries no column: the tangential field t v(t) is all
        # of M, and it never vanishes
        cfg = load_config(write_cfg(tmp_path, {
            "metric": {"kind": "euclidean", "dim": 1},
            "problem": {"initial": {"x": [0], "v": [1], "tau": 2.0}},
        }))
        out = tmp_path / "run"
        assert run_command(cmd, cfg, str(out)) == 0
        if cmd == "conjugate":
            lines = (out / "conjugate.csv").read_text().splitlines()
            assert lines == ["t,multiplicity,sigma_min"]
        else:
            data = json.loads((out / "index.json").read_text())
            assert (data["m_minus"], data["m_zero"], data["agree"]) == (0, 0, True)
            # no normal field: the spectral pencil is empty
            assert data["spectral"]["smallest"] is None
            assert data["spectral"]["eigs_near_zero"] == []

    def test_one_dimensional_sweep(self, tmp_path):
        # no normal field: every sample reads (0, 0) and no eigenvalue, so
        # sweep.csv leaves min_abs_eig empty
        cfg = load_config(write_cfg(tmp_path, {
            "metric": {"kind": "riemannian_expr", "dim": 1, "g": [["1+lam*x1^2"]],
                       "params": {"lam": 1.0}},
            "problem": {"initial": {"x": [0.1], "v": [1], "tau": 1.0}},
            "family": {"parameter": "lam", "range": [0.5, 1.0], "samples": 3},
        }))
        out = tmp_path / "run"
        assert run_command("sweep", cfg, str(out)) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines == ["lambda,m_minus,m_zero,min_abs_eig",
                         "0.5,0,0,", "0.75,0,0,", "1,0,0,"]

    def test_expmap_jacobian_reads_solver_atol(self, tmp_path, monkeypatch):
        seen = []
        jacobian = cli._jacobi.expmap_jacobian

        def spy(*args, **kw):
            seen.append(kw)
            return jacobian(*args, **kw)

        monkeypatch.setattr(cli._jacobi, "expmap_jacobian", spy)
        cfg = load_config(write_cfg(tmp_path, {
            "metric": {"kind": "euclidean", "dim": 2},
            "problem": {"initial": {"x": [0, 0], "v": [1, 0.5], "tau": 1.0}},
            "solver": {"rtol": 1e-8, "atol": 1e-10},
        }))
        out = tmp_path / "run"
        assert run_command("expmap", cfg, str(out)) == 0
        assert seen == [{"rtol": 1e-8, "atol": 1e-10}]
        data = json.loads((out / "expmap.json").read_text())
        assert np.allclose(data["jacobian"], np.eye(2), atol=1e-10)

    def test_metric_check(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, {
            "metric": {"kind": "euclidean", "dim": 2},
            "solver": {"invariant_samples": 50},
        }))
        out = tmp_path / "run"
        assert run_command("metric-check", cfg, str(out)) == 0
        data = json.loads((out / "metric_check.json").read_text())
        assert data["passed"] is True

    def test_numerical_failure_exit_2(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, {
            "metric": {"kind": "euclidean", "dim": 2,
                       "chart_box": [[-1, 1], [-1, 1]]},
            "problem": {"initial": {"x": [0, 0], "v": [1, 0], "tau": 5.0}},
        }))
        out = tmp_path / "run"
        assert run_command("geodesic", cfg, str(out)) == 2
        diag = json.loads((out / "diagnostic.json").read_text())
        assert diag["error"] == "LeftChart"

    def test_lost_branch_diagnostic_names_the_parameter(self, tmp_path):
        # a 3.85 pi great circle at rtol 1e-6 is not critical at K = 0.9
        cfg = load_config(write_cfg(tmp_path, {
            **SPHERE,
            "problem": {"initial": {"x": [0, -1], "v": [1, 0], "tau": 3.85 * np.pi}},
            "family": {"parameter": "K", "range": [0.9, 1.1], "samples": 3},
            "solver": {"rtol": 1e-6},
        }))
        out = tmp_path / "run"
        assert run_command("sweep", cfg, str(out)) == 2
        diag = json.loads((out / "diagnostic.json").read_text())
        assert diag["error"] == "BranchLost"
        assert diag["message"].startswith(
            "trivial branch lost at parameter 0.9: path is not a critical point: "
            "EL residual ")

    def test_main_config_error_exit_1(self, tmp_path, capsys):
        bad = write_cfg(tmp_path, {"metric": {"kind": "weird", "dim": 2}})
        assert cli.main(["geodesic", "--config", bad]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd,metric,parts,pointer", [
        ("geodesic", {"kind": "riemannian_expr", "g": []}, {}, "/metric/g"),
        ("geodesic", {"kind": "randers", "h": [["1", "0"], ["0", "1"]], "beta": []},
         {}, "/metric/beta"),
        ("geodesic", {"kind": "zermelo", "h": [["1", "0"], ["0", "1"]], "W": []},
         {}, "/metric/W"),
        ("geodesic", {"kind": "fermat", "g0": [["1", "0"], ["0", "1"]], "V": []},
         {}, "/metric/V"),
        ("focal", {"kind": "euclidean"}, {"boundary": {"x0": [0, 0], "basis": [[0, 2]]}},
         "/problem/boundary"),
        ("focal", {"kind": "euclidean"},
         {"boundary": {"x0": [0, 0], "basis": [[0, 1, 0]]}}, "/problem/boundary/basis/0"),
        ("index", {"kind": "euclidean"},
         {"boundary": {"x0": [0, 0, 0], "basis": [[0, 1]]}}, "/problem/boundary/x0"),
        ("index", {"kind": "euclidean"},
         {"boundary": {"x0": [0, 0], "basis": [[0, 1]],
                       "shape_operator": [[1, 0], [0, 1]]}},
         "/problem/boundary/shape_operator"),
        # raised while building the metric or inside the command
        ("geodesic", {"kind": "sphere_stereo", "params": {"K": -1}}, {}, "/metric"),
        ("geodesic", {"kind": "euclidean", "chart_box": [[1, -1], [-1, 1]]}, {},
         "/metric"),
        ("geodesic", {"kind": "euclidean", "chart_box": [[-1, 1]]}, {}, "/metric"),
        ("geodesic", {"kind": "zermelo", "h": [["1", "0"], ["0", "1"]],
                      "W": ["1.5", "0"]}, {}, "/metric"),
        ("geodesic", {"kind": "randers", "h": [["1", "0"], ["0", "1"]],
                      "beta": ["2", "0"]}, {}, "/metric"),
        ("geodesic", {"kind": "riemannian_expr", "g": [["1 + a", "0"], ["0", "1"]]},
         {}, "/metric"),
        ("focal", {"kind": "euclidean"}, {}, "/problem/boundary"),
        # P must pass through the path's start, initial.x = (0, 0)
        *[(cmd, {"kind": "euclidean"}, {"boundary": {"x0": [1, 0], "basis": [[0, 1]]}},
           "/problem/boundary/x0") for cmd in ("focal", "index", "sweep")],
        # only focal, index and sweep read a boundary
        *[(cmd, metric, {"boundary": {"x0": [0, 0], "basis": [[0, 1]]}},
           "/problem/boundary")
          for cmd, metric in [
              ("metric-check", {"kind": "euclidean"}),
              ("geodesic", {"kind": "euclidean"}),
              ("expmap", {"kind": "euclidean"}),
              ("conjugate", {"kind": "euclidean"}),
              ("zermelo", {"kind": "zermelo", "h": [["1", "0"], ["0", "1"]],
                           "W": ["0.5", "0"]}),
              ("fermat", {"kind": "fermat", "g0": [["1", "0"], ["0", "1"]],
                          "V": ["0.3", "0"]}),
          ]],
        # likewise the other optional parts of cli.COMMANDS: a family outside
        # sweep and branch, t0 outside fermat, mu outside branch
        ("geodesic", {"kind": "euclidean"},
         {"family": {"parameter": "lam", "range": [0.5, 1.0], "samples": 2}}, "/family"),
        ("index", {"kind": "euclidean"}, {"t0": 0.0}, "/problem/t0"),
        ("sweep", {"kind": "sphere_stereo", "params": {"K": 1.0}},
         {"family": {"parameter": "K", "range": [1.0, 2.0], "samples": 2, "mu": 1.5}},
         "/family/mu"),
        # a path starts from one block
        ("geodesic", {"kind": "euclidean"}, {"connect": {"p": [0, 0], "q": [1, 0]}},
         "/problem"),
    ], ids=["empty-g", "empty-beta", "empty-W", "empty-V", "basis-not-orthonormal",
            "basis-row-length", "x0-length", "shape-operator-size", "negative-K",
            "reversed-chart-box", "chart-box-shape", "strong-wind", "strong-beta",
            "unbound-name", "focal-without-boundary", "x0-off-start-focal",
            "x0-off-start-index", "x0-off-start-sweep", "boundary-metric-check",
            "boundary-geodesic", "boundary-expmap", "boundary-conjugate",
            "boundary-zermelo", "boundary-fermat", "family-geodesic", "t0-index",
            "mu-sweep", "initial-and-connect"])
    def test_malformed_block_exit_1(self, tmp_path, capsys, cmd, metric, parts,
                                    pointer):
        # each part goes into the problem block, a family beside it
        cfg = {"metric": {"dim": 2, **metric},
               "problem": {"initial": {"x": [0, 0], "v": [1, 0], "tau": 1.0}}}
        for key, part in parts.items():
            (cfg if key == "family" else cfg["problem"])[key] = part
        cfg = write_cfg(tmp_path, cfg)
        out = tmp_path / "run"
        assert cli.main([cmd, "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and f"{pointer}:" in err
        assert not list(out.glob("*"))

    def test_integral_floats_are_integers(self, tmp_path):
        # JSON Schema counts 2.0 as an integer, and the accepted config holds 2
        solver = {"scan_grid": 400, "seed": 3, "samples_out": 20, "invariant_samples": 50}
        ints = {**SPHERE, "solver": solver}
        floats = {**SPHERE, "metric": {**SPHERE["metric"], "dim": 2.0},
                  "solver": {k: float(v) for k, v in solver.items()}}
        for cmd in ("geodesic", "conjugate", "metric-check"):
            outs = []
            for name, payload in (("ints", ints), ("floats", floats)):
                out = tmp_path / cmd / name
                assert cli.main([cmd, "--config", write_cfg(tmp_path, payload, name),
                                 "--out", str(out)]) == 0
                outs.append({f.name: f.read_bytes() for f in out.iterdir()})
            assert "resolved_config.json" in outs[0]
            assert outs[0] == outs[1]

    def test_seed_override_judged_by_schema(self, tmp_path, capsys):
        # --seed meets solver.seed's bound before anything runs
        cfg = write_cfg(tmp_path, SPHERE)
        out = tmp_path / "run"
        assert cli.main(["metric-check", "--config", cfg, "--out", str(out),
                         "--seed", "-1"]) == 1
        assert capsys.readouterr().err.startswith("config error: /solver/seed: ")
        assert not (out / "resolved_config.json").exists()
        assert cli.main(["metric-check", "--config", cfg, "--out", str(out),
                         "--seed", "7"]) == 0
        assert json.loads((out / "metric_check.json").read_text())["seed"] == 7

    @pytest.mark.parametrize("cmd", ["sweep", "branch"])
    @pytest.mark.parametrize("rng", [[5.0, 0.5], [1.0, 1.0]], ids=["reversed", "empty"])
    def test_non_increasing_family_range_exit_1(self, tmp_path, capsys, cmd, rng):
        cfg = write_cfg(tmp_path, {
            "metric": {"kind": "riemannian_expr", "dim": 2,
                       "g": [["exp(-lam*x2^2)", "0"], ["0", "1"]]},
            "problem": {"initial": {"x": [-1, 0], "v": [1, 0], "tau": 2.0}},
            "family": {"parameter": "lam", "range": rng, "samples": 4},
        })
        assert cli.main([cmd, "--config", cfg, "--out", str(tmp_path / "run")]) == 1
        assert "config error: /family/range: param_range must be increasing" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("cmd", ["sweep", "branch"])
    def test_family_parameter_no_field_reads_exit_1(self, tmp_path, capsys, cmd):
        # sweeping lam would change nothing: no field of g reads it
        cfg = write_cfg(tmp_path, {
            "metric": {"kind": "riemannian_expr", "dim": 2,
                       "g": [["exp(-x2^2)", "0"], ["0", "1"]]},
            "problem": {"initial": {"x": [-1, 0], "v": [1, 0], "tau": 2.0}},
            "family": {"parameter": "lam", "range": [0.5, 3.0], "samples": 4},
        })
        out = tmp_path / "run"
        assert cli.main([cmd, "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "config error: /family/parameter: no metric field reads 'lam'\n")
        assert not os.listdir(out)

    @pytest.mark.parametrize("metric, names", [
        ({"kind": "euclidean", "dim": 2}, set()),
        ({"kind": "sphere_stereo", "dim": 2, "params": {"K": 1.0}}, {"K"}),
        ({"kind": "quadratic_expr", "dim": 2, "g": [["1", "0"], ["0", "-a*x1"]]},
         {"a"}),
        ({"kind": "randers", "dim": 2, "h": [["1", "0"], ["0", "1"]],
          "beta": ["b*x2", "0"]}, {"b"}),
        ({"kind": "zermelo", "dim": 2, "h": [["c", "0"], ["0", "1"]],
          "W": ["0.1*w", "0"]}, {"c", "w"}),
        ({"kind": "fermat", "dim": 2, "g0": [["1", "0"], ["0", "1"]],
          "V": ["v", "0"], "f": "1+s*x1^2", "fermat_sign": "minus"}, {"v", "s"}),
    ], ids=lambda c: c["kind"] if isinstance(c, dict) else None)
    def test_parameters_read(self, metric, names):
        # the names of each kind's fields, chart coordinates left out
        assert cli._parameters_read(metric) == names

    @pytest.mark.parametrize("cmd", ["sweep", "branch"])
    def test_family_value_rejected_by_metric_exit_1(self, tmp_path, capsys, cmd):
        # the sphere's curvature must be positive: the first sample, K = -1,
        # is the family's fault, not the metric block's
        cfg = write_cfg(tmp_path, {
            **SPHERE, "family": {"parameter": "K", "range": [-1.0, 1.0], "samples": 4}})
        out = tmp_path / "run"
        assert cli.main([cmd, "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "config error: /family/range: at K = -1.0: "
            "curvature must be positive, got -1.0\n")
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("kind,fields,pointer", [
        ("riemannian_expr", {"beta": ["0.1", "0"], "W": ["0.1", "0"], "f": "2",
                             "fermat_sign": "minus"}, "/metric/beta"),
        ("riemannian_expr", {"f": "2"}, "/metric/f"),
        ("riemannian_expr", {"fermat_sign": "minus"}, "/metric/fermat_sign"),
        ("randers", {"h": [["1", "0"], ["0", "1"]], "beta": ["0.1", "0"],
                     "W": ["0.1", "0"]}, "/metric/W"),
        ("zermelo", {"h": [["1", "0"], ["0", "1"]], "W": ["0.1", "0"],
                     "V": ["0.1", "0"]}, "/metric/V"),
        ("euclidean", {"g0": [["1", "0"], ["0", "1"]]}, "/metric/g0"),
    ], ids=["riemannian-all", "riemannian-f", "riemannian-sign", "randers-W",
            "zermelo-V", "euclidean-g0"])
    def test_field_the_kind_does_not_read_exit_1(self, tmp_path, capsys, kind, fields,
                                                 pointer):
        metric = {"kind": kind, "dim": 2, "params": {"c": 1.0},
                  "chart_box": [[-2, 2], [-2, 2]], "v_min": 1e-6, **fields}
        if kind == "riemannian_expr":
            metric["g"] = [["1", "0"], ["0", "1"]]
        cfg = write_cfg(tmp_path, {"metric": metric, "problem": {
            "initial": {"x": [0, 0], "v": [1, 0], "tau": 1.0}}})
        assert cli.main(["geodesic", "--config", cfg, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {pointer}: kind '{kind}' does not read it")

    def test_removed_threads_option_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"metric": {"kind": "euclidean", "dim": 2},
                                   "solver": {"threads": 2}})
        assert cli.main(["sweep", "--config", cfg]) == 1
        assert "threads" in capsys.readouterr().err

    @pytest.mark.parametrize("block", [
        {"solver": {"method": "dop853"}},
        {"output": {"dir": "."}},
        {"output": {"formats": ["csv", "json"]}},
    ], ids=["solver.method", "output.dir", "output.formats"])
    def test_removed_options_rejected(self, tmp_path, capsys, block):
        # every flow runs DOP853, and artifacts go to --out
        cfg = write_cfg(tmp_path, {
            "metric": {"kind": "euclidean", "dim": 2},
            "problem": {"initial": {"x": [0, 0], "v": [1, 0], "tau": 1.0}},
            **block,
        })
        assert cli.main(["geodesic", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "was unexpected" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["rk45", "euler"])
    def test_unknown_method_exit_1(self, tmp_path, capsys, method):
        # the integrator is DOP853 and cannot be chosen; no method value is valid
        cfg = write_cfg(tmp_path, {
            "metric": {"kind": "euclidean", "dim": 2},
            "problem": {"initial": {"x": [0, 0], "v": [1, 0], "tau": 1.0}},
            "solver": {"method": method},
        })
        assert cli.main(["geodesic", "--config", cfg, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "/solver" in err and "'method' was unexpected" in err

    @pytest.mark.parametrize("cmd", ["conjugate", "expmap"])
    def test_rk4_rejected_where_only_dop853_runs(self, tmp_path, capsys, cmd):
        # scans, exp-map Jacobians, sweeps and hunts integrate by DOP853 only
        cfg = write_cfg(tmp_path, {**SPHERE, "solver": {"method": "rk4"}})
        assert cli.main([cmd, "--config", cfg, "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert "/solver" in err and "'method' was unexpected" in err

    def test_branch_with_boundary_exit_1(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {
            "metric": {"kind": "euclidean", "dim": 2},
            "problem": {"initial": {"x": [0, 0], "v": [1, 0], "tau": 1.0},
                        "boundary": {"x0": [0, 0], "basis": [[0, 1]]}},
            "family": {"parameter": "lam", "range": [0.0, 1.0], "samples": 2},
        })
        out = str(tmp_path / "run")
        assert cli.main(["branch", "--config", cfg, "--out", out]) == 1
        assert "/problem/boundary" in capsys.readouterr().err

    def test_sweep_artifacts(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, {
            "metric": {"kind": "riemannian_expr", "dim": 2,
                       "g": [["exp(-lam*x2^2)", "0"], ["0", "1"]],
                       "params": {"lam": 1.0}},
            "problem": {"initial": {"x": [-1, 0], "v": [1, 0], "tau": 2.0}},
            "family": {"parameter": "lam", "range": [2.0, 3.0], "samples": 4},
            "solver": {"max_mesh": 256},
        }))
        out = tmp_path / "run"
        assert run_command("sweep", cfg, str(out)) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "lambda,m_minus,m_zero,min_abs_eig"
        assert len(lines) == 5
        det = json.loads((out / "detections.json").read_text())
        assert len(det["detections"]) == 1
        assert det["detections"][0]["mu"] == pytest.approx((np.pi / 2) ** 2, abs=1e-4)
        assert det["verdicts"][0]["label"] == "sufficient-condition met"

    @pytest.mark.parametrize("cmd", ["sweep", "branch"])
    def test_family_commands_read_solver_tolerances(self, tmp_path, monkeypatch, cmd):
        seen = []
        realize = cli._bifurc.realize_branch

        def spy(*args, **kw):
            seen.append((kw.get("rtol"), kw.get("atol")))
            return realize(*args, **kw)

        monkeypatch.setattr(cli._bifurc, "realize_branch", spy)
        cfg = load_config(write_cfg(tmp_path, {
            "metric": {"kind": "riemannian_expr", "dim": 2,
                       "g": [["exp(-lam*x2^2)", "0"], ["0", "1"]],
                       "params": {"lam": 1.0}},
            "problem": {"initial": {"x": [-1, 0], "v": [1, 0], "tau": 2.0}},
            "family": {"parameter": "lam", "range": [2.0, 3.0], "samples": 4},
            "solver": {"rtol": 1e-11, "atol": 1e-13, "max_mesh": 256,
                       "seeds_per_rung": 1, "max_found": 1},
        }))
        assert run_command(cmd, cfg, str(tmp_path / "run")) == 0
        assert len(seen) > 4
        assert set(seen) == {(1e-11, 1e-13)}

    def test_zermelo_reproducible_bytes(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, {
            "metric": {"kind": "zermelo", "dim": 2,
                       "h": [["1", "0"], ["0", "1"]], "W": ["0.5", "0"],
                       "chart_box": [[-2, 2], [-2, 2]]},
            "problem": {"connect": {"p": [0, 0], "q": [0.3, 0.2]}},
            "solver": {"samples_out": 50},
        }))
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_command("zermelo", cfg, str(out)) == 0
            outs.append({
                f: (out / f).read_bytes()
                for f in ("zermelo.json", "zermelo_path.csv", "resolved_config.json")
            })
        assert outs[0] == outs[1]

    def test_zermelo_grid_oracle_varying_wind(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, {
            "metric": {"kind": "zermelo", "dim": 2,
                       "h": [["1", "0"], ["0", "1"]],
                       "W": ["0.6*exp(-x1^2)", "0"],
                       "chart_box": [[-3, 3], [-3, 3]]},
            "problem": {"connect": {"p": [-1.0, 0.0], "q": [0.2, 0.9]}},
            "solver": {"grid_oracle": True, "samples_out": 20},
        }))
        out = tmp_path / "run"
        assert run_command("zermelo", cfg, str(out)) == 0
        data = json.loads((out / "zermelo.json").read_text())
        grid = data["grid_oracle"]
        assert abs(grid["time"] - data["travel_time"]) <= 3 * grid["cell_time"]

    def test_fermat_command(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, {
            "metric": {"kind": "fermat", "dim": 2,
                       "g0": [["1", "0"], ["0", "1"]], "V": ["0.3", "0"],
                       "f": "1", "chart_box": [[-3, 3], [-3, 3]]},
            "problem": {"connect": {"p": [0, 0], "q": [1.2, 0.8]}},
        }))
        out = tmp_path / "run"
        assert run_command("fermat", cfg, str(out)) == 0
        data = json.loads((out / "fermat.json").read_text())
        assert data["null_residual_max"] <= 1e-9
        assert data["lorentz_projection_gap"] <= 1e-5
        lines = (out / "fermat_lift.csv").read_text().splitlines()
        assert lines[0] == "s,x1,x2,t"

    def test_fermat_command_varying_wind(self, tmp_path):
        # the connect geodesic has constant F-speed, not constant speed in
        # the associated Riemannian metric; the lift takes it all the same
        cfg = write_cfg(tmp_path, {
            "metric": {"kind": "fermat", "dim": 2,
                       "g0": [["1", "0"], ["0", "1"]], "V": ["0.3*x2", "0"],
                       "f": "1", "chart_box": [[-3, 3], [-3, 3]]},
            "problem": {"connect": {"p": [0, 0], "q": [1.2, 0.8]}},
        })
        out = tmp_path / "run"
        assert cli.main(["fermat", "--config", cfg, "--out", str(out)]) == 0
        data = json.loads((out / "fermat.json").read_text())
        assert data["null_residual_max"] <= 1e-9
        assert data["lorentz_projection_gap"] <= 1e-5
        assert not (out / "diagnostic.json").exists()

    def test_zermelo_grid_oracle_needs_connect(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {
            "metric": {"kind": "zermelo", "dim": 2,
                       "h": [["1", "0"], ["0", "1"]], "W": ["0.5", "0"],
                       "chart_box": [[-2, 2], [-2, 2]]},
            "problem": {"initial": {"x": [0, 0], "v": [1, 0], "tau": 1.0}},
            "solver": {"grid_oracle": True},
        })
        out = tmp_path / "run"
        assert cli.main(["zermelo", "--config", cfg, "--out", str(out)]) == 1
        assert "/solver/grid_oracle" in capsys.readouterr().err
        assert not (out / "zermelo.json").exists()

    def test_fermat_minus_rejected(self, tmp_path, capsys):
        # t' = F-(x, x') is not lightlike, so there is no minus lift to write
        cfg = write_cfg(tmp_path, {
            "metric": {"kind": "fermat", "dim": 2, "fermat_sign": "minus",
                       "g0": [["1", "0"], ["0", "1"]], "V": ["0.3", "0"],
                       "f": "1", "chart_box": [[-3, 3], [-3, 3]]},
            "problem": {"connect": {"p": [0, 0], "q": [1.2, 0.8]}},
        })
        out = tmp_path / "run"
        assert cli.main(["fermat", "--config", cfg, "--out", str(out)]) == 1
        assert "/metric/fermat_sign" in capsys.readouterr().err
        assert not (out / "fermat.json").exists()

    def test_one_realization(self, tmp_path, capsys):
        # path commands and family commands realize a problem through the
        # same branch spec, and reject a missing problem alike
        for problem in (
            {"initial": {"x": [0, -1], "v": [1, 0.5], "tau": 2.5,
                         "normalize_speed": 2.0}},
            {"connect": {"p": [0, -1], "q": [0.6, -0.4], "tau": 2.0}},
        ):
            cfg = load_config(write_cfg(tmp_path, {
                "metric": {"kind": "sphere_stereo", "dim": 2, "params": {"K": 1.0}},
                "problem": problem,
                "family": {"parameter": "K", "range": [1.0, 2.0], "samples": 2},
            }))
            path = cli._problem_path(cfg, metric_from_config(cfg))
            _, fam_path = cli._bifurc.realize_branch(cli._family_from_config(cfg), 1.0)
            assert np.array_equal(path.ts, fam_path.ts)
            assert np.array_equal(path.ys, fam_path.ys)

        metric = {"kind": "euclidean", "dim": 2}
        family = {"parameter": "lam", "range": [0.0, 1.0], "samples": 2}
        errs = []
        for cmd, payload in (("geodesic", {"metric": metric}),
                             ("sweep", {"metric": metric, "family": family})):
            cfg = write_cfg(tmp_path, payload, f"{cmd}.json")
            assert cli.main([cmd, "--config", cfg, "--out", str(tmp_path / cmd)]) == 1
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1]
        assert "/problem: an 'initial' or 'connect' block is required" in errs[0]


def key_paths(doc):
    """The key paths of a JSON artifact, '/'-joined with '*' for a list
    item; the embedded config counts as one key."""
    paths = set()

    def walk(node, prefix):
        if isinstance(node, dict):
            for key, child in node.items():
                paths.add(prefix + key)
                if prefix or key != "config":
                    walk(child, prefix + key + "/")
        elif isinstance(node, list):
            for child in node:
                walk(child, prefix + "*/")

    walk(doc, "")
    return paths


INSTANT_KEYS = {"instants", "instants/*/t", "instants/*/multiplicity",
                "instants/*/sigma_min_rel"}
INDEX_KEYS = {"config", "m_minus", "m_zero", "route", "agree", "spectral",
              "spectral/mesh", "spectral/theta_ker", "spectral/eigs_near_zero",
              "spectral/smallest", "spectral/history"}
SCAN_KEYS = {"config", "tau", "grid", "theta_null", "warnings", *INSTANT_KEYS}
SPHERE_BOUNDARY = {**SPHERE, "problem": {**SPHERE["problem"], "boundary": {
    "x0": [0, -1], "basis": [[0, 1]]}}}
WARPED_FAMILY = {
    "metric": {"kind": "riemannian_expr", "dim": 2,
               "g": [["exp(-lam*x2^2)", "0"], ["0", "1"]], "params": {"lam": 1.0}},
    "problem": {"initial": {"x": [-1, 0], "v": [1, 0], "tau": 2.0}},
    "family": {"parameter": "lam", "range": [2.0, 3.0], "samples": 4},
    "solver": {"max_mesh": 256},
}
SPHERE_HUNT = {
    "metric": SPHERE["metric"],
    "problem": {"initial": {"x": [0, -1], "v": [1, 0], "tau": np.pi}},
    "family": {"parameter": "K", "range": [0.5, 1.5], "samples": 3, "mu": 1.0},
    "solver": {"seeds_per_rung": 1, "max_found": 1},
}


class TestArtifactKeys:
    """Each JSON artifact's key tree, pinned: the keys of a result object's
    artifact are its field names, so renaming a field must fail here."""

    @pytest.mark.parametrize("cmd,payload,file,keys", [
        ("metric-check", {**SPHERE, "solver": {"invariant_samples": 50}},
         "metric_check.json",
         {"config", "kind", "samples", "seed", "max_homogeneity_error",
          "max_euler_error", "max_symmetry_error", "min_eigenvalue_ratio",
          "failures", "passed"}),
        ("conjugate", SPHERE, "conjugate.json", SCAN_KEYS),
        ("focal", SPHERE_BOUNDARY, "focal.json", SCAN_KEYS),
        ("index", SPHERE, "index.json", INDEX_KEYS | INSTANT_KEYS),
        # no conjugate instant before tau = 2: the empty list is left out
        ("index", {**SPHERE, "problem": {"initial": {"x": [0, -1], "v": [1, 0],
                                                     "tau": 2.0}}},
         "index.json", INDEX_KEYS),
        # a 1-D metric's empty pencil: smallest is null, the keys stay
        ("index", {"metric": {"kind": "euclidean", "dim": 1},
                   "problem": {"initial": {"x": [0], "v": [1], "tau": 2.0}}},
         "index.json", INDEX_KEYS),
        ("sweep", WARPED_FAMILY, "detections.json",
         {"config", "parameter", "range", "detections", "detections/*/mu",
          "detections/*/nullity", "detections/*/index_left",
          "detections/*/index_right", "detections/*/nullity_left",
          "detections/*/nullity_right", "detections/*/refined",
          "detections/*/plateau", "verdicts", "verdicts/*/mu",
          "verdicts/*/interval_left", "verdicts/*/interval_right",
          "verdicts/*/nullity", "verdicts/*/label"}),
        ("branch", SPHERE_HUNT, "branch_evidence.json",
         {"config", "evidence", "evidence/mu", "evidence/delta", "evidence/seed",
          "evidence/rho_ladder", "evidence/seeds_per_rung", "evidence/solutions",
          "evidence/solutions/*/lambda", "evidence/solutions/*/offset",
          "evidence/solutions/*/v0", "evidence/solutions/*/speed",
          "evidence/solutions/*/c1_distance",
          "evidence/solutions/*/endpoint_residual",
          "evidence/solutions/*/el_residual", "diagnosis", "diagnosis/label",
          "diagnosis/distinct_speeds", "diagnosis/counts", "diagnosis/counts/at_mu",
          "diagnosis/counts/left", "diagnosis/counts/right", "diagnosis/note"}),
        # no detection below the first conjugate parameter: no evidence, and
        # the diagnosis keeps its key tree
        ("branch", {**WARPED_FAMILY,
                    "problem": {"initial": {"x": [-1, 0], "v": [1, 0], "tau": 1.0}},
                    "family": {"parameter": "lam", "range": [0.5, 1.0], "samples": 4}},
         "branch_evidence.json",
         {"config", "evidence", "diagnosis", "diagnosis/label",
          "diagnosis/distinct_speeds", "diagnosis/counts", "diagnosis/counts/at_mu",
          "diagnosis/counts/left", "diagnosis/counts/right", "diagnosis/note"}),
    ], ids=["metric_check", "conjugate", "focal", "index", "index-no-instants",
            "index-1d", "detections", "branch_evidence", "branch_evidence-no-detection"])
    def test_key_tree(self, tmp_path, cmd, payload, file, keys):
        cfg = load_config(write_cfg(tmp_path, payload))
        out = tmp_path / "run"
        assert run_command(cmd, cfg, str(out)) == 0
        assert key_paths(json.loads((out / file).read_text())) == keys


class TestSchemaPublication:
    def test_docs_schema_matches_packaged(self):
        here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        docs = os.path.join(here, "docs", "config.schema.json")
        packaged = os.path.join(here, "src", "fbt", "config.schema.json")
        with open(docs) as a, open(packaged) as b:
            assert json.load(a) == json.load(b)

    def test_solver_defaults_are_the_library_defaults(self):
        # an unset solver option takes the default of each keyword the CLI
        # passes it to
        from fbt import bifurc, geoflow, jacobi, metric, morse
        passed_to = {
            "rtol": [(geoflow.integrate_geodesic, "rtol"), (bifurc.sweep_family, "rtol"),
                     (bifurc.find_branches, "rtol"), (jacobi.expmap_jacobian, "rtol")],
            "atol": [(geoflow.integrate_geodesic, "atol"), (bifurc.sweep_family, "atol"),
                     (bifurc.find_branches, "atol"), (jacobi.expmap_jacobian, "atol")],
            "scan_grid": [(bifurc.sweep_family, "grid"), (morse.cross_check, "grid"),
                          (jacobi.conjugate_scan, "grid")],
            "mesh0": [(bifurc.sweep_family, "mesh0"), (morse.cross_check, "mesh0")],
            "max_mesh": [(bifurc.sweep_family, "max_mesh"), (morse.cross_check, "max_mesh")],
            "seeds_per_rung": [(bifurc.find_branches, "seeds_per_rung")],
            "max_found": [(bifurc.find_branches, "max_found")],
            "invariant_samples": [(metric.MetricField.check_invariants, "samples")],
        }
        # the CLI's own choices: its seed, its sample count, and the checks
        # a command runs unless told not to
        own = {"seed", "samples_out", "grid_oracle", "check_lorentz"}
        assert set(cli.SOLVER_DEFAULTS) == set(passed_to) | own
        for key, targets in passed_to.items():
            for fn, name in targets:
                default = inspect.signature(fn).parameters[name].default
                assert cli.SOLVER_DEFAULTS[key] == default, (key, fn.__name__)

    def test_solver_defaults_match_schema(self):
        # a default must not outlive the option it fills
        solver = cli._schema()["properties"]["solver"]["properties"]
        assert set(cli.SOLVER_DEFAULTS) == set(solver)

    def test_tables_match_schema(self):
        # one KINDS row per kind, each field a row names a metric property,
        # and each part a command names a path of the schema
        props = cli._schema()["properties"]
        fields = props["metric"]["properties"]
        assert sorted(cli.KINDS) == sorted(fields["kind"]["enum"])
        for required, optional, _, _ in cli.KINDS.values():
            assert set(required + optional) <= set(fields) - {"kind", "dim", "params"}
        for _, required, reads in cli.COMMANDS.values():
            for part in required + reads:
                node = {"properties": props}
                for key in part.split("/"):
                    node = node["properties"][key]


# configs of the tests above, between them reaching every block and leaf of
# the schema; the oracle test mutates them
ORACLE_BASES = [
    MINIMAL,
    SPHERE,
    {"metric": {"kind": "riemannian_expr", "dim": 2,
                "g": [["exp(-lam*x2^2)", "0"], ["0", "1"]], "params": {"lam": 1.0}},
     "problem": {"initial": {"x": [-1, 0], "v": [1, 0], "tau": 2.0,
                             "normalize_speed": 1.0},
                 "boundary": {"x0": [0, 0], "basis": [[0, 1]],
                              "shape_operator": [[1.0]]},
                 "t0": 0.0},
     "family": {"parameter": "lam", "range": [2.0, 3.0], "samples": 4, "mu": 2.5,
                "continuity_tol": 0.1},
     "solver": {"rtol": 1e-11, "atol": 1e-13, "seed": 7, "scan_grid": 400, "mesh0": 16,
                "max_mesh": 256, "samples_out": 5, "invariant_samples": 50,
                "seeds_per_rung": 1, "max_found": 1, "grid_oracle": False,
                "check_lorentz": True}},
    {"metric": {"kind": "zermelo", "dim": 2, "h": [["1", "0"], ["0", "1"]],
                "W": ["0.5", "0"], "chart_box": [[-2, 2], [-2, 2]], "v_min": 1e-6},
     "problem": {"connect": {"p": [0, 0], "q": [0.3, 0.2], "v_seed": [0.3, 0.2],
                             "tau": 1.0}},
     "solver": {"grid_oracle": True}},
    {"metric": {"kind": "fermat", "dim": 2, "fermat_sign": "plus",
                "g0": [["1", "0"], ["0", "1"]], "V": ["0.3", "0"], "f": "1"},
     "problem": {"connect": {"p": [0, 0], "q": [1.2, 0.8]}, "t0": 1.5}},
    {"metric": {"kind": "randers", "dim": 2, "h": [["1", "0"], ["0", "1"]],
                "beta": ["0.1", "0"]}},
]

ODD_VALUES = ["x", "", 0, -1, 1, 1.5, 2.0, -1e-9, 1e9, True, False, None, [], [1],
              [[1, 2]], ["1", "0"], {}, {"a": 1}]
ODD_NUMBERS = [-1, -0.0, 0, 1e-12, 1, 1.5, 2, 3.0, 4, 7, 8.0, 15, 16, 16.5]
ODD_KEYS = ["a", "b", "method", "threads", "output", "kind", "dim", "seed", "x"]


def _nodes(node, path=()):
    yield path, node
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _nodes(child, path + (key,))


# each mutation, with the nodes it applies to
MUTATIONS = {
    "drop": lambda path, node: bool(path),
    "swap": lambda path, node: bool(path),
    "add": lambda path, node: isinstance(node, dict),
    "number": lambda path, node: type(node) in (int, float),
    "lengthen": lambda path, node: isinstance(node, list),
}


@st.composite
def mutated_configs(draw):
    """A config of ORACLE_BASES with 1-3 mutations: a key or an item dropped,
    a value of another type, a key added, a number moved onto or past its
    bound, an array lengthened."""
    cfg = copy.deepcopy(draw(st.sampled_from(ORACLE_BASES)))
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(sorted(MUTATIONS)))
        nodes = [(p, n) for p, n in _nodes(cfg) if MUTATIONS[op](p, n)]
        if not nodes:
            continue
        path, node = draw(st.sampled_from(nodes))
        parent = cfg
        for key in path[:-1]:
            parent = parent[key]
        if op == "drop":
            del parent[path[-1]]
        elif op == "swap":
            parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(ODD_VALUES)))
        elif op == "add":
            node[draw(st.sampled_from(ODD_KEYS))] = copy.deepcopy(
                draw(st.sampled_from(ODD_VALUES)))
        elif op == "number":
            parent[path[-1]] = draw(st.sampled_from(ODD_NUMBERS))
        else:
            node.append(copy.deepcopy(node[-1]) if node else 0)
    return cfg


class TestSchemaOracle:
    """fbt's own schema walk against jsonschema's Draft 2020-12 validator."""

    @settings(max_examples=600, deadline=None)
    @given(cfg=mutated_configs())
    def test_walk_agrees_with_jsonschema(self, cfg):
        errors = sorted(jsonschema.Draft202012Validator(cli._schema()).iter_errors(cfg),
                        key=lambda e: list(e.absolute_path))
        want = got = None
        if errors:
            want = f"/{'/'.join(map(str, errors[0].absolute_path))}: {errors[0].message}"
        try:
            cli._check_schema(copy.deepcopy(cfg))
        except SchemaError as exc:
            got = str(exc)
        assert got == want

    @pytest.mark.parametrize("schema", [
        {"type": "string", "pattern": "^a"},
        {"$ref": "https://example.com/other.json"},
    ], ids=["pattern", "remote-ref"])
    def test_unknown_keyword_raises(self, schema):
        # the walk knows the schema's keywords only, so the schema cannot
        # outgrow it silently
        with pytest.raises(NotImplementedError):
            cli._walk("abc", schema, (), [])

    def test_bases_reach_every_keyword(self, monkeypatch):
        # the mutations start from configs that meet each keyword of the schema
        seen, walk = set(), cli._walk

        def spy(node, schema, path, errors):
            seen.update(schema)
            return walk(node, schema, path, errors)

        monkeypatch.setattr(cli, "_walk", spy)
        for cfg in ORACLE_BASES:
            cli._check_schema(copy.deepcopy(cfg))
        assert seen >= {"type", "$ref", "enum", "minimum", "exclusiveMinimum",
                        "minItems", "maxItems", "items", "properties", "required",
                        "additionalProperties"}
