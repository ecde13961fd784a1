import json
import os

import numpy as np
import pytest

from fbt import cli
from fbt.cli import (
    ExpressionError,
    ParseError,
    SchemaError,
    load_config,
    metric_from_config,
    run_command,
)


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
        assert cfg["output"]["formats"] == ["csv", "json"]

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

    def test_main_config_error_exit_1(self, tmp_path, capsys):
        bad = write_cfg(tmp_path, {"metric": {"kind": "weird", "dim": 2}})
        assert cli.main(["geodesic", "--config", bad]) == 1
        assert "config error" in capsys.readouterr().err

    def test_removed_threads_option_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"metric": {"kind": "euclidean", "dim": 2},
                                   "solver": {"threads": 2}})
        assert cli.main(["sweep", "--config", cfg]) == 1
        assert "threads" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["rk45", "euler"])
    def test_unknown_method_exit_1(self, tmp_path, capsys, method):
        # the adaptive integrator is DOP853; "rk45" no longer names what runs
        cfg = write_cfg(tmp_path, {
            "metric": {"kind": "euclidean", "dim": 2},
            "problem": {"initial": {"x": [0, 0], "v": [1, 0], "tau": 1.0}},
            "solver": {"method": method},
        })
        assert cli.main(["geodesic", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "/solver/method" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", ["conjugate", "expmap"])
    def test_rk4_rejected_where_only_dop853_runs(self, tmp_path, capsys, cmd):
        # scans, exp-map Jacobians, sweeps and hunts integrate by DOP853 only
        cfg = write_cfg(tmp_path, {**SPHERE, "solver": {"method": "rk4"}})
        assert cli.main([cmd, "--config", cfg, "--out", str(tmp_path / "run")]) == 1
        assert "/solver/method" in capsys.readouterr().err

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


class TestSchemaPublication:
    def test_docs_schema_matches_packaged(self):
        here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        docs = os.path.join(here, "docs", "config.schema.json")
        packaged = os.path.join(here, "src", "fbt", "config.schema.json")
        with open(docs) as a, open(packaged) as b:
            assert json.load(a) == json.load(b)
