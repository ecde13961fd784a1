"""fbt.ode against SciPy, which stays the independent reference: the DOP853
integrator takes the steps of solve_ivp(method="DOP853") to the bit, and the
Brent port makes the evaluations of scipy.optimize's brentq."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq as scipy_brentq

import fbt
from fbt import ode
from fbt.geoflow import (LeftChart, StepFailure, _copies_rhs, _geodesic_rhs,
                         endpoint_jacobian, exp_map, integrate_geodesic)
from fbt.jacobi import SCAN_ATOL, SCAN_RTOL, _frame_rhs, jacobi_frame
from fbt.metric import COMPLEX_STEP, PhaseState, ZeroVelocity


def _randers():
    return fbt.randers_expr(2, [["1", "0"], ["0", "1+0.1*x1^2"]],
                            ["0.3*sin(x2)", "0"])


def _reference(fun, y0, tau, **kw):
    return solve_ivp(fun, (0.0, tau), y0, method="DOP853", **kw)


def _assert_same_steps(got, ref):
    np.testing.assert_array_equal(got.ts, ref.t)
    np.testing.assert_array_equal(got.ys[-1], ref.y[:, -1])
    assert got.nfev == ref.nfev


def _assert_dense_close(sol, ref_sol, ts, y):
    t = np.concatenate([np.random.default_rng(3).uniform(0.0, ts[-1], 64), ts])
    bound = 1e-15 * np.max(np.abs(y))
    assert np.max(np.abs(sol(t) - ref_sol(t))) <= bound
    for ti in t[::7]:
        assert np.max(np.abs(sol(ti) - ref_sol(ti))) <= bound
        # a single time reads what the stacked call reads
        np.testing.assert_array_equal(sol(ti), sol(np.array([ti]))[:, 0])


class TestMirrorsSolveIvp:
    @pytest.mark.parametrize("metric", ["sphere", "randers"])
    def test_geodesic_path(self, metric):
        m = fbt.sphere_stereo(1.0) if metric == "sphere" else _randers()
        s0 = PhaseState([0.2, -0.9], [0.8, 0.3])
        path = integrate_geodesic(m, s0, 3.0)
        ref = _reference(_geodesic_rhs(m), np.concatenate([s0.x, s0.v]), 3.0,
                         rtol=1e-9, atol=1e-12, dense_output=True)
        np.testing.assert_array_equal(path.ts, ref.t)
        np.testing.assert_array_equal(path.ys, ref.y.T)
        got = ode.dop853(_geodesic_rhs(m), np.concatenate([s0.x, s0.v]), 3.0,
                         rtol=1e-9, atol=1e-12, dense=True)
        _assert_same_steps(got, ref)
        _assert_dense_close(path.sol, ref.sol, path.ts, path.ys)
        np.testing.assert_array_equal(exp_map(m, s0.x, s0.v, 3.0), ref.y[:2, -1])

    def test_complex_step_copies(self):
        m = _randers()
        p, v, n = np.array([0.1, -0.2]), np.array([0.9, 0.3]), 2
        y0 = np.concatenate([np.broadcast_to(p, (n, n)),
                             v + 1j * COMPLEX_STEP * np.eye(n)], axis=1).ravel()
        got = ode.dop853(_copies_rhs(m), y0, 2.0, rtol=1e-9, atol=1e-12)
        ref = _reference(_copies_rhs(m), y0, 2.0, rtol=1e-9, atol=1e-12)
        _assert_same_steps(got, ref)
        x, jac = endpoint_jacobian(m, p, v, 2.0, rtol=1e-9, atol=1e-12)
        y = ref.y[:, -1].reshape(n, 2 * n)[:, :n]
        np.testing.assert_array_equal(x, y[0].real)
        np.testing.assert_array_equal(jac, y.imag.T / COMPLEX_STEP)

    def test_jacobi_frame(self):
        # the frame's one real flow on (x, v, M, M') from the path's start
        m = fbt.sphere_stereo(1.0, dim=3)
        s0 = PhaseState([0.1, -0.9, 0.2], [0.8, 0.3, -0.2])
        path = integrate_geodesic(m, s0, 4.0)
        n = m.dim
        y0 = np.concatenate([s0.x, s0.v, np.zeros(n * n), np.eye(n).ravel()])
        frame = jacobi_frame(path)
        ref = _reference(_frame_rhs(m), y0, path.tau, rtol=SCAN_RTOL,
                         atol=SCAN_ATOL, dense_output=True)
        np.testing.assert_array_equal(frame.ts, ref.t)
        got = ode.dop853(_frame_rhs(m), y0, path.tau, rtol=SCAN_RTOL,
                         atol=SCAN_ATOL, dense=True)
        _assert_same_steps(got, ref)
        _assert_dense_close(frame.sol, ref.sol, frame.ts, got.ys)
        assert frame.M(1.3).shape == (n, n)
        assert frame.M(np.array([0.5, 1.3])).shape == (2, n, n)


def _chart_events(m):
    """The two stopping events of geoflow's flow, as SciPy events."""
    n, lo, hi = m.dim, m.chart_box[:, 0], m.chart_box[:, 1]

    def chart(t, y):
        x = y[:n].real
        return float(min(np.min(x - lo), np.min(hi - x)))

    def speed(t, y):
        return float(np.linalg.norm(y[n:2 * n].real) - m.v_min)

    chart.terminal = speed.terminal = True
    return [chart, speed]


class TestEvents:
    def test_left_chart_time(self):
        m = fbt.euclidean(2, chart_box=[[-1, 1], [-1, 1]])
        with pytest.raises(LeftChart) as exc:
            integrate_geodesic(m, PhaseState([0.0, 0.0], [0.7, 0.2]), 5.0)
        ref = _reference(_geodesic_rhs(m), np.array([0.0, 0.0, 0.7, 0.2]), 5.0,
                         rtol=1e-9, atol=1e-12, events=_chart_events(m))
        assert ref.status == 1
        assert abs(exc.value.t_exit - ref.t_events[0][0]) <= 4e-15
        assert exc.value.t_exit == pytest.approx(1.0 / 0.7, rel=1e-14)

    def test_zero_velocity_time(self):
        # chart speed 2 F / (1 + |x|^2) falls from 3 to 0.3 on the way to the
        # origin along a radial geodesic of the stereographic sphere; a raised
        # floor stops the flow on the way
        m = fbt.sphere_stereo(1.0)
        m.v_min = 1.0
        y0 = np.array([0.0, 3.0, 0.0, -3.0])
        ref = _reference(_geodesic_rhs(m), y0, 3.0, rtol=1e-9, atol=1e-12,
                         events=_chart_events(m))
        assert ref.status == 1 and len(ref.t_events[1]) == 1
        got = ode.dop853(_geodesic_rhs(m), y0, 3.0, rtol=1e-9, atol=1e-12,
                         events=_chart_events(m))
        assert got.event == 1
        assert abs(got.ts[-1] - ref.t_events[1][0]) <= 4e-15
        np.testing.assert_array_equal(got.ts[:-1], ref.t[:-1])
        assert got.nfev == ref.nfev
        with pytest.raises(ZeroVelocity):
            integrate_geodesic(m, PhaseState(y0[:2], y0[2:]), 3.0)

    def test_dense_output_up_to_event(self):
        # the last step is cut short at the event root but keeps its full
        # step's interpolant, as in SciPy's OdeSolution
        m = fbt.sphere_stereo(1.0)
        m.v_min = 1.0
        y0 = np.array([0.0, 3.0, 0.0, -3.0])
        ref = _reference(_geodesic_rhs(m), y0, 3.0, rtol=1e-9, atol=1e-12,
                         events=_chart_events(m), dense_output=True)
        got = ode.dop853(_geodesic_rhs(m), y0, 3.0, rtol=1e-9, atol=1e-12,
                         events=_chart_events(m), dense=True)
        assert got.event == 1
        t_old, t_root = got.ts[-2], got.ts[-1]
        t = np.concatenate([np.linspace(t_old, t_root, 17),
                            t_root - np.array([1e-9, 1e-12])])
        bound = 1e-15 * np.max(np.abs(got.ys))
        assert np.max(np.abs(got.sol(t) - ref.sol(t))) <= bound
        for ti in t:
            assert np.max(np.abs(got.sol(ti) - ref.sol(ti))) <= bound
        # the state at the root is the interpolant's value there
        np.testing.assert_array_equal(got.sol(t_root), got.ys[-1])

    def test_tiny_step_fails(self):
        # y' = y^2 from y(0) = 1 blows up at t = 1
        def fun(t, y):
            return y * y

        ref = _reference(fun, np.array([1.0]), 2.0, rtol=1e-9, atol=1e-12)
        assert ref.status == -1
        with pytest.raises(StepFailure):
            ode.dop853(fun, np.array([1.0]), 2.0, rtol=1e-9, atol=1e-12)


# smooth, kinked and flat scalar functions with a bracket each
ROOTS = [
    (lambda x: x**3 - 2 * x - 5, 2.0, 3.0, {}),
    (math.cos, 0.0, 2.0, {}),
    (math.sin, 3.0, 3.3, {"xtol": 1e-10}),
    (lambda x: abs(x - 1.3) - 0.2, 1.2, 3.0, {}),
    (lambda x: (x - 1.0) ** 9, 0.3, 1.9, {}),  # both stop after 100 iterations
    (lambda x: math.copysign(abs(x - 1.0) ** 0.2, x - 1.0), 0.3, 1.9, {}),
    (lambda x: 1e-200 * (x - 0.7), 0.0, 1.0, {}),
    (lambda x: math.tanh(40 * (x - 0.123)), -1.0, 1.0, {"xtol": 1e-14}),
    (lambda x: x, -1.0, 0.0, {}),
]


def _run(solver, f, a, b, kw):
    """solver's x, or "no convergence", and every point f was evaluated at."""
    calls = []

    def g(x):
        calls.append(x)
        return f(x)

    try:
        return solver(g, a, b, **kw), calls
    except RuntimeError:
        return "no convergence", calls


@pytest.mark.parametrize("f,a,b,kw", ROOTS)
def test_brentq_matches_scipy(f, a, b, kw):
    assert _run(ode.brentq, f, a, b, kw) == _run(scipy_brentq, f, a, b, kw)


def test_brentq_rejects_same_signs():
    with pytest.raises(ValueError):
        ode.brentq(math.cos, 0.0, 1.0)


GUARD = r"""
import json, os, sys
import numpy as np
import fbt, fbt.cli
from fbt.bifurc import FamilySpec, InitialStateBranch, find_branches
from fbt.geoflow import connect

out = sys.argv[1]
cfg = fbt.cli.load_config(os.path.join(out, "sphere.json"))
for command in ("geodesic", "conjugate", "index"):
    assert fbt.cli.run_command(command, cfg, os.path.join(out, command)) == 0
m = fbt.sphere_stereo(1.0)
connect(m, [0.0, -1.0], [0.5, 0.2], [0.5, 1.0])
fam = FamilySpec(param_name="K", param_range=(0.5, 2.0), samples=4,
                 metric_builder=lambda lam: fbt.sphere_stereo(lam),
                 branch=InitialStateBranch([0.0, -1.0], [1.0, 0.0], np.pi,
                                           normalize_speed=1.0))
find_branches(fam, 1.0, seed=1, seeds_per_rung=2, offsets=(0,), max_found=2)
print(json.dumps(sorted(k for k in sys.modules
                        if k.startswith(("scipy.integrate", "scipy.optimize")))))
"""


def test_no_scipy_integrate_or_optimize(tmp_path):
    """fbt loads neither scipy.integrate nor scipy.optimize, on import or in
    the CLI commands, shooting and the branch hunt."""
    (tmp_path / "sphere.json").write_text(
        '{"metric": {"kind": "sphere_stereo", "dim": 2, "params": {"K": 1.0}},'
        ' "problem": {"initial": {"x": [0, -1], "v": [1, 0], "tau": 3.5}}}')
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", GUARD, str(tmp_path)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip().splitlines()[-1] == "[]"


NO_SCIPY_GUARD = r"""
import json, os, sys
import numpy as np
import fbt, fbt.cli
from fbt.bifurc import FamilySpec, InitialStateBranch, sweep_family
from fbt.geoflow import BoundaryData, integrate_geodesic
from fbt.metric import PhaseState
from fbt.morse import cross_check

out = sys.argv[1]
cfg = fbt.cli.load_config(os.path.join(out, "sphere.json"))
assert fbt.cli.run_command("index", cfg, os.path.join(out, "index")) == 0
circle = BoundaryData([1.0, 0.0], np.array([[0.0], [1.0]]), np.array([[-1.0]]))
path = integrate_geodesic(fbt.euclidean(2), PhaseState([1.0, 0.0], [1.0, 0.0]), 2.0)
assert cross_check(path, circle).agree
fam = FamilySpec(param_name="K", param_range=(0.8, 1.3), samples=4,
                 metric_builder=lambda lam: fbt.sphere_stereo(lam),
                 branch=InitialStateBranch([0.0, -1.0], [1.0, 0.0], np.pi,
                                           normalize_speed=1.0))
assert sweep_family(fam, refine_mesh=32).detections[0].refined
print(json.dumps(sorted(k for k in sys.modules if k.startswith("scipy"))))
"""


def test_no_scipy(tmp_path):
    """fbt loads no scipy module, on import, in the index command, a focal
    cross-check and a sweep that refines through smallest_eigenvalue."""
    (tmp_path / "sphere.json").write_text(
        '{"metric": {"kind": "sphere_stereo", "dim": 2, "params": {"K": 1.0}},'
        ' "problem": {"initial": {"x": [0, -1], "v": [1, 0], "tau": 3.5}}}')
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", NO_SCIPY_GUARD, str(tmp_path)],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip().splitlines()[-1] == "[]"
