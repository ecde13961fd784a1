import numpy as np
import pytest

import fbt
from fbt.geoflow import (
    BoundaryData,
    LeftChart,
    NoConvergence,
    SingularJacobian,
    TangentSeed,
    connect,
    endpoint_jacobian,
    exp_map,
    integrate_geodesic,
    newton,
    orthogonal_initial,
)
from fbt.jacobi import expmap_jacobian
from fbt.metric import PhaseState

from _oracles import great_circle_chart, great_circle_velocity


class TestIntegrate:
    def test_straight_line(self, euclid):
        path = integrate_geodesic(euclid, PhaseState([0, 0], [1, 0]), 3.0)
        assert np.max(np.abs(path.endpoint - [3.0, 0.0])) < 1e-12

    def test_sphere_antipode(self, sphere):
        path = integrate_geodesic(sphere, PhaseState([0, -1], [1, 0]), np.pi)
        assert np.max(np.abs(path.endpoint - [0.0, 1.0])) < 1e-8

    def test_sphere_matches_chart_circle(self, sphere):
        path = integrate_geodesic(sphere, PhaseState([0, -1], [1, 0]), 2.0)
        for t in np.linspace(0.1, 2.0, 7):
            assert np.max(np.abs(path.x(t) - great_circle_chart(1.0, t))) < 1e-8
            assert np.max(np.abs(path.v(t) - great_circle_velocity(1.0, t))) < 1e-8

    def test_constant_wind_straight(self):
        z = fbt.ZermeloData.from_exprs(2, [["1", "0"], ["0", "1"]], ["0.5", "0"])
        m = fbt.zermelo_to_randers(z)
        path = integrate_geodesic(m, PhaseState([0, 0], [1, 0]), 1.0)
        for t in np.linspace(0, 1, 9):
            assert abs(path.x(t)[1]) < 1e-10  # stays on the axis
        assert path.max_el_residual() < 1e-5

    def test_left_chart_raises(self):
        m = fbt.euclidean(2, chart_box=[[-1, 1], [-1, 1]])
        with pytest.raises(LeftChart):
            integrate_geodesic(m, PhaseState([0, 0], [1, 0]), 5.0)

    def test_speed_conservation(self, sphere):
        path = integrate_geodesic(sphere, PhaseState([0.2, -0.9], [0.8, 0.3]), 4.0)
        assert path.speed_deviation() <= 1e-7 * path.F0

    def test_el_residual_small(self, sphere):
        path = integrate_geodesic(sphere, PhaseState([0, -1], [1, 0]), 3.0)
        assert path.max_el_residual(n_samples=20, seed=1) < 1e-5

    def test_reparametrization(self, sphere):
        p1 = integrate_geodesic(sphere, PhaseState([0, -1], [1, 0]), 2.0)
        for c in (0.5, 2.0):
            p2 = integrate_geodesic(sphere, PhaseState([0, -1], [c, 0]), 2.0 / c)
            gaps = [
                np.max(np.abs(p1.x(t) - p2.x(t / c)))
                for t in np.linspace(0, 2.0, 21)
            ]
            assert max(gaps) <= 1e-8

    def test_reversibility(self, sphere, euclid):
        for m in (euclid, sphere):
            path = integrate_geodesic(m, PhaseState([0.1, -0.8], [0.9, 0.2]), 2.0)
            xe, ve = path.state(path.tau)
            back = integrate_geodesic(m, PhaseState(xe, -ve), 2.0)
            assert np.max(np.abs(back.endpoint - path.x0)) < 1e-7

    def test_rk4_mode_agrees(self, sphere):
        a = integrate_geodesic(sphere, PhaseState([0, -1], [1, 0]), 1.5)
        b = integrate_geodesic(sphere, PhaseState([0, -1], [1, 0]), 1.5,
                               method="rk4", n_steps=600)
        assert np.max(np.abs(a.endpoint - b.endpoint)) < 1e-8


class TestSampledDiagnostics:
    """Path samples at an array of times equal the per-time samples."""

    @pytest.mark.parametrize("method", ["rk45", "rk4"])
    def test_state_at_array_of_times(self, method):
        m = fbt.randers_expr(2, [["1", "0"], ["0", "1+0.1*x1^2"]], ["0.3*sin(x2)", "0"])
        path = integrate_geodesic(m, PhaseState([0.1, -0.2], [0.9, 0.3]), 2.0,
                                  method=method, n_steps=300)
        ts = np.random.default_rng(4).uniform(0.0, 2.0, size=25)
        x, v = path.state(ts)
        assert x.shape == v.shape == (25, 2)
        for i, t in enumerate(ts):
            xi, vi = path.state(t)
            assert np.max(np.abs(x[i] - xi)) <= 1e-14
            assert np.max(np.abs(v[i] - vi)) <= 1e-14
        res = path.el_residual(ts)
        assert res.shape == (25,)
        for i, t in enumerate(ts):
            assert abs(res[i] - path.el_residual(t)) <= 1e-12
        assert path.max_el_residual() < 1e-5

    def test_speed_deviation_matches_samples(self, sphere):
        path = integrate_geodesic(sphere, PhaseState([0.2, -0.9], [0.8, 0.3]), 4.0)
        worst = max(abs(path.speed(t) - path.F0) for t in np.linspace(0.0, 4.0, 200))
        assert abs(path.speed_deviation() - worst) <= 1e-15


class TestExpMap:
    def test_euclidean_translation(self, euclid):
        assert np.allclose(exp_map(euclid, [1, 2], [0.3, -0.4]), [1.3, 1.6])

    def test_sphere_antipode(self, sphere):
        assert np.max(np.abs(exp_map(sphere, [0, -1], [np.pi, 0]) - [0, 1])) < 1e-8

    def test_sphere_equator_point(self, sphere):
        got = exp_map(sphere, [0, -1], [np.pi / 2, 0])
        assert np.max(np.abs(got - great_circle_chart(1.0, np.pi / 2))) < 1e-8


class TestConnect:
    def test_euclidean(self, euclid):
        v = connect(euclid, [0, 0], [2, 1], [1, 1])
        assert np.max(np.abs(v - [2, 1])) < 1e-10

    def test_sphere_unit_distance(self, sphere):
        q = great_circle_chart(1.0, 1.0)
        v = connect(sphere, [0, -1], q, [0.9, 0.1])
        assert sphere.F([0, -1], v) == pytest.approx(1.0, abs=1e-8)

    def test_round_trip(self, sphere):
        q = great_circle_chart(1.0, 1.3)
        v = connect(sphere, [0, -1], q, [1.1, 0.2])
        assert np.max(np.abs(exp_map(sphere, [0, -1], v) - q)) < 1e-9

    def test_tau_is_the_arrival_time(self, euclid):
        v = connect(euclid, [0, 0], [1, 0.5], [1, 0.5], tau=2.0)
        end = integrate_geodesic(euclid, PhaseState([0, 0], v), 2.0).endpoint
        assert np.max(np.abs(end - [1, 0.5])) < 1e-8

    def test_antipode_degenerate(self, sphere):
        with pytest.raises(SingularJacobian):
            connect(sphere, [0, -1], [0, 1], [np.pi, 0.005])

    @pytest.mark.parametrize("theta", [0.0, 0.55])
    def test_conjugate_seed_is_singular(self, sphere, theta):
        # every velocity of norm pi is conjugate at p = (0, -1); at theta = 0.55
        # connect's endpoint Jacobian (rtol 1e-9) reads |det| = 7.2e-11 *
        # scale there, and one integrated at rtol 1e-8 reads 1.8e-9 * scale
        # (central differences of endpoints read 1.9e-8, past SING_TOL)
        seed = np.pi * np.array([np.cos(theta), np.sin(theta)])
        q = exp_map(sphere, [0, -1], 0.9 * seed)
        with pytest.raises(SingularJacobian):
            connect(sphere, [0, -1], q, seed)


class TestEndpointJacobian:
    def test_matches_frame_route(self):
        from conftest import catalog_metrics

        rng = np.random.default_rng(5)
        for m, base, scale in catalog_metrics():
            x = base + 0.1 * rng.normal(size=m.dim)
            v = rng.normal(size=m.dim)
            v *= scale * rng.uniform(0.5, 1.2) / np.linalg.norm(v)
            end, J = endpoint_jacobian(m, x, v, 1.0, rtol=1e-8, atol=1e-9)
            ref = expmap_jacobian(m, x, v)
            assert np.linalg.norm(J - ref) <= 1e-7 * np.linalg.norm(ref)
            # the real part of the complex-step copies is the plain flow
            x_ref = exp_map(m, x, v, rtol=1e-8, atol=1e-9)
            assert np.max(np.abs(end - x_ref)) <= 1e-12 * max(1.0, np.max(np.abs(x_ref)))

    def test_euclidean_scales_with_tau(self, euclid):
        end, J = endpoint_jacobian(euclid, [0, 0], [1.2, -0.3], 2.5, rtol=1e-8,
                                   atol=1e-9)
        assert np.max(np.abs(J - 2.5 * np.eye(2))) < 1e-8
        assert np.max(np.abs(end - 2.5 * np.array([1.2, -0.3]))) < 1e-12


class TestNewton:
    @staticmethod
    def GJ(v):
        return (np.array([v[0] ** 2 - 1.0, v[1]]),
                np.array([[2.0 * v[0], 0.0], [0.0, 1.0]]))

    def test_deflated_root_never_returned(self):
        root = np.array([1.0, 0.0])
        v = newton(self.GJ, root + [1e-9, 0.0], tol=1e-12, max_iter=50,
                   roots=[root])
        assert np.max(np.abs(v - [-1.0, 0.0])) < 1e-9

    def test_start_on_deflated_root(self):
        root = np.array([1.0, 0.0])
        with pytest.raises(NoConvergence):
            newton(self.GJ, root, tol=1e-12, max_iter=50, roots=[root])


class TestOrthogonalInitial:
    def test_euclidean_axis(self, euclid):
        b = BoundaryData([0, 0], np.array([[1.0], [0.0]]))
        v = orthogonal_initial(euclid, b, [0.3, 1.0])
        assert np.max(np.abs(v - [0.0, 1.0])) < 1e-10

    def test_randers_residual(self, randers_const):
        b = BoundaryData([0, 0], np.array([[1.0], [0.0]]))
        v = orthogonal_initial(randers_const, b, [0.0, 1.0])
        g = randers_const.fundamental_tensor([0, 0], v)
        assert abs(float(g[:, 0] @ v)) < 1e-10
        # cross-check with the independent finite-difference tensor
        from test_metric import fd_hessian_half_L

        g_fd = fd_hessian_half_L(randers_const, [0, 0], v)
        assert abs(float(g_fd[:, 0] @ v)) < 1e-6

    def test_conformal_keeps_euclidean_angles(self, sphere):
        b = BoundaryData([0, -1], np.array([[1.0], [0.0]]))
        v = orthogonal_initial(sphere, b, [0.0, 1.0])
        assert abs(v[0]) < 1e-10
        assert v[1] > 0

    def test_tangent_seed_rejected(self, euclid):
        b = BoundaryData([0, 0], np.array([[1.0], [0.0]]))
        with pytest.raises(TangentSeed):
            orthogonal_initial(euclid, b, [1.0, 0.0])
