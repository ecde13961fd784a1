import warnings

import numpy as np
import pytest

import fbt
from fbt.geoflow import BoundaryData, GeodesicPath, endpoint_jacobian, integrate_geodesic
from fbt.jacobi import (
    DEFAULT_GRID,
    NotPerpendicular,
    _scan_frame,
    _scan_grid,
    conjugate_scan,
    expmap_jacobian,
    focal_scan,
    jacobi_frame,
    spray_jacobians,
)
from fbt.metric import ConvexityViolation, OutsideChart, PhaseState

from conftest import locally_constant
from _oracles import (
    FlatFrame,
    expmap_fd,
    frame_joint_flow,
    jacobi_scalar,
    reference_frame,
    richardson_jacobians_loop,
    scan_grid_loop,
    sphere_stereo_closed,
    spray_jacobians_loop,
    warped_metric,
)


class TestFrame:
    def test_flat_frame_linear(self, euclid):
        path = integrate_geodesic(euclid, PhaseState([0, 0], [1, 0]), 3.0)
        frame = jacobi_frame(path)
        for t in (0.5, 1.7, 3.0):
            assert np.max(np.abs(frame.M(t) - t * np.eye(2))) < 1e-12

    def test_sphere_transverse_sine(self, sphere):
        path = integrate_geodesic(sphere, PhaseState([0, -1], [1, 0]), 3.2)
        frame = jacobi_frame(path)
        sv = np.linalg.svd(frame.M(np.pi), compute_uv=False)
        assert sv[-1] < 1e-6 * sv[0]
        # away from pi the frame is far from singular
        sv_mid = np.linalg.svd(frame.M(np.pi / 2), compute_uv=False)
        assert sv_mid[-1] > 0.1 * sv_mid[0]

    def test_warped_frame_vs_scalar_oracle(self):
        # transverse column along the warped axis solves, in the parallel
        # frame, u'' + (lam - lam^2 t^2) u = 0; the chart column is u / f
        lam = 1.7
        m = warped_metric(lam)
        path = integrate_geodesic(m, PhaseState([0.0, 0.0], [1.0, 0.0]), 2.0)
        frame = jacobi_frame(path)
        sol = jacobi_scalar(lambda t: lam - lam**2 * t**2, (0.0, 2.0), 0.0, 1.0)
        for t in np.linspace(0.2, 2.0, 8):
            u = sol.sol(t)[0]
            f = np.exp(-lam * t**2 / 2.0)
            chart = frame.M(t)[1, 1]
            assert chart == pytest.approx(u / f, rel=1e-7, abs=1e-9)

    def test_linearization_residual(self, sphere):
        path = integrate_geodesic(sphere, PhaseState([0, -1], [1, 0]), 2.0)
        frame = jacobi_frame(path)
        assert frame.residual_max() < 1e-4

    def test_scans_ride_the_frames_own_geodesic(self, sphere, monkeypatch):
        # paths at the default rtol 1e-9; the frames read neither their
        # states nor spray_jacobians, and integrate the geodesic with M and
        # M' at the scan tolerance
        path = integrate_geodesic(sphere, PhaseState([0, -1], [1, 0]), 3.2)
        normal = integrate_geodesic(sphere, PhaseState([0, 0], [0.5, 0]), 2.0)
        b = BoundaryData([0.0, 0.0], np.array([[0.0], [1.0]]))

        def forbidden(*args, **kw):
            raise AssertionError("a frame read the stored path")

        monkeypatch.setattr(GeodesicPath, "state", forbidden)
        monkeypatch.setattr(fbt.jacobi, "spray_jacobians", forbidden)
        (inst,) = conjugate_scan(path).instants
        assert abs(inst.t - np.pi) <= 1e-11
        (inst,) = focal_scan(normal, b).instants
        assert abs(inst.t - np.pi / 2) <= 1e-11


class TestExpmapJacobian:
    def test_is_the_shooting_derivative(self):
        m = fbt.randers_expr(2, [["1+0.1*x2^2", "0"], ["0", "1+0.1*x1^2"]],
                             ["0.3*sin(x2)", "0.2*sin(x1)"])
        p, v = [0.1, 0.0], [1.0, 0.2]
        for rtol, atol in ((1e-9, 1e-12), (1e-11, 1e-14)):
            _, ref = endpoint_jacobian(m, p, v, 1.0, rtol=0.1 * rtol,
                                       atol=0.1 * max(atol, 1e-13))
            J = expmap_jacobian(m, p, v, rtol=rtol, atol=atol)
            np.testing.assert_array_equal(J, ref)

    def test_euclidean_identity(self, euclid):
        J = expmap_jacobian(euclid, [0, 0], [1.2, 0.3])
        assert np.max(np.abs(J - np.eye(2))) < 1e-10

    def test_antipodal_rank_drop(self, sphere):
        J = expmap_jacobian(sphere, [0, -1], [np.pi, 0])
        sv = np.linalg.svd(J, compute_uv=False)
        assert sv[-1] <= 1e-6 * sv[0]

    def test_short_geodesic_near_identity(self, euclid, sphere):
        J = expmap_jacobian(euclid, [0, 0], [1e-3, 0])
        assert np.max(np.abs(J - np.eye(2))) < 1e-5
        # curved chart: the deviation from identity shrinks linearly with |v|
        e3 = np.max(np.abs(expmap_jacobian(sphere, [0, -1], [1e-3, 0]) - np.eye(2)))
        e4 = np.max(np.abs(expmap_jacobian(sphere, [0, -1], [1e-4, 0]) - np.eye(2)))
        assert e3 < 5e-3
        assert e4 < 0.2 * e3

    @pytest.mark.parametrize("speed", [1e-3, 1e-2])
    def test_short_geodesic_with_one_form(self, speed):
        # a one-form makes the spray non-quadratic in v, so a spray
        # linearization whose v-stencil does not shrink with the speed
        # reaches v = 0 (randers: the quadratic part vanishes there).  The
        # oracle differences exp at eps = 1e-5 |v|; its own error is near
        # 1e-9 (the 1e-6 central-difference frame read 8.1e-10 against it)
        zermelo = fbt.zermelo_to_randers(fbt.ZermeloData.from_exprs(
            2, [["1", "0"], ["0", "1"]], ["0.6*exp(-x1^2)", "0"]))
        randers = fbt.randers_expr(
            2, [["1+0.1*x2^2", "0"], ["0", "1+0.1*x1^2"]],
            ["0.3*sin(x2)", "0.2*sin(x1)"])
        p = np.array([0.1, 0.0])
        for m in (randers, zermelo):
            for v in (speed * np.array([1.0, 0.0]), speed * np.array([0.0, 1.0])):
                J = expmap_jacobian(m, p, v)
                ref = np.column_stack([expmap_fd(m, p, v, w, eps=1e-5 * speed)
                                       for w in np.eye(2)])
                assert np.max(np.abs(J - ref)) <= 2e-9

    def test_metric_varying_on_short_chart_lengths(self):
        # g22 = exp(-lam x1^2) with lam = 1e4 varies on chart lengths near
        # 0.01, so a spray linearization by differences at a fixed step of
        # 1e-3 misses its curvature (1.3e-6 relative error); the oracle's
        # eps = 1e-7 keeps its own truncation error (4.5e-8 at the default
        # 1e-5) below the bound
        m = fbt.riemannian_expr(2, [["1", "0"], ["0", "exp(-lam*x1^2)"]],
                                params={"lam": 1e4})
        p, v = np.array([-0.005, 0.1]), np.array([0.01, 0.003])
        J = expmap_jacobian(m, p, v, rtol=1e-11, atol=1e-14)
        for j, w in enumerate(np.eye(2)):
            ref = expmap_fd(m, p, v, w, eps=1e-7)
            assert np.linalg.norm(J[:, j] - ref) <= 1e-9 * np.linalg.norm(ref)

    def test_fd_oracle_small_sample(self):
        from conftest import catalog_metrics

        rng = np.random.default_rng(11)
        cases = 0
        for m, base, _ in catalog_metrics():
            x = base + 0.1 * rng.normal(size=m.dim)
            v = rng.normal(size=m.dim)
            v *= rng.uniform(0.5, 1.2) / np.linalg.norm(v)
            w = rng.normal(size=m.dim)
            Jw = expmap_jacobian(m, x, v) @ w
            fd = expmap_fd(m, x, v, w)
            assert np.linalg.norm(Jw - fd) <= 1e-4 * np.linalg.norm(Jw)
            cases += 1
        assert cases >= 5


class TestConjugateScan:
    def test_flat_empty(self, euclid):
        path = integrate_geodesic(euclid, PhaseState([0, 0], [1, 0]), 6.0)
        assert conjugate_scan(path).instants == []

    def test_sphere_two_and_a_half_turns(self, sphere):
        path = integrate_geodesic(sphere, PhaseState([0, -1], [1, 0]), 2.5 * np.pi)
        rep = conjugate_scan(path)
        ts = [c.t for c in rep.instants]
        ms = [c.multiplicity for c in rep.instants]
        assert ms == [1, 1]
        assert abs(ts[0] - np.pi) < 1e-8
        assert abs(ts[1] - 2 * np.pi) < 1e-8

    def test_sphere_dim3_multiplicity_two(self, sphere3):
        path = integrate_geodesic(sphere3, PhaseState([0, -1, 0], [1, 0, 0]), 1.5 * np.pi)
        rep = conjugate_scan(path)
        assert len(rep.instants) == 1
        assert rep.instants[0].multiplicity == 2
        assert abs(rep.instants[0].t - np.pi) < 1e-6

    def test_instant_exactly_at_endpoint(self, sphere):
        path = integrate_geodesic(sphere, PhaseState([0, -1], [1, 0]), np.pi)
        rep = conjugate_scan(path)
        assert len(rep.instants) == 1
        assert abs(rep.instants[0].t - np.pi) < 1e-8

    def test_conjugacy_symmetry_reversed(self, sphere):
        # gamma(t*) conjugate to gamma(0) implies gamma(0) conjugate to
        # gamma(t*) along the reversed geodesic, at the mirrored instant
        tau = 4.0
        path = integrate_geodesic(sphere, PhaseState([0, -1], [1, 0]), tau)
        t_fwd = conjugate_scan(path).instants[0].t
        x_star, v_star = path.state(t_fwd)
        back = integrate_geodesic(sphere, PhaseState(x_star, -v_star), t_fwd + 0.3)
        t_back = conjugate_scan(back).instants[0].t
        assert abs(t_back - t_fwd) < 1e-8

    def test_sphere_dim3_double_instant_at_pi(self, sphere3):
        # both kernel directions of the double instant converge together
        path = integrate_geodesic(sphere3, PhaseState([0, -1, 0], [1, 0, 0]),
                                  1.5 * np.pi, rtol=1e-12, atol=1e-14)
        (inst,) = conjugate_scan(path).instants
        assert inst.multiplicity == 2
        assert abs(inst.t - np.pi) <= 1e-10

    def test_multiplicity_stable_under_threshold_change(self, sphere, sphere3,
                                                        monkeypatch):
        for m, x0, v0, tau in [
            (sphere, [0, -1], [1, 0], 2.5 * np.pi),
            (sphere3, [0, -1, 0], [1, 0, 0], 1.5 * np.pi),
        ]:
            path = integrate_geodesic(m, PhaseState(x0, v0), tau)
            monkeypatch.setattr(fbt.jacobi, "THETA_NULL", 1e-6)
            a = conjugate_scan(path)
            monkeypatch.setattr(fbt.jacobi, "THETA_NULL", 1e-7)
            b = conjugate_scan(path)
            assert [c.multiplicity for c in a.instants] == [
                c.multiplicity for c in b.instants
            ]


class TestFocalScan:
    def test_circle_focuses_at_center_distance(self, euclid):
        b = BoundaryData([1.0, 0.0], np.array([[0.0], [1.0]]), np.array([[-1.0]]))
        path = integrate_geodesic(euclid, PhaseState([1.0, 0.0], [1.0, 0.0]), 2.0)
        rep = focal_scan(path, b)
        assert len(rep.instants) == 1
        assert rep.instants[0].multiplicity == 1
        assert abs(rep.instants[0].t - 1.0) < 1e-9

    def test_great_sphere_focuses_at_half_pi(self, sphere3):
        # geodesics leaving a totally geodesic great sphere perpendicularly
        # meet again after a quarter turn, with multiplicity 2
        b = BoundaryData([0.0, 0.0, 0.0], np.eye(3)[:, 1:])
        path = integrate_geodesic(sphere3, PhaseState([0, 0, 0], [0.5, 0, 0]), 2.0,
                                  rtol=1e-12, atol=1e-14)
        (inst,) = focal_scan(path, b).instants
        assert inst.multiplicity == 2
        assert abs(inst.t - np.pi / 2) <= 1e-10

    def test_straight_line_never_focuses(self, euclid):
        b = BoundaryData([0.0, 0.0], np.array([[1.0], [0.0]]))
        path = integrate_geodesic(euclid, PhaseState([0.0, 0.0], [0.0, 1.0]), 5.0)
        assert focal_scan(path, b).instants == []

    def test_point_degenerates_to_conjugate(self, sphere):
        b = BoundaryData([0.0, -1.0], np.zeros((2, 0)))
        path = integrate_geodesic(sphere, PhaseState([0, -1], [1, 0]), 3.2)
        focal = focal_scan(path, b)
        conj = conjugate_scan(path)
        assert [(c.t, c.multiplicity) for c in focal.instants] == pytest.approx(
            [(c.t, c.multiplicity) for c in conj.instants]
        )

    def test_not_perpendicular_rejected(self, euclid):
        b = BoundaryData([0.0, 0.0], np.array([[1.0], [0.0]]))
        path = integrate_geodesic(euclid, PhaseState([0.0, 0.0], [1.0, 1.0]), 2.0)
        with pytest.raises(NotPerpendicular):
            focal_scan(path, b)


class TestSprayJacobians:
    def _cases(self):
        from conftest import catalog_metrics

        rng = np.random.default_rng(11)
        for m, base, vscale in catalog_metrics() + [
            (fbt.sphere_stereo(1.0, dim=3), np.zeros(3), 1.0),
            (sphere_stereo_closed(1.0), np.array([0.3, -0.5]), 1.0),
        ]:
            x = base + 0.2 * rng.normal(size=m.dim)
            v = vscale * rng.normal(size=m.dim)
            yield m, x, v

    @pytest.mark.parametrize("step", [1e-6, 3e-4])
    def test_matches_column_loop(self, step):
        # the complex step against one central difference per column at the
        # relative step `step`: the loop's truncation error goes as step^2
        # (measured 8.0e-8 at 3e-4) and its rounding as noise/step, where the
        # noise is that of the spray itself, machine precision with exact
        # component derivatives (measured 6.2e-11 at 1e-6)
        bound = 2.0 * step ** 2 + 2e-16 / step
        for m, x, v in self._cases():
            A, B = spray_jacobians(m, x, v)
            A_ref, B_ref = spray_jacobians_loop(m, x, v, step)
            for got, ref in ((A, A_ref), (B, B_ref)):
                assert np.max(np.abs(got - ref)) <= bound * max(1.0, np.max(np.abs(ref)))

    def test_matches_sixth_order_loop(self):
        # the complex step against real central differences combined to
        # sixth order (measured at most 1.8e-13)
        for m, x, v in self._cases():
            A, B = spray_jacobians(m, x, v)
            A_ref, B_ref = richardson_jacobians_loop(m, x, v)
            for got, ref in ((A, A_ref), (B, B_ref)):
                assert np.max(np.abs(got - ref)) <= 1e-11 * max(1.0, np.max(np.abs(ref)))

    def test_stack_of_states(self):
        for m, x, v in self._cases():
            X = x + 0.1 * np.arange(3)[:, None]
            V = v * (1.0 + 0.2 * np.arange(3))[:, None]
            A, B = spray_jacobians(m, X, V)
            assert A.shape == B.shape == (3, m.dim, m.dim)
            for i in range(3):
                Ai, Bi = spray_jacobians(m, X[i], V[i])
                np.testing.assert_allclose(A[i], Ai, rtol=1e-12, atol=1e-12)
                np.testing.assert_allclose(B[i], Bi, rtol=1e-12, atol=1e-12)

    def test_complex_lift_keeps_real_part(self):
        for m, x, v in self._cases():
            s = m.spray(x, v)
            for k in range(m.dim):
                dz = 1e-30j * np.eye(m.dim)[k]
                for got in (m.spray(x + dz, v), m.spray(x, v + dz)):
                    assert np.max(np.abs(got.real - s)) <= 1e-14 * max(1.0, np.max(np.abs(s)))

    @pytest.mark.usefixtures("no_randers_check")
    def test_checks_read_the_real_part(self):
        eye = np.eye(2)
        dz = np.array([1e-30j, 0.0])
        # |beta| = 2 > 1: F = |v| + beta.v is negative along -e1
        strong = locally_constant(2, "strong_wind", lambda x: eye,
                                  lambda x: np.array([2.0, 0.0]))
        with pytest.raises(ConvexityViolation):
            strong.F([0.0, 0.0], [-1.0, 0.0] + dz)
        # indefinite h: the quadratic part v.h.v is negative along e2
        indefinite = locally_constant(2, "indefinite", lambda x: np.diag([1.0, -1.0]),
                                      lambda x: np.array([0.1, 0.0]))
        with pytest.raises(ConvexityViolation):
            indefinite.spray([0.0, 0.0] + dz, [0.0, 1.0])
        sphere = fbt.sphere_stereo(1.0)
        with pytest.raises(OutsideChart):
            sphere._check([11.0, 0.0] + dz, [1.0, 0.0])
        sphere._check([9.0, 0.0] + dz, [1.0, 0.0])
        sphere.spray([9.0, 0.0] + dz, [1.0, 0.0])

    def test_residual_max_matches_sample_loop(self):
        # the stacked samples of JacobiFrame.residual_max against a loop over
        # the same sample times with one derivative read and one
        # spray_jacobians call each, on the carried column (x, v, N, N')
        z = fbt.ZermeloData.from_exprs(2, [["1", "0"], ["0", "1"]],
                                       ["0.6*exp(-x1^2)", "0"])
        for m, x, v in [
            (fbt.sphere_stereo(1.0), [0.0, -1.0], [1.0, 0.0]),
            (warped_metric(1.3), [-0.5, 0.2], [1.0, 0.1]),
            (fbt.zermelo_to_randers(z), [-1.0, 0.0], [1.0, 0.5]),
        ]:
            frame = jacobi_frame(integrate_geodesic(m, PhaseState(x, v), 1.5))
            ts = np.random.default_rng(0).uniform(0.05 * 1.5, 0.95 * 1.5, size=20)
            worst = 0.0
            for t in ts:
                y, Ndd = frame.sol(t), frame.sol.derivative(t)[6:]
                A, B = spray_jacobians(m, *frame.path.state(t))
                drive = A @ y[4:6] + B @ y[6:]
                worst = max(worst, np.linalg.norm(Ndd - drive) / (1.0 + np.linalg.norm(drive)))
            assert frame.residual_max() == pytest.approx(worst, rel=1e-12)


# (metric, x0, v0, tau, bound at the scan defaults, bound under
# expmap_jacobian).  The paths are integrated at rtol 1e-12; a frame takes
# only their start state and tau.  Each bound is the error against
# frame_joint_flow, rounded up in the second digit, of the RK5(4) frame on
# central differences at step 1e-6 that preceded DOP853: at rtol 1e-10 /
# atol 1e-13 for the scan defaults, and at the tolerances of
# expmap_jacobian(rtol=1e-11, atol=1e-14) for the exp-map Jacobian.
FRAME_CASES = {
    "warped": (lambda: fbt.riemannian_expr(
        2, [["1", "0"], ["0", "exp(-lam*x1^2)"]], params={"lam": 1.3}),
        [0.1, 0.0], [1.0, 0.2], 2.5, 3.6e-11, 1.5e-11),
    "randers": (lambda: fbt.randers_expr(
        2, [["1+0.1*x2^2", "0"], ["0", "1+0.1*x1^2"]],
        ["0.3*sin(x2)", "0.2*sin(x1)"]),
        [0.1, 0.0], [1.0, 0.2], 2.5, 2.9e-11, 1.2e-11),
    "sphere2": (lambda: fbt.sphere_stereo(1.0),
                [0.0, -1.0], [1.0, 0.0], 3.2, 2.9e-11, 2.9e-11),
    "sphere3": (lambda: fbt.sphere_stereo(1.0, dim=3),
                [0.0, -1.0, 0.0], [1.0, 0.0, 0.0], 1.5 * np.pi, 4.6e-11, 3.5e-11),
}


class TestFrameAccuracy:
    """Frames against the joint (x, v, M, M') flow of _oracles."""

    @pytest.mark.parametrize("name", sorted(FRAME_CASES))
    def test_scan_defaults(self, name):
        make, x0, v0, tau, bound, _ = FRAME_CASES[name]
        m = make()
        path = integrate_geodesic(m, PhaseState(x0, v0), tau, rtol=1e-12, atol=1e-14)
        ts = np.linspace(0.0, tau, 401)[1:]
        ref = frame_joint_flow(m, x0, v0, ts)
        err = np.max(np.abs(jacobi_frame(path).M(ts) - ref)) / np.max(np.abs(ref))
        assert err <= bound

    @pytest.mark.parametrize("name", sorted(FRAME_CASES))
    def test_expmap_jacobian(self, name):
        make, x0, v0, tau, _, bound = FRAME_CASES[name]
        m = make()
        v = tau * np.asarray(v0)
        ref = frame_joint_flow(m, x0, v, [1.0])[0]
        J = expmap_jacobian(m, x0, v, rtol=1e-11, atol=1e-14)
        assert np.max(np.abs(J - ref)) / np.max(np.abs(ref)) <= bound


def _nonclosed_randers():
    # beta = (0.2 exp(-1.8 x2^2), 0.1 x1) is not closed
    return fbt.randers_expr(2, [["exp(-1.8*x2^2)", "0"], ["0", "1"]],
                            ["0.2*exp(-1.8*x2^2)", "0.1*x1"])


def _warped_focal():
    # P is the x1 direction at x1 = 0.3, where dL/dx1 != 0 along v0 = e2
    m = fbt.riemannian_expr(2, [["1", "0"], ["0", "exp(-lam*x1^2)"]], params={"lam": 1.3})
    b = BoundaryData([0.3, 0.0], np.array([[1.0], [0.0]]), np.array([[-1.0]]))
    return m, [0.3, 0.0], [0.0, 1.0], 4.0, b


def _randers_focal():
    b = BoundaryData([0.0, 0.3], np.array([[0.0], [1.0]]), np.array([[-0.7]]))
    return _nonclosed_randers(), [0.0, 0.3], [1.0, 0.0], 3.0, b


def _sphere_cases():
    great = BoundaryData([0.0, 0.0, 0.0], np.eye(3)[:, 1:])
    for K in (0.5, 1.0, 1.25):
        tau = 2.5 * np.pi / np.sqrt(K)
        yield f"sphere2-K{K}", (lambda K=K, tau=tau: (
            fbt.sphere_stereo(K), [0.0, -1.0], [1.0, 0.0], tau, None))
        yield f"sphere3-K{K}", (lambda K=K, tau=tau: (
            fbt.sphere_stereo(K, dim=3), [0.0, -1.0, 0.0], [1.0, 0.0, 0.3], tau, None))
        yield f"sphere3-focal-K{K}", (lambda K=K: (
            fbt.sphere_stereo(K, dim=3), [0.0, 0.0, 0.0], [0.5, 0.0, 0.0], 2.5, great))


# name -> () -> (metric, x0, v0, tau, boundary or None)
SCAN_CASES = {
    **dict(_sphere_cases()),
    "sphere2-focal": lambda: (fbt.sphere_stereo(1.0), [0.0, 0.0], [0.5, 0.0], 2.5,
                              BoundaryData([0.0, 0.0], np.array([[0.0], [1.0]]))),
    "warped": lambda: (fbt.riemannian_expr(2, [["1", "0"], ["0", "exp(-lam*x1^2)"]],
                                           params={"lam": 1.3}),
                       [0.0, 0.0], [0.0, 1.0], 4.0, None),
    "randers": lambda: (_nonclosed_randers(), [0.0, 0.3], [1.0, 0.1], 4.0, None),
    "warped-focal": _warped_focal,
    "randers-focal": _randers_focal,
    "circle-focal": lambda: (fbt.euclidean(2), [1.0, 0.0], [1.0, 0.0], 2.0,
                             BoundaryData([1.0, 0.0], np.array([[0.0], [1.0]]),
                                          np.array([[-1.0]]))),
}


class TestCarriedColumns:
    """Frames carry n - 1 columns g-orthogonal to the velocity and rebuild
    the n-th, the tangential field t v(t), in closed form."""

    @pytest.mark.parametrize("name", ["randers", "warped-focal"])
    def test_orthogonal_to_velocity(self, name):
        # g_{v(t)}(J, v(t)) is affine in t and starts at 0 with slope 0;
        # measured at most 2.2e-11 max |J| on these paths
        m, x0, v0, tau, b = SCAN_CASES[name]()
        path = integrate_geodesic(m, PhaseState(x0, v0), tau)
        frame = jacobi_frame(path, b)
        n = m.dim
        y = frame.sol(np.linspace(0.0, tau, 201)[1:]).T
        x, v, N = y[:, :n], y[:, n:2 * n], y[:, 2 * n:n * n + n].reshape(-1, n, n - 1)
        g = np.einsum("tij,tj,tik->tk", m.fundamental_tensor(x, v), v, N)
        assert np.all(np.max(np.abs(g), axis=0)
                      <= 1e-10 * np.max(np.linalg.norm(N, axis=1), axis=0))

    def test_null_geodesic_of_the_quadratic_kind(self):
        # g_v(v0, v0) = 0 puts v0 in its own g-orthogonal complement, so the
        # carried column is chart-orthogonal to v0 there
        m = fbt.quadratic_expr(2, [["1", "0"], ["0", "-(1+0.1*x1^2)"]])
        path = integrate_geodesic(m, PhaseState([0.0, 0.0], [1.0, 1.0]), 3.0)
        assert abs(m.F(path.x0, path.v0)) <= 1e-15
        ts = np.linspace(0.0, 3.0, 41)[1:]
        M, ref = jacobi_frame(path).M(ts), reference_frame(path).M(ts)
        assert np.max(np.abs(M - ref)) <= 1e-9 * np.max(np.abs(ref))
        assert conjugate_scan(path).instants == []

    @pytest.mark.parametrize("name", sorted(SCAN_CASES))
    def test_scans_match_n_column_reference(self, name):
        m, x0, v0, tau, b = SCAN_CASES[name]()
        if b is not None:
            v0 = fbt.geoflow.orthogonal_initial(m, b, v0)
        path = integrate_geodesic(m, PhaseState(x0, v0), tau)
        got = focal_scan(path, b)
        ref = _scan_frame(reference_frame(path, b), DEFAULT_GRID)
        assert ref.instants
        assert ([c.multiplicity for c in got.instants]
                == [c.multiplicity for c in ref.instants])
        for c, r in zip(got.instants, ref.instants):
            assert abs(c.t - r.t) <= 1e-10
        assert got.warnings == ref.warnings == []


class TestScanGrid:
    def test_batched_grid_matches_time_loop(self, sphere, sphere3):
        for m, x, v, tau in [
            (sphere, [0, -1], [1, 0], 2.5 * np.pi),
            (sphere3, [0, -1, 0], [1, 0, 0.2], 1.5 * np.pi),
            (warped_metric(1.3), [-0.5, 0.2], [1.0, 0.1], 2.0),
        ]:
            frame = jacobi_frame(integrate_geodesic(m, PhaseState(x, v), tau))
            for got, ref in zip(_scan_grid(frame, 400), scan_grid_loop(frame, 400)):
                assert np.array_equal(got, ref)


def _closed_form_frame(sol, n, tau):
    """A frame on a straight path of length tau whose M and M' come from the
    closed form sol(t) (the layout of an n-column frame flow's dense
    output), so a scan sees no integration error."""
    path = integrate_geodesic(fbt.euclidean(n), PhaseState(np.zeros(n), np.eye(n)[0]), tau)
    return FlatFrame(path, sol, np.array([0.0, tau]), np.eye(n))


def _diagonal_frame(a, tau=4.0, q=None):
    """M = q diag(sin(a_k t) / a_k) q^T, M' = q diag(cos(a_k t)) q^T for an
    orthogonal q (the identity by default): column k of the diagonal frame
    is singular at the multiples of pi / a_k."""
    a = np.asarray(a, dtype=float)
    n = len(a)
    q = np.eye(n) if q is None else q

    def sol(t):
        at = np.multiply.outer(np.asarray(t, dtype=float), a)
        M = (q * (np.sin(at) / a)[..., None, :]) @ q.T
        Md = (q * np.cos(at)[..., None, :]) @ q.T
        y = np.concatenate([M.reshape(at.shape[:-1] + (n * n,)),
                            Md.reshape(at.shape[:-1] + (n * n,))], axis=-1)
        return np.moveaxis(y, -1, 0)

    return _closed_form_frame(sol, n, tau)


class TestScanClosedForm:
    """Scans of closed-form frames: grid 400 on tau = 4, so a cell is 0.01."""

    def _scan(self, frame):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rep = _scan_frame(frame, DEFAULT_GRID)
        return rep, [w.category for w in caught]

    @pytest.mark.parametrize("gap", [0.005, 0.02, 0.04, 0.05, 0.06])
    def test_pair_half_to_six_cells_apart(self, gap):
        # at a gap of half a cell det M keeps its sign on the grid, and the
        # pair shares one bracket
        t2 = np.pi + gap
        rep, caught = self._scan(_diagonal_frame([1.0, np.pi / t2, 0.1]))
        assert caught == [] and rep.warnings == []
        assert [c.multiplicity for c in rep.instants] == [1, 1]
        assert abs(rep.instants[0].t - np.pi) <= 1e-12
        assert abs(rep.instants[1].t - t2) <= 1e-12

    def test_pair_closing_at_tau(self):
        # one instant 0.02 (2.5 cells) before tau = pi and one at tau: the
        # earlier is the index, the one at tau the nullity
        t1 = np.pi - 0.02
        rep, caught = self._scan(_diagonal_frame([1.0, np.pi / t1, 0.1], tau=np.pi))
        assert caught == [] and rep.warnings == []
        assert [c.multiplicity for c in rep.instants] == [1, 1]
        assert abs(rep.instants[0].t - t1) <= 1e-12
        assert rep.instants[1].t == np.pi
        counting = fbt.index_by_counting(rep)
        assert (counting.m_minus, counting.m_zero) == (1, 1)

    def test_double_instant_without_sign_change(self):
        frame = _diagonal_frame([1.0, 1.0, 0.1])
        ts, dets, _ = _scan_grid(frame, 400)
        assert np.all(dets > 0)
        rep, caught = self._scan(frame)
        assert caught == []
        (inst,) = rep.instants
        assert inst.multiplicity == 2
        assert abs(inst.t - np.pi) <= 1e-12

    def test_instant_where_another_column_is_stationary(self):
        # at pi/2 the first column is singular and the second has J' = 0, so
        # M' is singular there too; in this rotated basis a step that
        # inverted M' wanders in its rounding and ends 8e-12 to 5e-10 off
        q = np.linalg.qr(np.random.default_rng(1).normal(size=(3, 3)))[0]
        rep, caught = self._scan(_diagonal_frame([2.0, 1.0, 0.1], q=q))
        assert caught == []
        assert [c.multiplicity for c in rep.instants] == [1, 2]
        assert abs(rep.instants[0].t - np.pi / 2) <= 1e-12
        assert abs(rep.instants[1].t - np.pi) <= 1e-12

    def test_dip_that_misses_zero(self):
        # the first two columns' sigma_min dips to 1e-3 at pi without reaching
        # zero: the offsets there are +-1e-3 i
        def sol(t):
            t = np.asarray(t, dtype=float)
            s, c, z, o = np.sin(t), np.cos(t), np.zeros_like(t), np.ones_like(t)
            return np.array([s, z + 1e-3, z, z - 1e-3, s, z, z, z, 1 + t,
                             c, z, z, z, c, z, z, z, o])

        frame = _closed_form_frame(sol, 3, 4.0)
        assert np.min(_scan_grid(frame, 400)[2]) < 0.05
        rep, caught = self._scan(frame)
        assert rep.instants == [] and caught == []
