import warnings

import numpy as np
import pytest

import fbt
from fbt.geoflow import BoundaryData, GeodesicPath, endpoint_jacobian, integrate_geodesic
from fbt.jacobi import (
    JacobiFrame,
    NotPerpendicular,
    ResolutionWarning,
    _scan_grid,
    conjugate_scan,
    expmap_jacobian,
    focal_scan,
    jacobi_frame,
    spray_jacobians,
)
from fbt.metric import ConvexityViolation, OutsideChart, PhaseState

from _oracles import (
    expmap_fd,
    frame_joint_flow,
    jacobi_scalar,
    richardson_jacobians_loop,
    scan_grid_loop,
    sphere_stereo_closed,
    spray_jacobians_loop,
    warped_metric,
)


class TestFrame:
    def test_flat_frame_linear(self, euclid):
        path = integrate_geodesic(euclid, PhaseState([0, 0], [1, 0]), 3.0)
        frame = jacobi_frame(path, "conjugate")
        for t in (0.5, 1.7, 3.0):
            assert np.max(np.abs(frame.M(t) - t * np.eye(2))) < 1e-12

    def test_sphere_transverse_sine(self, sphere):
        path = integrate_geodesic(sphere, PhaseState([0, -1], [1, 0]), 3.2)
        frame = jacobi_frame(path, "conjugate")
        sv = frame.sigma(np.pi)
        assert sv[-1] < 1e-6 * sv[0]
        # away from pi the frame is far from singular
        sv_mid = frame.sigma(np.pi / 2)
        assert sv_mid[-1] > 0.1 * sv_mid[0]

    def test_warped_frame_vs_scalar_oracle(self):
        # transverse column along the warped axis solves, in the parallel
        # frame, u'' + (lam - lam^2 t^2) u = 0; the chart column is u / f
        lam = 1.7
        m = warped_metric(lam)
        path = integrate_geodesic(m, PhaseState([0.0, 0.0], [1.0, 0.0]), 2.0)
        frame = jacobi_frame(path, "conjugate")
        sol = jacobi_scalar(lambda t: lam - lam**2 * t**2, (0.0, 2.0), 0.0, 1.0)
        for t in np.linspace(0.2, 2.0, 8):
            u = sol.sol(t)[0]
            f = np.exp(-lam * t**2 / 2.0)
            chart = frame.M(t)[1, 1]
            assert chart == pytest.approx(u / f, rel=1e-7, abs=1e-9)

    def test_linearization_residual(self, sphere):
        path = integrate_geodesic(sphere, PhaseState([0, -1], [1, 0]), 2.0)
        frame = jacobi_frame(path, "conjugate")
        assert frame.residual_max(n_samples=10, seed=4) < 1e-4

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

    def test_multiplicity_stable_under_threshold_change(self, sphere, sphere3):
        for m, x0, v0, tau in [
            (sphere, [0, -1], [1, 0], 2.5 * np.pi),
            (sphere3, [0, -1, 0], [1, 0, 0], 1.5 * np.pi),
        ]:
            path = integrate_geodesic(m, PhaseState(x0, v0), tau)
            a = conjugate_scan(path, theta_null=1e-6)
            b = conjugate_scan(path, theta_null=1e-7)
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

        eye = np.eye(2)
        fd_only = fbt.from_callables(
            2, "fd_sphere", lambda x: 4.0 / (1.0 + float(x @ x)) ** 2 * eye)
        rng = np.random.default_rng(11)
        for m, base, vscale in catalog_metrics() + [
            (fbt.sphere_stereo(1.0, dim=3), np.zeros(3), 1.0),
            (sphere_stereo_closed(1.0), np.array([0.3, -0.5]), 1.0),
            (fd_only, np.array([0.3, -0.5]), 1.0),
        ]:
            x = base + 0.2 * rng.normal(size=m.dim)
            v = vscale * rng.normal(size=m.dim)
            yield m, x, v

    @pytest.mark.parametrize("step", [1e-6, 3e-4])
    def test_matches_column_loop(self, step):
        # the complex step against one central difference per column at the
        # relative step `step`: the loop's truncation error goes as step^2
        # (measured 8.0e-8 at 3e-4) and its rounding as noise/step, where the
        # noise is that of the spray itself -- machine precision with
        # derivative callables (measured 6.2e-11 at 1e-6), the metric's own
        # differences without them (measured 6.8e-7 at 1e-6)
        for m, x, v in self._cases():
            noise = 2e-16 if m.has_analytic_dx else 2e-12
            bound = 2.0 * step ** 2 + noise / step
            A, B = spray_jacobians(m, x, v)
            A_ref, B_ref = spray_jacobians_loop(m, x, v, step)
            for got, ref in ((A, A_ref), (B, B_ref)):
                assert np.max(np.abs(got - ref)) <= bound * max(1.0, np.max(np.abs(ref)))

    def test_matches_sixth_order_loop(self):
        # the complex step against real central differences combined to
        # sixth order (measured at most 1.8e-13).  Without derivative
        # callables the complex step reads second differences of h where the
        # loop differences first ones (measured 5.3e-9)
        for m, x, v in self._cases():
            bound = 1e-11 if m.has_analytic_dx else 1e-7
            A, B = spray_jacobians(m, x, v)
            A_ref, B_ref = richardson_jacobians_loop(m, x, v)
            for got, ref in ((A, A_ref), (B, B_ref)):
                assert np.max(np.abs(got - ref)) <= bound * max(1.0, np.max(np.abs(ref)))

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

    def test_checks_read_the_real_part(self):
        eye = np.eye(2)
        dz = np.array([1e-30j, 0.0])
        # |beta| = 2 > 1: F = |v| + beta.v is negative along -e1
        strong = fbt.from_callables(2, "strong_wind", lambda x: eye,
                                    beta=lambda x: np.array([2.0, 0.0]),
                                    randers_check=False)
        with pytest.raises(ConvexityViolation):
            strong.F([0.0, 0.0], [-1.0, 0.0] + dz)
        # indefinite h: the quadratic part v.h.v is negative along e2
        indefinite = fbt.from_callables(2, "indefinite", lambda x: np.diag([1.0, -1.0]),
                                        beta=lambda x: np.array([0.1, 0.0]),
                                        randers_check=False)
        with pytest.raises(ConvexityViolation):
            indefinite.spray([0.0, 0.0] + dz, [0.0, 1.0])
        sphere = fbt.sphere_stereo(1.0)
        with pytest.raises(OutsideChart):
            sphere.spray([11.0, 0.0] + dz, [1.0, 0.0], validate=True)
        sphere.spray([9.0, 0.0] + dz, [1.0, 0.0], validate=True)

    def test_residual_max_matches_sample_loop(self):
        # the stacked samples of JacobiFrame.residual_max against a loop over
        # the same sample times with one spray_jacobians call each
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
                a, b = max(t - 1e-3, 0.0), min(t + 1e-3, 1.5)
                Mdd = (frame.Mdot(b) - frame.Mdot(a)) / (b - a)
                A, B = spray_jacobians(m, *frame.path.state(t))
                drive = A @ frame.M(t) + B @ frame.Mdot(t)
                worst = max(worst, np.linalg.norm(Mdd - drive) / (1.0 + np.linalg.norm(drive)))
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

    def test_finite_difference_components(self, sphere):
        # from_callables without derivative callables: the tolerance floor
        # keeps DOP853 from chasing the rounding noise of the component
        # differences, which at rtol 1e-11 takes thousands of steps
        eye = np.eye(2)
        m = fbt.from_callables(2, "fd_sphere",
                               lambda x: 4.0 / (1.0 + float(x @ x)) ** 2 * eye)
        frame = jacobi_frame(integrate_geodesic(m, PhaseState([0, -1], [1, 0]), 3.2))
        assert len(frame.ts) <= 100
        exact = jacobi_frame(integrate_geodesic(sphere, PhaseState([0, -1], [1, 0]), 3.2))
        ts = np.linspace(0.0, 3.2, 401)[1:]
        assert np.max(np.abs(frame.M(ts) - exact.M(ts))) <= 1e-6
        rep = conjugate_scan(frame.path, frame=frame)
        assert abs(rep.instants[0].t - np.pi) < 1e-6


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
    closed form sol(t) (the layout of the frame flow's dense output), so a
    scan sees no integration error."""
    path = integrate_geodesic(fbt.euclidean(n), PhaseState(np.zeros(n), np.eye(n)[0]), tau)
    return JacobiFrame(path, "conjugate", None, sol, np.array([0.0, tau]))


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
            rep = conjugate_scan(frame.path, frame=frame)
        return rep, [w.category for w in caught]

    @pytest.mark.parametrize("gap", [0.005, 0.02])
    def test_close_pair_merged_with_warning(self, gap):
        # at a gap of half a cell det M keeps its sign on the grid, and the
        # pair shares one bracket
        t2 = np.pi + gap
        rep, caught = self._scan(_diagonal_frame([1.0, np.pi / t2, 0.1]))
        assert caught == [ResolutionWarning]
        (inst,) = rep.instants
        assert inst.multiplicity == 2
        assert inst.t == pytest.approx(0.5 * (np.pi + t2), abs=1e-12)

    @pytest.mark.parametrize("gap", [0.04, 0.05, 0.06])
    def test_pair_four_to_six_cells_apart(self, gap):
        t2 = np.pi + gap
        rep, caught = self._scan(_diagonal_frame([1.0, np.pi / t2, 0.1]))
        assert caught == []
        assert [c.multiplicity for c in rep.instants] == [1, 1]
        assert abs(rep.instants[0].t - np.pi) <= 1e-12
        assert abs(rep.instants[1].t - t2) <= 1e-12

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
