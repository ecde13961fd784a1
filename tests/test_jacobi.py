import numpy as np
import pytest

import fbt
from fbt.geoflow import BoundaryData, integrate_geodesic
from fbt.jacobi import (
    NotPerpendicular,
    conjugate_scan,
    expmap_jacobian,
    focal_scan,
    jacobi_frame,
    spray_jacobians,
)
from fbt.metric import PhaseState

from _oracles import expmap_fd, jacobi_scalar, spray_jacobians_loop, warped_metric


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


class TestExpmapJacobian:
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
        for m, base, vscale in catalog_metrics() + [(fbt.sphere_stereo(1.0, dim=3),
                                                      np.zeros(3), 1.0)]:
            x = base + 0.2 * rng.normal(size=m.dim)
            v = vscale * rng.normal(size=m.dim)
            yield m, x, v

    @pytest.mark.parametrize("step", [1e-6, 3e-4])
    def test_matches_column_loop(self, step):
        for m, x, v in self._cases():
            A, B = spray_jacobians(m, x, v, step)
            A_ref, B_ref = spray_jacobians_loop(m, x, v, step)
            for got, ref in ((A, A_ref), (B, B_ref)):
                assert np.max(np.abs(got - ref)) <= 1e-9 * max(1.0, np.max(np.abs(ref)))

    def test_stack_of_states(self):
        for m, x, v in self._cases():
            X = x + 0.1 * np.arange(3)[:, None]
            V = v * (1.0 + 0.2 * np.arange(3))[:, None]
            A, B = spray_jacobians(m, X, V, 1e-6)
            assert A.shape == B.shape == (3, m.dim, m.dim)
            for i in range(3):
                Ai, Bi = spray_jacobians(m, X[i], V[i], 1e-6)
                np.testing.assert_allclose(A[i], Ai, rtol=1e-12, atol=1e-12)
                np.testing.assert_allclose(B[i], Bi, rtol=1e-12, atol=1e-12)

    def test_residual_max_matches_sample_loop(self):
        # the stacked samples of JacobiFrame.residual_max against a loop over
        # the same sample times with one scalar evaluation each
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
                A, B = spray_jacobians_loop(m, *frame.path.state(t), frame.fd_step)
                drive = A @ frame.M(t) + B @ frame.Mdot(t)
                worst = max(worst, np.linalg.norm(Mdd - drive) / (1.0 + np.linalg.norm(drive)))
            assert frame.residual_max() == pytest.approx(worst, rel=1e-12)
