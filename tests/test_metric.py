import numpy as np
import pytest

import fbt
from fbt.metric import ConvexityViolation, OutsideChart, RandersBoundError, ZeroVelocity

from _oracles import great_circle_chart, sphere_stereo_closed


def fd_hessian_half_L(m, x, v, h=1e-4):
    """Independent central-difference Hessian of F^2/2 in v (test-side oracle)."""
    n = m.dim
    x = np.asarray(x, float)
    v = np.asarray(v, float)
    out = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            vpp = v.copy(); vpp[i] += h; vpp[j] += h
            vpm = v.copy(); vpm[i] += h; vpm[j] -= h
            vmp = v.copy(); vmp[i] -= h; vmp[j] += h
            vmm = v.copy(); vmm[i] -= h; vmm[j] -= h
            out[i, j] = (m.L(x, vpp) - m.L(x, vpm) - m.L(x, vmp) + m.L(x, vmm)) / (
                8.0 * h * h
            )
    return out


class TestFEval:
    def test_euclidean(self, euclid):
        assert euclid.F([0, 0], [3, 4]) == 5.0

    def test_sphere_unit_circle_factor(self, sphere):
        # conformal factor 4/((1+1)^2) = 1 on |x| = 1
        assert sphere.F([0, -1], [1, 0]) == pytest.approx(1.0, abs=1e-15)

    def test_randers_downwind(self, randers_const):
        assert randers_const.F([0, 0], [1, 0]) == pytest.approx(1.5, abs=1e-15)

    def test_zero_velocity_rejected(self, euclid):
        with pytest.raises(ZeroVelocity):
            euclid.F([0, 0], [1e-9, 0], validate=True)

    def test_outside_chart_rejected(self, euclid):
        with pytest.raises(OutsideChart):
            euclid.F([11, 0], [1, 0], validate=True)

    def test_quadratic_kind_signed(self, minkowski):
        assert minkowski.F([0, 0], [1, 0]) == 1.0
        assert minkowski.F([0, 0], [0, 1]) == -1.0


class TestFundamentalTensor:
    def test_euclidean_identity(self, euclid):
        assert np.allclose(euclid.fundamental_tensor([0, 0], [0.3, 0.7]), np.eye(2))

    def test_randers_entry_and_fd_oracle(self, randers_const):
        g = randers_const.fundamental_tensor([0, 0], [1, 0])
        assert g[0, 0] == pytest.approx(2.25, abs=1e-12)
        fd = fd_hessian_half_L(randers_const, [0, 0], [1, 0])
        assert np.max(np.abs(g - fd)) < 1e-6

    def test_fd_oracle_on_catalog(self):
        from conftest import catalog_metrics

        rng = np.random.default_rng(2)
        for m, base, vscale in catalog_metrics():
            for _ in range(3):
                x = base + 0.2 * rng.normal(size=m.dim)
                v = vscale * rng.normal(size=m.dim)
                v /= max(np.linalg.norm(v), 0.3)
                g = m.fundamental_tensor(x, v)
                fd = fd_hessian_half_L(m, x, v)
                assert np.max(np.abs(g - fd)) < 2e-5 * max(1.0, np.max(np.abs(g)))

    def test_minkowski(self, minkowski):
        g = minkowski.fundamental_tensor([0, 0], [1, 0])
        assert np.allclose(g, np.diag([1.0, -1.0]))

    def test_convexity_guard(self):
        bad = fbt.riemannian_expr(2, [["1", "0"], ["0", "x1"]],
                                  chart_box=[[-5, 5], [-5, 5]])
        with pytest.raises(ConvexityViolation):
            bad.fundamental_tensor([-1.0, 0.0], [0.4, 1.0])


class TestSpray:
    def test_euclidean_zero(self, euclid):
        assert np.allclose(euclid.spray([1, 2], [3, -1]), 0.0)

    def test_quadratic_euclidean_zero(self):
        q = fbt.quadratic_expr(2, [["1", "0"], ["0", "1"]])
        assert np.allclose(q.spray([0.3, 0.1], [1, 2]), 0.0)

    def test_sphere_matches_great_circle(self, sphere):
        # second derivative of the closed-form chart circle at t = 0
        h = 1e-5
        acc = (
            great_circle_chart(1.0, h)
            - 2 * great_circle_chart(1.0, 0.0)
            + great_circle_chart(1.0, -h)
        ) / h**2
        spray = sphere.spray([0.0, -1.0], [1.0, 0.0])
        assert np.max(np.abs(spray - acc)) < 1e-5
        assert np.allclose(spray, [0.0, 1.0], atol=1e-10)

    def test_spray_two_homogeneous(self):
        from conftest import catalog_metrics

        rng = np.random.default_rng(3)
        for m, base, _ in catalog_metrics():
            x = base + 0.1 * rng.normal(size=m.dim)
            v = rng.normal(size=m.dim)
            v /= max(np.linalg.norm(v), 0.5)
            s1 = m.spray(x, v)
            for t in (0.5, 2.0):
                s2 = m.spray(x, t * v)
                scale = max(np.linalg.norm(s1), 1e-12)
                assert np.max(np.abs(s2 - t**2 * s1)) <= 1e-7 * t**2 * max(scale, 1.0)


class TestHomogeneityInvariants:
    @pytest.mark.parametrize("maker", [
        lambda: fbt.euclidean(2),
        lambda: fbt.sphere_stereo(1.0),
        lambda: fbt.sphere_stereo(2.0),
        lambda: fbt.randers_expr(2, [["1", "0"], ["0", "1"]], ["0.5", "0"]),
    ])
    def test_homogeneity_and_euler(self, maker):
        m = maker()
        rng = np.random.default_rng(7)
        for _ in range(200):
            x = rng.uniform(-2, 2, size=m.dim)
            v = rng.normal(size=m.dim)
            v *= rng.uniform(0.1, 3.0) / np.linalg.norm(v)
            f = m.F(x, v)
            for t in (0.5, 2.0, 7.0):
                assert abs(m.F(x, t * v) - t * f) <= 1e-9 * t * f
            g = m.fundamental_tensor(x, v)
            assert abs(float(v @ g @ v) - f * f) <= 1e-6 * f * f
            for t in (0.5, 2.0):
                g2 = m.fundamental_tensor(x, t * v)
                assert np.max(np.abs(g2 - g)) <= 1e-7 * max(1.0, np.max(np.abs(g)))


class TestCheckInvariants:
    def test_euclidean_clean(self, euclid):
        rep = euclid.check_invariants(samples=1000, seed=0)
        assert rep.passed
        assert rep.max_homogeneity_error < 1e-12

    def test_sphere_k2(self):
        rep = fbt.sphere_stereo(2.0).check_invariants(samples=1000, seed=1)
        assert rep.passed

    def test_randers_near_boundary_passes(self):
        m = fbt.randers_expr(2, [["1", "0"], ["0", "1"]], ["0.99", "0"])
        rep = m.check_invariants(samples=200, seed=2)
        assert rep.passed

    def test_randers_beyond_boundary_rejected(self):
        with pytest.raises(RandersBoundError):
            fbt.randers_expr(2, [["1", "0"], ["0", "1"]], ["1.01", "0"])


def _stack_catalog():
    """One metric of every kind, each with a base point and velocity scale."""
    import fbt.nav as nav

    z = nav.ZermeloData.from_exprs(2, [["1", "0"], ["0", "1"]],
                                   ["0.6*exp(-x1^2)", "0.1*sin(x2)"])
    s = nav.StationaryData.from_exprs(2, [["1", "0"], ["0", "1+0.1*x1^2"]],
                                      ["0.3", "0.1*x1"], f="1+0.1*x2^2")

    def h_fd(x):
        return np.array([[1.0 + 0.1 * x[1] ** 2, 0.05 * x[0]],
                         [0.05 * x[0], np.exp(-0.3 * x[0] ** 2)]])

    def beta_fd(x):
        return np.array([0.2 * np.sin(x[1]), 0.1 * np.cos(x[0])])

    return [
        fbt.euclidean(2),
        fbt.sphere_stereo(1.0),
        fbt.sphere_stereo(2.0, dim=3),
        fbt.riemannian_expr(2, [["1", "0"], ["0", "exp(-lam*x1^2)"]],
                            params={"lam": 1.3}),
        fbt.randers_expr(2, [["1+0.1*x2^2", "0.05*x1"], ["0.05*x1", "1"]],
                         ["0.3*sin(x2)", "0.2*x1*x2"],
                         chart_box=[[-1.5, 1.5], [-1.5, 1.5]]),
        fbt.quadratic_expr(2, [["1", "0"], ["0", "-(1+0.1*x1^2)"]]),
        nav.zermelo_to_randers(z),
        nav.fermat_metric(s)[0],
        fbt.from_callables(2, "fd_randers", h_fd, beta_fd,
                           chart_box=[[-2, 2], [-2, 2]]),
    ]


class TestStackedEvaluation:
    """Evaluators on a stack of states (N, n) give the per-row results."""

    @pytest.mark.parametrize("m", _stack_catalog(), ids=lambda m: f"{m.kind}-{m.dim}")
    def test_rows_equal_scalar_calls(self, m):
        rng = np.random.default_rng(5)
        X = 0.4 * rng.uniform(-1.0, 1.0, size=(6, m.dim))
        V = rng.normal(size=(6, m.dim))
        stacked = {
            "F": m.F(X, V),
            "spray": m.spray(X, V),
            "second_derivatives": np.stack(m.second_derivatives(X, V), axis=1),
        }
        assert stacked["F"].shape == (6,)
        assert stacked["spray"].shape == (6, m.dim)
        assert stacked["second_derivatives"].shape == (6, 3, m.dim, m.dim)
        for i in range(6):
            rows = {
                "F": m.F(X[i], V[i]),
                "spray": m.spray(X[i], V[i]),
                "second_derivatives": np.stack(m.second_derivatives(X[i], V[i])),
            }
            for name, want in rows.items():
                np.testing.assert_allclose(stacked[name][i], want, rtol=1e-13,
                                           atol=1e-14, err_msg=name)

    def test_scalar_call_keeps_scalar_shape(self, randers_const):
        assert np.shape(randers_const.F([0, 0], [1, 0])) == ()
        assert randers_const.spray([0, 0], [1, 0]).shape == (2,)

    @pytest.mark.parametrize("case", [
        # q <= 0: an indefinite h makes F fail
        ("convexity", lambda: fbt.riemannian_expr(2, [["1", "0"], ["0", "x1"]]),
         [-1.0, 0.0], [0.4, 1.0]),
        # F = sqrt(q) + b <= 0 with q > 0: a one-form of norm 2 at x1 = 1
        ("F_not_positive", lambda: fbt.from_callables(
            2, "randers", lambda x: np.eye(2), lambda x: np.array([2.0 * x[0], 0.0]),
            randers_check=False), [1.0, 0.0], [-1.0, 0.0]),
        # h degenerate at x1 = 0: the vertical Hessian is singular
        ("singular", lambda: fbt.riemannian_expr(2, [["1", "0"], ["0", "x1^2"]]),
         [0.0, 0.3], [1.0, 0.5]),
        # the compiled bundle leaves the domain of log
        ("domain", lambda: fbt.riemannian_expr(2, [["1", "0"], ["0", "2+log(x1)"]]),
         [-1.0, 0.0], [1.0, 0.5]),
    ], ids=lambda c: c[0])
    def test_bad_row_raises_like_scalar_call(self, case):
        _, make, x_bad, v_bad = case
        m = make()
        X = np.array([[0.5, 0.2], [0.7, -0.1], x_bad, [0.6, 0.4]])
        V = np.array([[1.0, 0.3], [0.2, 1.0], v_bad, [-0.5, 0.8]])
        raised = 0
        for name in ("F", "spray", "second_derivatives"):
            fn = getattr(m, name)
            for i in (0, 1, 3):
                fn(X[i], V[i])  # the good rows evaluate
            try:
                fn(np.array(x_bad), np.array(v_bad))
            except Exception as exc:  # noqa: BLE001 - the class is the oracle
                raised += 1
                with pytest.raises(type(exc)):
                    fn(X, V)
            else:
                fn(X, V)
        assert raised > 0


class TestSphereExpressionBuild:
    """sphere_stereo on the compiled expression bundle against the
    hand-derived component callables of _oracles.sphere_stereo_closed."""

    @pytest.mark.parametrize("dim", [2, 3])
    def test_matches_closed_forms(self, dim):
        rng = np.random.default_rng(5)
        for K in (1.0, 2.0):
            m = fbt.sphere_stereo(K, dim=dim)
            ref = sphere_stereo_closed(K, dim)
            x = rng.uniform(-2.0, 2.0, size=(6, dim))
            v = rng.normal(size=(6, dim))
            for xi in x:
                got, want = m._c.stack(xi, 2), ref._c.stack(xi, 2)
                for a, b in zip(got[::2], want[::2]):  # h, dh, d2h
                    assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))
            pairs = [(m.spray(x, v), ref.spray(x, v))]
            pairs += zip(m.second_derivatives(x, v), ref.second_derivatives(x, v))
            for a, b in pairs:
                assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))
