import itertools
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import fbt
from fbt.cli import _jsonable
from fbt.errors import ConfigError
from fbt import expr
from fbt.expr import DomainError
from fbt.metric import (_ORDER, COMPLEX_STEP, ConvexityViolation,
                        OutsideChart, RandersBoundError, SingularVerticalHessian,
                        ZeroVelocity, _kernel, _kernel_source, _outputs, _template)

from fbt.jacobi import spray_jacobians

from conftest import locally_constant
from _oracles import (frame_rhs_broadcast, great_circle_chart, invariants_loop,
                      sphere_stereo_closed, spray_jacobians_broadcast,
                      template_evaluators)


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
            euclid._check([0, 0], [1e-9, 0])

    def test_outside_chart_rejected(self, euclid):
        with pytest.raises(OutsideChart):
            euclid._check([11, 0], [1, 0])

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


def _bound_outcome(check, *args):
    try:
        return check(*args)
    except RandersBoundError as exc:
        return type(exc), str(exc)


class TestRandersBoundCheck:
    """The batched sampled bound check against one solve per sample."""

    @pytest.mark.parametrize("h, beta, box", [
        ([["1", "0"], ["0", "exp(-x1^2)"]], ["0.2*exp(-x2^2)", "0"], None),
        ([["1", "0.1*x2"], ["0.1*x2", "2+sin(x1)"]], ["0.3*cos(x1)", "0.2"], None),
        ([["1", "0"], ["0", "1"]], ["x1/10", "0"], None),  # reaches 1 at the box edge
        ([["x1", "0"], ["0", "1"]], ["0.1", "0"], [[0, 1], [0, 1]]),
        ([["x1", "0"], ["0", "1"]], ["0.1", "0"], [[-1, 1], [-1, 1]]),  # singular h
        ([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1+x3^2"]],
         ["0.1*x1", "0.2", "0.3*x2"], [[-2, 2]] * 3),
    ])
    @pytest.mark.usefixtures("no_randers_check")
    def test_matches_per_sample_formula(self, h, beta, box, monkeypatch):
        from _oracles import randers_bound_per_sample
        from fbt.metric import _check_randers_bound

        m = fbt.randers_expr(len(h), h, beta, chart_box=box)
        got = _bound_outcome(_check_randers_bound, m)
        assert got == _bound_outcome(randers_bound_per_sample, m)
        for n_check, seed in ((3, 1), (500, 2)):
            monkeypatch.setattr(fbt.metric, "RANDERS_CHECK_SAMPLES", n_check)
            monkeypatch.setattr(fbt.metric, "RANDERS_CHECK_SEED", seed)
            assert (_bound_outcome(_check_randers_bound, m)
                    == _bound_outcome(randers_bound_per_sample, m))

    @pytest.mark.usefixtures("no_randers_check")
    def test_singular_h_names_the_point(self):
        from fbt.metric import _check_randers_bound

        m = locally_constant(
            2, "randers",
            lambda x: np.diag([0.0, 1.0]) if x[1] > 0.5 else np.eye(2),
            lambda x: np.array([0.1, 0.0]),
            chart_box=[[-1, 1], [-1, 1]])
        with pytest.raises(RandersBoundError, match=r"h singular at sampled point \["):
            _check_randers_bound(m)


class TestFromCallables:
    @pytest.mark.parametrize("given, oneform, missing", [
        (("dh",), False, "d2h"),
        (("dh", "d2h", "d2beta"), True, "dbeta"),
        ((), True, "dh, d2h, dbeta, d2beta"),
    ])
    def test_missing_derivatives_named(self, given, oneform, missing):
        shapes = {"dh": (2, 2, 2), "d2h": (2, 2, 2, 2), "dbeta": (2, 2),
                  "d2beta": (2, 2, 2)}
        derivs = {k: (lambda x, s=shapes[k]: np.zeros(s)) for k in given}
        beta = (lambda x: np.array([0.1, 0.0])) if oneform else None
        with pytest.raises(ConfigError) as exc:
            fbt.from_callables(2, "randers", lambda x: np.eye(2), beta, **derivs)
        assert f"callables {missing};" in str(exc.value)
        assert "randers_expr" in str(exc.value)


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

    def dh_fd(x):
        out = np.zeros((2, 2, 2))
        out[0] = [[0.0, 0.05], [0.05, -0.6 * x[0] * np.exp(-0.3 * x[0] ** 2)]]
        out[1, 0, 0] = 0.2 * x[1]
        return out

    def d2h_fd(x):
        out = np.zeros((2, 2, 2, 2))
        out[0, 0, 1, 1] = (0.36 * x[0] ** 2 - 0.6) * np.exp(-0.3 * x[0] ** 2)
        out[1, 1, 0, 0] = 0.2
        return out

    def beta_fd(x):
        return np.array([0.2 * np.sin(x[1]), 0.1 * np.cos(x[0])])

    def dbeta_fd(x):
        return np.array([[0.0, -0.1 * np.sin(x[0])], [0.2 * np.cos(x[1]), 0.0]])

    def d2beta_fd(x):
        out = np.zeros((2, 2, 2))
        out[0, 0, 1] = -0.1 * np.cos(x[0])
        out[1, 1, 0] = -0.2 * np.sin(x[1])
        return out

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
        fbt.from_callables(2, "fd_randers", h_fd, beta_fd, dh=dh_fd, d2h=d2h_fd,
                           dbeta=dbeta_fd, d2beta=d2beta_fd,
                           chart_box=[[-2, 2], [-2, 2]]),
        locally_constant(2, "constant_callables",
                         lambda x: np.array([[2.0, 0.3], [0.3, 1.0]])),
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
            "fundamental_tensor": m.fundamental_tensor(X, V),
        }
        assert stacked["F"].shape == (6,)
        assert stacked["spray"].shape == (6, m.dim)
        assert stacked["second_derivatives"].shape == (6, 3, m.dim, m.dim)
        assert stacked["fundamental_tensor"].shape == (6, m.dim, m.dim)
        for i in range(6):
            rows = {
                "F": m.F(X[i], V[i]),
                "spray": m.spray(X[i], V[i]),
                "second_derivatives": np.stack(m.second_derivatives(X[i], V[i])),
                "fundamental_tensor": m.fundamental_tensor(X[i], V[i]),
            }
            for name, want in rows.items():
                np.testing.assert_allclose(stacked[name][i], want, rtol=1e-13,
                                           atol=1e-14, err_msg=name)

    @pytest.mark.parametrize("m", _stack_catalog(), ids=lambda m: f"{m.kind}-{m.dim}")
    def test_empty_stack(self, m):
        n = m.dim
        for lead in ((0,), (0, 3), (3, 0)):
            z = np.zeros(lead + (n,))
            m._check(z, z)
            assert m.F(z, z).shape == lead
            assert m.spray(z, z).shape == lead + (n,)
            for d2 in m.second_derivatives(z, z):
                assert d2.shape == lead + (n, n)
        for order in range(3):
            for k, block in enumerate(m._c.stack(np.zeros((0, n)), order)):
                rank = k // 2 + 2 - k % 2  # as in test_component_stack_equals_per_point
                assert block is None or block.shape == (0,) + (n,) * rank

    @pytest.mark.parametrize("dim", [2, 3])
    def test_empty_complex_stack(self, dim):
        # a complex-step stack of no states has the real stack's shapes
        m = fbt.sphere_stereo(1.0, dim=dim)
        for lead in ((0,), (0, 3), (3, 0)):
            z, zc = np.zeros(lead + (dim,)), np.zeros(lead + (dim,), complex)
            for x, v in ((zc, z), (z, zc)):
                spray, L = m.spray(x, v), m.L(x, v)
                assert spray.shape == lead + (dim,) and spray.dtype == complex
                assert L.shape == lead and L.dtype == complex

    @pytest.mark.parametrize("m", _stack_catalog(), ids=lambda m: f"{m.kind}-{m.dim}")
    def test_component_stack_equals_per_point(self, m):
        # stack cuts the flat tuples of a stack of points as of each point
        X = 0.4 * np.random.default_rng(6).uniform(-1.0, 1.0, size=(5, m.dim))
        for order in range(3):
            stacked = m._c.stack(X, order)
            points = [m._c.stack(x, order) for x in X]
            assert len(stacked) == 2 * order + 2
            for k, got in enumerate(stacked):
                if got is None:
                    assert not m._c.oneform and k % 2
                    assert all(p[k] is None for p in points)
                    continue
                # block k: derivative order k // 2 of h (k even) or beta
                rank = k // 2 + 2 - k % 2
                want = np.array([p[k] for p in points])
                assert got.shape == want.shape == (5,) + (m.dim,) * rank
                assert got.tobytes() == want.tobytes()

    def test_scalar_call_keeps_scalar_shape(self, randers_const):
        assert np.shape(randers_const.F([0, 0], [1, 0])) == ()
        assert randers_const.spray([0, 0], [1, 0]).shape == (2,)

    @pytest.mark.parametrize("case", [
        # q <= 0: an indefinite h makes F fail
        ("convexity", lambda: fbt.riemannian_expr(2, [["1", "0"], ["0", "x1"]]),
         [-1.0, 0.0], [0.4, 1.0]),
        # F = sqrt(q) + b <= 0 with q > 0: a one-form of norm 2 at x1 = 1
        ("F_not_positive", lambda: locally_constant(
            2, "randers", lambda x: np.eye(2), lambda x: np.array([2.0 * x[0], 0.0]),
            [[2.0, 0.0], [0.0, 0.0]]), [1.0, 0.0], [-1.0, 0.0]),
        # h degenerate at x1 = 0: the vertical Hessian is singular
        ("singular", lambda: fbt.riemannian_expr(2, [["1", "0"], ["0", "x1^2"]]),
         [0.0, 0.3], [1.0, 0.5]),
        # the compiled bundle leaves the domain of log
        ("domain", lambda: fbt.riemannian_expr(2, [["1", "0"], ["0", "2+log(x1)"]]),
         [-1.0, 0.0], [1.0, 0.5]),
    ], ids=lambda c: c[0])
    @pytest.mark.usefixtures("no_randers_check")
    def test_bad_row_raises_like_scalar_call(self, case):
        _, make, x_bad, v_bad = case
        m = make()
        X = np.array([[0.5, 0.2], [0.7, -0.1], x_bad, [0.6, 0.4]])
        V = np.array([[1.0, 0.3], [0.2, 1.0], v_bad, [-0.5, 0.8]])
        raised = 0
        for name in ("F", "spray", "second_derivatives", "fundamental_tensor"):
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


# a 4-D metric: the spray's np.linalg.solve path
G4 = [["1+0.1*x2^2", "0.05*x1", "0", "0"], ["0.05*x1", "1", "0", "0.1*x3"],
      ["0", "0", "exp(-x1^2)", "0"], ["0", "0.1*x3", "0", "2+sin(x4)"]]


def _kernel_catalog():
    """_stack_catalog, a 4-D metric and a 3-D indefinite quadratic kind."""
    return _stack_catalog() + [
        fbt.riemannian_expr(4, G4),
        fbt.quadratic_expr(3, [["1", "0", "0"], ["0", "-1", "0.1*x1"],
                               ["0", "0.1*x1", "1+x3^2"]]),
    ]


EVALUATORS = ("F", "L", "spray", "second_derivatives", "dvL", "dvvL")


class TestGeneratedKernel:
    """Every evaluator of the generated kernel against the hand-written
    broadcasting formulas of _oracles.template_evaluators."""

    @staticmethod
    def _states(m):
        rng = np.random.default_rng(11)
        n, h = m.dim, COMPLEX_STEP
        X = 0.4 * rng.uniform(-1.0, 1.0, size=(5, n))
        V = rng.normal(size=(5, n))
        step = lambda: 1j * h * rng.normal(size=(5, n))
        return {
            "one real state": (X[0], V[0]),
            "real stack": (X, V),
            "complex rows sharing a real part": (X[0] + step(), V + step()),
            "complex rows with their own real parts": (X + step(), V + step()),
        }

    @pytest.mark.parametrize("m", _kernel_catalog(), ids=lambda m: f"{m.kind}-{m.dim}")
    def test_matches_template_oracle(self, m):
        oracle = template_evaluators(m)
        for case, (x, v) in self._states(m).items():
            for name in EVALUATORS:
                if np.iscomplexobj(x) and name == "second_derivatives":
                    continue  # real states only
                got = getattr(m, name)(x, v)
                if name == "second_derivatives":
                    got = np.stack(got, axis=-3)
                want = oracle[name](x, v)
                assert got.shape == want.shape, (case, name)
                for part in (np.real, np.imag):
                    err = np.max(np.abs(part(got) - part(want)))
                    assert err <= 1e-13 * np.max(np.abs(part(want))), (
                        case, name, part.__name__, err)

    def test_complex_second_derivatives_rejected(self, randers_const):
        with pytest.raises(TypeError):
            randers_const.second_derivatives([0.0, 1e-30j], [1.0, 0.0])

    def test_import_generates_nothing(self):
        code = ("import sys, fbt; from fbt import metric; "
                "assert 'sympy' not in sys.modules; "
                "assert metric._kernel.cache_info().currsize == 0; "
                "assert metric._template.cache_info().currsize == 0")
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src), timeout=120)
        assert out.returncode == 0, out.stderr


def _frame_stack(x, v):
    """The 2n complex states of a Jacobi-frame linearization at (x, v)."""
    n = len(x)
    dz = 1j * COMPLEX_STEP * np.eye(n)
    zero = np.zeros((n, n))
    return (np.asarray(x, float) + np.concatenate([dz, zero]),
            np.asarray(v, float) + np.concatenate([zero, dz]))


class TestKernelErrors:
    """The checks of the generated kernel raise the library's errors on
    one real state and on complex-step stacks."""

    @pytest.mark.parametrize("dim", [2, 4])
    def test_singular_vertical_hessian(self, dim):
        # h degenerate at x1 = 0: Cramer's rule in 2-D, np.linalg.solve in 4-D
        g = [["1" if i == j else "0" for j in range(dim)] for i in range(dim)]
        g[-1][-1] = "x1^2"
        m = fbt.riemannian_expr(dim, g)
        x = np.full(dim, 0.3)
        x[0] = 0.0
        v = np.linspace(1.0, 0.5, dim)
        for args in [(x, v), _frame_stack(x, v)]:
            with pytest.raises(SingularVerticalHessian):
                m.spray(*args)

    @pytest.mark.usefixtures("no_randers_check")
    def test_convexity_under_complex_step(self):
        eye = np.eye(2)
        strong = locally_constant(2, "strong_wind", lambda x: eye,
                                  lambda x: np.array([2.0, 0.0]))
        indefinite = locally_constant(2, "indefinite", lambda x: np.diag([1.0, -1.0]),
                                      lambda x: np.array([0.1, 0.0]))
        # F = |v| + beta.v = -1 along -e1, q = v.h.v = -1 along e2
        for m, name, v in [(strong, "F", [-1.0, 0.0]),
                           (indefinite, "spray", [0.0, 1.0]),
                           (indefinite, "F", [0.0, 1.0])]:
            with pytest.raises(ConvexityViolation):
                getattr(m, name)(*_frame_stack([0.2, 0.1], v))

    def test_domain_error_propagates(self):
        m = fbt.riemannian_expr(2, [["1", "0"], ["0", "2+log(x1)"]])
        x, v = np.array([-1.0, 0.0]), np.array([1.0, 0.5])
        cases = [(x, v), (np.stack([x + 2.0, x]), np.stack([v, v])), _frame_stack(x, v)]
        for args in cases:
            for name in ("F", "spray"):
                with pytest.raises(DomainError):
                    getattr(m, name)(*args)
        with pytest.raises(DomainError):
            m.second_derivatives(*cases[1])


def _shooting_state(x, v):
    """The flat start state (x, v, 0, I) of endpoint_jacobian's flow."""
    n = len(x)
    return np.concatenate([x, v, np.zeros(n * n), np.eye(n).ravel()])


def _flow_states(x, v, rng=None):
    """One state of each layout of the flow right-hand sides: the geodesic
    (x, v), a frame on n - 1 columns and shooting on n (random columns with
    J != 0 given rng, else M = 0 and M' the first unit vectors), and the
    shooting start."""
    n = len(x)
    cols = lambda c: (rng.normal(size=2 * n * c) if rng is not None
                      else np.r_[np.zeros(n * c), np.eye(n)[:, :c].ravel()])
    return [np.concatenate([x, v])] + [np.concatenate([x, v, cols(c)])
                                       for c in (n - 1, n)] + [_shooting_state(x, v)]


def _columns(m, state):
    """The number of (M, M') columns a flow state carries."""
    return len(state) // (2 * m.dim) - 1


class TestComplexStep:
    """The flow right-hand sides (the geodesic's, and the variational one on
    frame and shooting columns) and spray_jacobians, the list-level caller
    of MetricField.complex_step, equal the broadcast formulas of _oracles
    bit for bit, and the kernel and jet errors reach them."""

    @staticmethod
    def _cases():
        from conftest import catalog_metrics

        rng = np.random.default_rng(17)
        for m, base, vscale in catalog_metrics() + [
            (fbt.sphere_stereo(1.0, dim=3), np.zeros(3), 1.0),
        ]:
            x = base + 0.2 * rng.normal(size=m.dim)
            v = vscale * rng.normal(size=m.dim)
            yield m, x, v, rng

    def test_frame_rhs_matches_broadcast(self):
        for m, x, v, rng in self._cases():
            for state in _flow_states(x, v, rng):
                got = m._flow_rhs(_columns(m, state))(0.0, state)
                want = frame_rhs_broadcast(m, state)
                assert got.dtype == want.dtype == float
                assert got.tobytes() == want.tobytes()
            want = np.concatenate([v, m.spray(x, v)])
            assert m._flow_rhs(0)(0.0, np.concatenate([x, v])).tobytes() == want.tobytes()

    def test_spray_jacobians_match_broadcast(self):
        for m, x, v, rng in self._cases():
            X = x + 0.05 * rng.normal(size=(2, 3, m.dim))
            V = v + 0.05 * rng.normal(size=(2, 3, m.dim))
            for args in ((x, v), (X[0], V[0]), (X, V)):
                got, want = spray_jacobians(m, *args), spray_jacobians_broadcast(m, *args)
                for g, w in zip(got, want):
                    assert g.shape == w.shape == args[0].shape + (m.dim,)
                    np.testing.assert_array_equal(g, w)

    @pytest.mark.usefixtures("no_randers_check")
    def test_errors_propagate(self):
        eye = np.eye(2)
        strong = locally_constant(2, "strong_wind", lambda x: eye,
                                  lambda x: np.array([2.0, 0.0]))
        indefinite = locally_constant(2, "indefinite", lambda x: np.diag([1.0, -1.0]),
                                      lambda x: np.array([0.1, 0.0]))
        singular = fbt.riemannian_expr(2, [["1", "0"], ["0", "x1^2"]])
        logarithm = fbt.riemannian_expr(2, [["1", "0"], ["0", "2+log(x1)"]])
        step = [([1e-30, 0.0], [0.0, 1.0]), ([0.0, 0.0], [0.0, 1.0 + 1e-30j])]
        # F = |v| + beta.v = -1 along -e1
        with pytest.raises(ConvexityViolation):
            strong.complex_step("F", [0.2, 0.1], [([1e-30, 0.0], [-1.0, 0.0])])
        # q = v.h.v = -1 along e2, under F and under the spray
        with pytest.raises(ConvexityViolation):
            indefinite.complex_step("F", [0.2, 0.1], step)
        cases = [(indefinite, [0.2, 0.1], ConvexityViolation),
                 (singular, [0.0, 0.3], SingularVerticalHessian),
                 (logarithm, [-1.0, 0.0], DomainError)]
        for m, x, err in cases:
            with pytest.raises(err):
                m.complex_step("spray", x, step)
            with pytest.raises(err):
                spray_jacobians(m, np.array(x), np.array([0.3, 1.0]))
            for state in _flow_states(np.array(x), np.array([0.3, 1.0])):
                with pytest.raises(err):
                    m._flow_rhs(_columns(m, state))(0.0, state)

    def test_second_order_entries_rejected(self, randers_const):
        with pytest.raises(TypeError):
            randers_const.complex_step("second_derivatives", [0.0, 0.0],
                                       [([1e-30, 0.0], [1.0, 0.0])])


def _conformal_callables(dim):
    """from_callables with h = rho I, rho = 1 / (1 + |x|^2 / 4)."""
    eye = np.eye(dim)

    def h(x):
        return eye / (1.0 + 0.25 * float(x @ x))

    def dh(x):
        s = 1.0 + 0.25 * float(x @ x)
        return (-0.5 * np.asarray(x, float) / s**2)[:, None, None] * eye

    def d2h(x):
        s = 1.0 + 0.25 * float(x @ x)
        d2 = -0.5 * eye / s**2 + 0.5 * np.outer(x, x) / s**3
        return d2[:, :, None, None] * eye

    return fbt.from_callables(dim, "from_callables", h, dh=dh, d2h=d2h)


def _zero_catalog(dim):
    """One metric of every catalog kind in the given dimension, most with
    structural zeros: off-diagonal entries, constant entries, zero one-form
    and wind components."""
    import fbt.nav as nav

    def eye():
        return [["1" if i == j else "0" for j in range(dim)] for i in range(dim)]

    warp = eye()
    warp[-1][-1] = "exp(-lam*x1^2)"
    g = eye()
    g[0][0] = f"1+0.1*x{dim}^2"
    if dim > 1:
        g[0][1] = g[1][0] = "0.05*x1"
    h = eye()
    h[0][0] = "1+0.1*x1^2"
    pad = ["0"] * (dim - 1)
    z = nav.ZermeloData.from_exprs(dim, eye(), ["0.4*exp(-x1^2)"] + pad)
    z_const = nav.ZermeloData.from_exprs(dim, eye(), ["0.3"] + pad)
    s = nav.StationaryData.from_exprs(dim, warp, ["0.3"] + pad, f=f"1+0.1*x{dim}^2",
                                      params={"lam": 0.5})
    return [
        ("euclidean", fbt.euclidean(dim)),
        ("sphere_stereo", fbt.sphere_stereo(1.3, dim=dim)),
        ("warped", fbt.riemannian_expr(dim, warp, params={"lam": 1.3})),
        ("riemannian_expr", fbt.riemannian_expr(dim, g)),
        ("randers", fbt.randers_expr(dim, h, ["0.3*sin(x1)"] + pad)),
        ("zermelo", nav.zermelo_to_randers(z)),
        ("zermelo_constant", nav.zermelo_to_randers(z_const)),
        ("fermat", nav.fermat_metric(s)[0]),
        ("from_callables", _conformal_callables(dim)),
    ]


def _zero_cases():
    return [(dim, kind, m) for dim in (1, 2, 3, 4) for kind, m in _zero_catalog(dim)]


class TestStructuralZeros:
    """Kernels generated without a metric's structural zeros against the
    generic kernel (the empty zero set): every output the same bit for
    bit.  The one exception is the sign of an output that is itself zero:
    dropping a term that is exactly zero can turn -0.0 into 0.0 or back."""

    @staticmethod
    def _both(m, entry, mode, *args):
        comps, order = m._c, _ORDER[entry] + (mode == "lifted")
        v0 = args[-1][0]  # a float or, in a stack, a row of every state
        dtype = complex if mode == "lifted" else float  # as complex_step reads
        return [np.array(np.broadcast_arrays(
                    *_kernel(m.dim, comps.oneform, entry, mode, zeros)(*args), v0)[:-1], dtype)
                for zeros in (comps.zeros(order), frozenset())]

    @staticmethod
    def _assert_bits(got, want, what):
        """got and want have the same bits but where both are zeros;
        complex arrays are read as their (real, imag) float pairs."""
        g, w = (np.ascontiguousarray(a).view(np.float64) for a in (got, want))
        assert g.shape == w.shape, what
        differ = g.view(np.uint64) != w.view(np.uint64)
        assert not np.any(differ & ((g != 0) | (w != 0))), what

    @pytest.mark.parametrize("dim, kind, m", _zero_cases(),
                             ids=lambda c: c if isinstance(c, str) else None)
    def test_specialized_equals_generic(self, dim, kind, m):
        rng = np.random.default_rng(dim)
        comps = m._c
        if kind == "from_callables":
            assert comps.zeros(2) == frozenset()
        n = m.dim
        for entry, order in _ORDER.items():
            for _ in range(4):
                x = 0.3 * rng.uniform(-1.0, 1.0, size=n)
                v = rng.normal(size=n)
                args = (comps.bundle(order)(x.tolist()), v.tolist())
                got, want = self._both(m, entry, "real", *args)
                self._assert_bits(got, want, (entry, "real"))
                X = x + 0.05 * rng.normal(size=(3, n))
                V = v + 0.1 * rng.normal(size=(3, n))
                args = (comps.columns(X, order), np.ascontiguousarray(V.T))
                got, want = self._both(m, entry, "stack", *args)
                self._assert_bits(got, want, (entry, "stack"))
                if order == 2:
                    continue  # real states only
                c = comps.bundle(order + 1)(x.tolist())
                for y, u in [(COMPLEX_STEP * rng.normal(size=n), v),
                             (np.zeros(n), v + 1j * COMPLEX_STEP * rng.normal(size=n)),
                             (np.zeros(n), v)]:
                    got, want = self._both(m, entry, "lifted", c, y.tolist(), u.tolist())
                    self._assert_bits(got, want, (entry, "lifted"))

    def test_only_zero_signs_move(self):
        """The exception is real: the generic Euclidean dxvL (the middle
        block of second_derivatives) sums 0 * v_k, which is -0.0 when every
        v_k < 0; the specialized kernel returns the literal 0.0."""
        m = fbt.euclidean(2)
        got, want = (a[4:8] for a in self._both(
            m, "second_derivatives", "real", m._c.bundle(2)([0.1, 0.2]), [-1.0, -0.5]))
        assert not np.any(got) and not np.any(want)
        assert np.all(np.signbit(want)) and not np.any(np.signbit(got))
        self._assert_bits(got, want, "dxvL")
        with pytest.raises(AssertionError):
            self._assert_bits(got + 1e-300, want, "dxvL")

    def test_zeros_read_off_the_bundle(self):
        """The 3-D sphere's zeros are its off-diagonal entries and their
        derivatives; a constant entry's derivatives are zeros too."""
        sphere = fbt.sphere_stereo(1.0, dim=3)
        off = [f"h_{i}_{j}" for i, j in ((0, 1), (0, 2), (1, 2))]
        want = {p + "".join(f"_d{k}" for k in ks) for p in off
                for r in range(3) for ks in itertools.combinations_with_replacement(range(3), r)}
        assert sphere._c.zeros(2) == want
        assert sphere._c.zeros(0) == set(off)
        warped = fbt.riemannian_expr(2, [["1", "0"], ["0", "exp(-x1^2)"]])
        assert {"h_0_0_d0", "h_0_0_d1", "h_1_1_d1"} <= warped._c.zeros(1)
        assert "h_1_1_d0" not in warped._c.zeros(1)

    def test_template_names_no_zero(self):
        """A template built with a metric's zeros names none of them, in any
        derivative: the 3-D sphere's off-diagonal entries, and a constant
        wind's every derivative and zero one-form components."""
        import fbt.nav as nav

        eye = [["1" if i == j else "0" for j in range(3)] for i in range(3)]
        z = nav.ZermeloData.from_exprs(3, eye, ["0.3", "0", "0"])
        for m in (fbt.sphere_stereo(1.0, dim=3), nav.zermelo_to_randers(z)):
            zeros = m._c.zeros(2)
            named = []
            for t in (_template(3, m._c.oneform, zeros), _template(3, m._c.oneform, frozenset())):
                trees = [t.q, t.F, t.L, *t.dvL, *t.rhs, *_outputs(t, "second_derivatives")]
                named.append(set().union(*map(expr.names, trees)))
            assert not named[0] & zeros
            assert zeros <= named[1]

    def test_specialized_source_reads_no_zero(self):
        m = fbt.sphere_stereo(1.0, dim=3)
        for lifted in (False, True):
            zeros = m._c.zeros(1 + lifted)
            src = _kernel_source(3, False, "spray", lifted, zeros)
            generic = _kernel_source(3, False, "spray", lifted, frozenset())
            body = src.splitlines()[2:]  # past the unpacking of c
            assert not any(re.search(rf"\b{z}\b", line) for z in zeros for line in body)
            assert len(src.splitlines()) < len(generic.splitlines())

    def test_lifted_kernel_with_nothing_to_lift(self):
        """Every component of the Euclidean metric is constant: the lifted
        prologue is empty, and the spray is a literal zero."""
        m = fbt.euclidean(2)
        src = _kernel_source(2, False, "spray", True, m._c.zeros(2))
        assert "if y" not in src and "1j" not in src
        out = m.complex_step("spray", [0.1, 0.2], [([1e-30, 0.0], [1.0, 0.5]),
                                                     ([0.0, 0.0], [1.0, 0.5 + 1e-30j])])
        assert out.shape == (2, 2) and not np.any(out)

    @pytest.mark.parametrize("entry", ["spray", "second_derivatives"])
    def test_stack_broadcasts_literal_outputs(self, entry):
        """Literal outputs of a stack kernel stand for every row: the dxvL
        block of a diagonal metric's second derivatives and the spray of a
        constant wind."""
        import fbt.nav as nav

        z = nav.ZermeloData.from_exprs(2, [["1", "0"], ["0", "1"]], ["0.3", "0"])
        rng = np.random.default_rng(3)
        X, V = 0.3 * rng.normal(size=(5, 2)), rng.normal(size=(5, 2))
        for literal, m in [(True, fbt.euclidean(2)), (True, nav.zermelo_to_randers(z)),
                           (False, fbt.riemannian_expr(2, [["1", "0"], ["0", "exp(-x1^2)"]]))]:
            src = _kernel_source(2, m._c.oneform, entry, False, m._c.zeros(_ORDER[entry]))
            assert not literal or re.search(r"return \(.*\b0\.0,", src), src
            got = getattr(m, entry)(X, V)
            rows = [getattr(m, entry)(X[i], V[i]) for i in range(5)]
            if entry == "second_derivatives":
                got, rows = np.stack(got, axis=1), [np.stack(r) for r in rows]
            assert got.shape == (5,) + np.shape(rows[0])
            np.testing.assert_array_equal(got, np.array(rows))

    def test_solve_accepts_literal_entries(self):
        """At dim 4 the spray solves H a = r by np.linalg.solve; a diagonal
        metric's H has literal zeros beside the stack's arrays."""
        m = fbt.sphere_stereo(1.0, dim=4)
        src = _kernel_source(4, False, "spray", False, m._c.zeros(1))
        assert "0.0, " in src.split("_solve(")[1]
        rng = np.random.default_rng(4)
        X, V = 0.3 * rng.normal(size=(5, 4)), rng.normal(size=(5, 4))
        stacked = m.spray(X, V)
        np.testing.assert_array_equal(stacked, [m.spray(x, v) for x, v in zip(X, V)])
        c = m._c.bundle(2)(X[0].tolist())
        for y, u in zip(*_frame_stack(np.zeros(4), V[0])):
            y, u = y.imag.tolist(), u.tolist()
            np.testing.assert_array_equal(
                m.complex_step("spray", X[0].tolist(), [(y, u)])[0],
                _kernel(4, False, "spray", "lifted", frozenset())(c, y, u))

    @pytest.mark.parametrize("make", [lambda: fbt.sphere_stereo(1.0, dim=4),
                                      lambda: fbt.riemannian_expr(4, G4)],
                             ids=["sphere_stereo", "riemannian_expr"])
    def test_frame_rows_read_the_real_spray(self, make):
        """At dim 4 the real part of every complex-step frame row is the
        real spray bit for bit, as Cramer's rule gives it up to dim 3, so a
        variational flow integrates integrate_geodesic's geodesic."""
        m, h = make(), COMPLEX_STEP
        rng = np.random.default_rng(5)
        for _ in range(30):
            x, v = 0.3 * rng.normal(size=4), rng.normal(size=4)
            M, Md = rng.normal(size=(2, 4, 4))
            rows = [((h * M[:, j]).tolist(), (v + 1j * h * Md[:, j]).tolist())
                    for j in range(4)]
            want = m.spray(x, v)
            for row in m.complex_step("spray", x.tolist(), rows):
                np.testing.assert_array_equal(row.real, want)


class TestInvariantsStacked:
    """check_invariants evaluates its samples as stacks; the report equals
    the per-sample loop of _oracles.invariants_loop byte for byte, also
    when a sample raises and the sweep falls back to one sample at a time."""

    @pytest.mark.parametrize("make", [
        lambda: fbt.sphere_stereo(1.3, dim=3),
        lambda: fbt.euclidean(2),
        lambda: fbt.randers_expr(2, [["1+0.1*x2^2", "0.05*x1"], ["0.05*x1", "1"]],
                                 ["0.3*sin(x2)", "0.2*x1*x2"],
                                 chart_box=[[-1.5, 1.5], [-1.5, 1.5]]),
        lambda: fbt.quadratic_expr(2, [["1", "0"], ["0", "-(1+0.1*x1^2)"]]),
        lambda: fbt.riemannian_expr(2, [["1", "0"], ["0", "x1"]]),
        lambda: locally_constant(2, "strong_wind", lambda x: np.eye(2),
                                 lambda x: np.array([2.0, 0.0])),
    ], ids=["sphere3", "euclidean", "randers", "quadratic", "indefinite", "strong_wind"])
    @pytest.mark.usefixtures("no_randers_check")
    def test_matches_per_sample_loop(self, make):
        m = make()
        for seed in (0, 17):
            got = m.check_invariants(samples=120, seed=seed)
            want = invariants_loop(m, 120, seed)
            # as metric_check.json writes them
            assert json.dumps(_jsonable(got)) == json.dumps(_jsonable(want))
