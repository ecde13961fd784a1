"""Geodesic integration, the exponential map, and shooting solvers.

Geodesics are integrated in first-order form (x, v)' = (v, spray(x, v)) with
an embedded Runge-Kutta 5(4) pair and dense output; a fixed-step RK4 mode is
available for bit-reproducibility experiments.  Two-point problems are solved
by damped Newton shooting with the exponential-map Jacobian propagated as a
Jacobi frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .errors import NumericalError
from .metric import PhaseState, ZeroVelocity

__all__ = [
    "GeodesicPath",
    "BoundaryData",
    "integrate_geodesic",
    "exp_map",
    "connect",
    "orthogonal_initial",
    "LeftChart",
    "StepFailure",
    "NoConvergence",
    "SingularJacobian",
    "TangentSeed",
]

DEFAULT_RTOL = 1e-9
DEFAULT_ATOL = 1e-12
DEFAULT_TOL_RES = 1e-5


class LeftChart(NumericalError):
    def __init__(self, t_exit):
        super().__init__(f"geodesic left the chart box at t = {t_exit:.6g}")
        self.t_exit = t_exit


class StepFailure(NumericalError):
    pass


class NoConvergence(NumericalError):
    pass


class SingularJacobian(NumericalError):
    """Shooting Jacobian is rank deficient: the endpoint is (near-)conjugate."""


class TangentSeed(NumericalError):
    pass


@dataclass
class BoundaryData:
    """A start submanifold P through x0: chart-orthonormal basis of T_{x0}P
    plus the shape-operator matrix in that basis (defaults to zero)."""

    x0: np.ndarray
    basis: np.ndarray
    shape_operator: np.ndarray | None = None

    def __post_init__(self):
        self.x0 = np.asarray(self.x0, dtype=float)
        self.basis = np.asarray(self.basis, dtype=float)
        if self.basis.ndim == 1:
            self.basis = self.basis[:, None]
        n, k = self.basis.shape
        if k > 0:
            gram = self.basis.T @ self.basis
            if not np.allclose(gram, np.eye(k), atol=1e-8):
                raise ValueError("basis columns must be orthonormal in the chart")
        if self.shape_operator is None:
            self.shape_operator = np.zeros((k, k))
        else:
            self.shape_operator = np.asarray(self.shape_operator, dtype=float)
            if self.shape_operator.shape != (k, k):
                raise ValueError(f"shape operator must be {k}x{k}")
            if not np.allclose(self.shape_operator, self.shape_operator.T, atol=1e-10):
                raise ValueError("shape operator must be symmetric")
            self.shape_operator = 0.5 * (self.shape_operator + self.shape_operator.T)

    @property
    def codim_basis_needed(self):
        return self.basis.shape[0] - self.basis.shape[1]


class _HermiteSol:
    """Piecewise cubic Hermite interpolant matching values and derivatives."""

    def __init__(self, ts, ys, fs):
        self.ts = ts
        self.ys = ys
        self.fs = fs

    def __call__(self, t):
        t = float(t)
        ts = self.ts
        i = int(np.clip(np.searchsorted(ts, t) - 1, 0, len(ts) - 2))
        h = ts[i + 1] - ts[i]
        s = (t - ts[i]) / h
        h00 = (1 + 2 * s) * (1 - s) ** 2
        h10 = s * (1 - s) ** 2
        h01 = s * s * (3 - 2 * s)
        h11 = s * s * (s - 1)
        return (
            h00 * self.ys[i]
            + h10 * h * self.fs[i]
            + h01 * self.ys[i + 1]
            + h11 * h * self.fs[i + 1]
        )


@dataclass
class GeodesicPath:
    """A densely sampled constant-speed geodesic on [0, tau]."""

    metric: object
    x0: np.ndarray
    v0: np.ndarray
    tau: float
    ts: np.ndarray
    ys: np.ndarray
    sol: object
    F0: float

    @property
    def dim(self):
        return self.x0.shape[0]

    def state(self, t):
        y = self.sol(t)
        n = self.dim
        return y[:n], y[n:]

    def x(self, t):
        return self.sol(t)[: self.dim]

    def v(self, t):
        return self.sol(t)[self.dim:]

    @property
    def endpoint(self):
        return self.ys[-1][: self.dim]

    def speed(self, t):
        x, v = self.state(t)
        return self.metric.F(x, v)

    def speed_deviation(self, n_samples=200):
        ts = np.linspace(0.0, self.tau, n_samples)
        worst = 0.0
        for t in ts:
            worst = max(worst, abs(self.speed(t) - self.F0))
        return worst

    def el_residual(self, t, h=1e-3):
        """First-order Euler-Lagrange residual |dv/dt - spray| / (1 + |spray|),
        with dv/dt from central differences of the dense output.  The step
        is fixed: scaling it with tau lets truncation error alone exceed
        DEFAULT_TOL_RES on long paths."""
        a = max(t - h, 0.0)
        b = min(t + h, self.tau)
        dv = (self.v(b) - self.v(a)) / (b - a)
        x, v = self.state(t)
        s = self.metric.spray(x, v)
        return float(np.linalg.norm(dv - s) / (1.0 + np.linalg.norm(s)))

    def max_el_residual(self, n_samples=20, seed=0):
        rng = np.random.default_rng(seed)
        ts = rng.uniform(0.05 * self.tau, 0.95 * self.tau, size=n_samples)
        return max(self.el_residual(t) for t in ts)


def _chart_event(m):
    lo = m.chart_box[:, 0]
    hi = m.chart_box[:, 1]
    n = m.dim

    def ev(t, y):
        x = y[:n]
        return float(min(np.min(x - lo), np.min(hi - x)))

    ev.terminal = True
    return ev


def _speed_event(m):
    n = m.dim
    floor = m.v_min

    def ev(t, y):
        return float(np.linalg.norm(y[n:]) - floor)

    ev.terminal = True
    return ev


def integrate_geodesic(m, s0, tau, *, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL,
                       method="rk45", n_steps=None, max_step=np.inf):
    """Integrate the geodesic with initial PhaseState s0 over [0, tau]."""
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if not isinstance(s0, PhaseState):
        s0 = PhaseState(*s0)
    m._check(s0.x, s0.v)
    n = m.dim
    F0 = m.F(s0.x, s0.v) if not m.pseudo else abs(m.F(s0.x, s0.v))

    def rhs(t, y):
        return np.concatenate([y[n:], m.spray(y[:n], y[n:])])

    y0 = np.concatenate([s0.x, s0.v])

    if method == "rk4":
        steps = n_steps or max(64, int(np.ceil(200 * tau)))
        ts = np.linspace(0.0, tau, steps + 1)
        ys = np.empty((steps + 1, 2 * n))
        fs = np.empty_like(ys)
        ys[0] = y0
        h = tau / steps
        lo, hi = m.chart_box[:, 0], m.chart_box[:, 1]
        for i in range(steps):
            y = ys[i]
            k1 = rhs(0.0, y)
            k2 = rhs(0.0, y + 0.5 * h * k1)
            k3 = rhs(0.0, y + 0.5 * h * k2)
            k4 = rhs(0.0, y + h * k3)
            ys[i + 1] = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            x_new = ys[i + 1][:n]
            if np.any(x_new < lo) or np.any(x_new > hi):
                raise LeftChart(ts[i + 1])
            if np.linalg.norm(ys[i + 1][n:]) < m.v_min:
                raise ZeroVelocity(f"velocity collapsed at t = {ts[i + 1]:.6g}")
            fs[i] = k1
        fs[-1] = rhs(0.0, ys[-1])
        sol = _HermiteSol(ts, ys, fs)
        return GeodesicPath(m, s0.x.copy(), s0.v.copy(), tau, ts, ys, sol, F0)

    events = [_chart_event(m), _speed_event(m)]
    res = solve_ivp(
        rhs, (0.0, tau), y0, method="RK45", rtol=rtol, atol=atol,
        dense_output=True, events=events, max_step=max_step,
    )
    if res.status == 1:
        if len(res.t_events[0]):
            raise LeftChart(float(res.t_events[0][0]))
        raise ZeroVelocity(f"velocity reached the floor at t = {res.t_events[1][0]:.6g}")
    if res.status != 0:
        raise StepFailure(res.message)
    ys = res.y.T
    return GeodesicPath(m, s0.x.copy(), s0.v.copy(), tau, res.t, ys, res.sol, F0)


def exp_map(m, p, v, **kw):
    """exp_p(v): endpoint of the geodesic from (p, v) at parameter 1."""
    return integrate_geodesic(m, PhaseState(p, v), 1.0, **kw).endpoint


def connect(m, p, q, v_seed, *, tol=None, max_iter=50, max_halvings=8,
            sing_tol=1e-8, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL,
            jac_rtol=None):
    """Newton shooting for the two-point problem exp_p(v) = q.

    Raises SingularJacobian when the exponential-map Jacobian degenerates,
    which signals a (near-)conjugate endpoint rather than a solver bug.
    """
    from . import jacobi as _jacobi

    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    v = np.asarray(v_seed, dtype=float).copy()
    if tol is None:
        tol = 1e-10 * (1.0 + np.linalg.norm(q))
    if jac_rtol is None:
        jac_rtol = max(rtol, 1e-9)

    def residual(vv):
        return exp_map(m, p, vv, rtol=rtol, atol=atol) - q

    r = residual(v)
    for _ in range(max_iter):
        if np.linalg.norm(r) <= tol:
            return v
        J = _jacobi.expmap_jacobian(m, p, v, rtol=jac_rtol)
        sv = np.linalg.svd(J, compute_uv=False)
        scale = max(1.0, sv[0]) ** m.dim
        if abs(np.prod(sv)) < sing_tol * scale:
            raise SingularJacobian(
                f"|det D exp| = {np.prod(sv):.3e} below {sing_tol:.1e} * scale; "
                "endpoint is conjugate or nearly so"
            )
        step = np.linalg.solve(J, -r)
        alpha = 1.0
        for _ in range(max_halvings + 1):
            try:
                r_new = residual(v + alpha * step)
            except NumericalError:
                alpha *= 0.5
                continue
            if np.linalg.norm(r_new) < np.linalg.norm(r):
                break
            alpha *= 0.5
        else:
            raise NoConvergence("line search stalled in connect")
        v = v + alpha * step
        r = r_new
    if np.linalg.norm(r) <= tol:
        return v
    raise NoConvergence(
        f"connect did not reach |residual| <= {tol:.3e} in {max_iter} iterations "
        f"(final {np.linalg.norm(r):.3e})"
    )


def orthogonal_initial(m, b, v_seed, *, tol=1e-12, max_iter=50):
    """Adjust v_seed so the start velocity is g_v-orthogonal to P.

    Gauss-Newton on the k constraints g_v(v, w_j) = 0 with minimal-norm
    updates: the seed anchors the scale, and no drift along the constraint
    null space is introduced.  In the Riemannian case this is exactly the
    removal of the tangential component of the seed.
    """
    x0 = b.x0
    W = b.basis
    k = W.shape[1]
    v = np.asarray(v_seed, dtype=float).copy()
    norm = np.linalg.norm(v)
    if norm < m.v_min:
        raise ZeroVelocity("seed velocity below the admissibility floor")
    if k == 0:
        return v
    tangential = W @ (W.T @ v)
    if np.linalg.norm(v - tangential) < 1e-10 * norm:
        raise TangentSeed("seed velocity is tangent to P")

    for _ in range(max_iter):
        # g_v(v, w) = dvL(x, v) . w / 2 by homogeneity of L
        c = 0.5 * (W.T @ m.dvL(x0, v))
        scale = 1.0 + abs(m.L(x0, v))
        if np.linalg.norm(c) <= tol * scale:
            return v
        G = m.fundamental_tensor(x0, v)
        rows = (G @ W).T
        step, *_ = np.linalg.lstsq(rows, -c, rcond=None)
        v = v + step
        if np.linalg.norm(v) < m.v_min:
            raise NoConvergence("velocity collapsed during orthogonalization")
    raise NoConvergence(f"orthogonal_initial did not converge in {max_iter} iterations")
