"""Geodesic integration, the exponential map, and shooting solvers.

Geodesics are integrated in first-order form (x, v)' = (v, spray(x, v)) by
the 8th-order Dormand-Prince pair (ode.dop853), with dense output where a
path is kept; a fixed-step RK4 mode is available for bit-reproducibility
experiments.  Two-point problems are solved by one damped, optionally
deflated Newton loop; each iterate integrates the flow once, over
complex-step copies that carry the shooting Jacobian along with the
endpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError
from .metric import COMPLEX_STEP, PhaseState, ZeroVelocity
from .ode import StepFailure, dop853, step_index

__all__ = [
    "GeodesicPath",
    "BoundaryData",
    "integrate_geodesic",
    "exp_map",
    "connect",
    "endpoint_jacobian",
    "newton",
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
CONNECT_MAX_ITER = 50
NEWTON_MAX_HALVINGS = 8
SING_TOL = 1e-8
DEFLATION_SHIFT = 1.0


class LeftChart(NumericalError):
    def __init__(self, t_exit):
        super().__init__(f"geodesic left the chart box at t = {t_exit:.6g}")
        self.t_exit = t_exit


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


class _HermiteSol:
    """Piecewise cubic Hermite interpolant matching values and derivatives."""

    def __init__(self, ts, ys, fs):
        self.ts = ts
        self.ys = ys
        self.fs = fs

    def __call__(self, t):
        """y(t); at an array of times, shape (2n, len(t)) like
        ode.DenseOutput."""
        t = np.asarray(t, dtype=float)
        ts = self.ts
        i = step_index(ts[:-1], t)
        h = (ts[i + 1] - ts[i])[..., None]
        s = (t - ts[i])[..., None] / h
        h00 = (1 + 2 * s) * (1 - s) ** 2
        h10 = s * (1 - s) ** 2
        h01 = s * s * (3 - 2 * s)
        h11 = s * s * (s - 1)
        return (
            h00 * self.ys[i]
            + h10 * h * self.fs[i]
            + h01 * self.ys[i + 1]
            + h11 * h * self.fs[i + 1]
        ).T


@dataclass
class GeodesicPath:
    """A densely sampled constant-speed geodesic on [0, tau]: ts are the
    accepted step times, ys the states there, and sol the dense output
    (ode.DenseOutput, or the Hermite interpolant of the rk4 mode)."""

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
        """(x, v) at time t; at an array of times, stacks (len(t), n)."""
        y = self.sol(t)
        n = self.dim
        return y[:n].T, y[n:].T

    def x(self, t):
        return self.sol(t)[: self.dim].T

    def v(self, t):
        return self.sol(t)[self.dim:].T

    @property
    def endpoint(self):
        return self.ys[-1][: self.dim]

    def speed(self, t):
        x, v = self.state(t)
        return self.metric.F(x, v)

    def speed_deviation(self, n_samples=200):
        x, v = self.state(np.linspace(0.0, self.tau, n_samples))
        return float(np.max(np.abs(self.metric.F(x, v) - self.F0)))

    def el_residual(self, t, h=1e-3):
        """First-order Euler-Lagrange residual |dv/dt - spray| / (1 + |spray|),
        with dv/dt from central differences of the dense output; at an array
        of times, one residual per time.  The step is fixed: scaling it with
        tau lets truncation error alone exceed DEFAULT_TOL_RES on long
        paths."""
        a = np.maximum(t - h, 0.0)
        b = np.minimum(t + h, self.tau)
        dv = (self.v(b) - self.v(a)) / (b - a)[..., None]
        x, v = self.state(t)
        s = self.metric.spray(x, v)
        return np.linalg.norm(dv - s, axis=-1) / (1.0 + np.linalg.norm(s, axis=-1))

    def max_el_residual(self, n_samples=20, seed=0):
        rng = np.random.default_rng(seed)
        ts = rng.uniform(0.05 * self.tau, 0.95 * self.tau, size=n_samples)
        return float(np.max(self.el_residual(ts)))


def _geodesic_rhs(m):
    """(x, v)' = (v, spray(x, v)) on the flat real state."""
    n = m.dim

    def rhs(t, y):
        return np.concatenate([y[n:], m.spray(y[:n], y[n:])])

    return rhs


def _copies_rhs(m):
    """The right-hand side of n complex-step copies (x_j, v_j) of the flow,
    flat and copy after copy.  The copies' real parts may differ by O(h^2)
    terms that the complex step neglects; every copy is taken at the first
    copy's real part, so the metric evaluates one real jet."""
    n = m.dim
    starts = range(0, 2 * n * n, 2 * n)

    def rhs(t, y):
        z = y.tolist()
        a, u0 = [w.real for w in z[:n]], [w.real for w in z[n:2 * n]]
        us = [[complex(r, w.imag) for r, w in zip(u0, z[k + n:k + 2 * n])]
              for k in starts]
        rows = zip(([w.imag for w in z[k:k + n]] for k in starts), us)
        out = np.empty((n, 2 * n), complex)
        out[:, :n], out[:, n:] = us, m.complex_step("spray", a, rows)
        return out.ravel()

    return rhs


def _solve(m, rhs, tau, y0, *, rtol, atol, **kw):
    """ode.dop853 over [0, tau], stopped where the real part of y's first
    state leaves the chart box or its speed reaches the floor; raises then
    and on failure."""
    n, box = m.dim, m.chart_box.tolist()

    def chart(t, y):
        x = y[:n].real.tolist()
        return min(min(a - lo, hi - a) for a, (lo, hi) in zip(x, box))

    def speed(t, y):
        v = np.ravel(y[n:2 * n].real)
        return math.sqrt(v.dot(v)) - m.v_min

    res = dop853(rhs, y0, tau, rtol=rtol, atol=atol, events=(chart, speed), **kw)
    if res.event == 0:
        raise LeftChart(float(res.ts[-1]))
    if res.event == 1:
        raise ZeroVelocity(f"velocity reached the floor at t = {res.ts[-1]:.6g}")
    return res


def integrate_geodesic(m, s0, tau, *, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL,
                       method="dop853", n_steps=None):
    """Integrate the geodesic with initial PhaseState s0 over [0, tau] by
    method "dop853" (adaptive) or "rk4" (n_steps fixed steps)."""
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if method not in ("dop853", "rk4"):
        raise ValueError(f"unknown method {method!r}; expected 'dop853' or 'rk4'")
    if not isinstance(s0, PhaseState):
        s0 = PhaseState(*s0)
    m._check(s0.x, s0.v)
    n = m.dim
    F0 = m.F(s0.x, s0.v) if not m.pseudo else abs(m.F(s0.x, s0.v))

    rhs = _geodesic_rhs(m)
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

    res = _solve(m, rhs, tau, y0, rtol=rtol, atol=atol, dense=True)
    return GeodesicPath(m, s0.x.copy(), s0.v.copy(), tau, res.ts, res.ys, res.sol, F0)


def exp_map(m, p, v, tau=1.0, *, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL):
    """x(tau) on the geodesic from (p, v); at tau = 1 this is exp_p(v).  The
    steps are integrate_geodesic's, without its dense output."""
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    m._check(p, v)
    res = _solve(m, _geodesic_rhs(m), tau, np.concatenate([p, v]), rtol=rtol, atol=atol)
    return res.ys[-1, :m.dim]


def endpoint_jacobian(m, p, v, tau, *, rtol, atol):
    """x(tau) and d x(tau) / d v for the geodesic from (p, v), by one
    integration of n copies of the flow started at v + i*h*e_j
    (h = COMPLEX_STEP): column j is Im x_j(tau) / h.  The steps are chosen
    on the shared real part, so this is the exact derivative of the discrete
    flow at rtol/atol (internal numerical differentiation, Bock 1981)."""
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    m._check(p, v)
    n = m.dim
    y0 = np.concatenate([np.broadcast_to(p, (n, n)),
                         v + 1j * COMPLEX_STEP * np.eye(n)], axis=1)
    y = _solve(m, _copies_rhs(m), tau, y0.ravel(), rtol=rtol, atol=atol).ys[-1]
    x = y.reshape(n, 2 * n)[:, :n]
    return x[0].real, x.imag.T / COMPLEX_STEP


def _deflation_factor(v, roots):
    fac = 1.0
    grad = np.zeros_like(v)
    for r in roots:
        d = v - r
        d2 = float(d @ d)
        if d2 == 0.0:
            return np.inf, grad
        fac *= DEFLATION_SHIFT + 1.0 / d2
        # d/dv log(shift + |d|^-2) = -2 d / (|d|^4 (shift + |d|^-2))
        grad += -2.0 * d / (d2**2 * (DEFLATION_SHIFT + 1.0 / d2))
    return fac, fac * grad


def newton(GJ, v0, *, tol, max_iter, roots=(), wander_limit=None):
    """Damped Newton for G(v) = 0, GJ(v) returning G(v) and its Jacobian,
    deflated at roots: G is scaled by prod (shift + |v - r|^-2) (Farrell,
    Birkisson & Funke, SIAM J. Sci. Comput. 37, 2015) and steps are halved
    until that scaled |G| drops; an iterate costs one GJ call.  Raises
    NoConvergence on failure.  A NumericalError from GJ at a trial point
    halves the step; SingularJacobian and errors at v0 propagate."""
    v0 = np.asarray(v0, dtype=float)
    v = v0.copy()
    r, jac = GJ(v)
    for _ in range(max_iter):
        fac, dfac = _deflation_factor(v, roots)
        if not np.isfinite(fac):
            raise NoConvergence("Newton iterate landed on a deflated root")
        rn = float(np.linalg.norm(r))
        if rn <= tol:
            return v
        Jd = fac * jac + np.outer(r, dfac)
        # truncated pseudo-inverse: near a continuum of solutions the shooting
        # Jacobian folds and untruncated steps run away along its null space
        step, *_ = np.linalg.lstsq(Jd, -fac * r, rcond=1e-6)
        if wander_limit is not None and np.linalg.norm(v + step - v0) > wander_limit:
            step *= wander_limit / np.linalg.norm(v + step - v0)
        alpha = 1.0
        for _ in range(NEWTON_MAX_HALVINGS + 1):
            try:
                r_new, jac_new = GJ(v + alpha * step)
            except SingularJacobian:
                raise
            except NumericalError:
                alpha *= 0.5
                continue
            fac_new, _ = _deflation_factor(v + alpha * step, roots)
            if np.isfinite(fac_new) and fac_new * np.linalg.norm(r_new) < fac * rn:
                break
            alpha *= 0.5
        else:
            raise NoConvergence("Newton line search stalled")
        v = v + alpha * step
        r, jac = r_new, jac_new
    if np.linalg.norm(r) <= tol:
        return v
    raise NoConvergence(
        f"Newton did not reach |residual| <= {tol:.3e} in {max_iter} iterations "
        f"(final {np.linalg.norm(r):.3e})"
    )


def connect(m, p, q, v_seed, *, tau=1.0, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL):
    """Newton shooting for the two-point problem x(tau) = q from x(0) = p.

    Raises SingularJacobian when the shooting Jacobian degenerates at an
    iterate that is not yet a solution, which signals a (near-)conjugate
    endpoint rather than a solver bug.  The Jacobian is the exact derivative
    of the endpoint integrated at the caller's rtol/atol, so the test does
    not depend on a difference step.
    """
    q = np.asarray(q, dtype=float)
    tol = 1e-10 * (1.0 + np.linalg.norm(q))

    def GJ(v):
        x, jac = endpoint_jacobian(m, p, v, tau, rtol=rtol, atol=atol)
        r = x - q
        sv = np.linalg.svd(jac, compute_uv=False)
        scale = max(1.0, sv[0]) ** m.dim
        if np.linalg.norm(r) > tol and abs(np.prod(sv)) < SING_TOL * scale:
            raise SingularJacobian(
                f"|det D exp| = {np.prod(sv):.3e} below {SING_TOL:.1e} * scale; "
                "endpoint is conjugate or nearly so"
            )
        return r, jac

    return newton(GJ, v_seed, tol=tol, max_iter=CONNECT_MAX_ITER)


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
