"""Geodesic integration, the exponential map, and shooting solvers.

Geodesics are integrated in first-order form (x, v)' = (v, spray(x, v)) by
the 8th-order Dormand-Prince pair (ode.dop853), with dense output where a
path is kept.  Their linearization on (x, v, M, M') on c columns is the
same generated flow, m._flow_rhs(c), which callers pick by the columns
they carry: Jacobi frames n - 1 with M and M' in the error norm, shooting
all n with (x, v) alone in it.  Each is the metric's straight-line flow
(metric._flow_source): one component jet a call, then the spray kernel,
real on no column and lifted once per column.
Two-point problems are solved by one damped, optionally deflated Newton
loop; each iterate integrates that flow once from (p, v, 0, I) and reads
the shooting Jacobian M(tau).  A damped line-search trial needs the
endpoint only and integrates the geodesic flow (exp_map), at under half
the cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError
from .metric import ZeroVelocity
from .ode import StepFailure, dop853

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
RESIDUAL_SAMPLES = 20
RESIDUAL_SEED = 0
SPEED_SAMPLES = 200
ORTHO_TOL = 1e-12
ORTHO_MAX_ITER = 50
CONNECT_MAX_ITER = 50
NEWTON_MAX_HALVINGS = 8
SING_TOL = 1e-8
DEFLATION_SHIFT = 1.0
# iterates a repelled start keeps, once outside the deflation radius, to
# converge: the first lands near the new root, the second meets the tolerance
REPEL_RESERVE = 2


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

    def check_start(self, x):
        """Raise ValueError unless P passes through x, a path's start."""
        if not np.array_equal(self.x0, x):
            raise ValueError(f"boundary x0 {self.x0.tolist()} is not the path's "
                             f"start {np.asarray(x).tolist()}")


@dataclass
class GeodesicPath:
    """A densely sampled constant-speed geodesic on [0, tau]: ts are the
    accepted step times, ys the states there, and sol their
    ode.DenseOutput.  A path is never changed after construction, so
    morse keeps the eigenvalues of its pencils in _spectra."""

    metric: object
    x0: np.ndarray
    v0: np.ndarray
    tau: float
    ts: np.ndarray
    ys: np.ndarray
    sol: object
    F0: float
    # mesh -> (boundary, ascending eigenvalues), filled by morse._spectrum
    _spectra: dict = field(init=False, repr=False, compare=False,
                           default_factory=dict)

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

    @property
    def endpoint(self):
        return self.ys[-1][: self.dim]

    def speed_deviation(self):
        x, v = self.state(np.linspace(0.0, self.tau, SPEED_SAMPLES))
        return float(np.max(np.abs(self.metric.F(x, v) - self.F0)))

    def el_residual(self, t):
        """First-order Euler-Lagrange residual |dv/dt - spray| / (1 + |spray|),
        with dv/dt the dense output's exact derivative, so the residual is the
        interpolant's defect; at an array of times, one residual per time."""
        dv = self.sol.derivative(t)[self.dim:].T
        x, v = self.state(t)
        s = self.metric.spray(x, v)
        return np.linalg.norm(dv - s, axis=-1) / (1.0 + np.linalg.norm(s, axis=-1))

    def max_el_residual(self):
        return float(np.max(self.el_residual(_residual_times(self.tau))))


def _residual_times(tau):
    """The RESIDUAL_SAMPLES seeded times in [0.05 tau, 0.95 tau] of a residual check."""
    rng = np.random.default_rng(RESIDUAL_SEED)
    return rng.uniform(0.05 * tau, 0.95 * tau, size=RESIDUAL_SAMPLES)


def _solve(m, rhs, tau, y0, *, rtol, atol, **kw):
    """ode.dop853 over [0, tau], stopped where the state's (x, v) leaves the
    chart box or its speed reaches the floor; raises then and on failure."""
    n, box = m.dim, m.chart_box.tolist()

    def chart(t, y):
        return min(min(a - lo, hi - a) for a, (lo, hi) in zip(y[:n].tolist(), box))

    def speed(t, y):
        v = y[n:2 * n]
        return math.sqrt(v.dot(v)) - m.v_min

    res = dop853(rhs, y0, tau, rtol=rtol, atol=atol, events=(chart, speed), **kw)
    if res.event == 0:
        raise LeftChart(float(res.ts[-1]))
    if res.event == 1:
        raise ZeroVelocity(f"velocity reached the floor at t = {res.ts[-1]:.6g}")
    return res


def integrate_geodesic(m, s0, tau, *, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL):
    """Integrate the geodesic with initial PhaseState s0 over [0, tau]."""
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    m._check(s0.x, s0.v)
    F0 = m.F(s0.x, s0.v) if not m.pseudo else abs(m.F(s0.x, s0.v))
    y0 = np.concatenate([s0.x, s0.v])
    res = _solve(m, m._flow_rhs(0), tau, y0, rtol=rtol, atol=atol, dense=True)
    return GeodesicPath(m, s0.x.copy(), s0.v.copy(), tau, res.ts, res.ys, res.sol, F0)


def exp_map(m, p, v, tau=1.0, *, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL):
    """x(tau) on the geodesic from (p, v); at tau = 1 this is exp_p(v).  The
    steps are integrate_geodesic's, without its dense output."""
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    m._check(p, v)
    res = _solve(m, m._flow_rhs(0), tau, np.concatenate([p, v]), rtol=rtol, atol=atol)
    return res.ys[-1, :m.dim]


def endpoint_jacobian(m, p, v, tau, *, rtol, atol):
    """x(tau) and d x(tau) / d v for the geodesic from (p, v), by one
    integration of the variational flow from (p, v, 0, I): the Jacobian is
    M(tau).  The error norm reads (x, v) alone, so the steps are the
    geodesic's and M(tau) is the exact derivative of the discrete flow at
    rtol/atol (internal numerical differentiation, Bock 1981)."""
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    m._check(p, v)
    n = m.dim
    y0 = np.concatenate([p, v, np.zeros(n * n), np.eye(n).ravel()])
    y = _solve(m, m._flow_rhs(n), tau, y0, rtol=rtol, atol=atol,
               norm_size=2 * n).ys[-1]
    return y[:n], y[2 * n:2 * n + n * n].reshape(n, n)


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


def _check_repelled(v, r, jac, roots, left):
    """Raise NoConvergence when v cannot leave a deflated root's radius and
    converge within `left` iterates.  Where the undeflated step delta lands
    within half of |v - root| of a root, the deflated step is tau * delta
    with tau = 1 / (1 - grad log m . delta) (Farrell, Croci & Surowiec,
    Optim. Methods Softw. 35, 2020), which along the ray to the root maps
    the distance d to 2 d / (1 - shift d^2): it only doubles near the root."""
    delta, *_ = np.linalg.lstsq(jac, -r, rcond=1e-6)
    for root in roots:
        d = float(np.linalg.norm(v - root))
        if np.linalg.norm(v + delta - root) >= 0.5 * d:
            continue
        need = REPEL_RESERVE
        while need <= left and DEFLATION_SHIFT * d * d < 1.0:
            d = 2.0 * d / (1.0 - DEFLATION_SHIFT * d * d)
            need += 1
        if need > left:
            raise NoConvergence(
                f"Newton needs more than {left} more iterates to leave the "
                "deflation radius and converge: repelled from a deflated root")


def newton(G, GJ, v0, *, tol, max_iter, roots=(), wander_limit=None):
    """Damped Newton for G(v) = 0, GJ(v) returning G(v) and its Jacobian,
    deflated at roots: G is scaled by prod (shift + |v - r|^-2) (Farrell,
    Birkisson & Funke, SIAM J. Sci. Comput. 37, 2015) and steps are halved
    until that scaled |G| drops.  The full step is evaluated by GJ, so an
    iterate that takes it costs one GJ call; a damped trial is evaluated by
    the residual G alone, and GJ runs once more where one is accepted.
    With roots, a start whose undeflated step points back at a root only
    doubles its distance from it per iterate; once that cannot carry it past
    the deflation radius 1/sqrt(shift) with REPEL_RESERVE iterates to spare
    before max_iter, it ends with NoConvergence("... repelled from a
    deflated root") before the next step is taken.
    Raises NoConvergence on failure.  A NumericalError at a trial point
    halves the step; SingularJacobian and errors at v0 propagate."""
    v0 = np.asarray(v0, dtype=float)
    v = v0.copy()
    r, jac = GJ(v)
    for it in range(max_iter):
        fac, dfac = _deflation_factor(v, roots)
        if not np.isfinite(fac):
            raise NoConvergence("Newton iterate landed on a deflated root")
        rn = float(np.linalg.norm(r))
        if rn <= tol:
            return v
        if len(roots):
            _check_repelled(v, r, jac, roots, max_iter - it)
        Jd = fac * jac + np.outer(r, dfac)
        # truncated pseudo-inverse: near a continuum of solutions the shooting
        # Jacobian folds and untruncated steps run away along its null space
        step, *_ = np.linalg.lstsq(Jd, -fac * r, rcond=1e-6)
        if wander_limit is not None and np.linalg.norm(v + step - v0) > wander_limit:
            step *= wander_limit / np.linalg.norm(v + step - v0)
        alpha = 1.0
        for _ in range(NEWTON_MAX_HALVINGS + 1):
            trial = v + alpha * step
            try:
                if alpha == 1.0:
                    r_new, jac_new = GJ(trial)
                else:
                    r_new = G(trial)
                fac_new, _ = _deflation_factor(trial, roots)
                if np.isfinite(fac_new) and fac_new * np.linalg.norm(r_new) < fac * rn:
                    if alpha < 1.0:
                        r_new, jac_new = GJ(trial)
                    break
            except SingularJacobian:
                raise
            except NumericalError:
                pass
            alpha *= 0.5
        else:
            raise NoConvergence("Newton line search stalled")
        v = trial
        r, jac = r_new, jac_new
    if np.linalg.norm(r) <= tol:
        return v
    raise NoConvergence(
        f"Newton did not reach |residual| <= {tol:.3e} in {max_iter} iterations "
        f"(final {np.linalg.norm(r):.3e})"
    )


def connect(m, p, q, v_seed, *, tau=1.0, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL):
    """Newton shooting for the two-point problem x(tau) = q from x(0) = p.

    Raises SingularJacobian when the shooting Jacobian degenerates at the
    seed, at a full Newton step or at an accepted damped step that is not
    yet a solution, which signals a (near-)conjugate endpoint rather than a
    solver bug.  Damped line-search trials read the residual alone, so a
    rejected one never raises it.  The Jacobian is the exact derivative of
    the endpoint integrated at the caller's rtol/atol, so the test does not
    depend on a difference step.
    """
    q = np.asarray(q, dtype=float)
    tol = 1e-10 * (1.0 + np.linalg.norm(q))

    def G(v):
        return exp_map(m, p, v, tau, rtol=rtol, atol=atol) - q

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

    return newton(G, GJ, v_seed, tol=tol, max_iter=CONNECT_MAX_ITER)


def orthogonal_initial(m, b, v_seed):
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

    for _ in range(ORTHO_MAX_ITER):
        # g_v(v, w) = dvL(x, v) . w / 2 by homogeneity of L
        c = 0.5 * (W.T @ m.dvL(x0, v))
        scale = 1.0 + abs(m.L(x0, v))
        if np.linalg.norm(c) <= ORTHO_TOL * scale:
            return v
        G = m.fundamental_tensor(x0, v)
        rows = (G @ W).T
        step, *_ = np.linalg.lstsq(rows, -c, rcond=None)
        v = v + step
        if np.linalg.norm(v) < m.v_min:
            raise NoConvergence("velocity collapsed during orthogonalization")
    raise NoConvergence(
        f"orthogonal_initial did not converge in {ORTHO_MAX_ITER} iterations")
