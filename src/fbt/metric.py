"""Finsler metrics on a single chart box.

A MetricField bundles evaluators for F, L = F^2 and the chart derivatives
dxL, dvL, dxxL, dxvL, dvvL, plus the fundamental tensor (the vertical
Hessian of L/2) and the geodesic spray.

Every supported kind fits one algebraic template,

    L(x, v) = q + 2*b*sqrt(q) + b^2        q = v.h(x)v,  b = beta(x).v,

with beta absent for plain Riemannian/quadratic kinds (then L = q, possibly
indefinite for the quadratic pseudo-kind).  The v-derivatives are exact
closed forms of (h, beta); the x-derivatives chain through (dh, dbeta,
d2h, d2beta).  Expression-defined kinds (and the Zermelo and Fermat kinds
built from them) get these exactly, from symbolic derivatives compiled into
one function per derivative order; euclidean and the sphere chart carry
analytic closures; only from_callables metrics without derivative callables
fall back to central finite differences.

The evaluators F, L, spray, second_derivatives and the dxL, dvL, dxvL, dvvL,
dxxL pieces accept a state (x, v of shape (n,)) or a stack of states (x, v
of shape (N, n)) and return results with the matching leading shape.  The
formulas are written once with broadcasting over the leading axes; on a
stack only the components (the compiled bundle or the callables) run once
per state.  Checks keep their per-state meaning: any state with q <= 0,
F <= 0 or a singular vertical Hessian raises for the whole call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import expr as _expr
from .errors import ConfigError, NumericalError

__all__ = [
    "PhaseState",
    "MetricField",
    "InvariantReport",
    "ZeroVelocity",
    "OutsideChart",
    "ConvexityViolation",
    "SingularVerticalHessian",
    "RandersBoundError",
    "euclidean",
    "sphere_stereo",
    "riemannian_expr",
    "randers_expr",
    "quadratic_expr",
    "from_callables",
]

DEFAULT_V_MIN = 1e-6
DEFAULT_CHART_HALF_WIDTH = 10.0
FD_STEP_FIRST = 1e-5
FD_STEP_SECOND = 1e-4


class ZeroVelocity(NumericalError):
    pass


class OutsideChart(NumericalError):
    pass


class ConvexityViolation(NumericalError):
    pass


class SingularVerticalHessian(NumericalError):
    pass


class RandersBoundError(ConfigError):
    pass


@dataclass
class PhaseState:
    """A chart point x and a velocity v, both in chart components."""

    x: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.v = np.asarray(self.v, dtype=float)


# ---------------------------------------------------------------------------
# Broadcasting helpers.  Arrays carry a leading shape P (() for one state,
# (N,) for a stack of N states) before the axes named here, so one formula
# serves both.


def _mv(A, v):
    """A (P + (m, n)) applied to v (P + (n,)): P + (m,)."""
    return (A @ v[..., None])[..., 0]


def _dot(a, b):
    """a . b over the last axis: shape P (a numpy scalar for one state)."""
    return (a[..., None, :] @ b[..., None])[..., 0, 0][()]


def _any(mask):
    """Whether any state's mask is set."""
    return mask.any() if mask.ndim else bool(mask)


def _outer(a, b):
    return a[..., :, None] * b[..., None, :]


def _col(c):
    """A value per state (shape P) as P + (1,), to scale vectors."""
    return c[..., None]


def _mat(c):
    """A value per state (shape P) as P + (1, 1), to scale matrices."""
    return c[..., None, None]


class _Terms:
    """Template terms at a state or a stack of states: v, hx, bx, u = h v
    and q = v.u; with a one-form also s = sqrt(q), F = s + beta.v and
    p = dF/dv = u/s + beta.  From order 1 dbeta, uk = dh v and qk = v.dh.v,
    with a one-form sk = ds/dx = qk/(2s) and fx = dF/dx = sk + dbeta v; at
    order 2 qkl = v.d2h.v and bkl = d2beta v."""

    __slots__ = ("v", "hx", "bx", "u", "q", "s", "F", "p", "dbeta", "uk", "qk",
                 "sk", "fx", "qkl", "bkl")


# ---------------------------------------------------------------------------
# Component bundle: h(x), beta(x) and their chart derivatives


def _fd_first(fn, shape, step):
    def d(x):
        x = np.asarray(x, dtype=float)
        n = x.shape[0]
        out = np.empty((n,) + shape)
        for k in range(n):
            h = step * max(1.0, abs(x[k]))
            xp = x.copy()
            xm = x.copy()
            xp[k] += h
            xm[k] -= h
            out[k] = (np.asarray(fn(xp)) - np.asarray(fn(xm))) / (2.0 * h)
        return out

    return d


def _fd_second(fn, shape, step):
    def d2(x):
        x = np.asarray(x, dtype=float)
        n = x.shape[0]
        out = np.empty((n, n) + shape)
        f0 = np.asarray(fn(x))
        steps = [step * max(1.0, abs(x[k])) for k in range(n)]
        for k in range(n):
            hk = steps[k]
            xp = x.copy()
            xm = x.copy()
            xp[k] += hk
            xm[k] -= hk
            out[k, k] = (np.asarray(fn(xp)) - 2.0 * f0 + np.asarray(fn(xm))) / hk**2
            for l in range(k + 1, n):
                hl = steps[l]
                xpp = x.copy(); xpp[k] += hk; xpp[l] += hl
                xpm = x.copy(); xpm[k] += hk; xpm[l] -= hl
                xmp = x.copy(); xmp[k] -= hk; xmp[l] += hl
                xmm = x.copy(); xmm[k] -= hk; xmm[l] -= hl
                mixed = (
                    np.asarray(fn(xpp)) - np.asarray(fn(xpm))
                    - np.asarray(fn(xmp)) + np.asarray(fn(xmm))
                ) / (4.0 * hk * hl)
                out[k, l] = mixed
                out[l, k] = mixed
        return out

    return d2


class _Components:
    """h, beta and derivative callables; finite differences fill the gaps.

    ``stack(x, order)`` returns (h, beta, dh, dbeta, d2h, d2beta) cut after
    the given derivative order, with None for beta and its derivatives
    when the kind has no one-form.  On a stack of points (..., n) each
    entry gains the leading axes of the stack.
    """

    def __init__(self, dim, h, beta=None, dh=None, d2h=None, dbeta=None,
                 d2beta=None, step1=FD_STEP_FIRST, step2=FD_STEP_SECOND):
        self.dim = dim
        self.h = h
        self.beta = beta
        self.analytic_dx = dh is not None and (beta is None or dbeta is not None)
        self.dh = dh if dh is not None else _fd_first(h, (dim, dim), step1)
        self.d2h = d2h if d2h is not None else _fd_second(h, (dim, dim), step2)
        if beta is None:
            self.dbeta = None
            self.d2beta = None
        else:
            self.dbeta = dbeta if dbeta is not None else _fd_first(beta, (dim,), step1)
            self.d2beta = (
                d2beta if d2beta is not None else _fd_second(beta, (dim,), step2)
            )

    def stack(self, x, order):
        if x.ndim > 1:
            rows = [self.stack(xi, order) for xi in x.reshape(-1, self.dim)]
            return [None if c[0] is None
                    else np.array(c).reshape(x.shape[:-1] + np.shape(c[0]))
                    for c in zip(*rows)]
        hx = np.asarray(self.h(x), dtype=float)
        out = [hx, None if self.beta is None else np.asarray(self.beta(x), dtype=float)]
        if order >= 1:
            out += [self.dh(x), self.dbeta and self.dbeta(x)]
        if order >= 2:
            out += [self.d2h(x), self.d2beta and self.d2beta(x)]
        return out


class _ExprComponents:
    """h (a symmetric matrix of expression ASTs) and beta (a vector of ASTs,
    or None), with exact derivatives from one compiled bundle per order."""

    analytic_dx = True

    def __init__(self, dim, h, beta=None, params=None):
        self.dim = dim
        self._groups = [h] if beta is None else [h, beta]
        self._params = dict(params or {})
        # order 0 eagerly, so unbound names fail at construction
        self._bundles = [_expr.jet(self._groups, dim, self._params, 0), None, None]
        self.beta = None if beta is None else (lambda x: self.stack(x, 0)[1])

    def h(self, x):
        return self.stack(x, 0)[0]

    def stack(self, x, order):
        fn = self._bundles[order]
        if fn is None:
            fn = self._bundles[order] = _expr.jet(
                self._groups, self.dim, self._params, order
            )
        if self.beta is None:
            return [a for hk in fn(x) for a in (hk, None)]
        return fn(x)


class MetricField:
    """Evaluator bundle for one metric on an axis-aligned chart box."""

    def __init__(self, dim, kind, comps, *, pseudo=False, params=None,
                 chart_box=None, v_min=DEFAULT_V_MIN, sources=None):
        if dim < 1:
            raise ConfigError(f"dim must be >= 1, got {dim}")
        self.dim = int(dim)
        self.kind = kind
        self._c = comps
        self.pseudo = bool(pseudo)
        self.params = dict(params or {})
        if chart_box is None:
            chart_box = [[-DEFAULT_CHART_HALF_WIDTH, DEFAULT_CHART_HALF_WIDTH]] * dim
        self.chart_box = np.asarray(chart_box, dtype=float)
        if self.chart_box.shape != (dim, 2) or np.any(
            self.chart_box[:, 1] <= self.chart_box[:, 0]
        ):
            raise ConfigError(f"chart_box must be shape ({dim}, 2) with lo < hi")
        self.v_min = float(v_min)
        self.sources = sources or {}

    # -- validation ---------------------------------------------------------

    @property
    def has_analytic_dx(self):
        return self._c.analytic_dx

    def inside_chart(self, x):
        x = np.asarray(x, dtype=float)
        return bool(
            np.all(x >= self.chart_box[:, 0]) and np.all(x <= self.chart_box[:, 1])
        )

    def _check(self, x, v):
        if not self.inside_chart(x):
            raise OutsideChart(f"point {np.asarray(x)} outside chart box")
        speed = float(np.min(np.linalg.norm(v, axis=-1)))
        if speed < self.v_min:
            raise ZeroVelocity(f"|v| = {speed:.3e} below floor {self.v_min:.3e}")

    def _sqrt_q(self, q):
        if _any(q <= 0.0):
            raise ConvexityViolation(
                f"quadratic part non-positive ({float(np.min(q))!r}) at an "
                "evaluation point"
            )
        return np.sqrt(q)

    def _values(self, x, v, order=0, validate=False):
        """Terms of L and F at (x, v), and the component derivatives up to
        order."""
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        if validate:
            self._check(x, v)
        t = _Terms()
        t.v = v
        t.hx, t.bx, *derivs = self._c.stack(x, order)
        t.u = _mv(t.hx, v)
        t.q = _dot(v, t.u)
        if t.bx is not None:
            t.s = self._sqrt_q(t.q)
            t.F = t.s + _dot(t.bx, v)
        return t, derivs

    def _terms(self, x, v, order=0, validate=False):
        """All template terms at (x, v) up to the given derivative order."""
        t, derivs = self._values(x, v, order, validate)
        v = t.v
        randers = t.bx is not None
        if randers:
            t.p = t.u / _col(t.s) + t.bx
        if order >= 1:
            vk = v[..., None, :]
            dh, t.dbeta = derivs[:2]
            t.uk = _mv(dh, vk)
            t.qk = _mv(t.uk, v)
            if randers:
                t.sk = t.qk / _col(2.0 * t.s)
                t.fx = t.sk + _mv(t.dbeta, v)
        if order >= 2:
            d2h, d2beta = derivs[2:]
            t.qkl = _mv(_mv(d2h, v[..., None, None, :]), vk)
            if randers:
                t.bkl = _mv(d2beta, vk)
        return t

    # -- formulas over the shared terms ----------------------------------------
    #
    # Without a one-form L = q.  With one, L = F^2 for F = s + beta.v, so
    # every derivative follows by the chain rule from dF/dv = p, dF/dx = fx
    # and the second derivatives of s = sqrt(q) and beta.v.

    @staticmethod
    def _dvL(t):
        if t.bx is None:
            return 2.0 * t.u
        return _col(2.0 * t.F) * t.p

    @staticmethod
    def _dvvL(t):
        if t.bx is None:
            return 2.0 * t.hx
        return (2.0 * _outer(t.p, t.p) + _mat(2.0 * t.F / t.s) * t.hx
                - _mat(2.0 * t.F / t.s**3) * _outer(t.u, t.u))

    @staticmethod
    def _dxL(t):
        if t.bx is None:
            return t.qk
        return _col(2.0 * t.F) * t.fx

    @staticmethod
    def _dxvL(t):
        if t.bx is None:
            return 2.0 * t.uk
        dxp = t.uk / _mat(t.s) - _outer(t.sk, t.u) / _mat(t.q) + t.dbeta
        return 2.0 * _outer(t.fx, t.p) + _mat(2.0 * t.F) * dxp

    @staticmethod
    def _dxxL(t):
        if t.bx is None:
            return t.qkl
        skl = t.qkl / _mat(2.0 * t.s) - _outer(t.qk, t.qk) / _mat(4.0 * t.s**3)
        return 2.0 * _outer(t.fx, t.fx) + _mat(2.0 * t.F) * (skl + t.bkl)

    # -- public evaluators ----------------------------------------------------

    def L(self, x, v, validate=False):
        t, _ = self._values(x, v, 0, validate)
        return t.q if t.bx is None else t.F**2

    def F(self, x, v, validate=False):
        """F(x, v); for the quadratic pseudo-kind this is the Lagrangian value."""
        t, _ = self._values(x, v, 0, validate)
        if self.pseudo:
            return t.q
        val = self._sqrt_q(t.q) if t.bx is None else t.F
        if _any(val <= 0.0):
            raise ConvexityViolation(
                f"F = {float(np.min(val))!r} not positive; metric degenerate here"
            )
        return val

    def F_state(self, s, validate=True):
        return self.F(s.x, s.v, validate=validate)

    def dvL(self, x, v):
        return self._dvL(self._terms(x, v))

    def dvvL(self, x, v):
        return self._dvvL(self._terms(x, v))

    def dxL(self, x, v):
        return self._dxL(self._terms(x, v, 1))

    def dxvL(self, x, v):
        """Mixed Hessian, dxvL[..., k, j] = d^2 L / dx_k dv_j."""
        return self._dxvL(self._terms(x, v, 1))

    def dxxL(self, x, v):
        return self._dxxL(self._terms(x, v, 2))

    def second_derivatives(self, x, v):
        """(dxxL, dxvL, dvvL) with shared component evaluations (hot path for
        quadrature assembly)."""
        t = self._terms(x, v, 2)
        return self._dxxL(t), self._dxvL(t), self._dvvL(t)

    def fundamental_tensor(self, x, v, validate=False):
        """Vertical Hessian of L/2 at (x, v), symmetrized."""
        g = 0.5 * self._dvvL(self._terms(x, v, 0, validate))
        g = 0.5 * (g + g.T)
        if not self.pseudo:
            w = np.linalg.eigvalsh(g)
            tol_pd = 1e-10 * np.trace(g) / self.dim
            if w[0] <= tol_pd:
                raise ConvexityViolation(
                    f"fundamental tensor not positive definite "
                    f"(min eig {w[0]:.3e}, tol {tol_pd:.3e})"
                )
        return g

    def spray(self, x, v, validate=False):
        """Acceleration solving dvvL . a = dxL - dvxL . v (Euler-Lagrange)."""
        t = self._terms(x, v, 1, validate)
        rhs = self._dxL(t) - (t.v[..., None, :] @ self._dxvL(t))[..., 0, :]
        try:
            return np.linalg.solve(self._dvvL(t), rhs[..., None])[..., 0]
        except np.linalg.LinAlgError as exc:
            raise SingularVerticalHessian(str(exc)) from None

    # -- invariant sweep -------------------------------------------------------

    def check_invariants(self, samples=200, seed=0, t_factors=(0.5, 2.0, 7.0)):
        rng = np.random.default_rng(seed)
        lo, hi = self.chart_box[:, 0], self.chart_box[:, 1]
        worst_hom = 0.0
        worst_euler = 0.0
        worst_sym = 0.0
        min_eig_ratio = math.inf
        failures = []
        for _ in range(samples):
            x = lo + (hi - lo) * rng.uniform(size=self.dim)
            direction = rng.normal(size=self.dim)
            direction /= np.linalg.norm(direction)
            mag = rng.uniform(self.v_min, 10.0)
            v = mag * direction
            try:
                fv = self.F(x, v)
                if self.pseudo and abs(fv) < 1e-10 * mag**2:
                    continue  # near the null cone homogeneity ratios blow up
                deg = 2.0 if self.pseudo else 1.0
                for t in t_factors:
                    err = abs(self.F(x, t * v) - t**deg * fv) / (t**deg * abs(fv))
                    worst_hom = max(worst_hom, err)
                g = 0.5 * self.dvvL(x, v)
                worst_sym = max(worst_sym, float(np.max(np.abs(g - g.T))))
                gs = 0.5 * (g + g.T)
                euler = abs(float(v @ gs @ v) - fv * fv) / max(fv * fv, 1e-300)
                worst_euler = max(worst_euler, euler)
                if not self.pseudo:
                    w = np.linalg.eigvalsh(gs)
                    min_eig_ratio = min(min_eig_ratio, w[0] / max(abs(w[-1]), 1e-300))
                    if w[0] <= 0:
                        failures.append(("definiteness", x.tolist(), v.tolist()))
            except NumericalError as exc:
                failures.append((type(exc).__name__, x.tolist(), v.tolist()))
        passed = (
            worst_hom <= 1e-9
            and worst_euler <= 1e-6
            and not failures
            and (self.pseudo or min_eig_ratio > 0)
        )
        return InvariantReport(
            kind=self.kind,
            samples=samples,
            seed=seed,
            max_homogeneity_error=worst_hom,
            max_euler_error=worst_euler,
            max_symmetry_error=worst_sym,
            min_eigenvalue_ratio=None if self.pseudo else min_eig_ratio,
            failures=failures,
            passed=passed,
        )


@dataclass
class InvariantReport:
    kind: str
    samples: int
    seed: int
    max_homogeneity_error: float
    max_euler_error: float
    max_symmetry_error: float
    min_eigenvalue_ratio: float | None
    failures: list = field(default_factory=list)
    passed: bool = False

    def as_dict(self):
        return {
            "kind": self.kind,
            "samples": self.samples,
            "seed": self.seed,
            "max_homogeneity_error": self.max_homogeneity_error,
            "max_euler_error": self.max_euler_error,
            "max_symmetry_error": self.max_symmetry_error,
            "min_eigenvalue_ratio": self.min_eigenvalue_ratio,
            "failures": self.failures,
            "passed": self.passed,
        }


# ---------------------------------------------------------------------------
# Factories


def euclidean(dim=2, **kw):
    eye = np.eye(dim)
    zeros1 = np.zeros((dim, dim, dim))
    zeros2 = np.zeros((dim, dim, dim, dim))
    comps = _Components(
        dim,
        h=lambda x: eye,
        dh=lambda x: zeros1,
        d2h=lambda x: zeros2,
    )
    return MetricField(dim, "euclidean", comps, **kw)


def sphere_stereo(curvature, dim=2, **kw):
    """Round sphere of constant curvature K in the stereographic chart.

    Conformal factor rho(x) = 4 / (K (1 + |x|^2)^2); the image of a great
    circle through the chart point (0, ..., -1) tangent to e1 is |x| = 1.
    """
    if curvature <= 0:
        raise ConfigError(f"curvature must be positive, got {curvature}")
    K = float(curvature)
    eye = np.eye(dim)

    def rho(x):
        return 4.0 / (K * (1.0 + float(x @ x)) ** 2)

    def h(x):
        return rho(x) * eye

    def dh(x):
        s = 1.0 + float(x @ x)
        drho = -16.0 * np.asarray(x, float) / (K * s**3)
        return drho[:, None, None] * eye

    def d2h(x):
        x = np.asarray(x, dtype=float)
        s = 1.0 + float(x @ x)
        d2rho = (-16.0 / (K * s**3)) * np.eye(dim) + (
            96.0 / (K * s**4)
        ) * np.outer(x, x)
        return d2rho[:, :, None, None] * eye

    params = dict(kw.pop("params", {}) or {})
    params.setdefault("K", K)
    comps = _Components(dim, h=h, dh=dh, d2h=d2h)
    return MetricField(dim, "sphere_stereo", comps, params=params, **kw)


def _sym(dim, entry):
    """Symmetric matrix of ASTs from entry(i, j) evaluated for i <= j."""
    out = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            out[i][j] = out[j][i] = entry(i, j)
    return out


def _expr_matrix(dim, rows, what):
    """Parse a dim x dim matrix of expressions and symmetrize it, entry
    (i, j) = (rows[i][j] + rows[j][i]) / 2; equal entries stay as given."""
    if len(rows) != dim or any(len(r) != dim for r in rows):
        raise ConfigError(f"{what} must be a {dim}x{dim} matrix of expressions")
    g = [[_expr.parse(e) if isinstance(e, str) else e for e in row] for row in rows]
    return _sym(dim, lambda i, j: g[i][j] if g[i][j] == g[j][i]
                else 0.5 * (g[i][j] + g[j][i]))


def _expr_vector(dim, comps, what):
    if len(comps) != dim:
        raise ConfigError(f"{what} must have {dim} component expressions")
    return [_expr.parse(e) if isinstance(e, str) else e for e in comps]


def _from_exprs(dim, kind, h, beta=None, params=None, *, pseudo=False,
                randers_check=True, bound_check_samples=128, **kw):
    """MetricField over expression ASTs (h symmetric) with exact derivatives."""
    comps = _ExprComponents(dim, h, beta, params)
    m = MetricField(dim, kind, comps, pseudo=pseudo, params=params, **kw)
    if beta is not None and not pseudo and randers_check:
        _check_randers_bound(m, n_check=bound_check_samples)
    return m


def riemannian_expr(dim, g, params=None, **kw):
    return _from_exprs(dim, "riemannian_expr", _expr_matrix(dim, g, "g"),
                       params=params, sources={"g": g}, **kw)


def quadratic_expr(dim, g, params=None, **kw):
    return _from_exprs(dim, "quadratic_expr", _expr_matrix(dim, g, "g"),
                       params=params, pseudo=True, sources={"g": g}, **kw)


def _check_randers_bound(m, n_check=128, seed=7):
    """Sample |beta|_h over the chart box; reject if it ever reaches 1."""
    rng = np.random.default_rng(seed)
    lo, hi = m.chart_box[:, 0], m.chart_box[:, 1]
    pts = [0.5 * (lo + hi)]
    pts += [lo + (hi - lo) * rng.uniform(size=m.dim) for _ in range(n_check)]
    worst = -math.inf
    worst_x = None
    for x in pts:
        hx, bx = m._c.stack(x, 0)
        try:
            norm2 = float(bx @ np.linalg.solve(hx, bx))
        except np.linalg.LinAlgError:
            raise RandersBoundError(f"h singular at sampled point {x}")
        if norm2 > worst:
            worst, worst_x = norm2, x
    if worst >= 1.0:
        raise RandersBoundError(
            f"|beta|_h = {math.sqrt(max(worst, 0.0)):.6f} >= 1 near {worst_x}"
        )
    return math.sqrt(max(worst, 0.0))


def randers_expr(dim, h, beta, params=None, *, bound_check_samples=128, **kw):
    return _from_exprs(
        dim, "randers", _expr_matrix(dim, h, "h"), _expr_vector(dim, beta, "beta"),
        params, bound_check_samples=bound_check_samples,
        sources={"h": h, "beta": beta}, **kw,
    )


def from_callables(dim, kind, h, beta=None, *, dh=None, d2h=None, dbeta=None,
                   d2beta=None, pseudo=False, randers_check=True, **kw):
    """Build a MetricField from component callables (library entry point)."""
    comps = _Components(dim, h=h, beta=beta, dh=dh, d2h=d2h,
                        dbeta=dbeta, d2beta=d2beta)
    m = MetricField(dim, kind, comps, pseudo=pseudo, **kw)
    if beta is not None and not pseudo and randers_check:
        _check_randers_bound(m)
    return m
