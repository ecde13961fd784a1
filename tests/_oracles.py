"""Independent oracles used by the test suite.

Everything here is deliberately written against closed forms or scalar ODEs,
never through the code paths under test.
"""

import math
import operator
import re

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

import fbt
from fbt import expr as _expr


# ---------------------------------------------------------------------------
# Scalar transverse Jacobi oracle for warped-product surfaces
#
# For g = dr^2 + f(r)^2 dtheta^2 the Gauss curvature is K(r) = -f''(r)/f(r);
# with f = exp(-lam r^2 / 2) that is K = lam - lam^2 r^2.  The parallel-frame
# transverse Jacobi scalar solves u'' + K(gamma(t)) u = 0.


def jacobi_scalar(curvature_fn, t_span, u0, du0, t_eval=None):
    def rhs(t, y):
        return [y[1], -curvature_fn(t) * y[0]]

    sol = solve_ivp(rhs, t_span, [u0, du0], method="DOP853",
                    rtol=1e-12, atol=1e-14, dense_output=True, t_eval=t_eval)
    return sol


def warped_dirichlet_crossing(curvature_of_lam, lo, hi, span=(-1.0, 1.0)):
    """Bisection for the parameter where the transverse Jacobi scalar with
    u(span[0]) = 0 first vanishes again at span[1]."""

    def u_end(lam):
        k = curvature_of_lam(lam)
        sol = jacobi_scalar(k, span, 0.0, 1.0)
        return sol.y[0, -1]

    return brentq(u_end, lo, hi, xtol=1e-10)


def flat_axis_warped_mu(lo=0.5, hi=5.0):
    """Critical parameter of the warped family whose trivial branch runs
    along the flat axis (r identically 0): curvature along the branch is the
    constant lam, so the crossing solves sin(sqrt(lam) * 2) = 0."""
    return warped_dirichlet_crossing(lambda lam: (lambda t: lam), lo, hi)


# ---------------------------------------------------------------------------
# Closed-form warped metric with analytic derivatives (for frame accuracy
# tests the finite-difference expression stack is not good enough)


def warped_metric(lam, flat_axis=False, **kw):
    """g = dx1^2 + exp(-lam x1^2) dx2^2, or with the roles of x1/x2 swapped
    so that the x1 axis is the flat direction."""
    eye = np.eye(2)
    idx = 1 if flat_axis else 0  # which coordinate the warp depends on
    pos = 0 if flat_axis else 1  # which diagonal entry is warped

    def h(x):
        out = eye.copy()
        out[pos, pos] = np.exp(-lam * x[idx] ** 2)
        return out

    def dh(x):
        out = np.zeros((2, 2, 2))
        out[idx, pos, pos] = -2.0 * lam * x[idx] * np.exp(-lam * x[idx] ** 2)
        return out

    def d2h(x):
        out = np.zeros((2, 2, 2, 2))
        e = np.exp(-lam * x[idx] ** 2)
        out[idx, idx, pos, pos] = (-2.0 * lam + 4.0 * lam**2 * x[idx] ** 2) * e
        return out

    return fbt.from_callables(2, "riemannian_expr", h, dh=dh, d2h=d2h, **kw)


# ---------------------------------------------------------------------------
# Great circles of the stereographic sphere chart


def great_circle_chart(K, t):
    """Unit-speed geodesic of sphere_stereo(K) from (0, -1) tangent to e1:
    the chart unit circle swept at angular rate sqrt(K)."""
    w = np.sqrt(K)
    t = np.asarray(t, dtype=float)
    return np.stack([np.sin(w * t), -np.cos(w * t)], axis=-1)


def great_circle_velocity(K, t):
    w = np.sqrt(K)
    t = np.asarray(t, dtype=float)
    return np.stack([w * np.cos(w * t), w * np.sin(w * t)], axis=-1)


# ---------------------------------------------------------------------------
# Constant-wind Zermelo closed form


def constant_wind_time(d, W):
    """Travel time across displacement d under constant wind W, |W|_e < 1:
    the positive root of |d/T - W| = 1."""
    d = np.asarray(d, dtype=float)
    W = np.asarray(W, dtype=float)
    lam = 1.0 - float(W @ W)
    dw = float(d @ W)
    return (-dw + np.sqrt(dw * dw + float(d @ d) * lam)) / lam


# ---------------------------------------------------------------------------
# Finite-difference exponential-map Jacobian


def expmap_fd(m, p, v, w, eps=1e-5):
    """Central difference of exp_p through perturbed initial velocity."""
    plus = fbt.exp_map(m, p, np.asarray(v) + eps * np.asarray(w),
                       rtol=1e-11, atol=1e-14)
    minus = fbt.exp_map(m, p, np.asarray(v) - eps * np.asarray(w),
                        rtol=1e-11, atol=1e-14)
    return (plus - minus) / (2.0 * eps)


# ---------------------------------------------------------------------------
# Tree-walking expression evaluator
#
# Evaluates an fbt.expr AST node by node with Python floats and the math
# module, left operand first, as a direct reading of the grammar.  The
# compiled bundles must agree with it bit for bit.

_TREE_FN = {
    "sin": math.sin, "cos": math.cos, "tan": math.tan, "exp": math.exp,
    "log": math.log, "sqrt": math.sqrt, "sinh": math.sinh, "cosh": math.cosh,
    "tanh": math.tanh, "atan": math.atan, "abs": abs,
    "sign": lambda a: 1.0 if a > 0.0 else -1.0 if a < 0.0 else 0.0,
}
_TREE_OP = {"+": operator.add, "-": operator.sub, "*": operator.mul,
            "/": operator.truediv, "^": math.pow}


def tree_eval(node, point, params=None):
    """Value of the AST at the chart point; raises ValueError, OverflowError
    or ZeroDivisionError where the compiled code raises DomainError."""
    params = params or {}
    if isinstance(node, _expr.Num):
        return node.value
    if isinstance(node, _expr.Name):
        if re.fullmatch(r"x[1-9][0-9]*", node.ident):
            return float(point[int(node.ident[1:]) - 1])
        return float(params[node.ident])
    if isinstance(node, _expr.Unary):
        return -tree_eval(node.arg, point, params)
    if isinstance(node, _expr.Call):
        return _TREE_FN[node.fn](tree_eval(node.arg, point, params))
    a = tree_eval(node.lhs, point, params)
    return _TREE_OP[node.op](a, tree_eval(node.rhs, point, params))


# ---------------------------------------------------------------------------
# Second-variation assembly, one element and one Gauss point at a time
#
# The reference for morse._assemble: the same stiffness and mass matrices
# built by a direct loop over elements, 3-point Gauss nodes and 2x2 node
# blocks, with one scalar second_derivatives call per Gauss point.

_GAUSS3_NODES = np.array([-np.sqrt(3.0 / 5.0), 0.0, np.sqrt(3.0 / 5.0)])
_GAUSS3_WEIGHTS = np.array([5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0])


def assemble_loop(path, boundary, mesh):
    """Reduced (K, M) of the second variation on a uniform mesh."""
    m = path.metric
    n = m.dim
    nn = mesh + 1
    h = path.tau / mesh
    K = np.zeros((nn * n, nn * n))
    Mm = np.zeros((nn * n, nn * n))
    eye = np.eye(n)
    for e in range(mesh):
        ta = e * h
        K_loc = np.zeros((2 * n, 2 * n))
        M_loc = np.zeros((2 * n, 2 * n))
        for gi in range(3):
            t = ta + 0.5 * h * (1.0 + _GAUSS3_NODES[gi])
            w = 0.5 * h * _GAUSS3_WEIGHTS[gi]
            x, v = path.state(t)
            Lxx, Lxv, Lvv = m.second_derivatives(x, v)
            s = (t - ta) / h
            phi = (1.0 - s, s)
            dphi = (-1.0 / h, 1.0 / h)
            for a in range(2):
                for b in range(2):
                    blk = (
                        phi[a] * phi[b] * Lxx
                        + phi[a] * dphi[b] * Lxv
                        + dphi[a] * phi[b] * Lxv.T
                        + dphi[a] * dphi[b] * Lvv
                    )
                    K_loc[a * n:(a + 1) * n, b * n:(b + 1) * n] += w * blk
                    M_loc[a * n:(a + 1) * n, b * n:(b + 1) * n] += w * (
                        phi[a] * phi[b] + dphi[a] * dphi[b]
                    ) * eye
        i0 = e * n
        K[i0:i0 + 2 * n, i0:i0 + 2 * n] += K_loc
        Mm[i0:i0 + 2 * n, i0:i0 + 2 * n] += M_loc

    if isinstance(boundary, fbt.BoundaryData):
        W = boundary.basis
        k = W.shape[1]
        # node 0 restricted to T_{x0}P, last node clamped
        T = np.zeros((nn * n, k + (mesh - 1) * n))
        T[:n, :k] = W
        for i in range(1, mesh):
            T[i * n:(i + 1) * n, k + (i - 1) * n: k + i * n] = eye
        K_red = T.T @ K @ T
        M_red = T.T @ Mm @ T
        A = W.T @ m.fundamental_tensor(path.x0, path.v0) @ W
        K0 = 2.0 * (A @ boundary.shape_operator)
        K_red[:k, :k] += 0.5 * (K0 + K0.T)
    else:
        idx = np.arange(n, mesh * n)
        K_red = K[np.ix_(idx, idx)]
        M_red = Mm[np.ix_(idx, idx)]
    return 0.5 * (K_red + K_red.T), 0.5 * (M_red + M_red.T)


# ---------------------------------------------------------------------------
# Spray linearization, one perturbed column at a time


def spray_jacobians_loop(m, x, v, step):
    """Central differences of the spray along each e_j in x and in v, with
    steps step*max(1, |x_j|) and step*|v|, one spray call per perturbed
    state."""
    n = m.dim
    A = np.empty((n, n))
    B = np.empty((n, n))
    hv = step * float(np.linalg.norm(v))
    for j in range(n):
        hx = step * max(1.0, abs(x[j]))
        xp = x.copy(); xp[j] += hx
        xm = x.copy(); xm[j] -= hx
        A[:, j] = (m.spray(xp, v) - m.spray(xm, v)) / (2.0 * hx)
        vp = v.copy(); vp[j] += hv
        vm = v.copy(); vm[j] -= hv
        B[:, j] = (m.spray(x, vp) - m.spray(x, vm)) / (2.0 * hv)
    return A, B


# ---------------------------------------------------------------------------
# Complex-step states by numpy broadcasting
#
# The complex-step spray linearization and the right-hand side of the
# shooting copies written as array expressions over one m.spray call, the
# formulas the list-level MetricField.complex_step callers replaced; the
# callers must match them bit for bit.


def spray_jacobians_broadcast(m, x, v):
    """A = Dx spray, B = Dv spray at a state or a stack (..., n) from one
    spray call on the broadcast states x + i*h*e_j and v + i*h*e_j."""
    n, h = m.dim, fbt.metric.COMPLEX_STEP
    dz = 1j * h * np.eye(n)
    zero = np.zeros((n, n))
    a = m.spray(np.asarray(x, dtype=float)[..., None, :] + np.concatenate([dz, zero]),
                np.asarray(v, dtype=float)[..., None, :] + np.concatenate([zero, dz]))
    a = np.swapaxes(a.imag, -1, -2) / h
    return a[..., :n], a[..., n:]


def shooting_rhs_broadcast(m, y):
    """d/dt of the flat state of n complex-step copies (x_j, v_j), every
    copy taken at the first copy's real part."""
    n = m.dim
    y = y.reshape(n, 2 * n)
    y = y[0].real + 1j * y.imag
    return np.concatenate([y[:, n:], m.spray(y[:, :n], y[:, n:])], axis=1).ravel()


# ---------------------------------------------------------------------------
# Jacobi frame by one joint flow
#
# The geodesic and its variational frame integrated together as one system
# (x, v, M, M') by DOP853 at rtol 1e-13, nothing read from a stored path.
# The spray linearization is the sixth-order Richardson combination
# (64 D(h) - 20 D(2h) + D(4h)) / 45 of spray_jacobians_loop at h = 1e-3: real
# central differences only, so it shares no derivative scheme with the
# complex-step linearization of the frames under test, and its truncation
# error sits below the frame bounds.


def richardson_jacobians_loop(m, x, v):
    """(64 D(h) - 20 D(2h) + D(4h)) / 45 of spray_jacobians_loop at
    h = 1e-3."""
    (A1, B1), (A2, B2), (A4, B4) = (spray_jacobians_loop(m, x, v, h)
                                    for h in (1e-3, 2e-3, 4e-3))
    return (64.0 * A1 - 20.0 * A2 + A4) / 45.0, (64.0 * B1 - 20.0 * B2 + B4) / 45.0


def frame_joint_flow(m, x0, v0, ts):
    """M at the times ts (increasing) of the frame with M(0) = 0 and
    M'(0) = I along the geodesic from (x0, v0)."""
    n = m.dim

    def rhs(t, y):
        x, v = y[:n], y[n:2 * n]
        M = y[2 * n:2 * n + n * n].reshape(n, n)
        Md = y[2 * n + n * n:].reshape(n, n)
        A, B = richardson_jacobians_loop(m, x, v)
        return np.concatenate([v, m.spray(x, v), Md.ravel(),
                               (A @ M + B @ Md).ravel()])

    y0 = np.concatenate([np.asarray(x0, dtype=float), np.asarray(v0, dtype=float),
                         np.zeros(n * n), np.eye(n).ravel()])
    ts = np.asarray(ts, dtype=float)
    sol = solve_ivp(rhs, (0.0, ts[-1]), y0, method="DOP853", rtol=1e-13,
                    atol=1e-15, t_eval=ts)
    return sol.y[2 * n:2 * n + n * n].T.reshape(len(ts), n, n)


# ---------------------------------------------------------------------------
# Conjugate-scan grid, one time at a time


def scan_grid_loop(frame, grid):
    """Grid times over (0, tau], det M and sigma_min / sigma_max there, with
    one dense-output call, one det and one SVD per time."""
    ts = np.linspace(0.0, frame.path.tau, grid + 1)[1:]
    dets = np.empty(ts.shape[0])
    ratios = np.empty(ts.shape[0])
    for i, t in enumerate(ts):
        M = frame.M(t)
        dets[i] = np.linalg.det(M)
        sv = np.linalg.svd(M, compute_uv=False)
        ratios[i] = sv[-1] / sv[0] if sv[0] > 0 else 0.0
    return ts, dets, ratios


# ---------------------------------------------------------------------------
# Stereographic sphere chart from closed-form component callables


def sphere_stereo_closed(K, dim=2):
    """sphere_stereo(K, dim) with h = rho I, rho = 4 / (K (1 + |x|^2)^2),
    and hand-derived first and second chart derivatives of h."""
    eye = np.eye(dim)

    def h(x):
        return 4.0 / (K * (1.0 + float(x @ x)) ** 2) * eye

    def dh(x):
        s = 1.0 + float(x @ x)
        drho = -16.0 * np.asarray(x, float) / (K * s**3)
        return drho[:, None, None] * eye

    def d2h(x):
        x = np.asarray(x, dtype=float)
        s = 1.0 + float(x @ x)
        d2rho = (-16.0 / (K * s**3)) * eye + (96.0 / (K * s**4)) * np.outer(x, x)
        return d2rho[:, :, None, None] * eye

    return fbt.from_callables(dim, "sphere_stereo", h, dh=dh, d2h=d2h)


# ---------------------------------------------------------------------------
# C^1 distance between two paths, one sample time at a time


def c1_distance_loop(path_a, path_b, n_samples=40):
    worst = 0.0
    for t in np.linspace(0.0, path_a.tau, n_samples):
        xa, va = path_a.state(t)
        xb, vb = path_b.state(t)
        worst = max(worst, float(np.linalg.norm(xa - xb) + np.linalg.norm(va - vb)))
    return worst


# ---------------------------------------------------------------------------
# Template evaluators from hand-written broadcasting formulas
#
# The reference for the generated Lagrangian kernel of fbt.metric: the
# closed forms of L = (sqrt(q) + beta.v)^2 (or L = q without a one-form) and
# of its derivatives, written over numpy arrays as they stood before the
# kernel, with np.linalg.solve for the spray.  The components come from the
# metric's own bundle or callables (m._c.stack) one state at a time; a
# complex state x = a + i*b takes the jet one order higher at a, lifted as
# D^r(a) + i * b.D^(r+1)(a).


def _mv(A, v):
    """A (P + (m, n)) applied to v (P + (n,)): P + (m,)."""
    return (A @ v[..., None])[..., 0]


def _dot(a, b):
    """a . b over the last axis: shape P (a numpy scalar for one state)."""
    return (a[..., None, :] @ b[..., None])[..., 0, 0][()]


def _outer(a, b):
    return a[..., :, None] * b[..., None, :]


def _col(c):
    """A value per state (shape P) as P + (1,), to scale vectors."""
    return c[..., None]


def _mat(c):
    """A value per state (shape P) as P + (1, 1), to scale matrices."""
    return c[..., None, None]


class _Terms:
    """Template terms at a state: v, hx, bx, u = h v and q = v.u; with a
    one-form also s = sqrt(q), F = s + beta.v and p = dF/dv = u/s + beta.
    From order 1 dbeta, uk = dh v and qk = v.dh.v, with a one-form
    sk = ds/dx = qk/(2s) and fx = dF/dx = sk + dbeta v; at order 2
    qkl = v.d2h.v and bkl = d2beta v."""

    __slots__ = ("v", "hx", "bx", "u", "q", "s", "F", "p", "dbeta", "uk", "qk",
                 "sk", "fx", "qkl", "bkl")


def _lifted_stack(m, x, order):
    if not np.iscomplexobj(x):
        return m._c.stack(x, order)
    jet = m._c.stack(x.real, order + 1)
    return [None if val is None else val + 1j * np.tensordot(x.imag, der, axes=1)
            for val, der in zip(jet[:2 * order + 2], jet[2:])]


def _template_terms(m, x, v, order):
    t = _Terms()
    t.v = v
    t.hx, t.bx, *derivs = _lifted_stack(m, x, order)
    t.u = _mv(t.hx, v)
    t.q = _dot(v, t.u)
    randers = t.bx is not None
    if randers:
        t.s = np.sqrt(t.q)
        t.F = t.s + _dot(t.bx, v)
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


def _tdvL(t):
    if t.bx is None:
        return 2.0 * t.u
    return _col(2.0 * t.F) * t.p


def _tdvvL(t):
    if t.bx is None:
        return 2.0 * t.hx
    return (2.0 * _outer(t.p, t.p) + _mat(2.0 * t.F / t.s) * t.hx
            - _mat(2.0 * t.F / t.s**3) * _outer(t.u, t.u))


def _tdxL(t):
    if t.bx is None:
        return t.qk
    return _col(2.0 * t.F) * t.fx


def _tdxvL(t):
    if t.bx is None:
        return 2.0 * t.uk
    dxp = t.uk / _mat(t.s) - _outer(t.sk, t.u) / _mat(t.q) + t.dbeta
    return 2.0 * _outer(t.fx, t.p) + _mat(2.0 * t.F) * dxp


def _tdxxL(t):
    if t.bx is None:
        return t.qkl
    skl = t.qkl / _mat(2.0 * t.s) - _outer(t.qk, t.qk) / _mat(4.0 * t.s**3)
    return 2.0 * _outer(t.fx, t.fx) + _mat(2.0 * t.F) * (skl + t.bkl)


def _tspray(t):
    rhs = _tdxL(t) - (t.v[..., None, :] @ _tdxvL(t))[..., 0, :]
    return np.linalg.solve(_tdvvL(t), rhs[..., None])[..., 0]


_TEMPLATE = {
    "F": (0, lambda t, pseudo: t.q if pseudo else np.sqrt(t.q) if t.bx is None else t.F),
    "L": (0, lambda t, pseudo: t.q if t.bx is None else t.F**2),
    "dvL": (0, lambda t, pseudo: _tdvL(t)),
    "dvvL": (0, lambda t, pseudo: _tdvvL(t)),
    "dxL": (1, lambda t, pseudo: _tdxL(t)),
    "dxvL": (1, lambda t, pseudo: _tdxvL(t)),
    "dxxL": (2, lambda t, pseudo: _tdxxL(t)),
    "spray": (1, lambda t, pseudo: _tspray(t)),
    "second_derivatives": (2, lambda t, pseudo: np.stack([_tdxxL(t), _tdxvL(t),
                                                          _tdvvL(t)])),
}


def template_evaluators(m):
    """name -> f(x, v) for F, L, spray, second_derivatives (stacked as
    (..., 3, n, n)) and the dvL, dvvL, dxL, dxvL, dxxL pieces, at one state
    (n,) or a stack (N, n), evaluated one state at a time."""
    def make(order, formula):
        def f(x, v):
            x, v = np.asarray(x) + 0.0, np.asarray(v) + 0.0
            rows = [formula(_template_terms(m, xi, vi, order), m.pseudo)
                    for xi, vi in zip(x.reshape(-1, m.dim), v.reshape(-1, m.dim))]
            out = np.array(rows)
            return out.reshape(x.shape[:-1] + out.shape[1:])
        return f

    return {name: make(*spec) for name, spec in _TEMPLATE.items()}


# ---------------------------------------------------------------------------
# Point-set gap between sampled curves, by brute force: every sample against
# every segment of the polyline, one pair at a time in plain Python


def point_set_gap_brute(samples, other):
    """Max over the rows of samples of the Euclidean distance to the polyline
    through the rows of other."""
    worst = 0.0
    for p in np.asarray(samples, dtype=float).tolist():
        best = math.inf
        pts = np.asarray(other, dtype=float).tolist()
        for a, b in zip(pts[:-1], pts[1:]):
            ab = [bi - ai for ai, bi in zip(a, b)]
            den = sum(c * c for c in ab)
            s = sum((pi - ai) * c for pi, ai, c in zip(p, a, ab)) / den if den else 0.0
            s = min(max(s, 0.0), 1.0)
            best = min(best, sum((ai + s * c - pi) ** 2 for ai, c, pi in zip(a, ab, p)))
        worst = max(worst, math.sqrt(best))
    return worst
