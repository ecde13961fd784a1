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
    steps step*max(1, |x_j|) and step*max(1, |v_j|), one spray call per
    perturbed state."""
    n = m.dim
    A = np.empty((n, n))
    B = np.empty((n, n))
    for j in range(n):
        hx = step * max(1.0, abs(x[j]))
        xp = x.copy(); xp[j] += hx
        xm = x.copy(); xm[j] -= hx
        A[:, j] = (m.spray(xp, v) - m.spray(xm, v)) / (2.0 * hx)
        hv = step * max(1.0, abs(v[j]))
        vp = v.copy(); vp[j] += hv
        vm = v.copy(); vm[j] -= hv
        B[:, j] = (m.spray(x, vp) - m.spray(x, vm)) / (2.0 * hv)
    return A, B
