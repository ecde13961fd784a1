"""Jacobi frames, the exponential-map Jacobian, conjugate and focal scans.

A frame carries n columns (J, J') through the linearized geodesic equation
J'' = Dx spray . J + Dv spray . J' together with its own geodesic: one real
flow on (x, v, M, M') from a path's start state by the 8th-order
Dormand-Prince pair (ode.dop853), with M and M' in the error norm.  Each
stage evaluates the n complex-step rows spray(x + i h M_j, v + i h M'_j):
the real part is the geodesic's spray, Im / h the column's J''.  So the
counting index route (these scans) rides the frame's geodesic at SCAN_RTOL,
the spectral one (morse) the stored path at its rtol, from the same
(x0, v0, tau).  D exp is the shooting derivative (geoflow.endpoint_jacobian).

Conjugate and focal instants show up as rank drops of M(t).  A scan reads
its grid with one dense-output call and brackets them there: sign changes of
det M catch odd multiplicities, dips of the smallest singular value the
rest.  Newton steps on the pencil (M(t), -M'(t)) refine each bracket and
give the multiplicity (see _refine).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError
from .geoflow import GeodesicPath, BoundaryData, _solve, endpoint_jacobian
from .metric import COMPLEX_STEP

__all__ = [
    "JacobiFrame",
    "ConjugateInstant",
    "ConjugateReport",
    "jacobi_frame",
    "expmap_jacobian",
    "conjugate_scan",
    "focal_scan",
    "NotPerpendicular",
    "ResolutionWarning",
]

SCAN_RTOL = 1e-11
SCAN_ATOL = 1e-14
# finite-difference component derivatives put rounding noise near 1e-11 into
# the spray; below these tolerances DOP853's error control chases that noise
# with thousands of steps
FD_COMPONENT_RTOL = 1e-9
FD_COMPONENT_ATOL = 1e-12
THETA_NULL = 1e-6
DIP_TRIGGER = 0.05
# offsets closer than this many grid cells are one instant (a double
# instant of a frame at rtol 1e-9 splits by some 5e-6 cells)
SAME_INSTANT = 1e-3
PENCIL_MAXITER = 10
STEP_ROUND = 64 * np.finfo(float).eps  # a converged step, relative to max(1, |t|)
DEFAULT_GRID = 400


class NotPerpendicular(NumericalError):
    pass


class ResolutionWarning(UserWarning):
    pass


def spray_jacobians(m, x, v):
    """A = Dx spray and B = Dv spray at a state or a stack of states
    (..., n), by the complex step: column j of A is
    Im spray(x + i*h*e_j, v) / h and of B Im spray(x, v + i*h*e_j) / h, at
    h = COMPLEX_STEP, from one complex-step evaluation of the 2n states per
    state.  Nothing is subtracted, so no step to tune and no rounding floor.
    This is residual_max's independent check of the frame flow."""
    n = m.dim
    x, v = np.asarray(x, dtype=float), np.asarray(v, dtype=float)
    zero = [0.0] * n
    steps = [zero[:j] + [COMPLEX_STEP] + zero[j + 1:] for j in range(n)]
    out = []
    for a, u in zip(x.reshape(-1, n).tolist(), v.reshape(-1, n).tolist()):
        u = [complex(w) for w in u]
        rows = [(y, u) for y in steps]
        rows += [(zero, u[:j] + [u[j] + 1j * COMPLEX_STEP] + u[j + 1:]) for j in range(n)]
        out.append(m.complex_step("spray", a, rows).imag.T)
    jac = np.reshape(out, x.shape[:-1] + (n, 2 * n)) / COMPLEX_STEP
    return jac[..., :n], jac[..., n:]


@dataclass
class JacobiFrame:
    """M and M' along a path: the last 2 n^2 components of the frame flow's
    dense output sol (ode.DenseOutput) with step times ts."""

    path: GeodesicPath
    kind: str
    boundary: BoundaryData | None
    sol: object
    ts: np.ndarray

    @property
    def dim(self):
        return self.path.dim

    def M(self, t):
        """M(t); at an array of times, a stack of matrices."""
        n = self.dim
        return self.sol(t)[-2 * n * n:-n * n].T.reshape(np.shape(t) + (n, n))

    def Mdot(self, t):
        n = self.dim
        return self.sol(t)[-n * n:].T.reshape(np.shape(t) + (n, n))

    def sigma(self, t):
        return np.linalg.svd(self.M(t), compute_uv=False)

    def residual_max(self, n_samples=20, seed=0):
        """Linearized-equation residual via differentiation of the dense Mdot."""
        rng = np.random.default_rng(seed)
        ts = rng.uniform(0.05 * self.path.tau, 0.95 * self.path.tau, size=n_samples)
        a = np.maximum(ts - 1e-3, 0.0)
        b = np.minimum(ts + 1e-3, self.path.tau)
        Mdd = (self.Mdot(b) - self.Mdot(a)) / (b - a)[:, None, None]
        x, v = self.path.state(ts)
        A, B = spray_jacobians(self.path.metric, x, v)
        M, Md = self.M(ts), self.Mdot(ts)
        R = np.linalg.norm(Mdd - A @ M - B @ Md, axis=(-2, -1))
        scale = 1.0 + np.linalg.norm(A @ M + B @ Md, axis=(-2, -1))
        return float(np.max(R / scale))


def _focal_init(m, path, b):
    """Initial frame for a start submanifold P: k columns with J(0) in T_pP and
    tangential J'(0) coupled through the shape operator, n-k columns spanning
    the g_v-orthogonal complement with J(0) = 0."""
    n = m.dim
    x0, v0 = path.x0, path.v0
    W = b.basis
    k = W.shape[1]
    G = m.fundamental_tensor(x0, v0)
    if k > 0:
        res = np.max(np.abs(W.T @ G @ v0)) / (1.0 + abs(float(v0 @ G @ v0)))
        if res > 1e-8:
            raise NotPerpendicular(
                f"path does not start g_v-orthogonally to P (residual {res:.3e})"
            )
    M0 = np.zeros((n, n))
    Md0 = np.zeros((n, n))
    if k > 0:
        M0[:, :k] = W
        Md0[:, :k] = W @ b.shape_operator
        # complement: null space of the k x n constraint matrix (G W)^T
        _, sv, vt = np.linalg.svd(W.T @ G)
        comp = vt[k:].T
    else:
        comp = np.eye(n)
    Md0[:, k:] = comp
    return M0, Md0


def _frame_rhs(m):
    """The frame flow's right-hand side on the flat real (x, v, M, M')."""
    n = m.dim

    def rhs(t, y):
        ys = (COMPLEX_STEP * y[2 * n:-n * n]).reshape(n, n).T.tolist()
        us = (y[n:2 * n] + 1j * COMPLEX_STEP * y[-n * n:].reshape(n, n).T).tolist()
        out = m.complex_step("spray", y[:n].tolist(), zip(ys, us))
        return np.concatenate([y[n:2 * n], out[0].real, y[-n * n:],
                               (out.imag.T / COMPLEX_STEP).ravel()])

    return rhs


def jacobi_frame(path, init="conjugate"):
    """Propagate an n-column variational frame, with its own geodesic, from
    the path's start state over [0, path.tau].

    init is "conjugate" (M(0) = 0, M'(0) = I) or a BoundaryData describing a
    start submanifold for the focal problem.  The flow runs at SCAN_RTOL /
    SCAN_ATOL (FD_COMPONENT_* for finite-difference component derivatives)
    and raises LeftChart and ZeroVelocity as the geodesic flow does.
    """
    m = path.metric
    n = m.dim
    rtol, atol = ((SCAN_RTOL, SCAN_ATOL) if m.has_analytic_dx
                  else (FD_COMPONENT_RTOL, FD_COMPONENT_ATOL))
    if isinstance(init, BoundaryData):
        M0, Md0 = _focal_init(m, path, init)
        kind, boundary = "focal", init
    elif init == "conjugate":
        M0, Md0 = np.zeros((n, n)), np.eye(n)
        kind, boundary = "conjugate", None
    else:
        raise ValueError(f"unknown frame init {init!r}")

    y0 = np.concatenate([path.x0, path.v0, M0.ravel(), Md0.ravel()])
    res = _solve(m, _frame_rhs(m), path.tau, y0, rtol=rtol, atol=atol, dense=True)
    return JacobiFrame(path, kind, boundary, res.sol, res.ts)


def expmap_jacobian(m, p, v, *, rtol=1e-9, atol=1e-12):
    """D exp_p(v), the shooting derivative d x(1) / d v of
    geoflow.endpoint_jacobian, taken a decade tighter than rtol and atol:
    the copies flow leaves the derivative out of its error norm."""
    return endpoint_jacobian(m, p, v, 1.0, rtol=0.1 * rtol,
                             atol=0.1 * max(atol, 1e-13))[1]


@dataclass
class ConjugateInstant:
    t: float
    multiplicity: int
    sigma_min_rel: float


@dataclass
class ConjugateReport:
    kind: str
    tau: float
    instants: list
    grid: int
    theta_null: float
    warnings: list = field(default_factory=list)

    @property
    def total_multiplicity(self):
        return sum(c.multiplicity for c in self.instants)

    def as_rows(self):
        return [(c.t, c.multiplicity, c.sigma_min_rel) for c in self.instants]


def _scan_grid(frame, grid):
    """The grid times over (0, tau] with det M and sigma_min / sigma_max
    there (0 where M vanishes), from one dense-output call."""
    ts = np.linspace(0.0, frame.path.tau, grid + 1)[1:]
    Ms = frame.M(ts)
    sv = np.linalg.svd(Ms, compute_uv=False)
    ratios = np.divide(sv[:, -1], sv[:, 0], out=np.zeros(len(ts)),
                       where=sv[:, 0] > 0)
    return ts, np.linalg.det(Ms), ratios


def _refine(frame, t, lo, hi, cell, theta_null):
    """Pencil Newton from t in [lo, hi]: the instant it reaches, or None, and
    the offsets there.

    The offsets s at which M(t) + s M'(t) is singular are the distances to
    the nearby singular times, as many as the kernel dimension at t*: a
    Jacobi field with J(t*) = J'(t*) = 0 is trivial, so the pencil is
    regular on ker M(t*).  Each iteration reads M and M' with one
    dense-output call and steps by the real part of the least offset.  The
    step inverts M + i h M' (h the grid cell), the linearization at the
    complex time t + i h, singular only if i h is itself an offset; near t*
    the offsets are real (a real pencil's simple ones, and the multiple ones
    of a frame, whose Wronskian vanishes).  M' would not do: a column with
    J' = 0 at t* makes it singular, as when curvatures differ by a factor 4.

    No instant when an iterate leaves [lo, hi], when the step is still
    complex at convergence (a dip that misses zero), or unless sigma_min /
    sigma_max < theta_null there.  The multiplicity counts the offsets
    within SAME_INSTANT cells."""
    n = frame.dim
    close = SAME_INSTANT * cell
    lo, hi = max(lo - close, close), hi + close
    for _ in range(PENCIL_MAXITER):
        y = frame.sol(t)
        M, Md = y[-2 * n * n:-n * n].reshape(n, n), y[-n * n:].reshape(n, n)
        with np.errstate(divide="ignore", invalid="ignore"):
            s = 1j * cell - 1.0 / np.linalg.eigvals(
                np.linalg.solve(M + 1j * cell * Md, Md))
        step = s[np.argmin(np.abs(s))]
        t += step.real
        if not lo < t < hi:
            return None, None
        if abs(step.real) <= STEP_ROUND * max(1.0, abs(t)):
            break
    else:
        return None, None
    sv = np.linalg.svd(M, compute_uv=False)
    if abs(step.imag) > close or not sv[-1] < theta_null * sv[0]:
        return None, None
    mult = int(np.sum(np.abs(s) <= close))
    return ConjugateInstant(min(t, frame.path.tau), mult, float(sv[-1] / sv[0])), s


def _scan_frame(frame, *, grid, theta_null):
    tau = frame.path.tau
    ts, dets, ratios = _scan_grid(frame, grid)
    cell = tau / grid
    close = SAME_INSTANT * cell

    # brackets, grid indices with the cells on either side: the end of a
    # det sign change with the smaller sigma ratio, a sigma_min / sigma_max
    # dip without one, and the right endpoint, which has no interior bracket
    i = np.flatnonzero(dets[:-1] * dets[1:] <= 0.0)
    starts = set(np.where(ratios[i] <= ratios[i + 1], i, i + 1).tolist())
    mid = ratios[1:-1]
    dips = ((mid < ratios[:-2]) & (mid <= ratios[2:]) & (mid < DIP_TRIGGER)
            & (dets[:-2] * dets[2:] > 0.0))
    starts.update((np.flatnonzero(dips) + 1).tolist())
    if ratios[-1] < DIP_TRIGGER and (len(ts) < 2 or ratios[-1] < ratios[-2]):
        starts.add(len(ts) - 1)
    grid_ts = np.concatenate([[0.0], ts, [tau]])
    brackets = [tuple(grid_ts[j:j + 3]) for j in sorted(starts)]

    # an instant reached from two brackets counts once; a real offset within
    # 3 cells of an instant is a neighbour that may share its bracket
    found = []
    for lo, t, hi in brackets:
        inst, s = _refine(frame, t, lo, hi, cell, theta_null)
        if inst is None or any(abs(inst.t - c.t) <= close for c in found):
            continue
        found.append(inst)
        near = (np.abs(s) > close) & (np.abs(s) < 3 * cell) & (np.abs(s.imag) <= close)
        brackets.extend((t1 - cell, t1, min(t1 + cell, tau))
                        for t1 in inst.t + s[near].real)

    notes = []
    merged = []
    for inst in sorted(found, key=lambda c: c.t):
        if merged and inst.t - merged[-1].t < 3 * cell:
            prev = merged.pop()
            msg = (f"instants {prev.t:.9g} and {inst.t:.9g} closer than 3 grid "
                   "cells; merged with summed multiplicity")
            warnings.warn(msg, ResolutionWarning)
            notes.append(msg)
            inst = ConjugateInstant(0.5 * (prev.t + inst.t),
                                    prev.multiplicity + inst.multiplicity,
                                    min(prev.sigma_min_rel, inst.sigma_min_rel))
        merged.append(inst)

    max_mult = frame.dim if frame.kind == "focal" else frame.dim - 1
    notes += [f"multiplicity {c.multiplicity} at t={c.t:.9g} exceeds the bound "
              f"{max_mult}" for c in merged if c.multiplicity > max_mult]
    return ConjugateReport(kind=frame.kind, tau=tau, instants=merged, grid=grid,
                           theta_null=theta_null, warnings=notes)


def conjugate_scan(path, *, grid=DEFAULT_GRID, theta_null=THETA_NULL, frame=None):
    """Locate conjugate instants with multiplicities over (0, tau]."""
    if frame is None:
        frame = jacobi_frame(path, "conjugate")
    return _scan_frame(frame, grid=grid, theta_null=theta_null)


def focal_scan(path, boundary, *, grid=DEFAULT_GRID, theta_null=THETA_NULL,
               frame=None):
    """Locate P-focal instants for a geodesic starting g_v-orthogonally to P."""
    if frame is None:
        frame = jacobi_frame(path, boundary)
    return _scan_frame(frame, grid=grid, theta_null=theta_null)
