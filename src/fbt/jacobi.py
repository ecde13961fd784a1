"""Jacobi frames, the exponential-map Jacobian, conjugate and focal scans.

A frame M holds n Jacobi fields, columns solving the linearized geodesic
equation J'' = Dx spray . J + Dv spray . J'.  The tangential field t v(t)
is one of them in closed form, and g_v(J, v) is affine in t for every
Jacobi field, so the frame flow carries only n - 1 columns N, started
g_v-orthogonal to v with zero slope (_frame_init), together with its own
geodesic: one real flow on (x, v, N, N') (m._flow_rhs(n - 1)) from a path's
start state by the 8th-order Dormand-Prince pair (ode.dop853), with N and
N' in the error norm.  Each stage evaluates the n - 1 complex-step rows
spray(x + i h N_j, v + i h N'_j) in the metric's generated straight-line
flow (metric._flow_source), on one component jet: the real part is the
geodesic's spray, Im / h the column's J''.  The frame is the basis
M = [N | t v], M' = [N' | v + t a], with a the spray at the frame's state.
So the counting index route (these scans) rides the frame's geodesic at
SCAN_RTOL, the spectral one (morse) the stored path at its rtol, from the
same (x0, v0, tau).  Every metric's chart derivatives are exact, so every
frame runs at SCAN_RTOL / SCAN_ATOL: no finite-difference noise floor sits
above them.  D exp is the shooting derivative (geoflow.endpoint_jacobian):
the same right-hand side on all n columns from (p, v, 0, I), with (x, v)
alone in the error norm.

Conjugate and focal instants show up as rank drops of M(t); a rank drop,
a sign change of det M and a pencil offset do not depend on the basis of
the fields.  A point start is boundary None, the 0-dimensional start
submanifold (M(0) = 0), so a conjugate scan is the focal scan of a point.
A scan reads its grid with one dense-output call and brackets the instants
there: sign changes of det M catch odd multiplicities, dips of the
smallest singular value the rest.  Newton steps on the pencil
(M(t), -M'(t)) refine each bracket and give the multiplicity (see
_refine), flagged above n - 1 for every start.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError
from .geoflow import (DEFAULT_ATOL, DEFAULT_RTOL, GeodesicPath, _residual_times,
                      _solve, endpoint_jacobian)
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
]

SCAN_RTOL = 1e-11
SCAN_ATOL = 1e-14
# an instant needs sigma_min / sigma_max of M below this at the refined time
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
    """M and M' along a path.  sol (ode.DenseOutput, with step times ts) is
    the frame flow on (x, v, N, N') of the n - 1 carried columns N, row-major
    n x (n - 1); with the tangential field t v(t) last they form
    M = [N | t v], M' = [N' | v + t a] (a = v' the frame's spray)."""

    path: GeodesicPath
    sol: object
    ts: np.ndarray

    @property
    def dim(self):
        return self.path.dim

    def M(self, t):
        """M(t); at an array of times, a stack of matrices."""
        n, ts = self.dim, np.atleast_1d(t)
        y = self.sol(ts).T
        M = _basis(y[:, 2 * n:n * n + n], ts[:, None] * y[:, n:2 * n])
        return M.reshape(np.shape(t) + (n, n))

    def pencil(self, t):
        """M(t) and M'(t) from one dense-output call and the spray a = v' at
        the frame's state there."""
        n = self.dim
        y = np.moveaxis(self.sol(t), 0, -1)
        tv, v = np.asarray(t, dtype=float)[..., None], y[..., n:2 * n]
        a = self.path.metric.spray(y[..., :n], v)
        return (_basis(y[..., 2 * n:n * n + n], tv * v),
                _basis(y[..., n * n + n:], v + tv * a))

    def residual_max(self):
        """Linearized-equation residual of the carried columns, with N'' the
        dense output's exact derivative of N'."""
        ts, n = _residual_times(self.path.tau), self.dim
        y, dy = self.sol(ts), self.sol.derivative(ts)
        N, Nd, Ndd = (z.T.reshape(ts.shape + (n, n - 1))
                      for z in (y[2 * n:n * n + n], y[n * n + n:], dy[n * n + n:]))
        x, v = self.path.state(ts)
        A, B = spray_jacobians(self.path.metric, x, v)
        drive = A @ N + B @ Nd
        R = np.linalg.norm(Ndd - drive, axis=(-2, -1))
        return float(np.max(R / (1.0 + np.linalg.norm(drive, axis=(-2, -1)))))


def _basis(N, last):
    """The n x n matrices [N | last] from flat carried columns N
    (..., n (n - 1)) and a last column (..., n)."""
    n = last.shape[-1]
    return np.concatenate([N.reshape(last.shape + (n - 1,)), last[..., None]], axis=-1)


def check_perpendicular(W, gv, v0):
    """Raise NotPerpendicular unless the columns of W are g_v-orthogonal to
    v0, gv = g_v v0."""
    res = np.max(np.abs(W.T @ gv), initial=0.0) / (1.0 + abs(float(v0 @ gv)))
    if res > 1e-8:
        raise NotPerpendicular(
            f"path does not start g_v-orthogonally to P (residual {res:.3e})"
        )


def _frame_init(path, boundary):
    """The frame flow's start state (x0, v0, N(0), N'(0)) for a start
    submanifold P of basis W and shape operator S (None: a point, k = 0).

    g_{v(t)}(J, v(t)) is affine in t for every Jacobi field J, with slope
    dxL.J(0) / 2 + g_v(v0, J'(0)) (by the Euler-Lagrange equation of L), so
    k columns start at N(0) = W, N'(0) = W S + v0 alpha, alpha chosen to
    cancel the slope, and n - k - 1 at N(0) = 0 with N'(0) spanning the
    g_v-orthogonal complement of [W, v0]: each stays g-orthogonal to v(t).
    With t v(t), which never vanishes, they span the P-Jacobi fields.  On
    the indefinite quadratic kind g_v(v0, v0) may vanish, so there the
    complement is chart-orthogonal to v0 and no slope is cancelled."""
    m, n, x0, v0 = path.metric, path.dim, path.x0, path.v0
    W, S = np.zeros((n, 0)), np.zeros((0, 0))
    if boundary is not None:
        boundary.check_start(x0)
        W, S = boundary.basis, boundary.shape_operator
    k = W.shape[1]
    G = m.fundamental_tensor(x0, v0)
    gv, WS = G @ v0, W @ S
    if k > 0:
        check_perpendicular(W, gv, v0)
        if not m.pseudo:
            dxL = m.L(x0 + 1j * COMPLEX_STEP * W.T, v0).imag / COMPLEX_STEP
            WS = WS - np.outer(v0, 0.5 * dxL + gv @ WS) / float(v0 @ gv)
    ends = np.vstack([W.T @ G, v0 if m.pseudo else gv])
    N0 = np.hstack([W, np.zeros((n, n - k - 1))])
    Nd0 = np.hstack([WS, np.linalg.svd(ends)[2][k + 1:].T])
    return np.concatenate([x0, v0, N0.ravel(), Nd0.ravel()])


def jacobi_frame(path, boundary=None):
    """Propagate a Jacobi frame, with its own geodesic, from the path's start
    state over [0, path.tau].

    boundary is the BoundaryData of a start submanifold P, or None for a
    point start (M(0) = 0).  The flow carries n - 1 columns (see
    _frame_init), runs at SCAN_RTOL / SCAN_ATOL and raises LeftChart and
    ZeroVelocity as the geodesic flow does.
    """
    m = path.metric
    res = _solve(m, m._flow_rhs(path.dim - 1), path.tau, _frame_init(path, boundary),
                 rtol=SCAN_RTOL, atol=SCAN_ATOL, dense=True)
    return JacobiFrame(path, res.sol, res.ts)


def expmap_jacobian(m, p, v, *, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL):
    """D exp_p(v), the shooting derivative d x(1) / d v of
    geoflow.endpoint_jacobian, taken a decade tighter than rtol and atol:
    its steps are chosen on (x, v), the derivative is out of the error norm."""
    return endpoint_jacobian(m, p, v, 1.0, rtol=0.1 * rtol,
                             atol=0.1 * max(atol, 1e-13))[1]


@dataclass
class ConjugateInstant:
    t: float
    multiplicity: int
    sigma_min_rel: float


@dataclass
class ConjugateReport:
    tau: float
    instants: list
    grid: int
    warnings: list = field(default_factory=list)


def _scan_grid(frame, grid):
    """The grid times over (0, tau] with det M and sigma_min / sigma_max
    there (0 where M vanishes), from one dense-output call."""
    ts = np.linspace(0.0, frame.path.tau, grid + 1)[1:]
    Ms = frame.M(ts)
    sv = np.linalg.svd(Ms, compute_uv=False)
    ratios = np.divide(sv[:, -1], sv[:, 0], out=np.zeros(len(ts)),
                       where=sv[:, 0] > 0)
    return ts, np.linalg.det(Ms), ratios


def _refine(frame, t, lo, hi, cell):
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
    sigma_max < THETA_NULL there.  The multiplicity counts the offsets
    within SAME_INSTANT cells."""
    close = SAME_INSTANT * cell
    lo, hi = max(lo - close, close), hi + close
    for _ in range(PENCIL_MAXITER):
        M, Md = frame.pencil(t)
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
    if abs(step.imag) > close or not sv[-1] < THETA_NULL * sv[0]:
        return None, None
    mult = int(np.sum(np.abs(s) <= close))
    return ConjugateInstant(min(t, frame.path.tau), mult, float(sv[-1] / sv[0])), s


def _scan_frame(frame, grid):
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
        inst, s = _refine(frame, t, lo, hi, cell)
        if inst is None or any(abs(inst.t - c.t) <= close for c in found):
            continue
        found.append(inst)
        near = (np.abs(s) > close) & (np.abs(s) < 3 * cell) & (np.abs(s.imag) <= close)
        brackets.extend((t1 - cell, t1, min(t1 + cell, tau))
                        for t1 in inst.t + s[near].real)

    # the Jacobi field t gamma'(t) of every start never vanishes
    found.sort(key=lambda c: c.t)
    notes = [f"multiplicity {c.multiplicity} at t={c.t:.9g} exceeds the bound "
             f"{frame.dim - 1}" for c in found if c.multiplicity > frame.dim - 1]
    return ConjugateReport(tau=tau, instants=found, grid=grid, warnings=notes)


def conjugate_scan(path, *, grid=DEFAULT_GRID):
    """Locate conjugate instants with multiplicities over (0, tau]."""
    return _scan_frame(jacobi_frame(path), grid)


def focal_scan(path, boundary, *, grid=DEFAULT_GRID):
    """Locate P-focal instants for a geodesic starting g_v-orthogonally to P,
    or conjugate ones for boundary None."""
    return _scan_frame(jacobi_frame(path, boundary), grid)
