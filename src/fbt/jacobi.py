"""Jacobi frames, the exponential-map Jacobian, conjugate and focal scans.

A frame carries n columns (J, J') through the linearized geodesic equation

    J'' = Dx spray . J  +  Dv spray . J',

driven by the dense output of a stored GeodesicPath.  The linear, smooth
equation is integrated by the 8th-order Dormand-Prince pair (DOP853), with
the spray linearized by the complex step, exact to rounding.

Conjugate and focal instants show up as rank drops of M(t): sign changes of
det M catch odd multiplicities, dips of the smallest singular value catch
the rest.  A scan reads its grid with one dense-output call.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq, minimize_scalar

from .errors import NumericalError
from .geoflow import GeodesicPath, BoundaryData, StepFailure, integrate_geodesic
from .metric import COMPLEX_STEP, PhaseState

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
REFINE_TOL = 1e-10
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
    state.  Nothing is subtracted, so there is no step to tune and no
    rounding floor."""
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
        return self.sol(t)[: n * n].T.reshape(np.shape(t) + (n, n))

    def Mdot(self, t):
        n = self.dim
        return self.sol(t)[n * n:].T.reshape(np.shape(t) + (n, n))

    def sigma(self, t):
        return np.linalg.svd(self.M(t), compute_uv=False)

    def residual_max(self, n_samples=20, seed=0, h=1e-3):
        """Linearized-equation residual via differentiation of the dense Mdot."""
        rng = np.random.default_rng(seed)
        ts = rng.uniform(0.05 * self.path.tau, 0.95 * self.path.tau, size=n_samples)
        a = np.maximum(ts - h, 0.0)
        b = np.minimum(ts + h, self.path.tau)
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


def jacobi_frame(path, init="conjugate", *, rtol=SCAN_RTOL, atol=SCAN_ATOL):
    """Propagate an n-column variational frame along a stored geodesic.

    init is "conjugate" (M(0) = 0, M'(0) = I) or a BoundaryData describing a
    start submanifold for the focal problem.  For a metric with
    finite-difference component derivatives rtol and atol are raised to at
    least FD_COMPONENT_RTOL and FD_COMPONENT_ATOL.
    """
    m = path.metric
    n = m.dim
    if not m.has_analytic_dx:
        rtol, atol = max(rtol, FD_COMPONENT_RTOL), max(atol, FD_COMPONENT_ATOL)
    if isinstance(init, BoundaryData):
        M0, Md0 = _focal_init(m, path, init)
        kind, boundary = "focal", init
    elif init == "conjugate":
        M0, Md0 = np.zeros((n, n)), np.eye(n)
        kind, boundary = "conjugate", None
    else:
        raise ValueError(f"unknown frame init {init!r}")

    def rhs(t, y):
        M = y[: n * n].reshape(n, n)
        Md = y[n * n:].reshape(n, n)
        A, B = spray_jacobians(m, *path.state(t))
        return np.concatenate([Md.ravel(), (A @ M + B @ Md).ravel()])

    y0 = np.concatenate([M0.ravel(), Md0.ravel()])
    res = solve_ivp(rhs, (0.0, path.tau), y0, method="DOP853", rtol=rtol,
                    atol=atol, dense_output=True)
    if res.status != 0:
        raise StepFailure(f"frame integration failed: {res.message}")
    return JacobiFrame(path, kind, boundary, res.sol, res.t)


def expmap_jacobian(m, p, v, *, rtol=1e-9, atol=1e-12):
    """D exp_p(v): column j is the endpoint derivative along e_j, realized as
    J(1) of the Jacobi field with J(0) = 0, J'(0) = e_j."""
    path = integrate_geodesic(m, PhaseState(p, v), 1.0, rtol=rtol, atol=atol)
    # a decade tighter than the path, so that the frame adds little to the
    # path's own error
    frame = jacobi_frame(path, "conjugate", rtol=0.1 * rtol,
                         atol=0.1 * max(atol, 1e-13))
    return frame.M(path.tau)


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
    refine_tol: float
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


def _scan_frame(frame, *, grid, theta_null, dip_trigger, refine_tol):
    tau = frame.path.tau
    n = frame.dim
    ts, dets, ratios = _scan_grid(frame, grid)

    cell = tau / grid
    candidates = []  # (t, via_det)

    def detf(t):
        return np.linalg.det(frame.M(t))

    def ratf(t):
        sv = np.linalg.svd(frame.M(t), compute_uv=False)
        return sv[-1] / sv[0] if sv[0] > 0 else 0.0

    for i in range(len(ts) - 1):
        if dets[i] == 0.0:
            candidates.append((ts[i], True))
        elif dets[i] * dets[i + 1] < 0.0:
            t_star = brentq(detf, ts[i], ts[i + 1], xtol=refine_tol)
            candidates.append((t_star, True))
    if dets[-1] == 0.0:
        candidates.append((ts[-1], True))

    # dips of sigma_min / sigma_max without a determinant sign change
    for i in range(1, len(ts) - 1):
        if ratios[i] < ratios[i - 1] and ratios[i] <= ratios[i + 1]:
            if ratios[i] < dip_trigger and dets[i - 1] * dets[i + 1] > 0.0:
                r = minimize_scalar(
                    ratf, bounds=(ts[i - 1], ts[i + 1]), method="bounded",
                    options={"xatol": refine_tol},
                )
                candidates.append((float(r.x), False))
    # right endpoint: an instant exactly at tau has no interior bracket
    if ratios[-1] < dip_trigger and (len(ts) < 2 or ratios[-1] < ratios[-2]):
        candidates.append((tau, False))

    # deduplicate detections of the same instant by the two detectors
    candidates.sort(key=lambda c: c[0])
    dedup = []
    for t, via_det in candidates:
        if dedup and abs(t - dedup[-1][0]) <= max(100 * refine_tol, 1e-12 * tau):
            dedup[-1] = (dedup[-1][0], dedup[-1][1] or via_det)
        else:
            dedup.append((t, via_det))

    notes = []
    instants = []
    for t, via_det in dedup:
        sv = np.linalg.svd(frame.M(t), compute_uv=False)
        smax = sv[0] if sv[0] > 0 else 1.0
        mult = int(np.sum(sv < theta_null * smax))
        if mult == 0:
            if via_det:
                # a determinant sign change proves an odd-multiplicity zero
                mult = 1
                notes.append(
                    f"instant t={t:.12g}: null threshold missed a proven sign change"
                )
            else:
                continue
        instants.append(ConjugateInstant(t, mult, float(sv[-1] / smax)))

    # merge near-coincident instants closer than 3 grid cells
    merged = []
    for inst in instants:
        if merged and inst.t - merged[-1].t < 3 * cell:
            prev = merged.pop()
            msg = (
                f"instants {prev.t:.9g} and {inst.t:.9g} closer than 3 grid cells; "
                "merged with summed multiplicity"
            )
            warnings.warn(msg, ResolutionWarning)
            notes.append(msg)
            merged.append(
                ConjugateInstant(
                    0.5 * (prev.t + inst.t),
                    prev.multiplicity + inst.multiplicity,
                    min(prev.sigma_min_rel, inst.sigma_min_rel),
                )
            )
        else:
            merged.append(inst)

    max_mult = n if frame.kind == "focal" else n - 1
    for inst in merged:
        if inst.multiplicity > max_mult:
            notes.append(
                f"multiplicity {inst.multiplicity} at t={inst.t:.9g} exceeds the "
                f"bound {max_mult}"
            )
    return ConjugateReport(
        kind=frame.kind,
        tau=tau,
        instants=merged,
        grid=grid,
        theta_null=theta_null,
        refine_tol=refine_tol,
        warnings=notes,
    )


def conjugate_scan(path, *, grid=DEFAULT_GRID, theta_null=THETA_NULL,
                   dip_trigger=DIP_TRIGGER, refine_tol=REFINE_TOL, frame=None,
                   rtol=SCAN_RTOL):
    """Locate conjugate instants with multiplicities over (0, tau]."""
    if frame is None:
        frame = jacobi_frame(path, "conjugate", rtol=rtol)
    return _scan_frame(frame, grid=grid, theta_null=theta_null,
                       dip_trigger=dip_trigger, refine_tol=refine_tol)


def focal_scan(path, boundary, *, grid=DEFAULT_GRID, theta_null=THETA_NULL,
               dip_trigger=DIP_TRIGGER, refine_tol=REFINE_TOL, frame=None,
               rtol=SCAN_RTOL):
    """Locate P-focal instants for a geodesic starting g_v-orthogonally to P."""
    if frame is None:
        frame = jacobi_frame(path, boundary, rtol=rtol)
    return _scan_frame(frame, grid=grid, theta_null=theta_null,
                       dip_trigger=dip_trigger, refine_tol=refine_tol)
