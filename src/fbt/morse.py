"""Morse index and nullity of a geodesic by two independent routes.

Counting route: sum the multiplicities of conjugate (or focal) instants in
the open interval (0, tau); an instant at tau contributes to the nullity.

Spectral route: assemble the second variation of the energy in chart
coordinates on piecewise-linear fields,

    B[V, W] = int( dxxL[V,W] + dxvL[V,W'] + dxvL^T[V',W] + dvvL[V',W'] ) dt
              ( + 2 g_v(S V(0), W(0)) for a perpendicular start ),

and count negative / near-zero eigenvalues of the generalized problem against
the W^{1,2} mass matrix.  At a critical point this chart Hessian equals the
covariant index form, so no connection coefficients are needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh

from .errors import NumericalError
from .geoflow import BoundaryData, DEFAULT_TOL_RES
from . import jacobi as _jacobi

__all__ = [
    "IndexReport",
    "SpectralData",
    "index_by_counting",
    "index_spectral",
    "cross_check",
    "NotCritical",
    "NoStabilization",
]

END_TOL = 1e-8
KER_FLOOR = 1e-7
# A true null mode interpolated on N elements acquires a discrete eigenvalue
# of about 1.4 / N^2 times the pencil scale (measured on the antipodal null
# mode); the kernel threshold sits a few times above that shadow and well
# below the first genuine eigenvalues of the desk-scale catalog (>= 5e-2).
KER_SHADOW = 0.5  # multiplies pi^2/N^2
GAUSS3_NODES = np.array([-np.sqrt(3.0 / 5.0), 0.0, np.sqrt(3.0 / 5.0)])
GAUSS3_WEIGHTS = np.array([5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0])


class NotCritical(NumericalError):
    pass


class NoStabilization(NumericalError):
    pass


@dataclass
class SpectralData:
    mesh: int
    theta_ker: float
    eigs_near_zero: list
    smallest: float
    smallest_signed: float
    kernel_vector: np.ndarray | None = None
    history: list = field(default_factory=list)


@dataclass
class IndexReport:
    m_minus: int
    m_zero: int
    route: str
    instants: list = field(default_factory=list)
    spectral: SpectralData | None = None
    agree: bool | None = None

    def as_dict(self):
        out = {
            "m_minus": self.m_minus,
            "m_zero": self.m_zero,
            "route": self.route,
            "agree": self.agree,
        }
        if self.instants:
            out["instants"] = [
                {"t": t, "multiplicity": mult, "sigma_min_rel": s}
                for (t, mult, s) in self.instants
            ]
        if self.spectral is not None:
            out["spectral"] = {
                "mesh": self.spectral.mesh,
                "theta_ker": self.spectral.theta_ker,
                "eigs_near_zero": self.spectral.eigs_near_zero,
                "smallest": self.spectral.smallest,
                "history": self.spectral.history,
            }
        return out


def index_by_counting(report, tau):
    """Morse index and nullity from a conjugate/focal scan over (0, tau]."""
    m_minus = 0
    m_zero = 0
    for inst in report.instants:
        if abs(inst.t - tau) <= END_TOL:
            m_zero += inst.multiplicity
        elif inst.t < tau:
            m_minus += inst.multiplicity
    return IndexReport(
        m_minus=m_minus,
        m_zero=m_zero,
        route="counting",
        instants=report.as_rows(),
    )


def _assemble(path, boundary, mesh):
    """Global stiffness (second variation) and W^{1,2} mass on a uniform mesh."""
    m = path.metric
    n = m.dim
    tau = path.tau
    nn = mesh + 1
    h = tau / mesh
    eye = np.eye(n)
    # Gauss points (element e, point g), all evaluated in one stacked call
    ta = np.arange(mesh) * h
    t = ta[:, None] + 0.5 * h * (1.0 + GAUSS3_NODES)
    w = 0.5 * h * GAUSS3_WEIGHTS
    x, v = path.state(t.ravel())
    Lxx, Lxv, Lvv = (
        a.reshape(mesh, 3, n, n) for a in m.second_derivatives(x, v)
    )
    s = (t - ta[:, None]) / h
    phi = np.stack([1.0 - s, s], axis=-1)  # (mesh, 3, 2)
    dphi = np.array([-1.0 / h, 1.0 / h])
    pa, pb = phi[..., :, None], phi[..., None, :]
    da, db = dphi[:, None], dphi[None, :]

    def weighted(c, L):
        # c (.., 2, 2) times L (mesh, 3, n, n): (mesh, 3, 2, 2, n, n)
        return c[..., None, None] * L[:, :, None, None]

    # element blocks [e, a, b] = sum over the element's Gauss points g of
    # w_g * B[phi_a, phi_b](g), summed in g order as a scalar loop would
    blk = (weighted(pa * pb, Lxx) + weighted(pa * db, Lxv)
           + weighted(da * pb, np.swapaxes(Lxv, -1, -2)) + weighted(da * db, Lvv))
    K_loc = (w[:, None, None, None, None] * blk).sum(axis=1)
    M_loc = np.einsum("g,egab,ij->eabij", w, pa * pb + da * db, eye)
    # block-tridiagonal scatter: element e couples nodes e and e + 1
    K = np.zeros((nn, n, nn, n))
    Mm = np.zeros((nn, n, nn, n))
    e = np.arange(mesh)
    for G, loc in ((K, K_loc), (Mm, M_loc)):
        G[e, :, e, :] += loc[:, 0, 0]
        G[e + 1, :, e + 1, :] += loc[:, 1, 1]
        G[e, :, e + 1, :] += loc[:, 0, 1]
        G[e + 1, :, e, :] += loc[:, 1, 0]
    K = K.reshape(nn * n, nn * n)
    Mm = Mm.reshape(nn * n, nn * n)

    inner = slice(n, mesh * n)  # nodes 1 .. mesh - 1; the last node is clamped
    if isinstance(boundary, BoundaryData):
        # node 0 is restricted to T_{x0}P: its dofs are W a for a in R^k
        W = boundary.basis
        k = W.shape[1]

        def reduce(G):
            return np.block([[W.T @ G[:n, :n] @ W, W.T @ G[:n, inner]],
                             [G[inner, :n] @ W, G[inner, inner]]])

        K_red, M_red = reduce(K), reduce(Mm)
        G0 = m.fundamental_tensor(path.x0, path.v0)
        A = W.T @ G0 @ W
        K0 = 2.0 * (A @ boundary.shape_operator)
        K_red[:k, :k] += 0.5 * (K0 + K0.T)
    else:
        K_red, M_red = K[inner, inner], Mm[inner, inner]
    K_red = 0.5 * (K_red + K_red.T)
    M_red = 0.5 * (M_red + M_red.T)
    return K_red, M_red


def _counts(path, boundary, mesh, want_vector=False):
    K, Mm = _assemble(path, boundary, mesh)
    if want_vector:
        w, vecs = eigh(K, Mm)
    else:
        w = eigh(K, Mm, eigvals_only=True)
        vecs = None
    scale = float(np.max(np.abs(w)))
    theta = max(KER_FLOOR, KER_SHADOW * np.pi**2 / mesh**2) * scale
    m_minus = int(np.sum(w < -theta))
    m_zero = int(np.sum(np.abs(w) <= theta))
    near = [float(val) for val in w[np.abs(w) <= 100 * theta][:8]]
    kern = None
    if want_vector and vecs is not None:
        kern = vecs[:, int(np.argmin(np.abs(w)))]
    return m_minus, m_zero, theta, near, float(w[0]), kern


def smallest_eigenvalue(path, boundary, mesh, k=0, extrapolate=True):
    """k-th smallest eigenvalue of the spectral pencil on a fixed mesh.

    With extrapolate=True the O(h^2) discretization bias is removed by
    Richardson extrapolation over meshes mesh/2 and mesh, which matters when
    a parameter refinement bisects this value through zero.
    """
    K, Mm = _assemble(path, boundary, mesh)
    w = eigh(K, Mm, eigvals_only=True, subset_by_index=[k, k])
    fine = float(w[0])
    if not extrapolate or mesh < 8:
        return fine
    K2, Mm2 = _assemble(path, boundary, mesh // 2)
    w2 = eigh(K2, Mm2, eigvals_only=True, subset_by_index=[k, k])
    return (4.0 * fine - float(w2[0])) / 3.0


def index_spectral(path, boundary="point-point", *, mesh0=16, max_mesh=1024,
                   max_refinements=8, tol_res=DEFAULT_TOL_RES,
                   mesh_fixed=None, want_vector=False):
    """Morse index and nullity from the discrete second variation.

    The mesh doubles until (m_minus, m_zero) agree on three consecutive
    meshes; ``mesh_fixed`` skips refinement (used inside parameter sweeps).
    """
    res = path.max_el_residual()
    if res > tol_res:
        raise NotCritical(
            f"path is not a critical point: EL residual {res:.3e} > {tol_res:.1e}"
        )
    if mesh_fixed is not None:
        mm, mz, theta, near, smallest, kern = _counts(
            path, boundary, mesh_fixed, want_vector
        )
        sd = SpectralData(mesh_fixed, theta, near, smallest, smallest,
                          kernel_vector=kern, history=[(mesh_fixed, mm, mz)])
        return IndexReport(mm, mz, "spectral", spectral=sd)

    history = []
    mesh = mesh0
    while True:
        mm, mz, theta, near, smallest, kern = _counts(path, boundary, mesh, want_vector)
        history.append((mesh, mm, mz))
        if len(history) >= 3:
            (m1, a1, b1), (m2, a2, b2), (m3, a3, b3) = history[-3:]
            if (a1, b1) == (a2, b2) == (a3, b3):
                sd = SpectralData(mesh, theta, near, smallest, smallest,
                                  kernel_vector=kern, history=history)
                return IndexReport(mm, mz, "spectral", spectral=sd)
        if mesh >= max_mesh or len(history) > max_refinements:
            raise NoStabilization(
                f"index counts did not stabilize by mesh {mesh}: {history}"
            )
        mesh *= 2


def cross_check(path, boundary="point-point", *, scan_opts=None, spectral_opts=None):
    """Run the counting and spectral routes and compare them."""
    scan_opts = dict(scan_opts or {})
    spectral_opts = dict(spectral_opts or {})
    if isinstance(boundary, BoundaryData):
        report = _jacobi.focal_scan(path, boundary, **scan_opts)
    else:
        report = _jacobi.conjugate_scan(path, **scan_opts)
    counting = index_by_counting(report, path.tau)
    spectral = index_spectral(path, boundary, **spectral_opts)
    agree = (
        counting.m_minus == spectral.m_minus and counting.m_zero == spectral.m_zero
    )
    return IndexReport(
        m_minus=spectral.m_minus if agree else counting.m_minus,
        m_zero=spectral.m_zero if agree else counting.m_zero,
        route="both",
        instants=counting.instants,
        spectral=spectral.spectral,
        agree=agree,
    )
