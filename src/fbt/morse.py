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

The mass of piecewise-linear fields is T (x) I_n, T a scalar tridiagonal
matrix over the nodes, so its Cholesky factor is a scalar bidiagonal matrix
times I_n: the pencil reduces to one symmetric eigenproblem by two sweeps of
a two-term recurrence over the nodes (Golub & Van Loan, Matrix Computations,
8.7).  A perpendicular start keeps k = dim T_{x0}P dofs at node 0.  Every
node is written in one orthonormal frame U = [Q, Q_perp], Q from the QR
factorization W = Q R of the chart basis W of T_{x0}P, so node 0's dofs are
its first k components and the mass keeps its Kronecker form: components
j < k run over nodes 0 .. mesh - 1, the others over nodes 1 .. mesh - 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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
DEFAULT_MESH0 = 16
DEFAULT_MAX_MESH = 1024
# index_spectral gives up after this many mesh doublings
MAX_REFINEMENTS = 8
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
    min_abs_eig: float
    history: list = field(default_factory=list)


@dataclass
class IndexReport:
    m_minus: int
    m_zero: int
    route: str
    instants: list = field(default_factory=list)
    spectral: SpectralData | None = None
    agree: bool | None = None


def index_by_counting(report):
    """Morse index and nullity from a conjugate/focal scan over (0, tau]."""
    m_minus = 0
    m_zero = 0
    for inst in report.instants:
        if abs(inst.t - report.tau) <= END_TOL:
            m_zero += inst.multiplicity
        elif inst.t < report.tau:
            m_minus += inst.multiplicity
    return IndexReport(
        m_minus=m_minus,
        m_zero=m_zero,
        route="counting",
        instants=report.instants,
    )


def _assemble(path, boundary, mesh):
    """Second variation K and the W^{1,2} mass of its pencil on a uniform mesh.

    Returns (K, diag, off, k).  The dofs are node 0's first k components
    (k = 0 for point-point) and nodes 1 .. mesh - 1, the last node being
    clamped; a BoundaryData start writes every node in the frame U and node
    0's basis coefficients a as R a.  The mass on these dofs is T (x) I_n, T
    the scalar tridiagonal (diag, off) over nodes 0 .. mesh - 1.
    """
    m = path.metric
    n = m.dim
    tau = path.tau
    nn = mesh + 1
    h = tau / mesh
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
    T_loc = np.einsum("g,egab->eab", w, pa * pb + da * db)
    k, K0 = 0, np.zeros((0, 0))
    if isinstance(boundary, BoundaryData):
        boundary.check_start(path.x0)
        W = boundary.basis
        k = W.shape[1]
        U, R = np.linalg.qr(W, mode="complete")
        K_loc = U.T @ K_loc @ U
        # 2 W^T G0 W S in the coordinates R a; W^T W is the identity only
        # to the basis validation's 1e-8
        G0 = m.fundamental_tensor(path.x0, path.v0)
        K0 = 2.0 * (U[:, :k].T @ G0 @ W @ boundary.shape_operator
                    @ np.linalg.inv(R[:k]))
    # block-tridiagonal scatter: element e couples nodes e and e + 1
    K = np.zeros((nn, n, nn, n))
    e = np.arange(mesh)
    K[e, :, e, :] += K_loc[:, 0, 0]
    K[e + 1, :, e + 1, :] += K_loc[:, 1, 1]
    K[e, :, e + 1, :] += K_loc[:, 0, 1]
    K[e + 1, :, e, :] += K_loc[:, 1, 0]
    keep = np.r_[:k, n:mesh * n]
    K = K.reshape(nn * n, nn * n)[np.ix_(keep, keep)]
    K[:k, :k] += 0.5 * (K0 + K0.T)
    diag = T_loc[:, 0, 0].copy()
    diag[1:] += T_loc[:-1, 1, 1]
    return 0.5 * (K + K.T), diag, T_loc[:-1, 0, 1], k


def _chain(diag, off):
    """Diagonal d of the bidiagonal Cholesky factor L of the tridiagonal
    (diag, off), and a_i = L[i, i-1] / d_i (a_0 = 0)."""
    d, a = [math.sqrt(diag[0])], [0.0]
    for t, o in zip(diag[1:], off):
        lo = o / d[-1]
        d.append(math.sqrt(t - lo * lo))
        a.append(lo / d[-1])
    return np.array(d), np.array(a)


def eigh(K, diag, off, k):
    """Ascending eigenvalues of the pencil (K, M) of _assemble.

    M factors as L L^T, L = (bidiagonal Cholesky factor of T) (x) I_n: the
    first k components run over nodes 0 .. mesh - 1, the others over nodes
    1 .. mesh - 1.  C = L^-1 K L^-T then takes two sweeps of a two-term
    recurrence over the nodes, and eigvalsh(C) gives the eigenvalues (Golub
    & Van Loan, Matrix Computations, 8.7).
    """
    nodes = len(diag)
    n = (K.shape[0] - k) // (nodes - 1)
    tangent = np.arange(n) < k
    dA, aA = _chain(diag.tolist(), off.tolist())
    dB, aB = _chain(diag[1:].tolist(), off[1:].tolist())
    d = np.concatenate([np.full(k, dA[0]),
                        np.where(tangent, dA[1:, None], dB[:, None]).ravel()])
    a = np.where(tangent, aA[1:, None], aB[:, None])[:, :, None]

    def sweep(A):
        # rows of L^-1 A in place: y_i = x_i / d_i - a_i y_(i-1), node by node
        A /= d[:, None]
        B = A[k:].reshape(nodes - 1, n, -1)
        B[0, :k] -= a[0, :k] * A[:k]
        for i in range(1, nodes - 1):
            B[i] -= a[i] * B[i - 1]
        return A

    C = sweep(sweep(np.array(K)).T.copy())
    return np.linalg.eigvalsh(C)


def _spectrum(path, boundary, mesh):
    """Ascending eigenvalues of the pencil of path on mesh, read-only.

    The only place a pencil is assembled and solved.  The eigenvalues are
    kept on the path per mesh with the boundary object they were computed
    for, and a later call hits only for that same object.
    """
    hit = path._spectra.get(mesh)
    if hit is None or hit[0] is not boundary:
        w = eigh(*_assemble(path, boundary, mesh))
        w.flags.writeable = False
        hit = path._spectra[mesh] = (boundary, w)
    return hit[1]


def _counts(path, boundary, mesh):
    w = _spectrum(path, boundary, mesh)
    scale = float(np.max(np.abs(w)))
    theta = max(KER_FLOOR, KER_SHADOW * np.pi**2 / mesh**2) * scale
    m_minus = int(np.sum(w < -theta))
    m_zero = int(np.sum(np.abs(w) <= theta))
    near = [float(val) for val in w[np.abs(w) <= 100 * theta][:8]]
    return m_minus, m_zero, SpectralData(mesh, theta, near, float(w[0]),
                                         float(np.min(np.abs(w))))


def smallest_eigenvalue(path, boundary, mesh, k=0):
    """k-th smallest eigenvalue of the spectral pencil on a fixed mesh.

    From mesh 8 on, the O(h^2) discretization bias is removed by Richardson
    extrapolation over meshes mesh // 2 and mesh with their actual ratio
    r = mesh / (mesh // 2): (r^2 fine - coarse) / (r^2 - 1), which is
    (4 fine - coarse) / 3 at an even mesh.  This matters when a parameter
    refinement bisects the value through zero.
    """
    fine = float(_spectrum(path, boundary, mesh)[k])
    if mesh < 8:
        return fine
    coarse = float(_spectrum(path, boundary, mesh // 2)[k])
    r2 = (mesh / (mesh // 2)) ** 2
    return (r2 * fine - coarse) / (r2 - 1.0)


def index_spectral(path, boundary="point-point", *, mesh0=DEFAULT_MESH0,
                   max_mesh=DEFAULT_MAX_MESH, mesh_fixed=None):
    """Morse index and nullity from the discrete second variation.

    The mesh doubles until (m_minus, m_zero) agree on three consecutive
    meshes; ``mesh_fixed`` skips refinement (used inside parameter sweeps).
    """
    res = path.max_el_residual()
    if res > DEFAULT_TOL_RES:
        raise NotCritical(
            f"path is not a critical point: EL residual {res:.3e} > "
            f"{DEFAULT_TOL_RES:.1e}"
        )
    if mesh_fixed is not None:
        mm, mz, sd = _counts(path, boundary, mesh_fixed)
        sd.history = [(mesh_fixed, mm, mz)]
        return IndexReport(mm, mz, "spectral", spectral=sd)

    history = []
    mesh = mesh0
    while True:
        mm, mz, sd = _counts(path, boundary, mesh)
        history.append((mesh, mm, mz))
        if len(history) >= 3:
            (m1, a1, b1), (m2, a2, b2), (m3, a3, b3) = history[-3:]
            if (a1, b1) == (a2, b2) == (a3, b3):
                sd.history = history
                return IndexReport(mm, mz, "spectral", spectral=sd)
        if mesh >= max_mesh or len(history) > MAX_REFINEMENTS:
            raise NoStabilization(
                f"index counts did not stabilize by mesh {mesh}: {history}"
            )
        mesh *= 2


def cross_check(path, boundary="point-point", *, grid=_jacobi.DEFAULT_GRID,
                mesh0=DEFAULT_MESH0, max_mesh=DEFAULT_MAX_MESH):
    """Run the counting route (a scan on grid) and the spectral one (meshes
    from mesh0 up to max_mesh) and compare them."""
    if isinstance(boundary, BoundaryData):
        report = _jacobi.focal_scan(path, boundary, grid=grid)
    else:
        report = _jacobi.conjugate_scan(path, grid=grid)
    counting = index_by_counting(report)
    spectral = index_spectral(path, boundary, mesh0=mesh0, max_mesh=max_mesh)
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
