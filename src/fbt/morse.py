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

The fields are normal.  The index form splits into its normal part and a
tangential part int f'^2 g_T(T, T) > 0, and every null field is normal
(Bao, Chern & Shen, An Introduction to Riemann-Finsler Geometry, ch. 7), so
the fields g_v-orthogonal to the velocity carry m- and m0.  They are
written V(t) = P(t) c(t): P(t) a chart-orthonormal basis of the complement
of g v(t), turned along the path without spin (_normal_basis;
P' = -u u'^T P, u = g v / |g v|), and c piecewise linear with n - 1
components a node.  P and P' are read at the Gauss points from the Hessians
evaluated there (2 g v = dvvL v, and along a geodesic (2 g v)' = dxL =
dxvL v / 2), so the element blocks come from (n - 1) x (n - 1) coefficient
Hessians.  The mass goes on the coefficients, T (x) I_{n-1}, T the scalar
tridiagonal W^{1,2} mass of one component over the nodes; by Sylvester's
law of inertia the counts hold for any SPD mass.  Its Cholesky factor is a
scalar bidiagonal matrix times I_{n-1}: the pencil reduces to one symmetric
eigenproblem by two sweeps of a two-term recurrence over the nodes (Golub &
Van Loan, Matrix Computations, 8.7).  A 1-D metric has no normal field: its
pencil is empty and its index (0, 0).

A perpendicular start keeps k = dim T_{x0}P dofs at node 0 (a point start,
boundary None, keeps none).  T_{x0}P lies in the complement of g v0 (a start
that is not g_v-orthogonal raises NotPerpendicular, as the frames do), so
P(0)'s first k columns are Q from the QR factorization W = Q R of the chart
basis W of T_{x0}P: node 0's dofs are its first k coefficients, and the
mass keeps its Kronecker form: components j < k run over nodes
0 .. mesh - 1, the others over nodes 1 .. mesh - 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError
from .geoflow import DEFAULT_TOL_RES
from .metric import ConvexityViolation
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
    smallest: float | None
    min_abs_eig: float | None
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


def _normal_basis(u, head=None):
    """Chart-orthonormal bases P (N, n, n - 1) of the complements of the unit
    vectors u (N, n), met in this order along a path, chosen continuously.

    Each basis is the previous one turned by the rotation taking u_(i-1) to
    u_i in their plane, which is the orthogonal Procrustes fit of the new
    complement to the previous basis; it leaves P^T P' = 0 in the limit,
    P' = -u u'^T P.  head (n x k, orthonormal, in the first complement to a
    tolerance) gives the first basis's first k columns, up to that
    tolerance."""
    n = u.shape[-1]
    head = np.zeros((n, 0)) if head is None else head
    k = head.shape[1]
    # head lies in the first complement only to a tolerance: start on the
    # complement's orthonormal basis nearest to [head, rest]
    X = np.hstack([head, np.linalg.svd(np.vstack([head.T, u[:1]]))[2][k + 1:].T])
    U, _, Vt = np.linalg.svd(X - np.outer(u[0], u[0] @ X), full_matrices=False)
    P0 = U @ Vt
    # R_i, the rotation taking u_(i-1) to u_i in their plane, and the
    # products R_i ... R_1 by recursive doubling (Hillis & Steele)
    a, b = u[:-1, :, None], u[1:, :, None]
    ab = a + b
    R = (np.eye(n) - ab * np.swapaxes(ab, 1, 2) / (1.0 + np.swapaxes(a, 1, 2) @ b)
         + 2.0 * b * np.swapaxes(a, 1, 2))
    d = 1
    while d < len(R):
        R[d:] = R[d:] @ R[:-d]
        d *= 2
    return np.concatenate([P0[None], R @ P0])


def _assemble(path, boundary, mesh):
    """Second variation K on normal fields and the W^{1,2} mass of its
    pencil on a uniform mesh.

    Returns (K, diag, off, k).  The dofs are node 0's first k normal
    coefficients (k = 0 for a point, boundary None) and the n - 1 of each
    of nodes 1 .. mesh - 1, the last node being clamped; a BoundaryData
    start writes node 0's basis coefficients a as R a.  The mass on these
    dofs is T (x) I_{n-1}, T the scalar tridiagonal (diag, off) over nodes
    0 .. mesh - 1.  On a pseudo-metric, a coefficient Hessian P^T Lvv P that
    is not positive definite (relative to |Lvv|) at a Gauss point raises
    ConvexityViolation.
    """
    m = path.metric
    n = m.dim
    r = n - 1
    tau = path.tau
    nn = mesh + 1
    h = tau / mesh
    k, K0, Q = 0, np.zeros((0, 0)), None
    if boundary is not None:
        boundary.check_start(path.x0)
        W = boundary.basis
        k = W.shape[1]
        G0 = m.fundamental_tensor(path.x0, path.v0)
        _jacobi.check_perpendicular(W, G0 @ path.v0, path.v0)
        Q, R = np.linalg.qr(W)
        # 2 W^T G0 W S in the coordinates R a; W^T W is the identity only
        # to the basis validation's 1e-8
        K0 = 2.0 * (Q.T @ G0 @ W @ boundary.shape_operator @ np.linalg.inv(R))
    # the start and the Gauss points (element e, point g), all evaluated in
    # one stacked call
    ta = np.arange(mesh) * h
    t = ta[:, None] + 0.5 * h * (1.0 + GAUSS3_NODES)
    w = 0.5 * h * GAUSS3_WEIGHTS
    x, v = path.state(np.r_[0.0, t.ravel()])
    Lxx, Lxv, Lvv = m.second_derivatives(x, v)
    # the normal frame P and its rate P' = -u u'^T P, u the unit vector
    # along g v: by Euler's theorem 2 g v = dvvL v, and along a geodesic
    # (2 g v)' = dxL = dxvL v / 2
    gv = (Lvv @ v[:, :, None])[..., 0]
    size = np.linalg.norm(gv, axis=-1, keepdims=True)
    u = gv / size
    du = 0.5 * (Lxv @ v[:, :, None])[..., 0] / size
    du -= u * np.sum(u * du, axis=-1, keepdims=True)
    P = _normal_basis(u, Q)[1:]
    dP = -u[1:, :, None] * (du[1:, None, :] @ P)
    # the coefficient Hessians: B[V, W] of V = P c, V' = P' c + P c'
    Lxx, Lxv, Lvv = Lxx[1:], Lxv[1:], Lvv[1:]
    Pt, dPt = np.swapaxes(P, -1, -2), np.swapaxes(dP, -1, -2)
    C = Pt @ Lxv @ dP
    Axx, Axv, Avv = (a.reshape(mesh, 3, r, r) for a in (
        Pt @ Lxx @ P + C + np.swapaxes(C, -1, -2) + dPt @ Lvv @ dP,
        Pt @ Lxv @ P + dPt @ Lvv @ P,
        Pt @ Lvv @ P))
    if m.pseudo:
        # an indefinite kind can have a timelike normal direction: then the
        # index form is unbounded below on every mesh (Legendre's condition
        # fails), so no mesh gives a finite index.  Definite relative to
        # |Lvv|, as in fundamental_tensor: on a null geodesic v is its own
        # normal and the smallest eigenvalue is a rounding error.
        low = np.linalg.eigvalsh(Avv)[..., 0].ravel()
        bad = np.flatnonzero(low <= 1e-10 * np.linalg.norm(Lvv, axis=(-2, -1)))
        if len(bad):
            i = bad[0]
            raise ConvexityViolation(
                f"normal vertical Hessian not positive definite at t = {t.flat[i]:.6g} "
                f"(min eig {low[i]:.3e}): the index form has no finite index")
    s = (t - ta[:, None]) / h
    phi = np.stack([1.0 - s, s], axis=-1)  # (mesh, 3, 2)
    dphi = np.array([-1.0 / h, 1.0 / h])
    pa, pb = phi[..., :, None], phi[..., None, :]
    da, db = dphi[:, None], dphi[None, :]

    def weighted(c, A):
        # c (.., 2, 2) times A (mesh, 3, r, r): (mesh, 3, 2, 2, r, r)
        return c[..., None, None] * A[:, :, None, None]

    # element blocks [e, a, b] = sum over the element's Gauss points g of
    # w_g * B[phi_a, phi_b](g), summed in g order as a scalar loop would
    blk = (weighted(pa * pb, Axx) + weighted(pa * db, Axv)
           + weighted(da * pb, np.swapaxes(Axv, -1, -2)) + weighted(da * db, Avv))
    K_loc = (w[:, None, None, None, None] * blk).sum(axis=1)
    T_loc = np.einsum("g,egab->eab", w, pa * pb + da * db)
    # block-tridiagonal scatter: element e couples nodes e and e + 1
    K = np.zeros((nn, r, nn, r))
    e = np.arange(mesh)
    K[e, :, e, :] += K_loc[:, 0, 0]
    K[e + 1, :, e + 1, :] += K_loc[:, 1, 1]
    K[e, :, e + 1, :] += K_loc[:, 0, 1]
    K[e + 1, :, e, :] += K_loc[:, 1, 0]
    keep = np.r_[:k, r:mesh * r]
    K = K.reshape(nn * r, nn * r)[np.ix_(keep, keep)]
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

    M factors as L L^T, L = (bidiagonal Cholesky factor of T) (x) I_r, r the
    components a node: the first k run over nodes 0 .. mesh - 1, the others
    over nodes 1 .. mesh - 1.  C = L^-1 K L^-T then takes two sweeps of a two-term
    recurrence over the nodes, and eigvalsh(C) gives the eigenvalues (Golub
    & Van Loan, Matrix Computations, 8.7).
    """
    nodes = len(diag)
    r = (K.shape[0] - k) // (nodes - 1)
    tangent = np.arange(r) < k
    dA, aA = _chain(diag.tolist(), off.tolist())
    dB, aB = _chain(diag[1:].tolist(), off[1:].tolist())
    d = np.concatenate([np.full(k, dA[0]),
                        np.where(tangent, dA[1:, None], dB[:, None]).ravel()])
    a = np.where(tangent, aA[1:, None], aB[:, None])[:, :, None]

    def sweep(A):
        # rows of L^-1 A in place: y_i = x_i / d_i - a_i y_(i-1), node by node
        A /= d[:, None]
        B = A[k:].reshape(nodes - 1, r, -1)
        B[0, :k] -= a[0, :k] * A[:k]
        for i in range(1, nodes - 1):
            B[i] -= a[i] * B[i - 1]
        return A

    C = sweep(sweep(np.array(K)).T.copy())
    return np.linalg.eigvalsh(C)


def _spectrum(path, boundary, mesh):
    """Ascending eigenvalues of the pencil of path on mesh, read-only.

    The only place a pencil is assembled and solved; a 1-D metric's is
    empty and is not solved.  The eigenvalues are kept on the path per mesh
    with the boundary object they were computed for, and a later call hits
    only for that same object.
    """
    hit = path._spectra.get(mesh)
    if hit is None or hit[0] is not boundary:
        w = np.zeros(0) if path.dim == 1 else eigh(*_assemble(path, boundary, mesh))
        w.flags.writeable = False
        hit = path._spectra[mesh] = (boundary, w)
    return hit[1]


def _counts(path, boundary, mesh):
    w = _spectrum(path, boundary, mesh)
    if not len(w):
        # no normal field: nothing is negative or null, and no eigenvalue
        # is the smallest
        return 0, 0, SpectralData(mesh, 0.0, [], None, None)
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


def index_spectral(path, boundary=None, *, mesh0=DEFAULT_MESH0,
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


def cross_check(path, boundary=None, *, grid=_jacobi.DEFAULT_GRID,
                mesh0=DEFAULT_MESH0, max_mesh=DEFAULT_MAX_MESH):
    """Run the counting route (a scan on grid) and the spectral one (meshes
    from mesh0 up to max_mesh) and compare them."""
    counting = index_by_counting(_jacobi.focal_scan(path, boundary, grid=grid))
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
