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
Hessians.  The dofs run component by component, and the mass on each
component is T, the scalar tridiagonal W^{1,2} mass over its nodes: the
mass is block diagonal, one block per component, and by Sylvester's law of
inertia the counts hold for any SPD mass.  Its Cholesky factors depend on
the mesh, tau and the start alone, so every member of a family shares them:
_grid keeps their inverses, with the assembly's other mesh constants, and
each pencil reduces to one symmetric eigenproblem by two matrix products a
component pair (Golub & Van Loan, Matrix Computations, 8.7).  A 1-D metric
has no normal field: its pencil is empty and its index (0, 0).

A perpendicular start keeps k = dim T_{x0}P dofs at node 0 (a point start,
boundary None, keeps none).  T_{x0}P lies in the complement of g v0 (a start
that is not g_v-orthogonal raises NotPerpendicular, as the frames do), so
P(0)'s first k columns are Q from the QR factorization W = Q R of the chart
basis W of T_{x0}P: node 0's dofs are its first k coefficients, so
components j < k run over nodes 0 .. mesh - 1 and the others over nodes
1 .. mesh - 1.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

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
# meshes whose _grid is kept: a ladder of doublings from 16 to 2048
GRID_CACHE = 8


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


class _Grid(NamedTuple):
    """What every pencil on a uniform mesh of [0, tau] shares, for node 0's
    first k of the r coefficients a node (_grid).  Its arrays are read-only."""
    mesh: int
    k: int
    r: int
    # t = 0, then the Gauss points t[e, g] of element e, in that order
    times: np.ndarray
    # Gauss weights, shaped against the element blocks (mesh, 3, 2, 2, r, r)
    w: np.ndarray
    # phi_a phi_b, phi_a phi_b', phi_a' phi_b and phi_a' phi_b', shaped alike
    shapes: tuple
    # dofs[node, c], the dof of coefficient c at node (mesh + 1, r): of the
    # nd dofs, or nd itself for a clamped coefficient
    dofs: np.ndarray
    # the inverse Cholesky factors of the mass's blocks: of T, the scalar
    # tridiagonal over nodes 0 .. mesh - 1, for each of the k tangent
    # components (None for k = 0), and of T without node 0 for the others
    tangent: np.ndarray | None
    normal: np.ndarray


def _inverse_cholesky(diag, off):
    """F = L^-1, L the Cholesky factor of the SPD tridiagonal (diag, off).

    Column j is the forward substitution of e_j through the bidiagonal L:
    1 / L[j, j], then a running product of -L[i, i-1] / L[i, i] down the
    rows.  A quotient of two cumulative products instead would divide by
    zero where an off-diagonal vanishes (h = sqrt(6)) and underflow where it
    is small."""
    n = len(diag)
    # cholesky reads the lower triangle
    F = np.zeros((n, n))
    F.flat[::n + 1] = diag
    F.flat[n::n + 1] = off
    L = np.linalg.cholesky(F)
    d = np.diagonal(L).copy()
    ratio = -np.diagonal(L, -1) / d[1:]
    del L
    # in place: the ratios below the diagonal, 1 above it, then the
    # products down each column, then 0 above the diagonal again
    upper = np.arange(n)[:, None] < np.arange(n)
    F[1:] = ratio[:, None]
    F[upper] = 1.0
    np.fill_diagonal(F, 1.0 / d)
    np.cumprod(F, axis=0, out=F)
    F[upper] = 0.0
    return F


@functools.lru_cache(maxsize=GRID_CACHE)
def _grid(mesh, tau, k, r):
    """The _Grid of a uniform mesh of [0, tau]; every member of a family
    has the same tau, so a sweep builds each of its meshes once."""
    h = tau / mesh
    ta = np.arange(mesh) * h
    t = ta[:, None] + 0.5 * h * (1.0 + GAUSS3_NODES)
    w = 0.5 * h * GAUSS3_WEIGHTS
    s = (t - ta[:, None]) / h
    phi = np.stack([1.0 - s, s], axis=-1)  # (mesh, 3, 2)
    dphi = np.array([-1.0 / h, 1.0 / h])
    pa, pb = phi[..., :, None], phi[..., None, :]
    da, db = dphi[:, None], dphi[None, :]
    T_loc = np.einsum("g,egab->eab", w, pa * pb + da * db)
    diag = T_loc[:, 0, 0].copy()
    diag[1:] += T_loc[:-1, 1, 1]
    off = T_loc[:-1, 0, 1]
    # the dofs run component by component: each of the first k over nodes
    # 0 .. mesh - 1, each of the others over nodes 1 .. mesh - 1; node mesh
    # is clamped
    nd = k + (mesh - 1) * r
    node = np.arange(mesh + 1)
    kept = (node < mesh) & ((node > 0) | (np.arange(r)[:, None] < k))
    dofs = np.full((r, mesh + 1), nd)
    dofs[kept] = np.arange(nd)
    grid = _Grid(mesh, k, r, np.r_[0.0, t.ravel()], w[:, None, None, None, None],
                 tuple(c[..., None, None] for c in (pa * pb, pa * db, da * pb, da * db)),
                 dofs.T,
                 _inverse_cholesky(diag, off) if k else None,
                 _inverse_cholesky(diag[1:], off[1:]))
    for arr in (*grid, *grid.shapes):
        if isinstance(arr, np.ndarray):
            arr.flags.writeable = False
    return grid


def _assemble(path, boundary, mesh):
    """Second variation K on normal fields, and the _Grid of its pencil, on
    a uniform mesh.

    The dofs are the n - 1 normal coefficients, one component after the
    other: each of the first k (k = 0 for a point, boundary None) over nodes
    0 .. mesh - 1, each of the others over nodes 1 .. mesh - 1, the last
    node being clamped; a BoundaryData start writes node 0's basis
    coefficients a as R a.  K is block tridiagonal over the nodes, and
    grid.dofs places its blocks.  The mass on these dofs is block diagonal,
    one block per component, each the scalar tridiagonal W^{1,2} mass over
    that component's nodes; the grid holds the blocks' inverse Cholesky
    factors.
    On a pseudo-metric, a coefficient Hessian P^T Lvv P that is not
    positive definite (relative to |Lvv|) at a Gauss point raises
    ConvexityViolation.
    """
    m = path.metric
    n = m.dim
    r = n - 1
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
    grid = _grid(mesh, path.tau, k, r)
    # the start and the Gauss points, all evaluated in one stacked call
    x, v = path.state(grid.times)
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
                f"normal vertical Hessian not positive definite at "
                f"t = {grid.times[1 + i]:.6g} "
                f"(min eig {low[i]:.3e}): the index form has no finite index")
    # element blocks [e, a, b] = sum over the element's Gauss points g of
    # w_g * B[phi_a, phi_b](g), summed in g order as a scalar loop would
    pp, pd, dp, dd = grid.shapes
    blk = (pp * Axx[:, :, None, None] + pd * Axv[:, :, None, None]
           + dp * np.swapaxes(Axv, -1, -2)[:, :, None, None] + dd * Avv[:, :, None, None])
    K_loc = (grid.w * blk).sum(axis=1)
    # K from its node blocks: node e's diagonal block D_e sums those of
    # elements e and e - 1, and O_e couples nodes e and e + 1.  Each is
    # symmetrized after the sum, and starts from 0.0 so that no zero is -0.0
    D = K_loc[:, 0, 0] + 0.0
    D[1:] += K_loc[:-1, 1, 1]
    D[0, :k, :k] += 0.5 * (K0 + K0.T)
    O = 0.5 * (K_loc[:, 0, 1] + 0.0 + np.swapaxes(K_loc[:, 1, 0], -1, -2))
    # clamped coefficients write K's last row and column, which are dropped
    nd = k + (mesh - 1) * r
    K = np.zeros((nd + 1, nd + 1))
    a, b = grid.dofs[:-1], grid.dofs[1:]
    K[a[:, :, None], a[:, None]] = 0.5 * (D + np.swapaxes(D, -1, -2))
    K[a[:, :, None], b[:, None]] = O
    K[b[:, :, None], a[:, None]] = np.swapaxes(O, -1, -2)
    return K[:nd, :nd], grid


def eigh(K, grid):
    """Ascending eigenvalues of the pencil (K, M) of _assemble; K is
    overwritten.

    M = L L^T is block diagonal, one block per component, and the grid
    holds each block's L^-1, F.  C = L^-1 K L^-T takes two matrix products a
    component pair, F_i K_ij F_j^T written over K's block (i, j), and
    eigvalsh(C) gives the eigenvalues (Golub & Van Loan, Matrix
    Computations, 8.7).
    """
    F = [grid.tangent] * grid.k + [grid.normal] * (grid.r - grid.k)
    rows = [slice(e - len(f), e) for f, e in zip(F, itertools.accumulate(map(len, F)))]
    for Fi, i in zip(F, rows):
        for Fj, j in zip(F, rows):
            np.matmul(Fi @ K[i, j], Fj.T, out=K[i, j])
    return np.linalg.eigvalsh(K)


def _spectrum(path, boundary, mesh):
    """Ascending eigenvalues of the pencil of path on mesh, read-only.

    The only place a pencil is assembled and solved; a 1-D metric's is
    empty and is not solved.  The eigenvalues are kept on the path per mesh
    with the boundary object they were computed for, and a later call hits
    only for that same object.
    """
    if mesh < 2:
        raise ValueError(f"mesh {mesh}: a spectral mesh needs at least 2 elements, "
                         "since its last node is clamped")
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


def check_ladder(mesh0, max_mesh):
    """Raise ValueError unless max_mesh > 2 mesh0 (see index_spectral)."""
    if max_mesh <= 2 * mesh0:
        raise ValueError(f"max_mesh {max_mesh} <= 2 * mesh0 {mesh0}: the counts "
                         "settle on three meshes mesh0, 2 mesh0 and 4 mesh0")


def index_spectral(path, boundary=None, *, mesh0=DEFAULT_MESH0,
                   max_mesh=DEFAULT_MAX_MESH, mesh_fixed=None):
    """Morse index and nullity from the discrete second variation.

    The mesh doubles until (m_minus, m_zero) agree on three consecutive
    meshes, so max_mesh must exceed 2 mesh0; ``mesh_fixed`` skips refinement
    (used inside parameter sweeps).
    """
    if mesh_fixed is None:
        check_ladder(mesh0, max_mesh)
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
    check_ladder(mesh0, max_mesh)
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
