import numpy as np
import pytest
from scipy.linalg import block_diag
from scipy.linalg import eigh as scipy_eigh

import fbt
from fbt.geoflow import BoundaryData, integrate_geodesic
from fbt.jacobi import ConjugateInstant, ConjugateReport, conjugate_scan
from fbt.metric import PhaseState
from fbt.morse import (
    KER_FLOOR,
    KER_SHADOW,
    NotCritical,
    _assemble,
    cross_check,
    eigh,
    index_by_counting,
    index_spectral,
    smallest_eigenvalue,
)

from _oracles import assemble_loop, flat_axis_warped_mu, warped_metric


def _report(instants, tau, kind="conjugate"):
    return ConjugateReport(
        kind=kind, tau=tau,
        instants=[ConjugateInstant(t, m, 0.0) for t, m in instants],
        grid=400, theta_null=1e-6, refine_tol=1e-10,
    )


class TestCounting:
    def test_empty(self):
        rep = index_by_counting(_report([], 3.0), 3.0)
        assert (rep.m_minus, rep.m_zero) == (0, 0)

    def test_two_interior(self):
        rep = index_by_counting(
            _report([(np.pi, 1), (2 * np.pi, 1)], 2.5 * np.pi), 2.5 * np.pi
        )
        assert (rep.m_minus, rep.m_zero) == (2, 0)

    def test_instant_at_endpoint_is_nullity(self):
        rep = index_by_counting(_report([(np.pi, 1)], np.pi), np.pi)
        assert (rep.m_minus, rep.m_zero) == (0, 1)


class TestSpectral:
    def test_flat_segment_any_mesh(self, euclid):
        path = integrate_geodesic(euclid, PhaseState([0, 0], [1, 0]), 3.0)
        for mesh in (4, 8, 16):
            rep = index_spectral(path, mesh_fixed=mesh)
            assert (rep.m_minus, rep.m_zero) == (0, 0)
            assert rep.spectral.smallest > 0

    def test_sphere_short_arc(self, sphere):
        path = integrate_geodesic(sphere, PhaseState([0, -1], [1, 0]), 1.5 * np.pi)
        rep = index_spectral(path)
        assert (rep.m_minus, rep.m_zero) == (1, 0)
        assert rep.spectral.mesh <= 256

    def test_sphere_exact_antipode_null(self, sphere):
        path = integrate_geodesic(sphere, PhaseState([0, -1], [1, 0]), np.pi)
        rep = index_spectral(path)
        assert (rep.m_minus, rep.m_zero) == (0, 1)

    def test_non_critical_rejected(self, euclid):
        # an rk4 path of a *different* metric is not a critical point here
        warped = warped_metric(2.0)
        path = integrate_geodesic(warped, PhaseState([0.0, 0.5], [1.0, 0.0]), 1.5)
        bad = integrate_geodesic(euclid, PhaseState([0.0, 0.5], [1.0, 0.3]), 1.5)
        bad.metric = warped
        with pytest.raises(NotCritical):
            index_spectral(bad)


class TestCrossCheck:
    def test_flat(self, euclid):
        path = integrate_geodesic(euclid, PhaseState([0, 0], [1, 0]), 3.0)
        rep = cross_check(path)
        assert rep.agree and (rep.m_minus, rep.m_zero) == (0, 0)

    @pytest.mark.parametrize("tau,want", [(1.5 * np.pi, 1), (2.5 * np.pi, 2)])
    def test_sphere(self, sphere, tau, want):
        path = integrate_geodesic(sphere, PhaseState([0, -1], [1, 0]), tau)
        rep = cross_check(path)
        assert rep.agree
        assert (rep.m_minus, rep.m_zero) == (want, 0)

    def test_long_3d_sphere_path_is_critical(self, sphere3):
        # three conjugate instants of multiplicity 2; a residual step that
        # grows with tau put the EL residual of this path above 1e-5
        path = integrate_geodesic(sphere3, PhaseState([0, 0, -1], [1, 0, 0]),
                                  3.85 * np.pi)
        rep = cross_check(path)
        assert rep.agree
        assert (rep.m_minus, rep.m_zero) == (6, 0)

    def test_warped_flanks(self):
        mu = flat_axis_warped_mu()
        for lam, want in [(mu - 0.2, 0), (mu + 0.2, 1)]:
            m = warped_metric(lam, flat_axis=True)
            path = integrate_geodesic(m, PhaseState([-1.0, 0.0], [1.0, 0.0]), 2.0)
            rep = cross_check(path)
            assert rep.agree
            assert (rep.m_minus, rep.m_zero) == (want, 0)

    def test_constant_wind_straight(self):
        z = fbt.ZermeloData.from_exprs(2, [["1", "0"], ["0", "1"]], ["0.5", "0"])
        m = fbt.zermelo_to_randers(z)
        path = integrate_geodesic(m, PhaseState([0, 0], [1, 0]), 2.0)
        rep = cross_check(path)
        assert rep.agree and (rep.m_minus, rep.m_zero) == (0, 0)

    def test_focal_circle(self, euclid):
        b = BoundaryData([1.0, 0.0], np.array([[0.0], [1.0]]), np.array([[-1.0]]))
        for tau, want in [(2.0, (1, 0)), (1.0, (0, 1)), (0.5, (0, 0))]:
            path = integrate_geodesic(euclid, PhaseState([1.0, 0.0], [1.0, 0.0]), tau)
            rep = cross_check(path, b)
            assert rep.agree
            assert (rep.m_minus, rep.m_zero) == want


class TestMonotonicity:
    def test_index_nondecreasing_and_jumps_by_multiplicity(self, sphere):
        taus = [0.8 * np.pi, 1.2 * np.pi, 1.8 * np.pi, 2.2 * np.pi]
        vals = []
        for tau in taus:
            path = integrate_geodesic(sphere, PhaseState([0, -1], [1, 0]), tau)
            rep = cross_check(path)
            assert rep.agree
            vals.append(rep.m_minus)
        assert vals == [0, 1, 1, 2]

    def test_dim3_jump_is_two(self, sphere3):
        out = []
        for tau in (0.9 * np.pi, 1.1 * np.pi):
            path = integrate_geodesic(sphere3, PhaseState([0, -1, 0], [1, 0, 0]), tau)
            rep = cross_check(path)
            assert rep.agree
            out.append(rep.m_minus)
        assert out == [0, 2]


class TestMeshConvergence:
    def test_negative_eigenvalues_settle(self, sphere):
        path = integrate_geodesic(sphere, PhaseState([0, -1], [1, 0]), 2.5 * np.pi)
        rep = index_spectral(path)
        n_final = rep.spectral.mesh
        negs = []
        for mesh in (n_final // 2, n_final):
            w = eigh(*_assemble(path, "point-point", mesh))
            negs.append(np.sort(w[w < 0]))
        assert len(negs[0]) == len(negs[1]) == rep.m_minus
        for a, b in zip(*negs):
            assert abs(a - b) < 0.05 * abs(b)


def _assembly_path(name):
    if name == "sphere3":
        m = fbt.sphere_stereo(1.0, dim=3)
        return integrate_geodesic(m, PhaseState([0, 0, -1], [0.3, 0, 0.2]), 2.0)
    if name == "warped":
        m = fbt.riemannian_expr(2, [["1", "0"], ["0", "exp(-lam*x1^2)"]],
                                params={"lam": 1.3})
    else:
        m = fbt.randers_expr(2, [["1+0.1*x2^2", "0"], ["0", "1+0.1*x1^2"]],
                             ["0.3*sin(x2)", "0.2*sin(x1)"])
    return integrate_geodesic(m, PhaseState([0.1, 0.0], [1.0, 0.2]), 2.5)


def _reference(path, boundary, mesh):
    """_oracles.assemble_loop's (K, M), written in _assemble's coordinates:
    with W = Q R and U = [Q, Q_perp] from the complete QR of the basis, node
    0's basis coefficients are R^-1 b and every other node is U z."""
    K, M = assemble_loop(path, boundary, mesh)
    if isinstance(boundary, BoundaryData):
        U, R = np.linalg.qr(boundary.basis, mode="complete")
        k = boundary.basis.shape[1]
        P = block_diag(np.linalg.inv(R[:k]), *[U] * (mesh - 1))
        K, M = P.T @ K @ P, P.T @ M @ P
    return K, M


def _mass(diag, off, k, n):
    """The dense mass T (x) I_n without node 0's last n - k components."""
    T = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    keep = np.r_[:k, n:len(diag) * n]
    return np.kron(T, np.eye(n))[np.ix_(keep, keep)]


def _check_assembly(path, boundary, mesh):
    K, diag, off, k = _assemble(path, boundary, mesh)
    M = _mass(diag, off, k, path.dim)
    K_ref, M_ref = _reference(path, boundary, mesh)
    assert K.shape == K_ref.shape
    assert np.max(np.abs(K - K_ref)) <= 1e-13 * np.max(np.abs(K_ref))
    assert np.max(np.abs(M - M_ref)) <= 1e-13 * np.max(np.abs(M_ref))


class TestVectorizedAssembly:
    """_assemble (one stacked evaluation, blocks by broadcasting) against
    the element-by-element loop of _oracles.assemble_loop."""

    @pytest.mark.parametrize("name", ["warped", "randers", "sphere3"])
    def test_matches_loop(self, name):
        path = _assembly_path(name)
        e = np.eye(path.dim)
        boundaries = [
            "point-point",
            BoundaryData(path.x0, e[:, 1], [[0.7]]),  # k = 1, curved
            BoundaryData(path.x0, e[:, :2], [[0.4, -0.2], [-0.2, 1.1]]),
        ]
        for boundary in boundaries:
            for mesh in (4, 16, 64):
                _check_assembly(path, boundary, mesh)


class TestBoundaryReduction:
    """The BoundaryData reduction by slicing K against the dense T^T K T
    product of _oracles.assemble_loop, up to mesh 256."""

    @pytest.mark.parametrize("name", ["warped", "randers", "sphere3"])
    def test_matches_dense_product(self, name):
        path = _assembly_path(name)
        e = np.eye(path.dim)
        boundaries = [
            BoundaryData(path.x0, e[:, 1], [[0.7]]),
            BoundaryData(path.x0, e[:, :2], [[0.4, -0.2], [-0.2, 1.1]]),
        ]
        for boundary in boundaries:
            for mesh in (4, 16, 64, 256):
                _check_assembly(path, boundary, mesh)


def _solver_boundaries(path):
    e = np.eye(3)
    rng = np.random.default_rng(7)
    Q, _ = np.linalg.qr(rng.standard_normal((3, 2)))
    loose = Q + 1e-9 * rng.standard_normal((3, 2))  # orthonormal to about 1e-9
    return {
        "point-point": "point-point",
        "k1": BoundaryData(path.x0, e[:, 1], [[0.7]]),
        "k2": BoundaryData(path.x0, e[:, :2], [[0.4, -0.2], [-0.2, 1.1]]),
        "k2-loose": BoundaryData(path.x0, loose, [[-0.5, 0.3], [0.3, 0.9]]),
    }


class TestPencilSolver:
    """morse.eigh (Cholesky reduction through the Kronecker mass) against
    SciPy's generalized eigh on the pencil of _oracles.assemble_loop, in its
    own basis coordinates."""

    @pytest.mark.parametrize("which", ["point-point", "k1", "k2", "k2-loose"])
    def test_matches_scipy(self, which):
        path = _assembly_path("sphere3")
        boundary = _solver_boundaries(path)[which]
        if which == "k2-loose":
            gram = boundary.basis.T @ boundary.basis
            assert 1e-10 < np.max(np.abs(gram - np.eye(2))) < 1e-8
        for mesh in (4, 8, 16, 32, 64, 128):
            w_ref = scipy_eigh(*assemble_loop(path, boundary, mesh),
                               eigvals_only=True)
            scale = np.max(np.abs(w_ref))
            w = eigh(*_assemble(path, boundary, mesh))
            assert w.shape == w_ref.shape
            assert np.max(np.abs(w - w_ref)) <= 1e-12 * scale
            for k in (0, 3):
                got = smallest_eigenvalue(path, boundary, mesh, k=k,
                                          extrapolate=False)
                assert abs(got - w_ref[k]) <= 1e-12 * scale
            theta = max(KER_FLOOR, KER_SHADOW * np.pi**2 / mesh**2) * scale
            rep = index_spectral(path, boundary, mesh_fixed=mesh)
            assert (rep.m_minus, rep.m_zero) == (
                int(np.sum(w_ref < -theta)), int(np.sum(np.abs(w_ref) <= theta)))
