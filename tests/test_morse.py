import dataclasses

import numpy as np
import pytest
from scipy.linalg import block_diag
from scipy.linalg import eigh as scipy_eigh

import fbt
from fbt.geoflow import BoundaryData, integrate_geodesic
from fbt.jacobi import (ConjugateInstant, ConjugateReport, conjugate_scan, focal_scan,
                        jacobi_frame)
from fbt.metric import PhaseState
from fbt.morse import (
    KER_FLOOR,
    KER_SHADOW,
    NotCritical,
    _assemble,
    _spectrum,
    cross_check,
    eigh,
    index_by_counting,
    index_spectral,
    smallest_eigenvalue,
)

from _oracles import (assemble_loop, flat_axis_warped_eigenvalue,
                      flat_axis_warped_mu, warped_metric)


def _report(instants, tau):
    return ConjugateReport(
        tau=tau, instants=[ConjugateInstant(t, m, 0.0) for t, m in instants], grid=400)


class TestCounting:
    def test_empty(self):
        rep = index_by_counting(_report([], 3.0))
        assert (rep.m_minus, rep.m_zero) == (0, 0)

    def test_two_interior(self):
        rep = index_by_counting(_report([(np.pi, 1), (2 * np.pi, 1)], 2.5 * np.pi))
        assert (rep.m_minus, rep.m_zero) == (2, 0)

    def test_instant_at_endpoint_is_nullity(self):
        rep = index_by_counting(_report([(np.pi, 1)], np.pi))
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
        # a geodesic of a *different* metric is not a critical point here
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

    @pytest.mark.parametrize("tau,want", [(1.5 * np.pi, 1), (2.5 * np.pi, 2),
                                          (3.85 * np.pi, 3), (7.5 * np.pi, 7)])
    def test_sphere(self, sphere, tau, want):
        path = integrate_geodesic(sphere, PhaseState([0, -1], [1, 0]), tau)
        rep = cross_check(path)
        assert rep.agree
        assert (rep.m_minus, rep.m_zero) == (want, 0)

    def test_long_3d_sphere_path_is_critical(self, sphere3):
        # conjugate instants of multiplicity 2 at every multiple of pi; the
        # EL residual is the path's defect, some 1e-7 at the default rtol
        for turns, want in [(3.85, 6), (7.5, 14)]:
            path = integrate_geodesic(sphere3, PhaseState([0, 0, -1], [1, 0, 0]),
                                      turns * np.pi)
            rep = cross_check(path)
            assert rep.agree
            assert (rep.m_minus, rep.m_zero) == (want, 0)

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

    def test_product_of_spheres_pair_closing_at_tau(self):
        # S^2 x S^2 with the second factor run at speed c: its first
        # conjugate instant pi / c lies 2 grid cells before tau = pi, where
        # the first factor's sits
        rho = "4/(1+{}^2+{}^2)^2"
        g = [["0"] * 4 for _ in range(4)]
        for k, (a, b) in enumerate([("x1", "x2"), ("x3", "x4")]):
            g[2 * k][2 * k] = g[2 * k + 1][2 * k + 1] = rho.format(a, b)
        m = fbt.riemannian_expr(4, g)
        c = np.pi / (np.pi - 2 * np.pi / 400)
        path = integrate_geodesic(m, PhaseState([0, -1, 0, -1], [1, 0, c, 0]), np.pi,
                                  rtol=1e-11)
        rep = cross_check(path)
        assert rep.agree
        assert (rep.m_minus, rep.m_zero) == (1, 1)

    def test_focal_circle(self, euclid):
        b = BoundaryData([1.0, 0.0], np.array([[0.0], [1.0]]), np.array([[-1.0]]))
        for tau, want in [(2.0, (1, 0)), (1.0, (0, 1)), (0.5, (0, 0))]:
            path = integrate_geodesic(euclid, PhaseState([1.0, 0.0], [1.0, 0.0]), tau)
            rep = cross_check(path, b)
            assert rep.agree
            assert (rep.m_minus, rep.m_zero) == want

    def test_boundary_off_the_start_rejected(self, euclid):
        # P through (1, 0) is not the submanifold of a path from (0, 0)
        b = BoundaryData([1.0, 0.0], np.array([[0.0], [1.0]]))
        path = integrate_geodesic(euclid, PhaseState([0.0, 0.0], [1.0, 0.0]), 2.0)
        for route in (focal_scan, cross_check, index_spectral):
            with pytest.raises(ValueError, match=r"x0 \[1.0, 0.0\] is not the path's start"):
                route(path, b)


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
            w = eigh(*_assemble(path, None, mesh))
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
            None,
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
        "point-point": None,
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
                # Richardson over this mesh and the previous, half as fine
                want = w[k] if mesh < 8 else (4.0 * w[k] - w_coarse[k]) / 3.0
                assert smallest_eigenvalue(path, boundary, mesh, k=k) == want
            w_coarse = w
            theta = max(KER_FLOOR, KER_SHADOW * np.pi**2 / mesh**2) * scale
            rep = index_spectral(path, boundary, mesh_fixed=mesh)
            assert (rep.m_minus, rep.m_zero) == (
                int(np.sum(w_ref < -theta)), int(np.sum(np.abs(w_ref) <= theta)))


class TestRichardson:
    """smallest_eigenvalue extrapolates over meshes mesh // 2 and mesh with
    their actual ratio, so an odd mesh keeps the O(h^4) accuracy of an even
    one (the ratio 2 read -7.8e-5 at mesh 33 and -1.1e-5 at mesh 63)."""

    @pytest.mark.parametrize("mesh", [33, 63, 65])
    def test_odd_mesh(self, mesh):
        lam, tau = 2.0, 2.0
        path = integrate_geodesic(warped_metric(lam, flat_axis=True),
                                  PhaseState([-1.0, 0.0], [1.0, 0.0]), tau)
        fine, coarse = (eigh(*_assemble(path, None, m))[0]
                        for m in (mesh, mesh // 2))
        r2 = (mesh / (mesh // 2)) ** 2
        got = smallest_eigenvalue(path, None, mesh)
        assert got == (r2 * fine - coarse) / (r2 - 1.0)
        assert abs(got - flat_axis_warped_eigenvalue(lam, tau)) <= 2e-6


class TestSpectrumMemo:
    """A path keeps its pencils' eigenvalues per mesh, each with the boundary
    object it was solved for."""

    def test_other_boundary_is_solved_afresh(self):
        path = _assembly_path("sphere3")
        e = np.eye(3)
        b1 = BoundaryData(path.x0, e[:, 1], [[0.7]])
        b2 = BoundaryData(path.x0, e[:, 1], [[-3.0]])
        counts = []
        for b in (b1, b2, b1):
            rep = index_spectral(path, b, mesh_fixed=32)
            w = eigh(*_assemble(path, b, 32))
            theta = max(KER_FLOOR, KER_SHADOW * np.pi**2 / 32**2) * np.max(np.abs(w))
            assert (rep.m_minus, rep.m_zero) == (
                int(np.sum(w < -theta)), int(np.sum(np.abs(w) <= theta)))
            assert rep.spectral.smallest == w[0]
            counts.append((rep.m_minus, rep.m_zero))
        assert counts == [(0, 0), (1, 0), (0, 0)]

    def test_spectrum_is_read_only(self):
        path = _assembly_path("warped")
        w = _spectrum(path, None, 16)
        assert _spectrum(path, None, 16) is w
        with pytest.raises(ValueError):
            w[0] = 0.0

    def test_path_equality_and_repr_ignore_memo(self):
        path = _assembly_path("warped")
        twin = dataclasses.replace(path)
        index_spectral(path, mesh_fixed=16)
        assert path._spectra and not twin._spectra
        assert path == twin
        assert repr(path) == repr(twin)
        assert "_spectra" not in repr(path)


def _point_start_path(name):
    if name == "sphere2":
        m = fbt.sphere_stereo(1.0)
        return integrate_geodesic(m, PhaseState([0, -1], [1, 0]), 3.2)
    if name == "sphere3-double":
        m = fbt.sphere_stereo(1.0, dim=3)
        return integrate_geodesic(m, PhaseState([0, -1, 0], [1, 0, 0.2]), 1.5 * np.pi)
    return _assembly_path(name)


class TestPointStart:
    """A point start is boundary None: the 0-dimensional start submanifold,
    BoundaryData(x0, an n x 0 basis), gives the same bits on every route."""

    NAMES = ["sphere2", "sphere3-double", "warped", "randers", "sphere3"]

    @staticmethod
    def _point(path):
        return BoundaryData(path.x0, np.zeros((path.dim, 0)))

    @pytest.mark.parametrize("name", NAMES)
    def test_frame_and_scans(self, name):
        path = _point_start_path(name)
        frame = jacobi_frame(path)
        as_p = jacobi_frame(path, self._point(path))
        assert np.array_equal(frame.ts, as_p.ts)
        ts = np.linspace(0.0, path.tau, 97)
        assert np.array_equal(frame.sol(ts), as_p.sol(ts))
        conj = conjugate_scan(path)
        assert focal_scan(path, None) == conj
        assert focal_scan(path, self._point(path)) == conj

    @pytest.mark.parametrize("name", NAMES)
    def test_assembly_and_pencil(self, name):
        path = _point_start_path(name)
        for mesh in (16, 64):
            K, diag, off, k = _assemble(path, None, mesh)
            K_p, diag_p, off_p, k_p = _assemble(path, self._point(path), mesh)
            assert k == k_p == 0
            for a, b in ((K, K_p), (diag, diag_p), (off, off_p)):
                assert np.array_equal(a, b)
            assert np.array_equal(eigh(K, diag, off, k), eigh(K_p, diag_p, off_p, k_p))

    @pytest.mark.parametrize("name", ["sphere2", "sphere3-double", "warped"])
    def test_cross_check(self, name):
        path = _point_start_path(name)
        rep = cross_check(path)
        assert cross_check(path, None) == rep
        assert cross_check(path, self._point(path)) == rep
        assert rep.agree
