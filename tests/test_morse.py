import collections
import dataclasses

import numpy as np
import pytest
from scipy.linalg import block_diag, eigh as scipy_eigh

import fbt
from fbt.bifurc import FamilySpec, InitialStateBranch, sweep_family
from fbt.geoflow import BoundaryData, integrate_geodesic
from fbt.jacobi import (ConjugateInstant, ConjugateReport, NotPerpendicular,
                        conjugate_scan, focal_scan, jacobi_frame)
from fbt.metric import ConvexityViolation, PhaseState
from fbt.morse import (
    KER_FLOOR,
    KER_SHADOW,
    NotCritical,
    _assemble,
    _normal_basis,
    _spectrum,
    cross_check,
    eigh,
    index_by_counting,
    index_spectral,
    smallest_eigenvalue,
)

from _oracles import (assemble_loop, flat_axis_warped_eigenvalue,
                      flat_axis_warped_mu, normal_pencil_loop, warped_metric)


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

    def test_mesh_below_two_rejected(self, euclid):
        # the last node is clamped, so mesh 1 has no normal field to solve on
        path = integrate_geodesic(euclid, PhaseState([0, 0], [1, 0]), 3.0)
        for mesh in (1, 0):
            with pytest.raises(ValueError, match=f"mesh {mesh}:"):
                index_spectral(path, mesh_fixed=mesh)
            with pytest.raises(ValueError, match=f"mesh {mesh}:"):
                index_spectral(path, mesh0=mesh)
            with pytest.raises(ValueError, match=f"mesh {mesh}:"):
                smallest_eigenvalue(path, None, mesh)
        assert path._spectra == {}

    def test_mesh_ladder_too_short_rejected(self, sphere):
        # three agreeing meshes mesh0, 2 mesh0 and 4 mesh0 need
        # max_mesh > 2 mesh0; a shorter ladder is refused before assembly
        path = integrate_geodesic(sphere, PhaseState([0, -1], [1, 0]), 4.0)
        for mesh0, max_mesh in [(16, 32), (64, 16)]:
            with pytest.raises(ValueError, match=rf"max_mesh {max_mesh} <= 2 \* mesh0 {mesh0}"):
                index_spectral(path, mesh0=mesh0, max_mesh=max_mesh)
        assert path._spectra == {}
        rep = index_spectral(path, mesh0=16, max_mesh=33)
        assert rep.spectral.history == [(16, 1, 0), (32, 1, 0), (64, 1, 0)]

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

    def test_short_mesh_ladder_rejected_before_the_scan(self, sphere3, monkeypatch):
        scans, scan = [], fbt.jacobi.focal_scan

        def counted(path, boundary, **kw):
            scans.append(path)
            return scan(path, boundary, **kw)

        monkeypatch.setattr(fbt.jacobi, "focal_scan", counted)
        path = integrate_geodesic(sphere3, PhaseState([0, 0, -1], [1, 0, 0]), 4.0)
        with pytest.raises(ValueError, match=r"max_mesh 32 <= 2 \* mesh0 16"):
            cross_check(path, mesh0=16, max_mesh=32)
        assert scans == [] and path._spectra == {}
        # a fixed mesh reads no ladder
        rep = index_spectral(path, mesh0=16, max_mesh=32, mesh_fixed=32)
        assert rep.spectral.history == [(32, rep.m_minus, rep.m_zero)]

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
    if name == "randers3":
        # the normal direction turns out of any fixed plane along this path
        m = fbt.randers_expr(3, [["1+0.1*x2^2", "0", "0"], ["0", "1+0.1*x3^2", "0"],
                                 ["0", "0", "1+0.1*x1^2"]],
                             ["0.2*sin(x2)", "0.1*sin(x3)", "0.1*sin(x1)"])
        return integrate_geodesic(m, PhaseState([0.1, 0.0, 0.2], [1.0, 0.2, 0.1]), 2.5)
    if name == "warped":
        m = fbt.riemannian_expr(2, [["1", "0"], ["0", "exp(-lam*x1^2)"]],
                                params={"lam": 1.3})
    else:
        m = fbt.randers_expr(2, [["1+0.1*x2^2", "0"], ["0", "1+0.1*x1^2"]],
                             ["0.3*sin(x2)", "0.2*sin(x1)"])
    return integrate_geodesic(m, PhaseState([0.1, 0.0], [1.0, 0.2]), 2.5)


def _start_basis(path, k):
    """k orthonormal columns of the g_v-orthogonal complement of v0: the
    tangent space of a start submanifold the path leaves perpendicularly."""
    gv = path.metric.fundamental_tensor(path.x0, path.v0) @ path.v0
    return np.linalg.svd(gv[None])[2][1:1 + k].T


SHAPES = {1: [[0.7]], 2: [[0.4, -0.2], [-0.2, 1.1]]}


def _starts(path):
    """A point and curved start submanifolds of every dimension
    k = 1 .. n - 1 that the path leaves perpendicularly."""
    return [None] + [BoundaryData(path.x0, _start_basis(path, k), SHAPES[k])
                     for k in range(1, path.dim)]


def _reference(path, boundary, mesh):
    """_oracles.normal_pencil_loop's (K, M), its frame started at t = 0 on
    _assemble's basis there.  Any orthonormal start basis gives the same
    eigenvalues; this one gives the same coordinates."""
    gv = path.metric.fundamental_tensor(path.x0, path.v0) @ path.v0
    Q = None if boundary is None else np.linalg.qr(boundary.basis)[0]
    start = _normal_basis((gv / np.linalg.norm(gv))[None], Q)[0]
    return normal_pencil_loop(path, boundary, mesh, start)


def _component_order(mesh, k, r):
    """The oracle's dof (node 0's first k coefficients, then the r of each
    of nodes 1 .. mesh - 1) of each of _assemble's dofs, which run component
    by component: the first k over nodes 0 .. mesh - 1, the others over
    nodes 1 .. mesh - 1."""
    dofs = []
    for c in range(r):
        nodes = np.arange(0 if c < k else 1, mesh)
        dofs.append(np.where(nodes == 0, c, k + (nodes - 1) * r + c))
    return np.concatenate(dofs)


def _check_assembly(path, boundary, mesh):
    """K against the oracle's, read in _assemble's order, and the grid's
    inverse Cholesky factors F against the oracle's mass: F M F^T = I.
    K is exactly symmetric and exactly zero between dofs whose nodes
    (grid.dofs) are not neighbours."""
    K, grid = _assemble(path, boundary, mesh)
    nd = len(K)
    nodes, comps = np.nonzero(grid.dofs < nd)
    assert grid.dofs.shape == (mesh + 1, grid.r)
    assert np.array_equal(np.sort(grid.dofs[nodes, comps]), np.arange(nd))
    node = np.empty(nd, dtype=int)
    node[grid.dofs[nodes, comps]] = nodes
    assert np.array_equal(K, K.T)
    assert not np.any(K[np.abs(node[:, None] - node) > 1])
    K_ref, M_ref = _reference(path, boundary, mesh)
    order = np.ix_(*2 * [_component_order(mesh, grid.k, grid.r)])
    K_ref, M_ref = K_ref[order], M_ref[order]
    F = block_diag(*[grid.tangent] * grid.k + [grid.normal] * (grid.r - grid.k))
    assert K.shape == K_ref.shape
    assert np.max(np.abs(K - K_ref)) <= 1e-13 * np.max(np.abs(K_ref))
    assert np.max(np.abs(F @ M_ref @ F.T - np.eye(len(K)))) <= 1e-13


class TestVectorizedAssembly:
    """_assemble (one stacked evaluation, blocks by broadcasting, the normal
    frame by a rank-one rotation per Gauss point) against the element by
    element, point by point loop of _oracles.normal_pencil_loop."""

    @pytest.mark.parametrize("name", ["warped", "randers", "sphere3", "randers3"])
    def test_matches_loop(self, name):
        path = _assembly_path(name)
        for boundary in _starts(path):
            for mesh in (4, 16, 64):
                _check_assembly(path, boundary, mesh)


class TestBoundaryReduction:
    """The BoundaryData reduction by slicing K against the dense T^T K T
    product of _oracles.normal_pencil_loop, up to mesh 256."""

    @pytest.mark.parametrize("name", ["warped", "randers", "sphere3", "randers3"])
    def test_matches_dense_product(self, name):
        path = _assembly_path(name)
        for boundary in _starts(path)[1:]:
            for mesh in (4, 16, 64, 256):
                _check_assembly(path, boundary, mesh)


class TestStartOffTheNormal:
    """A start submanifold the path does not leave g_v-orthogonally is
    rejected by the spectral route as by the frames: node 0's dofs must lie
    in the normal complement, so k <= n - 1."""

    @pytest.mark.parametrize("name", ["warped", "randers", "sphere3"])
    def test_rejected(self, name):
        path = _assembly_path(name)
        e = np.eye(path.dim)
        for boundary in (BoundaryData(path.x0, e[:, :1], [[0.7]]),
                         BoundaryData(path.x0, e[:, :2], SHAPES[2])):
            with pytest.raises(NotPerpendicular):
                index_spectral(path, boundary, mesh_fixed=16)
            with pytest.raises(NotPerpendicular):
                jacobi_frame(path, boundary)


def _solver_boundaries(path):
    rng = np.random.default_rng(7)
    W = _start_basis(path, 2)
    Q = W @ np.linalg.qr(rng.standard_normal((2, 2)))[0]
    loose = Q + 1e-9 * rng.standard_normal((3, 2))  # orthonormal to about 1e-9
    return {
        "point-point": None,
        "k1": BoundaryData(path.x0, np.eye(3)[:, 1:2], SHAPES[1]),
        "k2": BoundaryData(path.x0, W, SHAPES[2]),
        "k2-loose": BoundaryData(path.x0, loose, [[-0.5, 0.3], [0.3, 0.9]]),
    }


class TestPencilSolver:
    """morse.eigh (Cholesky reduction through the block-diagonal mass) against
    SciPy's generalized eigh on the pencil of _oracles.normal_pencil_loop,
    in its own frame and basis coordinates."""

    @pytest.mark.parametrize("which", ["point-point", "k1", "k2", "k2-loose"])
    def test_matches_scipy(self, which):
        path = _assembly_path("sphere3")
        boundary = _solver_boundaries(path)[which]
        if which == "k2-loose":
            gram = boundary.basis.T @ boundary.basis
            assert 1e-10 < np.max(np.abs(gram - np.eye(2))) < 1e-8
        for mesh in (4, 8, 16, 32, 64, 128):
            w_ref = scipy_eigh(*normal_pencil_loop(path, boundary, mesh),
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


def _matches_scipy(path, boundary, mesh):
    """eigh against SciPy's generalized eigh on _oracles.normal_pencil_loop,
    within TestPencilSolver's bound; returns the pencil's grid."""
    w_ref = scipy_eigh(*normal_pencil_loop(path, boundary, mesh), eigvals_only=True)
    K, grid = _assemble(path, boundary, mesh)
    w = eigh(K, grid)
    assert w.shape == w_ref.shape and np.all(np.isfinite(w))
    assert np.max(np.abs(w - w_ref)) <= 1e-12 * np.max(np.abs(w_ref))
    return grid


class TestMeshFactorCache:
    """A pencil's mass depends on (mesh, tau, k, r) alone, so morse._grid
    keeps its inverse Cholesky factor, with the assembly's mesh constants,
    for every pencil on that mesh."""

    def test_sweep_builds_each_factor_once(self, monkeypatch):
        fam = FamilySpec(param_name="lam", param_range=(0.5, 5.0), samples=4,
                         metric_builder=lambda lam: warped_metric(lam, flat_axis=True),
                         branch=InitialStateBranch([-1.0, 0.0], [1.0, 0.0], 2.0))
        built = collections.Counter()
        pencils = collections.Counter()
        factor, assemble = fbt.morse._inverse_cholesky, fbt.morse._assemble

        def counted_factor(diag, off):
            built[len(diag)] += 1
            return factor(diag, off)

        def counted_assemble(path, boundary, mesh):
            pencils[mesh] += 1
            return assemble(path, boundary, mesh)

        monkeypatch.setattr(fbt.morse, "_inverse_cholesky", counted_factor)
        monkeypatch.setattr(fbt.morse, "_assemble", counted_assemble)
        fbt.morse._grid.cache_clear()
        sweep_family(fam, max_mesh=256, refine_mesh=128)
        # a point start (k = 0) on a 2-D metric needs the factor over nodes
        # 1 .. mesh - 1 alone, once per mesh, however many members share it
        assert built == {mesh - 1: 1 for mesh in pencils}
        assert max(pencils.values()) > 1

    def test_tau_and_k_get_their_own_factors(self):
        path = _assembly_path("sphere3")
        longer = integrate_geodesic(path.metric, PhaseState(path.x0, path.v0), 2.5)
        boundaries = _solver_boundaries(path)
        grids = [_matches_scipy(path, boundaries["k1"], 32),
                 _matches_scipy(path, boundaries["k2"], 32),
                 _matches_scipy(path, None, 32),
                 _matches_scipy(longer, None, 32)]
        assert [(g.mesh, g.k, g.r) for g in grids] == [(32, 1, 2), (32, 2, 2),
                                                       (32, 0, 2), (32, 0, 2)]
        for i, a in enumerate(grids):
            for b in grids[i + 1:]:
                assert a is not b
        assert not np.array_equal(grids[2].normal, grids[3].normal)
        assert _assemble(path, None, 32)[1] is grids[2]

    def test_cached_arrays_are_read_only(self):
        path = _assembly_path("sphere3")
        grid = _assemble(path, _solver_boundaries(path)["k1"], 16)[1]
        arrays = [a for a in grid if isinstance(a, np.ndarray)] + list(grid.shapes)
        assert len(arrays) == 9
        for a in arrays:
            with pytest.raises(ValueError):
                a.flat[0] = 1.0


class TestPencilEdgeCases:
    """The reduction where the mass dominates and on fine 2-D and 3-D meshes,
    against SciPy's generalized eigh."""

    @pytest.mark.parametrize("mesh, tau", [(3, 3.0 * np.sqrt(6.0)), (24, 24.0 * np.sqrt(6.0)),
                                           (2, 8.0), (3, 9.0)])
    def test_mass_dominated_coarse_mesh(self, mesh, tau):
        # h >= sqrt(6): T's off-diagonal h / 6 - 1 / h is zero (to rounding)
        # or positive, for the tangent chain over node 0 of a k = 1 start too.
        # At h = sqrt(6) the factor's entries fall like 1e-16 per node, so a
        # quotient of cumulative products would read 0 / 0 by node 20
        path = integrate_geodesic(fbt.sphere_stereo(1.0, dim=3),
                                  PhaseState([0.0, -1.0, 0.0], [1.0, 0.0, 0.0]), tau)
        assert tau / mesh >= np.sqrt(6.0) - 1e-15
        boundary = BoundaryData(path.x0, np.eye(3)[:, 2:], SHAPES[1])
        for b in (None, boundary):
            _matches_scipy(path, b, mesh)

    @pytest.mark.parametrize("name", ["warped", "randers"])
    def test_fine_2d_mesh(self, name):
        path = _assembly_path(name)
        for boundary in _starts(path):
            _matches_scipy(path, boundary, 256)

    @pytest.mark.parametrize("name", ["sphere3", "randers3"])
    def test_fine_3d_mesh(self, name):
        # k = 1 gives component blocks of mesh and mesh - 1 nodes; randers3's
        # normal turns out of every fixed plane
        path = _assembly_path(name)
        for boundary in _starts(path):
            _matches_scipy(path, boundary, 256)


def _full_counts(path, boundary, mesh):
    """(m-, m0) of the full n-dof pencil of _oracles.assemble_loop, by SciPy,
    read by index_spectral's rule."""
    w = scipy_eigh(*assemble_loop(path, boundary, mesh), eigvals_only=True)
    theta = max(KER_FLOOR, KER_SHADOW * np.pi**2 / mesh**2) * np.max(np.abs(w))
    return int(np.sum(w < -theta)), int(np.sum(np.abs(w) <= theta))


class TestNormalReductionKeepsCounts:
    """The pencil on normal fields has the counts of the pencil on all
    fields: the tangential part of the index form is positive, and every
    null field is normal.  Compared on the mesh where index_spectral settles."""

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("K", [0.5, 1.0])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_sphere_great_circle(self, dim, K, k):
        m = fbt.sphere_stereo(K, dim=dim)
        e = np.eye(dim)
        path = integrate_geodesic(m, PhaseState(-e[1], np.sqrt(K) * e[0]),
                                  (k + 0.5) * np.pi / np.sqrt(K))
        rep = index_spectral(path)
        assert (rep.m_minus, rep.m_zero) == (k * (dim - 1), 0)
        assert _full_counts(path, None, rep.spectral.mesh) == (rep.m_minus, rep.m_zero)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("K", [0.5, 1.0, 1.25])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_sphere_null_modes(self, dim, K, k):
        # a great circle ending at its k-th conjugate point: k - 1 interior
        # instants and a null mode of k half-waves, each of multiplicity n - 1
        m = fbt.sphere_stereo(K, dim=dim)
        e = np.eye(dim)
        path = integrate_geodesic(m, PhaseState(e[0], np.sqrt(K) * e[1]),
                                  k * np.pi / np.sqrt(K))
        rep = index_spectral(path)
        assert (rep.m_minus, rep.m_zero) == ((k - 1) * (dim - 1), dim - 1)

    @pytest.mark.parametrize("name", ["warped", "randers", "randers3"])
    def test_family_paths(self, name):
        path = _assembly_path(name)
        for boundary in _starts(path):
            rep = index_spectral(path, boundary)
            assert _full_counts(path, boundary, rep.spectral.mesh) == (
                rep.m_minus, rep.m_zero)


class TestOneDimensional:
    """A 1-D metric has no normal field: its pencil is empty, its index is
    (0, 0) on every mesh, and nothing is assembled or solved."""

    def test_empty_pencil(self, monkeypatch):
        path = integrate_geodesic(fbt.euclidean(1), PhaseState([0.0], [1.0]), 2.0)

        def unreachable(*args):
            raise AssertionError("a 1-D pencil was assembled or solved")

        monkeypatch.setattr(fbt.morse, "_assemble", unreachable)
        monkeypatch.setattr(fbt.morse, "eigh", unreachable)
        rep = index_spectral(path)
        assert (rep.m_minus, rep.m_zero) == (0, 0)
        sd = rep.spectral
        assert (sd.smallest, sd.min_abs_eig, sd.eigs_near_zero) == (None, None, [])
        assert sd.history == [(16, 0, 0), (32, 0, 0), (64, 0, 0)]
        assert cross_check(path).agree


class TestIndefiniteKind:
    """On the quadratic pseudo-kind the spectral route needs the normal
    vertical Hessian positive definite: a timelike normal leaves the index
    form unbounded below on every mesh (m- = mesh - 1 on flat diag(1, -1)),
    so the route raises at its first assembly instead of refining up to
    max_mesh into NoStabilization."""

    @pytest.mark.parametrize("v0", [[1.0, 0.0], [1.0, 1.0]], ids=["spacelike", "null"])
    def test_timelike_normal_raises_before_solving(self, minkowski, monkeypatch, v0):
        # a null geodesic is its own normal: the normal Hessian is singular
        solved = []
        monkeypatch.setattr(fbt.morse, "eigh", lambda *a: solved.append(a))
        path = integrate_geodesic(minkowski, PhaseState([0.0, 0.0], v0), 2.0)
        with pytest.raises(ConvexityViolation, match="normal vertical Hessian"):
            index_spectral(path)
        with pytest.raises(ConvexityViolation):
            cross_check(path)
        assert solved == [] and path._spectra == {}

    @pytest.mark.parametrize("g, v0", [
        ([["1", "0"], ["0", "-1"]], [0.0, 1.0]),
        ([["1", "0"], ["0", "-(1+0.1*x1^2)"]], [0.3, 1.0]),
        ([["1", "0"], ["0", "1+0.1*x1^2"]], [0.3, 1.0]),
    ])
    def test_positive_definite_normal_reads_zero(self, g, v0):
        m = fbt.quadratic_expr(2, g)
        rep = cross_check(integrate_geodesic(m, PhaseState([0.0, 0.0], v0), 2.0))
        assert (rep.m_minus, rep.m_zero, rep.agree) == (0, 0, True)


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
        b1 = BoundaryData(path.x0, e[:, 1:2], [[0.7]])
        b2 = BoundaryData(path.x0, e[:, 1:2], [[-3.0]])
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
            K, grid = _assemble(path, None, mesh)
            K_p, grid_p = _assemble(path, self._point(path), mesh)
            assert grid is grid_p and grid.k == 0
            assert np.array_equal(K, K_p)
            assert np.array_equal(eigh(K, grid), eigh(K_p, grid_p))
            _check_assembly(path, None, mesh)

    @pytest.mark.parametrize("name", ["sphere2", "sphere3-double", "warped"])
    def test_cross_check(self, name):
        path = _point_start_path(name)
        rep = cross_check(path)
        assert cross_check(path, None) == rep
        assert cross_check(path, self._point(path)) == rep
        assert rep.agree
