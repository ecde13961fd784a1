import collections
import dataclasses

import numpy as np
import pytest

import fbt
from fbt import morse
from fbt.bifurc import (
    FLANK_REL,
    REFINE_TOL_REL,
    BranchLost,
    ConnectBranch,
    FamilySpec,
    InitialStateBranch,
    classify_alternative,
    detect_bifurcation,
    find_branches,
    _c1_distance,
    realize_branch,
    sweep_family,
)
from fbt.cli import _jsonable
from fbt.errors import NumericalError
from fbt.geoflow import GeodesicPath, integrate_geodesic, newton
from fbt.metric import PhaseState
from fbt.morse import _assemble, eigh, index_spectral, smallest_eigenvalue
from fbt.ode import brentq

from _oracles import (c1_distance_loop, flat_axis_warped_mu, newton_every_trial,
                      newton_without_repelled_exit, warped_metric)


def warped_family(samples=12, rng_hi=5.0):
    """Warped product with the trivial branch along the flat axis; the
    transverse Jacobi coefficient along the branch is the constant lam."""
    return FamilySpec(
        param_name="lam",
        param_range=(0.5, rng_hi),
        samples=samples,
        metric_builder=lambda lam: warped_metric(lam, flat_axis=True),
        branch=InitialStateBranch([-1.0, 0.0], [1.0, 0.0], 2.0),
    )


def sphere_family(samples=8):
    return FamilySpec(
        param_name="K",
        param_range=(0.5, 2.0),
        samples=samples,
        metric_builder=lambda lam: fbt.sphere_stereo(lam),
        branch=InitialStateBranch([0.0, -1.0], [1.0, 0.0], np.pi,
                                  normalize_speed=1.0),
    )


def randers_family(samples=4):
    h = [["exp(-lam*x2^2)", "0"], ["0", "1"]]
    beta = ["0.2*exp(-lam*x2^2)", "0"]
    return FamilySpec(
        param_name="lam", param_range=(0.5, 5.0), samples=samples,
        metric_builder=lambda lam: fbt.randers_expr(2, h, beta, {"lam": lam}),
        branch=InitialStateBranch([-1.0, 0.0], [1.0, 0.0], 2.0),
    )


REFINE_MESH = 128


def _check_against_fresh_members(fam, scan, d):
    """d's mu is brentq over smallest_eigenvalue of members realized afresh
    at every evaluation, and its flank counts are theirs too."""
    a, b = fam.param_range
    refine_tol = REFINE_TOL_REL * (b - a)
    flank = max(FLANK_REL * (b - a), 10 * refine_tol)
    rl, rr = next((rl, rr) for rl, rr in zip(scan.records, scan.records[1:])
                  if rl.lam < d.mu < rr.lam)
    k = min(rl.m_minus, rr.m_minus)

    def fresh(lam):
        return realize_branch(fam, lam)[1]

    mu = brentq(lambda lam: smallest_eigenvalue(fresh(lam), None,
                                                REFINE_MESH, k=k),
                rl.lam, rr.lam, xtol=refine_tol)
    assert d.mu == mu
    left, right = (index_spectral(fresh(lam), mesh_fixed=REFINE_MESH)
                   for lam in (mu - flank, mu + flank))
    assert (d.m_left, d.m0_left) == (left.m_minus, left.m_zero)
    assert (d.m_right, d.m0_right) == (right.m_minus, right.m_zero)


class TestSweep:
    def test_flat_family_no_candidates(self):
        fam = FamilySpec(
            param_name="unused", param_range=(0.0, 1.0), samples=5,
            metric_builder=lambda lam: fbt.euclidean(2),
            branch=InitialStateBranch([0.0, 0.0], [1.0, 0.0], 3.0),
        )
        scan = sweep_family(fam)
        assert scan.detections == []
        assert all(r.m_minus == 0 and r.m_zero == 0 for r in scan.records)

    @pytest.mark.parametrize("param_range", [(5.0, 0.5), (1.0, 1.0)])
    def test_range_must_increase(self, param_range):
        # brentq's bracket tolerance is a fraction of b - a
        with pytest.raises(ValueError, match="param_range must be increasing"):
            FamilySpec(param_name="lam", param_range=param_range, samples=4,
                       metric_builder=lambda lam: warped_metric(lam, flat_axis=True),
                       branch=InitialStateBranch([-1.0, 0.0], [1.0, 0.0], 2.0))

    def test_short_mesh_ladder_rejected_before_any_work(self, monkeypatch):
        built, scans = [], []
        scan = fbt.jacobi.focal_scan

        def build(K):
            built.append(K)
            return fbt.sphere_stereo(K)

        def counted(path, boundary, **kw):
            scans.append(path)
            return scan(path, boundary, **kw)

        fam = dataclasses.replace(sphere_family(samples=4), metric_builder=build)
        monkeypatch.setattr(fbt.jacobi, "focal_scan", counted)
        with pytest.raises(ValueError, match=r"max_mesh 32 <= 2 \* mesh0 16"):
            sweep_family(fam, mesh0=16, max_mesh=32)
        assert built == [] and scans == []

    def test_warped_family_crossing(self):
        scan = sweep_family(warped_family())
        assert len(scan.detections) == 1
        d = scan.detections[0]
        assert d.refined
        assert (d.m_left, d.m_right) == (0, 1)
        assert d.nullity == 1
        mu_oracle = flat_axis_warped_mu()
        assert abs(d.mu - mu_oracle) <= 1e-4
        assert mu_oracle == pytest.approx((np.pi / 2) ** 2, abs=1e-9)

    def test_sphere_family_crossing_at_unit_curvature(self):
        scan = sweep_family(sphere_family())
        assert len(scan.detections) == 1
        d = scan.detections[0]
        assert abs(d.mu - 1.0) <= 1e-5
        assert d.nullity == 1

    def test_index_constant_between_detections(self):
        scan = sweep_family(warped_family())
        mu = scan.detections[0].mu
        for r in scan.records:
            want = 0 if r.lam < mu else 1
            assert r.m_minus == want

    def test_min_abs_eig_is_closest_to_zero(self):
        # past the crossing w[0] is the negative eigenvalue of the index, not
        # the one closest to zero
        fam = warped_family(samples=10)
        scan = sweep_family(fam)
        assert any(r.m_minus > 0 and r.m_zero == 0 for r in scan.records)
        for r in scan.records:
            _, path = realize_branch(fam, r.lam)
            w = eigh(*_assemble(path, None, r.mesh))
            assert r.min_abs_eig == pytest.approx(np.min(np.abs(w)), rel=1e-12)

    def test_connect_branch_family(self):
        # same warped family, trivial branch realized by two-point shooting
        fam = FamilySpec(
            param_name="lam", param_range=(1.0, 2.0), samples=4,
            metric_builder=lambda lam: warped_metric(lam, flat_axis=True),
            branch=ConnectBranch([-0.5, 0.0], [0.5, 0.0], [1.0, 0.0], tau=1.0),
        )
        scan = sweep_family(fam)
        assert scan.detections == []
        assert all(r.agree for r in scan.records)


    def test_connect_branch_honours_tau(self):
        fam = FamilySpec(
            param_name="K", param_range=(0.5, 1.5), samples=3,
            metric_builder=lambda K: fbt.sphere_stereo(K),
            branch=ConnectBranch([0, -1], [0.6, -0.4], [0.6, 0.6], tau=2.0),
        )
        _, path = realize_branch(fam, 1.0)
        assert path.tau == 2.0
        assert np.max(np.abs(path.endpoint - [0.6, -0.4])) < 1e-8

    @pytest.mark.parametrize("make", [warped_family, randers_family],
                             ids=["warped", "randers"])
    def test_refinement_evaluates_each_member_once(self, make, monkeypatch):
        # a sample is realized once more by the refinement, which realizes
        # each of its own parameters once and solves each pencil once
        fam = make()
        builds = collections.Counter()
        pencils = collections.Counter()
        paths = []  # keeps every path alive, so no id is reused
        assemble = morse._assemble

        def counted_build(lam):
            builds[float(lam)] += 1
            return fam.metric_builder(lam)

        def counted_assemble(path, boundary, mesh):
            paths.append(path)
            pencils[id(path), mesh] += 1
            return assemble(path, boundary, mesh)

        monkeypatch.setattr(morse, "_assemble", counted_assemble)
        counted = dataclasses.replace(fam, metric_builder=counted_build)
        scan = sweep_family(counted, refine_mesh=REFINE_MESH)
        monkeypatch.undo()

        samples = {r.lam for r in scan.records}
        assert set(builds) > samples
        for lam, n in builds.items():
            assert n <= (2 if lam in samples else 1), lam
        assert max(pencils.values()) == 1
        refined = [d for d in scan.detections if d.refined]
        assert refined
        for d in refined:
            _check_against_fresh_members(fam, scan, d)

    @pytest.mark.parametrize("make", [warped_family, randers_family],
                             ids=["warped", "randers"])
    def test_initial_state_samples_serve_the_refinement(self, make):
        """An InitialStateBranch ignores its seed, so the refinement reads
        the samples' own paths: every parameter is built once, and records
        and detections equal those of a sweep that realizes the bracket
        ends afresh (the same branch behind a class sweep_family does not
        know)."""
        fam = make()
        builds = collections.Counter()

        def counted_build(lam):
            builds[float(lam)] += 1
            return fam.metric_builder(lam)

        class Opaque:
            def realize(self, m, seed=None, **kw):
                return fam.branch.realize(m, seed, **kw)

        scan = sweep_family(dataclasses.replace(fam, metric_builder=counted_build),
                            refine_mesh=REFINE_MESH)
        fresh = sweep_family(dataclasses.replace(fam, branch=Opaque()),
                             refine_mesh=REFINE_MESH)
        assert any(d.refined for d in scan.detections)
        assert set(builds.values()) == {1}
        assert scan.records == fresh.records
        assert scan.detections == fresh.detections

    def test_connect_branch_refinement_realizes_its_own_ends(self):
        """A ConnectBranch's samples are shot from the previous sample's
        velocity, so the refinement realizes the bracket ends again from
        the seedless shot."""
        builds = collections.Counter()

        def counted_build(lam):
            builds[float(lam)] += 1
            return warped_metric(lam, flat_axis=True)

        fam = FamilySpec("lam", (0.5, 5.0), 4, counted_build,
                         ConnectBranch([-1.0, 0.0], [1.0, 0.0], [1.0, 0.0], tau=2.0))
        scan = sweep_family(fam, refine_mesh=REFINE_MESH)
        d, = [d for d in scan.detections if d.refined]
        ends = [r.lam for r in scan.records if abs(r.lam - d.mu) < 1.5]
        assert len(ends) == 2 and all(builds[lam] == 2 for lam in ends)


class TestSweepCriticality:
    @staticmethod
    def _count_residuals(monkeypatch):
        calls, paths = collections.Counter(), []  # paths keeps each id unique
        residual = GeodesicPath.max_el_residual

        def counted(path):
            paths.append(path)
            calls[id(path)] += 1
            return residual(path)

        monkeypatch.setattr(GeodesicPath, "max_el_residual", counted)
        return calls

    def test_each_sample_is_tested_once(self, monkeypatch):
        # cross_check's spectral route is a sample's one criticality test;
        # the refinement's members are paths of their own
        calls = self._count_residuals(monkeypatch)
        scan = sweep_family(warped_family(samples=4), refine_mesh=REFINE_MESH)
        assert len(scan.records) == 4 and scan.detections
        assert set(calls.values()) == {1}

    def test_non_critical_sample_loses_the_branch(self, monkeypatch):
        # at rtol 1e-6 the 3.85 pi great circle's EL residual is some 5e-5
        fam = FamilySpec(
            param_name="K", param_range=(0.9, 1.1), samples=3,
            metric_builder=lambda K: fbt.sphere_stereo(K),
            branch=InitialStateBranch([0.0, -1.0], [1.0, 0.0], 3.85 * np.pi),
        )
        calls = self._count_residuals(monkeypatch)
        with pytest.raises(BranchLost, match=r"parameter 0\.9: .*EL residual") as exc:
            sweep_family(fam, rtol=1e-6)
        assert type(exc.value.lam) is float and exc.value.lam == 0.9
        assert list(calls.values()) == [1]


class TestVerdicts:
    def test_warped_sufficient(self):
        scan = sweep_family(warped_family())
        verdicts = detect_bifurcation(scan)
        assert len(verdicts) == 1
        v = verdicts[0]
        assert v.label == "sufficient-condition met"
        assert v.interval_left == (0, 0)
        assert v.interval_right == (1, 1)

    def test_plateau_necessary_only(self):
        # product with a flat factor: the degenerate direction ignores the
        # parameter, so the nullity is 1 on the whole interval and the index
        # never jumps
        mu_star = flat_axis_warped_mu()

        def builder(lam):
            base = warped_metric(mu_star, flat_axis=True)
            eye = np.eye(3)

            def h(x):
                out = eye.copy()
                out[:2, :2] = base._c.stack(x[:2], 0)[0]
                out[2, 2] = lam
                return out

            # the x3 row and column are constant: only the 2-D block varies
            def dh(x):
                out = np.zeros((3, 3, 3))
                out[:2, :2, :2] = base._c.stack(x[:2], 1)[2]
                return out

            def d2h(x):
                out = np.zeros((3, 3, 3, 3))
                out[:2, :2, :2, :2] = base._c.stack(x[:2], 2)[4]
                return out

            return fbt.from_callables(3, "riemannian_expr", h, dh=dh, d2h=d2h)

        fam = FamilySpec(
            param_name="lam", param_range=(1.0, 1.3), samples=4,
            metric_builder=builder,
            branch=InitialStateBranch([-1.0, 0.0, 0.0], [1.0, 0.0, 0.0], 2.0),
        )
        scan = sweep_family(fam, mesh0=16, max_mesh=256)
        verdicts = detect_bifurcation(scan)
        assert len(verdicts) == 1
        assert verdicts[0].label == "necessary-only"
        assert scan.detections[0].plateau

    def test_flat_family_empty_verdicts(self):
        fam = FamilySpec(
            param_name="unused", param_range=(0.0, 1.0), samples=4,
            metric_builder=lambda lam: fbt.euclidean(2),
            branch=InitialStateBranch([0.0, 0.0], [1.0, 0.0], 2.0),
        )
        assert detect_bifurcation(sweep_family(fam)) == []


def _one_sided_pair_hunt():
    fam = warped_family()
    mu = sweep_family(fam).detections[0].mu
    # the pitchfork opens like angle ~ 1.2 sqrt(lam - mu): keep the probe
    # close and ladder the perturbation up to that scale
    return find_branches(fam, mu, seed=3, seeds_per_rung=4,
                         rho_ladder=(1e-1, 2.5e-1), delta=0.04,
                         offsets=(-1, 1), max_found=3)


@pytest.fixture(scope="module")
def one_sided_pair():
    return _one_sided_pair_hunt()


class TestFindBranches:
    def test_flat_family_finds_nothing(self):
        fam = FamilySpec(
            param_name="unused", param_range=(0.0, 1.0), samples=4,
            metric_builder=lambda lam: fbt.euclidean(2),
            branch=InitialStateBranch([0.0, 0.0], [1.0, 0.0], 2.0),
        )
        ev = find_branches(fam, 0.5, seed=1, seeds_per_rung=4,
                           rho_ladder=(1e-3, 1e-2), offsets=(0,))
        assert ev.solutions == []
        assert classify_alternative(ev).label == "undetermined"

    def test_sphere_rotational_family(self):
        ev = find_branches(sphere_family(), 1.0, seed=42, seeds_per_rung=8,
                           offsets=(0,), max_found=6)
        at_mu = ev.on_side(0)
        assert len(at_mu) >= 3
        vs = [s.v0 for s in at_mu]
        for i in range(len(vs)):
            for j in range(i + 1, len(vs)):
                assert np.linalg.norm(vs[i] - vs[j]) >= 1e-6
        for s in at_mu:
            assert s.endpoint_residual <= 1e-8
        assert classify_alternative(ev).label == "(i)-like"

    def test_warped_one_sided_pair(self, one_sided_pair):
        ev = one_sided_pair
        left = ev.on_side(-1)
        right = ev.on_side(+1)
        # bent geodesics exist on the high side of the crossing only
        assert len(right) >= 2
        assert left == []
        for s in right:
            assert s.endpoint_residual <= 1e-8
            assert s.el_residual <= 1e-5
            assert np.linalg.norm(s.v0 - [1.0, 0.0]) >= 1e-6
        assert classify_alternative(ev).label == "(iii)-like"

    def test_determinism(self):
        fam = sphere_family()
        ev1 = find_branches(fam, 1.0, seed=7, seeds_per_rung=4, offsets=(0,),
                            max_found=4)
        ev2 = find_branches(fam, 1.0, seed=7, seeds_per_rung=4, offsets=(0,),
                            max_found=4)
        assert len(ev1.solutions) == len(ev2.solutions)
        for a, b in zip(ev1.solutions, ev2.solutions):
            assert np.array_equal(a.v0, b.v0)
            assert a.speed == b.speed


def _criterion_6_probe(kind):
    """A warped or Randers probe below its critical parameter, at the probe
    settings of criterion 6."""
    h = [["exp(-lam*x2^2)", "0"], ["0", "1"]]
    beta = ["0.2*exp(-lam*x2^2)", "0"] if kind == "randers" else None
    fam = FamilySpec(
        param_name="lam", param_range=(0.5, 5.0), samples=8,
        metric_builder=lambda lam: (fbt.randers_expr(2, h, beta, {"lam": lam})
                                    if beta else fbt.riemannian_expr(2, h, {"lam": lam})),
        branch=InitialStateBranch([-1.0, 0.0], [1.0, 0.0], 2.0),
    )
    return lambda: find_branches(fam, 1.31, seed=2000, offsets=(0,),
                                 rho_ladder=(1e-3, 1e-2), seeds_per_rung=2,
                                 max_iter=8, max_found=2)


class TestResidualOnlyTrials:
    """Damped trials read G alone; the hunts keep the solutions the Newton
    loop with the Jacobian at every trial finds, bit for bit."""

    @pytest.mark.parametrize("hunt", [
        _criterion_6_probe("warped"),
        _criterion_6_probe("randers"),
        lambda: find_branches(sphere_family(), 1.0, seed=7, seeds_per_rung=4,
                              offsets=(0,), max_found=4),
    ], ids=["warped_probe", "randers_probe", "sphere_hunt"])
    def test_hunt_matches_jacobian_at_every_trial(self, hunt, monkeypatch):
        def run(solve):
            starts = []

            def recording(G, GJ, v0, **kw):
                try:
                    v = solve(G, GJ, v0, **kw)
                except NumericalError as exc:
                    starts.append(f"{type(exc).__name__}: {exc}")
                    raise
                starts.append(v.tolist())
                return v

            monkeypatch.setattr(fbt.bifurc, "newton", recording)
            return _jsonable(hunt()), starts

        ev, starts = run(newton)
        assert run(lambda G, GJ, v0, **kw: newton_every_trial(GJ, v0, **kw)) \
            == (ev, starts)
        assert len(starts) >= 4


class TestRepelledExit:
    """Ending the starts repelled from a deflated root keeps the solutions
    the loop without that exit finds, bit for bit."""

    @pytest.mark.parametrize("hunt", [
        _criterion_6_probe("warped"),
        _criterion_6_probe("randers"),
        # criterion 5's hunt
        lambda: find_branches(sphere_family(), 1.0, seed=12345, seeds_per_rung=8,
                              offsets=(0,), max_found=8),
    ], ids=["warped_probe", "randers_probe", "sphere_hunt"])
    def test_hunt_keeps_solutions_of_loop_without_exit(self, hunt, monkeypatch):
        exits = []

        def recording(G, GJ, v0, **kw):
            try:
                return newton(G, GJ, v0, **kw)
            except NumericalError as exc:
                exits.append(str(exc))
                raise

        monkeypatch.setattr(fbt.bifurc, "newton", recording)
        ev = _jsonable(hunt())
        assert any("repelled from a deflated root" in e for e in exits)
        monkeypatch.setattr(fbt.bifurc, "newton", newton_without_repelled_exit)
        assert _jsonable(hunt()) == ev

    def test_one_sided_pair_keeps_solutions_of_loop_without_exit(
            self, one_sided_pair, monkeypatch):
        # seeds at 0.1 and 0.25 |v| start outside every repelled region
        monkeypatch.setattr(fbt.bifurc, "newton", newton_without_repelled_exit)
        assert _jsonable(_one_sided_pair_hunt()) == _jsonable(one_sided_pair)


class TestC1Distance:
    def test_matches_loop(self):
        m = warped_metric(1.3)
        a = integrate_geodesic(m, PhaseState([-0.5, 0.2], [1.0, 0.1]), 2.0)
        b = integrate_geodesic(m, PhaseState([-0.5, 0.2], [1.0, 0.13]), 2.0)
        got = _c1_distance(a, b)
        ref = c1_distance_loop(a, b)
        assert ref > 0.0
        assert got == pytest.approx(ref, rel=1e-14)
