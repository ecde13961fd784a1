import numpy as np
import pytest

import fbt
from fbt.bifurc import (
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
from fbt.geoflow import integrate_geodesic
from fbt.metric import PhaseState

from _oracles import c1_distance_loop, flat_axis_warped_mu, warped_metric


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
                out[:2, :2] = base._c.h(x[:2])
                out[2, 2] = lam
                return out

            return fbt.from_callables(3, "riemannian_expr", h)

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
        at_mu = ev.at_mu()
        assert len(at_mu) >= 3
        vs = [s.v0 for s in at_mu]
        for i in range(len(vs)):
            for j in range(i + 1, len(vs)):
                assert np.linalg.norm(vs[i] - vs[j]) >= 1e-6
        for s in at_mu:
            assert s.endpoint_residual <= 1e-8
        assert classify_alternative(ev).label == "(i)-like"

    def test_warped_one_sided_pair(self):
        fam = warped_family()
        mu = sweep_family(fam).detections[0].mu
        # the pitchfork opens like angle ~ 1.2 sqrt(lam - mu): keep the probe
        # close and ladder the perturbation up to that scale
        ev = find_branches(fam, mu, seed=3, seeds_per_rung=4,
                           rho_ladder=(1e-1, 2.5e-1), delta=0.04,
                           offsets=(-1, 1), max_found=3)
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


class TestC1Distance:
    def test_matches_loop(self):
        m = warped_metric(1.3)
        a = integrate_geodesic(m, PhaseState([-0.5, 0.2], [1.0, 0.1]), 2.0)
        b = integrate_geodesic(m, PhaseState([-0.5, 0.2], [1.0, 0.13]), 2.0)
        got = _c1_distance(a, b)
        ref = c1_distance_loop(a, b)
        assert ref > 0.0
        assert got == pytest.approx(ref, rel=1e-14)
