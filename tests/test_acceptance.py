"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here, not configurable; oracle values are computed
by the independent helpers in _oracles.py at run time, never invented.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

import fbt
from fbt import cli as _cli
from fbt.bifurc import (
    FamilySpec,
    InitialStateBranch,
    classify_alternative,
    detect_bifurcation,
    find_branches,
    sweep_family,
)
from fbt.geoflow import connect, exp_map, integrate_geodesic
from fbt.metric import PhaseState

from _oracles import (
    constant_wind_time,
    expmap_fd,
    flat_axis_warped_mu,
    jacobi_scalar,
)
from conftest import catalog_metrics


@contextmanager
def criterion(num, name, budget_s, already=0.0):
    t0 = time.time()
    try:
        yield
    except BaseException:
        print(f"[criterion {num:2d}] {name}: FAIL after "
              f"{time.time() - t0 + already:.1f}s")
        raise
    elapsed = time.time() - t0 + already
    print(f"[criterion {num:2d}] {name}: PASS in {elapsed:.1f}s (budget {budget_s}s)")
    assert elapsed < budget_s, f"criterion {num} exceeded its runtime budget"


# ---------------------------------------------------------------------------
# family builders shared by criteria 2, 4, 6, 10


def warped_expr_family(samples=64, c=1.0, rng_hi=5.0):
    g = [[f"exp(-lam*{c!r}*x2^2)", "0"], ["0", "1"]]

    def builder(lam):
        return fbt.riemannian_expr(2, g, {"lam": lam})

    return FamilySpec(
        param_name="lam", param_range=(0.5, rng_hi), samples=samples,
        metric_builder=builder,
        branch=InitialStateBranch([-1.0, 0.0], [1.0, 0.0], 2.0),
    )


def randers_expr_family(samples=10, c=1.0, b=0.2):
    h = [[f"exp(-lam*{c!r}*x2^2)", "0"], ["0", "1"]]
    beta = [f"{b!r}*exp(-lam*{c!r}*x2^2)", "0"]

    def builder(lam):
        return fbt.randers_expr(2, h, beta, {"lam": lam})

    return FamilySpec(
        param_name="lam", param_range=(0.5, 5.0), samples=samples,
        metric_builder=builder,
        branch=InitialStateBranch([-1.0, 0.0], [1.0, 0.0], 2.0),
    )


def sphere_family():
    return FamilySpec(
        param_name="K", param_range=(0.5, 2.0), samples=8,
        metric_builder=lambda lam: fbt.sphere_stereo(lam),
        branch=InitialStateBranch([0.0, -1.0], [1.0, 0.0], np.pi,
                                  normalize_speed=1.0),
    )


# ---------------------------------------------------------------------------
# pipelines reused by the determinism criterion


def run_warped_sweep_artifacts(tmp_dir, seed):
    fam = warped_expr_family(samples=64)
    scan = sweep_family(fam, seed=seed)
    verdicts = detect_bifurcation(scan)
    _cli.write_csv(
        tmp_dir / "sweep.csv",
        ["lambda", "m_minus", "m_zero", "min_abs_eig"],
        [(r.lam, r.m_minus, r.m_zero, r.min_abs_eig) for r in scan.records],
    )
    _cli.write_json(
        tmp_dir / "detections.json",
        {
            "detections": [
                {"mu": d.mu, "nullity": d.nullity, "index_left": d.m_left,
                 "index_right": d.m_right} for d in scan.detections
            ],
            "verdicts": verdicts,
        },
    )
    return scan


def run_sphere_branch_artifacts(tmp_dir, seed):
    ev = find_branches(sphere_family(), 1.0, seed=seed, seeds_per_rung=8,
                       offsets=(0,), max_found=8)
    diag = classify_alternative(ev)
    _cli.write_json(tmp_dir / "branch_evidence.json",
                    {"evidence": ev, "diagnosis": diag})
    return ev, diag


def run_zermelo_artifacts(tmp_dir, seed):
    z = fbt.ZermeloData.from_exprs(2, [["1", "0"], ["0", "1"]], ["0.5", "0"],
                                   chart_box=[[-2, 2], [-2, 2]])
    m = fbt.zermelo_to_randers(z)
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(20):
        d = rng.uniform(-0.45, 0.45, size=2)
        if np.linalg.norm(d) < 0.15:
            d *= 0.15 * 3 / np.linalg.norm(d)
        v = connect(m, [0, 0], d, d)
        path = integrate_geodesic(m, PhaseState([0, 0], v), 1.0)
        rows.append((d[0], d[1], fbt.travel_time(m, path),
                     constant_wind_time(d, [0.5, 0.0])))
    _cli.write_csv(tmp_dir / "zermelo_times.csv",
                   ["d1", "d2", "t_geodesic", "t_closed_form"], rows)
    return m, rows


@pytest.fixture(scope="module")
def warped_sweep(tmp_path_factory):
    d = tmp_path_factory.mktemp("crit4")
    t0 = time.time()
    scan = run_warped_sweep_artifacts(d, seed=12345)
    return scan, d, time.time() - t0


@pytest.fixture(scope="module")
def sphere_branch(tmp_path_factory):
    d = tmp_path_factory.mktemp("crit5")
    t0 = time.time()
    ev, diag = run_sphere_branch_artifacts(d, seed=12345)
    return ev, diag, d, time.time() - t0


@pytest.fixture(scope="module")
def zermelo_times(tmp_path_factory):
    d = tmp_path_factory.mktemp("crit7")
    t0 = time.time()
    m, rows = run_zermelo_artifacts(d, seed=12345)
    return m, rows, d, time.time() - t0


# ---------------------------------------------------------------------------


def test_criterion_1_sphere_conjugate_point():
    with criterion(1, "sphere conjugate point", 5.0):
        path = integrate_geodesic(fbt.sphere_stereo(1.0),
                                  PhaseState([0, -1], [1, 0]), 3.2)
        rep = fbt.conjugate_scan(path)
        assert len(rep.instants) == 1
        assert abs(rep.instants[0].t - np.pi) <= 1e-6
        assert rep.instants[0].multiplicity == 1

        path3 = integrate_geodesic(fbt.sphere_stereo(1.0, dim=3),
                                   PhaseState([0, -1, 0], [1, 0, 0]), 3.2)
        rep3 = fbt.conjugate_scan(path3)
        assert len(rep3.instants) == 1
        assert abs(rep3.instants[0].t - np.pi) <= 1e-6
        assert rep3.instants[0].multiplicity == 2


def test_criterion_2_morse_cross_check():
    with criterion(2, "Morse index route agreement", 60.0):
        mu = flat_axis_warped_mu()
        cases = []

        euclid = fbt.euclidean(2)
        cases.append((euclid, [0, 0], [1, 0], 3.0, 0))
        sphere = fbt.sphere_stereo(1.0)
        cases.append((sphere, [0, -1], [1, 0], 1.5 * np.pi, 1))
        cases.append((sphere, [0, -1], [1, 0], 2.5 * np.pi, 2))
        wl = warped_expr_family().metric_builder(mu - 0.2)
        wr = warped_expr_family().metric_builder(mu + 0.2)
        cases.append((wl, [-1, 0], [1, 0], 2.0, 0))
        cases.append((wr, [-1, 0], [1, 0], 2.0, 1))
        z = fbt.ZermeloData.from_exprs(2, [["1", "0"], ["0", "1"]], ["0.5", "0"])
        cases.append((fbt.zermelo_to_randers(z), [0, 0], [1, 0], 2.0, 0))

        for m, x0, v0, tau, want in cases:
            path = integrate_geodesic(m, PhaseState(x0, v0), tau)
            rep = fbt.cross_check(path)
            assert rep.agree, f"routes disagree for {m.kind} tau={tau}"
            assert rep.m_minus == want
            assert rep.m_zero == 0


def test_criterion_3_expmap_jacobian_oracle():
    with criterion(3, "exponential-map Jacobian vs FD oracle", 30.0):
        rng = np.random.default_rng(2024)
        metrics = catalog_metrics()
        checked = 0
        while checked < 50:
            m, base, vscale = metrics[checked % len(metrics)]
            x = base + 0.15 * rng.normal(size=m.dim)
            v = rng.normal(size=m.dim)
            v *= vscale * rng.uniform(0.4, 1.2) / np.linalg.norm(v)
            w = rng.normal(size=m.dim)
            w /= np.linalg.norm(w)
            Jw = fbt.expmap_jacobian(m, x, v) @ w
            fd = expmap_fd(m, x, v, w)
            assert np.linalg.norm(Jw - fd) <= 1e-4 * np.linalg.norm(Jw)
            checked += 1


def test_criterion_4_warped_bifurcation_detection(warped_sweep):
    scan, _, elapsed = warped_sweep
    with criterion(4, "warped family bifurcation parameter", 120.0, already=elapsed):
        mu_oracle = flat_axis_warped_mu()
        assert len(scan.detections) == 1
        d = scan.detections[0]
        assert (d.m_left, d.m_right) == (0, 1)
        assert d.nullity == 1
        assert abs(d.mu - mu_oracle) <= 1e-4


def test_criterion_5_exponential_non_injectivity(sphere_branch):
    ev, diag, _, elapsed = sphere_branch
    with criterion(5, "antipodal exp-map preimages", 60.0, already=elapsed):
        # exp over [0, 1] uses velocity tau * u for a unit-speed u over [0, tau]
        sphere = fbt.sphere_stereo(1.0)
        p = np.array([0.0, -1.0])
        v_ref = np.pi * np.array([1.0, 0.0])
        q = exp_map(sphere, p, v_ref)
        close = [s for s in ev.on_side(0)
                 if np.linalg.norm(np.pi * s.v0 - v_ref) <= 0.2]
        assert len(close) >= 3
        vs = [np.pi * s.v0 for s in close]
        for i in range(len(vs)):
            for j in range(i + 1, len(vs)):
                assert np.linalg.norm(vs[i] - vs[j]) >= 1e-8
        for vk in vs:
            assert np.linalg.norm(exp_map(sphere, p, vk) - q) <= 1e-8
        assert diag.label == "(i)-like"


def test_criterion_6_necessary_condition_soundness():
    with criterion(6, "no spurious branches away from detections", 300.0):
        rng = np.random.default_rng(99)
        families = []
        for _ in range(5):
            families.append(warped_expr_family(
                samples=8, c=float(rng.uniform(0.75, 1.25))))
        for _ in range(5):
            families.append(randers_expr_family(
                samples=8, c=float(rng.uniform(0.75, 1.25)),
                b=float(rng.uniform(0.1, 0.3))))

        for k, fam in enumerate(families):
            scan = sweep_family(fam, max_mesh=256, refine_mesh=128,
                                seed=1000 + k)
            mus = [d.mu for d in scan.detections
                   if d.nullity >= 1 or d.m0_left >= 1 or d.m0_right >= 1]
            assert mus, f"family {k} unexpectedly detected nothing"
            a, b = fam.param_range
            refine_tol = 1e-6 * (b - a)
            probes = [a + frac * (b - a) for frac in (0.18, 0.55, 0.9)]
            for lam in probes:
                if min(abs(lam - mu) for mu in mus) <= refine_tol:
                    continue
                ev = find_branches(fam, lam, seed=2000 + k, offsets=(0,),
                                   rho_ladder=(1e-3, 1e-2), seeds_per_rung=2,
                                   max_iter=8, max_found=2)
                near_trivial = [s for s in ev.solutions if s.c1_distance <= 1e-2]
                assert near_trivial == [], (
                    f"family {k}: spurious branch at lambda={lam:.4g}, "
                    f"{min(abs(lam - mu) for mu in mus):.3g} from nearest detection"
                )


def test_criterion_7_zermelo_times(zermelo_times):
    m, rows, _, elapsed = zermelo_times
    with criterion(7, "constant-wind travel times", 120.0, already=elapsed):
        for d1, d2, t_geo, t_closed in rows:
            assert abs(t_geo - t_closed) <= 1e-6
        # brute-force grid optimum within one cell of time resolution
        rng = np.random.default_rng(31)
        for _ in range(3):
            d = rng.uniform(-0.4, 0.4, size=2)
            res = fbt.grid_travel_time(m, [0, 0], d,
                                       box=[[-0.5, 0.5], [-0.5, 0.5]], n=200)
            want = constant_wind_time(res.q_snapped - res.p_snapped, [0.5, 0.0])
            assert res.time >= want - 1e-12
            assert abs(res.time - want) <= res.cell_time


def test_criterion_8_fermat_lift():
    with criterion(8, "lightlike lift and Lorentz projection", 30.0):
        s = fbt.StationaryData.from_exprs(
            2, [["1", "0"], ["0", "1"]], ["0.3", "0"], "1",
            chart_box=[[-4, 4], [-4, 4]],
        )
        fp, _ = fbt.fermat_metric(s)
        q = np.array([1.6, 1.2])  # length-2 arc
        v = connect(fp, [0, 0], q, q)
        path = integrate_geodesic(fp, PhaseState([0, 0], v), 1.0)
        lift = fbt.lift_lightlike(s, path, fermat=fp, check_lorentz=True)
        assert lift.null_residual_max <= 1e-9
        assert lift.lorentz_gap <= 1e-5


def test_criterion_9_invariant_suites():
    with criterion(9, "metric and flow invariants", 60.0):
        z = fbt.ZermeloData.from_exprs(2, [["1", "0"], ["0", "1"]], ["0.4", "0.1"])
        st = fbt.StationaryData.from_exprs(2, [["1", "0"], ["0", "1"]], ["0.3", "0"])
        suite = [
            fbt.euclidean(2),
            fbt.sphere_stereo(1.0),
            fbt.sphere_stereo(2.0),
            fbt.randers_expr(2, [["1", "0"], ["0", "1"]], ["0.5", "0"]),
            fbt.zermelo_to_randers(z),
            fbt.fermat_metric(st)[0],
        ]
        for m in suite:
            rep = m.check_invariants(samples=200, seed=17)
            assert rep.passed, f"{m.kind}: {rep}"
            assert rep.max_homogeneity_error <= 1e-9
            assert rep.max_euler_error <= 1e-6

        sphere = fbt.sphere_stereo(1.0)
        path = integrate_geodesic(sphere, PhaseState([0.2, -0.9], [0.8, 0.3]), 4.0)
        assert path.speed_deviation() <= 1e-7 * path.F0

        p1 = integrate_geodesic(sphere, PhaseState([0, -1], [1, 0]), 2.0)
        for c in (0.5, 2.0):
            p2 = integrate_geodesic(sphere, PhaseState([0, -1], [c, 0]), 2.0 / c)
            gap = max(
                float(np.max(np.abs(p1.x(t) - p2.x(t / c))))
                for t in np.linspace(0, 2.0, 21)
            )
            assert gap <= 1e-8

        for m in (fbt.euclidean(2), sphere):
            path = integrate_geodesic(m, PhaseState([0.1, -0.8], [0.9, 0.2]), 2.0)
            xe, ve = path.state(path.tau)
            back = integrate_geodesic(m, PhaseState(xe, -ve), 2.0)
            assert np.max(np.abs(back.endpoint - path.x0)) <= 1e-7


def test_criterion_10_determinism(warped_sweep, sphere_branch, zermelo_times,
                                  tmp_path):
    with criterion(10, "byte-identical reruns of criteria 4, 5, 7", 400.0):
        _, dir4, _ = warped_sweep
        _, _, dir5, _ = sphere_branch
        _, _, dir7, _ = zermelo_times

        redo4 = tmp_path / "redo4"; redo4.mkdir()
        run_warped_sweep_artifacts(redo4, seed=12345)
        for name in ("sweep.csv", "detections.json"):
            assert (redo4 / name).read_bytes() == (dir4 / name).read_bytes()

        redo5 = tmp_path / "redo5"; redo5.mkdir()
        run_sphere_branch_artifacts(redo5, seed=12345)
        assert (redo5 / "branch_evidence.json").read_bytes() == (
            dir5 / "branch_evidence.json"
        ).read_bytes()

        redo7 = tmp_path / "redo7"; redo7.mkdir()
        run_zermelo_artifacts(redo7, seed=12345)
        assert (redo7 / "zermelo_times.csv").read_bytes() == (
            dir7 / "zermelo_times.csv"
        ).read_bytes()
