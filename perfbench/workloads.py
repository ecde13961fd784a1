"""The benchmark's three workloads: seeded inputs, tasks and their checks.

A workload is a list of rounds; a round is the workload's fixed task list,
one task of each kind (three varying-wind tasks in shoot).  Inputs come only
from the seed: round r draws its parameters from a golden-ratio sequence
started at a seeded offset, so every prefix of rounds covers each parameter's
range evenly and two seeds differ in their inputs but not in the mix of work.

A task is split into `work` (the calls into fbt, which are timed) and `check`
(comparison of the outputs with closed forms from closed_forms.py, not
timed).  `check` raises CheckFailed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

import fbt
import fbt.bifurc
import fbt.cli
import fbt.geoflow
import fbt.metric
import fbt.nav
from fbt.bifurc import FamilySpec, InitialStateBranch
from fbt.metric import PhaseState

import closed_forms as cf

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# sweep tasks: criterion-6-shaped families, halved from 8 samples to 4 so a
# run holds several rounds (see README.md)
SWEEP_SAMPLES = 4
SWEEP_RANGE = (0.5, 5.0)
SWEEP_MAX_MESH = 256
SWEEP_REFINE_MESH = 128
# the two index routes may disagree at a sample this close to a detected
# critical parameter (measured: within 3e-3); farther away they must agree
AGREE_WINDOW = 0.02

# branch probes: criterion-6 probe settings, at parameters below every
# critical parameter of both families (warped >= 1.97, Randers >= 1.2)
PROBE_RANGE = (0.6, 1.0)
PROBE_OPTS = dict(offsets=(0,), rho_ladder=(1e-3, 1e-2), seeds_per_rung=2,
                  max_iter=8, max_found=2)

VARYING_WIND = ("0.6*exp(-x1^2)", "0")
CLI_COMMANDS = ("metric-check", "geodesic", "expmap", "conjugate", "focal",
                "index")


class CheckFailed(Exception):
    pass


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


class Task:
    """One unit of work: `work()` calls fbt and returns its outputs,
    `check(outputs)` validates them."""

    def __init__(self, kind, inputs, work, check):
        self.kind = kind
        self.inputs = inputs
        self.work = work
        self.check = check


class _Draws:
    """Seeded parameter draws for round r: a golden-ratio sequence per
    parameter, each started at its own seeded offset."""

    def __init__(self, rng):
        self._rng = rng
        self._offsets = {}

    def unit(self, name, r, k=0, n=1):
        """Value in [0, 1) for copy k of n that one round draws of `name`.
        The n copies sit 1/n apart and each round moves them by its own step
        of the sequence divided by n, so the copies of all rounds interleave
        evenly whatever the seeded offset."""
        if name not in self._offsets:
            self._offsets[name] = float(self._rng.uniform())
        return (self._offsets[name] + ((r * GOLDEN) % 1.0 + k) / n) % 1.0

    def uniform(self, name, r, lo, hi, k=0, n=1):
        return lo + (hi - lo) * self.unit(name, r, k, n)

    def direction(self, name, r, k=0, n=1):
        """Unit vector of the plane whose angle follows the sequence."""
        a = 2.0 * math.pi * self.unit(name, r, k, n)
        return np.array([math.cos(a), math.sin(a)])

    def normal(self, shape):
        return self._rng.normal(size=shape)

    def seed(self):
        return int(self._rng.integers(0, 2**31 - 1))


# ---------------------------------------------------------------------------
# families shared by sweep and shoot


def warped_family(c, samples=SWEEP_SAMPLES, param_range=SWEEP_RANGE):
    g = [[f"exp(-lam*{c!r}*x2^2)", "0"], ["0", "1"]]

    def metric_at(lam):
        return fbt.metric.riemannian_expr(2, g, {"lam": lam})

    return FamilySpec("lam", param_range, samples, metric_at,
                      InitialStateBranch([-1.0, 0.0], [1.0, 0.0], 2.0))


def randers_family(c, b, samples=SWEEP_SAMPLES, param_range=SWEEP_RANGE):
    h = [[f"exp(-lam*{c!r}*x2^2)", "0"], ["0", "1"]]
    beta = [f"{b!r}*exp(-lam*{c!r}*x2^2)", "0"]

    def metric_at(lam):
        return fbt.metric.randers_expr(2, h, beta, {"lam": lam})

    return FamilySpec("lam", param_range, samples, metric_at,
                      InitialStateBranch([-1.0, 0.0], [1.0, 0.0], 2.0))


# ---------------------------------------------------------------------------
# sweep


def _sweep_work(family, seed, max_mesh=SWEEP_MAX_MESH,
                refine_mesh=SWEEP_REFINE_MESH):
    def work():
        scan = fbt.bifurc.sweep_family(family, max_mesh=max_mesh,
                                       refine_mesh=refine_mesh, seed=seed)
        fbt.bifurc.detect_bifurcation(scan)
        return scan

    return work


def _check_warped(c):
    mu = cf.warped_mu(c)

    def check(scan):
        hits = [d for d in scan.detections
                if abs(d.mu - mu) <= 1e-4 and d.nullity == 1
                and (d.m_left, d.m_right) == (0, 1)]
        _require(hits, f"warped c={c!r}: no detection at pi^2/(4c)={mu!r} "
                       f"with nullity 1 and indices (0, 1): {scan.detections}")

    return check


def _check_randers(c, b):
    def check(scan):
        _require(any(d.nullity >= 1 for d in scan.detections),
                 f"randers c={c!r} b={b!r}: no detection with nullity >= 1")
        mus = [d.mu for d in scan.detections]
        bad = [r.lam for r in scan.records if not r.agree
               and min(abs(r.lam - mu) for mu in mus) > AGREE_WINDOW]
        _require(not bad, f"randers c={c!r} b={b!r}: index routes disagree "
                          f"away from every detection at lambda {bad}")

    return check


def sweep_round(draws, r):
    c_w = draws.uniform("c_warped", r, 0.75, 1.25)
    c_r = draws.uniform("c_randers", r, 0.75, 1.25)
    b = draws.uniform("b", r, 0.1, 0.3)
    return [
        Task("warped_sweep", {"c": c_w},
             _sweep_work(warped_family(c_w), draws.seed()), _check_warped(c_w)),
        Task("randers_sweep", {"c": c_r, "b": b},
             _sweep_work(randers_family(c_r, b), draws.seed()),
             _check_randers(c_r, b)),
    ]


def sweep_warmup():
    # two samples below the critical parameter: no refinement
    family = warped_family(1.0, samples=2, param_range=(0.5, 1.0))

    def check(scan):
        _require(len(scan.records) == 2 and not scan.detections,
                 "warm-up sweep: unexpected detections")

    return Task("warmup", {}, _sweep_work(family, 0), check)


# ---------------------------------------------------------------------------
# shoot


def _probe(family, lam, seed):
    def work():
        return fbt.bifurc.find_branches(family, lam, seed=seed, **PROBE_OPTS)

    def check(ev):
        near = [s.c1_distance for s in ev.solutions if s.c1_distance <= 1e-2]
        _require(not near, f"probe at non-critical lambda={lam!r} found "
                           f"solutions at C1 distance {near}")

    return work, check


def _zermelo_connect(W_exprs, p, q):
    def work():
        z = fbt.nav.ZermeloData.from_exprs(2, [["1", "0"], ["0", "1"]], W_exprs,
                                           chart_box=[[-3, 3], [-3, 3]])
        m = fbt.nav.zermelo_to_randers(z)
        v = fbt.geoflow.connect(m, p, q, q - p)
        path = fbt.geoflow.integrate_geodesic(m, PhaseState(p, v), 1.0)
        return {"time": fbt.nav.travel_time(m, path),
                "endpoint": path.endpoint,
                "el_residual": path.max_el_residual()}

    return work


def _varying_wind(x):
    return np.array([0.6 * math.exp(-x[0] ** 2), 0.0])


def _check_varying(p, q):
    straight = cf.straight_segment_time(_varying_wind, p, q)

    def check(out):
        res = float(np.linalg.norm(out["endpoint"] - q))
        _require(res <= 1e-8, f"varying wind: endpoint residual {res:.3e}")
        _require(out["el_residual"] <= 1e-5,
                 f"varying wind: EL residual {out['el_residual']:.3e}")
        _require(out["time"] <= straight * (1.0 + 1e-9),
                 f"varying wind: time {out['time']!r} exceeds the straight "
                 f"segment's {straight!r}")

    return check


def _check_constant(p, q, W):
    want = cf.constant_wind_time(q - p, W)

    def check(out):
        _require(abs(out["time"] - want) <= 1e-6,
                 f"constant wind: time {out['time']!r}, closed form {want!r}")

    return check


def _fermat(V, q):
    V_exprs = [repr(float(V[0])), repr(float(V[1]))]

    def work():
        s = fbt.nav.StationaryData.from_exprs(
            2, [["1", "0"], ["0", "1"]], V_exprs, "1",
            chart_box=[[-4, 4], [-4, 4]])
        fp, _ = fbt.nav.fermat_metric(s)
        v = fbt.geoflow.connect(fp, [0.0, 0.0], q, q)
        path = fbt.geoflow.integrate_geodesic(fp, PhaseState([0.0, 0.0], v), 1.0)
        return fbt.nav.lift_lightlike(s, path, fermat=fp, check_lorentz=True)

    def check(lift):
        _require(lift.null_residual_max <= 1e-9,
                 f"fermat: null residual {lift.null_residual_max:.3e}")
        _require(lift.lorentz_gap <= 1e-5,
                 f"fermat: Lorentz gap {lift.lorentz_gap:.3e}")
        want = cf.fermat_arrival_time(V, q)
        got = float(lift.t[-1] - lift.t[0])
        _require(abs(got - want) <= 1e-8 * max(1.0, want),
                 f"fermat: arrival time {got!r}, closed form {want!r}")
        ds = np.diff(lift.s_grid)
        xdot = np.diff(lift.x, axis=0) / ds[:, None]
        tdot = np.diff(lift.t) / ds
        worst = max(abs(cf.null_identity(V, xd, td)) for xd, td in zip(xdot, tdot))
        _require(worst <= 1e-8 * (1.0 + float(q @ q)),
                 f"fermat: lifted curve not null, g(z', z') = {worst:.3e}")

    return work, check


def shoot_round(draws, r):
    tasks = []
    lam_w = draws.uniform("lam_warped", r, *PROBE_RANGE)
    c_w = draws.uniform("c_warped", r, 0.75, 1.25)
    work, check = _probe(warped_family(c_w), lam_w, draws.seed())
    tasks.append(Task("probe_warped", {"c": c_w, "lam": lam_w}, work, check))

    lam_r = draws.uniform("lam_randers", r, *PROBE_RANGE)
    c_r = draws.uniform("c_randers", r, 0.75, 1.25)
    b = draws.uniform("b", r, 0.1, 0.3)
    work, check = _probe(randers_family(c_r, b), lam_r, draws.seed())
    tasks.append(Task("probe_randers", {"c": c_r, "b": b, "lam": lam_r},
                      work, check))

    p = np.array([draws.uniform("px", r, -0.5, 0.5),
                  draws.uniform("py", r, -0.5, 0.5)])
    # three headings a third of a turn apart: every round meets the wind from
    # ahead, abeam and astern alike, so rounds carry comparable work
    for k in range(3):
        q = p + (draws.uniform("d_varying", r, 0.8, 1.2, k, 3)
                 * draws.direction("a_varying", r, k, 3))
        tasks.append(Task("zermelo_varying", {"p": p.tolist(), "q": q.tolist()},
                          _zermelo_connect(list(VARYING_WIND), p, q),
                          _check_varying(p, q)))

    W = draws.uniform("w", r, 0.2, 0.6) * draws.direction("a_wind", r)
    q = p + draws.uniform("d_constant", r, 0.3, 1.2) * draws.direction("a_constant", r)
    tasks.append(Task("zermelo_constant",
                      {"p": p.tolist(), "q": q.tolist(), "W": W.tolist()},
                      _zermelo_connect([repr(float(W[0])), repr(float(W[1]))], p, q),
                      _check_constant(p, q, W)))

    V = draws.uniform("v", r, 0.1, 0.4) * draws.direction("a_V", r)
    q = draws.uniform("d_fermat", r, 1.0, 2.5) * draws.direction("a_fermat", r)
    work, check = _fermat(V, q)
    tasks.append(Task("fermat", {"V": V.tolist(), "q": q.tolist()}, work, check))
    return tasks


def shoot_warmup():
    work, check = _fermat(np.array([0.3, 0.0]), np.array([1.6, 1.2]))
    return Task("warmup", {}, work, check)


# ---------------------------------------------------------------------------
# cli


def _orthonormal_frame(draws, key, r, dim):
    """Seeded orthonormal basis of R^dim, as the columns of a matrix."""
    if dim == 2:
        a = 2.0 * math.pi * draws.unit(key + "_angle", r)
        sign = 1.0 if draws.unit(key + "_sign", r) < 0.5 else -1.0
        return np.array([[math.cos(a), -sign * math.sin(a)],
                         [math.sin(a), sign * math.cos(a)]])
    q, rr = np.linalg.qr(draws.normal((dim, dim)))
    return q * np.sign(np.diag(rr))


def _artifact_digest(out_dir):
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


def _read_json(out_dir, name):
    with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
        return json.load(fh)


def _check_instants(found, times, mult, what):
    _require(len(found) == len(times),
             f"{what}: {len(found)} instants, closed form has {len(times)}")
    for inst, t in zip(found, times):
        _require(abs(inst["t"] - t) <= 1e-6,
                 f"{what}: instant at {inst['t']!r}, closed form {t!r}")
        _require(inst["multiplicity"] == mult,
                 f"{what}: multiplicity {inst['multiplicity']}, expected {mult}")


def _instants(r, dim, n):
    """Number of conjugate or focal instants, 0 to n-1, for round r: it cycles
    with r, and the 2-D and 3-D tasks of a round get complementary counts so
    that every round carries about the same work."""
    return r % n if dim == 2 else n - 1 - r % n


def _cli_task(cmd, dim, draws, r, cfg_dir, out_root, index):
    # the 2-D and 3-D task of a command draw interleaved halves of each range
    k = dim - 2
    K = draws.uniform(cmd + "_K", r, 0.5, 1.25, k, 2)
    w = math.sqrt(K)
    metric = {"kind": "sphere_stereo", "dim": dim, "params": {"K": K}}
    # x0 on the chart unit sphere, a great sphere; t_dir tangent to it there
    frame = _orthonormal_frame(draws, f"{cmd}{dim}", r, dim)
    x0, t_dir = frame[:, 0], frame[:, 1]
    u = draws.unit(cmd + "_u", r, k, 2)
    rate = w  # chart angular rate of a unit-speed geodesic on |x| = 1
    tau = 2.0 * math.pi / w
    if cmd == "focal":
        # a totally geodesic great sphere through the chart origin, left along
        # its normal; after the first focal instant the path reaches the chart's
        # point at infinity before any other, so tau stays below that
        normal, basis = frame[:, 0], frame[:, 1:]
        tau = (_instants(r, dim, 2) + 0.2 + 0.6 * u) * math.pi / (2.0 * w)
        problem = {"initial": {"x": [0.0] * dim, "v": normal.tolist(), "tau": tau,
                               "normalize_speed": 1.0},
                   "boundary": {"x0": [0.0] * dim, "basis": basis.T.tolist()}}
    else:
        if cmd == "conjugate":
            tau = (_instants(r, dim, 4) + 0.2 + 0.6 * u) * math.pi / w
        elif cmd == "index":
            # at most two conjugate instants: on longer paths index rejects
            # the geodesic as not critical (see README.md)
            tau = (_instants(r, dim, 3) + 0.2 + 0.5 * u) * math.pi / w
        elif cmd == "geodesic":
            tau = (0.5 + 3.0 * u) * math.pi / w
        elif cmd == "expmap":
            rate = 0.5 + 2.0 * u  # exp_p(v) follows v for parameter 1
        problem = {"initial": {"x": x0.tolist(), "v": (rate * t_dir).tolist(),
                               "tau": tau, "normalize_speed": 1.0}}
    cfg = {"metric": metric, "problem": problem}
    cfg_path = os.path.join(cfg_dir, f"task-{index:04d}.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    out_dir = os.path.join(out_root, f"task-{index:04d}")

    def work():
        return fbt.cli.main([cmd, "--config", cfg_path, "--out", out_dir])

    def check(code):
        _require(code == 0, f"fbt {cmd} exited {code}")
        what = f"{cmd} dim={dim} K={K!r}"
        if cmd == "metric-check":
            _require(_read_json(out_dir, "metric_check.json")["passed"],
                     f"{what}: invariants failed")
        elif cmd == "geodesic":
            with open(os.path.join(out_dir, "geodesic.csv"), encoding="utf-8") as fh:
                rows = np.loadtxt(fh, delimiter=",", skiprows=1, ndmin=2)
            worst = 0.0
            for row in rows:
                x, v = cf.unit_circle_geodesic(x0, t_dir, w, row[0])
                worst = max(worst, float(np.max(np.abs(row[1:1 + dim] - x))),
                            float(np.max(np.abs(row[1 + dim:1 + 2 * dim] - v))),
                            abs(row[-1] - 1.0))
            _require(worst <= 1e-6, f"{what}: off the great circle by {worst:.3e}")
        elif cmd == "expmap":
            end = np.asarray(_read_json(out_dir, "expmap.json")["endpoint"])
            want, _ = cf.unit_circle_geodesic(x0, t_dir, rate, 1.0)
            err = float(np.max(np.abs(end - want)))
            _require(err <= 1e-7, f"{what}: exp endpoint off by {err:.3e}")
        elif cmd == "conjugate":
            _check_instants(_read_json(out_dir, "conjugate.json")["instants"],
                            cf.sphere_conjugate_times(K, tau), dim - 1, what)
        elif cmd == "focal":
            _check_instants(_read_json(out_dir, "focal.json")["instants"],
                            cf.sphere_focal_times(K, tau), dim - 1, what)
        elif cmd == "index":
            rep = _read_json(out_dir, "index.json")
            want = (dim - 1) * len(cf.sphere_conjugate_times(K, tau))
            _require(rep["agree"] is True, f"{what}: index routes disagree")
            _require((rep["m_minus"], rep["m_zero"]) == (want, 0),
                     f"{what}: index {(rep['m_minus'], rep['m_zero'])}, "
                     f"closed form {(want, 0)}")
        return _artifact_digest(out_dir)

    return Task(cmd, {"dim": dim, "K": K, "tau": tau}, work, check)


def cli_round(draws, r, cfg_dir, out_root):
    tasks = []
    for dim in (2, 3):
        for cmd in CLI_COMMANDS:
            index = len(CLI_COMMANDS) * 2 * r + len(tasks)
            tasks.append(_cli_task(cmd, dim, draws, r, cfg_dir, out_root, index))
    return tasks


def cli_warmup(cfg_dir, out_root):
    draws = _Draws(np.random.default_rng(0))
    return _cli_task("index", 2, draws, 1, cfg_dir, out_root, 9999)


# ---------------------------------------------------------------------------


WORKLOAD_NAMES = ("sweep", "shoot", "cli")


def build(name, seed, n_rounds, work_dir):
    """Set-up: the seeded task list of `n_rounds` rounds plus the warm-up
    task.  The cli workload writes its config files under work_dir."""
    rng = np.random.default_rng([seed, WORKLOAD_NAMES.index(name)])
    draws = _Draws(rng)
    if name == "sweep":
        return [sweep_round(draws, r) for r in range(n_rounds)], sweep_warmup()
    if name == "shoot":
        return [shoot_round(draws, r) for r in range(n_rounds)], shoot_warmup()
    cfg_dir = os.path.join(work_dir, "configs")
    out_root = os.path.join(work_dir, "out")
    os.makedirs(cfg_dir, exist_ok=True)
    rounds = [cli_round(draws, r, cfg_dir, out_root) for r in range(n_rounds)]
    return rounds, cli_warmup(cfg_dir, out_root)
