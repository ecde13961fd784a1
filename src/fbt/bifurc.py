"""One-parameter family sweeps, bifurcation detection, and branch hunting.

A sweep realizes the trivial geodesic branch at each parameter sample, runs
both Morse-index routes, and localizes parameters where the nullity is
positive or the index jumps.  Candidates are refined by bisection on the
eigenvalue of the spectral pencil that crosses zero.  Around a detected
parameter, deflated multi-start Newton shooting hunts for distinct geodesics
with the same boundary data and reports them as branch evidence; a heuristic
diagnosis maps the evidence onto the alternative patterns (sequence at mu,
two-sided, one-sided pair).  The diagnosis is explicitly not a certificate.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError
from .metric import PhaseState
from .ode import brentq
from .geoflow import (DEFAULT_TOL_RES, connect, endpoint_jacobian,
                      integrate_geodesic, newton)
from . import morse as _morse

__all__ = [
    "FamilySpec",
    "InitialStateBranch",
    "ConnectBranch",
    "ScanRecord",
    "Detection",
    "Verdict",
    "BranchSolution",
    "BranchEvidence",
    "Diagnosis",
    "BifurcationScan",
    "sweep_family",
    "detect_bifurcation",
    "find_branches",
    "classify_alternative",
    "BranchLost",
]

log = logging.getLogger("fbt.bifurc")

REFINE_TOL_REL = 1e-6
DEFAULT_RHO_LADDER = (1e-3, 1e-2, 1e-1)
DEFAULT_SEEDS_PER_RUNG = 16
DISTINCT_TOL = 1e-6
# the hunt's relaxed integrator tolerance; accepted solutions are re-validated
# at find_branches' rtol/atol.  Under DOP853 a hunt at 1e-8 stalls on the
# round sphere's continuum of antipodal solutions (criterion 5 keeps 4, none
# near the reference velocity); at 1e-9 it keeps 8, 6 of them near it
HUNT_RTOL = 1e-9
HUNT_ATOL = 1e-9


class BranchLost(NumericalError):
    def __init__(self, lam, reason):
        super().__init__(f"trivial branch lost at parameter {lam!r}: {reason}")
        self.lam = lam


@dataclass
class InitialStateBranch:
    """Trivial branch from a fixed initial state; if normalize_speed is set the
    initial velocity is rescaled so that F(x0, v0) equals it at every
    parameter value."""

    x0: np.ndarray
    v0: np.ndarray
    tau: float
    normalize_speed: float | None = None

    def __post_init__(self):
        self.x0 = np.asarray(self.x0, dtype=float)
        self.v0 = np.asarray(self.v0, dtype=float)


@dataclass
class ConnectBranch:
    """Trivial branch solving the two-point problem p -> q over [0, tau]."""

    p: np.ndarray
    q: np.ndarray
    v_seed: np.ndarray
    tau: float = 1.0

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=float)
        self.q = np.asarray(self.q, dtype=float)
        self.v_seed = np.asarray(self.v_seed, dtype=float)


@dataclass
class FamilySpec:
    param_name: str
    param_range: tuple
    samples: int
    metric_builder: object
    branch: object
    continuity_tol: float = 0.5


@dataclass
class ScanRecord:
    lam: float
    m_minus: int
    m_zero: int
    min_abs_eig: float
    smallest_eig: float
    instants: list
    agree: bool
    mesh: int


@dataclass
class Detection:
    mu: float
    nullity: int
    m_left: int
    m0_left: int
    m_right: int
    m0_right: int
    refined: bool
    plateau: bool = False


@dataclass
class Verdict:
    mu: float
    interval_left: tuple
    interval_right: tuple
    nullity: int
    label: str

    def as_dict(self):
        return {
            "mu": self.mu,
            "interval_left": list(self.interval_left),
            "interval_right": list(self.interval_right),
            "nullity": self.nullity,
            "label": self.label,
        }


@dataclass
class BranchSolution:
    lam: float
    offset: int  # probe position in units of delta relative to mu
    v0: np.ndarray
    speed: float
    c1_distance: float
    endpoint_residual: float
    el_residual: float

    def as_dict(self):
        return {
            "lambda": self.lam,
            "offset": self.offset,
            "v0": self.v0.tolist(),
            "speed": self.speed,
            "c1_distance": self.c1_distance,
            "endpoint_residual": self.endpoint_residual,
            "el_residual": self.el_residual,
        }


@dataclass
class BranchEvidence:
    mu: float
    delta: float
    solutions: list
    seed: int
    rho_ladder: tuple
    seeds_per_rung: int

    def at_mu(self, close_tol=None):
        out = [s for s in self.solutions if s.offset == 0]
        if close_tol is not None:
            out = [s for s in out if s.c1_distance <= close_tol]
        return out

    def on_side(self, sign, close_tol=None):
        out = [s for s in self.solutions if np.sign(s.offset) == sign]
        if close_tol is not None:
            out = [s for s in out if s.c1_distance <= close_tol]
        return out

    def as_dict(self):
        return {
            "mu": self.mu,
            "delta": self.delta,
            "seed": self.seed,
            "rho_ladder": list(self.rho_ladder),
            "seeds_per_rung": self.seeds_per_rung,
            "solutions": [s.as_dict() for s in self.solutions],
        }


@dataclass
class Diagnosis:
    label: str
    distinct_speeds: bool
    counts: dict
    note: str = "diagnostic, not a certificate"

    def as_dict(self):
        return {
            "label": self.label,
            "distinct_speeds": self.distinct_speeds,
            "counts": self.counts,
            "note": self.note,
        }


@dataclass
class BifurcationScan:
    param_name: str
    param_range: tuple
    boundary: str
    records: list
    detections: list
    verdicts: list = field(default_factory=list)
    evidence: list = field(default_factory=list)
    seed: int = 0


# ---------------------------------------------------------------------------
# Branch realization


def realize_branch(f, lam, prev_velocity=None, *, rtol=1e-9, atol=1e-12):
    """Build the family metric at lam and integrate the trivial branch."""
    m = f.metric_builder(lam)
    br = f.branch
    try:
        if isinstance(br, InitialStateBranch):
            v0 = br.v0.copy()
            if br.normalize_speed is not None:
                v0 *= br.normalize_speed / m.F(br.x0, v0)
            path = integrate_geodesic(m, PhaseState(br.x0, v0), br.tau,
                                      rtol=rtol, atol=atol)
        elif isinstance(br, ConnectBranch):
            seed = br.v_seed if prev_velocity is None else prev_velocity
            v0 = connect(m, br.p, br.q, seed, tau=br.tau, rtol=rtol, atol=atol)
            path = integrate_geodesic(m, PhaseState(br.p, v0), br.tau,
                                      rtol=rtol, atol=atol)
        else:
            raise TypeError(f"unknown branch prescription {br!r}")
    except NumericalError as exc:
        raise BranchLost(lam, str(exc)) from exc
    return m, path


# ---------------------------------------------------------------------------
# Sweep


def _sweep_record(f, lam, boundary, mesh0, max_mesh, scan_opts, prev_v):
    m, path = realize_branch(f, lam, prev_v)
    if path.max_el_residual() > DEFAULT_TOL_RES:
        raise BranchLost(lam, "trivial branch is not critical")
    rep = _morse.cross_check(
        path, boundary,
        scan_opts=scan_opts,
        spectral_opts={"mesh0": mesh0, "max_mesh": max_mesh},
    )
    rec = ScanRecord(
        lam=float(lam),
        m_minus=rep.m_minus,
        m_zero=rep.m_zero,
        min_abs_eig=abs(rep.spectral.smallest_signed)
        if rep.m_zero == 0
        else min(abs(e) for e in rep.spectral.eigs_near_zero + [rep.spectral.smallest]),
        smallest_eig=rep.spectral.smallest,
        instants=rep.instants,
        agree=bool(rep.agree),
        mesh=rep.spectral.mesh,
    )
    return rec, path


def sweep_family(f, boundary="point-point", *, mesh0=16, max_mesh=1024,
                 refine_mesh=None, scan_opts=None, seed=0,
                 refine_tol_rel=REFINE_TOL_REL, flank_rel=1e-3):
    """Sample the family, cross-check indices, and refine candidate parameters."""
    a, b = f.param_range
    lams = np.linspace(a, b, f.samples)
    records = []
    prev_v = None
    prev_end = None
    for lam in lams:
        rec, path = _sweep_record(f, lam, boundary, mesh0, max_mesh,
                                  scan_opts, prev_v)
        if prev_end is not None:
            jump = float(np.linalg.norm(path.endpoint - prev_end))
            if jump > f.continuity_tol:
                raise BranchLost(lam, f"branch endpoint jumped by {jump:.3g}")
        prev_end = path.endpoint
        prev_v = path.v0
        records.append(rec)
        log.info("sweep %s=%.6g: m-=%d m0=%d", f.param_name, lam,
                 rec.m_minus, rec.m_zero)

    stabilized = max(r.mesh for r in records)
    if refine_mesh is None:
        refine_mesh = max(256, stabilized)
    refine_tol = refine_tol_rel * (b - a)
    flank = max(flank_rel * (b - a), 10 * refine_tol)

    def eig_k(lam, k):
        _, path = realize_branch(f, lam, None)
        return _morse.smallest_eigenvalue(path, boundary, refine_mesh, k=k)

    detections = []
    consumed = np.zeros(len(records), dtype=bool)

    # index jumps between adjacent samples: bisect the crossing eigenvalue
    for i in range(len(records) - 1):
        rl, rr = records[i], records[i + 1]
        if rl.m_minus == rr.m_minus:
            continue
        k = min(rl.m_minus, rr.m_minus)  # 0-based index of the crossing eigenvalue
        gl = eig_k(rl.lam, k)
        gr = eig_k(rr.lam, k)
        if gl * gr >= 0:
            log.warning(
                "no sign change of eigenvalue %d in [%.6g, %.6g]; keeping midpoint",
                k, rl.lam, rr.lam,
            )
            mu = 0.5 * (rl.lam + rr.lam)
            refined = False
        else:
            mu = brentq(lambda lam: eig_k(lam, k), rl.lam, rr.lam, xtol=refine_tol)
            refined = True
        _, path_mu = realize_branch(f, mu, None)
        rep_mu = _morse.index_spectral(path_mu, boundary, mesh_fixed=refine_mesh)
        left = _flank_counts(f, boundary, mu - flank, refine_mesh)
        right = _flank_counts(f, boundary, mu + flank, refine_mesh)
        detections.append(
            Detection(
                mu=float(mu), nullity=rep_mu.m_zero,
                m_left=left[0], m0_left=left[1],
                m_right=right[0], m0_right=right[1],
                refined=refined,
            )
        )
        consumed[i] = consumed[i + 1] = True

    # plateau candidates: persistent nullity without an index jump
    i = 0
    while i < len(records):
        if records[i].m_zero >= 1 and not consumed[i]:
            j = i
            while j + 1 < len(records) and records[j + 1].m_zero >= 1 and not consumed[j + 1]:
                j += 1
            mu = 0.5 * (records[i].lam + records[j].lam)
            _, path_mu = realize_branch(f, mu, None)
            rep_mu = _morse.index_spectral(path_mu, boundary, mesh_fixed=refine_mesh)
            left = _flank_counts(f, boundary, max(records[i].lam - flank, a), refine_mesh)
            right = _flank_counts(f, boundary, min(records[j].lam + flank, b), refine_mesh)
            detections.append(
                Detection(
                    mu=float(mu), nullity=max(rep_mu.m_zero, 1),
                    m_left=left[0], m0_left=left[1],
                    m_right=right[0], m0_right=right[1],
                    refined=False, plateau=True,
                )
            )
            i = j + 1
        else:
            i += 1

    detections.sort(key=lambda d: d.mu)
    return BifurcationScan(
        param_name=f.param_name,
        param_range=(float(a), float(b)),
        boundary=boundary if isinstance(boundary, str) else "perpendicular",
        records=records,
        detections=detections,
        seed=seed,
    )


def _flank_counts(f, boundary, lam, mesh):
    _, path = realize_branch(f, lam, None)
    rep = _morse.index_spectral(path, boundary, mesh_fixed=mesh)
    return rep.m_minus, rep.m_zero


# ---------------------------------------------------------------------------
# Verdicts


def detect_bifurcation(scan):
    """Label each detection by the disjoint-index-interval test.

    Sufficient pattern: the intervals [m-, m- + m0] just left and just right
    of mu are disjoint and at least one side has zero nullity.  A detection
    with positive nullity but no index jump is only the necessary condition.
    """
    verdicts = []
    for d in scan.detections:
        il = (d.m_left, d.m_left + d.m0_left)
        ir = (d.m_right, d.m_right + d.m0_right)
        disjoint = il[1] < ir[0] or ir[1] < il[0]
        one_side_nondeg = d.m0_left == 0 or d.m0_right == 0
        if disjoint and one_side_nondeg and d.nullity >= 1:
            label = "sufficient-condition met"
        else:
            label = "necessary-only"
        verdicts.append(
            Verdict(mu=d.mu, interval_left=il, interval_right=ir,
                    nullity=d.nullity, label=label)
        )
    scan.verdicts = verdicts
    return verdicts


# ---------------------------------------------------------------------------
# Deflated branch hunting


def _c1_distance(path_a, path_b, n_samples=40):
    ts = np.linspace(0.0, path_a.tau, n_samples)
    (xa, va), (xb, vb) = path_a.state(ts), path_b.state(ts)
    return float(np.max(np.linalg.norm(xa - xb, axis=1)
                        + np.linalg.norm(va - vb, axis=1)))


def find_branches(f, mu, *, seed=0,
                  rho_ladder=DEFAULT_RHO_LADDER,
                  seeds_per_rung=DEFAULT_SEEDS_PER_RUNG,
                  delta=None, offsets=(-2, -1, 0, 1, 2), max_iter=15,
                  max_found=12, rtol=1e-9, atol=1e-12):
    """Hunt for non-trivial geodesics with the trivial branch's boundary data.

    Deflated multi-start Newton shooting at parameters mu + offset*delta;
    seeds perturb the trivial initial velocity along the kernel direction of
    the shooting Jacobian with seeded jitter.  The hunt runs at the relaxed
    integrator tolerance HUNT_RTOL = 1e-9 / HUNT_ATOL = 1e-9; each Newton
    iterate integrates the flow once and reads the shooting Jacobian (the
    kernel direction's included) from its complex-step copies, not from a
    Jacobi frame.  Every accepted solution is polished and re-validated at
    the tight tolerance.
    An empty list is a valid outcome.  max_found caps the solutions kept per
    probed parameter (a continuum of solutions would otherwise absorb every
    seed).
    """
    a, b = f.param_range
    if delta is None:
        delta = max(2e-3 * (b - a), 1e-8)
    rng = np.random.default_rng(seed)
    solutions = []
    for off in offsets:
        lam = mu + off * delta
        if not (min(a, b) <= lam <= max(a, b)):
            continue
        m, triv = realize_branch(f, lam, None, rtol=rtol, atol=atol)
        q = triv.endpoint
        p = triv.x0
        tau = triv.tau
        v_triv = triv.v0
        tol = 1e-10 * (1.0 + np.linalg.norm(q))
        tol_hunt = max(10.0 * tol, 3e-9 * (1.0 + np.linalg.norm(q)))

        def GJ(v, rtol=HUNT_RTOL, atol=HUNT_ATOL):
            x, jac = endpoint_jacobian(m, p, v, tau, rtol=rtol, atol=atol)
            return x - q, jac

        _, _, vt = np.linalg.svd(GJ(v_triv)[1])
        kernel_dir = vt[-1]

        roots = [v_triv.copy()]
        found_here = []
        vnorm = np.linalg.norm(v_triv)
        for rho_rel in rho_ladder:
            if len(found_here) >= max_found:
                break
            rho = rho_rel * vnorm
            for _ in range(seeds_per_rung):
                if len(found_here) >= max_found:
                    break
                jitter = 0.3 * rho * rng.normal(size=m.dim) / np.sqrt(m.dim)
                v_seed = v_triv + rho * kernel_dir + jitter
                try:
                    v_sol = newton(GJ, v_seed, tol=tol_hunt, max_iter=max_iter,
                                   roots=roots, wander_limit=5.0 * vnorm)
                except NumericalError:
                    continue
                if min(np.linalg.norm(v_sol - r) for r in roots) < DISTINCT_TOL:
                    continue
                # polish and validate at the tight tolerance
                try:
                    path_sol = integrate_geodesic(m, PhaseState(p, v_sol), tau,
                                                  rtol=rtol, atol=atol)
                except NumericalError:
                    continue
                b_res = float(np.linalg.norm(path_sol.endpoint - q))
                if b_res > 1e-10 * (1.0 + np.linalg.norm(q)):
                    try:
                        v_ref = newton(
                            lambda v: GJ(v, rtol, atol), v_sol,
                            tol=1e-9 * (1.0 + np.linalg.norm(q)), max_iter=6,
                        )
                        path_ref = integrate_geodesic(
                            m, PhaseState(p, v_ref), tau, rtol=rtol, atol=atol
                        )
                    except NumericalError:
                        pass  # keep the unpolished solution; validation decides
                    else:
                        v_sol, path_sol = v_ref, path_ref
                        b_res = float(np.linalg.norm(path_sol.endpoint - q))
                if min(np.linalg.norm(v_sol - r) for r in roots) < DISTINCT_TOL:
                    continue
                el_res = path_sol.max_el_residual()
                if b_res > 1e-8 or el_res > DEFAULT_TOL_RES:
                    continue
                roots.append(v_sol.copy())
                found_here.append(
                    BranchSolution(
                        lam=float(lam), offset=int(off), v0=v_sol,
                        speed=float(m.F(p, v_sol)),
                        c1_distance=_c1_distance(path_sol, triv),
                        endpoint_residual=b_res, el_residual=el_res,
                    )
                )
        solutions.extend(found_here)

    solutions.sort(key=lambda s: (s.lam, tuple(np.round(s.v0, 12))))
    return BranchEvidence(
        mu=float(mu), delta=float(delta), solutions=solutions, seed=seed,
        rho_ladder=tuple(rho_ladder), seeds_per_rung=seeds_per_rung,
    )


def classify_alternative(evidence, *, n_i=3, close_tol=0.5, speed_rtol=1e-6):
    """Heuristic label for the bifurcation pattern in the evidence."""
    at_mu = evidence.at_mu(close_tol)
    left = evidence.on_side(-1, close_tol)
    right = evidence.on_side(+1, close_tol)
    counts = {"at_mu": len(at_mu), "left": len(left), "right": len(right)}
    speeds = [s.speed for s in left + right + at_mu]
    distinct = False
    if len(speeds) >= 2:
        smax = max(abs(x) for x in speeds)
        distinct = (max(speeds) - min(speeds)) > speed_rtol * max(smax, 1e-300)
    if len(at_mu) >= n_i:
        label = "(i)-like"
    elif left and right:
        label = "(ii)-like"
    elif len(left) >= 2 or len(right) >= 2:
        label = "(iii)-like"
    else:
        label = "undetermined"
    return Diagnosis(label=label, distinct_speeds=distinct, counts=counts)
