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
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .errors import NumericalError
from .metric import PhaseState
from .ode import brentq
from .geoflow import (DEFAULT_ATOL, DEFAULT_RTOL, DEFAULT_TOL_RES, connect,
                      endpoint_jacobian, exp_map, integrate_geodesic, newton)
from . import morse as _morse
from .jacobi import DEFAULT_GRID

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

# parameter refinement stops within this fraction of the family's range;
# flank counts are read this fraction (at least ten refinement tolerances)
# away from a detection
REFINE_TOL_REL = 1e-6
FLANK_REL = 1e-3
DEFAULT_RHO_LADDER = (1e-3, 1e-2, 1e-1)
DEFAULT_SEEDS_PER_RUNG = 16
DEFAULT_MAX_FOUND = 12
DISTINCT_TOL = 1e-6
# the hunt's relaxed integrator tolerance; accepted solutions are re-validated
# at find_branches' rtol/atol.  Under DOP853 a hunt at 1e-8 stalls on the
# round sphere's continuum of antipodal solutions (criterion 5 keeps 4, none
# near the reference velocity); at 1e-9 it keeps 8, 6 of them near it
HUNT_RTOL = 1e-9
HUNT_ATOL = 1e-9
# classify_alternative counts only solutions within this C1 distance of the
# trivial branch; this many at mu make an (i)-like sequence, and speeds that
# spread by more than SPEED_RTOL of the largest are distinct
CLOSE_TOL = 0.5
SEQUENCE_MIN = 3
SPEED_RTOL = 1e-6
# a C1 distance compares two paths at this many equispaced times
C1_SAMPLES = 40


class BranchLost(NumericalError):
    def __init__(self, lam, reason):
        self.lam = float(lam)
        super().__init__(f"trivial branch lost at parameter {self.lam}: {reason}")


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

    def realize(self, m, seed=None, *, rtol, atol):
        """The geodesic of m from (x0, v0) over [0, tau].  seed is ignored:
        a start state needs no velocity guess."""
        v0 = self.v0.copy()
        if self.normalize_speed is not None:
            v0 *= self.normalize_speed / m.F(self.x0, v0)
        return integrate_geodesic(m, PhaseState(self.x0, v0), self.tau,
                                  rtol=rtol, atol=atol)


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

    def realize(self, m, seed=None, *, rtol, atol):
        """The geodesic of m from p to q over [0, tau], shot from seed
        (v_seed when None)."""
        v0 = connect(m, self.p, self.q, self.v_seed if seed is None else seed,
                     tau=self.tau, rtol=rtol, atol=atol)
        return integrate_geodesic(m, PhaseState(self.p, v0), self.tau,
                                  rtol=rtol, atol=atol)


@dataclass
class FamilySpec:
    """A one-parameter family: metric_builder(lam) gives the metric at lam,
    and branch, an InitialStateBranch or a ConnectBranch, prescribes the
    trivial geodesic; its realize(m, seed, rtol=, atol=) integrates that
    geodesic on one member."""

    param_name: str
    param_range: tuple
    samples: int
    metric_builder: object
    branch: object
    continuity_tol: float = 0.5

    def __post_init__(self):
        if not self.param_range[0] < self.param_range[1]:
            raise ValueError(f"param_range must be increasing, got {self.param_range}")


@dataclass
class ScanRecord:
    lam: float
    m_minus: int
    m_zero: int
    min_abs_eig: float
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


@dataclass
class BranchSolution:
    lam: float
    offset: int  # probe position in units of delta relative to mu
    v0: np.ndarray
    speed: float
    c1_distance: float
    endpoint_residual: float
    el_residual: float


@dataclass
class BranchEvidence:
    mu: float
    delta: float
    solutions: list
    seed: int
    rho_ladder: tuple
    seeds_per_rung: int

    def on_side(self, sign, close_tol=None):
        out = [s for s in self.solutions if np.sign(s.offset) == sign]
        if close_tol is not None:
            out = [s for s in out if s.c1_distance <= close_tol]
        return out


@dataclass
class Diagnosis:
    label: str
    distinct_speeds: bool
    counts: dict
    note: str = "diagnostic, not a certificate"


@dataclass
class BifurcationScan:
    param_name: str
    param_range: tuple
    records: list
    detections: list
    seed: int = 0


# ---------------------------------------------------------------------------
# Branch realization


def realize_branch(f, lam, prev_velocity=None, *, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL):
    """Build the family metric at lam and realize the trivial branch on it,
    seeded by prev_velocity."""
    m = f.metric_builder(lam)
    try:
        path = f.branch.realize(m, prev_velocity, rtol=rtol, atol=atol)
    except NumericalError as exc:
        raise BranchLost(lam, str(exc)) from exc
    return m, path


# ---------------------------------------------------------------------------
# Sweep


def _sweep_record(lam, path, boundary, grid, mesh0, max_mesh):
    try:
        rep = _morse.cross_check(path, boundary, grid=grid, mesh0=mesh0,
                                 max_mesh=max_mesh)
    except _morse.NotCritical as exc:
        raise BranchLost(lam, str(exc)) from exc
    return ScanRecord(
        lam=float(lam),
        m_minus=rep.m_minus,
        m_zero=rep.m_zero,
        min_abs_eig=rep.spectral.min_abs_eig,
        agree=bool(rep.agree),
        mesh=rep.spectral.mesh,
    )


def sweep_family(f, boundary="point-point", *, grid=DEFAULT_GRID,
                 mesh0=_morse.DEFAULT_MESH0, max_mesh=_morse.DEFAULT_MAX_MESH,
                 refine_mesh=None, seed=0, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL):
    """Sample the family, cross-check indices, and refine candidate parameters.

    Every branch (samples, refinement and flanks) is integrated at rtol and
    atol.  The refinement realizes each parameter once (brentq's bracket
    ends and its root are read again from that member) and solves each of
    a member's pencils once (morse keeps them on the path).  With an
    InitialStateBranch the bracket ends are the sample paths themselves;
    a ConnectBranch's samples are seeded by continuation, so the
    refinement realizes its own."""
    a, b = f.param_range
    lams = np.linspace(a, b, f.samples)
    records = []
    prev_v = None
    prev_end = None

    def realize(lam, prev_velocity=None):
        return realize_branch(f, lam, prev_velocity, rtol=rtol, atol=atol)[1]

    # the refinement's members by parameter; an InitialStateBranch ignores its
    # seed, so its sample paths (and the pencils solved on them) serve again
    members = {}
    for lam in lams:
        path = realize(lam, prev_v)
        if isinstance(f.branch, InitialStateBranch):
            members[float(lam)] = path
        rec = _sweep_record(lam, path, boundary, grid, mesh0, max_mesh)
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
    refine_tol = REFINE_TOL_REL * (b - a)
    flank = max(FLANK_REL * (b - a), 10 * refine_tol)

    def member(lam):
        if lam not in members:
            members[lam] = realize(lam)
        return members[lam]

    def eig_k(lam, k):
        return _morse.smallest_eigenvalue(member(lam), boundary, refine_mesh, k=k)

    def detection(mu, lo, hi, refined=False, plateau=False):
        # spectral counts at mu and at the flanks lo and hi, in that order; a
        # plateau has positive nullity by construction
        at_mu, left, right = (
            _morse.index_spectral(member(lam), boundary, mesh_fixed=refine_mesh)
            for lam in (mu, lo, hi)
        )
        return Detection(
            mu=float(mu), nullity=max(at_mu.m_zero, int(plateau)),
            m_left=left.m_minus, m0_left=left.m_zero,
            m_right=right.m_minus, m0_right=right.m_zero,
            refined=refined, plateau=plateau,
        )

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
        detections.append(detection(mu, mu - flank, mu + flank, refined=refined))
        consumed[i] = consumed[i + 1] = True

    # plateau candidates: persistent nullity without an index jump
    runs = groupby(zip(records, consumed),
                   key=lambda rc: rc[0].m_zero >= 1 and not rc[1])
    for on_plateau, run in runs:
        if on_plateau:
            lams_run = [r.lam for r, _ in run]
            first, last = lams_run[0], lams_run[-1]
            detections.append(detection(0.5 * (first + last), max(first - flank, a),
                                        min(last + flank, b), plateau=True))

    detections.sort(key=lambda d: d.mu)
    return BifurcationScan(
        param_name=f.param_name,
        param_range=(float(a), float(b)),
        records=records,
        detections=detections,
        seed=seed,
    )


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
    return verdicts


# ---------------------------------------------------------------------------
# Deflated branch hunting


def _c1_distance(path_a, path_b):
    ts = np.linspace(0.0, path_a.tau, C1_SAMPLES)
    (xa, va), (xb, vb) = path_a.state(ts), path_b.state(ts)
    return float(np.max(np.linalg.norm(xa - xb, axis=1)
                        + np.linalg.norm(va - vb, axis=1)))


def find_branches(f, mu, *, seed=0,
                  rho_ladder=DEFAULT_RHO_LADDER,
                  seeds_per_rung=DEFAULT_SEEDS_PER_RUNG,
                  delta=None, offsets=(-2, -1, 0, 1, 2), max_iter=15,
                  max_found=DEFAULT_MAX_FOUND, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL):
    """Hunt for non-trivial geodesics with the trivial branch's boundary data.

    Deflated multi-start Newton shooting at parameters mu + offset*delta;
    seeds perturb the trivial initial velocity along the kernel direction of
    the shooting Jacobian with seeded jitter.  The hunt runs at the relaxed
    integrator tolerance HUNT_RTOL = 1e-9 / HUNT_ATOL = 1e-9; each Newton
    iterate integrates the variational flow once, with its steps chosen on
    (x, v), and reads the shooting Jacobian (the kernel direction's
    included) from it.  Damped line-search trials integrate the geodesic
    flow alone (exp_map), so a start that wanders costs under half a
    variational flow per rejected trial.  A start that the trivial branch
    or a kept solution repels, and that cannot leave its deflation radius
    within max_iter, ends early with NoConvergence("... repelled from a
    deflated root") (see geoflow.newton); most starts away from a detection
    end so after one variational flow.  Every accepted solution is
    polished and re-validated at the tight tolerance.
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
        if not a <= lam <= b:
            continue
        m, triv = realize_branch(f, lam, None, rtol=rtol, atol=atol)
        q = triv.endpoint
        p = triv.x0
        tau = triv.tau
        v_triv = triv.v0
        tol_hunt = 3e-9 * (1.0 + np.linalg.norm(q))

        def G(v, rtol=HUNT_RTOL, atol=HUNT_ATOL):
            return exp_map(m, p, v, tau, rtol=rtol, atol=atol) - q

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
                    v_sol = newton(G, GJ, v_seed, tol=tol_hunt, max_iter=max_iter,
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
                            lambda v: G(v, rtol, atol),
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


def classify_alternative(evidence):
    """Heuristic label for the bifurcation pattern in the evidence."""
    at_mu = evidence.on_side(0, CLOSE_TOL)
    left = evidence.on_side(-1, CLOSE_TOL)
    right = evidence.on_side(+1, CLOSE_TOL)
    counts = {"at_mu": len(at_mu), "left": len(left), "right": len(right)}
    speeds = [s.speed for s in left + right + at_mu]
    distinct = False
    if len(speeds) >= 2:
        smax = max(abs(x) for x in speeds)
        distinct = (max(speeds) - min(speeds)) > SPEED_RTOL * max(smax, 1e-300)
    if len(at_mu) >= SEQUENCE_MIN:
        label = "(i)-like"
    elif left and right:
        label = "(ii)-like"
    elif len(left) >= 2 or len(right) >= 2:
        label = "(iii)-like"
    else:
        label = "undetermined"
    return Diagnosis(label=label, distinct_speeds=distinct, counts=counts)
