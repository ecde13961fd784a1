"""Zermelo navigation and conformally stationary spacetime utilities.

Zermelo: wind data (h, W) with h(W, W) < 1 converts to the Randers metric

    F = sqrt(a(y, y)) + b(y),
    a(y, y) = ( h(W, y)^2 + h(y, y) lam_w ) / lam_w^2,
    b(y)    = - h(W, y) / lam_w,          lam_w = 1 - h(W, W),

whose length of a curve equals the travel time along it, so time-optimal
paths are F-geodesics.  (F solves |y/F - W|_h = 1: unit own-speed plus wind.)

Fermat: spatial data (g0, V, f) of the product spacetime with metric

    g((y, s), (y, s)) = gt(y, y) + 2 gt(V, y) s - s^2,     gt = g0 / f,

gives the Randers pair F, F- with sqrt(gt(V, y)^2 + gt(y, y)) +/- gt(V, y).
A Fermat geodesic x(s) with constant speed in the associated Riemannian
metric lifts to the future-pointing lightlike curve z = (x, t) with
t' = F(x, x'): the null identity B + 2 A F - F^2 = 0 (A = gt(V, x'),
B = gt(x', x')) holds algebraically, so the lift's null residual is a strong
cross-check of the whole stack.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericalError
from . import expr as _expr
from . import metric as _metric
from .geoflow import integrate_geodesic
from .metric import MetricField, PhaseState
from .morse import GAUSS3_NODES, GAUSS3_WEIGHTS

__all__ = [
    "ZermeloData",
    "StationaryData",
    "zermelo_to_randers",
    "travel_time",
    "fermat_metric",
    "lift_lightlike",
    "LightlikeLift",
    "grid_travel_time",
    "GridOracleResult",
    "WindTooStrong",
    "NotFermatGeodesic",
]

# random chart points (besides the box centre) at which ZermeloData.validate
# bounds |W|_h, and the seed that draws them
WIND_CHECK_SAMPLES = 128
WIND_CHECK_SEED = 11
# relative variation of the associated Riemannian speed that lift_lightlike
# accepts on a Fermat geodesic, and the number of lifted samples it writes
LIFT_SPEED_RTOL = 1e-8
LIFT_SAMPLES = 201
# the grid oracle's headings are the primitive lattice steps within this radius
GRID_HEADING_RADIUS = 6


class WindTooStrong(ConfigError):
    pass


class NotFermatGeodesic(NumericalError):
    pass


@dataclass
class ZermeloData:
    """Base Riemannian metric h and wind field W with sup |W|_h < 1, kept as
    expression ASTs (h symmetrized) with their parameter binding."""

    dim: int
    h: list
    W: list
    params: dict = field(default_factory=dict)
    chart_box: object = None

    @classmethod
    def from_exprs(cls, dim, h, W, params=None, chart_box=None):
        return cls(dim, _metric._expr_matrix(dim, h, "h"),
                   _metric._expr_vector(dim, W, "W"), dict(params or {}), chart_box)

    @functools.cached_property
    def _values(self):
        return _expr.jet([self.h, self.W], self.dim, self.params)

    def validate(self):
        box = _metric._chart_box(self.chart_box, self.dim)
        pts = _metric._sample_points(box, WIND_CHECK_SAMPLES, WIND_CHECK_SEED)
        h, W = self._values(pts)
        return _metric._sampled_bound(pts, (W[:, None] @ h @ W[..., None])[:, 0, 0],
                                      WindTooStrong, "|W|_h")


def _lower(h, W):
    """The covector h(W, .) as ASTs."""
    n = len(W)
    return [sum(h[i][j] * W[j] for j in range(n)) for i in range(n)]


def zermelo_to_randers(z, **kw):
    """Convert wind data to the Randers metric whose length is travel time."""
    z.validate()
    w_cov = _lower(z.h, z.W)
    lam_w = 1.0 - sum(Wi * wi for Wi, wi in zip(z.W, w_cov))
    a = _metric._sym(z.dim, lambda i, j: (w_cov[i] * w_cov[j] + lam_w * z.h[i][j])
                     / (lam_w * lam_w))
    b = [-(wi / lam_w) for wi in w_cov]
    kw.setdefault("chart_box", z.chart_box)
    return _metric._from_exprs(z.dim, "zermelo", a, b, z.params, **kw)


def travel_time(m, path):
    """Integral of F(x, dx/dt) along a GeodesicPath, by the 3-point Gauss
    rule on each integrator step.  All Gauss points go through one stacked
    F call; the terms are summed in order, step by step."""
    half = 0.5 * np.diff(path.ts)
    mid = 0.5 * (path.ts[:-1] + path.ts[1:])
    x, v = path.state((mid[:, None] + half[:, None] * GAUSS3_NODES).ravel())
    terms = half[:, None] * GAUSS3_WEIGHTS * m.F(x, v).reshape(-1, 3)
    return float(np.cumsum(np.concatenate([[0.0], terms.ravel()]))[-1])


@dataclass
class StationaryData:
    """Spatial metric g0, vector field V and positive function f of a
    conformally standard stationary splitting; gt = g0 / f.  Kept as
    expression ASTs (g0 symmetrized, f None for f = 1) with their parameter
    binding."""

    dim: int
    g0: list
    V: list
    f: object = None
    params: dict = field(default_factory=dict)
    chart_box: object = None

    @classmethod
    def from_exprs(cls, dim, g0, V, f=None, params=None, chart_box=None):
        f_ast = _expr.parse(f) if isinstance(f, str) else f
        return cls(dim, _metric._expr_matrix(dim, g0, "g0"),
                   _metric._expr_vector(dim, V, "V"), f_ast, dict(params or {}),
                   chart_box=chart_box)

    def exprs(self):
        """ASTs of gt and of the covector w = gt(V, .)."""
        gt = self.g0
        if self.f is not None:
            gt = _metric._sym(self.dim, lambda i, j: self.g0[i][j] / self.f)
        return gt, _lower(gt, self.V)

    @functools.cached_property
    def _values(self):
        groups = [self.g0, self.V] + ([[self.f]] if self.f is not None else [])
        return _expr.jet(groups, self.dim, self.params)

    def gt_w(self, x):
        """gt and w = gt V at the chart point x, or at each point of a stack
        (..., dim)."""
        g, V, *f = self._values(x)
        if f:
            fx = f[0][..., 0]
            bad = np.flatnonzero(fx <= 0.0)
            if len(bad):
                raise ConfigError(
                    f"conformal factor f = {float(np.ravel(fx)[bad[0]])!r} not "
                    f"positive at {np.reshape(x, (-1, self.dim))[bad[0]]}")
            g = g / fx[..., None, None]
        return g, np.einsum("...ij,...j->...i", g, V)


def fermat_metric(s, **kw):
    """The Randers pair (F, F-) of the stationary data, as MetricFields."""
    gt, w = s.exprs()
    h = _metric._sym(s.dim, lambda i, j: gt[i][j] + w[i] * w[j])
    kw.setdefault("chart_box", s.chart_box)
    return tuple(
        _metric._from_exprs(s.dim, "fermat", h, beta, s.params, **kw)
        for beta in (w, [-wi for wi in w])
    )


def _lorentz_metric(s):
    """The product-spacetime metric as a quadratic (indefinite) MetricField."""
    n = s.dim
    gt, w = s.exprs()
    rows = [gt[i] + [w[i]] for i in range(n)] + [w + [_expr.Num(-1.0)]]
    box = list(_metric._chart_box(s.chart_box, n)) + [[-1e6, 1e6]]
    return _metric._from_exprs(n + 1, "quadratic_expr", rows, None, s.params,
                               pseudo=True, chart_box=box)


@dataclass
class LightlikeLift:
    s_grid: np.ndarray
    x: np.ndarray
    t: np.ndarray
    null_residual_max: float
    lorentz_gap: float | None = None


# samples per row block of _point_set_gap
_GAP_BLOCK = 64


def _point_set_gap(samples, other):
    """One-sided gap: max over samples of the distance to the polyline other,
    each sample measured to its nearest vertex and the two segments there.
    Samples go in row blocks and the squared distances are summed one
    coordinate at a time, so the temporaries stay (_GAP_BLOCK, len(other))."""
    worst = 0.0
    last = len(other) - 2
    for start in range(0, len(samples), _GAP_BLOCK):
        pts = samples[start:start + _GAP_BLOCK]
        d2 = (other[:, 0] - pts[:, 0, None]) ** 2
        for k in range(1, other.shape[1]):
            d2 += (other[:, k] - pts[:, k, None]) ** 2
        i = np.argmin(d2, axis=1)
        best = d2[np.arange(len(pts)), i]
        # distance to the adjacent segments refines the vertex distance
        for j in (i - 1, i):
            ok = (j >= 0) & (j <= last)
            a, ab = other[j[ok]], other[j[ok] + 1] - other[j[ok]]
            tt = np.clip(np.sum((pts[ok] - a) * ab, axis=1)
                         / np.maximum(np.sum(ab * ab, axis=1), 1e-300), 0.0, 1.0)
            proj = a + tt[:, None] * ab
            best[ok] = np.minimum(best[ok], np.sum((proj - pts[ok]) ** 2, axis=1))
        worst = max(worst, math.sqrt(float(np.max(best))))
    return worst


def lift_lightlike(s, x_path, t0=0.0, *, fermat, check_lorentz=False):
    """Lift a Fermat geodesic to the lightlike spacetime curve z = (x, t).

    Requires the spatial path to be parametrized with constant speed in the
    associated Riemannian metric; t grows by the running length in fermat,
    the F of fermat_metric(s), at LIFT_SAMPLES equispaced times.  With
    check_lorentz=True the spacetime geodesic of the quadratic metric is
    integrated from the lifted initial data and the spatial projections are
    compared as point sets.  Every sample set is read from the dense output
    and evaluated in one stacked call.
    """
    ss = np.linspace(0.0, x_path.tau, LIFT_SAMPLES)
    xs, vs = x_path.state(ss)
    gt, w = s.gt_w(xs)
    A = np.sum(w * vs, axis=1)
    B = np.einsum("ki,kij,kj->k", vs, gt, vs)
    # speed in the associated Riemannian metric gt + w w
    speed = B + A * A
    worst = float(np.max(np.abs(speed - speed[0])))
    if worst > LIFT_SPEED_RTOL * max(speed[0], 1e-300):
        raise NotFermatGeodesic(
            f"path speed in the associated Riemannian metric varies by "
            f"{worst:.3e} (relative tolerance {LIFT_SPEED_RTOL:.1e})"
        )

    # cumulative F-length on a fine composite Gauss grid
    half = 0.5 * np.diff(ss)
    mid = 0.5 * (ss[:-1] + ss[1:])
    x, v = x_path.state((mid[:, None] + half[:, None] * GAUSS3_NODES).ravel())
    Fs = fermat.F(x, v).reshape(-1, 3)
    seg = (half * GAUSS3_WEIGHTS[0] * Fs[:, 0] + half * GAUSS3_WEIGHTS[1] * Fs[:, 1]
           + half * GAUSS3_WEIGHTS[2] * Fs[:, 2])
    t_vals = np.cumsum(np.concatenate([[t0], seg]))

    Fv = fermat.F(xs, vs)
    null_worst = float(np.max(np.abs(B + 2.0 * A * Fv - Fv * Fv)))

    gap = None
    if check_lorentz:
        lor = _lorentz_metric(s)
        x0, v0 = xs[0], vs[0]
        z0 = np.concatenate([x0, [t0]])
        dz0 = np.concatenate([v0, [fermat.F(x0, v0)]])
        zpath = integrate_geodesic(lor, PhaseState(z0, dz0), x_path.tau)
        n = s.dim
        proj = zpath.x(np.linspace(0, zpath.tau, 4 * LIFT_SAMPLES))[:, :n]
        fine = x_path.x(np.linspace(0, x_path.tau, 4 * LIFT_SAMPLES))
        gap = max(_point_set_gap(proj, fine), _point_set_gap(fine, proj))

    return LightlikeLift(ss, xs, t_vals, null_worst, gap)


# ---------------------------------------------------------------------------
# Brute-force time-optimal grid oracle


def _lattice_headings(radius):
    offs = []
    for i in range(-radius, radius + 1):
        for j in range(-radius, radius + 1):
            if i == 0 and j == 0:
                continue
            if math.gcd(abs(i), abs(j)) != 1:
                continue
            offs.append((i, j))
    return offs


@dataclass
class GridOracleResult:
    time: float
    cell_time: float
    p_snapped: np.ndarray
    q_snapped: np.ndarray
    n: int
    headings: int


def grid_travel_time(m, p, q, *, box, n=200):
    """Dijkstra shortest travel time over an n x n grid with lattice headings.

    Edge cost is the F-length of the straight step (midpoint rule), taken
    once per heading when the metric is chart-constant.  Returns
    the optimal time between the snapped endpoints together with the time
    resolution of one grid cell.  Supports dim 2 only.
    """
    if m.dim != 2:
        raise ConfigError("grid oracle supports dim 2 only")
    box = np.asarray(box, dtype=float)
    lo, hi = box[:, 0], box[:, 1]
    spacing = (hi - lo) / (n - 1)

    def node_xy(idx):
        i, j = divmod(idx, n)
        return lo + spacing * np.array([i, j])

    def snap(pt):
        ij = np.clip(np.round((np.asarray(pt, float) - lo) / spacing), 0, n - 1)
        return int(ij[0]) * n + int(ij[1])

    offs = np.array(_lattice_headings(GRID_HEADING_RADIUS))
    deltas = spacing * offs
    p_idx, q_idx = snap(p), snap(q)
    p_xy, q_xy = node_xy(p_idx), node_xy(q_idx)

    const_costs = None
    if m.chart_constant:
        const_costs = m.F(np.broadcast_to(p_xy, deltas.shape), deltas)

    dist = np.full(n * n, np.inf)
    done = np.zeros(n * n, dtype=bool)
    dist[p_idx] = 0.0
    heap = [(0.0, p_idx)]
    while heap:
        d, idx = heapq.heappop(heap)
        if done[idx]:
            continue
        done[idx] = True
        if idx == q_idx:
            break
        # unsettled in-grid neighbours, their edge costs in one stacked call
        ij = np.array(divmod(idx, n)) + offs
        ok = np.all((ij >= 0) & (ij < n), axis=1)
        nxt = ij[:, 0] * n + ij[:, 1]
        ok[ok] = ~done[nxt[ok]]
        if not ok.any():
            continue
        if const_costs is not None:
            costs = const_costs[ok]
        else:
            costs = m.F(node_xy(idx) + 0.5 * deltas[ok], deltas[ok])
        for k, cost in zip(nxt[ok].tolist(), costs.tolist()):
            nd = d + cost
            if nd < dist[k]:
                dist[k] = nd
                heapq.heappush(heap, (nd, k))

    headings = np.array([
        [math.cos(a), math.sin(a)]
        for a in np.linspace(0.0, 2.0 * math.pi, 32, endpoint=False)
    ])
    slowest = float(np.max(m.F(np.broadcast_to(q_xy, headings.shape), headings)))
    cell_time = float(np.max(spacing)) * slowest
    return GridOracleResult(
        time=float(dist[q_idx]),
        cell_time=cell_time,
        p_snapped=p_xy,
        q_snapped=q_xy,
        n=n,
        headings=len(offs),
    )
