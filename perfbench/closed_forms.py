"""Closed forms the benchmark checks fbt's outputs against.

Nothing here imports fbt: each value comes from geometry worked out by hand,
so a check cannot pass merely because the code under test agrees with
itself.
"""

from __future__ import annotations

import math

import numpy as np


def warped_mu(c):
    """Critical parameter of the warped family g = diag(exp(-lam*c*x2^2), 1)
    along the trivial branch x(t) = (t - 1, 0), t in [0, 2].

    On the flat axis the Gauss curvature is lam*c, so the transverse Jacobi
    field is sin(sqrt(lam*c) t); it first vanishes at t = 2 when
    lam = pi^2 / (4c).
    """
    return math.pi**2 / (4.0 * c)


def sphere_conjugate_times(K, tau):
    """Conjugate instants k*pi/sqrt(K) in (0, tau) of a unit-speed geodesic on
    the round sphere of curvature K; each has multiplicity n - 1."""
    step = math.pi / math.sqrt(K)
    out = []
    k = 1
    while k * step < tau:
        out.append(k * step)
        k += 1
    return out


def sphere_focal_times(K, tau):
    """Instants (2k-1)*pi/(2*sqrt(K)) in (0, tau) at which unit-speed
    geodesics leaving a totally geodesic great sphere perpendicularly meet
    again; each has multiplicity n - 1."""
    step = math.pi / math.sqrt(K)
    out = []
    k = 1
    while (k - 0.5) * step < tau:
        out.append((k - 0.5) * step)
        k += 1
    return out


def unit_circle_geodesic(x0, t_dir, rate, s):
    """Chart position and velocity at parameter s of the geodesic of the
    stereographic sphere chart that starts at x0 (|x0| = 1) with chart velocity
    rate * t_dir (t_dir a unit vector orthogonal to x0).

    The chart sphere |x| = 1 is a great sphere for every curvature, so the
    geodesic runs round the unit circle in the plane of x0 and t_dir at
    angular rate `rate`.
    """
    x0 = np.asarray(x0, dtype=float)
    t_dir = np.asarray(t_dir, dtype=float)
    a = rate * s
    x = math.cos(a) * x0 + math.sin(a) * t_dir
    v = rate * (-math.sin(a) * x0 + math.cos(a) * t_dir)
    return x, v


def zermelo_speed(v, W):
    """Randers norm F(v) of Zermelo navigation with Euclidean base metric and
    wind W (|W| < 1): the time to cover v, i.e. the positive root T of
    |v/T - W| = 1."""
    v = np.asarray(v, dtype=float)
    W = np.asarray(W, dtype=float)
    lam = 1.0 - float(W @ W)
    vw = float(v @ W)
    return (-vw + math.sqrt(vw * vw + float(v @ v) * lam)) / lam


def constant_wind_time(d, W):
    """Least travel time across displacement d under constant wind W."""
    return zermelo_speed(d, W)


def straight_segment_time(wind, p, q, nodes=64):
    """Travel time along the straight segment p -> q under the wind field
    `wind(x) -> W`, by Gauss-Legendre quadrature of F(x(s), q - p)."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    d = q - p
    xs, ws = np.polynomial.legendre.leggauss(nodes)
    total = 0.0
    for xi, wi in zip(xs, ws):
        s = 0.5 * (xi + 1.0)
        total += 0.5 * wi * zermelo_speed(d, wind(p + s * d))
    return total


def fermat_arrival_time(V, q):
    """Arrival time t(1) - t(0) of light along x(s) = s*q in the stationary
    spacetime -dt^2 + 2 V.dx dt + |dx|^2 (g0 = identity, f = 1, constant V):
    the positive root of |q|^2 + 2 (V.q) T - T^2 = 0."""
    V = np.asarray(V, dtype=float)
    q = np.asarray(q, dtype=float)
    vq = float(V @ q)
    return vq + math.sqrt(vq * vq + float(q @ q))


def null_identity(V, xdot, tdot):
    """g(z', z') of the curve z = (x, t) in the spacetime of fermat_arrival_time;
    zero exactly when the curve is lightlike."""
    V = np.asarray(V, dtype=float)
    xdot = np.asarray(xdot, dtype=float)
    return float(xdot @ xdot) + 2.0 * float(V @ xdot) * tdot - tdot * tdot
