#!/usr/bin/env python3
"""Time-optimal navigation under a constant wind.

Converts wind data to its Randers metric, connects two points by a geodesic,
and checks the travel time against the closed form and against a brute-force
Dijkstra search on a grid.
"""

import numpy as np

import fbt
from fbt.geoflow import connect, integrate_geodesic
from fbt.metric import PhaseState


def closed_form(d, W):
    lam = 1.0 - float(np.dot(W, W))
    dw = float(np.dot(d, W))
    return (-dw + np.sqrt(dw * dw + float(np.dot(d, d)) * lam)) / lam


def main():
    W = np.array([0.5, 0.0])
    z = fbt.ZermeloData.from_exprs(2, [["1", "0"], ["0", "1"]],
                                   [repr(float(W[0])), repr(float(W[1]))],
                                   chart_box=[[-2, 2], [-2, 2]])
    m = fbt.zermelo_to_randers(z)
    print(f"downwind speed  F(e1) = {m.F([0, 0], [1, 0]):.6f} (ground speed 1.5)")
    print(f"upwind speed    F(-e1) = {m.F([0, 0], [-1, 0]):.6f} (ground speed 0.5)")

    for d in ([0.4, 0.0], [0.0, 0.4], [-0.3, 0.25]):
        v = connect(m, [0, 0], d, d)
        path = integrate_geodesic(m, PhaseState([0, 0], v), 1.0)
        t = fbt.travel_time(m, path)
        print(f"d = {d}: geodesic time {t:.9f}, closed form {closed_form(d, W):.9f}")

    d = np.array([0.35, 0.2])
    res = fbt.grid_travel_time(m, [0, 0], d, box=[[-0.5, 0.5], [-0.5, 0.5]],
                               n=200)
    print(f"\ngrid oracle ({res.headings} headings): time {res.time:.6f}, "
          f"cell resolution {res.cell_time:.6f}")
    print(f"closed form at snapped endpoints: "
          f"{closed_form(res.q_snapped - res.p_snapped, W):.6f}")


if __name__ == "__main__":
    main()
