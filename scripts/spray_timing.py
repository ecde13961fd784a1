"""Microseconds per call of MetricField.spray and second_derivatives, and
of the two complex-step callers built on MetricField.complex_step.

For each catalog kind in 2-D and 3-D this prints the minimum over repeats
of the mean time per call on

* one real state (a geodesic right-hand side),
* complex-step stacks of n and 2n copies (a shooting or Jacobi-frame
  step, and the full spray linearization of spray_jacobians),
* a real stack of 3*64 states (the Gauss points of a 64-element mesh).

second_derivatives takes real states only, so its complex columns read "-".
Two more rows per kind time whole callers: shoot_rhs, the right-hand side of
endpoint_jacobian on the flat state of the n shooting copies (column cs_n),
and spray_jacobians, the independent check of the frame equation in
JacobiFrame.residual_max, at one real state (column real1); their other
columns read "-".

    PYTHONPATH=src python scripts/spray_timing.py [--repeat 5] [--number 200]
"""

import argparse
import time

import numpy as np

import fbt
import fbt.nav as nav
from fbt.geoflow import _copies_rhs
from fbt.jacobi import spray_jacobians
from fbt.metric import COMPLEX_STEP

COLUMNS = ("real1", "cs_n", "cs_2n", "stack192")


def _eye(dim):
    return [["1" if i == j else "0" for j in range(dim)] for i in range(dim)]


def _conformal_callables(dim):
    """h = rho I with rho = 1 / (1 + |x|^2 / 4), with derivative callables."""
    eye = np.eye(dim)

    def h(x):
        return eye / (1.0 + 0.25 * float(x @ x))

    def dh(x):
        s = 1.0 + 0.25 * float(x @ x)
        return (-0.5 * np.asarray(x, float) / s**2)[:, None, None] * eye

    def d2h(x):
        s = 1.0 + 0.25 * float(x @ x)
        d2 = -0.5 * eye / s**2 + 0.5 * np.outer(x, x) / s**3
        return d2[:, :, None, None] * eye

    return fbt.from_callables(dim, "from_callables", h, dh=dh, d2h=d2h)


def catalog(dim):
    """One metric of every catalog kind in the given dimension."""
    warp = _eye(dim)
    warp[1][1] = "exp(-lam*x1^2)"
    quad = _eye(dim)
    quad[1][1] = "-(1+0.1*x1^2)"
    h = _eye(dim)
    h[0][0] = "1+0.1*x2^2"
    h[0][1] = h[1][0] = "0.05*x1"
    beta = ["0.3*sin(x2)", "0.2*x1*x2"] + ["0.1"] * (dim - 2)
    wind = ["0.6*exp(-x1^2)", "0.1*sin(x2)"] + ["0"] * (dim - 2)
    g0 = _eye(dim)
    g0[1][1] = "1+0.1*x1^2"
    z = nav.ZermeloData.from_exprs(dim, _eye(dim), wind)
    s = nav.StationaryData.from_exprs(dim, g0, ["0.3", "0.1*x1"] + ["0"] * (dim - 2),
                                      f="1+0.1*x2^2")
    return [
        ("euclidean", fbt.euclidean(dim)),
        ("sphere_stereo", fbt.sphere_stereo(1.0, dim=dim)),
        ("riemannian_expr", fbt.riemannian_expr(dim, warp, params={"lam": 1.3})),
        ("randers", fbt.randers_expr(dim, h, beta,
                                     chart_box=[[-1.5, 1.5]] * dim)),
        ("quadratic_expr", fbt.quadratic_expr(dim, quad)),
        ("zermelo", nav.zermelo_to_randers(z)),
        ("fermat", nav.fermat_metric(s)[0]),
        ("from_callables", _conformal_callables(dim)),
    ]


def states(dim, seed=0):
    """The four state shapes of COLUMNS, at one base state."""
    rng = np.random.default_rng(seed)
    x = 0.3 * rng.uniform(-1.0, 1.0, size=dim)
    v = rng.normal(size=dim)
    dz = 1j * COMPLEX_STEP * np.eye(dim)
    zero = np.zeros((dim, dim))
    # shooting: n copies at v + i*h*e_j whose x carry their own small steps
    shoot = (x + 1j * COMPLEX_STEP * rng.normal(size=(dim, dim)), v + dz)
    frame = (x + np.concatenate([dz, zero]), v + np.concatenate([zero, dz]))
    stack = (x + 0.05 * rng.normal(size=(192, dim)), v + 0.1 * rng.normal(size=(192, dim)))
    return {"real1": (x, v), "cs_n": shoot, "cs_2n": frame, "stack192": stack}


def callers(m, shapes):
    """The complex-step callers timed per kind: (row name, column, fn, args)."""
    xs, vs = shapes["cs_n"]
    flat = np.concatenate([xs, vs], axis=1).ravel()
    return [("shoot_rhs", "cs_n", _copies_rhs(m), (0.0, flat)),
            ("spray_jacobians", "real1", spray_jacobians, (m, *shapes["real1"]))]


def per_call_us(fn, args, repeat, number):
    best = np.inf
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(number):
            fn(*args)
        best = min(best, (time.perf_counter() - t0) / number)
    return 1e6 * best


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--number", type=int, default=200)
    args = ap.parse_args(argv)
    print(f"{'kind':16s} {'dim':>3s} {'evaluator':18s}"
          + "".join(f" {c:>9s}" for c in COLUMNS))
    for dim in (2, 3):
        shapes = states(dim)
        for kind, m in catalog(dim):
            for name in ("spray", "second_derivatives"):
                fn = getattr(m, name)
                cells = []
                for col in COLUMNS:
                    if name == "second_derivatives" and col.startswith("cs"):
                        cells.append("-")
                        continue
                    us = per_call_us(fn, shapes[col], args.repeat, args.number)
                    cells.append(f"{us:.1f}")
                print(f"{kind:16s} {dim:3d} {name:18s}"
                      + "".join(f" {c:>9s}" for c in cells), flush=True)
            for name, col, fn, fargs in callers(m, shapes):
                us = per_call_us(fn, fargs, args.repeat, args.number)
                cells = [f"{us:.1f}" if c == col else "-" for c in COLUMNS]
                print(f"{kind:16s} {dim:3d} {name:18s}"
                      + "".join(f" {c:>9s}" for c in cells), flush=True)


if __name__ == "__main__":
    main()
