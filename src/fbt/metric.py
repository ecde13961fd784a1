"""Finsler metrics on a single chart box.

A MetricField bundles evaluators for F, L = F^2 and its velocity
derivatives dvL and dvvL, the second derivatives (dxxL, dxvL, dvvL) in one
call, the fundamental tensor (the vertical Hessian of L/2) and the geodesic
spray.

Every supported kind fits one algebraic template,

    L(v; h, b) = (sqrt(v.h v) + b.v)^2,

with the one-form b absent for plain Riemannian/quadratic kinds (then
L = q = v.h v, possibly indefinite for the quadratic pseudo-kind).  The
template is written as an expression AST over placeholders for the
components h_ij, b_i, their chart derivatives and v, once per (dim,
one-form or not, structural zeros): 0 stands for each component that is
identically zero, so the terms it annihilates fold away.  Symbolic
differentiation gives the v-derivatives, and the chain rule through the
derivative placeholders the x-derivatives.  Kernels are generated lazily
from it: straight-line code for F, L, every derivative piece and the spray
(Cramer's rule up to dim 3, np.linalg.solve above), common subexpressions
computed once.  A kernel reads the flat component tuple of the metric's
compiled bundle (from_callables metrics flatten their callables' arrays
into the same layout).  Chart derivatives are exact on every path:
symbolic for expression metrics, the caller's derivative callables for
from_callables.

Evaluators needing at most first chart derivatives (all but
second_derivatives) also take complex-step states x = a + i*y,
v = u + i*w, |y|, |w| near COMPLEX_STEP.  The real jet is evaluated one
order higher, once per run of rows sharing the real part a, and a
straight-line prologue of the kernel lifts each placeholder,
h_ij -> h_ij + i*sum_k y_k dh_kij; the template is analytic, so
Im f = y.df/dx + w.df/dv to rounding.  Checks read real parts.

The geodesic flow and its linearization on c columns (geoflow's right-hand
sides) are generated as well, one straight-line function per (dim, c),
bound per metric to its bundle and spray kernel: it unpacks the flat state
into floats, evaluates the jet once, calls the real spray kernel (c = 0)
or the lifted one once per column, and returns one array.  These are the
operations of spray and complex_step on the same state, so the values are
theirs bit for bit, without their per-call dispatch.

The evaluators accept a state (x, v of shape (n,)) or a stack of states (x,
v of shape (N, n)) and return results with the matching leading shape.  One
kernel source is compiled twice: over Python floats, run once per row for a
single state and for complex-step stacks, and over numpy arrays, run once
for a real stack.  A real stack reads its components the same way: the
expression bundle compiled over columns runs once for the stack, with each
state's operations and math functions per element (see fbt.expr), and hands
its columns straight to the stack kernel, so every state keeps its bits
(from_callables components call their callables once per state).  Checks
keep their per-state meaning: any state with q <= 0 (with a one-form, or
in F), F <= 0 or a singular vertical Hessian raises for the whole call.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from . import expr as _expr
from .errors import ConfigError, NumericalError

__all__ = [
    "PhaseState",
    "MetricField",
    "InvariantReport",
    "ZeroVelocity",
    "OutsideChart",
    "ConvexityViolation",
    "SingularVerticalHessian",
    "RandersBoundError",
    "euclidean",
    "sphere_stereo",
    "riemannian_expr",
    "randers_expr",
    "quadratic_expr",
    "from_callables",
]

DEFAULT_V_MIN = 1e-6
DEFAULT_CHART_HALF_WIDTH = 10.0
INVARIANT_SAMPLES = 200
# a definite metric with a one-form samples |beta|_h < 1 over its chart box,
# at the centre and RANDERS_CHECK_SAMPLES points drawn from RANDERS_CHECK_SEED
RANDERS_CHECK = True
RANDERS_CHECK_SAMPLES = 128
RANDERS_CHECK_SEED = 7
# the imaginary step of complex-step derivatives
COMPLEX_STEP = 1e-30
# the velocity scalings at which check_invariants tests the homogeneity of F
HOMOGENEITY_FACTORS = (0.5, 2.0, 7.0)


class ZeroVelocity(NumericalError):
    pass


class OutsideChart(NumericalError):
    pass


class ConvexityViolation(NumericalError):
    pass


class SingularVerticalHessian(NumericalError):
    pass


class RandersBoundError(ConfigError):
    pass


@dataclass
class PhaseState:
    """A chart point x and a velocity v, both in chart components."""

    x: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.v = np.asarray(self.v, dtype=float)


# ---------------------------------------------------------------------------
# Component bundle: h(x), beta(x) and their chart derivatives


class _Components:
    """h(x), beta(x) and their chart derivatives, of a metric of any kind.

    ``compile(order)`` returns the bundle, a function of x giving the flat
    component tuple up to that derivative order (see _layout), and the
    positions of its structural zeros; ``compile(order, columns=True)``
    the same over columns, a function of the (n, N) coordinates of N
    points giving each entry of the tuple as a column of N values (or one
    float for every point).  ``columns(x, order)`` runs that on a stack of
    points (N, n); ``stack(x, order)`` cuts its entries, at a point or a
    stack of points (..., n), into (h, beta, dh, dbeta, d2h, d2beta) up to
    the order, None for beta and its derivatives when the kind has no
    one-form."""

    def __init__(self, dim, oneform, compile, chart_constant):
        self.dim, self.oneform, self.chart_constant = dim, oneform, chart_constant
        self._compile = compile
        self._bundles, self._columns, self._zeros = [None] * 3, [None] * 3, [None] * 3
        self.bundle(0)  # eagerly, so unbound names fail at construction

    def bundle(self, order):
        fn = self._bundles[order]
        if fn is None:
            fn, at = self._compile(order)
            layout = _layout(self.dim, self.oneform, order)
            self._zeros[order] = frozenset(layout[i] for i in at) - {"_"}
            self._bundles[order] = fn
        return fn

    def zeros(self, order):
        """The placeholders compile reports as structural zeros, up to the
        derivative order: those whose component AST is ZERO."""
        self.bundle(order)
        return self._zeros[order]

    def columns(self, x, order):
        fn = self._columns[order]
        if fn is None:
            fn = self._columns[order] = self._compile(order, columns=True)[0]
        return fn(np.asarray(x, dtype=float).T)

    def stack(self, x, order):
        n = self.dim
        out = _expr._cut_columns(functools.partial(self.columns, order=order), x, n,
                                 [(n, n)] + [(n,)] * self.oneform, order)
        return out if self.oneform else [a for h in out for a in (h, None)]


def _ExprComponents(dim, h, beta=None, params=None):
    """The components of h (a symmetric matrix of expression ASTs) and beta
    (a vector of ASTs, or None), with exact derivatives from the bundles
    expr compiles."""
    groups = (tuple(e for row in h for e in row),) + (
        () if beta is None else (tuple(beta),))
    return _Components(dim, beta is not None,
                       functools.partial(_expr._bound, groups, dim, dict(params or {})),
                       not any(_expr.coordinates(e) for g in groups for e in g))


# ---------------------------------------------------------------------------
# The generated Lagrangian kernel
#
# Placeholders: h_i_j (i <= j) and b_i for the component values, v<i> for the
# velocity, and one suffix _d<k> per chart derivative, sorted
# (h_0_1_d0_d1 = d2 h01 / dx0 dx1).

# chart derivative order of the components each kernel entry reads
_ORDER = {"q": 0, "F": 0, "L": 0, "dvL": 0, "dvvL": 0, "spray": 1,
          "second_derivatives": 2}


def _d(name, k):
    """The placeholder of d(name)/dx_k."""
    base, *ders = name.split("_d")
    return base + "".join(f"_d{j}" for j in sorted([*map(int, ders), k]))


@functools.lru_cache(maxsize=None)
def _layout(dim, oneform, order):
    """The placeholder at each position of the flat component tuple (a
    compiled bundle's layout: per derivative order, h then beta, derivative
    indices first), "_" where an entry repeats by symmetry; a tuple."""
    groups = [[f"h_{min(i, j)}_{max(i, j)}" for i in range(dim) for j in range(dim)]]
    if oneform:
        groups.append([f"b_{i}" for i in range(dim)])
    out = []
    for r in range(order + 1):
        for group in groups:
            for der in itertools.product(range(dim), repeat=r):
                for name in group:
                    for k in der:
                        name = _d(name, k)
                    out.append("_" if name in out else name)
    return tuple(out)


class _Template:
    """L(v; h, b) = (sqrt(v.h.v) + b.v)^2, or q = v.h.v without a one-form,
    and its derivatives as ASTs over the placeholders: in v by symbolic
    differentiation, in x by the chain rule through the component
    placeholders.  A placeholder in zeros is ZERO, as a leaf and as a chain
    rule derivative, so the terms it annihilates fold away as they are built."""

    def __init__(self, dim, oneform, zeros):
        Name, ZERO = _expr.Name, _expr.ZERO
        leaf = lambda c: ZERO if c in zeros else Name(c)
        self.dim = dim
        self.v = v = [Name(f"v{i}") for i in range(dim)]
        # q = sum over i <= j of h_ij w_ij, w_ii = v_i^2, w_ij = 2 v_i v_j
        self.q = sum((leaf(f"h_{i}_{j}") * (v[i] * v[i] if i == j else 2.0 * v[i] * v[j])
                      for i in range(dim) for j in range(i, dim)), ZERO)
        self.F = _expr._call("sqrt", self.q)
        self.L = self.q
        if oneform:
            self.F = self.F + sum((leaf(f"b_{i}") * v[i] for i in range(dim)), ZERO)
            self.L = self.F ** 2
        comps = [c for c in _layout(dim, oneform, 1) if c != "_"]
        self._chain = [{c: leaf(_d(c, k)) for c in comps} for k in range(dim)]
        self._memo = {}

    def dv(self, e, j):
        return _expr._diff(e, f"v{j}", self._memo.setdefault(f"v{j}", {}), {})

    def dx(self, e, k):
        return _expr._diff(e, f"x{k}", self._memo.setdefault(f"x{k}", {}),
                           self._chain[k])

    @functools.cached_property
    def dvL(self):
        return [self.dv(self.L, j) for j in range(self.dim)]

    @functools.cached_property
    def dvvL(self):
        return _sym(self.dim, lambda i, j: self.dv(self.dvL[i], j))

    @functools.cached_property
    def dxL(self):
        return [self.dx(self.L, k) for k in range(self.dim)]

    @functools.cached_property
    def dxvL(self):
        """dxvL[k][j] = d^2 L / dx_k dv_j."""
        return [[self.dv(self.dxL[k], j) for j in range(self.dim)]
                for k in range(self.dim)]

    @functools.cached_property
    def dxxL(self):
        return _sym(self.dim, lambda k, l: self.dx(self.dxL[k], l))

    @functools.cached_property
    def rhs(self):
        """dxL - v . dxvL, the right-hand side of the Euler-Lagrange system."""
        n = self.dim
        return [self.dxL[i] - sum((self.v[k] * self.dxvL[k][i] for k in range(n)),
                                  _expr.ZERO) for i in range(n)]


def _det(M):
    """Determinant of a small matrix of ASTs by expansion along row 0."""
    if not M:
        return _expr.ONE
    out = _expr.ZERO
    for j, mj in enumerate(M[0]):
        term = mj * _det([row[:j] + row[j + 1:] for row in M[1:]])
        out = out - term if j % 2 else out + term
    return out


def _cramer(H, r):
    """det H and the numerators adj(H) r of H^-1 r, for symmetric H."""
    n = len(H)
    minor = _sym(n, lambda i, j: _det([row[:j] + row[j + 1:]
                                       for k, row in enumerate(H) if k != i]))

    def cofactor_sum(i, col):
        out = _expr.ZERO
        for j in range(n):
            term = minor[i][j] * col[j]
            out = out - term if (i + j) % 2 else out + term
        return out

    return cofactor_sum(0, H[0]), [cofactor_sum(i, r) for i in range(n)]


@functools.lru_cache(maxsize=None)
def _template(dim, oneform, zeros):
    return _Template(dim, oneform, zeros)


def _outputs(t, entry):
    """The ASTs an entry returns, flattened row-major."""
    flat = lambda M: [e for row in M for e in row]
    if entry == "second_derivatives":
        return flat(t.dxxL) + flat(t.dxvL) + flat(t.dvvL)
    got = getattr(t, entry)
    if not isinstance(got, list):
        return [got]
    return flat(got) if isinstance(got[0], list) else got


@functools.lru_cache(maxsize=None)
def _kernel_source(dim, oneform, entry, lifted, zeros):
    """Source of one kernel entry, kernel(c, v) -> tuple of outputs, c being
    the flat component tuple at x.  The lifted kernel(c, y, v) takes the
    complex step x = a + i*y with c the tuple at a one derivative order
    higher, and its prologue lifts each placeholder P it reads to
    P + i*sum_k y_k dP/dx_k (skipped when y = 0).

    zeros names the metric's structural zeros among the placeholders c
    holds: those whose component AST is the constant zero (an off-diagonal
    h_ij of a conformal metric, every derivative of a constant entry).  The
    kernel emits the template built with them (_Template), and the
    prologue lifts neither them nor by them.  Every dropped term is an
    exact zero, and adding an exact zero to a non-zero sum is exact in IEEE
    arithmetic, so every non-zero output keeps its value bit for bit.  An
    output that is zero may change the sign of that zero (0 * x is -0.0 for
    x < 0, and -0.0 + 0.0 is 0.0).  An output with no term left is a
    literal.  The empty set gives the generic kernel, which from_callables
    metrics use."""
    t = _template(dim, oneform, zeros)
    emit = _expr._Emitter(dim, placeholders=True)
    body = emit.lines
    if oneform or entry == "F":
        q = emit(t.q)
        body.append(f"if _any({q}.real <= 0.0): _not_convex('quadratic part', {q})")
    if oneform and entry == "F":
        F = emit(t.F)
        body.append(f"if _any({F}.real <= 0.0): _not_convex('F', {F})")
    if entry != "spray":
        outs = [emit(e) for e in _outputs(t, entry)]
    elif dim <= 3:
        det, num = _cramer(t.dvvL, t.rhs)
        d = emit(det)
        body.append(f"if _any({d}.real == 0.0): _singular({d})")
        outs = [emit(e / det) for e in num]
    else:
        H = ", ".join(f"({''.join(emit(e) + ', ' for e in row)})" for row in t.dvvL)
        r = "".join(emit(e) + ", " for e in t.rhs)
        outs = [f"_a{i}" for i in range(dim)]
        body.append(f"{', '.join(outs)}, = _solve(({H}), ({r}))")
    order = _ORDER[entry]
    head = [f"def kernel(c, {'y, ' if lifted else ''}v):",
            f"    {', '.join(_layout(dim, oneform, order + lifted))}, = c",
            f"    {', '.join(f'v{i}' for i in range(dim))}, = v"]
    if lifted:
        ys = [f"y{k}" for k in range(dim)]
        lifts = []
        for c in _layout(dim, oneform, order):
            terms = [f"{y} * {_d(c, k)}" for k, y in enumerate(ys) if _d(c, k) not in zeros]
            if c in emit.params and terms:
                lifts.append(f"        {c} = {c} + 1j * ({' + '.join(terms)})")
        if lifts:
            head += [f"    {', '.join(ys)}, = y", f"    if {' or '.join(ys)}:", *lifts]
    return "\n".join(head + [f"    {line}" for line in body]
                     + [f"    return ({''.join(o + ', ' for o in outs)})"])


def _not_convex(what, val):
    raise ConvexityViolation(
        f"{what} non-positive ({float(np.min(np.real(val)))!r}) at an evaluation point")


def _singular(det):
    raise SingularVerticalHessian("vertical Hessian singular at an evaluation point")


def _solve(H, r):
    """H^-1 r for one state (floats or complex numbers) or a stack (arrays
    over the last axis, where a literal entry stands for every row).

    A complex-step system (A + iB)(a + ib) = c + id is solved to first order
    in the step by two real solves, A a = c and A b = d - B a (the dropped
    B b is of the step's square), so the real part a is the real state's
    solution bit for bit."""
    n = len(r)
    e = np.broadcast_arrays(*itertools.chain(*H), *r)
    H = np.moveaxis(np.reshape(e[:n * n], (n, n) + e[0].shape), (0, 1), (-2, -1))
    r = np.moveaxis(np.array(e[n * n:]), 0, -1)[..., None]
    try:
        a = np.linalg.solve(H.real, r.real)
        if np.iscomplexobj(H) or np.iscomplexobj(r):
            a = a + 1j * np.linalg.solve(H.real, r.imag - H.imag @ a)
    except np.linalg.LinAlgError as exc:
        raise SingularVerticalHessian(str(exc)) from None
    return np.moveaxis(a[..., 0], -1, 0)


# one source, compiled over floats, complex numbers or numpy arrays
_NAMESPACES = {
    "real": {"_sqrt": math.sqrt, "_pow": math.pow, "_any": bool},
    "lifted": {"_sqrt": cmath.sqrt, "_pow": operator.pow, "_any": bool},
    "stack": {"_sqrt": np.sqrt, "_pow": np.power, "_any": np.any},
}


@functools.lru_cache(maxsize=None)
def _kernel(dim, oneform, entry, mode, zeros):
    """The compiled kernel entry; mode is "real" (one real state),
    "lifted" (one complex state) or "stack" (real states as array rows);
    zeros are the structural zeros of _kernel_source."""
    src = _kernel_source(dim, oneform, entry, mode == "lifted", zeros)
    ns = dict(_NAMESPACES[mode], _not_convex=_not_convex, _singular=_singular,
              _solve=_solve)
    exec(compile(src, f"<fbt.metric kernel {entry}>", "exec"), ns)
    return ns["kernel"]


def _flow_source(dim, cols):
    """Source of flow(_jet, _spray) -> rhs(t, y), the straight-line right-hand
    side of the geodesic flow on the flat real (x, v) (cols 0) or of its
    linearization on (x, v, M, M'), M and M' of dim rows and cols columns,
    row-major.  _jet is the metric's component bundle and _spray its real
    spray kernel (cols 0) or its lifted one, called once per column j on the
    complex step x + i h M_j, v + i h M'_j: the real part of column 0 is the
    spray, Im / h of column j the column's M''.  These are the operations
    of the metric's evaluators on the same state, in the same order."""
    n, c = dim, cols
    xs, vs = [f"x{i}" for i in range(n)], [f"v{i}" for i in range(n)]
    Ms = [f"m{i}_{j}" for i in range(n) for j in range(c)]
    Ds = [f"d{i}_{j}" for i in range(n) for j in range(c)]
    args = lambda names: "".join(f"{a}, " for a in names)
    body = [f"{args(xs + vs + Ms + Ds)}= y.tolist()", f"c = _jet([{args(xs)}])"]
    if not c:
        body.append(f"{args(f's{i}' for i in range(n))}= _spray(c, [{args(vs)}])")
        outs = vs + [f"s{i}" for i in range(n)]
    else:
        for j in range(c):
            steps = [f"_h * m{i}_{j}" for i in range(n)]
            lifts = [f"_complex(v{i}, _h * d{i}_{j})" for i in range(n)]
            body.append(f"{args(f's{j}_{i}' for i in range(n))}= "
                        f"_spray(c, [{args(steps)}], [{args(lifts)}])")
        outs = (vs + [f"s0_{i}.real" for i in range(n)] + Ds
                + [f"s{j}_{i}.imag / _h" for i in range(n) for j in range(c)])
    return "\n".join(["def flow(_jet, _spray):", "    def rhs(t, y):",
                      *(f"        {line}" for line in body),
                      f"        return _array(({args(outs)}))", "    return rhs"])


@functools.lru_cache(maxsize=None)
def _flow(dim, cols):
    """The compiled flow factory of _flow_source."""
    ns = {"_array": np.array, "_complex": complex, "_h": COMPLEX_STEP}
    exec(compile(_flow_source(dim, cols), f"<fbt.metric flow {cols}>", "exec"), ns)
    return ns["flow"]


def _chart_box(box, dim):
    """box, or the default box [-w, w]^dim, w = DEFAULT_CHART_HALF_WIDTH."""
    w = DEFAULT_CHART_HALF_WIDTH
    return [[-w, w]] * dim if box is None else box


class MetricField:
    """Evaluator bundle for one metric on an axis-aligned chart box."""

    def __init__(self, dim, kind, comps, *, pseudo=False, chart_box=None,
                 v_min=DEFAULT_V_MIN):
        if dim < 1:
            raise ConfigError(f"dim must be >= 1, got {dim}")
        self.dim = int(dim)
        self.kind = kind
        self._c = comps
        self.pseudo = bool(pseudo)
        self.chart_box = np.asarray(_chart_box(chart_box, dim), dtype=float)
        if self.chart_box.shape != (dim, 2) or np.any(
            self.chart_box[:, 1] <= self.chart_box[:, 0]
        ):
            raise ConfigError(f"chart_box must be shape ({dim}, 2) with lo < hi")
        self.v_min = float(v_min)
        self._flows = {}
        if comps.oneform and not self.pseudo and RANDERS_CHECK:
            _check_randers_bound(self)

    # -- validation ---------------------------------------------------------

    @property
    def chart_constant(self):
        """True when no component reads a chart coordinate, so F(x, v) does
        not depend on x; never for from_callables metrics."""
        return self._c.chart_constant

    def inside_chart(self, x):
        x = np.real(x)
        return bool(
            np.all(x >= self.chart_box[:, 0]) and np.all(x <= self.chart_box[:, 1])
        )

    def _check(self, x, v):
        if not self.inside_chart(x):
            raise OutsideChart(f"point {np.real(x)} outside chart box")
        speed = float(np.min(np.linalg.norm(np.real(v), axis=-1), initial=math.inf))
        if speed < self.v_min:
            raise ZeroVelocity(f"|v| = {speed:.3e} below floor {self.v_min:.3e}")

    def _eval(self, entry, x, v):
        """The kernel entry's flat outputs at a state or a stack of states:
        shape lead + (K,) for x, v of shape lead + (n,)."""
        x, v = np.asarray(x), np.asarray(v)
        if x.shape != v.shape:
            x, v = np.broadcast_arrays(x, v)
        n, order, comps = self.dim, _ORDER[entry], self._c
        if x.dtype.kind == "c" or v.dtype.kind == "c":
            z = x.reshape(-1, n)
            rows = zip(z.real.tolist(), z.imag.tolist(), v.reshape(-1, n).tolist())
            runs = [self.complex_step(entry, a, [(y, u) for _, y, u in run])
                    for a, run in itertools.groupby(rows, operator.itemgetter(0))]
            if not runs:  # no state to lift: the real stack's empty outputs
                return self._eval(entry, x.real, v.real).astype(complex)
            out = runs[0] if len(runs) == 1 else np.concatenate(runs)
        elif x.ndim == 1:
            return np.array(_kernel(n, comps.oneform, entry, "real", comps.zeros(order))(
                comps.bundle(order)(x.tolist()), v.tolist()))
        else:
            points = x.reshape(-1, n)
            kernel = _kernel(n, comps.oneform, entry, "stack", comps.zeros(order))
            with np.errstate(all="ignore"):  # as the bundle over columns
                cols = kernel(comps.columns(points, order),
                              np.ascontiguousarray(v.reshape(-1, n).T))
            # a literal output (a term-free structural zero) stands for every row
            out = _expr._stacked(cols, len(points)).T
        return out.reshape(x.shape[:-1] + out.shape[-1:])

    def complex_step(self, entry, a, rows):
        """The entry's flat outputs at the complex-step states x = a + i*y,
        v = u for (y, u) in rows, as one complex array (len(rows), K): one
        real jet at the shared real point a, then the lifted kernel once
        per row, all on Python lists (a and y of floats, u of floats or
        complex numbers)."""
        if _ORDER[entry] == 2:
            raise TypeError(f"{entry} takes real states only")
        order = _ORDER[entry] + 1
        kernel = _kernel(self.dim, self._c.oneform, entry, "lifted", self._c.zeros(order))
        c = self._c.bundle(order)(a)
        return np.array([kernel(c, y, u) for y, u in rows], complex)

    def _flow_rhs(self, cols):
        """rhs(t, y) of the geodesic flow (cols 0) or of its linearization
        on cols columns (see _flow_source), bound to this metric's bundle
        and spray kernel."""
        rhs = self._flows.get(cols)
        if rhs is None:
            order, c = 1 + bool(cols), self._c
            kernel = _kernel(self.dim, c.oneform, "spray", "lifted" if cols else "real",
                             c.zeros(order))
            rhs = self._flows[cols] = _flow(self.dim, cols)(c.bundle(order), kernel)
        return rhs

    def _matrices(self, entry, x, v):
        out = self._eval(entry, x, v)
        n = self.dim
        return out.reshape(*out.shape[:-1], out.shape[-1] // n**2, n, n)

    # -- public evaluators ----------------------------------------------------

    def L(self, x, v):
        return self._eval("L", x, v)[..., 0]

    def F(self, x, v):
        """F(x, v); for the quadratic pseudo-kind this is the Lagrangian value."""
        return self._eval("q" if self.pseudo else "F", x, v)[..., 0]

    def dvL(self, x, v):
        return self._eval("dvL", x, v)

    def dvvL(self, x, v):
        return self._matrices("dvvL", x, v)[..., 0, :, :]

    def second_derivatives(self, x, v):
        """(dxxL, dxvL, dvvL) from one kernel call (hot path for quadrature
        assembly); the mixed Hessian is dxvL[..., k, j] = d^2 L / dx_k dv_j."""
        out = self._matrices("second_derivatives", x, v)
        return out[..., 0, :, :], out[..., 1, :, :], out[..., 2, :, :]

    def fundamental_tensor(self, x, v):
        """Vertical Hessian of L/2 at (x, v)."""
        g = 0.5 * self._matrices("dvvL", x, v)[..., 0, :, :]
        if not self.pseudo:
            # per state: its smallest eigenvalue against its own trace
            w = np.linalg.eigvalsh(g)[..., 0]
            tol_pd = 1e-10 * np.trace(g, axis1=-2, axis2=-1) / self.dim
            bad = np.argwhere(w <= tol_pd)
            if len(bad):
                i = tuple(int(k) for k in bad[0])
                where = f" at state {i[0] if len(i) == 1 else i}" if i else ""
                raise ConvexityViolation(
                    f"fundamental tensor not positive definite{where} "
                    f"(min eig {w[i]:.3e}, tol {tol_pd[i]:.3e})"
                )
        return g

    def spray(self, x, v):
        """Acceleration solving dvvL . a = dxL - dvxL . v (Euler-Lagrange)."""
        return self._eval("spray", x, v)

    # -- invariant sweep -------------------------------------------------------

    def check_invariants(self, samples=INVARIANT_SAMPLES, seed=0):
        """Sample homogeneity, the Euler identity, symmetry and definiteness
        of the fundamental tensor at seeded states.  All samples are
        evaluated as one stack; if that raises, each sample alone, so that
        every failing sample has its own entry in failures."""
        rng = np.random.default_rng(seed)
        lo, hi = self.chart_box[:, 0], self.chart_box[:, 1]
        draws = []
        for _ in range(samples):
            x = lo + (hi - lo) * rng.uniform(size=self.dim)
            direction = rng.normal(size=self.dim)
            direction /= np.linalg.norm(direction)
            mag = rng.uniform(self.v_min, 10.0)
            draws.append((x, mag * direction, mag))
        try:
            terms = [self._invariant_terms(draws)]
        except NumericalError:
            terms = []
            for x, v, mag in draws:
                try:
                    terms.append(self._invariant_terms([(x, v, mag)]))
                except NumericalError as exc:
                    terms.append(([], [], [], [], [(type(exc).__name__, x.tolist(),
                                                    v.tolist())]))
        hom, sym, euler, ratios, failures = (
            [e for t in terms for e in t[k]] for k in range(5))
        # left folds from the identity, as a per-sample running max/min
        worst_hom = max([0.0, *hom])
        worst_euler = max([0.0, *euler])
        worst_sym = max([0.0, *sym])
        min_eig_ratio = min([math.inf, *ratios])
        passed = (
            worst_hom <= 1e-9
            and worst_euler <= 1e-6
            and not failures
            and (self.pseudo or min_eig_ratio > 0)
        )
        return InvariantReport(
            kind=self.kind,
            samples=samples,
            seed=seed,
            max_homogeneity_error=worst_hom,
            max_euler_error=worst_euler,
            max_symmetry_error=worst_sym,
            min_eigenvalue_ratio=None if self.pseudo else min_eig_ratio,
            failures=failures,
            passed=passed,
        )

    def _invariant_terms(self, draws):
        """Per kept sample of draws (x, v, |v|): the homogeneity errors at
        HOMOGENEITY_FACTORS, the symmetry and Euler errors and the
        eigenvalue ratio of the fundamental tensor, and the definiteness
        failures.  A pseudo-metric skips samples near its null cone, where
        the homogeneity ratios blow up."""
        X = np.array([x for x, _, _ in draws]).reshape(-1, self.dim)
        V = np.array([v for _, v, _ in draws]).reshape(-1, self.dim)
        fv = self.F(X, V)
        keep = [not (self.pseudo and abs(f) < 1e-10 * mag**2)
                for f, (_, _, mag) in zip(fv, draws)]
        X, V, fv = X[keep], V[keep], fv[keep]
        deg = 2.0 if self.pseudo else 1.0
        hom = np.stack([np.abs(self.F(X, t * V) - t**deg * fv) / (t**deg * np.abs(fv))
                        for t in HOMOGENEITY_FACTORS], axis=-1)
        g = 0.5 * self.dvvL(X, V)
        gt = np.swapaxes(g, -1, -2)
        sym = np.max(np.abs(g - gt), axis=(-2, -1))
        gs = 0.5 * (g + gt)
        # v.gs.v per sample on fresh arrays: a stacked product would regroup
        # its sum, and on views of the stacks matmul can round differently
        euler = [abs(float(v @ s.copy() @ v) - f * f) / max(f * f, 1e-300)
                 for v, s, f in zip(V.tolist(), gs, fv)]
        ratios, failures = [], []
        if not self.pseudo:
            w = np.linalg.eigvalsh(gs)
            ratios = (w[:, 0] / np.maximum(np.abs(w[:, -1]), 1e-300)).tolist()
            failures = [("definiteness", x.tolist(), v.tolist())
                        for x, v, wi in zip(X, V, w) if wi[0] <= 0]
        return hom.ravel().tolist(), sym.tolist(), euler, ratios, failures


@dataclass
class InvariantReport:
    kind: str
    samples: int
    seed: int
    max_homogeneity_error: float
    max_euler_error: float
    max_symmetry_error: float
    min_eigenvalue_ratio: float | None
    failures: list = field(default_factory=list)
    passed: bool = False


# ---------------------------------------------------------------------------
# Factories


def euclidean(dim=2, **kw):
    comps = _ExprComponents(
        dim, _sym(dim, lambda i, j: _expr.ONE if i == j else _expr.ZERO)
    )
    return MetricField(dim, "euclidean", comps, **kw)


def sphere_stereo(curvature, dim=2, **kw):
    """Round sphere of constant curvature K in the stereographic chart.

    Conformal factor rho(x) = 4 / (K (1 + |x|^2)^2); the image of a great
    circle through the chart point (0, ..., -1) tangent to e1 is |x| = 1.
    """
    if curvature <= 0:
        raise ConfigError(f"curvature must be positive, got {curvature}")
    K = float(curvature)
    r2 = "+".join(f"x{k + 1}^2" for k in range(dim))
    rho = _expr.parse(f"4/(K*(1+{r2})^2)")
    h = _sym(dim, lambda i, j: rho if i == j else _expr.ZERO)
    comps = _ExprComponents(dim, h, params={"K": K})
    return MetricField(dim, "sphere_stereo", comps, **kw)


def _sym(dim, entry):
    """Symmetric matrix of ASTs from entry(i, j) evaluated for i <= j."""
    out = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            out[i][j] = out[j][i] = entry(i, j)
    return out


def _expr_matrix(dim, rows, what):
    """Parse a dim x dim matrix of expressions and symmetrize it, entry
    (i, j) = (rows[i][j] + rows[j][i]) / 2; equal entries stay as given."""
    if len(rows) != dim or any(len(r) != dim for r in rows):
        raise ConfigError(f"{what} must be a {dim}x{dim} matrix of expressions")
    g = [[_expr.parse(e) if isinstance(e, str) else e for e in row] for row in rows]
    return _sym(dim, lambda i, j: g[i][j] if g[i][j] == g[j][i]
                else 0.5 * (g[i][j] + g[j][i]))


def _expr_vector(dim, comps, what):
    if len(comps) != dim:
        raise ConfigError(f"{what} must have {dim} component expressions")
    return [_expr.parse(e) if isinstance(e, str) else e for e in comps]


def _from_exprs(dim, kind, h, beta=None, params=None, **kw):
    """MetricField over expression ASTs (h symmetric) with exact derivatives."""
    return MetricField(dim, kind, _ExprComponents(dim, h, beta, params), **kw)


def riemannian_expr(dim, g, params=None, **kw):
    return _from_exprs(dim, "riemannian_expr", _expr_matrix(dim, g, "g"),
                       params=params, **kw)


def quadratic_expr(dim, g, params=None, **kw):
    return _from_exprs(dim, "quadratic_expr", _expr_matrix(dim, g, "g"),
                       params=params, pseudo=True, **kw)


def _sample_points(box, n, seed):
    """The centre of the chart box and n seeded uniform points in it, as the
    rows of an (n + 1, dim) array."""
    box = np.asarray(box, dtype=float)
    lo, hi = box[:, 0], box[:, 1]
    u = np.random.default_rng(seed).uniform(size=(n, len(box)))
    return np.vstack([0.5 * (lo + hi), lo + (hi - lo) * u])


def _sampled_bound(pts, norm2, error, what):
    """sqrt of the largest squared norm over the sample points, NaN skipped;
    raises error, naming the first point that attains it, if it reaches 1."""
    norm2 = np.where(np.isnan(norm2), -math.inf, norm2)
    k = int(np.argmax(norm2))
    worst = max(float(norm2[k]), 0.0)
    if worst >= 1.0:
        raise error(f"{what} = {math.sqrt(worst):.6f} >= 1 near {pts[k]}")
    return math.sqrt(worst)


def _check_randers_bound(m):
    """Sample |beta|_h over the chart box; reject if it ever reaches 1."""
    pts = _sample_points(m.chart_box, RANDERS_CHECK_SAMPLES, RANDERS_CHECK_SEED)
    h, b = m._c.stack(pts, 0)
    try:
        s = np.linalg.solve(h, b[..., None])
    except np.linalg.LinAlgError:
        for x, hx, bx in zip(pts, h, b):
            try:
                np.linalg.solve(hx, bx)
            except np.linalg.LinAlgError:
                raise RandersBoundError(f"h singular at sampled point {x}") from None
        raise
    return _sampled_bound(pts, (b[:, None] @ s)[:, 0, 0], RandersBoundError,
                          "|beta|_h")


def randers_expr(dim, h, beta, params=None, **kw):
    return _from_exprs(dim, "randers", _expr_matrix(dim, h, "h"),
                       _expr_vector(dim, beta, "beta"), params, **kw)


def from_callables(dim, kind, h, beta=None, *, dh=None, d2h=None, dbeta=None,
                   d2beta=None, **kw):
    """Build a MetricField from closed-form component callables (library
    entry point).

    h(x) must return a symmetric matrix, dh(x) and d2h(x) its first and
    second chart derivatives with the derivative indices first (shapes
    (n, n, n) and (n, n, n, n), symmetric in the last two axes): the kernel
    reads the upper triangle.  With a one-form beta(x), dbeta(x) and
    d2beta(x) are required as well.  Frames and shooting differentiate the
    spray by the complex step, which reads second chart derivatives, so a
    missing callable raises ConfigError; riemannian_expr and randers_expr
    differentiate formulas exactly instead."""
    needed = {"dh": dh, "d2h": d2h}
    if beta is not None:
        needed.update(dbeta=dbeta, d2beta=d2beta)
    missing = [name for name, fn in needed.items() if fn is None]
    if missing:
        raise ConfigError(
            f"from_callables needs the derivative callables {', '.join(missing)}; "
            "riemannian_expr and randers_expr differentiate formulas exactly")
    fns = [f for f in (h, beta, dh, dbeta, d2h, d2beta) if f is not None]

    def compile(order, columns=False):
        cut = fns[:len(fns) // 3 * (order + 1)]  # per order, h then beta

        def bundle(x):
            x = np.asarray(x, dtype=float)
            return np.concatenate([np.asarray(f(x), float).ravel() for f in cut]).tolist()

        def over_columns(x):
            # the callables once per point
            width = len(_layout(dim, beta is not None, order))
            return np.array([bundle(p) for p in x.T.tolist()]).reshape(-1, width).T

        return (over_columns if columns else bundle), ()  # opaque: no structural zeros

    return MetricField(dim, kind, _Components(dim, beta is not None, compile, False), **kw)
