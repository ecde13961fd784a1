import dataclasses
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fbt import expr
from fbt.expr import DomainError, ExprSyntaxError, UnboundName
from fbt.metric import _ExprComponents

from _oracles import tree_eval


def evaluate(node, point, params=None):
    """The value of the AST at a chart point, by the compiled bundle."""
    point = np.asarray(point, dtype=float)
    return expr.bind(node, len(point), params)(point)


def ev(src, point=(0.0,), params=None):
    return evaluate(expr.parse(src), point, params)


class TestParse:
    def test_precedence(self):
        assert ev("2+3*4") == 14.0

    def test_coordinates(self):
        assert ev("x1^2 + x2^2", (3.0, 4.0)) == 25.0

    def test_functions_and_params(self):
        val = ev("sin(sqrt(lam)*x1)/sqrt(lam)", (math.pi / 2,), {"lam": 1.0})
        assert val == pytest.approx(1.0, abs=1e-15)

    def test_power_right_associative(self):
        assert ev("2^3^2") == 512.0

    def test_power_binds_tighter_than_unary_minus(self):
        assert ev("-2^2") == -4.0
        assert ev("2^-2") == 0.25
        two = expr.Num(2.0)
        assert expr.parse("-2^2") == expr.Unary(expr.Bin("^", two, two))
        assert expr.parse("2^-3") == expr.Bin("^", two, expr.Num(-3.0))

    def test_negated_literal_is_a_number(self):
        assert expr.parse("-0.3") == expr.Num(-0.3)
        assert expr.parse("--0.3") == expr.Num(0.3)
        assert expr.parse("x1*-1") == expr.Bin("*", expr.Name("x1"), expr.Num(-1.0))
        assert math.copysign(1.0, expr.parse("-0").value) == 1.0
        assert expr.parse("--x1") == expr.Unary(expr.Unary(expr.Name("x1")))

    def test_left_associativity(self):
        assert ev("6-2-1") == 3.0
        assert ev("12/3/2") == 2.0

    @pytest.mark.parametrize(
        "src",
        ["", "   ", "(1+2", "1+", "2*", "1)", "sin()", "sin(1", "1 2",
         "*3", "foo(2)", "1..2", "x1 +* x2", "()"],
    )
    def test_malformed_rejected_with_offset(self, src):
        with pytest.raises(ExprSyntaxError) as exc:
            expr.parse(src)
        assert isinstance(exc.value.offset, int)
        assert 0 <= exc.value.offset <= len(src)


class TestEval:
    def test_exp(self):
        assert ev("exp(-lam*x1^2/2)", (0.0,), {"lam": 3.0}) == 1.0

    def test_conformal_factor(self):
        assert ev("4/(K*(1+x1^2+x2^2)^2)", (0.0, 0.0), {"K": 1.0}) == 4.0

    def test_log_domain(self):
        with pytest.raises(DomainError):
            ev("log(x1)", (-1.0,))

    def test_sqrt_domain(self):
        with pytest.raises(DomainError):
            ev("sqrt(x1)", (-4.0,))

    def test_division_by_zero(self):
        with pytest.raises(DomainError):
            ev("1/x1", (0.0,))

    def test_unbound_parameter(self):
        with pytest.raises(UnboundName):
            ev("lam*x1", (1.0,))

    def test_coordinate_beyond_dim(self):
        with pytest.raises(UnboundName):
            ev("x3", (1.0, 2.0))

    def test_overflow_reported(self):
        with pytest.raises(DomainError):
            ev("exp(x1)", (1e6,))


# hypothesis: random ASTs round-trip through the printer

_leaf = st.one_of(
    st.floats(min_value=0.1, max_value=9.0).map(lambda v: expr.Num(round(v, 3))),
    st.sampled_from(["x1", "x2", "a", "b"]).map(expr.Name),
)


def _trees(depth):
    if depth == 0:
        return _leaf
    sub = _trees(depth - 1)
    return st.one_of(
        _leaf,
        st.tuples(st.sampled_from("+-*/"), sub, sub).map(
            lambda t: expr.Bin(t[0], t[1], t[2])
        ),
        sub.map(expr.Unary),
        st.tuples(st.sampled_from(["sin", "cos", "tanh", "exp"]), sub).map(
            lambda t: expr.Call(t[0], t[1])
        ),
    )


@settings(max_examples=120, deadline=None)
@given(tree=_trees(4), x1=st.floats(0.2, 2.0), x2=st.floats(0.2, 2.0))
def test_print_parse_round_trip(tree, x1, x2):
    params = {"a": 1.7, "b": 0.3}
    src = expr.to_source(tree)
    reparsed = expr.parse(src)
    try:
        want = evaluate(tree, (x1, x2), params)
    except DomainError:
        return
    got = evaluate(reparsed, (x1, x2), params)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# Exact derivatives of compiled bundles

# every grammar function, constant and coordinate-dependent exponents,
# parameters and nested calls; all defined for x1 in [0.3, 1.5], x2 in [0.2, 1.2]
DERIV_CASES = [
    "sin(x1)*cos(x2)",
    "tan(0.3*x1 + 0.1*x2)",
    "exp(-lam*x2^2)",
    "log(2 + x1^2 + x2)",
    "sqrt(3 + x1*x2)",
    "sinh(x1)/cosh(x2)",
    "tanh(x1 - x2)",
    "atan(x1*x2)",
    "abs(x1 - 0.05)*x2 - abs(0.1 - x2)",
    "x1^x2",
    "2^(x1*x2)",
    "(1 + x1^2)^(-lam/2)",
    "(x1^2 + 1)^2.5",
    "4/(K*(1+x1^2+x2^2)^2)",
    "-x1^3 + x2/x1",
    "exp(sin(sqrt(1 + x1^2)))*log(cosh(x2) + 1)",
]
PARAMS = {"lam": 1.3, "K": 0.7}


def _to_sympy(node, sp, syms):
    if isinstance(node, expr.Num):
        return sp.Rational(node.value)
    if isinstance(node, expr.Name):
        if node.ident in syms:
            return syms[node.ident]
        return sp.Rational(PARAMS[node.ident])
    if isinstance(node, expr.Unary):
        return -_to_sympy(node.arg, sp, syms)
    if isinstance(node, expr.Call):
        fn = sp.Abs if node.fn == "abs" else getattr(sp, node.fn)
        return fn(_to_sympy(node.arg, sp, syms))
    a, b = _to_sympy(node.lhs, sp, syms), _to_sympy(node.rhs, sp, syms)
    return {"+": a + b, "-": a - b, "*": a * b, "/": a / b, "^": a**b}[node.op]


@pytest.mark.parametrize("chunk", range(4))
def test_component_derivatives_match_sympy(chunk):
    sp = pytest.importorskip("sympy")
    srcs = [DERIV_CASES[(5 * chunk + i) % len(DERIV_CASES)] for i in range(5)]
    h = [[srcs[0], srcs[1]], [srcs[2], srcs[3]]]
    beta = [srcs[4], srcs[0]]
    comps = _ExprComponents(2, [[expr.parse(e) for e in row] for row in h],
                            [expr.parse(e) for e in beta], PARAMS)
    syms = {"x1": sp.Symbol("x1", real=True), "x2": sp.Symbol("x2", real=True)}
    xs = [syms["x1"], syms["x2"]]
    rng = np.random.default_rng(100 + chunk)
    for _ in range(3):
        x = np.array([rng.uniform(0.3, 1.5), rng.uniform(0.2, 1.2)])
        hx, bx, dh, dbeta, d2h, d2beta = comps.stack(x, 2)
        subs = {syms["x1"]: sp.Rational(x[0]), syms["x2"]: sp.Rational(x[1])}
        entries = [(e, hx[i, j], dh[:, i, j], d2h[:, :, i, j])
                   for i, row in enumerate(h) for j, e in enumerate(row)]
        entries += [(e, bx[i], dbeta[:, i], d2beta[:, :, i])
                    for i, e in enumerate(beta)]
        for src, val, grad, hess in entries:
            f = _to_sympy(expr.parse(src), sp, syms)
            want = [float(f.evalf(30, subs=subs))]
            got = [val]
            for k in range(2):
                fk = sp.diff(f, xs[k])
                want.append(float(fk.evalf(30, subs=subs)))
                got.append(grad[k])
                for l in range(2):
                    want.append(float(sp.diff(fk, xs[l]).evalf(30, subs=subs)))
                    got.append(hess[k, l])
            assert got == pytest.approx(want, rel=1e-12, abs=1e-14), src



def _deriv_trees(depth):
    if depth == 0:
        return _leaf
    sub = _deriv_trees(depth - 1)
    return st.one_of(
        _leaf,
        st.tuples(st.sampled_from("+-*/^"), sub, sub).map(
            lambda t: expr.Bin(t[0], t[1], t[2])
        ),
        sub.map(expr.Unary),
        st.tuples(st.sampled_from(expr.FUNCTIONS), sub).map(
            lambda t: expr.Call(t[0], t[1])
        ),
    )


def _tree_or_error(node, point, params):
    try:
        val = tree_eval(node, point, params)
    except (ValueError, OverflowError, ZeroDivisionError):
        return None
    return val if math.isfinite(val) else None


def _perturbed(node):
    """The tree with every number outside an exponent scaled by 1.001."""
    if isinstance(node, expr.Num):
        return expr.Num(node.value * 1.001)
    if isinstance(node, (expr.Unary, expr.Call)):
        return dataclasses.replace(node, arg=_perturbed(node.arg))
    if isinstance(node, expr.Bin):
        return expr.Bin(node.op, _perturbed(node.lhs),
                        node.rhs if node.op == "^" else _perturbed(node.rhs))
    return node


def _skeleton(nodes):
    """The trees with each number replaced by the rank of its bits among
    the numbers in order of appearance: what the trees share when they
    differ only in their numbers."""
    numbers = {}

    def walk(node):
        if isinstance(node, expr.Num):
            return numbers.setdefault(node.value.hex(), len(numbers))
        if isinstance(node, expr.Name):
            return node.ident
        if isinstance(node, (expr.Unary, expr.Call)):
            return (getattr(node, "fn", "-"), walk(node.arg))
        return (node.op, walk(node.lhs), walk(node.rhs))

    return [walk(e) for e in nodes]


def _hex(value):
    return None if value is None else value.hex()


def _jet_nodes(tree):
    return [tree, expr.diff(tree, "x1"), expr.diff(tree, "x2")]


def _assert_bits_equal_tree_walk(tree, point, params):
    want = [_tree_or_error(e, point, params) for e in _jet_nodes(tree)]
    run, value = expr.jet([[tree]], 2, params, order=1), expr.bind(tree, 2, params)
    try:
        val, grad = run(point)
    except DomainError:
        assert None in want
        return
    got = [val[0], grad[0, 0], grad[1, 0]]
    assert [g.hex() for g in got] == [w.hex() for w in want]
    assert value(point).hex() == want[0].hex()


@settings(max_examples=200, deadline=None)
@given(tree=_deriv_trees(3), x1=st.floats(-2.0, 2.0), x2=st.floats(0.2, 2.0))
def test_compiled_bits_equal_tree_walk(tree, x1, x2):
    """Values and first derivatives from one compiled bundle equal, bit for
    bit, a node-by-node evaluation of the AST and of its derivative ASTs;
    wherever that evaluation fails or is not finite, the bundle raises
    DomainError.  The same tree with other numbers outside its exponents
    does too, and when its derivatives keep their structure it compiles
    nothing new: it reuses the first tree's shapes."""
    params = {"a": 1.7, "b": 0.3}
    point = np.array([x1, x2])
    _assert_bits_equal_tree_walk(tree, point, params)
    other = _perturbed(tree)
    # a folded number that lands on 0 or 1 can drop a term from one tree only
    assume(_skeleton(_jet_nodes(other)) == _skeleton(_jet_nodes(tree)))
    misses = expr._shape.cache_info().misses
    _assert_bits_equal_tree_walk(other, point, params)
    assert expr._shape.cache_info().misses == misses


def _a_zeroed(node):
    """The tree with ZERO for the parameter a, rebuilt through the folding
    constructors, so the terms a annihilates drop out and the numbers
    around them fold."""
    if isinstance(node, expr.Name):
        return expr.ZERO if node.ident == "a" else node
    if isinstance(node, expr.Unary):
        return -_a_zeroed(node.arg)
    if isinstance(node, expr.Call):
        return expr._call(node.fn, _a_zeroed(node.arg))
    if isinstance(node, expr.Bin):
        return expr._bin(node.op, _a_zeroed(node.lhs), _a_zeroed(node.rhs))
    return node


@settings(max_examples=200, deadline=None)
@given(tree=_deriv_trees(3), x1=st.floats(-2.0, 2.0), x2=st.floats(0.2, 2.0))
def test_derivative_print_parse_round_trip(tree, x1, x2):
    """parse(to_source(d)) evaluates like d, bit for bit, on derivative
    trees, and on them with the parameter a set to zero, whose folded
    numbers may be negative (a base among them).  (Derivatives of abs hold
    sign, which the grammar does not have.)"""
    params = {"a": 1.7, "b": 0.3}
    derivs = _jet_nodes(tree)[1:]
    for d in derivs + [_a_zeroed(d) for d in derivs]:
        src = expr.to_source(d)
        if "sign(" in src:
            continue
        want, got = (_tree_or_error(e, (x1, x2), params) for e in (d, expr.parse(src)))
        assert _hex(got) == _hex(want), src


@pytest.mark.parametrize("node", [
    expr.Bin("^", expr.Num(-0.5), expr.Num(2.0)),   # not -(0.5 ^ 2.0)
    expr.Bin("^", expr.Num(-0.0), expr.Num(2.0)),
    expr.Num(math.inf),                             # not a parameter named inf
    expr.Bin("*", expr.Num(-math.inf), expr.Name("x1")),
])
def test_print_parse_keeps_negative_bases_and_infinities(node):
    want = tree_eval(node, [2.0])
    assert tree_eval(expr.parse(expr.to_source(node)), [2.0]).hex() == want.hex()


@pytest.mark.parametrize("src, point, order", [
    ("sqrt(x1)", [0.0], 1),          # value 0, derivative 1/(2*0)
    ("x1^0.5", [0.0], 1),            # power rule: 0^-0.5
    ("x1^x2", [-2.0, 2.0], 1),       # d/dx2 needs log(-2)
    ("1e307*x1^10", [1.0], 2),       # second derivative overflows to inf
    ("abs(x1)*log(x1 + 1)", [-1.0], 0),
])
def test_domain_violation_in_value_or_derivative(src, point, order):
    if order > 0:
        # the value (and lower orders) still evaluate
        expr.jet([[src]], len(point), order=order - 1)(np.array(point))
    with pytest.raises(DomainError):
        expr.jet([[src]], len(point), order=order)(np.array(point))


def test_import_does_not_load_sympy():
    src_dir = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "src")
    code = "import sys, fbt; print('sympy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src_dir})
    assert out.stdout.strip() == "False"


def test_diff_chains_through_names():
    # a and b stand for functions of t with derivatives 2*t and cos(t)
    e = expr.parse("a*b + sqrt(a)")
    d = expr._diff(e, "t", {}, {"a": expr.parse("2*t"), "b": expr.parse("cos(t)")})
    a, b, t = 1.7, 0.4, 0.3
    want = 2 * t * b + a * math.cos(t) + 2 * t / (2 * math.sqrt(a))
    assert ev(expr.to_source(d), params={"a": a, "b": b, "t": t}) == pytest.approx(want, rel=1e-15)
    assert expr.diff(e, "t") == expr.ZERO


# every grammar function (sign through the derivatives of abs), division,
# and ^ with integer, non-integer and coordinate exponents
_COLUMN_CATALOG = (
    ("sin(x1)*cos(x2) - tan(x1/3)", "exp(x1) + exp(-x2^2)/K",
     "log(2+x1)*sqrt(3+x2)", "sinh(x1) - cosh(x2) + tanh(x1*x2)"),
    ("atan(x2)*abs(x1-0.1) + abs(-x1)", "x1^2 + x2^3 + (2+x1)^2.5 + (3+x2)^x1",
     "K/(1+x1^2) + 2^x2", "K"),
)


def _column_bundles(order, sources=_COLUMN_CATALOG, dim=2):
    groups = tuple(tuple(expr.parse(e) for e in g) for g in sources)
    return [expr._bound(groups, dim, {"K": 1.7}, order, columns=c)[0]
            for c in (False, True)]


class TestColumnBundle:
    """The bundle over columns gives each point's bits and errors: the
    bundle over one point, run on each row alone."""

    # the origin first: there -x1 is -0.0, whose sign is 0.0
    points = np.vstack([np.zeros(2),
                        np.random.default_rng(33).uniform(-1.0, 1.0, size=(255, 2))])

    def test_exp_differs_from_numpy_somewhere(self):
        # so the parity below would catch a bundle that used np.exp
        a = self.points[:, 0]
        assert np.any(np.exp(a) != np.array([math.exp(t) for t in a.tolist()]))

    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("count", [0, 1, 256])
    def test_stack_equals_each_point(self, order, count):
        point, columns = _column_bundles(order)
        X = self.points[:count]
        got = expr._stacked(columns(X.T), count)
        width = len(point(self.points[0].tolist()))
        want = np.array([point(x) for x in X.tolist()]).reshape(count, width).T
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_empty_stack_evaluates_nothing(self):
        # log(0-1) is left unfolded: every point fails, a stack of none not
        import fbt

        point, columns = _column_bundles(0, (("log(0-1)*x1", "x1"),), dim=1)
        with pytest.raises(DomainError):
            point([0.5])
        assert [c.shape for c in columns(np.zeros((1, 0)))] == [(0,), (0,)]
        m = fbt.riemannian_expr(2, [["log(0-1)", "0"], ["0", "1"]])
        assert m.F(np.zeros((0, 2)), np.zeros((0, 2))).shape == (0,)

    def test_sign_maps_nan_and_zeros_to_zero(self):
        a = np.array([math.nan, 0.0, -0.0, 2.0, -3.0, math.inf])
        want = np.array([expr._sign(t) for t in a.tolist()])
        assert expr._sign_column(a).tobytes() == want.tobytes()

    def test_sign_and_integer_powers_are_reached(self):
        src = "\n".join(expr._column_lines(expr._generate(
            tuple(tuple(expr.parse(e) for e in g) for g in _COLUMN_CATALOG), 2, 2).shape.ops)[0])
        for code in ("_sign_column(", "_pow_columns(", "_divisor(", "_sqrt_column(",
                     *(f"_map(_{fn}," for fn in expr.FUNCTIONS if fn not in ("sqrt", "abs"))):
            assert code in src, code

    @pytest.mark.parametrize("src, bad", [
        ("log(x1)", -1.0),
        ("sqrt(x1)", -1.0),
        ("1/x1", 0.0),
        ("1/x1", -0.0),
        ("exp(x1)", 1000.0),
        ("x1^1.5", -1.0),
        ("x1*1e308*10", 1.0),
    ])
    @pytest.mark.parametrize("order", [0, 1])
    def test_bad_row_raises_as_alone(self, src, bad, order):
        point, columns = _column_bundles(order, ((src,),), dim=1)
        X = np.array([[0.5], [1.5], [bad], [0.7]])
        with pytest.raises(DomainError) as alone:
            point([bad])
        with pytest.raises(DomainError) as stacked:
            columns(X.T)
        assert str(stacked.value) == str(alone.value)
        with pytest.raises(DomainError) as jet:
            expr.jet([[src]], 1, order=order)(X)
        assert str(jet.value) == str(alone.value)

    def test_second_stacked_call_skips_the_cache(self):
        import fbt

        m = fbt.randers_expr(2, [["exp(-x2^2)", "0"], ["0", "1"]],
                             ["0.2*exp(-x2^2)", "0"])
        X, V = self.points[:9], self.points[9:18] + [2.0, 0.0]
        first = m.second_derivatives(X, V)
        info = expr._generate.cache_info()
        again = m.second_derivatives(X, V)
        m._c.stack(X, 2)
        assert expr._generate.cache_info()[:2] == info[:2]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(first, again))

    def test_overflow_raises_as_alone_with_warnings_as_errors(self):
        # numpy warns on an overflow where a float is silent; the stacked
        # evaluators raise the lone row's DomainError, not the warning
        import fbt

        X = np.array([[0.5], [1.5], [1.0], [0.7]])
        cases = [("x1*1e308*10", 0, X), ("x1*1e308*10", 1, X), ("1e307*x1^10", 2, X[2:])]
        m = fbt.riemannian_expr(1, [["1e307*x1^10"]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for src, order, rows in cases:
                point, columns = _column_bundles(order, ((src,),), dim=1)
                with pytest.raises(DomainError) as alone:
                    point([1.0])
                for stacked in (lambda: columns(rows.T),
                                lambda: expr.jet([[src]], 1, order=order)(rows)):
                    with pytest.raises(DomainError) as got:
                        stacked()
                    assert str(got.value) == str(alone.value)
            with pytest.raises(DomainError) as alone:
                m.second_derivatives(X[2], X[2])
            with pytest.raises(DomainError) as got:
                m.second_derivatives(X, np.ones_like(X))
            assert str(got.value) == str(alone.value)
            # the stack kernel overflows to inf as each state alone does
            m, V = fbt.riemannian_expr(1, [["1+x1^2"]]), np.full_like(X, 1e155)
            assert m.L(X, V).tolist() == [m.L(x, v) for x, v in zip(X, V)] == [math.inf] * 4


class TestSharedShapes:
    """Numbers are bound values of a compiled shape: bundles that differ
    only in their numbers share one compile, and keep their own bits."""

    def test_one_zero(self):
        # an AST has one zero: -ZERO is ZERO, so the bundles of the two
        # groups, one cache entry, give the same zero
        x1 = expr.Name("x1")
        for zero in (-expr.ZERO, expr.ZERO):
            val, grad = expr.jet([[zero, x1]], 1, order=1)([0.5])
            assert val.tobytes() == np.array([0.0, 0.5]).tobytes()
            assert grad.tobytes() == np.array([[0.0, 1.0]]).tobytes()
        assert math.copysign(1.0, expr.Num(-0.0).value) == 1.0

    def test_wind_sign_adds_no_shape(self):
        # a negated literal is a number: constant winds that differ only in
        # the sign of a component compile one shape
        import fbt.nav as nav

        X = np.array([[0.1, -0.2], [0.3, 0.4]])

        def build(wind):
            z = nav.ZermeloData.from_exprs(2, [["1", "0"], ["0", "1"]], [wind, "0"])
            m = nav.zermelo_to_randers(z)
            for order in range(3):
                m._c.bundle(order)(X[0])
                m._c.columns(X, order)

        build("0.3")
        misses = expr._shape.cache_info().misses
        build("-0.3")
        assert expr._shape.cache_info().misses == misses

    def test_family_members_compile_once(self, monkeypatch):
        # warped and Randers members built as perfbench builds them: the
        # drawn numbers are written into the expressions
        import fbt

        compiles = []
        monkeypatch.setattr(expr, "compile", lambda *a: compiles.append(a) or compile(*a),
                            raising=False)
        rng = np.random.default_rng(35)
        X = rng.uniform(-1.0, 1.0, size=(5, 2))
        seen = []
        for member in range(20):
            c, b, lam = rng.uniform(0.75, 1.25), rng.uniform(0.1, 0.3), rng.uniform(1.0, 3.0)
            h = [[f"exp(-lam*{c!r}*x2^2)", "0"], ["0", "1"]]
            beta = [f"{b!r}*exp(-lam*{c!r}*x2^2)", "0"]
            for m in (fbt.riemannian_expr(2, h, {"lam": lam}),
                      fbt.randers_expr(2, h, beta, {"lam": lam})):
                for order in range(3):
                    m._c.bundle(order)(X[0])
                    m._c.columns(X, order)
            seen.append((len(compiles), expr._shape.cache_info().misses))
        assert seen[1:] == seen[:1] * 19
