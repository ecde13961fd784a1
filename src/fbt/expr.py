"""Small arithmetic expression language for metric components.

Metric tensors, one-forms, wind fields and conformal factors are supplied in
config files as strings like ``"4/(K*(1+x1^2+x2^2)^2)"``.  This module parses
them into immutable ASTs, differentiates the ASTs symbolically, and compiles
bundles of expressions together with their chart derivatives into
straight-line Python functions.  A bundle's emitted operations are compiled
twice: over the floats of one point, and (on first use) over the numpy
columns of a stack of points, run once for the whole stack.  Over columns,
arithmetic and sqrt are numpy's IEEE operations and every other function
and ``^`` calls the same math function per element, so a stack gives each
point's bits and raises each point's errors.  Numbers are bound values of
the compiled shape, not text in its source, so bundles that differ only in
their numbers share one compile.

Grammar (recursive descent, see docs/expression-grammar.md)::

    expr   := term  (('+' | '-') term)*          left associative
    term   := unary (('*' | '/') unary)*         left associative
    unary  := '-' unary | power
    power  := atom ('^' unary)?                  right associative
    atom   := NUMBER | NAME | NAME '(' expr ')' | '(' expr ')'

Precedence: ``^``  >  unary ``-``  >  ``* /``  >  ``+ -``.

Names of the form ``x1 .. xn`` are chart coordinates; every other name is a
parameter bound at evaluation time.  Known functions: sin cos tan exp log
sqrt sinh cosh tanh atan abs.  Domain violations (sqrt of a negative, log of
a non-positive, division by zero, overflow) raise DomainError; an expression
never silently returns NaN or infinity.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, NumericalError

__all__ = [
    "Expression",
    "ExprSyntaxError",
    "UnboundName",
    "DomainError",
    "parse",
    "to_source",
    "bind",
    "jet",
    "diff",
    "coordinates",
    "FUNCTIONS",
]

FUNCTIONS = (
    "sin", "cos", "tan", "exp", "log", "sqrt",
    "sinh", "cosh", "tanh", "atan", "abs",
)

_COORD_RE = re.compile(r"x([1-9][0-9]*)\Z")


class ExprSyntaxError(ConfigError):
    """Malformed source text; ``offset`` is the byte offset of the problem."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnboundName(ConfigError):
    def __init__(self, name):
        super().__init__(f"unbound name '{name}'")
        self.name = name


class DomainError(NumericalError):
    pass


# ---------------------------------------------------------------------------
# AST


class _Node:
    """Arithmetic on ASTs builds new ASTs, folding constants and the
    identities x+0, x*1, x*0, x/1, x^1, x^0 and --x."""

    __slots__ = ()

    def __add__(self, other):
        return _bin("+", self, other)

    def __radd__(self, other):
        return _bin("+", other, self)

    def __sub__(self, other):
        return _bin("-", self, other)

    def __rsub__(self, other):
        return _bin("-", other, self)

    def __mul__(self, other):
        return _bin("*", self, other)

    def __rmul__(self, other):
        return _bin("*", other, self)

    def __truediv__(self, other):
        return _bin("/", self, other)

    def __pow__(self, other):
        return _bin("^", self, other)

    def __neg__(self):
        if isinstance(self, Unary):
            return self.arg
        return _fold(Unary(self))


@dataclass(frozen=True)
class Num(_Node):
    value: float

    def __post_init__(self):
        # an AST has one zero: -0.0 + 0.0 is 0.0
        object.__setattr__(self, "value", self.value + 0.0)


@dataclass(frozen=True)
class Name(_Node):
    ident: str


@dataclass(frozen=True)
class Unary(_Node):
    arg: "Expression"


@dataclass(frozen=True)
class Bin(_Node):
    op: str
    lhs: "Expression"
    rhs: "Expression"


@dataclass(frozen=True)
class Call(_Node):
    fn: str
    arg: "Expression"


Expression = Num | Name | Unary | Bin | Call


# ---------------------------------------------------------------------------
# Tokenizer

_TOKEN_RE = re.compile(
    r"""
    (?P<num>    (?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)? )
  | (?P<name>   [A-Za-z_][A-Za-z0-9_]* )
  | (?P<op>     [-+*/^()] )
  | (?P<ws>     \s+ )
    """,
    re.VERBOSE,
)


def _tokenize(source):
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {source[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("eof", "", len(source)))
    return tokens


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, source):
        self.source = source
        self.tokens = _tokenize(source)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, text, off = self.peek()
        if kind != "op" or text != op:
            raise ExprSyntaxError(f"expected '{op}', found {text or 'end of input'!r}", off)
        return self.advance()

    def parse(self):
        node = self.expr()
        kind, text, off = self.peek()
        if kind != "eof":
            raise ExprSyntaxError(f"trailing input {text!r}", off)
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                node = Bin(text, node, self.term())
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                node = Bin(text, node, self.unary())
            else:
                return node

    def unary(self):
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            arg = self.unary()
            # a negated literal is a number, so numbers of either sign
            # emit the same shape; --x stays as it is written
            return Num(-arg.value) if isinstance(arg, Num) else Unary(arg)
        return self.power()

    def power(self):
        base = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            return Bin("^", base, self.unary())
        return base

    def atom(self):
        kind, text, off = self.advance()
        if kind == "num":
            return Num(float(text))
        if kind == "name":
            nkind, ntext, _ = self.peek()
            if nkind == "op" and ntext == "(":
                if text not in FUNCTIONS:
                    raise ExprSyntaxError(f"unknown function '{text}'", off)
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return Call(text, arg)
            return Name(text)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(
            f"expected a value, found {text or 'end of input'!r}", off
        )


def parse(source):
    """Parse source text into an Expression AST."""
    if not isinstance(source, str) or not source.strip():
        raise ExprSyntaxError("empty expression", 0)
    return _Parser(source).parse()


# ---------------------------------------------------------------------------
# Printing

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _prec(node):
    if isinstance(node, Bin):
        return _PREC[node.op]
    # a negative number reads back as a negation
    if isinstance(node, Unary) or (isinstance(node, Num) and node.value < 0.0):
        return _PREC["neg"]
    return 9


def to_source(node):
    """Render an AST back to parseable text; parse(to_source(e)) evaluates like e.
    (The sign function of abs's derivatives renders, but is not in the grammar.)"""
    if isinstance(node, Num):
        if math.isfinite(node.value):
            return repr(node.value)
        return "1e999" if node.value > 0.0 else "-1e999"  # read back as inf
    if isinstance(node, Name):
        return node.ident
    if isinstance(node, Unary):
        inner = to_source(node.arg)
        if _prec(node.arg) < _PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, Call):
        return f"{node.fn}({to_source(node.arg)})"
    if isinstance(node, Bin):
        p = _PREC[node.op]
        ls, rs = to_source(node.lhs), to_source(node.rhs)
        if node.op == "^":
            # right associative; parenthesize a compound base
            if _prec(node.lhs) <= p:
                ls = f"({ls})"
            if _prec(node.rhs) < _PREC["neg"]:
                rs = f"({rs})"
        else:
            if _prec(node.lhs) < p:
                ls = f"({ls})"
            # the parser groups to the left, and float operations do not
            # associate: a * (b / c) is not (a * b) / c bit for bit
            if _prec(node.rhs) <= p:
                rs = f"({rs})"
        return f"{ls} {node.op} {rs}"
    raise TypeError(f"not an expression node: {node!r}")


# ---------------------------------------------------------------------------
# Names


def _collect_names(node, out):
    if isinstance(node, Name):
        out.add(node.ident)
    elif isinstance(node, Unary):
        _collect_names(node.arg, out)
    elif isinstance(node, Call):
        _collect_names(node.arg, out)
    elif isinstance(node, Bin):
        _collect_names(node.lhs, out)
        _collect_names(node.rhs, out)


def names(node):
    """All free names (coordinates and parameters) occurring in the AST."""
    out = set()
    _collect_names(node, out)
    return out


def coordinates(node):
    """1-based indices k of the chart coordinates xk occurring in the AST."""
    return {int(m.group(1)) for m in map(_COORD_RE.match, names(node)) if m}


# ---------------------------------------------------------------------------
# Folding constructors and symbolic differentiation


def _sign(a):
    return 1.0 if a > 0.0 else -1.0 if a < 0.0 else 0.0


# value semantics shared by constant folding; the generated code calls the
# same functions (sqrt and log signal a domain error by ValueError)
_FN_IMPL = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "sinh": math.sinh,
    "cosh": math.cosh,
    "tanh": math.tanh,
    "atan": math.atan,
    "abs": abs,
    "sign": _sign,  # internal: appears only in derivatives of abs
}

_BIN_IMPL = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "^": math.pow,
}

_EVAL_ERRORS = (ValueError, OverflowError, ZeroDivisionError)

ZERO = Num(0.0)
ONE = Num(1.0)


def _lift(value):
    if isinstance(value, _Node):
        return value
    if isinstance(value, (int, float)):
        return Num(float(value))
    raise TypeError(f"not an expression node: {value!r}")


def _fold(node):
    """Replace an operation on constants by its value when that is finite."""
    try:
        if isinstance(node, Unary) and isinstance(node.arg, Num):
            val = -node.arg.value
        elif (isinstance(node, Bin) and isinstance(node.lhs, Num)
              and isinstance(node.rhs, Num)):
            val = _BIN_IMPL[node.op](node.lhs.value, node.rhs.value)
        elif isinstance(node, Call) and isinstance(node.arg, Num):
            val = _FN_IMPL[node.fn](node.arg.value)
        else:
            return node
    except _EVAL_ERRORS:
        return node
    return Num(val) if math.isfinite(val) else node


def _bin(op, lhs, rhs):
    lhs, rhs = _lift(lhs), _lift(rhs)
    if op == "+":
        if lhs == ZERO:
            return rhs
        if rhs == ZERO:
            return lhs
    elif op == "-":
        if rhs == ZERO:
            return lhs
        if lhs == ZERO:
            return -rhs
    elif op == "*":
        if lhs == ZERO or rhs == ZERO:
            return ZERO
        if lhs == ONE:
            return rhs
        if rhs == ONE:
            return lhs
    elif op == "/":
        if lhs == ZERO:
            return ZERO
        if rhs == ONE:
            return lhs
    elif op == "^":
        if rhs == ONE:
            return lhs
        if rhs == ZERO:
            return ONE
    return _fold(Bin(op, lhs, rhs))


def _call(fn, arg):
    """The AST fn(arg), folded when arg is a constant."""
    return _fold(Call(fn, _lift(arg)))


# d fn(a) = _CHAIN[fn](fn(a), a, da)
_CHAIN = {
    "sin": lambda f, a, da: _call("cos", a) * da,
    "cos": lambda f, a, da: -_call("sin", a) * da,
    "tan": lambda f, a, da: (1.0 + f * f) * da,
    "exp": lambda f, a, da: f * da,
    "log": lambda f, a, da: da / a,
    "sqrt": lambda f, a, da: da / (2.0 * f),
    "sinh": lambda f, a, da: _call("cosh", a) * da,
    "cosh": lambda f, a, da: _call("sinh", a) * da,
    "tanh": lambda f, a, da: (1.0 - f * f) * da,
    "atan": lambda f, a, da: da / (1.0 + a * a),
    "abs": lambda f, a, da: _call("sign", a) * da,
    "sign": lambda f, a, da: ZERO,
}


def diff(node, ident, memo=None):
    """Symbolic derivative of the AST with respect to the name ident.

    Forward-mode chain rule over the node types.  ``a^b`` takes the power
    rule ``b*a^(b-1)*da`` when b does not depend on ident and the general
    rule ``a^b*(db*log(a) + b*da/a)`` otherwise.  The derivative of abs is
    ``sign`` (0 at 0), whose own derivative is 0.  ``memo`` caches results
    per node for repeated differentiation by the same name.
    """
    return _diff(node, ident, {} if memo is None else memo, {})


def _diff(node, ident, memo, chain):
    """diff, where chain maps other names to their own derivatives (ASTs):
    names that stand for functions of ident.  Names it does not list are
    constants."""
    got = memo.get(node)
    if got is not None:
        return got
    if isinstance(node, Num):
        out = ZERO
    elif isinstance(node, Name):
        out = ONE if node.ident == ident else chain.get(node.ident, ZERO)
    elif isinstance(node, Unary):
        out = -_diff(node.arg, ident, memo, chain)
    elif isinstance(node, Call):
        da = _diff(node.arg, ident, memo, chain)
        out = ZERO if da == ZERO else _CHAIN[node.fn](node, node.arg, da)
    elif isinstance(node, Bin):
        a, b = node.lhs, node.rhs
        da, db = _diff(a, ident, memo, chain), _diff(b, ident, memo, chain)
        if node.op == "+":
            out = da + db
        elif node.op == "-":
            out = da - db
        elif node.op == "*":
            out = da * b + a * db
        elif node.op == "/":
            out = (da - node * db) / b
        elif db == ZERO:
            out = ZERO if da == ZERO else b * a ** (b - 1.0) * da
        else:
            out = node * (db * _call("log", a) + b * da / a)
    else:
        raise TypeError(f"not an expression node: {node!r}")
    memo[node] = out
    return out


# ---------------------------------------------------------------------------
# Code generation: one straight-line function per bundle of expressions

_NAMESPACE = {"_" + fn: impl for fn, impl in _FN_IMPL.items()}
_NAMESPACE.update(_pow=math.pow, _isfinite=math.isfinite)


class _Emitter:
    """Emits one assignment per distinct subexpression, operands first, so
    the operations run in the order a depth-first evaluation takes them.
    ``lines`` holds them as source over one point; ``ops`` as lines of
    space-separated fields (name, operation, operands; no field holds a
    space), for _point_lines and _column_lines to render.

    Every number is a slot, a variable s<k> the surrounding code binds:
    ``slots`` maps each distinct number (an AST has one zero) to its slot,
    so trees that differ only in their numbers emit the same text.  In
    placeholder mode (``placeholders=True``) numbers are literals, and
    every name is a variable the surrounding code binds, emitted as itself
    and collected in ``params``; no name is a chart coordinate."""

    def __init__(self, dim, placeholders=False):
        self.dim = dim
        self.lines = []
        self.ops = []
        self.memo = {}
        self.params = set()
        self.slots = {}
        self.placeholders = placeholders

    def __call__(self, node):
        if isinstance(node, Num) and self.placeholders:
            return repr(node.value) if node.value >= 0.0 else f"({node.value!r})"
        if isinstance(node, Num):
            return self.slots.setdefault(node.value, f"s{len(self.slots)}")
        got = self.memo.get(node)
        if got is not None:
            return got
        if isinstance(node, Name) and self.placeholders:
            self.params.add(node.ident)
            self.memo[node] = node.ident
            return node.ident
        if isinstance(node, Name):
            m = _COORD_RE.match(node.ident)
            if not m:
                self.params.add(node.ident)
                self.memo[node] = "p_" + node.ident
                return self.memo[node]
            k = int(m.group(1))
            if k > self.dim:
                raise UnboundName(node.ident)
            op, args = "x", (k - 1,)
        elif isinstance(node, Unary):
            op, args = "neg", (self(node.arg),)
        elif isinstance(node, Call):
            op, args = node.fn, (self(node.arg),)
        elif isinstance(node, Bin):
            op, args = node.op, (self(node.lhs), self(node.rhs))
        else:
            raise TypeError(f"not an expression node: {node!r}")
        name = f"_t{len(self.lines)}"
        self.ops.append(" ".join((name, op, *map(str, args))))
        self.lines.append(f"{name} = {_point_code(op, args)}")
        self.memo[node] = name
        return name


def _point_code(op, args):
    """The code of an emitted operation on floats."""
    if op == "x":
        return f"float(x[{args[0]}])"
    if op == "neg":
        return f"-{args[0]}"
    if op == "^":
        return f"_pow({args[0]}, {args[1]})"
    if len(args) == 1:
        return f"_{op}({args[0]})"
    return f"{args[0]} {op} {args[1]}"


def _point_lines(ops):
    """The emitted operations (the lines of ops) over the floats of one point."""
    return [f"{name} = {_point_code(op, args)}"
            for name, op, *args in map(str.split, ops.splitlines())]


def _column_lines(ops):
    """The emitted operations (the lines of ops) over columns, and the
    names holding columns.

    x is the (n, N) array of N points' coordinates, so x[k] is the column
    of coordinate k; an operation on floats alone stays as it is.  Every
    other one does per element what its point code does, with the same
    bits and errors: + - * and sqrt are IEEE operations in numpy as in
    Python; the other functions and ^ call the same math function per
    element; the first division by a divisor checks it for a zero, and
    sqrt its argument for a negative, and they raise as the float
    operations do."""
    columns, divisors, lines = set(), set(), []
    for name, op, *args in map(str.split, ops.splitlines()):
        a, over = args[0], op == "x" or not columns.isdisjoint(args)
        if op == "x":
            code = f"x[{a}]"
        elif not over or op in ("neg", "+", "-", "*", "abs"):
            code = _point_code(op, args)
        elif op == "/" and args[1] not in divisors:
            divisors.add(args[1])
            code = f"{a} / _divisor({args[1]})"
        elif op == "/":
            code = _point_code(op, args)
        elif op == "^":
            code = f"_pow_columns({a}, {args[1]})"
        elif op in ("sqrt", "sign"):
            code = f"_{op}_column({a})"
        else:
            code = f"_map(_{op}, {a})"
        if over:
            columns.add(name)
        lines.append(f"{name} = {code}")
    return lines, columns


def _divisor(b):
    """b, a column or float divisor; raises on a zero as float division does."""
    if not (b.all() if isinstance(b, np.ndarray) else b):
        raise ZeroDivisionError("float division by zero")
    return b


def _sqrt_column(a):
    if (a < 0.0).any():
        raise ValueError("math domain error")
    return np.sqrt(a)


def _sign_column(a):
    """_sign per element: NaN and both zeros give 0.0."""
    return np.where(a > 0.0, 1.0, np.where(a < 0.0, -1.0, 0.0))


def _map(fn, a):
    return np.fromiter(map(fn, a.tolist()), float, len(a))


def _pow_columns(a, b):
    """math.pow per element; a and b are columns or floats, one a column."""
    n = len(a if isinstance(a, np.ndarray) else b)
    return np.fromiter(map(math.pow, *(c.tolist() if isinstance(c, np.ndarray)
                                       else itertools.repeat(c, n) for c in (a, b))),
                       float, n)


def _all_finite(cols):
    return np.isfinite(np.concatenate(cols)).all()


_COLUMN_NAMESPACE = dict(
    _NAMESPACE, _divisor=_divisor, _sqrt_column=_sqrt_column, _sign_column=_sign_column,
    _map=_map, _pow_columns=_pow_columns, _all_finite=_all_finite, _no_rows=np.empty(0),
    _errstate=np.errstate)


def _derivative_blocks(groups, dim, order):
    """Node lists per (order, group) block in output order: block (r, g)
    holds the r-th chart derivatives of group g, derivative indices first."""
    flat = [list(g) for g in groups]
    blocks = [flat]
    if order >= 1:
        memos = [{} for _ in range(dim)]
        d1 = [[[diff(e, f"x{k + 1}", memos[k]) for e in g] for k in range(dim)]
              for g in flat]
        blocks.append([[e for row in g1 for e in row] for g1 in d1])
    if order >= 2:
        second = []
        for g1 in d1:
            d2 = {}
            for k in range(dim):
                for l in range(k, dim):
                    d2[k, l] = d2[l, k] = [diff(e, f"x{l + 1}", memos[l])
                                           for e in g1[k]]
            second.append([e for k in range(dim) for l in range(dim)
                           for e in d2[k, l]])
        blocks.append(second)
    return blocks


class _Compiled:
    """A bundle shape compiled over one point (``make``) and, on first use,
    over columns (``make_columns``), from the same emitted operations:
    factories over the parameters ``params`` and then the slots, the
    numbers of the bundle.  Bundles whose ASTs differ only in their numbers
    emit the same text and share one _Compiled (_shape).  It keeps the
    operations, the output codes and the codes checked for finiteness as
    strings, the key of the shape and the source of the compile over
    columns."""

    def __init__(self, ops, outputs, checked, params, slots):
        self.ops, self.outputs, self.checked, self.params = ops, outputs, checked, params
        self.args = ", ".join([*("p_" + p for p in params), *slots])
        self.make = self._compile(_point_lines(ops), set(), _NAMESPACE)

    @functools.cached_property
    def make_columns(self):
        lines, columns = _column_lines(self.ops)
        # a stack of no points evaluates nothing, as a loop over its points
        # would not: not even the operations on floats alone
        empty = f"if not len(x[0]): return ({'_no_rows, ' * len(self.outputs.split())})"
        # numpy warns on an overflow or inf - inf, where floats are silent:
        # the finite check raises for both alike
        quiet = ["with _errstate(all='ignore'):", *(f"    {line}" for line in lines or ["pass"])]
        return self._compile([empty, *quiet], columns, _COLUMN_NAMESPACE)

    def _compile(self, lines, columns, namespace):
        checked = self.checked.split()
        checks = [f"_isfinite({c})" for c in checked if c not in columns]
        arrays = [c for c in checked if c in columns]
        if arrays:
            checks.append(f"_all_finite(({''.join(c + ', ' for c in arrays)}))")
        body = [f"            {line}" for line in lines] or ["            pass"]
        src = "\n".join([
            f"def _make({self.args}):",
            "    def bundle(x):",
            "        try:",
            *body,
            "        except (ValueError, OverflowError, ZeroDivisionError) as exc:",
            "            raise DomainError(f'expression evaluation: {exc}') from None",
            *([f"        if not ({' and '.join(checks)}):",
               "            raise DomainError('non-finite result')"] if checks else []),
            f"        return ({''.join(code + ', ' for code in self.outputs.split())})",
            "    return bundle",
        ])
        ns = dict(namespace, DomainError=DomainError)
        exec(compile(src, "<fbt.expr bundle>", "exec"), ns)
        return ns["_make"]


@functools.lru_cache(maxsize=256)
def _shape(ops, outputs, checked, params, slots):
    """The _Compiled of an emitted text, shared by every bundle that emits it."""
    return _Compiled(ops, outputs, checked, params, slots)


class _Generated(NamedTuple):
    """A compiled bundle: its shape, its slot values and the positions of
    its outputs whose AST is the constant zero."""

    shape: _Compiled
    slots: tuple
    zeros: tuple


@functools.lru_cache(maxsize=256)
def _generate(groups, dim, order):
    """Compile groups (a tuple of node tuples) with their derivatives up to
    order into a _Generated: the shape is looked up by its emitted text,
    the numbers are this bundle's."""
    emit = _Emitter(dim)
    outputs = [(e, emit(e)) for block in _derivative_blocks(groups, dim, order)
               for nodes in block for e in nodes]
    checked = dict.fromkeys(code for e, code in outputs
                            if not (isinstance(e, Num) and math.isfinite(e.value)))
    shape = _shape("\n".join(emit.ops), " ".join(code for _, code in outputs),
                   " ".join(checked), tuple(sorted(emit.params)), tuple(emit.slots.values()))
    return _Generated(shape, tuple(emit.slots),
                      tuple(i for i, (e, _) in enumerate(outputs) if e == ZERO))


def _bound(groups, dim, params, order, columns=False):
    """The bundle at the parameter binding, and the positions of its outputs
    whose AST is the constant zero.  The bundle is a function of the point
    x, or with columns a function of the (n, N) array x of N points giving
    each output as a column of N values, or as one float when it does not
    depend on x."""
    gen = _generate(groups, dim, order)
    values = []
    for name in gen.shape.params:
        if name not in params:
            raise UnboundName(name)
        values.append(float(params[name]))
    make = gen.shape.make_columns if columns else gen.shape.make
    return make(*values, *gen.slots), gen.zeros


def _as_node(e):
    return parse(e) if isinstance(e, str) else e


def jet(groups, dim, params=None, order=0):
    """Compile groups of expressions and their chart derivatives into one
    function of the chart point.

    Each group is a list of expressions (AST or source text) or a list of
    rows.  The result f(x) returns a list of arrays: for each derivative
    order r = 0..order and, within it, each group, the r-th derivatives of
    the group with the derivative indices first, shape (dim,)*r + shape of
    the group; entry [k, l, i, j] is d^2 g[i][j] / dx_k dx_l.  Shared
    subexpressions are computed once.  On a stack of points (..., dim) the
    function runs once over the columns of the stack, with each point's
    operations, and every array gains the leading axes of the stack.
    Unbound names raise here; domain violations and non-finite results
    raise DomainError at call time.
    """
    shapes, flat = [], []
    for g in groups:
        if len(g) and isinstance(g[0], (list, tuple)):
            shapes.append((len(g), len(g[0])))
            flat.append(tuple(_as_node(e) for row in g for e in row))
        else:
            shapes.append((len(g),))
            flat.append(tuple(_as_node(e) for e in g))
    fn, _ = _bound(tuple(flat), dim, dict(params or {}), order, columns=True)
    return lambda x: _cut_columns(lambda points: fn(points.T), x, dim, shapes, order)


def _cut_columns(run, x, dim, shapes, order):
    """Run a bundle over columns, run(points) on the (N, dim) points of a
    point or a stack of points x (..., dim), and cut its outputs with
    _unflatten, each array with the stack's leading axes."""
    x = np.asarray(x, dtype=float)
    points = x.reshape(-1, dim)
    out = _stacked(run(points), len(points)).T
    return _unflatten(out.reshape(x.shape[:-1] + out.shape[-1:]), shapes, dim, order)


def _stacked(cols, count):
    """The (len(cols), count) array whose row k is cols[k], a column of
    count values or one value for every row."""
    out = np.empty((len(cols), count))
    for row, col in zip(out, cols):
        row[...] = col
    return out


def _unflatten(flat, shapes, dim, order):
    """Cut flat bundle outputs, an array lead + (K,), into one array per
    derivative order r = 0..order and, within it, per group of the given
    shapes: shape lead + (dim,)*r + the group's shape."""
    lead, out, start = flat.shape[:-1], [], 0
    for r in range(order + 1):
        for shape in shapes:
            shape = (dim,) * r + shape
            stop = start + math.prod(shape)
            out.append(flat[..., start:stop].reshape(lead + shape))
            start = stop
    return out


def bind(node, dim, params=None):
    """Compile the AST into a function f(x) -> float for a fixed binding.

    x is an array of chart coordinates of length ``dim``; parameter names are
    frozen from ``params``.  Unbound names raise here, not at call time.
    """
    fn, _ = _bound(((_as_node(node),),), dim, dict(params or {}), 0)

    def f(x):
        return fn(x)[0]

    return f
