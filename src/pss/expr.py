"""Expression mini-language over jet coordinates.

Grammar (usual precedence, tightest first):

    power   :=  atom ['^' ['-'] INTEGER]
    unary   :=  '-' unary | power
    term    :=  unary (('*' | '/') unary)*
    expr    :=  term (('+' | '-') term)*
    atom    :=  NUMBER | NAME | NAME '(' expr ')' | '(' expr ')'

Variable names match [a-z][a-z0-9]*; the function names exp, sin, cos,
tan, sqrt, arctan are reserved.  Exponents are integer literals, so the
power rule stays exact under differentiation.

Evaluation is deterministic and raises ``DomainError`` (division by zero,
sqrt of a negative, tan at a pole, a Python float power that overflows)
instead of propagating non-finite values; offsets in all errors are 0-based
byte offsets into the source, which parse and evaluation errors carry as
``source``.

Calling an ``Expression`` runs straight-line Python compiled from the tree,
over any operand type: floats, arrays, ``dual.Dual`` or ``dual.Taylor``.
The same compiler, with the variables seeded, builds the program for its
value and first partials (``with_partials``) on first use: forward mode
unrolled ahead of time (Griewank & Walther, *Evaluating Derivatives*, ch. 3
and 13).  That code makes no duals of its own, yet it runs the same
operations in the same order as seeding the variables as duals, so it gives
the same bits and the same ``DomainError`` for float and array inputs, and
for dual inputs the bits of seeding a nested dual over them.
``parse_expression`` is memoized per process on (source, variables).
"""

from __future__ import annotations

import functools
import operator
import re
from dataclasses import dataclass

import numpy as np

from . import dual
from .dual import primal

__all__ = [
    "ExprError",
    "SyntaxErrorAt",
    "UnknownIdentifier",
    "ArityMismatch",
    "DomainError",
    "Expression",
    "parse_expression",
    "FUNCTIONS",
]

FUNCTIONS = dual.FUNCTIONS  # name -> function, from the dual rule table

_NAME_RE = re.compile(r"[a-z][a-z0-9]*")


class ExprError(ValueError):
    """Base class for expression-language errors.  `source` is the text of
    the expression at fault, for parse and evaluation errors; str(err)
    leaves it out."""

    def __init__(self, message, offset=None, source=None):
        self.offset = offset
        self.source = source
        super().__init__(message if offset is None else f"{message} (offset {offset})")


class SyntaxErrorAt(ExprError):
    pass


class UnknownIdentifier(ExprError):
    pass


class ArityMismatch(ExprError):
    pass


class DomainError(ExprError):
    """Evaluation hit a domain violation at a specific node."""


# ----------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Num:
    value: float
    offset: int


@dataclass(frozen=True)
class Var:
    name: str
    offset: int


@dataclass(frozen=True)
class Neg:
    arg: object
    offset: int


@dataclass(frozen=True)
class Bin:
    op: str
    left: object
    right: object
    offset: int


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int
    offset: int


@dataclass(frozen=True)
class Call:
    fn: str
    arg: object
    offset: int


# ----------------------------------------------------------------------
# Tokenizer

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+(\.\d*)?([eE][+-]?\d+)?|\.\d+([eE][+-]?\d+)?)
  | (?P<name>[a-z][a-z0-9]*)
  | (?P<op>[-+*/^(),])
    """,
    re.VERBOSE,
)


def _byte_offset(src: str, pos: int) -> int:
    return len(src[:pos].encode("utf-8"))


def _tokenize(src: str):
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise SyntaxErrorAt(f"unexpected character {src[pos]!r}", _byte_offset(src, pos))
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), _byte_offset(src, pos)))
        pos = m.end()
    tokens.append(("end", "", _byte_offset(src, len(src))))
    return tokens


# ----------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, src, variables):
        self.src = src
        self.tokens = _tokenize(src)
        self.i = 0
        self.variables = variables

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, text, off = self.peek()
        if kind != "op" or text != op:
            raise SyntaxErrorAt(f"expected {op!r}", off)
        return self.next()

    def parse(self):
        node = self.expr()
        kind, text, off = self.peek()
        if kind != "end":
            raise SyntaxErrorAt(f"unexpected {text!r}", off)
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, text, off = self.peek()
            if kind == "op" and text in "+-":
                self.next()
                node = Bin(text, node, self.term(), off)
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            kind, text, off = self.peek()
            if kind == "op" and text in "*/":
                self.next()
                node = Bin(text, node, self.unary(), off)
            else:
                return node

    def unary(self):
        kind, text, off = self.peek()
        if kind == "op" and text == "-":
            self.next()
            return Neg(self.unary(), off)
        return self.power()

    def power(self):
        base = self.atom()
        kind, text, off = self.peek()
        if kind == "op" and text == "^":
            self.next()
            sign = 1
            kind2, text2, off2 = self.peek()
            if kind2 == "op" and text2 == "-":
                self.next()
                sign = -1
                kind2, text2, off2 = self.peek()
            if kind2 != "number" or not re.fullmatch(r"\d+", text2):
                raise SyntaxErrorAt("exponent must be an integer literal", off2)
            self.next()
            return Pow(base, sign * int(text2), off)
        return base

    def atom(self):
        kind, text, off = self.next()
        if kind == "number":
            return Num(float(text), off)
        if kind == "name":
            nxt_kind, nxt_text, _ = self.peek()
            if nxt_kind == "op" and nxt_text == "(":
                if text not in FUNCTIONS:
                    raise UnknownIdentifier(f"unknown function {text!r}", off)
                self.next()
                arg = self.expr()
                kind2, text2, off2 = self.peek()
                if kind2 == "op" and text2 == ",":
                    raise ArityMismatch(f"{text} takes exactly one argument", off2)
                self.expect_op(")")
                return Call(text, arg, off)
            if text in FUNCTIONS:
                raise SyntaxErrorAt(f"function {text!r} needs an argument list", off)
            if text not in self.variables:
                raise UnknownIdentifier(f"unknown identifier {text!r}", off)
            return Var(text, off)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise SyntaxErrorAt(f"unexpected {text!r}" if text else "unexpected end of input", off)


# ----------------------------------------------------------------------
# Domain checks, run on the primal of an operand


def _any_zero(x):
    p = primal(x)
    return bool(np.any(p == 0))


def _series_at_zero(x):
    """A dual or series that is zero somewhere: sqrt has no derivative there
    (a float or array at zero is a valid sqrt argument).  It serves the
    value program, which still sees duals and series; in the partials
    program an operand without partials is built from literals alone."""
    return isinstance(x, (dual.Dual, dual.Taylor)) and _any_zero(x)


def _any_negative(x):
    p = primal(x)
    return bool(np.any(p < 0))


def _all_finite(x):
    p = primal(x)
    return bool(np.all(np.isfinite(p)))


def _free_vars(node, acc):
    if isinstance(node, Var):
        acc.add(node.name)
    elif isinstance(node, Neg):
        _free_vars(node.arg, acc)
    elif isinstance(node, Bin):
        _free_vars(node.left, acc)
        _free_vars(node.right, acc)
    elif isinstance(node, Pow):
        _free_vars(node.base, acc)
    elif isinstance(node, Call):
        _free_vars(node.arg, acc)
    return acc


# ----------------------------------------------------------------------
# Compilation to straight-line code
#
# One compiler builds two programs from a tree, one line per operation in
# evaluation order: the left operand before the right, a denominator and its
# check before the numerator.  The value program (``Expression.__call__``)
# seeds no variable, so every operand goes through its own type's operators
# (floats, arrays, ``dual.Dual``, ``dual.Taylor``).  The partials program
# (``with_partials``) seeds the declared variables and repeats, op for op,
# what evaluating with them seeded as ``dual.Dual``s does: the same
# Python operator, operand order and constants at every step (``c + D``
# runs ``D.__radd__``, so it is ``D.val + c``; ``a - b`` is ``a + (-b)``),
# the same domain checks at the same points of the evaluation order.  The
# builder never inspects operand types: the values (floats, arrays, duals
# of the caller) pass through the plain operators, so duals of the caller
# come out bit for bit as through a nested dual seeded over them.
#
# An operand is the name of a value computed at run time (a str) or a
# Python number known when the program is built: a literal, a seed
# component 1.0 or 0.0, or a fold of two such numbers by a Python operator,
# which rounds the same then as when the program runs.  A node that depends
# on no seeded variable has no gradient (None).  Each temporary is deleted
# after the line that reads it last, so a dead array is freed at once.

_FOLD = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv, "**": operator.pow}
_TEMP_RE = re.compile(r"\b_t\d+\b")


class _ProgramBuilder:
    """Builds the source lines and the namespace of one program: the value,
    or the value and first partials when the variables are seeded."""

    def __init__(self, variables, reads, seeded, src):
        self.index = {nm: i for i, nm in enumerate(variables)}
        self.n = len(variables)
        self.seeded = seeded
        self.lines = [f"    _x{i} = env[{nm!r}]" for i, nm in enumerate(variables) if nm in reads]
        self.ns = {"_DomainError": functools.partial(DomainError, source=src)}

    def ref(self, x):
        """Source text of an operand; a known number is bound by name (the
        repr of a literal such as 1e999 would not read back)."""
        if isinstance(x, str):
            return x
        name = f"_k{len(self.ns)}"
        self.ns[name] = x
        return name

    def emit(self, text):
        name = f"_t{len(self.lines)}"
        self.lines.append(f"    {name} = {text}")
        return name

    def binop(self, sym, x, y):
        if not isinstance(x, str) and not isinstance(y, str):
            try:
                return _FOLD[sym](x, y)
            except ArithmeticError:
                pass  # left to raise when the program runs
        return self.emit(f"{self.ref(x)} {sym} {self.ref(y)}")

    def negate(self, x):
        return self.emit(f"-{x}") if isinstance(x, str) else -x

    def call(self, fn, x):
        name = f"_f{len(self.ns)}"
        self.ns[name] = fn
        return self.emit(f"{name}({self.ref(x)})")

    def check(self, test, x, message, offset, raise_if=True):
        """Raise DomainError where bool(test(x)) is raise_if; a known x that
        passes is not tested again when the program runs."""
        if not isinstance(x, str) and bool(test(x)) != raise_if:
            return
        self.ns[test.__name__] = test
        cond = f"{test.__name__}({self.ref(x)})"
        self.lines.append(f"    if {cond if raise_if else 'not ' + cond}: raise _DomainError({message!r}, {offset})")

    def guard_overflow(self, start, message, offset):
        """Raise DomainError where the lines from `start` on overflow (a
        Python float ``**`` raises OverflowError; numpy gives inf)."""
        body = self.lines[start:]
        if body:
            self.lines[start:] = [
                "    try:",
                *("    " + line for line in body),
                f"    except OverflowError: raise _DomainError({message!r}, {offset}) from None",
            ]

    # -- the Dual operators on (value, grads) pairs; grads None: no variable

    def add(self, a, b):
        (av, ag), (bv, bg) = a, b
        if ag is None and bg is None:
            return self.binop("+", av, bv), None
        if ag is None:  # c + D runs D.__radd__ = D.__add__(c): D.val + c
            return self.add(b, a)
        if bg is None:
            return self.binop("+", av, bv), ag
        return self.binop("+", av, bv), tuple(self.binop("+", x, y) for x, y in zip(ag, bg))

    def neg(self, a):
        av, ag = a
        v = self.negate(av)
        return v, None if ag is None else tuple(self.negate(g) for g in ag)

    def sub(self, a, b):
        if a[1] is None and b[1] is None:
            return self.binop("-", a[0], b[0]), None
        if a[1] is None:  # c - D runs D.__rsub__: (-D) + c
            return self.add(self.neg(b), a)
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        (av, ag), (bv, bg) = a, b
        if ag is None and bg is None:
            return self.binop("*", av, bv), None
        if ag is None:  # c * D runs D.__rmul__ = D.__mul__(c)
            return self.mul(b, a)
        v = self.binop("*", av, bv)
        if bg is None:
            return v, tuple(self.binop("*", g, bv) for g in ag)
        return v, tuple(
            self.binop("+", self.binop("*", x, bv), self.binop("*", av, y)) for x, y in zip(ag, bg)
        )

    def div(self, a, b):
        (av, ag), (bv, bg) = a, b
        v = self.binop("/", av, bv)
        if bg is None:
            return v, None if ag is None else tuple(self.binop("/", g, bv) for g in ag)
        if ag is None:  # c / D runs D.__rtruediv__: grads -v * g / D.val
            return v, tuple(self.binop("/", self.binop("*", self.negate(v), g), bv) for g in bg)
        return v, tuple(
            self.binop("/", self.binop("-", x, self.binop("*", v, y)), bv) for x, y in zip(ag, bg)
        )

    def power(self, a, k):
        av, ag = a
        if ag is None:
            return self.binop("**", av, k), None
        if k == 0:
            v = self.binop("+", self.binop("*", av, 0), 1.0)
            return v, tuple(self.binop("*", g, 0) for g in ag)
        d = self.binop("*", k, self.binop("**", av, k - 1))
        return self.binop("**", av, k), tuple(self.binop("*", d, g) for g in ag)

    def apply(self, name, a):
        """f(D) as ``Dual._apply``: y = f(D.val), grads f'(.) * g."""
        av, ag = a
        y = self.call(FUNCTIONS[name], av)
        if ag is None:
            return y, None
        _, on_result, deriv = dual._RULES[name]
        d = self.call(deriv, y if on_result else av)
        return y, tuple(self.binop("*", d, g) for g in ag)

    # -- the tree, in evaluation order

    def node(self, nd):
        if isinstance(nd, Num):
            return nd.value, None
        if isinstance(nd, Var):
            i = self.index[nd.name]
            return f"_x{i}", tuple(1.0 if j == i else 0.0 for j in range(self.n)) if self.seeded else None
        if isinstance(nd, Neg):
            return self.neg(self.node(nd.arg))
        if isinstance(nd, Bin):
            if nd.op == "/":  # the denominator is read and checked first
                den = self.node(nd.right)
                self.check(_any_zero, den[0], "division by zero", nd.offset)
                return self.div(self.node(nd.left), den)
            a = self.node(nd.left)
            return {"+": self.add, "-": self.sub, "*": self.mul}[nd.op](a, self.node(nd.right))
        if isinstance(nd, Pow):
            base = self.node(nd.base)
            if nd.exponent < 0:
                self.check(_any_zero, base[0], "zero raised to a negative power", nd.offset)
            start = len(self.lines)
            out = self.power(base, nd.exponent)
            self.guard_overflow(start, "power overflows", nd.offset)
            return out
        if isinstance(nd, Call):
            arg = self.node(nd.arg)
            if nd.fn == "sqrt":
                self.check(_any_negative, arg[0], "sqrt of a negative value", nd.offset)
                if arg[1] is not None:  # a dual: its derivative is asked for
                    self.check(_any_zero, arg[0], "sqrt at zero has no derivative", nd.offset)
                else:
                    self.check(_series_at_zero, arg[0], "sqrt at zero has no derivative", nd.offset)
            out = self.apply(nd.fn, arg)
            if nd.fn == "tan":
                self.check(_all_finite, out[0], "tan at a pole", nd.offset, raise_if=False)
            return out
        raise TypeError(f"unhandled node {nd!r}")


def _release(lines):
    """`lines` with each temporary deleted after the line that reads it last,
    at that line's indentation; the last line is the return."""
    last = {name: i for i, line in enumerate(lines) for name in _TEMP_RE.findall(line)}
    out = []
    for i, line in enumerate(lines[:-1]):
        out.append(line)
        dead = [name for name in dict.fromkeys(_TEMP_RE.findall(line)) if last[name] == i]
        if dead:
            out.append(line[: len(line) - len(line.lstrip())] + "del " + ", ".join(dead))
    return out + lines[-1:]


def _build_program(root, variables, src, partials):
    """fn(env) -> value, or -> (value, {variable: partial}) with `partials`.
    The value program reads only the free variables of the tree."""
    reads = variables if partials else _free_vars(root, set())
    comp = _ProgramBuilder(variables, reads, partials, src)
    v, g = comp.node(root)
    if not partials:
        ret = f"    return {comp.ref(v)}"
    else:
        if g is None:  # no variable reached the result: zero partials
            g = (0.0,) * comp.n
        grads = ", ".join(f"{nm!r}: {comp.ref(x)}" for nm, x in zip(variables, g))
        ret = f"    return {comp.ref(v)}, {{{grads}}}"
    text = "def _program(env):\n" + "\n".join(_release([*comp.lines, ret])) + "\n"
    kind = "partials" if partials else "value"
    exec(compile(text, f"<{kind} of {src!r}>", "exec"), comp.ns)
    return comp.ns["_program"]


class Expression:
    """Parsed expression, immutable.  Calling it runs the value program
    compiled from the tree, over any operand type (floats, arrays, duals,
    series); `with_partials` runs the value-and-gradient program that the
    same compiler builds on first use."""

    def __init__(self, src, root, variables):
        self.src = src
        self.root = root
        self.variables = tuple(variables)
        self.free = frozenset(_free_vars(root, set()))
        self._fn = _build_program(root, self.variables, src, partials=False)
        self._partials = None  # compiled on the first with_partials

    def __repr__(self):
        return f"Expression({self.src!r})"

    def __call__(self, env):
        return self._fn(env)

    def with_partials(self, env):
        """Value and all first partials with respect to the declared variables.

        Exact to rounding (forward mode), no truncation error.
        """
        if self._partials is None:
            self._partials = _build_program(self.root, self.variables, self.src, partials=True)
        return self._partials(env)


def parse_expression(src, variables):
    """Parse `src` over the declared variable names.  Parses are memoized per
    process on (src, variables): an Expression is immutable, so equal
    arguments share one tree and one compiled partials program."""
    return _parse(src, tuple(variables))


@functools.lru_cache(maxsize=256)
def _parse(src, variables):
    if not src or not src.strip():
        raise SyntaxErrorAt("empty expression", 0, src)
    if not variables:
        raise ExprError("variable list must be nonempty")
    if len(set(variables)) != len(variables):
        raise ExprError("variable names must be pairwise distinct")
    for nm in variables:
        if not _NAME_RE.fullmatch(nm):
            raise ExprError(f"bad variable name {nm!r} (want [a-z][a-z0-9]*)")
        if nm in FUNCTIONS:
            raise ExprError(f"variable name {nm!r} is reserved")
    try:
        root = _Parser(src, frozenset(variables)).parse()
    except ExprError as err:
        err.source = src
        raise
    return Expression(src, root, variables)
