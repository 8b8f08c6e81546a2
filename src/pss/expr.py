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
The program for its value and first partials (``with_partials``) is built
on first use by evaluating the tree once over ``dual.Dual``s whose parts
are build-time operands, so Dual's own operators write it: forward mode
unrolled ahead of time (Griewank & Walther, *Evaluating Derivatives*, ch. 3
and 13).  That code makes no duals of its own, yet it runs the operations
of seeding the variables as dense duals (a 0.0 partial, not ``dual.seed``'s
None, off the diagonal) in the same order, less the exact ones (x * 1.0,
1.0 * x and x / 1.0), so it gives the same bits and the same
``DomainError`` for float and array inputs, and for dual inputs the bits of
seeding a nested dual over them.
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
# A program is written by evaluating the tree once over build-time operands
# (``_Operand``), one line per operation in evaluation order: the left
# operand before the right, a denominator and its check before the
# numerator; a product or quotient by a 1.0 known when the program is built
# writes none (`_ProgramBuilder.binop`).  In the partials program each
# declared variable is a ``dual.Dual`` of operands, so Dual's own operators
# and rule table write the forward-mode lines.  The lines apply the plain
# Python operators to whatever the caller passes (floats, arrays, duals,
# series), so a caller's duals come out bit for bit as through a nested dual
# seeded over them.  Each temporary is deleted after the line that reads it
# last, so a dead array is freed at once.

_FOLD = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv, "**": operator.pow}
_TEMP_RE = re.compile(r"\b_t\d+\b")


def _operator(sym, reflected=False):
    """The operator `sym` of an ``_Operand``, or its reflection."""

    def op(self, other):
        if isinstance(other, dual.Dual):
            return NotImplemented
        y = other.x if isinstance(other, _Operand) else other
        x, y = (y, self.x) if reflected else (self.x, y)
        return _Operand(self.prog, self.prog.binop(sym, x, y))

    return op


class _Operand:
    """A value of the program being built: the name of a value computed when
    the program runs (a str), or a Python number known when it is built (a
    literal, a seed component, or a fold of two such numbers, which rounds
    the same then as when the program runs).  Its operators write the line
    that computes them; to a ``dual.Dual`` they return NotImplemented, so the
    Dual's reflected operator keeps its operand order."""

    __slots__ = ("prog", "x")

    def __init__(self, prog, x):
        self.prog = prog
        self.x = x

    __add__, __radd__ = _operator("+"), _operator("+", True)
    __sub__ = _operator("-")
    __mul__, __rmul__ = _operator("*"), _operator("*", True)
    __truediv__, __rtruediv__ = _operator("/"), _operator("/", True)
    __pow__ = _operator("**")

    def __neg__(self):
        x = self.x
        return _Operand(self.prog, self.prog.emit(f"-{x}") if isinstance(x, str) else -x)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        """np.exp(operand) and the like, as the rule table's functions call
        them: one line calling ``FUNCTIONS[name]``."""
        return _Operand(self.prog, self.prog.call(FUNCTIONS[ufunc.__name__], self.x))


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
        # x * 1.0, 1.0 * x and x / 1.0 are x exactly for every operand type;
        # x ** 1 is not (a dual's float 0.0 grads come back as arrays, a
        # series gains 0.0 * u_k terms), nor x + 0.0 (-0.0) or 0.0 * x (inf, NaN)
        if sym in ("*", "/") and type(y) is float and y == 1.0:
            return x
        if sym == "*" and type(x) is float and x == 1.0:
            return y
        return self.emit(f"{self.ref(x)} {sym} {self.ref(y)}")

    def call(self, fn, x):
        name = f"_f{len(self.ns)}"
        self.ns[name] = fn
        return self.emit(f"{name}({self.ref(x)})")

    def check(self, test, v, message, offset, raise_if=True):
        """Raise DomainError where bool(test(x)) is raise_if, x the primal
        of `v`; a known x that passes is not tested again when the program
        runs."""
        x = primal(v).x
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

    def node(self, nd):
        """The tree evaluated in evaluation order: an operand, or a Dual of
        operands where a seeded variable is reached."""
        if isinstance(nd, Num):
            return _Operand(self, nd.value)
        if isinstance(nd, Var):
            i = self.index[nd.name]
            v = _Operand(self, f"_x{i}")
            if not self.seeded:
                return v
            # dense seeds, not None: the program keeps each 0.0 * x term,
            # which is NaN, not 0.0, where a caller's x is inf or NaN
            return dual.Dual(v, tuple(_Operand(self, 1.0 if j == i else 0.0) for j in range(self.n)))
        if isinstance(nd, Neg):
            return -self.node(nd.arg)
        if isinstance(nd, Bin):
            if nd.op == "/":  # the denominator is read and checked first
                den = self.node(nd.right)
                self.check(_any_zero, den, "division by zero", nd.offset)
                return self.node(nd.left) / den
            a = self.node(nd.left)
            return _FOLD[nd.op](a, self.node(nd.right))
        if isinstance(nd, Pow):
            base = self.node(nd.base)
            if nd.exponent < 0:
                self.check(_any_zero, base, "zero raised to a negative power", nd.offset)
            start = len(self.lines)
            out = base**nd.exponent
            self.guard_overflow(start, "power overflows", nd.offset)
            return out
        if isinstance(nd, Call):
            arg = self.node(nd.arg)
            if nd.fn == "sqrt":
                self.check(_any_negative, arg, "sqrt of a negative value", nd.offset)
                at_zero = _any_zero if isinstance(arg, dual.Dual) else _series_at_zero
                self.check(at_zero, arg, "sqrt at zero has no derivative", nd.offset)
            out = FUNCTIONS[nd.fn](arg)
            if nd.fn == "tan":
                self.check(_all_finite, out, "tan at a pole", nd.offset, raise_if=False)
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
    out = comp.node(root)
    if not partials:
        ret = f"    return {comp.ref(out.x)}"
    else:  # a result that reached no variable has zero partials
        g = out.grad if isinstance(out, dual.Dual) else (_Operand(comp, 0.0),) * comp.n
        grads = ", ".join(f"{nm!r}: {comp.ref(x.x)}" for nm, x in zip(variables, g))
        ret = f"    return {comp.ref(primal(out).x)}, {{{grads}}}"
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
