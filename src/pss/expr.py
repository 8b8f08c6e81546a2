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
sqrt of a negative, tan at a pole) instead of propagating non-finite
values; offsets in all errors are 0-based byte offsets into the source.
"""

from __future__ import annotations

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
    """Base class for expression-language errors."""

    def __init__(self, message, offset=None):
        self.offset = offset
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
# Compilation to closures


def _any_zero(x):
    p = primal(x)
    return bool(np.any(p == 0))


def _any_negative(x):
    p = primal(x)
    return bool(np.any(p < 0))


def _all_finite(x):
    p = primal(x)
    return bool(np.all(np.isfinite(p)))


def _compile(node):
    if isinstance(node, Num):
        v = node.value
        return lambda env: v
    if isinstance(node, Var):
        nm = node.name
        return lambda env: env[nm]
    if isinstance(node, Neg):
        f = _compile(node.arg)
        return lambda env: -f(env)
    if isinstance(node, Bin):
        lf, rf = _compile(node.left), _compile(node.right)
        off = node.offset
        if node.op == "+":
            return lambda env: lf(env) + rf(env)
        if node.op == "-":
            return lambda env: lf(env) - rf(env)
        if node.op == "*":
            return lambda env: lf(env) * rf(env)

        def div(env):
            den = rf(env)
            if _any_zero(den):
                raise DomainError("division by zero", off)
            return lf(env) / den

        return div
    if isinstance(node, Pow):
        bf = _compile(node.base)
        k, off = node.exponent, node.offset
        if k >= 0:
            return lambda env: bf(env) ** k

        def powneg(env):
            base = bf(env)
            if _any_zero(base):
                raise DomainError("zero raised to a negative power", off)
            return base**k

        return powneg
    if isinstance(node, Call):
        af = _compile(node.arg)
        fn = FUNCTIONS[node.fn]
        off = node.offset
        if node.fn == "sqrt":

            def fsqrt(env):
                arg = af(env)
                if _any_negative(arg):
                    raise DomainError("sqrt of a negative value", off)
                if isinstance(arg, (dual.Dual, dual.Taylor)) and _any_zero(arg):
                    raise DomainError("sqrt at zero has no derivative", off)
                return fn(arg)

            return fsqrt
        if node.fn == "tan":

            def ftan(env):
                out = fn(af(env))
                if not _all_finite(out):
                    raise DomainError("tan at a pole", off)
                return out

            return ftan
        return lambda env: fn(af(env))
    raise TypeError(f"unhandled node {node!r}")


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


class Expression:
    """Parsed expression: immutable, evaluated through the dual tower."""

    def __init__(self, src, root, variables):
        self.src = src
        self.root = root
        self.variables = tuple(variables)
        self.free = frozenset(_free_vars(root, set()))
        self._fn = _compile(root)

    def __repr__(self):
        return f"Expression({self.src!r})"

    def __call__(self, env):
        return self._fn(env)

    def with_partials(self, env):
        """Value and all first partials with respect to the declared variables.

        Exact to rounding (forward mode), no truncation error.
        """
        names = self.variables
        vals = {nm: env[nm] for nm in names}
        lvl, seeded = dual.seed(vals, names)
        r = self._fn(seeded)
        value, grads = dual.value_grad(r, lvl, len(names))
        return value, dict(zip(names, grads))


def parse_expression(src, variables):
    """Parse `src` over the declared variable names."""
    if not src or not src.strip():
        raise SyntaxErrorAt("empty expression", 0)
    variables = list(variables)
    if not variables:
        raise ExprError("variable list must be nonempty")
    if len(set(variables)) != len(variables):
        raise ExprError("variable names must be pairwise distinct")
    for nm in variables:
        if not _NAME_RE.fullmatch(nm):
            raise ExprError(f"bad variable name {nm!r} (want [a-z][a-z0-9]*)")
        if nm in FUNCTIONS:
            raise ExprError(f"variable name {nm!r} is reserved")
    root = _Parser(src, frozenset(variables)).parse()
    return Expression(src, root, variables)
