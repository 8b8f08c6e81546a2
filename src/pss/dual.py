"""Forward-mode automatic differentiation: one-level duals and truncated Taylor series.

A ``Dual`` carries a value and a tuple of first partial derivatives with
respect to the variables of one seeding (plain first-order forward mode,
Griewank & Walther, *Evaluating Derivatives*, ch. 3).  Any operand that is
not a ``Dual`` (a float, a numpy array, a ``Taylor``) is a constant.  Duals
do not nest: the jets read only z0, z1 and z2, and the on-shell z_{k,t} are
closed forms, so nothing takes a derivative of a derivative, and ``seed``
refuses values that are already duals or series rather than mix two sets
of variables.

A partial may be None: the value does not depend on that variable (sparse
forward mode, ch. 7).  ``seed`` puts None off the diagonal, and the
operators pass it on without an array operation, so f_i1, which reads
z0 - z2, never computes its z1 and z3 partials as arrays of zeros.  This
is exact for finite values: the dense 0.0 it stands for enters a partial
as a +-0.0 term, which changes at most the sign of an exact zero.  Only
where a value is inf or NaN does the dense term differ (0.0 * inf is NaN).

A ``Taylor`` carries the coefficients u_0..u_n of a series truncated after
degree n in one variable; its coefficients may be duals, so a closed-form
u(x, t) yields its x-jet and, through the duals, its t-derivatives in one
evaluation (Taylor-mode propagation, Griewank & Walther, ch. 13).

Both apply the elementary functions from one rule table, ``_RULES``: the
dual as the chain rule, the series as the recurrence of y' = f'(.) u'.

Components may be numpy arrays, so a single evaluation can sweep many
sample points at once.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Dual",
    "Taylor",
    "FUNCTIONS",
    "seed",
    "primal",
    "value_grad",
    "mul",
    "div",
    "sin",
    "cos",
    "tan",
    "exp",
    "sqrt",
    "arctan",
]


def primal(x):
    """Strip all dual and series structure, returning the underlying float/array
    (the value of a dual, the constant term of a series)."""
    while isinstance(x, (Dual, Taylor)):
        x = x.val
    return x


class Dual:
    """A value and its first partials, one per seeded variable, each a float,
    an array or None, a structural zero that no operation reads."""

    __slots__ = ("val", "grad")

    # keep numpy from broadcasting over us; defer to __radd__ etc.
    __array_ufunc__ = None

    def __init__(self, val, grad):
        self.val = val
        self.grad = grad

    def __repr__(self):
        return f"Dual({self.val!r}, {self.grad!r})"

    # -- arithmetic ----------------------------------------------------
    # A partial that is None is a structural zero: it writes no array
    # operation, and a present partial keeps the operands and order it has
    # beside a dense one.
    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(
                self.val + other.val,
                tuple(b if a is None else a if b is None else a + b for a, b in zip(self.grad, other.grad)),
            )
        return Dual(self.val + other, self.grad)

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.val, tuple(None if g is None else -g for g in self.grad))

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Dual):
            u, v = self.val, other.val

            def part(a, b):  # a * v + u * b
                if a is None:
                    return None if b is None else u * b
                return a * v if b is None else a * v + u * b

            return Dual(u * v, tuple(map(part, self.grad, other.grad)))
        return Dual(self.val * other, tuple(None if g is None else g * other for g in self.grad))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            v = other.val
            inv = self.val / v

            def part(a, b):  # (a - inv * b) / v
                if a is None:
                    return None if b is None else -(inv * b) / v
                return a / v if b is None else (a - inv * b) / v

            return Dual(inv, tuple(map(part, self.grad, other.grad)))
        return Dual(self.val / other, tuple(None if g is None else g / other for g in self.grad))

    def __rtruediv__(self, other):
        # other / self with other a constant
        v = other / self.val
        return Dual(v, tuple(None if g is None else -v * g / self.val for g in self.grad))

    def __pow__(self, k):
        if not isinstance(k, int):
            raise TypeError("dual powers are integer only")
        if k == 0:
            return Dual(self.val * 0 + 1.0, tuple(None if g is None else g * 0 for g in self.grad))
        d = k * self.val ** (k - 1)
        return Dual(self.val**k, tuple(None if g is None else d * g for g in self.grad))

    def _apply(self, name):
        """f(self) by the chain rule: grad f = f'(.) * grad."""
        _, on_result, deriv = _RULES[name]
        y = FUNCTIONS[name](self.val)
        d = deriv(y if on_result else self.val)
        return Dual(y, tuple(None if g is None else d * g for g in self.grad))


class Taylor:
    """Series u_0 + u_1 h + ... + u_n h^n truncated after degree n = order."""

    __slots__ = ("c",)
    __array_ufunc__ = None

    def __init__(self, coeffs):
        self.c = list(coeffs)

    @classmethod
    def variable(cls, x, order):
        """The independent variable at x: coefficients x, 1, 0, ..., 0."""
        return cls([x, 1.0] + [0.0] * (order - 1) if order else [x])

    @property
    def order(self):
        return len(self.c) - 1

    @property
    def val(self):
        return self.c[0]

    def derivatives(self):
        """The derivatives of orders 0..n at the expansion point: u_k times k!."""
        return [ck * math.factorial(k) for k, ck in enumerate(self.c)]

    def _co(self, other):
        if isinstance(other, Taylor):
            return other.c
        return [other] + [0.0] * self.order

    def __add__(self, other):
        oc = self._co(other)
        return Taylor([a + b for a, b in zip(self.c, oc)])

    __radd__ = __add__

    def __neg__(self):
        return Taylor([-a for a in self.c])

    def __sub__(self, other):
        return self + (-other if isinstance(other, Taylor) else -1.0 * other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Taylor):
            return Taylor([a * other for a in self.c])
        n = self.order
        out = []
        for k in range(n + 1):
            acc = self.c[0] * other.c[k]
            for j in range(1, k + 1):
                acc = acc + self.c[j] * other.c[k - j]
            out.append(acc)
        return Taylor(out)

    __rmul__ = __mul__

    def _inv(self):
        n = self.order
        d0 = 1.0 / self.c[0]
        out = [d0]
        for k in range(1, n + 1):
            acc = 0.0
            for j in range(1, k + 1):
                acc = acc + self.c[j] * out[k - j]
            out.append(-d0 * acc)
        return Taylor(out)

    def __truediv__(self, other):
        if isinstance(other, Taylor):
            return self * other._inv()
        return Taylor([a / other for a in self.c])

    def __rtruediv__(self, other):
        return self._inv() * other

    def __pow__(self, k):
        if not isinstance(k, int):
            raise TypeError("Taylor powers are integer only")
        if k < 0:
            return self._inv() ** (-k)
        out = Taylor([1.0] + [0.0] * self.order)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def _apply(self, name):
        """y = f(u) from y' = d u' with d the series of f'(.):
        y_k = sum_{j=1..k} j u_j d_{k-j} / k.  y_k needs d only to degree
        k - 1, so d of u is taken once from u truncated to degree n - 1, and
        d of y is retaken from y_0..y_{k-1} as y grows."""
        _, on_result, deriv = _RULES[name]
        u = self.c
        n = len(u) - 1
        y = [FUNCTIONS[name](u[0])]
        for k in range(1, n + 1):
            if on_result or k == 1:
                d = deriv(Taylor(y if on_result else u[:n])).c
            acc = 0.0
            for j in range(1, k + 1):
                acc = acc + j * u[j] * d[k - j]
            y.append(acc / k)
        return Taylor(y)


# name -> (numpy function, whether f' reads the result y = f(u) rather than
# the argument u, f' as arithmetic over that value)
_RULES = {
    "exp": (np.exp, True, lambda y: y),
    "sin": (np.sin, False, lambda u: cos(u)),
    "cos": (np.cos, False, lambda u: -sin(u)),
    "tan": (np.tan, True, lambda y: 1.0 + y * y),
    "sqrt": (np.sqrt, True, lambda y: 0.5 / y),
    "arctan": (np.arctan, False, lambda u: 1.0 / (1.0 + u * u)),
}


def _elementary(name):
    np_fn = _RULES[name][0]

    def f(x):
        return x._apply(name) if isinstance(x, (Dual, Taylor)) else np_fn(x)

    f.__name__ = f.__qualname__ = name
    return f


FUNCTIONS = {name: _elementary(name) for name in _RULES}
exp, sin, cos, tan, sqrt, arctan = (FUNCTIONS[nm] for nm in ("exp", "sin", "cos", "tan", "sqrt", "arctan"))


def seed(values, names):
    """Seed `names` (keys of `values`) as the independent variables.

    Returns (1, env) where env maps every key of `values` to either a
    freshly seeded Dual (for keys in `names`), whose partial is the float
    1.0 by itself and None by each other name, or the untouched constant;
    1 is the level that `value_grad` takes.  A value that is already a Dual
    or a Taylor is refused: duals do not nest.
    """
    for nm, v in values.items():
        if isinstance(v, (Dual, Taylor)):
            raise TypeError(f"cannot seed over the {type(v).__name__} value of {nm!r}: duals do not nest")
    n = len(names)
    env = dict(values)
    for i, nm in enumerate(names):
        unit = tuple(1.0 if j == i else None for j in range(n))
        env[nm] = Dual(values[nm], unit)
    return 1, env


def mul(a, b):
    """a * b, or the other operand where one is the float 1.0.  x * 1.0 and
    x / 1.0 are x exactly (IEEE 754), for floats, arrays, duals and series
    alike, so skipping them keeps every bit and saves an array operation;
    x + 0.0 (-0.0 + 0.0 is 0.0) and 0.0 * x (inf, NaN) are not exact."""
    if type(b) is float and b == 1.0:
        return a
    if type(a) is float and a == 1.0:
        return b
    return a * b


def div(a, b):
    """a / b, or a where b is the float 1.0 (see `mul`)."""
    return a if type(b) is float and b == 1.0 else a / b


def value_grad(result, level, n):
    """Unpack (value, grads) of `result`, where `level` is the level `seed`
    returned; a None partial, and every partial of a result that is not a
    Dual, is the float 0.0."""
    if isinstance(result, Dual):
        return result.val, tuple(0.0 if g is None else g for g in result.grad)
    return result, (0.0,) * n
