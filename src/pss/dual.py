"""Forward-mode automatic differentiation: nestable duals and truncated Taylor series.

A ``Dual`` carries a value and a tuple of partial-derivative components.
Every dual belongs to a differentiation *level*; values of a lower level
(floats, numpy arrays, or duals created earlier) behave as constants with
respect to a higher level.  Nesting levels is what gives exact second and
higher derivatives: evaluating f'(s) with an argument that is itself a
dual propagates f'' through the chain rule automatically.

A ``Taylor`` carries the coefficients u_0..u_n of a series truncated after
degree n in one variable; its coefficients may be duals, so a closed-form
u(x, t) yields its x-jet and, through the duals, its t-derivatives in one
evaluation (Taylor-mode propagation, Griewank & Walther, *Evaluating
Derivatives*, ch. 13).

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
    "level_of",
    "lift_level",
    "primal",
    "value_grad",
    "sin",
    "cos",
    "tan",
    "exp",
    "sqrt",
    "arctan",
]


def level_of(x):
    return x.level if isinstance(x, Dual) else 0


def lift_level(*values):
    """Smallest level strictly above every value's level."""
    return 1 + max((level_of(v) for v in values), default=0)


def primal(x):
    """Strip all dual and series structure, returning the underlying float/array
    (the value of a dual, the constant term of a series)."""
    while isinstance(x, (Dual, Taylor)):
        x = x.val
    return x


class Dual:
    __slots__ = ("level", "val", "grad")

    # keep numpy from broadcasting over us; defer to __radd__ etc.
    __array_ufunc__ = None

    def __init__(self, level, val, grad):
        self.level = level
        self.val = val
        self.grad = grad

    def __repr__(self):
        return f"Dual(L{self.level}, {self.val!r}, {self.grad!r})"

    # -- helpers -------------------------------------------------------
    def _split(self, other):
        """Return (value-part, grad-part or None) of `other` at self.level."""
        if isinstance(other, Dual) and other.level == self.level:
            return other.val, other.grad
        return other, None

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other):
        if isinstance(other, Dual) and other.level > self.level:
            return Dual(other.level, self + other.val, other.grad)
        ov, og = self._split(other)
        if og is None:
            return Dual(self.level, self.val + ov, self.grad)
        return Dual(self.level, self.val + ov, tuple(a + b for a, b in zip(self.grad, og)))

    __radd__ = __add__

    def __neg__(self):
        return Dual(self.level, -self.val, tuple(-g for g in self.grad))

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Dual) and other.level > self.level:
            return Dual(other.level, self * other.val, tuple(self * g for g in other.grad))
        ov, og = self._split(other)
        if og is None:
            return Dual(self.level, self.val * ov, tuple(g * ov for g in self.grad))
        return Dual(
            self.level,
            self.val * ov,
            tuple(a * ov + self.val * b for a, b in zip(self.grad, og)),
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual) and other.level > self.level:
            return other.__rtruediv__(self)
        ov, og = self._split(other)
        if og is None:
            return Dual(self.level, self.val / ov, tuple(g / ov for g in self.grad))
        inv = self.val / ov
        return Dual(
            self.level,
            inv,
            tuple((a - inv * b) / ov for a, b in zip(self.grad, og)),
        )

    def __rtruediv__(self, other):
        # other / self with other constant at this level
        v = other / self.val
        return Dual(self.level, v, tuple(-v * g / self.val for g in self.grad))

    def __pow__(self, k):
        if not isinstance(k, int):
            raise TypeError("dual powers are integer only")
        if k == 0:
            return Dual(self.level, self.val * 0 + 1.0, tuple(g * 0 for g in self.grad))
        d = k * self.val ** (k - 1)
        return Dual(self.level, self.val**k, tuple(d * g for g in self.grad))

    def _apply(self, name):
        """f(self) by the chain rule: grad f = f'(.) * grad."""
        _, on_result, deriv = _RULES[name]
        y = FUNCTIONS[name](self.val)
        d = deriv(y if on_result else self.val)
        return Dual(self.level, y, tuple(d * g for g in self.grad))


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
    """Seed `names` (keys of `values`) as independent variables one level up.

    Returns (level, env) where env maps every key of `values` to either a
    freshly seeded Dual (for keys in `names`) or the untouched constant.
    """
    lvl = lift_level(*values.values())
    n = len(names)
    env = dict(values)
    for i, nm in enumerate(names):
        unit = tuple(1.0 if j == i else 0.0 for j in range(n))
        env[nm] = Dual(lvl, values[nm], unit)
    return lvl, env


def value_grad(result, level, n):
    """Unpack (value, grads) of `result` with respect to a seeding level."""
    if isinstance(result, Dual) and result.level == level:
        return result.val, result.grad
    return result, (0.0,) * n
