"""Catalog of classified equation families u_t - u_xxt = lam*u^2*u_xxx + G.

Each family carries the coefficients f_ij of the associated 1-forms
omega_i = f_i1 dx + f_i2 dt as two columns, `column(1)` = (f11, f21, f31)
and `column(2)` = (f12, f22, f32), the right-hand side G, and the flux
F = lam*z0^2*z3 + G.  The branches:

    T22         f, phi12 free;     T24 at lam = C = 0
    T23         f free;            phi12 forced to a z0*z1 multiple
    T24         f, phi12 free;     the Novikov equation lives here
    T25i        everything closed form (exp(theta*z0) profile)
    T25ii       phi free (profile in exp(tau*z1))
    SINE_GORDON the classical reference case u_xt = sin(u)

Every +- / -+ printed in a branch is resolved by the single `sign`
parameter read vertically: +- maps to sign, -+ maps to -sign.  T23 and
SINE_GORDON print none, so their sign must stay +1.  Structural
identities shared by the five form-(7) branches (all but SINE_GORDON):

    f_p1 = mu_p * f11 + eta_p           (p = 2, 3)
    f_i2 = -lam * z0^2 * f_i1 + phi_i2  (phi_i2 a function of z0, z1 only)
    f_i1 depends on z0, z2 only through s = z0 - z2

Each form-(7) builder supplies only f11, phi12, phi22, phi32 (the last two
take the phi12 value) and G; `Family._form7` assembles the two columns
through the first two identities, with the resolved (mu2, eta2) and
(mu3, eta3), so a column evaluates f11 and phi12 once.  T22 is T24 at
lam = C = 0 (same mu3, eta3), so the T24 builder makes both; its lam and C
terms are exact zeros there.  The sine-Gordon builder spells out its two
columns.  `fij(i, j)` is a view of one entry of a column.  The entries
read z0, z1, z2 only, so `zt` gives the on-shell z_{k,t} for k <= 2, in
closed form.

A spec sets only the params and expressions its branch reads (`_BRANCHES`);
a `FamilyParams` field outside them keeps its default.  The derived constants,
never inputs, are `Family.constants`, which the builders read.  Those a branch
does not read as params are `Family.derived`, the `derived` block of a `catalog`
report: mu3, eta3 for T22, T24; eta3, gamma for T23 (eta3 solves
eta2^2 - eta3^2 - (mu2*eta3 - mu3*eta2)^2 = 0); mu3, eta3, m1 for T25i; mu3,
eta3, m2 for T25ii (mu3^2 = 1 + mu2^2 - tau^2/m^2).  `root` picks a root.

A family is built on one path, spec -> `family_from_dict` -> `build_family`
-> `Family`; the presets are specs too (`_PRESET_SPECS`).  `Family` checks
in one order for every caller: `_resolve` (the params' types, then the
constraints, raising ConstraintViolation), then each expression of
`_EXPRESSIONS` (its type, whether the branch takes it, its parse).
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import sys
from dataclasses import dataclass, fields, replace
from types import MappingProxyType

import numpy as np

from . import dual
from .dual import Taylor, div, mul, primal
from .expr import parse_expression
from .jets import JetError, JetFunction

__all__ = [
    "Branch",
    "FamilyParams",
    "Family",
    "CatalogError",
    "ConstraintViolation",
    "MissingExpression",
    "delta",
    "build_family",
    "novikov_preset",
    "PRESETS",
    "family_from_dict",
    "load_family",
    "read_json",
]


class Branch:
    T22 = "T22"
    T23 = "T23"
    T24 = "T24"
    T25I = "T25i"
    T25II = "T25ii"
    SINE_GORDON = "SINE_GORDON"


# each branch: the params its spec may set (sign is a top-level key of every
# spec, read by all but T23 and SINE_GORDON), its expressions, and its
# builder, called by name as Family._build_<name>
_BRANCHES = {
    Branch.T22: (("mu2", "eta2"), ("f", "phi12"), "t24"),
    Branch.T23: (("lam", "mu2", "eta2", "mu3", "root"), ("f",), "t23"),
    Branch.T24: (("lam", "mu2", "eta2", "C"), ("f", "phi12"), "t24"),
    Branch.T25I: (("lam", "theta", "B", "mu2", "eta2", "m", "n"), (), "t25i"),
    Branch.T25II: (("lam", "tau", "mu2", "eta2", "m", "n", "root"), ("phi",), "t25ii"),
    Branch.SINE_GORDON: (("eta",), (), "sg"),
}


# each expression a spec may give, and the variables it reads
_EXPRESSIONS = {"f": ("s",), "phi12": ("z0", "z1"), "phi": ("z0",)}


class CatalogError(ValueError):
    pass


class ConstraintViolation(CatalogError):
    def __init__(self, violations, branch):
        self.violations, self.branch = list(violations), branch
        super().__init__("; ".join(self.violations))


class MissingExpression(CatalogError):
    pass


@dataclass(frozen=True)
class FamilyParams:
    branch: str
    lam: float = 0.0
    mu2: float = 0.0
    eta2: float = 0.0
    C: float = 0.0
    mu3: float = 0.0
    theta: float = 0.0
    B: float = 0.0
    tau: float = 0.0
    m: float = 0.0
    n: float = 0.0
    eta: float = 1.0
    sign: int = 1
    root: int = 1


def _k(mu2):
    return math.sqrt(1.0 + mu2 * mu2)


def _sign_violation(branch, sign):
    """The constraint `sign` breaks on `branch`, or None."""
    if branch in (Branch.T23, Branch.SINE_GORDON):  # no formula of these two reads a sign
        return None if sign == 1 else f"{branch} reads no sign (sign must be +1, got {sign})"
    return None if sign in (1, -1) else "sign must be +1 or -1"


def _resolve(p: FamilyParams):
    """(violations, constants) of `p` in one pass over its branch: a param
    the branch does not read must keep its default, each constraint is
    checked next to the constant it guards, and the constants the builders
    read (mu3, eta3 and gamma, m1 or m2; T23's mu3 is its input) are
    computed only once every constraint before them holds.  A param the
    branch reads that is not a finite number of its type raises
    CatalogError, whether it came from a spec or from a caller."""
    if p.branch not in _BRANCHES:
        return [f"unknown branch {p.branch!r}"], {}
    inputs = _BRANCHES[p.branch][0]
    for key in ("sign", *inputs):  # a spec's and a caller's params, alike
        _check_param(key, getattr(p, key))
    out, derived = [], {}

    def holds(ok, violation):
        if not ok:
            out.append(violation)
        return ok

    bad_sign = _sign_violation(p.branch, p.sign)
    holds(bad_sign is None, bad_sign)
    if "root" in inputs:
        holds(p.root in (1, -1), "root must be +1 or -1")
    # T22 says why its lam and C must be 0 below
    checked = {"branch", "sign", *inputs, *(("lam", "C") if p.branch == Branch.T22 else ())}
    for f in fields(FamilyParams):
        if f.name not in checked:
            val = getattr(p, f.name)
            holds(val == f.default, f"{p.branch} reads no {f.name} ({f.name} must be {f.default}, got {val})")
    lam, mu2, eta2 = p.lam, p.mu2, p.eta2
    if p.branch in (Branch.T22, Branch.T24):
        if p.branch == Branch.T22:  # T24 at lam = C = 0
            holds(eta2 != 0, "eta2 != 0 violated (eta2 = 0)")
            holds(lam == 0, "T22 has no lam*u^2*u_xxx term (lam must be 0)")
            holds(p.C == 0, "T22 has no C term (C must be 0)")
        else:
            holds((lam * eta2) ** 2 + p.C**2 != 0,
                  f"(lam*eta2)^2 + C^2 != 0 violated (lam = {lam}, eta2 = {eta2}, C = {p.C})")
        if not out:
            s, k = float(p.sign), _k(mu2)
            derived = {"mu3": s * k, "eta3": s * mu2 * eta2 / k}
    elif p.branch == Branch.T23:
        holds(lam != 0, "lam != 0 violated (lam = 0)")
        holds(eta2 != 0, "eta2 != 0 violated (eta2 = 0)")
        disc = 1.0 + mu2**2 - p.mu3**2
        holds(not disc <= 0, "eta2^2 - eta3^2 - (mu2*eta3 - mu3*eta2)^2 = 0 has no real eta3 with "
              f"gamma != 0 (needs mu3^2 < 1 + mu2^2, got mu3 = {p.mu3})")
        if not out:  # root picks the root of the eta3 quadratic
            eta3 = (mu2 * p.mu3 * eta2 + p.root * abs(eta2) * math.sqrt(disc)) / (1.0 + mu2**2)
            gamma = mu2 * p.mu3 * eta2 - (1.0 + mu2**2) * eta3
            holds(gamma != 0, "gamma = mu2*mu3*eta2 - (1+mu2^2)*eta3 != 0 violated (gamma = 0)")
            derived = {"mu3": p.mu3, "eta3": eta3, "gamma": gamma}
    elif p.branch == Branch.T25I:
        holds(p.theta != 0, "theta != 0 violated (theta = 0)")
        holds(lam**2 + p.B**2 != 0, "lam^2 + B^2 != 0 violated (lam = B = 0)")
        holds(p.m != 0, "m != 0 violated (m = 0)")
        if not out:
            s, k = float(p.sign), _k(mu2)
            eta3 = s * (p.theta + p.m * mu2 * eta2) / (p.m * k)
            m1 = 2.0 * p.n / p.m - 1.0 / p.theta + (eta2**2 - eta3**2) / p.theta
            derived = {"mu3": s * k, "eta3": eta3, "m1": m1}
    elif p.branch == Branch.T25II:
        tau, m = p.tau, p.m
        holds(tau > 0, f"tau > 0 violated (tau = {tau})")
        if holds(m * eta2 != 0, f"m*eta2 != 0 violated (m = {m}, eta2 = {eta2})"):
            disc = 1.0 + mu2**2 - (tau / m) ** 2
            holds(not disc < 0, f"mu3^2 = 1 + mu2^2 - tau^2/m^2 has no real root (tau/m = {tau / m})")
        if not out:  # root picks the root of the mu3 quadratic
            s = float(p.sign)
            mu3 = p.root * math.sqrt(disc)
            eta3 = eta2 * (mu2 * mu3 - s * tau / m) / (1.0 + mu2**2)
            # X = s*tau*(n/m - m2) must equal eta2*(mu3 + s*tau*mu2/m)/k^2
            X = eta2 * (mu3 + s * tau * mu2 / m) / (1.0 + mu2**2)
            m2 = p.n / m - s * X / tau
            derived = {"mu3": mu3, "eta3": eta3, "m2": m2}
    else:
        holds(p.eta != 0, "eta != 0 violated (eta = 0)")
    return out, derived


# ----------------------------------------------------------------------
# Differentiation helpers for the user-supplied expressions


def _f_and_prime(f_expr, sval):
    v, parts = f_expr.with_partials({"s": sval})
    return v, parts["s"]


def _phi12_parts(phi12_expr, z0v, z1v):
    v, parts = phi12_expr.with_partials({"z0": z0v, "z1": z1v})
    return v, parts["z0"], parts["z1"]


def _uni_derivs(expr, var, x, order):
    """Value and derivatives 0..order of a univariate expression at x (a float,
    array or Dual), from one series evaluation."""
    u = expr({var: Taylor.variable(x, order)})
    return tuple(u.derivatives()) if isinstance(u, Taylor) else (u,) + (0.0,) * order


class FPrimeZero(CatalogError):
    pass


class PhiZero(CatalogError):
    pass


def _check_nonzero(value, exc, what):
    p = primal(value)
    zero = p == 0 if type(p) is float else bool(np.any(p == 0))  # np.any takes ~12 us on a float
    if zero:
        raise exc(f"{what} vanishes at an evaluation point")


# ----------------------------------------------------------------------
# Family


class Family:
    """A classified equation instance, from params and the source texts of
    its expressions; immutable after construction."""

    def __init__(self, params, f=None, phi12=None, phi=None, name=None):
        violations, constants = _resolve(params)
        if violations:
            raise ConstraintViolation(violations, params.branch)
        self.params = params
        self.constants = MappingProxyType(constants)
        _, takes, builder = _BRANCHES[params.branch]
        exprs = []
        for (key, variables), src in zip(_EXPRESSIONS.items(), (f, phi12, phi)):
            if not (src is None or isinstance(src, str)):
                raise CatalogError(f"family spec: {key} must be a string or null, got {json.dumps(src, default=repr)}")
            if key in takes and src is None:
                raise MissingExpression(f"branch {params.branch} requires the expression {key!r}")
            if key not in takes and src is not None:
                raise CatalogError(f"branch {params.branch} takes no expression {key!r}")
            exprs.append(None if src is None else parse_expression(src, variables))
        self.f_expr, self.phi12_expr, self.phi_expr = exprs
        self.name = name or params.branch
        getattr(self, f"_build_{builder}")(float(params.sign), _k(params.mu2))

    def __repr__(self):
        return f"Family({self.name})"

    # -- construction ---------------------------------------------------
    def _wrap(self, column1, column2, g_fn, phi12, phi_column):
        # the columns declare the coordinates they read, which the total
        # derivatives of `jets` seed; G, F and the phi's are plain functions
        zfree = frozenset({"z0", "z1", "z2"})
        self.columns = {
            1: JetFunction(column1, zfree, "(f11, f21, f31)"),
            2: JetFunction(column2, zfree, "(f12, f22, f32)"),
        }
        self.G_fn = g_fn
        if g_fn is None:
            self.F_fn = None
        else:
            lam = self.params.lam

            def F(env, _g=g_fn, _lam=lam):
                return mul(mul(_lam, env["z0"] ** 2), env["z3"]) + _g(env)

            self.F_fn = F
        self.phi12_fn = phi12
        self.phi_column = phi_column

    def _form7(self, f11, phi12, phi22, phi32, G):
        """Assemble a form-(7) family from f11, phi12, phi22, phi32 and G
        through the structural identities f_p1 = mu_p*f11 + eta_p (p = 2, 3)
        and f_i2 = -lam*z0^2*f_i1 + phi_i2, with the resolved mu_p, eta_p.
        phi22 and phi32 take the phi12 value, so a column evaluates f11 and
        phi12 once."""
        p, c = self.params, self.constants
        lam, mu2, eta2, mu3, eta3 = p.lam, p.mu2, p.eta2, c["mu3"], c["eta3"]

        def column1(env):
            v11 = f11(env)
            return v11, mu2 * v11 + eta2, mu3 * v11 + eta3

        def phi_column(env):
            p12 = phi12(env)
            return p12, phi22(env, p12), phi32(env, p12)

        def column2(env):
            q = -lam * env["z0"] ** 2
            return tuple(q * fi1 + phi for fi1, phi in zip(column1(env), phi_column(env)))

        self._wrap(column1, column2, G, phi12, phi_column)

    def _f11_of_s(self):
        """f11 = f(s), s = z0 - z2, for the branches with a free profile f."""
        fx = self.f_expr

        def f11(env):
            return fx({"s": env["z0"] - env["z2"]})

        return f11

    def _build_t23(self, s, k):
        p, c = self.params, self.constants
        fx = self.f_expr
        lam, mu2, eta2, mu3, eta3, gam = p.lam, p.mu2, p.eta2, c["mu3"], c["eta3"], c["gamma"]
        q = 2.0 / gam * lam * eta2

        def phi12(env):
            return -q * env["z0"] * env["z1"]

        def phi22(env, p12):
            return -mu2 * q * env["z0"] * env["z1"]

        def phi32(env, p12):
            return -mu3 * q * env["z0"] * env["z1"]

        def G(env):
            z0, z1, z2 = env["z0"], env["z1"], env["z2"]
            fv, fp = _f_and_prime(fx, z0 - z2)
            _check_nonzero(fp, FPrimeZero, "f'")
            inner = (
                2.0 * z0 * z1 * fv
                + mul(z0**2 * z1, fp)
                + mul(2.0 * eta2 / gam, z1**2 + z0 * z2 + mul(mu3 * eta2 - mu2 * eta3, z0) * z1)
            )
            return mul(-(lam / fp), inner)

        self._form7(self._f11_of_s(), phi12, phi22, phi32, G)

    def _build_t24(self, s, k):
        p = self.params
        fx, px = self.f_expr, self.phi12_expr
        lam, mu2, eta2, C = p.lam, p.mu2, p.eta2, p.C

        def phi12(env):
            return px({"z0": env["z0"], "z1": env["z1"]})

        def phi22(env, p12):
            return mu2 * p12 + C + lam * eta2 * env["z0"] ** 2

        def phi32(env, p12):
            return s * (k * p12 + mu2 * (lam * eta2 * env["z0"] ** 2 + C) / k)

        def G(env):
            z0, z1, z2 = env["z0"], env["z1"], env["z2"]
            fv, fp = _f_and_prime(fx, z0 - z2)
            _check_nonzero(fp, FPrimeZero, "f'")
            pv, p0, p1 = _phi12_parts(px, z0, z1)
            z0sq = z0**2
            return div(
                z1 * p0
                + z2 * p1
                - mul(mul(mul(lam, z0sq), z1), fp)
                + mul(s * eta2 / k, pv)
                - (2.0 * lam * z0 * z1 + mul(s * eta2 / k * lam, z0sq) + s * C / k) * fv,
                fp,
            )

        self._form7(self._f11_of_s(), phi12, phi22, phi32, G)

    def _build_t25i(self, s, k):
        p, c = self.params, self.constants
        lam, mu2, eta2 = p.lam, p.mu2, p.eta2
        theta, B, m, n = p.theta, p.B, p.m, p.n
        mu3, eta3, m1 = c["mu3"], c["eta3"], c["m1"]

        def W(z0):
            return 2.0 * lam / theta - theta * B * dual.exp(theta * z0) + 2.0 * lam * z0

        def f11(env):
            return m * (env["z0"] - env["z2"]) - n

        def phi12(env):
            z0, z1 = env["z0"], env["z1"]
            return -(m / theta) * (2.0 * lam - theta**2 * B * dual.exp(theta * z0)) * z1**2 - W(z0) * (
                (m * z0 - n) / theta + s * (mu2 - m * eta2 / theta) * z1 / k
            )

        def phi22(env, p12):
            return mu2 * p12 + W(env["z0"]) * (s * k * env["z1"] - eta2 / theta)

        def phi32(env, p12):
            return mu3 * p12 + W(env["z0"]) * (mu2 * env["z1"] - eta3 / theta)

        def G(env):
            z0, z1, z2 = env["z0"], env["z1"], env["z2"]
            E = dual.exp(mul(theta, z0))
            return mul(lam, (
                -5.0 * z0**2 * z1
                + 4.0 * z0 * z1 * z2
                + mul(2.0 * m1 - 4.0 / theta, z0) * z1
                + mul(2.0 * m1 / theta, z1)
                - mul(2.0 / theta, z1) * z2
            )) + mul(mul(mul(theta, z1**3) + 2.0 * z0 * z1 + z1 * z2 - mul(m1, z1), theta), B) * E

        self._form7(f11, phi12, phi22, phi32, G)

    def _build_t25ii(self, s, k):
        p, c = self.params, self.constants
        phix = self.phi_expr
        lam, mu2, eta2 = p.lam, p.mu2, p.eta2
        tau, m, n = p.tau, p.m, p.n
        mu3, eta3, m2 = c["mu3"], c["eta3"], c["m2"]

        def _phi(z0, order):
            out = _uni_derivs(phix, "z0", z0, order)
            _check_nonzero(out[0], PhiZero, "phi")
            return out

        def f11(env):
            return m * (env["z0"] - env["z2"]) - n

        def phi12(env):
            z0, z1 = env["z0"], env["z1"]
            pv, pd = _phi(z0, 1)
            Ez = dual.exp(s * tau * z1)
            return (s * tau * (m * z0 - n) * pv + m * pd * z1) * Ez - s * (2.0 * lam * m / tau) * z0 * z1

        def phi22(env, p12):
            (pv,) = _phi(env["z0"], 0)
            return mu2 * p12 + s * tau * eta2 * pv * dual.exp(s * tau * env["z1"])

        def phi32(env, p12):
            (pv,) = _phi(env["z0"], 0)
            return mu3 * p12 + s * tau * eta3 * pv * dual.exp(s * tau * env["z1"])

        def G(env):
            z0, z1, z2 = env["z0"], env["z1"], env["z2"]
            pv, pd, pdd = _phi(z0, 2)
            Ez = dual.exp(mul(s * tau, z1))
            return (
                mul(lam, -3.0 * z0**2 * z1 + 2.0 * z0 * z1 * z2 + mul(2.0 * m2, z0) * z1
                    - mul(s * (2.0 / tau), z1**2 + z0 * z2))
                + mul(pdd, z1**2) * Ez
                + mul(mul(s, mul(tau, z0) * z1 + mul(s, z2) + mul(tau, z1) * z2 - mul(m2 * tau, z1)), pd) * Ez
                + mul(mul(tau, mul(s, z1) + mul(tau, z0) * z2 - mul(m2 * tau, z2)), pv) * Ez
            )

        self._form7(f11, phi12, phi22, phi32, G)

    def _build_sg(self, s, k):
        eta = self.params.eta

        def column1(env):
            return 0.0 * env["z0"], eta + 0.0 * env["z0"], env["z1"]

        def f12(env):
            return dual.sin(env["z0"]) / eta

        def column2(env):
            return f12(env), dual.cos(env["z0"]) / eta, 0.0 * env["z0"]

        # with lam = 0, phi_i2 = f_i2 + lam*z0^2*f_i1 is f_i2 itself
        self._wrap(column1, column2, None, f12, column2)

    # -- evaluation surface ----------------------------------------------
    def column(self, j):
        """Column j of the coframe: env -> (f_1j, f_2j, f_3j), from one
        evaluation of f11 (and, for j = 2, of phi12)."""
        return self.columns[j]

    def fij(self, i, j):
        """f_ij alone, as a view of column j."""
        col = self.column(j)
        return JetFunction(lambda env: col(env)[i - 1], col.free, f"f{i}{j}")

    @property
    def is_form7(self):
        return self.params.branch != Branch.SINE_GORDON

    def zt(self, env, upto):
        """On-shell z_{k,t}, k = 0..upto <= 2: w1, v1 and z_{2,t}, which is w1 - F
        (form (7), u_t - u_xxt = F) or D_x sin(z0) = cos(z0)*z1 (u_xt = sin u)."""
        if not 0 <= upto <= 2:
            raise JetError(f"z_{{k,t}} is given for k = 0..2, not up to k = {upto}")
        if upto < 2:
            return [env["w1"], env["v1"]][:upto + 1]
        if self.is_form7:
            return [env["w1"], env["v1"], env["w1"] - (0.0 + self.F_fn(env))]
        return [env["w1"], env["v1"], 0.0 + dual.cos(env["z0"]) * env["z1"]]

    def constrain_env(self, env):
        """Force the on-shell constraints a sampled jet must satisfy."""
        if not self.is_form7:
            env = dict(env)
            env["v1"] = dual.sin(env["z0"])  # v1 = u_xt = sin(u) on-shell
        return env

    def sampling_guard(self, env):
        """Boolean mask of samples safely away from the branch degeneracies."""
        if not self.is_form7:
            return np.abs(np.sin(primal(env["z0"]))) > 1e-3
        ok = np.ones(np.shape(primal(env["z0"])) or (), dtype=bool)
        if self.f_expr is not None:
            _, fp = _f_and_prime(self.f_expr, env["z0"] - env["z2"])
            ok &= np.abs(primal(fp)) > 1e-3
        p12 = self.phi12_fn(env)
        ok &= np.abs(primal(p12)) > 1e-3
        if self.phi_expr is not None:
            (pv,) = _uni_derivs(self.phi_expr, "z0", env["z0"], 0)
            ok &= np.abs(primal(pv)) > 1e-3
        return ok

    # -- serialization ----------------------------------------------------
    def to_dict(self):
        p = self.params
        return {
            "branch": p.branch,
            "params": {k: getattr(p, k) for k in _BRANCHES[p.branch][0]},  # set or defaulted
            "f": None if self.f_expr is None else self.f_expr.src,
            "phi12": None if self.phi12_expr is None else self.phi12_expr.src,
            "phi": None if self.phi_expr is None else self.phi_expr.src,
            "sign": p.sign,
        }

    def derived(self):
        """The constants the branch computes rather than reads."""
        inputs = _BRANCHES[self.params.branch][0]
        return {k: v for k, v in self.constants.items() if k not in inputs}


def params_from_dict(doc) -> FamilyParams:
    if not isinstance(doc, dict):
        raise CatalogError(f"family spec: must be a JSON object, got {json.dumps(doc)}")
    unknown = set(doc) - {"branch", "params", "f", "phi12", "phi", "sign"}
    if unknown:
        raise CatalogError(f"unknown keys in family spec: {sorted(unknown)}")
    branch, params = doc.get("branch"), doc.get("params", {})
    if not isinstance(branch, str):
        raise CatalogError(f"family spec: branch must be a string, got {json.dumps(branch)}")
    if not isinstance(params, dict):
        raise CatalogError(f"family spec: params must be a JSON object, got {json.dumps(params)}")
    if branch not in _BRANCHES:
        return FamilyParams(branch=branch)  # _resolve reports the unknown branch
    inputs = _BRANCHES[branch][0]
    bad = set(params) - set(inputs)
    if bad:
        raise CatalogError(f"family spec: branch {branch} takes the params {list(inputs)}, not {sorted(bad)}")
    if params.get("mu3", 0.0) is None:  # a null T23 mu3 is its default 0.0
        params = {k: v for k, v in params.items() if k != "mu3"}
    return FamilyParams(branch=branch, sign=doc.get("sign", 1), **params)  # _resolve checks the values


def _check_param(key, val):
    """CatalogError unless `val` has the type FamilyParams gives `key` and,
    if it is a number, is finite and within float range.  A numpy scalar
    from a caller counts as the Python number it stands for."""
    number = isinstance(val, numbers.Real) and not isinstance(val, bool)
    if key in ("sign", "root"):
        ok, want = number and isinstance(val, numbers.Integral), "an integer"
    elif number and isinstance(val, int) and abs(val) > sys.float_info.max:  # float arithmetic would overflow
        ok, want = False, "a number within float range"
    elif number and not math.isfinite(val):  # json reads NaN, Infinity and -Infinity
        ok, want = False, "a finite number"
    elif key == "mu3" and val is not None:  # T23's optional input: a spec may write null
        ok, want = number, "a number or null"
    else:
        ok, want = number, "a number"
    if not ok:
        raise CatalogError(f"family spec: {key} must be {want}, got {json.dumps(val, default=repr)}")


def family_from_dict(doc, name=None, sign=None) -> Family:
    """The family of the spec `doc`.  A `sign` that is not None replaces the
    spec's sign before the one build, once the spec's own sign has passed
    the checks the build would give it."""
    params = params_from_dict(doc)
    if sign is not None:
        _check_param("sign", params.sign)
        violation = _sign_violation(params.branch, params.sign)
        if violation:
            raise ConstraintViolation([violation], params.branch)
        params = replace(params, sign=sign)
    return build_family(params, doc.get("f"), doc.get("phi12"), doc.get("phi"), name=name)


def read_json(path):
    """The JSON document in the UTF-8 file `path`; a file that is not UTF-8
    or not JSON, or holds an integer too long for int(), raises CatalogError
    naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError are ValueErrors
        raise CatalogError(f"{path}: {exc}") from exc


def load_family(path, sign=None) -> Family:
    return family_from_dict(read_json(path), name=str(path), sign=sign)


# ----------------------------------------------------------------------
# Public operations


def delta(col1, col2, i, j):
    """Delta_ij = f_i1 f_j2 - f_j1 f_i2 from the values of the two columns."""
    return col1[i - 1] * col2[j - 1] - col1[j - 1] * col2[i - 1]


def build_family(params: FamilyParams, f=None, phi12=None, phi=None, name=None) -> Family:
    """Assemble a Family from parameters plus expression source texts."""
    return Family(params, f, phi12, phi, name=name)


# ----------------------------------------------------------------------
# Presets: specs, each read as a --family file is.  Novikov is the T24
# instance u_t - u_xxt = u^2 u_xxx - u^2 u_xx - 3 u u_x^2 - 2 u^2 u_x
# + 4 u u_x u_xx + u_x^3.

_PRESET_SPECS = {
    "novikov": {"branch": Branch.T24, "params": {"lam": 1.0, "mu2": 0.0, "eta2": 1.0, "C": 0.0},
                "f": "s", "phi12": "z0*(z1-z0)^2"},
    "sine-gordon": {"branch": Branch.SINE_GORDON, "params": {"eta": 1.0}},
    "t22-demo": {"branch": Branch.T22, "params": {"mu2": 0.0, "eta2": 1.0}, "f": "s", "phi12": "z1"},
    "t23-demo": {"branch": Branch.T23, "params": {"lam": 1.0, "mu2": 0.0, "eta2": 1.0, "mu3": 0.0, "root": 1},
                 "f": "s"},
    "t25i-demo": {"branch": Branch.T25I,
                  "params": {"lam": 1.0, "theta": 1.0, "B": 1.0, "mu2": 0.0, "eta2": 1.0, "m": 1.0, "n": 0.0}},
    "t25ii-demo": {"branch": Branch.T25II,
                   "params": {"lam": 1.0, "tau": 1.0, "mu2": 0.0, "eta2": 1.0, "m": 2.0, "n": 0.0, "root": 1},
                   "phi": "exp(z0)"},
}


PRESETS = {name: functools.partial(family_from_dict, spec, name=name) for name, spec in _PRESET_SPECS.items()}
novikov_preset = PRESETS["novikov"]
