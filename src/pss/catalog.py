"""Catalog of classified equation families u_t - u_xxt = lam*u^2*u_xxx + G.

Each family carries the six coefficient functions f_ij of the associated
1-forms omega_i = f_i1 dx + f_i2 dt, the right-hand side G, and the flux
F = lam*z0^2*z3 + G.  The branches:

    T22         f, phi12 free;     T24 at lam = C = 0
    T23         f free;            phi12 forced to a z0*z1 multiple
    T24         f, phi12 free;     the Novikov equation lives here
    T25i        everything closed form (exp(theta*z0) profile)
    T25ii       phi free (profile in exp(tau*z1))
    SINE_GORDON the classical reference case u_xt = sin(u)

Every +- / -+ printed in a branch is resolved by the single `sign`
parameter read vertically: +- maps to sign, -+ maps to -sign.  Structural
identities shared by the five form-(7) branches (all but SINE_GORDON):

    f_p1 = mu_p * f11 + eta_p           (p = 2, 3)
    f_i2 = -lam * z0^2 * f_i1 + phi_i2  (phi_i2 a function of z0, z1 only)
    f_i1 depends on z0, z2 only through s = z0 - z2

Each form-(7) builder supplies only f11, phi12, phi22, phi32 and G;
`Family._form7` applies the first two identities once for all of them,
with the resolved (mu2, eta2) and (mu3, eta3).  T22 is T24 at lam = C = 0
(same mu3, eta3), so the T24 builder makes both; its lam and C terms are
exact zeros there.  The sine-Gordon builder spells out its six f_ij.

Derived constants (never user-set): gamma and eta3 for T23 (eta3 solves
eta2^2 - eta3^2 - (mu2*eta3 - mu3*eta2)^2 = 0, root chosen by `root`);
mu3, eta3, m1 for T25i; mu3, eta3, m2 for T25ii (mu3 solves
mu3^2 = 1 + mu2^2 - tau^2/m^2, root chosen by `root`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from . import dual
from .dual import Taylor, primal
from .expr import parse_expression
from .jets import JetFunction, prolong_env

__all__ = [
    "Branch",
    "FamilyParams",
    "Family",
    "CatalogError",
    "ConstraintViolation",
    "MissingExpression",
    "validate_params",
    "build_family",
    "novikov_preset",
    "sine_gordon_preset",
    "PRESETS",
    "family_from_dict",
    "load_family",
]

BRANCHES = ("T22", "T23", "T24", "T25i", "T25ii", "SINE_GORDON")


class Branch:
    T22 = "T22"
    T23 = "T23"
    T24 = "T24"
    T25I = "T25i"
    T25II = "T25ii"
    SINE_GORDON = "SINE_GORDON"


class CatalogError(ValueError):
    pass


class ConstraintViolation(CatalogError):
    def __init__(self, violations):
        self.violations = list(violations)
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
    mu3: float | None = None
    eta3: float | None = None
    gamma: float | None = None
    theta: float = 0.0
    B: float = 0.0
    m1: float | None = None
    tau: float = 0.0
    m2: float | None = None
    m: float = 0.0
    n: float = 0.0
    eta: float = 1.0
    sign: int = 1
    root: int = 1


def _close(a, b, scale=1.0):
    return abs(a - b) <= 1e-10 * max(1.0, abs(scale), abs(a), abs(b))


def _k(mu2):
    return math.sqrt(1.0 + mu2 * mu2)


def resolve_params(p: FamilyParams) -> FamilyParams:
    """Fill in the derived constants; raise on violated constraints."""
    violations = validate_params(p)
    if violations:
        raise ConstraintViolation(violations)
    s = float(p.sign)
    k = _k(p.mu2)
    if p.branch == Branch.T22:
        return replace(p, lam=0.0, mu3=s * k, eta3=s * p.mu2 * p.eta2 / k)
    if p.branch == Branch.T23:
        mu3 = p.mu3 if p.mu3 is not None else 0.0
        if p.eta3 is not None:
            eta3 = p.eta3
        else:
            disc = 1.0 + p.mu2**2 - mu3**2
            eta3 = (p.mu2 * mu3 * p.eta2 + p.root * abs(p.eta2) * math.sqrt(disc)) / (1.0 + p.mu2**2)
        gamma = p.mu2 * mu3 * p.eta2 - (1.0 + p.mu2**2) * eta3
        return replace(p, mu3=mu3, eta3=eta3, gamma=gamma)
    if p.branch == Branch.T24:
        return replace(p, mu3=s * k, eta3=s * p.mu2 * p.eta2 / k)
    if p.branch == Branch.T25I:
        mu3 = s * k
        eta3 = s * (p.theta + p.m * p.mu2 * p.eta2) / (p.m * k)
        m1 = 2.0 * p.n / p.m - 1.0 / p.theta + (p.eta2**2 - eta3**2) / p.theta
        return replace(p, mu3=mu3, eta3=eta3, m1=m1)
    if p.branch == Branch.T25II:
        disc = 1.0 + p.mu2**2 - (p.tau / p.m) ** 2
        mu3 = p.root * math.sqrt(disc)
        eta3 = p.eta2 * (p.mu2 * mu3 - s * p.tau / p.m) / (1.0 + p.mu2**2)
        # X = s*tau*(n/m - m2) must equal eta2*(mu3 + s*tau*mu2/m)/k^2
        X = p.eta2 * (mu3 + s * p.tau * p.mu2 / p.m) / (1.0 + p.mu2**2)
        m2 = p.n / p.m - s * X / p.tau
        return replace(p, mu3=mu3, eta3=eta3, m2=m2)
    return p


def validate_params(p: FamilyParams) -> list:
    """Branch constraints; empty list iff all hold."""
    out = []
    if p.branch not in BRANCHES:
        return [f"unknown branch {p.branch!r}"]
    if p.sign not in (1, -1):
        out.append("sign must be +1 or -1")
    if p.root not in (1, -1):
        out.append("root must be +1 or -1")
    if p.branch == Branch.T22:
        if p.eta2 == 0:
            out.append("eta2 != 0 violated (eta2 = 0)")
        if p.lam not in (0, 0.0):
            out.append("T22 has no lam*u^2*u_xxx term (lam must be 0)")
        if p.C not in (0, 0.0):
            out.append("T22 has no C term (C must be 0)")
    elif p.branch == Branch.T23:
        if p.lam == 0:
            out.append("lam != 0 violated (lam = 0)")
        if p.eta2 == 0:
            out.append("eta2 != 0 violated (eta2 = 0)")
        mu3 = p.mu3 if p.mu3 is not None else 0.0
        disc = 1.0 + p.mu2**2 - mu3**2
        if p.eta3 is not None:
            quad = p.eta2**2 - p.eta3**2 - (p.mu2 * p.eta3 - mu3 * p.eta2) ** 2
            if not _close(quad, 0.0, scale=p.eta2**2):
                out.append(
                    "eta2^2 - eta3^2 - (mu2*eta3 - mu3*eta2)^2 = 0 violated "
                    f"(residual {quad:.3e} at eta3 = {p.eta3})"
                )
            gamma = p.mu2 * mu3 * p.eta2 - (1.0 + p.mu2**2) * p.eta3
            if gamma == 0:
                out.append("gamma = mu2*mu3*eta2 - (1+mu2^2)*eta3 != 0 violated (gamma = 0)")
        elif disc <= 0:
            out.append(
                "eta2^2 - eta3^2 - (mu2*eta3 - mu3*eta2)^2 = 0 has no real eta3 with "
                f"gamma != 0 (needs mu3^2 < 1 + mu2^2, got mu3 = {mu3})"
            )
    elif p.branch == Branch.T24:
        if (p.lam * p.eta2) ** 2 + p.C**2 == 0:
            out.append(f"(lam*eta2)^2 + C^2 != 0 violated (lam = {p.lam}, eta2 = {p.eta2}, C = {p.C})")
    elif p.branch == Branch.T25I:
        if p.theta == 0:
            out.append("theta != 0 violated (theta = 0)")
        if p.lam**2 + p.B**2 == 0:
            out.append("lam^2 + B^2 != 0 violated (lam = B = 0)")
        if p.m == 0:
            out.append("m != 0 violated (m = 0)")
    elif p.branch == Branch.T25II:
        if not p.tau > 0:
            out.append(f"tau > 0 violated (tau = {p.tau})")
        if p.m * p.eta2 == 0:
            out.append(f"m*eta2 != 0 violated (m = {p.m}, eta2 = {p.eta2})")
        elif 1.0 + p.mu2**2 - (p.tau / p.m) ** 2 < 0:
            out.append(
                "mu3^2 = 1 + mu2^2 - tau^2/m^2 has no real root "
                f"(tau/m = {p.tau / p.m})"
            )
    elif p.branch == Branch.SINE_GORDON:
        if p.eta == 0:
            out.append("eta != 0 violated (eta = 0)")
    return out


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
    """A classified equation instance; immutable after construction."""

    def __init__(self, params, f_expr=None, phi12_expr=None, phi_expr=None, name=None):
        self.params = resolve_params(params)
        self.f_expr = f_expr
        self.phi12_expr = phi12_expr
        self.phi_expr = phi_expr
        self.name = name or self.params.branch
        self._build()

    def __repr__(self):
        return f"Family({self.name})"

    # -- construction ---------------------------------------------------
    def _build(self):
        p = self.params
        builder, need = {
            Branch.T22: (self._build_t24, ("f", "phi12")),
            Branch.T23: (self._build_t23, ("f",)),
            Branch.T24: (self._build_t24, ("f", "phi12")),
            Branch.T25I: (self._build_t25i, ()),
            Branch.T25II: (self._build_t25ii, ("phi",)),
            Branch.SINE_GORDON: (self._build_sg, ()),
        }[p.branch]
        have = {"f": self.f_expr, "phi12": self.phi12_expr, "phi": self.phi_expr}
        for nm in need:
            if have[nm] is None:
                raise MissingExpression(f"branch {p.branch} requires the expression {nm!r}")
        builder(float(p.sign), _k(p.mu2))

    def _wrap(self, fns, g_fn, phi_fns):
        zfree = frozenset({"z0", "z1", "z2"})
        names = ("f11", "f12", "f21", "f22", "f31", "f32")
        self.fij_fns = {
            (1 + i // 2, 1 + i % 2): JetFunction(fn, zfree, nm)
            for i, (fn, nm) in enumerate(zip(fns, names))
        }
        self.G_fn = None if g_fn is None else JetFunction(g_fn, zfree, "G")
        if g_fn is None:
            self.F_fn = None
        else:
            lam = self.params.lam

            def F(env, _g=g_fn, _lam=lam):
                return _lam * env["z0"] ** 2 * env["z3"] + _g(env)

            self.F_fn = JetFunction(F, zfree | {"z3"}, "F")
        self.phi12_fn, self.phi22_fn, self.phi32_fn = (
            JetFunction(fn, {"z0", "z1"}, nm) for fn, nm in zip(phi_fns, ("phi12", "phi22", "phi32"))
        )

    def _form7(self, f11, phi_fns, G):
        """Assemble a form-(7) family from f11, (phi12, phi22, phi32) and G
        through the structural identities f_p1 = mu_p*f11 + eta_p (p = 2, 3)
        and f_i2 = -lam*z0^2*f_i1 + phi_i2, with the resolved mu_p, eta_p."""
        p = self.params
        lam, mu2, eta2, mu3, eta3 = p.lam, p.mu2, p.eta2, p.mu3, p.eta3

        def f21(env):
            return mu2 * f11(env) + eta2

        def f31(env):
            return mu3 * f11(env) + eta3

        def column2(fi1, phi):
            def fi2(env):
                return -lam * env["z0"] ** 2 * fi1(env) + phi(env)

            return fi2

        f12, f22, f32 = (column2(fi1, phi) for fi1, phi in zip((f11, f21, f31), phi_fns))
        self._wrap((f11, f12, f21, f22, f31, f32), G, phi_fns)

    def _f11_of_s(self):
        """f11 = f(s), s = z0 - z2, for the branches with a free profile f."""
        fx = self.f_expr

        def f11(env):
            return fx({"s": env["z0"] - env["z2"]})

        return f11

    def _phi12_of_expr(self):
        px = self.phi12_expr

        def phi12(env):
            return px({"z0": env["z0"], "z1": env["z1"]})

        return phi12

    def _build_t23(self, s, k):
        p = self.params
        fx = self.f_expr
        lam, mu2, eta2, mu3, eta3, gam = p.lam, p.mu2, p.eta2, p.mu3, p.eta3, p.gamma
        q = 2.0 / gam * lam * eta2

        def phi12(env):
            return -q * env["z0"] * env["z1"]

        def phi22(env):
            return -mu2 * q * env["z0"] * env["z1"]

        def phi32(env):
            return -mu3 * q * env["z0"] * env["z1"]

        def G(env):
            z0, z1, z2 = env["z0"], env["z1"], env["z2"]
            fv, fp = _f_and_prime(fx, z0 - z2)
            _check_nonzero(fp, FPrimeZero, "f'")
            inner = (
                2.0 * z0 * z1 * fv
                + z0**2 * z1 * fp
                + (2.0 * eta2 / gam) * (z1**2 + z0 * z2 + (mu3 * eta2 - mu2 * eta3) * z0 * z1)
            )
            return -(lam / fp) * inner

        self._form7(self._f11_of_s(), (phi12, phi22, phi32), G)

    def _build_t24(self, s, k):
        p = self.params
        fx, px = self.f_expr, self.phi12_expr
        lam, mu2, eta2, C = p.lam, p.mu2, p.eta2, p.C
        phi12 = self._phi12_of_expr()

        def phi22(env):
            return mu2 * phi12(env) + C + lam * eta2 * env["z0"] ** 2

        def phi32(env):
            return s * (k * phi12(env) + mu2 * (lam * eta2 * env["z0"] ** 2 + C) / k)

        def G(env):
            z0, z1, z2 = env["z0"], env["z1"], env["z2"]
            fv, fp = _f_and_prime(fx, z0 - z2)
            _check_nonzero(fp, FPrimeZero, "f'")
            pv, p0, p1 = _phi12_parts(px, z0, z1)
            return (
                z1 * p0
                + z2 * p1
                - lam * z0**2 * z1 * fp
                + s * eta2 / k * pv
                - (2.0 * lam * z0 * z1 + s * eta2 / k * lam * z0**2 + s * C / k) * fv
            ) / fp

        self._form7(self._f11_of_s(), (phi12, phi22, phi32), G)

    def _build_t25i(self, s, k):
        p = self.params
        lam, mu2, eta2 = p.lam, p.mu2, p.eta2
        theta, B, m, n = p.theta, p.B, p.m, p.n
        mu3, eta3, m1 = p.mu3, p.eta3, p.m1

        def W(z0):
            return 2.0 * lam / theta - theta * B * dual.exp(theta * z0) + 2.0 * lam * z0

        def f11(env):
            return m * (env["z0"] - env["z2"]) - n

        def phi12(env):
            z0, z1 = env["z0"], env["z1"]
            return -(m / theta) * (2.0 * lam - theta**2 * B * dual.exp(theta * z0)) * z1**2 - W(z0) * (
                (m * z0 - n) / theta + s * (mu2 - m * eta2 / theta) * z1 / k
            )

        def phi22(env):
            return mu2 * phi12(env) + W(env["z0"]) * (s * k * env["z1"] - eta2 / theta)

        def phi32(env):
            return mu3 * phi12(env) + W(env["z0"]) * (mu2 * env["z1"] - eta3 / theta)

        def G(env):
            z0, z1, z2 = env["z0"], env["z1"], env["z2"]
            E = dual.exp(theta * z0)
            return lam * (
                -5.0 * z0**2 * z1
                + 4.0 * z0 * z1 * z2
                + (2.0 * m1 - 4.0 / theta) * z0 * z1
                + (2.0 * m1 / theta) * z1
                - (2.0 / theta) * z1 * z2
            ) + (theta * z1**3 + 2.0 * z0 * z1 + z1 * z2 - m1 * z1) * theta * B * E

        self._form7(f11, (phi12, phi22, phi32), G)

    def _build_t25ii(self, s, k):
        p = self.params
        phix = self.phi_expr
        lam, mu2, eta2 = p.lam, p.mu2, p.eta2
        tau, m, n = p.tau, p.m, p.n
        mu3, eta3, m2 = p.mu3, p.eta3, p.m2

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

        def phi22(env):
            (pv,) = _phi(env["z0"], 0)
            return mu2 * phi12(env) + s * tau * eta2 * pv * dual.exp(s * tau * env["z1"])

        def phi32(env):
            (pv,) = _phi(env["z0"], 0)
            return mu3 * phi12(env) + s * tau * eta3 * pv * dual.exp(s * tau * env["z1"])

        def G(env):
            z0, z1, z2 = env["z0"], env["z1"], env["z2"]
            pv, pd, pdd = _phi(z0, 2)
            Ez = dual.exp(s * tau * z1)
            return (
                lam * (-3.0 * z0**2 * z1 + 2.0 * z0 * z1 * z2 + 2.0 * m2 * z0 * z1 - s * (2.0 / tau) * (z1**2 + z0 * z2))
                + pdd * z1**2 * Ez
                + s * (tau * z0 * z1 + s * z2 + tau * z1 * z2 - m2 * tau * z1) * pd * Ez
                + tau * (s * z1 + tau * z0 * z2 - m2 * tau * z2) * pv * Ez
            )

        self._form7(f11, (phi12, phi22, phi32), G)

    def _build_sg(self, s, k):
        eta = self.params.eta

        def f11(env):
            return 0.0 * env["z0"]

        def f12(env):
            return dual.sin(env["z0"]) / eta

        def f21(env):
            return eta + 0.0 * env["z0"]

        def f22(env):
            return dual.cos(env["z0"]) / eta

        def f31(env):
            return env["z1"]

        def f32(env):
            return 0.0 * env["z0"]

        def phi12(env):
            return dual.sin(env["z0"]) / eta

        def phi22(env):
            return dual.cos(env["z0"]) / eta

        def phi32(env):
            return 0.0 * env["z0"]

        self._wrap((f11, f12, f21, f22, f31, f32), None, (phi12, phi22, phi32))

    # -- evaluation surface ----------------------------------------------
    def fij(self, i, j):
        return self.fij_fns[(i, j)]

    @property
    def is_form7(self):
        return self.params.branch != Branch.SINE_GORDON

    def zt(self, env, upto):
        """On-shell mixed derivatives z_{k,t}, k = 0..upto."""
        if self.is_form7:
            return prolong_env(env, self.F_fn, upto)
        # sine-Gordon: z_{0,t} = w1 and z_{1,t} = v1 are jet data; the
        # equation u_xt = sin u supplies z_{k,t} = D_x^{k-1} sin(z0), k >= 2
        from .jets import dx_power_values

        zt = [env["w1"]]
        if upto >= 1:
            zt.append(env["v1"])
        if upto >= 2:
            sin0 = JetFunction(lambda e: dual.sin(e["z0"]), {"z0"}, "sin(z0)")
            zt.extend(dx_power_values(sin0, env, upto - 1)[1:])
        return zt

    def constrain_env(self, env):
        """Force the on-shell constraints a sampled jet must satisfy."""
        if not self.is_form7:
            env = dict(env)
            env["v1"] = dual.sin(env["z0"])  # v1 = u_xt = sin(u) on-shell
        return env

    def sampling_guard(self, env):
        """Boolean mask of samples safely away from the branch degeneracies."""
        ok = np.ones(np.shape(primal(env["z0"])) or (), dtype=bool)
        b = self.params.branch
        if b == Branch.SINE_GORDON:
            return np.abs(np.sin(primal(env["z0"]))) > 1e-3
        if self.f_expr is not None:
            _, fp = _f_and_prime(self.f_expr, env["z0"] - env["z2"])
            ok &= np.abs(primal(fp)) > 1e-3
        p12 = self.phi12_fn(env)
        ok &= np.abs(primal(p12)) > 1e-3
        if b == Branch.T25II:
            (pv,) = _uni_derivs(self.phi_expr, "z0", env["z0"], 0)
            ok &= np.abs(primal(pv)) > 1e-3
        return ok

    # -- serialization ----------------------------------------------------
    def to_dict(self):
        p = self.params
        params = {k: getattr(p, k) for k in _PARAM_KEYS}
        return {
            "branch": p.branch,
            "params": {k: v for k, v in params.items() if v is not None},
            "f": None if self.f_expr is None else self.f_expr.src,
            "phi12": None if self.phi12_expr is None else self.phi12_expr.src,
            "phi": None if self.phi_expr is None else self.phi_expr.src,
            "sign": p.sign,
        }


_PARAM_KEYS = (
    "lam", "mu2", "eta2", "C", "mu3", "eta3", "gamma", "theta", "B",
    "m1", "tau", "m2", "m", "n", "eta", "root",
)


def params_from_dict(doc) -> FamilyParams:
    if not isinstance(doc, dict):
        raise CatalogError(f"family spec: must be a JSON object, got {json.dumps(doc)}")
    allowed = {"branch", "params", "f", "phi12", "phi", "sign"}
    unknown = set(doc) - allowed
    if unknown:
        raise CatalogError(f"unknown keys in family spec: {sorted(unknown)}")
    if not isinstance(doc.get("branch"), str):
        raise CatalogError(f"family spec: branch must be a string, got {json.dumps(doc.get('branch'))}")
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise CatalogError(f"family spec: params must be a JSON object, got {json.dumps(params)}")
    bad = set(params) - set(_PARAM_KEYS)
    if bad:
        raise CatalogError(f"unknown parameter keys: {sorted(bad)}")
    kw = {"sign": doc.get("sign", 1), **params}
    for key, val in kw.items():
        _check_param(key, val)
    return FamilyParams(branch=doc["branch"], **kw)


_NULLABLE = {f.name for f in fields(FamilyParams) if f.default is None}


def _check_param(key, val):
    """CatalogError unless `val` has the type FamilyParams gives `key`."""
    number = isinstance(val, (int, float)) and not isinstance(val, bool)
    if key in ("sign", "root"):
        ok, want = number and isinstance(val, int), "an integer"
    elif key in _NULLABLE:
        ok, want = number or val is None, "a number or null"
    else:
        ok, want = number, "a number"
    if not ok:
        raise CatalogError(f"family spec: {key} must be {want}, got {json.dumps(val)}")


def family_from_dict(doc, name=None) -> Family:
    params = params_from_dict(doc)
    exprs = {key: doc.get(key) for key in ("f", "phi12", "phi")}
    for key, val in exprs.items():
        if not (val is None or isinstance(val, str)):
            raise CatalogError(f"family spec: {key} must be a string or null, got {json.dumps(val)}")
    return build_family(params, name=name, **exprs)


def load_family(path) -> Family:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return family_from_dict(doc, name=str(path))


# ----------------------------------------------------------------------
# Public operations


def build_family(params: FamilyParams, f=None, phi12=None, phi=None, name=None) -> Family:
    """Assemble a Family from parameters plus expression source texts."""
    f_expr = parse_expression(f, ["s"]) if isinstance(f, str) else f
    phi12_expr = parse_expression(phi12, ["z0", "z1"]) if isinstance(phi12, str) else phi12
    phi_expr = parse_expression(phi, ["z0"]) if isinstance(phi, str) else phi
    return Family(params, f_expr, phi12_expr, phi_expr, name=name)


# ----------------------------------------------------------------------
# Presets


def novikov_preset() -> Family:
    """The Novikov equation u_t - u_xxt = u^2 u_xxx - u^2 u_xx - 3 u u_x^2
    - 2 u^2 u_x + 4 u u_x u_xx + u_x^3 as a T24 instance."""
    p = FamilyParams(branch=Branch.T24, lam=1.0, mu2=0.0, eta2=1.0, C=0.0, sign=1)
    return build_family(p, f="s", phi12="z0*(z1-z0)^2", name="novikov")


def sine_gordon_preset(eta=1.0) -> Family:
    p = FamilyParams(branch=Branch.SINE_GORDON, eta=eta, sign=1)
    return build_family(p, name="sine-gordon")


def t22_demo_preset() -> Family:
    p = FamilyParams(branch=Branch.T22, mu2=0.0, eta2=1.0, sign=1)
    return build_family(p, f="s", phi12="z1", name="t22-demo")


def t23_demo_preset() -> Family:
    p = FamilyParams(branch=Branch.T23, lam=1.0, mu2=0.0, eta2=1.0, mu3=0.0, root=1)
    return build_family(p, f="s", name="t23-demo")


def t25i_demo_preset() -> Family:
    p = FamilyParams(
        branch=Branch.T25I, lam=1.0, theta=1.0, B=1.0, mu2=0.0, eta2=1.0, m=1.0, n=0.0, sign=1
    )
    return build_family(p, name="t25i-demo")


def t25ii_demo_preset() -> Family:
    p = FamilyParams(
        branch=Branch.T25II, lam=1.0, tau=1.0, mu2=0.0, eta2=1.0, m=2.0, n=0.0, sign=1, root=1
    )
    return build_family(p, phi="exp(z0)", name="t25ii-demo")


PRESETS = {
    "novikov": novikov_preset,
    "sine-gordon": sine_gordon_preset,
    "t22-demo": t22_demo_preset,
    "t23-demo": t23_demo_preset,
    "t25i-demo": t25i_demo_preset,
    "t25ii-demo": t25ii_demo_preset,
}
