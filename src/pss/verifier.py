"""Numerical certification of the pseudospherical structure equations.

For omega_i = f_i1 dx + f_i2 dt the structure equations read

    d omega_1 = omega_3 ^ omega_2,
    d omega_2 = omega_1 ^ omega_3,
    d omega_3 = omega_1 ^ omega_2,

and with dx^dt positively oriented their dx^dt coefficients give the
residuals (left minus right):

    R1 = Dx f12 - Dt f11 + Delta23
    R2 = Dx f22 - Dt f21 - Delta13
    R3 = Dx f32 - Dt f31 - Delta12

with Delta_ij = f_i1 f_j2 - f_j1 f_i2 and Dt taken on-shell through the
prolongation of the family's equation.  For a genuine family all three
vanish identically in the free jet coordinates; this module certifies
that at seeded random jets, together with the classification conditions
(the f_i1 translation-invariance, the phi-split of f_i2, the three
polynomial identities, and the nondegeneracy witness).

Pass thresholds scale with the sampled magnitudes: a residual passes at
tolerance tol when |R| <= tol * max(1, |terms|_inf).
"""

from __future__ import annotations

import copy
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .catalog import Branch, CatalogError, Family
from .jets import JetFunction, dt_env_onshell, dx_env, partials

__all__ = [
    "DEFAULT_SEED",
    "VerificationReport",
    "delta",
    "structure_residuals_env",
    "nondegeneracy",
    "certify_structure",
    "check_theorem21_conditions",
    "certify",
    "sample_envs",
    "perturbed_family",
]

DEFAULT_SEED = 74250


@dataclass
class VerificationReport:
    family: str
    seed: int | None
    samples: int
    tolerance: float
    residuals: dict
    verdict: str
    failing: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    def to_dict(self):
        return asdict(self)

    def to_json(self, indent=2):
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


# ----------------------------------------------------------------------
# Pointwise operations


def delta(fam: Family, env, i: int, j: int):
    """Delta_ij = f_i1 f_j2 - f_j1 f_i2 on a jet environment."""
    if i not in (1, 2, 3) or j not in (1, 2, 3):
        raise ValueError("indices must be in {1, 2, 3}")
    return fam.fij(i, 1)(env) * fam.fij(j, 2)(env) - fam.fij(j, 1)(env) * fam.fij(i, 2)(env)


def structure_residuals_env(fam: Family, env, zt=None):
    """(R1, R2, R3) and their magnitude scales on an environment.

    `zt` overrides the on-shell mixed derivatives z_{k,t}; passing values
    measured from a discrete field turns the identity into a check of how
    well that field satisfies the equation.
    """
    f11, f21, f31 = (fam.fij(i, 1) for i in (1, 2, 3))
    f12, f22, f32 = (fam.fij(i, 2) for i in (1, 2, 3))
    v11, v21, v31 = f11(env), f21(env), f31(env)
    v12, v22, v32 = f12(env), f22(env), f32(env)
    d12 = v11 * v22 - v21 * v12
    d13 = v11 * v32 - v31 * v12
    d23 = v21 * v32 - v31 * v22
    if zt is None:
        zt = fam.zt(env, 2)
    dts = [dt_env_onshell(f, env, zt) for f in (f11, f21, f31)]
    dxs = [dx_env(f, env) for f in (f12, f22, f32)]
    r1 = dxs[0] - dts[0] + d23
    r2 = dxs[1] - dts[1] - d13
    r3 = dxs[2] - dts[2] - d12
    one = 1.0
    scales = (
        np.maximum(one, np.maximum(np.abs(dxs[0]), np.maximum(np.abs(dts[0]), np.abs(d23)))),
        np.maximum(one, np.maximum(np.abs(dxs[1]), np.maximum(np.abs(dts[1]), np.abs(d13)))),
        np.maximum(one, np.maximum(np.abs(dxs[2]), np.maximum(np.abs(dts[2]), np.abs(d12)))),
    )
    return (r1, r2, r3), scales


def nondegeneracy(fam: Family, env, tol: float = 1e-9):
    """(Delta12, ok) at a one-jet environment: ok iff |Delta12| > tol and
    Delta13^2 + Delta23^2 > tol^2."""
    d12 = delta(fam, env, 1, 2)
    d13 = delta(fam, env, 1, 3)
    d23 = delta(fam, env, 2, 3)
    ok = bool(abs(d12) > tol and d13 * d13 + d23 * d23 > tol * tol)
    return float(d12), ok


# ----------------------------------------------------------------------
# Sampling


def sample_envs(fam: Family, n: int, rng, bounds=(-1.0, 1.0)):
    """Environment of n on-shell jets z0..z5, w1, v1, components uniform in `bounds`.

    Rejects samples too close to the branch degeneracies (|f'| or |phi12|
    below 1e-3), so residual scales stay trustworthy.
    """
    lo, hi = bounds
    names = [f"z{i}" for i in range(6)] + ["w1", "v1"]
    chunks = {nm: [] for nm in names}
    have = 0
    attempts = 0
    while have < n:
        attempts += 1
        if attempts > 200:
            raise CatalogError("sampling guard rejected too many jets; bad family domain?")
        draw = max(64, 2 * (n - have))
        env = {nm: rng.uniform(lo, hi, size=draw) for nm in names}
        env["x"] = np.zeros(draw)
        env["t"] = np.zeros(draw)
        env = fam.constrain_env(env)
        mask = fam.sampling_guard(env)
        for nm in names:
            chunks[nm].append(env[nm][mask])
        have += int(np.count_nonzero(mask))
    out = {nm: np.concatenate(chunks[nm])[:n] for nm in names}
    out["x"] = np.zeros(n)
    out["t"] = np.zeros(n)
    return out


def _max_scaled(res, scale):
    return float(np.max(np.abs(res) / scale))


def certify_structure(
    fam: Family, samples: int = 1000, tol: float = 1e-8, seed: int | None = DEFAULT_SEED, bounds=(-1.0, 1.0)
) -> VerificationReport:
    """Certify R1, R2, R3 over seeded random on-shell jets."""
    rng = np.random.default_rng(seed)
    env = sample_envs(fam, samples, rng, bounds=bounds)
    (r1, r2, r3), scales = structure_residuals_env(fam, env)
    maxima = {
        "R1_max": _max_scaled(r1, scales[0]),
        "R2_max": _max_scaled(r2, scales[1]),
        "R3_max": _max_scaled(r3, scales[2]),
    }
    failing = _collect_failing(env, {"R1": (r1, scales[0]), "R2": (r2, scales[1]), "R3": (r3, scales[2])}, tol)
    verdict = "pass" if all(v <= tol for v in maxima.values()) else "fail"
    return VerificationReport(
        family=fam.name,
        seed=seed,
        samples=samples,
        tolerance=tol,
        residuals=maxima,
        verdict=verdict,
        failing=failing,
        notes={
            "residual_convention": "R_k = dx^dt coefficient of (left - right) of the structure equations",
            "scaling": "residuals reported relative to max(1, |terms|_inf) per sample",
            "bounds": list(bounds),
        },
    )


def _collect_failing(env, named, tol, cap=10):
    out = []
    n = len(np.atleast_1d(env["z0"]))
    scaled = {k: np.broadcast_to(np.abs(res) / scale, (n,)) for k, (res, scale) in named.items()}
    bad = np.zeros(n, dtype=bool)
    for v in scaled.values():
        bad |= v > tol
    for i in np.nonzero(bad)[0][:cap]:
        jet = {k: float(np.atleast_1d(env[k])[i]) for k in env}
        out.append({
            "index": int(i),
            "jet": jet,
            "residuals": {k: float(v[i]) for k, v in scaled.items()},
        })
    return out


# ----------------------------------------------------------------------
# Classification conditions for the equation-form families


def check_theorem21_conditions(
    fam: Family, samples: int = 500, tol: float = 1e-9, seed: int | None = DEFAULT_SEED
) -> VerificationReport:
    """Residuals of the classification conditions at seeded random jets."""
    if fam.params.branch == Branch.SINE_GORDON:
        raise CatalogError("the classification conditions apply to the u_t - u_xxt = lam*u^2*u_xxx + G form only")
    p = fam.params
    lam, mu2, eta2, mu3, eta3 = p.lam, p.mu2, p.eta2, p.mu3, p.eta3
    rng = np.random.default_rng(seed)
    env = sample_envs(fam, samples, rng)
    z0, z1, z2 = env["z0"], env["z1"], env["z2"]

    f11 = fam.fij(1, 1)(env)
    c36 = c37 = 0.0
    for i in (1, 2, 3):
        g1 = partials(fam.fij(i, 1), env, ("z0", "z1", "z2", "z3"))
        c36 = max(c36, float(np.max(np.abs(g1["z0"] + g1["z2"]))))
        c37 = max(c37, float(np.max(np.abs(g1["z1"]))), float(np.max(np.abs(g1["z3"]))))
        g2 = partials(fam.fij(i, 2), env, ("z3",))
        c37 = max(c37, float(np.max(np.abs(g2["z3"]))))

    # (38): f_i2 + lam z0^2 f_i1 must not depend on z2 (sampled at two z2)
    env_b = dict(env)
    env_b["z2"] = env["z2"] + 0.75
    c38 = 0.0
    for i in (1, 2, 3):
        va = fam.fij(i, 2)(env) + lam * z0**2 * fam.fij(i, 1)(env)
        vb = fam.fij(i, 2)(env_b) + lam * env_b["z0"] ** 2 * fam.fij(i, 1)(env_b)
        c38 = max(c38, float(np.max(np.abs(va - vb) / np.maximum(1.0, np.abs(va)))))

    # phi-level identities (39)-(41)
    p12 = fam.phi12_fn(env)
    p22 = fam.phi22_fn(env)
    p32 = fam.phi32_fn(env)
    d12 = partials(fam.phi12_fn, env, ("z0", "z1"))
    d22 = partials(fam.phi22_fn, env, ("z0", "z1"))
    d32 = partials(fam.phi32_fn, env, ("z0", "z1"))
    g11 = partials(fam.fij(1, 1), env, ("z0",))["z0"]
    G = fam.G_fn(env)

    c39 = (
        -G * g11
        + (-2.0 * lam * z0 * f11 - lam * z0**2 * g11 + d12["z0"]) * z1
        + d12["z1"] * z2
        + (mu2 * p32 - mu3 * p22) * f11
        + eta2 * p32
        - eta3 * p22
    )
    c40 = (
        ((mu3 * p12 - p32) - mu2 * (mu2 * p32 - mu3 * p22)) * f11
        + (d22["z0"] - mu2 * d12["z0"]) * z1
        + (d22["z1"] - mu2 * d12["z1"]) * z2
        - 2.0 * lam * eta2 * z0 * z1
        - mu2 * (eta2 * p32 - eta3 * p22)
        + eta3 * p12
    )
    c41 = (
        ((mu2 * p12 - p22) - mu3 * (mu2 * p32 - mu3 * p22)) * f11
        + (d32["z0"] - mu3 * d12["z0"]) * z1
        + (d32["z1"] - mu3 * d12["z1"]) * z2
        - 2.0 * lam * eta3 * z0 * z1
        - mu3 * (eta2 * p32 - eta3 * p22)
        + eta2 * p12
    )
    c42 = (mu2 * p12 - p22) * f11 + eta2 * p12

    scale = np.maximum(1.0, np.maximum.reduce([np.abs(G), np.abs(p12), np.abs(p22), np.abs(p32), np.abs(f11)]))
    residuals = {
        "c36": c36,
        "c37": c37,
        "c38": c38,
        "c39": float(np.max(np.abs(c39) / scale)),
        "c40": float(np.max(np.abs(c40) / scale)),
        "c41": float(np.max(np.abs(c41) / scale)),
        "c42_min": float(np.min(np.abs(c42))),
    }
    ok = all(residuals[k] <= tol for k in ("c36", "c37", "c38", "c39", "c40", "c41"))
    ok = ok and residuals["c42_min"] > tol
    failing = _collect_failing(
        env, {"c39": (c39, scale), "c40": (c40, scale), "c41": (c41, scale)}, tol
    )
    return VerificationReport(
        family=fam.name,
        seed=seed,
        samples=samples,
        tolerance=tol,
        residuals=residuals,
        verdict="pass" if ok else "fail",
        failing=failing,
        notes={"delta": 1, "c42": "nondegeneracy witness, reported as the sampled minimum"},
    )


def certify(fam: Family, samples: int = 1000, tol: float = 1e-8, seed: int | None = DEFAULT_SEED) -> VerificationReport:
    """Structure equations plus (for equation-form families) the classification conditions."""
    rep = certify_structure(fam, samples=samples, tol=tol, seed=seed)
    if fam.params.branch != Branch.SINE_GORDON:
        rep2 = check_theorem21_conditions(fam, samples=min(samples, 500), tol=max(tol, 1e-9), seed=seed)
        rep.residuals.update(rep2.residuals)
        if rep2.verdict == "fail":
            rep.verdict = "fail"
        rep.failing.extend(rep2.failing)
    return rep


# ----------------------------------------------------------------------
# Sensitivity helper (the detector must not be vacuous)


def perturbed_family(fam: Family, i: int, j: int, eps: float = 1e-3):
    """A copy of `fam` with f_ij bumped by eps; used to prove the detector sees broken families."""
    orig = fam.fij_fns[(i, j)]

    def bumped(env):
        return orig(env) + eps

    out = copy.copy(fam)
    out.name = f"{fam.name}+eps{(i, j)}"
    out.fij_fns = {**fam.fij_fns, (i, j): JetFunction(bumped, orig.free, f"{orig.name}+eps")}
    return out
