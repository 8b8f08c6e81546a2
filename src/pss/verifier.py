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

from dataclasses import asdict, dataclass, field

import numpy as np

from .catalog import Branch, CatalogError, Family, delta
from .jets import dt_env_onshell, dx_env, partials

__all__ = [
    "DEFAULT_SEED",
    "VerificationReport",
    "structure_residuals_env",
    "certify_structure",
    "check_theorem21_conditions",
    "certify",
    "sample_envs",
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


# ----------------------------------------------------------------------
# Pointwise operations


def structure_residuals_env(fam: Family, env, zt=None):
    """(R1, R2, R3) and their magnitude scales on an environment.

    `zt` overrides the on-shell mixed derivatives z_{k,t}; passing values
    measured from a discrete field turns the identity into a check of how
    well that field satisfies the equation.  Column 1 with its D_t and
    column 2 with its D_x each come from one seeding of the column.
    """
    if zt is None:
        zt = fam.zt(env, 2)
    v1, dts = dt_env_onshell(fam.column(1), env, zt)
    v2, dxs = dx_env(fam.column(2), env)
    # the Delta terms of R1, R2, R3: +Delta23, -Delta13, -Delta12
    deltas = (delta(v1, v2, 2, 3), -delta(v1, v2, 1, 3), -delta(v1, v2, 1, 2))
    residuals, scales = [], []
    for dt, dx, d in zip(dts, dxs, deltas):
        residuals.append(dx - dt + d)
        scales.append(np.maximum(1.0, np.maximum(np.abs(dx), np.maximum(np.abs(dt), np.abs(d)))))
    return tuple(residuals), tuple(scales)


# ----------------------------------------------------------------------
# Sampling


def sample_envs(fam: Family, n: int, rng, bounds=(-1.0, 1.0)):
    """Environment of n on-shell jets z0..z3, w1, v1, components uniform in `bounds`.

    Rejects samples too close to the branch degeneracies (|f'|, |phi12|,
    sine-Gordon's |sin z0| or T25ii's |phi| below 1e-3), so residual scales
    stay trustworthy.  Each round takes max(64, 2 * (jets still missing))
    values of z0, z1, z2, z3, z4, z5, w1, v1 in turn, which fixes the stream
    `rng` yields, and keeps only the accepted jets it needs.  The guard reads
    z0, z1 and z2 alone, so those are drawn whole; z3, w1 and v1 are drawn
    up to the last jet kept, and the generator is advanced past the rest of
    each and past z4 and z5, which nothing reads.  `rng` must therefore be
    a PCG64 `Generator` (`np.random.default_rng`), whose `advance` skips
    exactly one double per step.
    """
    lo, hi = bounds
    names = ("z0", "z1", "z2", "z3", "w1", "v1")
    chunks = {nm: [] for nm in names}
    have = 0
    attempts = 0
    while have < n:
        attempts += 1
        if attempts > 200:
            raise CatalogError("sampling guard rejected too many jets; bad family domain?")
        draw = max(64, 2 * (n - have))
        env = {nm: rng.uniform(lo, hi, size=draw) for nm in names[:3]}
        keep = np.flatnonzero(fam.sampling_guard(env))[:n - have]
        m = int(keep[-1]) + 1 if len(keep) else 0
        for nm, skip in (("z3", 3 * draw - m), ("w1", draw - m), ("v1", draw - m)):
            env[nm] = rng.uniform(lo, hi, size=m)
            rng.bit_generator.advance(skip)  # z3's skip also passes z4 and z5
        env = fam.constrain_env({nm: env[nm][keep] for nm in names})
        for nm in names:
            chunks[nm].append(env[nm])
        have += len(keep)
    return {nm: c[0] if len(c) == 1 else np.concatenate(c) for nm, c in chunks.items()}


# jets per structure_residuals_env call in certify_structure: its Dual
# temporaries stay in cache (10^5-jet sweeps run about a quarter faster
# than in one call, and blocks of 2048 are slower again)
_BLOCK = 16384


def certify_structure(
    fam: Family, samples: int = 1000, tol: float = 1e-8, seed: int | None = DEFAULT_SEED, bounds=(-1.0, 1.0)
) -> VerificationReport:
    """Certify R1, R2, R3 over seeded random on-shell jets, _BLOCK jets at a time."""
    rng = np.random.default_rng(seed)
    env = sample_envs(fam, samples, rng, bounds=bounds)
    peaks, failing = [], []
    for start in range(0, samples, _BLOCK):
        block = {k: v[start:start + _BLOCK] for k, v in env.items()}
        residuals, scales = structure_residuals_env(fam, block)
        scaled = {f"R{k}": np.abs(r) / sc for k, (r, sc) in enumerate(zip(residuals, scales), 1)}
        peaks.append([np.max(v) for v in scaled.values()])
        failing += _collect_failing(block, scaled, tol, start, cap=10 - len(failing))
    # np.max, not max: a NaN block maximum must reach the report
    maxima = {f"R{k}_max": float(np.max(col)) for k, col in enumerate(zip(*peaks), 1)}
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


def _collect_failing(env, scaled, tol, start=0, cap=10):
    """The first `cap` jets of env where a scaled residual exceeds tol or is
    NaN (not v <= tol, the verdict's test), each indexed from `start`, with
    its coordinates and scaled residuals."""
    out = []
    n = len(np.atleast_1d(env["z0"]))
    scaled = {k: np.broadcast_to(v, (n,)) for k, v in scaled.items()}
    bad = np.zeros(n, dtype=bool)
    for v in scaled.values():
        bad |= ~(v <= tol)
    for i in np.nonzero(bad)[0][:cap]:
        jet = {k: float(np.atleast_1d(env[k])[i]) for k in env}
        out.append({
            "index": start + int(i),
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

    col1, col2 = fam.column(1), fam.column(2)
    v1, g1s = partials(col1, env, ("z0", "z1", "z2", "z3"))
    v2, g2s = partials(col2, env, ("z3",))
    f11 = v1[0]
    c36 = c37 = 0.0
    for g1, g2 in zip(g1s, g2s):
        c36 = max(c36, float(np.max(np.abs(g1["z0"] + g1["z2"]))))
        c37 = max(c37, float(np.max(np.abs(g1["z1"]))), float(np.max(np.abs(g1["z3"]))))
        c37 = max(c37, float(np.max(np.abs(g2["z3"]))))

    # (38): f_i2 + lam z0^2 f_i1 must not depend on z2 (sampled at two z2)
    env_b = dict(env)
    env_b["z2"] = env["z2"] + 0.75
    c38 = 0.0
    for fi1, fi2, fi1b, fi2b in zip(v1, v2, col1(env_b), col2(env_b)):
        va = fi2 + lam * z0**2 * fi1
        vb = fi2b + lam * env_b["z0"] ** 2 * fi1b
        c38 = max(c38, float(np.max(np.abs(va - vb) / np.maximum(1.0, np.abs(va)))))

    # phi-level identities (39)-(41)
    (p12, p22, p32), (d12, d22, d32) = partials(fam.phi_column, env, ("z0", "z1"))
    g11 = g1s[0]["z0"]
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
    scaled = {"c39": np.abs(c39) / scale, "c40": np.abs(c40) / scale, "c41": np.abs(c41) / scale}
    residuals = {
        "c36": c36,
        "c37": c37,
        "c38": c38,
        **{k: float(np.max(v)) for k, v in scaled.items()},
        "c42_min": float(np.min(np.abs(c42))),
    }
    ok = all(residuals[k] <= tol for k in ("c36", "c37", "c38", "c39", "c40", "c41"))
    ok = ok and residuals["c42_min"] > tol
    failing = _collect_failing(env, scaled, tol)
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
