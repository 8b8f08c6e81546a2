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

from .catalog import CatalogError, Family, delta
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


class _Round:
    """The doubles of one sampling round, addressed by their offset past the
    generator state at the round's start.  A seek at or past the current
    position advances from there; a seek behind it sets that state again."""

    def __init__(self, rng):
        self.rng, self.start, self.at = rng, rng.bit_generator.state, 0

    def seek(self, offset):
        if offset < self.at:
            self.rng.bit_generator.state = self.start
            self.at = 0
        self.rng.bit_generator.advance(offset - self.at)
        self.at = offset

    def read(self, offset, size, bounds):
        """`size` uniform values in `bounds`, `offset` doubles past the start."""
        self.seek(offset)
        self.at += size
        return self.rng.uniform(*bounds, size=size)


def sample_envs(fam: Family, n: int, rng, bounds=(-1.0, 1.0)):
    """Environment of n on-shell jets z0..z3, w1, v1, components uniform in
    `bounds`: the blocks of `_jet_blocks`, joined."""
    blocks = list(_jet_blocks(fam, n, rng, bounds))
    return {nm: np.concatenate([b[nm] for b in blocks]) for nm in blocks[0]}


# most jets per block of _jet_blocks, so per structure_residuals_env call: a
# block's Dual temporaries stay in cache (10^5-jet sweeps take 0.55x the
# time of one call, and blocks of 2048 take 1.5x the time of 8192)
_BLOCK = 8192


def _jet_blocks(fam: Family, n: int, rng, bounds=(-1.0, 1.0)):
    """The n on-shell jets of `sample_envs`, in order, at most _BLOCK at a time.

    Rejects samples too close to the branch degeneracies (|f'|, |phi12|,
    sine-Gordon's |sin z0| or T25ii's |phi| below 1e-3), so residual scales
    stay trustworthy.  A round that still needs `need` jets owns the next
    8 * draw doubles of the stream, draw = max(64, 2 * need): the values of
    z0, z1, z2, z3, z4, z5, w1 and v1, draw each, in that order, so jet j's
    coordinate k is the double at offset k * draw + j.  The round reads each
    coordinate by its offset, advancing the generator from where the last
    read stopped, or from the round's start when a read lies behind it, and
    leaves the generator 8 * draw doubles past that start, wherever it read.
    The guard, which reads z0, z1 and z2 alone and works jet by jet, runs on
    segments of jets, none longer than _BLOCK: the first holds up to
    need + need // 32 + 64 jets, and each later one up to the jets still
    missing over the acceptance seen so far, with the same margin, until
    need jets pass or draw jets are read.  Each segment is cut to its
    accepted jets at once, up to the round's `need`th, and yielded as one
    block: z3, w1 and v1 are read only over the segment's kept range, and
    z4 and z5 never.  The round keeps its first `need` accepted jets, as if
    it had drawn and guarded all 8 * draw values.  `rng` must therefore be
    a PCG64 `Generator` (`np.random.default_rng`), whose `advance` skips
    exactly one double per step.
    """
    if n < 1:
        raise CatalogError(f"samples must be a positive integer, got {n}")
    names = ("z0", "z1", "z2", "z3", "w1", "v1")
    have = 0
    attempts = 0
    while have < n:
        attempts += 1
        if attempts > 200:
            raise CatalogError("sampling guard rejected too many jets; bad family domain?")
        need = n - have
        draw = max(64, 2 * need)
        stream = _Round(rng)
        read, passed = 0, 0
        size = need + need // 32 + 64
        while passed < need and read < draw:
            end = min(draw, read + size, read + _BLOCK)
            seg = [stream.read(k * draw + read, end - read, bounds) for k in range(3)]
            ok = np.flatnonzero(fam.sampling_guard(dict(zip(names, seg))))[:need - passed]
            passed += len(ok)
            if len(ok):
                seg += [stream.read(k * draw + read, int(ok[-1]) + 1, bounds) for k in (3, 6, 7)]
                block = fam.constrain_env({nm: c[ok] for nm, c in zip(names, seg)})
                del seg  # no uncut copy is held while the block is used
                yield block
            read = end
            # the jets still missing over the acceptance seen so far, with the first segment's margin
            missing = need - passed
            size = missing * read // passed + missing // 32 + 64 if passed else draw
        stream.seek(8 * draw)
        have += passed


def certify_structure(
    fam: Family, samples: int = 1000, tol: float = 1e-8, seed: int | None = DEFAULT_SEED, bounds=(-1.0, 1.0)
) -> VerificationReport:
    """Certify R1, R2, R3 over seeded random on-shell jets, one block of `_jet_blocks` at a time."""
    rng = np.random.default_rng(seed)
    peaks, failing, start = [], [], 0
    for block in _jet_blocks(fam, samples, rng, bounds):
        residuals, scales = structure_residuals_env(fam, block)
        scaled = {f"R{k}": np.abs(r) / sc for k, (r, sc) in enumerate(zip(residuals, scales), 1)}
        peaks.append([np.max(v) for v in scaled.values()])
        failing += _collect_failing(block, scaled, tol, start, cap=10 - len(failing))
        start += len(block["z0"])
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
    if not fam.is_form7:
        raise CatalogError("the classification conditions apply to the u_t - u_xxt = lam*u^2*u_xxx + G form only")
    p, c = fam.params, fam.constants
    lam, mu2, eta2, mu3, eta3 = p.lam, p.mu2, p.eta2, c["mu3"], c["eta3"]
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
    if fam.is_form7:
        rep2 = check_theorem21_conditions(fam, samples=min(samples, 500), tol=max(tol, 1e-9), seed=seed)
        rep.residuals.update(rep2.residuals)
        if rep2.verdict == "fail":
            rep.verdict = "fail"
        rep.failing.extend(rep2.failing)
    return rep
