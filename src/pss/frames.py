"""Moving-frame integration of dr = w1 e1 + w2 e2 into an immersed surface.

The frame system along a coordinate direction reads, with w_i the
pullbacks of omega_i, omega_12 = omega_3 and

    omega_13 = a omega_1 + b omega_2,   omega_23 = b omega_1 + c omega_2:

    r'  =  w1 e1 + w2 e2
    e1' =  w3 e2 + w13 e3
    e2' = -w3 e1 + w23 e3
    e3' = -w13 e1 - w23 e2

Integration order is fixed: an x-spine from the origin (classical RK4,
coefficients sampled at the stage abscissae), then one t-line per spine
vertex, advanced for all columns at once.  The coefficients depend on the
jet of u at (x, t) and never on the frame, so the stage abscissae of a
whole spine, and the three stages of one transverse step, are sampled in
one field call each, before the march consumes them.  The initial frame is
the standard triad; any other orthonormal choice differs by a rigid motion.
Path-independence (x-then-t versus t-then-x) holds only to truncation
order discretely, so the gap is measured and reported, never assumed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .catalog import Family
from .immersion import ImmersionTriple, Representation
from .pde import SolutionField
from .verifier import delta

__all__ = [
    "FrameState",
    "SurfaceMesh",
    "FrameDriftError",
    "NondegeneracyError",
    "first_form_coefficients",
    "second_form_coefficients",
    "integrate_frame",
    "discrete_gaussian_curvature",
    "export_obj",
    "write_diagnostics",
]


class FrameDriftError(RuntimeError):
    pass


class NondegeneracyError(RuntimeError):
    pass


@dataclass(frozen=True)
class FrameState:
    r: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    e3: np.ndarray

    def drift(self):
        vals = [
            abs(float(np.dot(self.e1, self.e1)) - 1.0),
            abs(float(np.dot(self.e2, self.e2)) - 1.0),
            abs(float(np.dot(self.e3, self.e3)) - 1.0),
            abs(float(np.dot(self.e1, self.e2))),
            abs(float(np.dot(self.e1, self.e3))),
            abs(float(np.dot(self.e2, self.e3))),
            float(np.max(np.abs(np.cross(self.e1, self.e2) - self.e3))),
        ]
        return max(vals)


@dataclass
class SurfaceMesh:
    xs: np.ndarray
    ts: np.ndarray
    r: np.ndarray   # (nx+1, nt+1, 3)
    e3: np.ndarray  # unit normals, same layout
    first_form: np.ndarray   # (..., 3): E, F, G
    second_form: np.ndarray  # (..., 3): a1, a2, a3
    K: np.ndarray = None  # filled by discrete_gaussian_curvature
    diagnostics: dict = field(default_factory=dict)

    @property
    def shape(self):
        return self.r.shape[:2]

    def interior_K(self):
        if self.K is None:
            raise ValueError("curvature not computed yet")
        return self.K[1:-1, 1:-1]


def first_form_coefficients(fam: Family, env):
    """(E, F, G) of I = omega_1^2 + omega_2^2 on a jet environment."""
    f11, f21 = fam.fij(1, 1)(env), fam.fij(2, 1)(env)
    f12, f22 = fam.fij(1, 2)(env), fam.fij(2, 2)(env)
    return f11 * f11 + f21 * f21, f11 * f12 + f21 * f22, f12 * f12 + f22 * f22


def second_form_coefficients(fam: Family, abc, env):
    """(a1, a2, a3) of II given the triple values (a, b, c) on a jet environment."""
    a, b, c = abc
    f11, f21 = fam.fij(1, 1)(env), fam.fij(2, 1)(env)
    f12, f22 = fam.fij(1, 2)(env), fam.fij(2, 2)(env)
    a1 = a * f11 * f11 + 2.0 * b * f11 * f21 + c * f21 * f21
    a2 = a * f11 * f12 + b * (f11 * f22 + f21 * f12) + c * f21 * f22
    a3 = a * f12 * f12 + 2.0 * b * f12 * f22 + c * f22 * f22
    return a1, a2, a3


# ----------------------------------------------------------------------
# Frame integration


def _triple_values(trip: ImmersionTriple, env, x, t):
    if trip.representation == Representation.SOLUTION_DEPENDENT:
        return trip.form.abc_of_u(env["z0"])
    s = trip.reduced_coordinate(np.asarray(x, dtype=float), t)
    return trip.abc(s)


def _coefficients(fam, trip, field, x, t, column):
    """Pullback coefficients (w1, w2, w3, w13, w23) along dx (column 1) or dt (column 2),
    each in the broadcast shape of x and t."""
    x, t = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(t, dtype=float))
    env = field.sample_env(x, t, 3)
    a, b, c = _triple_values(trip, env, x, t)
    f1 = fam.fij(1, column)(env)
    f2 = fam.fij(2, column)(env)
    f3 = fam.fij(3, column)(env)
    w13 = a * f1 + b * f2
    w23 = b * f1 + c * f2
    return tuple(np.broadcast_to(cc, x.shape) for cc in (f1, f2, f3, w13, w23))


def _apply(coeffs, r, e1, e2, e3):
    w1, w2, w3, w13, w23 = (np.asarray(cc)[..., None] for cc in coeffs)
    dr = w1 * e1 + w2 * e2
    de1 = w3 * e2 + w13 * e3
    de2 = -w3 * e1 + w23 * e3
    de3 = -w13 * e1 - w23 * e2
    return dr, de1, de2, de3


def _rk4_step(c0, ch, c1, state, h):
    """One classical RK4 step from coefficient sets sampled at abscissae 0, h/2 and h."""
    r, e1, e2, e3 = state
    k1 = _apply(c0, r, e1, e2, e3)
    k2 = _apply(ch, *(s + 0.5 * h * k for s, k in zip(state, k1)))
    k3 = _apply(ch, *(s + 0.5 * h * k for s, k in zip(state, k2)))
    k4 = _apply(c1, *(s + h * k for s, k in zip(state, k3)))
    return tuple(
        s + (h / 6.0) * (a + 2.0 * b + 2.0 * c + d)
        for s, a, b, c, d in zip(state, k1, k2, k3, k4)
    )


def _orthonormality_drift(e1, e2, e3):
    out = 0.0
    for u, v, target in (
        (e1, e1, 1.0), (e2, e2, 1.0), (e3, e3, 1.0),
        (e1, e2, 0.0), (e1, e3, 0.0), (e2, e3, 0.0),
    ):
        out = max(out, float(np.max(np.abs(np.einsum("...i,...i", u, v) - target))))
    out = max(out, float(np.max(np.abs(np.cross(e1, e2) - e3))))
    return out


def integrate_frame(
    fam: Family,
    trip: ImmersionTriple,
    field: SolutionField,
    origin,
    steps,
    h,
    drift_threshold=1e-3,
    nondegeneracy_tol=0.0,
    measure_compat=True,
) -> SurfaceMesh:
    """March the frame over a (steps_x+1) x (steps_t+1) grid from `origin`."""
    x0, t0 = origin
    sx, st = (steps, steps) if np.isscalar(steps) else steps
    hx, ht = (h, h) if np.isscalar(h) else h
    xs = x0 + hx * np.arange(sx + 1)
    ts = t0 + ht * np.arange(st + 1)

    r, e1, e2, e3 = _sweep(fam, trip, field, xs, ts, spine="x")
    diag = {}
    if measure_compat and sx > 0 and st > 0:
        r2, *_ = _sweep(fam, trip, field, xs, ts, spine="t")
        diag["compat_max"] = float(np.max(np.linalg.norm(r - r2, axis=-1)))
    else:
        diag["compat_max"] = 0.0

    drift = _orthonormality_drift(e1, e2, e3)
    if drift > drift_threshold:
        raise FrameDriftError(
            f"orthonormality drift {drift:.3e} exceeds {drift_threshold:.1e}; reduce h"
        )
    diag["drift_max"] = drift

    # per-vertex forms and diagnostics
    EE = np.empty((sx + 1, st + 1, 3))
    II = np.empty((sx + 1, st + 1, 3))
    degenerate = 0
    d12_min = math.inf
    for j, t in enumerate(ts):
        env = field.sample_env(xs, t, 3)
        a, b, c = _triple_values(trip, env, xs, t)
        E, F, G = first_form_coefficients(fam, env)
        a1, a2, a3 = second_form_coefficients(fam, (a, b, c), env)
        EE[:, j, 0], EE[:, j, 1], EE[:, j, 2] = E, F, G
        II[:, j, 0], II[:, j, 1], II[:, j, 2] = a1, a2, a3
        d12 = np.abs(delta(fam, env, 1, 2))
        degenerate += int(np.count_nonzero(d12 <= nondegeneracy_tol))
        d12_min = min(d12_min, float(np.min(d12)))
        if nondegeneracy_tol > 0.0 and np.any(d12 <= nondegeneracy_tol):
            raise NondegeneracyError(
                f"|Delta12| <= {nondegeneracy_tol:.1e} on the integration path at t = {t}"
            )
    diag["degenerate_vertices"] = degenerate
    diag["delta12_min"] = d12_min

    detI = EE[..., 0] * EE[..., 2] - EE[..., 1] ** 2
    diag["I_det_min"] = float(np.min(detI[1:-1, 1:-1])) if min(sx, st) >= 2 else float(np.min(detI))

    mesh = SurfaceMesh(xs=xs, ts=ts, r=r, e3=e3, first_form=EE, second_form=II, diagnostics=diag)
    mesh.K = discrete_gaussian_curvature(mesh)
    inner = mesh.interior_K()
    if inner.size:
        good = inner[np.isfinite(inner)]
        diag["K_min"] = float(np.min(good)) if good.size else float("nan")
        diag["K_max"] = float(np.max(good)) if good.size else float("nan")
        diag["K_mean"] = float(np.mean(good)) if good.size else float("nan")
    return mesh


def _identity_state(n):
    eye = np.eye(3)
    return (
        np.zeros((n, 3)),
        np.tile(eye[0], (n, 1)),
        np.tile(eye[1], (n, 1)),
        np.tile(eye[2], (n, 1)),
    )


def _stage_abscissae(grid):
    """(steps, 3) RK4 stage abscissae g_i, g_i + 0.5*h_i, g_i + h_i with h_i = g_{i+1} - g_i."""
    return grid[:-1, None] + np.array([0.0, 0.5, 1.0]) * np.diff(grid)[:, None]


def _sweep(fam, trip, field, xs, ts, spine):
    """March the spine then all transverse lines; returns (r, e1, e2, e3) arrays.

    Output layout is always (len(xs), len(ts), 3); `spine` picks the path:
    "x" integrates x first along t = ts[0], "t" integrates t first along
    x = xs[0] (used only to measure the path-independence gap).  The spine's
    stage coefficients come from one field call, shape (steps, 3); each
    transverse step samples its three stages in one call, shape (3, n).
    """
    if spine == "x":
        spine_grid, cross_grid, spine_col, cross_col = xs, ts, 1, 2
    else:
        spine_grid, cross_grid, spine_col, cross_col = ts, xs, 2, 1
    spine_stages = _stage_abscissae(spine_grid)
    cross_stages = _stage_abscissae(cross_grid)
    out = tuple(np.empty((len(spine_grid), len(cross_grid), 3)) for _ in range(4))

    def coefficients(along, across, column):
        # (x, t) in field order from a spine-direction and a cross-direction abscissa
        x, t = (along, across) if spine == "x" else (across, along)
        return _coefficients(fam, trip, field, x, t, column)

    coef = coefficients(spine_stages, cross_grid[0], spine_col)
    state = _identity_state(1)
    spine_states = [state]
    for i, h in enumerate(np.diff(spine_grid)):
        state = _rk4_step(*(tuple(cc[i, k] for cc in coef) for k in range(3)), state, h)
        spine_states.append(state)
    state = tuple(np.concatenate([s[q] for s in spine_states]) for q in range(4))
    for q in range(4):
        out[q][:, 0] = state[q]
    for j, h in enumerate(np.diff(cross_grid)):
        coef = coefficients(spine_grid, cross_stages[j][:, None], cross_col)
        state = _rk4_step(*(tuple(cc[k] for cc in coef) for k in range(3)), state, h)
        for q in range(4):
            out[q][:, j + 1] = state[q]
    return out if spine == "x" else tuple(np.swapaxes(o, 0, 1) for o in out)


# ----------------------------------------------------------------------
# Discrete curvature: angle defect over the triangulated quad grid,
# normalized by the Meyer mixed area.


def discrete_gaussian_curvature(mesh_or_positions):
    """Per-vertex K estimate; NaN on the boundary (incomplete link)."""
    r = mesh_or_positions.r if isinstance(mesh_or_positions, SurfaceMesh) else np.asarray(mesh_or_positions)
    nx, nt = r.shape[:2]
    if nx < 3 or nt < 3:
        return np.full((nx, nt), np.nan)
    V = r.reshape(-1, 3)
    idx = np.arange(nx * nt).reshape(nx, nt)
    a = idx[:-1, :-1].ravel()
    b = idx[1:, :-1].ravel()
    c = idx[1:, 1:].ravel()
    d = idx[:-1, 1:].ravel()
    tris = np.concatenate([np.stack([a, b, c], 1), np.stack([a, c, d], 1)])

    angsum = np.zeros(nx * nt)
    area = np.zeros(nx * nt)
    P = V[tris]  # (ntri, 3, 3)
    any_obtuse = _any_obtuse(P)
    for corner in range(3):
        p = P[:, corner]
        q = P[:, (corner + 1) % 3]
        s = P[:, (corner + 2) % 3]
        u, v = q - p, s - p
        lu = np.linalg.norm(u, axis=1)
        lv = np.linalg.norm(v, axis=1)
        cross = np.linalg.norm(np.cross(u, v), axis=1)
        dot = np.einsum("ij,ij->i", u, v)
        ang = np.arctan2(cross, dot)
        np.add.at(angsum, tris[:, corner], ang)
        # Meyer mixed area contribution at this corner
        tri_area = 0.5 * cross
        with np.errstate(divide="ignore", invalid="ignore"):
            cot_q = _cot_at(P, (corner + 1) % 3)
            cot_s = _cot_at(P, (corner + 2) % 3)
        obtuse_here = dot < 0.0
        voronoi = 0.125 * (np.einsum("ij,ij->i", v, v) * cot_q + np.einsum("ij,ij->i", u, u) * cot_s)
        contrib = np.where(any_obtuse, np.where(obtuse_here, 0.5 * tri_area, 0.25 * tri_area), voronoi)
        np.add.at(area, tris[:, corner], contrib)

    counts = np.zeros(nx * nt)
    np.add.at(counts, tris.ravel(), 1.0)
    K = np.full(nx * nt, np.nan)
    interior = idx[1:-1, 1:-1].ravel()
    with np.errstate(divide="ignore", invalid="ignore"):
        K[interior] = (2.0 * np.pi - angsum[interior]) / area[interior]
    return K.reshape(nx, nt)


def _cot_at(P, corner):
    p = P[:, corner]
    u = P[:, (corner + 1) % 3] - p
    v = P[:, (corner + 2) % 3] - p
    dot = np.einsum("ij,ij->i", u, v)
    cross = np.linalg.norm(np.cross(u, v), axis=1)
    return dot / np.where(cross == 0.0, np.nan, cross)


def _any_obtuse(P):
    out = np.zeros(len(P), dtype=bool)
    for corner in range(3):
        p = P[:, corner]
        u = P[:, (corner + 1) % 3] - p
        v = P[:, (corner + 2) % 3] - p
        out |= np.einsum("ij,ij->i", u, v) < 0.0
    return out


# ----------------------------------------------------------------------
# Export


def export_obj(mesh: SurfaceMesh, path):
    """Wavefront OBJ: v/vn records, quads split into CCW triangles, vn = e3."""
    nx, nt = mesh.shape
    V = mesh.r.reshape(-1, 3)
    N = mesh.e3.reshape(-1, 3)
    norms = np.linalg.norm(N, axis=1, keepdims=True)
    N = N / np.where(norms == 0.0, 1.0, norms)
    idx = np.arange(nx * nt).reshape(nx, nt)
    a = idx[:-1, :-1].ravel()
    b = idx[1:, :-1].ravel()
    c = idx[1:, 1:].ravel()
    d = idx[:-1, 1:].ravel()
    tris = np.concatenate([np.stack([a, b, c], 1), np.stack([a, c, d], 1)])
    # orient CCW with respect to the stored normals
    flip = 0
    for tri in tris:
        u = V[tri[1]] - V[tri[0]]
        v = V[tri[2]] - V[tri[0]]
        n = np.cross(u, v)
        ln = np.linalg.norm(n)
        if ln > 1e-12:
            flip = -1 if float(np.dot(n, N[tri[0]])) < 0.0 else 1
            break
    if flip == -1:
        tris = tris[:, ::-1]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# pss surface mesh {nx}x{nt}\n")
        _write_records(fh, "v %.17g %.17g %.17g\n", V)
        _write_records(fh, "vn %.17g %.17g %.17g\n", N)
        _write_records(fh, "f %d//%d %d//%d %d//%d\n", np.repeat(tris + 1, 2, axis=1))


def _write_records(fh, record, rows):
    """Write `record % row` for every row, one `%` per block of 4096 rows.

    %.17g of a float is the same text as f"{p:.17g}"; the blocks bound the
    temporary Python objects (the whole mesh at once costs more memory and
    is no faster)."""
    for i in range(0, len(rows), 4096):
        part = rows[i:i + 4096]
        fh.write(record * len(part) % tuple(part.ravel().tolist()))


def write_diagnostics(mesh: SurfaceMesh, path):
    keys = ("K_min", "K_max", "K_mean", "drift_max", "compat_max")
    doc = {k: mesh.diagnostics.get(k) for k in keys}
    doc["degenerate_vertices"] = mesh.diagnostics.get("degenerate_vertices", 0)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
