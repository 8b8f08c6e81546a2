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
jet of u at (x, t) and never on the frame, so the field is sampled in two
calls before any march, one per coframe column, each point once: column 1
(the dx coefficients) on the x nodes and RK4 stage abscissae times the t
nodes, column 2 (dt) on the x nodes times the t nodes and stages.  Both
sweeps (x-then-t and t-then-x) read these two sets, and each march block
gathers the stage values of its steps from them.  The first-form and
Delta12 diagnostics are reduced from the node rows of the two sets before
the sweeps, so the mesh holds the vertices, the normals e3 and the
curvature K, and the triple enters only through w13 and w23.  The initial
frame is the standard triad; any other
orthonormal choice differs by a rigid motion.  Path-independence
(x-then-t versus t-then-x) holds only to truncation order discretely, so
the gap is measured and reported, never assumed.

The system is linear, Y' = A Y for the 4x3 block Y = [r; e1; e2; e3], so
one RK4 step is the 4x4 matrix P = I + h/6 (K1 + 2 K2 + 2 K3 + K4) with
K1 = A0, K2 = Ah + h/2 Ah K1, K3 = Ah + h/2 Ah K2 and K4 = A1 + h A1 K3
(A0, Ah, A1 the generators at the stage abscissae), and the march is one
batched P @ Y per step.  The step matrices are built 16 steps at a time:
built at once, they raise the traced peak of a 201x201 mesh by a fifth.
The curvature forms its corner terms 8192 triangles at a time and sums each
per vertex with one np.bincount over the corner-major index, which adds in
the order np.add.at took corner by corner, so K keeps its bits.

export_obj lays out the OBJ text with numpy, a block of records at a time,
in the bytes "%.17g" and "%d" give: floattext.g17_cells writes the
coordinates, and faces gather a per-vertex " i//i" token table
(_index_tokens).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .catalog import Family, delta
from .floattext import g17_cells, lines
from .immersion import ImmersionTriple, json_text
from .pde import SolutionField

__all__ = [
    "SurfaceMesh",
    "FrameDriftError",
    "first_form_coefficients",
    "integrate_frame",
    "discrete_gaussian_curvature",
    "export_obj",
    "write_diagnostics",
]


# largest orthonormality drift of the marched frame that integrate_frame accepts
DRIFT_THRESHOLD = 1e-3

# steps whose RK4 step matrices _march builds at once
_BLOCK = 16
_TRI_BLOCK = 8192  # triangles whose corner terms discrete_gaussian_curvature forms at once


class FrameDriftError(RuntimeError):
    pass


@dataclass
class SurfaceMesh:
    xs: np.ndarray
    ts: np.ndarray
    r: np.ndarray   # (nx+1, nt+1, 3)
    e3: np.ndarray  # unit normals, same layout
    K: np.ndarray = None  # filled by discrete_gaussian_curvature
    diagnostics: dict = field(default_factory=dict)

    @property
    def shape(self):
        return self.r.shape[:2]

    def interior_K(self):
        if self.K is None:
            raise ValueError("curvature not computed yet")
        return self.K[1:-1, 1:-1]


def first_form_coefficients(col1, col2):
    """(E, F, G) of I = omega_1^2 + omega_2^2 from the column values (f11, f21, f31), (f12, f22, f32)."""
    (f11, f21, _), (f12, f22, _) = col1, col2
    return f11 * f11 + f21 * f21, f11 * f12 + f21 * f22, f12 * f12 + f22 * f22


# ----------------------------------------------------------------------
# Frame integration


def _column_coefficients(fam, trip, field, x, t, column):
    """Pullback coefficients (w1, w2, w3, w13, w23) along dx (column 1) or dt
    (column 2) from one field call, each in the broadcast shape of x and t."""
    x, t = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(t, dtype=float))
    env = field.sample_env(x, t, 2)
    a, b, c = trip.values(env, x, t)
    f1, f2, f3 = fam.column(column)(env)
    w13 = a * f1 + b * f2
    w23 = b * f1 + c * f2
    return tuple(np.broadcast_to(v, x.shape) for v in (f1, f2, f3, w13, w23))


def _orthonormality_drift(e1, e2, e3):
    """Largest deviation of the frame from orthonormal and right-handed; NaN
    where the frame has a NaN entry."""
    pairs = ((e1, e1, 1.0), (e2, e2, 1.0), (e3, e3, 1.0), (e1, e2, 0.0), (e1, e3, 0.0), (e2, e3, 0.0))
    devs = [np.max(np.abs(np.einsum("...i,...i", u, v) - target)) for u, v, target in pairs]
    devs.append(np.max(np.abs(np.cross(e1, e2) - e3)))
    return float(np.max(devs))


def integrate_frame(
    fam: Family,
    trip: ImmersionTriple,
    field: SolutionField,
    origin,
    steps,
    h,
) -> SurfaceMesh:
    """March the frame over a (steps_x+1) x (steps_t+1) grid from `origin`."""
    x0, t0 = origin
    sx, st = (steps, steps) if np.isscalar(steps) else steps
    hx, ht = (h, h) if np.isscalar(h) else h
    xs = x0 + hx * np.arange(sx + 1)
    ts = t0 + ht * np.arange(st + 1)

    # one field call per coframe column, each point once: column 1 on
    # (x stages and nodes) x (t nodes), column 2 on (x nodes) x (t stages and nodes)
    xp, x_nodes, x_stages = _line_points(xs)
    tp, t_nodes, t_stages = _line_points(ts)
    coef1 = _column_coefficients(fam, trip, field, xp[:, None], ts, 1)
    coef2 = _column_coefficients(fam, trip, field, xs[:, None], tp, 2)

    # the vertex diagnostics, reduced from the node rows of the two sets
    cols = tuple(c[x_nodes] for c in coef1[:3]), tuple(c[:, t_nodes] for c in coef2[:3])
    E, F, G = first_form_coefficients(*cols)
    detI = E * G - F ** 2
    d12 = np.abs(delta(*cols, 1, 2))
    vertex_diag = {
        "degenerate_vertices": int(np.count_nonzero(d12 == 0.0)),
        "delta12_min": float(np.min(d12)),
        "I_det_min": float(np.min(detI[1:-1, 1:-1])) if min(sx, st) >= 2 else float(np.min(detI)),
    }
    del cols, E, F, G, detI, d12  # mesh-sized arrays that would otherwise stay live through the sweeps

    # each direction as (coefficients with its own points first, stage indices, step sizes)
    x_line = coef1, x_stages, np.diff(xs)
    t_line = tuple(c.T for c in coef2), t_stages, np.diff(ts)
    r, e1, e2, e3 = np.moveaxis(_sweep(x_line, t_line), 2, 0)
    diag = {}
    if sx > 0 and st > 0:
        r2 = np.swapaxes(_sweep(t_line, x_line), 0, 1)[..., 0, :]
        diag["compat_max"] = float(np.max(np.linalg.norm(r - r2, axis=-1)))
        del r2  # a view that keeps the whole t-first state live
    else:
        diag["compat_max"] = 0.0
    del coef1, coef2, x_line, t_line  # they would otherwise stay live through the curvature pass

    drift = _orthonormality_drift(e1, e2, e3)
    if np.isnan(drift):
        raise FrameDriftError("the frame is not finite: its orthonormality drift is NaN")
    if drift > DRIFT_THRESHOLD:
        raise FrameDriftError(
            f"orthonormality drift {drift:.3e} exceeds {DRIFT_THRESHOLD:.1e}; use a finer --grid"
        )
    diag["drift_max"] = drift
    diag.update(vertex_diag)

    mesh = SurfaceMesh(xs=xs, ts=ts, r=r, e3=e3, diagnostics=diag)
    mesh.K = discrete_gaussian_curvature(r)
    inner = mesh.interior_K()
    if inner.size:
        good = inner[np.isfinite(inner)]
        diag["K_min"] = float(np.min(good)) if good.size else float("nan")
        diag["K_max"] = float(np.max(good)) if good.size else float("nan")
        diag["K_mean"] = float(np.mean(good)) if good.size else float("nan")
    return mesh


def _stage_abscissae(grid):
    """(steps, 3) RK4 stage abscissae g_i, g_i + 0.5*h_i, g_i + h_i with h_i = g_{i+1} - g_i."""
    return grid[:-1, None] + np.array([0.0, 0.5, 1.0]) * np.diff(grid)[:, None]


def _line_points(grid):
    """The distinct abscissae of a grid's nodes and RK4 stages, sorted, and the
    indices into them of the nodes, shape (n,), and of the stages, (steps, 3).

    np.unique merges only equal values, so a stage g_i + h_i that rounds one
    unit in the last place away from g_{i + 1} stays a point of its own."""
    stages = _stage_abscissae(grid)
    points, inverse = np.unique(np.concatenate([grid, stages.ravel()]), return_inverse=True)
    return points, inverse[:len(grid)], inverse[len(grid):].reshape(stages.shape)


def _generators(coeffs):
    """(..., 4, 4) matrices A with [r; e1; e2; e3]' = A [r; e1; e2; e3] from (w1, w2, w3, w13, w23)."""
    w1, w2, w3, w13, w23 = coeffs
    A = np.zeros(np.shape(w1) + (4, 4))
    A[..., 0, 1], A[..., 0, 2] = w1, w2
    A[..., 1, 2], A[..., 1, 3] = w3, w13
    A[..., 2, 1], A[..., 2, 3] = -w3, w23
    A[..., 3, 1], A[..., 3, 2] = -w13, -w23
    return A


def _march(coef, stages, hs, Y):
    """Y[k + 1] = P_k Y[k] for every step k, where step k has size hs[k] and its
    stage coefficients are the rows stages[k] of each array in `coef`; Y[k] is
    (..., 4, 3).  The stage values are gathered one block of steps at a time."""
    for k0 in range(0, len(hs), _BLOCK):
        A = _generators([c[stages[k0:k0 + _BLOCK]] for c in coef])
        h = np.reshape(hs[k0:k0 + _BLOCK], (-1,) + (1,) * (A.ndim - 2))
        A0, Ah, A1 = A[:, 0], A[:, 1], A[:, 2]
        K2 = Ah + 0.5 * h * (Ah @ A0)
        K3 = Ah + 0.5 * h * (Ah @ K2)
        K4 = A1 + h * (A1 @ K3)
        P = np.eye(4) + h / 6.0 * (A0 + 2.0 * K2 + 2.0 * K3 + K4)
        for k, Pk in enumerate(P, k0):
            np.matmul(Pk, Y[k], out=Y[k + 1])


def _sweep(spine, cross):
    """March the spine, then all transverse lines at once; returns the state Y.

    `spine` and `cross` are directions (coef, stages, hs): the five
    coefficient arrays with the direction's points on the first axis and
    the other direction's nodes on the second, the (steps, 3) stage indices
    into those points and the step sizes.  The spine runs along the first
    node of the cross direction.  Y has the layout (spine nodes, cross nodes,
    4, 3), rows r, e1, e2, e3 along its third axis.
    """
    (spine_coef, spine_stages, spine_hs), (cross_coef, cross_stages, cross_hs) = spine, cross
    Y = np.zeros((len(spine_hs) + 1, len(cross_hs) + 1, 4, 3))
    Y[0, 0, 1:] = np.eye(3)
    _march([c[:, 0] for c in spine_coef], spine_stages, spine_hs, Y[:, 0])
    _march(cross_coef, cross_stages, cross_hs, np.swapaxes(Y, 0, 1))
    return Y


# ----------------------------------------------------------------------
# Discrete curvature: angle defect over the triangulated quad grid,
# normalized by the Meyer mixed area.


def _triangles(nx, nt):
    """Vertex indices (row-major in an nx x nt grid) of the triangles that
    split each quad a, b, c, d into a-b-c and a-c-d; all a-b-c come first.
    The corners are copied from index slices into the one result array."""
    idx = np.arange(nx * nt).reshape(nx, nt)
    a, b, c, d = idx[:-1, :-1], idx[1:, :-1], idx[1:, 1:], idx[:-1, 1:]
    tris = np.empty((2, nx - 1, nt - 1, 3), idx.dtype)
    for half, corners in enumerate(((a, b, c), (a, c, d))):
        for k, corner in enumerate(corners):
            tris[half, ..., k] = corner
    return tris.reshape(-1, 3)


def discrete_gaussian_curvature(r):
    """Per-vertex K estimate of an (nx, nt, 3) vertex grid; NaN on the
    boundary (incomplete link)."""
    r = np.asarray(r)
    nx, nt = r.shape[:2]
    if nx < 3 or nt < 3:
        return np.full((nx, nt), np.nan)
    V = r.reshape(-1, 3)
    tris = _triangles(nx, nt).T.copy()  # row k: corner k of every triangle
    angles, areas = np.empty(tris.shape), np.empty(tris.shape)  # each corner's angle and Meyer mixed area
    for lo in range(0, tris.shape[1], _TRI_BLOCK):
        blk = slice(lo, lo + _TRI_BLOCK)
        P = V[tris[:, blk]]  # (3, block, 3)
        # per corner: u.v, |u x v|, the cotangent, u.u and v.v of the edge vectors u, v to the next two corners
        corners = []
        for corner in range(3):
            p = P[corner]
            u, v = P[(corner + 1) % 3] - p, P[(corner + 2) % 3] - p
            dot = np.einsum("ij,ij->i", u, v)
            cross = np.linalg.norm(np.cross(u, v), axis=1)
            with np.errstate(divide="ignore", invalid="ignore"):
                cot = dot / np.where(cross == 0.0, np.nan, cross)
            corners.append((dot, cross, cot, np.einsum("ij,ij->i", u, u), np.einsum("ij,ij->i", v, v)))
        any_obtuse = (corners[0][0] < 0.0) | (corners[1][0] < 0.0) | (corners[2][0] < 0.0)
        for corner, (dot, cross, _, uu, vv) in enumerate(corners):
            angles[corner, blk] = np.arctan2(cross, dot)
            tri_area = 0.5 * cross
            cot_q, cot_s = corners[(corner + 1) % 3][2], corners[(corner + 2) % 3][2]
            voronoi = 0.125 * (vv * cot_q + uu * cot_s)
            areas[corner, blk] = np.where(any_obtuse, np.where(dot < 0.0, 0.5 * tri_area, 0.25 * tri_area), voronoi)

    angsum = np.bincount(tris.ravel(), angles.ravel(), nx * nt)  # np.add.at's order, corner by corner
    area = np.bincount(tris.ravel(), areas.ravel(), nx * nt)
    K = np.full(nx * nt, np.nan)
    interior = np.arange(nx * nt).reshape(nx, nt)[1:-1, 1:-1].ravel()
    with np.errstate(divide="ignore", invalid="ignore"):
        K[interior] = (2.0 * np.pi - angsum[interior]) / area[interior]
    return K.reshape(nx, nt)


# ----------------------------------------------------------------------
# Export


_OBJ_BLOCK = 2048  # records whose text export_obj lays out at once


def export_obj(mesh: SurfaceMesh, path):
    """Wavefront OBJ: a comment line, then a `v x y z` record per vertex, a
    `vn x y z` record per vertex (e3, normalised where it is nonzero) and an
    `f i//i j//j k//k` record per triangle (1-based; quads split into
    triangles wound CCW about the normals).  Each coordinate is written as
    "%.17g" % v of the float64, which reads back to the same float.

    The records are laid out with numpy, _OBJ_BLOCK at a time: each is a row
    of fixed-width cells (floattext.g17_cells for the coordinates,
    _index_tokens for the faces) whose unused bytes are NUL, and
    floattext.lines drops them."""
    nx, nt = mesh.shape
    V = mesh.r.reshape(-1, 3)
    N = mesh.e3.reshape(-1, 3)
    norms = np.linalg.norm(N, axis=1, keepdims=True)
    N = N / np.where(norms == 0.0, 1.0, norms)
    tris = _triangles(nx, nt)
    if _winds_against_normals(V, N, tris):
        tris = tris[:, ::-1]
    tokens = _index_tokens(np.arange(1, len(V) + 1))
    with open(path, "wb") as fh:
        fh.write(f"# pss surface mesh {nx}x{nt}\n".encode())
        for prefix, rows in ((b"v", V), (b"vn", N)):
            for lo in range(0, len(rows), _OBJ_BLOCK):
                part = rows[lo:lo + _OBJ_BLOCK]
                fh.write(lines(prefix, g17_cells(part.ravel()).T.reshape(part.shape + (-1,))))
        for lo in range(0, len(tris), _OBJ_BLOCK):
            part = tris[lo:lo + _OBJ_BLOCK]
            fh.write(lines(b"f", tokens[part]))


def _winds_against_normals(V, N, tris):
    """Whether the first triangle whose |u x v| exceeds 1e-12 (u, v its edges
    from corner 0) winds against the normal at corner 0; False if none does.
    Triangles are probed _TRI_BLOCK at a time, with no warning from the
    non-finite coordinates of a block; a NaN area is skipped."""
    with np.errstate(invalid="ignore", over="ignore"):
        for lo in range(0, len(tris), _TRI_BLOCK):
            t = tris[lo:lo + _TRI_BLOCK]
            n = np.cross(V[t[:, 1]] - V[t[:, 0]], V[t[:, 2]] - V[t[:, 0]])
            good = np.flatnonzero(np.linalg.norm(n, axis=1) > 1e-12)
            if len(good):
                k = good[0]
                return float(np.dot(n[k], N[t[k, 0]])) < 0.0
    return False


def _index_tokens(idx):
    """Row k: the bytes " i//i" of the positive integer i = idx[k], its digits
    right-aligned behind NUL bytes in a width of the largest index."""
    w = len(str(int(idx.max())))
    tokens = np.zeros((len(idx), 2 * w + 3), np.uint8)
    tokens[:, 0] = ord(" ")
    tokens[:, w + 1:w + 3] = ord("/")
    for k in range(w):  # the digit of 10**k, NUL left of the leading digit
        digit = np.where(idx >= 10**k, idx // 10**k % 10 + ord("0"), 0)
        tokens[:, w - k] = tokens[:, 2 * w + 2 - k] = digit
    return tokens


def write_diagnostics(mesh: SurfaceMesh, path):
    keys = ("K_min", "K_max", "K_mean", "drift_max", "compat_max", "degenerate_vertices")
    doc = {k: mesh.diagnostics.get(k) for k in keys}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json_text(doc))
