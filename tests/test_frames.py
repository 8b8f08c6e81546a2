"""Frame integration, fundamental forms, discrete curvature, OBJ export."""

import json
import math
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from pss import floattext, frames
from pss.catalog import FamilyParams, Branch, build_family, delta, novikov_preset
from pss.frames import (
    SurfaceMesh,
    _column_coefficients,
    _line_points,
    _orthonormality_drift,
    _stage_abscissae,
    discrete_gaussian_curvature,
    export_obj,
    first_form_coefficients,
    integrate_frame,
    write_diagnostics,
)
from pss.immersion import ImmersionParams, Representation, solve_triple
from pss.pde import Grid1D, exact_field, kink_field, solve_mol
from pss.verifier import sample_envs
from references import (
    _coefficients,
    columns,
    former_integrate_frame,
    second_form_coefficients,
    sine_gordon_preset,
    stacked_triangles,
    tuple_rk4_sweep,
)


def jp(z):
    """One-jet environment with z0..z_{len(z)-1} and w1 = v1 = 0."""
    return {"x": 0.0, "t": 0.0, **{f"z{i}": zi for i, zi in enumerate(z)}, "w1": 0.0, "v1": 0.0}


# ----------------------------------------------------------------------
# fundamental forms


def test_sine_gordon_first_form():
    fam = sine_gordon_preset(eta=1.7)
    rng = np.random.default_rng(0)
    for _ in range(50):
        u = rng.uniform(-3, 3)
        E, F, G = first_form_coefficients(*columns(fam, jp([u, 0.3, 0.1, 0.0])))
        assert E == pytest.approx(1.7**2, abs=1e-14)
        assert F == pytest.approx(math.cos(u), abs=1e-14)
        assert G == pytest.approx(1.7**-2, abs=1e-14)


def test_degenerate_column_first_form():
    # f12 = f22 = 0 forces F = G = 0
    fam = build_family(FamilyParams(branch=Branch.T22, eta2=1.0), f="s", phi12="z1")
    E, F, G = first_form_coefficients(*columns(fam, jp([0.4, 0.0, 0.1, 0.0])))  # phi12 = z1 = 0
    assert F == 0.0 and G == 0.0 and E > 0


def test_lagrange_identity_novikov():
    fam = novikov_preset()
    env = sample_envs(fam, 300, np.random.default_rng(1))
    E, F, G = first_form_coefficients(*columns(fam, env))
    d12 = delta(*columns(fam, env), 1, 2)
    assert np.max(np.abs(E * G - F * F - d12 * d12)) < 1e-12 * max(1.0, float(np.max(np.abs(E * G))))


def test_sine_gordon_second_form():
    fam = sine_gordon_preset(eta=1.0)
    rng = np.random.default_rng(2)
    for _ in range(50):
        u = rng.uniform(0.2, math.pi - 0.2)
        abc = (2.0 / math.tan(u), -1.0, 0.0)
        a1, a2, a3 = second_form_coefficients(abc, *columns(fam, jp([u, 0.5, 0.0, 0.0])))
        assert a1 == pytest.approx(0.0, abs=1e-13)
        assert a2 == pytest.approx(-math.sin(u), abs=1e-13)
        assert a3 == pytest.approx(0.0, abs=1e-13)


def test_zero_triple_zero_form():
    fam = novikov_preset()
    assert second_form_coefficients((0.0, 0.0, 0.0), *columns(fam, jp([0.3, 0.2, 0.1, 0.0]))) == (0.0, 0.0, 0.0)


def test_second_form_swap_symmetry():
    """Swapping the rows (f1j <-> f2j) together with a <-> c fixes a2."""
    fam = novikov_preset()
    rng = np.random.default_rng(3)
    env = sample_envs(fam, 100, rng)
    a, b, c = 1.3, -0.4, 0.7
    (f11, f21, f31), (f12, f22, f32) = columns(fam, env)
    _, a2, _ = second_form_coefficients((a, b, c), (f11, f21, f31), (f12, f22, f32))
    _, a2s, _ = second_form_coefficients((c, b, a), (f21, f11, f31), (f22, f12, f32))
    assert np.max(np.abs(a2 - a2s)) < 1e-12


# ----------------------------------------------------------------------
# analytic meshes for the curvature estimator


def _sphere_mesh(n=100):
    th = np.linspace(0.35 * np.pi, 0.65 * np.pi, n + 1)
    ph = np.linspace(-0.2 * np.pi, 0.2 * np.pi, n + 1)
    TH, PH = np.meshgrid(th, ph, indexing="ij")
    r = np.stack([np.sin(TH) * np.cos(PH), np.sin(TH) * np.sin(PH), np.cos(TH)], axis=-1)
    return r


def test_unit_sphere_patch_curvature():
    K = discrete_gaussian_curvature(_sphere_mesh(100))
    inner = K[1:-1, 1:-1]
    assert np.nanmax(np.abs(inner - 1.0)) < 5e-2


def test_planar_grid_curvature_zero():
    x = np.linspace(0, 1, 40)
    y = np.linspace(0, 2, 40)
    X, Y = np.meshgrid(x, y, indexing="ij")
    r = np.stack([X, Y, 0.3 * X + 0.1 * Y], axis=-1)  # a tilted plane
    K = discrete_gaussian_curvature(r)
    assert np.nanmax(np.abs(K[1:-1, 1:-1])) < 1e-12


def test_tractrix_pseudosphere_curvature():
    """Classical pseudosphere of revolution: K = -1 away from the cusp rim."""
    v = np.linspace(0.6, 2.4, 121)  # arc parameter, profile (sech v, v - tanh v)
    ph = np.linspace(0.0, 1.0, 121)
    V, PH = np.meshgrid(v, ph, indexing="ij")
    rho = 1.0 / np.cosh(V)
    r = np.stack([rho * np.cos(PH), rho * np.sin(PH), V - np.tanh(V)], axis=-1)
    K = discrete_gaussian_curvature(r)
    assert np.nanmax(np.abs(K[1:-1, 1:-1] + 1.0)) < 5e-2


def _reference_curvature(r):
    """The three-pass angle-defect estimator that `discrete_gaussian_curvature`
    must match bit for bit: every corner recomputes the cotangents of the other
    two, and the obtuse test runs over all corners once more.  Also returns the
    number of triangles with an obtuse corner and of zero-area triangles."""
    nx, nt = r.shape[:2]
    V = r.reshape(-1, 3)
    idx = np.arange(nx * nt).reshape(nx, nt)
    a, b = idx[:-1, :-1].ravel(), idx[1:, :-1].ravel()
    c, d = idx[1:, 1:].ravel(), idx[:-1, 1:].ravel()
    tris = np.concatenate([np.stack([a, b, c], 1), np.stack([a, c, d], 1)])
    P = V[tris]

    def cot_at(corner):
        p = P[:, corner]
        u = P[:, (corner + 1) % 3] - p
        v = P[:, (corner + 2) % 3] - p
        dot = np.einsum("ij,ij->i", u, v)
        cross = np.linalg.norm(np.cross(u, v), axis=1)
        return dot / np.where(cross == 0.0, np.nan, cross)

    any_obtuse = np.zeros(len(P), dtype=bool)
    for corner in range(3):
        p = P[:, corner]
        any_obtuse |= np.einsum("ij,ij->i", P[:, (corner + 1) % 3] - p, P[:, (corner + 2) % 3] - p) < 0.0
    angsum, area = np.zeros(nx * nt), np.zeros(nx * nt)
    for corner in range(3):
        p = P[:, corner]
        u, v = P[:, (corner + 1) % 3] - p, P[:, (corner + 2) % 3] - p
        cross = np.linalg.norm(np.cross(u, v), axis=1)
        dot = np.einsum("ij,ij->i", u, v)
        np.add.at(angsum, tris[:, corner], np.arctan2(cross, dot))
        tri_area = 0.5 * cross
        with np.errstate(divide="ignore", invalid="ignore"):
            cot_q, cot_s = cot_at((corner + 1) % 3), cot_at((corner + 2) % 3)
        voronoi = 0.125 * (np.einsum("ij,ij->i", v, v) * cot_q + np.einsum("ij,ij->i", u, u) * cot_s)
        contrib = np.where(any_obtuse, np.where(dot < 0.0, 0.5 * tri_area, 0.25 * tri_area), voronoi)
        np.add.at(area, tris[:, corner], contrib)
    K = np.full(nx * nt, np.nan)
    inner = idx[1:-1, 1:-1].ravel()
    with np.errstate(divide="ignore", invalid="ignore"):
        K[inner] = (2.0 * np.pi - angsum[inner]) / area[inner]
    return K.reshape(nx, nt), int(np.count_nonzero(any_obtuse)), int(np.count_nonzero(cross == 0.0))


def _curvature_meshes():
    """A kink patch, a rough plane (obtuse corners) and a plane with
    coincident vertices and a segment triangle (NaN cotangents), at most
    1,440 triangles each, below the default triangle block."""
    rng = np.random.default_rng(11)
    fam, trip, field = _kink_setup()
    kink = integrate_frame(fam, trip, field, origin=(-1.8, -1.8), steps=(30, 24), h=0.05).r
    X, Y = np.meshgrid(np.arange(12.0), np.arange(9.0), indexing="ij")
    plane = np.stack([X, Y, 0.3 * X], axis=-1)
    rough = plane + 0.45 * rng.standard_normal(plane.shape)
    flat = plane.copy()
    flat[3, 2] = flat[3, 3] = flat[4, 3]  # coincident vertices
    flat[7, 4] = 0.5 * (flat[6, 4] + flat[7, 5])  # the triangle (6,4), (7,4), (7,5) is a segment
    return {"kink": kink, "rough": rough, "zero-area": flat}


def _assert_curvature_matches_the_reference(meshes):
    counts = {}
    for name, r in meshes.items():
        want, *counts[name] = _reference_curvature(r)
        assert _same_bits(discrete_gaussian_curvature(r), want), name
    assert counts["rough"][0] > 0  # the obtuse branch of the mixed area
    assert counts["zero-area"][1] > 0  # NaN cotangents


def test_curvature_matches_the_three_pass_reference():
    """At the default triangle block, also on the 201x201 kink window:
    80,000 triangles, so ten blocks and a short last one."""
    fam, trip, field, where = _kink_window()
    meshes = _curvature_meshes()
    meshes["kink-201"] = integrate_frame(fam, trip, field, **where).r
    _assert_curvature_matches_the_reference(meshes)


@pytest.mark.parametrize("block", [1, 7])
def test_curvature_matches_the_reference_at_any_triangle_block(block, monkeypatch):
    """Blocks of one triangle, and of 7, which divides none of the meshes'
    triangle counts, so each ends on a short block."""
    monkeypatch.setattr(frames, "_TRI_BLOCK", block)
    _assert_curvature_matches_the_reference(_curvature_meshes())


def test_curvature_memory_is_its_rows_index_and_one_block():
    """The traced peak of the curvature on the 201x201 kink window: the
    angle and mixed-area rows (3 x ntri each), the corner-major vertex index,
    the vertex array it copies from the strided r, the angle sum, area and K
    per vertex, and the corner terms of one block of 8192 triangles (48
    doubles each).  Gathering the whole mesh at once peaked at 28.7 MiB."""
    fam, trip, field, where = _kink_window()
    r = integrate_frame(fam, trip, field, **where).r
    discrete_gaussian_curvature(r)  # caches are not counted
    tracemalloc.start()
    try:
        discrete_gaussian_curvature(r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    nv, ntri, d = 201 * 201, 2 * 200 * 200, 8
    rows, index, vertices, per_vertex, block = 2 * 3 * ntri * d, 3 * ntri * d, 3 * nv * d, 3 * nv * d, 8192 * 48 * d
    bound = rows + index + vertices + per_vertex + block
    assert peak <= bound, (peak, bound)


def test_triangles_fill_one_array_with_the_stacked_table():
    """_triangles gives the stacked table of four index copies, and builds it
    holding little more than its result: the stacked form peaked at 5.2 MB
    for the 1.8 MB table of a 201x201 mesh."""
    for nx, nt in ((2, 2), (2, 7), (5, 3), (201, 201)):
        got, want = frames._triangles(nx, nt), stacked_triangles(nx, nt)
        assert got.dtype == want.dtype and np.array_equal(got, want), (nx, nt)
    tracemalloc.start()
    try:
        tris = frames._triangles(201, 201)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * tris.nbytes, (peak, tris.nbytes)


# ----------------------------------------------------------------------
# integrate_frame


def _kink_setup(eta=1.0):
    fam = sine_gordon_preset(eta=eta)
    trip = solve_triple(fam, ImmersionParams(a_sign=1))
    field = kink_field(eta, Grid1D(-6, 6, 16), t_span=(-6, 6))
    return fam, trip, field


def test_frame_state_drift_measure():
    eye = np.eye(3)
    assert _orthonormality_drift(eye[0], eye[1], eye[2]) == 0.0
    assert _orthonormality_drift(eye[0], eye[1] + 1e-4 * eye[0], eye[2]) >= 1e-4


def test_frame_drift_just_past_the_threshold_is_refused():
    # one coarse kink step: drift 9.0e-4 at h = 0.51, 1.03e-3 at h = 0.52
    fam, trip, field = _kink_setup()
    mesh = integrate_frame(fam, trip, field, origin=(-1.0, -1.0), steps=(1, 1), h=0.51)
    assert 8e-4 < mesh.diagnostics["drift_max"] <= 1e-3
    with pytest.raises(frames.FrameDriftError, match=r"^orthonormality drift 1\.0\d\de-03 exceeds 1\.0e-03; use a finer --grid$"):
        integrate_frame(fam, trip, field, origin=(-1.0, -1.0), steps=(1, 1), h=0.52)


def test_a_nan_coefficient_is_refused_as_frame_drift(monkeypatch):
    # folded with Python's max, max(0.0, nan) is 0.0: the drift would read finite
    fam, trip, field = _kink_setup()
    sample = field.sample_env

    def one_nan(x, t, order):
        env = sample(x, t, order)
        env["z0"] = np.where((x == x.max()) & (t == t.max()), np.nan, env["z0"])
        return env

    monkeypatch.setattr(field, "sample_env", one_nan)
    with pytest.raises(frames.FrameDriftError, match=r"^the frame is not finite: its orthonormality drift is NaN$"):
        integrate_frame(fam, trip, field, origin=(-1.0, -1.0), steps=(4, 4), h=0.1)


def test_zero_steps_single_vertex():
    fam, trip, field = _kink_setup()
    mesh = integrate_frame(fam, trip, field, origin=(-1.0, -1.0), steps=(0, 0), h=0.01)
    assert mesh.shape == (1, 1)
    assert np.allclose(mesh.r[0, 0], 0.0)
    assert np.allclose(mesh.e3[0, 0], [0.0, 0.0, 1.0])


def test_kink_mesh_interior_K_near_minus_one():
    fam, trip, field = _kink_setup()
    mesh = integrate_frame(fam, trip, field, origin=(-1.8, -1.8), steps=(100, 100), h=0.016)
    K = mesh.interior_K()
    assert np.nanmax(np.abs(K + 1.0)) < 5e-2
    assert mesh.diagnostics["drift_max"] < 1e-6


def test_drift_shrinks_at_fourth_order():
    fam, trip, field = _kink_setup()
    drifts = {}
    for n in (50, 100):
        mesh = integrate_frame(fam, trip, field, origin=(-1.8, -1.8), steps=(n, n), h=1.6 / n)
        drifts[n] = mesh.diagnostics["drift_max"]
    ratio = drifts[50] / drifts[100]
    assert ratio > 8  # RK4: ~16x per halving


def test_path_independence_gap_fourth_order():
    fam, trip, field = _kink_setup()
    gaps = {}
    for n in (50, 100):
        mesh = integrate_frame(fam, trip, field, origin=(-1.8, -1.8), steps=(n, n), h=1.6 / n)
        gaps[n] = mesh.diagnostics["compat_max"]
    ratio = gaps[50] / gaps[100]
    assert 16 / 1.25 <= ratio <= 16 * 1.25


def _forms_at_nodes(fam, trip, field, mesh):
    """E, F, G of I and a1, a2, a3 of II at the mesh nodes, from one field call."""
    X, T = np.meshgrid(mesh.xs, mesh.ts, indexing="ij")
    env = field.sample_env(X, T, 2)
    cols = columns(fam, env)
    forms = (*first_form_coefficients(*cols), *second_form_coefficients(trip.values(env, X, T), *cols))
    return [np.broadcast_to(v, X.shape) for v in forms]


def test_reconstructed_first_form_matches_stored():
    """Finite differences of r reproduce the coframe's E, F, G at the nodes to O(h^2)."""
    fam, trip, field = _kink_setup()
    n, h = 80, 0.02
    mesh = integrate_frame(fam, trip, field, origin=(-1.8, -1.8), steps=(n, n), h=h)
    rx = (mesh.r[2:, 1:-1] - mesh.r[:-2, 1:-1]) / (2 * h)
    rt = (mesh.r[1:-1, 2:] - mesh.r[1:-1, :-2]) / (2 * h)
    E, F, G = (v[1:-1, 1:-1] for v in _forms_at_nodes(fam, trip, field, mesh)[:3])
    assert np.max(np.abs(np.einsum("...i,...i", rx, rx) - E)) < 5e-3
    assert np.max(np.abs(np.einsum("...i,...i", rx, rt) - F)) < 5e-3
    assert np.max(np.abs(np.einsum("...i,...i", rt, rt) - G)) < 5e-3


def test_detII_over_detI_is_minus_one():
    fam, trip, field = _kink_setup()
    mesh = integrate_frame(fam, trip, field, origin=(-1.8, -1.8), steps=(40, 40), h=0.04)
    E, F, G, a1, a2, a3 = _forms_at_nodes(fam, trip, field, mesh)
    detI = E * G - F ** 2
    detII = a1 * a3 - a2 ** 2
    assert np.max(np.abs(detII / detI + 1.0)) < 1e-8


def test_universal_triple_reconstruction_t22():
    """Closed-form triple + an exact solution of u_t - u_xxt = u_xx + u_x
    (the t22-demo equation is linear: exp(lam x + om t) solves it when
    om = lam/(1 - lam)); the reconstructed mesh is pseudospherical."""
    fam = build_family(FamilyParams(branch=Branch.T22, eta2=1.0), f="s", phi12="z1",
                       name="t22-mesh")
    trip = solve_triple(fam, ImmersionParams(beta=0.0, C_strip=4.0))
    from pss.pde import exact_field

    field = exact_field("1 + 0.5*exp(0.5*x + t)", Grid1D(-6, 6, 16), t_span=(-6, 6))
    mesh = integrate_frame(fam, trip, field, origin=(0.3, -0.5), steps=(60, 60), h=0.01)
    K = mesh.interior_K()
    assert np.nanmax(np.abs(K + 1.0)) < 5e-2
    assert mesh.diagnostics["drift_max"] < 1e-6


def test_obj_export_and_diagnostics(tmp_path):
    fam, trip, field = _kink_setup()
    mesh = integrate_frame(fam, trip, field, origin=(-1.5, -1.5), steps=(8, 8), h=0.05)
    obj = tmp_path / "mesh.obj"
    export_obj(mesh, obj)
    text = obj.read_text().splitlines()
    nv = sum(1 for ln in text if ln.startswith("v "))
    nn = sum(1 for ln in text if ln.startswith("vn "))
    nf = sum(1 for ln in text if ln.startswith("f "))
    assert nv == 81 and nn == 81 and nf == 2 * 64
    assert all(len(ln.split()) == 4 for ln in text if ln.startswith("f "))
    # normals are unit vectors
    for ln in text:
        if ln.startswith("vn "):
            v = np.array([float(tok) for tok in ln.split()[1:]])
            assert abs(np.linalg.norm(v) - 1.0) < 1e-9
            break
    side = tmp_path / "diag.json"
    write_diagnostics(mesh, side)
    doc = json.loads(side.read_text())
    assert {"K_min", "K_max", "K_mean", "drift_max", "compat_max"} <= set(doc)


def _reference_export_obj(mesh, path):
    """The per-line OBJ writer that `export_obj` must match byte for byte."""
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
    flip = 0
    for tri in tris:
        n = np.cross(V[tri[1]] - V[tri[0]], V[tri[2]] - V[tri[0]])
        if np.linalg.norm(n) > 1e-12:
            flip = -1 if float(np.dot(n, N[tri[0]])) < 0.0 else 1
            break
    if flip == -1:
        tris = tris[:, ::-1]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# pss surface mesh {nx}x{nt}\n")
        for p in V:
            fh.write(f"v {p[0]:.17g} {p[1]:.17g} {p[2]:.17g}\n")
        for n in N:
            fh.write(f"vn {n[0]:.17g} {n[1]:.17g} {n[2]:.17g}\n")
        for tri in tris:
            i, j, k = (int(t) + 1 for t in tri)
            fh.write(f"f {i}//{i} {j}//{j} {k}//{k}\n")


def _plane_mesh(normal_sign, rng):
    X, T = np.meshgrid(np.arange(4.0), np.arange(5.0), indexing="ij")
    r = np.stack([X, T, 0.3 * X - 0.2 * T], axis=-1) + 1e-3 * rng.standard_normal((4, 5, 3))
    e3 = normal_sign * np.cross([1.0, 0.0, 0.3], [0.0, 1.0, -0.2]) + 0.1 * rng.standard_normal((4, 5, 3))
    return SurfaceMesh(xs=np.arange(4.0), ts=np.arange(5.0), r=r, e3=e3)


def _g17_cases(rng):
    """Values where a "%.17g" formatter can go wrong, both signs: the
    neighbours of each power of ten from 1e-6 to 1e18 (the ends of fixed
    notation, 1e-4 and 1e17, among them), exact ties at the 18th digit
    (odd * 2**(X - 17) in the decade of 10**X), zeros, subnormals, inf, NaN
    and the largest double, and random values across those decades."""
    near = []
    for X in range(-6, 19):
        p = float(f"1e{X}")
        near += [p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)]
    ties = []
    for X in range(-4, 16):
        lo = math.ceil(Fraction(10) ** X * 2 ** (17 - X))
        hi = min(math.ceil(Fraction(10) ** (X + 1) * 2 ** (17 - X)), 2**53)
        ties += np.ldexp(rng.integers((lo + 1) // 2, hi // 2, 40) * 2.0 + 1.0, X - 17).tolist()
    digits = [Decimal(t).normalize().as_tuple().digits for t in ties]
    assert all(len(d) == 18 and d[-1] == 5 for d in digits)  # each halfway between two 17-digit decimals
    special = [0.0, 5e-324, 2.2250738585072014e-308, np.nextafter(2.2250738585072014e-308, 0.0),
               np.inf, np.nan, sys.float_info.max]
    spread = rng.standard_normal(2000) * 10.0 ** rng.integers(-6, 19, 2000)
    values = np.concatenate([near, ties, special, spread])
    return np.concatenate([values, -values])


def test_obj_text_matches_percent_formatting():
    """Each coordinate cell is " " + "%.17g" % v, and each face token " i//i"
    is "%d" of the index, for indices of 1 to 7 digits."""
    rng = np.random.default_rng(11)
    values = _g17_cases(rng)
    cells = floattext.g17_cells(values)
    assert [bytes(c).replace(b"\0", b"").decode() for c in cells.T] == [" %.17g" % v for v in values.tolist()]
    idx = np.array([1, 9, 10, 99, 100, 999, 1000, 9999, 10**4, 99999, 10**5, 999999, 10**6, 9999999])
    tris = rng.integers(0, len(idx), (60, 3))
    want = "".join("f %d//%d %d//%d %d//%d\n" % tuple(int(i) for i in np.repeat(idx[t], 2)) for t in tris)
    assert floattext.lines(b"f", frames._index_tokens(idx)[tris].reshape(len(tris), -1)).decode() == want


def test_obj_bytes_match_the_per_line_writer(tmp_path):
    rng = np.random.default_rng(5)
    flipped = _plane_mesh(-1.0, rng)  # the first triangle winds against its normal
    degenerate = _plane_mesh(-1.0, rng)
    degenerate.r[1, 0] = degenerate.r[0, 0]  # the probe skips it and flips on the next one
    signed_zero = _plane_mesh(-1.0, rng)
    signed_zero.r[0, 0] = [-0.0, 0.0, -0.0]
    signed_zero.e3[0, 0] = [0.0, -0.0, -0.0]  # a zero normal is written unnormalised
    large = SurfaceMesh(xs=None, ts=None, r=rng.standard_normal((65, 70, 3)), e3=rng.standard_normal((65, 70, 3)))
    # every triangle has zero area (its vertices lie on one line), in more than one probe block: no flip
    i, j = np.meshgrid(np.arange(70.0), np.arange(70.0), indexing="ij")
    collinear = SurfaceMesh(xs=None, ts=None, r=(i + 2 * j)[..., None] * np.array([1.0, 2.0, 3.0]),
                            e3=rng.standard_normal((70, 70, 3)))
    first_row = _plane_mesh(-1.0, rng)
    first_row.r[1] = first_row.r[0]  # the first row of triangles has zero area; the next one flips
    # the formatter's hard cases as coordinates, more rows than one block; the first triangle is regular
    cases = _g17_cases(rng)
    hard = SurfaceMesh(xs=None, ts=None, r=np.resize(cases, (50, 50, 3)), e3=rng.standard_normal((50, 50, 3)))
    hard.r[:2, :2] = [[[0.0, 0.0, 0.0], [0.0, 1.0, 0.5]], [[1.0, 0.0, 0.5], [1.0, 1.0, 0.0]]]
    fam, trip, field = _kink_setup()
    kink = integrate_frame(fam, trip, field, origin=(-1.5, -1.5), steps=(8, 6), h=0.05)
    meshes = {"flipped": flipped, "degenerate": degenerate, "signed_zero": signed_zero, "large": large,
              "collinear": collinear, "first_row": first_row, "hard": hard, "kink": kink}
    assert hard.r.size // 3 > frames._OBJ_BLOCK and len(frames._triangles(70, 70)) > frames._TRI_BLOCK
    for name, mesh in meshes.items():
        got, want = tmp_path / f"{name}.obj", tmp_path / f"{name}.ref.obj"
        export_obj(mesh, got)
        _reference_export_obj(mesh, want)
        assert got.read_bytes() == want.read_bytes(), name
    for name in ("flipped", "degenerate"):
        assert "\nf 7//7 6//6 1//1\n" in (tmp_path / f"{name}.obj").read_text(), name
    assert "\nf 1//1 71//71 72//72\n" in (tmp_path / "collinear.obj").read_text()  # unflipped
    assert "\nf 12//12 11//11 6//6\n" in (tmp_path / "first_row.obj").read_text()
    assert "v -0 0 -0\n" in (tmp_path / "signed_zero.obj").read_text()
    assert "vn 0 -0 -0\n" in (tmp_path / "signed_zero.obj").read_text()


# ----------------------------------------------------------------------
# batched stage sampling


def _novikov_numeric_setup():
    fam = novikov_preset()
    trip = solve_triple(fam, ImmersionParams(sigma=3.0, beta=0.5))
    g = Grid1D(0.0, 2 * np.pi, 64)
    field = solve_mol(fam, g, 0.1 + 0.05 * np.cos(g.nodes()), 0.02, 1e-3, n_save=5)
    return fam, trip, field, (0.02, 0.0013), (0.037, 0.0031)


def _t22_ode_setup():
    fam = build_family(FamilyParams(branch=Branch.T22, mu2=0.5, eta2=3.0, sign=1), f="s", phi12="z1")
    trip = solve_triple(fam, ImmersionParams(beta=0.5, b0=1.2, s0=0.0, h=1e-3, eps=0.3))
    field = exact_field("1 + 0.5*exp(0.5*x + t)", Grid1D(-6, 6, 16), t_span=(-6, 6))
    return fam, trip, field, (-0.2, 0.1), (0.03, 0.02)


def _kink_batch_setup():
    return (*_kink_setup(), (-1.8, -1.7), (0.016, 0.013))


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


_BATCH_SETUPS = pytest.mark.parametrize("setup, representation", [
    (_kink_batch_setup, Representation.SOLUTION_DEPENDENT),
    (_novikov_numeric_setup, Representation.CLOSED_FORM),
    (_t22_ode_setup, Representation.ODE_TABLE),
], ids=["kink-exact", "novikov-numeric", "t22-ode-table"])


@_BATCH_SETUPS
def test_batched_stage_coefficients_equal_per_stage_calls(setup, representation):
    fam, trip, field, (x0, t0), (hx, ht) = setup()
    assert trip.representation == representation
    xs, ts = x0 + hx * np.arange(6), t0 + ht * np.arange(5)
    x_stages, t_stages = _stage_abscissae(xs), _stage_abscissae(ts)
    for g, stages in ((xs, x_stages), (ts, t_stages)):  # the per-step arithmetic of the march
        for i in range(len(g) - 1):
            h = g[i + 1] - g[i]
            assert stages[i].tolist() == [g[i] + 0.0, g[i] + 0.5 * h, g[i] + h]
    for column in (1, 2):
        # a spine, (steps, 3), against one call per stage on a single point
        for x, t in ((x_stages, ts[0]), (xs[0], t_stages)):
            batch = _coefficients(fam, trip, field, x, t, column)
            xb, tb = np.broadcast_arrays(x, t)
            for i, k in np.ndindex(xb.shape):
                one = _coefficients(fam, trip, field, xb[i, k:k + 1], tb[i, k:k + 1], column)
                assert all(_same_bits(cb[i, k:k + 1], co) for cb, co in zip(batch, one)), (column, i, k)
        # every transverse step, (steps, 3, n), against one call per step and stage on the whole line
        for x, t in ((xs, t_stages[:, :, None]), (x_stages[:, :, None], ts)):
            batch = _coefficients(fam, trip, field, x, t, column)
            xb, tb = np.broadcast_arrays(x, t)
            for j, k in np.ndindex(xb.shape[:2]):
                one = _coefficients(fam, trip, field, xb[j, k], tb[j, k], column)
                assert all(_same_bits(cb[j, k], co) for cb, co in zip(batch, one)), (column, j, k)
    # the two grids that integrate_frame samples, against one call per point
    xp, tp = _line_points(xs)[0], _line_points(ts)[0]
    for x, t, column in ((xp[:, None], ts, 1), (xs[:, None], tp, 2)):
        grid = _column_coefficients(fam, trip, field, x, t, column)
        xb, tb = np.broadcast_arrays(x, t)
        for i, k in np.ndindex(xb.shape):
            one = _coefficients(fam, trip, field, xb[i, k:k + 1], tb[i, k:k + 1], column)
            assert all(_same_bits(cg[i, k:k + 1], co) for cg, co in zip(grid, one)), (column, i, k)


@_BATCH_SETUPS
def test_whole_mesh_forms_equal_per_row_calls(setup, representation):
    fam, trip, field, origin, h = setup()
    mesh = integrate_frame(fam, trip, field, origin=origin, steps=(5, 4), h=h)
    detI = np.empty(mesh.shape)
    degenerate, d12_min = 0, math.inf
    for j, t in enumerate(mesh.ts):  # one field call per mesh row
        env = field.sample_env(mesh.xs, t, 3)  # order 3: the mesh asks for 2, the same bits
        E, F, G = first_form_coefficients(*columns(fam, env))
        detI[:, j] = E * G - F ** 2
        d12 = np.abs(delta(*columns(fam, env), 1, 2))
        degenerate += int(np.count_nonzero(d12 <= 0.0))
        d12_min = min(d12_min, float(np.min(d12)))
    assert mesh.diagnostics["degenerate_vertices"] == degenerate
    assert mesh.diagnostics["delta12_min"] == d12_min
    assert mesh.diagnostics["I_det_min"] == float(np.min(detI[1:-1, 1:-1]))


def _counting(field):
    """Record the (x, t, order) of every sample_env call on `field`."""
    sample = field.sample_env
    calls = []

    def counting(*args):
        calls.append(args)
        return sample(*args)

    field.sample_env = counting
    return calls


def test_integrate_frame_samples_once_per_spine_and_step():
    fam, trip, field = _kink_setup()
    calls = _counting(field)
    integrate_frame(fam, trip, field, origin=(-1.5, -1.5), steps=(7, 5), h=0.05)
    # one call per coframe column: column 1 on the x nodes and stages times the
    # t nodes, column 2 on the x nodes times the t nodes and stages; each asks
    # for z0..z2, all that the f_ij, the triple and Delta12 read
    assert len(calls) == 2 and [c[2] for c in calls] == [2] * 2
    assert [np.broadcast_shapes(*(np.shape(a) for a in c[:2])) for c in calls] == [(15, 6), (8, 11)]
    for x, t, _ in calls:  # no point twice in one call
        points = np.stack(np.broadcast_arrays(x, t), axis=-1).reshape(-1, 2)
        assert len(np.unique(points, axis=0)) == len(points)
    # the 201x201 kink: 161,202 points, against 282,801 in the five calls of the former path
    fam, trip, field, where = _kink_window()
    calls = _counting(field)
    integrate_frame(fam, trip, field, **where)
    former_integrate_frame(fam, trip, field, **where)
    sizes = [int(np.prod(np.broadcast_shapes(np.shape(x), np.shape(t)))) for x, t, _ in calls]
    assert [len(sizes), sum(sizes[:2]), sum(sizes[2:])] == [7, 161_202, 282_801]


# ----------------------------------------------------------------------
# the propagator march against the tuple RK4 it replaced
#
# Both march the same RK4 from the same coefficients; the step matrices
# associate its sums differently, so vertices and frames differ by rounding
# only.  drift_max and compat_max are differences of O(1) values (about 5e-12
# and 5e-10 on the kink), so that rounding, about 1e-15, moves them by a
# larger relative amount than the vertices: up to 4e-4 and 2e-6 on the kink.


def _reference_sweep(*args, **kwargs):
    """tuple_rk4_sweep in the (len(xs), len(ts), 4, 3) state layout of frames._sweep."""
    return np.stack(tuple_rk4_sweep(*args, **kwargs), axis=2)


def _kink_window():
    return (*_kink_setup(), dict(origin=(-2.1, -2.1), steps=(200, 200), h=1.9 / 200))


def _novikov_window():
    fam, trip, field, origin, _ = _novikov_numeric_setup()
    return fam, trip, field, dict(origin=origin, steps=(32, 6), h=(0.36 / 32, 0.003))


@pytest.mark.parametrize("window", [_kink_window, _novikov_window], ids=["kink-201", "novikov-numeric"])
def test_propagator_march_matches_the_tuple_rk4(window, monkeypatch):
    fam, trip, field, where = window()
    sweep, states = frames._sweep, []

    def recording(spine, cross):
        states.append(sweep(spine, cross))
        return states[-1]

    monkeypatch.setattr(frames, "_sweep", recording)
    mesh = integrate_frame(fam, trip, field, **where)
    for spine, Y in zip(("x", "t"), (states[0], np.swapaxes(states[1], 0, 1))):
        want = _reference_sweep(fam, trip, field, mesh.xs, mesh.ts, spine)
        assert np.max(np.abs(Y[..., 0, :] - want[..., 0, :])) <= 1e-13, spine  # vertices
        assert np.max(np.abs(Y[..., 1:, :] - want[..., 1:, :])) <= 1e-14, spine  # e1, e2, e3
    ref = former_integrate_frame(fam, trip, field, sweep=_reference_sweep, **where)
    for key, rel in (("drift_max", 1e-2), ("compat_max", 1e-5)):
        assert mesh.diagnostics[key] == pytest.approx(ref.diagnostics[key], rel=rel), key


def test_propagator_march_memory_stays_at_the_tuple_rk4s():
    """The step matrices are built a block of steps at a time: built for all
    200 steps of the kink at once they raise the traced peak by about a fifth.
    The bound is the former five-call path with the tuple RK4 as its sweep;
    that path with the propagator march bounds it too, with no slack."""
    fam, trip, field, where = _kink_window()

    def traced_peak(integrate, **kwargs):
        tracemalloc.start()
        try:
            integrate(fam, trip, field, **where, **kwargs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    integrate_frame(fam, trip, field, **where)  # caches and compiled programs are not counted
    peak = traced_peak(integrate_frame)
    ref = traced_peak(former_integrate_frame, sweep=_reference_sweep)
    former = traced_peak(former_integrate_frame)
    assert peak <= 1.05 * ref, (peak, ref)
    assert peak <= former, (peak, former)


def test_the_mesh_holds_the_marched_state_and_curvature_only():
    """What the returned mesh keeps alive: the x-first state Y, of which r and
    e3 are views (201 x 201 x 4 x 3 floats), and K (201 x 201), with a little
    slack for the grids and the diagnostics; no per-vertex form arrays."""
    fam, trip, field, where = _kink_window()
    integrate_frame(fam, trip, field, **where)  # caches and compiled programs are not counted
    tracemalloc.start()
    try:
        mesh = integrate_frame(fam, trip, field, **where)
        with_mesh = tracemalloc.get_traced_memory()[0]
        del mesh
        held = with_mesh - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    Y, K = 201 * 201 * 4 * 3 * 8, 201 * 201 * 8
    assert held <= Y + K + 64 * 1024, held


# ----------------------------------------------------------------------
# the two-call sampling against the former five-call path
#
# Every sample sits at an abscissa the former path sampled, and sampling,
# the triple and the columns are elementwise in (x, t), so the mesh, its
# forms, K and every diagnostic keep their bits.


def _stage_rounding_window():
    """An exact field and closed-form triple on a window whose RK4 stages
    g_i + h_i round one unit in the last place away from the node g_{i+1},
    in x and in t (near 0, where g_{i+1} - g_i is inexact).  u = x + t solves
    the t22-demo equation, and near the origin z0 = x + t keeps that unit:
    sampling g_{i+1} in place of the stage changes the vertices' bits."""
    fam = build_family(FamilyParams(branch=Branch.T22, eta2=1.0), f="s", phi12="z1", name="t22-mesh")
    trip = solve_triple(fam, ImmersionParams(beta=0.0, C_strip=4.0))
    field = exact_field("x + t", Grid1D(-6, 6, 16), t_span=(-6, 6))
    where = dict(origin=(-0.00041938804514817017, -0.0008324754194768564), steps=(40, 30),
                 h=(0.003971249069897617, 0.003968629234813718))
    return fam, trip, field, where


def _zero_step_window(steps):
    return lambda: (*_kink_setup(), dict(origin=(-1.0, -1.2), steps=steps, h=0.01))


@pytest.mark.parametrize("window", [
    _kink_window, _novikov_window, _stage_rounding_window,
    _zero_step_window((0, 12)), _zero_step_window((12, 0)), _zero_step_window((0, 0)),
], ids=["kink-201", "novikov-numeric", "stage-rounding", "no-x-steps", "no-t-steps", "no-steps"])
def test_integrate_frame_equals_the_former_five_call_path(window):
    fam, trip, field, where = window()
    mesh = integrate_frame(fam, trip, field, **where)
    want = former_integrate_frame(fam, trip, field, **where)
    for name in ("r", "e3", "K"):
        assert _same_bits(getattr(mesh, name), getattr(want, name)), name
    assert list(mesh.diagnostics) == list(want.diagnostics)
    for key, value in want.diagnostics.items():
        assert np.array(mesh.diagnostics[key]).tobytes() == np.array(value).tobytes(), key


def test_the_stage_rounding_window_keeps_both_abscissae():
    *_, where = _stage_rounding_window()
    for g0, h, n in zip(where["origin"], where["h"], where["steps"]):
        grid = g0 + h * np.arange(n + 1)
        stages = _stage_abscissae(grid)
        apart = stages[:, 2] != grid[1:]
        assert np.any(apart)
        points, nodes, at = _line_points(grid)
        assert len(points) == 2 * n + 1 + np.count_nonzero(apart)
        assert points[nodes].tolist() == grid.tolist() and points[at].tolist() == stages.tolist()
