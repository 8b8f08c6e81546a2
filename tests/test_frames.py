"""Frame integration, fundamental forms, discrete curvature, OBJ export."""

import json
import math

import numpy as np
import pytest

from pss.catalog import FamilyParams, Branch, build_family, novikov_preset, sine_gordon_preset
from pss.frames import (
    SurfaceMesh,
    _coefficients,
    _stage_abscissae,
    discrete_gaussian_curvature,
    export_obj,
    first_form_coefficients,
    integrate_frame,
    second_form_coefficients,
    write_diagnostics,
)
from pss.immersion import ImmersionParams, Representation, solve_triple
from pss.pde import Grid1D, exact_field, kink_field, solve_mol
from pss.verifier import delta, sample_envs


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
        E, F, G = first_form_coefficients(fam, jp([u, 0.3, 0.1, 0.0]))
        assert E == pytest.approx(1.7**2, abs=1e-14)
        assert F == pytest.approx(math.cos(u), abs=1e-14)
        assert G == pytest.approx(1.7**-2, abs=1e-14)


def test_degenerate_column_first_form():
    # f12 = f22 = 0 forces F = G = 0
    fam = build_family(FamilyParams(branch=Branch.T22, eta2=1.0), f="s", phi12="z1")
    E, F, G = first_form_coefficients(fam, jp([0.4, 0.0, 0.1, 0.0]))  # phi12 = z1 = 0
    assert F == 0.0 and G == 0.0 and E > 0


def test_lagrange_identity_novikov():
    fam = novikov_preset()
    env = sample_envs(fam, 300, np.random.default_rng(1))
    E, F, G = first_form_coefficients(fam, env)
    d12 = delta(fam, env, 1, 2)
    assert np.max(np.abs(E * G - F * F - d12 * d12)) < 1e-12 * max(1.0, float(np.max(np.abs(E * G))))


def test_sine_gordon_second_form():
    fam = sine_gordon_preset(eta=1.0)
    rng = np.random.default_rng(2)
    for _ in range(50):
        u = rng.uniform(0.2, math.pi - 0.2)
        abc = (2.0 / math.tan(u), -1.0, 0.0)
        a1, a2, a3 = second_form_coefficients(fam, abc, jp([u, 0.5, 0.0, 0.0]))
        assert a1 == pytest.approx(0.0, abs=1e-13)
        assert a2 == pytest.approx(-math.sin(u), abs=1e-13)
        assert a3 == pytest.approx(0.0, abs=1e-13)


def test_zero_triple_zero_form():
    fam = novikov_preset()
    assert second_form_coefficients(fam, (0.0, 0.0, 0.0), jp([0.3, 0.2, 0.1, 0.0])) == (0.0, 0.0, 0.0)


def test_second_form_swap_symmetry():
    """Swapping the rows (f1j <-> f2j) together with a <-> c fixes a2."""
    fam = novikov_preset()
    rng = np.random.default_rng(3)
    env = sample_envs(fam, 100, rng)
    a, b, c = 1.3, -0.4, 0.7
    _, a2, _ = second_form_coefficients(fam, (a, b, c), env)

    class Swapped:
        def fij(self, i, j):
            if i == 1:
                return fam.fij(2, j)
            if i == 2:
                return fam.fij(1, j)
            return fam.fij(3, j)

    _, a2s, _ = second_form_coefficients(Swapped(), (c, b, a), env)
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


# ----------------------------------------------------------------------
# integrate_frame


def _kink_setup(eta=1.0):
    fam = sine_gordon_preset(eta=eta)
    trip = solve_triple(fam, ImmersionParams(a_sign=1))
    field = kink_field(eta, Grid1D(-6, 6, 16), t_span=(-6, 6))
    return fam, trip, field


def test_frame_state_drift_measure():
    from pss.frames import FrameState

    eye = np.eye(3)
    clean = FrameState(np.zeros(3), eye[0], eye[1], eye[2])
    assert clean.drift() == 0.0
    bent = FrameState(np.zeros(3), eye[0], eye[1] + 1e-4 * eye[0], eye[2])
    assert bent.drift() >= 1e-4


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
        mesh = integrate_frame(fam, trip, field, origin=(-1.8, -1.8), steps=(n, n), h=1.6 / n,
                               measure_compat=False)
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


def test_reconstructed_first_form_matches_stored():
    """Finite differences of r reproduce the stored E, F, G to O(h^2)."""
    fam, trip, field = _kink_setup()
    n, h = 80, 0.02
    mesh = integrate_frame(fam, trip, field, origin=(-1.8, -1.8), steps=(n, n), h=h,
                           measure_compat=False)
    rx = (mesh.r[2:, 1:-1] - mesh.r[:-2, 1:-1]) / (2 * h)
    rt = (mesh.r[1:-1, 2:] - mesh.r[1:-1, :-2]) / (2 * h)
    E = np.einsum("...i,...i", rx, rx)
    F = np.einsum("...i,...i", rx, rt)
    G = np.einsum("...i,...i", rt, rt)
    stored = mesh.first_form[1:-1, 1:-1]
    assert np.max(np.abs(E - stored[..., 0])) < 5e-3
    assert np.max(np.abs(F - stored[..., 1])) < 5e-3
    assert np.max(np.abs(G - stored[..., 2])) < 5e-3


def test_detII_over_detI_is_minus_one():
    fam, trip, field = _kink_setup()
    mesh = integrate_frame(fam, trip, field, origin=(-1.8, -1.8), steps=(40, 40), h=0.04,
                           measure_compat=False)
    I = mesh.first_form
    II = mesh.second_form
    detI = I[..., 0] * I[..., 2] - I[..., 1] ** 2
    detII = II[..., 0] * II[..., 2] - II[..., 1] ** 2
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
    mesh = integrate_frame(fam, trip, field, origin=(0.3, -0.5), steps=(60, 60), h=0.01,
                           measure_compat=False)
    K = mesh.interior_K()
    assert np.nanmax(np.abs(K + 1.0)) < 5e-2
    assert mesh.diagnostics["drift_max"] < 1e-6


def test_obj_export_and_diagnostics(tmp_path):
    fam, trip, field = _kink_setup()
    mesh = integrate_frame(fam, trip, field, origin=(-1.5, -1.5), steps=(8, 8), h=0.05,
                           measure_compat=True)
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
    zeros = np.zeros((4, 5, 3))
    return SurfaceMesh(xs=np.arange(4.0), ts=np.arange(5.0), r=r, e3=e3, first_form=zeros, second_form=zeros)


def test_obj_bytes_match_the_per_line_writer(tmp_path):
    rng = np.random.default_rng(5)
    flipped = _plane_mesh(-1.0, rng)  # the first triangle winds against its normal
    degenerate = _plane_mesh(-1.0, rng)
    degenerate.r[1, 0] = degenerate.r[0, 0]  # the probe skips it and flips on the next one
    signed_zero = _plane_mesh(-1.0, rng)
    signed_zero.r[0, 0] = [-0.0, 0.0, -0.0]
    signed_zero.e3[0, 0] = [0.0, -0.0, -0.0]  # a zero normal is written unnormalised
    large = SurfaceMesh(xs=None, ts=None, r=rng.standard_normal((65, 70, 3)),
                        e3=rng.standard_normal((65, 70, 3)), first_form=None, second_form=None)
    fam, trip, field = _kink_setup()
    kink = integrate_frame(fam, trip, field, origin=(-1.5, -1.5), steps=(8, 6), h=0.05)
    for name, mesh in (("flipped", flipped), ("degenerate", degenerate),
                       ("signed_zero", signed_zero), ("large", large), ("kink", kink)):
        got, want = tmp_path / f"{name}.obj", tmp_path / f"{name}.ref.obj"
        export_obj(mesh, got)
        _reference_export_obj(mesh, want)
        assert got.read_bytes() == want.read_bytes(), name
    for name in ("flipped", "degenerate"):
        assert "\nf 7//7 6//6 1//1\n" in (tmp_path / f"{name}.obj").read_text(), name
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


@pytest.mark.parametrize("setup, representation", [
    (_kink_batch_setup, Representation.SOLUTION_DEPENDENT),
    (_novikov_numeric_setup, Representation.CLOSED_FORM),
    (_t22_ode_setup, Representation.ODE_TABLE),
], ids=["kink-exact", "novikov-numeric", "t22-ode-table"])
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
        # one transverse step, (3, n), against one call per stage on the whole line
        for x, t in ((xs, t_stages[1][:, None]), (x_stages[2][:, None], ts)):
            batch = _coefficients(fam, trip, field, x, t, column)
            xb, tb = np.broadcast_arrays(x, t)
            per_stage = [_coefficients(fam, trip, field, xb[k], tb[k], column) for k in range(3)]
            assert all(_same_bits(cb, np.stack(cs)) for cb, cs in zip(batch, zip(*per_stage))), column


def test_integrate_frame_samples_once_per_spine_and_step():
    fam, trip, field = _kink_setup()
    sample = field.sample_env
    calls = []

    def counting(*args):
        calls.append(args)
        return sample(*args)

    field.sample_env = counting
    n, m = 7, 5
    integrate_frame(fam, trip, field, origin=(-1.5, -1.5), steps=(n, m), h=0.05)
    # x-spine and its m steps, t-spine and its n steps, m + 1 rows of forms
    assert len(calls) == 2 + n + m + (m + 1)
