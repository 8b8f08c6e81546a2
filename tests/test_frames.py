"""Frame integration, fundamental forms, discrete curvature, OBJ export."""

import json
import math

import numpy as np
import pytest

from pss.catalog import FamilyParams, Branch, build_family, novikov_preset, sine_gordon_preset
from pss.frames import (
    SurfaceMesh,
    discrete_gaussian_curvature,
    export_obj,
    first_form_coefficients,
    integrate_frame,
    second_form_coefficients,
    write_diagnostics,
)
from pss.immersion import ImmersionParams, solve_triple
from pss.pde import Grid1D, kink_field
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
