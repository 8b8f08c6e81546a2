"""Method of lines, Helmholtz inverse, exact reference solutions, jet sampling."""

import math

import numpy as np
import pytest
import sympy as sp

from pss.catalog import (
    Branch,
    FamilyParams,
    _uni_derivs,
    build_family,
    novikov_preset,
    sine_gordon_preset,
    t22_demo_preset,
    t25i_demo_preset,
)
from pss.dual import Dual
from pss.expr import DomainError, parse_expression
from pss.pde import (
    CFL_COEFFICIENT,
    BlowUpError,
    CflError,
    Grid1D,
    PdeError,
    SolutionField,
    exact_field,
    export_csv,
    helmholtz_invert,
    kink_field,
    load_field,
    periodic_derivative,
    save_field,
    solve_mol,
    spectral_derivative,
)
from references import (
    allocating_march,
    discrete_zt_env,
    exact_sine_gordon_kink,
    helmholtz_apply,
    jet_at,
    roll_periodic_derivative,
)


def test_grid_invariants():
    for lo, hi, nx in ((0.0, 1.0, 8), (1.0, 1.0, 32), (1.0, 0.0, 32), (0.0, np.inf, 32), (-1e308, 1e308, 32)):
        with pytest.raises(PdeError):
            Grid1D(lo, hi, nx)
    g = Grid1D(0.0, 1.0, 32)
    assert g.dx == pytest.approx(1.0 / 32)


# ----------------------------------------------------------------------
# Helmholtz


def test_helmholtz_fourier_eigenfunction():
    g = Grid1D(-np.pi, np.pi, 64)
    x = g.nodes()
    for k in (1, 3, 7):
        out = helmholtz_invert(g, np.sin(k * x))
        assert np.max(np.abs(out - np.sin(k * x) / (1 + k * k))) < 1e-13


def test_helmholtz_constant():
    g = Grid1D(0.0, 1.0, 32)
    assert np.max(np.abs(helmholtz_invert(g, np.full(32, 2.5)) - 2.5)) == 0.0


def test_helmholtz_roundtrip():
    g = Grid1D(0.0, 2.0, 128)
    rng = np.random.default_rng(0)
    u = rng.standard_normal(128)
    v = helmholtz_invert(g, helmholtz_apply(g, u))
    assert np.max(np.abs(v - u)) < 1e-10


def test_helmholtz_positive_definite_and_self_adjoint():
    g = Grid1D(0.0, 1.0, 64)
    rng = np.random.default_rng(1)
    for _ in range(20):
        u = rng.standard_normal(64)
        v = rng.standard_normal(64)
        assert float(np.dot(helmholtz_apply(g, u), u)) > 0.0
        assert float(np.dot(helmholtz_invert(g, u), u)) > 0.0
        lhs = float(np.dot(helmholtz_invert(g, u), v))
        rhs = float(np.dot(u, helmholtz_invert(g, v)))
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


# ----------------------------------------------------------------------
# Exact solutions


def test_kink_at_origin_is_pi():
    assert exact_sine_gordon_kink(1.0, 0.0, 0.0) == pytest.approx(math.pi, abs=1e-15)


def test_kink_limits():
    assert exact_sine_gordon_kink(1.0, -20.0, 0.0) == pytest.approx(0.0, abs=1e-7)
    assert exact_sine_gordon_kink(1.0, 20.0, 0.0) == pytest.approx(2 * math.pi, abs=1e-7)


def test_kink_solves_sine_gordon():
    """|u_xt - sin u| at random points via analytic jets of the field."""
    f = kink_field(1.0, Grid1D(-6, 6, 16), t_span=(-6, 6))
    rng = np.random.default_rng(2)
    for _ in range(100):
        x, t = rng.uniform(-5, 5, 2)
        p = jet_at(f, x, t, 2)
        assert abs(p["v1"] - math.sin(p["z0"])) < 1e-12


# ----------------------------------------------------------------------
# Jet sampling


def test_exact_polynomial_jets():
    f = exact_field("x^3", Grid1D(-10, 10, 16), t_span=(-1, 1))
    p = jet_at(f, 2.0, 0.0, 5)
    assert [p[f"z{i}"] for i in range(6)] == pytest.approx([8.0, 12.0, 12.0, 6.0, 0.0, 0.0])
    assert p["w1"] == 0.0 and p["v1"] == 0.0
    assert "z6" not in p and "w2" not in p and "v2" not in p


def test_exact_mixed_derivatives():
    f = exact_field("x^2*t + sin(t)*x", Grid1D(-10, 10, 16), t_span=(-2, 2))
    p = jet_at(f, 1.5, 0.7, 3)
    assert p["w1"] == pytest.approx(1.5**2 + math.cos(0.7) * 1.5)  # u_t
    assert p["v1"] == pytest.approx(2 * 1.5 * 1.0 + math.cos(0.7))  # u_xt


def test_constant_field_jets():
    f = exact_field("2", Grid1D(-1, 1, 16), t_span=(-1, 1))
    p = jet_at(f, 0.5, 0.0, 4)
    assert [p[f"z{i}"] for i in range(5)] == [2.0, 0.0, 0.0, 0.0, 0.0] and "z5" not in p
    assert p["w1"] == 0.0


def test_numeric_stencil_order():
    errs = {}
    for nx in (256, 512):
        g = Grid1D(0.0, 2 * np.pi, nx)
        u = np.sin(g.nodes())
        f = SolutionField(g, [0.0, 1.0], frames=np.array([u, u]),
                          provenance={"type": "NUMERIC", "space_accuracy": 4, "max_jet_order": 5})
        x = g.nodes()[nx // 3]
        p = jet_at(f, x, 0.0, 5)
        errs[nx] = abs(p["z2"] + math.sin(x))
    ratio = errs[256] / errs[512]
    assert 16 / 1.25 <= ratio <= 16 * 1.25


def test_numeric_off_grid_samples_interpolate():
    g = Grid1D(0.0, 2 * np.pi, 256)
    u = np.sin(g.nodes())
    f = SolutionField(g, [0.0, 1.0], frames=np.array([u, u]),
                      provenance={"type": "NUMERIC", "space_accuracy": 4, "max_jet_order": 5})
    x = g.nodes()[40] + 0.37 * g.dx
    p = jet_at(f, x, 0.0, 2)
    # off-node sampling is periodic Catmull-Rom: 3rd order in dx, inside this bound
    assert abs(p["z0"] - math.sin(x)) < g.dx**2
    assert abs(p["z1"] - math.cos(x)) < g.dx**2
    with pytest.raises(PdeError):
        jet_at(f, g.nodes()[3], 2.5, 2)  # beyond the stored time range


def _travelling_field(nx=64, S=9):
    """NUMERIC field of u = sin(x - 0.7 t) + 0.2 cos(2x) t^2 at S snapshots on t in [0, 0.4]."""
    g = Grid1D(0.0, 2 * np.pi, nx)
    ts = np.linspace(0.0, 0.4, S)
    x = g.nodes()
    frames = np.array([np.sin(x - 0.7 * t) + 0.2 * np.cos(2 * x) * t * t for t in ts])
    return SolutionField(g, ts, frames=frames,
                         provenance={"type": "NUMERIC", "space_accuracy": 4, "max_jet_order": 5})


def _catmull_rom(arr, g, x):
    """Reference periodic Catmull-Rom of node values arr at the points x."""
    idx = (x - g.x_min) / g.dx
    i0 = np.floor(idx).astype(int)
    w = idx - i0
    pm, p0, p1, p2 = (arr[np.mod(i0 + o, g.nx)] for o in (-1, 0, 1, 2))
    return p0 + 0.5 * w * ((p1 - pm) + w * ((2 * pm - 5 * p0 + 4 * p1 - p2) + w * (3 * (p0 - p1) + p2 - pm)))


def test_numeric_snapshot_samples_are_frame_derivatives():
    """At snapshot times and nodes the jets are the stencil derivatives of
    that frame, and w1, v1 the centered snapshot slope and its x-derivative,
    bit for bit."""
    f = _travelling_field()
    g, ts = f.grid, f.times
    for j in (0, 4, len(ts) - 1):
        env = f.sample_env(g.nodes(), ts[j], 5)
        for m in range(6):
            assert np.array_equal(env[f"z{m}"], periodic_derivative(f.frames[j], g.dx, m, acc=4))
        if j == 4:
            du = (f.frames[5] - f.frames[3]) / (ts[5] - ts[3])
            assert np.array_equal(env["w1"], du)
            assert np.array_equal(env["v1"], periodic_derivative(du, g.dx, 1, acc=4))


def test_numeric_off_snapshot_samples_match_blended_frame():
    """Between snapshots and nodes the jets equal Catmull-Rom of the
    derivatives of the linearly blended frame (w1, v1: of the bracketing
    divided difference) to 1e-12 on the scale dx^-m of an m-th difference,
    which amplifies the rounding of the swapped blend by that factor."""
    f = _travelling_field()
    g, ts = f.grid, f.times
    rng = np.random.default_rng(5)
    x = rng.uniform(g.x_min, g.x_max, 50)
    for t in (0.013, 0.2371, 0.399):
        j = int(np.searchsorted(ts, t)) - 1
        w = (t - ts[j]) / (ts[j + 1] - ts[j])
        frame = (1 - w) * f.frames[j] + w * f.frames[j + 1]
        du = (f.frames[j + 1] - f.frames[j]) / (ts[j + 1] - ts[j])
        env = f.sample_env(x, t, 5)
        ref = [(f"z{m}", m, periodic_derivative(frame, g.dx, m, acc=4)) for m in range(6)]
        ref += [("w1", 0, du), ("v1", 1, periodic_derivative(du, g.dx, 1, acc=4))]
        for key, m, nodal in ref:
            assert np.max(np.abs(env[key] - _catmull_rom(nodal, g, x))) <= 1e-12 * g.dx**-m, key


def test_numeric_array_t_equals_pointwise():
    f = _travelling_field()
    g, ts = f.grid, f.times
    rng = np.random.default_rng(6)
    x = np.concatenate([g.nodes()[[3, 17, 40]], rng.uniform(g.x_min, g.x_max, 9)])
    t = np.concatenate([ts[[0, 2, 8]], rng.uniform(ts[0], ts[-1], 6), ts[[1, 5, 7]]])
    env = f.sample_env(x, t, 5)
    for i in range(len(x)):
        one = f.sample_env(np.array([x[i]]), t[i], 5)
        for key, val in one.items():
            assert np.array_equal(env[key][i:i + 1], val), key
    scalar_x = f.sample_env(x[4], t, 3)  # one x swept in t, the t-spine's shape
    for i in range(len(t)):
        assert scalar_x["z3"][i] == f.sample_env(np.array([x[4]]), t[i], 3)["z3"][0]


def test_numeric_frames_read_only(tmp_path):
    f = _travelling_field()
    f.sample_env(f.grid.nodes(), 0.1, 3)
    with pytest.raises(ValueError):
        f.frames[0, 0] = 1.0
    with pytest.raises(ValueError):
        f.times[0] = 1.0
    path = tmp_path / "f.pssf"
    save_field(f, path)
    with pytest.raises(ValueError):
        load_field(path).frames[1, 2] = 0.0


def test_numeric_order_cap():
    g = Grid1D(0.0, 2 * np.pi, 32)
    u = np.sin(g.nodes())
    f = SolutionField(g, [0.0, 1.0], frames=np.array([u, u]), provenance={"type": "NUMERIC"})
    with pytest.raises(PdeError):
        jet_at(f, g.nodes()[3], 0.0, 6)


def test_exact_field_domain_errors():
    g = Grid1D(-2, 2, 16)
    for src, x in (("1/x", 0.0), ("x^-2", 0.0), ("sqrt(x)", -1.0), ("sqrt(x)", 0.0)):
        with pytest.raises(DomainError):
            jet_at(exact_field(src, g, t_span=(-1, 1)), x, 0.0, 3)


@pytest.mark.parametrize("fn", ["exp", "sin", "cos", "tan", "sqrt", "arctan"])
def test_exact_jets_of_each_elementary_function_match_sympy(fn):
    src = f"{fn}(0.3*x + 0.2*t + 1.1)"
    p = jet_at(exact_field(src, Grid1D(-2, 2, 16), t_span=(-1, 1)), 0.7, 0.4, 5)
    xs, ts = sp.symbols("x t")
    u = getattr(sp, "atan" if fn == "arctan" else fn)(sp.Rational(3, 10) * xs + sp.Rational(1, 5) * ts
                                                       + sp.Rational(11, 10))
    at = {xs: sp.Rational(7, 10), ts: sp.Rational(2, 5)}
    want = {f"z{k}": sp.diff(u, xs, k) for k in range(6)}
    want["w1"] = sp.diff(u, ts)
    want["v1"] = sp.diff(u, xs, ts)
    for nm, d in want.items():
        assert p[nm] == pytest.approx(float(d.subs(at)), rel=1e-12), nm


@pytest.mark.parametrize("src", ["exp(z0)", "2 + sin(z0)", "sqrt(1 + z0^2)"])
def test_uni_derivs_seeded_with_a_dual(src):
    e = parse_expression(src, ["z0"])
    plain = _uni_derivs(e, "z0", 0.37, 4)
    seeded = _uni_derivs(e, "z0", Dual(0.37, (1.0,)), 3)
    for k in range(4):
        assert seeded[k].val == pytest.approx(plain[k], rel=1e-14)
        assert seeded[k].grad[0] == pytest.approx(plain[k + 1], rel=1e-14)


# ----------------------------------------------------------------------
# solve_mol


def test_zero_data_stays_zero():
    g = Grid1D(0.0, 2 * np.pi, 64)
    f = solve_mol(novikov_preset(), g, np.zeros(64), 0.5, 1e-2)
    assert np.max(np.abs(f.frames[-1])) == 0.0


def test_cfl_guard():
    g = Grid1D(0.0, 2 * np.pi, 64)
    with pytest.raises(CflError):
        solve_mol(novikov_preset(), g, 2.0 + np.zeros(64), 1.0, 0.5)


def test_blow_up_detector_reports_time():
    # large smooth data within the CFL cap goes unstable (no dealiasing);
    # the detector must abort with the failure time, not emit NaN frames
    g = Grid1D(0.0, 2 * np.pi, 64)
    u0 = 10.0 * np.sin(g.nodes())
    with pytest.raises(BlowUpError) as err:
        solve_mol(novikov_preset(), g, u0, 2.0, 2e-4)
    assert err.value.t > 0


def test_sine_gordon_march_stops_just_past_the_blow_up_cap():
    # the light-cone march has no CFL check, so only the cap (|u|_inf 1e6) can
    # stop it; the last node gains about 0.0085 per step (sin u > 0.9 on the
    # others)
    g = Grid1D(0.0, 1.0, 16)
    u0 = np.full(16, 1e6 - 4.0)
    u0[-1] = 1e6 - 0.05
    inside = solve_mol(sine_gordon_preset(), g, u0, 0.05, 0.01)
    assert 0.0 < 1e6 - np.max(np.abs(inside.frames[-1])) < 0.01
    with pytest.raises(BlowUpError) as err:
        solve_mol(sine_gordon_preset(), g, u0, 0.06, 0.01)
    assert type(err.value) is BlowUpError and err.value.t == 0.06
    assert 0.0 < err.value.amplitude - 1e6 < 0.01


def test_cfl_rechecked_during_march():
    # the blow-up data passes the cap at t = 0; its amplitude then grows
    # past what dt can march, and the guard stops it with the time
    g = Grid1D(0.0, 2 * np.pi, 64)
    u0 = 10.0 * np.sin(g.nodes())
    dt = 2e-4
    assert dt <= 0.5 * g.dx / float(np.max(u0 * u0))
    with pytest.raises(CflError) as err:
        solve_mol(novikov_preset(), g, u0, 2.0, dt)
    assert 0.0 < err.value.t < 0.0134  # before the amplitude cap fires
    assert err.value.cap < dt
    assert err.value.amplitude > float(np.max(np.abs(u0)))


def test_cfl_cap_at_t0_trips_just_past_it_and_passes_at_it():
    """dt one ulp above c*dx/max(1, |lam| max u^2) is refused before the
    first step, and dt at the cap marches (constant data stay constant, so
    each step rechecks the same cap).  Level 2 has |lam| u^2 = 4 > 1."""
    g = Grid1D(0.0, 2 * np.pi, 32)
    fam = novikov_preset()
    for level in (0.0, 2.0):
        u0 = np.full(32, level)
        cap = CFL_COEFFICIENT * g.dx / max(1.0, abs(fam.params.lam) * (level * level))
        past = float(np.nextafter(cap, np.inf))
        with pytest.raises(CflError) as err:
            solve_mol(fam, g, u0, 2 * past, past)
        assert err.value.t == 0.0 and err.value.cap == cap and err.value.amplitude == level
        assert np.array_equal(solve_mol(fam, g, u0, 2 * cap, cap).frames, np.full((3, 32), level))


def test_a_non_finite_amplitude_is_a_blow_up():
    """A step that overflows to NaN stops the march as a BlowUpError with
    amplitude nan; it does not come back as NaN frames.  At |u| = 800 the
    T25i demo's G overflows (exp) in the first step that the cap lets through."""
    g = Grid1D(0.0, 1.0, 16)
    fam = t25i_demo_preset()
    cap = CFL_COEFFICIENT * g.dx / max(1.0, abs(fam.params.lam) * (800.0 * 800.0))
    with np.errstate(all="ignore"), pytest.raises(BlowUpError) as err:
        solve_mol(fam, g, np.full(16, 800.0), cap, cap)
    assert type(err.value) is BlowUpError and err.value.t == cap and math.isnan(err.value.amplitude)


def _march_families():
    def params(branch, **kw):
        return FamilyParams(branch=branch, mu2=0.0, eta2=1.0, **kw)

    lam = -0.7  # lam != 1, so a reordering of lam*u*u*u_xxx changes bits
    return {
        "novikov": novikov_preset(),
        "sine-gordon": sine_gordon_preset(),  # the light-cone march
        "t22": t22_demo_preset(),
        "t24-lam-C": build_family(FamilyParams(branch=Branch.T24, lam=lam, mu2=0.3, eta2=1.0, C=0.4, sign=1),
                                  f="s", phi12="z0*(z1-z0)^2"),
        "t23": build_family(params(Branch.T23, lam=lam, mu3=0.0, root=1), f="s"),
        "t25i": build_family(params(Branch.T25I, lam=lam, theta=1.0, B=1.0, m=1.0, n=0.0, sign=1)),
        "t25ii": build_family(params(Branch.T25II, lam=lam, tau=1.0, m=2.0, n=0.0, sign=1, root=1), phi="exp(z0)"),
    }


@pytest.mark.parametrize("space", ["spectral", 4, 2])
@pytest.mark.parametrize("name", list(_march_families()))
def test_march_equals_the_allocating_march_bit_for_bit(name, space):
    """Every saved frame of a 20-step march equals the march whose every
    FFT, RK4 constant and stencil shift allocates afresh.  The data cross
    zero and dt is large, so that a one-ulp change of the right-hand side
    shows in the frames: with 0.1 + 0.05 cos x and dt = 1e-3, frames did
    not see lam*(u*u)*u_xxx for lam*u*u*u_xxx."""
    fam = _march_families()[name]
    g = Grid1D(0.0, 2 * np.pi, 64)
    x = g.nodes()
    u0 = 0.6 * np.sin(x) + 0.2 * np.cos(3 * x)
    f = solve_mol(fam, g, u0, 0.2, 1e-2, space=space, n_save=21)
    times, frames = allocating_march(fam, g, u0, 0.2, 1e-2, space=space, n_save=21)
    assert list(f.times) == times and len(frames) == 21
    assert f.frames.tobytes() == np.array(frames).tobytes()
    assert np.max(np.abs(frames[-1] - u0)) > 1e-3  # it moved


def test_periodic_derivative_equals_the_roll_stencil_bit_for_bit():
    rng = np.random.default_rng(7)
    for shape in ((16,), (64,), (5, 33)):
        u = rng.standard_normal(shape)
        for acc in (2, 4):
            for m in range(6):
                assert np.array_equal(periodic_derivative(u, 0.3, m, acc=acc),
                                      roll_periodic_derivative(u, 0.3, m, acc=acc)), (shape, acc, m)


def test_pocketfft_kernels_equal_numpy_fft_bit_for_bit():
    """The kernels the march binds from numpy.fft's private pocketfft module,
    with the factors np.fft passes them (1 forward, 1/n back), give
    np.fft.rfft and np.fft.irfft(n=n) bit for bit, the 3-row batch too."""
    try:
        from numpy.fft import _pocketfft_umath as pocketfft
    except ImportError as exc:
        pytest.fail(f"numpy {np.__version__} moved numpy.fft._pocketfft_umath, which solve_mol binds: {exc}")
    def same_bits(a, b):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    rng = np.random.default_rng(35)
    for n in (128, 256, 127):
        rfft = pocketfft.rfft_n_even if n % 2 == 0 else pocketfft.rfft_n_odd
        u = rng.standard_normal(n)
        assert same_bits(rfft(u, 1, out=np.empty(n // 2 + 1, dtype=complex)), np.fft.rfft(u)), n
        spectra = rng.standard_normal((3, n // 2 + 1)) + 1j * rng.standard_normal((3, n // 2 + 1))
        assert same_bits(pocketfft.irfft(spectra, 1.0 / n, out=np.empty((3, n))), np.fft.irfft(spectra, n=n)), n


@pytest.mark.parametrize("nx", [128, 256, 127])
def test_spectral_rk4_matches_reference_rhs(nx):
    """The march's shared-rfft right-hand side gives, bit for bit, the RK4
    steps of the one built from spectral_derivative and helmholtz_invert,
    at the field workload's nx = 256 and at an odd nx too.  The data cross
    zero and dt is large, so that a one-ulp change of G shows in the
    frames."""
    fam = novikov_preset()
    g = Grid1D(0.0, 2 * np.pi, nx)
    u = 0.6 * np.sin(g.nodes()) + 0.2 * np.cos(3 * g.nodes())
    dt, steps = 1e-2, 4
    f = solve_mol(fam, g, u, steps * dt, dt, n_save=steps + 1)

    def rhs(uu):
        env = {"z0": uu}
        env.update({f"z{m}": spectral_derivative(g, uu, m) for m in (1, 2, 3)})
        return helmholtz_invert(g, fam.params.lam * uu * uu * env["z3"] + fam.G_fn(env))

    for k in range(1, steps + 1):
        k1 = rhs(u)
        k2 = rhs(u + 0.5 * dt * k1)
        k3 = rhs(u + 0.5 * dt * k2)
        k4 = rhs(u + dt * k3)
        u = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        assert np.array_equal(f.frames[k], u)


def test_sine_gordon_march_fourth_order():
    sg = sine_gordon_preset()
    errs = {}
    for nx, dt in ((128, 0.02), (256, 0.01)):
        g = Grid1D(-20.0, 20.0, nx)
        u0 = exact_sine_gordon_kink(1.0, g.nodes(), 0.0)
        f = solve_mol(sg, g, u0, 1.0, dt, space=4)
        ue = exact_sine_gordon_kink(1.0, g.nodes(), 1.0)
        errs[nx] = float(np.max(np.abs(f.frames[-1] - ue)))
    ratio = errs[128] / errs[256]
    assert 16 / 1.3 <= ratio <= 16 * 1.3


def test_sine_gordon_march_second_order_config():
    sg = sine_gordon_preset()
    errs = {}
    for nx, dt in ((256, 0.02), (512, 0.01)):
        g = Grid1D(-20.0, 20.0, nx)
        u0 = exact_sine_gordon_kink(1.0, g.nodes(), 0.0)
        f = solve_mol(sg, g, u0, 1.0, dt, space=2)
        ue = exact_sine_gordon_kink(1.0, g.nodes(), 1.0)
        errs[nx] = float(np.max(np.abs(f.frames[-1] - ue)))
    ratio = errs[256] / errs[512]
    assert 4 / 1.3 <= ratio <= 4 * 1.3


def test_novikov_h1_functional_drift():
    """int(u^2 + u_x^2) dx drift < 1e-6 relative over t in [0, 1] at nx = 256.

    The bound was adopted after measuring the drift at nx = 128 and 256:
    both sit at rounding level (~1e-15), far below the regression bound.
    """
    g = Grid1D(0.0, 2 * np.pi, 256)
    u0 = 0.1 + 0.05 * np.cos(g.nodes())
    f = solve_mol(novikov_preset(), g, u0, 1.0, 1e-3)

    def h1(u):
        return float(np.sum(u * u + spectral_derivative(g, u, 1) ** 2) * g.dx)

    vals = [h1(fr) for fr in f.frames]
    assert (max(vals) - min(vals)) / vals[0] < 1e-6
    assert np.max(np.abs(f.frames[-1] - f.frames[0])) > 1e-4  # it genuinely evolved


def test_onshell_bridge_residuals_shrink_with_resolution():
    """Structure residuals of the Novikov family on jets sampled from the
    discrete march, with z_{k,t} measured from the snapshots, converge to
    zero at the discretization order as the grid refines."""
    from pss.verifier import structure_residuals_env

    fam = novikov_preset()
    maxres = {}
    for nx in (64, 128):
        g = Grid1D(0.0, 2 * np.pi, nx)
        u0 = 0.3 + 0.1 * np.cos(g.nodes())
        f = solve_mol(fam, g, u0, 0.02, 1e-5, space=4, n_save=2001)
        tmid = f.times[len(f.times) // 2]
        env = f.sample_env(g.nodes(), tmid, 5)
        zt = discrete_zt_env(f, tmid, 2)
        (r1, r2, r3), scales = structure_residuals_env(fam, env, zt=zt)
        maxres[nx] = max(float(np.max(np.abs(r) / s)) for r, s in zip((r1, r2, r3), scales))
    # 4th-order stencils and march: one halving shrinks the residual ~16x
    assert maxres[128] < maxres[64] / 8
    assert maxres[128] < 1e-5


# ----------------------------------------------------------------------
# Field files


def test_field_file_roundtrip(tmp_path):
    g = Grid1D(0.0, 2 * np.pi, 64)
    f = solve_mol(novikov_preset(), g, 0.1 + 0.01 * np.sin(g.nodes()), 0.1, 1e-3)
    path = tmp_path / "field.pssf"
    save_field(f, path)
    f2 = load_field(path)
    assert f2.grid.nx == 64
    assert np.array_equal(f2.times, f.times)
    assert np.array_equal(f2.frames, f.frames)
    assert path.read_bytes()[:4] == b"PSSF"


def test_truncated_field_file_rejected(tmp_path, capsys):
    from pss.cli import EXIT_FAIL, run

    g = Grid1D(0.0, 2 * np.pi, 32)
    f = solve_mol(novikov_preset(), g, 0.1 + 0.01 * np.sin(g.nodes()), 0.01, 1e-3, n_save=3)
    good = tmp_path / "field.pssf"
    save_field(f, good)
    data = good.read_bytes()
    bad = tmp_path / "bad.pssf"
    for cut in (0, 3, 4, 10, 20, 31, 32, 40, 32 + 8 * 3, len(data) // 2, len(data) - 1):
        bad.write_bytes(data[:cut])
        with pytest.raises(PdeError) as err:
            load_field(bad)
        if cut >= 32:
            assert f"is {len(data)} bytes, the file has {cut}" in str(err.value)
    bad.write_bytes(data + b"\0")
    with pytest.raises(PdeError):
        load_field(bad)
    bad.write_bytes(data[: len(data) // 2])
    capsys.readouterr()
    code = run(["reconstruct", "--preset", "novikov", "--field", str(bad), "--sigma", "3", "--beta", "0.5",
                "--grid", "4x4"])
    err = capsys.readouterr().err
    assert code == EXIT_FAIL
    assert err.startswith("pss: ") and err.count("\n") == 1


def test_field_csv_export(tmp_path):
    g = Grid1D(0.0, 2 * np.pi, 16)
    f = SolutionField(g, [0.0], frames=np.zeros((1, 16)), provenance={"type": "NUMERIC"})
    path = tmp_path / "f.csv"
    export_csv(f, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,t,u" and len(lines) == 17
    assert "np.float" not in lines[1]  # plain reprs, numpy scalar types stripped
