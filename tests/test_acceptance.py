"""Acceptance suite: one test per criterion, tolerances pinned as stated.

Run with `pytest tests/test_acceptance.py -s` to see one line per criterion.
"""

import json
import math
import time

import numpy as np
import pytest
import sympy as sp

from pss.catalog import (
    Branch,
    FamilyParams,
    PRESETS,
    build_family,
    novikov_preset,
    sine_gordon_preset,
    t22_demo_preset,
)
from pss.cli import EXIT_NO_IMMERSION, EXIT_OK, run
from pss.expr import parse_expression
from pss.frames import integrate_frame
from pss.immersion import (
    ImmersionParams,
    NoImmersion,
    codazzi_residuals,
    gauss_residual,
    solve_triple,
)
from pss.pde import Grid1D, SolutionField, kink_field, solve_mol
from pss.verifier import certify_structure, sample_envs
from references import (
    columns,
    exact_sine_gordon_kink,
    fd6,
    jet_at,
    ode_backsubstitution_residuals,
    second_form_coefficients,
    trim,
)


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {name}: {status} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _jets(fam, n, seed=0):
    return sample_envs(fam, n, np.random.default_rng(seed))


# ----------------------------------------------------------------------


def test_criterion_1_structure_certification():
    """Max structure residual over 1000 seeded on-shell jets <= 1e-8 for all
    six catalog instances; total runtime <= 10 s."""
    t0 = time.time()
    worst = {}
    for name in ("sine-gordon", "t22-demo", "novikov", "t23-demo", "t25i-demo", "t25ii-demo"):
        rep = certify_structure(PRESETS[name](), samples=1000, tol=1e-8)
        worst[name] = max(rep.residuals.values())
        assert rep.verdict == "pass", (name, rep.residuals)
    elapsed = time.time() - t0
    ok = all(v <= 1e-8 for v in worst.values()) and elapsed <= 10.0
    _report(1, "structure certification", ok,
            f"max residual {max(worst.values()):.2e}, {elapsed:.2f}s")


def test_criterion_2_novikov_matching():
    """G of the preset equals the Novikov polynomial at 200 random
    jets to 1e-10; the parameter matching is re-derived symbolically first."""
    z0, z1, z2 = sp.symbols("z0 z1 z2")
    phi12 = z0 * (z1 - z0) ** 2
    # T24 right-hand side with lam=1, mu2=0, eta2=1, C=0, f=s (f'=1), upper sign
    G_sym = (
        z1 * sp.diff(phi12, z0) + z2 * sp.diff(phi12, z1) - z0**2 * z1 + phi12
        - (2 * z0 * z1 + z0**2) * (z0 - z2)
    )
    target = z1**3 - 3 * z0 * z1**2 - 2 * z0**2 * z1 + 4 * z0 * z1 * z2 - z0**2 * z2
    assert sp.simplify(sp.expand(G_sym - target)) == 0, "symbolic re-derivation failed"

    fam = novikov_preset()
    tgt = sp.lambdify((z0, z1, z2), target)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        z = rng.uniform(-2, 2, 4)
        got = fam.G_fn({f"z{i}": zi for i, zi in enumerate(z)})
        worst = max(worst, abs(got - tgt(z[0], z[1], z[2])))
    _report(2, "Novikov matching", worst <= 1e-10, f"max |G - poly| = {worst:.2e}")


def test_criterion_3_prop41i_reproduction():
    fam = t22_demo_preset()  # f = s, phi12 = z1, mu2 = 0, eta2 = 1
    ip = ImmersionParams(beta=1.0, C_strip=3.0, a_sign=1)
    lo, hi = solve_triple(fam, ip).validity
    e_lo = abs(math.exp(2 * lo) - (3 - math.sqrt(5)) / 2)
    e_hi = abs(math.exp(2 * hi) - (3 + math.sqrt(5)) / 2)
    trip = solve_triple(fam, ip)
    a, b, c = trip.abc(0.0)
    point_ok = (a, b, c) == (1.0, -1.0, 0.0)
    s = trip.strip_samples(1000)
    gmax = float(np.max(np.abs(trip.gauss_residual_at(s))))
    p = _jets(fam, 500)
    xs = trip.strip_samples(500)
    e1, e2 = codazzi_residuals(fam, trip, p, xs, np.zeros(500))
    cmax = max(float(np.max(np.abs(e1))), float(np.max(np.abs(e2))))
    ok = e_lo <= 1e-12 and e_hi <= 1e-12 and point_ok and gmax <= 1e-12 and cmax <= 1e-9
    _report(3, "Prop 4.1(i) reproduction", ok,
            f"strip err {max(e_lo, e_hi):.1e}, gauss {gmax:.1e}, codazzi {cmax:.1e}")


def test_criterion_4_ode_branches():
    """Back-substitution <= 1e-6 at h = 1e-3, improving ~16x at h = 5e-4;
    Gauss <= 1e-10 along the march; Codazzi <= 1e-7 on samples inside."""
    fam = build_family(FamilyParams(branch=Branch.T22, mu2=0.5, eta2=3.0, sign=1),
                       f="s", phi12="z1", name="t22-ode")
    res = {}
    trips = {}
    for h in (1e-3, 5e-4):
        ip = ImmersionParams(beta=0.5, b0=1.2, s0=0.0, h=h, eps=0.3)
        trips[h] = solve_triple(fam, ip)
        fd = fd6(trips[h].b, h)
        res[h] = float(np.max(np.abs(ode_backsubstitution_residuals(trim(trips[h]), bprime=fd))))
    ratio = res[1e-3] / res[5e-4]
    trip = trips[1e-3]
    gmax = float(np.max(np.abs(gauss_residual(*trip.abc(trip.s)))))
    p = _jets(fam, 400)
    lo, hi = trip.validity
    s = np.linspace(lo + 1e-3, hi - 1e-3, 400)
    e1, e2 = codazzi_residuals(fam, trip, p, s, np.zeros(400))
    cmax = max(float(np.max(np.abs(e1))), float(np.max(np.abs(e2))))
    ok = res[1e-3] <= 1e-6 and 16 / 1.25 <= ratio <= 16 * 1.25 and gmax <= 1e-10 and cmax <= 1e-7
    _report(4, "ODE branches", ok,
            f"backsub {res[1e-3]:.2e}, ratio {ratio:.1f}, gauss {gmax:.1e}, codazzi {cmax:.1e}")


def test_criterion_5_non_existence_coverage(tmp_path):
    """sff exits 3 citing Prop 4.2/4.4/4.5 for the presets and for 50 random
    valid parameterizations of each branch; no triple is ever produced."""
    rng = np.random.default_rng(31415)
    cases = []
    for preset, prop in (("t23-demo", "Proposition 4.2"),
                         ("t25i-demo", "Proposition 4.4"),
                         ("t25ii-demo", "Proposition 4.5")):
        cases.append((PRESETS[preset]().to_dict(), prop))
    for _ in range(50):
        cases.append((build_family(
            FamilyParams(branch=Branch.T23, lam=float(rng.uniform(0.5, 2)),
                         eta2=float(rng.uniform(0.5, 2)), mu2=float(rng.uniform(-1, 1)),
                         mu3=float(rng.uniform(-0.9, 0.9)), root=int(rng.choice([1, -1]))),
            f="s").to_dict(), "Proposition 4.2"))
        cases.append((build_family(
            FamilyParams(branch=Branch.T25I, lam=float(rng.uniform(0.5, 2)),
                         theta=float(rng.uniform(0.5, 2)), B=float(rng.uniform(-1, 1)),
                         mu2=float(rng.uniform(-1, 1)), eta2=float(rng.uniform(0.5, 2)),
                         m=float(rng.uniform(0.5, 2)), n=float(rng.uniform(-1, 1)),
                         sign=int(rng.choice([1, -1])))).to_dict(), "Proposition 4.4"))
        cases.append((build_family(
            FamilyParams(branch=Branch.T25II, lam=float(rng.uniform(0.5, 2)),
                         tau=float(rng.uniform(0.2, 1)), mu2=float(rng.uniform(-1, 1)),
                         eta2=float(rng.uniform(0.5, 2)), m=float(rng.uniform(1.5, 3)),
                         n=float(rng.uniform(-1, 1)), sign=int(rng.choice([1, -1])),
                         root=int(rng.choice([1, -1]))), phi="exp(z0)").to_dict(),
            "Proposition 4.5"))
    bad = 0
    spec_path = tmp_path / "family.json"
    rep_path = tmp_path / "report.json"
    csv_path = tmp_path / "triple.csv"
    for doc, prop in cases:
        spec_path.write_text(json.dumps(doc))
        code = run(["sff", "--family", str(spec_path), "--out", str(csv_path),
                    "--report", str(rep_path), "--deterministic"])
        rep = json.loads(rep_path.read_text())
        if code != EXIT_NO_IMMERSION or rep["proposition"] != prop or csv_path.exists():
            bad += 1
    _report(5, "non-existence coverage", bad == 0, f"{len(cases)} cases, {bad} misfires")


def test_criterion_6_sine_gordon_end_to_end():
    """Kink field (eta = 1, domain [-6, 6]^2): first and second fundamental
    forms to 1e-10 pointwise; 200x200 mesh with >= 95% of interior vertices
    at K in [-1.05, -0.95]; frame drift <= 1e-6; <= 60 s.

    The mesh window sits on the regular side of the cusp edge sin(u) = 0,
    where the immersion satisfies the nondegeneracy precondition; the full
    square is unresolvable at this resolution (principal curvature reaches
    e^{12}/2 in the trumpet tails).
    """
    t0 = time.time()
    eta = 1.0
    fam = sine_gordon_preset(eta=eta)
    field = kink_field(eta, Grid1D(-6.0, 6.0, 16), t_span=(-6.0, 6.0))

    # pointwise forms across the full [-6, 6]^2 field domain
    rng = np.random.default_rng(99)
    worst_I = worst_II = 0.0
    from pss.frames import first_form_coefficients

    for _ in range(500):
        x, t = rng.uniform(-6, 6, 2)
        p = jet_at(field, x, t, 3)
        u = p["z0"]
        E, F, G = first_form_coefficients(*columns(fam, p))
        worst_I = max(worst_I, abs(E - eta**2), abs(F - math.cos(u)), abs(G - eta**-2))
        a1, a2, a3 = second_form_coefficients((2.0 / math.tan(u), -1.0, 0.0), *columns(fam, p))
        worst_II = max(worst_II, abs(a1), abs(a2 + math.sin(u)), abs(a3))

    trip = solve_triple(fam, ImmersionParams(a_sign=1))
    mesh = integrate_frame(fam, trip, field, origin=(-2.1, -2.1),
                           steps=(200, 200), h=(1.9 / 200, 1.9 / 200))
    K = mesh.interior_K()
    frac = float(np.mean((K > -1.05) & (K < -0.95)))
    drift = mesh.diagnostics["drift_max"]
    elapsed = time.time() - t0
    ok = (worst_I <= 1e-10 and worst_II <= 1e-10 and frac >= 0.95
          and drift <= 1e-6 and elapsed <= 60.0)
    _report(6, "sine-Gordon end to end", ok,
            f"I err {worst_I:.1e}, II err {worst_II:.1e}, K-band {100*frac:.1f}%, "
            f"drift {drift:.1e}, {elapsed:.1f}s")


def test_criterion_7_convergence_orders():
    """Each declared order holds within +-25% under one refinement halving."""
    details = []
    ok = True

    # (a) numeric jet stencil: 4th order
    errs = {}
    for nx in (256, 512):
        g = Grid1D(0.0, 2 * np.pi, nx)
        u = np.sin(g.nodes())
        f = SolutionField(g, [0.0, 1.0], frames=np.array([u, u]),
                          provenance={"type": "NUMERIC", "space_accuracy": 4, "max_jet_order": 5})
        x = g.nodes()[nx // 3]
        errs[nx] = abs(jet_at(f, x, 0.0, 4)["z2"] + math.sin(x))
    r = errs[256] / errs[512]
    ok &= 16 / 1.25 <= r <= 16 * 1.25
    details.append(f"stencil x{r:.1f}")

    # (b) solve_mol exact kink: 4th-order configuration
    errs = {}
    for nx, dt in ((128, 0.02), (256, 0.01)):
        g = Grid1D(-20.0, 20.0, nx)
        u0 = exact_sine_gordon_kink(1.0, g.nodes(), 0.0)
        f = solve_mol(sine_gordon_preset(), g, u0, 1.0, dt, space=4)
        errs[nx] = float(np.max(np.abs(f.frames[-1] - exact_sine_gordon_kink(1.0, g.nodes(), 1.0))))
    r = errs[128] / errs[256]
    ok &= 16 / 1.25 <= r <= 16 * 1.25
    details.append(f"kink x{r:.1f}")

    # (c) frame path-independence gap: measured 4th order (two RK4 sweeps)
    fam = sine_gordon_preset()
    trip = solve_triple(fam, ImmersionParams(a_sign=1))
    field = kink_field(1.0, Grid1D(-6, 6, 16), t_span=(-6, 6))
    gaps = {}
    for n in (50, 100):
        mesh = integrate_frame(fam, trip, field, origin=(-1.8, -1.8), steps=(n, n), h=1.6 / n)
        gaps[n] = mesh.diagnostics["compat_max"]
    r = gaps[50] / gaps[100]
    ok &= 16 / 1.25 <= r <= 16 * 1.25
    details.append(f"path-gap x{r:.1f}")

    # (d) RK4 back-substitution: 4th order (criterion 4 ratio, reused setup)
    fam = build_family(FamilyParams(branch=Branch.T22, mu2=0.5, eta2=3.0, sign=1),
                       f="s", phi12="z1")
    res = {}
    for h in (1e-3, 5e-4):
        trip = solve_triple(fam, ImmersionParams(beta=0.5, b0=1.2, s0=0.0, h=h, eps=0.3))
        res[h] = float(np.max(np.abs(
            ode_backsubstitution_residuals(trim(trip), bprime=fd6(trip.b, h)))))
    r = res[1e-3] / res[5e-4]
    ok &= 16 / 1.25 <= r <= 16 * 1.25
    details.append(f"backsub x{r:.1f}")

    _report(7, "convergence orders", ok, ", ".join(details))


def test_criterion_8_derivative_engine():
    """Forward-mode partials vs central differences, 1e-6 relative, on 1e4
    (expression, point) pairs drawn from the catalog's expression set."""
    exprs = [
        parse_expression("s", ["s"]),
        parse_expression("s^2 + s", ["s"]),
        parse_expression("z1", ["z0", "z1"]),
        parse_expression("z0*(z1-z0)^2", ["z0", "z1"]),
        parse_expression("exp(z0)", ["z0"]),
        parse_expression("exp(2*z0) - z0", ["z0"]),
        parse_expression("sin(z0)*cos(z1)", ["z0", "z1"]),
        parse_expression("sqrt(1 + z0^2)*arctan(z1)", ["z0", "z1"]),
        parse_expression("z0*z1^2/(2 + cos(z0))", ["z0", "z1"]),
        parse_expression("tan(z0/2) + z1^3", ["z0", "z1"]),
    ]
    rng = np.random.default_rng(7)
    total = 0
    worst = 0.0
    step = 1e-5
    per = 10_000 // len(exprs)
    for e in exprs:
        names = e.variables
        env = {nm: rng.uniform(-1, 1, per) for nm in names}
        _, parts = e.with_partials(env)
        for nm in names:
            hi = dict(env, **{nm: env[nm] + step})
            lo = dict(env, **{nm: env[nm] - step})
            fd = (e(hi) - e(lo)) / (2 * step)
            rel = np.abs(parts[nm] - fd) / np.maximum(1e-3, np.abs(fd))
            worst = max(worst, float(np.max(rel)))
        total += per
    ok = total >= 9990 and worst <= 1e-6
    _report(8, "derivative engine", ok, f"{total} pairs, worst relative gap {worst:.2e}")


def test_criterion_9_determinism(tmp_path):
    out = tmp_path / "report.json"
    argv = ["verify", "--preset", "novikov", "--samples", "500", "--seed", "42",
            "--deterministic", "--report", str(out)]
    assert run(argv) == EXIT_OK
    first = out.read_bytes()
    assert run(argv) == EXIT_OK
    second = out.read_bytes()
    obj = tmp_path / "m.obj"
    argv2 = ["reconstruct", "--preset", "sine-gordon", "--soliton", "--grid", "20x20",
             "--out", str(obj), "--report", str(out), "--deterministic"]
    assert run(argv2) == EXIT_OK
    obj1 = obj.read_bytes()
    rep1 = out.read_bytes()
    assert run(argv2) == EXIT_OK
    ok = first == second and obj.read_bytes() == obj1 and out.read_bytes() == rep1
    _report(9, "determinism", ok)
