"""Family catalog: branch assembly, parameter constraints, presets."""

import copy
import json
import math

import numpy as np
import pytest
import sympy as sp

from pss.catalog import (
    Branch,
    CatalogError,
    ConstraintViolation,
    FamilyParams,
    MissingExpression,
    PRESETS,
    build_family,
    family_from_dict,
    novikov_preset,
    sine_gordon_preset,
    t22_demo_preset,
    validate_params,
)


def jp(z0=0.0, z1=0.0, z2=0.0, z3=0.0):
    """One-jet environment with z0..z3 and w1 = v1 = 0."""
    return {"x": 0.0, "t": 0.0, "z0": z0, "z1": z1, "z2": z2, "z3": z3, "w1": 0.0, "v1": 0.0}


# ----------------------------------------------------------------------
# validate_params


def test_t24_degenerate_parameters_violation():
    p = FamilyParams(branch=Branch.T24, lam=0.0, eta2=5.0, C=0.0)
    v = validate_params(p)
    assert any("(lam*eta2)^2 + C^2 != 0" in s for s in v)


def test_t22_valid_params_empty_list():
    assert validate_params(FamilyParams(branch=Branch.T22, eta2=1.0)) == []


def test_t25ii_tau_positive_violation():
    p = FamilyParams(branch=Branch.T25II, tau=-1.0, m=1.0, eta2=1.0)
    v = validate_params(p)
    assert any("tau > 0" in s for s in v)


def test_t22_eta2_zero_violation():
    v = validate_params(FamilyParams(branch=Branch.T22, eta2=0.0))
    assert any("eta2 != 0" in s for s in v)


def test_t23_inconsistent_eta3_is_a_constraint_error():
    p = FamilyParams(branch=Branch.T23, lam=1.0, eta2=1.0, mu2=0.0, mu3=0.0, eta3=0.5)
    v = validate_params(p)
    assert any("eta2^2 - eta3^2" in s for s in v)
    with pytest.raises(ConstraintViolation):
        build_family(p, f="s")


def test_t23_eta3_solved_with_root_flag():
    for root in (1, -1):
        p = FamilyParams(branch=Branch.T23, lam=1.0, eta2=1.0, mu2=0.3, mu3=0.4, root=root)
        fam = build_family(p, f="s")
        e2, e3, m2, m3 = fam.params.eta2, fam.params.eta3, fam.params.mu2, fam.params.mu3
        quad = e2**2 - e3**2 - (m2 * e3 - m3 * e2) ** 2
        assert abs(quad) < 1e-12
        assert fam.params.gamma != 0
    pp = FamilyParams(branch=Branch.T23, lam=1.0, eta2=1.0, mu2=0.3, mu3=0.4, root=1)
    pm = FamilyParams(branch=Branch.T23, lam=1.0, eta2=1.0, mu2=0.3, mu3=0.4, root=-1)
    assert build_family(pp, f="s").params.eta3 != build_family(pm, f="s").params.eta3


def test_missing_expression():
    with pytest.raises(MissingExpression):
        build_family(FamilyParams(branch=Branch.T22, eta2=1.0), f="s")  # phi12 missing


# ----------------------------------------------------------------------
# build_family / G examples


def test_t22_demo_g_is_z2_plus_z1():
    fam = t22_demo_preset()
    rng = np.random.default_rng(0)
    for _ in range(50):
        z = rng.uniform(-2, 2, 4)
        got = fam.G_fn(jp(*z))
        assert got == pytest.approx(z[2] + z[1], rel=0, abs=1e-14)
    # the spec's point: (z1, z2) = (2, 3) -> 5
    assert fam.G_fn(jp(0.0, 2.0, 3.0)) == pytest.approx(5.0)


def test_sine_gordon_f12_at_pi_over_2():
    fam = sine_gordon_preset(eta=1.0)
    assert fam.fij(1, 2)(jp(math.pi / 2)) == pytest.approx(1.0)
    assert fam.fij(1, 1)(jp(0.3)) == 0.0
    assert fam.fij(2, 1)(jp(0.3)) == 1.0
    assert fam.fij(3, 1)(jp(0.3, 0.7, 0.0)) == 0.7


def test_novikov_g_hand_value():
    fam = novikov_preset()
    # (z0, z1, z2, z3) = (1, 1, 0, 0): G = 1 - 3 - 2 + 0 - 0 = -4
    assert fam.G_fn(jp(1.0, 1.0, 0.0, 0.0)) == pytest.approx(-4.0, abs=1e-14)


def test_g_vanishes_at_zero_jet_when_phi12_does():
    for name in ("novikov", "t22-demo", "t23-demo"):
        fam = PRESETS[name]()
        assert fam.G_fn(jp()) == pytest.approx(0.0, abs=1e-15)


def test_novikov_matches_symbolic_expansion():
    """Re-derivation oracle: expand the T24 right-hand side symbolically with
    lam=1, mu2=0, eta2=1, C=0, f=s, phi12=z0(z1-z0)^2 and compare on 200 jets."""
    z0, z1, z2 = sp.symbols("z0 z1 z2")
    s = sp.Symbol("s")
    phi12 = z0 * (z1 - z0) ** 2
    f = z0 - z2  # f(s) = s
    fprime = 1
    G_sym = (
        z1 * sp.diff(phi12, z0)
        + z2 * sp.diff(phi12, z1)
        - z0**2 * z1 * fprime
        + phi12
        - (2 * z0 * z1 + z0**2 + 0) * f
    ) / fprime
    target = z1**3 - 3 * z0 * z1**2 - 2 * z0**2 * z1 + 4 * z0 * z1 * z2 - z0**2 * z2
    assert sp.simplify(sp.expand(G_sym - target)) == 0

    fam = novikov_preset()
    tgt = sp.lambdify((z0, z1, z2), target)
    rng = np.random.default_rng(123)
    for _ in range(200):
        z = rng.uniform(-2, 2, 4)
        got = fam.G_fn(jp(*z))
        want = tgt(z[0], z[1], z[2])
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_novikov_validates_and_f12_example():
    fam = novikov_preset()
    assert validate_params(fam.params) == []
    # f12 = -lam z0^2 f + phi12 at (z0=1, z1=1, z2=0): f = 1, phi12 = 0 -> -1
    assert fam.fij(1, 2)(jp(1.0, 1.0, 0.0)) == pytest.approx(-1.0)


def test_evaluate_F_is_lam_z0sq_z3_plus_G():
    fam = novikov_preset()
    p = jp(0.7, -0.3, 0.2, 0.9)
    assert fam.F_fn(p) == pytest.approx(0.7**2 * 0.9 + fam.G_fn(p), abs=1e-14)


def test_evaluate_G_rejects_sine_gordon():
    # sine-Gordon is not of the u_t - u_xxt = lam*u^2*u_xxx + G form: no G, no F
    fam = sine_gordon_preset()
    assert fam.G_fn is None and fam.F_fn is None


def test_fprime_zero_is_an_error():
    fam = build_family(FamilyParams(branch=Branch.T22, eta2=1.0), f="s^2", phi12="z1")
    with pytest.raises(CatalogError):
        fam.G_fn(jp(0.5, 1.0, 0.5))  # s = 0 -> f' = 2s = 0


def test_check_nonzero_catches_every_zero_and_passes_nan():
    from pss import dual
    from pss.catalog import FPrimeZero, _check_nonzero
    from references import TowerDual

    zeros = [0.0, -0.0, np.array(0.0), np.array([1.0, 0.0, 2.0]), np.float64(0.0),
             dual.Dual(0.0, (1.0,)), dual.Dual(np.array([3.0, -0.0]), (1.0,)),
             TowerDual(2, TowerDual(1, 0.0, (2.0,)), (1.0,))]
    for value in zeros:
        with pytest.raises(FPrimeZero, match="f' vanishes at an evaluation point"):
            _check_nonzero(value, FPrimeZero, "f'")
    for value in [1.0, -2.5, float("nan"), np.array([1.0, np.nan]), np.array(np.nan),
                  dual.Dual(np.nan, (0.0,)), dual.Dual(1e-300, (0.0,)), 5e-324]:
        _check_nonzero(value, FPrimeZero, "f'")


# ----------------------------------------------------------------------
# Structural invariants of the coefficient functions


@pytest.mark.parametrize("name", sorted(set(PRESETS) - {"sine-gordon"}))
def test_fi1_structure_invariants(name):
    """f_i1 is independent of z1 and a function of z0 - z2 only; the
    combination f_i2 + lam z0^2 f_i1 never depends on z2; f_p1 - mu_p f11
    is the constant eta_p."""
    fam = PRESETS[name]()
    p = fam.params
    rng = np.random.default_rng(99)
    from pss.verifier import sample_envs

    env = sample_envs(fam, 200, rng)
    from pss import dual

    for i in (1, 2, 3):
        lvl, seeded = dual.seed(env, ("z0", "z1", "z2"))
        r = fam.fij(i, 1)(seeded)
        _, grads = dual.value_grad(r, lvl, 3)
        assert np.max(np.abs(grads[1])) < 1e-13  # no z1 dependence
        assert np.max(np.abs(grads[0] + grads[2])) < 1e-12  # function of z0 - z2

    f11 = fam.fij(1, 1)(env)
    assert np.max(np.abs(fam.fij(2, 1)(env) - p.mu2 * f11 - p.eta2)) < 1e-12
    assert np.max(np.abs(fam.fij(3, 1)(env) - p.mu3 * f11 - p.eta3)) < 1e-12

    env_b = dict(env)
    env_b["z2"] = env["z2"] + 0.5
    for i in (1, 2, 3):
        va = fam.fij(i, 2)(env) + p.lam * env["z0"] ** 2 * fam.fij(i, 1)(env)
        vb = fam.fij(i, 2)(env_b) + p.lam * env_b["z0"] ** 2 * fam.fij(i, 1)(env_b)
        assert np.max(np.abs(va - vb)) < 1e-11 * max(1.0, float(np.max(np.abs(va))))


def _seeded_form7_specs(seed=31):
    """One family per form-(7) branch with seeded generic parameters."""
    rng = np.random.default_rng(seed)

    def u(lo, hi):
        return float(rng.uniform(lo, hi))

    def sign():
        return int(rng.choice((-1, 1)))

    f, phi12 = "2*s + s^3", "z1 + sin(z0)"
    return {
        "T22": build_family(FamilyParams(branch=Branch.T22, mu2=u(-1, 1), eta2=u(0.5, 2), sign=sign()),
                            f=f, phi12=phi12),
        "T23": build_family(FamilyParams(branch=Branch.T23, lam=u(0.5, 1.5), mu2=u(-1, 1), eta2=u(0.5, 2),
                                         mu3=u(-0.9, 0.9), root=sign(), sign=sign()), f=f),
        "T24": build_family(FamilyParams(branch=Branch.T24, lam=u(-1.5, -0.5), mu2=u(-1, 1), eta2=u(0.5, 2),
                                         C=u(-1, 1), sign=sign()), f=f, phi12=phi12),
        "T25i": build_family(FamilyParams(branch=Branch.T25I, lam=u(0.5, 1.5), theta=u(-1.5, -0.5), B=u(0.5, 1),
                                          mu2=u(-1, 1), eta2=u(-2, -0.5), m=u(-2, -1), n=u(-0.5, 0.5),
                                          sign=sign())),
        "T25ii": build_family(FamilyParams(branch=Branch.T25II, lam=u(-1.5, -0.5), tau=u(0.5, 1), mu2=u(-1, 1),
                                           eta2=u(0.5, 2), m=u(2, 3), n=u(-0.5, 0.5), root=sign(),
                                           sign=sign()), phi="1 + z0^2"),
    }


@pytest.mark.parametrize("name", sorted(set(PRESETS) - {"sine-gordon"}) + ["T22", "T23", "T24", "T25i", "T25ii"])
def test_form7_fij_follow_the_structural_identities(name):
    """f_p1 = mu_p f11 + eta_p and f_i2 = -lam z0^2 f_i1 + phi_i2 against the
    family's own phi_i2 functions, on sampled jets of every form-(7) preset
    and of one seeded family per branch."""
    fam = PRESETS[name]() if name in PRESETS else _seeded_form7_specs()[name]
    p = fam.params
    from pss.verifier import sample_envs

    env = sample_envs(fam, 300, np.random.default_rng(17))

    def close(got, want):
        return np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 1e-14

    f11 = fam.fij(1, 1)(env)
    assert close(fam.fij(2, 1)(env), p.mu2 * f11 + p.eta2)
    assert close(fam.fij(3, 1)(env), p.mu3 * f11 + p.eta3)
    for i, phi in zip((1, 2, 3), fam.phi_column(env)):
        assert close(fam.fij(i, 2)(env), -p.lam * env["z0"] ** 2 * fam.fij(i, 1)(env) + phi)


@pytest.mark.parametrize("name", sorted(set(PRESETS) - {"sine-gordon"}))
def test_condition_42_bounded_away_from_zero_on_samples(name):
    fam = PRESETS[name]()
    rng = np.random.default_rng(5)
    from pss.verifier import sample_envs

    env = sample_envs(fam, 500, rng)
    p12, p22, _ = fam.phi_column(env)
    w = (fam.params.mu2 * p12 - p22) * fam.fij(1, 1)(env) + fam.params.eta2 * p12
    assert np.min(np.abs(w)) > 1e-9


# ----------------------------------------------------------------------
# T22 through the T24 builder


def _t22_reference(fam):
    """A copy of the T22 family built by the former T22 builder, which wrote
    out T24 at lam = C = 0: phi22 = mu2*phi12, phi32 = sign*k*phi12 and
    G = (phi12_z0*z1 + phi12_z1*z2 + sign*eta2/k*phi12) / f'."""
    from pss.catalog import FPrimeZero, _check_nonzero, _f_and_prime, _k, _phi12_parts

    p = fam.params
    s, k = float(p.sign), _k(p.mu2)
    fx, px = fam.f_expr, fam.phi12_expr
    mu2, eta2 = p.mu2, p.eta2
    ref = copy.copy(fam)

    def phi12(env):
        return px({"z0": env["z0"], "z1": env["z1"]})

    def phi22(env, p12):
        return mu2 * p12

    def phi32(env, p12):
        return s * k * p12

    def G(env):
        fv, fp = _f_and_prime(fx, env["z0"] - env["z2"])
        _check_nonzero(fp, FPrimeZero, "f'")
        pv, p0, p1 = _phi12_parts(px, env["z0"], env["z1"])
        return (p0 * env["z1"] + p1 * env["z2"] + s * eta2 / k * pv) / fp

    ref._form7(ref._f11_of_s(), phi12, phi22, phi32, G)
    return ref


def _same_bits(got, want):
    """Bit-for-bit equality up to the sign of an exact zero: adding 0.0 maps
    -0.0 to 0.0 and keeps every other value.  The T24 formulas add their lam
    and C terms, exact zeros at lam = C = 0, so where the former T22 formula
    gave -0.0 (mu2*phi12 at mu2 = 0, phi12 < 0) they give 0.0."""
    got, want = np.broadcast_arrays(np.asarray(got, dtype=float) + 0.0, np.asarray(want, dtype=float) + 0.0)
    return np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("mu2", [0.0, -0.7])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("f, phi12", [("s", "z1"), ("2*s + s^3", "z0*(z1 - z0)^2 + sin(z1)")])
def test_t22_matches_the_former_t22_builder_bit_for_bit(mu2, sign, f, phi12):
    from pss.jets import dt_env_onshell, dx_env
    from pss.verifier import sample_envs

    fam = build_family(FamilyParams(branch=Branch.T22, mu2=mu2, eta2=1.3, sign=sign), f=f, phi12=phi12)
    ref = _t22_reference(fam)
    env = sample_envs(fam, 4096, np.random.default_rng(29), bounds=(-2.0, 2.0))
    pairs = [(fam.fij(i, j), ref.fij(i, j)) for i in (1, 2, 3) for j in (1, 2)]
    pairs += [(fam.G_fn, ref.G_fn), (fam.F_fn, ref.F_fn), (fam.phi12_fn, ref.phi12_fn)]
    for got, want in pairs:
        assert _same_bits(got(env), want(env)), got.name
    assert all(map(_same_bits, fam.phi_column(env), ref.phi_column(env)))
    zt, zt_ref = fam.zt(env, 2), ref.zt(env, 2)
    assert all(_same_bits(a, b) for a, b in zip(zt, zt_ref))
    for j in (1, 2):
        assert all(map(_same_bits, dx_env(fam.column(j), env)[1], dx_env(ref.column(j), env)[1])), j
        assert all(map(_same_bits, dt_env_onshell(fam.column(j), env, zt)[1],
                       dt_env_onshell(ref.column(j), env, zt_ref)[1])), j


def test_t22_refuses_C_as_it_refuses_lam():
    assert validate_params(FamilyParams(branch=Branch.T22, eta2=1.0, C=0.5)) == ["T22 has no C term (C must be 0)"]
    with pytest.raises(ConstraintViolation, match="T22 has no C term"):
        build_family(FamilyParams(branch=Branch.T22, eta2=1.0, C=-0.5), f="s", phi12="z1")


# ----------------------------------------------------------------------
# Serialization


def test_family_spec_roundtrip(tmp_path):
    fam = novikov_preset()
    doc = fam.to_dict()
    path = tmp_path / "novikov.json"
    path.write_text(json.dumps(doc))
    from pss.catalog import load_family

    fam2 = load_family(path)
    assert fam2.params.branch == Branch.T24
    p = jp(0.4, -0.2, 0.8, 0.1)
    assert fam2.G_fn(p) == pytest.approx(fam.G_fn(p), abs=1e-15)


def test_family_spec_unknown_keys_rejected():
    with pytest.raises(CatalogError):
        family_from_dict({"branch": "T24", "params": {}, "frobnicate": 1})
    with pytest.raises(CatalogError):
        family_from_dict({"branch": "T24", "params": {"lambda": 1.0}})


def test_sign_flip_changes_eta3_sign_t22():
    pp = build_family(FamilyParams(branch=Branch.T22, mu2=0.5, eta2=1.0, sign=1), f="s", phi12="z1")
    pm = build_family(FamilyParams(branch=Branch.T22, mu2=0.5, eta2=1.0, sign=-1), f="s", phi12="z1")
    assert pp.params.mu3 == -pm.params.mu3
    assert pp.params.eta3 == -pm.params.eta3


def test_t25i_m1_and_eta3_are_derived():
    fam = PRESETS["t25i-demo"]()
    p = fam.params
    k = math.sqrt(1 + p.mu2**2)
    assert p.mu3 == pytest.approx(p.sign * k)
    assert p.eta3 == pytest.approx(p.sign * (p.theta + p.m * p.mu2 * p.eta2) / (p.m * k))
    assert p.m1 == pytest.approx(2 * p.n / p.m - 1 / p.theta + (p.eta2**2 - p.eta3**2) / p.theta)


def test_t25ii_mu3_quadratic_and_m2():
    fam = PRESETS["t25ii-demo"]()
    p = fam.params
    assert p.mu3**2 == pytest.approx(1 + p.mu2**2 - (p.tau / p.m) ** 2)
    assert p.eta3 == pytest.approx(p.eta2 * (p.mu2 * p.mu3 - p.sign * p.tau / p.m) / (1 + p.mu2**2))
    X = p.eta2 * (p.mu3 + p.sign * p.tau * p.mu2 / p.m) / (1 + p.mu2**2)
    assert p.m2 == pytest.approx(p.n / p.m - p.sign * X / p.tau)


def test_t25ii_requires_real_mu3():
    p = FamilyParams(branch=Branch.T25II, lam=1.0, tau=3.0, m=1.0, eta2=1.0)
    v = validate_params(p)
    assert any("no real root" in s for s in v)


def test_onshell_dt_of_higher_jet_against_symbolic_flux():
    """D_t of Novikov's column 1 on-shell reads z_{2,t} = w1 - F; cross-check
    the seeded D_t and the compiled flux against a fully symbolic expansion."""
    import sympy as sp
    from pss.jets import dt_env_onshell

    fam = novikov_preset()
    p = fam.params
    zs = sp.symbols("z0 z1 z2 z3")
    w1 = sp.Symbol("w1")
    G = zs[1] ** 3 - 3 * zs[0] * zs[1] ** 2 - 2 * zs[0] ** 2 * zs[1] \
        + 4 * zs[0] * zs[1] * zs[2] - zs[0] ** 2 * zs[2]
    F = zs[0] ** 2 * zs[3] + G
    f11 = zs[0] - zs[2]  # f = s
    column = (f11, p.mu2 * f11 + p.eta2, p.mu3 * f11 + p.eta3)
    rates = {zs[0]: w1, zs[2]: w1 - F}  # column 1 reads z0 and z2 only
    dts = sp.lambdify((*zs, w1), [sum(sp.diff(c, z) * r for z, r in rates.items()) for c in column])

    rng = np.random.default_rng(21)
    for _ in range(50):
        z = rng.uniform(-1, 1, 4)
        w, v1 = rng.uniform(-1, 1, 2)
        env = {"x": 0.0, "t": 0.0, **{f"z{i}": zi for i, zi in enumerate(z)}, "w1": w, "v1": v1}
        got = dt_env_onshell(fam.column(1), env, fam.zt(env, 2))[1]
        for g, want in zip(got, dts(*z, w)):
            assert abs(g - want) <= 1e-12 * max(1.0, abs(want))


# ----------------------------------------------------------------------
# The coframe by columns against the former per-entry closures


def _strict_bits(got, want):
    """Bit-for-bit equality, the sign of zero included."""
    got, want = np.broadcast_arrays(np.asarray(got, dtype=float), np.asarray(want, dtype=float))
    return np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("name", sorted(PRESETS) + ["T22", "T23", "T24", "T25i", "T25ii"])
def test_columns_match_the_per_entry_closures_bit_for_bit(name):
    """Values (plain and as the seedings' primals), D_x of column 2 and
    on-shell D_t of column 1 equal, bit for bit and with the sign of every
    zero, the six former per-entry closures differentiated one entry at a time with
    the former x and t seeds, on every preset and one seeded family per
    form-(7) branch."""
    from pss.jets import dt_env_onshell, dx_env
    from pss.verifier import sample_envs
    from references import per_entry_dt_env_onshell, per_entry_dx_env, per_entry_family

    fam = PRESETS[name]() if name in PRESETS else _seeded_form7_specs()[name]
    ref = per_entry_family(fam)
    assert ref.params == fam.params
    env = sample_envs(fam, 2000, np.random.default_rng(37))
    zt, zt_ref = fam.zt(env, 2), ref.zt(env, 2)
    assert all(_strict_bits(a, b) for a, b in zip(zt, zt_ref))
    for j in (1, 2):
        got = fam.column(j)(env)
        assert len(got) == 3
        for i in (1, 2, 3):
            assert _strict_bits(got[i - 1], ref.fij(i, j)(env)), (i, j)
            assert _strict_bits(fam.fij(i, j)(env), ref.fij(i, j)(env)), (i, j)
    v2, dxs = dx_env(fam.column(2), env)
    v1, dts = dt_env_onshell(fam.column(1), env, zt)
    for i in (1, 2, 3):
        assert _strict_bits(dxs[i - 1], per_entry_dx_env(ref.fij(i, 2), env)), i
        assert _strict_bits(dts[i - 1], per_entry_dt_env_onshell(ref.fij(i, 1), env, zt_ref)), i
        # the seedings' primals are the plain values
        assert _strict_bits(v2[i - 1], ref.fij(i, 2)(env)) and _strict_bits(v1[i - 1], ref.fij(i, 1)(env)), i
    if fam.is_form7:
        want = (ref.phi12_fn(env), ref.phi22_fn(env), ref.phi32_fn(env))
        assert all(map(_same_bits, fam.phi_column(env), want))
        assert _strict_bits(fam.G_fn(env), ref.G_fn(env))


def test_a_column_evaluates_f_and_phi12_once(monkeypatch):
    """One column(2) call runs the value programs of f and phi12 once each;
    structure_residuals_env seeds each column once and runs the value
    programs only inside those seedings: f once per column, phi12 once, each
    on seeded duals (the plain column values are the seedings' primals)."""
    from pss import dual
    from pss.verifier import sample_envs, structure_residuals_env

    fam = build_family(FamilyParams(branch=Branch.T24, lam=1.0, mu2=0.3, eta2=1.0, C=0.2),
                       f="s", phi12="z0*(z1 - z0)^2 + z1")
    env = sample_envs(fam, 100, np.random.default_rng(3))
    calls = {"f": 0, "phi12": 0, "seed": 0}
    seeded = []

    def counting(key, fn):
        def wrapped(*args):
            calls[key] += 1
            if key != "seed":
                seeded.append(any(isinstance(v, dual.Dual) for v in args[0].values()))
            return fn(*args)
        return wrapped

    monkeypatch.setattr(fam.f_expr, "_fn", counting("f", fam.f_expr._fn))
    monkeypatch.setattr(fam.phi12_expr, "_fn", counting("phi12", fam.phi12_expr._fn))
    monkeypatch.setattr(dual, "seed", counting("seed", dual.seed))
    fam.column(2)(env)
    assert calls == {"f": 1, "phi12": 1, "seed": 0}
    calls.update(f=0, phi12=0)
    seeded.clear()
    structure_residuals_env(fam, env)
    assert calls == {"f": 2, "phi12": 1, "seed": 2}
    assert seeded == [True] * 3


@pytest.mark.parametrize("name", sorted(PRESETS) + ["T22", "T23", "T24", "T25i", "T25ii"])
def test_zt_equals_the_former_prolongation_bit_for_bit(name):
    """The closed-form z_{k,t}, k <= 2, equal the former general prolongation
    at order 2, bit for bit and with the sign of every zero, on every preset
    and one seeded family per form-(7) branch; the orders below 2 are its
    prefixes, and no order above 2 is given."""
    from pss.jets import JetError
    from pss.verifier import sample_envs
    from references import former_zt

    fam = PRESETS[name]() if name in PRESETS else _seeded_form7_specs()[name]
    env = sample_envs(fam, 2000, np.random.default_rng(41))
    zt, want = fam.zt(env, 2), former_zt(fam, env)
    assert len(zt) == 3 and all(_strict_bits(a, b) for a, b in zip(zt, want))
    for upto in (0, 1):
        got = fam.zt(env, upto)
        assert len(got) == upto + 1 and all(map(_strict_bits, got, zt))
    with pytest.raises(JetError, match="k = 0..2"):
        fam.zt(env, 3)
