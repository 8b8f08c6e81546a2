"""Family catalog: branch assembly, parameter constraints, presets."""

import copy
import json
import math
import re
from pathlib import Path

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


def _refused_in_one_line(p, line, **exprs):
    for call in (lambda: validate_params(p), lambda: build_family(p, **exprs)):
        with pytest.raises(CatalogError) as err:
            call()
        assert type(err.value) is CatalogError and str(err.value) == line


def test_a_nan_param_from_python_is_refused_as_in_a_spec():
    """FamilyParams built in Python takes the check a spec's params take: a
    NaN lam fails no constraint comparison, so it would otherwise build."""
    _refused_in_one_line(FamilyParams(branch=Branch.T24, lam=math.nan, eta2=1.0),
                         "family spec: lam must be a finite number, got NaN", f="s", phi12="z1")


def test_a_none_mu3_from_python_is_refused_not_thrown():
    """A spec's null T23 mu3 is its default 0.0; a None set in Python is
    refused in one line, not a TypeError from the arithmetic of _resolve."""
    _refused_in_one_line(FamilyParams(branch=Branch.T23, lam=1, eta2=1, mu3=None),
                         "family spec: mu3 must be a number, got null", f="s")


def test_t23_gamma_that_rounds_to_zero_is_a_constraint_error():
    """eta3 is a real root here (mu3^2 < 1 + mu2^2 in floats), but gamma =
    mu2*mu3*eta2 - (1+mu2^2)*eta3 rounds to 0, which G divides by."""
    p = FamilyParams(branch=Branch.T23, lam=1.0, mu2=1e10, eta2=1.0, mu3=9999999999.999998)
    assert 1.0 + p.mu2**2 - p.mu3**2 > 0
    gamma_zero = "gamma = mu2*mu3*eta2 - (1+mu2^2)*eta3 != 0 violated (gamma = 0)"
    assert validate_params(p) == [gamma_zero]
    with pytest.raises(ConstraintViolation, match=re.escape(gamma_zero)):
        build_family(p, f="s")


def test_t23_eta3_solved_with_root_flag():
    for root in (1, -1):
        p = FamilyParams(branch=Branch.T23, lam=1.0, eta2=1.0, mu2=0.3, mu3=0.4, root=root)
        fam = build_family(p, f="s")
        e2, e3, m2, m3 = fam.params.eta2, fam.constants["eta3"], fam.params.mu2, fam.params.mu3
        quad = e2**2 - e3**2 - (m2 * e3 - m3 * e2) ** 2
        assert abs(quad) < 1e-12
        assert fam.constants["gamma"] != 0
    pp = FamilyParams(branch=Branch.T23, lam=1.0, eta2=1.0, mu2=0.3, mu3=0.4, root=1)
    pm = FamilyParams(branch=Branch.T23, lam=1.0, eta2=1.0, mu2=0.3, mu3=0.4, root=-1)
    assert build_family(pp, f="s").constants["eta3"] != build_family(pm, f="s").constants["eta3"]


def test_a_param_its_branch_does_not_read_must_keep_its_default():
    """FamilyParams refuses, as a spec does, a param outside its branch's
    row of `_BRANCHES`: set away from its default it is one violation naming
    it, set to its default it is accepted.  So a T24 mu3 is no longer read
    as the resolved one."""
    bases = {
        Branch.T22: dict(eta2=1.0),
        Branch.T23: dict(lam=1.0, eta2=1.0),
        Branch.T24: dict(lam=1.0, eta2=1.0),
        Branch.T25I: dict(lam=1.0, theta=1.0, B=1.0, eta2=1.0, m=1.0),
        Branch.T25II: dict(lam=1.0, tau=1.0, eta2=1.0, m=2.0),
        Branch.SINE_GORDON: dict(),
    }
    table = [  # (branch, key, a value it refuses, the default it accepts)
        (Branch.T22, "tau", 1.0, 0.0),
        (Branch.T23, "theta", 2.0, 0.0),
        (Branch.T24, "mu3", 7.0, 0.0),
        (Branch.T25I, "root", -1, 1),
        (Branch.T25II, "C", 0.5, 0.0),
        (Branch.SINE_GORDON, "lam", 1.0, 0.0),
    ]
    assert {row[0] for row in table} == set(bases)
    for branch, key, bad, default in table:
        assert validate_params(FamilyParams(branch=branch, **bases[branch], **{key: default})) == [], branch
        want = f"{branch} reads no {key} ({key} must be {default}, got {bad})"
        assert validate_params(FamilyParams(branch=branch, **bases[branch], **{key: bad})) == [want]
    with pytest.raises(ConstraintViolation) as err:
        build_family(FamilyParams(branch=Branch.T24, lam=1, eta2=1, root=-1, theta=2.0), f="s", phi12="z1")
    assert err.value.violations == ["T24 reads no theta (theta must be 0.0, got 2.0)",
                                    "T24 reads no root (root must be 1, got -1)"]


def test_family_params_holds_the_branch_inputs_only():
    """Each FamilyParams field but branch and sign is an input of some
    branch; the constants a branch derives are no fields, so a caller
    cannot set what the family would not read."""
    from dataclasses import fields

    from pss.catalog import _BRANCHES

    inputs = {key for row in _BRANCHES.values() for key in row[0]}
    assert {f.name for f in fields(FamilyParams)} - {"branch", "sign"} == inputs
    for key in ("eta3", "gamma", "m1", "m2"):
        with pytest.raises(TypeError, match=key):
            FamilyParams(branch=Branch.T23, lam=1.0, eta2=1.0, **{key: 0.5})


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
    p, c = fam.params, fam.constants
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
    assert np.max(np.abs(fam.fij(3, 1)(env) - c["mu3"] * f11 - c["eta3"])) < 1e-12

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
    p, c = fam.params, fam.constants
    from pss.verifier import sample_envs

    env = sample_envs(fam, 300, np.random.default_rng(17))

    def close(got, want):
        return np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 1e-14

    f11 = fam.fij(1, 1)(env)
    assert close(fam.fij(2, 1)(env), p.mu2 * f11 + p.eta2)
    assert close(fam.fij(3, 1)(env), c["mu3"] * f11 + c["eta3"])
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
    pairs = {f"f{i}{j}": (fam.fij(i, j), ref.fij(i, j)) for i in (1, 2, 3) for j in (1, 2)}
    pairs.update(G=(fam.G_fn, ref.G_fn), F=(fam.F_fn, ref.F_fn), phi12=(fam.phi12_fn, ref.phi12_fn))
    for name, (got, want) in pairs.items():
        assert _same_bits(got(env), want(env)), name
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
    """Every preset's spec reads back as the same params and writes the same
    spec.  The spec holds only its branch's inputs, and the family read back
    derives the same constants, bit for bit."""
    from pss.catalog import load_family

    derived = {"novikov": {"mu3", "eta3"}, "sine-gordon": set(), "t22-demo": {"mu3", "eta3"},
               "t23-demo": {"eta3", "gamma"}, "t25i-demo": {"mu3", "eta3", "m1"}, "t25ii-demo": {"mu3", "eta3", "m2"}}
    for name in sorted(PRESETS):
        fam = PRESETS[name]()
        doc = fam.to_dict()
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        fam2 = load_family(path)
        assert fam2.params == fam.params and fam2.to_dict() == doc, name
        assert set(fam.derived()) == derived[name], name
        bits = [{k: float.hex(v) for k, v in f.derived().items()} for f in (fam, fam2)]
        assert bits[0] == bits[1], name
    p = jp(0.4, -0.2, 0.8, 0.1)
    novikov = load_family(tmp_path / "novikov.json")
    assert novikov.params.branch == Branch.T24
    assert novikov.G_fn(p) == pytest.approx(novikov_preset().G_fn(p), abs=1e-15)


def test_family_spec_unknown_keys_rejected():
    with pytest.raises(CatalogError):
        family_from_dict({"branch": "T24", "params": {}, "frobnicate": 1})
    with pytest.raises(CatalogError):
        family_from_dict({"branch": "T24", "params": {"lambda": 1.0}})


def test_each_branch_takes_exactly_the_spec_values_it_reads():
    """Each row of the branch table is exact.  A spec param or expression
    outside a branch's row is refused (T23's eta3 among them: root picks it),
    and changing any one in it changes a column or G on a fixed jet.  So does
    flipping the top-level sign of a branch that reads it; T23 and
    SINE_GORDON read none and refuse a sign of -1."""
    from dataclasses import fields

    from pss.catalog import _BRANCHES, params_from_dict

    specs = {
        "T22": {"params": {"mu2": 0.3, "eta2": 1.0}, "f": "s", "phi12": "z1"},
        "T23": {"params": {"lam": 1.0, "mu2": 0.0, "eta2": 1.0}, "f": "s"},
        "T24": {"params": {"lam": 1.0, "mu2": 0.3, "eta2": 1.0}, "f": "s", "phi12": "z1"},
        "T25i": {"params": {"lam": 1.0, "theta": 1.0, "B": 1.0, "mu2": 0.3, "eta2": 1.0, "m": 1.0, "n": 0.2}},
        "T25ii": {"params": {"lam": 1.0, "tau": 1.0, "mu2": 0.3, "eta2": 1.0, "m": 2.0, "n": 0.2},
                  "phi": "exp(z0)"},
        "SINE_GORDON": {"params": {}},
    }
    changed = {"root": -1, "f": "s^3", "phi12": "z1 + z0", "phi": "exp(2*z0)"}
    env = {"x": 0.0, "t": 0.0, "z0": 0.4, "z1": -0.3, "z2": 0.7, "z3": 0.2, "w1": 0.1, "v1": 0.2}

    def values(doc):
        fam = family_from_dict(doc)
        return fam.column(1)(env), fam.column(2)(env), fam.G_fn and fam.G_fn(env)

    assert set(specs) == set(_BRANCHES)
    for branch, (inputs, exprs, _) in _BRANCHES.items():
        base = {"branch": branch, **specs[branch]}
        for key in {f.name for f in fields(FamilyParams)} - set(inputs):
            with pytest.raises(CatalogError, match=f"branch {branch} takes the params"):
                params_from_dict({**base, "params": {key: 1}})
        for key in {"f", "phi12", "phi"} - set(exprs):
            with pytest.raises(CatalogError, match=f"branch {branch} takes no expression '{key}'"):
                family_from_dict({**base, key: changed[key]})
        want = values(base)
        for key in inputs:
            params = {**base["params"], key: changed.get(key, base["params"].get(key, 0.0) + 0.5)}
            assert values({**base, "params": params}) != want, (branch, key)
        for key in exprs:
            assert values({**base, key: changed[key]}) != want, (branch, key)
        if branch in ("T23", "SINE_GORDON"):
            with pytest.raises(ConstraintViolation, match=f"{branch} reads no sign"):
                family_from_dict({**base, "sign": -1})
        else:
            assert values({**base, "sign": -1}) != want, branch


def _readme_branch_table(text):
    """{branch: (params, expressions)} from the rows of README's branch table."""
    rows = re.findall(r"^\| `(\w+)` \| ([^|]*) \| ([^|]*) \|$", text, flags=re.M)
    return {branch: tuple(tuple(w for w in cell.strip(" `").split() if w != "none") for cell in cells)
            for branch, *cells in rows}


def test_readme_branch_table_matches_the_catalog():
    """Each row of README's branch table names its branch's params and
    expressions as catalog._BRANCHES does, in order; a stale row fails."""
    from pss.catalog import _BRANCHES

    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    want = {branch: (inputs, exprs) for branch, (inputs, exprs, _) in _BRANCHES.items()}
    assert _readme_branch_table(text) == want
    stale = text.replace("| `T23` | `lam mu2 eta2 mu3 root` |", "| `T23` | `lam mu2 eta2 mu3 eta3 root` |")
    assert stale != text and _readme_branch_table(stale) != want


def test_sign_flip_changes_eta3_sign_t22():
    pp = build_family(FamilyParams(branch=Branch.T22, mu2=0.5, eta2=1.0, sign=1), f="s", phi12="z1")
    pm = build_family(FamilyParams(branch=Branch.T22, mu2=0.5, eta2=1.0, sign=-1), f="s", phi12="z1")
    assert pp.constants["mu3"] == -pm.constants["mu3"]
    assert pp.constants["eta3"] == -pm.constants["eta3"]


def test_t25i_m1_and_eta3_are_derived():
    fam = PRESETS["t25i-demo"]()
    p, c = fam.params, fam.constants
    k = math.sqrt(1 + p.mu2**2)
    assert c["mu3"] == pytest.approx(p.sign * k)
    assert c["eta3"] == pytest.approx(p.sign * (p.theta + p.m * p.mu2 * p.eta2) / (p.m * k))
    assert c["m1"] == pytest.approx(2 * p.n / p.m - 1 / p.theta + (p.eta2**2 - c["eta3"] ** 2) / p.theta)


def test_t25ii_mu3_quadratic_and_m2():
    fam = PRESETS["t25ii-demo"]()
    p, c = fam.params, fam.constants
    assert c["mu3"] ** 2 == pytest.approx(1 + p.mu2**2 - (p.tau / p.m) ** 2)
    assert c["eta3"] == pytest.approx(p.eta2 * (p.mu2 * c["mu3"] - p.sign * p.tau / p.m) / (1 + p.mu2**2))
    X = p.eta2 * (c["mu3"] + p.sign * p.tau * p.mu2 / p.m) / (1 + p.mu2**2)
    assert c["m2"] == pytest.approx(p.n / p.m - p.sign * X / p.tau)


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
    column = (f11, p.mu2 * f11 + p.eta2, fam.constants["mu3"] * f11 + fam.constants["eta3"])
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
