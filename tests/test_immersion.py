"""Universal triples: closed forms, strips, the b-ODE march, non-existence."""

import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from pss import immersion
from pss.catalog import Branch, FamilyParams, PRESETS, build_family, novikov_preset, sine_gordon_preset, t22_demo_preset
from pss.immersion import (
    DenominatorCollapse,
    DiscriminantCollapse,
    ImmersionParams,
    ImmersionTriple,
    InvalidStrip,
    MAX_ODE_STEPS,
    NoImmersion,
    Representation,
    TripleDomainError,
    codazzi_residuals,
    gauss_residual,
    integrate_b_ode,
    solve_triple,
    write_csv,
)
from pss.verifier import sample_envs
from references import FreshStageMarch, fd6, ode_backsubstitution_residuals, row_by_row_csv, table_slope, trim


def _jets(fam, n, seed=0):
    return sample_envs(fam, n, np.random.default_rng(seed))


# ----------------------------------------------------------------------
# gauss_residual


def test_gauss_residual_values():
    assert gauss_residual(0.0, 1.0, 0.0) == 0.0
    assert gauss_residual(1.0, -1.0, 0.0) == 0.0
    assert gauss_residual(2.0, 1.0, 1.0) == 2.0


# ----------------------------------------------------------------------
# Prop 4.1(i) closed form


def test_strip_endpoints_golden_ratio_like():
    fam = t22_demo_preset()
    ip = ImmersionParams(beta=1.0, C_strip=3.0)
    lo, hi = solve_triple(fam, ip).validity
    assert math.exp(2 * lo) == pytest.approx((3 - math.sqrt(5)) / 2, abs=1e-12)
    assert math.exp(2 * hi) == pytest.approx((3 + math.sqrt(5)) / 2, abs=1e-12)


def test_strip_requires_strict_inequality():
    fam = t22_demo_preset()
    with pytest.raises(InvalidStrip):
        solve_triple(fam, ImmersionParams(beta=1.0, C_strip=1.0))
    with pytest.raises(InvalidStrip):
        solve_triple(fam, ImmersionParams(beta=0.0, C_strip=-2.0))
    with pytest.raises(InvalidStrip):
        solve_triple(fam, ImmersionParams(beta=1.0, C_strip=None))


def test_strip_one_sided_for_beta_zero():
    fam = t22_demo_preset()
    lo, hi = solve_triple(fam, ImmersionParams(beta=0.0, C_strip=2.0)).validity
    assert lo == pytest.approx(-0.5 * math.log(2.0), abs=1e-14)
    assert hi == math.inf


def test_prop41i_hand_values_at_origin():
    fam = t22_demo_preset()
    ip = ImmersionParams(beta=1.0, C_strip=3.0, a_sign=1)
    a, b, c = solve_triple(fam, ip).abc(0.0)
    assert (a, b, c) == (pytest.approx(1.0), pytest.approx(-1.0), pytest.approx(0.0))
    trip = solve_triple(fam, ip)
    a, b, c, ap, bp, cp = trip.abc_derivs(0.0)
    assert ap == pytest.approx(1.0)  # L'(0)/2 sqrt(L) = (6-4)/2
    # Codazzi reductions: -a' + eta2 (a - c) = 0 and -b' + 2 eta2 b = 0
    assert -ap + 1.0 * (a - c) == pytest.approx(0.0, abs=1e-14)
    assert -bp + 2.0 * b == pytest.approx(0.0, abs=1e-14)


def test_prop41i_gauss_on_strip():
    fam = t22_demo_preset()
    trip = solve_triple(fam, ImmersionParams(beta=1.0, C_strip=3.0))
    s = trip.strip_samples(1000)
    assert np.max(np.abs(trip.gauss_residual_at(s))) <= 1e-12


def test_prop41i_codazzi_sampled():
    fam = t22_demo_preset()
    trip = solve_triple(fam, ImmersionParams(beta=1.0, C_strip=3.0))
    p = _jets(fam, 500)
    xs = trip.strip_samples(500)
    e1, e2 = codazzi_residuals(fam, trip, p, xs, np.zeros(500))
    assert np.max(np.abs(e1)) <= 1e-9 and np.max(np.abs(e2)) <= 1e-9


def test_sign_coherence_mirrors_strip():
    """Flipping the family sign maps the Prop 4.1(i) data to x -> -x."""
    base = FamilyParams(branch=Branch.T22, mu2=0.0, eta2=1.0, sign=1)
    famp = build_family(base, f="s", phi12="z1")
    famm = build_family(FamilyParams(branch=Branch.T22, mu2=0.0, eta2=1.0, sign=-1), f="s", phi12="z1")
    ip = ImmersionParams(beta=0.7, C_strip=3.0)
    tp, tm = solve_triple(famp, ip), solve_triple(famm, ip)
    lo_p, hi_p = tp.validity
    lo_m, hi_m = tm.validity
    assert lo_m == pytest.approx(-hi_p) and hi_m == pytest.approx(-lo_p)
    s = tp.strip_samples(64)
    ap, bp_, cp = tp.abc(s)
    am, bm, cm = tm.abc(-s)
    assert np.allclose(ap, am) and np.allclose(bp_, bm) and np.allclose(cp, cm)


def test_outside_strip_is_an_error():
    fam = t22_demo_preset()
    trip = solve_triple(fam, ImmersionParams(beta=1.0, C_strip=3.0))
    with pytest.raises(TripleDomainError):
        trip.abc(trip.validity[1] + 0.5)


def test_ac_nonzero_at_sampled_interior_points():
    """a*c != 0 at seeded random interior points (zeros of c are isolated,
    e.g. c(0) = 0 for the C_strip = 3, beta = 1 data, so exact sampling of
    a zero almost surely never happens)."""
    rng = np.random.default_rng(17)
    fam = t22_demo_preset()
    for ip in (ImmersionParams(beta=1.0, C_strip=3.0),
               ImmersionParams(beta=0.25, C_strip=2.0),
               ImmersionParams(beta=0.0, C_strip=2.0)):
        trip = solve_triple(fam, ip)
        lo, hi = trip.validity
        if not np.isfinite(hi):
            hi = lo + 3.0
        s = rng.uniform(lo + 1e-6 * (hi - lo), hi - 1e-6 * (hi - lo), 500)
        a, b, c = trip.abc(s)
        assert np.all(a * c != 0.0)


# ----------------------------------------------------------------------
# Prop 4.3 closed forms


def _t24_t_only():
    p = FamilyParams(branch=Branch.T24, lam=0.0, mu2=0.0, eta2=0.0, C=1.5, sign=1)
    return build_family(p, f="s", phi12="z1 + 1", name="t24-tonly")


def test_prop43i_triple_in_t():
    fam = _t24_t_only()
    ip = ImmersionParams(beta=0.0, sigma=2.0)
    trip = solve_triple(fam, ip)
    assert trip.branch_label == "Prop4.3(i)" and trip.svar == "t"
    assert (trip.sx, trip.st) == (0.0, 1.0)
    # beta = 0 collapses: b = 0, a = sqrt(sigma e^{2Ct} - 1), c = a - a'/C
    t = trip.strip_samples(100)
    a, b, c, ap, _, _ = trip.abc_derivs(t)
    assert np.allclose(b, 0.0)
    assert np.allclose(a, np.sqrt(2.0 * np.exp(2 * 1.5 * t) - 1.0))
    assert np.allclose(c, a - ap / 1.5)
    assert np.max(np.abs(gauss_residual(a, b, c))) < 1e-12


def test_prop43i_codazzi():
    fam = _t24_t_only()
    trip = solve_triple(fam, ImmersionParams(beta=0.4, sigma=3.0))
    p = _jets(fam, 300)
    ts = trip.strip_samples(300)
    e1, e2 = codazzi_residuals(fam, trip, p, np.zeros(300), ts)
    assert np.max(np.abs(e1)) <= 1e-9 and np.max(np.abs(e2)) <= 1e-9


def test_novikov_triple_runs_in_eta2x_plus_Ct():
    fam = novikov_preset()
    trip = solve_triple(fam, ImmersionParams(beta=0.5, sigma=3.0))
    assert trip.branch_label == "Prop4.3(ii)"
    assert trip.svar == "xi" and trip.sx == 1.0 and trip.st == 0.0  # eta2 = 1, C = 0
    s = trip.strip_samples(1000)
    assert np.max(np.abs(trip.gauss_residual_at(s))) <= 1e-12
    p = _jets(fam, 500)
    xs = trip.strip_samples(500)
    e1, e2 = codazzi_residuals(fam, trip, p, xs, np.zeros(500))
    assert np.max(np.abs(e1)) <= 1e-8 and np.max(np.abs(e2)) <= 1e-8


def test_prop43ii_with_drift():
    p = FamilyParams(branch=Branch.T24, lam=0.5, mu2=0.0, eta2=2.0, C=0.7, sign=1)
    fam = build_family(p, f="s", phi12="z1", name="t24-drift")
    trip = solve_triple(fam, ImmersionParams(beta=0.3, sigma=2.5))
    assert (trip.sx, trip.st) == (2.0, 0.7)
    pj = _jets(fam, 200)
    s = trip.strip_samples(200)
    # split s between x and t so that s = eta2 x + C t
    x = 0.25 * s / trip.sx
    t = 0.75 * s / trip.st
    e1, e2 = codazzi_residuals(fam, trip, pj, x, t)
    assert np.max(np.abs(e1)) <= 1e-8 and np.max(np.abs(e2)) <= 1e-8


# ----------------------------------------------------------------------
# ODE branches


def _t22_ode_family(mu2=0.5, eta2=3.0):
    p = FamilyParams(branch=Branch.T22, mu2=mu2, eta2=eta2, sign=1)
    return build_family(p, f="s", phi12="z1", name="t22-ode")


def test_ode_march_gauss_by_construction():
    fam = _t22_ode_family()
    ip = ImmersionParams(beta=0.5, b0=1.2, s0=0.0, h=1e-3, eps=0.3)
    trip = solve_triple(fam, ip)
    assert trip.representation == Representation.ODE_TABLE
    a, b, c = trip.abc(trip.s)
    assert np.max(np.abs(gauss_residual(a, b, c))) <= 1e-10


def test_ode_backsubstitution_and_richardson():
    fam = _t22_ode_family()
    res = {}
    for h in (1e-3, 5e-4):
        ip = ImmersionParams(beta=0.5, b0=1.2, s0=0.0, h=h, eps=0.3)
        trip = solve_triple(fam, ip)
        fd = fd6(trip.b, h)
        r = ode_backsubstitution_residuals(trim(trip), bprime=fd)
        res[h] = float(np.max(np.abs(r)))
    assert res[1e-3] <= 1e-6
    ratio = res[1e-3] / res[5e-4]
    assert 16 / 1.25 <= ratio <= 16 * 1.25


def test_ode_codazzi_cross_check():
    fam = _t22_ode_family()
    trip = solve_triple(fam, ImmersionParams(beta=0.5, b0=1.2, s0=0.0, h=1e-3, eps=0.3))
    p = _jets(fam, 300)
    lo, hi = trip.validity
    s = np.linspace(lo + 1e-3, hi - 1e-3, 300)
    e1, e2 = codazzi_residuals(fam, trip, p, s, np.zeros(300))
    assert np.max(np.abs(e1)) <= 1e-7 and np.max(np.abs(e2)) <= 1e-7


def test_t24_ode_branch_codazzi():
    p = FamilyParams(branch=Branch.T24, lam=1.0, mu2=0.8, eta2=1.0, C=0.5, sign=1)
    fam = build_family(p, f="s", phi12="z1", name="t24-ode")
    trip = solve_triple(fam, ImmersionParams(beta=0.2, b0=1.3, s0=0.0, h=1e-3, eps=0.3))
    assert trip.branch_label == "Prop4.3(iii)" and trip.svar == "xi"
    a, b, c = trip.abc(trip.s)
    assert np.max(np.abs(gauss_residual(a, b, c))) <= 1e-10
    pj = _jets(fam, 200)
    lo, hi = trip.validity
    s = np.linspace(lo + 1e-3, hi - 1e-3, 200)
    e1, e2 = codazzi_residuals(fam, trip, pj, s / 2 / trip.sx, s / 2 / trip.st)
    assert np.max(np.abs(e1)) <= 1e-7 and np.max(np.abs(e2)) <= 1e-7


def test_ode_independent_root_still_satisfies_geometry():
    """a_sign opposite to the family sign marches fine; Gauss and Codazzi hold."""
    fam = _t22_ode_family()
    trip = solve_triple(fam, ImmersionParams(beta=0.5, b0=1.2, s0=0.0, h=1e-3, eps=0.2, a_sign=-1))
    a, b, c = trip.abc(trip.s)
    assert np.max(np.abs(gauss_residual(a, b, c))) <= 1e-10
    p = _jets(fam, 200)
    lo, hi = trip.validity
    s = np.linspace(lo + 1e-3, hi - 1e-3, 200)
    e1, e2 = codazzi_residuals(fam, trip, p, s, np.zeros(200))
    assert np.max(np.abs(e1)) <= 1e-7 and np.max(np.abs(e2)) <= 1e-7


def test_ode_discriminant_collapse_at_start():
    fam = _t22_ode_family()
    with pytest.raises(DiscriminantCollapse):
        integrate_b_ode(fam, ImmersionParams(beta=0.5, b0=0.0, s0=0.0, h=1e-3, eps=0.2))


@pytest.mark.parametrize("target, refused", [(5e-9, True), (2e-8, False)], ids=["past", "inside"])
def test_ode_start_with_delta_at_most_delta_min_is_refused(target, refused):
    # beta puts delta(0, b0) = phi^2 - 4 (1 - b0^2) at `target`, either side
    # of DELTA_MIN = 1e-8; from the delta = 5e-9 start the march would run
    # 200 steps forward
    b0, mu2 = 0.5, 0.5
    beta = (mu2**2 - 1.0) * b0 + mu2 * math.sqrt(target + 4.0 * (1.0 - b0 * b0))
    phi = ((mu2**2 - 1.0) * b0 - beta) / mu2
    delta0 = phi * phi - 4.0 * (1.0 - b0 * b0)
    assert 0.9 * target < delta0 < 1.1 * target
    ip = ImmersionParams(beta=beta, b0=b0, s0=0.0, h=1e-3, eps=0.2)
    if refused:
        with pytest.raises(DiscriminantCollapse) as err:
            integrate_b_ode(_t22_ode_family(), ip)
        assert err.value.s == 0.0
    else:
        trip = integrate_b_ode(_t22_ode_family(), ip)
        assert len(trip.s) == 201 and trip.stops == {"backward": {"reason": "discriminant", "s": -0.0005}}


def test_collapse_messages_name_the_first_offending_s():
    trip = solve_triple(_t22_ode_family(), ImmersionParams(beta=0.5, b0=1.2, s0=0.0, h=1e-3, eps=0.3))
    s = np.linspace(-0.1, 0.1, 603)
    b = np.where(np.arange(603) >= 100, 0.0, 1.2)  # delta < 0 where b = 0
    with pytest.raises(DiscriminantCollapse) as err:
        table_slope(trip, s, b)
    assert err.value.s == s[100]
    assert str(err.value) == f"discriminant collapsed at s = {s[100]}"
    bad = np.arange(603) % 200 == 57
    for exc, what in ((DiscriminantCollapse, "discriminant"), (DenominatorCollapse, "ODE denominator")):
        e = exc(s, bad)
        assert e.s == s[57] and str(e) == f"{what} collapsed at s = {s[57]}"


def _old_g(trip, s, b):
    """_OdeForm.g with its former np.any/np.abs guards."""
    mu2, k, r, sg = trip.mu2, trip.k, trip.a_sign, trip.sign
    phi, delta, E = FreshStageMarch(trip).phi_delta(s, b)
    if np.any(delta <= 0):
        raise DiscriminantCollapse(s, delta <= 0)
    sq = np.sqrt(delta)
    den = (mu2**2 + 1.0) * sq + r * (mu2**2 - 1.0) * phi + 4.0 * r * mu2 * b
    if np.any(np.abs(den) < 1e-300):
        raise DenominatorCollapse(s, np.abs(den) < 1e-300)
    num = 2.0 * sg * trip.rho * k * b * sq + r * sg * (2.0 * trip.beta * trip.rho / k) * phi * E
    return num / den


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def test_scalar_and_array_g_agree_bit_for_bit():
    trip = solve_triple(_t22_ode_family(), ImmersionParams(beta=0.5, b0=1.2, eps=0.3))
    s, b = trip.s, trip.b
    arr = table_slope(trip, s, b)
    assert np.array_equal(_bits(arr), _bits(_old_g(trip, s, b)))
    for cast in (float, np.float64):
        one = [table_slope(trip, cast(si), cast(bi)) for si, bi in zip(s, b)]
        assert np.array_equal(_bits(one), _bits(arr))


def test_scalar_and_array_g_raise_at_the_first_offending_s():
    trip = solve_triple(_t22_ode_family(), ImmersionParams(beta=0.5, b0=1.2, eps=0.3))
    s = np.linspace(-0.1, 0.1, 201)
    b = np.where(np.arange(201) >= 70, 0.0, 1.2)  # delta < 0 where b = 0
    for args, first in (((s, b), s[70]), ((float(s[3]), 0.0), s[3]), ((s[3], np.float64(0.0)), s[3])):
        with pytest.raises(DiscriminantCollapse) as err:
            table_slope(trip, *args)
        assert err.value.s == first
    # a denominator of d3 * b, below 1e-300 where b = 1.1 and above it where
    # b = 1.2 (delta > 0 for any |b| > 1)
    trip._den_c = (0.0, 0.0, 1e-300 / 1.15)
    b = np.where(np.arange(201) >= 90, 1.1, 1.2)
    table_slope(trip, s[:90], b[:90])
    for args, first in (((s, b), s[90]), ((float(s[5]), 1.1), s[5])):
        with pytest.raises(DenominatorCollapse) as err:
            table_slope(trip, *args)
        assert err.value.s == first


def _reference_march(trip, s0, b0, h, n):
    """Classical RK4 on b' = g(s, b) with the former guards, no stops."""
    s, b = [s0], [b0]
    for _ in range(n):
        sv, bv = s[-1], b[-1]
        k1 = _old_g(trip, sv, bv)
        k2 = _old_g(trip, sv + 0.5 * h, bv + 0.5 * h * k1)
        k3 = _old_g(trip, sv + 0.5 * h, bv + 0.5 * h * k2)
        k4 = _old_g(trip, sv + h, bv + h * k3)
        b.append(bv + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        s.append(sv + h)
    return np.array(s), np.array(b)


def test_march_matches_a_reference_march_bit_for_bit():
    trip = solve_triple(_t22_ode_family(), ImmersionParams(beta=0.5, b0=1.2, h=1e-3, eps=0.3))
    assert trip.stops == {} and len(trip.s) == 601
    fs, fb = _reference_march(trip, 0.0, 1.2, 1e-3, 300)
    bs, bb = _reference_march(trip, 0.0, 1.2, -1e-3, 300)
    s = np.concatenate([bs[::-1], fs[1:]])
    b = np.concatenate([bb[::-1], fb[1:]])
    assert np.array_equal(_bits(trip.s), _bits(s)) and np.array_equal(_bits(trip.b), _bits(b))
    assert np.array_equal(_bits(trip.bprime), _bits(_old_g(trip, s, b)))


def _t22_pole_family():
    p = FamilyParams(branch=Branch.T22, mu2=-0.3, eta2=1.0, sign=1)
    return build_family(p, f="s", phi12="z1", name="t22-pole")


def _den_and_floor(trip, s, b):
    ref = FreshStageMarch(trip)
    phi, delta, _ = ref.phi_delta(s, b)
    terms = ref.den_terms(phi, np.sqrt(delta), b)
    return sum(terms), 1e-8 * np.max([np.ones_like(b), *map(np.abs, terms)], axis=0)


@pytest.mark.parametrize("b0, s_stop, s_last, b_max, flips", [
    # the step to -0.020 grazes the pole (a stage den of -2.2e-7) and lands
    # on b = 4.0e16, where den = -8.0 is rounding of terms ~1e17
    (1.3, -0.020, -0.019, 16.2, False),
    # the step to -0.018 jumps the pole: den -5.8e-4 -> +4.4e31 (b -5.5e30)
    (1.4, -0.018, -0.017, 995.0, True),
])
def test_march_stops_before_the_step_across_a_pole(b0, s_stop, s_last, b_max, flips):
    ip = ImmersionParams(beta=0.2, b0=b0, h=1e-3, eps=0.3)
    trip = integrate_b_ode(_t22_pole_family(), ip)
    stop = trip.stops["backward"]
    assert stop["reason"] == "denominator" and stop["s"] == pytest.approx(s_stop, abs=1e-12)
    assert "forward" not in trip.stops and trip.s[-1] == pytest.approx(0.3)
    # the table ends at the last point before the pole, |b| bounded
    assert trip.s[0] == pytest.approx(s_last, abs=1e-12) and np.abs(trip.b).max() < b_max
    den, floor = _den_and_floor(trip, trip.s, trip.b)
    assert (den < -floor).all()
    # the rejected step, redone: its den is either lost in rounding or of the other sign
    s, b = _reference_march(trip, trip.s[0], trip.b[0], -ip.h, 1)
    assert s[1] == stop["s"] and abs(b[1]) > 1e15
    den, floor = _den_and_floor(trip, s[1], b[1])
    assert (den > floor) if flips else (-floor < den < 0)


def test_march_rejects_a_start_on_the_pole_and_short_tables():
    # at b0 = 3e4 the terms of den are ~6.5e4 and den0 = -1.9e-5, below the floor 6.5e-4
    with pytest.raises(DenominatorCollapse) as err:
        integrate_b_ode(_t22_pole_family(), ImmersionParams(beta=0.2, b0=30000.0, eps=0.3))
    assert err.value.s == 0.0
    # from the last point before the pole both marches stop on their first
    # step (b' = -3.4e4 there); the error names the forward stop
    b_last = integrate_b_ode(_t22_pole_family(), ImmersionParams(beta=0.2, b0=1.3, eps=0.3)).b[0]
    ip = ImmersionParams(beta=0.2, b0=float(b_last), s0=-0.019, h=1e-3, eps=0.002)
    with pytest.raises(DenominatorCollapse) as err:
        integrate_b_ode(_t22_pole_family(), ip)
    assert err.value.s == pytest.approx(-0.018, abs=1e-12)
    # no stop, but one step each way
    with pytest.raises(TripleDomainError, match="3 table points"):
        integrate_b_ode(_t22_pole_family(), ImmersionParams(beta=0.2, b0=1.3, h=1e-3, eps=1e-3))


def test_ode_stops_are_reported():
    fam = _t22_ode_family()
    trip = solve_triple(fam, ImmersionParams(beta=0.5, b0=1.2, s0=0.0, h=1e-3, eps=0.6))
    assert "backward" in trip.stops
    assert trip.stops["backward"]["reason"] in ("discriminant", "denominator")


def _march_cases():
    """(family, ImmersionParams) of eight b-ODE families drawn as the certify
    benchmark draws them (T22 and T24, mu2 in [0.4, 1] to 4 digits, eta2,
    lam in [0.5, 2], C in [-1, 1], beta in [0.2, 0.6], b0 in [1.1, 1.5],
    eps 0.3), then the two pole stops of the T22 pole family, a march
    with a discriminant stop (inside a step) backward and a denominator
    stop forward, the T22 family mu2 = 2, eta2 = 1 whose delta' overflows
    at beta = 1e154, a mu2 < 0 march whose discriminant stop is at a stage
    abscissa, a march from s0 != 0 with h = 7e-4, and one whose first
    block of exponentials overflows exp (ce*s > 709.78 from s = 3.97) past
    both stops."""
    rng = np.random.default_rng(14)
    out = []
    for branch in (Branch.T22, Branch.T24):
        for _ in range(4):
            kw = {"mu2": float(f"{rng.uniform(0.4, 1.0):.4g}"), "eta2": float(f"{rng.uniform(0.5, 2.0):.4g}")}
            if branch == Branch.T24:
                kw.update(lam=float(f"{rng.uniform(0.5, 2.0):.4g}"), C=float(f"{rng.uniform(-1.0, 1.0):.4g}"))
            fam = build_family(FamilyParams(branch=branch, sign=int(rng.choice((1, -1))), **kw), f="s", phi12="z1")
            beta, b0 = float(f"{rng.uniform(0.2, 0.6):.3f}"), float(f"{rng.uniform(1.1, 1.5):.3f}")
            ip = ImmersionParams(beta=beta, b0=b0, eps=0.3)
            out.append((fam, ip))
    out += [(_t22_pole_family(), ImmersionParams(beta=0.2, b0=b0, eps=0.3)) for b0 in (1.3, 1.4)]
    out.append((_t22_ode_family(), ImmersionParams(beta=0.5, b0=1.2, eps=1.0)))
    out.append((_t22_ode_family(mu2=2.0, eta2=1.0), ImmersionParams(beta=1e154, b0=1.2, eps=0.3)))
    out.append((_t22_pole_family(), ImmersionParams(beta=0.5, b0=1.1, eps=1.0)))
    out.append((_t22_ode_family(), ImmersionParams(beta=0.5, b0=1.2, s0=0.1, h=7e-4, eps=0.3)))
    out.append((_t22_ode_family(eta2=100.0), ImmersionParams(beta=0.2, b0=1.2, eps=5.0)))
    return out


def test_march_equals_the_fresh_stage_march_bit_for_bit():
    """Reusing the accepted point's slope as the next k1, in Python floats
    with each block's exponentials from one np.exp, gives the table, its
    slopes and both stops of the march that evaluates all four stages
    afresh in numpy scalars."""
    stops = []
    for fam, ip in _march_cases():
        trip = integrate_b_ode(fam, ip)
        s, b, bprime, want = FreshStageMarch(trip).march(ip)
        for got, ref in ((trip.s, s), (trip.b, b), (trip.bprime, bprime)):
            assert np.array_equal(_bits(got), _bits(ref)), fam.params
        assert trip.stops == want and {k: repr(v["s"]) for k, v in trip.stops.items()} == {
            k: repr(v["s"]) for k, v in want.items()}
        stops.append(trip.stops)
    assert [sorted((k, v["reason"]) for k, v in st.items()) for st in stops[8:]] == [
        [("backward", "denominator")], [("backward", "denominator")],
        [("backward", "discriminant"), ("forward", "denominator")],
        [("forward", "discriminant")],
        [("backward", "denominator"), ("forward", "discriminant")],
        [],
        [("backward", "discriminant"), ("forward", "denominator")]]
    assert all(st == {} for st in stops[:8])
    # the mu2 < 0 row stops at a stage abscissa sv + h/2, off the node grid
    s_stage = stops[12]["forward"]["s"]
    assert s_stage == pytest.approx(0.2525, abs=1e-12)
    assert stops[9]["backward"]["s"] == pytest.approx(-0.018, abs=1e-12)


def test_block_exp_equals_the_0d_exp_of_each_abscissa_bit_for_bit():
    """The march takes exp(ce*s) of a block of stage abscissae in one np.exp
    and relies on each element having the bits of np.exp of that element
    alone (the 0-d call the table's slopes and the reference march make);
    a numpy build where the vector and the 0-d exp round apart fails here
    rather than moving the tables.  The arguments are those of every march
    case, and a sweep over exp's whole finite range and past it."""
    args = [np.linspace(-746.0, 711.0, 20001), np.random.default_rng(3).uniform(-50.0, 50.0, 20000)]
    for fam, ip in _march_cases():
        trip = integrate_b_ode(fam, ip)
        for h in (ip.h, -ip.h):
            pts = list(trip._stage_points(ip.s0, h, int(round(ip.eps / ip.h))))
            args.append(trip.ce * np.array([p[0] for p in pts] + [p[1] for p in pts]))
    overflows = []
    with np.errstate(over="ignore"):
        for x in args:
            whole = np.exp(x)
            one = np.array([np.exp(v) for v in x])
            assert np.array_equal(_bits(whole), _bits(one))
            overflows.append(bool(np.isinf(whole).any()))
    # the sweep and the last case's forward block reach past exp's range
    assert overflows[0] and overflows[-2] and not overflows[-1]


class _CountingNumpy:
    """numpy, recording (function, ndim of its first argument) per call."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        attr = getattr(np, name)
        if not callable(attr):
            return attr

        def call(*args, **kwargs):
            self.calls.append((name, np.ndim(args[0]) if args else None))
            return attr(*args, **kwargs)
        return call


@pytest.mark.parametrize("h, blocks", [(1e-3, 1), (1e-4, 1), (6e-5, 2)], ids=["300", "3000", "5000"])
def test_a_march_takes_one_np_exp_per_block_and_direction(monkeypatch, h, blocks):
    """One 0-d np.exp for the start and one np.exp per block of 4096 steps
    and direction; the table keeps the slopes the march checked, so it takes
    no np.exp of its own.  No step makes a 0-d numpy call, and the numpy
    calls do not grow with the steps within a block."""
    counting = _CountingNumpy()
    monkeypatch.setattr(immersion, "np", counting)
    trip = integrate_b_ode(_t22_ode_family(), ImmersionParams(beta=0.5, b0=1.2, h=h, eps=0.3))
    assert trip.stops == {} and len(trip.s) == 2 * round(0.3 / h) + 1
    exps = [nd for name, nd in counting.calls if name == "exp"]
    assert exps == [0] + [1] * (2 * blocks)
    assert [c for c in counting.calls if c[1] == 0] == [("exp", 0)]
    # a block makes three calls (errstate, array, exp); the start two, the table
    # one frombuffer per column
    assert len(counting.calls) == 2 + 3 * 2 * blocks + 3


def test_a_march_at_the_step_cap_that_stops_early_is_quiet_and_small():
    """round(eps/h) = MAX_ODE_STEPS each way, and both stops come within 35
    steps.  exp(ce*s) overflows from s = 3.97 on, inside the first block of
    exponentials and in every later one; the march computes one block past
    its stops, without a warning, and never holds the exponentials of all
    10^6 steps (taken at once, they raise the tracemalloc peak to 153 MB)."""
    ip = ImmersionParams(beta=0.2, b0=1.2, h=1e-3, eps=1000.0)
    assert round(ip.eps / ip.h) == MAX_ODE_STEPS
    fam = _t22_ode_family(eta2=100.0)
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trip = integrate_b_ode(fam, ip)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trip.stops == {"forward": {"reason": "denominator", "s": pytest.approx(0.034, abs=1e-12)},
                          "backward": {"reason": "discriminant", "s": pytest.approx(-0.0085, abs=1e-12)}}
    assert 3.97 * trip.ce > 709.8
    assert peak < 2e6


_LONG_TABLE_PEAK = """
from pss.catalog import Branch, FamilyParams, build_family
from pss.immersion import ImmersionParams, integrate_b_ode


def peak_rss():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) * 1024


fam = build_family(FamilyParams(branch=Branch.T22, mu2=0.5, eta2=3.0, sign=1), f="s", phi12="z1")
warm = integrate_b_ode(fam, ImmersionParams(beta=0.5, b0=1.2, h=3e-4, eps=0.3))
before = peak_rss()
trip = integrate_b_ode(fam, ImmersionParams(beta=0.5, b0=1.2, h=3e-6, eps=0.3))
print(len(warm.s), len(trip.s), trip.stops == {}, peak_rss() - before)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc/self/status")
def test_a_long_table_keeps_its_slopes_in_bounded_memory():
    """200,001 points keep 24 B each (s, b, b'); the march raises the peak
    resident memory of a fresh process by under 60 B per point.  The
    process first marches 2,001 points, so the modules, the compiled
    programs and numpy's buffers are in memory before the peak is read.
    The peak is the kernel's VmHWM of the process's own memory map:
    getrusage's ru_maxrss would start at the RSS of the process that
    spawned it, which is larger than the whole effect under pytest.  Lists
    of Python floats and a table-wide recomputation of the slopes after the
    march raised the peak by about 22 MB."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", _LONG_TABLE_PEAK], env=env, capture_output=True, text=True,
                          check=True)
    warm, points, no_stops, grown = proc.stdout.split()
    assert (warm, points, no_stops) == ("2001", "200001", "True")
    assert int(grown) < 12e6


def test_a_start_or_step_that_overflows_is_a_stop_not_a_nan_table():
    """b, delta, the denominator, its floor and delta' must be finite: an
    overflowing start is refused, and a march stops where one overflows."""
    fam = build_family(FamilyParams(branch=Branch.T24, mu2=0.6, eta2=1.0, lam=1.0, C=0.3), f="s", phi12="z1")
    for beta, b0 in ((0.3, 1e300), (1e300, 1.2)):
        with pytest.raises(DiscriminantCollapse) as err:
            integrate_b_ode(fam, ImmersionParams(beta=beta, b0=b0, eps=0.3))
        assert err.value.s == 0.0
    # beta*E grows along the forward march; delta' = 2 phi phi' + 8 b b'
    # overflows at s = 0.053, well before delta itself would (s = 0.178)
    trip = integrate_b_ode(_t22_ode_family(mu2=2.0, eta2=1.0), ImmersionParams(beta=1e154, b0=1.2, eps=0.3))
    assert trip.stops == {"forward": {"reason": "discriminant", "s": pytest.approx(0.053, abs=1e-12)}}
    assert np.isfinite(trip.b).all() and np.isfinite(trip.bprime).all() and trip.s[0] == pytest.approx(-0.3)
    # so the table's a, b, c and their derivatives are finite, without an overflow warning
    assert all(np.isfinite(v).all() for v in trip.abc_derivs(trip.s))


# ----------------------------------------------------------------------
# Non-existence branches and dispatch totality


def test_no_immersion_citations():
    for name, prop in (("t23-demo", "Proposition 4.2"),
                       ("t25i-demo", "Proposition 4.4"),
                       ("t25ii-demo", "Proposition 4.5")):
        out = solve_triple(PRESETS[name](), ImmersionParams())
        assert isinstance(out, NoImmersion)
        assert out.proposition == prop


def _codazzi_gauss_basis(name, monkeypatch):
    """The grevlex Groebner basis, in the nine unknowns a, b, c and their x-
    and t-partials, of the equations a triple of (x, t) alone must meet on
    the preset `name`: E1 = E2 = 0 on every jet, as `codazzi_residuals`
    forms them with exact constants, and the Gauss equation ac - b^2 + 1 = 0.
    E1 and E2 are polynomials in the jet symbols and exp atoms of single jet
    symbols, which are algebraically independent, so each coefficient must
    vanish by itself."""
    import sympy as sp

    from references import symbolic_families

    symbolic_families(monkeypatch)
    fam = PRESETS[name]()
    unknowns = sp.symbols("a b c a_x b_x c_x a_t b_t c_t")

    class StandIn:
        def values_and_derivs(self, env, x, t):
            return unknowns[:3], unknowns[3:6], unknowns[6:]

    names = [f"z{i}" for i in range(6)] + ["w1", "v1"]
    jet = sp.symbols(names)
    env = fam.constrain_env(dict(zip(names, jet)))
    eqs = {unknowns[0] * unknowns[2] - unknowns[1] ** 2 + 1}
    for e in codazzi_residuals(fam, StandIn(), env, 0.0, 0.0):
        e = sp.expand(sp.powsimp(sp.expand(sp.nsimplify(e, rational=True), power_exp=True)), power_exp=True)
        exps = sorted(e.atoms(sp.exp), key=str)
        assert all(x.args[0] in jet for x in exps), exps
        poly = sp.Poly(e, *jet, *exps)
        assert poly.free_symbols_in_domain <= set(unknowns)
        eqs.update(poly.coeffs())
    return sp.groebner(sorted(eqs, key=str), *unknowns, order="grevlex"), unknowns


@pytest.mark.parametrize("name", ["t23-demo", "t25i-demo", "t25ii-demo"])
def test_no_immersion_presets_admit_no_real_triple_exactly(name, monkeypatch):
    """The cited non-existence, shown: the Codazzi and Gauss equations of a
    triple of (x, t) alone generate c^2 + 1, which has no real root."""
    basis, (a, b, c, *partials) = _codazzi_gauss_basis(name, monkeypatch)
    assert list(basis.exprs) == [c**2 + 1, a - c, b, *partials]
    assert isinstance(solve_triple(PRESETS[name](), ImmersionParams()), NoImmersion)


@pytest.mark.parametrize("name", ["novikov", "t22-demo"])
def test_existence_presets_give_a_consistent_codazzi_gauss_basis(name, monkeypatch):
    """The positive control: for the presets with a triple the same basis is
    consistent (not [1]), and the triple depends on x alone."""
    basis, (a, b, c, a_x, b_x, c_x, a_t, b_t, c_t) = _codazzi_gauss_basis(name, monkeypatch)
    assert list(basis.exprs) == [4 * a_x * c - b_x**2 + 4 * c**2 + 4, a - a_x - c, 2 * b - b_x, a_t, b_t, c_t]


def test_solve_triple_total_over_random_parameterizations():
    """Every catalog branch yields a triple or a citation - never an unhandled case."""
    rng = np.random.default_rng(2024)
    count_no = 0
    for _ in range(50):
        mu3 = rng.uniform(-0.9, 0.9)
        fam = build_family(
            FamilyParams(branch=Branch.T23, lam=rng.uniform(0.5, 2), eta2=rng.uniform(0.5, 2),
                         mu2=rng.uniform(-1, 1), mu3=mu3, root=rng.choice([1, -1])),
            f="s")
        out = solve_triple(fam, ImmersionParams())
        assert isinstance(out, NoImmersion) and out.proposition == "Proposition 4.2"
        count_no += 1

        fam = build_family(
            FamilyParams(branch=Branch.T25I, lam=rng.uniform(0.5, 2), theta=rng.uniform(0.5, 2),
                         B=rng.uniform(-1, 1), mu2=rng.uniform(-1, 1), eta2=rng.uniform(0.5, 2),
                         m=rng.uniform(0.5, 2), n=rng.uniform(-1, 1),
                         sign=rng.choice([1, -1])))
        out = solve_triple(fam, ImmersionParams())
        assert isinstance(out, NoImmersion) and out.proposition == "Proposition 4.4"

        m = rng.uniform(1.5, 3)
        fam = build_family(
            FamilyParams(branch=Branch.T25II, lam=rng.uniform(0.5, 2), tau=rng.uniform(0.2, 1),
                         mu2=rng.uniform(-1, 1), eta2=rng.uniform(0.5, 2), m=m,
                         n=rng.uniform(-1, 1), sign=rng.choice([1, -1]), root=rng.choice([1, -1])),
            phi="exp(z0)")
        out = solve_triple(fam, ImmersionParams())
        assert isinstance(out, NoImmersion) and out.proposition == "Proposition 4.5"
    assert count_no == 50


def test_sine_gordon_triple_is_solution_dependent():
    fam = sine_gordon_preset()
    trip = solve_triple(fam, ImmersionParams(a_sign=1))
    assert trip.representation == Representation.SOLUTION_DEPENDENT
    a, b, c = trip.abc(np.pi / 4)
    assert a == pytest.approx(2.0 / math.tan(np.pi / 4))
    assert b == -1.0 and c == 0.0
    assert gauss_residual(a, b, c) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(TripleDomainError):
        trip.abc(0.0)  # pole at sin u = 0 is reported


def test_sine_gordon_codazzi_identity():
    fam = sine_gordon_preset(eta=1.3)
    trip = solve_triple(fam, ImmersionParams(a_sign=1))
    rng = np.random.default_rng(6)
    env = sample_envs(fam, 300, rng)
    e1, e2 = codazzi_residuals(fam, trip, env, 0.0, 0.0)
    assert np.max(np.abs(e1)) <= 1e-12 and np.max(np.abs(e2)) <= 1e-12


def test_sine_gordon_codazzi_needs_w1():
    fam = sine_gordon_preset(eta=1.3)
    trip = solve_triple(fam, ImmersionParams(a_sign=1))
    env = sample_envs(fam, 10, np.random.default_rng(6))
    del env["w1"]
    with pytest.raises(TripleDomainError, match="w1"):
        codazzi_residuals(fam, trip, env, 0.0, 0.0)


def test_constant_triple_trivial_codazzi():
    """a = c, b = 0 makes both combinations collapse termwise to zero."""
    fam = t22_demo_preset()

    class Const(ImmersionTriple):
        def abc_derivs(self, s):
            one = np.ones_like(np.asarray(s, dtype=float))
            return 2.0 * one, 0.0 * one, 2.0 * one, 0.0 * one, 0.0 * one, 0.0 * one

    p = _jets(fam, 100)
    const = Const("const", "x", 1.0, 0.0, (-10.0, 10.0))
    e1, e2 = codazzi_residuals(fam, const, p, np.zeros(100), np.zeros(100))
    assert np.max(np.abs(e1)) == 0.0 and np.max(np.abs(e2)) == 0.0


def _old_sine_gordon(a_sign, u):
    """The former _SineGordonForm.abc_of_u and da_du: (a, b, c) and da/du."""
    su = np.sin(u)
    if np.any(su == 0):
        raise TripleDomainError("sine-Gordon triple has a pole where sin u = 0")
    a = a_sign * 2.0 * np.cos(u) / su
    b = -a_sign * np.ones_like(np.asarray(u, dtype=float))
    c = np.zeros_like(np.asarray(u, dtype=float))
    return (a, b, c), -a_sign * 2.0 / (su * su)


def _old_triple_values(trip, env, x, t):
    """The former frames._triple_values, which branched on the representation."""
    if trip.representation == Representation.SOLUTION_DEPENDENT:
        return _old_sine_gordon(trip.a_sign, env["z0"])[0]
    s = trip.reduced_coordinate(np.asarray(x, dtype=float), t)
    return trip.abc(s)


def _old_codazzi_residuals(fam, trip, env, x, t):
    """The former codazzi_residuals, which branched on the representation."""
    f11, f21 = fam.fij(1, 1)(env), fam.fij(2, 1)(env)
    f12, f22 = fam.fij(1, 2)(env), fam.fij(2, 2)(env)
    f31, f32 = fam.fij(3, 1)(env), fam.fij(3, 2)(env)
    d13 = f11 * f32 - f31 * f12
    d23 = f21 * f32 - f31 * f22
    if trip.representation == Representation.SOLUTION_DEPENDENT:
        (a, b, c), dadu = _old_sine_gordon(trip.a_sign, env["z0"])
        dxa, dta = dadu * env["z1"], dadu * env["w1"]
        dxb = dtb = dxc = dtc = 0.0
    else:
        s = trip.reduced_coordinate(x, t)
        lo, hi = trip.validity
        if np.any(s <= lo) or np.any(s >= hi):
            raise TripleDomainError(f"(x, t) maps to s = {s}, outside the validity interval ({lo}, {hi})")
        a, b, c, ap, bp, cp = trip.abc_derivs(s)
        dxa, dta = trip.sx * ap, trip.st * ap
        dxb, dtb = trip.sx * bp, trip.st * bp
        dxc, dtc = trip.sx * cp, trip.st * cp
    e1 = f11 * dta + f21 * dtb - f12 * dxa - f22 * dxb - 2.0 * b * d13 + (a - c) * d23
    e2 = f11 * dtb + f21 * dtc - f12 * dxb - f22 * dxc + (a - c) * d13 + 2.0 * b * d23
    return e1, e2


def _drift_family():
    p = FamilyParams(branch=Branch.T24, lam=0.5, mu2=0.0, eta2=2.0, C=0.7, sign=-1)
    return build_family(p, f="s", phi12="z1", name="t24-drift")


@pytest.mark.parametrize("fam, ip", [
    (t22_demo_preset(), ImmersionParams(beta=1.0, C_strip=3.0, a_sign=-1)),
    (_drift_family(), ImmersionParams(beta=0.3, sigma=2.5)),
    (_t22_ode_family(), ImmersionParams(beta=0.5, b0=1.2, eps=0.3)),
    (build_family(FamilyParams(branch=Branch.T24, lam=1.0, mu2=0.8, eta2=1.0, C=0.5, sign=1),
                  f="s", phi12="z1"), ImmersionParams(beta=0.2, b0=1.3, eps=0.3, a_sign=-1)),
    (sine_gordon_preset(eta=1.3), ImmersionParams(a_sign=1)),
    (sine_gordon_preset(), ImmersionParams(a_sign=-1)),
], ids=["closed-x", "closed-xi", "ode-x", "ode-xi", "sine-gordon+", "sine-gordon-"])
def test_triple_sampling_matches_the_representation_branches_bit_for_bit(fam, ip):
    trip = solve_triple(fam, ip)
    env = _jets(fam, 300, seed=3)
    if trip.representation == Representation.SOLUTION_DEPENDENT:
        x = t = 0.0
    else:
        s = trip.strip_samples(300)
        share = 0.25 if trip.st else 1.0  # of s = sx*x + st*t carried by x (sx != 0 here)
        x, t = share * s / trip.sx, (1.0 - share) * s / (trip.st or 1.0)
    pairs = [(trip.values(env, x, t), _old_triple_values(trip, env, x, t)),
             (codazzi_residuals(fam, trip, env, x, t), _old_codazzi_residuals(fam, trip, env, x, t))]
    for got, want in pairs:
        for g, w in zip(got, want):
            assert np.shape(g) == np.shape(w) and np.array_equal(_bits(g), _bits(w))


def test_csv_export(tmp_path):
    fam = t22_demo_preset()
    trip = solve_triple(fam, ImmersionParams(beta=1.0, C_strip=3.0))
    path = tmp_path / "triple.csv"
    trip.export_csv(path, n=100)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "s,a,b,c,gauss_residual"
    assert len(lines) == 101

    fam2 = _t22_ode_family()
    trip2 = solve_triple(fam2, ImmersionParams(beta=0.5, b0=1.2, h=1e-3, eps=0.1))
    path2 = tmp_path / "ode.csv"
    trip2.export_csv(path2)
    assert path2.read_text().splitlines()[0] == "s,a,b,c,gauss_residual,bprime"


def _per_cell_csv(trip, path, n=1000):
    """The former writer: one repr(float(v)) per cell."""
    if trip.representation == Representation.ODE_TABLE:
        s = trip.s
        a, b, c, ap, bp, cp = trip.abc_derivs(s)
        rows, header = zip(s, a, b, c, gauss_residual(a, b, c), bp), "s,a,b,c,gauss_residual,bprime"
    elif trip.representation == Representation.CLOSED_FORM:
        s = trip.strip_samples(n)
        a, b, c = trip.abc(s)
        rows, header = zip(s, a, b, c, gauss_residual(a, b, c)), "s,a,b,c,gauss_residual"
    else:
        u = np.linspace(0.1, math.pi - 0.1, n)
        a, b, c = trip.abc(u)
        rows, header = zip(u, a, b, c, gauss_residual(a, b, c)), "u,a,b,c,gauss_residual"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def test_csv_export_bytes_match_the_per_cell_writer(tmp_path):
    trips = {
        "ode": solve_triple(_t22_ode_family(), ImmersionParams(beta=0.5, b0=1.2, eps=0.3)),
        "closed": solve_triple(t22_demo_preset(), ImmersionParams(beta=1.0, C_strip=3.0)),
        "sine-gordon": solve_triple(sine_gordon_preset(), ImmersionParams(a_sign=-1)),
    }
    for name, trip in trips.items():
        new, old = tmp_path / f"{name}.csv", tmp_path / f"{name}.old.csv"
        trip.export_csv(new, n=257)
        _per_cell_csv(trip, old, n=257)
        assert new.read_bytes() == old.read_bytes(), name
        assert new.read_text().count("\n") == (len(trip.s) if name == "ode" else 257) + 1


def test_csv_bytes_equal_the_row_by_row_writer_across_blocks(tmp_path):
    """9000 rows (two block boundaries) of floats with every kind of repr:
    signed zeros, NaN, infinities, subnormals, integers and long fractions."""
    rng = np.random.default_rng(4)
    special = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -1.7976931348623157e308, 3.0, 0.1, 1e22])
    cols = [rng.standard_normal(9000) * 10.0 ** rng.integers(-300, 300, 9000), np.resize(special, 9000),
            np.arange(9000), rng.uniform(-1.0, 1.0, 9000).tolist()]
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    write_csv(new, "p,q,i,u", cols)
    row_by_row_csv(old, "p,q,i,u", cols)
    assert new.read_bytes() == old.read_bytes() and new.read_text().count("\n") == 9001


def test_ode_codazzi_with_nonlinear_f():
    """The universal triple is blind to the family's f and phi12 choices."""
    p = FamilyParams(branch=Branch.T22, mu2=0.5, eta2=3.0, sign=1)
    fam = build_family(p, f="2*s + s^3", phi12="z1 + sin(z0)", name="t22-ode-nl")
    trip = solve_triple(fam, ImmersionParams(beta=0.5, b0=1.2, s0=0.0, h=1e-3, eps=0.25))
    pj = _jets(fam, 300, seed=8)
    lo, hi = trip.validity
    s = np.linspace(lo + 1e-3, hi - 1e-3, 300)
    e1, e2 = codazzi_residuals(fam, trip, pj, s, np.zeros(300))
    assert np.max(np.abs(e1)) <= 1e-7 and np.max(np.abs(e2)) <= 1e-7
