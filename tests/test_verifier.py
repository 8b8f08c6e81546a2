"""Structure-equation certification and classification-condition checks."""

import json
import math
import tracemalloc

import numpy as np
import pytest
import sympy as sp

from pss import dual, verifier
from pss.catalog import (
    Branch,
    CatalogError,
    ConstraintViolation,
    Family,
    FamilyParams,
    PRESETS,
    build_family,
    delta,
    novikov_preset,
)
from pss.jets import dt_env_onshell, dx_env, partials
from pss.verifier import (
    certify,
    certify_structure,
    check_theorem21_conditions,
    sample_envs,
    structure_residuals_env,
)
from references import CountingArray, columns, dense_seed, perturbed_family, sine_gordon_preset, symbolic_families


def jp(z, w1=0.3, v1=0.2):
    """One-jet environment with z0..z_{len(z)-1}, w1 and v1."""
    return {"x": 0.0, "t": 0.0, **{f"z{i}": zi for i, zi in enumerate(z)}, "w1": w1, "v1": v1}


def residuals(fam, env):
    (r1, r2, r3), _ = structure_residuals_env(fam, env)
    return float(r1), float(r2), float(r3)


# ----------------------------------------------------------------------
# delta


def test_delta_diagonal_vanishes():
    rng = np.random.default_rng(0)
    for name in PRESETS:
        fam = PRESETS[name]()
        p = jp(rng.uniform(-1, 1, 4))
        for i in (1, 2, 3):
            assert delta(*columns(fam, p), i, i) == 0.0
        for i, j in ((1, 2), (1, 3), (2, 3)):
            assert delta(*columns(fam, p), i, j) == -delta(*columns(fam, p), j, i)


def test_delta_t22_formula():
    # Delta13 = -(mu2*eta2/sqrt(1+mu2^2)) * phi12 under the + sign
    mu2, eta2 = 0.7, 1.3
    fam = build_family(FamilyParams(branch=Branch.T22, mu2=mu2, eta2=eta2, sign=1), f="s", phi12="z1")
    rng = np.random.default_rng(1)
    for _ in range(50):
        z = rng.uniform(-1, 1, 4)
        want = -(mu2 * eta2 / math.sqrt(1 + mu2**2)) * z[1]
        assert delta(*columns(fam, jp(z)), 1, 3) == pytest.approx(want, abs=1e-13)


def test_delta_t23_formula():
    fam = PRESETS["t23-demo"]()
    p, c = fam.params, fam.constants
    rng = np.random.default_rng(2)
    for _ in range(50):
        z = rng.uniform(-1, 1, 4)
        want = (2.0 / c["gamma"]) * p.lam * p.eta2 * c["eta3"] * z[0] * z[1]
        assert delta(*columns(fam, jp(z)), 1, 3) == pytest.approx(want, abs=1e-12)


def test_delta_t22_zero_mu2_first_form_determinant():
    fam = PRESETS["t22-demo"]()
    rng = np.random.default_rng(3)
    for _ in range(20):
        z = rng.uniform(-1, 1, 4)
        assert delta(*columns(fam, jp(z)), 1, 2) == pytest.approx(-fam.params.eta2 * z[1], abs=1e-13)


def test_delta_sine_gordon_first_form_determinant():
    sg = sine_gordon_preset(eta=1.0)
    assert delta(*columns(sg, jp([0.8, 0.1, 0.0, 0.0])), 1, 2) == pytest.approx(-math.sin(0.8), abs=1e-14)
    assert delta(*columns(sg, jp([0.0, 0.1, 0.0, 0.0])), 1, 2) == 0.0  # degenerate exactly at z0 in pi Z


# ----------------------------------------------------------------------
# structure residuals


def test_sine_gordon_residuals_vanish_pointwise():
    fam = sine_gordon_preset(eta=1.4)
    rng = np.random.default_rng(4)
    for _ in range(50):
        z = rng.uniform(-1, 1, 6)
        p = jp(z, w1=rng.uniform(-1, 1), v1=math.sin(z[0]))
        r = residuals(fam, p)
        assert max(abs(v) for v in r) < 1e-14


def test_sine_gordon_r3_detects_off_shell():
    # with v1 != sin(z0) the third residual is exactly sin(z0) - v1
    fam = sine_gordon_preset(eta=1.0)
    p = jp((0.6, 0.1, 0.0, 0.0, 0.0, 0.0), w1=0.0, v1=0.9)
    r1, r2, r3 = residuals(fam, p)
    assert abs(r1) < 1e-15 and abs(r2) < 1e-15
    assert r3 == pytest.approx(math.sin(0.6) - 0.9, abs=1e-14)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_certify_structure_presets(name):
    rep = certify_structure(PRESETS[name](), samples=1000, tol=1e-8)
    assert rep.verdict == "pass", rep.residuals
    assert max(rep.residuals.values()) <= 1e-8


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_structure_residuals_vanish_symbolically_on_shell(name, monkeypatch):
    """R1-R3, formed as structure_residuals_env forms them on a jet of the
    symbols z0..z5, w1, v1, simplify to 0: sampling shows them small, this
    shows them zero identically.  The derived constants are resolved exactly
    (t25ii-demo's mu3 is sqrt(3)/2, which a float rounds), and the jet is
    constrained on shell as sampled jets are (v1 = sin z0 for sine-Gordon)."""
    symbolic_families(monkeypatch)
    fam = PRESETS[name]()
    names = [f"z{i}" for i in range(6)] + ["w1", "v1"]
    env = fam.constrain_env(dict(zip(names, sp.symbols(names))))
    v1, dts = dt_env_onshell(fam.column(1), env, fam.zt(env, 2))
    v2, dxs = dx_env(fam.column(2), env)
    deltas = (delta(v1, v2, 2, 3), -delta(v1, v2, 1, 3), -delta(v1, v2, 1, 2))
    for k, (dt, dx, d) in enumerate(zip(dts, dxs, deltas), 1):
        assert sp.simplify(sp.nsimplify(dx - dt + d, rational=True)) == 0, f"R{k}"


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_sparse_seeds_give_the_dense_residuals_bit_for_bit(name, monkeypatch):
    """D_x of column 2 and D_t of column 1 skip the partials that are None by
    structure; seeding a float 0.0 there instead (the dense seeding) changes
    no bit of |R| or of the scales."""
    fam = PRESETS[name]()
    block = next(verifier._jet_blocks(fam, 2000, np.random.default_rng(5)))
    sparse = structure_residuals_env(fam, block)
    monkeypatch.setattr(dual, "seed", dense_seed)
    dense = structure_residuals_env(fam, block)
    for k, (r, d) in enumerate(zip(sparse[0], dense[0]), 1):
        assert np.abs(r).tobytes() == np.abs(d).tobytes() and np.shape(r) == (2000,), f"R{k}"
    for k, (r, d) in enumerate(zip(sparse[1], dense[1]), 1):
        assert np.asarray(r).tobytes() == np.asarray(d).tobytes(), f"scale {k}"


@pytest.mark.parametrize("name", sorted(set(PRESETS) - {"sine-gordon"}))
def test_form7_partials_are_zero_by_structure(name):
    """Theorem 2.1's (37): f_i1 reads z0 - z2, never z1 or z3, and phi12
    reads z0 and z1 alone, so those partials are the float 0.0 that no
    array operation made."""
    fam = PRESETS[name]()
    env = sample_envs(fam, 64, np.random.default_rng(3))
    names = ("z0", "z1", "z2", "z3")
    _, by = partials(fam.column(1), env, names)
    for i, comp in enumerate(by, 1):
        assert [(type(comp[nm]), comp[nm]) for nm in ("z1", "z3")] == [(float, 0.0)] * 2, f"f{i}1"
    _, by = partials(fam.phi12_fn, env, names)
    assert [(type(by[nm]), by[nm]) for nm in ("z2", "z3")] == [(float, 0.0)] * 2


@pytest.mark.parametrize("name, most", [("novikov", 173), ("t25ii-demo", 243)])
def test_a_residual_block_runs_no_array_operation_on_a_structural_zero(name, most, monkeypatch):
    """The ufunc calls of one structure_residuals_env block; the dense
    seeding, whose 0.0 partials become arrays of zeros, makes more."""
    fam = PRESETS[name]()
    block = next(verifier._jet_blocks(fam, 1000, np.random.default_rng(0)))
    counts = []
    for seeding in (dual.seed, dense_seed):
        monkeypatch.setattr(dual, "seed", seeding)
        CountingArray.calls = 0
        structure_residuals_env(fam, {k: v.view(CountingArray) for k, v in block.items()})
        counts.append(CountingArray.calls)
    assert counts[0] <= most < counts[1], counts


def test_corrupted_family_detected():
    fam = novikov_preset()
    bad = perturbed_family(fam, 2, 2, 0.1)
    p = jp([0.5, 0.4, 0.3, 0.2, 0.1, 0.0])
    (r1, r2, r3), _ = structure_residuals_env(bad, p)
    assert max(abs(float(r1)), abs(float(r2)), abs(float(r3))) > 0.01


def test_perturbed_family_is_a_family_sharing_the_other_fij():
    fam = novikov_preset()
    p = jp([0.5, 0.4, 0.3, 0.2])
    for which in [(i, j) for i in (1, 2, 3) for j in (1, 2)]:
        bad = perturbed_family(fam, *which, 0.25)
        assert isinstance(bad, Family) and bad.name == f"novikov+eps{which}"
        assert bad.fij(*which)(p) == fam.fij(*which)(p) + 0.25
        others = [(i, j) for i in (1, 2, 3) for j in (1, 2) if (i, j) != which]
        assert len(others) == 5
        assert all(bad.fij(*key)(p) == fam.fij(*key)(p) for key in others)
        assert bad.column(3 - which[1]) is fam.column(3 - which[1])  # the other column is shared
    assert fam.name == "novikov" and fam.fij(1, 1)(p) == 0.5 - 0.3  # the base is untouched


@pytest.mark.parametrize("which", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)])
def test_sensitivity_every_fij_perturbation_is_seen(which):
    """eps = 1e-3 bumps raise some residual above eps/10 at a majority of jets."""
    fam = novikov_preset()
    bad = perturbed_family(fam, which[0], which[1], 1e-3)
    rng = np.random.default_rng(10)
    env = sample_envs(fam, 200, rng)
    (r1, r2, r3), _ = structure_residuals_env(bad, env)
    worst = np.maximum(np.abs(r1), np.maximum(np.abs(r2), np.abs(r3)))
    assert np.mean(worst > 1e-4) > 0.5


# ----------------------------------------------------------------------
# Theorem 2.1 conditions


@pytest.mark.parametrize("name", sorted(set(PRESETS) - {"sine-gordon"}))
def test_theorem21_conditions_pass(name):
    rep = check_theorem21_conditions(PRESETS[name](), samples=500, tol=1e-9)
    assert rep.verdict == "pass", rep.residuals
    assert rep.residuals["c42_min"] > 1e-9


def test_theorem21_rejects_sine_gordon():
    with pytest.raises(CatalogError):
        check_theorem21_conditions(sine_gordon_preset())


def test_theorem21_detects_translation_violation():
    """f11 := z0 violates f11_{z0} + f11_{z2} = 0 with residual exactly 1."""
    fam = novikov_preset()
    from pss.jets import JetFunction

    class Broken:
        params, constants = fam.params, fam.constants
        name = "broken-f11"
        is_form7 = True
        phi12_fn = staticmethod(fam.phi12_fn)
        phi_column = staticmethod(fam.phi_column)
        G_fn = staticmethod(fam.G_fn)
        F_fn = staticmethod(fam.F_fn)
        f_expr = fam.f_expr
        phi_expr = None

        def __init__(self):
            col1 = fam.column(1)
            self.columns = {
                1: JetFunction(lambda env: (env["z0"],) + col1(env)[1:], col1.free, "f11:=z0"),
                2: fam.column(2),
            }

        def column(self, j):
            return self.columns[j]

        def zt(self, env, upto):
            return fam.zt(env, upto)

        def constrain_env(self, env):
            return env

        def sampling_guard(self, env):
            return fam.sampling_guard(env)

    rep = check_theorem21_conditions(Broken(), samples=50, tol=1e-9)
    assert rep.verdict == "fail"
    assert rep.residuals["c36"] == pytest.approx(1.0)


def test_report_json_shape():
    rep = certify(novikov_preset(), samples=200, tol=1e-8, seed=7)
    doc = json.loads(json.dumps(rep.to_dict(), indent=2, sort_keys=True))
    assert doc["family"] == "novikov"
    assert doc["seed"] == 7
    assert {"R1_max", "R2_max", "R3_max", "c36", "c39", "c42_min"} <= set(doc["residuals"])
    assert doc["verdict"] == "pass"


def test_reports_are_reproducible_for_a_seed():
    a, b = (json.dumps(certify_structure(novikov_preset(), samples=300, tol=1e-8, seed=11).to_dict(),
                       indent=2, sort_keys=True) for _ in range(2))
    assert a == b


def test_residuals_scale_relative():
    """Large-magnitude jets do not spuriously fail: thresholds scale with terms."""
    fam = PRESETS["t25i-demo"]()
    rep = certify_structure(fam, samples=500, tol=1e-8, bounds=(-3.0, 3.0))
    assert rep.verdict == "pass", rep.residuals


@pytest.mark.parametrize("branch_kwargs", [
    dict(branch=Branch.T22, mu2=0.4, eta2=-1.5),
    dict(branch=Branch.T24, lam=-0.7, mu2=-0.6, eta2=2.0, C=0.3),
    dict(branch=Branch.T25I, lam=0.5, theta=-1.2, B=0.8, mu2=0.5, eta2=-1.0, m=-1.5, n=0.4),
    dict(branch=Branch.T25II, lam=-1.0, tau=0.8, mu2=-0.4, eta2=1.5, m=2.5, n=-0.3),
    dict(branch=Branch.T23, lam=0.9, mu2=0.5, eta2=-1.2, mu3=0.6, root=-1),
])
@pytest.mark.parametrize("sign", [1, -1])
def test_certify_both_signs_random_parameters(branch_kwargs, sign):
    """The vertical sign pairing holds for both signs and generic parameters;
    T23 prints no +-, so it refuses a sign of -1."""
    kwargs = dict(branch_kwargs, sign=sign)
    if kwargs["branch"] == Branch.T23 and sign == -1:
        with pytest.raises(ConstraintViolation, match="T23 reads no sign"):
            build_family(FamilyParams(**kwargs), f="2*s + s^3")
        return
    need_f = kwargs["branch"] in (Branch.T22, Branch.T23, Branch.T24)
    fam = build_family(
        FamilyParams(**kwargs),
        f="2*s + s^3" if need_f else None,
        phi12="z1 + sin(z0)" if kwargs["branch"] in (Branch.T22, Branch.T24) else None,
        phi="1 + z0^2" if kwargs["branch"] == Branch.T25II else None,
    )
    rep = certify(fam, samples=400, tol=1e-8)
    assert rep.verdict == "pass", rep.residuals


def _spy_rounds(monkeypatch, fam):
    """(segments, rounds): lists that fill with the jets of each guard call
    and with one entry per round of sample_envs on `fam`, that is per
    `verifier._Round` made."""
    guard, round_ = fam.sampling_guard, verifier._Round
    segments, rounds = [], []
    monkeypatch.setattr(fam, "sampling_guard", lambda env: segments.append(len(env["z0"])) or guard(env))
    monkeypatch.setattr(verifier, "_Round", lambda rng: rounds.append(1) or round_(rng))
    return segments, rounds


def test_sample_envs_equals_the_whole_draw_sampler(monkeypatch):
    """Reading each coordinate by its offset in the round's block, guarding
    z0, z1 and z2 in segments of at most _BLOCK jets and reading z3, w1 and
    v1 only over each segment's kept range gives the read coordinates of the
    whole-draw sampler bit for bit, and leaves the generator where it leaves
    it: the six presets at 1 and 1000 jets; novikov at 10^5, whose round
    runs through at least n / _BLOCK segments; a sine-Gordon window where
    the first segment falls short at 1000 jets and an extension completes
    the round; and one where about a third of each draw is accepted, so the
    draw runs out and rounds follow."""
    from references import whole_draw_sample_envs

    cases = [(name, n, (-1.0, 1.0)) for name in sorted(PRESETS) for n in (1, 1000)]
    cases += [("novikov", 100_000, (-1.0, 1.0)), ("sine-gordon", 1000, (-0.01, 0.01)),
              ("sine-gordon", 1000, (-0.0015, 0.0015))]
    seen = []
    for name, n, bounds in cases:
        fam = PRESETS[name]()
        rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
        want = whole_draw_sample_envs(fam, n, ref_rng, bounds=bounds)
        segments, rounds = _spy_rounds(monkeypatch, fam)
        got = sample_envs(fam, n, rng, bounds=bounds)
        assert list(got) == ["z0", "z1", "z2", "z3", "w1", "v1"]
        for k in got:
            assert got[k].shape == (n,) and np.array_equal(got[k].view(np.int64), want[k].view(np.int64)), (name, k)
        assert rng.random() == ref_rng.random()
        assert max(segments) <= verifier._BLOCK, (name, n)
        seen.append((len(rounds), len(segments)))
    assert seen[-3][1] >= 100_000 / verifier._BLOCK  # novikov at 10^5
    assert seen[-3][0] == seen[-2][0] == 1 and seen[-3][1] >= 2 and seen[-2][1] >= 2  # extensions
    assert seen[-1][0] >= 2  # rounds of the last case, the narrow window


def test_the_guard_evaluates_little_more_than_the_jets_kept(monkeypatch):
    """At 10^5 jets each preset's guard evaluates at most 1.15 n jets;
    guarding each round's whole draw of max(64, 2 n) evaluates 2 n."""
    n = 100_000
    for name in sorted(PRESETS):
        fam = PRESETS[name]()
        segments, rounds = _spy_rounds(monkeypatch, fam)
        sample_envs(fam, n, np.random.default_rng(9))
        assert sum(segments) <= 1.15 * n and len(rounds) == 1, (name, segments)


def _same_report(got, want):
    """Two reports equal bit for bit: the maxima (NaN included) and the failing jets."""
    assert list(got.residuals) == list(want.residuals)
    for k, v in want.residuals.items():
        assert np.float64(got.residuals[k]).view(np.int64) == np.float64(v).view(np.int64), k
    assert got.failing == want.failing and got.verdict == want.verdict


def _spy_blocks(monkeypatch):
    """A list that fills with the jets of each structure_residuals_env call,
    one per block of certify_structure."""
    residuals, sizes = structure_residuals_env, []
    monkeypatch.setattr(verifier, "structure_residuals_env",
                        lambda fam, env: sizes.append(len(env["z0"])) or residuals(fam, env))
    return sizes


def test_blocked_certify_structure_equals_the_whole_array(monkeypatch):
    """Residuals evaluated one block of at most _BLOCK jets at a time give the
    whole-array maxima and the same first ten failing jets, with global
    indices: n = 40000 is not a multiple of _BLOCK, and the bumped family's
    first ten failing jets lie in two blocks, with more failing after them."""
    from references import whole_array_certify_structure

    n = 40000
    assert n % verifier._BLOCK and n > 2 * verifier._BLOCK
    for name in sorted(PRESETS):
        fam = PRESETS[name]()
        _same_report(certify_structure(fam, samples=n), whole_array_certify_structure(fam, samples=n))
    bad = perturbed_family(novikov_preset(), 1, 1, 3e-9)
    sizes = _spy_blocks(monkeypatch)
    got = certify_structure(bad, samples=n)
    assert sum(sizes) == n and max(sizes) <= verifier._BLOCK, sizes
    _same_report(got, whole_array_certify_structure(bad, samples=n))
    blocks = {int(np.searchsorted(np.cumsum(sizes), f["index"], side="right")) for f in got.failing}
    assert got.verdict == "fail" and len(got.failing) == 10 and blocks == {0, 1}, [f["index"] for f in got.failing]
    assert list(got.failing[0]["jet"]) == ["z0", "z1", "z2", "z3", "w1", "v1"]


def test_a_nan_residual_in_a_later_block_reaches_the_report(monkeypatch):
    """np.max over the block maxima keeps a NaN that max() would drop, and
    the NaN jet is listed among the failing ones with its global index."""
    residuals, sizes = structure_residuals_env, []

    def nan_in_block_1(fam, env):
        (r1, r2, r3), scales = residuals(fam, env)
        sizes.append(len(env["z0"]))
        if len(sizes) == 2:
            r2 = r2.copy()
            r2[5] = np.nan
        return (r1, r2, r3), scales

    monkeypatch.setattr(verifier, "structure_residuals_env", nan_in_block_1)
    rep = certify_structure(novikov_preset(), samples=3 * verifier._BLOCK)
    assert len(sizes) >= 3 and sum(sizes) == 3 * verifier._BLOCK
    assert np.isnan(rep.residuals["R2_max"]) and rep.residuals["R1_max"] <= 1e-8 and rep.verdict == "fail"
    assert [jet["index"] for jet in rep.failing] == [sizes[0] + 5]
    assert np.isnan(rep.failing[0]["residuals"]["R2"])


def test_blocked_certify_structure_memory_is_at_most_half_the_whole_array():
    """At 10^5 jets the whole-array residuals hold every Dual temporary at once."""
    from references import whole_array_certify_structure

    def traced_peak(fn):
        fn(novikov_preset(), samples=100000)  # caches and compiled programs are not counted
        tracemalloc.start()
        try:
            fn(novikov_preset(), samples=100000)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak, ref = traced_peak(certify_structure), traced_peak(whole_array_certify_structure)
    assert peak <= 0.5 * ref, (peak, ref)


def test_certify_structure_never_holds_the_whole_environment():
    """Jets are sampled and certified one block at a time: at 10^5 jets the
    traced peak stays below the 6 x 8 x 10^5 bytes of the six coordinates
    of all the jets, which sampling them whole and cutting blocks from the
    result held at least twice over."""
    n = 100000
    certify_structure(novikov_preset(), samples=n)  # caches and compiled programs are not counted
    tracemalloc.start()
    try:
        certify_structure(novikov_preset(), samples=n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 8 * n, peak


_NARROW = (-0.0015, 0.0015)


@pytest.mark.parametrize("case", ["sine-gordon", "fprime", "phi12", "t25ii-phi"])
def test_every_sampled_jet_clears_its_guard(case):
    """Each guard rejects a jet just inside 1e-3 and keeps one just outside it,
    in a window where its quantity crosses zero: sine-Gordon's |sin z0|, |f'|
    for f = s^2, |phi12| for phi12 = z1, and T25ii's |phi| for phi = z0 - 1
    (there phi12 stays near 12, so only the phi guard can reject)."""
    t22 = FamilyParams(branch=Branch.T22, mu2=0.4, eta2=-1.5, sign=1)
    fam, bounds, quantity = {
        "sine-gordon": (sine_gordon_preset(), _NARROW, lambda e: np.sin(e["z0"])),
        "fprime": (build_family(t22, f="s^2", phi12="1 + z1"), _NARROW, lambda e: 2.0 * (e["z0"] - e["z2"])),
        "phi12": (build_family(t22, f="s", phi12="z1"), _NARROW, lambda e: e["z1"]),
        "t25ii-phi": (
            build_family(FamilyParams(branch=Branch.T25II, lam=-1.0, tau=0.8, mu2=-0.4, eta2=1.5, m=2.5, n=-0.3,
                                      sign=1), phi="z0 - 1"),
            (0.9985, 1.0015),
            lambda e: e["z0"] - 1.0,
        ),
    }[case]
    env = sample_envs(fam, 2000, np.random.default_rng(3), bounds=bounds)
    q = np.abs(quantity(env))
    assert np.all(q > 1e-3) and np.min(q) < 1.01e-3, np.min(q)
    lo, hi = bounds
    raw = np.random.default_rng(3).uniform(lo, hi, size=(3, 4000))
    assert np.mean(np.abs(quantity(dict(zip(("z0", "z1", "z2"), raw)))) <= 1e-3) > 0.1  # the window does cross


def test_a_guard_that_rejects_every_jet_ends_after_200_rounds(monkeypatch):
    """|sin z0| < 1e-4 everywhere on (-1e-4, 1e-4): CatalogError after exactly
    200 guard calls, and a spy stops the test at a 201st."""
    fam = sine_gordon_preset()
    guard, calls = fam.sampling_guard, []

    def spy(env):
        calls.append(1)
        if len(calls) > 200:
            pytest.fail("sample_envs ran a 201st round")
        return guard(env)

    monkeypatch.setattr(fam, "sampling_guard", spy)
    with pytest.raises(CatalogError, match="rejected too many jets"):
        sample_envs(fam, 1, np.random.default_rng(0), bounds=(-1e-4, 1e-4))
    assert len(calls) == 200


@pytest.mark.parametrize("call", [
    lambda n: sample_envs(novikov_preset(), n, np.random.default_rng(0)),
    lambda n: certify_structure(novikov_preset(), samples=n),
    lambda n: certify(novikov_preset(), samples=n),
], ids=["sample_envs", "certify_structure", "certify"])
def test_no_jets_is_a_catalog_error(call):
    """Asking for no jets ends in one CatalogError line, not in numpy's
    'need at least one array to concatenate'."""
    for n in (0, -3):
        with pytest.raises(CatalogError) as err:
            call(n)
        assert str(err.value) == f"samples must be a positive integer, got {n}"
