"""Jet environments, total derivatives, and the on-shell z_{k,t} up to k = 2."""

from types import SimpleNamespace

import numpy as np
import pytest
import sympy as sp

from pss.expr import parse_expression
from pss.catalog import Family, novikov_preset, sine_gordon_preset
from pss.jets import JetError, MissingJetCoordinate, dt_env_onshell, dx_env


def jet(z, w=(0.5,), v=(0.25,), x=0.0, t=0.0):
    """Jet environment {x, t, z0.., w1.., v1..} of one point."""
    env = {"x": x, "t": t}
    env.update({f"z{i}": zi for i, zi in enumerate(z)})
    env.update({f"w{j}": wj for j, wj in enumerate(w, start=1)})
    env.update({f"v{k}": vk for k, vk in enumerate(v, start=1)})
    return env


def test_eval_with_partials_reports_domain_violation():
    from pss.expr import DomainError

    e = parse_expression("1/z1", ["z1"])
    with pytest.raises(DomainError):
        e.with_partials(jet([1.0, 0.0]))


def test_dx_of_z0_is_z1():
    e = parse_expression("z0", ["z0"])
    assert dx_env(e, jet([1.0, 2.0]))[1] == 2.0


def test_dx_product_hand_value():
    # D_x(z0*z1) = z1^2 + z0*z2 = 4 + 3 = 7 at (1, 2, 3)
    e = parse_expression("z0*z1", ["z0", "z1"])
    assert dx_env(e, jet([1.0, 2.0, 3.0]))[1] == 7.0


def test_dx_linearity():
    e = parse_expression("z0 - z2", ["z0", "z2"])
    p = jet([1.0, 2.0, 3.0, 4.0])
    assert dx_env(e, p)[1] == p["z1"] - p["z3"]


def test_dx_needs_one_more_order():
    e = parse_expression("z2", ["z2"])
    with pytest.raises(MissingJetCoordinate):
        dx_env(e, jet([1.0, 2.0, 3.0]))


def test_dx_rejects_mixed_coordinates():
    e = parse_expression("w1 + z0", ["w1", "z0"])
    with pytest.raises(JetError, match="off-shell"):
        dx_env(e, jet([1.0, 2.0]))
    e2 = parse_expression("v1*z0", ["v1", "z0"])
    with pytest.raises(JetError, match="off-shell"):
        dx_env(e2, jet([1.0, 2.0]))


def test_dx_is_a_derivation():
    h = parse_expression("sin(z0) + z1^2", ["z0", "z1"])
    g = parse_expression("z2*z0", ["z0", "z2"])
    hg = parse_expression("(sin(z0) + z1^2)*(z2*z0)", ["z0", "z1", "z2"])
    rng = np.random.default_rng(7)
    for _ in range(100):
        p = jet(rng.uniform(-1, 1, 5))
        lhs = dx_env(hg, p)[1]
        rhs = h(p) * dx_env(g, p)[1] + g(p) * dx_env(h, p)[1]
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


# ----------------------------------------------------------------------
# Manufactured-solution oracle: jets sampled from u(x, t) analytically.


def _sympy_jets(u, xs, ts, K=7, M=2, N=2):
    x, t = sp.symbols("x t")
    z = [float(sp.diff(u, x, i).subs({x: xs, t: ts})) for i in range(K + 1)]
    w = [float(sp.diff(u, t, j).subs({x: xs, t: ts})) for j in range(1, M + 1)]
    v = [float(sp.diff(sp.diff(u, x), t, k).subs({x: xs, t: ts})) for k in range(1, N + 1)]
    return jet(z, w, v, x=xs, t=ts)


def test_total_derivative_x_matches_symbolic_chain_rule():
    # u a bivariate polynomial of bidegree (6, 2); D_x h == d/dx (h o jet(u))
    x, t = sp.symbols("x t")
    u = (x**6 - 2 * x**3 + x) * (1 + t + t**2) / 10
    h = parse_expression("z0*z2 + sin(z1)", ["z0", "z1", "z2"])
    z = [sp.diff(u, x, i) for i in range(4)]
    h_sym = z[0] * z[2] + sp.sin(z[1])
    dh_dx = sp.diff(h_sym, x)
    rng = np.random.default_rng(11)
    for _ in range(25):
        xs, ts = rng.uniform(-1, 1, 2)
        p = _sympy_jets(u, xs, ts)
        got = dx_env(h, p)[1]
        want = float(dh_dx.subs({x: xs, t: ts}))
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_prolong_onshell_low_orders():
    fam = novikov_preset()
    p = jet(np.linspace(0.3, 1.0, 6), w=(0.7,), v=(0.4,))
    zt = fam.zt(p, 2)
    assert zt[0] == 0.7 and zt[1] == 0.4
    assert zt[2] == pytest.approx(0.7 - fam.F_fn(p), abs=0.0)
    assert fam.zt(p, 1) == zt[:2] and fam.zt(p, 0) == zt[:1]


def test_prolong_matches_manufactured_solution():
    # u = x^3 + x t solves u_t - u_xxt = F with F = z2/6, and the kink
    # u = 4 atan(exp(2x + t/2)) solves u_xt = sin(u): z_{2,t} = u_xxt for both
    x, t = sp.symbols("x t")
    flux = SimpleNamespace(is_form7=True, F_fn=parse_expression("z2/6", ["z2"]))
    cases = [(x**3 + x * t, lambda p: Family.zt(flux, p, 2)),
             (4 * sp.atan(sp.exp(2 * x + t / 2)), lambda p: sine_gordon_preset().zt(p, 2))]
    rng = np.random.default_rng(5)
    for u, zt_of in cases:
        z = [sp.lambdify((x, t), sp.diff(u, x, i)) for i in range(4)]
        zt_want = [sp.lambdify((x, t), sp.diff(u, x, k, t)) for k in range(3)]
        for _ in range(20):
            xs, ts = rng.uniform(-2, 2, 2)
            p = jet([zi(xs, ts) for zi in z], w=(zt_want[0](xs, ts),), v=(zt_want[1](xs, ts),), x=xs, t=ts)
            zt = zt_of(p)
            for k in range(3):
                assert abs(zt[k] - zt_want[k](xs, ts)) <= 1e-12, k


def test_dt_onshell_examples():
    F = parse_expression("z0^2*z3 + z1", ["z0", "z1", "z2", "z3"])
    p = jet(np.linspace(0.2, 0.9, 6), w=(0.7,), v=(0.4,))
    h0 = parse_expression("z0", ["z0"])
    h1 = parse_expression("z1", ["z1"])
    h2 = parse_expression("z2", ["z2"])
    zt = [0.7, 0.4, 0.7 - F(p)]
    assert dt_env_onshell(h0, p, zt)[1] == 0.7
    assert dt_env_onshell(h1, p, zt)[1] == 0.4
    assert dt_env_onshell(h2, p, zt)[1] == pytest.approx(0.7 - F(p), abs=0.0)
    with pytest.raises(MissingJetCoordinate, match="z2,t"):
        dt_env_onshell(h2, p, zt[:2])


def test_dt_onshell_w_chain():
    # a function of w1 (or of x) is refused: no coframe entry reads one, and
    # its w1 must not be taken for a z_i
    p = jet((1.0, 2.0), w=(3.0, 4.0), v=(0.5,))
    for src, names in [("w1^2", ["w1"]), ("x*z0", ["x", "z0"]), ("t + z1", ["t", "z1"])]:
        h = parse_expression(src, names)
        with pytest.raises(JetError, match="off-shell") as info:
            dt_env_onshell(h, p, [3.0, 0.5])
        assert not isinstance(info.value, MissingJetCoordinate) and "\n" not in str(info.value)
        with pytest.raises(JetError, match="off-shell"):
            dx_env(h, p)
