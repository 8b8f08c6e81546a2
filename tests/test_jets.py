"""Jet environments, total derivatives, and on-shell prolongation."""

import numpy as np
import pytest
import sympy as sp

from pss.expr import parse_expression
from pss.jets import JetError, MissingJetCoordinate, dt_env_onshell, dx_env, prolong_env


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
    F = parse_expression("z0^2*z3 + z1^3", ["z0", "z1", "z2", "z3"])
    p = jet(np.linspace(0.3, 1.0, 6), w=(0.7,), v=(0.4,))
    zt = prolong_env(p, F, 2)
    assert zt[0] == 0.7 and zt[1] == 0.4
    assert zt[2] == pytest.approx(0.7 - F(p), abs=0.0)


def test_prolong_with_zero_flux():
    F = parse_expression("0", ["z0"])
    p = jet(np.linspace(0.3, 1.0, 8), w=(0.7,), v=(0.4,))
    zt = prolong_env(p, F, 5)
    assert zt[2] == zt[4] == 0.7
    assert zt[3] == zt[5] == 0.4


def test_prolong_consistency_property():
    # z_{k+2,t} - z_{k,t} = -D_x^k F exactly as evaluated
    F = parse_expression("z0^2*z3 + z0*z1 - z2^2", ["z0", "z1", "z2", "z3"])
    rng = np.random.default_rng(3)
    for _ in range(50):
        p = jet(rng.uniform(-1, 1, 10), w=(rng.uniform(-1, 1),), v=(rng.uniform(-1, 1),))
        upto = 6
        zt = prolong_env(p, F, upto)
        # independent D_x^k F by nested total derivatives of expression trees
        from pss.jets import dx_power_values

        dxf = dx_power_values(F, p, upto - 2)
        for k in range(0, upto - 1):
            lhs = zt[k + 2] - zt[k]
            assert abs(lhs + dxf[k]) <= 1e-12 * max(1.0, abs(lhs))


def test_prolong_matches_manufactured_solution():
    # u = x^3 + x t solves u_t - u_xxt = F with F = z2/6; z_{3,t} = v1 - D_x F
    x, t = sp.symbols("x t")
    u = x**3 + x * t
    F = parse_expression("z2/6", ["z2"])
    rng = np.random.default_rng(5)
    for _ in range(20):
        xs, ts = rng.uniform(-2, 2, 2)
        p = _sympy_jets(u, xs, ts)
        zt = prolong_env(p, F, 3)
        want = float(sp.diff(sp.diff(u, x, 3), t).subs({x: xs, t: ts}))
        assert abs(zt[3] - want) <= 1e-12
        want2 = float(sp.diff(sp.diff(u, x, 2), t).subs({x: xs, t: ts}))
        assert abs(zt[2] - want2) <= 1e-12


def test_dt_onshell_examples():
    F = parse_expression("z0^2*z3 + z1", ["z0", "z1", "z2", "z3"])
    p = jet(np.linspace(0.2, 0.9, 6), w=(0.7,), v=(0.4,))
    h0 = parse_expression("z0", ["z0"])
    h1 = parse_expression("z1", ["z1"])
    h2 = parse_expression("z2", ["z2"])
    zt = prolong_env(p, F, 2)
    assert dt_env_onshell(h0, p, zt)[1] == 0.7
    assert dt_env_onshell(h1, p, zt)[1] == 0.4
    assert dt_env_onshell(h2, p, zt)[1] == pytest.approx(0.7 - F(p), abs=0.0)


def test_dt_onshell_w_chain():
    # h depending on w1 pulls in w2
    h = parse_expression("w1^2", ["w1"])
    F = parse_expression("0", ["z0"])
    p = jet((1.0, 2.0), w=(3.0, 4.0), v=(0.5,))
    assert dt_env_onshell(h, p, prolong_env(p, F, 0))[1] == 2.0 * 3.0 * 4.0
    q = jet((1.0,), w=(3.0,), v=(0.5,))
    with pytest.raises(MissingJetCoordinate):
        dt_env_onshell(h, q, prolong_env(q, F, 0))
