"""Jet coordinates, exact total derivatives, and on-shell prolongation.

A jet environment is a dict mapping the coordinate names x, t, z0..zK,
w1..wM, v1..vN to floats or to arrays of one shape (one jet per element),
where z_i is the i-th x-derivative of u, w_j the j-th t-derivative of u
and v_k the k-th t-derivative of u_x (z_0 = u and z_1 = v_0 = u_x are the
shared identifications; v_0 is never stored separately).

The total x-derivative of a differential function h is

    D_x h = h_x + sum_i h_{z_i} z_{i+1}

plus, in principle, h_{w_j} w_{j,x} and h_{v_k} v_{k,x} terms.  Values for
those mixed coordinates are never available off-shell, so operations here
reject expressions that depend on w_j or v_k rather than guess.

On-shell (u_t - u_xxt = F with F = F(z_0..z_3)) the mixed derivatives of
the z-coordinates follow the prolongation rule

    z_{2q,t}   = z_{0,t} - sum_{i<q} D_x^{2i} F,
    z_{2q+1,t} = z_{1,t} - sum_{i<q} D_x^{2i+1} F,

with z_{0,t} = w_1 and z_{1,t} = v_1.
"""

from __future__ import annotations

from . import dual

__all__ = [
    "JetError",
    "MissingJetCoordinate",
    "JetFunction",
    "partials",
    "dx_env",
    "dt_env_onshell",
    "prolong_env",
]


class JetError(ValueError):
    pass


class MissingJetCoordinate(JetError):
    pass


class JetFunction:
    """A callable over a jet environment with a declared variable set."""

    def __init__(self, fn, free, name=""):
        self._fn = fn
        self.free = frozenset(free)
        self.name = name

    def __call__(self, env):
        return self._fn(env)

    def __repr__(self):
        return f"JetFunction({self.name or '?'})"


def _free_of(h):
    free = getattr(h, "free", None)
    if free is None:
        raise TypeError("expected an Expression or JetFunction with a .free set")
    return free


def _zindex(name):
    if name[0] == "z" and name[1:].isdigit():
        return int(name[1:])
    return None


def _require(env, name):
    if name not in env:
        raise MissingJetCoordinate(f"jet coordinate {name} is required but absent")
    return env[name]


def partials(h, env, names):
    """First partials of h with respect to `names` on an environment, by name."""
    for nm in names:
        _require(env, nm)
    lvl, seeded = dual.seed(env, names)
    _, grads = dual.value_grad(h(seeded), lvl, len(names))
    return dict(zip(names, grads))


# ----------------------------------------------------------------------
# Total derivatives on plain environments (scalars or arrays)


def _reject_mixed(free, what):
    bad = sorted(nm for nm in free if nm[0] in "wv" and nm[1:].isdigit())
    if bad:
        raise JetError(
            f"{what} of an expression depending on {bad} needs off-shell "
            "w_j,x / v_k,x values, which are never available; rejected"
        )


def dx_env(h, env):
    """D_x h evaluated on an environment."""
    free = _free_of(h)
    _reject_mixed(free, "total x-derivative")
    names = [nm for nm in free if nm == "x" or _zindex(nm) is not None]
    if "x" not in names:
        names.append("x")
    names.sort()
    by = partials(h, {"x": 0.0, **env}, names)
    out = by.get("x", 0.0)
    for nm in names:
        i = _zindex(nm)
        if i is not None:
            g = by[nm]
            if isinstance(g, float) and g == 0.0:
                continue
            out = out + g * _require(env, f"z{i + 1}")
    return out


def _dx_function(h):
    """D_x as an operator: returns a JetFunction one jet order higher."""
    free = _free_of(h)
    _reject_mixed(free, "total x-derivative")
    new_free = set(free) | {"x"}
    for nm in free:
        i = _zindex(nm)
        if i is not None:
            new_free.add(f"z{i + 1}")
    return JetFunction(lambda env: dx_env(h, env), new_free, name=f"Dx({getattr(h, 'name', '?')})")


def dx_power_values(F, env, kmax):
    """Values of F, D_x F, ..., D_x^kmax F on an environment."""
    out = []
    fn = F
    for _ in range(kmax + 1):
        out.append(fn(env))
        fn = _dx_function(fn)
    return out


def prolong_env(env, F, upto):
    """On-shell z_{k,t} for k = 0..upto as a list, on an environment."""
    if upto < 0:
        raise JetError("prolongation order must be >= 0")
    zt = [_require(env, "w1")]
    if upto >= 1:
        zt.append(_require(env, "v1"))
    if upto >= 2:
        dxf = dx_power_values(F, env, max(0, upto - 2))
        acc_even = 0.0
        acc_odd = 0.0
        for k in range(2, upto + 1):
            if k % 2 == 0:
                acc_even = acc_even + dxf[k - 2]
                zt.append(zt[0] - acc_even)
            else:
                acc_odd = acc_odd + dxf[k - 2]
                zt.append(zt[1] - acc_odd)
    return zt


def dt_env_onshell(h, env, zt):
    """D_t h on an environment, given the mixed derivatives zt[k] = z_{k,t}."""
    free = _free_of(h)
    names = sorted(free | {"t"})
    by = partials(h, {"t": 0.0, **env}, names)
    out = by.get("t", 0.0)
    for nm in names:
        g = by[nm]
        if isinstance(g, float) and g == 0.0:
            continue
        i = _zindex(nm)
        if i is not None:
            if i >= len(zt):
                raise MissingJetCoordinate(f"prolongation does not reach z{i},t")
            out = out + g * zt[i]
        elif nm[0] == "w" and nm[1:].isdigit():
            out = out + g * _require(env, f"w{int(nm[1:]) + 1}")
        elif nm[0] == "v" and nm[1:].isdigit():
            out = out + g * _require(env, f"v{int(nm[1:]) + 1}")
    return out
