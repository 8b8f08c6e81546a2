"""Jet coordinates and the exact total derivatives the coframe needs.

A jet environment is a dict mapping the jet coordinate names z0..zK,
w1..wM, v1..vN to floats or to arrays of one shape (one jet per element),
where z_i is the i-th x-derivative of u, w_j the j-th t-derivative of u
and v_k the k-th t-derivative of u_x (z_0 = u and z_1 = v_0 = u_x are the
shared identifications; v_0 is never stored separately).  The position
(x, t) of a jet is not in it: no coframe entry reads one.

The coframe entries f_ij read z0, z1, z2 only, so the total derivatives
here take functions of the z_i alone: D_x h = sum_i h_{z_i} z_{i+1} and
D_t h = sum_i h_{z_i} z_{i,t}, the on-shell z_{i,t} given by the caller
(`Family.zt`, in closed form up to z_{2,t}).  A function of x, t, w_j or
v_k is refused: no entry reads one, and the w_j,x and v_k,x that D_x
would need are never available off-shell.
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


def _zindex(name):
    if name[0] == "z" and name[1:].isdigit():
        return int(name[1:])
    return None


def _require(env, name):
    if name not in env:
        raise MissingJetCoordinate(f"jet coordinate {name} is required but absent")
    return env[name]


def partials(h, env, names):
    """(value, partials): h and its first partials with respect to `names`
    on an environment, by name, from one seeding; the value is the seeding's
    primal, the same bits as h(env).  For a tuple-valued h (a coframe column)
    the value is a tuple and there is one dict of partials per component."""
    for nm in names:
        _require(env, nm)
    lvl, seeded = dual.seed(env, names)
    out = h(seeded)
    if isinstance(out, tuple):
        pairs = [dual.value_grad(o, lvl, len(names)) for o in out]
        return tuple(v for v, _ in pairs), tuple(dict(zip(names, g)) for _, g in pairs)
    value, grads = dual.value_grad(out, lvl, len(names))
    return value, dict(zip(names, grads))


# ----------------------------------------------------------------------
# Total derivatives on plain environments (scalars or arrays)


def _chain(by, rate):
    """0.0 plus, in the order of the partials `by` (a dict, or one dict per
    component of a column), each partial by z_i times rate(i), skipping the
    partials that are an exact Python-float zero."""
    if isinstance(by, tuple):
        return tuple(_chain(b, rate) for b in by)
    out = 0.0
    for nm, g in by.items():
        if isinstance(g, float) and g == 0.0:
            continue
        out = out + g * rate(_zindex(nm))
    return out


def _total(h, env, rate):
    """(h, sum_i h_{z_i} * rate(i)) from one seeding of the z_i that h reads."""
    bad = sorted(nm for nm in h.free if _zindex(nm) is None)
    if bad:
        raise JetError(f"total derivative of a function of {bad}: only z_i have rates (w_j,x, v_k,x are off-shell)")
    value, by = partials(h, env, sorted(h.free))
    return value, _chain(by, rate)


def dx_env(h, env):
    """(h, D_x h) evaluated on an environment, seeding only the coordinates h
    reads; for a column, both for each component from one seeding."""
    return _total(h, env, lambda i: _require(env, f"z{i + 1}"))


def dt_env_onshell(h, env, zt):
    """(h, D_t h) on an environment, given the mixed derivatives
    zt[k] = z_{k,t}, seeding only the coordinates h reads; for a column,
    both for each component from one seeding."""

    def rate(i):
        if i >= len(zt):
            raise MissingJetCoordinate(f"prolongation does not reach z{i},t")
        return zt[i]

    return _total(h, env, rate)
