"""Reference functions and checks that several test modules compare against.

None of these is used by the `pss` command line or its reports, so they
live with the tests: the closed-form sine-Gordon kink, the forward
Helmholtz operator, the b-ODE back-substitution residual, the discrete
z_{k,t} of a marched field, a family with one f_ij bumped and the frame
march as tuple RK4.
"""

import copy

import numpy as np

from pss.catalog import CatalogError
from pss.frames import _coefficients, _stage_abscissae
from pss.immersion import Representation
from pss.jets import JetFunction
from pss.pde import PdeError, periodic_derivative


def jet_at(field, x, t, order):
    """One-jet environment of floats {x, t, z0..z_order, w1, v1} sampled from the field at (x, t)."""
    env = field.sample_env(np.array([x]), t, order)
    return {nm: float(np.atleast_1d(v)[0]) for nm, v in env.items()}


def helmholtz_apply(grid, u):
    """(1 - dxx) u on the periodic grid, spectral: the operator `pde.helmholtz_invert` inverts."""
    k = grid.wavenumbers()
    return np.fft.irfft(np.fft.rfft(u) * (1.0 + k * k), n=grid.nx)


def exact_sine_gordon_kink(eta, x, t):
    """One-soliton u = 4 arctan exp(eta x + t/eta); branch-stable for large args."""
    th = eta * np.asarray(x, dtype=float) + np.asarray(t, dtype=float) / eta
    pos = th >= 0
    out = np.where(
        pos,
        2.0 * np.pi - 4.0 * np.arctan(np.exp(-np.abs(th))),
        4.0 * np.arctan(np.exp(-np.abs(th))),
    )
    return out if out.shape else float(out)


def discrete_zt_env(field, t, upto):
    """Mixed derivatives z_{k,t} measured from the stored snapshots of a NUMERIC field.

    Time slopes are centered (2nd order) where possible; the returned
    arrays are indexed by grid node.  They quantify how well the march
    satisfies the equation.
    """
    if field.kind != "NUMERIC":
        raise PdeError("discrete z_{k,t} applies to NUMERIC fields")
    j = int(np.argmin(np.abs(field.times - t)))
    if abs(field.times[j] - t) > 1e-8 * max(1.0, abs(t)):
        raise PdeError(f"no stored snapshot near t = {t}")
    du = field._time_slopes()[j]
    acc = int(field.provenance.get("space_accuracy", 4))
    return [periodic_derivative(du, field.grid.dx, k, acc=acc) if k else du for k in range(upto + 1)]


def fd6(y, h):
    """Sixth-order centered first derivative of samples y at spacing h (3 points lost at each end)."""
    return (-y[:-6] + 9 * y[1:-5] - 45 * y[2:-4] + 45 * y[4:-2] - 9 * y[5:-1] + y[6:]) / (60 * h)


def trim(trip, m=3):
    """The ODE-table triple with m table points cut from each end."""
    out = copy.copy(trip)
    out.s, out.b, out.bprime = trip.s[m:-m], trip.b[m:-m], trip.bprime[m:-m]
    out.validity = (out.s[0], out.s[-1])
    return out


def ode_backsubstitution_residuals(trip, bprime=None):
    """Residual of the displayed b-ODE along the marched table.

    Moves every term to one side; `bprime` defaults to the stored slopes
    (pass a finite-difference estimate to make this an independent check).
    The scale max(1, |terms|_inf) divides the result.
    """
    if trip.representation != Representation.ODE_TABLE:
        raise CatalogError("back-substitution applies to ODE-table triples")
    s, b = trip.s, trip.b
    bp = trip.bprime if bprime is None else np.asarray(bprime)
    mu2, k, r, sg, rho = trip.mu2, trip.k, trip.a_sign, trip.sign, trip.rho
    phi, delta, E = trip.phi_delta(s, b)
    sq = np.sqrt(delta)
    bracket = mu2 * (mu2**2 + 1.0) * sq + r * (mu2**2 + 1.0) ** 2 * b - r * (mu2**2 - 1.0) * trip.beta * E
    second = (2.0 * rho / k) * (
        -sg * mu2 * (mu2**2 + 1.0) * sq * b
        - r * sg * (mu2**2 - 1.0) * trip.beta * E * b
        + r * sg * trip.beta**2 * E * E
    )
    res = bp * bracket + second
    scale = np.maximum(1.0, np.maximum(np.abs(bp * bracket), np.abs(second)))
    return res / scale


def perturbed_family(fam, i, j, eps=1e-3):
    """A copy of `fam` with f_ij bumped by eps; used to prove the detector sees broken families."""
    orig = fam.fij_fns[(i, j)]

    def bumped(env):
        return orig(env) + eps

    out = copy.copy(fam)
    out.name = f"{fam.name}+eps{(i, j)}"
    out.fij_fns = {**fam.fij_fns, (i, j): JetFunction(bumped, orig.free, f"{orig.name}+eps")}
    return out


# ----------------------------------------------------------------------
# The frame march as tuple RK4: the state (r, e1, e2, e3) is advanced by
# evaluating the right-hand side four times per step.  frames._sweep builds
# the same RK4 step as one 4x4 matrix per step and column instead.


def _apply(coeffs, r, e1, e2, e3):
    w1, w2, w3, w13, w23 = (np.asarray(cc)[..., None] for cc in coeffs)
    dr = w1 * e1 + w2 * e2
    de1 = w3 * e2 + w13 * e3
    de2 = -w3 * e1 + w23 * e3
    de3 = -w13 * e1 - w23 * e2
    return dr, de1, de2, de3


def _rk4_step(c0, ch, c1, state, h):
    """One classical RK4 step from coefficient sets sampled at abscissae 0, h/2 and h."""
    r, e1, e2, e3 = state
    k1 = _apply(c0, r, e1, e2, e3)
    k2 = _apply(ch, *(s + 0.5 * h * k for s, k in zip(state, k1)))
    k3 = _apply(ch, *(s + 0.5 * h * k for s, k in zip(state, k2)))
    k4 = _apply(c1, *(s + h * k for s, k in zip(state, k3)))
    return tuple(
        s + (h / 6.0) * (a + 2.0 * b + 2.0 * c + d)
        for s, a, b, c, d in zip(state, k1, k2, k3, k4)
    )


def _identity_state(n):
    eye = np.eye(3)
    return (
        np.zeros((n, 3)),
        np.tile(eye[0], (n, 1)),
        np.tile(eye[1], (n, 1)),
        np.tile(eye[2], (n, 1)),
    )


def tuple_rk4_sweep(fam, trip, field, xs, ts, spine):
    """March the spine then all transverse lines; returns (r, e1, e2, e3) arrays.

    Output layout is always (len(xs), len(ts), 3); `spine` picks the path as
    in frames._sweep, and the coefficients come from the same two field calls.
    """
    if spine == "x":
        spine_grid, cross_grid, spine_col, cross_col = xs, ts, 1, 2
    else:
        spine_grid, cross_grid, spine_col, cross_col = ts, xs, 2, 1
    out = tuple(np.empty((len(spine_grid), len(cross_grid), 3)) for _ in range(4))

    def coefficients(along, across, column):
        # (x, t) in field order from a spine-direction and a cross-direction abscissa
        x, t = (along, across) if spine == "x" else (across, along)
        return _coefficients(fam, trip, field, x, t, column)

    coef = coefficients(_stage_abscissae(spine_grid), cross_grid[0], spine_col)
    state = _identity_state(1)
    spine_states = [state]
    for i, h in enumerate(np.diff(spine_grid)):
        state = _rk4_step(*(tuple(cc[i, k] for cc in coef) for k in range(3)), state, h)
        spine_states.append(state)
    state = tuple(np.concatenate([s[q] for s in spine_states]) for q in range(4))
    for q in range(4):
        out[q][:, 0] = state[q]
    coef = coefficients(spine_grid, _stage_abscissae(cross_grid)[:, :, None], cross_col)
    for j, h in enumerate(np.diff(cross_grid)):
        state = _rk4_step(*(tuple(cc[j, k] for cc in coef) for k in range(3)), state, h)
        for q in range(4):
            out[q][:, j + 1] = state[q]
    return out if spine == "x" else tuple(np.swapaxes(o, 0, 1) for o in out)
