"""Reference functions and checks that several test modules compare against.

None of these is used by the `pss` command line or its reports, so they
live with the tests: the closed-form sine-Gordon kink, the forward
Helmholtz operator, the b-ODE back-substitution residual, the discrete
z_{k,t} of a marched field and a family with one f_ij bumped.
"""

import copy

import numpy as np

from pss.catalog import CatalogError
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
