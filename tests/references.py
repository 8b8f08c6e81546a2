"""Reference functions and checks that several test modules compare against.

None of these is used by the `pss` command line or its reports, so they
live with the tests: the closed-form sine-Gordon kink, the forward
Helmholtz operator, the b-ODE back-substitution residual, the discrete
z_{k,t} of a marched field, a family with one f_ij bumped, the second
fundamental form of a triple in the coordinates x, t, the frame march as
tuple RK4 and the frame integration that sampled the field in
five calls, the b-ODE slope on arrays, the coframe as six per-entry closures with the
former x/t-seeded total derivatives and order-2 prolongation, and the
b-ODE march, jet sampler and CSV writer that recompute what their
successors reuse, the structure certification on all jets at once, and
the former nestable dual with its seeding (the tower of levels that the
compiled partials are checked against), the method-of-lines march and
stencil derivative with numpy's allocating calls (fresh FFT outputs,
np.roll shifts), and the hook that builds families over sympy jets with
exact constants.
"""

import copy
import math

import numpy as np

from pss import catalog, dual, immersion
from pss.catalog import (
    Branch,
    CatalogError,
    Family,
    FPrimeZero,
    PhiZero,
    _check_nonzero,
    _f_and_prime,
    _phi12_parts,
    _uni_derivs,
    delta,
)
from pss.frames import (
    DRIFT_THRESHOLD,
    FrameDriftError,
    SurfaceMesh,
    _BLOCK,
    _generators,
    _orthonormality_drift,
    _stage_abscissae,
    discrete_gaussian_curvature,
    first_form_coefficients,
)
from pss.immersion import (
    DELTA_MIN,
    DENOM_MIN,
    DenominatorCollapse,
    DiscriminantCollapse,
    Representation,
)
from pss.jets import (
    JetError,
    JetFunction,
    MissingJetCoordinate,
    _require,
    _zindex,
    partials,
)
from pss.pde import (
    BLOWUP_CAP,
    CFL_COEFFICIENT,
    BlowUpError,
    CflError,
    PdeError,
    _central_stencil,
    cumulative_integral,
    periodic_derivative,
    step_count,
)
from pss.verifier import DEFAULT_SEED, VerificationReport, sample_envs, structure_residuals_env


def jet_at(field, x, t, order):
    """One-jet environment of floats {z0..z_order, w1, v1} sampled from the field at (x, t)."""
    env = field.sample_env(np.array([x]), t, order)
    return {nm: float(np.atleast_1d(v)[0]) for nm, v in env.items()}


def wavenumbers(grid):
    """The angular wavenumbers of np.fft.rfft on the periodic grid."""
    return 2.0 * np.pi * np.fft.rfftfreq(grid.nx, d=1.0 / grid.nx) / (grid.x_max - grid.x_min)


def helmholtz_apply(grid, u):
    """(1 - dxx) u on the periodic grid, spectral: the operator `pde.helmholtz_invert` inverts."""
    k = wavenumbers(grid)
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
    phi, delta, E = FreshStageMarch(trip).phi_delta(s, b)
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


def table_slope(trip, s, b):
    """b'(s) of an ODE-table triple on arrays or numpy scalars, the former
    `_OdeForm.g` (the march now keeps the slopes it checks)."""
    return trip._slope(s, b, np.exp(trip.ce * s))[3]


def columns(fam, env):
    """The values of both coframe columns of `fam` on a jet environment."""
    return fam.column(1)(env), fam.column(2)(env)


def second_form_coefficients(abc, col1, col2):
    """(a1, a2, a3) of II from the triple values (a, b, c) and the column values."""
    a, b, c = abc
    (f11, f21, _), (f12, f22, _) = col1, col2
    a1 = a * f11 * f11 + 2.0 * b * f11 * f21 + c * f21 * f21
    a2 = a * f11 * f12 + b * (f11 * f22 + f21 * f12) + c * f21 * f22
    a3 = a * f12 * f12 + 2.0 * b * f12 * f22 + c * f22 * f22
    return a1, a2, a3


def perturbed_family(fam, i, j, eps=1e-3):
    """A copy of `fam` with f_ij bumped by eps; used to prove the detector sees broken families."""
    orig = fam.column(j)

    def bumped(env):
        col = orig(env)
        return col[:i - 1] + (col[i - 1] + eps,) + col[i:]

    out = copy.copy(fam)
    out.name = f"{fam.name}+eps{(i, j)}"
    out.columns = {**fam.columns, j: JetFunction(bumped, orig.free, f"{orig.name}+eps")}
    return out


# ----------------------------------------------------------------------
# The frame integration as it was before it sampled each point once: each
# of the two sweeps samples the field in a call for its spine, shape
# (steps, 3), and one for its transverse steps, shape (steps, 3, n), and a
# fifth call over the whole mesh gives the forms and Delta12, so a node or
# stage abscissa shared by two calls is sampled in each.  The functions are
# the former `frames` ones, moved unchanged; `former_integrate_frame` takes
# the sweep as a parameter so that the tuple RK4 below can stand in for it.


def _coefficients(fam, trip, field, x, t, column):
    """Pullback coefficients (w1, w2, w3, w13, w23) along dx (column 1) or dt (column 2),
    each in the broadcast shape of x and t."""
    x, t = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(t, dtype=float))
    env = field.sample_env(x, t, 2)
    a, b, c = trip.values(env, x, t)
    f1, f2, f3 = fam.column(column)(env)
    w13 = a * f1 + b * f2
    w23 = b * f1 + c * f2
    return tuple(np.broadcast_to(cc, x.shape) for cc in (f1, f2, f3, w13, w23))


def _former_march(coef, hs, Y):
    """Y[k + 1] = P_k Y[k] for every step k, from the stage coefficients `coef`,
    each (steps, 3, ...), and the step sizes `hs`; Y[k] is (..., 4, 3)."""
    for k0 in range(0, len(hs), _BLOCK):
        A = _generators([c[k0:k0 + _BLOCK] for c in coef])
        h = np.reshape(hs[k0:k0 + _BLOCK], (-1,) + (1,) * (A.ndim - 2))
        A0, Ah, A1 = A[:, 0], A[:, 1], A[:, 2]
        K2 = Ah + 0.5 * h * (Ah @ A0)
        K3 = Ah + 0.5 * h * (Ah @ K2)
        K4 = A1 + h * (A1 @ K3)
        P = np.eye(4) + h / 6.0 * (A0 + 2.0 * K2 + 2.0 * K3 + K4)
        for k, Pk in enumerate(P, k0):
            np.matmul(Pk, Y[k], out=Y[k + 1])


def former_sweep(fam, trip, field, xs, ts, spine):
    """March the spine then all transverse lines; returns the state Y.

    Y has the layout (len(xs), len(ts), 4, 3), rows r, e1, e2, e3 along its
    third axis; `spine` picks the path: "x" integrates x first along
    t = ts[0], "t" integrates t first along x = xs[0] (used only to measure
    the path-independence gap).  The spine's stage coefficients come from
    one field call, shape (steps, 3), and those of every transverse step
    from one more, shape (steps, 3, n).
    """
    if spine == "x":
        spine_grid, cross_grid, spine_col, cross_col = xs, ts, 1, 2
    else:
        spine_grid, cross_grid, spine_col, cross_col = ts, xs, 2, 1

    def coefficients(along, across, column):
        # (x, t) in field order from a spine-direction and a cross-direction abscissa
        x, t = (along, across) if spine == "x" else (across, along)
        return _coefficients(fam, trip, field, x, t, column)

    Y = np.zeros((len(spine_grid), len(cross_grid), 4, 3))
    Y[0, 0, 1:] = np.eye(3)
    coef = coefficients(_stage_abscissae(spine_grid), cross_grid[0], spine_col)
    _former_march(coef, np.diff(spine_grid), Y[:, 0])
    coef = coefficients(spine_grid, _stage_abscissae(cross_grid)[:, :, None], cross_col)
    _former_march(coef, np.diff(cross_grid), np.swapaxes(Y, 0, 1))
    return Y if spine == "x" else np.swapaxes(Y, 0, 1)


def former_integrate_frame(fam, trip, field, origin, steps, h, sweep=former_sweep):
    """March the frame over a (steps_x+1) x (steps_t+1) grid from `origin`."""
    x0, t0 = origin
    sx, st = (steps, steps) if np.isscalar(steps) else steps
    hx, ht = (h, h) if np.isscalar(h) else h
    xs = x0 + hx * np.arange(sx + 1)
    ts = t0 + ht * np.arange(st + 1)

    r, e1, e2, e3 = np.moveaxis(sweep(fam, trip, field, xs, ts, spine="x"), 2, 0)
    diag = {}
    if sx > 0 and st > 0:
        r2 = sweep(fam, trip, field, xs, ts, spine="t")[..., 0, :]
        diag["compat_max"] = float(np.max(np.linalg.norm(r - r2, axis=-1)))
    else:
        diag["compat_max"] = 0.0

    drift = _orthonormality_drift(e1, e2, e3)
    if drift > DRIFT_THRESHOLD:
        raise FrameDriftError(
            f"orthonormality drift {drift:.3e} exceeds {DRIFT_THRESHOLD:.1e}; use a finer --grid"
        )
    diag["drift_max"] = drift

    # vertex diagnostics, from one field call over the mesh
    X, T = np.meshgrid(xs, ts, indexing="ij")
    env = field.sample_env(X, T, 2)
    cols = fam.column(1)(env), fam.column(2)(env)
    E, F, G = first_form_coefficients(*cols)
    d12 = np.abs(np.broadcast_to(delta(*cols, 1, 2), X.shape))
    del cols  # six mesh-sized arrays that would otherwise stay live through the curvature pass
    diag["degenerate_vertices"] = int(np.count_nonzero(d12 == 0.0))
    diag["delta12_min"] = float(np.min(d12))

    detI = np.broadcast_to(E * G - F ** 2, X.shape)
    diag["I_det_min"] = float(np.min(detI[1:-1, 1:-1])) if min(sx, st) >= 2 else float(np.min(detI))

    mesh = SurfaceMesh(xs=xs, ts=ts, r=r, e3=e3, diagnostics=diag)
    mesh.K = discrete_gaussian_curvature(r)
    inner = mesh.interior_K()
    if inner.size:
        good = inner[np.isfinite(inner)]
        diag["K_min"] = float(np.min(good)) if good.size else float("nan")
        diag["K_max"] = float(np.max(good)) if good.size else float("nan")
        diag["K_mean"] = float(np.mean(good)) if good.size else float("nan")
    return mesh


# ----------------------------------------------------------------------
# The frame march as tuple RK4: the state (r, e1, e2, e3) is advanced by
# evaluating the right-hand side four times per step.  former_sweep and
# frames._sweep build the same RK4 step as one 4x4 matrix per step and
# column instead.


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
    in former_sweep, and the coefficients come from the same two field calls.
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


# ----------------------------------------------------------------------
# frames._triangles as four index copies, two stacks and a concatenate.


def stacked_triangles(nx, nt):
    """The a-b-c then a-c-d triangles of the quads a, b, c, d of an nx x nt
    grid, each corner an index copy, stacked and concatenated."""
    idx = np.arange(nx * nt).reshape(nx, nt)
    a = idx[:-1, :-1].ravel()
    b = idx[1:, :-1].ravel()
    c = idx[1:, 1:].ravel()
    d = idx[:-1, 1:].ravel()
    return np.concatenate([np.stack([a, b, c], 1), np.stack([a, c, d], 1)])


# ----------------------------------------------------------------------
# The coframe as six per-entry closures, as `catalog` built it before it
# evaluated the coframe by columns: every f_i2 calls f11 and phi12 again, and
# D_x and D_t seed one entry at a time, with a seed for x or t that no f_ij
# reads.  The builders and the two total derivatives are kept unchanged;
# the columns must give the same bits.


class PerEntryFamily(Family):
    """`Family` with the former per-entry builders; `fij(i, j)` is one closure."""

    def fij(self, i, j):
        return self.fij_fns[(i, j)]

    def _wrap(self, fns, g_fn, phi_fns):
        zfree = frozenset({"z0", "z1", "z2"})
        names = ("f11", "f12", "f21", "f22", "f31", "f32")
        self.fij_fns = {
            (1 + i // 2, 1 + i % 2): JetFunction(fn, zfree, nm)
            for i, (fn, nm) in enumerate(zip(fns, names))
        }
        self.G_fn = None if g_fn is None else JetFunction(g_fn, zfree, "G")
        if g_fn is None:
            self.F_fn = None
        else:
            lam = self.params.lam

            def F(env, _g=g_fn, _lam=lam):
                return _lam * env["z0"] ** 2 * env["z3"] + _g(env)

            self.F_fn = JetFunction(F, zfree | {"z3"}, "F")
        self.phi12_fn, self.phi22_fn, self.phi32_fn = (
            JetFunction(fn, {"z0", "z1"}, nm) for fn, nm in zip(phi_fns, ("phi12", "phi22", "phi32"))
        )

    def _form7(self, f11, phi_fns, G):
        """Assemble a form-(7) family from f11, (phi12, phi22, phi32) and G
        through the structural identities f_p1 = mu_p*f11 + eta_p (p = 2, 3)
        and f_i2 = -lam*z0^2*f_i1 + phi_i2, with the resolved mu_p, eta_p."""
        p, c = self.params, self.constants
        lam, mu2, eta2, mu3, eta3 = p.lam, p.mu2, p.eta2, c["mu3"], c["eta3"]

        def f21(env):
            return mu2 * f11(env) + eta2

        def f31(env):
            return mu3 * f11(env) + eta3

        def column2(fi1, phi):
            def fi2(env):
                return -lam * env["z0"] ** 2 * fi1(env) + phi(env)

            return fi2

        f12, f22, f32 = (column2(fi1, phi) for fi1, phi in zip((f11, f21, f31), phi_fns))
        self._wrap((f11, f12, f21, f22, f31, f32), G, phi_fns)

    def _f11_of_s(self):
        """f11 = f(s), s = z0 - z2, for the branches with a free profile f."""
        fx = self.f_expr

        def f11(env):
            return fx({"s": env["z0"] - env["z2"]})

        return f11

    def _phi12_of_expr(self):
        px = self.phi12_expr

        def phi12(env):
            return px({"z0": env["z0"], "z1": env["z1"]})

        return phi12

    def _build_t23(self, s, k):
        p, c = self.params, self.constants
        fx = self.f_expr
        lam, mu2, eta2, mu3, eta3, gam = p.lam, p.mu2, p.eta2, c["mu3"], c["eta3"], c["gamma"]
        q = 2.0 / gam * lam * eta2

        def phi12(env):
            return -q * env["z0"] * env["z1"]

        def phi22(env):
            return -mu2 * q * env["z0"] * env["z1"]

        def phi32(env):
            return -mu3 * q * env["z0"] * env["z1"]

        def G(env):
            z0, z1, z2 = env["z0"], env["z1"], env["z2"]
            fv, fp = _f_and_prime(fx, z0 - z2)
            _check_nonzero(fp, FPrimeZero, "f'")
            inner = (
                2.0 * z0 * z1 * fv
                + z0**2 * z1 * fp
                + (2.0 * eta2 / gam) * (z1**2 + z0 * z2 + (mu3 * eta2 - mu2 * eta3) * z0 * z1)
            )
            return -(lam / fp) * inner

        self._form7(self._f11_of_s(), (phi12, phi22, phi32), G)

    def _build_t24(self, s, k):
        p = self.params
        fx, px = self.f_expr, self.phi12_expr
        lam, mu2, eta2, C = p.lam, p.mu2, p.eta2, p.C
        phi12 = self._phi12_of_expr()

        def phi22(env):
            return mu2 * phi12(env) + C + lam * eta2 * env["z0"] ** 2

        def phi32(env):
            return s * (k * phi12(env) + mu2 * (lam * eta2 * env["z0"] ** 2 + C) / k)

        def G(env):
            z0, z1, z2 = env["z0"], env["z1"], env["z2"]
            fv, fp = _f_and_prime(fx, z0 - z2)
            _check_nonzero(fp, FPrimeZero, "f'")
            pv, p0, p1 = _phi12_parts(px, z0, z1)
            return (
                z1 * p0
                + z2 * p1
                - lam * z0**2 * z1 * fp
                + s * eta2 / k * pv
                - (2.0 * lam * z0 * z1 + s * eta2 / k * lam * z0**2 + s * C / k) * fv
            ) / fp

        self._form7(self._f11_of_s(), (phi12, phi22, phi32), G)

    def _build_t25i(self, s, k):
        p, c = self.params, self.constants
        lam, mu2, eta2 = p.lam, p.mu2, p.eta2
        theta, B, m, n = p.theta, p.B, p.m, p.n
        mu3, eta3, m1 = c["mu3"], c["eta3"], c["m1"]

        def W(z0):
            return 2.0 * lam / theta - theta * B * dual.exp(theta * z0) + 2.0 * lam * z0

        def f11(env):
            return m * (env["z0"] - env["z2"]) - n

        def phi12(env):
            z0, z1 = env["z0"], env["z1"]
            return -(m / theta) * (2.0 * lam - theta**2 * B * dual.exp(theta * z0)) * z1**2 - W(z0) * (
                (m * z0 - n) / theta + s * (mu2 - m * eta2 / theta) * z1 / k
            )

        def phi22(env):
            return mu2 * phi12(env) + W(env["z0"]) * (s * k * env["z1"] - eta2 / theta)

        def phi32(env):
            return mu3 * phi12(env) + W(env["z0"]) * (mu2 * env["z1"] - eta3 / theta)

        def G(env):
            z0, z1, z2 = env["z0"], env["z1"], env["z2"]
            E = dual.exp(theta * z0)
            return lam * (
                -5.0 * z0**2 * z1
                + 4.0 * z0 * z1 * z2
                + (2.0 * m1 - 4.0 / theta) * z0 * z1
                + (2.0 * m1 / theta) * z1
                - (2.0 / theta) * z1 * z2
            ) + (theta * z1**3 + 2.0 * z0 * z1 + z1 * z2 - m1 * z1) * theta * B * E

        self._form7(f11, (phi12, phi22, phi32), G)

    def _build_t25ii(self, s, k):
        p, c = self.params, self.constants
        phix = self.phi_expr
        lam, mu2, eta2 = p.lam, p.mu2, p.eta2
        tau, m, n = p.tau, p.m, p.n
        mu3, eta3, m2 = c["mu3"], c["eta3"], c["m2"]

        def _phi(z0, order):
            out = _uni_derivs(phix, "z0", z0, order)
            _check_nonzero(out[0], PhiZero, "phi")
            return out

        def f11(env):
            return m * (env["z0"] - env["z2"]) - n

        def phi12(env):
            z0, z1 = env["z0"], env["z1"]
            pv, pd = _phi(z0, 1)
            Ez = dual.exp(s * tau * z1)
            return (s * tau * (m * z0 - n) * pv + m * pd * z1) * Ez - s * (2.0 * lam * m / tau) * z0 * z1

        def phi22(env):
            (pv,) = _phi(env["z0"], 0)
            return mu2 * phi12(env) + s * tau * eta2 * pv * dual.exp(s * tau * env["z1"])

        def phi32(env):
            (pv,) = _phi(env["z0"], 0)
            return mu3 * phi12(env) + s * tau * eta3 * pv * dual.exp(s * tau * env["z1"])

        def G(env):
            z0, z1, z2 = env["z0"], env["z1"], env["z2"]
            pv, pd, pdd = _phi(z0, 2)
            Ez = dual.exp(s * tau * z1)
            return (
                lam * (-3.0 * z0**2 * z1 + 2.0 * z0 * z1 * z2 + 2.0 * m2 * z0 * z1 - s * (2.0 / tau) * (z1**2 + z0 * z2))
                + pdd * z1**2 * Ez
                + s * (tau * z0 * z1 + s * z2 + tau * z1 * z2 - m2 * tau * z1) * pd * Ez
                + tau * (s * z1 + tau * z0 * z2 - m2 * tau * z2) * pv * Ez
            )

        self._form7(f11, (phi12, phi22, phi32), G)

    def _build_sg(self, s, k):
        eta = self.params.eta

        def f11(env):
            return 0.0 * env["z0"]

        def f12(env):
            return dual.sin(env["z0"]) / eta

        def f21(env):
            return eta + 0.0 * env["z0"]

        def f22(env):
            return dual.cos(env["z0"]) / eta

        def f31(env):
            return env["z1"]

        def f32(env):
            return 0.0 * env["z0"]

        # with lam = 0, phi_i2 = f_i2 + lam*z0^2*f_i1 is f_i2 itself
        self._wrap((f11, f12, f21, f22, f31, f32), None, (f12, f22, f32))


def per_entry_family(fam):
    """`fam` rebuilt by the per-entry builders."""
    return PerEntryFamily(fam.params, fam.f_expr, fam.phi12_expr, fam.phi_expr, name=fam.name)


def symbolic_families(monkeypatch):
    """While `monkeypatch` is active, families evaluate on sympy jets: each
    family built resolves its derived constants exactly (`sp.nsimplify` of
    each float, so t25ii-demo's mu3 is sqrt(3)/2, which a float rounds), and
    np.exp(x) and the like, which call x.exp() on a sympy object x, work."""
    import sympy as sp

    for method, fn in (("exp", sp.exp), ("sin", sp.sin), ("cos", sp.cos), ("tan", sp.tan), ("sqrt", sp.sqrt), ("arctan", sp.atan)):
        monkeypatch.setattr(sp.Expr, method, lambda self, _fn=fn: _fn(self), raising=False)
    resolve = catalog._resolve

    def exact(p):
        violations, constants = resolve(p)
        return violations, {k: sp.nsimplify(v) for k, v in constants.items()}

    monkeypatch.setattr(catalog, "_resolve", exact)


def _free_of(h):
    free = getattr(h, "free", None)
    if free is None:
        raise TypeError("expected an Expression or JetFunction with a .free set")
    return free


def _reject_mixed(free, what):
    bad = sorted(nm for nm in free if nm[0] in "wv" and nm[1:].isdigit())
    if bad:
        raise JetError(
            f"{what} of an expression depending on {bad} needs off-shell "
            "w_j,x / v_k,x values, which are never available; rejected"
        )


def per_entry_dx_env(h, env):
    """D_x h evaluated on an environment."""
    free = _free_of(h)
    _reject_mixed(free, "total x-derivative")
    names = [nm for nm in free if nm == "x" or _zindex(nm) is not None]
    if "x" not in names:
        names.append("x")
    names.sort()
    _, by = partials(h, {"x": 0.0, **env}, names)
    out = by.get("x", 0.0)
    for nm in names:
        i = _zindex(nm)
        if i is not None:
            g = by[nm]
            if isinstance(g, float) and g == 0.0:
                continue
            out = out + g * _require(env, f"z{i + 1}")
    return out


def per_entry_dt_env_onshell(h, env, zt):
    """D_t h on an environment, given the mixed derivatives zt[k] = z_{k,t}."""
    free = _free_of(h)
    names = sorted(free | {"t"})
    _, by = partials(h, {"t": 0.0, **env}, names)
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


def former_zt(fam, env):
    """z_{k,t}, k = 0..2, as the former general prolongation gave them: for
    form (7) z_{2,t} = w1 minus the running sum 0.0 + F; for sine-Gordon
    z_{2,t} = D_x sin(z0), 0.0 plus the z0-seeded partial times z1."""
    zt = [_require(env, "w1"), _require(env, "v1")]
    if fam.is_form7:
        return zt + [zt[0] - (0.0 + fam.F_fn(env))]
    _, by = partials(lambda e: dual.sin(e["z0"]), {"x": 0.0, **env}, ["z0"])
    return zt + [0.0 + by["z0"] * _require(env, "z1")]


# ----------------------------------------------------------------------
# The b-ODE march with four fresh RK4 stages per step in numpy-scalar
# arithmetic, the jet sampler that compresses its whole over-draw, and the
# CSV writer that joins one row at a time.  immersion._OdeForm._march,
# verifier.sample_envs and immersion.write_csv must give the same bits.


class FreshStageMarch:
    """`trip`'s b-ODE marched again from ImmersionParams `ip`: every step
    evaluates g four times, and the stop check evaluates phi_delta again."""

    def __init__(self, trip):
        self.mu2, self.beta, self.rho = trip.mu2, trip.beta, trip.rho
        self.k, self.ce, self.sign, self.a_sign = trip.k, trip.ce, trip.sign, trip.a_sign

    def phi_delta(self, s, b):
        E = np.exp(self.ce * s)
        phi = ((self.mu2**2 - 1.0) * b - self.beta * E) / self.mu2
        delta = phi * phi - 4.0 * (1.0 - b * b)
        return phi, delta, E

    def den_terms(self, phi, sq, b):
        mu2, r = self.mu2, self.a_sign
        return (mu2**2 + 1.0) * sq, r * (mu2**2 - 1.0) * phi, 4.0 * r * mu2 * b

    def g(self, s, b):
        k, r, sg = self.k, self.a_sign, self.sign
        phi, delta, E = self.phi_delta(s, b)
        bad = delta <= 0
        if bad if bad.ndim == 0 else bad.any():
            raise DiscriminantCollapse(s, bad)
        sq = np.sqrt(delta)
        t1, t2, t3 = self.den_terms(phi, sq, b)
        den = t1 + t2 + t3
        bad = abs(den) < 1e-300
        if bad if bad.ndim == 0 else bad.any():
            raise DenominatorCollapse(s, bad)
        num = 2.0 * sg * self.rho * k * b * sq + r * sg * (2.0 * self.beta * self.rho / k) * phi * E
        return num / den

    def march(self, ip):
        """(s, b, bprime, stops) of the table marched both ways from (ip.s0, ip.b0).

        A point is kept, and a start accepted, where delta is in
        (DELTA_MIN, inf), |den| in [DENOM_MIN * max(1, |terms|_inf), inf) and
        delta' = 2 phi phi' + 8 b b' is finite; a step's end also needs
        |h/6 (k4 - g there)| <= STEP_ERROR_MAX * max(1, |b|).  Numpy-scalar
        overflow along the way is left to those tests, not warned about."""

        def keeps(sv, bv):
            """(reason, den): the reason a point is not kept, or None."""
            phi, delta, E = self.phi_delta(sv, bv)
            if not DELTA_MIN < delta < math.inf:
                return "discriminant", None
            t1, t2, t3 = self.den_terms(phi, np.sqrt(delta), bv)
            den = t1 + t2 + t3
            if not DENOM_MIN * max(1.0, abs(t1), abs(t2), abs(t3)) <= abs(den) < math.inf:
                return "denominator", den
            bp = self.g(sv, bv)
            phip = ((self.mu2**2 - 1.0) * bp - self.beta * self.ce * E) / self.mu2
            if not abs(2.0 * phi * phip + 8.0 * bv * bp) < math.inf:
                return "discriminant", den
            return None, den

        reason0, den0 = keeps(ip.s0, ip.b0)
        if reason0:
            raise (DenominatorCollapse if reason0 == "denominator" else DiscriminantCollapse)(ip.s0)

        def step(sv, bv, h):
            k1 = self.g(sv, bv)
            k2 = self.g(sv + 0.5 * h, bv + 0.5 * h * k1)
            k3 = self.g(sv + 0.5 * h, bv + 0.5 * h * k2)
            k4 = self.g(sv + h, bv + h * k3)
            return bv + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), k4

        def march(direction):
            h = direction * ip.h
            out_s, out_b = [], []
            sv, bv, den_prev = ip.s0, ip.b0, den0
            stop = None
            for _ in range(int(round(ip.eps / ip.h))):
                try:
                    bn, k4 = step(sv, bv, h)
                except DiscriminantCollapse as e:
                    stop = ("discriminant", e.s)
                    break
                except DenominatorCollapse as e:
                    stop = ("denominator", e.s)
                    break
                sn = sv + h
                reason, den = keeps(sn, bn)
                if reason is None and (den < 0) != (den_prev < 0):
                    reason = "denominator"
                if reason is None and not abs(h / 6.0 * (k4 - self.g(sn, bn))) <= (
                        immersion.STEP_ERROR_MAX * max(1.0, abs(bn))):
                    reason = "step_error"
                if reason:
                    stop = (reason, sn)
                    break
                out_s.append(sn)
                out_b.append(bn)
                sv, bv, den_prev = sn, bn, den
            return out_s, out_b, stop

        with np.errstate(over="ignore", invalid="ignore"):
            sp, bp_, stop_p = march(+1)
            sm, bm, stop_m = march(-1)
        s = np.array(list(reversed(sm)) + [ip.s0] + sp)
        b = np.array(list(reversed(bm)) + [ip.b0] + bp_)
        stops = {}
        if stop_p:
            stops["forward"] = {"reason": stop_p[0], "s": stop_p[1]}
        if stop_m:
            stops["backward"] = {"reason": stop_m[0], "s": stop_m[1]}
        return s, b, self.g(s, b), stops


def whole_draw_sample_envs(fam, n, rng, bounds=(-1.0, 1.0)):
    """verifier.sample_envs compressing each round's whole draw and
    concatenating the rounds before it cuts n jets."""
    lo, hi = bounds
    names = [f"z{i}" for i in range(6)] + ["w1", "v1"]
    chunks = {nm: [] for nm in names}
    have = 0
    attempts = 0
    while have < n:
        attempts += 1
        if attempts > 200:
            raise CatalogError("sampling guard rejected too many jets; bad family domain?")
        draw = max(64, 2 * (n - have))
        env = {nm: rng.uniform(lo, hi, size=draw) for nm in names}
        env["x"] = np.zeros(draw)
        env["t"] = np.zeros(draw)
        env = fam.constrain_env(env)
        mask = fam.sampling_guard(env)
        for nm in names:
            chunks[nm].append(env[nm][mask])
        have += int(np.count_nonzero(mask))
    out = {nm: np.concatenate(chunks[nm])[:n] for nm in names}
    out["x"] = np.zeros(n)
    out["t"] = np.zeros(n)
    return out


def _max_scaled(res, scale):
    return float(np.max(np.abs(res) / scale))


def whole_array_certify_structure(
    fam: Family, samples: int = 1000, tol: float = 1e-8, seed: int | None = DEFAULT_SEED, bounds=(-1.0, 1.0)
) -> VerificationReport:
    """verifier.certify_structure evaluating the residuals on all jets in one call."""
    rng = np.random.default_rng(seed)
    env = sample_envs(fam, samples, rng, bounds=bounds)
    (r1, r2, r3), scales = structure_residuals_env(fam, env)
    maxima = {
        "R1_max": _max_scaled(r1, scales[0]),
        "R2_max": _max_scaled(r2, scales[1]),
        "R3_max": _max_scaled(r3, scales[2]),
    }
    failing = _collect_failing(env, {"R1": (r1, scales[0]), "R2": (r2, scales[1]), "R3": (r3, scales[2])}, tol)
    verdict = "pass" if all(v <= tol for v in maxima.values()) else "fail"
    return VerificationReport(
        family=fam.name,
        seed=seed,
        samples=samples,
        tolerance=tol,
        residuals=maxima,
        verdict=verdict,
        failing=failing,
        notes={
            "residual_convention": "R_k = dx^dt coefficient of (left - right) of the structure equations",
            "scaling": "residuals reported relative to max(1, |terms|_inf) per sample",
            "bounds": list(bounds),
        },
    )


def _collect_failing(env, named, tol, cap=10):
    out = []
    n = len(np.atleast_1d(env["z0"]))
    scaled = {k: np.broadcast_to(np.abs(res) / scale, (n,)) for k, (res, scale) in named.items()}
    bad = np.zeros(n, dtype=bool)
    for v in scaled.values():
        bad |= ~(v <= tol)
    for i in np.nonzero(bad)[0][:cap]:
        jet = {k: float(np.atleast_1d(env[k])[i]) for k in env}
        out.append({
            "index": int(i),
            "jet": jet,
            "residuals": {k: float(v[i]) for k, v in scaled.items()},
        })
    return out


def row_by_row_csv(path, header, columns):
    """immersion.write_csv joining the reprs of one row at a time."""
    cols = [np.asarray(col, dtype=float).tolist() for col in columns]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in zip(*cols))


class TowerDual(dual.Dual):
    """The former nestable ``dual.Dual``: every dual belongs to a
    differentiation level, and values of a lower level (floats, arrays,
    duals created earlier) are constants with respect to a higher one.  The
    compiled partials program of an expression is checked against it bit for
    bit on dual inputs, which it differentiates by seeding a level above."""

    __slots__ = ("level",)

    def __init__(self, level, val, grad):
        self.level = level
        self.val = val
        self.grad = grad

    def __repr__(self):
        return f"TowerDual(L{self.level}, {self.val!r}, {self.grad!r})"

    # -- helpers -------------------------------------------------------
    def _split(self, other):
        """Return (value-part, grad-part or None) of `other` at self.level."""
        if isinstance(other, TowerDual) and other.level == self.level:
            return other.val, other.grad
        return other, None

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other):
        if isinstance(other, TowerDual) and other.level > self.level:
            return TowerDual(other.level, self + other.val, other.grad)
        ov, og = self._split(other)
        if og is None:
            return TowerDual(self.level, self.val + ov, self.grad)
        return TowerDual(self.level, self.val + ov, tuple(a + b for a, b in zip(self.grad, og)))

    __radd__ = __add__

    def __neg__(self):
        return TowerDual(self.level, -self.val, tuple(-g for g in self.grad))

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, TowerDual) and other.level > self.level:
            return TowerDual(other.level, self * other.val, tuple(self * g for g in other.grad))
        ov, og = self._split(other)
        if og is None:
            return TowerDual(self.level, self.val * ov, tuple(g * ov for g in self.grad))
        return TowerDual(
            self.level,
            self.val * ov,
            tuple(a * ov + self.val * b for a, b in zip(self.grad, og)),
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, TowerDual) and other.level > self.level:
            return other.__rtruediv__(self)
        ov, og = self._split(other)
        if og is None:
            return TowerDual(self.level, self.val / ov, tuple(g / ov for g in self.grad))
        inv = self.val / ov
        return TowerDual(
            self.level,
            inv,
            tuple((a - inv * b) / ov for a, b in zip(self.grad, og)),
        )

    def __rtruediv__(self, other):
        # other / self with other constant at this level
        v = other / self.val
        return TowerDual(self.level, v, tuple(-v * g / self.val for g in self.grad))

    def __pow__(self, k):
        if not isinstance(k, int):
            raise TypeError("dual powers are integer only")
        if k == 0:
            return TowerDual(self.level, self.val * 0 + 1.0, tuple(g * 0 for g in self.grad))
        d = k * self.val ** (k - 1)
        return TowerDual(self.level, self.val**k, tuple(d * g for g in self.grad))

    def _apply(self, name):
        """f(self) by the chain rule: grad f = f'(.) * grad."""
        _, on_result, deriv = dual._RULES[name]
        y = dual.FUNCTIONS[name](self.val)
        d = deriv(y if on_result else self.val)
        return TowerDual(self.level, y, tuple(d * g for g in self.grad))


def _level_of(x):
    return x.level if isinstance(x, TowerDual) else 0


def tower(x):
    """A ``dual.Dual`` as a level-1 ``TowerDual``; any other value unchanged."""
    return TowerDual(1, x.val, x.grad) if type(x) is dual.Dual else x


def tower_seed(values, names):
    """The former ``dual.seed``: seed `names` one level above every value.

    Returns (level, env) where env maps every key of `values` to either a
    freshly seeded TowerDual (for keys in `names`) or the untouched constant.
    """
    lvl = 1 + max((_level_of(v) for v in values.values()), default=0)
    n = len(names)
    env = dict(values)
    for i, nm in enumerate(names):
        unit = tuple(1.0 if j == i else 0.0 for j in range(n))
        env[nm] = TowerDual(lvl, values[nm], unit)
    return lvl, env


def tower_value_grad(result, level, n):
    """The former ``dual.value_grad``: (value, grads) of `result` with
    respect to a seeding level."""
    if isinstance(result, TowerDual) and result.level == level:
        return result.val, result.grad
    return result, (0.0,) * n


# ----------------------------------------------------------------------
# The method-of-lines march with a fresh array from every FFT, the RK4
# constants and the CFL cap recomputed each step, and np.roll stencil
# shifts.  pde.solve_mol and pde.periodic_derivative must give the same bits.


def roll_periodic_derivative(u, dx, m, acc=4):
    """pde.periodic_derivative shifting u by np.roll once per stencil offset."""
    if m == 0:
        return np.asarray(u).copy()
    out = np.zeros_like(np.asarray(u, dtype=float))
    for o, c in zip(*_central_stencil(m, acc)):
        out += c * np.roll(u, -o, axis=-1)
    return out / dx**m


def allocating_march(fam, grid, u0, t_max, dt, space="spectral", n_save=33):
    """(times, frames) of pde.solve_mol's march, every call allocating its
    output, with the unfolded G of the per-entry family and lam*u*u*u_xxx
    (every product and quotient by a 1.0 run)."""
    u = np.asarray(u0, dtype=float).copy()
    nsteps = step_count(t_max, dt)
    sg = fam.params.branch == Branch.SINE_GORDON
    if sg:
        order = 4 if space == "spectral" else int(space)

        def rhs(uu):
            return cumulative_integral(np.sin(uu), grid.dx, order=order)

    else:
        lam = fam.params.lam
        if space == "spectral":
            symbols = np.stack([(1j * wavenumbers(grid)) ** m for m in (1, 2, 3)])

            def derivs(uu):
                return np.fft.irfft(np.fft.rfft(uu) * symbols, n=grid.nx)

        else:
            def derivs(uu):
                return [roll_periodic_derivative(uu, grid.dx, m, acc=int(space)) for m in (1, 2, 3)]

        kw = wavenumbers(grid)
        helmholtz = 1.0 + kw * kw
        G = per_entry_family(fam).G_fn

        def rhs(uu):
            z1, z2, z3 = derivs(uu)
            env = {"z0": uu, "z1": z1, "z2": z2, "z3": z3}
            f = lam * uu * uu * z3 + G(env)
            return np.fft.irfft(np.fft.rfft(f) / helmholtz, n=grid.nx)

    def check_cfl(t, amp):
        if sg:
            return
        cap = CFL_COEFFICIENT * grid.dx / max(1.0, abs(lam) * (amp * amp))
        if dt > cap:
            raise CflError(t, amp, dt, cap)

    check_cfl(0.0, float(np.max(np.abs(u))))
    save_every = max(1, nsteps // max(1, n_save - 1))
    times = [0.0]
    frames = [u.copy()]
    for k in range(1, nsteps + 1):
        k1 = rhs(u)
        k2 = rhs(u + 0.5 * dt * k1)
        k3 = rhs(u + 0.5 * dt * k2)
        k4 = rhs(u + dt * k3)
        u = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = k * dt
        amp = float(np.max(np.abs(u)))
        if not np.isfinite(amp) or amp > BLOWUP_CAP:
            raise BlowUpError(t, amp)
        check_cfl(t, amp)
        if k % save_every == 0 or k == nsteps:
            times.append(t)
            frames.append(u.copy())
    return times, frames
