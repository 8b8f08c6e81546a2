"""Desk-scale solutions of u_t - u_xxt = lam*u^2*u_xxx + G on a periodic grid.

The time march inverts the Helmholtz operator each step,

    u_t = (1 - dxx)^{-1} [lam*u^2*u_xxx + G(u, u_x, u_xx)],

with classical RK4 in time and spectral (or 4th/2nd-order central) space
derivatives.  Sine-Gordon, which is not of this form, is marched in its
light-cone form u_t(x) = integral of sin(u) dx' with the constant fixed
by decay at x_min.

Fields expose jets: EXACT fields (closed-form u(x, t)) sample them
analytically with the one series engine of `dual`: a truncated
`dual.Taylor` in x whose coefficients are duals in t, each elementary
function applied from the `dual` rule table.  NUMERIC fields use
centered finite-difference stencils of declared order at the grid nodes
and stored snapshot times, with periodic Catmull-Rom interpolation in x
(3rd order) between nodes and linear interpolation in t (2nd order)
between snapshots.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass

import numpy as np

from . import dual
from .dual import Taylor, mul
from .expr import parse_expression
from .immersion import write_csv

__all__ = [
    "Grid1D",
    "SolutionField",
    "PdeError",
    "BlowUpError",
    "CflError",
    "helmholtz_invert",
    "solve_mol",
    "step_count",
    "MAX_PDE_STEPS",
    "kink_field",
    "exact_field",
    "save_field",
    "load_field",
    "export_csv",
    "fd_weights",
]


class PdeError(RuntimeError):
    pass


class BlowUpError(PdeError):
    def __init__(self, t, amplitude, message=None):
        self.t = t
        self.amplitude = amplitude
        super().__init__(message or f"|u|_inf = {amplitude:.3e} exceeded the blow-up cap at t = {t:.6g}")


class CflError(BlowUpError):
    """dt above the step cap c*dx/max(1, |lam| max u^2): at t = 0 the data is
    too large for dt; later the amplitude has grown past what dt can march,
    the onset of a blow-up."""

    def __init__(self, t, amplitude, dt, cap):
        self.dt = dt
        self.cap = cap
        super().__init__(t, amplitude, f"dt = {dt} exceeds the heuristic cap {cap:.3e} "
                                       f"(= c*dx/max(1, |lam| max u^2)) at t = {t:.6g}")


BLOWUP_CAP = 1e6
# Neighbouring snapshot spacings that differ by more than this, relative, are
# uneven (SolutionField._time_slopes).  A march saves t = k*dt, within half an
# ulp of t, so its even spacings differ by under 1e-10 relative at
# MAX_PDE_STEPS steps.
UNEVEN_SPACING = 1e-8
CFL_COEFFICIENT = 0.5  # c of the CflError step cap


@dataclass(frozen=True)
class Grid1D:
    x_min: float
    x_max: float
    nx: int

    def __post_init__(self):
        if self.nx < 16:
            raise PdeError("nx >= 16 required")
        if not self.x_max > self.x_min:
            raise PdeError("x_max > x_min required")
        if not math.isfinite(self.x_max - self.x_min):
            raise PdeError("a finite x_max - x_min required")

    @property
    def dx(self):
        return (self.x_max - self.x_min) / self.nx

    def nodes(self):
        return self.x_min + self.dx * np.arange(self.nx)

    def wavenumbers(self):
        L = self.x_max - self.x_min
        return 2.0 * np.pi * np.fft.rfftfreq(self.nx, d=1.0 / self.nx) / L


# ----------------------------------------------------------------------
# Helmholtz operator (1 - dxx) on the periodic grid, spectral


def helmholtz_invert(grid: Grid1D, rhs):
    """Solve (1 - dxx) u = rhs; positive definite, never singular."""
    k = grid.wavenumbers()
    return np.fft.irfft(np.fft.rfft(rhs) / (1.0 + k * k), n=grid.nx)


# ----------------------------------------------------------------------
# Finite-difference machinery


def fd_weights(m, offsets):
    """Weights w with sum_j w_j f(x + o_j h) ~ f^(m)(x) h^-m (Vandermonde solve)."""
    offsets = np.asarray(offsets, dtype=float)
    n = len(offsets)
    A = np.vander(offsets, n, increasing=True).T
    rhs = np.zeros(n)
    rhs[m] = float(math.factorial(m))
    return np.linalg.solve(A, rhs)


@functools.lru_cache(maxsize=None)
def _central_stencil(m, acc):
    """(offsets, weights) of the centered m-th derivative stencil of accuracy acc."""
    half = (m + acc - 1) // 2
    off = np.arange(-half, half + 1)
    return tuple(int(o) for o in off), tuple(fd_weights(m, off))


@functools.lru_cache(maxsize=None)
def _periodic_stencil(n, m, acc):
    """((indices, weight), ...) of the stencil on n periodic samples: the
    indices gather u[i + o mod n] at each i, the shift that np.roll(u, -o) makes."""
    shifts = []
    for o, c in zip(*_central_stencil(m, acc)):
        idx = (np.arange(n) + o) % n
        idx.setflags(write=False)
        shifts.append((idx, c))
    return tuple(shifts)


def periodic_derivative(u, dx, m, acc=4):
    """m-th x-derivative (along the last axis) of periodic samples, centered stencils."""
    u = np.asarray(u)
    if m == 0:
        return u.copy()
    out = np.zeros_like(u, dtype=float)
    for idx, c in _periodic_stencil(u.shape[-1], m, acc):
        out += c * u.take(idx, axis=-1)
    return out / dx**m


def spectral_derivative(grid: Grid1D, u, m):
    k = grid.wavenumbers()
    return np.fft.irfft(np.fft.rfft(u) * (1j * k) ** m, n=grid.nx)


def cumulative_integral(f, dx, order=4):
    """Antiderivative samples, I[0] = 0, of n >= 4 samples; composite 4th-order (or trapezoid)."""
    f = np.asarray(f, dtype=float)
    n = len(f)
    out = np.zeros(n)
    if order <= 2:
        out[1:] = np.cumsum(0.5 * (f[1:] + f[:-1])) * dx
        return out
    inc = np.empty(n - 1)
    inc[0] = dx / 24.0 * (9.0 * f[0] + 19.0 * f[1] - 5.0 * f[2] + f[3])
    inc[-1] = dx / 24.0 * (9.0 * f[-1] + 19.0 * f[-2] - 5.0 * f[-3] + f[-4])
    inc[1:-1] = dx / 24.0 * (-f[:-3] + 13.0 * f[1:-2] + 13.0 * f[2:-1] - f[3:])
    out[1:] = np.cumsum(inc)
    return out


# ----------------------------------------------------------------------
# Solution fields


class SolutionField:
    """Gridded or closed-form u(x, t) exposing jet samples."""

    def __init__(self, grid, times, frames=None, expression=None, provenance=None):
        self.grid = grid
        self.times = np.array(times, dtype=float)
        self.times.setflags(write=False)
        self.frames = None
        if frames is not None:
            self.frames = np.array(frames, dtype=float)
            self.frames.setflags(write=False)
        self._row_stack = None
        self.expression = expression
        if (frames is None) == (expression is None):
            raise PdeError("a field is either NUMERIC (frames) or EXACT (expression)")
        self.provenance = dict(provenance or {}, type=self.kind)

    @property
    def kind(self):
        return "NUMERIC" if self.frames is not None else "EXACT"

    def domain(self):
        return (self.grid.x_min, self.grid.x_max), (float(self.times[0]), float(self.times[-1]))

    # -- EXACT sampling -------------------------------------------------
    def _exact_env(self, x, t, order):
        x, t = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(t, dtype=float))
        zero = np.zeros_like(x)
        td = dual.Dual(t + zero, (1.0 + zero,))
        tx = Taylor([x, 1.0 + zero] + [zero] * (order - 1))
        tt = Taylor([td] + [zero] * order)
        u = self.expression({"x": tx, "t": tt})
        if not isinstance(u, Taylor):
            u = Taylor([u] + [zero] * order)
        # z0..z_order and, from the duals in t, w1 = d/dt z0 and v1 = d/dt z1
        ds = [dual.value_grad(d, 1, 1) for d in u.derivatives()]
        return [v + zero for v, _ in ds], [ds[0][1][0] + zero], [ds[1][1][0] + zero]

    def sample_env(self, x, t, order):
        """Vectorized jet environment {z0..z_order, w1, v1} at x and t broadcast together."""
        if self.kind == "EXACT":
            if order < 1:
                raise PdeError("order >= 1 required (w1, v1 are part of a jet sample)")
            zs, ws, vs = self._exact_env(x, t, order)
            env = {f"z{i}": zs[i] for i in range(order + 1)}
            env["w1"] = ws[0]
            env["v1"] = vs[0]
            return env
        return self._numeric_env(x, t, order)

    # -- NUMERIC sampling -------------------------------------------------
    def _rows(self, order):
        """Rows w1, v1, z0..z_order at every snapshot, shape (order + 3, S, nx).

        Built the first time the field is sampled and again only for a higher
        order; frames and times are read-only, so the rows cannot go stale."""
        rows = self._row_stack
        if rows is None or len(rows) < order + 3:
            acc = int(self.provenance.get("space_accuracy", 4))
            dx = self.grid.dx
            rows = np.empty((order + 3,) + self.frames.shape)
            rows[0] = self._time_slopes()
            rows[1] = periodic_derivative(rows[0], dx, 1, acc=acc)
            rows[2] = self.frames
            for m in range(1, order + 1):
                rows[2 + m] = periodic_derivative(self.frames, dx, m, acc=acc)
            self._row_stack = rows
        return rows

    def _time_weights(self, t):
        """(lo, hi, weight, on_snapshot) of the linear t blend; lo = hi on snapshots."""
        ts = self.times
        lo = np.clip(np.searchsorted(ts, t) - 1, 0, len(ts) - 2)
        hi = lo + 1
        near = np.where(np.abs(ts[hi] - t) < np.abs(ts[lo] - t), hi, lo)
        snap = np.abs(ts[near] - t) <= 1e-9 * np.maximum(1.0, np.abs(t))
        outside = ~snap & ((t < ts[0] - 1e-9) | (t > ts[-1] + 1e-9))
        if np.any(outside):
            raise PdeError(f"t = {t[outside].flat[0]} outside the stored time range")
        w = np.where(snap, 0.0, (t - ts[lo]) / (ts[hi] - ts[lo]))
        return np.where(snap, near, lo), np.where(snap, near, hi), w, snap

    def _x_stencil(self, x):
        """Periodic node indices (i0-1, i0, i0+1, i0+2), stacked, and the blend weight in [i0, i0+1]."""
        g = self.grid
        idx = (x - g.x_min) / g.dx
        node = np.rint(idx)
        idx = np.where(np.abs(idx - node) < 1e-9, node, idx)  # nodes sample exactly, with w = 0
        i0 = np.floor(idx).astype(int)
        w = idx - i0
        return np.mod(i0 + np.arange(-1, 3).reshape((4,) + (1,) * i0.ndim), g.nx), w

    def _numeric_env(self, x, t, order):
        """Jets from the snapshot rows: the 4-node x stencil is gathered at the
        bracketing snapshots and blended linearly in t (exactly the derivatives
        of the blended frame: differentiation is linear), then periodic
        Catmull-Rom in x.  Off the snapshots, w1 and v1 are the bracketing
        divided differences of z0 and z1."""
        max_order = int(self.provenance.get("max_jet_order", 5))
        if order > max_order:
            raise PdeError(f"NUMERIC field supports jet order <= {max_order}")
        x, t = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(t, dtype=float))
        lo, hi, wt, snap = self._time_weights(t)
        nodes, w = self._x_stencil(x)
        rows = self._rows(max(order, 1))  # z1 too: v1 off the snapshots is its divided difference
        flat = rows.reshape(len(rows), -1)
        st = np.take(flat, np.stack([lo, hi])[:, None] * self.grid.nx + nodes, axis=1)  # (rows, 2, 4, ...)
        p = (1.0 - wt) * st[:, 0] + wt * st[:, 1]
        if not np.all(snap):
            span = np.where(snap, 1.0, self.times[hi] - self.times[lo])
            p[:2] = np.where(snap, p[:2], (st[2:4, 1] - st[2:4, 0]) / span)
        pm, p0, p1, p2 = p[:, 0], p[:, 1], p[:, 2], p[:, 3]
        # exact at nodes; periodic Catmull-Rom (C^1, 3rd order) off-node
        v = p0 + 0.5 * w * (
            (p1 - pm)
            + w * ((2.0 * pm - 5.0 * p0 + 4.0 * p1 - p2)
                   + w * (3.0 * (p0 - p1) + p2 - pm))
        )
        env = {f"z{m}": v[m + 2] for m in range(order + 1)}
        env["w1"] = v[0]
        env["v1"] = v[1]
        return env

    def _time_slopes(self):
        """u_t at every snapshot, shape (S, nx): centered inside, one-sided
        2nd order at the ends; with two snapshots, their divided difference.
        Where the two spacings of three neighbouring snapshots differ by more
        than UNEVEN_SPACING relative, the slopes that read those three take
        their 2nd-order weights for the actual spacings (`fd_weights`), as at
        the shorter last interval a march saves; even snapshots keep the
        formulas above."""
        ts, fr = self.times, self.frames
        if len(ts) < 2:
            raise PdeError("NUMERIC field needs at least two snapshots for w1")
        du = np.empty_like(fr)
        if len(ts) > 2:
            du[1:-1] = (fr[2:] - fr[:-2]) / (ts[2:] - ts[:-2])[:, None]
            du[0] = (-3.0 * fr[0] + 4.0 * fr[1] - fr[2]) / (2.0 * (ts[1] - ts[0]))
            du[-1] = (3.0 * fr[-1] - 4.0 * fr[-2] + fr[-3]) / (2.0 * (ts[-1] - ts[-2]))
            h = np.diff(ts)
            uneven = np.abs(h[1:] / h[:-1] - 1.0) > UNEVEN_SPACING  # of snapshots j, j + 1, j + 2
            first = np.concatenate(([0], np.arange(len(ts) - 2), [len(ts) - 3]))  # of the three each slope reads
            for at in np.flatnonzero(uneven[first]):
                j = first[at]
                scale = ts[j + 2] - ts[j]
                du[at] = fd_weights(1, (ts[j:j + 3] - ts[at]) / scale) @ fr[j:j + 3] / scale
        else:
            du[:] = (fr[1] - fr[0]) / (ts[1] - ts[0])
        return du


def exact_field(src_or_expr, grid: Grid1D, t_span=(-10.0, 10.0), name="exact") -> SolutionField:
    e = parse_expression(src_or_expr, ["x", "t"]) if isinstance(src_or_expr, str) else src_or_expr
    return SolutionField(
        grid,
        [t_span[0], t_span[1]],
        expression=e,
        provenance={"name": name, "jets": "analytic (Taylor in x, dual in t)"},
    )


def kink_field(eta, grid: Grid1D, t_span=(-6.0, 6.0)) -> SolutionField:
    src = f"4*arctan(exp({eta!r}*x + t/{eta!r}))"
    f = exact_field(src, grid, t_span, name=f"sine-gordon kink eta={eta}")
    f.provenance["eta"] = eta
    return f


# ----------------------------------------------------------------------
# Method of lines


# The most RK4 steps, t_max / dt, that the command line lets a march take; a
# step of the default 256-point spectral march costs 155-170 us (the least of
# seven README marches in one process, 2-vCPU Xeon VM), so the cap is about
# 16 s there.
MAX_PDE_STEPS = 10**5


def step_count(t_max, dt):
    """The number of dt steps in t_max; PdeError unless it is a whole number."""
    nsteps = int(round(t_max / dt))
    if abs(nsteps * dt - t_max) > 1e-9 * max(1.0, abs(t_max)):
        raise PdeError("t_max must be an integer number of steps")
    return nsteps


def solve_mol(fam, grid: Grid1D, u0, t_max, dt, space="spectral", n_save=33) -> SolutionField:
    """March u_t - u_xxt = lam u^2 u_xxx + G (or sine-Gordon) to t_max.

    `fam` is a Family: any form-(7) branch, or SINE_GORDON, which is
    marched in light-cone form.
    """
    u = np.asarray(u0, dtype=float).copy()
    if len(u) != grid.nx:
        raise PdeError("u0 length must match grid.nx")
    if not np.all(np.isfinite(u)):
        raise PdeError("u0 must be finite")
    nsteps = step_count(t_max, dt)
    sg = not fam.is_form7
    nx, dx = grid.nx, grid.dx
    acc = 4 if space == "spectral" else int(space)  # of the stencils, the quadrature and the sampling

    if sg:
        def rhs(uu):
            return cumulative_integral(np.sin(uu), dx, order=acc)

    else:
        # numpy.fft's own pocketfft kernels, called without its Python wrapper
        # (half of each call's time at nx = 256): rfft with factor 1 and irfft
        # with 1/nx are what np.fft.rfft and np.fft.irfft(n=nx) run, bit for bit
        from numpy.fft import _pocketfft_umath as pocketfft

        rfft = pocketfft.rfft_n_even if nx % 2 == 0 else pocketfft.rfft_n_odd
        irfft, inv_nx = pocketfft.irfft, 1.0 / nx
        lam, G = fam.params.lam, fam.G_fn
        kw = grid.wavenumbers()
        helmholtz = 1.0 + kw * kw  # divided by, as in helmholtz_invert: same rounding
        spectrum = np.empty(len(kw), dtype=complex)  # every rfft of the march writes here
        if space == "spectral":
            symbols = np.stack([(1j * kw) ** m for m in (1, 2, 3)])
            spectra, z123 = np.empty(symbols.shape, dtype=complex), np.empty((3, nx))

            def derivs(uu):  # one rfft of u and one batched irfft, read before the next call
                np.multiply(rfft(uu, 1, out=spectrum), symbols, out=spectra)
                return irfft(spectra, inv_nx, out=z123)

        else:
            def derivs(uu):
                return [periodic_derivative(uu, dx, m, acc=acc) for m in (1, 2, 3)]

        def rhs(uu):  # a new array each call: k1..k4 and the saved frames keep theirs
            z1, z2, z3 = derivs(uu)
            f = mul(lam, uu) * uu * z3 + G({"z0": uu, "z1": z1, "z2": z2, "z3": z3})
            np.divide(rfft(f, 1, out=spectrum), helmholtz, out=spectrum)
            return irfft(spectrum, inv_nx, out=np.empty(nx))

        cfl_dx, lam_abs = CFL_COEFFICIENT * dx, abs(lam)

    def check_cfl(t, amp):
        if sg:
            return
        cap = cfl_dx / max(1.0, lam_abs * (amp * amp))
        if dt > cap:
            raise CflError(t, amp, dt, cap)

    check_cfl(0.0, float(np.abs(u).max()))

    save_every = max(1, nsteps // max(1, n_save - 1))
    times = [0.0]
    frames = [u]  # the march makes a new u each step and never writes into one
    half_dt, sixth_dt = 0.5 * dt, dt / 6.0
    for k in range(1, nsteps + 1):
        k1 = rhs(u)
        k2 = rhs(u + half_dt * k1)
        k3 = rhs(u + half_dt * k2)
        k4 = rhs(u + dt * k3)
        u = u + sixth_dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = k * dt
        amp = float(np.abs(u).max())
        if not math.isfinite(amp) or amp > BLOWUP_CAP:
            raise BlowUpError(t, amp)
        check_cfl(t, amp)
        if k % save_every == 0 or k == nsteps:
            times.append(t)
            frames.append(u)
    return SolutionField(
        grid,
        times,
        frames=frames,
        provenance={
            "equation": fam.name,
            "space": space,
            "space_accuracy": acc,
            "dt": dt,
            "scheme": "RK4 + spectral Helmholtz inverse" if not sg else "RK4 light-cone quadrature",
            "max_jet_order": 5,
            "off_node_sampling": "periodic Catmull-Rom in x (3rd order), linear in t (2nd order)",
        },
    )


# ----------------------------------------------------------------------
# Field files


_MAGIC = b"PSSF"
_HEADER_BYTES = 32  # magic, <III version nx S, <dd x_min x_max


def save_field(field: SolutionField, path):
    if field.kind != "NUMERIC":
        raise PdeError("only NUMERIC fields serialize to the PSSF format")
    g = field.grid
    S = len(field.times)
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<III", 1, g.nx, S))
        fh.write(struct.pack("<dd", g.x_min, g.x_max))
        fh.write(np.asarray(field.times, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(field.frames, dtype="<f8").tobytes())


def load_field(path) -> SolutionField:
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:4] != _MAGIC:
        raise PdeError(f"{path}: bad magic {buf[:4]!r}")
    if len(buf) < _HEADER_BYTES:
        raise PdeError(f"{path}: PSSF header needs {_HEADER_BYTES} bytes, the file has {len(buf)}")
    version, nx, S = struct.unpack_from("<III", buf, 4)
    if version != 1:
        raise PdeError(f"{path}: unsupported version {version}")
    x_min, x_max = struct.unpack_from("<dd", buf, 16)
    expected = _HEADER_BYTES + 8 * S * (1 + nx)
    if S < 1 or len(buf) != expected:
        raise PdeError(f"{path}: a PSSF with nx = {nx} and {S} snapshots is {expected} bytes, "
                       f"the file has {len(buf)}")
    try:
        grid = Grid1D(x_min, x_max, nx)
    except PdeError as exc:
        raise PdeError(f"{path}: {exc}") from None
    times = np.frombuffer(buf, dtype="<f8", count=S, offset=_HEADER_BYTES)
    if not (np.all(np.isfinite(times)) and np.all(np.diff(times) > 0)):
        raise PdeError(f"{path}: the snapshot times must be finite and strictly increasing")
    data = np.frombuffer(buf, dtype="<f8", count=S * nx, offset=_HEADER_BYTES + 8 * S).reshape(S, nx)
    if not np.all(np.isfinite(data)):
        raise PdeError(f"{path}: the field holds a non-finite sample")
    return SolutionField(
        grid,
        times,
        frames=data,
        provenance={"loaded_from": str(path), "max_jet_order": 5},
    )


def export_csv(field: SolutionField, path):
    if field.kind != "NUMERIC":
        raise PdeError("CSV export applies to NUMERIC fields")
    S, nx = field.frames.shape
    cols = [np.tile(field.grid.nodes(), S), np.repeat(field.times, nx), field.frames.ravel()]
    write_csv(path, "x,t,u", cols)
