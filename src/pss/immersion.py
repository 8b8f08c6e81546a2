"""Universal second-fundamental-form triples {a, b, c} and their domains.

For each catalog branch this module either produces the universal triple
(closed form or an ODE march for b), or the proven negative result:

    T22, mu2 = 0              closed form in x
    T22, mu2 != 0             b solves a first-order ODE in x
    T23                       no immersion (Proposition 4.2)
    T24, mu2 = eta2 = 0       closed form in t
    T24, mu2 = 0, eta2 != 0   closed form in xi = eta2*x + C*t
    T24, mu2 != 0             b solves a first-order ODE in xi
    T25i / T25ii              no immersion (Propositions 4.4 / 4.5)
    SINE_GORDON               a = 2/tan(u), b = -1, c = 0 up to sign;
                              depends on the solution (poles at sin u = 0)

Closed forms: with E(s) = exp(ce*s),

    L = A*E - beta^2*E^2 - 1,   a = a_sign*sqrt(L),   c = a - sign*a'/cbar,

valid on the strip where L > 0 (A > 0 and A^2 > 4*beta^2).  The b-ODE for
the mu2 != 0 branches is marched with classical RK4 and back-substitution
tested against the displayed equation; a and c are recovered pointwise
from the quadratic the Gauss equation imposes, so a*c - b^2 = -1 holds to
rounding along the march by construction.

T22 is T24 at lam = C = 0 (one catalog builder makes both); its triples
keep the Proposition 4.1 labels, coordinate x and strip parameter C_strip.
Each representation is one `ImmersionTriple` subclass that samples itself
(`values`, `values_and_derivs`) and supplies its own CSV columns.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .catalog import Branch, CatalogError, Family, delta
from .floattext import lines, repr_cells

__all__ = [
    "Representation",
    "ImmersionParams",
    "ImmersionTriple",
    "NoImmersion",
    "InvalidStrip",
    "TripleDomainError",
    "DiscriminantCollapse",
    "DenominatorCollapse",
    "solve_triple",
    "integrate_b_ode",
    "gauss_residual",
    "codazzi_residuals",
    "json_text",
    "write_csv",
]


class Representation:
    CLOSED_FORM = "CLOSED_FORM"
    ODE_TABLE = "ODE_TABLE"
    SOLUTION_DEPENDENT = "SOLUTION_DEPENDENT"


class InvalidStrip(ValueError):
    pass


class TripleDomainError(ValueError):
    pass


def _first_s(s, bad):
    """The first s, as a float, where `bad` holds (s and bad broadcast together)."""
    s, bad = np.broadcast_arrays(s, bad)
    return float(s[bad][0])


class _Collapse(RuntimeError):
    """A stop of the b-ODE at the first s where `bad` holds; a subclass
    names it by `reason` in a table's `stops` and by `what` in the message."""

    def __init__(self, s, bad=True):
        self.s = _first_s(s, bad)
        super().__init__(f"{self.what} collapsed at s = {self.s}")


class DiscriminantCollapse(_Collapse):
    reason = what = "discriminant"


class DenominatorCollapse(_Collapse):
    reason, what = "denominator", "ODE denominator"


# The b-ODE march refuses a start, and stops, where delta <= DELTA_MIN, where
# the denominator of b' is below DENOM_MIN * max(1, |terms|_inf), or where
# either is not finite (_OdeForm._march).
DELTA_MIN = 1e-8
DENOM_MIN = 1e-8
# The most steps, round(eps / h), that the command line lets the march take
# in each direction; a step costs about 5 us (2-vCPU Xeon VM, 5-7 us under
# load; 11-15 us before the march ran in Python floats), so the cap is
# about 5 s per direction.
MAX_ODE_STEPS = 10**6


@dataclass(frozen=True)
class ImmersionParams:
    beta: float = 0.0
    C_strip: float | None = None
    sigma: float | None = None
    b0: float = 0.0
    s0: float = 0.0
    h: float = 1e-3
    eps: float = 1.0
    a_sign: int = 1


@dataclass(frozen=True)
class NoImmersion:
    """Negative result: the branch admits no finite-jet immersion triple."""

    branch: str
    proposition: str
    reason: str


# branch -> the proposition that rules out an immersion with finite-jet triples
_NO_IMMERSION = {
    Branch.T23: "Proposition 4.2",
    Branch.T25I: "Proposition 4.4",
    Branch.T25II: "Proposition 4.5",
}


# ----------------------------------------------------------------------
# Triples: one subclass of ImmersionTriple per representation


@dataclass(eq=False)  # a triple equals only itself, as its tables are arrays
class ImmersionTriple:
    """The triple (a, b, c) of the reduced coordinate s = sx*x + st*t, valid
    on the open interval `validity`.  A subclass per representation supplies
    `abc_derivs(s)`, the triple and its s-derivatives; the solution-dependent
    one also says how it is sampled at (x, t)."""

    branch_label: str
    svar: str  # "x", "t", "xi", or "u" (solution-dependent)
    sx: float  # s = sx*x + st*t
    st: float
    validity: tuple
    representation: ClassVar[str]  # a Representation constant, one per subclass
    csv_header: ClassVar[str] = "s,a,b,c,gauss_residual"

    def reduced_coordinate(self, x, t):
        return self.sx * x + self.st * t

    def abc(self, s):
        a, b, c, *_ = self.abc_derivs(s)
        return a, b, c

    def values(self, env, x, t):
        """(a, b, c) on the jet environment env sampled at (x, t)."""
        return self.abc(self.reduced_coordinate(np.asarray(x, dtype=float), t))

    def values_and_derivs(self, env, x, t):
        """(a, b, c), their x-derivatives and their t-derivatives, three
        3-tuples, on the jet environment env sampled at (x, t)."""
        s = self.reduced_coordinate(x, t)
        lo, hi = self.validity
        if np.any(s <= lo) or np.any(s >= hi):
            raise TripleDomainError(f"(x, t) maps to s = {s}, outside the validity interval ({lo}, {hi})")
        a, b, c, ap, bp, cp = self.abc_derivs(s)
        sx, st = self.sx, self.st
        return (a, b, c), (sx * ap, sx * bp, sx * cp), (st * ap, st * bp, st * cp)

    def gauss_residual_at(self, s):
        a, b, c = self.abc(s)
        return gauss_residual(a, b, c)

    def strip_samples(self, n):
        """n points evenly over the middle 99% of the strip (or of a stand-in for an unbounded one)."""
        lo, hi = self.validity
        if not np.isfinite(lo) and not np.isfinite(hi):
            lo, hi = -1.0, 1.0
        elif not np.isfinite(hi):
            hi = lo + 2.0
        elif not np.isfinite(lo):
            lo = hi - 2.0
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo) * 0.99
        return np.linspace(mid - half, mid + half, n)

    def csv_columns(self, n):
        """The columns under `csv_header`: n points across the strip."""
        return self._abc_columns(self.strip_samples(n))

    def _abc_columns(self, s):
        a, b, c = self.abc(s)
        return [s, a, b, c, gauss_residual(a, b, c)]

    def export_csv(self, path, n=1000):
        write_csv(path, self.csv_header, self.csv_columns(n))


@dataclass(eq=False)
class _ClosedForm(ImmersionTriple):
    """a = a_sign*sqrt(L), L = A*E - beta^2*E^2 - 1, E = exp(ce*s)."""

    A: float
    beta: float
    ce: float
    cbar: float
    bsign: float
    sign: float
    a_sign: float
    representation: ClassVar[str] = Representation.CLOSED_FORM

    def abc_derivs(self, s):
        E = np.exp(self.ce * s)
        b2 = self.beta**2
        L = self.A * E - b2 * E * E - 1.0
        if np.any(L <= 0):
            raise TripleDomainError("L(s) <= 0: outside the validity strip")
        Lp = self.ce * (self.A * E - 2.0 * b2 * E * E)
        Lpp = self.ce**2 * (self.A * E - 4.0 * b2 * E * E)
        sq = np.sqrt(L)
        a = self.a_sign * sq
        ap = self.a_sign * Lp / (2.0 * sq)
        app = self.a_sign * (Lpp / (2.0 * sq) - Lp * Lp / (4.0 * L * sq))
        b = self.bsign * self.beta * E
        bp = self.ce * b
        c = a - self.sign * ap / self.cbar
        cp = ap - self.sign * app / self.cbar
        return a, b, c, ap, bp, cp


class _OdeForm(ImmersionTriple):
    """b marched by RK4 from b(s0) = b0 on a table and Hermite-interpolated;
    (a, c) recovered from b pointwise through the Gauss quadratic."""

    representation = Representation.ODE_TABLE
    csv_header = "s,a,b,c,gauss_residual,bprime"

    def __init__(self, branch_label, svar, sx, st, mu2, beta, rho, sign, a_sign, ip):
        self.mu2 = mu2
        self.beta = beta
        self.rho = rho
        self.k = math.sqrt(1.0 + mu2 * mu2)
        self.ce = sign * 2.0 * rho / self.k
        self.sign = sign
        self.a_sign = a_sign
        # the factors of phi, den and num (see _slope), each grouped as its
        # left-to-right product was, so folding them keeps every bit
        self._phi_c = mu2**2 - 1.0
        self._den_c = (mu2**2 + 1.0, a_sign * (mu2**2 - 1.0), 4.0 * a_sign * mu2)
        self._num_c = (2.0 * sign * rho * self.k, a_sign * sign * (2.0 * beta * rho / self.k))
        self.s, self.b, self.bprime, self.stops = self._march(ip)
        super().__init__(branch_label, svar, sx, st, (float(self.s[0]), float(self.s[-1])))

    def phip_deltap(self, phi, E, b, bp):
        """(phi', delta') along the table, from phi, E, b and b' at a point."""
        phip = (self._phi_c * bp - self.beta * self.ce * E) / self.mu2
        return phip, 2.0 * phi * phip + 8.0 * b * bp

    def _slope(self, s, b, E, sqrt=np.sqrt, keep=False):
        """(phi, sq, den, b'): b' = g(s, b) = num/den, from b and E = exp(ce*s),
        with sq = sqrt(delta), delta = phi^2 - 4 (1 - b^2).  `sqrt` is np.sqrt
        on arrays and math.sqrt in the march's Python floats; IEEE sqrt is
        correctly rounded, so both give the same bits.  Raises the collapse at
        the first s where delta <= 0 or |den| < 1e-300.

        With `keep`, s is a point the march would keep, and the tests are
        those that stop the march there: delta not in (DELTA_MIN, inf), or
        |den| not in [floor, inf), the floor DENOM_MIN * max(1, |terms|_inf)
        (as the residual tolerances scale) below which den is lost in the
        rounding of its terms and has no sign, or a delta' that is not finite
        (the table's a' would overflow).  A non-finite b makes delta
        non-finite, and a finite den has finite terms.  Each is stricter than
        the test without `keep`, so where a point passes, b' has the bits of
        the array call there, as abc_derivs makes it."""
        phi = (self._phi_c * b - self.beta * E) / self.mu2
        delta = phi * phi - 4.0 * (1.0 - b * b)
        # `bad` is a bool in the march's Python floats (tested without a
        # call, which would cost more than the test) and numpy's otherwise
        bad = not DELTA_MIN < delta < math.inf if keep else delta <= 0
        if bad is True or bad is not False and bad.any():
            raise DiscriminantCollapse(s, bad)
        sq = sqrt(delta)
        (d1, d2, d3), (n1, n2) = self._den_c, self._num_c
        t1, t2, t3 = d1 * sq, d2 * phi, d3 * b
        den = t1 + t2 + t3
        bad = (not DENOM_MIN * max(1.0, abs(t1), abs(t2), abs(t3)) <= abs(den) < math.inf
               if keep else abs(den) < 1e-300)
        if bad is True or bad is not False and bad.any():
            raise DenominatorCollapse(s, bad)
        bprime = (n1 * b * sq + n2 * phi * E) / den
        if keep and not abs(self.phip_deltap(phi, E, b, bprime)[1]) < math.inf:
            raise DiscriminantCollapse(s)
        return phi, sq, den, bprime

    def _stage_points(self, s0, h, n):
        """(sv + h/2, sv + h, E there, E there) for each of the n steps of a
        march from s0, sv the step's start, by the march's own sequential
        additions sv + h, with E = exp(ce*s) as Python floats.  The
        exponentials of a block of steps come from one np.exp, which gives
        each element the bits of its 0-d np.exp (as abc_derivs takes it;
        math.exp rounds differently), which
        test_block_exp_equals_the_0d_exp_of_each_abscissa_bit_for_bit pins.
        The blocks bound the memory at MAX_ODE_STEPS, and a march that stops
        early computes at most one block past its stop, where exp may
        overflow unseen: an E that overflows makes delta non-finite, so the
        march stops no later than the first node past it."""
        sv, block = s0, 4096
        for done in range(0, n, block):
            starts = [sv]
            for _ in range(min(block, n - done)):
                sv += h
                starts.append(sv)
            nodes = starts[1:]
            mids = [v + 0.5 * h for v in starts[:-1]]
            with np.errstate(over="ignore"):
                E = np.exp(self.ce * np.array(mids + nodes)).tolist()
            yield from zip(mids, nodes, E[:len(nodes)], E[len(nodes):])

    def _march(self, ip):
        """(s, b, b', stops): the table marched both ways from (ip.s0, ip.b0),
        in Python floats; it stops where _slope(keep=True) raises at a node,
        _slope raises at a stage or den changes sign.  `stops` has the reason
        and s of each direction's collapse, which a table of fewer than 4
        points raises.  b' is the slope each kept point was checked with, so
        the table's slopes are not computed again."""
        slope, sqrt = self._slope, math.sqrt
        with np.errstate(over="ignore"):
            E0 = float(np.exp(self.ce * ip.s0))
        _, _, den0, k0 = slope(ip.s0, ip.b0, E0, sqrt, keep=True)

        def march(h):
            # the check that keeps a point gives b' there, which is the next
            # step's first stage k1 ("first same as last")
            out_s, out_b, out_bp = array("d"), array("d"), array("d")
            bv, k1, den_prev = ip.b0, k0, den0
            stop = None
            for s_half, sn, E_half, En in self._stage_points(ip.s0, h, int(round(ip.eps / ip.h))):
                try:
                    k2 = slope(s_half, bv + 0.5 * h * k1, E_half, sqrt)[3]
                    k3 = slope(s_half, bv + 0.5 * h * k2, E_half, sqrt)[3]
                    k4 = slope(sn, bv + h * k3, En, sqrt)[3]
                    bn = bv + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                    _, _, den, kn = slope(sn, bn, En, sqrt, keep=True)
                except _Collapse as e:
                    stop = e
                    break
                # a sign change means the step jumped over a pole of b'
                if (den < 0) != (den_prev < 0):
                    stop = DenominatorCollapse(sn)
                    break
                out_s.append(sn)
                out_b.append(bn)
                out_bp.append(kn)
                bv, k1, den_prev = bn, kn, den
            return (out_s, out_b, out_bp), stop

        fwd, stop_p = march(ip.h)
        back, stop_m = march(-ip.h)
        # each column: the backward points reversed, the start, the forward points
        for m, v0, p in zip(back, (ip.s0, ip.b0, k0), fwd):
            m.reverse()
            m.append(v0)
            m.extend(p)
        s, b, bprime = (np.frombuffer(m) for m in back)
        if len(s) < 4:
            if not (stop_p or stop_m):
                raise TripleDomainError(f"eps = {ip.eps} leaves {len(s)} table points at h = {ip.h}; 4 are needed")
            raise stop_p or stop_m
        stops = {way: {"reason": stop.reason, "s": stop.s}
                 for way, stop in (("forward", stop_p), ("backward", stop_m)) if stop}
        return s, b, bprime, stops

    def _interp_b(self, s):
        s = np.asarray(s, dtype=float)
        lo, hi = self.s[0], self.s[-1]
        if np.any(s < lo) or np.any(s > hi):
            raise TripleDomainError(f"s outside the marched interval [{lo}, {hi}]")
        i = np.clip(np.searchsorted(self.s, s) - 1, 0, len(self.s) - 2)
        h = self.s[i + 1] - self.s[i]
        tt = (s - self.s[i]) / h
        h00 = (1 + 2 * tt) * (1 - tt) ** 2
        h10 = tt * (1 - tt) ** 2
        h01 = tt * tt * (3 - 2 * tt)
        h11 = tt * tt * (tt - 1)
        return (
            h00 * self.b[i]
            + h10 * h * self.bprime[i]
            + h01 * self.b[i + 1]
            + h11 * h * self.bprime[i + 1]
        )

    def abc_derivs(self, s):
        b = self._interp_b(s)
        r = self.a_sign
        E = np.exp(self.ce * s)
        phi, sq, _, bp = self._slope(s, b, E)
        a = 0.5 * (-phi + r * sq)
        c = a + phi
        phip, deltap = self.phip_deltap(phi, E, b, bp)
        ap = 0.5 * (-phip + r * deltap / (2.0 * sq))
        cp = ap + phip
        return a, b, c, ap, bp, cp

    def csv_columns(self, n):
        """The columns under `csv_header`: the marched table (n is not used)."""
        a, b, c, ap, bp, cp = self.abc_derivs(self.s)
        return [self.s, a, b, c, gauss_residual(a, b, c), bp]


@dataclass(eq=False)
class _SineGordonForm(ImmersionTriple):
    """a = 2*a_sign*cos(u)/sin(u), b = -a_sign, c = 0 in u = z0: the triple
    depends on the solution, and has poles where sin u = 0."""

    a_sign: float
    representation: ClassVar[str] = Representation.SOLUTION_DEPENDENT
    csv_header: ClassVar[str] = "u,a,b,c,gauss_residual"

    def abc_derivs(self, u):
        """(a, b, c) and their u-derivatives."""
        su = np.sin(u)
        if np.any(su == 0):
            raise TripleDomainError("sine-Gordon triple has a pole where sin u = 0")
        a = self.a_sign * 2.0 * np.cos(u) / su
        b = -self.a_sign * np.ones_like(np.asarray(u, dtype=float))
        c = np.zeros_like(np.asarray(u, dtype=float))
        return a, b, c, -self.a_sign * 2.0 / (su * su), 0.0, 0.0

    def values(self, env, x, t):
        return self.abc(env["z0"])

    def values_and_derivs(self, env, x, t):
        a, b, c, dadu, _, _ = self.abc_derivs(env["z0"])
        if "w1" not in env:
            raise TripleDomainError("sine-Gordon Codazzi check needs w1 = u_t in the jet")
        return (a, b, c), (dadu * env["z1"], 0.0, 0.0), (dadu * env["w1"], 0.0, 0.0)

    def csv_columns(self, n):
        """The columns under `csv_header`: n points of u in [0.1, pi - 0.1]."""
        return self._abc_columns(np.linspace(0.1, math.pi - 0.1, n))


# ----------------------------------------------------------------------


_CSV_BLOCK = 1024  # rows whose text write_csv lays out at once


def write_csv(path, header, columns):
    """Write `header` and then one line per row of the equal-length columns,
    each cell repr of the float64: the shortest decimal that reads back to
    the same float.  The rows are laid out with numpy, _CSV_BLOCK at a
    time, by floattext.repr_cells."""
    rows = np.column_stack([np.asarray(col, dtype=float) for col in columns])
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for lo in range(0, len(rows), _CSV_BLOCK):
            part = rows[lo:lo + _CSV_BLOCK]
            cells = repr_cells(part.ravel())
            cells[0, ::part.shape[1]] = 0  # no comma before a row's first cell
            fh.write(lines(b"", cells.T.reshape(part.shape + (-1,))))


def json_text(doc):
    """The text of every JSON document pss writes: indented, keys sorted,
    one final newline, and strict JSON: a non-finite float (an unbounded
    validity end, a NaN residual) is written as null."""
    return json.dumps(_finite_or_null(doc), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _finite_or_null(v):
    if isinstance(v, float):
        return v if math.isfinite(v) else None
    if isinstance(v, dict):
        return {k: _finite_or_null(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_finite_or_null(x) for x in v]
    return v


def gauss_residual(a, b, c):
    """ac - b^2 + 1; zero iff the Gauss equation for K = -1 holds."""
    return a * c - b * b + 1.0


def _strip_interval(A, beta, ce, what):
    if A is None:
        raise InvalidStrip(f"{what} is required for this closed form")
    if not A > 0:
        raise InvalidStrip(f"{what} > 0 violated ({what} = {A})")
    if beta == 0.0:
        bound = -math.log(A) / ce
        return (bound, math.inf) if ce > 0 else (-math.inf, bound)
    if not A * A > 4.0 * beta * beta:
        raise InvalidStrip(f"{what}^2 > 4*beta^2 violated ({what} = {A}, beta = {beta})")
    disc = math.sqrt(A * A - 4.0 * beta * beta)
    try:  # beta^2 underflows to 0, or the lower root cancels to 0 or below (A*A overflows)
        ylo = (A - disc) / (2.0 * beta * beta)
        yhi = (A + disc) / (2.0 * beta * beta)
        s1, s2 = math.log(ylo) / ce, math.log(yhi) / ce
    except (ValueError, ZeroDivisionError):
        raise InvalidStrip(f"the strip ends of {what} = {A}, beta = {beta} are lost to rounding") from None
    return (min(s1, s2), max(s1, s2))


def _closed_form(fam: Family, ip: ImmersionParams):
    """The closed-form triple of the family, or None when its case has none."""
    p = fam.params
    s = float(p.sign)
    if p.branch == Branch.T22 and p.mu2 == 0:
        case = dict(branch_label="Prop4.1(i)", svar="x", sx=1.0, st=0.0, A=ip.C_strip,
                    what="C_strip", ce=s * 2.0 * p.eta2, cbar=p.eta2, bsign=-1.0)
    elif p.branch == Branch.T24 and p.mu2 == 0 and p.eta2 == 0:
        case = dict(branch_label="Prop4.3(i)", svar="t", sx=0.0, st=1.0, A=ip.sigma,
                    what="sigma", ce=s * 2.0 * p.C, cbar=p.C, bsign=+1.0)
    elif p.branch == Branch.T24 and p.mu2 == 0:
        case = dict(branch_label="Prop4.3(ii)", svar="xi", sx=p.eta2, st=p.C, A=ip.sigma,
                    what="sigma", ce=s * 2.0, cbar=1.0, bsign=-1.0)
    else:
        return None
    what = case.pop("what")
    validity = _strip_interval(case["A"], ip.beta, case["ce"], what)
    return _ClosedForm(**case, validity=validity, beta=ip.beta, sign=s, a_sign=float(ip.a_sign))


def integrate_b_ode(fam: Family, ip: ImmersionParams):
    """March the b-ODE (mu2 != 0 branches) into an ODE-table triple."""
    p = fam.params
    if p.mu2 == 0:
        raise CatalogError("the ODE branch requires mu2 != 0")
    if p.branch == Branch.T22:
        label, svar, sx, st, rho = "Prop4.1(ii)", "x", 1.0, 0.0, p.eta2
    elif p.branch == Branch.T24:
        label, svar, sx, st, rho = "Prop4.3(iii)", "xi", p.eta2, p.C, 1.0
    else:
        raise CatalogError(f"{fam.name}: no ODE immersion branch")
    return _OdeForm(label, svar, sx, st, p.mu2, ip.beta, rho, float(p.sign), float(ip.a_sign), ip)


def solve_triple(fam: Family, ip: ImmersionParams):
    """Universal triple for the family, or the cited non-existence result."""
    p = fam.params
    if p.branch in _NO_IMMERSION:
        return NoImmersion(p.branch, _NO_IMMERSION[p.branch],
                           "no local isometric immersion with finite-jet triples exists")
    if not fam.is_form7:
        return _SineGordonForm("sine-Gordon", "u", 0.0, 0.0, (-math.inf, math.inf), float(ip.a_sign))
    trip = _closed_form(fam, ip)
    return trip if trip is not None else integrate_b_ode(fam, ip)


# ----------------------------------------------------------------------
# Codazzi cross-check


def codazzi_residuals(fam: Family, trip: ImmersionTriple, env, x: float, t: float):
    """(E1, E2): the two Codazzi combinations on jet environment env at position (x, t).

    The triple gives its values and their total x- and t-derivatives, as
    functions of x and t only (universal triples) or through u (the
    sine-Gordon triple); the f_ij and Delta_ij are evaluated on the jets.
    """
    col1, col2 = fam.column(1)(env), fam.column(2)(env)
    (f11, f21, _), (f12, f22, _) = col1, col2
    d13, d23 = delta(col1, col2, 1, 3), delta(col1, col2, 2, 3)
    (a, b, c), (dxa, dxb, dxc), (dta, dtb, dtc) = trip.values_and_derivs(env, x, t)
    e1 = f11 * dta + f21 * dtb - f12 * dxa - f22 * dxb - 2.0 * b * d13 + (a - c) * d23
    e2 = f11 * dtb + f21 * dtc - f12 * dxb - f22 * dxc + (a - c) * d13 + 2.0 * b * d23
    return e1, e2
