"""Decimal text of float64 arrays, laid out with numpy a block at a time.

Two formats share one engine: "%.17g" % v, the OBJ coordinates of
frames.export_obj, and repr(v), the CSV cells of immersion.write_csv.  Each
value's text is a column of a (_CELL, n) uint8 array: a separator byte, then
the text, NUL-padded; `lines` makes rows of cells into records and drops the
NULs.

Both formats write 1e-4 <= |v| < 1e17 (repr: < 1e16) in fixed notation.
There the digits come from Dekker's exact product with a power of ten
(Dekker 1971): p + e = |v| * 10**(16 - X) exactly, with X the decimal
exponent of v, so N = p + e lies in [1e16, 1e17).  "%.17g" rounds N to the
nearest integer, half to even, the fixed-precision case of Ryu printf
(Adams 2019).  repr writes the shortest digits that read back to v (Steele
and White 1990; Ryu, Adams 2018): those of the integer nearest N among the
ones with the most trailing zeros inside the interval of reals that round
to v, found by exact comparisons against that interval.  Zeros are laid out
like fixed values; every other value (tiny, huge, inf, NaN) is written by
the format itself, once per distinct value.
"""

from __future__ import annotations

import numpy as np

__all__ = ["g17_cells", "repr_cells", "lines"]

# a separator and the longest text of either format, "-1.7976931348623157e+308"
_CELL = 25
_POW10 = np.array([float(10**k) for k in range(21)])  # exact: 10**k is a double for k <= 22
_PAIRS = np.frombuffer(b"%02d" * 100 % tuple(range(100)), np.uint8).reshape(100, 2)  # row i: the two digits of i
_QUADS = np.concatenate(np.broadcast_arrays(_PAIRS[:, None], _PAIRS[None]), axis=2).view(np.uint32).ravel()  # i: 4 digits
_ROWS = np.arange(22.0)[:, None]  # the row index of _cells' digit array, for broadcast compares
_DIGIT_ROWS = np.arange(5, 22, dtype=np.uint8)[:, None]  # one past each of rows 4..20
_TWO_52 = np.float64(2**52).view(np.int64)


def g17_cells(x):
    """"%.17g" % v of each value v of the float array x, as the column of a
    (_CELL, len(x)) uint8 array: a space, then the text, NUL-padded."""
    return _cells(x, b" ", False)


def repr_cells(x):
    """repr(v) of each value v of the float array x, the shortest decimal
    that reads back to v, as the column of a (_CELL, len(x)) uint8 array: a
    comma, then the text, NUL-padded."""
    return _cells(x, b",", True)


def lines(prefix, body):
    """The bytes of `prefix`, then those of body[k] and a newline, for each
    k, without the NUL bytes; body is a uint8 array of any shape."""
    rec = np.empty((len(body), len(prefix) + int(np.prod(body.shape[1:])) + 1), np.uint8)
    rec[:, :len(prefix)] = np.frombuffer(prefix, np.uint8)
    rec[:, len(prefix):-1].reshape(body.shape, copy=False)[...] = body
    rec[:, -1] = ord("\n")
    return rec.tobytes().translate(None, b"\0")


def _split(a):
    """hi + lo = a with hi holding the upper 26 bits of the significand (Dekker)."""
    t = 134217729.0 * a  # 2**27 + 1
    hi = t - (t - a)
    return hi, a - hi


def _two_product(a, b):
    """(p, e) with p = fl(a*b) and p + e = a*b exactly (Dekker 1971), for
    products that neither overflow nor underflow."""
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _cells(x, sep, shortest):
    """The cells of g17_cells (shortest False) or repr_cells (True).

    For 1e-4 <= |v| < 1e17, "%.17g" writes fixed notation with the decimal
    exponent X in -4..16 of v rounded to 17 digits; repr does so below 1e16.
    (p, e) is |v| * 10**(16 - X) exactly, so X is the one with
    1e16 <= p + e < 1e17, and q = p + rint(e) is the 17-digit integer
    rounded half to even, as % rounds (p is then an even integer).  No
    double in that range lies within half a unit of the 17th digit below a
    power of ten, so q < 1e17.  repr's q is q + _shortest_step, below 1e17
    too: 1e17 would put 10**(X + 1) in the interval of reals that round to
    a double below it, but 10**0..10**16 are doubles and the doubles nearest
    1e-3, 1e-2 and 1e-1 lie above them.  The rows of D hold '0000', the
    digits of q and a NUL; the text is D[s:f] + "." + D[f:end], with f = X + 5 the row
    of the first fraction digit, s = 4 + min(X, 0) and end past the last
    nonzero digit, and has no point if end = f; repr keeps one fraction
    digit, so its end is at least f + 1.  A zero is laid out as 1.0 with
    q = 0.  The arithmetic stays in doubles, where each step is exact, and
    the digit rows use uint8 multiply, add and !=: int64 division and
    comparison, int8 arithmetic or np.unique would each map more of numpy's
    code into a certify process, which runs none of them otherwise."""
    n = len(x)
    a = np.abs(x)
    zero = a == 0.0
    fixed = (a >= 1e-4) & (a < (1e16 if shortest else 1e17))
    a[~fixed] = 1.0
    X = np.clip(np.floor(np.log10(a)), -4, 16)  # off by one near a power of ten
    m = _POW10[(16 - X + 2.0**52).view(np.int64) - _TWO_52]
    p, e = _two_product(a, m)
    high = (p > 1e17) | ((p == 1e17) & (e >= 0.0))
    low = (p < 1e16) | ((p == 1e16) & (e < 0.0))
    if high.any() or low.any():
        X = np.where(high, X + 1, np.where(low, X - 1, X))
        m = _POW10[(16 - X + 2.0**52).view(np.int64) - _TWO_52]
        p, e = _two_product(a, m)
    r = np.rint(e)
    # q = p + r as 9 + 8 digits, q = hi * 1e8 + lo: each step is exact in doubles
    hi = np.floor(p / 1e8)
    lo = p - hi * 1e8 + r
    if shortest:
        lo += _shortest_step(a, m, e - r, lo)
    carry = np.floor(lo / 1e8)
    hi += carry
    lo -= carry * 1e8
    hi[zero] = lo[zero] = 0.0  # and X = 0, the exponent of the 1.0 in their place
    quads = np.empty((5, n))  # the leading digit, then q's last 16 digits four at a time
    quads[0] = np.floor(hi / 1e8)
    hi -= quads[0] * 1e8
    for k, part in ((1, hi), (3, lo)):
        quads[k] = np.floor(part / 1e4)
        quads[k + 1] = part - quads[k] * 1e4
    idx = (quads + 2.0**52).view(np.int64) - _TWO_52  # exact integers below 2**52, without numpy's slow cast
    D = np.empty((22, n), np.uint8)
    D[0] = ord("0")
    D[21] = 0
    np.copyto(D[1:21].reshape(5, 4, n), _QUADS[idx].view(np.uint8).reshape(5, n, 4).transpose(0, 2, 1))
    f = X + 5
    end = np.maximum(((D[4:21] != ord("0")).view(np.uint8) * _DIGIT_ROWS).max(axis=0), f + 1 if shortest else f)
    cells = np.empty((_CELL, n), np.uint8)
    cells[0] = sep[0]
    cells[1] = np.signbit(x).view(np.uint8) * np.uint8(ord("-"))
    cells[24] = 0
    whole = _ROWS < f  # the rows of D before the point
    np.multiply(D, whole.view(np.uint8), out=cells[2:24])
    cells[2:6] *= (_ROWS[:4] >= np.minimum(X, 0) + 4).view(np.uint8)
    cells[3:24] += (whole[:-1] & ~whole[1:] & (end > f)).view(np.uint8) * np.uint8(ord("."))
    cells[3:25] += D * ((_ROWS < end) ^ whole).view(np.uint8)
    other = np.flatnonzero(~(fixed | zero))
    if len(other):
        values = x[other].tolist()
        text = repr if shortest else "%.17g".__mod__
        texts = {v: text(v).encode().ljust(_CELL - 1, b"\0") for v in set(values)}
        table = b"".join(map(texts.__getitem__, values))
        cells[1:, other] = np.frombuffer(table, np.uint8).reshape(-1, _CELL - 1).T
    return cells


def _shortest_step(a, m, d, R):
    """q - R for repr's digits q of each a = |v|, where R is the integer
    nearest N = a * m, m = 10**(16 - X), and d = N - R exactly, so
    |d| <= 1/2.  Only R modulo 100 is read: any integer congruent to it
    serves.

    The reals that round to a lie within H = 2**(E - 54) * m of N = R + d
    in these units (a in [2**(E-1), 2**E)).  Below a power of two they
    reach only H / 2, but no power of two from 1e-4 to 1e16 has a shorter
    form between the two (the tests check each one), so H serves both
    sides.  R + k is inside for the integers -down <= k <= up, with
    up = floor(d + H) and down = floor(H - d): H is at most 11.1, and an
    end of the interval lies on an integer or at least 2**-47 from one, so
    the rounded sums floor to the same integers.  The interval is narrower
    than 23, so at most one multiple of 100 lies in it, and it is the
    shortest form whenever one of 15 or fewer digits exists (DBL_DIG = 15).
    Otherwise the closer inside multiple of 10 is, the even digit on a
    tie, and otherwise R, which always is.  An end of the interval is a
    16-digit candidate only at an even integer a in [2**53, 1e16), whose own
    R is closer, so whether the ends count as inside changes no digit."""
    H = m * (((a.view(np.int64) >> 52) - 53) << 52).view(np.float64)
    up, down = np.floor(d + H), np.floor(H - d)
    r100 = R - 100 * np.floor(R / 100)
    tens = np.floor(r100 / 10)  # R's tens digit
    r10 = r100 - 10 * tens
    above = 100 - r100 <= up
    step100 = np.where(above, 100 - r100, -r100)
    lo, hi = r10 <= down, 10 - r10 <= up
    # R + 10 - r10 is closer than R - r10 past 5, and on a tie when the tens digit is odd
    closer = (r10 > 5) | ((r10 == 5) & ((d > 0) | ((d == 0) & (tens - 2 * np.floor(tens / 2) == 1))))
    step10 = np.where(hi & (~lo | closer), 10 - r10, -r10)
    return np.where(above | (r100 <= down), step100, np.where(lo | hi, step10, 0.0))
