"""floattext lays out repr(v) and "%.17g" % v of float64 arrays with numpy,
byte for byte as Python writes them, and write_csv's tables with it."""

import math
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np

from pss import floattext
from pss.immersion import _CSV_BLOCK, write_csv
from references import row_by_row_csv


def _assert_texts(cells, want):
    """Each cell of `cells`, its separator dropped, is the string in `want`."""
    got = floattext.lines(b"", cells[1:].T).decode().split("\n")[:-1]
    bad = [(g, w) for g, w in zip(got, want) if g != w]
    assert len(got) == len(want) and not bad, bad[:10]


def _sixteen_digit_ties(rng):
    """Doubles exactly halfway between two 16-digit decimals of their decade
    10**X: odd multiples of 2**-(j + 1) with j = 15 - X, so 2 * v * 10**j is
    odd, drawn for X = -4..14 (above, a tie is not a double)."""
    ties = [756787876217856.25]
    for X in range(-4, 15):
        j = 15 - X
        lo = math.ceil(Fraction(10) ** X * 2 ** (j + 1))
        hi = min(math.ceil(Fraction(10) ** (X + 1) * 2 ** (j + 1)), 2**53)
        ties += np.ldexp(rng.integers((lo + 1) // 2, hi // 2, 200) * 2.0 + 1.0, -j - 1).tolist()
    digits = [Decimal(t).normalize().as_tuple().digits for t in ties]
    assert all(len(d) == 17 and d[-1] == 5 for d in digits)  # each halfway between two 16-digit decimals
    return ties


def _repr_cases(rng):
    """Values where a shortest-digits formatter can go wrong: 10**5 random
    bit patterns of magnitudes 1e-6..1e18 (nine in ten in fixed notation)
    and 10**4 of any magnitude, with random signs, then, with both signs,
    the neighbours of each power of ten from 1e-5 to
    1e17 (the ends of fixed notation, 1e-4 and 1e16, among them), each
    power of two from 2**-14 to 2**54 and its neighbours (the gap below a
    power of two is half the gap above), exact 16-digit ties, values whose
    shortest form has 1 to 15 digits, zeros, subnormals, inf, NaN and the
    largest double."""
    ends = np.array([1e-6, 1e18]).view(np.int64)
    bits = rng.integers(ends[0], ends[1], 10**5).view(np.float64) * rng.choice([-1.0, 1.0], 10**5)
    wide = rng.integers(0, 2**64, 10**4, dtype=np.uint64).view(np.float64)
    near = []
    for X in range(-5, 18):
        p = float(f"1e{X}")
        near += [p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)]
    for k in range(-14, 55):
        near += [2.0**k, np.nextafter(2.0**k, 0.0), np.nextafter(2.0**k, np.inf)]
    short = []
    for d in range(1, 16):
        mantissas = rng.integers(10 ** (d - 1), 10**d, 400)
        exponents = rng.integers(-4 - d, 17 - d, 400)
        short += [float(f"{m}e{e}") for m, e in zip(mantissas.tolist(), exponents.tolist())]
    assert {len(repr(v).replace(".", "").split("e")[0].strip("0")) for v in short} == set(range(1, 16))
    special = [0.0, 5e-324, 2.2250738585072014e-308, np.nextafter(2.2250738585072014e-308, 0.0),
               np.inf, np.nan, sys.float_info.max]
    signed = np.concatenate([near, _sixteen_digit_ties(rng), short, special])
    return np.concatenate([bits, wide, signed, -signed])


def test_csv_cells_match_repr():
    """Each repr_cells cell is "," + repr(v), and the 16-digit ties take the
    even digit.  "%.17g" of the same values comes out of the same engine."""
    values = _repr_cases(np.random.default_rng(32))
    cells = floattext.repr_cells(values)
    assert np.all(cells[0] == ord(","))
    _assert_texts(cells, [repr(v) for v in values.tolist()])
    _assert_texts(floattext.g17_cells(values), ["%.17g" % v for v in values.tolist()])
    texts = [repr(v) for v in _sixteen_digit_ties(np.random.default_rng(32))]
    assert texts[0] == "756787876217856.2"
    # a tie both of whose 16-digit neighbours read back to it prints 16 digits, the last one even
    even = [t for t in texts if len(t.replace(".", "").lstrip("0")) == 16]
    assert len(even) > 500 and all(int(t[-1]) % 2 == 0 for t in even)


def test_csv_table_longer_than_a_block_matches_the_row_by_row_writer(tmp_path):
    """A table of the hard cases, with more rows than one block of write_csv."""
    rng = np.random.default_rng(33)
    rows = _CSV_BLOCK + 777
    cols = rng.permutation(_repr_cases(rng))[:5 * rows].reshape(5, rows)
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    write_csv(new, "a,b,c,d,e", cols)
    row_by_row_csv(old, "a,b,c,d,e", cols)
    assert new.read_bytes() == old.read_bytes() and new.read_text().count("\n") == rows + 1
