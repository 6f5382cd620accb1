"""Byte-exact ``%.17g`` CSV text from float64 columns, on numpy.

Every value is written as ``format(float(v), ".17g")`` writes it, in two
stages:

* ``cells(values)`` formats a column into ``Cells``: one 32-byte record per
  value, holding its characters between NUL bytes and no separator.  A
  column shared by several tables (a grid) is formatted once this way.
* ``join(columns)`` lays the records of a block of rows side by side, one
  column after another, writes ``,`` after every cell of a row but the
  last and ``\\n`` after that one, and drops the NUL bytes of the block
  at once.  A column given as ``Cells`` is copied in; a float column is
  formatted straight into the block, all adjacent float columns at once.

The formatting is done on whole columns:

* the decimal exponent k = floor(log10 |x|) comes from ``np.log10`` and is
  made exact by comparing |x| with 10^k and 10^(k+1);
* |x| 10^(16-k) is formed as a double-double ``p + t`` with Dekker's
  error-free product (Veltkamp splits, "A floating-point technique for
  extending the available precision", 1971) against a hi/lo table of
  10^p, and rounded to the nearest 17-digit integer D (a tie is left to
  ``format``, below); a carry to 10^17 moves k up by one;
* D is cut into a leading digit and four 4-digit groups, rendered through a
  table of packed 4-character groups, trailing zeros are dropped, and the
  cell is laid out by ``%g``'s rules: fixed notation for -4 <= k < 17,
  ``d.ddde+XX`` otherwise.

A record is four little-endian uint64 words:

* word 0 holds the sign, the ``0.000`` of fixed notation below 1, and the
  leading digit, right-aligned;
* words 1 and 2 hold the remaining digits (at most 16) with the decimal
  point inserted, left-aligned;
* word 3 holds in byte 0 the digit that the decimal point pushes out of
  word 2, in bytes 1 to 5 the exponent ``e+XX`` or ``e-XXX`` of scientific
  notation, and in byte 7 the separator, which ``join`` writes.

So every cell is one run of characters between NUL bytes, and one boolean
mask over a block of records yields its rows.  Zeros stay on this path.

Three kinds of cell are formatted by Python's ``format`` instead (Gay's
correctly rounded conversion, "Correctly rounded binary-decimal and
decimal-binary conversions", 1990): non-finite values, |x| with |k| above
``_K_MAX`` (subnormals included), and values whose scaled fraction lies
within ``_TIE_GUARD`` of one half.  The double-double is accurate to about
1e-14 there, so only those cells could round the other way; exact ties,
such as 2**-25 = 2.98023223876953125e-08, are among them.  Their text, at
most 24 characters, fills the record from byte 0, so byte 31 stays free for
the separator.
"""

from __future__ import annotations

import math
from itertools import groupby

import numpy as np

__all__ = ["Cells", "cells", "join"]

# |k| of the values formatted here; the tables cover 10^p for p in
# [-_K_MAX - 1, 16 + _K_MAX + 1] (the exponent checks and the scalings)
_K_MAX = 280
_P_MIN = -_K_MAX - 1
# scaled fractions this close to one half are left to format()
_TIE_GUARD = 1e-6
# Veltkamp's splitting constant for doubles, 2^27 + 1
_SPLIT = 134217729.0


def _powers_of_ten():
    """(hi, lo) doubles with hi + lo = 10^p to about 2^-107 relative, for p
    from ``_P_MIN`` to ``17 + _K_MAX``, by integer arithmetic: hi is 10^p
    correctly rounded and lo the remainder 10^p - hi correctly rounded."""
    tens = [1]
    for _ in range(17 + _K_MAX):
        tens.append(tens[-1] * 10)
    his, los = [], []
    for d in tens[-_P_MIN:0:-1]:
        hi = 1 / d  # int true division rounds correctly
        num, den = hi.as_integer_ratio()  # den a power of 2
        his.append(hi)
        los.append(math.ldexp((den - num * d) / d, 1 - den.bit_length()))
    for n in tens:
        hi = float(n)
        his.append(hi)
        los.append(float(n - int(hi)))
    return np.array(his), np.array(los)


_HI, _LO = _powers_of_ten()
# the smallest double >= 10^p: x >= 10^p exactly when x >= _AT_LEAST[p]
_AT_LEAST = np.where(_LO > 0, np.nextafter(_HI, np.inf), _HI)
_c = _SPLIT * _HI
_HI1 = _c - (_c - _HI)
_HI2 = _HI - _HI1
del _c


# axis i of these 10x10x10x10 tables is the i-th digit of g = 0000..9999
_D = np.arange(10)
# packed 4-character groups "%04d" % g, first character in the low byte:
# _GROUP[g] in the low half of a word, _GROUP_HI[g] in the high half
_GROUP = (0x30303030 + _D[:, None, None, None] + (_D << 8)[:, None, None]
          + (_D << 16)[:, None] + (_D << 24)).ravel().astype(np.uint64)
_GROUP_HI = _GROUP << np.uint64(32)
# _LENGTH_AT[i][g]: characters of g up to its last non-zero digit, plus 4
# per group before it (i of them), and 0 for g = 0
_NZ = _D > 0
_I = 4 * np.arange(4)[:, None, None, None, None]
_LENGTH_AT = np.maximum(
    np.maximum((_I + 1) * _NZ[:, None, None, None], (_I + 2) * _NZ[:, None, None]),
    np.maximum((_I + 3) * _NZ[:, None], (_I + 4) * _NZ),
).reshape(4, -1)
del _D, _NZ, _I
# for n in 0..16: the first n of the 16 characters held in two words (A, B)
_KEEP_A = np.array([(1 << 8 * min(n, 8)) - 1 for n in range(17)], np.uint64)
_KEEP_B = np.array([(1 << 8 * max(n - 8, 0)) - 1 for n in range(17)], np.uint64)
# a decimal point after the first j characters of (A, B); j = 17 is none
_DOT_A = np.array([ord(".") << 8 * j if j < 8 else 0 for j in range(18)], np.uint64)
_DOT_B = np.array([ord(".") << 8 * (j - 8) if 8 <= j < 16 else 0 for j in range(18)],
                  np.uint64)
# sign, "0." and zeros of fixed notation at k = -1..-4, and the leading
# digit, right-aligned in a word: index (negative * 5 + zeros code) * 10 + digit
_PREFIX = np.frombuffer(b"".join((sign + lead + b"%d" % digit).rjust(8, b"\0")
                                 for sign in (b"", b"-")
                                 for lead in (b"", b"0.", b"0.0", b"0.00", b"0.000")
                                 for digit in range(10)), "<u8").astype(np.uint64)
# the exponent "e%+03d" % x of scientific notation from byte 1 of a word:
# index x - _X_MIN + 1, or 0 (no exponent) for fixed notation; the digits of
# |x| are the last 2 or 3 of its 4-digit group
_X_MIN = -_K_MAX - 2
_X = np.arange(_X_MIN, 3 - _X_MIN)
_EXPONENT = np.zeros(_X.size + 1, np.uint64)
_EXPONENT[1:] = (ord("e") | np.where(_X < 0, ord("-"), ord("+")) << 8).astype(np.uint64)
_EXPONENT[1:] |= (_GROUP[np.abs(_X)] >> np.where(np.abs(_X) >= 100, 8, 16).astype(np.uint64)
                  << np.uint64(16))
_EXPONENT <<= np.uint64(8)
del _X
# the separators, in byte 7 of a record's last word
_COMMA = np.uint64(ord(",") << 56)
_NEWLINE = np.uint64(ord("\n") << 56)
# values formatted at a time by cells(), which bounds its temporaries
_CHUNK = 8192


class Cells:
    """A float64 column formatted by ``cells``, to be joined into any number
    of tables: ``records`` holds its (n, 4) little-endian uint64 records,
    without separators.  Sliced by rows like the column."""

    __slots__ = ("records",)

    def __init__(self, records):
        self.records = records

    @property
    def shape(self):
        return self.records.shape[:1]

    def __len__(self):
        return len(self.records)

    def __getitem__(self, rows):
        return Cells(self.records[rows])


def cells(values):
    """The records of a one-dimensional column of reals, converted to float64:
    ``join`` writes each as ``format(float(v), ".17g")``.  Formatted
    ``_CHUNK`` values at a time; the records take 32 bytes per value."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError("cells formats a one-dimensional column")
    records = np.empty((v.size, 4), "<u8")
    for start in range(0, v.size, _CHUNK):
        _format(v[start : start + _CHUNK], records[start : start + _CHUNK])
    return Cells(records)


def join(columns):
    """CSV lines of a block of rows, as bytes: the i-th line joins the i-th
    cell of every column with ``,`` and ends with ``\\n``.  Every column is
    ``Cells`` or a one-dimensional array of reals, all of one length; each
    value is written as ``format(float(v), ".17g")``."""
    block = np.empty((len(columns[0]), len(columns), 4), "<u8")
    j = 0
    for formatted, run in groupby(columns, lambda c: isinstance(c, Cells)):
        run = list(run)
        part = block[:, j : j + len(run)]
        if formatted:
            for i, c in enumerate(run):
                part[:, i] = c.records
        else:
            _format(np.stack(run, axis=1).astype(np.float64, copy=False), part)
        j += len(run)
    block[:, :-1, 3] |= _COMMA
    block[:, -1, 3] |= _NEWLINE
    raw = block.view(np.uint8).ravel()
    return raw[raw != 0].tobytes()


def _format(v, out):
    """Write the records of the float64 array ``v`` into ``out``, an array
    of shape ``v.shape + (4,)`` (a view into a block of rows, say)."""
    neg = np.signbit(v)
    ax = np.abs(v)
    zero = ax == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        est = np.floor(np.log10(ax))
    fast = np.abs(est) <= _K_MAX  # False for zeros, inf and nan
    ax = np.where(fast, ax, 1.0)
    # k = floor(log10 |x|) exactly: the estimate may be one off next to 10^k
    k = np.where(fast, est, 0.0).astype(np.int64)
    k -= ax < _AT_LEAST[k - _P_MIN]
    k += ax >= _AT_LEAST[k + 1 - _P_MIN]

    # |x| 10^(16 - k) = p + t, p = fl(|x| hi) an integer in about [1e16, 1e17]
    q = 16 - k - _P_MIN
    hi = _HI[q]
    c = _SPLIT * ax
    x1 = c - (c - ax)
    x2 = ax - x1
    p = ax * hi
    hi1, hi2 = _HI1[q], _HI2[q]
    t = (((x1 * hi1 - p) + x1 * hi2) + x2 * hi1) + x2 * hi2
    t += ax * _LO[q]
    floor_t = np.floor(t)
    frac = t - floor_t
    slow = ~(fast | zero) | (np.abs(frac - 0.5) < _TIE_GUARD)
    d = p.astype(np.int64) + floor_t.astype(np.int64) + (frac > 0.5)
    carry = d == 10**17
    k += carry
    d[carry] = 10**16
    d[zero] = 0
    k[zero] = 0

    # leading digit g0 and the groups g1..g4 of the other 16 digits
    g0 = d // 10**16
    h8 = (d - g0 * 10**16) // 10**8
    l8 = d - g0 * 10**16 - h8 * 10**8
    g1 = h8 // 10**4
    g2 = h8 - g1 * 10**4
    g3 = l8 // 10**4
    g4 = l8 - g3 * 10**4
    a = _GROUP[g1] | _GROUP_HI[g2]
    b = _GROUP[g3] | _GROUP_HI[g4]
    # digits after the leading one up to the last non-zero digit
    n_tail = np.maximum(np.maximum(_LENGTH_AT[0][g1], _LENGTH_AT[1][g2]),
                        np.maximum(_LENGTH_AT[2][g3], _LENGTH_AT[3][g4]))

    # fixed notation with k >= 0 keeps k digits after the leading one
    # (integer zeros included) and puts the point there; scientific keeps
    # n_tail and puts it after the leading digit; below 1 the "0." is in
    # the prefix and j = 16 leaves the digits whole
    int_part = (k >= 0) & (k <= 16)
    below_one = (k < 0) & (k >= -4)
    j = np.where(int_part, k, 16 * below_one)
    keep = np.maximum(n_tail, np.where(int_part, k, 0))
    a &= _KEEP_A[keep]
    b &= _KEEP_B[keep]
    dot = n_tail > j
    low_a = a & _KEEP_A[j]
    low_b = b & _KEEP_B[j]
    high_a = a ^ low_a
    high_b = b ^ low_b
    jd = np.where(dot, j, 17)
    sci = ~(int_part | below_one)
    out[..., 0] = _PREFIX[(neg * 5 + np.where(below_one, -k, 0)) * 10 + g0]
    out[..., 1] = low_a | (high_a << np.uint64(8)) | _DOT_A[jd]
    out[..., 2] = low_b | (high_b << np.uint64(8)) | (high_a >> np.uint64(56)) | _DOT_B[jd]
    out[..., 3] = (high_b >> np.uint64(56)) | _EXPONENT[np.where(sci, k - _X_MIN + 1, 0)]

    idx = np.nonzero(slow)
    if idx[0].size:
        text = [format(float(x), ".17g").encode() for x in v[idx]]
        out[idx] = np.array(text, "S32").view("<u8").reshape(-1, 4)
