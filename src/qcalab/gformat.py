"""Exact `%.Ng` printing of float64 arrays as fixed-width ASCII slots.

`g_slots(values, digits)` returns, for each value, the text of
`',' + '%.{digits}g' % value` in a NUL-padded slot of 32 bytes,
byte for byte, for `digits` in 1..17; `ascii_bytes` keeps the non-NUL bytes
of any run of slots (or of a larger array that holds them), which is the
text of the run. Python's own float formatting costs about 0.7 us a value
at 17 digits (its dtoa falls back to bignum arithmetic above 14). Here the
digits come from one long-double product per value, and a slot is four
table words: the sign, lead digit and point (with the zeros of 0.000ddd),
the digits after the lead as four 4-digit words from a table of 10**4
entries (trailing zeros NUL in the last nonzero one), and the exponent.
Values that cannot be certified this way are printed by Python's `%` into
their slots. Exact fixed-precision conversion by scaled integers follows
Adams, "Ryu revisited: printf floating point conversion", OOPSLA 2019.
"""

from __future__ import annotations

import functools

import numpy as np

_LD = np.finfo(np.longdouble)
# Decimal exponents of the finite nonzero float64 values: 5e-324 .. 1.8e308.
_XMIN, _XMAX = -324, 308
# Scale exponents q = digits - 1 - X for digits 1..17, one step of
# correction either side.
_QMIN, _QMAX = (1 - 1 - _XMAX) - 1, (17 - 1 - _XMIN) + 1
_P10 = 10 ** np.arange(18, dtype=np.int64)
# A slot is four uint64 words: head, two words of digits, exponent. The
# longest text, ",-1.2345678901234567e-308", takes 25 of its 32 bytes.
SLOT_WORDS = 4


def text_words(texts, words: int) -> np.ndarray:
    """ASCII `texts`, each NUL-padded to `words` uint64 words, as an array
    of shape (len(texts), words). Bytes go in and out in one order, so no
    byte order enters any slot."""
    data = [t.encode("ascii") for t in texts]
    if data and max(map(len, data)) > 8 * words:
        raise ValueError(f"text longer than {8 * words} bytes")
    return np.array(data, dtype=f"S{8 * words}").view(np.uint64).reshape(len(data), words)


@functools.cache
def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Heads by 108 sign + 12 (L - 1) + 2 min(-X, 5) + (no digit after L),
    where X < -4 and X >= 0 print "L." or "L" and -4 <= X <= -1 "0.000L" ..
    "0.L", then ",0" and ",-0" at 216 + sign; the 4-digit words of
    0..9999, then the same with trailing zeros NUL ("0500" -> "05", "0000"
    -> ""); exponents by X - _XMIN + 1, with "" at 0."""

    def head(sign, lead, clipped, last):
        if 1 <= clipped <= 4:
            return f"{sign}0.{'0' * (clipped - 1)}{lead}"
        return f"{sign}{lead}" + ("" if last else ".")

    heads = [
        head(sign, lead, clipped, last)
        for sign in (",", ",-")
        for lead in range(1, 10)
        for clipped in range(6)
        for last in (False, True)
    ] + [",0", ",-0"]
    places = np.array([1000, 100, 10, 1], dtype=np.int16)
    quads = (np.arange(10**4, dtype=np.int16)[:, None] // places % 10).astype(np.uint8) + ord("0")
    trailing = np.logical_and.accumulate(quads[:, ::-1] == ord("0"), axis=1)[:, ::-1]
    quads = np.concatenate((quads, np.where(trailing, np.uint8(0), quads)))
    exps = [""] + [f"e{x:+03d}" for x in range(_XMIN, _XMAX + 1)]
    return text_words(heads, 1)[:, 0], quads.view(np.uint32)[:, 0], text_words(exps, 1)[:, 0]


def _longdouble(numer: int, denom: int) -> tuple[np.longdouble, bool]:
    """numer / denom (positive integers) rounded to nearest-even in long
    double, and whether that is exact."""
    bits = _LD.nmant + 1
    shift = bits - (numer.bit_length() - denom.bit_length()) + 1
    num, den = (numer << shift, denom) if shift >= 0 else (numer, denom << -shift)
    while num >= den << bits:
        den, shift = den << 1, shift - 1
    mant, rem = divmod(num, den)
    if 2 * rem > den or (2 * rem == den and mant & 1):
        mant += 1
    # mant has at most `bits` bits, so each partial sum of 32-bit chunks is exact
    value = np.longdouble(0)
    for k in range((mant.bit_length() - 1) // 32, -1, -1):
        value = value * 2**32 + ((mant >> (32 * k)) & 0xFFFFFFFF)
    with np.errstate(over="ignore", under="ignore"):
        return np.ldexp(value, np.intc(-shift)), rem == 0


@functools.cache
def _scales() -> tuple[np.ndarray, np.ndarray]:
    """10**q for q in _QMIN.._QMAX, each correctly rounded to long double,
    and a bound on the relative error of |x| 10**q rounded once more: u
    (eps / 2 of the long double) where 10**q is exact, 2u beyond that, each
    with a margin of 0.1% for the rounding of the float64 bound itself."""
    table = [_longdouble(10**q, 1) if q >= 0 else _longdouble(1, 10**-q) for q in range(_QMIN, _QMAX + 1)]
    scales = np.array([value for value, _ in table], dtype=np.longdouble)
    bounds = np.array([1.0 if exact else 2.0 for _, exact in table]) * (float(_LD.eps) / 2 * 1.001)
    return scales, bounds


def _rounded(x: np.ndarray, digits: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The `digits`-digit integer n and decimal exponent X with |x| rounded
    to n 10**(X - digits + 1), and where that is certified (see g_slots)."""
    low, high = _P10[digits - 1], _P10[digits]
    ax = np.abs(x)
    ok = (ax > 0) & (ax < np.inf)
    ax[~ok] = 1.0
    logs = np.log10(ax)
    exps = logs.astype(np.int64)
    exps -= exps > logs
    scales, bounds = _scales()
    q = digits - 1 - _QMIN - exps
    with np.errstate(all="ignore"):
        y = ax.astype(np.longdouble)
        y *= scales[q]
        n = y.astype(np.int64)
        # log10 may miss the decade by one next to a power of ten
        for step, idx in ((1, np.flatnonzero(n < low)), (-1, np.flatnonzero(n >= high))):
            exps[idx] -= step
            q[idx] += step
            y[idx] = ax[idx].astype(np.longdouble) * scales[q[idx]]
            n[idx] = y[idx].astype(np.int64)
        # y - n is exact in long double; its float64 rounding is below 2**-54
        frac = (y - n).astype(np.float64)
        window = bounds[q] * y.astype(np.float64) + 2.0**-53
    ok &= (n >= low) & (n < high) & (np.abs(frac - 0.5) > window) & ((n > low) | (frac > window))
    n += frac > 0.5
    n[~ok] = low + 1  # any d-digit value with no trailing zero
    carry = n == high
    n[carry] = low
    exps += carry
    return n, exps, ok


def _layout(x: np.ndarray, digits: int) -> tuple[np.ndarray, np.ndarray]:
    """Slots of the flat array `x`, as uint64 words (x.size, SLOT_WORDS),
    and the indices of the values left to Python, whose slots are unset."""
    n, exps, ok = _rounded(x, digits)
    sci = (exps < -4) | (exps >= digits)
    # fixed notation from 10 up ("%d"-like integers) is left to Python
    ok &= sci | (exps <= 0)
    lead = n // _P10[digits - 1]
    # the digits after the lead, left-aligned in 16 places
    rest = n - lead * _P10[digits - 1]
    rest *= _P10[17 - digits]
    # zeros print as ",0" or ",-0": a head and no digits
    zeros = np.flatnonzero(x == 0)
    rest[zeros] = 0
    ok[zeros] = True
    heads, quad_words, exp_words = _tables()
    slots = np.empty((x.size, SLOT_WORDS), dtype=np.uint64)
    # head code: sign, lead, -X clipped to 0..5 (1..4 are 0.000L .. 0.L,
    # read only in fixed notation) and whether any digit follows the lead
    code = np.signbit(x) * 108 + (lead - 1) * 12 + np.clip(-exps, 0, 5) * 2 + (rest == 0)
    code[zeros] = 216 + np.signbit(x[zeros])
    slots[:, 0] = heads[code]
    # four 4-digit words; from the last nonzero one on, trailing zeros are NUL
    quads = np.empty((4, x.size), dtype=np.int64)
    high = rest // 10**8
    low = rest - high * 10**8
    for k, part in ((0, high), (2, low)):
        np.floor_divide(part, 10**4, out=quads[k])
        np.multiply(quads[k], -(10**4), out=quads[k + 1])
        quads[k + 1] += part
    trim = np.full(x.size, 10**4, dtype=np.int64)
    for quad in quads[::-1]:
        quad += trim
        trim *= quad == 10**4
    slots[:, 1:3].view(np.uint32)[...] = quad_words[quads.T]
    exp_code = exps - (_XMIN - 1)
    exp_code *= sci
    slots[:, 3] = exp_words[exp_code]
    return slots, np.flatnonzero(~ok)


def g_slots(values: np.ndarray, digits: int) -> np.ndarray:
    """The text `",%.{digits}g" % v` of each of `values` in a NUL-padded
    slot, as uint64 words of shape `values.shape + (SLOT_WORDS,)`.

    `ascii_bytes` of the slots of any run of values equals
    `"".join(",%.{digits}g" % v for v in run)`, encoded. Most values fill
    their slot from tables, as `,-3.` + `1415 9265 3589 793` + `e-05`; the
    rest are printed by Python's own `%` into their slots.

    Exactness. For a finite nonzero x the decimal exponent X = floor(log10
    |x|) comes from float64 `log10`, corrected by one step where the scaled
    value leaves the decade. The scaled value y = |x| 10**q, q = digits - 1
    - X, is one long-double product: |x| is exact in long double and 10**q
    comes from a table correctly rounded from exact integers, so y is
    within u/(1 - u) of the exact product where 10**q is exact and within
    (2u + u**2)/(1 - 2u - u**2) beyond (u = eps / 2 of
    `np.finfo(np.longdouble)`), both bounded by the per-value window
    1.001 (1 or 2) u y. With n = int(y) and f = y - n (both exact), the
    correctly rounded digits are n + (f > 1/2) unless f lies within the
    window (plus 2**-53 for f's float64 rounding) of 1/2, or y within it of
    the decade's lower edge 10**(digits - 1); a carry to 10**digits moves to
    the next decade. Everything else goes to Python:
    - values within the window of a .5 tie or of the lower edge: at 17
      digits the window is at most 0.0054 or 0.011 about the tie, and far
      narrower below 15 digits, on an 80-bit long double. A binary64 long
      double (u = 2**-53) gives windows of up to 0.11 or 0.22 at 15 digits
      and over 1/2 for most values from 16 digits up, which sends them to
      Python: the same code and the same bytes, only slower;
    - infinities and NaN (zeros print from the table, as ",0" or ",-0");
    - values of 10 or more that print in fixed notation, as integers or
      with a fractional part (none in the walk, whose amplitudes and
      probabilities lie within [-1, 1]).
    On the walk_trace benchmark workload (512 sites, 401 slices, 17 digits)
    0.34% to 0.43% of values take the Python path over seeds 101-110.
    """
    x = np.ascontiguousarray(values, dtype=np.float64).ravel()
    slots, bad = _layout(x, digits)
    if bad.size:
        template = f",%.{digits}g"
        texts = [template % v for v in x[bad].tolist()]
        slots[bad] = text_words(texts, SLOT_WORDS)
    return slots.reshape(np.shape(values) + (SLOT_WORDS,))


def ascii_bytes(words: np.ndarray) -> np.ndarray:
    """The non-NUL bytes of `words` in memory order, as a uint8 array."""
    flat = np.ascontiguousarray(words).view(np.uint8).ravel()
    return flat[flat != 0]
