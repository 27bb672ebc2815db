"""Exact `%.Ng` printing of float64 arrays by scaled integer arithmetic.

`g_fields(values, digits)` returns template pieces and arguments that
print each value as `',' + '%.{digits}g' % value`, byte for byte, for
`digits` in 1..17. Python's own float formatting costs about 0.7 us a value
at 17 digits (its dtoa falls back to bignum arithmetic above 14); here the
digits come from one long-double product per value, and Python prints only
a `%d` integer per value into a piece whose sign, lead digit, dot and
exponent are literal text. Exact fixed-precision conversion by scaled
integers follows Adams, "Ryu revisited: printf floating point conversion",
OOPSLA 2019.
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
# Lead-digit pieces "{L}.%0{j}d" for j = 1..16 follow the 14 fixed codes.
_LEAD_PADDED = 14
_CODES_PER_SIGN = _LEAD_PADDED + 9 * 16
_TAILS = 2 * _CODES_PER_SIGN


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


@functools.cache
def _pieces() -> np.ndarray:
    """Every piece a value may print through, by code.

    Heads hold the value's one `%d` conversion; per sign, code 0 is "%d",
    1..4 are "0.%d" .. "0.000%d", 4 + L is "{L}.%d" and
    _LEAD_PADDED + 16 (L - 1) + j - 1 is "{L}.%0{j}d" (sign "," or ",-").
    Tails follow the heads: _TAILS is "" and _TAILS + 1 + X - _XMIN is
    "e{X:+03d}".
    """
    pieces = []
    for sign in (",", ",-"):
        pieces += [sign + "%d"] + [f"{sign}0.{'0' * z}%d" for z in range(4)]
        pieces += [f"{sign}{lead}.%d" for lead in range(1, 10)]
        pieces += [f"{sign}{lead}.%0{j}d" for lead in range(1, 10) for j in range(1, 17)]
    pieces += [""] + [f"e{x:+03d}" for x in range(_XMIN, _XMAX + 1)]
    return np.array(pieces, dtype=object)


def _rounded(x: np.ndarray, digits: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The `digits`-digit integer n and decimal exponent X with |x| rounded
    to n 10**(X - digits + 1), and where that is certified (see g_fields)."""
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


def _strip_zeros(n: np.ndarray) -> np.ndarray:
    """Remove the trailing decimal zeros of each n > 0 in place (at most 16)
    and return how many there were."""
    zeros = np.zeros_like(n)
    idx = np.flatnonzero(n % 10 == 0)
    if idx.size:
        m, z = n[idx] // 10, np.ones_like(idx)
        for step in (8, 4, 2, 1):
            div = m % _P10[step] == 0
            m = np.where(div, m // _P10[step], m)
            z += step * div
        n[idx], zeros[idx] = m, z
    return zeros


def _layout(x: np.ndarray, digits: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Head code, tail code and `%d` argument of each value, and the indices
    of the values left to Python."""
    n, exps, ok = _rounded(x, digits)
    rest_digits = digits - 1 - _strip_zeros(n)
    sci = (exps < -4) | (exps >= digits)
    # "{L}.{rest}" for scientific values and for 1 <= |x| < 10, "%d" for one digit
    scale = _P10[rest_digits]
    lead = n // scale
    rest = n - lead * scale
    head = np.where(10 * rest >= scale, 4 + lead, _LEAD_PADDED + 16 * (lead - 1) + rest_digits - 1)
    single = rest_digits == 0
    head[single] = 0
    arg = np.where(single, n, rest)
    # "0.{zeros}%d" for -4 <= X < 0
    idx = np.flatnonzero(~sci & (exps < 0))
    head[idx] = -exps[idx]
    arg[idx] = n[idx]
    # "%d" for integers 10 <= |x| < 10**digits; the rest of that decade to Python
    idx = np.flatnonzero(~sci & (exps > 0))
    shift = exps[idx] - rest_digits[idx]
    ok[idx[shift < 0]] = False
    head[idx] = 0
    arg[idx] = n[idx] * _P10[np.maximum(shift, 0)]
    head += np.signbit(x) * _CODES_PER_SIGN
    tail = np.where(sci, _TAILS + 1 + exps - _XMIN, _TAILS)
    # codes in range for the values left to Python, whose head g_fields replaces
    bad = np.flatnonzero(~ok)
    head[bad] = 0
    tail[bad] = _TAILS
    return head, tail, arg, bad


def g_fields(values: np.ndarray, digits: int) -> tuple[np.ndarray, list]:
    """Pieces and arguments that print `values` as `%.{digits}g` would.

    Returns `(pieces, args)`. `pieces` has shape `values.shape + (2,)` and
    holds str; `args` has one entry per value, in order. Each value's two
    pieces hold one conversion, so `"".join(pieces.ravel().tolist()) %
    tuple(args)` equals `"".join(",%.{digits}g" % v for v in
    values.ravel())`, and so does any run of whole values of both. Most
    values print as an int through a piece whose sign, lead digit, dot and
    exponent are literal text, as `,-3.%d` with `e-05`; the rest print as
    the float itself through `,%.{digits}g`, which is Python's own `%`.

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
    - zeros, infinities and NaN;
    - values of 10 or more that print with a fractional part, whose integer
      part would be more than one literal digit (none in the walk, whose
      amplitudes and probabilities lie within [-1, 1]).
    On the walk_trace benchmark workload (512 sites, 401 slices, 17 digits)
    0.44% to 0.53% of values take the Python path over seeds 101-110, of
    which 0.10% are zeros.
    """
    x = np.ascontiguousarray(values, dtype=np.float64).ravel()
    head, tail, arg, bad = _layout(x, digits)
    pieces = _pieces()[np.column_stack((head, tail))]
    pieces[bad, 0] = f",%.{digits}g"
    args = arg.astype(object)
    args[bad] = x[bad]
    return pieces.reshape(np.shape(values) + (2,)), args.tolist()
