"""g_slots against Python's own `%.Ng`, value by value."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcalab import gformat
from qcalab.gformat import SLOT_WORDS, ascii_bytes, g_slots, text_words

DIGITS = range(1, 18)


def printed(values, digits):
    slots = g_slots(np.asarray(values, dtype=np.float64), digits)
    return ascii_bytes(slots).tobytes().decode("ascii")


def python_path(values, digits):
    """The indices of the values that g_slots leaves to Python's `%`."""
    return gformat._layout(np.asarray(values, dtype=np.float64).ravel(), digits)[1]


def reference(values, digits):
    return "".join(f",%.{digits}g" % v for v in np.asarray(values, dtype=np.float64).ravel().tolist())


def with_negatives(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate((values, -values))


def powers_of_ten():
    tens = np.array([float(f"1e{e}") for e in range(-323, 309)])
    return with_negatives(np.concatenate((tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf))))


def decade_carries(digits):
    """The floats nearest the ties 99..95 10**k that carry into the next
    decade at `digits` digits (9.99995e-05 at 5 digits), their neighbours,
    and the values one unit in the last kept digit below: a carry flips %g
    between fixed and exponent notation at X = -5 and X = digits - 1."""
    values = []
    for exp in range(-8, digits + 3):
        carry = float(f"{'9' * digits}5e{exp - digits}")
        values += [carry, np.nextafter(carry, 0.0), np.nextafter(carry, np.inf), float(f"{'9' * digits}4e{exp - digits}")]
    return with_negatives(values)


def decimal_ties():
    """(2i + 1) 2**-k: exact binary values whose decimal expansion ends in
    a 5, so that rounding at the last digit is a true tie."""
    odd = 2 * np.arange(0, 200) + 1
    k = np.arange(1, 64)
    return with_negatives((odd[:, None] * np.ldexp(1.0, -k)[None, :]).ravel())


EXTREMES = with_negatives([0.0, np.inf, np.nan, np.finfo(np.float64).max, 5e-324, np.finfo(np.float64).tiny])


@pytest.mark.parametrize("digits", DIGITS)
@pytest.mark.parametrize(
    "values",
    [powers_of_ten(), decimal_ties(), EXTREMES],
    ids=["powers_of_ten", "decimal_ties", "extremes"],
)
def test_edge_sets(values, digits):
    assert printed(values, digits) == reference(values, digits)


@pytest.mark.parametrize("digits", DIGITS)
def test_decade_carries(digits):
    values = np.concatenate((decade_carries(digits), decade_carries(max(digits - 1, 1))))
    assert printed(values, digits) == reference(values, digits)


def test_carry_flips_notation():
    assert printed([9.999951e-05, 9.99994e-05, 99999.6, 9999.96], 5) == ",0.0001,9.9999e-05,1e+05,10000"


@pytest.mark.parametrize("digits", DIGITS)
def test_random_bit_patterns(digits):
    rng = np.random.default_rng(digits)
    values = np.frombuffer(rng.bytes(8 * 4000), dtype=np.float64)
    assert printed(values, digits) == reference(values, digits)


@given(
    st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), min_size=1, max_size=40),
    st.integers(min_value=1, max_value=17),
)
@settings(max_examples=400, deadline=None)
def test_any_floats(values, digits):
    assert printed(values, digits) == reference(values, digits)


def test_shape_and_runs_of_values():
    rng = np.random.default_rng(7)
    values = rng.normal(size=(30, 5)) * 10.0 ** rng.integers(-12, 3, size=(30, 5))
    values[3, 2] = 0.0
    slots = g_slots(values, 17)
    assert slots.shape == (30, 5, SLOT_WORDS) and slots.dtype == np.uint64
    flat = slots.reshape(-1, SLOT_WORDS)
    for lo, hi in [(0, 150), (7, 8), (15, 40), (149, 150)]:
        run = ascii_bytes(flat[lo:hi]).tobytes().decode("ascii")
        assert run == reference(values.ravel()[lo:hi], 17)


@pytest.mark.parametrize("digits", DIGITS)
def test_python_values_inside_a_block(digits):
    # signed zeros (from the table), a tie at 2 digits, an infinity and an
    # integer of 10 or more (fixed notation from 4 digits up), between values
    # the tables print, in the middle of a block of walk-sized rows
    rng = np.random.default_rng(digits)
    values = rng.normal(size=(1024, 5)) * 10.0 ** rng.integers(-8, 0, size=(1024, 5))
    values[500] = [0.0, -0.0, 0.125, -np.inf, 1234.0]
    expected = {3} | ({2} if digits == 2 else set()) | ({4} if digits >= 4 else set())
    assert set(python_path(values[500], digits)) == expected
    assert not set(python_path(values, digits)) & set(range(5 * 499, 5 * 500))
    assert printed(values, digits) == reference(values, digits)


def test_most_walk_like_values_skip_python():
    rng = np.random.default_rng(3)
    values = rng.normal(size=20000) * 10.0 ** rng.integers(-40, 0, size=20000)
    assert python_path(values, 17).size / values.size < 0.02


def test_text_words_pads_with_nul_and_refuses_overflow():
    words = text_words(["t,x", "", "12345678"], 1)
    assert words.shape == (3, 1)
    assert ascii_bytes(words).tobytes() == b"t,x12345678"
    assert words.view(np.uint8).ravel().tolist().count(0) == 5 + 8
    with pytest.raises(ValueError, match="longer than 8 bytes"):
        text_words(["123456789"], 1)


def test_ascii_bytes_keeps_memory_order_of_a_strided_view():
    rows = text_words(["a", "bc", "d", "ef"], 1).reshape(2, 2)
    assert ascii_bytes(rows).tobytes() == b"abcdef"
    assert ascii_bytes(rows[:, ::-1]).tobytes() == b"bcaefd"


@pytest.mark.parametrize("digits", [3, 17])
def test_a_window_over_one_half_sends_everything_to_python(monkeypatch, digits):
    # as on a long double no wider than binary64, from 16 digits up; only
    # the signed zeros, which need no rounding, stay with the tables
    scales, bounds = gformat._scales()
    monkeypatch.setattr(gformat, "_scales", lambda: (scales, np.ones_like(bounds)))
    values = np.concatenate((powers_of_ten(), decimal_ties()[:500], EXTREMES))
    assert np.array_equal(python_path(values, digits), np.flatnonzero(values != 0))
    assert printed(values, digits) == reference(values, digits)


def test_scales_are_correctly_rounded():
    scales, bounds = gformat._scales()
    nmant = np.finfo(np.longdouble).nmant
    for q, value, bound in zip(range(gformat._QMIN, gformat._QMAX + 1), scales, bounds):
        got, exact = Fraction(*value.as_integer_ratio()), Fraction(10) ** q
        log2 = got.numerator.bit_length() - got.denominator.bit_length()
        log2 -= got < Fraction(2) ** log2
        assert abs(got - exact) <= Fraction(2) ** (log2 - nmant - 1), q
        assert (bound == bounds.min()) == (got == exact), q
