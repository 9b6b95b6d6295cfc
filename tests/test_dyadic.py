"""Dyadic carrier type: exactness, canonical form, rounding contracts."""

import copy
import dataclasses
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from certreal.dyadic import (_ALIGN_LIMIT, BigDyadic, EXPONENT_LIMIT, ONE,
                             ZERO, add_aligned, decimal_to_int, div_nearest,
                             div_nearest_lead, dyadic, int_to_decimal,
                             power_of_two, round_ceil, round_floor,
                             round_scaled, shift_nearest, to_decimal_string)
from certreal.errors import ExponentOverflow

mantissas = st.integers(-(1 << 200), 1 << 200)
exponents = st.integers(-400, 400)
values = st.builds(dyadic, mantissas, exponents)
wide_values = st.builds(dyadic, st.integers(-(1 << 20000), 1 << 20000),
                        st.integers(-30000, 30000))
grids = st.integers(0, 300)


@given(mantissas, exponents)
def test_canonical_form(m, e):
    d = dyadic(m, e)
    assert d.mantissa == 0 or d.mantissa & 1
    if d.mantissa == 0:
        assert d.exponent == 0
    assert d.as_fraction() == Fraction(m) * Fraction(2) ** e


@given(values, values)
def test_add_sub_mul_exact(a, b):
    assert (a + b).as_fraction() == a.as_fraction() + b.as_fraction()
    assert (a - b).as_fraction() == a.as_fraction() - b.as_fraction()
    assert (a * b).as_fraction() == a.as_fraction() * b.as_fraction()
    # the integer pair behind + is already canonical
    m, e = add_aligned(a.mantissa, a.exponent, b.mantissa, b.exponent)
    assert (m, e) == ((a + b).mantissa, (a + b).exponent)


@given(values, st.integers(-300, 300))
def test_scale2_mul_int(a, s):
    assert a.scale2(s).as_fraction() == a.as_fraction() * Fraction(2) ** s
    assert a.mul_int(s).as_fraction() == a.as_fraction() * s


@given(values | wide_values, values | wide_values, st.integers(-30000, 300))
def test_total_order_matches_fractions(a, b, s):
    # b, a itself, and a nudged by 2**s: near ties at every width
    for c in (b, a, a + power_of_two(s), a - power_of_two(s)):
        af, cf = a.as_fraction(), c.as_fraction()
        assert (a < c) == (af < cf)
        assert (a <= c) == (af <= cf)
        assert (a > c) == (af > cf)
        assert (a >= c) == (af >= cf)
        assert a.compare(c) == (af > cf) - (af < cf)


@given(values)
def test_neg_abs_floor_ceil(a):
    f = a.as_fraction()
    assert (-a).as_fraction() == -f
    assert abs(a).as_fraction() == abs(f)
    assert a.floor() == f.numerator // f.denominator
    assert a.ceil() == -((-f).numerator // f.denominator)


@given(values)
def test_ceil_log2(a):
    if a.is_zero():
        with pytest.raises(ValueError):
            a.ceil_log2()
        return
    t = a.ceil_log2()
    f = abs(a.as_fraction())
    assert f <= Fraction(2) ** t
    # minimality: one less does not bound it
    assert f > Fraction(2) ** (t - 1)


@given(st.integers(-(1 << 120), 1 << 120), st.integers(1, 1 << 80))
def test_div_nearest(a, b):
    q = div_nearest(a, b)
    err = Fraction(a, b) - q
    assert abs(err) <= Fraction(1, 2)
    if abs(err) == Fraction(1, 2):
        assert q % 2 == 0


@st.composite
def shifted_ints(draw):
    """(a, s): any a up to 20000 bits, or an exact tie a = (2q+1) * 2**(s-1)
    with q of either sign and parity, or one off such a tie."""
    s = draw(st.integers(0, 20000))
    kind = draw(st.sampled_from(("any", "tie", "off")))
    if kind == "any" or s == 0:
        return draw(st.integers(-(1 << 20000), 1 << 20000)), s
    q = draw(st.integers(-(1 << 64), 1 << 64))
    a = (2 * q + 1) << (s - 1)
    if kind == "off":
        a += draw(st.sampled_from((-1, 1)))
    return a, s


@given(shifted_ints())
@example((0, 0)).via("zero")
@example((-7, 0)).via("no shift")
@example((5, 1)).via("tie above an even floor")
@example((3, 1)).via("tie above an odd floor")
@example((-5, 1)).via("negative tie above an odd floor")
@example((-3, 1)).via("negative tie above an even floor")
@example((-(1 << 19999) - (1 << 9998), 9999)).via("wide negative tie")
def test_shift_nearest_equals_div_nearest(case):
    a, s = case
    assert shift_nearest(a, s) == div_nearest(a, 1 << s)


@st.composite
def long_quotients(draw):
    """(a, b): b up to 20000 bits and a of either sign with a quotient
    from none to longer than b, or an exact tie a = (2q+1) b / 2 with b
    even, or one off such a tie."""
    b = draw(st.integers(1, 1 << draw(st.integers(1, 20000))))
    kind = draw(st.sampled_from(("any", "tie", "off")))
    q = draw(st.integers(-(1 << draw(st.integers(0, 25000))), 1 << 25000))
    if kind == "any":
        return q * b + draw(st.integers(-b, b)), b
    a = (2 * q + 1) * b
    if kind == "off":
        a += draw(st.sampled_from((-1, 1)))
    return a, 2 * b


@given(long_quotients())
@example((0, 1 << 9000)).via("zero over a long divisor")
@example((-1, (1 << 9000) + 1)).via("minus one over a long divisor")
@example((3 << 8999, 1 << 9000)).via("tie above an odd floor")
@example((-(5 << 8999), 1 << 9000)).via("negative tie above an odd floor")
def test_div_nearest_lead_equals_div_nearest(case):
    a, b = case
    assert div_nearest_lead(a, b) == div_nearest(a, b)


def test_div_nearest_lead_on_splitting_sizes():
    # the shapes binary splitting divides: a divisor longer than the
    # quotient, many times over, with ties built at every size
    rng = random.Random("div-lead")
    for _ in range(300):
        b = rng.getrandbits(rng.randint(64, 60000)) | 1
        q = rng.getrandbits(rng.randint(1, 20000)) * rng.choice((1, -1))
        for a, d in ((q * b + rng.randint(-b, b), b),
                     ((2 * q + 1) * b, 2 * b)):
            assert div_nearest_lead(a, d) == div_nearest(a, d)
    with pytest.raises(ValueError):
        div_nearest_lead(1, 0)


def test_shift_nearest_rejects_negative_shift():
    with pytest.raises(ValueError):
        shift_nearest(1, -1)


def _assert_round_scaled(n, a, k):
    # q 2**-k is the nearest point of the 2**-k grid to n 2**-a, with a
    # tie going to the even q: div_nearest's rule
    q = round_scaled(n, a, k)
    exact = Fraction(n) * Fraction(2) ** -a
    assert abs(Fraction(q, 2 ** k) - exact) <= Fraction(1, 2 ** (k + 1))
    if a > k:
        assert q == div_nearest(n, 1 << (a - k))
    # idempotent once on the grid
    assert round_scaled(q, k, k) == q


@given(st.integers(-(1 << 20000), 1 << 20000), st.integers(-100, 20000),
       st.integers(0, 20000))
def test_round_scaled_contract_wide(n, a, k):
    _assert_round_scaled(n, a, k)


@given(mantissas, st.integers(-400, 400), grids)
@example(5, 1, 0)   # 2.5 rounds to 2
@example(-5, 1, 0)  # -2.5 rounds to -2
@example(7, 1, 0)   # 3.5 rounds to 4
def test_round_scaled_contract(n, a, k):
    _assert_round_scaled(n, a, k)


@given(values, grids)
def test_directed_rounding(a, k):
    lo, hi = round_floor(a, k), round_ceil(a, k)
    f = a.as_fraction()
    step = Fraction(1, 2 ** k)
    assert lo.as_fraction() <= f <= hi.as_fraction()
    assert f - lo.as_fraction() < step
    assert hi.as_fraction() - f < step


@given(values, st.integers(0, 40))
def test_decimal_rendering_nearest(a, digits):
    text = to_decimal_string(a, digits)
    parsed = Fraction(text)
    assert abs(parsed - a.as_fraction()) <= Fraction(1, 2 * 10 ** digits)


def test_decimal_rendering_details():
    assert to_decimal_string(dyadic(1, -1), 1) == "0.5"
    assert to_decimal_string(dyadic(-1, -1), 1) == "-0.5"
    assert to_decimal_string(dyadic(1, -3), 2) == "0.12"  # ties to even
    assert to_decimal_string(dyadic(3, 0), 0) == "3"
    # a negative value that rounds to zero loses its sign
    assert to_decimal_string(dyadic(-1, -30), 2) == "0.00"
    with pytest.raises(ValueError):
        to_decimal_string(ONE, -1)


@given(st.integers(-(1 << 20000), 1 << 20000))
def test_decimal_conversion_round_trip(n):
    text = int_to_decimal(n)
    assert text.startswith("-") == (n < 0)
    body = text.lstrip("-")
    assert body.isdigit() and (body == "0" or body[0] != "0")
    assert decimal_to_int(body) == abs(n)


def test_decimal_conversion_past_int_str_limit():
    for k in (511, 512, 513, 4300, 5000, 12345):
        assert int_to_decimal(10 ** k) == "1" + "0" * k
        assert int_to_decimal(-(10 ** k - 1)) == "-" + "9" * k
        assert decimal_to_int("9" * k) == 10 ** k - 1
        assert decimal_to_int("0" * k + "7") == 7
    big = dyadic(10 ** 5000 + 1, -1)
    assert to_decimal_string(big, 1) == "5" + "0" * 4999 + ".5"
    assert str(big) == "1" + "0" * 4999 + "1*2^-1"


def test_constants_and_constructors():
    assert ZERO.is_zero() and ZERO.sign() == 0
    assert ONE.as_fraction() == 1
    assert power_of_two(-5).as_fraction() == Fraction(1, 32)
    assert str(dyadic(12, 0)) == "3*2^2"
    assert repr(dyadic(3, -1)) == "BigDyadic(3, -1)"
    assert dyadic(5) == BigDyadic(5, 0)


def test_exponent_limits():
    with pytest.raises(ExponentOverflow):
        dyadic(1, EXPONENT_LIMIT + 1)
    with pytest.raises(ExponentOverflow):
        dyadic(1, -(EXPONENT_LIMIT + 1))
    # alignment guard: no multi-megabyte integers from one stray add
    with pytest.raises(ExponentOverflow):
        dyadic(1, 0) + dyadic(1, -(1 << 27))
    with pytest.raises(ExponentOverflow):
        round_scaled(1, 1 << 27, 0)


@pytest.mark.parametrize("e", [-EXPONENT_LIMIT, -1, 0, 1, EXPONENT_LIMIT])
def test_power_of_two_matches_dyadic(e):
    # built through the slots, the same value and hash as the
    # canonicalizing constructor's
    p = power_of_two(e)
    assert p == dyadic(1, e) and hash(p) == hash(dyadic(1, e))
    assert (p.mantissa, p.exponent) == (1, e)


@pytest.mark.parametrize("e", [-EXPONENT_LIMIT - 1, EXPONENT_LIMIT + 1])
def test_power_of_two_past_the_limit(e):
    with pytest.raises(ExponentOverflow):
        power_of_two(e)


def test_compare_alignment_guard():
    # the span guard of + holds for compare too, in either order, and a
    # zero side needs no alignment
    near, far = dyadic(3, 5), dyadic(-1, 5 - _ALIGN_LIMIT - 1)
    for a, b in ((near, far), (far, near)):
        with pytest.raises(ExponentOverflow):
            a.compare(b)
        with pytest.raises(ExponentOverflow):
            a < b
    assert dyadic(3, 5 - _ALIGN_LIMIT).compare(near) == -1
    for v in (near, far):
        assert v.compare(ZERO) == ZERO.compare(-v) == v.sign()
        assert (ZERO < v) == (v.sign() > 0)


@given(values | wide_values)
def test_carrier_is_a_frozen_value(a):
    for b in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a),
              -(-a), dyadic(a.mantissa, a.exponent)):
        assert type(b) is BigDyadic
        assert b == a and hash(b) == hash(a)
        assert (b.mantissa, b.exponent) == (a.mantissa, a.exponent)
    assert abs(a) == abs(-a)
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.mantissa = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.exponent = 1


def test_div_nearest_rejects_bad_divisor():
    with pytest.raises(ValueError):
        div_nearest(1, 0)
    with pytest.raises(ValueError):
        div_nearest(1, -2)
