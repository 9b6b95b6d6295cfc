"""Exact dyadic rationals: arbitrary-precision values of the form m * 2**e.

This is the carrier type for every approximation in the package.  All
operations are exact except the explicit rounding helpers, and every
operation preserves the canonical form (mantissa odd or zero, exponent
zero when the mantissa is zero), so equal values always have equal
representations and can be compared, hashed and serialized bit-exactly.

Exponents are bounded; exceeding the bound raises ExponentOverflow
rather than silently producing a number the rest of the engine cannot
budget for.

BigDyadic keeps the frozen dataclass's equality, hashing, pickling and
read-only fields, but the hot paths build it through the slot
descriptors (_make), and compare takes one aligned integer difference.
Where a value lives on a known grid, the package carries it as a bare
integer scaled by a power of two instead; round_scaled rounds such an
integer to a coarser grid.  Interval, a closed interval of two
dyadics, is the enclosure type of both evaluation backends.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ExponentOverflow

# Generous but hard limit on |exponent|.  Precision budgets in the rest
# of the package stay in the low tens of thousands; anything near this
# bound is a bug, not a value.
EXPONENT_LIMIT = 1 << 40

# Cap on the bit distance spanned when aligning two operands.  Protects
# against memory blowups from adding numbers of wildly different scale.
_ALIGN_LIMIT = 1 << 26


@dataclass(frozen=True, slots=True)
class BigDyadic:
    """m * 2**e in canonical form.  Construct via dyadic(), not directly."""

    mantissa: int
    exponent: int

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.mantissa == 0

    def sign(self) -> int:
        m = self.mantissa
        return (m > 0) - (m < 0)

    def as_fraction(self) -> Fraction:
        e = self.exponent
        if e >= 0:
            return Fraction(self.mantissa << e, 1)
        return Fraction(self.mantissa, 1 << -e)

    def ceil_log2(self) -> int:
        """Smallest t with |self| <= 2**t.  Requires self != 0."""
        if self.mantissa == 0:
            raise ValueError("ceil_log2 of zero")
        m = abs(self.mantissa)
        # m has bit_length() b, so 2**(b-1) <= m <= 2**b - 1; m is a
        # power of two exactly when m == 1 thanks to canonical form.
        b = m.bit_length()
        if m == 1:
            return self.exponent
        return self.exponent + b

    # -- arithmetic (exact) -----------------------------------------------

    def __neg__(self) -> "BigDyadic":
        return _make(-self.mantissa, self.exponent)

    def __abs__(self) -> "BigDyadic":
        return _make(abs(self.mantissa), self.exponent)

    def __add__(self, other: "BigDyadic") -> "BigDyadic":
        if not isinstance(other, BigDyadic):
            return NotImplemented
        if self.mantissa == 0:
            return other
        if other.mantissa == 0:
            return self
        return dyadic(*add_aligned(self.mantissa, self.exponent,
                                   other.mantissa, other.exponent))

    def __sub__(self, other: "BigDyadic") -> "BigDyadic":
        if not isinstance(other, BigDyadic):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "BigDyadic") -> "BigDyadic":
        if not isinstance(other, BigDyadic):
            return NotImplemented
        return dyadic(self.mantissa * other.mantissa,
                      self.exponent + other.exponent)

    def scale2(self, s: int) -> "BigDyadic":
        """Exact multiplication by 2**s (s may be negative)."""
        if self.mantissa == 0:
            return self
        return dyadic(self.mantissa, self.exponent + s)

    def mul_int(self, n: int) -> "BigDyadic":
        """Exact multiplication by an integer."""
        return dyadic(self.mantissa * n, self.exponent)

    # -- comparisons (exact, total order) ---------------------------------

    def compare(self, other: "BigDyadic") -> int:
        """-1, 0 or 1 as self <, = or > other."""
        ma, ea = self.mantissa, self.exponent
        mb, eb = other.mantissa, other.exponent
        # a zero side needs no alignment (and raises no span error)
        if ea != eb and ma and mb:
            shift = ea - eb
            if abs(shift) > _ALIGN_LIMIT:
                raise ExponentOverflow(f"alignment span {abs(shift)} "
                                       f"too large")
            if shift > 0:
                ma <<= shift
            else:
                mb <<= -shift
        d = ma - mb
        return (d > 0) - (d < 0)

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    # -- integer parts ----------------------------------------------------

    def floor(self) -> int:
        m, e = self.mantissa, self.exponent
        if e >= 0:
            return m << e
        return m >> -e

    def ceil(self) -> int:
        return -((-self).floor())

    # -- rendering --------------------------------------------------------

    def __str__(self) -> str:
        return f"{int_to_decimal(self.mantissa)}*2^{self.exponent}"

    def __repr__(self) -> str:
        return f"BigDyadic({int_to_decimal(self.mantissa)}, {self.exponent})"


_new = object.__new__
_set_mantissa = BigDyadic.mantissa.__set__
_set_exponent = BigDyadic.exponent.__set__


def _make(mantissa: int, exponent: int) -> BigDyadic:
    """A BigDyadic from fields already in canonical form and range.

    The slots are filled through their descriptors, which skips the
    frozen dataclass's __init__ and its object.__setattr__ per field.
    """
    d = _new(BigDyadic)
    _set_mantissa(d, mantissa)
    _set_exponent(d, exponent)
    return d


def dyadic(mantissa: int, exponent: int = 0) -> BigDyadic:
    """Canonicalizing constructor: strips factors of 2 into the exponent."""
    if mantissa == 0:
        return _ZERO
    if mantissa & 1 == 0:
        shift = (mantissa & -mantissa).bit_length() - 1
        mantissa >>= shift
        exponent += shift
    if -EXPONENT_LIMIT <= exponent <= EXPONENT_LIMIT:
        return _make(mantissa, exponent)
    raise ExponentOverflow(f"dyadic exponent {exponent} out of range")


_ZERO = BigDyadic(0, 0)
ZERO = _ZERO
ONE = BigDyadic(1, 0)
MINUS_ONE = BigDyadic(-1, 0)


def power_of_two(e: int) -> BigDyadic:
    """The value 2**e."""
    if -EXPONENT_LIMIT <= e <= EXPONENT_LIMIT:
        return _make(1, e)
    raise ExponentOverflow(f"dyadic exponent {e} out of range")


def add_aligned(ma: int, ea: int, mb: int, eb: int) -> tuple[int, int]:
    """The exact sum of ma * 2**ea and mb * 2**eb, as a canonical (m, e).

    Both operands must be canonical.  A zero operand is passed over
    unaligned, so it never raises; otherwise an alignment span over
    _ALIGN_LIMIT raises ExponentOverflow.  The exponent range is left
    to whoever builds a BigDyadic from the result.
    """
    if ma == 0:
        return mb, eb
    if mb == 0:
        return ma, ea
    if ea > eb:
        shift = ea - eb
        if shift > _ALIGN_LIMIT:
            raise ExponentOverflow(f"alignment span {shift} too large")
        m, e = (ma << shift) + mb, eb
    elif ea < eb:
        shift = eb - ea
        if shift > _ALIGN_LIMIT:
            raise ExponentOverflow(f"alignment span {shift} too large")
        m, e = ma + (mb << shift), ea
    else:
        m, e = ma + mb, ea
    if m & 1:
        return m, e
    if m == 0:
        return 0, 0
    shift = (m & -m).bit_length() - 1
    return m >> shift, e + shift


def div_nearest(a: int, b: int) -> int:
    """Round a/b to the nearest integer, ties to the even integer.

    b must be positive; a may have either sign.
    """
    if b <= 0:
        raise ValueError("div_nearest needs a positive divisor")
    q, r = divmod(a, b)
    r2 = r << 1
    if r2 > b or (r2 == b and q & 1):
        q += 1
    return q


def div_nearest_lead(a: int, b: int) -> int:
    """div_nearest(a, b), faster when b is much longer than the quotient.

    The quotient is taken from a and b cut to the quotient's length
    plus 64 bits, which puts it within one of the floor of a/b; one
    exact remainder then fixes the floor, and the rounding is
    div_nearest's, so the result is the same integer.
    """
    if b <= 0:
        raise ValueError("div_nearest needs a positive divisor")
    nb = b.bit_length()
    s = nb - max(0, abs(a).bit_length() - nb) - 66
    if s <= 0:
        return div_nearest(a, b)
    # a >> s and b >> s are each less than one below a / 2**s and
    # b / 2**s, and b >> s has at least 64 bits more than the quotient,
    # so their quotient is within 2**-62 of a / b
    q = (a >> s) // (b >> s)
    r = a - q * b
    while r < 0:
        q -= 1
        r += b
    while r >= b:
        q += 1
        r -= b
    r2 = r << 1
    if r2 > b or (r2 == b and q & 1):
        q += 1
    return q


def shift_nearest(a: int, s: int) -> int:
    """Round a / 2**s to the nearest integer, ties to the even integer.

    The same integer as div_nearest(a, 1 << s), for s >= 0 and a of
    either sign, at the cost of a shift and a mask test rather than a
    long division.
    """
    if s == 0:
        return a
    if s < 0:
        raise ValueError("shift_nearest needs a nonnegative shift")
    # q = floor(a / 2**(s-1)): the floor of a / 2**s and the half bit
    q = a >> (s - 1)
    half = q & 1
    q >>= 1
    # above half way, or exactly half way with an odd floor: round up
    if half and (q & 1 or a & ((1 << (s - 1)) - 1)):
        q += 1
    return q


def round_scaled(n: int, a: int, k: int) -> int:
    """n * 2**-a rounded to the grid of spacing 2**-k, nearest, ties to
    even, as the integer q with value q * 2**-k.

    |q 2**-k - n 2**-a| <= 2**-(k+1), and a value already on the grid
    (a <= k) is only shifted.  A rounding span a - k over _ALIGN_LIMIT
    raises ExponentOverflow.
    """
    if a <= k:
        return n << (k - a)
    if a - k > _ALIGN_LIMIT:
        raise ExponentOverflow(f"rounding span {a - k} too large")
    return shift_nearest(n, a - k)


def round_floor(a: BigDyadic, k: int) -> BigDyadic:
    """Round down (toward -inf) to the grid of spacing 2**-k."""
    m, e = a.mantissa, a.exponent
    if m == 0 or e >= -k:
        return a
    shift = -k - e
    if shift > _ALIGN_LIMIT:
        raise ExponentOverflow(f"rounding span {shift} too large")
    return dyadic(m >> shift, -k)


def round_ceil(a: BigDyadic, k: int) -> BigDyadic:
    """Round up (toward +inf) to the grid of spacing 2**-k."""
    return -round_floor(-a, k)


def clamp_unit(v: BigDyadic) -> BigDyadic:
    """v clamped to [-1, 1]: for an approximation of a sine or cosine,
    a move toward the true value."""
    if v > ONE:
        return ONE
    if v < MINUS_ONE:
        return MINUS_ONE
    return v


@dataclass(frozen=True, slots=True)
class Interval:
    """Closed interval [lo, hi] with exact dyadic endpoints."""

    lo: BigDyadic
    hi: BigDyadic

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"inverted interval [{self.lo}, {self.hi}]")

    def width(self) -> BigDyadic:
        return self.hi - self.lo

    def midpoint(self) -> BigDyadic:
        """Exact midpoint (dyadics are closed under halving)."""
        return (self.lo + self.hi).scale2(-1)

    def radius(self) -> BigDyadic:
        return (self.hi - self.lo).scale2(-1)

    def contains(self, v: BigDyadic) -> bool:
        return self.lo <= v <= self.hi

    def intersects(self, other: "Interval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def strictly_positive(self) -> bool:
        return self.lo.sign() > 0

    def strictly_negative(self) -> bool:
        return self.hi.sign() < 0

    def contains_zero(self) -> bool:
        return self.lo.sign() <= 0 <= self.hi.sign()

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


# Decimal conversion by divide and conquer on powers of ten.  Python's
# int() and str() refuse more digits than sys.get_int_max_str_digits()
# allows (4300 by default, at least 640 when it is set), a process-wide
# setting; pieces of at most _DECIMAL_CHUNK digits stay under any limit.
_DECIMAL_CHUNK = 512
_CHUNK_BOUND = 10 ** _DECIMAL_CHUNK


def int_to_decimal(n: int) -> str:
    """str(n) for an int of any size."""
    if n < 0:
        return "-" + int_to_decimal(-n)
    if n < _CHUNK_BOUND:
        return str(n)
    # about half the digit count (1233 / 4096 is just below log10(2)),
    # so the high part is at least 1
    k = (n.bit_length() * 1233 >> 12) // 2
    high, low = divmod(n, 10 ** k)
    return int_to_decimal(high) + int_to_decimal(low).zfill(k)


def decimal_to_int(digits: str) -> int:
    """int(digits) for a string of decimal digits of any length."""
    if len(digits) <= _DECIMAL_CHUNK:
        return int(digits)
    k = len(digits) // 2
    high, low = digits[:-k], digits[-k:]
    return decimal_to_int(high) * 10 ** k + decimal_to_int(low)


def to_decimal_string(a: BigDyadic, digits: int) -> str:
    """Exact decimal rendering with the given number of fractional digits.

    The printed value is the nearest decimal with ``digits`` fractional
    digits (ties to even in the last digit), so it differs from the true
    value by at most half a unit in the last printed place.  A value
    that rounds to zero is printed without a sign.
    """
    if digits < 0:
        raise ValueError("digits must be nonnegative")
    neg = a.mantissa < 0
    m, e = abs(a.mantissa), a.exponent
    p = 10 ** digits
    if e >= 0:
        scaled = (m << e) * p
    else:
        scaled = shift_nearest(m * p, -e)
    sign = "-" if (neg and scaled != 0) else ""
    if digits == 0:
        return sign + int_to_decimal(scaled)
    whole, frac = divmod(scaled, p)
    return (f"{sign}{int_to_decimal(whole)}."
            f"{int_to_decimal(frac).zfill(digits)}")
