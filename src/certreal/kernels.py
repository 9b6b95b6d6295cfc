"""The series layer shared by both evaluation backends.

Every transcendental in the package reaches its error bound through one
step: pick a term cap and a working width, run a fixed-point series
kernel, and read the result back as a dyadic.  This module is that
step, written once.  The approximation backend (functions.py) and the
interval backend (intervals.py) both call it; argument reduction and
reconstruction stay with each backend.

Kernels
-------
``exp_series``, ``sin_series``, ``cos_series``, ``atan_series`` and
``ln1p_series`` are the inner loops.  All arguments and results are
plain integers denoting values scaled by 2**w ("ulp" below means
2**-w).  Each kernel runs at most ``cap`` iterations and may stop
earlier, once the running term has decayed to at most one ulp.  Let m
be the number of iterations actually executed.  The returned integer S
satisfies

    |S * 2**-w  -  f(args)|  <=  (8*m + 16) * 2**-w  +  T

where T is the exact tail of the series after ``cap`` terms (zero if
the kernel stopped on term decay, in which case the remaining tail is
already inside the ulp blanket).

Argument ranges are preconditions, not checked here: exp needs
|r| <= 5/8, sin and cos need |r| <= 9/8, atan needs |p/q| <= 1/2 with
q > 0, and ln1p needs |t| <= 5/8.  The range bounds make every term
ratio at most ~2/3, which is what justifies stopping on term decay.

Wrappers
--------
``exp_within``, ``sin_within``, ``cos_within``, ``atan_within`` and
``ln1p_within`` take a dyadic argument in the kernel's range (atan: the
exact rational p/q) and a target t, and return a dyadic within 2**-t of
the function value.  The cap makes the analytic tail at most
2**-(t+1); the width w = t + 2 + bitlen(8*cap + 16) puts the blanket
and the half-ulp rounding of the argument below 2**-(t+1) as well.

Reduction depth
---------------
The backends reduce an exp argument by halving and a sin or cos
argument by dividing by 3, then undo it by squaring or by the
triple-angle identities.  The range alone needs only a few steps, but
at high precision more pay off (Brent & Zimmermann, *Modern Computer
Arithmetic* §4.3-4.4): one more step costs one or two full-width
products and shrinks the kernel argument by a constant factor, so the
kernel stops on term decay after fewer terms; the two balance near
sqrt(t) steps.  ``extra_halvings(t)`` and ``extra_triplings(t)`` give
the steps added beyond those the range needs, about sqrt(t) and
sqrt(t) / 4.  Both are 0 up to 256 bits (triplings up to 1295), where
an extra step costs more in interpreter overhead than the terms it
saves.  Timed through intervals._exp_point and _sincos_point on
full-width arguments near 3 (CPython 3.11, one core of a shared 2-CPU
machine), deeper exp reduction breaks even near 500 bits and is 1.5x
faster at 1000 bits, 3.1x at 4000 and 5.8x at 13000; sin and cos break
even near 1500 bits and are 1.2x faster at 2000, 1.5x at 4000 and
2.6x at 13000.  Each error budget charges per step (one bit per
halving, four per tripling), so it holds for any depth at or above the
range's.
"""

from math import factorial, isqrt

from .dyadic import BigDyadic, dyadic, shift_nearest
from .errors import ResourceExhausted

# Hard ceiling on any precision request or working width, in bits.
# Anything over it is a runaway budget, not a legitimate computation.
PRECISION_LIMIT = 1 << 22


def budget(t: int) -> int:
    """t itself, or ResourceExhausted if it is over PRECISION_LIMIT."""
    if t > PRECISION_LIMIT:
        raise ResourceExhausted(f"working precision {t} over the limit")
    return t


# -- kernels --------------------------------------------------------------

def exp_series(r: int, w: int, cap: int) -> int:
    # sum of r**i / i!, signed term recurrence; floor steps cost <= 2 ulps
    # per iteration, covered by the shared blanket.
    acc = 1 << w
    term = 1 << w
    i = 0
    while i < cap:
        i += 1
        term = ((term * r) >> w) // i
        if -1 <= term <= 1:
            break
        acc += term
    return acc


def sin_series(r: int, w: int, cap: int) -> int:
    # sin is odd: work on |r| and put the sign back at the end.
    neg = r < 0
    if neg:
        r = -r
    r2 = (r * r) >> w
    term = r
    acc = r
    i = 0
    sign = 1
    while i < cap:
        term = (term * r2) >> w
        term //= (2 * i + 2) * (2 * i + 3)
        i += 1
        sign = -sign
        if term <= 1:
            break
        acc += sign * term
    return -acc if neg else acc


def cos_series(r: int, w: int, cap: int) -> int:
    # cos is even: drop the sign of r up front.
    if r < 0:
        r = -r
    r2 = (r * r) >> w
    term = 1 << w
    acc = term
    i = 0
    sign = 1
    while i < cap:
        term = (term * r2) >> w
        term //= (2 * i + 1) * (2 * i + 2)
        i += 1
        sign = -sign
        if term <= 1:
            break
        acc += sign * term
    return acc


def atan_series(p: int, q: int, w: int, cap: int) -> int:
    # arctan(p/q) for an exact rational argument: powers are carried as
    # scaled integers divided by the exact q**2, so no per-term rational
    # blowup and still one floor per operation.  atan is odd: work on
    # |p| and put the sign back at the end.
    neg = p < 0
    if neg:
        p = -p
    num2 = p * p
    den2 = q * q
    power = (p << w) // q
    acc = power
    i = 0
    sign = 1
    while i < cap:
        power = (power * num2) // den2
        i += 1
        sign = -sign
        if power <= 1:
            break
        acc += sign * (power // (2 * i + 1))
    return -acc if neg else acc


def ln1p_series(t: int, w: int, cap: int) -> int:
    # log(1 + t) = sum of (-1)**(i+1) t**i / i.  Worked on |t| with the
    # per-term sign reconstructed from the sign of t.
    ta = abs(t)
    st = 1 if t >= 0 else -1
    power = ta
    acc = st * ta
    i = 1
    while i < cap:
        power = (power * ta) >> w
        i += 1
        if power <= 1:
            break
        if st > 0:
            contrib = power // i
            acc += -contrib if (i % 2 == 0) else contrib
        else:
            acc -= power // i
    return acc


# -- term caps ------------------------------------------------------------
#
# Each cap is the number of series iterations after which the exact
# remainder is at most 2**-(t+1) over the kernel's whole argument range:
# the least n at which an exact integer inequality "bound(n) <= 2**-(t+1)"
# holds.  Every bound shrinks strictly with n, its successive ratio being
# 5/(8(n+1)) for exp, (9/8)**2/((2n+2)(2n+3)) for sin,
# (9/8)**2/((2n+1)(2n+2)) for cos, u**2 (2n+1)/(2n+3) with |u| <= 1/2 for
# atan and (5/8)(n+1)/(n+2) for ln1p.  So each inequality, once true,
# stays true, and _least finds the first n where it holds by doubling
# and bisection: O(log n) exact checks of about one big product each.

def _least(done) -> int:
    """Least n >= 0 with done(n), for done false below some n, true above."""
    if done(0):
        return 0
    lo, hi = 0, 1
    while not done(hi):
        lo, hi = hi, 2 * hi
    # done(lo) is false and done(hi) is true
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if done(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _cap_exp(t: int) -> int:
    # remainder after n terms at |r| <= 5/8 is < 2 * (5/8)**n / n!
    return _least(lambda n: 5 ** n << (t + 2) <= factorial(n) << 3 * n)


def _cap_sin(t: int) -> int:
    # first omitted term at |r| <= 9/8 is (9/8)**(2n+1) / (2n+1)!
    return _least(lambda n: 9 ** (2 * n + 1) << (t + 1)
                  <= factorial(2 * n + 1) << 3 * (2 * n + 1))


def _cap_cos(t: int) -> int:
    # first omitted term at |r| <= 9/8 is (9/8)**(2n) / (2n)!
    return _least(lambda n: 9 ** (2 * n) << (t + 1)
                  <= factorial(2 * n) << 6 * n)


def _cap_atan(t: int, p: int, q: int) -> int:
    # first omitted term is |u|**(2n+1) / (2n+1), u = p/q
    pa = abs(p)
    if pa == 0:
        return 1
    return 1 + _least(lambda n: pa ** (2 * n + 1) << (t + 1)
                      <= q ** (2 * n + 1) * (2 * n + 1))


def _cap_ln1p(t: int) -> int:
    # remainder after n terms at |v| <= 5/8 is < (5/8)**(n+1) * 8/3 / (n+1)
    return 1 + _least(lambda n: 5 ** (n + 1) << (t + 4)
                      <= 3 * (n + 1) << 3 * (n + 1))


# -- wrappers: dyadic in, dyadic within 2**-t out -------------------------

def _to_scaled(d: BigDyadic, w: int) -> int:
    """Nearest integer to d * 2**w; error at most half an ulp."""
    m, e = d.mantissa, d.exponent
    shift = e + w
    if shift >= 0:
        return m << shift
    return shift_nearest(m, -shift)


def _width(t: int, cap: int) -> int:
    return budget(t + 2 + (8 * cap + 16).bit_length())


# -- reduction depth ------------------------------------------------------

def extra_halvings(t: int) -> int:
    """Halvings of an exp argument beyond those its range needs, at target t."""
    return max(0, isqrt(t) - 16)


def extra_triplings(t: int) -> int:
    """Divisions of a sin or cos argument by 3 beyond those its range
    needs, at target t."""
    return max(0, isqrt(t) // 4 - 8)


def exp_within(r: BigDyadic, t: int) -> BigDyadic:
    """exp(r) within 2**-t, for |r| <= 5/8."""
    cap = _cap_exp(t)
    w = _width(t, cap)
    return dyadic(exp_series(_to_scaled(r, w), w, cap), -w)


def sin_within(r: BigDyadic, t: int) -> BigDyadic:
    """sin(r) within 2**-t, for |r| <= 9/8."""
    cap = _cap_sin(t)
    w = _width(t, cap)
    return dyadic(sin_series(_to_scaled(r, w), w, cap), -w)


def cos_within(r: BigDyadic, t: int) -> BigDyadic:
    """cos(r) within 2**-t, for |r| <= 9/8."""
    cap = _cap_cos(t)
    w = _width(t, cap)
    return dyadic(cos_series(_to_scaled(r, w), w, cap), -w)


def atan_within(p: int, q: int, t: int) -> BigDyadic:
    """arctan(p/q) within 2**-t, for q > 0 and |p/q| <= 1/2."""
    cap = _cap_atan(t, p, q)
    w = _width(t, cap)
    return dyadic(atan_series(p, q, w, cap), -w)


def ln1p_within(v: BigDyadic, t: int) -> BigDyadic:
    """ln(1 + v) within 2**-t, for |v| <= 5/8."""
    cap = _cap_ln1p(t)
    w = _width(t, cap)
    return dyadic(ln1p_series(_to_scaled(v, w), w, cap), -w)
