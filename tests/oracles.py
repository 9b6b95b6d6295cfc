"""Independent exact-rational oracles for the test suite.

Everything here is computed with Fraction arithmetic over explicit
Taylor partial sums with hand-derived remainder bounds.  Nothing in
this module touches the dyadic engine, the kernels, or the interval
backend; the only package import is the expression AST, used purely
for structural dispatch.  Each *_bounds function returns a pair of
Fractions (lo, hi) with lo <= f <= hi, guaranteed, for every argument
in its stated range.

These bounds are the ground truth the engine is judged against.  They
are deliberately slow and simple.
"""

from __future__ import annotations

from fractions import Fraction

from certreal import lang

HALF = Fraction(1, 2)


def _floor(f: Fraction) -> int:
    return f.numerator // f.denominator


def _ceil(f: Fraction) -> int:
    return -((-f).numerator // (-f).denominator)


def snap_outward(lo: Fraction, hi: Fraction, bits: int):
    """Widen an interval onto the 2**-bits grid; containment survives."""
    s = 1 << bits
    return Fraction(_floor(lo * s), s), Fraction(-_floor(-hi * s), s)


def exp_bounds(x: Fraction, bits: int):
    """exp(x) for |x| <= 16, within about 2**-bits."""
    x = Fraction(x)
    assert abs(x) <= 16
    m = 0
    r = x
    while abs(r) > HALF:
        r /= 2
        m += 1
    # squaring an interval around exp(x/2**i) multiplies its width by
    # about twice the value; exp(|x|) <= 2**(1.5(|x|+1)) caps the total
    growth = m + (3 * (_ceil(abs(x)) + 1) + 1) // 2 + 2
    base_bits = bits + growth
    # remainder after N terms of the series at |r| <= 1/2 is at most
    # |r|**N / N! * 1/(1 - |r|) <= 2 * 2**-N / N!
    n, fact = 0, 1
    while Fraction(2, (1 << n) * fact) > Fraction(1, 1 << base_bits):
        n += 1
        fact *= n
    s = Fraction(0)
    term = Fraction(1)
    for i in range(1, n + 1):
        s += term
        term = term * r / i
    rem = Fraction(2, (1 << n) * fact)
    lo, hi = s - rem, s + rem
    assert lo > 0
    for _ in range(m):
        lo, hi = lo * lo, hi * hi
        lo, hi = snap_outward(lo, hi, base_bits + 64)
    return lo, hi


def sin_bounds(x: Fraction, bits: int):
    """sin(x) for |x| <= 64; remainder is the classical Lagrange bound."""
    x = Fraction(x)
    assert abs(x) <= 64
    target = Fraction(1, 1 << bits)
    n = 1
    rem = abs(x) ** 3 / Fraction(6)
    while rem > target:
        n += 1
        rem *= x * x / ((2 * n) * (2 * n + 1))
    s = Fraction(0)
    term = Fraction(x)
    for i in range(n):
        s += term
        term = -term * x * x / ((2 * i + 2) * (2 * i + 3))
    return snap_outward(s - rem, s + rem, bits + 64)


def cos_bounds(x: Fraction, bits: int):
    x = Fraction(x)
    assert abs(x) <= 64
    target = Fraction(1, 1 << bits)
    n = 1
    rem = x * x / Fraction(2)
    while rem > target:
        n += 1
        rem *= x * x / ((2 * n - 1) * (2 * n))
    s = Fraction(0)
    term = Fraction(1)
    for i in range(n):
        s += term
        term = -term * x * x / ((2 * i + 1) * (2 * i + 2))
    return snap_outward(s - rem, s + rem, bits + 64)


def _ln_series(t: Fraction, bits: int):
    # ln(1 + t) for |t| <= 5/8; power series with remainder
    # <= |t|**(N+1)/(N+1) * 1/(1-|t|) <= 3 |t|**(N+1)/(N+1)
    assert abs(t) <= Fraction(5, 8)
    # |t|**(n+1) = a/b carried along as two integer powers
    a, b = abs(t.numerator) ** 2, t.denominator ** 2
    n = 1
    while 3 * a << bits > b * (n + 1):
        n += 1
        a *= abs(t.numerator)
        b *= t.denominator
    s = Fraction(0)
    power = Fraction(1)
    for i in range(1, n + 1):
        power *= t
        s += power / i if i % 2 == 1 else -power / i
    rem = Fraction(3 * a, b * (n + 1))
    return s - rem, s + rem


def ln2_bounds(bits: int):
    # ln 2 = -ln(1/2)
    lo, hi = _ln_series(Fraction(-1, 2), bits)
    return -hi, -lo


def ln_bounds(x: Fraction, bits: int):
    """ln(x) for rational x > 0."""
    x = Fraction(x)
    if x <= 0:
        raise ValueError("ln oracle needs a positive argument")
    e = 0
    u = x
    while u >= Fraction(3, 2):
        u /= 2
        e += 1
    while u < Fraction(3, 4):
        u *= 2
        e -= 1
    slo, shi = _ln_series(u - 1, bits + 2)
    if e == 0:
        return snap_outward(slo, shi, bits + 64)
    l2lo, l2hi = ln2_bounds(bits + 2 + abs(e).bit_length())
    if e > 0:
        lo, hi = slo + e * l2lo, shi + e * l2hi
    else:
        lo, hi = slo + e * l2hi, shi + e * l2lo
    return snap_outward(lo, hi, bits + 64)


def ln_of_floor_exp(r: Fraction, bits: int):
    """(n, err) with n = floor(exp(r) * 2**bits), taken from the exp
    oracle, and |ln(n / 2**bits) - r| <= err.

    A full-width argument whose ln is known without ln_bounds, whose
    exact rational series is too slow at these widths.  n / 2**bits is
    at most hi - lo + 2**-bits below exp(r) and not above it, and ln
    has slope at most 2**bits / n between the two.
    """
    lo, hi = exp_bounds(r, bits)
    n = _floor(lo * (1 << bits))
    return n, (hi - lo + Fraction(1, 1 << bits)) * (1 << bits) / n


def atan_bounds(p: int, q: int, bits: int):
    """arctan(p/q) for |p/q| <= 1; alternating, first-omitted-term bound."""
    x = Fraction(p, q)
    assert abs(x) <= 1
    n = 0
    while abs(x) ** (2 * n + 1) / (2 * n + 1) > Fraction(1, 1 << bits):
        n += 1
    s = Fraction(0)
    power = x
    for i in range(n):
        s += power / (2 * i + 1) if i % 2 == 0 else -power / (2 * i + 1)
        power *= x * x
    rem = abs(x) ** (2 * n + 1) / (2 * n + 1)
    return snap_outward(s - rem, s + rem, bits + 64)


def pi_bounds(bits: int):
    """pi from two arctangents of small rationals."""
    a5lo, a5hi = atan_bounds(1, 5, bits + 6)
    a239lo, a239hi = atan_bounds(1, 239, bits + 4)
    return 16 * a5lo - 4 * a239hi, 16 * a5hi - 4 * a239lo


# 50 decimal digits, rounded at the last place (so containment checks
# need a half-ulp tolerance of 10**-50).  The test suite checks
# pi_bounds against this literal so a broken oracle cannot silently
# vouch for a broken engine.
PI_50_DIGITS = "3.14159265358979323846264338327950288419716939937511"


# -- reference term caps ---------------------------------------------------
#
# The kernels' term caps as linear scans: step n up from 0, updating the
# exact integer sides of each remainder inequality, until it holds.  The
# engine's caps must return the same integers.

def _cap_exp(t: int) -> int:
    # remainder after n terms at |r| <= 5/8 is < 2 * (5/8)**n / n!
    n, p5, p8 = 0, 1, 1
    bound = 1 << (t + 2)
    while p5 * bound > p8:
        n += 1
        p5 *= 5
        p8 *= 8 * n
    return n


def _cap_sin(t: int) -> int:
    # first omitted term at |r| <= 9/8 is (9/8)**(2n+1) / (2n+1)!
    n, p9, pf = 0, 9, 8
    bound = 1 << (t + 1)
    while p9 * bound > pf:
        n += 1
        p9 *= 81
        pf *= 64 * (2 * n) * (2 * n + 1)
    return n


def _cap_cos(t: int) -> int:
    # first omitted term at |r| <= 9/8 is (9/8)**(2n) / (2n)!
    n, p9, pf = 0, 1, 1
    bound = 1 << (t + 1)
    while p9 * bound > pf:
        n += 1
        p9 *= 81
        pf *= 64 * (2 * n - 1) * (2 * n)
    return n


def _cap_ln1p(t: int) -> int:
    # remainder after n terms at |v| <= 5/8 is < (5/8)**(n+1) * 8/3 / (n+1)
    n, p5, p8 = 0, 5, 8
    bound = 1 << (t + 4)
    while p5 * bound > p8 * 3 * (n + 1):
        n += 1
        p5 *= 5
        p8 *= 8
    return n + 1



def _cap_atan(t: int, p: int, q: int) -> int:
    # terms of the atan series at u = p/q before the first one of size at
    # most 2**-(t+1), |u|**(2n+1) / (2n+1); the series alternates with
    # shrinking terms, so that term bounds the tail
    pa = abs(p)
    n, pn, pd = 0, pa, q
    bound = 1 << (t + 1)
    while pn * bound > pd * (2 * n + 1):
        n += 1
        pn *= pa * pa
        pd *= q * q
    return n


def _cap_split(t: int, p: int, q: int, hyperbolic: bool) -> int:
    # terms of the atan (atanh) series at u = p/q after which the tail,
    # at most |u|**(2n+1) / (2n+1) (over 1 - u**2 for atanh), is at
    # most 2**-(t+1)
    pa = abs(p)
    h = pa * pa if hyperbolic else 0
    n, pn, pd = 0, pa, q
    bound = 1 << (t + 1)
    while pn * q * q * bound > pd * (2 * n + 1) * (q * q - h):
        n += 1
        pn *= pa * pa
        pd *= q * q
    return n


def _cap_exp_split(t: int, p: int, q: int) -> int:
    # terms of the exp series at x = p/q after which the tail is at most
    # 2**-(t+1): the least n >= 2|x| with 2 |x|**n / n! <= 2**-(t+1)
    pa = abs(p)
    n, pn, pd = 0, 1, 1
    bound = 1 << (t + 2)
    while n * q < 2 * pa or pn * bound > pd:
        n += 1
        pn *= pa
        pd *= q * n
    return n


def _cap_sin_split(t: int, p: int, q: int) -> int:
    # terms of the sin series at x = p/q after which the first omitted
    # one, |x|**(2n+1) / (2n+1)!, is at most 2**-(t+1) and the terms
    # shrink from there on
    pa = abs(p)
    n, pn, pd = 0, pa, q
    bound = 1 << (t + 1)
    while (2 * n + 2) * (2 * n + 3) * q * q < pa * pa or pn * bound > pd:
        n += 1
        pn *= pa * pa
        pd *= q * q * (2 * n) * (2 * n + 1)
    return n


def _cap_cos_split(t: int, p: int, q: int) -> int:
    # as _cap_sin_split, with the first omitted term x**(2n) / (2n)!
    pa = abs(p)
    n, pn, pd = 0, 1, 1
    bound = 1 << (t + 1)
    while (2 * n + 1) * (2 * n + 2) * q * q < pa * pa or pn * bound > pd:
        n += 1
        pn *= pa * pa
        pd *= q * q * (2 * n - 1) * (2 * n)
    return n

# -- interval evaluation over the expression AST --------------------------

class OracleDomainError(Exception):
    """The oracle cannot certify a bound (denominator interval spans
    zero, ln of a possibly nonpositive interval, argument range
    exceeded)."""


def _imul(alo, ahi, blo, bhi):
    ps = (alo * blo, alo * bhi, ahi * blo, ahi * bhi)
    return min(ps), max(ps)


def eval_expr_bounds(node, bits: int):
    """Certified rational bounds for a closed expression AST.

    Raises OracleDomainError when a side condition cannot be checked
    from the computed intervals; the test corpus avoids those inputs.
    """
    snap = bits + 64
    if isinstance(node, lang.Num):
        v = Fraction(node.num, node.den)
        return v, v
    if isinstance(node, lang.PiConst):
        return pi_bounds(bits)
    if isinstance(node, lang.Neg):
        lo, hi = eval_expr_bounds(node.arg, bits)
        return -hi, -lo
    if isinstance(node, lang.BinOp):
        alo, ahi = eval_expr_bounds(node.lhs, bits)
        blo, bhi = eval_expr_bounds(node.rhs, bits)
        if node.op == "+":
            lo, hi = alo + blo, ahi + bhi
        elif node.op == "-":
            lo, hi = alo - bhi, ahi - blo
        elif node.op == "*":
            lo, hi = _imul(alo, ahi, blo, bhi)
        elif node.op == "/":
            if blo <= 0 <= bhi:
                raise OracleDomainError("denominator interval spans zero")
            lo, hi = _imul(alo, ahi, 1 / bhi, 1 / blo)
        else:
            raise AssertionError(node.op)
        return snap_outward(lo, hi, snap)
    if isinstance(node, lang.Call):
        alo, ahi = eval_expr_bounds(node.arg, bits)
        if node.fn == "exp":
            lo = exp_bounds(alo, bits)[0]
            hi = exp_bounds(ahi, bits)[1]
        elif node.fn == "ln":
            if alo <= 0:
                raise OracleDomainError("ln argument not certainly positive")
            lo = ln_bounds(alo, bits)[0]
            hi = ln_bounds(ahi, bits)[1]
        elif node.fn in ("sin", "cos"):
            mid = (alo + ahi) / 2
            rad = (ahi - alo) / 2
            if abs(mid) > 64:
                raise OracleDomainError("sin/cos oracle range exceeded")
            f = sin_bounds if node.fn == "sin" else cos_bounds
            flo, fhi = f(mid, bits)
            # |d sin/dx| and |d cos/dx| are at most 1
            lo, hi = flo - rad, fhi + rad
        elif node.fn == "tan":
            slo, shi = eval_expr_bounds(
                lang.Call("sin", node.arg, node.span), bits)
            clo, chi = eval_expr_bounds(
                lang.Call("cos", node.arg, node.span), bits)
            if clo <= 0 <= chi:
                raise OracleDomainError("cos interval spans zero")
            lo, hi = _imul(slo, shi, 1 / chi, 1 / clo)
        else:
            raise AssertionError(node.fn)
        return snap_outward(lo, hi, snap)
    raise TypeError(f"not an expression node: {node!r}")
