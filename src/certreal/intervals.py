"""Outward-rounded dyadic interval arithmetic.

This is the package's second evaluation backend.  It shares the
kernels layer (kernels.py: the series, the constants, and the exp,
sin, cos and ln reductions, each with the contract "value within
2**-t") with the approximation backend.  What it keeps to itself is
everything above that: arguments here are exact dyadic interval
endpoints, its roundings use dyadic.round_scaled rather than
creal.grid_round, and every enclosure is rounded outward, so every
produced interval provably contains the exact value of the expression.

The point of having two backends is cross-checking: conformance_check
compares an interval enclosure against the approximation backend's
certified enclosure of the same expression and fails loudly if they
are disjoint, which would mean one of the two is wrong.

When an expression or query repeats a subterm, each distinct call and
pi is computed once per working precision: the evaluation memoizes
their enclosures by (structure id, precision) on the lang.Sharing it is
given, which prove() and conformance_check() build once per call.  An
enclosure depends on the subterm and the precision alone, so a hit from
another pass, or from the other side of a query, returns the very
enclosure a fresh evaluation would; no bit changes, and the memo ends
with the Sharing.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import kernels, lang
from .dyadic import (BigDyadic, Interval, ONE, clamp_unit, dyadic,
                     power_of_two, round_ceil, round_floor, round_scaled)
from .errors import DomainUndetermined, DomainViolation


def point(v: BigDyadic) -> Interval:
    return Interval(v, v)


def from_point_err(v: BigDyadic, err: BigDyadic, w: int) -> Interval:
    """Enclosure of a point known to within +-err, on the 2**-w grid."""
    return Interval(round_floor(v - err, w), round_ceil(v + err, w))


# -- outward-rounded interval operations ---------------------------------

def iadd(a: Interval, b: Interval, w: int) -> Interval:
    return Interval(round_floor(a.lo + b.lo, w), round_ceil(a.hi + b.hi, w))


def ineg(a: Interval) -> Interval:
    return Interval(-a.hi, -a.lo)


def isub(a: Interval, b: Interval, w: int) -> Interval:
    return iadd(a, ineg(b), w)


def imul(a: Interval, b: Interval, w: int) -> Interval:
    products = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
    return Interval(round_floor(min(products), w),
                    round_ceil(max(products), w))


def _recip_floor(d: BigDyadic, w: int) -> BigDyadic:
    # floor(2**w / d) / 2**w, exact directed rounding for d != 0
    m, e = d.mantissa, d.exponent
    num_shift = w - e
    if num_shift >= 0:
        return dyadic((1 << num_shift) // m, -w)
    return dyadic(1 // (m << -num_shift), -w)


def _recip_ceil(d: BigDyadic, w: int) -> BigDyadic:
    return -_recip_floor(-d, w)


def irecip(a: Interval, w: int) -> Interval:
    """Reciprocal; the operand interval must not contain zero."""
    if a.contains_zero():
        raise DomainUndetermined(w, "reciprocal of an interval containing 0")
    return Interval(_recip_floor(a.hi, w), _recip_ceil(a.lo, w))


def idiv(a: Interval, b: Interval, w: int) -> Interval:
    return imul(a, irecip(b, w + 2), w)


# -- certified point evaluations of the transcendental functions ---------
#
# Each _*_point helper takes an exact dyadic argument and a target t and
# returns a value within 2**-t of the true function value, from the
# shared reductions (kernels.py, "Reductions") with zero argument error
# and, where they round, this backend's own rounding, round_scaled.


def _exp_point(d: BigDyadic, t: int) -> BigDyadic:
    """exp(d) within 2**-t, for an exact dyadic d."""
    if d.is_zero():
        return ONE
    return kernels.exp_reduced(lambda s: d, d.ceil(), d.ceil_log2(), t,
                               round_scaled)


def _sincos_point(d: BigDyadic, t: int, want_sin: bool) -> BigDyadic:
    """sin(d), or cos(d), within 2**-t, for an exact dyadic d."""
    return kernels.sincos_reduced(lambda s: d, abs(d).ceil(), t, want_sin,
                                  round_scaled)


def _ln_point(d: BigDyadic, t: int) -> BigDyadic:
    """ln(d) within 2**-t, for an exact dyadic d > 0."""
    if d.sign() <= 0:
        raise ValueError("ln point evaluation needs a positive argument")
    return kernels.ln_reduced(lambda s: d, 1 - d.ceil_log2(), t,
                              kernels.ln2_within)


# -- expression evaluation ------------------------------------------------

def _sincos_enclosure(a: Interval, want_sin: bool, w: int) -> Interval:
    # sin and cos are 1-Lipschitz: the value at the midpoint, widened by
    # the radius, encloses the image of a
    r = power_of_two(-(w + 2))
    v = _sincos_point(a.midpoint(), w + 2, want_sin)
    rad = a.radius()
    # |sin|, |cos| <= 1: clipping is sound and keeps tan stable
    return Interval(clamp_unit(round_floor(v - rad - r, w)),
                    clamp_unit(round_ceil(v + rad + r, w)))


def _eval(e, w: int, sh) -> Interval:
    # sh is the lang.Sharing of a tree containing e; its enclosures memo,
    # when there is one, holds calls and pi keyed by (structure id, w)
    if isinstance(e, lang.Num):
        # w >= 12 here; an integer gives the point [num, num]
        scaled = e.num << w
        return Interval(dyadic(scaled // e.den, -w),
                        dyadic(-((-scaled) // e.den), -w))
    if isinstance(e, lang.Neg):
        return ineg(_eval(e.arg, w, sh))
    if isinstance(e, lang.BinOp):
        a = _eval(e.lhs, w, sh)
        b = _eval(e.rhs, w, sh)
        if e.op == "+":
            return iadd(a, b, w)
        if e.op == "-":
            return isub(a, b, w)
        if e.op == "*":
            return imul(a, b, w)
        if e.op == "/":
            return idiv(a, b, w)
        raise AssertionError(f"unknown operator {e.op!r}")
    if isinstance(e, (lang.Call, lang.PiConst)):
        memo = sh.enclosures
        if memo is not None:
            key = (sh.ids[id(e)], w)
            iv = memo.get(key)
            if iv is not None:
                return iv
        if isinstance(e, lang.Call):
            iv = _call(e, w, sh)
        else:
            iv = from_point_err(kernels.pi_within(w + 2),
                                power_of_two(-(w + 2)), w)
        if memo is not None:
            memo[key] = iv
        return iv
    if isinstance(e, lang.Query):
        raise TypeError("cannot evaluate a comparison query as a value")
    raise TypeError(f"not an expression node: {e!r}")


def _call(e, w: int, sh) -> Interval:
    # the enclosure of the call e at w, for _eval to memoize; tan is the
    # quotient of sine and cosine enclosures taken from one enclosure of
    # its argument, four bits finer
    a = _eval(e.arg, w + 4 if e.fn == "tan" else w, sh)
    r = power_of_two(-(w + 2))
    if e.fn == "exp":
        return Interval(round_floor(_exp_point(a.lo, w + 2) - r, w),
                        round_ceil(_exp_point(a.hi, w + 2) + r, w))
    if e.fn == "ln":
        if a.strictly_negative():
            raise DomainViolation(
                e.arg.span, a,
                f"ln argument enclosed by {a}, which is negative")
        if not a.strictly_positive():
            raise DomainUndetermined(
                w, "ln argument interval does not exclude 0")
        return Interval(round_floor(_ln_point(a.lo, w + 2) - r, w),
                        round_ceil(_ln_point(a.hi, w + 2) + r, w))
    if e.fn in ("sin", "cos"):
        return _sincos_enclosure(a, e.fn == "sin", w)
    if e.fn == "tan":
        si = _sincos_enclosure(a, True, w + 4)
        co = _sincos_enclosure(a, False, w + 4)
        if co.contains_zero():
            raise DomainUndetermined(
                w, "cos enclosure for tan does not exclude 0")
        return idiv(si, co, w)
    raise AssertionError(f"unknown function {e.fn!r}")


@dataclass(frozen=True, slots=True)
class IntervalResult:
    interval: Interval
    converged: bool
    requested_precision: int


def eval_interval(e, k: int, sharing=None) -> IntervalResult:
    """Enclosure of the expression, refined until its width is at most
    2**(1-k) or the internal retry schedule runs out.

    An unconverged result is still a sound enclosure; it is only wider
    than requested.  DomainUndetermined propagates if a domain sign
    condition stays undecided at every retry precision.  ``sharing``
    is a lang.Sharing of a tree that contains e; a caller that evaluates
    one query many times passes the same one, so the structure ids are
    computed once and, when the tree repeats a subterm, the enclosures
    of its calls and pi once per working precision for all the calls
    (see the module docstring).  By default it is built here and lasts
    for this call.
    """
    if not isinstance(k, int) or k < 0:
        raise ValueError("precision must be a nonnegative integer")
    if sharing is None:
        sharing = lang.Sharing(e)
    target = power_of_two(1 - k)
    last = None
    failure = None
    for w in (k + 12, 2 * k + 24, 4 * k + 48):
        try:
            iv = _eval(e, w, sharing)
        except DomainUndetermined as exc:
            failure = exc
            continue
        if iv.width() <= target:
            return IntervalResult(iv, True, k)
        last = iv
    if last is not None:
        return IntervalResult(last, False, k)
    raise DomainUndetermined(k) from failure


@dataclass(frozen=True, slots=True)
class ConformanceReport:
    passed: bool
    precision: int
    approx_enclosure: Interval
    interval_enclosure: Interval
    converged: bool
    expression: object

    def __str__(self) -> str:
        verdict = "ok" if self.passed else "DISJOINT"
        return (f"conformance {verdict} at 2^-{self.precision}: "
                f"approx {self.approx_enclosure} vs "
                f"interval {self.interval_enclosure}")


def conformance_check(e, k: int, budget=None) -> ConformanceReport:
    """Cross-check the two backends on one expression.

    The approximation backend's enclosure [q - 2**-k, q + 2**-k] and the
    interval backend's enclosure both contain the exact value, so they
    must intersect; a disjoint pair means an engine bug.  Domain errors
    from elaboration propagate to the caller.
    """
    sharing = lang.Sharing(e)
    c = lang.elaborate(e, budget, sharing=sharing)
    q = c.approx(k)
    rad = power_of_two(-k)
    approx_encl = Interval(q - rad, q + rad)
    res = eval_interval(e, k, sharing)
    return ConformanceReport(
        passed=approx_encl.intersects(res.interval),
        precision=k,
        approx_enclosure=approx_encl,
        interval_enclosure=res.interval,
        converged=res.converged,
        expression=e,
    )
