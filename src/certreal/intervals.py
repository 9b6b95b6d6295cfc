"""Outward-rounded interval arithmetic on scaled integers.

This is the package's second evaluation backend.  It shares the
kernels layer (kernels.py: the series, the constants, and the exp,
sin, cos and ln reductions, each with the contract "value within
2**-t") with the approximation backend.  What it keeps to itself is
everything above that.  An enclosure at working precision w is a pair
of ints (lo, hi), meaning [lo * 2**-w, hi * 2**-w]; its roundings are
dyadic.round_scaled inside the reductions and floor_scaled and
ceil_scaled outside them, rather than creal.grid_round, and every
enclosure is rounded outward, so every produced interval provably
contains the exact value of the expression.

Sums, differences and negation are exact.  A product takes the hull
of the four endpoint products, at scale 2w, floored and ceiled to w.
A quotient multiplies by the reciprocal on the 2**-(w+2) grid.  exp,
ln and pi widen a point value within 2**-(w+2) by that much and round
outward (exp and ln at both ends of the argument's enclosure, or once
at a point; pi, and ln 2 inside ln, are read off the constant ladder's
rungs, kernels.rung_value); sin and cos, which are 1-Lipschitz,
evaluate at the exact midpoint, lo + hi at scale w + 1, and widen by
the radius, hi - lo at that scale, too.  tan takes its sine and cosine
enclosures from one pair of the reduction at that midpoint, and so do
sin and cos of an argument that occurs under both (lang.Sharing's
``paired``), one pair per argument and working precision.
eval_interval builds the one public Interval of two dyadics from the
pair its last pass returns.

The point of having two backends is cross-checking: conformance_check
compares an interval enclosure against the approximation backend's
certified enclosure of the same expression and fails loudly if they
are disjoint, which would mean one of the two is wrong.

When an expression or query repeats a subterm, each distinct call and
pi is computed once per working precision: the evaluation memoizes
their enclosures by (structure id, precision), and the sine and cosine
pairs by ("pair", argument id, precision), on the lang.Sharing it is
given, which prove() and conformance_check() build once per call.  An
enclosure depends on the subterm and the precision alone, so a hit from
another pass, or from the other side of a query, returns the very
enclosure a fresh evaluation would; no bit changes, and the memo ends
with the Sharing.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import kernels, lang
from .dyadic import (Interval, ceil_scaled, dyadic, floor_scaled,
                     power_of_two, round_scaled)
from .errors import DomainUndetermined, DomainViolation


def _interval(lo: int, hi: int, w: int) -> Interval:
    """The enclosure (lo, hi) at scale w as an Interval."""
    return Interval(dyadic(lo, -w), dyadic(hi, -w))


# -- outward-rounded interval operations ---------------------------------

def _mul(alo: int, ahi: int, blo: int, bhi: int, a: int,
         w: int) -> tuple[int, int]:
    """The product of two enclosures whose scales add up to a, rounded
    outward to scale w."""
    products = (alo * blo, alo * bhi, ahi * blo, ahi * bhi)
    return floor_scaled(min(products), a, w), ceil_scaled(max(products), a, w)


def _div(alo: int, ahi: int, blo: int, bhi: int, d: int,
         w: int) -> tuple[int, int]:
    """The quotient of two enclosures at scale w + d, rounded outward to
    scale w through the reciprocal on the 2**-(w+2) grid; the divisor
    must not contain zero."""
    if blo <= 0 <= bhi:
        raise DomainUndetermined(w + 2,
                                 "reciprocal of an interval containing 0")
    # 1 / (b 2**-(w+d)) is 2**(2w+d+2) / b at scale w + 2
    a = 2 * w + d + 2
    n = 1 << a
    return _mul(alo, ahi, n // bhi, -(-n // blo), a, w)


def _widened(v: int, s: int, w: int) -> tuple[int, int]:
    """The enclosure at scale w of a value within 2**-(w+2) of v * 2**-s."""
    if s < w + 2:
        v, s = v << (w + 2 - s), w + 2
    r = 1 << (s - w - 2)
    return floor_scaled(v - r, s, w), ceil_scaled(v + r, s, w)


# -- certified point evaluations of the transcendental functions ---------
#
# Each _*_point helper takes an exact argument x = (n, a), meaning
# n * 2**-a, and a target t, and returns a value within 2**-t of the
# true function value as a pair (v, s), meaning v * 2**-s with s >= t,
# from the shared reductions (kernels.py, "Reductions") with zero
# argument error and, where they round, this backend's own rounding,
# round_scaled.


def _exp_point(x: tuple[int, int], t: int) -> tuple[int, int]:
    """exp(x) within 2**-t, for an exact x."""
    n, a = x
    if n == 0:
        return 1, 0
    # |x| <= 2**L for L = bitlen(|n| - 1) - a, the least such L
    return kernels.exp_reduced(lambda s: x, ceil_scaled(n, a, 0),
                               (abs(n) - 1).bit_length() - a, t,
                               round_scaled)


def _sincos_point(x: tuple[int, int], t: int, want_sin: bool | None):
    """sin(x), or cos(x), within 2**-t, for an exact x; with want_sin
    None, both, as ((sin, cos), s) from one reduction."""
    n, a = x
    return kernels.sincos_reduced(lambda s: x, ceil_scaled(abs(n), a, 0),
                                  t, want_sin, round_scaled)


def _ln_point(x: tuple[int, int], t: int) -> tuple[int, int]:
    """ln(x) within 2**-t, for an exact x > 0."""
    n, a = x
    if n <= 0:
        raise ValueError("ln point evaluation needs a positive argument")
    # x > 2**(L-1) for L as in _exp_point, so ln_reduced's c is 1 - L;
    # ln 2 within 2**-s off the ladder's rungs
    return kernels.ln_reduced(
        lambda s: x, 1 + a - (n - 1).bit_length(), t,
        lambda s: kernels.rung_value(kernels.ln2_within, s))


# -- expression evaluation ------------------------------------------------

def _increasing(point, lo: int, hi: int, w: int) -> tuple[int, int]:
    """The enclosure at scale w of an increasing function's image of
    [lo, hi] at scale w, from its point evaluations at the two ends:
    one evaluation when they are equal."""
    ends = _widened(*point((lo, w), w + 2), w)
    if hi != lo:
        ends = ends[0], _widened(*point((hi, w), w + 2), w)[1]
    return ends


def _sincos_enclosure(lo: int, hi: int, want_sin: bool | None, w: int):
    # sin and cos are 1-Lipschitz: the value at the midpoint, widened by
    # the radius, encloses the image of [lo, hi]; the point is at a
    # scale s >= w + 2, where the radius and its error 2**-(w+2) are
    # ints.  With want_sin None, the sine's and the cosine's enclosures
    # from one pair at the midpoint
    v, s = _sincos_point((lo + hi, w + 1), w + 2, want_sin)
    r = ((hi - lo) << (s - w - 1)) + (1 << (s - w - 2))
    # |sin|, |cos| <= 1: clipping is sound and keeps tan stable; v lies
    # in [-1, 1], so each end can leave it on its outer side only
    one = 1 << w

    def widened(v):
        return (max(-one, floor_scaled(v - r, s, w)),
                min(one, ceil_scaled(v + r, s, w)))

    return widened(v) if want_sin is not None else tuple(map(widened, v))


def _eval(e, w: int, sh) -> tuple[int, int]:
    # the enclosure (lo, hi) of e at scale w; sh is the lang.Sharing of
    # a tree containing e, whose enclosures memo, when there is one,
    # holds calls and pi keyed by (structure id, w), and sine and cosine
    # pairs by ("pair", argument id, w)
    if isinstance(e, lang.Num):
        # w >= 12 here; an integer gives the point [num, num]
        scaled = e.num << w
        return scaled // e.den, -(-scaled // e.den)
    if isinstance(e, lang.Neg):
        lo, hi = _eval(e.arg, w, sh)
        return -hi, -lo
    if isinstance(e, lang.BinOp):
        alo, ahi = _eval(e.lhs, w, sh)
        blo, bhi = _eval(e.rhs, w, sh)
        if e.op == "+":
            return alo + blo, ahi + bhi
        if e.op == "-":
            return alo - bhi, ahi - blo
        if e.op == "*":
            return _mul(alo, ahi, blo, bhi, 2 * w, w)
        if e.op == "/":
            return _div(alo, ahi, blo, bhi, 0, w)
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
            iv = _widened(*kernels.rung_value(kernels.pi_within, w + 2), w)
        if memo is not None:
            memo[key] = iv
        return iv
    if isinstance(e, lang.Query):
        raise TypeError("cannot evaluate a comparison query as a value")
    raise TypeError(f"not an expression node: {e!r}")


def _call(e, w: int, sh) -> tuple[int, int]:
    # the enclosure of the call e at w, for _eval to memoize; tan is the
    # quotient of the sine and cosine enclosures of one pair, taken from
    # one enclosure of its argument, four bits finer
    if e.fn == "tan":
        lo, hi = _eval(e.arg, w + 4, sh)
        (slo, shi), (clo, chi) = _sincos_enclosure(lo, hi, None, w + 4)
        if clo <= 0 <= chi:
            raise DomainUndetermined(
                w, "cos enclosure for tan does not exclude 0")
        return _div(slo, shi, clo, chi, 4, w)
    if e.fn in ("sin", "cos") and sh.ids[id(e.arg)] in sh.paired:
        # sin and cos of this argument both occur: one pair per
        # (argument, w), kept in the memo beside the calls
        key = ("pair", sh.ids[id(e.arg)], w)
        memo = sh.enclosures if sh.enclosures is not None else {}
        pair = memo.get(key)
        if pair is None:
            pair = memo[key] = _sincos_enclosure(*_eval(e.arg, w, sh),
                                                 None, w)
        return pair[e.fn == "cos"]
    lo, hi = _eval(e.arg, w, sh)
    if e.fn == "exp":
        return _increasing(_exp_point, lo, hi, w)
    if e.fn == "ln":
        if hi < 0:
            a = _interval(lo, hi, w)
            raise DomainViolation(
                e.arg.span, a,
                f"ln argument enclosed by {a}, which is negative")
        if lo <= 0:
            raise DomainUndetermined(
                w, "ln argument interval does not exclude 0")
        return _increasing(_ln_point, lo, hi, w)
    if e.fn in ("sin", "cos"):
        return _sincos_enclosure(lo, hi, e.fn == "sin", w)
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
    last = None
    failure = None
    for w in (k + 12, 2 * k + 24, 4 * k + 48):
        try:
            lo, hi = _eval(e, w, sharing)
        except DomainUndetermined as exc:
            failure = exc
            continue
        # a width of at most 2**(1-k), at scale w
        if hi - lo <= 1 << (w + 1 - k):
            return IntervalResult(_interval(lo, hi, w), True, k)
        last = lo, hi, w
    if last is not None:
        return IntervalResult(_interval(*last), False, k)
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
