"""Computable reals with an explicit approximation contract.

A CReal is a node in a dag of exact rational constants, ring
operations, certified reciprocals, limits and series.  The one public
entry point is ``approx(x, k)``, which returns a dyadic q with

    |x - q| <= 2**-k        and        q on the 2**-(k+2) grid

(in fact always on the 2**-(k+1) grid).  Together with the triangle
inequality this gives the regularity property

    |approx(x, k1) - approx(x, k2)| <= 2**-k1 + 2**-k2

for every pair of precisions, with no shared state needed.  Every
computation is integer arithmetic, so approximations are deterministic
and bit-identical across runs and platforms.

A series term may also be an exact dyadic, which is added without
rounding.  A series node keeps the exact sum of its leading exact terms
as an integer mantissa and exponent, adds each term by one integer
alignment, and extends that prefix as precision deepens, so each such
term is computed once; the partial sum is rounded once, at the end.

Internally each node computes a slightly better "raw" approximation,
kept in one memo keyed by precision.  raw(j) is a plain int n, meaning
n * 2**-(j+2), within 2**-j of the exact value, as in Boehm's
constructive reals, whose get_appr(p) is an integer scaled by 2**p;
ring operations, reciprocals, limits and series build no BigDyadic.
Every node that rounds puts its raw value on the 2**-(j+1) grid and a
reciprocal on the 2**-(j+2) grid, so the scale 2**-(j+2) holds them
all exactly.  Two nodes round onto it instead, each within its budget:
a limit whose element's raw value lies off its grid, and a scaling by
2**s read at a negative precision j + s.  Each rounding is one call of
grid_round, on integers.  approx(x, k) is derived from raw(k+2) by one
grid rounding,

    approx(x, k) = dyadic(grid_round(raw(k+2), k+4, k+1), -(k+1)),

and is not memoized itself; a BigDyadic appears only there and at the
kernels' boundary (functions.py).  Because _compute is deterministic,
two threads that race on a miss store the identical value, and no
cache can make approx(x, k) depend on what was computed before.

Strict comparisons are only semi-decidable: cmp_semidecide deepens
precision along an exponential schedule and reports Proved or Refuted
with an exact enclosure certificate, or Exhausted when the budget ends
before the enclosures separate (which is what happens, forever, for
equal numbers).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .dyadic import (_ALIGN_LIMIT, BigDyadic, Interval, add_aligned,
                     div_nearest, dyadic, power_of_two, shift_nearest)
from .errors import ExponentOverflow, InvalidCertificate, ResourceExhausted
from .kernels import PRECISION_LIMIT


def grid_round(n: int, a: int, k: int) -> int:
    """n * 2**-a rounded to the nearest point of the 2**-k grid, ties to
    even, as the integer q with value q * 2**-k.

    The single rounding chokepoint of this backend.  Every grid
    rounding in the approximation backend goes through here, each
    caller looking it up as a module global (the interval backend
    uses dyadic.round_scaled instead), so conformance fault tests can
    corrupt it in one place and watch the cross-check catch it.
    """
    # round_scaled's rule without its span guard: every span here is a
    # precision budget, except in _Series, which checks its own
    if a <= k:
        return n << (k - a)
    return shift_nearest(n, a - k)


def _log2_bound(h: int) -> int:
    """The least a with |approx(x, 0)| + 1 <= 2**a, from h = x._grid(0);
    then |x| <= 2**a as well."""
    # approx(x, 0) = h / 2, and ceil(log2((|h| + 2) / 2)) for an int
    # |h| + 2 >= 2 is the bit length of |h| + 1, less one
    return (abs(h) + 1).bit_length() - 1


def _scaled(q: BigDyadic, k: int) -> int:
    """approx(k) = q as the int n with q = n * 2**-(k+1)."""
    return q.mantissa << (q.exponent + k + 1)


def _checked_precision(j: int) -> int:
    if not isinstance(j, int):
        raise TypeError("precision must be an int")
    if j < 0:
        raise ValueError("precision must be nonnegative")
    if j > PRECISION_LIMIT:
        raise ResourceExhausted(f"precision request 2^-{j} over the limit")
    return j


class CReal:
    """Base class; concrete nodes implement _compute(j).

    _compute(j) must return the int n with n * 2**-(j+2) within 2**-j
    of the exact value.  It has no grid obligation beyond that scale;
    the public approx() does the final rounding.
    """

    __slots__ = ("_raw_memo",)

    def __init__(self):
        self._raw_memo: dict = {}

    def approx(self, k: int) -> BigDyadic:
        """Dyadic approximation with |x - approx(x, k)| <= 2**-k."""
        _checked_precision(k)
        return dyadic(self._grid(k), -(k + 1))

    def _grid(self, k: int) -> int:
        """approx(k) as the int n with approx(k) = n * 2**-(k+1)."""
        # raw error 2**-(k+2) plus half a 2**-(k+1) grid step
        return grid_round(self._raw(k + 2), k + 4, k + 1)

    def _raw(self, j: int) -> int:
        # dict get and setdefault are each atomic; a lost race stores
        # the identical value, so no lock is needed
        v = self._raw_memo.get(j)
        if v is None:
            _checked_precision(j)
            v = self._raw_memo.setdefault(j, self._compute(j))
        return v

    def _compute(self, j: int) -> int:
        raise NotImplementedError

    # Convenience operators for ring operations.  Division is not an
    # operator: it needs an apartness certificate, see recip().

    def __add__(self, other):
        return _Add(self, _coerce(other))

    def __radd__(self, other):
        return _Add(_coerce(other), self)

    def __sub__(self, other):
        return _Sub(self, _coerce(other))

    def __rsub__(self, other):
        return _Sub(_coerce(other), self)

    def __mul__(self, other):
        return _Mul(self, _coerce(other))

    def __rmul__(self, other):
        return _Mul(_coerce(other), self)

    def __neg__(self):
        return _Neg(self)


def _coerce(v) -> CReal:
    if isinstance(v, CReal):
        return v
    if isinstance(v, bool):
        raise TypeError("cannot interpret a bool as a real")
    if isinstance(v, int):
        return const(v)
    if isinstance(v, Fraction):
        return const(v)
    if isinstance(v, BigDyadic):
        return const(v.as_fraction())
    raise TypeError(f"cannot interpret {v!r} as a real")


class _Const(CReal):
    __slots__ = ("value",)

    def __init__(self, value: Fraction):
        super().__init__()
        self.value = value

    def _compute(self, j: int) -> int:
        p, q = self.value.numerator, self.value.denominator
        return grid_round(div_nearest(p << (j + 3), q), j + 3, j + 1) << 1


def const(num, den=1) -> CReal:
    """The exact rational num/den as a real."""
    return _Const(Fraction(num, den))


class _Add(CReal):
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        super().__init__()
        self.x, self.y = x, y

    def _compute(self, j: int) -> int:
        # operands within 2**-(j+2) each, the rounding 2**-(j+2)
        return grid_round(self.x._raw(j + 2) + self.y._raw(j + 2),
                          j + 4, j + 1) << 1


class _Sub(CReal):
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        super().__init__()
        self.x, self.y = x, y

    def _compute(self, j: int) -> int:
        return grid_round(self.x._raw(j + 2) - self.y._raw(j + 2),
                          j + 4, j + 1) << 1


class _Neg(CReal):
    __slots__ = ("x",)

    def __init__(self, x):
        super().__init__()
        self.x = x

    def _compute(self, j: int) -> int:
        return -self.x._raw(j)


class _Scale2(CReal):
    """Exact multiplication by 2**s."""

    __slots__ = ("x", "s")

    def __init__(self, x, s: int):
        super().__init__()
        self.x, self.s = x, s

    def _compute(self, j: int) -> int:
        s = self.s
        if j + s >= 0:
            # raw(j + s) of x is n 2**-(j+s+2), so 2**s x is the same n at
            # scale 2**-(j+2), within 2**s 2**-(j+s) = 2**-j
            return self.x._raw(j + s)
        # x read at 0 is within 1, so 2**s raw(0) is within
        # 2**s <= 2**-(j+1); rounding it to the 2**-(j+2) grid adds
        # 2**-(j+3): 2**-(j+1) + 2**-(j+3) < 2**-j
        return grid_round(self.x._raw(0), 2 - s, j + 2)


class _Mul(CReal):
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        super().__init__()
        self.x, self.y = x, y

    def _compute(self, j: int) -> int:
        # magnitude bounds from coarse approximations drive the operand
        # precisions:  |x| <= |approx(x,0)| + 1 <= 2**ax
        x, y = self.x, self.y
        ax = _log2_bound(x._grid(0))
        if x is y:
            # a square reads its operand once, at j + 3 + ax, and so
            # hits its own memo: with d = 2**-(j+3+ax),
            #   |x**2 - v**2| = |x - v| |x + v| <= d (2**(ax+1) + d)
            #                 = 2**-(j+2) + d**2,
            # and the rounding adds 2**-(j+2), within 2**-j in all.
            # One bit of the read is spare: at j + 2 + ax the total is
            # (3/4) 2**-j + d**2, so no leaf can show that read short
            v = x._raw(j + 3 + ax)
            return grid_round(v * v, 2 * (j + 5 + ax), j + 1) << 1
        ay = _log2_bound(y._grid(0))
        # the operands' scales are 2**-(j+4+ay) and 2**-(j+5+ax):
        #   |xy - uv| <= |x| |y - v| + |v| |x - u|
        #             <= 2**-(j+3) + (2**ay + 2**-(j+3+ax)) 2**-(j+2+ay)
        #             = 2**-(j+3) + 2**-(j+2) + e,  e <= 2**-(j+5),
        # and the rounding adds 2**-(j+2): (5/8) 2**-j + e.  The first
        # read has a spare bit: at j + 1 + ay the total is
        # (7/8) 2**-j + 2e < 2**-j, so no leaf can show it short
        return grid_round(x._raw(j + 2 + ay) * y._raw(j + 3 + ax),
                          2 * j + 9 + ax + ay, j + 1) << 1


@dataclass(frozen=True, slots=True)
class ApartnessCertificate:
    """Witness that a real is boundedly away from zero.

    witness_precision is a k with |approx(x, k)| > 2 * 2**-k, which
    implies |x| > 2**-k and fixes the sign.  The certificate pins down
    nothing else; in particular it carries no upper bound.
    """

    witness_precision: int
    sign: int

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise ValueError("certificate sign must be -1 or +1")
        if not isinstance(self.witness_precision, int) or \
                self.witness_precision < 0:
            raise ValueError("witness precision must be a nonnegative int")

    def revalidate(self, x: CReal) -> bool:
        """Recheck the witness against x by one approximation call."""
        k = self.witness_precision
        # |approx(k)| > 2 * 2**-k is |n| > 4 for approx(k) = n 2**-(k+1)
        n = _scaled(x.approx(k), k)
        return (n > 4 and self.sign > 0) or (n < -4 and self.sign < 0)

    def lower_bound(self) -> BigDyadic:
        """|x| exceeds this bound whenever the certificate is valid."""
        return power_of_two(-self.witness_precision)


class _Recip(CReal):
    __slots__ = ("x", "cert")

    def __init__(self, x, cert: ApartnessCertificate):
        super().__init__()
        if not cert.revalidate(x):
            raise InvalidCertificate(
                f"apartness certificate (k={cert.witness_precision}, "
                f"sign={cert.sign:+d}) does not hold for this real")
        self.x, self.cert = x, cert

    def _compute(self, j: int) -> int:
        c = self.cert.witness_precision
        # |x| > 2**-c, so at operand precision p the relative setup gives
        # |1/x - 1/xv| <= 2**(2c - p + 1); p = j + 2c + 3 puts that at
        # 2**-(j+2), and the nearest point of the 2**-(j+2) grid to
        # 1/xv = 2**(j+2c+5) / n adds 2**-(j+3): (3/8) 2**-j.  One bit
        # of p is spare: at j + 2c + 2 the total is (5/8) 2**-j, so no
        # leaf can show that read short
        n = self.x._raw(j + 2 * c + 3)
        assert n != 0
        q = div_nearest(1 << (2 * j + 2 * c + 7), abs(n))
        return q if n > 0 else -q


def recip(x: CReal, cert: ApartnessCertificate) -> CReal:
    """1/x, justified by an apartness certificate (revalidated here)."""
    return _Recip(x, cert)


def div(x, y: CReal, cert: ApartnessCertificate) -> CReal:
    """x/y as x * recip(y); cert must certify y apart from zero."""
    return _Mul(_coerce(x), _Recip(y, cert))


def scale2(x: CReal, s: int) -> CReal:
    """x * 2**s, exactly."""
    return _Scale2(x, s)


class _Lim(CReal):
    __slots__ = ("seq", "modulus")

    def __init__(self, seq, modulus):
        super().__init__()
        self.seq, self.modulus = seq, modulus

    def _compute(self, j: int) -> int:
        n = self.modulus(j + 1)
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"modulus returned {n!r}, want an int >= 0")
        u = self.seq(n)
        if not isinstance(u, CReal):
            raise TypeError("sequence must produce CReal values")
        # |L - seq(n)| <= 2**-(j+1) by the modulus contract, plus the
        # error of seq(n)'s raw(j+1), 2**-(j+1); that raw value is
        # v 2**-(j+3), the same point at scale 2**-(j+2) when v is even
        v = u._raw(j + 1)
        if v & 1 == 0:
            return v >> 1
        # off that grid (an element that is a reciprocal, say): its
        # approx(j+1), on the 2**-(j+2) grid and within 2**-(j+1) too
        return u._grid(j + 1)


def lim(seq: Callable[[int], CReal], modulus: Callable[[int], int]) -> CReal:
    """Limit of a sequence with an explicit convergence modulus.

    Contract: |seq(m) - L| <= 2**-k for every m >= modulus(k).  Both
    callables must be pure; they are invoked lazily and their results
    enter the per-node cache.
    """
    return _Lim(seq, modulus)


class _Series(CReal):
    # _prefix = (count, m, e): m * 2**e is the exact sum of terms
    # 0 .. count-1, all of them exact dyadics, kept as a bare canonical
    # integer pair.  Each term, and each CReal term's raw value after
    # the prefix, is added by one integer alignment (dyadic.add_aligned),
    # and the sum is rounded once, by grid_round.  Any stored prefix is
    # exact, so one that a racing thread stores instead changes no
    # result.
    __slots__ = ("terms", "tail_bound", "_prefix")

    def __init__(self, terms, tail_bound):
        super().__init__()
        self.terms, self.tail_bound = terms, tail_bound
        self._prefix = (0, 0, 0)

    def _compute(self, j: int) -> int:
        n = self.tail_bound(j + 1)
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"tail_bound returned {n!r}, want an int >= 0")
        if n == 0:
            return 0
        # split the 2**-j budget: 2**-(j+1) tail, 2**-(j+2) across the
        # CReal terms read at q (exact terms add no error), 2**-(j+2)
        # for the final rounding
        q = j + 2 + (n - 1).bit_length()
        start, m, e = self._prefix
        if start > n:
            start, m, e = 0, 0, 0
        prefix = None
        for i in range(start, n):
            t = self.terms(i)
            if not isinstance(t, BigDyadic):
                if not isinstance(t, CReal):
                    raise TypeError("terms must produce CReal or BigDyadic "
                                    "values")
                if prefix is None:
                    prefix = (i, m, e)
                m, e = add_aligned(m, e, t._raw(q), -(q + 2))
            else:
                m, e = add_aligned(m, e, t.mantissa, t.exponent)
        if prefix is None:
            prefix = (n, m, e)
        if prefix[0] > self._prefix[0]:
            self._prefix = prefix
        if e > 0:
            m, e = m << e, 0
        elif -e - j - 1 > _ALIGN_LIMIT:
            raise ExponentOverflow(f"rounding span {-e - j - 1} too large")
        return grid_round(m, -e, j + 1) << 1


def series_sum(terms: Callable[[int], CReal | BigDyadic],
               tail_bound: Callable[[int], int]) -> CReal:
    """Sum of a series with an explicit tail bound.

    Contract: |sum_{n >= tail_bound(k)} terms(n)| <= 2**-k.  The partial
    sum is evaluated to tail_bound(k+1) terms.  A term is a CReal, read
    at a per-term precision that covers the term count, or an exact
    BigDyadic, added without rounding.  The node keeps the exact sum of
    its leading exact terms as an integer mantissa and exponent and
    extends it, so each of those is computed once; every term is added
    to that integer pair by alignment, and the partial sum is rounded
    once, to the 2**-(k+1) grid for a raw request at k.  Both callables
    must be pure.
    """
    return _Series(terms, tail_bound)


# -- apartness search and comparison -------------------------------------

def deepening_schedule(start_k: int, max_k: int):
    """Yields start_k, then roughly doubles, always ending exactly at
    max_k so the last probe runs at full budget."""
    if not (0 <= start_k <= max_k):
        raise ValueError("need 0 <= start_k <= max_k")
    k = start_k
    yield k
    while k < max_k:
        k = min(max(k + 1, 2 * k), max_k)
        yield k


def find_apart(x: CReal, start_k: int = 1, max_k: int = 60):
    """Search for an apartness-from-zero certificate for x.

    Returns an ApartnessCertificate, or None when every probe up to
    max_k was inconclusive.  None is NOT a proof that x == 0; it only
    means |x| <= 2 * 2**-max_k could not be excluded within the budget.
    """
    for k in deepening_schedule(start_k, max_k):
        # |approx(k)| > 2 * 2**-k is |n| > 4 for approx(k) = n 2**-(k+1)
        n = _scaled(x.approx(k), k)
        if n > 4:
            return ApartnessCertificate(k, 1)
        if n < -4:
            return ApartnessCertificate(k, -1)
    return None


@dataclass(frozen=True, slots=True)
class TraceStep:
    """One probe of a comparison: both enclosures at one precision."""

    precision: int
    lhs: Interval
    rhs: Interval
    backend: str = "approx"


@dataclass(frozen=True, slots=True)
class Proved:
    """The strict inequality holds; the enclosures separate.

    For relation '<' the certificate property is
    lhs_enclosure.hi < rhs_enclosure.lo (exact dyadic comparison); for
    '>' it is lhs_enclosure.lo > rhs_enclosure.hi.
    """

    precision: int
    lhs_enclosure: Interval
    rhs_enclosure: Interval
    trace: tuple
    relation: str = "<"

    def __str__(self):
        return f"Proved at precision 2^-{self.precision}"


@dataclass(frozen=True, slots=True)
class Refuted:
    """The reverse strict inequality holds (so the query is false)."""

    precision: int
    lhs_enclosure: Interval
    rhs_enclosure: Interval
    trace: tuple
    relation: str = "<"

    def __str__(self):
        return f"Refuted at precision 2^-{self.precision}"


@dataclass(frozen=True, slots=True)
class Exhausted:
    """No decision within the precision budget.

    Not a verdict: the sides may be equal (in which case no budget would
    ever decide) or merely closer than 2**-max_precision.
    """

    max_precision: int
    trace: tuple
    relation: str = "<"

    def __str__(self):
        return f"Exhausted at precision 2^-{self.max_precision}"


ProofOutcome = Proved | Refuted | Exhausted


def _enclosure(x: CReal, k: int) -> Interval:
    """[approx(x, k) - 2**-k, approx(x, k) + 2**-k]."""
    n = _scaled(x.approx(k), k)
    return Interval(dyadic(n - 2, -(k + 1)), dyadic(n + 2, -(k + 1)))


def _deepen(enclose, relation: str, backend: str,
            start_k: int, max_k: int) -> ProofOutcome:
    """Semi-decide lhs < rhs, or lhs > rhs, by deepening enclosures.

    enclose(k) returns the pair (lhs, rhs) of enclosures at precision
    k, or None when it cannot enclose at k; k is then skipped.  The
    outcome and its trace are in the query's orientation, with every
    step tagged with the backend's name.
    """
    trace = []
    for k in deepening_schedule(start_k, max_k):
        pair = enclose(k)
        if pair is None:
            continue
        lhs, rhs = pair
        trace.append(TraceStep(k, lhs, rhs, backend))
        below, above = (lhs, rhs) if relation == "<" else (rhs, lhs)
        if below.hi < above.lo:
            return Proved(k, lhs, rhs, tuple(trace), relation)
        if above.hi < below.lo:
            return Refuted(k, lhs, rhs, tuple(trace), relation)
    return Exhausted(max_k, tuple(trace), relation)


def cmp_semidecide(x: CReal, y: CReal, start_k: int = 1,
                   max_k: int = 4096, relation: str = "<") -> ProofOutcome:
    """Semi-decide the strict inequality x < y, or x > y.

    Probes both numbers along the deepening schedule; at each precision
    the enclosures [approx +- 2**-k] either separate (Proved/Refuted
    with the separating enclosures as a re-checkable certificate) or
    overlap, in which case precision deepens.  Equal numbers always end
    Exhausted; that outcome proves nothing.
    """
    return _deepen(lambda k: (_enclosure(x, k), _enclosure(y, k)),
                   relation, "approx", start_k, max_k)


def archimedean_bound(x: CReal) -> int:
    """An integer n with x < n <= x + 9/4, from one coarse probe.

    n = floor(approx(x, 2)) + 2: with q = approx(x, 2) and |x - q| <=
    1/4 this gives x <= q + 1/4 < floor(q) + 2 = n and
    n <= q + 2 <= x + 9/4.
    """
    return x.approx(2).floor() + 2
