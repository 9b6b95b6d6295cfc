"""The kernels layer shared by both evaluation backends.

Every transcendental in the package reaches its error bound through one
step: pick a term cap and a working width, run a fixed-point series
kernel, and read the result back as a dyadic; or, for an exact
rational argument, sum the series exactly by binary splitting and
round once.  This module is that step, written once, together with
the argument reductions of exp, sin, cos and ln.  The approximation
backend (functions.py) and the interval backend (intervals.py) both
call it; each keeps its own rounding and its own enclosures.

Kernels
-------
``exp_series``, ``sin_series``, ``cos_series`` and ``ln1p_series``
are the inner loops.  All arguments and results are plain integers
denoting values scaled by 2**w ("ulp" below means 2**-w).  Each kernel
runs at most ``cap`` iterations and may stop earlier, once the running
term has decayed to at most one ulp.  Let m be the number of
iterations actually executed.  The returned integer S satisfies

    |S * 2**-w  -  f(args)|  <=  (8*m + 16) * 2**-w  +  T

where T is the exact tail of the series after ``cap`` terms (zero if
the kernel stopped on term decay, in which case the remaining tail is
already inside the ulp blanket).

Argument ranges are preconditions, not checked here: exp needs
|r| <= 5/8, sin and cos need |r| <= 9/8, and ln1p needs |t| <= 5/8.
The range bounds make every term ratio at most ~2/3, which is what
justifies stopping on term decay.

Wrappers
--------
``exp_within``, ``sin_within``, ``cos_within`` and ``ln1p_within``
take a dyadic argument in the kernel's range and a target t, and
return a dyadic within 2**-t of the function value.  The cap makes the
analytic tail at most 2**-(t+1); the width w = t + 2 +
bitlen(8*cap + 16) puts the blanket and the half-ulp rounding of the
argument below 2**-(t+1) as well.

Reductions
----------
``exp_reduced``, ``sincos_reduced`` and ``ln_reduced`` return exp(x),
sin(x), cos(x) or ln(x) within 2**-t for any real x the caller can
read to any precision.  ``arg(s)`` returns x within 2**-s (the
interval backend passes an exact dyadic, so its argument error is
zero), and ``rnd(v, s)`` rounds v to the 2**-s grid, within
2**-(s+1).  The approximation backend passes ``creal.grid_round``, its
one rounding chokepoint, and the interval backend ``dyadic.round_to``.

exp halves x m times into the kernel's range, runs the series at a
working width ts, and squares m times, rounding each square to the
2**-ts grid.  With |x| <= 2**a, m = max(0, a + 1) + extra halvings
puts x / 2**m in [-1/2, 1/2].  With hi an integer >= x,
exp(x) <= 2**(1.5 hi) <= 2**eb, eb = max(0, (3 hi + 1) // 2), and
amp = m + eb + 1, ts = t + 3 + amp.

- Argument: x is read at ts, so r = arg(ts) / 2**m lies within
  2**-(ts+m) of x / 2**m, and |exp'| <= 2 there: at most 2**-(ts+m-1).
- Series: at most 2**-ts.  With the argument term, the reduced value
  v_0 is within 2**-(ts-2) of exp(x / 2**m).
- Squarings: an error e in v_i becomes at most
  e (|v_i| + exp(x / 2**(m-i))) in v_(i+1), plus half an ulp of
  rounding.  The factors 2 exp(x / 2**(m-i)) telescope to
  2**m exp(x (1 - 2**-m)) <= 2**(m+eb), so with the slack of the
  extra bit the series and argument error grows to at most
  2**amp 2**-(ts-2), and the m roundings, amplified alike, add under
  2**amp 2**-ts.  Total: 2**-(t+1) + 2**-(t+3) < 2**-t.

sin and cos divide x by 3**m, with 3**m0 the least power of 3 at or
above the caller's bound on |x| and m = m0 + extra triplings, run the
series at width ts, and undo the division with the triple-angle maps
3v - 4v**3 and 4v**3 - 3v, clamping to [-1, 1] and rounding to the
2**-ts grid after each.  amp = 4 m + 1 and ts = t + 3 + amp.

- Argument: x is read at ts, and the quotient rounded to the
  2**-(ts+2) grid, so r lies within 2**-ts (1/3**m + 1/8) of x / 3**m
  (within 2**-ts when m = 0, where r is the argument itself); sin and
  cos are 1-Lipschitz, so at most 2**-ts.
- Series: at most 2**-ts; v_0 is within 2**-(ts-1) of the reduced
  value.
- Untriplings: the secant slope of either map between two points of
  [-1, 1] is at most 9 in size, which is under the 2**4 charged per
  step, and clamping moves toward the true value.  Each rounding adds
  half an ulp.  The total after m steps is below
  2**(4m) (2**-(ts-1) + 2**-ts) < 2**(amp+1-ts) = 2**-(t+2).

ln needs x > 2**-c.  It takes e from ``ln_window`` on x0 = arg(c + 6),
so x0 / 2**e lies in (2/3, 4/3], and as |x - x0| < x / 64,
u = x / 2**e lies in (0.656, 1.355).  It takes s square roots at
width w = t + s + 6 (ulp 2**-w) and sums the ln1p series on the last;
ln u = 2**s ln u**(2**-s).  It rounds nothing to a grid, so it takes
no ``rnd``: the roots are integer floors, and the caller rounds.

- Read: U_0, the nearest integer to u 2**w from arg(w + max(0, -e)),
  is within 1.5 ulps of u 2**w.
- Square roots: U_(i+1) = isqrt(U_i 2**w).  Every value stays above
  0.6, where sqrt carries an error in at most 0.65 times its size, and
  the floor adds at most one ulp, so the error stays under 3 ulps.
- Series: ln1p of U_s 2**-w - 1 (at most 0.41 in size) at t + s + 3,
  within 2**-(t+s+3); ln has slope under 2 there, so the 3 ulps add
  under 2**-(t+s+3) more.  Times 2**s: within 2**-(t+2).
- e ln 2: ln2 is read at t + 2 + bitlen(e), so |e| times its error is
  under 2**-(t+2).  Total: 2**-(t+1).

Depth.  The range alone needs only a few steps, but at high precision
more pay off (Brent & Zimmermann, *Modern Computer Arithmetic*
§4.3-4.4): one more step costs one or two full-width products and
shrinks the kernel argument by a constant factor, so the kernel stops
on term decay after fewer terms; the two balance near sqrt(t) steps.
``extra_halvings(t)`` and ``extra_triplings(t)`` give the steps added
beyond those the range needs, about sqrt(t) and sqrt(t) / 4.  Both are
0 up to 256 bits (triplings up to 1295), where an extra step costs
more in interpreter overhead than the terms it saves.  Timed on
full-width arguments near 3 (CPython 3.11, one core of a shared 2-CPU
machine), deeper exp reduction breaks even near 500 bits and is 1.5x
faster at 1000 bits, 3.1x at 4000 and 5.8x at 13000; sin and cos break
even near 1500 bits and are 1.2x faster at 2000, 1.5x at 4000 and
2.6x at 13000.  Each budget above charges per step (one bit per
halving, four per tripling), so it holds for any depth at or above the
range's.  ``extra_sqrts(t)``, about sqrt(t) / 4 and 0 below 400 bits,
is ln's depth: each root halves ln u, so the series needs fewer terms;
ln(pi) at 33000 bits takes 0.6 s with it and 6.7 s without.

Binary splitting
----------------
``atan_split(p, q, t, hyperbolic)`` returns arctan(u), or artanh(u),
within 2**-t for an exact rational u = p/q with q > 0 and |u| <= 1/2,
from

    u * sum over n >= 0 of (-+ u**2)**n / (2n + 1)

(Haible & Papanikolaou, "Fast multiprecision evaluation of series of
rational numbers", 1998; Brent & Zimmermann, *Modern Computer
Arithmetic* §4.9).  ``_split`` writes the first n terms as one
fraction T / (B Q) of exact integers, built by halving the index
range and combining the halves' products, so the large products are
few and of balanced size.  Nothing is rounded before the end.

- Term count.  After n terms the tail is at most |u|**(2n+1) / (2n+1)
  for atan (alternating, with decreasing terms) and at most that over
  1 - u**2 for artanh (geometric majorant).  ``_cap_split`` is the
  least n with

      |p|**(2n+1) q**2 2**(t+1)  <=  q**(2n+1) (2n+1) (q**2 - h p**2),

  h = 0 for atan and 1 for artanh: the tail bound, at most 2**-(t+1),
  with denominators cleared.  The left side shrinks against the right
  as n grows, so ``_least`` finds it.
- One rounding.  The result is the nearest multiple of 2**-(t+1) to
  p T / (q B Q): at most 2**-(t+2) off.
- Error total: 2**-(t+1) + 2**-(t+2) < 2**-t.

``pi_within(t)`` is 16 atan(1/5) - 4 atan(1/239) with the two terms at
t+5 and t+3 (16 * 2**-(t+5) + 4 * 2**-(t+3) = 2**-t; scaling and
subtracting dyadics is exact), and ``ln2_within(t)`` is 2 atanh(1/3)
with the term at t+1.  ``ln_window(a, b)`` writes a rational a/b > 0
as 2**e (q+p)/(q-p) with p/q in (-1/5, 1/7], so that
ln(a/b) = e ln 2 + 2 atanh(p/q); the approximation backend takes that
path for a literal argument of ln when ``split_pays`` says so.

Splitting pays only for a short denominator.  The artanh series needs
about t / (2 log2 |q/p|) terms, and each term adds about 2 log2 q bits
to Q, so the final products and the division are about
t bits(q) / log2 |q/p| bits wide, where the fixed-point ``ln1p``
kernel runs one t-bit product per term.  ``split_pays(q, t)`` is
2 bits(q)**2 <= t, fitted to where the two routes cross.  Measured
(CPython 3.11, one core of a shared 2-CPU machine) on ln of four
seeded literals per size, as the time of atanh by ``atan_split`` over
that of the ``ln1p`` route, min-max; ``*`` where the predicate picks
splitting for all four literals, ``+`` for some:

    digits  bits(q)  t = 500    1000       2000       4000       8000
     4      13-15    0.38-0.67* 0.33-0.52* 0.15-0.29* 0.08-0.16* 0.04-0.09*
     8      21-28    0.78-1.10  0.66-1.02+ 0.42-0.62* 0.17-0.31* 0.12-0.25*
    12      36-40    1.40-1.67  1.31-1.77  0.91-1.06  0.45-0.72* 0.22-0.66*
    17      55-56    2.5-4.6    1.6-3.7    1.4-2.2    0.79-1.27  0.55-1.47*
    24      78-81    3.5-6.3    4.5-6.1    2.7-4.4    1.1-1.9    0.75-1.13
    36      118-120  8.1-13     8.1-13     5.6-7.5    2.9-3.6    1.5-1.9
    100     329-333  20-71      36-109     24-39      11-19      7.5-12

At t = 13000 the rows read 0.03-0.08*, 0.10-0.19*, 0.16-0.42*,
0.25-1.18*, 0.55-0.72+, 0.79-1.35 and 4.9-6.6.  The table predates
the square roots of ``ln_reduced``, which made the series route
faster: against it, splitting takes 1.6-5.9 times as long on three
17-digit literals at t = 8000, where the predicate picks it.

Constant ladder
---------------
pi and ln 2 are process-wide shared nodes (functions._Ladder), and a
stream of queries asks them for a fresh precision each time.  Their
raw value at j is

    raw(j) = grid_round(within(J + 1), j + 1),    J = ladder_rung(j),

where ``ladder_rung`` rounds j up to its three leading bits, so
j <= J < 1.25 j (J = j below 8), and ``within`` is ``pi_within`` or
``ln2_within``.  within(J + 1) is computed once per rung and kept;
every other precision up to that rung is a grid rounding of it.

- Error: 2**-(J+1) + 2**-(j+2) <= (3/4) 2**-j, inside the raw
  contract of 2**-j.
- Determinism: J is a function of j alone, and within and grid_round
  are deterministic, so raw(j) is a function of j alone, and
  approx(k) = grid_round(raw(k+2), k+1) one of k alone.  Neither
  depends on which precisions were asked before, in what order, or by
  how many threads; two threads racing on one rung store the
  identical value.
- Cost: a one-shot query computes its constant at under 1.25 times
  the precision it asked for.
"""

from functools import lru_cache
from math import factorial, gcd, isqrt

from .dyadic import (BigDyadic, ZERO, clamp_unit, div_nearest, dyadic,
                     shift_nearest)
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
# (9/8)**2/((2n+1)(2n+2)) for cos, (5/8)(n+1)/(n+2) for ln1p and
# u**2 (2n+1)/(2n+3) for binary splitting.  So each inequality, once
# true, stays true, and _least finds the first n where it holds by
# doubling and bisection: O(log n) exact checks of one big product each.

# Each cap is a pure function of t, and the deepening loops ask for the
# same few hundred widths over and over; the memo is bounded, so a
# sweep over many widths only recomputes.
_CAP_MEMO = 1024


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


@lru_cache(maxsize=_CAP_MEMO)
def _cap_exp(t: int) -> int:
    # remainder after n terms at |r| <= 5/8 is < 2 * (5/8)**n / n!
    return _least(lambda n: 5 ** n << (t + 2) <= factorial(n) << 3 * n)


@lru_cache(maxsize=_CAP_MEMO)
def _cap_sin(t: int) -> int:
    # first omitted term at |r| <= 9/8 is (9/8)**(2n+1) / (2n+1)!
    return _least(lambda n: 9 ** (2 * n + 1) << (t + 1)
                  <= factorial(2 * n + 1) << 3 * (2 * n + 1))


@lru_cache(maxsize=_CAP_MEMO)
def _cap_cos(t: int) -> int:
    # first omitted term at |r| <= 9/8 is (9/8)**(2n) / (2n)!
    return _least(lambda n: 9 ** (2 * n) << (t + 1)
                  <= factorial(2 * n) << 6 * n)


@lru_cache(maxsize=_CAP_MEMO)
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


def ln1p_within(v: BigDyadic, t: int) -> BigDyadic:
    """ln(1 + v) within 2**-t, for |v| <= 5/8."""
    cap = _cap_ln1p(t)
    w = _width(t, cap)
    return dyadic(ln1p_series(_to_scaled(v, w), w, cap), -w)


# -- reductions: any argument in, value within 2**-t out ------------------

def extra_halvings(t: int) -> int:
    """Halvings of an exp argument beyond those its range needs, at target t."""
    return max(0, isqrt(t) - 16)


def extra_triplings(t: int) -> int:
    """Divisions of a sin or cos argument by 3 beyond those its range
    needs, at target t."""
    return max(0, isqrt(t) // 4 - 8)


def extra_sqrts(t: int) -> int:
    """Square roots taken of an ln argument before the series, at target t."""
    return max(0, isqrt(t) // 4 - 4)


def exp_reduced(arg, hi: int, a: int, t: int, rnd) -> BigDyadic:
    """exp(x) within 2**-t, for x with |x| <= 2**a and x <= hi.

    ``arg(s)`` returns x within 2**-s and ``rnd(v, s)`` rounds v to the
    2**-s grid (see "Reductions" above).
    """
    eb = max(0, (3 * hi + 1) // 2)
    m = max(0, a + 1) + extra_halvings(t)
    amp = m + eb + 1
    ts = budget(t + 3 + amp)
    v = exp_within(arg(ts).scale2(-m), ts)
    for _ in range(m):
        v = rnd(v * v, ts)
    return v


def sincos_reduced(arg, bound: BigDyadic, t: int, want_sin: bool,
                   rnd) -> BigDyadic:
    """sin(x), or cos(x), within 2**-t, for x with |x| <= bound.

    ``arg`` and ``rnd`` are as for exp_reduced.
    """
    m, p3 = 0, 1
    while bound > dyadic(p3):
        m += 1
        p3 *= 3
    extra = extra_triplings(t)
    m += extra
    p3 *= 3 ** extra
    amp = 4 * m + 1
    ts = budget(t + 3 + amp)
    r = arg(ts)
    if m:
        # nearest quotient on the 2**-(ts+2) grid
        mm, ee = r.mantissa, r.exponent
        g = ts + 2
        shift = ee + g
        if shift >= 0:
            r = dyadic(div_nearest(mm << shift, p3), -g)
        else:
            r = dyadic(div_nearest(mm, p3 << -shift), -g)
    v = sin_within(r, ts) if want_sin else cos_within(r, ts)
    for _ in range(m):
        v = clamp_unit(v)
        v3 = v * v * v
        if want_sin:
            v = rnd(v.mul_int(3) - v3.mul_int(4), ts)
        else:
            v = rnd(v3.mul_int(4) - v.mul_int(3), ts)
    return clamp_unit(v)


def ln_reduced(arg, c: int, t: int, ln2) -> BigDyadic:
    """ln(x) within 2**-t, for x > 2**-c.

    ``arg`` is as for exp_reduced, and ``ln2(s)`` returns ln 2 within
    2**-s (see "Reductions" above).
    """
    x0 = arg(c + 6)
    m, ex = x0.mantissa, x0.exponent
    e = ln_window(m << max(0, ex), 1 << max(0, -ex))[0]
    s = extra_sqrts(t)
    w = budget(t + s + 6)
    u = _to_scaled(arg(budget(w + max(0, -e))).scale2(-e), w)
    for _ in range(s):
        u = isqrt(u << w)
    v = ln1p_within(dyadic(u - (1 << w), -w), t + s + 3).scale2(s)
    if e:
        v = v + ln2(budget(t + 2 + abs(e).bit_length())).mul_int(e)
    return v


# -- binary splitting -----------------------------------------------------

# Below this many terms a range of the series is summed by a plain loop:
# recursing further costs more in calls than it saves in product sizes.
_SPLIT_LEAF = 8


def _split(n1: int, n2: int, y: int, z: int):
    """(P, Q, B, T) for the terms n1 <= n < n2 of sum (y/z)**n / (2n+1).

    Term n is r(1) ... r(n) / (2n+1) with ratios r(i) = y/z (r(0) = 1).
    P and Q are the products of the ratios' numerators and denominators
    over the range, B the product of the 2n+1, and T = B Q S, where S
    is the range's sum over r(1) ... r(n1-1).  All are exact integers;
    the halves [n1, m) and [m, n2) combine as P1 P2, Q1 Q2, B1 B2 and
    B2 Q2 T1 + B1 P1 T2.
    """
    if n2 - n1 <= _SPLIT_LEAF:
        pp = qq = bb = 1
        tt = 0
        for n in range(n1, n2):
            if n:
                tt = tt * (2 * n + 1) * z + bb * pp * y
                pp *= y
                qq *= z
                bb *= 2 * n + 1
            else:
                tt = 1
        return pp, qq, bb, tt
    m = (n1 + n2) // 2
    p1, q1, b1, t1 = _split(n1, m, y, z)
    p2, q2, b2, t2 = _split(m, n2, y, z)
    return p1 * p2, q1 * q2, b1 * b2, b2 * q2 * t1 + b1 * p1 * t2


def _cap_split(t: int, p: int, q: int, hyperbolic: bool) -> int:
    # least n with tail <= 2**-(t+1): |u|**(2n+1) / (2n+1), times
    # q**2 / (q**2 - p**2) for atanh, u = p/q
    pa = abs(p)
    h = pa * pa if hyperbolic else 0
    return _least(lambda n: pa ** (2 * n + 1) * q * q << (t + 1)
                  <= q ** (2 * n + 1) * (2 * n + 1) * (q * q - h))


def atan_split(p: int, q: int, t: int, hyperbolic: bool = False) -> BigDyadic:
    """arctan(p/q), or artanh(p/q) if hyperbolic, within 2**-t, for q > 0
    and |p/q| <= 1/2, by binary splitting."""
    w = budget(t + 1)
    n = _cap_split(t, p, q, hyperbolic)
    if n == 0:
        return ZERO
    _, qq, bb, tt = _split(0, n, p * p if hyperbolic else -p * p, q * q)
    return dyadic(div_nearest(p * tt << w, q * bb * qq), -w)


def pi_within(t: int) -> BigDyadic:
    """pi = 16 atan(1/5) - 4 atan(1/239) within 2**-t."""
    return (atan_split(1, 5, t + 5).scale2(4)
            - atan_split(1, 239, t + 3).scale2(2))


def ln2_within(t: int) -> BigDyadic:
    """ln 2 = 2 atanh(1/3) within 2**-t."""
    return atan_split(1, 3, t + 1, hyperbolic=True).scale2(1)


def ln_window(a: int, b: int):
    """(e, p, q) with a/b = 2**e * (q + p)/(q - p), for a, b > 0.

    (q + p)/(q - p) lies in (2/3, 4/3], so p/q, in lowest terms with
    q > 0, lies in (-1/5, 1/7] and ln(a/b) = e ln 2 + 2 atanh(p/q).
    """
    # least e with 3a/4 <= 2**e b; then 2**(e-1) b < 3a/4 as well
    e = (3 * a).bit_length() - (4 * b).bit_length()
    while 3 * a << max(0, -e) > 4 * b << max(0, e):
        e += 1
    while 3 * a << max(0, 1 - e) <= 4 * b << max(0, e - 1):
        e -= 1
    c, d = (a, b << e) if e >= 0 else (a << -e, b)
    p, q = c - d, c + d
    g = gcd(p, q)
    return e, p // g, q // g


def split_pays(q: int, t: int) -> bool:
    """Whether atan_split beats the fixed-point series at target t for an
    argument with denominator q (see "Binary splitting" above)."""
    return 2 * q.bit_length() ** 2 <= t


def ladder_rung(j: int) -> int:
    """j rounded up to its three leading bits: j <= rung < 1.25 j."""
    s = max(0, j.bit_length() - 3)
    return -(-j >> s) << s
