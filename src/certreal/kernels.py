"""The kernels layer shared by both evaluation backends.

Every transcendental in the package reaches its error bound through one
step: pick a term cap and a working width, run a fixed-point series
kernel, and read the result back at that width; or, for an exact
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

The caps come from the tail bounds of "Binary splitting" below, which
grow with |x|: ``_cap_exp(t)`` is the term count of the exp series at
x = 5/8, and ``_cap_sin(t)`` and ``_cap_cos(t)`` those of the sin and
cos series at x = 9/8, so one written bound serves both kernel
families.  ``_cap_ln1p(t)``, for a series with no splitting instance,
is the least n >= 1 with (5/8)**n (8/3) / n <= 2**-(t+1).

``_fixed`` runs a kernel to a target t: the cap at t makes the
analytic tail at most 2**-(t+1), and the width
w = t + 2 + bitlen(8*cap + 16) puts the blanket and the half-ulp
rounding of the argument below 2**-(t+1) as well, so the result is
within 2**-t.

Reductions
----------
``exp_reduced``, ``sincos_reduced`` and ``ln_reduced`` return exp(x),
sin(x), cos(x) or ln(x) within 2**-t, for any real x the caller can
read to any precision.  Every value at this boundary and inside is a
bare integer n at a known scale a, meaning n * 2**-a, passed as the
pair (n, a).  ``arg(s)`` returns x within 2**-s as such a pair, one per
call: the approximation backend reads a raw value, (raw(s), s + 2),
and the interval backend passes an exact endpoint or midpoint, so its
argument error is zero.  Inside, the series' result is at its width,
then each square or triple-angle step at the working width ts.  The
result is a pair (v, s) with s >= t, so the caller rounds it once.
``rnd(n, a, s)`` rounds n * 2**-a to the nearest point of the 2**-s
grid, within 2**-(s+1), and returns that point as an integer at scale
2**-s.  The approximation backend passes ``creal.grid_round``, its one
rounding chokepoint, and the interval backend ``dyadic.round_scaled``;
both round to nearest with ties to even, so for the same argument the
two give the same bits.

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
above the caller's integer bound on |x| and m = m0 + extra triplings,
run the series at width ts, and undo the division with the
triple-angle maps 3v - 4v**3 and 4v**3 - 3v, clamping to [-1, 1]
before each and rounding to the 2**-ts grid after each.
amp = 4 m + 1 and ts = t + 3 + amp.

- Argument: x is read at ts, and the quotient rounded to the
  2**-(ts+2) grid, so r lies within 2**-ts (1/3**m + 1/8) of x / 3**m
  (within 2**-ts when m = 0, where r is the argument itself); sin and
  cos are 1-Lipschitz, so at most 2**-ts.
- Series: at most 2**-ts; v_0 is within 2**-(ts-1) of the reduced
  value.
- Pair: asked for both, the reduction reads x and divides it once as
  above, and runs the sine series once, at ts + 2 (ts >= 4), so S is
  within 2**-(ts+2) of sin r.  |r| <= 1 + 2**-ts < pi/2, so
  cos r = sqrt(1 - sin**2 r), and |sin r| < 0.874 and |S| < 0.89,
  where sqrt(1 - u**2) has slope under 2 in u (tan r < 1.56 as ts
  grows).  C = isqrt(2**(2s) - S**2), a floor at the series' width s,
  is then within 2**-(ts+1) + 2**-s of cos r.  With the argument's
  2**-ts, both start within 2**-(ts-1), as one value does, and each
  runs its own untriplings at ts: one series and one isqrt stand in
  for the second series.
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
For an exact rational argument the series is summed exactly and
rounded once (Haible & Papanikolaou, "Fast multiprecision evaluation
of series of rational numbers", 1998; Brent & Zimmermann, *Modern
Computer Arithmetic* §4.9).  Each instance is a ``_Series``,

    (u/v) * sum over n >= 0 of y**n / (qn(1) ... qn(n) b(n)),

and ``_split`` writes its first n terms as one fraction T / (B Q) of
exact integers, built by halving the index range and combining the
halves' products, so the large products are few and of balanced size.
Nothing is rounded before the end.  Every routine here returns its
value as the reductions do, a pair (v, s) of integers meaning
v * 2**-s; a split's s is t + 1.  With u = p/q (atan, artanh) or
x = p/q (exp, sin, cos), q > 0:

    instance  y      qn(n)             b(n)  u/v  tail after n terms
    atan      -p**2  q**2              2n+1  p/q  |u|**(2n+1) / (2n+1)
    artanh    p**2   q**2              2n+1  p/q  that over 1 - u**2
    exp       p      q n               1     1    2 |x|**n / n!
    sin       -p**2  q**2 (2n) (2n+1)  1     p/q  |x|**(2n+1) / (2n+1)!
    cos       -p**2  q**2 (2n-1) (2n)  1     1    x**(2n) / (2n)!

atan_split needs |u| <= 1/2.  The atan, sin and cos series alternate,
so once the terms shrink from n on (for sin (2n+2)(2n+3) q**2 >= p**2,
for cos (2n+1)(2n+2) q**2 >= p**2; always for atan) the tail is at
most its first term.  artanh has the geometric majorant of ratio u**2.
exp's later ratios |x| / (k+1) are at most 1/2 once n >= 2|x|, so its
tail is at most twice its first term from there on.

- Term count.  The count n is the least at which the tail bound, with
  denominators cleared, is at most 2**-(t+1): an exact integer
  inequality in n, y**n and qn(1) ... qn(n) (``_Series.tail``), which
  once true stays true.  The split over [0, n) has those very integers
  as its P and Q at n - 1, so ``_split_within`` sums up to one below a
  guess, checks the inequality on its own P and Q, and adds terms one
  at a time (each a product of a big and a small factor) until it
  holds; if it already held one below the guess, ``_count`` finds n
  by exact checks on closed forms such as q**n n!, and the sum starts
  over.  Either way n is the least count a linear scan finds.  The
  guess is Newton's method on Stirling's formula for exp, sin and cos
  (``_fact_guess``), and the root of (2n+1) log2|q/p| + log2(2n+1) =
  t + 1 (+ log2(q**2/(q**2-p**2)) for artanh) for atan, both in 16-bit
  fixed point; it decides only where the count starts, and no float
  enters it.
- One rounding.  The result is the nearest multiple of 2**-(t+1) to
  u T / (v B Q): at most 2**-(t+2) off.  ``dyadic.div_nearest_lead``
  takes that quotient from the operands cut to its length plus 64
  bits and fixes it with one exact remainder: the same integer as
  ``div_nearest``, and cheaper where B Q is much longer than t, as for
  atan (atan(1/5) at 66400 bits: 84-98 ms, against 107-119 ms with
  the full division).
- Error total: 2**-(t+1) + 2**-(t+2) < 2**-t.

``pi_within(t)`` is 16 atan(1/5) - 4 atan(1/239) with the two terms at
t+5 and t+3 (16 * 2**-(t+5) + 4 * 2**-(t+3) = 2**-t); 16 and 4 times
a pair take 4 and 2 off its scale, and subtracting the integers on the
finer of the two scales is exact (both are 2**-(t+2) today).
``ln2_within(t)`` is 2 atanh(1/3) with the term at t+1, the same
integer at one bit less of scale.  ``ln_window(a, b)`` writes a rational a/b > 0 as
2**e (q+p)/(q-p) with p/q in (-1/5, 1/7], so that
ln(a/b) = e ln 2 + 2 atanh(p/q).

Routes.  The approximation backend sums exp, sin and cos of a literal
(an exact rational, or its negation) by ``exp_split`` and
``sincos_split`` (tan: both of one literal) when
``literal_split_pays(x, t)`` says so, and ln of
one by the window's atanh when ``split_pays(q, t)`` does; otherwise it
takes the reductions above.  The interval backend always takes the
reductions, so for literal arguments the two backends run different
algorithms, and the conformance cross-check compares them.  Splitting
pays for a short argument: each term adds about bits(q) + log2 n bits
to Q (2 bits(q) for atanh), and exp, sin and cos need at least about
e|x| terms, where the reductions run about sqrt(t) products of t bits
whatever x is.  The predicates are fitted to where the routes cross:

    literal_split_pays(x, t):  640 + 2 bits(q)**2 + 48 ceil|x|  <=  t
    split_pays(q, t):          bits(q) <= 20  or  8 bits(q)**2 <= t

The |x| term keeps a huge literal on the reductions: exp(-100000.5)
would split only from about 4.8 million bits on and sin(10**9) from
48 billion, both past PRECISION_LIMIT.  Measured (CPython 3.11, one
core of a shared 2-CPU machine) as the time of the node's
``_compute(t)`` by splitting over that by the reduction, min-max,
``*`` where the predicate picks splitting for every literal of the
cell and ``+`` for some; the columns are t.  exp, sin and cos, each
of two seeded literals per row:

    literal            bits(q)  500         1000        2000        4000        8000
    x.xx, |x| <= 1          4  0.79-0.90   0.56-0.69*  0.27-0.46*  0.14-0.22*  0.06-0.12*
    x.xx, |x| <= 6        5-6  0.83-1.17   0.59-0.86*  0.35-0.55*  0.09-0.32*  0.10-0.16*
    integer <= 6            1  0.77-1.41   0.45-0.89*  0.22-0.48*  0.11-0.32*  0.06-0.18*
    x.xxxx              10-11  0.92-1.32   0.62-1.83*  0.41-0.71*  0.22-0.41*  0.14-0.22*
    x.xxxxxxx              20  1.20-1.29   0.80-1.21   0.55-1.14*  0.32-0.59*  0.20-0.29*
    x.xxxxxxxxxxx       38-40  1.49-2.04   1.33-1.80   1.05-1.44   0.58-0.86*  0.40-0.49*
    xx.xx, |x| ~ 30       6-7  1.47-2.38   1.12-1.97   0.72-1.20   0.44-0.74*  0.23-0.34*
    xxx.xx, |x| ~ 100     4-6  2.36-3.84   1.82-3.25   1.16-1.75   0.42-0.97   0.32-0.53*

ln of three seeded literals of each number of digits, with the bits
of their windows' q (q is the window's denominator; the earlier fit,
2 bits(q)**2 <= t, was measured against ln_reduced before its square
roots, which made the reduction 1.6-5.9 times faster than splitting at
17 digits and 8000 bits, where that fit picked splitting):

    digits bits(q)  64          250         1000        4000        16000
    3        4-11  0.67-0.85*  0.41-0.68*  0.34-0.45*  0.17-0.20*  0.03-0.10*
    4       12-15  0.64-0.86*  0.58-0.81*  0.31-0.77*  0.08-0.41*  0.04-0.22*
    6       15-19  0.51-0.70*  0.61-0.91*  0.54-0.73*  0.29-0.41*  0.14-0.20*
    8       24-27  0.82-0.90   0.78-1.06   0.52-1.37   0.31-0.97   0.13-0.65*
    12      40-41  0.84-1.12   0.98-1.34   1.18-1.80   0.66-1.51   0.34-0.82*
    17      55-57  0.92-0.97   1.35-1.42   2.40-2.95   1.73-2.25   0.93-1.17
    24      79-81  1.16-1.37   1.31-3.53   1.88-6.29   1.14-5.40   0.57-2.13

Constant ladder
---------------
pi and ln 2 are process-wide shared nodes (functions._Ladder), and a
stream of queries asks them for a fresh precision each time.  Their
raw value at j is within(J + 1) rounded to the 2**-(j+1) grid by
creal.grid_round (and held, as every raw value is, as an integer at
scale 2**-(j+2)),

    raw(j) = round(within(J + 1), 2**-(j+1)),    J = ladder_rung(j),

where ``ladder_rung`` rounds j up to its three leading bits, so
j <= J < 1.25 j (J = j below 8), and ``within`` is ``pi_within`` or
``ln2_within``.  within(J + 1) is computed once per rung and kept in
one process-wide memo, ``rung_value``; every other precision up to
that rung is a grid rounding of it.  The node keeps at most 256 of
those roundings (functions._LADDER_MEMO) and then starts over, so a
stream of fresh precisions does not grow the shared node's memory.
The interval backend reads the same rungs for pi and ln 2: at working
precision w it widens rung_value(within, w + 2), within
2**-(J+1) <= 2**-(w+3), by 2**-(w+2), and ln_reduced's ln2(s) is
rung_value(ln2_within, s), within 2**-(s+1).

- Error: 2**-(J+1) + 2**-(j+2) <= (3/4) 2**-j, inside the raw
  contract of 2**-j.
- Determinism: J is a function of j alone, and within and grid_round
  are deterministic, so raw(j) is a function of j alone, and approx(k),
  raw(k+2) rounded to the 2**-(k+1) grid, one of k alone.  Neither
  depends on which precisions were asked before, in what order, or by
  how many threads; two threads racing on one rung store the
  identical value.
- Cost: a one-shot query computes its constant at under 1.25 times
  the precision it asked for.
"""

from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple, Optional
from math import factorial, gcd, isqrt

from .dyadic import div_nearest, div_nearest_lead, round_scaled
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
# 5/8 and 9/8 are the kernels' range bounds, and every tail bound of
# "Binary splitting" grows with |x|, so the splitting series' term count
# there bounds the remainder over the whole range ("Kernels" above).

# Each cap is a pure function of t, and the deepening loops ask for the
# same few hundred widths over and over; the memo is bounded, so a
# sweep over many widths only recomputes.
_CAP_MEMO = 1024


def _least(done, guess: int = 0) -> int:
    """Least n >= 0 with done(n), for done false below some n, true above.

    The search gallops out from ``guess``, so a guess one above the
    answer costs two checks.
    """
    step = 1
    if done(guess):
        hi = guess
        lo = hi - step
        while lo >= 0 and done(lo):
            hi, step = lo, 2 * step
            lo = hi - step
        lo = max(lo, -1)    # done(-1) is taken as false
    else:
        lo = guess
        hi = lo + step
        while not done(hi):
            lo, step = hi, 2 * step
            hi = lo + step
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
    return _count(_exp(t, 5, 8))


@lru_cache(maxsize=_CAP_MEMO)
def _cap_sin(t: int) -> int:
    return _count(_sin(t, 9, 8))


@lru_cache(maxsize=_CAP_MEMO)
def _cap_cos(t: int) -> int:
    return _count(_cos(t, 9, 8))


@lru_cache(maxsize=_CAP_MEMO)
def _cap_ln1p(t: int) -> int:
    # remainder after n terms at |v| <= 5/8 is < (5/8)**(n+1) * 8/3 / (n+1),
    # which shrinks with n by the ratio (5/8)(n+1)/(n+2)
    return 1 + _least(lambda n: 5 ** (n + 1) << (t + 4)
                      <= 3 * (n + 1) << 3 * (n + 1))


def _fixed(series, cap_of, x: int, a: int, t: int) -> tuple[int, int]:
    """(S, w): S * 2**-w is the series' function at x * 2**-a within
    2**-t.  The cap is cap_of(t) and the width
    w = t + 2 + bitlen(8*cap + 16) ("Kernels" above); the argument is
    rounded to the nearest ulp."""
    cap = cap_of(t)
    w = budget(t + 2 + (8 * cap + 16).bit_length())
    return series(round_scaled(x, a, w), w, cap), w


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


def exp_reduced(arg, hi: int, a: int, t: int, rnd) -> tuple[int, int]:
    """exp(x) within 2**-t, as (v, s) meaning v * 2**-s, for x with
    |x| <= 2**a and x <= hi.

    ``arg(s)`` returns x within 2**-s as a pair (n, a) and
    ``rnd(n, a, s)`` rounds n * 2**-a to the 2**-s grid (see
    "Reductions" above).
    """
    eb = max(0, (3 * hi + 1) // 2)
    m = max(0, a + 1) + extra_halvings(t)
    amp = m + eb + 1
    ts = budget(t + 3 + amp)
    x, ax = arg(ts)
    # v * 2**-s: the series at x / 2**m, then each square on 2**-ts
    v, s = _fixed(exp_series, _cap_exp, x, ax + m, ts)
    for _ in range(m):
        v = rnd(v * v, 2 * s, ts)
        s = ts
    return v, s


def sincos_reduced(arg, bound: int, t: int, want_sin: Optional[bool],
                   rnd):
    """sin(x), or cos(x), within 2**-t, as (v, s) meaning v * 2**-s, for
    x with |x| <= bound, an int; with want_sin None, both, as
    ((sin, cos), s) from one reduction.

    ``arg`` and ``rnd`` are as for exp_reduced.
    """
    m, p3 = 0, 1
    while bound > p3:
        m += 1
        p3 *= 3
    extra = extra_triplings(t)
    m += extra
    p3 *= 3 ** extra
    amp = 4 * m + 1
    ts = budget(t + 3 + amp)
    x, a = arg(ts)
    if m:
        # nearest quotient on the 2**-(ts+2) grid
        g = ts + 2
        shift = g - a
        if shift >= 0:
            x = div_nearest(x << shift, p3)
        else:
            x = div_nearest(x, p3 << -shift)
        a = g
    if want_sin is None:
        # the pair: sin r two bits finer, and cos r = sqrt(1 - sin**2 r)
        # floored at the series' width
        v, s = _fixed(sin_series, _cap_sin, x, a, ts + 2)
        c = isqrt((1 << 2 * s) - v * v)
        vs, ss = _untriple(v, s, m, True, ts, rnd)
        return (vs, _untriple(c, s, m, False, ts, rnd)[0]), ss
    if want_sin:
        v, s = _fixed(sin_series, _cap_sin, x, a, ts)
    else:
        v, s = _fixed(cos_series, _cap_cos, x, a, ts)
    return _untriple(v, s, m, want_sin, ts, rnd)


def _untriple(v: int, s: int, m: int, want_sin: bool, ts: int,
              rnd) -> tuple[int, int]:
    """m triple-angle steps from sin or cos of x / 3**m, v * 2**-s, each
    rounded to the 2**-ts grid."""
    # v * 2**-s, clamped to [-1, 1] before each map and at the end
    for _ in range(m):
        v = max(-1 << s, min(v, 1 << s))
        v3 = v * v * v
        if want_sin:
            v = rnd((3 * v << 2 * s) - 4 * v3, 3 * s, ts)
        else:
            v = rnd(4 * v3 - (3 * v << 2 * s), 3 * s, ts)
        s = ts
    return max(-1 << s, min(v, 1 << s)), s


def ln_reduced(arg, c: int, t: int, ln2) -> tuple[int, int]:
    """ln(x) within 2**-t, as (v, s) meaning v * 2**-s, for x > 2**-c.

    ``arg`` is as for exp_reduced, and ``ln2(s)`` returns ln 2 within
    2**-s as a pair (n, a) too (see "Reductions" above).
    """
    m, ax = arg(c + 6)
    e = ln_window(m << max(0, -ax), 1 << max(0, ax))[0]
    s = extra_sqrts(t)
    w = budget(t + s + 6)
    x, ax = arg(budget(w + max(0, -e)))
    u = round_scaled(x, ax + e, w)
    for _ in range(s):
        u = isqrt(u << w)
    n, wl = _fixed(ln1p_series, _cap_ln1p, u - (1 << w), w, t + s + 3)
    # 2**s times the series' value: n at scale wl - s
    v, sv = n, wl - s
    if e:
        l2, a2 = ln2(budget(t + 2 + abs(e).bit_length()))
        if a2 > sv:
            v, sv = v << (a2 - sv), a2
        v += e * l2 << (sv - a2)
    return v, sv


# -- binary splitting -----------------------------------------------------

class _Series(NamedTuple):
    """(u/v) times the sum over n >= 0 of y**n / (qn(1) ... qn(n) bn(n)).

    bn is None for b(n) = 1; qprod(n) is qn(1) ... qn(n) in closed form;
    tail(n, y**n, qprod(n)) says whether the tail after n terms is at
    most 2**-(t+1), and holds for every n from some least one on; guess
    is about that least n.
    """

    y: int
    qn: Callable[[int], int]
    bn: Optional[Callable[[int], int]]
    u: int
    v: int
    qprod: Callable[[int], int]
    tail: Callable[[int, int, int], bool]
    guess: int


# Below this many terms a range of the series is summed by a plain loop:
# recursing further costs more in calls than it saves in product sizes.
_SPLIT_LEAF = 8


def _split(n1: int, n2: int, s: _Series):
    """(P, Q, B, T) for the terms n1 <= n < n2 of the series s.

    Term n is r(1) ... r(n) / b(n) with ratios r(n) = y / qn(n)
    (r(0) = 1).  P and Q are the products of the ratios' numerators and
    denominators over the range, B the product of the b(n), and
    T = B Q S, where S is the range's sum over r(1) ... r(n1-1).  All
    are exact integers; the halves [n1, m) and [m, n2) combine as P1 P2,
    Q1 Q2, B1 B2 and B2 Q2 T1 + B1 P1 T2.
    """
    if n2 - n1 <= _SPLIT_LEAF:
        y, qn, bn = s.y, s.qn, s.bn
        pp = qq = bb = 1
        tt = 0
        for n in range(n1, n2):
            if n:
                c = qn(n)
                d = bn(n) if bn else 1
                tt = tt * d * c + bb * pp * y
                pp *= y
                qq *= c
                bb *= d
            else:
                tt = 1
        return pp, qq, bb, tt
    m = (n1 + n2) // 2
    return _join(_split(n1, m, s), _split(m, n2, s))


def _join(left, right):
    """(P, Q, B, T) of two adjacent ranges joined, as in _split."""
    p1, q1, b1, t1 = left
    p2, q2, b2, t2 = right
    return p1 * p2, q1 * q2, b1 * b2, b2 * q2 * t1 + b1 * p1 * t2


def _count(s: _Series) -> int:
    """The least n with s.tail, by exact checks from s.guess."""
    return _least(lambda n: s.tail(n, s.y ** n, s.qprod(n)), s.guess)


def _split_within(s: _Series, t: int) -> tuple[int, int]:
    """The series s, summed over its least count of terms and rounded
    once to the 2**-(t+1) grid, as (v, t + 1)."""
    # one below the guess: adding a term costs a few products of one
    # big factor and a small one, starting over costs the whole sum
    n = max(1, s.guess - 1)
    pp, qq, bb, tt = _split(0, n, s)
    # pp = y**(n-1) and qq = qprod(n - 1): the split's own products
    # check the count, so it costs no products of its own
    if s.tail(n - 1, pp, qq):
        n = _count(s)
        pp, qq, bb, tt = _split(0, n, s)
    else:
        while not s.tail(n, pp * s.y, qq * s.qn(n)):
            pp, qq, bb, tt = _join((pp, qq, bb, tt), _split(n, n + 1, s))
            n += 1
    w = budget(t + 1)
    return div_nearest_lead(s.u * tt << w, s.v * bb * qq), w


# Fixed-point logarithms for the guesses: _lg(x) is about 2**_LG log2 x,
# and the two constants are log2 e and log2(2 pi) in the same units.  A
# guess only says where the count starts; exact checks decide it.
_LG = 16
_LG_E = 94548
_LG_2PI = 173768


@lru_cache(maxsize=_CAP_MEMO)
def _lg(x: int) -> int:
    """floor(2**_LG log2 x), or one less, for x >= 1: the integer part
    from the bit length, then one bit per squaring of x's leading 65
    bits."""
    e = x.bit_length() - 1
    y = x << (64 - e) if e <= 64 else x >> (e - 64)
    r = e
    for _ in range(_LG):
        y = y * y >> 64
        r <<= 1
        if y >> 65:
            y >>= 1
            r |= 1
    return r


def _fact_guess(s: int, p: int, q: int) -> int:
    """About the least m >= 2 |p/q| with m! q**m >= 2**s |p|**m.

    Newton's method on Stirling's log2 m! ~ m log2(m/e) + log2(2 pi m)/2,
    started to the right of the root, where the left side is convex, so
    that every step stays at or above the root.
    """
    pa = abs(p)
    if pa == 0:
        return 0
    low = 2 * (pa // q) + 2
    lx = _lg(pa) - _lg(q)
    m = max(s, 0) + 4 * low
    while m > low:
        lm = _lg(m)
        g = (m * (lm - _LG_E - lx) + ((lm + _LG_2PI) >> 1)
             - (s << _LG))
        step = g // (lm - lx)
        if step <= 0:
            break
        m = max(low, m - step)
    return m


def _atan(t: int, p: int, q: int, hyperbolic: bool) -> _Series:
    # u sum (-+u**2)**n / (2n+1), u = p/q; after n terms the tail is at
    # most |u|**(2n+1) / (2n+1), over 1 - u**2 for atanh
    pa, q2 = abs(p), q * q
    h = pa * pa if hyperbolic else 0
    guess = 0
    if pa:
        # (2n+1) log2|q/p| + log2(2n+1) >= t + 1 + log2(q**2/(q**2-h))
        lu = _lg(q) - _lg(pa)
        need = ((t + 1) << _LG) + _lg(q2) - _lg(q2 - h) - lu
        guess = need // (2 * lu)
        guess = max(0, -(-(need - _lg(2 * guess + 1)) // (2 * lu)))
    return _Series(
        pa * pa if hyperbolic else -pa * pa, lambda n: q2,
        lambda n: 2 * n + 1, p, q, lambda n: q2 ** n,
        lambda n, pn, qn: pa * abs(pn) * q2 << (t + 1)
        <= q * qn * (2 * n + 1) * (q2 - h),
        guess)


def _exp(t: int, p: int, q: int) -> _Series:
    # sum x**n / n!, x = p/q; once n >= 2|x| the tail after n terms is
    # at most 2 |x|**n / n!
    pa = abs(p)
    return _Series(
        p, lambda n: q * n, None, 1, 1,
        lambda n: q ** n * factorial(n),
        lambda n, pn, qn: n * q >= 2 * pa and abs(pn) << (t + 2) <= qn,
        _fact_guess(t + 2, p, q))


def _sin(t: int, p: int, q: int) -> _Series:
    # x sum (-x**2)**n / (2n+1)!; alternating, so once the terms shrink
    # from n on the tail after n terms is at most |x|**(2n+1) / (2n+1)!
    pa, q2 = abs(p), q * q
    return _Series(
        -pa * pa, lambda n: q2 * (2 * n) * (2 * n + 1), None, p, q,
        lambda n: q2 ** n * factorial(2 * n + 1),
        lambda n, pn, qn: (2 * n + 2) * (2 * n + 3) * q2 >= pa * pa
        and pa * abs(pn) << (t + 1) <= q * qn,
        _fact_guess(t + 1, p, q) // 2)


def _cos(t: int, p: int, q: int) -> _Series:
    # sum (-x**2)**n / (2n)!; as for sin, the tail after n terms is at
    # most x**(2n) / (2n)! once the terms shrink from n on
    pa, q2 = abs(p), q * q
    return _Series(
        -pa * pa, lambda n: q2 * (2 * n - 1) * (2 * n), None, 1, 1,
        lambda n: q2 ** n * factorial(2 * n),
        lambda n, pn, qn: (2 * n + 1) * (2 * n + 2) * q2 >= pa * pa
        and abs(pn) << (t + 1) <= qn,
        (_fact_guess(t + 1, p, q) + 1) // 2)


def atan_split(p: int, q: int, t: int,
               hyperbolic: bool = False) -> tuple[int, int]:
    """arctan(p/q), or artanh(p/q) if hyperbolic, within 2**-t, for q > 0
    and |p/q| <= 1/2, by binary splitting."""
    return _split_within(_atan(t, p, q, hyperbolic), t)


def exp_split(p: int, q: int, t: int) -> tuple[int, int]:
    """exp(p/q) within 2**-t, for q > 0, by binary splitting."""
    return _split_within(_exp(t, p, q), t)


def sincos_split(p: int, q: int, t: int,
                 want_sin: bool) -> tuple[int, int]:
    """sin(p/q), or cos(p/q), within 2**-t, for q > 0, by binary
    splitting."""
    return _split_within((_sin if want_sin else _cos)(t, p, q), t)


def pi_within(t: int) -> tuple[int, int]:
    """pi = 16 atan(1/5) - 4 atan(1/239) within 2**-t."""
    v, s = atan_split(1, 5, t + 5)
    u, r = atan_split(1, 239, t + 3)
    # 16 v 2**-s - 4 u 2**-r, on the finer of the two grids
    s, r = s - 4, r - 2
    a = max(s, r)
    return (v << a - s) - (u << a - r), a


def ln2_within(t: int) -> tuple[int, int]:
    """ln 2 = 2 atanh(1/3) within 2**-t."""
    v, s = atan_split(1, 3, t + 1, hyperbolic=True)
    return v, s - 1


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
    """Whether atan_split beats ln_reduced at target t for ln of a literal
    whose window has denominator q (see "Binary splitting" above)."""
    b = q.bit_length()
    return b <= 20 or 8 * b * b <= t


def literal_split_pays(x: Fraction, t: int) -> bool:
    """Whether exp_split and sincos_split beat exp_reduced and
    sincos_reduced at target t for the literal x (see "Binary
    splitting" above)."""
    mag = -(-abs(x.numerator) // x.denominator)
    return 640 + 2 * x.denominator.bit_length() ** 2 + 48 * mag <= t


def ladder_rung(j: int) -> int:
    """j rounded up to its three leading bits: j <= rung < 1.25 j."""
    s = max(0, j.bit_length() - 3)
    return -(-j >> s) << s


# within(J + 1) per (within, J = ladder_rung(j)), for every reader of a
# ladder constant in the process ("Constant ladder" above)
_RUNGS: dict = {}


def rung_value(within: Callable[[int], tuple[int, int]],
               j: int) -> tuple[int, int]:
    """within(J + 1) for J = ladder_rung(j), computed once per rung: the
    constant within 2**-(J+1) <= 2**-(j+1)."""
    key = (within, ladder_rung(j))
    # get and setdefault are each atomic, as in CReal._raw
    v = _RUNGS.get(key)
    if v is None:
        v = _RUNGS.setdefault(key, within(key[1] + 1))
    return v

