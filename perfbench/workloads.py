"""Seeded operation streams for the four benchmark workloads.

A workload is an endless sequence of rounds.  Every round holds the same
cells (one operation per cell) in the same order; the seed only picks
each operation's parameters inside the cell's range: atoms, the
precision, the offset within its power-of-two bucket, a budget, the
relation and the side.  A run therefore costs about the same for every
seed, which keeps its medians steady from seed to seed, and a run
always measures whole rounds.

Expected answers never come from the engine under test:

* eval-hiprec results are checked against ``tests/oracles.py`` at
  ORACLE_BITS bits (a full-width exact-rational oracle would take minutes
  per operation);
* decisive prove queries put a decimal constant at a seeded offset 2^-d
  from the oracle value of the left side, so the verdict is known from
  the oracle enclosure, and the enclosure is checked to clear the
  constant by more than 2^-(d+1);
* identity queries compare two spellings of the same real and must end
  Exhausted; the domain template divides by such a difference and must
  raise DomainUnverifiable;
* pi01 predicates have a least counterexample given in closed form, or
  are tautologies that must end NoCounterexampleBelowBound.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import oracles
from certreal import lang, prover
from certreal.errors import DomainUnverifiable

WORKLOADS = ("eval-hiprec", "prove-approx", "prove-both", "pi01-sweep")

# Bits at which eval-hiprec results are checked against the oracle.
ORACLE_BITS = 256

# Offset buckets for decisive queries.  The deepening schedule probes at
# powers of two, and a query with offset 2^-d separates at the first
# probe k >= d + 3, so every offset inside one bucket stops at the same
# probe (8, 16, ..., 256) and costs about the same.
BUCKETS = ((4, 5), (10, 13), (20, 28), (40, 60), (80, 124), (160, 200))


@dataclass
class Op:
    """One operation: what the program is asked, and what must come back.

    kind "eval": approx(elaborate(parse_expression(text)), arg), with
    expect the oracle enclosure (lo, hi) of the exact value.
    kind "prove": prove(text, backend, max_precision=arg) followed by
    verify_outcome, with expect one of "proved", "refuted", "exhausted"
    or "DomainUnverifiable".
    kind "pi01": pi01_decide(text, max_precision=arg), with expect the
    least counterexample, or None for a tautology.
    """

    kind: str
    text: str
    arg: int
    expect: object
    backend: str = "approx"


# -- the program's side: execute, judge, fingerprint ---------------------

def execute(op: Op):
    """Run one operation through the library's public entry points.

    Module attributes are looked up at call time, so the tracer's
    wrappers see every call.
    """
    if op.kind == "eval":
        return lang.elaborate(lang.parse_expression(op.text)).approx(op.arg)
    if op.kind == "prove":
        out = prover.prove(op.text, backend=op.backend, max_precision=op.arg)
        return out, prover.verify_outcome(out)
    if op.kind == "pi01":
        return prover.pi01_decide(op.text, max_precision=op.arg)
    raise ValueError(f"unknown operation kind {op.kind!r}")


_KINDS = {prover.Proved: "proved", prover.Refuted: "refuted",
          prover.Exhausted: "exhausted"}


def check(op: Op, result) -> bool:
    """True when the result of execute(op) (or the exception it raised)
    is what the operation expects."""
    if op.kind == "eval":
        if isinstance(result, Exception):
            return False
        lo, hi = op.expect
        err = Fraction(1, 1 << op.arg)
        return lo - err <= result.as_fraction() <= hi + err
    if op.kind == "prove":
        if op.expect == "DomainUnverifiable":
            return isinstance(result, DomainUnverifiable)
        if isinstance(result, Exception):
            return False
        out, verified = result
        if not verified or _KINDS.get(type(out)) != op.expect:
            return False
        return op.expect != "exhausted" or out.max_precision == op.arg
    if isinstance(result, Exception):
        return False
    if op.expect is None:
        return (isinstance(result, prover.NoCounterexampleBelowBound)
                and result.max_precision == op.arg
                and prover.verify_outcome(result.comparison))
    return (isinstance(result, prover.Counterexample)
            and result.n == op.expect
            and prover.verify_outcome(result.comparison))


def fingerprint(op: Op, result) -> str:
    """One line naming the operation and every bit of its answer."""
    head = f"{op.kind}|{op.backend}|{op.arg}|{op.text}|"
    if isinstance(result, Exception):
        return head + type(result).__name__
    if op.kind == "eval":
        # hex: decimal conversion of ints this long is capped by CPython
        return head + f"{result.mantissa:x}:{result.exponent}"
    if op.kind == "prove":
        out, verified = result
        return head + f"{prover.outcome_jsonable(out, False)}:{verified}"
    detail = prover.outcome_jsonable(result.comparison, False)
    return head + f"{result}:{detail}"


# -- seeded parameters ---------------------------------------------------

def _atom(rng: random.Random, lo: float, hi: float) -> str:
    """A two-place decimal with |value| in [lo, hi] and a random sign;
    negative atoms come parenthesized so they can stand anywhere."""
    text = _positive(rng, lo, hi)
    return f"(-{text})" if rng.random() < 0.5 else text


def _positive(rng: random.Random, lo: float, hi: float) -> str:
    m = rng.randint(round(lo * 100), round(hi * 100))
    return f"{m // 100}.{m % 100:02d}"


def _near(rng: random.Random, centre: int) -> int:
    return rng.randint(round(centre * 0.97), round(centre * 1.03))


def _decimal_text(v: Fraction, places: int) -> str:
    """Exact text of a rational with a denominator dividing 10^places."""
    m = v.numerator * 10 ** places // v.denominator
    whole, frac = divmod(abs(m), 10 ** places)
    text = f"{whole}.{frac:0{places}d}"
    return f"(-{text})" if m < 0 else text


def _oracle_bounds(text: str, bits: int):
    """Oracle enclosure of an expression.

    The oracle evaluates the argument of tan twice (once under sin, once
    under cos), so nested tan costs 2^depth oracle calls; memoizing the
    recursion on (node, bits) makes it linear without changing a bound.
    """
    plain = oracles.eval_expr_bounds
    memo = {}

    def memoized(node, b):
        key = (node, b)
        if key not in memo:
            memo[key] = plain(node, b)
        return memo[key]

    oracles.eval_expr_bounds = memoized
    try:
        return plain(lang.parse_expression(text), bits)
    finally:
        oracles.eval_expr_bounds = plain


def _decisive(rng: random.Random, lhs: str, bucket, backend: str) -> Op:
    """lhs compared with a decimal constant at distance about 2^-d."""
    d = rng.randint(*bucket)
    lo, hi = _oracle_bounds(lhs, d + 24)
    above = rng.random() < 0.5
    gap = Fraction(1, 1 << d)
    target = (lo + hi) / 2 + (gap if above else -gap)
    places = math.ceil((d + 8) * math.log10(2)) + 1
    c = Fraction(round(target * 10 ** places), 10 ** places)
    # the constant must clear the whole enclosure, not just its midpoint
    margin = c - hi if above else lo - c
    if margin <= gap / 2:
        raise AssertionError(f"oracle enclosure of {lhs} too wide at "
                             f"{d + 24} bits")
    relation = rng.choice("<>")
    text = f"{lhs} {relation} {_decimal_text(c, places)}"
    proved = above == (relation == "<")
    return Op("prove", text, prover.DEFAULT_MAX_PRECISION,
              "proved" if proved else "refuted", backend)


# -- eval-hiprec ---------------------------------------------------------

# Golden-ratio steps: round r of a cell takes the point phase + r * G
# (mod 1) of its digit range, a low-discrepancy sequence that covers the
# range evenly in any run of a few rounds.
_GOLDEN = (math.sqrt(5) - 1) / 2


def _eval_cells(rng):
    a = _atom
    # (digit range, expression).  The ln argument stays above 1.4, so the
    # ln also needs ln 2, at a precision the memo has not seen: that makes
    # an ln cost five to ten times what the other cells do, and the one
    # ln cell keeps to the low end of the digit range, where it costs
    # about as much as two other cells together rather than the whole
    # rest of the round
    return (
        (4000, 5000, "pi"),
        (3500, 5000, f"exp({a(rng, 0.1, 3)})"),
        (3000, 5000, f"sin({a(rng, 0.1, 6)})"),
        (2500, 4500, f"cos({a(rng, 0.1, 6)})"),
        (2000, 4000, f"tan({a(rng, 0.1, 1.3)})"),
        (1500, 3500, f"exp(pi * {a(rng, 0.1, 1)}) * sin({a(rng, 0.1, 3)})"),
        (1000, 3000, f"sin(pi * {a(rng, 0.1, 2)}) / exp({a(rng, 0.1, 2)})"),
        (2000, 4000, f"cos({a(rng, 0.1, 3)}) * exp({a(rng, 0.1, 2)})"),
        (1000, 1300,
         f"ln({_positive(rng, 1.4, 12)}) / cos({a(rng, 0.1, 1.2)})"),
    )


def _eval_round(rng: random.Random, index: int, phases: list,
                used: set) -> list:
    """Round ``index`` of eval-hiprec.

    Precisions spread over each cell's range, so operation costs form a
    continuum: the median and the tail then sit inside it, not on the
    edge between two cells, and move smoothly with the machine's speed.
    """
    cells = _eval_cells(rng)
    if not phases:
        phases.extend(rng.random() for _ in cells)
    ops = []
    for (lo, hi, text), phase in zip(cells, phases):
        u = (phase + index * _GOLDEN) % 1.0
        k = int((lo + (hi - lo) * u) * math.log2(10))
        # never repeated in a stream, so the global pi and ln 2 memos miss
        while k in used:
            k += 1
        used.add(k)
        ops.append(Op("eval", text, k,
                      _oracle_bounds(text, ORACLE_BITS)))
    return ops


# -- prove-approx and prove-both -----------------------------------------

def _prove_round(rng: random.Random, backend: str) -> list:
    a = _atom
    decisive = (
        f"exp({a(rng, 0.1, 3)})",
        f"sin({a(rng, 0.1, 6)})",
        f"cos({a(rng, 0.1, 6)})",
        f"exp({a(rng, 0.1, 2)}) * cos({a(rng, 0.1, 3)})",
        f"sin({a(rng, 0.1, 3)}) + exp({a(rng, 0.1, 2)})",
        f"pi * {a(rng, 0.1, 3)}",
        f"exp(pi * {a(rng, 0.1, 1)}) - pi",
        f"cos(pi * {a(rng, 0.1, 2)})",
        f"sin({a(rng, 0.1, 3)}) * sin({a(rng, 0.1, 3)})",
        f"exp({a(rng, 0.1, 2)}) + cos({a(rng, 0.1, 3)})",
        f"pi - exp({a(rng, 0.1, 2)})",
        f"sin(pi * {a(rng, 0.1, 2)})",
        f"exp(sin({a(rng, 0.1, 3)}))",
        f"cos(exp({a(rng, 0.1, 1)}))",
    )
    ops = [_decisive(rng, lhs, BUCKETS[i % len(BUCKETS)], backend)
           for i, lhs in enumerate(decisive)]
    # division, ln and tan make elaboration search for apartness
    # certificates
    ln_ratio = f"ln({_positive(rng, 1.4, 12)}) / {a(rng, 0.5, 3)}"
    ops.append(_decisive(rng, ln_ratio, BUCKETS[2], backend))
    ops.append(_decisive(rng, f"tan({a(rng, 0.1, 1.3)})", BUCKETS[4],
                         backend))
    # identities: both sides are the same real, so the query must end
    # Exhausted at its budget, drawn within 3% of 512, 1536 or 3968
    x = a(rng, 0.1, 2)
    identities = (
        (512, f"exp({x}) * exp({x}) {{}} exp(2 * {x})"),
        (1536, f"sin({rng.randint(1, 6)} * pi) {{}} 0"),
        (3968, f"sin({x}) * sin({x}) + cos({x}) * cos({x}) {{}} 1"),
    )
    for budget, template in identities:
        ops.append(Op("prove", template.format(rng.choice("<>")),
                      _near(rng, budget), "exhausted", backend))
    # the divisor is exactly zero, so no certificate can exist
    y = a(rng, 0.1, 2)
    ops.append(Op("prove",
                  f"1 / (exp({y}) * exp({y}) - exp(2 * {y})) > "
                  f"{a(rng, 0.1, 2)}",
                  prover.DEFAULT_MAX_PRECISION, "DomainUnverifiable",
                  backend))
    if backend == "both":
        # nested tan: the interval backend evaluates each tan argument
        # twice, so its cost grows as 2^depth; deeper nests get shallower
        # offsets to keep the round's cost in range
        for depth in range(1, 7):
            lhs = "tan(" * depth + _positive(rng, 0.1, 0.3) + ")" * depth
            ops.append(_decisive(rng, lhs, BUCKETS[-depth], backend))
    return ops


# -- pi01-sweep ----------------------------------------------------------

def _least_multiple_at_least(d: int, m: int) -> int:
    return -(-m // d) * d


def _pi01_round(rng: random.Random) -> list:
    # A tautology's cost grows smoothly with its budget, drawn
    # log-uniformly from 256..1024, and nine of the fifteen cells are
    # such tautologies, so the median operation lies inside a continuum of
    # costs.  A median taken among a few equal-cost cells jumps between
    # the fast and the slow speed of a shared machine instead of
    # following it.  Counterexamples are drawn log-uniformly from 5..200.
    m = [round(math.exp(rng.uniform(math.log(5), math.log(200))))
         for _ in range(5)]
    d = rng.choice((4, 5, 7))
    c = m[2] * m[2] + rng.randint(1, 2 * m[2])
    # (predicate, least counterexample), the answer in closed form
    counterexamples = (
        (f"n < {m[0]}", m[0]),
        (f"not (3 | n) or n < {m[1]}", _least_multiple_at_least(3, m[1])),
        (f"n * n < {c}", m[2] + 1),
        (f"(2 | n) or n < {m[3]}", m[3] | 1),
        (f"not ({d} | n) or n < {m[4]}", _least_multiple_at_least(d, m[4])),
    )
    ops = [Op("pi01", text, prover.DEFAULT_PI01_MAX_PRECISION, n)
           for text, n in counterexamples]
    tautologies = ("n + 1 > n", "not (2 | n) or (2 | n * n)",
                   "2 | n * (n + 1)", "n * n >= 0",
                   "not (3 | n) or (3 | n * n)")
    for i in range(9):
        budget = round(math.exp(rng.uniform(math.log(256), math.log(1024))))
        ops.append(Op("pi01", tautologies[i % len(tautologies)], budget,
                      None))
    # The costliest tautology once more, always near the top budget: one
    # operation in fifteen, so the tail percentile (p99 of a run's two
    # thousand operations) lies inside this cell's spread of costs, not
    # on the thin top edge of the log-uniform budgets.
    ops.append(Op("pi01", tautologies[0], _near(rng, 990), None))
    return ops


# -- the stream ----------------------------------------------------------

# Rounds generated per seed for the prove workloads, which then cycle
# through them.  Their inputs cost more to generate (an oracle enclosure
# per decisive query) than to run.  Repeating a query reuses no memo:
# prove() parses and elaborates a fresh DAG every time, and the global
# pi and ln 2 nodes are probed at the same powers of two whether a query
# repeats or not.
DECK_ROUNDS = 30


def rounds(workload: str, seed: int):
    """Endless iterator over the rounds of a workload for a seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    if workload == "eval-hiprec":
        phases, used = [], set()
        for index in itertools.count():
            yield _eval_round(rng, index, phases, used)
    if workload == "pi01-sweep":
        while True:
            yield _pi01_round(rng)
    backend = "approx" if workload == "prove-approx" else "both"
    deck = []
    while True:
        for i in range(DECK_ROUNDS):
            if len(deck) == i:
                deck.append(_prove_round(rng, backend))
            yield deck[i]
