"""Acceptance suite: nine end-to-end criteria, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as
they complete.  Every criterion states its tolerance inline; nothing
here is tuned to make a failing engine look good.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

import oracles
from certreal import (Counterexample, DomainUnverifiable, DomainViolation,
                      Exhausted, NoCounterexampleBelowBound, Proved, Refuted,
                      const, creal, find_apart, functions, intervals, lang,
                      pi01_decide, prove, recip, scale2, verify_outcome)
from certreal.cli import main
from certreal.dyadic import power_of_two
from certreal.lang import elaborate, parse_expression
from certreal import selftest


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num} ({label}): FAIL", flush=True)
        raise
    print(f"\nACCEPTANCE {num} ({label}): PASS", flush=True)


# -- 1 ---------------------------------------------------------------------

def test_criterion_1_flagship_inequality():
    with criterion(1, "exp(pi) - pi < 20 proved, reverse refuted, < 5 s"):
        t0 = time.perf_counter()
        out = prove("exp(pi) - pi < 20")
        rev = prove("exp(pi) - pi > 20")
        elapsed = time.perf_counter() - t0
        assert isinstance(out, Proved)
        assert 11 <= out.precision <= 16, out.precision
        assert isinstance(rev, Refuted)
        assert verify_outcome(out) and verify_outcome(rev)
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


# -- 2 ---------------------------------------------------------------------

def test_criterion_2_sin_pi_behavior():
    with criterion(2, "sin(pi) < 1e-9 proved; sin(pi) > 0 exhausts"):
        out = prove("sin(pi) < 0.000000001")
        assert isinstance(out, Proved)
        assert verify_outcome(out)
        out2 = prove("sin(pi) > 0", max_precision=80)
        assert isinstance(out2, Exhausted)
        assert out2.max_precision == 80


# -- 3 ---------------------------------------------------------------------

def test_criterion_3_three_pi_routes_agree():
    with criterion(3, "three pi routes agree at their precisions"):
        machin100 = functions.pi("machin").approx(100)
        fresh = functions._PiCosIter()
        iter100 = fresh.approx(100)
        assert abs(machin100 - iter100) <= power_of_two(-99)
        # sequence elements built: the seed plus one per limit step
        steps = len(fresh._seq_nodes) - 1
        assert steps <= 6, steps
        machin10 = functions.pi("machin").approx(10)
        leib10 = functions.pi("leibniz").approx(10)
        assert abs(machin10 - leib10) <= power_of_two(-9)


# -- 4 ---------------------------------------------------------------------

def _random_node(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return const(rng.randint(-8, 8), rng.randint(1, 8))
    pick = rng.random()
    if pick < 0.2:
        return _random_node(rng, depth - 1) + _random_node(rng, depth - 1)
    if pick < 0.4:
        return _random_node(rng, depth - 1) - _random_node(rng, depth - 1)
    if pick < 0.55:
        return _random_node(rng, depth - 1) * _random_node(rng, depth - 1)
    if pick < 0.65:
        return -_random_node(rng, depth - 1)
    if pick < 0.75:
        return scale2(_random_node(rng, depth - 1), rng.randint(-3, 3))
    if pick < 0.85:
        return functions.sin(_random_node(rng, depth - 1))
    if pick < 0.95:
        return functions.cos(_random_node(rng, depth - 1))
    # keep exp arguments bounded so magnitudes stay sane
    return functions.exp(functions.sin(_random_node(rng, depth - 1)))


def test_criterion_4_regularity_1000_expressions():
    with criterion(4, "regularity over 1000 random expressions, k <= 60"):
        rng = random.Random(0xC04C)
        failures = 0
        for _ in range(1000):
            x = _random_node(rng, rng.randint(1, 4))
            k1 = rng.randint(0, 60)
            k2 = rng.randint(0, 60)
            q1, q2 = x.approx(k1), x.approx(k2)
            if abs(q1 - q2) > power_of_two(-k1) + power_of_two(-k2):
                failures += 1
        assert failures == 0, f"{failures} regularity violations"


# -- 5 ---------------------------------------------------------------------

def test_criterion_5_forty_digit_oracle_agreement():
    with criterion(5, "exp(1), ln(2), sin(1), cos(1), pi match 40-digit "
                      "oracles at k = 140"):
        one = Fraction(1)
        cases = [
            ("exp(1)", oracles.exp_bounds(one, 160)),
            ("ln(2)", oracles.ln_bounds(Fraction(2), 160)),
            ("sin(1)", oracles.sin_bounds(one, 160)),
            ("cos(1)", oracles.cos_bounds(one, 160)),
            ("pi", oracles.pi_bounds(160)),
        ]
        tol = Fraction(1, 1 << 140)
        for text, (lo, hi) in cases:
            # the oracle interval must itself pin down 40 digits
            assert hi - lo < Fraction(1, 10 ** 41), text
            q = elaborate(parse_expression(text)).approx(140).as_fraction()
            assert lo - tol <= q <= hi + tol, text


# -- 6 ---------------------------------------------------------------------

def _clear_function_caches():
    functions._SHARED_NODES.clear()


def test_criterion_6_conformance_and_fault_injection():
    with criterion(6, "200-expression conformance suite passes; "
                      "an injected rounding bug is caught"):
        report = selftest.run()
        assert report.passed, report.summary()
        assert report.unconverged == 0, report.summary()
        assert len(report.checks) == 200 * len(selftest.FULL_PRECISIONS)

        # inject a one-ulp upward bias into the approximation backend's
        # rounding chokepoint and re-run the same corpus
        asts = [parse_expression(e) for e in selftest.corpus()]
        orig = creal.grid_round
        try:
            # + 2 on the 2**-k grid is 2**(1-k), one ulp of approx(k-1)
            creal.grid_round = lambda n, a, k: orig(n, a, k) + 2
            _clear_function_caches()  # cached nodes hold pre-bug memos
            for k in selftest.FULL_PRECISIONS:
                caught = sum(
                    1 for e in asts
                    if not intervals.conformance_check(e, k).passed)
                # calibrated catch rate is about 150/200; require half
                # of that so the assertion is robust, not decorative
                assert caught >= 75, f"only {caught} caught at k={k}"
        finally:
            creal.grid_round = orig
            _clear_function_caches()  # drop memos computed under the bug
        # and the suite is healthy again after the restore
        assert intervals.conformance_check(
            parse_expression("pi * 2"), 20).passed


# -- 7 ---------------------------------------------------------------------

def _planted_predicate(rng):
    kind = rng.randrange(6)
    if kind == 0:
        m = rng.randint(0, 24)
        return f"n < {m}", m
    if kind == 1:
        m = rng.randint(0, 23)
        return f"n <= {m}", m + 1
    if kind == 2:
        m = rng.randint(0, 24)
        return f"n != {m}", m
    if kind == 3:
        d = rng.randint(2, 12)
        r = rng.randint(0, 2 * d)
        return f"not ({d} | n + {r})", (d - r % d) % d
    if kind == 4:
        a = rng.randint(0, 10)
        delta = rng.randint(1, 14)
        return f"n + {a} < {a + delta}", delta
    m = rng.randint(0, 23)
    return f"n < {m} or n = {m}", m + 1


_TAUTOLOGIES = [
    "n >= 0", "0 = 0", "n + 1 > n", "n <= n", "n = n",
    "not n < 0", "2 | 2 * n", "3 | 3 * n", "n | n", "n * n >= 0",
    "n ^ 2 >= n", "n - n = 0", "n * 0 = 0", "n + n = 2 * n",
    "2 * n >= n", "not n != n", "n < n + 1", "0 <= n",
    "n >= 0 and n + 2 > n", "n = 0 or n > 0",
]


def test_criterion_7_pi01_pipeline():
    with criterion(7, "100 planted counterexamples found exactly; "
                      "20 tautologies reported honestly"):
        rng = random.Random(0x9101)
        for _ in range(100):
            text, expected = _planted_predicate(rng)
            res = pi01_decide(text)
            assert isinstance(res, Counterexample), text
            assert res.n == expected, f"{text}: got {res.n}, want {expected}"
        assert len(_TAUTOLOGIES) == 20
        for text in _TAUTOLOGIES:
            res = pi01_decide(text)
            assert isinstance(res, NoCounterexampleBelowBound), text
            assert res.max_precision == 256


# -- 8 ---------------------------------------------------------------------

def test_criterion_8_domain_conditions():
    with criterion(8, "division/ln/tan domain conditions behave"):
        with pytest.raises(DomainUnverifiable):
            elaborate(parse_expression("1 / (1 - 1)"))
        assert main(["eval", "1 / (1 - 1)"]) == 3

        with pytest.raises(DomainViolation) as exc:
            elaborate(parse_expression("ln(0 - 2)"))
        cert = exc.value.evidence
        assert cert.sign == -1
        # the certificate revalidates against a fresh build of the operand
        assert cert.revalidate(elaborate(parse_expression("0 - 2")))

        out = prove("tan(1) < 2")
        assert isinstance(out, Proved)
        assert verify_outcome(out)


# -- 9 ---------------------------------------------------------------------

def _law_instance(rng, operands):
    a, b, c = (rng.choice(operands) for _ in range(3))
    kind = rng.randrange(8)
    if kind == 0:
        return a + b, b + a
    if kind == 1:
        return a * b, b * a
    if kind == 2:
        return (a + b) + c, a + (b + c)
    if kind == 3:
        return (a * b) * c, a * (b * c)
    if kind == 4:
        return a * (b + c), a * b + a * c
    if kind == 5:
        return a + const(0), a
    if kind == 6:
        return a + (-a), const(0)
    # multiplicative inverse on a provably-apart operand
    x = const(2) + functions.sin(a)
    cert = find_apart(x)
    assert cert is not None
    return x * recip(x, cert), const(1)


def test_criterion_9_algebraic_law_tower():
    with criterion(9, "500 algebraic-law instances hold at k in {8, 32}"):
        rng = random.Random(0xA19E)
        operands = [const(n, d) for n in (-5, -2, -1, 1, 2, 3, 7)
                    for d in (1, 2, 3)]
        operands += [functions.sin(const(2)), functions.cos(const(1)),
                     functions.exp(const(1, 2)), functions.pi()]
        failures = 0
        for _ in range(500):
            lhs, rhs = _law_instance(rng, operands)
            for k in (8, 32):
                tol = power_of_two(1 - k)
                if abs(lhs.approx(k) - rhs.approx(k)) > tol:
                    failures += 1
        assert failures == 0, f"{failures} law violations"
