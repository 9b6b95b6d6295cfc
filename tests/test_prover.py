"""The inequality prover, outcome verification, and the Pi-0-1 pipeline."""

import json
import random
from dataclasses import replace

import pytest

from certreal import (ConformanceError, Counterexample, DomainBudget,
                      DomainUnverifiable, Exhausted, Interval,
                      NoCounterexampleBelowBound, ParseError, Proved,
                      Refuted, ResourceExhausted, TraceStep, dyadic,
                      outcome_jsonable, parse_predicate, pi01_decide,
                      pi01_sum, prove, verify_outcome)
from certreal import prover
from certreal.dyadic import ZERO, power_of_two

# a divisor this small forces the interval backend to skip its coarse
# precisions: the outward enclosure of 1e-18 contains zero until the
# working grid is finer than 2**-60
TINY_DIV = "1 / 0.000000000000000001 > 1"
WIDE_BUDGET = DomainBudget(max_precision=80)


# -- prove(): basics across backends --------------------------------------

@pytest.mark.parametrize("backend", ["approx", "interval", "both"])
def test_prove_decides_simple_queries(backend):
    out = prove("1 < 2", backend=backend)
    assert isinstance(out, Proved) and out.relation == "<"
    out = prove("2 < 1", backend=backend)
    assert isinstance(out, Refuted) and out.relation == "<"
    out = prove("1 < 1", backend=backend, max_precision=16)
    assert isinstance(out, Exhausted) and out.max_precision == 16


@pytest.mark.parametrize("backend", ["approx", "interval", "both"])
def test_prove_greater_than_orientation(backend):
    out = prove("exp(1) > 2", backend=backend)
    assert isinstance(out, Proved) and out.relation == ">"
    # enclosures come back in query orientation: lhs is the exp side
    two = dyadic(2, 0)
    assert out.lhs_enclosure.lo > two > out.rhs_enclosure.lo - dyadic(1, 0)
    assert out.rhs_enclosure.lo <= two <= out.rhs_enclosure.hi
    assert out.lhs_enclosure.lo > out.rhs_enclosure.hi
    # and so do the trace steps
    for s in out.trace:
        assert s.lhs.hi >= s.lhs.lo
    assert verify_outcome(out)


def test_prove_greater_than_refuted():
    out = prove("2 > exp(1)", backend="approx")
    assert isinstance(out, Refuted) and out.relation == ">"
    assert verify_outcome(out)
    out2 = prove("3 < exp(1)")
    assert isinstance(out2, Refuted) and out2.relation == "<"
    assert verify_outcome(out2)


def test_prove_creal_backend_alias():
    out = prove("1 < 2", backend="creal")
    assert isinstance(out, Proved)
    assert all(s.backend == "approx" for s in out.trace)


def test_approx_backend_runs_cmp_semidecide(monkeypatch):
    # the approximation backend's one comparison loop
    calls = []
    real = prover.cmp_semidecide

    def spy(x, y, start_k, max_k, relation):
        calls.append(relation)
        return real(x, y, start_k, max_k, relation)

    monkeypatch.setattr(prover, "cmp_semidecide", spy)
    assert isinstance(prove("exp(1) > 2", backend="approx"), Proved)
    assert calls == [">"]


def test_prove_accepts_parsed_queries_and_rejects_junk():
    from certreal import lang
    q = lang.parse_query("sin(1) < 1")
    assert isinstance(prove(q), Proved)
    with pytest.raises(TypeError):
        prove(123)
    with pytest.raises(TypeError):
        prove(lang.parse_expression("1 + 2"))
    with pytest.raises(ParseError):
        prove("1 + 2")
    with pytest.raises(ValueError):
        prove("1 < 2", backend="magic")


def test_trace_precisions_follow_schedule():
    out = prove("1 < 1", max_precision=16)
    assert [s.precision for s in out.trace] == [1, 2, 4, 8, 16]
    assert all(s.backend == "approx" for s in out.trace)


# -- domain conditions interact with backends ------------------------------

@pytest.mark.parametrize("backend", ["approx", "interval", "both"])
def test_domain_errors_propagate_for_every_backend(backend):
    with pytest.raises(DomainUnverifiable):
        prove("1 / sin(pi) < 1", backend=backend)


def test_interval_backend_skips_undetermined_precisions():
    out = prove(TINY_DIV, backend="interval", domain_budget=WIDE_BUDGET)
    assert isinstance(out, Proved) and out.relation == ">"
    # the coarse probes hit an ambiguous divisor sign and are skipped,
    # so the recorded trace starts beyond the start precision
    assert out.trace[0].precision > 1
    assert all(s.backend == "interval" for s in out.trace)
    assert verify_outcome(out)


def test_interval_all_probes_undetermined_is_unverifiable_exhaustion():
    out = prove(TINY_DIV, backend="interval", max_precision=2,
                domain_budget=WIDE_BUDGET)
    assert isinstance(out, Exhausted)
    assert out.trace == ()
    # an exhaustion with no recorded probes carries no evidence
    assert not verify_outcome(out)


def test_approx_backend_handles_tiny_divisor_directly():
    out = prove(TINY_DIV, backend="approx", domain_budget=WIDE_BUDGET)
    assert isinstance(out, Proved)
    assert verify_outcome(out)


# -- both-backend merging --------------------------------------------------

def test_both_backend_concatenates_traces():
    out = prove("exp(1) > 2", backend="both")
    backends = [s.backend for s in out.trace]
    assert "approx" in backends and "interval" in backends
    # approx steps come first, then interval steps
    first_interval = backends.index("interval")
    assert all(b == "approx" for b in backends[:first_interval])
    assert all(b == "interval" for b in backends[first_interval:])
    assert verify_outcome(out)


def test_both_backend_agrees_with_individual_runs():
    for text in ["1 < 2", "pi > 3", "sin(1) < cos(1)", "2 < 1"]:
        oa = prove(text, backend="approx")
        oi = prove(text, backend="interval")
        ob = prove(text, backend="both")
        assert type(oa) is type(oi) is type(ob)


def _fake_decisive(cls, relation="<"):
    lo, hi = dyadic(0, 0), dyadic(1, 0)
    a, b = Interval(lo, lo), Interval(hi, hi)
    step = TraceStep(3, a, b, "approx")
    return cls(3, a, b, (step,), relation)


def test_merge_contradiction_is_a_conformance_error():
    from certreal import lang
    oa = _fake_decisive(Proved)
    oi = _fake_decisive(Refuted)
    with pytest.raises(ConformanceError) as exc:
        prover._merge_outcomes(oa, oi, lang.parse_query("1 < 2"))
    assert exc.value.detail["query"] == "1 < 2"
    assert "approx_trace" in exc.value.detail


def test_merge_prefers_the_decisive_outcome():
    oa = _fake_decisive(Proved)
    oi = Exhausted(8, (), "<")
    merged = prover._merge_outcomes(oa, oi, None)
    assert isinstance(merged, Proved) and merged.precision == 3
    merged2 = prover._merge_outcomes(Exhausted(8, (), "<"), oa, None)
    assert isinstance(merged2, Proved)


# -- verify_outcome: honest outcomes pass, tampered ones fail --------------

def test_verify_accepts_honest_outcomes():
    assert verify_outcome(prove("exp(pi) - pi < 20"))
    assert verify_outcome(prove("sin(pi) < 0.000000001"))
    assert verify_outcome(prove("1 < 1", max_precision=16))
    assert verify_outcome(prove("pi > 3", backend="interval"))


def test_verify_rejects_swapped_enclosures():
    out = prove("exp(1) > 2")
    bad = replace(out, lhs_enclosure=out.rhs_enclosure,
                  rhs_enclosure=out.lhs_enclosure)
    assert not verify_outcome(bad)


def test_verify_rejects_truncated_trace():
    out = prove("exp(1) > 2")
    assert not verify_outcome(replace(out, trace=out.trace[:-1]))
    assert not verify_outcome(replace(out, trace=()))


def test_verify_rejects_wrong_precision():
    out = prove("exp(1) > 2")
    assert not verify_outcome(replace(out, precision=out.precision + 1))


def test_verify_rejects_nonincreasing_trace():
    out = prove("exp(1) > 2")
    padded = out.trace + (out.trace[-1],)
    assert not verify_outcome(replace(out, trace=padded))


def test_verify_rejects_exhaustion_with_separating_step():
    proved = prove("1 < 2")
    fake = Exhausted(proved.trace[-1].precision, proved.trace, "<")
    assert not verify_outcome(fake)


def test_verify_rejects_flipped_verdict():
    out = prove("1 < 2")
    fake = Refuted(out.precision, out.lhs_enclosure, out.rhs_enclosure,
                   out.trace, out.relation)
    assert not verify_outcome(fake)


# -- serialization ---------------------------------------------------------

def test_outcome_jsonable_round_trips():
    out = prove("exp(1) > 2")
    doc = outcome_jsonable(out)
    assert doc["outcome"] == "proved" and doc["relation"] == ">"
    assert isinstance(doc["lhs"]["lo"]["m"], str)
    assert int(doc["lhs"]["lo"]["m"]) == out.lhs_enclosure.lo.mantissa
    assert json.loads(json.dumps(doc)) == doc
    assert len(doc["trace"]) == len(out.trace)
    assert "trace" not in outcome_jsonable(out, include_trace=False)


def test_outcome_jsonable_exhausted():
    doc = outcome_jsonable(prove("1 < 1", max_precision=8))
    assert doc["outcome"] == "exhausted"
    assert doc["max_precision"] == 8
    assert doc["trace"][0]["backend"] == "approx"


# -- the predicate language ------------------------------------------------

def test_predicate_divisibility():
    p = parse_predicate("2 | n")
    assert p.evaluate(4) and p.evaluate(0) and not p.evaluate(5)
    q = parse_predicate("0 | n")  # 0 divides only 0
    assert q.evaluate(0) and not q.evaluate(1)
    r = parse_predicate("n | 12")
    assert r.evaluate(4) and r.evaluate(1) and not r.evaluate(5)
    assert not r.evaluate(0)  # 0 | 12 is false


def test_predicate_precedence():
    # 'and' binds tighter than 'or'
    p = parse_predicate("n = 1 or n = 0 and n > 5")
    assert p.evaluate(1)
    assert not p.evaluate(0)
    # 'not' binds tighter than 'and'
    q = parse_predicate("not n = 1 or n = 1")
    assert q.evaluate(1) and q.evaluate(2)


def test_predicate_parenthesis_backtracking():
    # parentheses open an arithmetic operand here
    p = parse_predicate("(n + 1) * 2 = 4")
    assert p.evaluate(1) and not p.evaluate(0)
    # and a boolean group here
    q = parse_predicate("(n = 1 or n = 2) and n < 2")
    assert q.evaluate(1) and not q.evaluate(2) and not q.evaluate(0)


def test_predicate_arithmetic():
    p = parse_predicate("n ^ 2 < 100")
    assert p.evaluate(9) and not p.evaluate(10)
    q = parse_predicate("n * n - n >= 0")
    assert all(q.evaluate(n) for n in range(10))
    r = parse_predicate("n + -1 < 3")
    assert r.evaluate(3) and not r.evaluate(4)


@pytest.mark.parametrize("text", [
    "m < 3",
    "n <",
    "n ^ n",
    "n = 1 )",
    "(n = 1",
    "n ? 2",
    "1 + 2",
    "",
    "n",                  # a number, not a condition
    "1 < n < 5",          # comparisons do not chain
    "(n < 1) + 1 < 2",    # a condition is no arithmetic operand
    "-(n < 1)",
    "n < not n < 1",
])
def test_predicate_parse_errors(text):
    with pytest.raises(ParseError):
        parse_predicate(text)


@pytest.mark.parametrize("text,holds", [
    ("-n^2 = n*n", lambda n: True),          # (-n)^2, not -(n^2)
    ("not (n) < 3", lambda n: n >= 3),        # the group is a number
    ("((n < 1))", lambda n: n < 1),           # the group is a condition
    ("(n) < 3", lambda n: n < 3),
    ("3 | n * n", lambda n: n % 3 == 0),
])
def test_predicate_accepted(text, holds):
    p = parse_predicate(text)
    assert [p.evaluate(n) for n in range(12)] == \
        [holds(n) for n in range(12)]


@pytest.mark.parametrize("text,position", [
    ("2 ^ 3 ^ 2 = 64", 6),    # the second '^'
    ("2 ^ n < 3", 4),         # an exponent that is not a literal
    ("n", 1),                 # where a comparison operator should be
    ("1 < n < 5", 6),
])
def test_predicate_error_position(text, position):
    with pytest.raises(ParseError) as exc:
        parse_predicate(text)
    assert exc.value.position == position


def test_predicate_deep_nesting():
    p = parse_predicate("(" * 300 + "n < 1" + ")" * 300)
    assert p.evaluate(0) and not p.evaluate(1)
    q = parse_predicate("-(" * 301 + "n" + ")" * 301 + " = n")
    assert q.evaluate(0) and not q.evaluate(1)


# -- hostile predicates: typed errors, not hangs or stack overflows --------

def test_predicate_power_over_the_bit_limit():
    p = parse_predicate("n ^ 100000000 > 0")
    assert not p.evaluate(0)
    with pytest.raises(ResourceExhausted):
        p.evaluate(1)
    # a 2-bit base to half the limit is at the limit, a 3-bit one over it
    q = parse_predicate(f"n ^ {prover.POW_BIT_LIMIT // 2} > 0")
    assert q.evaluate(3)
    with pytest.raises(ResourceExhausted):
        q.evaluate(4)
    # the bound is on the base's value at n, wherever it came from
    r = parse_predicate("(n ^ 1000) ^ 1000 > 0")
    assert r.evaluate(2)
    with pytest.raises(ResourceExhausted):
        r.evaluate(3)
    with pytest.raises(ResourceExhausted):
        pi01_decide("n ^ 100000000 > 0")
    # over the limit only from n = 4 on, deep inside the sweep
    with pytest.raises(ResourceExhausted):
        pi01_decide(f"n ^ {prover.POW_BIT_LIMIT // 2} >= 0")


_LIMIT = prover.DEPTH_LIMIT


@pytest.mark.parametrize("text,position", [
    # the predicate is level 1, each group one more: the group opened
    # at byte _LIMIT - 1 is one too many
    ("(" * 500 + "n < 1" + ")" * 500, _LIMIT - 1),
    ("(" * _LIMIT + "n < 1" + ")" * _LIMIT, _LIMIT - 1),
    # a flat chain nests its closures: the '+' that makes _LIMIT + 1
    ("n" + " + 1" * 1200 + " > 0", 2 + 4 * (_LIMIT - 1)),
    ("not " * 1000 + "n < 1", 4 * (_LIMIT - 1)),
    ("-" * 1000 + "n < 1", 1000 - _LIMIT),
    # a right operand and its group are two levels
    ("1 + (" * 300 + "n" + ")" * 300 + " > 0", 5 * (_LIMIT // 2 - 1) + 4),
], ids=["groups", "groups-at-limit+1", "chain", "not", "minus",
        "right-operands"])
def test_predicate_depth_limit(text, position):
    with pytest.raises(ParseError) as exc:
        parse_predicate(text)
    assert exc.value.position == position


@pytest.mark.parametrize("text", [
    # a comparison's right operand is a level of its own
    "(" * (_LIMIT - 2) + "n < 1" + ")" * (_LIMIT - 2),
    "n" + " + 1" * (_LIMIT - 2) + " > 0",
    "not " * (_LIMIT - 2) + "n < 1",
    "-" * (_LIMIT - 2) + "n < 1",
], ids=["groups", "chain", "not", "minus"])
def test_predicate_at_the_depth_limit_evaluates(text):
    # the deepest accepted predicates parse, and evaluate inside a sweep
    p = parse_predicate(text)
    assert p.evaluate(0) in (True, False)
    assert pi01_decide(p, max_precision=16) is not None


def _gen_number(rng, depth):
    """Well-typed arithmetic text, its binding level and its reference
    function.  Levels: 5 for + and -, 6 for *, 7 for ^, 8 for an atom
    (a literal, n, a negated atom or a parenthesised group)."""
    pick = rng.random()
    if depth == 0 or pick < 0.3:
        if rng.random() < 0.5:
            return "n", 8, lambda n: n
        v = rng.randrange(13)
        return str(v), 8, lambda n: v
    text, level, f = _gen_number(rng, depth - 1)
    atom = text if level == 8 else f"({text})"
    if pick < 0.45:
        return "-" + atom, 8, lambda n: -f(n)
    if pick < 0.55:
        e = rng.randrange(4)
        return f"{atom}^{e}", 7, lambda n: f(n) ** e
    op, at = rng.choice([("+", 5), ("-", 5), ("*", 6)])
    rt, rl, rf = _gen_number(rng, depth - 1)
    # left associative: a right operand at the same level needs parentheses
    lt = text if level >= at else f"({text})"
    rt = rt if rl > at else f"({rt})"
    fn = {"+": lambda n: f(n) + rf(n), "-": lambda n: f(n) - rf(n),
          "*": lambda n: f(n) * rf(n)}[op]
    return f"{lt} {op} {rt}", at, fn


def _gen_condition(rng, depth):
    """Well-typed predicate text, its binding level and its reference
    function.  Levels: 1 for or, 2 for and, 3 for not, 4 for a
    comparison; the text uses parentheses only where they are needed,
    plus a few redundant ones."""
    pick = rng.random()
    if depth == 0 or pick < 0.4:
        op = rng.choice(["=", "!=", "<", "<=", ">", ">=", "|"])
        lt, _, lf = _gen_number(rng, 2)
        rt, _, rf = _gen_number(rng, 2)
        rel = {"=": lambda a, b: a == b, "!=": lambda a, b: a != b,
               "<": lambda a, b: a < b, "<=": lambda a, b: a <= b,
               ">": lambda a, b: a > b, ">=": lambda a, b: a >= b,
               "|": lambda a, b: b == 0 if a == 0 else b % a == 0}[op]
        if rng.random() < 0.2:
            lt = f"({lt})"
        text, level = f"{lt} {op} {rt}", 4
        fn = lambda n: rel(lf(n), rf(n))
    elif pick < 0.55:
        inner, level, f = _gen_condition(rng, depth - 1)
        if level < 3:
            inner = f"({inner})"
        text, level, fn = f"not {inner}", 3, lambda n: not f(n)
    else:
        op, level = rng.choice([("or", 1), ("and", 2)])
        lt, ll, lf = _gen_condition(rng, depth - 1)
        rt, rl, rf = _gen_condition(rng, depth - 1)
        lt = lt if ll >= level else f"({lt})"
        rt = rt if rl > level else f"({rt})"
        text = f"{lt} {op} {rt}"
        fn = ((lambda n: lf(n) or rf(n)) if op == "or"
              else (lambda n: lf(n) and rf(n)))
    if rng.random() < 0.1:
        text, level = f"({text})", 4
    return text, level, fn


@pytest.mark.parametrize("seed", range(4))
def test_predicate_matches_reference(seed):
    rng = random.Random(seed)
    for _ in range(150):
        text, _, fn = _gen_condition(rng, rng.randrange(4))
        p = parse_predicate(text)
        assert [p.evaluate(n) for n in range(31)] == \
            [bool(fn(n)) for n in range(31)], text


def test_predicate_evaluate_validates_argument():
    p = parse_predicate("n < 3")
    with pytest.raises(ValueError):
        p.evaluate(-1)
    with pytest.raises(ValueError):
        p.evaluate(1.5)
    assert "n < 3" in repr(p)


# -- the encoding ----------------------------------------------------------

def test_pi01_sum_of_a_tautology_is_two():
    from fractions import Fraction
    s = pi01_sum(parse_predicate("n >= 0"))
    q = s.approx(10).as_fraction()
    assert abs(q - 2) <= Fraction(1, 1 << 10)


def test_pi01_sum_sees_a_single_failure():
    from fractions import Fraction
    s = pi01_sum(parse_predicate("n != 3"))
    q = s.approx(20).as_fraction()
    assert abs(q - Fraction(15, 8)) <= Fraction(1, 1 << 20)


def test_pi01_sum_closed_forms():
    from fractions import Fraction
    cases = [
        ("n < 0", Fraction(0)),            # empty sum
        ("0 <= n", Fraction(2)),           # full sum
        ("not (4 | n)", 2 - Fraction(16, 15)),
        ("n < 2", Fraction(3, 2)),
    ]
    for text, exact in cases:
        q = pi01_sum(parse_predicate(text)).approx(30).as_fraction()
        assert abs(q - exact) <= Fraction(1, 1 << 30), text


@pytest.mark.parametrize("text", [
    # the pi01-sweep predicate shapes, and a power
    "n < 37", "not (3 | n) or n < 50", "n * n < 1234", "(2 | n) or n < 91",
    "not (7 | n) or n < 120", "n + 1 > n", "not (2 | n) or (2 | n * n)",
    "2 | n * (n + 1)", "n * n >= 0", "not (3 | n) or (3 | n * n)",
    "n ^ 3 - n ^ 2 < 20000000",
])
def test_pi01_sum_terms_follow_evaluate(text):
    # pi01_sum calls the parsed closure without evaluate's checks; its
    # terms must still be what evaluate says, term by term
    pred = parse_predicate(text)
    terms = pi01_sum(pred).terms
    for n in range(301):
        want = power_of_two(-n) if pred.evaluate(n) else ZERO
        assert terms(n) == want, n


def test_pi01_sum_rejects_raw_strings():
    with pytest.raises(TypeError):
        pi01_sum("n >= 0")


@pytest.mark.parametrize("text,expected", [
    ("n < 20", 20),
    ("n != 5", 5),
    ("n <= 7", 8),
    ("not (3 | n) or n < 10", 12),
    ("n + 3 < 10", 7),
    ("not (2 | n) or n < 7", 8),
    ("n < 0", 0),
])
def test_pi01_decide_finds_least_counterexamples(text, expected):
    res = pi01_decide(text)
    assert isinstance(res, Counterexample)
    assert res.n == expected
    assert isinstance(res.comparison, Proved)
    assert str(res) == f"Counterexample: n = {expected}"


@pytest.mark.parametrize("text", [
    "n >= 0", "n + 1 > n", "0 = 0", "2 | n * 2", "n * n >= 0",
])
def test_pi01_decide_reports_tautologies_honestly(text):
    res = pi01_decide(text, max_precision=64)
    assert isinstance(res, NoCounterexampleBelowBound)
    assert res.max_precision == 64
    assert isinstance(res.comparison, Exhausted)
    assert "not a proof" in str(res)


def test_pi01_completeness_at_tight_budget():
    # a planted failure at n* is always found once the sweep may reach
    # precision n* + 4
    for m in range(0, 25, 4):
        res = pi01_decide(f"n != {m}", max_precision=m + 4)
        assert isinstance(res, Counterexample) and res.n == m


def _pi01_corpus(rng, count):
    shapes = [
        lambda: f"n < {rng.randrange(0, 120)}",
        lambda: f"n != {rng.randrange(0, 120)}",
        lambda: f"not ({rng.randrange(2, 9)} | n) or n < "
                f"{rng.randrange(0, 100)}",
        lambda: f"n * n < {rng.randrange(0, 15000)}",
        lambda: f"(2 | n) or n < {rng.randrange(0, 100)}",
        lambda: f"n < {rng.randrange(0, 60)} or n > "
                f"{rng.randrange(60, 130)}",
    ]
    return [rng.choice(shapes)() for _ in range(count)]


def test_pi01_counterexample_matches_brute_force():
    for text in _pi01_corpus(random.Random(17), 120):
        pred = parse_predicate(text)
        least = next(n for n in range(1000) if not pred.evaluate(n))
        res = pi01_decide(text)
        assert isinstance(res, Counterexample), text
        assert res.n == least, text


@pytest.mark.parametrize("text", [
    "n < 20", "n != 5", "n * n < 22600", "not (3 | n) or n < 10", "n < 0",
    "n != 200",
])
def test_pi01_scan_stays_below_the_proof_precision(text):
    # the precision of the proof of S < 2 bounds the least
    # counterexample, and the scan reads no predicate value past it
    pred = parse_predicate(text)
    honest = pred._fn
    calls = []

    def counting(n):
        calls.append(n)
        return honest(n)

    pred._fn = counting
    res = pi01_decide(pred)
    # the series reads each n once, in order; the scan starts again at 0
    restart = calls.index(0, 1)
    assert calls[:restart] == list(range(restart))
    scanned = calls[restart:]
    assert scanned == list(range(res.n + 1))
    assert max(scanned) <= res.comparison.precision


def test_pi01_decide_proof_without_counterexample_fails_loudly(monkeypatch):
    # a Proved comparison bounds the least counterexample by its
    # precision; nothing below it means a broken approximation
    monkeypatch.setattr(prover, "cmp_semidecide",
                        lambda *a, **k: _fake_decisive(Proved))
    with pytest.raises(ConformanceError) as exc:
        pi01_decide("n >= 0")
    assert exc.value.detail["predicate"] == "n >= 0"
    assert "precision" in exc.value.detail["detail"]


def test_pi01_decide_impossible_refutation_fails_loudly(monkeypatch):
    # the encoded sum can never exceed 2, so a Refuted comparison is an
    # engine bug and must not be swallowed
    monkeypatch.setattr(prover, "cmp_semidecide",
                        lambda *a, **k: _fake_decisive(Refuted))
    with pytest.raises(ConformanceError) as exc:
        pi01_decide("n >= 0")
    assert exc.value.detail["predicate"] == "n >= 0"
