"""Outward interval arithmetic and the independent enclosure evaluator."""

import dis
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from certreal import intervals, lang, prover
from certreal.dyadic import ONE, ZERO, dyadic
from certreal.errors import DomainUndetermined, DomainViolation
from certreal.intervals import (Interval, conformance_check, eval_interval,
                                iadd, idiv, imul, ineg, irecip, isub)

dyadics = st.builds(dyadic, st.integers(-(1 << 80), 1 << 80),
                    st.integers(-90, 40))


@st.composite
def boxes(draw):
    a = draw(dyadics)
    b = draw(dyadics)
    return Interval(min(a, b), max(a, b))


def test_interval_invariants():
    with pytest.raises(ValueError):
        Interval(ONE, ZERO)
    iv = Interval(ZERO, ONE)
    assert iv.width() == ONE
    assert iv.midpoint() == dyadic(1, -1)
    assert iv.radius() == dyadic(1, -1)
    assert iv.contains(dyadic(1, -3))
    assert not iv.contains(dyadic(-1))
    assert iv.contains_zero() and not iv.strictly_positive()
    assert intervals.point(ONE).width().is_zero()


def test_one_interval_class_and_no_import_per_call():
    # Interval lives in dyadic.py, so creal needs nothing from intervals
    # and intervals imports lang once, at module level
    import importlib

    import certreal
    from certreal import creal

    # certreal.dyadic is the constructor; the module is under its name
    dy = importlib.import_module("certreal.dyadic")
    assert Interval is dy.Interval is certreal.Interval is creal.Interval
    for fn in (intervals._eval, intervals.eval_interval,
               intervals.conformance_check):
        ops = {i.opname for i in dis.get_instructions(fn)}
        assert "IMPORT_NAME" not in ops, fn.__name__


@given(boxes(), boxes(), st.integers(4, 120))
def test_outward_ops_contain_exact_hull(a, b, w):
    for op, f in ((iadd, lambda x, y: x + y), (isub, lambda x, y: x - y),
                  (imul, lambda x, y: x * y)):
        r = op(a, b, w)
        for xa in (a.lo, a.hi):
            for xb in (b.lo, b.hi):
                v = f(xa.as_fraction(), xb.as_fraction())
                assert r.lo.as_fraction() <= v <= r.hi.as_fraction()
    n = ineg(a)
    assert n.lo == -a.hi and n.hi == -a.lo


@given(boxes(), st.integers(4, 120))
def test_irecip_contains_and_guards(b, w):
    if b.contains_zero():
        with pytest.raises(DomainUndetermined):
            irecip(b, w)
        return
    r = irecip(b, w)
    for xb in (b.lo, b.hi):
        v = 1 / xb.as_fraction()
        assert r.lo.as_fraction() <= v <= r.hi.as_fraction()


@given(boxes(), boxes(), st.integers(4, 120))
def test_idiv_contains_endpoint_quotients(a, b, w):
    if b.contains_zero():
        return
    r = idiv(a, b, w)
    for xa in (a.lo, a.hi):
        for xb in (b.lo, b.hi):
            v = xa.as_fraction() / xb.as_fraction()
            assert r.lo.as_fraction() <= v <= r.hi.as_fraction()


@settings(max_examples=40)
@given(st.fractions(min_value=-8, max_value=8, max_denominator=10 ** 5),
       st.integers(4, 110))
def test_point_evaluators_honest(v, t):
    tol = Fraction(1, 2 ** t)
    x = dyadic(round(v * (1 << 40)), -40)
    xf = x.as_fraction()
    lo, hi = oracles.exp_bounds(xf, t + 12)
    assert lo - tol <= intervals._exp_point(x, t).as_fraction() <= hi + tol
    slo, shi = oracles.sin_bounds(xf, t + 12)
    sv = intervals._sincos_point(x, t, want_sin=True)
    assert slo - tol <= sv.as_fraction() <= shi + tol
    clo, chi = oracles.cos_bounds(xf, t + 12)
    cv = intervals._sincos_point(x, t, want_sin=False)
    assert clo - tol <= cv.as_fraction() <= chi + tol
    if xf > 0:
        llo, lhi = oracles.ln_bounds(xf, t + 12)
        assert llo - tol <= intervals._ln_point(x, t).as_fraction() \
            <= lhi + tol


# past the widths where the reductions start to run deeper than the
# argument's range needs (kernels.extra_halvings, extra_triplings)
HIGH_T = (900, 1500, 2500, 4000)


def _seeded_dyadics(rng, bound):
    """Both ends of [-bound, bound] and seeded dyadics inside it, one of
    them in [-1, 1], where every reduction step is an extra one."""
    return [dyadic(-bound), dyadic(bound)] + [
        dyadic(rng.randint(-b << 16, b << 16), -16) for b in (1, bound, bound)]


@pytest.mark.parametrize("t", HIGH_T)
def test_point_evaluators_honest_at_high_precision(t):
    rng = random.Random(f"points-{t}")
    tol = Fraction(1, 2 ** t)
    for x in _seeded_dyadics(rng, 16):
        lo, hi = oracles.exp_bounds(x.as_fraction(), t + 12)
        assert lo - tol <= intervals._exp_point(x, t).as_fraction() <= hi + tol
    for x in _seeded_dyadics(rng, 60):
        slo, shi = oracles.sin_bounds(x.as_fraction(), t + 12)
        sv = intervals._sincos_point(x, t, want_sin=True)
        assert slo - tol <= sv.as_fraction() <= shi + tol
        clo, chi = oracles.cos_bounds(x.as_fraction(), t + 12)
        cv = intervals._sincos_point(x, t, want_sin=False)
        assert clo - tol <= cv.as_fraction() <= chi + tol


# ln of a full-width argument, exp(r) rounded down, for r whose window
# (kernels.ln_reduced) takes e = 0 and e != 0, with u on both sides of
# 1.  Only at 13000 bits does the series' error, scaled by the 2**s of
# kernels.extra_sqrts, outgrow the series kernel's width slack.
LN_FULL_WIDTH = [(t, r) for t in HIGH_T
                 for r in ("1.15", "0.25", "-0.2", "-2.3")
                 ] + [(13000, "1.15"), (13000, "-2.3")]


@pytest.mark.parametrize("t, r", LN_FULL_WIDTH)
def test_ln_point_honest_on_full_width_arguments(t, r):
    n, err = oracles.ln_of_floor_exp(Fraction(r), t + 16)
    got = intervals._ln_point(dyadic(n, -(t + 16)), t).as_fraction()
    assert abs(got - Fraction(r)) <= Fraction(1, 2 ** t) + err


CLEAN = (
    "1 + 2 * 3",
    "exp(1) - exp(0 - 1)",
    "sin(pi / 4) * cos(pi / 4)",
    "ln(7) / ln(2)",
    "tan(1) - sin(1) / cos(1)",
    "pi * pi / 7",
    "exp(sin(3) + cos(3))",
    "(1 + 0.5) / (2 - 0.25)",
)


@pytest.mark.parametrize("text", CLEAN)
@pytest.mark.parametrize("k", (4, 16, 48))
def test_eval_interval_encloses_oracle(text, k):
    e = lang.parse_expression(text)
    res = eval_interval(e, k)
    assert res.requested_precision == k
    lo, hi = oracles.eval_expr_bounds(e, k + 40)
    # the enclosure must contain the true value, pinned by the oracle
    assert res.interval.lo.as_fraction() <= hi
    assert lo <= res.interval.hi.as_fraction()
    if res.converged:
        assert res.interval.width() <= dyadic(1, 1 - k)


def test_eval_interval_converges_on_clean_corpus():
    for text in CLEAN:
        res = eval_interval(lang.parse_expression(text), 30)
        assert res.converged


def test_eval_interval_domain_failures():
    with pytest.raises(DomainViolation):
        eval_interval(lang.parse_expression("ln(0 - 2)"), 10)
    with pytest.raises(DomainUndetermined):
        eval_interval(lang.parse_expression("ln(sin(pi))"), 10)
    with pytest.raises(DomainUndetermined):
        eval_interval(lang.parse_expression("1 / sin(pi)"), 10)
    with pytest.raises(DomainUndetermined):
        eval_interval(lang.parse_expression("tan(pi / 2)"), 10)


def _far_exp_bounds(lo, hi, bits):
    # exp over [lo, hi] past exp_bounds' range |x| <= 16, as exp(x / 8)**8
    return oracles.snap_outward(
        oracles.exp_bounds(Fraction(lo) / 8, bits)[0] ** 8,
        oracles.exp_bounds(Fraction(hi) / 8, bits)[1] ** 8, bits + 64)


def _tower_bounds(bits):
    # exp(exp(exp(1.5))), whose outer argument is near 88.2
    return _far_exp_bounds(*oracles.eval_expr_bounds(
        lang.parse_expression("exp(exp(1.5))"), bits), bits)


def _ln_exp_20_bounds(bits):
    # ln(exp(-20)), taking ln of both ends of the inner enclosure
    lo, hi = _far_exp_bounds(-20, -20, bits)
    return oracles.ln_bounds(lo, bits)[0], oracles.ln_bounds(hi, bits)[1]


def _expr_bounds(text):
    return lambda bits: oracles.eval_expr_bounds(
        lang.parse_expression(text), bits)


# each case with its passes at the widths k + 12, 2k + 24 and 4k + 48
# (True if the enclosure is within 2**(1-k), False if it is wider, None
# if the pass raised DomainUndetermined) and its oracle, if it returns
RETRY_CASES = {
    "second-width": ("exp(exp(2.5))", 10, [(22, False), (44, True)],
                     _expr_bounds("exp(exp(2.5))")),
    "third-width": ("exp(exp(exp(1.5)))", 50,
                    [(62, False), (124, False), (248, True)],
                    _tower_bounds),
    "unconverged": ("exp(exp(exp(1.5)))", 10,
                    [(22, False), (44, False), (88, False)],
                    _tower_bounds),
    "domain-retry": ("ln(exp(0 - 20))", 1,
                     [(13, None), (26, None), (52, True)],
                     _ln_exp_20_bounds),
    "domain-undetermined": ("ln(exp(0 - 200))", 1,
                            [(13, None), (26, None), (52, None)], None),
}


@pytest.mark.parametrize("case", sorted(RETRY_CASES))
def test_retry_schedule(case, monkeypatch):
    text, k, passes, bounds = RETRY_CASES[case]
    e = lang.parse_expression(text)
    honest = intervals._eval
    seen = []

    def recording(node, w, sh):
        if node is not e:
            return honest(node, w, sh)
        try:
            iv = honest(node, w, sh)
        except DomainUndetermined:
            seen.append((w, None))
            raise
        seen.append((w, iv.width() <= dyadic(1, 1 - k)))
        return iv

    monkeypatch.setattr(intervals, "_eval", recording)
    if bounds is None:
        with pytest.raises(DomainUndetermined):
            eval_interval(e, k)
        assert seen == passes
        return
    res = eval_interval(e, k)
    assert seen == passes
    assert res.converged == passes[-1][1]
    # converged or not, the enclosure holds the oracle's, taken far finer
    lo, hi = bounds(k + 240)
    assert res.interval.lo.as_fraction() <= lo
    assert hi <= res.interval.hi.as_fraction()


def test_sin_cos_enclosures_stay_in_unit_range():
    for text in ("sin(1000000)", "cos(123456)"):
        res = eval_interval(lang.parse_expression(text), 8)
        assert res.interval.lo >= -ONE
        assert res.interval.hi <= ONE


def test_conformance_check_passes_clean_expressions():
    for text in CLEAN:
        for k in (4, 12, 24):
            rep = conformance_check(lang.parse_expression(text), k)
            assert rep.passed, text
            assert rep.precision == k
    r = conformance_check(lang.parse_expression("pi"), 10)
    assert "conformance ok" in str(r)


@pytest.mark.parametrize("text", (
    "exp(pi)", "sin(7)", "cos(3) * cos(3) + sin(3) * sin(3)", "tan(1.5)",
    "exp(sin(7))", "sin(3 * 7)"))
def test_conformance_check_at_high_precision(text):
    rep = conformance_check(lang.parse_expression(text), 2500)
    assert rep.passed and rep.converged, text


def test_conformance_check_catches_disagreement(monkeypatch):
    from certreal import creal

    honest = creal.grid_round

    def shifted(n, a, k):
        # 2**(1-k), as before the grid carried integers
        return honest(n, a, k) + 2

    monkeypatch.setattr(creal, "grid_round", shifted)
    rep = conformance_check(lang.parse_expression("1 + 2 * 3"), 20)
    assert not rep.passed


def test_each_backend_keeps_its_own_rounding(monkeypatch):
    # the shared reductions round every step through the rounding their
    # caller passes: creal.grid_round, looked up at each call, for the
    # approximation backend, so a fault injected there reaches every
    # step; and round_scaled for the interval backend, which such a fault
    # must not reach.  ln's reduction rounds nothing to a grid (its
    # square roots are integer floors), so the fault must not reach the
    # interval backend's ln either.  A literal argument takes binary
    # splitting instead (kernels.literal_split_pays), so the reductions
    # are reached through arguments that are sums
    from certreal import creal, functions, kernels

    honest = creal.grid_round
    exp3 = intervals._exp_point(dyadic(3), 2000)
    sin7 = intervals._sincos_point(dyadic(7), 2000, want_sin=True)
    ln3 = intervals._ln_point(dyadic(3), 2000)
    # 3 and 7 need 3 halvings and 2 triplings for their range
    cases = ((functions.exp(creal.const(1) + 2),
              3 + kernels.extra_halvings(2000)),
             (functions.sin(creal.const(3) + 4),
              2 + kernels.extra_triplings(2000)))
    grids = Counter()

    def counting(n, a, k):
        grids[k] += 1
        return honest(n, a, k)

    monkeypatch.setattr(creal, "grid_round", counting)
    for node, steps in cases:
        grids.clear()
        node.approx(2000)
        # every step of the reduction rounds to one working grid
        assert max(grids.values()) >= steps, grids
    # the literal route rounds once, through creal.grid_round, at raw
    # precision j = 2002 to the 2**-(j+1) grid, and approx rounds again
    for node in (functions.exp(3), functions.sin(7), functions.cos(7)):
        grids.clear()
        node.approx(2000)
        assert grids == Counter({2003: 1, 2001: 1}), grids

    def broken(n, a, k):
        raise AssertionError("interval backend used creal.grid_round")

    monkeypatch.setattr(creal, "grid_round", broken)
    assert intervals._exp_point(dyadic(3), 2000) == exp3
    assert intervals._sincos_point(dyadic(7), 2000, want_sin=True) == sin7
    assert intervals._ln_point(dyadic(3), 2000) == ln3


def test_tan_evaluates_its_argument_once(monkeypatch):
    # each nesting level adds the same three nodes (tan, /, 4), so the
    # number of _eval calls must grow by a constant step; evaluating the
    # argument of tan more than once makes it grow geometrically instead
    honest = intervals._eval
    calls = 0

    def counting(e, w, sh):
        nonlocal calls
        calls += 1
        return honest(e, w, sh)

    monkeypatch.setattr(intervals, "_eval", counting)
    counts = []
    text = "1"
    for _ in range(6):
        text = f"tan({text}) / 4"
        calls = 0
        assert eval_interval(lang.parse_expression(text), 20).converged
        counts.append(calls)
    steps = {b - a for a, b in zip(counts, counts[1:])}
    assert steps == {3}, counts


IDENTITY = "sin(0.62) * sin(0.62) + cos(0.62) * cos(0.62)"


def test_repeated_calls_evaluate_once_per_pass(monkeypatch):
    honest = intervals._sincos_point
    calls = Counter()

    def counting(d, t, want_sin):
        calls[t, want_sin] += 1
        return honest(d, t, want_sin)

    monkeypatch.setattr(intervals, "_sincos_point", counting)
    for k in (20, 300):
        calls.clear()
        assert eval_interval(lang.parse_expression(IDENTITY), k).converged
        # one working precision per pass, and one sin and one cos at each
        passes = {t for t, _ in calls}
        assert set(calls) == {(t, s) for t in passes for s in (True, False)}
        assert set(calls.values()) == {1}


MEMO_CORPUS = [
    IDENTITY,
    "exp(0.5) * exp(0.5) - exp(2 * 0.5)",
    "pi * pi - tan(pi / 5) * tan(pi / 5) + ln(pi)",
    "1 / (exp(0.3) - 1) + 1 / (exp(0.3) - 1)",
]


@pytest.mark.parametrize("text", MEMO_CORPUS)
def test_pass_memo_moves_no_enclosure(text):
    e = lang.parse_expression(text)
    on = lang.Sharing(e)
    off = lang.Sharing(e)
    off.enclosures = None
    assert on.enclosures is not None
    for k in (0, 7, 64, 500):
        assert eval_interval(e, k, on) == eval_interval(e, k, off)


def test_memo_spans_the_two_sides_of_a_query(monkeypatch):
    honest = intervals._sincos_point
    calls = Counter()

    def counting(d, t, want_sin):
        calls[t, want_sin] += 1
        return honest(d, t, want_sin)

    monkeypatch.setattr(intervals, "_sincos_point", counting)
    out = prover.prove("sin(0.62) < sin(0.62) + 1", backend="interval")
    assert isinstance(out, prover.Proved)
    # the query's Sharing carries the memo across both sides and every
    # precision of the deepening schedule
    assert calls and set(calls.values()) == {1}


class _NoEnclosureMemo(lang.Sharing):
    __slots__ = ()

    def __init__(self, root):
        super().__init__(root)
        self.enclosures = None


@pytest.mark.parametrize("text", MEMO_CORPUS)
def test_query_memo_moves_no_outcome(text, monkeypatch):
    queries = [f"{text} < {text} + 1", f"{text} > 1"]
    on = [prover.outcome_jsonable(
        prover.prove(q, backend="both", max_precision=200), True)
        for q in queries]
    monkeypatch.setattr(lang, "Sharing", _NoEnclosureMemo)
    off = [prover.outcome_jsonable(
        prover.prove(q, backend="both", max_precision=200), True)
        for q in queries]
    assert on == off
