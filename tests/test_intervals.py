"""Outward interval arithmetic and the independent enclosure evaluator."""

import dis
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from certreal import intervals, lang, prover
from certreal.dyadic import ONE, ZERO, ceil_scaled, dyadic, floor_scaled
from certreal.errors import DomainUndetermined, DomainViolation
from certreal.intervals import Interval, conformance_check, eval_interval

dyadics = st.builds(dyadic, st.integers(-(1 << 80), 1 << 80),
                    st.integers(-90, 40))


@st.composite
def boxes(draw):
    a = draw(dyadics)
    b = draw(dyadics)
    return Interval(min(a, b), max(a, b))


def _value(p):
    """The value of a pair (n, a), meaning n * 2**-a."""
    n, a = p
    return Fraction(n, 1 << a) if a >= 0 else Fraction(n << -a)


def _scaled(iv, w):
    """A box rounded outward onto the 2**-w grid, as ints at scale w: a
    box that holds it, as the interval backend carries one."""
    lo, hi = iv.lo, iv.hi
    return (floor_scaled(lo.mantissa, -lo.exponent, w),
            ceil_scaled(hi.mantissa, -hi.exponent, w))


def _hull(lo, hi, w):
    return Fraction(lo, 1 << w), Fraction(hi, 1 << w)


_SPAN = (0, 0)


def _eval_on_boxes(op, a, b, w):
    """intervals._eval of `x op y` at w (of `-x` for op None), where the
    enclosures of the calls x and y are the boxes a and b on the 2**-w
    grid, put in the pass memo."""
    x = lang.Call("exp", lang.Num(1, 1, _SPAN), _SPAN)
    y = lang.Call("sin", lang.Num(1, 1, _SPAN), _SPAN)
    sh = lang.Sharing(lang.BinOp("+", x, y, _SPAN))
    sh.enclosures = {(sh.ids[id(x)], w): _scaled(a, w),
                     (sh.ids[id(y)], w): _scaled(b, w)}
    e = lang.Neg(x, _SPAN) if op is None else lang.BinOp(op, x, y, _SPAN)
    return intervals._eval(e, w, sh)


def test_interval_invariants():
    with pytest.raises(ValueError):
        Interval(ONE, ZERO)
    iv = Interval(ZERO, ONE)
    assert iv.width() == ONE
    assert iv.contains(dyadic(1, -3))
    assert not iv.contains(dyadic(-1))
    assert iv.contains_zero() and not iv.strictly_positive()
    assert Interval(ONE, ONE).width().is_zero()


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
    ga, gb = _hull(*_scaled(a, w), w), _hull(*_scaled(b, w), w)
    for op, f in (("+", lambda x, y: x + y), ("-", lambda x, y: x - y),
                  ("*", lambda x, y: x * y)):
        values = [f(xa, xb) for xa in ga for xb in gb]
        lo, hi = _hull(*_eval_on_boxes(op, a, b, w), w)
        assert lo <= min(values) and max(values) <= hi
        # sums and differences are exact, products one step outward
        step = 0 if op != "*" else Fraction(1, 1 << w)
        assert min(values) - lo <= step and hi - max(values) <= step
    lo, hi = _scaled(a, w)
    assert _eval_on_boxes(None, a, b, w) == (-hi, -lo)


@given(boxes(), st.integers(4, 120))
def test_irecip_contains_and_guards(b, w):
    # the reciprocal is the quotient of the point 1 by b on the grid
    blo, bhi = _scaled(b, w)
    if blo <= 0 <= bhi:
        with pytest.raises(DomainUndetermined):
            _eval_on_boxes("/", Interval(ONE, ONE), b, w)
        return
    lo, hi = _hull(*_eval_on_boxes("/", Interval(ONE, ONE), b, w), w)
    for xb in _hull(blo, bhi, w):
        assert lo <= 1 / xb <= hi


@given(boxes(), boxes(), st.integers(4, 120))
def test_idiv_contains_endpoint_quotients(a, b, w):
    blo, bhi = _scaled(b, w)
    if blo <= 0 <= bhi:
        return
    lo, hi = _hull(*_eval_on_boxes("/", a, b, w), w)
    for xa in _hull(*_scaled(a, w), w):
        for xb in _hull(blo, bhi, w):
            assert lo <= xa / xb <= hi


@given(boxes(), boxes(), st.integers(4, 120))
def test_tan_quotient_contains_endpoint_quotients(a, b, w):
    # tan divides its sin and cos enclosures at w + 4 into one at w,
    # through the reciprocal at w + 2
    (alo, ahi), (blo, bhi) = _scaled(a, w + 4), _scaled(b, w + 4)
    if blo <= 0 <= bhi:
        return
    lo, hi = _hull(*intervals._div(alo, ahi, blo, bhi, 4, w), w)
    for xa in _hull(alo, ahi, w + 4):
        for xb in _hull(blo, bhi, w + 4):
            assert lo <= xa / xb <= hi


@settings(max_examples=40)
@given(st.fractions(min_value=-8, max_value=8, max_denominator=10 ** 5),
       st.integers(4, 110))
def test_point_evaluators_honest(v, t):
    tol = Fraction(1, 2 ** t)
    x = (round(v * (1 << 40)), 40)
    xf = _value(x)
    lo, hi = oracles.exp_bounds(xf, t + 12)
    assert lo - tol <= _value(intervals._exp_point(x, t)) <= hi + tol
    slo, shi = oracles.sin_bounds(xf, t + 12)
    sv = intervals._sincos_point(x, t, want_sin=True)
    assert slo - tol <= _value(sv) <= shi + tol
    clo, chi = oracles.cos_bounds(xf, t + 12)
    cv = intervals._sincos_point(x, t, want_sin=False)
    assert clo - tol <= _value(cv) <= chi + tol
    if xf > 0:
        llo, lhi = oracles.ln_bounds(xf, t + 12)
        assert llo - tol <= _value(intervals._ln_point(x, t)) <= lhi + tol


# past the widths where the reductions start to run deeper than the
# argument's range needs (kernels.extra_halvings, extra_triplings)
HIGH_T = (900, 1500, 2500, 4000)


def _seeded_dyadics(rng, bound):
    """Both ends of [-bound, bound] and seeded dyadics inside it, one of
    them in [-1, 1], where every reduction step is an extra one, as
    pairs (n, a) meaning n * 2**-a."""
    return [(-bound, 0), (bound, 0)] + [
        (rng.randint(-b << 16, b << 16), 16) for b in (1, bound, bound)]


@pytest.mark.parametrize("t", HIGH_T)
def test_point_evaluators_honest_at_high_precision(t):
    rng = random.Random(f"points-{t}")
    tol = Fraction(1, 2 ** t)
    for x in _seeded_dyadics(rng, 16):
        lo, hi = oracles.exp_bounds(_value(x), t + 12)
        assert lo - tol <= _value(intervals._exp_point(x, t)) <= hi + tol
    for x in _seeded_dyadics(rng, 60):
        slo, shi = oracles.sin_bounds(_value(x), t + 12)
        sv = intervals._sincos_point(x, t, want_sin=True)
        assert slo - tol <= _value(sv) <= shi + tol
        clo, chi = oracles.cos_bounds(_value(x), t + 12)
        cv = intervals._sincos_point(x, t, want_sin=False)
        assert clo - tol <= _value(cv) <= chi + tol


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
    got = _value(intervals._ln_point((n, t + 16), t))
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
            lo, hi = honest(node, w, sh)
        except DomainUndetermined:
            seen.append((w, None))
            raise
        # the width (hi - lo) 2**-w against 2**(1-k)
        seen.append((w, Fraction(hi - lo, 1 << w) <= Fraction(2, 1 << k)))
        return lo, hi

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


@pytest.mark.parametrize("text, k", [
    ("exp(0.3) * sin(1.2) - cos(0.7) / (2 + 0.5) * -exp(0 - 1.5)", 40),
    ("exp(exp(2.5))", 10),      # converges on the second pass
])
def test_eval_interval_builds_only_its_endpoints(text, k, monkeypatch):
    # the passes run on int pairs: the one Interval returned holds the
    # only two BigDyadic objects built
    import importlib

    dy = importlib.import_module("certreal.dyadic")
    e = lang.parse_expression(text)
    built = []
    real = dy._new

    def counting(cls):
        built.append(cls)
        return real(cls)

    monkeypatch.setattr(dy, "_new", counting)
    res = eval_interval(e, k)
    assert res.converged
    assert len(built) == 2


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
    "exp(sin(7))", "sin(3 * 7)", "tan(0.7 * 2)", "tan(tan(0.9))",
    "sin(0.5 + 2) * sin(0.5 + 2) + cos(0.5 + 2) * cos(0.5 + 2)"))
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
    exp3 = intervals._exp_point((3, 0), 2000)
    sin7 = intervals._sincos_point((7, 0), 2000, want_sin=True)
    ln3 = intervals._ln_point((3, 0), 2000)
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
    assert intervals._exp_point((3, 0), 2000) == exp3
    assert intervals._sincos_point((7, 0), 2000, want_sin=True) == sin7
    assert intervals._ln_point((3, 0), 2000) == ln3


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


def _count_points(monkeypatch):
    honest = intervals._sincos_point
    calls = Counter()

    def counting(d, t, want_sin):
        calls[t, want_sin] += 1
        return honest(d, t, want_sin)

    monkeypatch.setattr(intervals, "_sincos_point", counting)
    return calls


def test_repeated_calls_evaluate_once_per_pass(monkeypatch):
    calls = _count_points(monkeypatch)
    for k in (20, 300):
        calls.clear()
        assert eval_interval(lang.parse_expression(IDENTITY), k).converged
        # sin and cos of one argument: one pair (want_sin None) per
        # working precision, and a working precision per pass
        assert {want for _, want in calls} == {None}
        assert set(calls.values()) == {1}


def test_sharing_pairs_the_arguments_under_sin_and_cos(monkeypatch):
    e = lang.parse_expression(
        "sin(0.5) * cos(0.5) + sin(0.7) - cos(0.9) + tan(0.5)")
    sh = lang.Sharing(e)
    half = sh.ids[id(e.lhs.lhs.lhs.lhs.arg)]
    assert sh.paired == {half}
    # an unpaired sin or cos keeps its own reduction, and tan takes a
    # pair of its own, four bits finer
    calls = _count_points(monkeypatch)
    assert eval_interval(e, 20, sh).converged
    assert Counter(want for _, want in calls) == {None: 2, True: 1, False: 1}


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
    calls = _count_points(monkeypatch)
    # the query's Sharing carries the memo across both sides and every
    # precision of the deepening schedule: one sin per precision, or one
    # pair per (argument, precision) where sin and cos or tan share it
    for query, want in (("sin(0.62) < sin(0.62) + 1", True),
                        ("sin(0.62) < cos(0.62) + 1", None),
                        ("tan(0.62) < tan(0.62) + 1", None)):
        calls.clear()
        out = prover.prove(query, backend="interval")
        assert isinstance(out, prover.Proved)
        assert calls and set(calls.values()) == {1}
        assert {w for _, w in calls} == {want}, query


def _worst_pair(sign):
    """kernels.sincos_reduced with pairs off by nearly their whole
    2**-t, the sine by sign and the cosine the other way; an exact
    argument, as the interval backend passes."""
    honest = intervals.kernels.sincos_reduced

    def pair(arg, bound, t, want_sin, rnd):
        if want_sin is not None:
            return honest(arg, bound, t, want_sin, rnd)
        n, a = arg(0)
        x, s = _value((n, a)), t + 16
        off = sign * (Fraction(1, 1 << t) - Fraction(1, 1 << (t + 8)))
        (slo, shi), (clo, chi) = (oracles.sin_bounds(x, s + 4),
                                  oracles.cos_bounds(x, s + 4))
        return (round(((slo + shi) / 2 + off) * (1 << s)),
                round(((clo + chi) / 2 - off) * (1 << s))), s
    return pair


def test_pair_enclosures_hold_under_a_worst_pair(monkeypatch):
    # the pair is taken within 2**-(w+2) at the midpoint and widened by
    # that and the radius; a pair that spends all of it must still leave
    # the oracle values of both ends and the midpoint inside
    rng = random.Random("pairs")
    for sign in (1, -1):
        monkeypatch.setattr(intervals.kernels, "sincos_reduced",
                            _worst_pair(sign))
        for w in (12, 40, 100):
            for _ in range(6):
                lo = rng.randint(-5 << w, 5 << w)
                for hi in (lo, lo + 1, lo + rng.randint(2, 1 << (w // 2))):
                    encl = intervals._sincos_enclosure(lo, hi, None, w)
                    for v in (lo, hi, Fraction(lo + hi, 2)):
                        x = Fraction(v, 1 << w)
                        for (elo, ehi), bounds in zip(
                                encl, (oracles.sin_bounds,
                                       oracles.cos_bounds)):
                            flo, fhi = bounds(x, w + 20)
                            assert elo <= flo * (1 << w)
                            assert fhi * (1 << w) <= ehi, (sign, w, lo, hi)


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
