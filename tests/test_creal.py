"""Approximation contract, regularity, certificates, comparison."""

import itertools
import random
import sys
import threading
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from certreal import creal, functions, kernels
from certreal.creal import (ApartnessCertificate, Exhausted, Proved, Refuted,
                            archimedean_bound, cmp_semidecide, const,
                            deepening_schedule, div, find_apart, lim, recip,
                            scale2, series_sum)
from certreal.dyadic import _ALIGN_LIMIT, ONE, ZERO, dyadic, power_of_two
from certreal.errors import (ExponentOverflow, InvalidCertificate,
                             ResourceExhausted)
from certreal.prover import parse_predicate, pi01_sum

rationals = st.fractions(min_value=-1000, max_value=1000,
                         max_denominator=10 ** 9)
precisions = st.integers(0, 200)


def _tol(k):
    return Fraction(1, 2 ** k)


@given(rationals, precisions)
def test_const_honest(v, k):
    q = const(v).approx(k)
    assert abs(q.as_fraction() - v) <= _tol(k)
    assert q.is_zero() or q.exponent >= -(k + 1)


# small random arithmetic dags with their exact rational value alongside
def _dag(draw_vals):
    return st.recursive(
        st.builds(lambda v: ("const", v), draw_vals),
        lambda ops: st.one_of(
            st.builds(lambda a, b: ("add", a, b), ops, ops),
            st.builds(lambda a, b: ("sub", a, b), ops, ops),
            st.builds(lambda a, b: ("mul", a, b), ops, ops),
            st.builds(lambda a: ("neg", a), ops),
            st.builds(lambda a, s: ("scale", a, s), ops, st.integers(-8, 8)),
        ))


def _build(t):
    kind = t[0]
    if kind == "const":
        return const(t[1]), t[1]
    if kind == "neg":
        x, v = _build(t[1])
        return -x, -v
    if kind == "scale":
        x, v = _build(t[1])
        return scale2(x, t[2]), v * Fraction(2) ** t[2]
    a, va = _build(t[1])
    b, vb = _build(t[2])
    if kind == "add":
        return a + b, va + vb
    if kind == "sub":
        return a - b, va - vb
    return a * b, va * vb


dags = _dag(st.fractions(min_value=-50, max_value=50, max_denominator=999))


@settings(max_examples=150)
@given(dags, st.integers(0, 80), st.integers(0, 80))
def test_ring_ops_honest_and_regular(tree, k1, k2):
    x, v = _build(tree)
    q1, q2 = x.approx(k1), x.approx(k2)
    assert abs(q1.as_fraction() - v) <= _tol(k1)
    assert abs(q2.as_fraction() - v) <= _tol(k2)
    assert abs(q1.as_fraction() - q2.as_fraction()) <= _tol(k1) + _tol(k2)


@settings(max_examples=60)
@given(dags, st.integers(0, 60))
def test_rebuild_bit_identical(tree, k):
    xa, _ = _build(tree)
    xb, _ = _build(tree)
    assert xa.approx(k) == xb.approx(k)
    # a repeat call, served from the raw memo, gives the same bits
    assert xa.approx(k) == xa.approx(k)


def test_operator_coercions():
    x = const(3)
    assert (x + 1).approx(10).as_fraction() == 4
    assert (1 + x).approx(10).as_fraction() == 4
    assert (x - Fraction(1, 2)).approx(20).as_fraction() == Fraction(5, 2)
    assert (Fraction(1, 2) - x).approx(20).as_fraction() == Fraction(-5, 2)
    assert (x * dyadic(1, -2)).approx(20).as_fraction() == Fraction(3, 4)
    assert (dyadic(1, -2) * x).approx(20).as_fraction() == Fraction(3, 4)
    assert (-x).approx(10).as_fraction() == -3
    with pytest.raises(TypeError):
        x + True
    with pytest.raises(TypeError):
        x * "2"


def test_precision_validation():
    x = const(1)
    with pytest.raises(TypeError):
        x.approx("3")
    with pytest.raises(ValueError):
        x.approx(-1)
    with pytest.raises(ResourceExhausted):
        x.approx(creal.PRECISION_LIMIT + 1)


@given(st.fractions(min_value=-100, max_value=100, max_denominator=10 ** 6),
       st.integers(0, 100))
def test_recip_honest(v, k):
    if v == 0:
        return
    x = const(v)
    cert = find_apart(x)
    assert cert is not None
    r = recip(x, cert)
    assert abs(r.approx(k).as_fraction() - 1 / v) <= _tol(k)


@given(st.fractions(min_value=-60, max_value=60, max_denominator=10 ** 4),
       st.fractions(min_value=-60, max_value=60, max_denominator=10 ** 4),
       st.integers(0, 80))
def test_div_honest(a, b, k):
    if b == 0:
        return
    cert = find_apart(const(b))
    assert cert is not None
    q = div(const(a), const(b), cert)
    assert abs(q.approx(k).as_fraction() - a / b) <= _tol(k)


def test_find_apart_basics():
    cert = find_apart(const(1))
    assert cert == ApartnessCertificate(2, 1)
    assert cert.lower_bound() == power_of_two(-2)
    neg = find_apart(const(-3, 7))
    assert neg is not None and neg.sign == -1
    # zero: every probe inconclusive; None is not a zero-proof
    assert find_apart(const(0), max_k=40) is None
    tiny = const(1, 1 << 50)
    assert find_apart(tiny, max_k=20) is None
    assert find_apart(tiny, max_k=60) is not None


def test_certificate_validation():
    with pytest.raises(ValueError):
        ApartnessCertificate(3, 0)
    with pytest.raises(ValueError):
        ApartnessCertificate(-1, 1)
    good = find_apart(const(5))
    with pytest.raises(InvalidCertificate):
        recip(const(0), good)
    wrong_sign = ApartnessCertificate(good.witness_precision, -good.sign)
    with pytest.raises(InvalidCertificate):
        recip(const(5), wrong_sign)


def test_deepening_schedule():
    assert list(deepening_schedule(1, 60)) == [1, 2, 4, 8, 16, 32, 60]
    assert list(deepening_schedule(5, 5)) == [5]
    assert list(deepening_schedule(0, 3)) == [0, 1, 2, 3]
    assert list(deepening_schedule(3, 100))[-1] == 100
    ks = list(deepening_schedule(2, 4096))
    assert all(b > a for a, b in zip(ks, ks[1:]))
    with pytest.raises(ValueError):
        list(deepening_schedule(5, 4))
    with pytest.raises(ValueError):
        list(deepening_schedule(-1, 4))


def test_lim_with_modulus():
    # x_n = 1 - 2**-n converges to 1 with the identity modulus
    x = lim(lambda n: const((1 << n) - 1, 1 << n), lambda k: k)
    q = x.approx(50)
    assert abs(q.as_fraction() - 1) <= _tol(50)


def test_lim_rejects_bad_callables():
    bad_mod = lim(lambda n: const(1), lambda k: -1)
    with pytest.raises(ValueError):
        bad_mod.approx(4)
    bad_seq = lim(lambda n: 1, lambda k: k)
    with pytest.raises(TypeError):
        bad_seq.approx(4)


def test_series_sum_geometric():
    s = series_sum(lambda n: const(1, 1 << n), lambda k: k + 1)
    for k in (0, 7, 30):
        assert abs(s.approx(k).as_fraction() - 2) <= _tol(k)


def test_series_sum_empty_and_bad():
    z = series_sum(lambda n: const(1), lambda k: 0)
    assert z.approx(10).is_zero()
    bad = series_sum(lambda n: const(1), lambda k: "many")
    with pytest.raises(ValueError):
        bad.approx(3)
    bad2 = series_sum(lambda n: 2.0, lambda k: k + 1)
    with pytest.raises(TypeError):
        bad2.approx(3)
    # also after a prefix of exact terms
    bad3 = series_sum(lambda n: power_of_two(-n) if n < 3 else 2.0,
                      lambda k: k + 1)
    with pytest.raises(TypeError):
        bad3.approx(3)


# -- series with exact terms ------------------------------------------------

def _exact_series():
    return series_sum(lambda n: power_of_two(-n) if n % 3 else ZERO,
                      lambda k: k + 2)


def _mixed_series():
    # exact terms 2**-n, except a CReal 3**-n at every n = 4 mod 5
    return series_sum(lambda n: const(1, 3 ** n) if n % 5 == 4
                      else power_of_two(-n), lambda k: k + 2)


# 2 - sum over n = 4 mod 5 of 2**-n, plus the same sum of 3**-n
_MIXED_VALUE = (2 - Fraction(1, 16) / (1 - Fraction(1, 32))
                + Fraction(1, 81) / (1 - Fraction(1, 243)))

_SERIES_PRECISIONS = list(range(0, 160, 7))


@pytest.mark.parametrize("make", [_exact_series, _mixed_series])
def test_series_approx_is_history_free(make):
    # the exact prefix a node keeps must not leak into any answer: each
    # precision gets the bits a fresh node gives, in any order of asking
    # (raw values too: approx rounds them once more, hiding a tie)
    fresh = {k: (make().approx(k), make()._raw(k)) for k in _SERIES_PRECISIONS}
    rng = random.Random(20261018)
    for order in (sorted(_SERIES_PRECISIONS),
                  sorted(_SERIES_PRECISIONS, reverse=True),
                  rng.sample(_SERIES_PRECISIONS, len(_SERIES_PRECISIONS))):
        node = make()
        for k in order:
            assert (node.approx(k), node._raw(k)) == fresh[k], (order, k)


def test_series_exact_terms_match_const_terms():
    # 2**-n on the per-term grid is exact as a const too, so the exact
    # route must give the same bits as the const route
    as_const = series_sum(lambda n: const(1, 1 << n) if n % 3 else const(0),
                          lambda k: k + 2)
    exact = _exact_series()
    for k in _SERIES_PRECISIONS:
        assert exact.approx(k) == as_const.approx(k), k


def test_series_mixed_terms_honest():
    s = _mixed_series()
    for k in _SERIES_PRECISIONS + [300]:
        assert abs(s.approx(k).as_fraction() - _MIXED_VALUE) <= _tol(k), k


_FAR = _ALIGN_LIMIT + 1


def _grid_round(v, k):
    """The dyadic v rounded to the 2**-k grid by creal.grid_round."""
    return dyadic(creal.grid_round(v.mantissa, -v.exponent, k), -k)


@pytest.mark.parametrize("terms,raises", [
    ([ONE, power_of_two(-_FAR)], True),
    ([power_of_two(-_FAR), ONE], True),
    ([ONE, ZERO, power_of_two(-_FAR)], True),
    ([power_of_two(-_FAR), ZERO, ONE], True),
    ([ONE, power_of_two(-_ALIGN_LIMIT)], False),
    ([power_of_two(-_ALIGN_LIMIT), ONE], False),
    # a zero term is never aligned, whatever its exponent and the others'
    ([ZERO, power_of_two(-_FAR)], False),
    ([power_of_two(-_FAR), ZERO], False),
    ([ZERO, power_of_two(_FAR), ZERO], False),
    ([ONE, -ONE, power_of_two(-_FAR)], False),
    # the span runs from the sum's canonical exponent, 0 here, not -1
    ([power_of_two(-1), power_of_two(-1), power_of_two(_ALIGN_LIMIT)],
     False),
])
def test_series_prefix_alignment_guard(terms, raises):
    # the exact prefix raises ExponentOverflow where a fold of BigDyadic
    # additions over the same terms does: at an alignment span over
    # _ALIGN_LIMIT between nonzero operands
    def fold():
        acc = ZERO
        for t in terms:
            acc = acc + t
        return acc

    node = series_sum(lambda n: terms[n], lambda k: len(terms))
    if raises:
        with pytest.raises(ExponentOverflow):
            fold()
        with pytest.raises(ExponentOverflow):
            node.approx(0)
        return
    want = fold()
    assert node.approx(0) == _grid_round(want, 1)
    count, m, e = node._prefix
    assert count == len(terms)
    assert dyadic(m, e) == want


_exact_terms = st.lists(
    st.one_of(st.just(ZERO),
              st.builds(dyadic, st.integers(-(1 << 40), 1 << 40),
                        st.integers(-120, 60))),
    min_size=1, max_size=40)


@given(_exact_terms, st.integers(0, 80))
@settings(max_examples=200)
def test_series_prefix_is_the_exact_sum(terms, k):
    # mixed signs and exponents and zeros: the stored prefix is the
    # Fraction sum of every term, and approx rounds it once
    node = series_sum(lambda n: terms[n], lambda k: len(terms))
    exact = sum((t.as_fraction() for t in terms), Fraction(0))
    q = node.approx(k)
    count, m, e = node._prefix
    assert count == len(terms)
    assert Fraction(m) * Fraction(2) ** e == exact
    assert q == _grid_round(_grid_round(dyadic(m, e), k + 3), k + 1)


def test_series_threads_identical():
    pred = parse_predicate("not 7 | n + 3")
    precisions = (5, 200, 60, 257, 30, 120)
    want = {k: pi01_sum(pred).approx(k) for k in precisions}
    node = pi01_sum(pred)
    results = []
    start = threading.Barrier(8)

    def worker(seed):
        start.wait()
        order = random.Random(seed).sample(precisions, len(precisions))
        results.extend((k, node.approx(k)) for k in order)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 8 * len(precisions)
    assert all(v == want[k] for k, v in results)


def test_cmp_semidecide_decides():
    out = cmp_semidecide(const(1), const(2))
    assert isinstance(out, Proved)
    assert out.relation == "<"
    assert out.lhs_enclosure.hi < out.rhs_enclosure.lo
    assert out.trace[-1].precision == out.precision

    out2 = cmp_semidecide(const(2), const(1))
    assert isinstance(out2, Refuted)
    assert out2.rhs_enclosure.hi < out2.lhs_enclosure.lo


def test_cmp_semidecide_greater_than():
    # outcome and enclosures stay in query orientation: lhs is x
    out = cmp_semidecide(const(2), const(1), relation=">")
    assert isinstance(out, Proved) and out.relation == ">"
    assert out.lhs_enclosure.lo > out.rhs_enclosure.hi
    assert out.lhs_enclosure.contains(dyadic(2))
    assert out.rhs_enclosure.contains(dyadic(1))

    out2 = cmp_semidecide(const(1), const(2), relation=">")
    assert isinstance(out2, Refuted) and out2.relation == ">"
    assert out2.lhs_enclosure.hi < out2.rhs_enclosure.lo
    assert out2.lhs_enclosure.contains(dyadic(1))


def test_cmp_semidecide_exhausts_on_equality():
    out = cmp_semidecide(const(7, 3), const(7, 3), max_k=16)
    assert isinstance(out, Exhausted)
    assert out.max_precision == 16
    assert [s.precision for s in out.trace] == [1, 2, 4, 8, 16]
    for s in out.trace:
        assert s.lhs.intersects(s.rhs)
        assert s.backend == "approx"
    assert str(out) == "Exhausted at precision 2^-16"


@given(st.fractions(min_value=-999, max_value=999, max_denominator=10 ** 6),
       st.fractions(min_value=-999, max_value=999, max_denominator=10 ** 6))
def test_cmp_semidecide_sound(a, b):
    if a == b:
        return
    out = cmp_semidecide(const(a), const(b), max_k=80)
    if a < b:
        assert isinstance(out, Proved)
    else:
        assert isinstance(out, Refuted)
    # certificate enclosures really contain the values
    assert out.lhs_enclosure.lo.as_fraction() <= a \
        <= out.lhs_enclosure.hi.as_fraction()
    assert out.rhs_enclosure.lo.as_fraction() <= b \
        <= out.rhs_enclosure.hi.as_fraction()


@given(rationals)
def test_archimedean_bound(v):
    n = archimedean_bound(const(v))
    assert isinstance(n, int)
    assert v < n <= v + Fraction(9, 4)


def test_thread_safety_identical_results():
    x = const(1, 3) * const(7, 5) + const(2, 9)
    results = []

    def worker():
        results.append(x.approx(60))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(set(results)) == 1


def test_node_footprint():
    # a node holds one memo dict and no lock; the dag walk makes a node
    # per operation, so this is per-operation overhead (here including
    # the Fraction and the list slot: 168 B on CPython 3.11)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        nodes = [const(1) for _ in range(10_000)]
        per_node = (tracemalloc.get_traced_memory()[0] - base) / len(nodes)
    finally:
        tracemalloc.stop()
    assert per_node <= 200, per_node


# -- budgets under leaves that spend their whole error ----------------------
#
# A const is far more exact than 2**-j, and that slack hides a missing
# bit in a budget above it.  _Worst is a leaf whose raw value at j is
# off by 2**-j, in the direction of its sign: exact + sign 2**-j, moved
# toward the exact value onto the raw grid 2**-(j+2) where it is not on
# it already.  Wherever the exact value lies on that grid the leaf is
# off by exactly 2**-j, so every budget in the dag above it is spent in
# full.

class _Worst(creal.CReal):
    __slots__ = ("exact", "sign")

    def __init__(self, exact, sign: int):
        super().__init__()
        self.exact, self.sign = exact, sign

    def _compute(self, j: int) -> int:
        f = self.exact * 2 ** (j + 2)
        return (f.__floor__() + 4) if self.sign > 0 else (f.__ceil__() - 4)


# magnitudes just under a power of two, where the operand bounds in _Mul
# are tightest, and odd mantissas with long expansions.  The last two
# are both: their squares lie just off the grids these tests round to,
# so a square read short lets the rounding carry its error past 2**-j.
# 15 + 2**-60 lies on no raw grid below j = 58, so its leaf spends up to
# a quarter less than its budget there; 15 - 2**-13 lies on every raw
# grid from j = 11 on, and its leaf spends the budget in full
_WORST_VALUES = (dyadic(15), dyadic(-15), dyadic(15, -4), dyadic(7, 5),
                 dyadic(3), dyadic(-341, -10), dyadic(0x5a3c96f1d3, -37),
                 dyadic((15 << 60) + 1, -60), dyadic((15 << 13) - 1, -13))


def _worst_leaves():
    return [(v.as_fraction(), s) for v in _WORST_VALUES for s in (1, -1)]


def _raw_value(node, j):
    """node's raw value at j, checked to be an int, as a Fraction."""
    n = node._raw(j)
    assert type(n) is int, (type(node), j, n)
    return Fraction(n, 1 << (j + 2))


def _assert_raw_honest(node, exact, js):
    for j in js:
        assert abs(_raw_value(node, j) - exact) <= _tol(j), j


def test_worst_leaf_spends_its_budget():
    # exactly 2**-j off wherever the exact value lies on the raw grid
    for exact, sign in _worst_leaves():
        leaf = _Worst(exact, sign)
        for j in range(48):
            err = (_raw_value(leaf, j) - exact) * sign
            assert 0 <= _tol(j) - err < _tol(j + 2), (exact, sign, j)
            if (exact * 2 ** (j + 2)).denominator == 1:
                assert err == _tol(j)


def test_ring_op_budgets_under_worst_leaves():
    for (va, sa), (vb, sb) in itertools.product(_worst_leaves(), repeat=2):
        x, y = _Worst(va, sa), _Worst(vb, sb)
        for node, exact in ((x + y, va + vb), (x - y, va - vb),
                            (x * y, va * vb), (-x, -va)):
            _assert_raw_honest(node, exact, range(48))
        # s = -5 and -3 reach j + s < 0, where _Scale2 rounds raw(0)
        for s in (-5, -3, 1, 4):
            _assert_raw_honest(scale2(x, s), va * Fraction(2) ** s,
                               range(48))
    # a product of one node with itself reads that node once (_Mul)
    for va, sa in _worst_leaves():
        x = _Worst(va, sa)
        _assert_raw_honest(x * x, va ** 2, range(48))


def test_recip_and_lim_budgets_under_worst_leaves():
    # a reciprocal's raw value lies on the 2**-(j+2) grid only, and a
    # worst leaf's on no coarser grid than its own, so a limit over
    # either meets raw values off its grid; the sequences, 1/b_m or
    # a worst leaf at L + sign 2**-m, spend the modulus k -> k in full
    off_grid = Counter()
    for va, sa in _worst_leaves():
        x = _Worst(va, sa)
        _assert_raw_honest(recip(x, find_apart(x)), 1 / va, range(48))
        for sign in (1, -1):
            def reciprocal(m, va=va, sa=sa, sign=sign):
                b = _Worst(1 / (1 / va + sign * _tol(m)), sa)
                return recip(b, find_apart(b))

            def leaf(m, va=va, sa=sa, sign=sign):
                return _Worst(va / 3 + sign * _tol(m), sa)

            for element, exact in ((reciprocal, 1 / va), (leaf, va / 3)):
                _assert_raw_honest(lim(element, lambda k: k), exact,
                                   range(48))
                off_grid[element.__name__] += sum(
                    element(j + 1)._raw(j + 1) & 1 for j in range(48))
    assert min(off_grid.values()) > 100, off_grid


def test_every_node_kind_has_an_int_raw_value():
    x = _Worst(Fraction(5, 7), 1)
    ln2 = functions._ln2()
    nodes = [const(3, 7), x + 1, x - 1, -x, scale2(x, -3), x * x, x * 3,
             recip(x, find_apart(x)), lim(lambda n: x, lambda k: 0),
             series_sum(lambda n: const(1, 1 << n), lambda k: k + 1),
             functions.exp(x), functions.sin(x), functions.cos(x),
             functions.tan(x, find_apart(functions.cos(x))),
             functions.ln(x, find_apart(x)), ln2, functions.atan_rat(1, 3),
             functions.pi(), functions.pi("leibniz"),
             functions.pi("cos_iteration")]
    kinds = set()
    stack = [creal.CReal]
    while stack:
        for sub in stack.pop().__subclasses__():
            stack.append(sub)
            if sub.__module__ in ("certreal.creal", "certreal.functions"):
                kinds.add(sub)
    assert {type(n) for n in nodes} == kinds
    # (the leibniz route sums about 2**j terms at raw(j))
    for node in nodes:
        for j in (0, 1, 5, 10):
            _raw_value(node, j)
        # regular, and approx agrees with the raw value at k + 2
        for j1, j2 in ((1, 10), (5, 10)):
            assert abs(_raw_value(node, j1) - _raw_value(node, j2)) <= \
                _tol(j1) + _tol(j2)
        assert abs(node.approx(3).as_fraction() - _raw_value(node, 5)) \
            <= _tol(3)


# dyadic arguments whose cosines, 0.93 down to 0.16 in size and of both
# signs, admit certificates from c = 2 to 4 (oracles.py bounds tan)
_TAN_VALUES = (dyadic(3, -3), dyadic(1), dyadic(5, -2), dyadic(45, -5),
               dyadic(-45, -5), dyadic(-341, -10), dyadic(15))


def test_tan_budget_under_worst_leaves():
    # functions._Tan: the pair at t = j + 2c + 4 and one rounding; a
    # weaker certificate (a larger c) makes the pair read finer.  c = 0
    # and 1 never certify a cosine: they need |approx(cos x, c)| above 2
    # and 1, which the approximations of a cosine do not reach
    import oracles

    covered = set()
    for v in _TAN_VALUES:
        exact = v.as_fraction()
        bounds = {}
        for j in range(48):
            slo, shi = oracles.sin_bounds(exact, j + 30)
            clo, chi = oracles.cos_bounds(exact, j + 30)
            bounds[j] = oracles._imul(slo, shi, 1 / chi, 1 / clo)
        sign = 1 if clo > 0 else -1
        for leaf_sign in (1, -1):
            x = _Worst(exact, leaf_sign)
            for c in range(5):
                try:
                    t = functions.tan(x, ApartnessCertificate(c, sign))
                except InvalidCertificate:
                    continue
                covered.add(c)
                for j in range(48):
                    lo, hi = bounds[j]
                    assert lo - _tol(j) <= _raw_value(t, j) <= hi + _tol(j), \
                        (v, leaf_sign, c, j)
    assert covered == {2, 3, 4}


def test_ring_walk_builds_no_dyadic(monkeypatch):
    # a fresh dag of constants, ring operations and a reciprocal walks
    # on ints alone: no BigDyadic is built below approx
    import importlib

    dy = importlib.import_module("certreal.dyadic")
    a, b = const(22, 7), const(-5, 3)
    d = a * b - a
    x = (d * d + recip(d, find_apart(d))) * -(a + b)
    built = []
    real = dy._new

    def counting(cls):
        built.append(cls)
        return real(cls)

    monkeypatch.setattr(dy, "_new", counting)
    x._raw(200)
    assert built == []


def test_series_budget_under_worst_terms():
    # a tight tail bound (the tail from k + 1 on is exactly 2**-k), and
    # CReal terms at every index, every other one or every fifth, each
    # off by its whole error at the per-term precision
    for every in (1, 2, 5):
        for sign in (1, -1):
            s = series_sum(lambda n: _Worst(Fraction(1, 1 << n), sign)
                           if n % every == 0 else power_of_two(-n),
                           lambda k: k + 1)
            _assert_raw_honest(s, Fraction(2), range(60))


def test_ladder_error_total_under_a_worst_source():
    # kernels.py "Constant ladder": raw(j) is within
    # 2**-(J+1) + 2**-(j+2) of the constant, J = ladder_rung(j); the
    # source within(t) is off by exactly 2**-t
    for exact, sign in _worst_leaves():
        # exact is a dyadic rational: its denominator a power of two
        v = dyadic(exact.numerator, 1 - exact.denominator.bit_length())
        node = functions._Ladder(lambda t: v + dyadic(sign, -t))
        for j in range(300):
            rung = kernels.ladder_rung(j)
            err = abs(_raw_value(node, j) - exact)
            assert err <= _tol(rung + 1) + _tol(j + 2), j
