"""Transcendental nodes against the exact-rational oracles."""

import os
import random
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from certreal import creal, functions, lang
from certreal.creal import ApartnessCertificate, const, find_apart
from certreal.dyadic import ZERO
from certreal.errors import InvalidCertificate, ResourceExhausted
from certreal.functions import atan_rat, cos, exp, ln, pi, sin, tan


def _tol(k):
    return Fraction(1, 2 ** k)


def _check(node, k, lo, hi):
    q = node.approx(k).as_fraction()
    assert lo - _tol(k) <= q <= hi + _tol(k), (float(q), float(lo), float(hi))


@settings(max_examples=60)
@given(st.fractions(min_value=-10, max_value=10, max_denominator=10 ** 6),
       st.integers(2, 120))
def test_exp_honest(v, k):
    lo, hi = oracles.exp_bounds(v, k + 10)
    _check(exp(const(v)), k, lo, hi)


@settings(max_examples=60)
@given(st.fractions(min_value=-40, max_value=40, max_denominator=10 ** 6),
       st.integers(2, 120))
def test_sin_cos_honest(v, k):
    slo, shi = oracles.sin_bounds(v, k + 10)
    _check(sin(const(v)), k, slo, shi)
    clo, chi = oracles.cos_bounds(v, k + 10)
    _check(cos(const(v)), k, clo, chi)


@settings(max_examples=60)
@given(st.fractions(min_value=Fraction(1, 1000), max_value=1000,
                    max_denominator=10 ** 6),
       st.integers(2, 120))
def test_ln_honest(v, k):
    cert = find_apart(const(v))
    assert cert is not None
    lo, hi = oracles.ln_bounds(v, k + 10)
    _check(ln(const(v), cert), k, lo, hi)


@settings(max_examples=40)
@given(st.integers(1, 10 ** 6), st.integers(-500, 500), st.integers(2, 100))
def test_atan_rat_honest(q, p2, k):
    p = int(Fraction(p2 * q, 1000))  # truncation keeps |p/q| <= 1/2
    lo, hi = oracles.atan_bounds(p, q, k + 10)
    _check(atan_rat(p, q), k, lo, hi)


@pytest.mark.parametrize("k", [600, 1000])
@pytest.mark.parametrize("q", [1 << 20, 1 << 64])
def test_atan_rat_honest_at_high_precision(q, k):
    for p in (q // 2 - 1, 1 - q // 2):
        lo, hi = oracles.atan_bounds(p, q, k + 10)
        _check(atan_rat(p, q), k, lo, hi)


def test_atan_rat_rejects_out_of_range():
    with pytest.raises(ValueError):
        atan_rat(2, 3)
    with pytest.raises(ValueError):
        atan_rat(1, 0)
    # negative denominators are normalized
    assert atan_rat(1, -5).approx(20) == -atan_rat(1, 5).approx(20)


def test_tan_at_one():
    cert = find_apart(cos(const(1)))
    assert cert is not None
    t = tan(const(1), cert)
    slo, shi = oracles.sin_bounds(Fraction(1), 80)
    clo, chi = oracles.cos_bounds(Fraction(1), 80)
    _check(t, 60, slo / chi, shi / clo)


def test_tan_is_one_node_certified_by_one_search(monkeypatch):
    certified = []
    honest = creal.find_apart

    def recording(x, *args):
        certified.append(x)
        return honest(x, *args)

    monkeypatch.setattr(creal, "find_apart", recording)
    t = lang.elaborate(lang.parse_expression("tan(0.5)"))
    # one search, on a cos node of the tan's own argument, whose
    # certificate the tan node carries
    assert len(certified) == 1
    co = certified[0]
    assert isinstance(t, functions._Tan)
    assert isinstance(co, functions._SinCos) and not co.want_sin
    assert co.x is t.x and t.cert == honest(co)
    with pytest.raises(InvalidCertificate):
        tan(const(1, 2), ApartnessCertificate(1, -1))


def _count_reductions(monkeypatch):
    calls = []
    real = functions.kernels.sincos_reduced

    def counting(*args):
        calls.append(args[3])
        return real(*args)

    monkeypatch.setattr(functions.kernels, "sincos_reduced", counting)
    return calls


def test_nested_tan_reads_one_pair_per_level(monkeypatch):
    # approx(256) of tan nested d deep: each level computes one pair at
    # the precision its parent asks for, and the coarse reads for the
    # argument bounds are left in the memos by elaboration
    calls = _count_reductions(monkeypatch)
    for d in range(1, 9):
        x = lang.elaborate(lang.parse_expression("tan(" * d + "0.2"
                                                 + ")" * d))
        calls.clear()
        x.approx(256)
        assert len(calls) <= 2 * d + 2, (d, len(calls))
        assert set(calls) == {None}


# Above about 300 bits for exp and 1300 for sin and cos the reductions
# run deeper than the argument's range needs (kernels.extra_halvings,
# kernels.extra_triplings); these precisions are all past those points.
HIGH_K = (900, 1500, 2500, 4000)


def _seeded_args(name, k, bound):
    """Both ends of [-bound, bound] and seeded rationals inside it, one
    of them in [-1, 1], where every reduction step is an extra one."""
    rng = random.Random(f"{name}-{k}")
    inside = []
    for b in (1, bound, bound):
        q = rng.randint(1, 10 ** 4)
        inside.append(Fraction(rng.randint(-b * q, b * q), q))
    return [Fraction(-bound), Fraction(bound)] + inside


@pytest.mark.parametrize("k", HIGH_K)
def test_exp_honest_at_high_precision(k):
    for v in _seeded_args("exp", k, 16):
        lo, hi = oracles.exp_bounds(v, k + 10)
        _check(exp(const(v)), k, lo, hi)


@pytest.mark.parametrize("k", HIGH_K)
def test_sin_cos_tan_honest_at_high_precision(k):
    for v in _seeded_args("sincos", k, 60):
        slo, shi = oracles.sin_bounds(v, k + 10)
        _check(sin(const(v)), k, slo, shi)
        clo, chi = oracles.cos_bounds(v, k + 10)
        _check(cos(const(v)), k, clo, chi)
        assert not clo <= 0 <= chi
        tlo, thi = oracles._imul(slo, shi, 1 / chi, 1 / clo)
        _check(tan(const(v), find_apart(cos(const(v)))), k, tlo, thi)


# Literal exp, sin and cos: an exact rational argument, or its negation,
# takes binary splitting (kernels.literal_split_pays).  Both signs,
# |x| up to 6, q in {1, 20, 25, 100} and a 7-digit q.
_LITERAL_Q = (1, 20, 25, 100, 1000003)


def _literal_args(k):
    rng = random.Random(f"literal-{k}")
    return [Fraction(6), Fraction(-6)] + [
        Fraction(rng.randint(-6 * q, 6 * q), q) for q in _LITERAL_Q]


def _literal_node(v):
    # a negative literal as the parser builds "(-x)": the negation of a
    # positive constant
    return const(v) if v >= 0 else -const(-v)


def _spy_splits(monkeypatch):
    calls = []
    for name in ("exp_split", "sincos_split"):
        real = getattr(functions.kernels, name)

        def spy(*args, _real=real):
            calls.append(args)
            return _real(*args)

        monkeypatch.setattr(functions.kernels, name, spy)
    return calls


@pytest.mark.parametrize("k", HIGH_K)
def test_literal_exp_sin_cos_honest_at_high_precision(monkeypatch, k):
    monkeypatch.setattr(functions.kernels, "literal_split_pays",
                        lambda x, t: True)
    calls = _spy_splits(monkeypatch)
    for v in _literal_args(k):
        x = _literal_node(v)
        lo, hi = oracles.exp_bounds(v, k + 10)
        _check(exp(x), k, lo, hi)
        slo, shi = oracles.sin_bounds(v, k + 10)
        _check(sin(x), k, slo, shi)
        clo, chi = oracles.cos_bounds(v, k + 10)
        _check(cos(x), k, clo, chi)
    assert len(calls) == 3 * len(_literal_args(k))


def _switch_k(v):
    # the least k whose raw precision k + 2 takes the splitting route
    return next(k for k in range(4000)
                if functions.kernels.literal_split_pays(v, k + 2))


def test_literal_routes_agree_where_the_predicate_switches(monkeypatch):
    args = [Fraction(137, 100), Fraction(-599, 100), Fraction(3),
            Fraction(-2718281, 1000003)]
    for v, k0 in [(v, _switch_k(v)) for v in args]:
        for k in (k0 - 1, k0, k0 + 1):
            routes = []
            for split in (True, False):
                monkeypatch.setattr(functions.kernels, "literal_split_pays",
                                    lambda x, t: split)
                routes.append([f(_literal_node(v)).approx(k).as_fraction()
                               for f in (exp, sin, cos)])
            for a, b in zip(*routes):
                assert abs(a - b) <= _tol(k), (v, k)


def test_huge_literals_keep_the_reduction(monkeypatch):
    # a split would need millions of terms here: the predicate keeps
    # the reduction, its answers and its typed errors
    calls = _spy_splits(monkeypatch)
    cases = [("exp(-100000.5)", 2000), ("sin(1000000000)", 3000),
             ("cos(-1000000000.5)", 4000), ("exp(-100000.5)", 20000)]
    got = [lang.elaborate(lang.parse_expression(text)).approx(k)
           for text, k in cases]
    with pytest.raises(ResourceExhausted):
        exp(const(10 ** 9)).approx(10)
    assert not calls
    monkeypatch.setattr(functions.kernels, "literal_split_pays",
                        lambda x, t: False)
    assert got == [lang.elaborate(lang.parse_expression(text)).approx(k)
                   for text, k in cases]
    assert got[0] == ZERO


# ln of a full-width argument, exp(r) rounded down, for r whose window
# (kernels.ln_reduced) takes e = 0 and e != 0, with u on both sides of
# 1.  Only at 13000 bits does the series' error, scaled by the 2**s of
# kernels.extra_sqrts, outgrow the series kernel's width slack.
LN_FULL_WIDTH = [(k, r) for k in HIGH_K
                 for r in ("1.15", "0.25", "-0.2", "-2.3")
                 ] + [(13000, "1.15"), (13000, "-2.3")]


@pytest.mark.parametrize("k, r", LN_FULL_WIDTH)
def test_ln_honest_on_full_width_arguments(k, r):
    n, err = oracles.ln_of_floor_exp(Fraction(r), k + 16)
    x = const(n, 1 << (k + 16))
    got = ln(x, find_apart(x)).approx(k).as_fraction()
    assert abs(got - Fraction(r)) <= _tol(k) + err


def test_ln_certificate_errors():
    neg_cert = find_apart(const(-2))
    assert neg_cert is not None and neg_cert.sign == -1
    with pytest.raises(InvalidCertificate):
        ln(const(-2), neg_cert)
    fake = ApartnessCertificate(2, 1)
    with pytest.raises(InvalidCertificate):
        ln(const(-2), fake)
    with pytest.raises(InvalidCertificate):
        ln(const(0), fake)


def test_pi_machin_against_oracle():
    lo, hi = oracles.pi_bounds(220)
    _check(pi(), 200, lo, hi)


def test_pi_routes_agree():
    k = 100
    a = pi().approx(k)
    b = pi("cos_iteration").approx(k)
    assert abs((a - b).as_fraction()) <= 2 * _tol(k)
    c = pi("leibniz").approx(10)
    assert abs(c.as_fraction() - a.as_fraction()) <= _tol(10) + _tol(100)


def test_pi_leibniz_cap():
    assert pi("leibniz", leibniz_cap=30) is not pi("leibniz")
    with pytest.raises(ResourceExhausted):
        pi("leibniz").approx(functions.DEFAULT_LEIBNIZ_CAP + 1)
    small = functions._PiLeibniz(6)
    with pytest.raises(ResourceExhausted):
        small.approx(7)
    assert small.approx(6) is not None


def test_pi_argument_validation():
    with pytest.raises(ValueError):
        pi("archimedes")
    with pytest.raises(ValueError):
        pi("machin", leibniz_cap=10)
    with pytest.raises(ValueError):
        functions._PiLeibniz(-1)


def test_pi_nodes_cached():
    assert pi() is pi()
    assert pi("cos_iteration") is pi("cos_iteration")
    assert pi("leibniz") is pi("leibniz", leibniz_cap=24)


def _in_threads(fn, n=8):
    # the barrier releases all n threads at once, so they race on the
    # first lookups instead of running one after another
    barrier = threading.Barrier(n)
    results = [None] * n

    def worker(i):
        barrier.wait()
        results[i] = fn()

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results


def test_shared_nodes_one_per_key_under_threads():
    functions._SHARED_NODES.clear()
    results = _in_threads(lambda: (pi(), functions._ln2()))
    assert len({id(p) for p, _ in results}) == 1
    assert len({id(l2) for _, l2 in results}) == 1
    assert functions._SHARED_NODES[("machin",)] is results[0][0]
    assert functions._SHARED_NODES[("ln2",)] is results[0][1]


def test_threads_approximate_shared_expression_identically():
    text = "exp(pi) - pi * ln(2)"
    expected = lang.elaborate(lang.parse_expression(text)).approx(300)
    # fresh shared nodes, so the threads race on cold memos
    functions._SHARED_NODES.clear()
    x = lang.elaborate(lang.parse_expression(text))
    assert _in_threads(lambda: x.approx(300)) == [expected] * 8


def test_cos_iteration_modulus_table():
    mod = functions._PiCosIter._modulus
    # contraction exponents 0, 4, 14, 44, 134: t(n+1) = 3 t(n) + 2
    assert mod(1) == 2
    assert mod(4) == 2
    assert mod(5) == 3
    assert mod(14) == 3
    assert mod(15) == 4
    assert mod(44) == 4
    assert mod(104) == 5
    assert mod(134) == 5


def test_cos_iteration_uses_few_sequence_elements():
    node = functions._PiCosIter()
    node.approx(100)
    # includes the starting element; precision 2**-100 needs five steps
    assert len(node._seq_nodes) <= 7


def test_cos_iteration_identical_under_threads():
    expected = functions._PiCosIter().approx(100)
    node = functions._PiCosIter()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch often, so the threads interleave
    try:
        results = _in_threads(lambda: node.approx(100))
    finally:
        sys.setswitchinterval(interval)
    assert results == [expected] * 8
    # the keys stay 0 .. len - 1, and each stored element is built from
    # the stored one before it, not from a duplicate that lost a race
    seq = node._seq_nodes
    assert sorted(seq) == list(range(len(seq)))
    assert all(seq[i].x is seq[i - 1] for i in range(1, len(seq)))


def test_sin_of_large_argument():
    slo, shi = oracles.sin_bounds(Fraction(50), 90)
    _check(sin(const(50)), 80, slo, shi)
    clo, chi = oracles.cos_bounds(Fraction(-63), 90)
    _check(cos(const(-63)), 80, clo, chi)


def test_exp_of_composite_argument():
    # a non-constant argument exercises the coarse-probe magnitude logic
    x = exp(pi())
    lo, hi = oracles.eval_expr_bounds(lang.parse_expression("exp(pi)"), 80)
    _check(x, 60, lo, hi)


def test_function_results_deterministic():
    a = exp(const(1, 3)).approx(90)
    b = exp(const(1, 3)).approx(90)
    assert a == b
    c = sin(pi()).approx(90)
    d = sin(pi()).approx(90)
    assert c == d


# -- ln of a literal, and the ladder under pi and ln 2 ----------------------

def _literal_ln(v, k):
    x = const(v)
    return ln(x, find_apart(x)).approx(k)


@pytest.mark.parametrize("split", [True, False])
def test_ln_literal_honest(monkeypatch, split):
    # both routes for every literal, whatever kernels.split_pays picks
    monkeypatch.setattr(functions.kernels, "split_pays", lambda q, t: split)
    rng = random.Random("ln-literal")
    cases = [(Fraction(rng.randint(1, 10 ** 5), 10 ** rng.randint(0, 5)),
              rng.randint(8, 600)) for _ in range(8)]
    cases += [(v, k) for k in (900, 4000)
              for v in (Fraction(3), Fraction(117, 100), Fraction(1, 10 ** 6))]
    for v, k in cases:
        lo, hi = oracles.ln_bounds(v, k + 10)
        got = _literal_ln(v, k).as_fraction()
        assert lo - _tol(k) <= got <= hi + _tol(k), (v, k)


def test_ln_literal_routes_agree_at_20000_bits(monkeypatch):
    k = 20000
    routes = []
    for split in (True, False):
        monkeypatch.setattr(functions.kernels, "split_pays",
                            lambda q, t: split)
        routes.append(_literal_ln(Fraction(1166, 100), k).as_fraction())
    assert abs(routes[0] - routes[1]) <= 2 * _tol(k)


def test_long_literal_keeps_the_series_route(monkeypatch):
    real = functions.kernels.atan_split
    calls = []

    def spy(p, q, t, hyperbolic=False):
        calls.append(q)
        return real(p, q, t, hyperbolic)

    monkeypatch.setattr(functions.kernels, "atan_split", spy)
    rng = random.Random("long-literal")
    long = Fraction(rng.randint(10 ** 99, 10 ** 100 - 1), 10 ** 99)
    for k in (1000, 4000, 13000):
        _literal_ln(long, k)
    # ln 2 (atanh(1/3)) is the only binary splitting run
    assert set(calls) <= {3}
    _literal_ln(Fraction(1166, 100), 1000)
    assert set(calls) - {3}


def test_short_ln_literal_still_splits(monkeypatch):
    # a 4-digit ln argument at 1000-1300 digits, as in the benchmark's
    # ln cell, keeps binary splitting under the refitted split_pays
    real = functions.kernels.atan_split
    calls = []

    def spy(p, q, t, hyperbolic=False):
        calls.append(q)
        return real(p, q, t, hyperbolic)

    monkeypatch.setattr(functions.kernels, "atan_split", spy)
    rng = random.Random("short-ln")
    for _ in range(6):
        v = Fraction(rng.randint(140, 1200), 100)
        k = rng.randint(3322, 4319)
        lo, hi = oracles.ln_bounds(v, k + 10)
        got = _literal_ln(v, k).as_fraction()
        assert lo - _tol(k) <= got <= hi + _tol(k), (v, k)
    assert len(set(calls) - {3}) >= 4


# Precisions asked of the pi and ln 2 ladders, on both sides of every
# rung boundary up to 3584 bits: approx(k) reads raw(k + 2), so
# k = rung - 2 reads the rung itself and k = rung - 1 the next one up.
# A ladder that rounds from another rung it happens to hold can give
# different bits there.
_LADDER_K = tuple(sorted({(m << s) - d for m in (4, 5, 6, 7)
                          for s in range(1, 10) for d in (1, 2)}))

# ln of a literal (binary splitting from j = 18 on) and of a sum
# (kernels.ln_reduced), both with e ln 2 from the ln 2 ladder
_LADDER_LN = ("ln(3)", "ln(1 + 2)")


def _ladder_bits():
    nodes = [pi(), functions._ln2()] + [
        lang.elaborate(lang.parse_expression(t)) for t in _LADDER_LN]
    return [f"{q.mantissa:x}:{q.exponent}" for k in _LADDER_K
            for q in (node.approx(k) for node in nodes)]


def _fresh_process_bits():
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), str(here)])
    proc = subprocess.run(
        [sys.executable, "-c", "import test_functions as t; "
         "print(*t._ladder_bits())"],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_ladder_bits_do_not_depend_on_history():
    fresh = _fresh_process_bits()
    functions._SHARED_NODES.clear()
    # a seeded warm-up fills other rungs and precisions first
    rng = random.Random("ladder-warmup")
    for _ in range(40):
        k = rng.randint(0, 7000)
        pi().approx(k)
        functions._ln2().approx(k)
    assert _ladder_bits() == fresh
    # and again, with every rung already computed
    assert _ladder_bits() == fresh


def test_ladder_bits_identical_under_threads():
    fresh = _fresh_process_bits()
    functions._SHARED_NODES.clear()
    assert _in_threads(_ladder_bits) == [fresh] * 8


def test_reductions_build_no_dyadic(monkeypatch):
    # exp and sin of a product of sums read their argument and return
    # through int pairs, and so do the binary-splitting routes: exp,
    # sin, cos and tan of a literal, ln of a literal whose window has
    # e = 4, atan_rat, and the pi and ln 2 ladders with their rungs
    # computed afresh.  No BigDyadic is built below approx, as for the
    # ring walk (test_creal.test_ring_walk_builds_no_dyadic)
    import importlib

    from certreal import kernels

    dy = importlib.import_module("certreal.dyadic")
    x = const(22, 7) + const(1, 3)
    y = const(-5, 3) - const(1, 5)
    half, lit = const(1, 2), const(1166, 100)
    nodes = (exp(x * y), sin(x * y), cos(x * y + 1), exp(const(137, 100)),
             sin(half), cos(-half), tan(half, find_apart(cos(half))),
             ln(lit, find_apart(lit)), atan_rat(1, 3),
             functions._Ladder(kernels.pi_within),
             functions._Ladder(kernels.ln2_within))
    built = []
    real = dy._new

    def counting(cls):
        built.append(cls)
        return real(cls)

    monkeypatch.setattr(kernels, "_RUNGS", {})
    monkeypatch.setattr(dy, "_new", counting)
    for node in nodes:
        node._raw(2000)
    assert built == []
