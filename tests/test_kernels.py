"""The series layer: kernel ulp-level honesty against the rational
oracles, and the "within 2**-t" contract of a kernel run to a target
(kernels._fixed) over each kernel's whole argument range."""

import ast
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from certreal import kernels
from certreal.dyadic import div_nearest, round_scaled

widths = st.integers(20, 400)
caps = st.integers(1, 80)


def _blanket(cap: int, w: int) -> Fraction:
    return Fraction(8 * cap + 16, 1 << w)


@settings(max_examples=60)
@given(widths, caps, st.fractions(min_value=Fraction(-5, 8),
                                  max_value=Fraction(5, 8),
                                  max_denominator=1 << 24))
def test_exp_kernel_honest(w, cap, x):
    r = round(x * (1 << w))
    s = kernels.exp_series(r, w, cap)
    rr = Fraction(r, 1 << w)
    lo, hi = oracles.exp_bounds(rr, w + 10)
    # tail after cap terms: |r|**cap / cap! / (1 - 5/8), rounded up to 3
    fact = 1
    for i in range(2, cap + 1):
        fact *= i
    tail = 3 * abs(rr) ** cap / fact
    err = _blanket(cap, w) + tail + (hi - lo)
    assert abs(Fraction(s, 1 << w) - (lo + hi) / 2) <= err


@settings(max_examples=60)
@given(widths, caps, st.fractions(min_value=Fraction(-9, 8),
                                  max_value=Fraction(9, 8),
                                  max_denominator=1 << 24))
def test_sin_cos_kernels_honest(w, cap, x):
    r = round(x * (1 << w))
    rr = Fraction(r, 1 << w)
    fact = 1
    for i in range(2, 2 * cap + 2):
        fact *= i
    tail_sin = abs(rr) ** (2 * cap + 1) / fact
    tail_cos = abs(rr) ** (2 * cap) * (2 * cap + 1) / fact
    for series, bounds, tail in (
            (kernels.sin_series, oracles.sin_bounds, tail_sin),
            (kernels.cos_series, oracles.cos_bounds, tail_cos)):
        s = series(r, w, cap)
        lo, hi = bounds(rr, w + 10)
        err = _blanket(cap, w) + tail + (hi - lo)
        assert abs(Fraction(s, 1 << w) - (lo + hi) / 2) <= err


@settings(max_examples=60)
@given(widths, caps, st.fractions(min_value=Fraction(-5, 8),
                                  max_value=Fraction(5, 8),
                                  max_denominator=1 << 24))
def test_ln1p_kernel_honest(w, cap, x):
    t = round(x * (1 << w))
    tt = Fraction(t, 1 << w)
    s = kernels.ln1p_series(t, w, cap)
    lo, hi = oracles._ln_series(tt, w + 10)
    tail = 3 * abs(tt) ** (cap + 1) / (cap + 1)
    err = _blanket(cap, w) + tail + (hi - lo)
    assert abs(Fraction(s, 1 << w) - (lo + hi) / 2) <= err


def test_kernels_deterministic():
    w = 128
    r = (3 << w) // 5
    a = kernels.exp_series(r, w, 40)
    b = kernels.exp_series(r, w, 40)
    assert a == b


# -- a kernel run to a target: pair in, pair within 2**-t out -------------
#
# The kernel tests above pass their own cap; these check the caps and
# working widths kernels._fixed chooses.  Arguments run up to the ends of
# each kernel's range, where the caps are tightest.

_KERNELS = {
    "exp": (kernels.exp_series, kernels._cap_exp, Fraction(5, 8),
            oracles.exp_bounds),
    "sin": (kernels.sin_series, kernels._cap_sin, Fraction(9, 8),
            oracles.sin_bounds),
    "cos": (kernels.cos_series, kernels._cap_cos, Fraction(9, 8),
            oracles.cos_bounds),
    "ln1p": (kernels.ln1p_series, kernels._cap_ln1p, Fraction(5, 8),
             oracles._ln_series),
}


def _targets(rng):
    return [8, 600] + [rng.randint(8, 600) for _ in range(6)]


def _value(pair):
    """The value of a pair (n, a), meaning n * 2**-a."""
    n, a = pair
    return Fraction(n, 1 << a)


def _assert_within(got, lo, hi, t):
    tol = Fraction(1, 1 << t)
    assert lo - tol <= _value(got) <= hi + tol


@pytest.mark.parametrize("name", sorted(_KERNELS))
def test_wrapper_within_target(name):
    series, cap_of, bound, enclosure = _KERNELS[name]
    rng = random.Random(name)
    for t in _targets(rng):
        # exponents past the working width exercise the argument rounding
        e = rng.randint(3, 48)
        end = int(bound * (1 << e))
        for m in (end, -end, rng.randint(-end, end)):
            lo, hi = enclosure(Fraction(m, 1 << e), t + 20)
            _assert_within(kernels._fixed(series, cap_of, m, e, t), lo, hi,
                           t)


# -- term caps: the same integers as the linear scans ----------------------

def _cap_targets():
    # every small target, plus seeded ones up to where the reference
    # ln1p scan takes a few tenths of a second
    rng = random.Random("caps")
    return list(range(601)) + sorted(rng.randint(601, 8000)
                                     for _ in range(20))


@pytest.mark.parametrize("name", ["exp", "sin", "cos", "ln1p"])
def test_cap_equals_linear_scan(name):
    cap = getattr(kernels, "_cap_" + name)
    reference = getattr(oracles, "_cap_" + name)
    for t in _cap_targets():
        assert cap(t) == reference(t), t


@pytest.mark.parametrize("name,p,q", [("exp", 5, 8), ("sin", 9, 8),
                                      ("cos", 9, 8)])
def test_cap_is_the_split_count_at_the_range_bound(name, p, q):
    # the kernels' caps are the splitting series' term counts at the
    # range bound; the two reference scans must agree on that
    cap = getattr(oracles, "_cap_" + name)
    count = getattr(oracles, f"_cap_{name}_split")
    for t in _cap_targets():
        assert cap(t) == count(t, p, q), t


# the Machin pair, both ends of atan_rat's range, zero, and two others
_ATAN_ARGS = [(1, 5), (1, 239), (1, 2), (-1, 2), (0, 3), (3, 7), (-2, 5)]


@pytest.mark.parametrize("p,q", _ATAN_ARGS)
def test_atan_cap_equals_linear_scan(p, q):
    # atan_split's term count against the alternating series' own rule:
    # stop before the first term of size at most 2**-(t+1)
    for t in _cap_targets():
        assert (kernels._count(kernels._atan(t, p, q, False))
                == oracles._cap_atan(t, p, q)), t


# -- binary splitting and the constants built on it ------------------------

# the Machin pair, ln 2's 1/3, both ends of the range, zero, the ends of
# ln_window's range, a literal's window and one other
_SPLIT_ARGS = [(1, 5), (1, 239), (1, 3), (1, 2), (-1, 2), (0, 3), (-1, 5),
               (1, 7), (-217, 1383), (3, 7), (-2, 5)]


@pytest.mark.parametrize("p,q", _SPLIT_ARGS)
def test_split_cap_equals_linear_scan(p, q):
    for t in _cap_targets():
        for h in (False, True):
            assert (kernels._count(kernels._atan(t, p, q, h))
                    == oracles._cap_split(t, p, q, h)), (t, h)


def _atanh_bounds(p, q, bits):
    # atanh(u) = ln((1 + u) / (1 - u)) / 2
    lo, hi = oracles.ln_bounds(Fraction(q + p, q - p), bits)
    return lo / 2, hi / 2


def test_atan_wrapper_within_target():
    # atan_rat's route: atan_split at an exact p/q, q even, up to |p/q| = 1/2
    rng = random.Random("atan")
    for t in _targets(rng):
        q = 2 * rng.randint(1, 1 << 20)
        for p in (q // 2, -(q // 2), rng.randint(-(q // 2), q // 2)):
            lo, hi = oracles.atan_bounds(p, q, t + 20)
            _assert_within(kernels.atan_split(p, q, t), lo, hi, t)


def test_atan_split_within_target():
    rng = random.Random("split")
    for t in _targets(rng):
        q = rng.randint(2, 1 << 20)
        for p in (q // 2, -(q // 2), rng.randint(-(q // 2), q // 2)):
            lo, hi = oracles.atan_bounds(p, q, t + 20)
            _assert_within(kernels.atan_split(p, q, t), lo, hi, t)
            lo, hi = _atanh_bounds(p, q, t + 20)
            _assert_within(kernels.atan_split(p, q, t, hyperbolic=True),
                           lo, hi, t)


# -- binary splitting of exp, sin and cos at an exact rational -------------

# zero, both signs, |x| up to 6, q in {1, 20, 25, 100} and a 7-digit q
_LITERALS = [(0, 1), (1, 1), (-6, 1), (7, 20), (-119, 20), (-3, 25),
             (149, 25), (137, 100), (-599, 100), (2718281, 1000003),
             (-5999999, 1000003)]

_LITERAL_SERIES = {
    "exp": (kernels._exp, oracles._cap_exp_split, oracles.exp_bounds,
            lambda p, q, t: kernels.exp_split(p, q, t)),
    "sin": (kernels._sin, oracles._cap_sin_split, oracles.sin_bounds,
            lambda p, q, t: kernels.sincos_split(p, q, t, True)),
    "cos": (kernels._cos, oracles._cap_cos_split, oracles.cos_bounds,
            lambda p, q, t: kernels.sincos_split(p, q, t, False)),
}


def _literal_targets():
    rng = random.Random("literal-caps")
    return list(range(200)) + sorted(rng.randint(200, 8000)
                                      for _ in range(12))


@pytest.mark.parametrize("name", sorted(_LITERAL_SERIES))
def test_literal_count_equals_linear_scan(name):
    series, reference = _LITERAL_SERIES[name][:2]
    for p, q in _LITERALS:
        for t in _literal_targets():
            assert kernels._count(series(t, p, q)) == reference(t, p, q), \
                (p, q, t)


def _exact_sum(name, p, q, n):
    # the first n terms of the series, as one exact rational
    x = Fraction(p, q)
    total, term = Fraction(0), Fraction(1) if name != "sin" else x
    for k in range(n):
        total += term
        if name == "exp":
            term *= x / (k + 1)
        elif name == "sin":
            term *= -x * x / ((2 * k + 2) * (2 * k + 3))
        else:
            term *= -x * x / ((2 * k + 1) * (2 * k + 2))
    return total


@pytest.mark.parametrize("shift", [-5, 0, 5])
@pytest.mark.parametrize("name", sorted(_LITERAL_SERIES))
def test_literal_split_sums_the_least_count(monkeypatch, name, shift):
    # the split counts its terms from its own products, starting near
    # a guess; off by `shift`, it must still sum exactly the least
    # count of terms and round that sum once, to the nearest point of
    # the 2**-(t+1) grid (ties to even)
    guess = kernels._fact_guess
    monkeypatch.setattr(kernels, "_fact_guess",
                        lambda s, p, q: max(0, guess(s, p, q) + shift))
    split, reference = _LITERAL_SERIES[name][3], _LITERAL_SERIES[name][1]
    rng = random.Random(f"{name}-sum")
    for p, q in _LITERALS:
        for t in (0, 1, 7, rng.randint(8, 200), rng.randint(200, 1200)):
            exact = _exact_sum(name, p, q, reference(t, p, q))
            scaled = exact * (1 << (t + 1))
            want = div_nearest(scaled.numerator, scaled.denominator)
            got = split(p, q, t)
            assert got == (want, t + 1), (p, q, t)


@pytest.mark.parametrize("name", sorted(_LITERAL_SERIES))
def test_literal_split_within_target(name):
    split, bounds = _LITERAL_SERIES[name][3], _LITERAL_SERIES[name][2]
    rng = random.Random(f"{name}-split")
    for t in _targets(rng):
        for p, q in _LITERALS:
            lo, hi = bounds(Fraction(p, q), t + 20)
            _assert_within(split(p, q, t), lo, hi, t)


@pytest.mark.parametrize("name", ["pi", "ln2"])
def test_constant_within_target(name):
    within, bounds = {"pi": (kernels.pi_within, oracles.pi_bounds),
                      "ln2": (kernels.ln2_within, oracles.ln2_bounds)}[name]
    rng = random.Random(name)
    for t in [4, 5, 6, 7] + _targets(rng) + [900, 4000]:
        lo, hi = bounds(t + 20)
        _assert_within(within(t), lo, hi, t)


def test_constants_against_independent_routes_at_20000_bits():
    t = 20000
    # pi: p = pi + d with 3 < p < 16/5 leaves |d| < 1/5, where
    # |sin p| = |sin d| >= |d| (1 - d**2/6) > 0.99 |d|; sin p within
    # 2**-(t+2) and at most 2**-(t+1) in size then gives |d| < 2**-t
    p = kernels.pi_within(t)
    assert 3 < _value(p) < Fraction(16, 5)
    s = kernels.sincos_reduced(lambda _: p, 4, t + 2, True, round_scaled)
    assert abs(_value(s)) <= Fraction(1, 1 << (t + 1))
    tol = Fraction(2, 1 << t)
    # ln 2 = -ln(1 - 1/2)
    ln2 = -_value(kernels._fixed(kernels.ln1p_series, kernels._cap_ln1p,
                                 -1, 1, t))
    assert abs(_value(kernels.ln2_within(t)) - ln2) <= tol


# -- sin and cos as one pair ------------------------------------------------

def _pair_args(t):
    """(n, a, bound): both ends of [-bound, bound] for bounds that are
    powers of 3, arguments just inside and just past 3**m, where the
    reduction takes one division more, and a seeded one, as n * 2**-a."""
    rng = random.Random(f"pair-{t}")
    args = [(b * sign, 0, b) for b in (1, 27) for sign in (1, -1)]
    for p3 in (3, 27):
        args += [((p3 << 40) - 1, 40, p3), (-(p3 << 40) - 1, 40, p3 + 1)]
    n = rng.randint(-60 << 20, 60 << 20)
    return args + [(n, 20, -(-abs(n) >> 20))]


@pytest.mark.parametrize("t", [900, 1500, 2500, 4000])
def test_sincos_pair_within_target(t):
    # sincos_reduced with want_sin None: sin and cos from one reduction,
    # on exact arguments and under readers whose every value is off by
    # its whole 2**-s, each way
    tol = Fraction(1, 1 << t)
    for n, a, bound in _pair_args(t):
        x = Fraction(n, 1 << a)
        bounds = (oracles.sin_bounds(x, t + 12), oracles.cos_bounds(x, t + 12))
        for sign in (0, 1, -1):
            def reader(s):
                return (n << (s + 2 - a)) + 4 * sign, s + 2

            values, w = kernels.sincos_reduced(reader, bound, t, None,
                                               round_scaled)
            for v, (lo, hi) in zip(values, bounds):
                assert lo - tol <= Fraction(v, 1 << w) <= hi + tol, (x, sign)


def _worst_sin_series(sign):
    """A sine kernel off by nearly its whole target 2**-t, in the
    direction of sign (t from the wrappers' width rule)."""
    def series(r, w, cap):
        t = w - 2 - (8 * cap + 16).bit_length()
        lo, hi = oracles.sin_bounds(Fraction(r, 1 << w), w + 8)
        return round(((lo + hi) / 2 + sign * (Fraction(1, 1 << t)
                                              - Fraction(4, 1 << w)))
                     * (1 << w))
    return series


def test_pair_start_spends_its_share(monkeypatch):
    # kernels.py "Pair": from an exact argument in [-1, 1] (no division
    # by 3, up to 1295 bits), the pair comes back as it starts: S within
    # 2**-(ts+2) of sin x and C within 2**-(ts+1) + 2**-s of cos x, with
    # ts = t + 4.  A sine kernel that spends its whole target pushes C
    # to tan x 2**-(ts+2), about 0.39 2**-ts near |x| = 1
    for sign in (1, -1):
        monkeypatch.setattr(kernels, "sin_series", _worst_sin_series(sign))
        for t in (8, 61, 300, 1200):
            ts = t + 4
            for n, a in ((1, 0), (-1, 0), ((1 << 30) - 1, 30), (3, 2)):
                x = Fraction(n, 1 << a)
                (s, c), w = kernels.sincos_reduced(lambda _: (n, a), 1, t,
                                                   None, round_scaled)
                slo, shi = oracles.sin_bounds(x, w + 8)
                clo, chi = oracles.cos_bounds(x, w + 8)
                tol = Fraction(1, 1 << (ts + 2))
                assert slo - tol <= Fraction(s, 1 << w) <= shi + tol
                tol = Fraction(1, 1 << (ts + 1)) + Fraction(1, 1 << w)
                assert clo - tol <= Fraction(c, 1 << w) <= chi + tol, \
                    (sign, t, x)


@settings(max_examples=200)
@given(st.integers(1, 10 ** 30), st.integers(1, 10 ** 30))
def test_ln_window(a, b):
    e, p, q = kernels.ln_window(a, b)
    assert q > 0 and gcd(p, q) == 1
    assert Fraction(-1, 5) < Fraction(p, q) <= Fraction(1, 7)
    assert Fraction(a, b) == Fraction(2) ** e * Fraction(q + p, q - p)


def _three_bits(r):
    return r % (1 << max(0, r.bit_length() - 3)) == 0


def test_ladder_rung():
    for j in range(2049):
        # the least r >= j whose binary digits after the leading three
        # are zero
        r = j
        while not _three_bits(r):
            r += 1
        assert kernels.ladder_rung(j) == r, j
        assert r == j if j < 8 else j <= r < 1.25 * j
    rng = random.Random("rungs")
    for j in (rng.randint(2049, 1 << 22) for _ in range(200)):
        r = kernels.ladder_rung(j)
        assert _three_bits(r) and j <= r < 1.25 * j, j


def _tree(module):
    return ast.parse(Path(module.__file__).read_text())


def test_kernels_boundary_carries_integer_pairs():
    # the kernels take and return pairs (n, a), meaning n * 2**-a, so
    # kernels.py imports no dyadic type, and neither backend takes a
    # dyadic apart to read a kernel's result
    from certreal import functions, intervals

    imported = {a.name for node in ast.walk(_tree(kernels))
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for a in node.names}
    assert not imported & {"BigDyadic", "dyadic"}, imported
    for module in (functions, intervals):
        read = {node.attr for node in ast.walk(_tree(module))
                if isinstance(node, ast.Attribute)}
        assert not read & {"mantissa", "exponent"}, module.__name__
