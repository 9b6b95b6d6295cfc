"""Transcendental functions as computable-real nodes.

Each node derives coarse magnitude bounds from a cheap approximation
of the argument and hands the rest to the shared kernels layer
(kernels.py): exp, sin, cos and ln to its reductions, which read the
argument at the precision their budget needs and return a value within
2**-(j+1), and the constants, atan_rat, and exp, sin, cos and ln of a
literal (where the kernels' predicates say it pays) to its binary
splitting.  tan is one node (_Tan): sin and cos of its argument as
one pair from one reduction (or, for a literal, the two splits), then
one quotient rounded to the raw grid, with the precision of the cosine
certificate in its budget.  The reductions take and return scaled
integers: a node hands them its argument's raw values as pairs,
s -> (raw(s), s + 2), and gets back a pair (v, s) meaning v * 2**-s,
as it does from the binary splitting.  That pair becomes a raw value,
an int at scale 2**-(j+2), by one rounding to the 2**-(j+1) grid
(``_rounded``).
Every rounding here goes through creal.grid_round, looked up at each
call, and the last one puts the result within 2**-j of the true value.

Everything is integer arithmetic; there is no float anywhere on these
paths, so results are deterministic bit for bit.
"""

from __future__ import annotations

from typing import Callable

from . import creal as _cr
from . import kernels
from .creal import ApartnessCertificate, CReal, const, lim, series_sum
from .dyadic import div_nearest
from .errors import InvalidCertificate, ResourceExhausted
from .kernels import budget


def _rounded(v: int, s: int, j: int) -> int:
    """v * 2**-s rounded to the 2**-(j+1) grid, as a raw value at j."""
    return _cr.grid_round(v, s, j + 1) << 1


def _literal(x: CReal):
    """The exact rational value of a literal (a _Const, or the negation
    of one), else None."""
    if isinstance(x, _cr._Neg):
        x = x.x
        if isinstance(x, _cr._Const):
            return -x.value
    if isinstance(x, _cr._Const):
        return x.value
    return None


class _Exp(CReal):
    __slots__ = ("x",)

    def __init__(self, x: CReal):
        super().__init__()
        self.x = x

    def _compute(self, j: int) -> int:
        lit = _literal(self.x)
        if lit is not None and kernels.literal_split_pays(lit, j):
            # binary splitting within 2**-(j+2), the rounding 2**-(j+2)
            return _rounded(*kernels.exp_split(lit.numerator,
                                               lit.denominator, j + 2), j)
        # q0 = approx(x, 0) = h / 2: |x| <= |q0| + 1 and
        # x <= ceil(q0) + 1 = (h + 1) // 2 + 1
        h = self.x._grid(0)
        raw = self.x._raw
        return _rounded(*kernels.exp_reduced(
            lambda s: (raw(s), s + 2), ((h + 1) >> 1) + 1,
            _cr._log2_bound(h), j + 1, _cr.grid_round), j)


class _SinCos(CReal):
    __slots__ = ("x", "want_sin")

    def __init__(self, x: CReal, want_sin: bool):
        super().__init__()
        self.x = x
        self.want_sin = want_sin

    def _compute(self, j: int) -> int:
        lit = _literal(self.x)
        if lit is not None and kernels.literal_split_pays(lit, j):
            # as for exp
            return _rounded(*kernels.sincos_split(
                lit.numerator, lit.denominator, j + 2, self.want_sin), j)
        # |x| <= |approx(x, 0)| + 1 = (|h| + 2) / 2, at most the int
        # (|h| + 3) // 2
        bound = (abs(self.x._grid(0)) + 3) >> 1
        raw = self.x._raw
        return _rounded(*kernels.sincos_reduced(
            lambda s: (raw(s), s + 2), bound, j + 1, self.want_sin,
            _cr.grid_round), j)


class _Tan(CReal):
    """tan x = sin x / cos x, from one sine and cosine pair; cert
    certifies cos x apart from 0, so |cos x| > 2**-c for its witness
    precision c."""

    __slots__ = ("x", "cert")

    def __init__(self, x: CReal, cert: ApartnessCertificate):
        super().__init__()
        # revalidated against a fresh cos(x) node, which is sound
        # because approximations are deterministic
        if not cert.revalidate(_SinCos(x, want_sin=False)):
            raise InvalidCertificate(
                f"apartness certificate (k={cert.witness_precision}, "
                f"sign={cert.sign:+d}) does not hold for cos of the tan "
                f"argument")
        self.x, self.cert = x, cert

    def _compute(self, j: int) -> int:
        # |cos x| > 2**-k, k the certificate's witness precision; s and
        # c within e = 2**-t of sin x and cos x, t >= k + 1, so
        # |c| >= 2**-(k+1):
        #   |s/c - tan x| = |(s - sin x) cos x - sin x (c - cos x)|
        #                   / |c cos x|  <=  2e 2**(2k+1),
        # which is 2**-(j+2) at t = j + 2k + 4; the nearest point of the
        # 2**-(j+2) grid adds 2**-(j+3), (3/8) 2**-j in all.  One bit of
        # t is spare by this bound: at t - 1 the total is (5/8) 2**-j
        t = budget(j + 2 * self.cert.witness_precision + 4)
        lit = _literal(self.x)
        if lit is not None and kernels.literal_split_pays(lit, t):
            # the quotient reads no scale: s and c only have to share
            # one, as two splits at one t do
            p, q = lit.numerator, lit.denominator
            s, c = (kernels.sincos_split(p, q, t, want)[0]
                    for want in (True, False))
        else:
            bound = (abs(self.x._grid(0)) + 3) >> 1
            raw = self.x._raw
            (s, c), _ = kernels.sincos_reduced(
                lambda s: (raw(s), s + 2), bound, t, None, _cr.grid_round)
        return div_nearest(s << (j + 2) if c > 0 else -s << (j + 2),
                           abs(c))


class _Ln(CReal):
    __slots__ = ("x", "cert")

    def __init__(self, x: CReal, cert: ApartnessCertificate):
        super().__init__()
        if cert.sign < 0:
            raise InvalidCertificate(
                "ln needs its argument certified positive; this "
                "certificate proves it negative")
        if not cert.revalidate(x):
            raise InvalidCertificate(
                f"apartness certificate (k={cert.witness_precision}) "
                f"does not hold for the ln argument")
        self.x, self.cert = x, cert

    def _compute(self, j: int) -> int:
        a = _literal(self.x)
        if a is not None:
            # an exact rational whose window leaves a short atanh
            # argument: binary splitting (kernels.ln_window, split_pays).
            # e ln 2 within 2**-(j+2), 2 atanh within 2**-(j+2), the
            # rounding 2**-(j+2)
            e, p, q = kernels.ln_window(a.numerator, a.denominator)
            if kernels.split_pays(q, j):
                # twice atanh: the split's integer at scale 2**-(j+3)
                v, s = kernels.atan_split(p, q, j + 3, hyperbolic=True)
                s -= 1
                if e != 0:
                    # e ln 2 at scale 2**-(tl+2), finer than 2**-s
                    tl = budget(j + 2 + abs(e).bit_length())
                    v, s = (v << (tl + 2 - s)) + e * _ln2()._raw(tl), tl + 2
                return _rounded(v, s, j)
        raw, raw2 = self.x._raw, _ln2()._raw
        return _rounded(*kernels.ln_reduced(
            lambda s: (raw(s), s + 2), self.cert.witness_precision, j + 1,
            lambda s: (raw2(s), s + 2)), j)


# Raw values a ladder node keeps before it starts its memo over.
_LADDER_MEMO = 256


class _Ladder(CReal):
    """A constant read off a precision ladder (kernels.ladder_rung).

    within(t) must return the constant within 2**-t, as a pair (v, s)
    meaning v * 2**-s.  The raw value at j is rounded from the value at
    rung J = ladder_rung(j), computed once per rung (kernels.rung_value);
    see "Constant ladder" in kernels.py.
    """

    __slots__ = ("within",)

    def __init__(self, within: Callable[[int], tuple[int, int]]):
        super().__init__()
        self.within = within

    def _raw(self, j: int) -> int:
        # a stream of fresh precisions would grow the shared node's memo
        # by a value each; past _LADDER_MEMO values it starts over, and
        # a value it dropped costs one grid rounding of a kept rung
        memo = self._raw_memo
        if len(memo) >= _LADDER_MEMO and j not in memo:
            memo.clear()
        return super()._raw(j)

    def _compute(self, j: int) -> int:
        return _rounded(*kernels.rung_value(self.within, j), j)


# Process-wide constant nodes, so their memos are shared by every
# expression.  Two threads racing on a miss may both build a node, but
# setdefault keeps the first, so every caller gets the same one.
_SHARED_NODES: dict = {}


def _shared(key: tuple, build: Callable[[], CReal]) -> CReal:
    node = _SHARED_NODES.get(key)
    if node is None:
        node = _SHARED_NODES.setdefault(key, build())
    return node


def _ln2() -> CReal:
    return _shared(("ln2",), lambda: _Ladder(kernels.ln2_within))


class _AtanRat(CReal):
    """arctan(p/q) for an exact rational with |p/q| <= 1/2."""

    __slots__ = ("p", "q")

    def __init__(self, p: int, q: int):
        super().__init__()
        if q == 0:
            raise ValueError("zero denominator")
        if q < 0:
            p, q = -p, -q
        if 2 * abs(p) > q:
            raise ValueError("atan_rat needs |p/q| <= 1/2")
        self.p, self.q = p, q

    def _compute(self, j: int) -> int:
        return _rounded(*kernels.atan_split(self.p, self.q, j + 2), j)


class _PiLeibniz(CReal):
    """pi as four times the alternating odd-reciprocal series.

    Deliberately evaluated through the generic series combinator: the
    partial sum for precision k needs about 2**k terms, which is why
    construction takes a feasibility cap and approx() raises
    ResourceExhausted beyond it.  This route exists for cross-checking
    the fast routes at low precision, not for production use.
    """

    __slots__ = ("cap", "series")

    def __init__(self, cap: int):
        super().__init__()
        if cap < 0:
            raise ValueError("cap must be nonnegative")
        self.cap = cap
        self.series = series_sum(
            lambda n: const(1 if n % 2 == 0 else -1, 2 * n + 1),
            lambda k: 1 << k,
        )

    def _compute(self, j: int) -> int:
        if j - 2 > self.cap:
            raise ResourceExhausted(
                f"the alternating-series pi route is capped at precision "
                f"2^-{self.cap}; requested 2^-{j - 2}")
        # the series' raw(j + 2) is n 2**-(j+4) within 2**-(j+2), so four
        # times it is the same n at scale 2**-(j+2), within 2**-j
        return self.series._raw(j + 2)


class _PiCosIter(CReal):
    """pi as twice the limit of p <- p + cos(p), started at p = 1.

    Writing p_n = pi/2 + u_n, the step gives u_{n+1} = u_n - sin(u_n),
    and |u - sin u| <= |u|**3 / 6, so the iteration contracts cubically
    once |u| < 1.  Verified deviation bounds: |u_1| <= 0.6 and
    |u_2| <= 2**-4, and from B**3/6 <= B**3/4 the exponents then follow
    t(n+1) = 3 t(n) + 2, i.e. 4, 14, 44, 134, 404, ...  The modulus
    below simply walks that table, so precision 2**-100 needs only five
    sequence elements.
    """

    __slots__ = ("_seq_nodes", "_lim")

    def __init__(self):
        super().__init__()
        self._seq_nodes = {0: const(0)}
        self._lim = lim(self._p, self._modulus)

    def _p(self, n: int) -> CReal:
        # element i is built from i - 1, so the keys stay 0 .. len - 1;
        # setdefault is atomic, as in CReal._raw, so a thread that loses
        # a race drops its duplicate and every caller sees one node
        seq = self._seq_nodes
        for i in range(len(seq), n + 1):
            prev = seq[i - 1]
            seq.setdefault(i, prev + _SinCos(prev, want_sin=False))
        return seq[n]

    @staticmethod
    def _modulus(k: int) -> int:
        n, t = 1, 0
        while t < k:
            n += 1
            t = 4 if n == 2 else 3 * t + 2
        return n

    def _compute(self, j: int) -> int:
        # twice the limit's raw(j + 1), n 2**-(j+3): the same n at scale
        # 2**-(j+2), within 2**-j
        return self._lim._raw(j + 1)


# -- public constructors --------------------------------------------------

def exp(x) -> CReal:
    """The exponential of a real."""
    return _Exp(_cr._coerce(x))


def sin(x) -> CReal:
    return _SinCos(_cr._coerce(x), want_sin=True)


def cos(x) -> CReal:
    return _SinCos(_cr._coerce(x), want_sin=False)


def tan(x, cert: ApartnessCertificate) -> CReal:
    """tan(x) = sin(x) / cos(x); cert must certify cos(x) apart from 0.

    The certificate is revalidated against a fresh cos(x) node.
    """
    return _Tan(_cr._coerce(x), cert)


def ln(x, cert: ApartnessCertificate) -> CReal:
    """The natural logarithm; cert must certify x > 0."""
    return _Ln(_cr._coerce(x), cert)


def atan_rat(p: int, q: int) -> CReal:
    """arctan(p/q) for an exact rational argument with |p/q| <= 1/2."""
    return _AtanRat(p, q)


DEFAULT_LEIBNIZ_CAP = 24


def _machin() -> CReal:
    return _Ladder(kernels.pi_within)


def pi(method: str = "machin", *, leibniz_cap: int | None = None) -> CReal:
    """The circle constant, by one of three routes.

    "machin": 16 atan(1/5) - 4 atan(1/239) by binary splitting; the
    production route.
    "cos_iteration": twice the limit of p <- p + cos(p).
    "leibniz": four times the alternating odd-reciprocal series, capped
    at ``leibniz_cap`` (default 24) bits of precision because its cost
    grows as 2**k.

    Each route (and each leibniz cap) has one node per process, so
    repeated calls share approximation work.  The machin node reads pi
    off a precision ladder ("Constant ladder" in kernels.py): it
    computes pi once per rung, and approx(k) still depends on k alone.
    """
    if method == "leibniz":
        cap = DEFAULT_LEIBNIZ_CAP if leibniz_cap is None else leibniz_cap
        return _shared(("leibniz", cap), lambda: _PiLeibniz(cap))
    if method not in ("machin", "cos_iteration"):
        raise ValueError(f"unknown pi method {method!r}")
    if leibniz_cap is not None:
        raise ValueError("leibniz_cap only applies to the leibniz route")
    build = _machin if method == "machin" else _PiCosIter
    return _shared((method,), build)
