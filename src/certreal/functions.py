"""Transcendental functions as computable-real nodes.

Each node derives coarse magnitude bounds from a cheap approximation
of the argument and hands the rest to the shared kernels layer
(kernels.py): exp, sin, cos and ln to its reductions, which read the
argument at the precision their budget needs and return a value within
2**-(j+1), and the constants, atan_rat, and exp, sin, cos and ln of a
literal (where the kernels' predicates say it pays) to its binary
splitting.  The kernels take and return dyadics at their boundary:
a node hands them its argument's raw values as dyadics (``_reader``)
and turns their result back into a raw value, an int at scale
2**-(j+2), by one rounding to the 2**-(j+1) grid (``_to_raw``).  Every
rounding here goes through creal.grid_round, looked up at each call,
and the last one puts the result within 2**-j of the true value.

Everything is integer arithmetic; there is no float anywhere on these
paths, so results are deterministic bit for bit.
"""

from __future__ import annotations

from typing import Callable

from . import creal as _cr
from . import kernels
from .creal import ApartnessCertificate, CReal, const, lim, series_sum
from .dyadic import BigDyadic, dyadic
from .errors import InvalidCertificate, ResourceExhausted
from .kernels import budget


def _reader(x: CReal) -> Callable[[int], BigDyadic]:
    """x's raw values as dyadics: the kernels' arg(s), within 2**-s."""
    raw = x._raw
    return lambda s: dyadic(raw(s), -(s + 2))


def _to_raw(v: BigDyadic, j: int) -> int:
    """v rounded to the 2**-(j+1) grid, as a raw value at j."""
    return _cr.grid_round(v.mantissa, -v.exponent, j + 1) << 1


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
            v = kernels.exp_split(lit.numerator, lit.denominator, j + 2)
            return _to_raw(v, j)
        # q0 = approx(x, 0) = h / 2: |x| <= |q0| + 1 and
        # x <= ceil(q0) + 1 = (h + 1) // 2 + 1
        h = self.x._grid(0)
        v = kernels.exp_reduced(_reader(self.x), ((h + 1) >> 1) + 1,
                                _cr._log2_bound(h), j + 1, _cr.grid_round)
        return _to_raw(v, j)


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
            v = kernels.sincos_split(lit.numerator, lit.denominator, j + 2,
                                     self.want_sin)
            return _to_raw(v, j)
        # |x| <= |approx(x, 0)| + 1 = (|h| + 2) / 2, at most the int
        # (|h| + 3) // 2
        bound = (abs(self.x._grid(0)) + 3) >> 1
        v = kernels.sincos_reduced(_reader(self.x), bound, j + 1,
                                   self.want_sin, _cr.grid_round)
        return _to_raw(v, j)


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
                v = kernels.atan_split(p, q, j + 3, hyperbolic=True)
                v = v.scale2(1)
                if e != 0:
                    tl = budget(j + 2 + abs(e).bit_length())
                    v = v + dyadic(e * _ln2()._raw(tl), -(tl + 2))
                return _to_raw(v, j)
        v = kernels.ln_reduced(_reader(self.x), self.cert.witness_precision,
                               j + 1, _reader(_ln2()))
        return _to_raw(v, j)


# Raw values a ladder node keeps before it starts its memo over.
_LADDER_MEMO = 256


class _Ladder(CReal):
    """A constant read off a precision ladder (kernels.ladder_rung).

    within(t) must return the constant within 2**-t.  The raw value at
    j is rounded from the value at rung J = ladder_rung(j), computed
    once per rung; see "Constant ladder" in kernels.py.
    """

    __slots__ = ("within", "_rungs")

    def __init__(self, within: Callable[[int], BigDyadic]):
        super().__init__()
        self.within = within
        self._rungs: dict = {}

    def _raw(self, j: int) -> int:
        # a stream of fresh precisions would grow the shared node's memo
        # by a value each; past _LADDER_MEMO values it starts over, and
        # a value it dropped costs one grid rounding of a kept rung
        memo = self._raw_memo
        if len(memo) >= _LADDER_MEMO and j not in memo:
            memo.clear()
        return super()._raw(j)

    def _compute(self, j: int) -> int:
        rung = kernels.ladder_rung(j)
        # get and setdefault are each atomic, as in CReal._raw
        v = self._rungs.get(rung)
        if v is None:
            v = self._rungs.setdefault(rung, self.within(rung + 1))
        return _to_raw(v, j)


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
        return _to_raw(kernels.atan_split(self.p, self.q, j + 2), j)


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

    The certificate is revalidated against a fresh cos(x) node, which
    is sound because approximations are deterministic.
    """
    xc = _cr._coerce(x)
    return _cr._Mul(sin(xc), _cr._Recip(cos(xc), cert))


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
