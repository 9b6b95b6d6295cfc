"""Proving strict inequalities, and deciding a class of universally
quantified arithmetic sentences by real-number encoding.

prove() semi-decides a parsed strict-inequality query.  It can run on
the approximation backend (deepening certified approximations), the
interval backend (deepening outward enclosures), or both, in which
case the verdicts are cross-checked and a disagreement is an engine
bug reported as ConformanceError.

Every decisive outcome doubles as a certificate: the enclosures it
carries separate by exact dyadic comparison, and verify_outcome()
re-checks that without re-running any analysis.

The pi01 functions decide universally quantified statements about a
decidable predicate P over the naturals by encoding them as a real:

    S = sum of 2**-n over all n where P(n) holds.

S equals 2 exactly when P holds everywhere; the first failure at n*
pulls S at least 2**-n* below 2.  Semi-deciding S < 2 therefore finds
failing predicates, and the precision of that proof bounds the scan
that locates the least counterexample, while a true universal
statement makes S = 2 and the comparison runs to budget exhaustion.
That end state is reported honestly as NoCounterexampleBelowBound: the
sweep proves no counterexample exists below roughly the precision
bound, and nothing beyond that.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from . import creal, intervals, lang
from .creal import (CReal, Exhausted, ProofOutcome, Proved, Refuted,
                    TraceStep, cmp_semidecide, const, series_sum)
from .dyadic import BigDyadic, ZERO, int_to_decimal, power_of_two
from .errors import (ConformanceError, DomainUndetermined, ParseError,
                     ResourceExhausted)

DEFAULT_MAX_PRECISION = 4096
DEFAULT_PI01_MAX_PRECISION = 256


def normalize_backend(backend: str) -> str:
    """The canonical name of a prover backend.

    "creal" is an accepted alias of "approx": the approximation backend
    lives in the creal module and is sometimes named after it.
    """
    if backend == "creal":
        return "approx"
    if backend not in ("approx", "interval", "both"):
        raise ValueError(f"unknown backend {backend!r}")
    return backend


def prove(query, *, start_precision: int = 1,
          max_precision: int = DEFAULT_MAX_PRECISION,
          backend: str = "approx",
          domain_budget: lang.DomainBudget | None = None) -> ProofOutcome:
    """Semi-decide a strict inequality.

    ``query`` is a lang.Query or its source text.  Proved means the
    stated inequality holds; Refuted means the reverse strict
    inequality holds; Exhausted means no decision within the precision
    budget (equal sides always end there).  Domain side conditions are
    discharged during elaboration and their errors propagate.
    """
    if isinstance(query, str):
        query = lang.parse_query(query)
    if not isinstance(query, lang.Query):
        raise TypeError("prove expects a comparison query")
    backend = normalize_backend(backend)

    # one structure walk per query: both sides share one elaboration
    # memo, and the interval backend keys its memo by the same ids
    sharing = lang.Sharing(query)
    lhs_c = lang.elaborate(query.lhs, domain_budget, sharing=sharing)
    rhs_c = lang.elaborate(query.rhs, domain_budget, sharing=sharing)

    if backend == "approx":
        return cmp_semidecide(lhs_c, rhs_c, start_precision, max_precision,
                              query.relation)
    if backend == "interval":
        return _prove_interval(query.lhs, query.rhs, query.relation,
                               start_precision, max_precision, sharing)
    oa = cmp_semidecide(lhs_c, rhs_c, start_precision, max_precision,
                        query.relation)
    oi = _prove_interval(query.lhs, query.rhs, query.relation,
                         start_precision, max_precision, sharing)
    return _merge_outcomes(oa, oi, query)


def _prove_interval(lhs_e, rhs_e, relation: str, start_k: int, max_k: int,
                    sharing: lang.Sharing) -> ProofOutcome:
    def enclose(k):
        try:
            return (intervals.eval_interval(lhs_e, k, sharing).interval,
                    intervals.eval_interval(rhs_e, k, sharing).interval)
        except DomainUndetermined:
            # a sign condition is still ambiguous at this precision;
            # deepen and retry
            return None

    return creal._deepen(enclose, relation, "interval", start_k, max_k)


def _merge_outcomes(oa: ProofOutcome, oi: ProofOutcome,
                    query) -> ProofOutcome:
    decisive_a = not isinstance(oa, Exhausted)
    decisive_i = not isinstance(oi, Exhausted)
    if decisive_a and decisive_i and type(oa) is not type(oi):
        raise ConformanceError({
            "query": lang.format_expr(query),
            "approx_outcome": str(oa),
            "interval_outcome": str(oi),
            "approx_trace": [_step_jsonable(s) for s in oa.trace],
            "interval_trace": [_step_jsonable(s) for s in oi.trace],
        })
    primary = oa if decisive_a else oi
    trace = tuple(oa.trace) + tuple(oi.trace)
    if isinstance(primary, Exhausted):
        return Exhausted(primary.max_precision, trace, primary.relation)
    cls = type(primary)
    return cls(primary.precision, primary.lhs_enclosure,
               primary.rhs_enclosure, trace, primary.relation)


def verify_outcome(out: ProofOutcome) -> bool:
    """Re-check an outcome's certificate by exact dyadic comparison.

    No approximation is re-run: this only inspects the enclosures and
    the trace the outcome already carries.
    """
    steps = list(out.trace)
    if not steps:
        return False
    for a, b in zip(steps, steps[1:]):
        if a.backend == b.backend and a.precision >= b.precision:
            return False
    if isinstance(out, Exhausted):
        # no step may already separate in either direction
        for s in steps:
            if s.lhs.hi < s.rhs.lo or s.rhs.hi < s.lhs.lo:
                return False
        return True
    le, re_ = out.lhs_enclosure, out.rhs_enclosure
    matching = [s for s in steps
                if s.precision == out.precision
                and s.lhs == le and s.rhs == re_]
    if not matching:
        return False
    if out.relation == "<":
        want_lhs_below = isinstance(out, Proved)
    else:
        want_lhs_below = isinstance(out, Refuted)
    if want_lhs_below:
        return le.hi < re_.lo
    return re_.hi < le.lo


# -- trace serialization --------------------------------------------------

def _dyadic_jsonable(d: BigDyadic) -> dict:
    # mantissa as a string: arbitrary precision survives any JSON parser
    return {"m": int_to_decimal(d.mantissa), "e": d.exponent}


def _interval_jsonable(iv: intervals.Interval) -> dict:
    return {"lo": _dyadic_jsonable(iv.lo), "hi": _dyadic_jsonable(iv.hi)}


def _step_jsonable(s: TraceStep) -> dict:
    return {
        "precision": s.precision,
        "backend": s.backend,
        "lhs": _interval_jsonable(s.lhs),
        "rhs": _interval_jsonable(s.rhs),
    }


def outcome_jsonable(out: ProofOutcome, include_trace: bool = True) -> dict:
    """Bit-exact JSON-ready rendering of an outcome (no floats)."""
    if isinstance(out, Exhausted):
        d = {
            "outcome": "exhausted",
            "relation": out.relation,
            "max_precision": out.max_precision,
        }
    else:
        d = {
            "outcome": "proved" if isinstance(out, Proved) else "refuted",
            "relation": out.relation,
            "precision": out.precision,
            "lhs": _interval_jsonable(out.lhs_enclosure),
            "rhs": _interval_jsonable(out.rhs_enclosure),
        }
    if include_trace:
        d["trace"] = [_step_jsonable(s) for s in out.trace]
    return d


# -- the Pi-0-1 predicate language ---------------------------------------

class Pi01Pred:
    """A decidable predicate over the naturals, from a small closed
    language: integer arithmetic (+ - * ^ with literal nonnegative
    exponents), comparisons (= != < <= > >=), divisibility (d | e),
    and boolean connectives (not, and, or) over the variable n.
    """

    __slots__ = ("text", "_fn")

    def __init__(self, text: str, fn):
        self.text = text
        self._fn = fn

    def evaluate(self, n: int) -> bool:
        if not isinstance(n, int) or n < 0:
            raise ValueError("the predicate variable ranges over n >= 0")
        return bool(self._fn(n))

    def __repr__(self):
        return f"Pi01Pred({self.text!r})"


# operand kinds of the predicate language
_NUM, _COND = "number", "condition"

# Bounds that turn hostile predicates into typed errors (documented in
# docs/grammar.ebnf).  A power whose base has b bits and whose exponent
# is e raises ResourceExhausted when evaluated if b * e, a bound on the
# result's size, is over POW_BIT_LIMIT.  A predicate nesting deeper
# than DEPTH_LIMIT fails to parse: the parser spends at most two stack
# frames per level, evaluation one, and both stay far from Python's
# recursion limit.
POW_BIT_LIMIT = 1 << 20
DEPTH_LIMIT = 400


def _cmp(o):
    return 4, _NUM, _COND, lambda a, b: lambda n: o(a(n), b(n))


def _power(a, e):
    def power(n):
        b = a(n)
        if b.bit_length() * e > POW_BIT_LIMIT:
            raise ResourceExhausted(
                f"predicate power of a {b.bit_length()}-bit base to the "
                f"{e} is over the {POW_BIT_LIMIT}-bit limit at n = {n}")
        return b ** e
    return power


class _PredParser:
    """Precedence climbing over operands that carry their kind.

    expr(min_prec) reads one prefix operand, then folds in each binary
    operator of _OPS that binds at least min_prec.  From loosest to
    tightest: or, and, not (whose operand is read at the comparisons'
    level), the comparisons and |, + and -, *, then unary - and ^ on an
    atom, so -n^2 is (-n)^2.  A "(" opens a number or a condition alike;
    the kind of what it closes decides which, and a kind check rejects
    chained comparisons, so no token is read twice.

    An operand is (closure, kind, depth), depth being how deeply its
    closures nest; self.depth counts the expr calls open, one per
    group, not and right operand.  Each is held to DEPTH_LIMIT.
    """

    _KEYWORDS = ("not", "and", "or", "n")

    # token: (precedence, operand kind, result kind, closure builder)
    _OPS = {
        "or": (1, _COND, _COND, lambda a, b: lambda n: a(n) or b(n)),
        "and": (2, _COND, _COND, lambda a, b: lambda n: a(n) and b(n)),
        "=": _cmp(operator.eq), "!=": _cmp(operator.ne),
        "<": _cmp(operator.lt), "<=": _cmp(operator.le),
        ">": _cmp(operator.gt), ">=": _cmp(operator.ge),
        # d | e: d divides e; 0 divides only 0
        "|": (4, _NUM, _COND, lambda a, b: lambda n: (
            b(n) == 0 if a(n) == 0 else b(n) % a(n) == 0)),
        "+": (5, _NUM, _NUM, lambda a, b: lambda n: a(n) + b(n)),
        "-": (5, _NUM, _NUM, lambda a, b: lambda n: a(n) - b(n)),
        "*": (6, _NUM, _NUM, lambda a, b: lambda n: a(n) * b(n)),
    }

    def __init__(self, src: str):
        self.toks = self._lex(src)
        self.pos = 0
        self.depth = 0

    @staticmethod
    def _lex(src):
        toks = []
        i, n = 0, len(src)
        two_char = ("!=", "<=", ">=")
        while i < n:
            ch = src[i]
            if ch in " \t\r\n":
                i += 1
                continue
            if src[i:i + 2] in two_char:
                toks.append((src[i:i + 2], i))
                i += 2
                continue
            if ch in "+-*^()|<>=":
                toks.append((ch, i))
                i += 1
                continue
            if ch.isdigit():
                j = i
                while j < n and src[j].isdigit():
                    j += 1
                toks.append(("num", i, int(src[i:j])))
                i = j
                continue
            if ch.isalpha():
                j = i
                while j < n and src[j].isalpha():
                    j += 1
                word = src[i:j]
                if word not in _PredParser._KEYWORDS:
                    raise ParseError(i, f"unknown word {word!r} "
                                         f"in predicate")
                toks.append((word, i))
                i = j
                continue
            raise ParseError(i, f"unexpected character {ch!r} in predicate")
        toks.append(("eof", n))
        return toks

    def parse(self):
        fn = self.want(self.expr(0, self.toks[0]), _COND, None)
        t = self.toks[self.pos]
        if t[0] != "eof":
            raise ParseError(t[1], "trailing input in predicate")
        return fn

    def want(self, operand, kind, op):
        """Unwrap an operand's closure; op needs it to be of kind."""
        fn, got, _ = operand
        if got == kind:
            return fn
        if kind == _NUM:
            raise ParseError(op[1], f"{op[0]!r} needs a number, not a "
                                    f"condition, in predicate")
        raise ParseError(self.toks[self.pos][1],
                         "expected a comparison operator in predicate")

    @staticmethod
    def node(fn, kind, depth, t):
        """An operand one closure above its deepest operand, for the
        operator token t."""
        if depth >= DEPTH_LIMIT:
            raise ParseError(t[1], f"predicate nests deeper than "
                                   f"{DEPTH_LIMIT} levels")
        return fn, kind, depth + 1

    def expr(self, min_prec, opener):
        """One operand, nested one level inside the token opener."""
        self.depth += 1
        if self.depth > DEPTH_LIMIT:
            raise ParseError(opener[1], f"predicate nests deeper than "
                                        f"{DEPTH_LIMIT} levels")
        operand = self.prefix()
        while True:
            t = self.toks[self.pos]
            op = self._OPS.get(t[0])
            if op is None or op[0] < min_prec:
                self.depth -= 1
                return operand
            prec, kind, result, build = op
            lhs = self.want(operand, kind, t)
            self.pos += 1
            # prec + 1: left associative, and no comparison inside the
            # right operand of a comparison
            right = self.expr(prec + 1, t)
            rhs = self.want(right, kind, t)
            operand = self.node(build(lhs, rhs), result,
                                max(operand[2], right[2]), t)

    def prefix(self):
        t = self.toks[self.pos]
        self.pos += 1
        if t[0] == "not":
            operand = self.expr(4, t)
            a = self.want(operand, _COND, t)
            return self.node(lambda n: not a(n), _COND, operand[2], t)
        signs = []
        while t[0] == "-":
            signs.append(t)
            t = self.toks[self.pos]
            self.pos += 1
        if t[0] == "num":
            operand = (lambda n, v=t[2]: v), _NUM, 1
        elif t[0] == "n":
            operand = (lambda n: n), _NUM, 1
        elif t[0] == "(":
            operand = self.expr(0, t)
            t = self.toks[self.pos]
            if t[0] != ")":
                raise ParseError(t[1], "expected ')' in predicate")
            self.pos += 1
        else:
            raise ParseError(t[1], "expected a number, n, or '(' in predicate")
        for sign in reversed(signs):
            a = self.want(operand, _NUM, sign)
            operand = self.node(lambda n, a=a: -a(n), _NUM, operand[2],
                                sign)
        t = self.toks[self.pos]
        if t[0] == "^":
            a = self.want(operand, _NUM, t)
            e = self.toks[self.pos + 1]
            if e[0] != "num":
                raise ParseError(e[1], "expected a literal exponent "
                                       "in predicate")
            self.pos += 2
            operand = self.node(_power(a, e[2]), _NUM, operand[2], t)
            t = self.toks[self.pos]
            if t[0] == "^":
                raise ParseError(t[1], "'^' does not chain in predicate; "
                                       "parenthesise its base")
        return operand


def parse_predicate(src: str) -> Pi01Pred:
    """Parse the predicate language into an evaluable Pi01Pred."""
    return Pi01Pred(src, _PredParser(src).parse())


# -- the encoding pipeline ------------------------------------------------

def pi01_sum(pred: Pi01Pred) -> CReal:
    """The real S = sum over n of (2**-n if P(n) else 0).

    S = 2 exactly when P holds for every n; a first failure at n*
    leaves S <= 2 - 2**-n*.  The geometric tail gives the explicit
    bound: everything from index k+2 on contributes at most 2**-k.
    Every term is an exact dyadic, so P is evaluated once per n however
    far the comparison deepens.
    """
    if not isinstance(pred, Pi01Pred):
        raise TypeError("pi01_sum expects a parsed predicate")
    # the series asks only for indices n >= 0, so the parsed closure is
    # called without evaluate's argument check
    fn = pred._fn
    return series_sum(
        lambda n: power_of_two(-n) if fn(n) else ZERO,
        lambda k: k + 2,
    )


@dataclass(frozen=True, slots=True)
class Counterexample:
    """The universal statement fails, and n is its least counterexample."""

    n: int
    comparison: ProofOutcome

    def __str__(self):
        return f"Counterexample: n = {self.n}"


@dataclass(frozen=True, slots=True)
class NoCounterexampleBelowBound:
    """The bounded sweep found no counterexample.  NOT a proof of truth:
    it rules out counterexamples below roughly max_precision and says
    nothing about larger n."""

    max_precision: int
    comparison: ProofOutcome

    def __str__(self):
        return (f"No counterexample below the precision bound "
                f"2^-{self.max_precision} (not a proof)")


def pi01_decide(pred, *, start_precision: int = 1,
                max_precision: int = DEFAULT_PI01_MAX_PRECISION):
    """Decide 'P(n) for all n' as far as a bounded sweep can.

    Encodes the statement as the real S (see pi01_sum) and semi-decides
    S < 2.  Budget exhaustion returns NoCounterexampleBelowBound, which
    is the honest reading of a sweep that cannot distinguish S = 2 from
    S very close to 2.

    A proof of S < 2 at precision k means some P(n) fails, and it also
    bounds the least such n*.  The enclosure of 2 is exact, so Proved
    means S <= approx(S, k) + 2**-k < 2 - 2**-k.  If P held for every
    n < N, S would be at least 2 - 2**(1-N); so N <= k, which gives
    n* <= k.  A scan of 0..k therefore finds n*, in at most k + 1
    predicate calls, fewer than the terms the last probe summed.  A scan
    that finds nothing means a broken approximation: ConformanceError.
    """
    if isinstance(pred, str):
        pred = parse_predicate(pred)
    s = pi01_sum(pred)
    out = cmp_semidecide(s, const(2), start_precision, max_precision)
    if isinstance(out, Proved):
        for n in range(out.precision + 1):
            if not pred.evaluate(n):
                return Counterexample(n, out)
        detail = "sum proved below 2, but P holds up to its precision"
    elif isinstance(out, Exhausted):
        return NoCounterexampleBelowBound(max_precision, out)
    else:
        # S > 2 is impossible: the series is bounded by the full
        # geometric sum
        detail = "encoded sum compared above 2"
    # either way the approximation is broken; fail loudly
    raise ConformanceError({
        "predicate": pred.text,
        "outcome": str(out),
        "detail": detail,
    })
