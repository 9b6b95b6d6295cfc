"""The expression language: parsing, printing, elaboration.

The surface syntax covers exact decimal and integer literals, pi, the
four arithmetic operators, unary minus, and the functions exp, sin,
cos, tan and ln.  A query is two expressions joined by a strict
comparison.  Non-strict comparisons and equality are rejected at parse
time (RelationUnsupported): they cannot be semi-decided by finite
approximation, and refusing them early beats looping forever.

Decimal literals become exact rationals; "0.1" is one tenth, not the
nearest double.  Every node carries its byte span in the source text,
which is how domain errors point back at the offending subterm.

Elaboration turns an expression into a computable real, discharging
the domain side conditions on the way: each division or ln needs an
apartness certificate for its operand, each tan one for the cosine of
its argument.  A failed search within the (configurable) budget raises
DomainUnverifiable; a certificate with the wrong sign under ln raises
DomainViolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import creal, functions
from .dyadic import decimal_to_int, int_to_decimal
from .errors import (DomainUnverifiable, DomainViolation, ParseError,
                     RelationUnsupported)

# -- ast ------------------------------------------------------------------

Span = tuple  # (start_byte, end_byte)


@dataclass(frozen=True, slots=True)
class IntLit:
    value: int
    span: Span


@dataclass(frozen=True, slots=True)
class DecLit:
    """Exact decimal literal num/den (den a reduced power of ten)."""

    num: int
    den: int
    span: Span


@dataclass(frozen=True, slots=True)
class PiConst:
    span: Span


@dataclass(frozen=True, slots=True)
class Neg:
    arg: object
    span: Span


@dataclass(frozen=True, slots=True)
class BinOp:
    op: str  # one of + - * /
    lhs: object
    rhs: object
    span: Span


@dataclass(frozen=True, slots=True)
class Call:
    fn: str  # one of exp sin cos tan ln
    arg: object
    span: Span


@dataclass(frozen=True, slots=True)
class Query:
    """A strict comparison between two expressions."""

    lhs: object
    relation: str  # '<' or '>'
    rhs: object
    span: Span


Expr = IntLit | DecLit | PiConst | Neg | BinOp | Call

FUNCTIONS = ("exp", "sin", "cos", "tan", "ln")


def same_tree(a, b) -> bool:
    """Structural equality ignoring source spans."""
    if type(a) is not type(b):
        return False
    if isinstance(a, IntLit):
        return a.value == b.value
    if isinstance(a, DecLit):
        return (a.num, a.den) == (b.num, b.den)
    if isinstance(a, PiConst):
        return True
    if isinstance(a, Neg):
        return same_tree(a.arg, b.arg)
    if isinstance(a, BinOp):
        return a.op == b.op and same_tree(a.lhs, b.lhs) \
            and same_tree(a.rhs, b.rhs)
    if isinstance(a, Call):
        return a.fn == b.fn and same_tree(a.arg, b.arg)
    if isinstance(a, Query):
        return a.relation == b.relation and same_tree(a.lhs, b.lhs) \
            and same_tree(a.rhs, b.rhs)
    raise TypeError(f"not a syntax node: {a!r}")


# -- lexer ----------------------------------------------------------------

_SIMPLE = {"+", "-", "*", "/", "(", ")"}


class _Token:
    __slots__ = ("kind", "text", "start", "end")

    def __init__(self, kind, text, start, end):
        self.kind = kind    # 'num', 'name', 'op', 'rel', 'badrel', 'eof'
        self.text = text
        self.start = start
        self.end = end


def _lex(src: str):
    tokens = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch in _SIMPLE:
            tokens.append(_Token("op", ch, i, i + 1))
            i += 1
            continue
        if ch in "<>":
            if i + 1 < n and src[i + 1] == "=":
                tokens.append(_Token("badrel", ch + "=", i, i + 2))
                i += 2
            else:
                tokens.append(_Token("rel", ch, i, i + 1))
                i += 1
            continue
        if ch == "=":
            j = i + 2 if (i + 1 < n and src[i + 1] == "=") else i + 1
            tokens.append(_Token("badrel", src[i:j], i, j))
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            if j < n and src[j] == ".":
                j += 1
                if j >= n or not src[j].isdigit():
                    raise ParseError(j, "digit expected after decimal point")
                while j < n and src[j].isdigit():
                    j += 1
            tokens.append(_Token("num", src[i:j], i, j))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(_Token("name", src[i:j], i, j))
            i = j
            continue
        raise ParseError(i, f"unexpected character {ch!r}")
    tokens.append(_Token("eof", "", n, n))
    return tokens


# -- parser ---------------------------------------------------------------

class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _lex(src)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expect_op(self, op: str) -> _Token:
        t = self.peek()
        if t.kind == "op" and t.text == op:
            return self.next()
        raise ParseError(t.start, f"expected {op!r}")

    def parse_query_or_expr(self):
        lhs = self.parse_expr()
        t = self.peek()
        if t.kind == "rel":
            self.next()
            rhs = self.parse_expr()
            self._expect_eof()
            span = (lhs.span[0], rhs.span[1])
            return Query(lhs, t.text, rhs, span)
        self._expect_eof()
        return lhs

    def _expect_eof(self):
        t = self.peek()
        if t.kind == "badrel":
            raise RelationUnsupported(
                t.start,
                f"relation {t.text!r} is not semi-decidable here; "
                f"only strict < and > are supported")
        if t.kind == "rel":
            raise ParseError(t.start, "only one comparison per query")
        if t.kind != "eof":
            raise ParseError(t.start, f"unexpected {t.text!r}")

    def parse_expr(self):
        node = self.parse_term()
        while True:
            t = self.peek()
            if t.kind == "op" and t.text in "+-":
                self.next()
                rhs = self.parse_term()
                span = (node.span[0], rhs.span[1])
                node = BinOp(t.text, node, rhs, span)
            else:
                return node

    def parse_term(self):
        node = self.parse_factor()
        while True:
            t = self.peek()
            if t.kind == "op" and t.text in "*/":
                self.next()
                rhs = self.parse_factor()
                span = (node.span[0], rhs.span[1])
                node = BinOp(t.text, node, rhs, span)
            else:
                return node

    def parse_factor(self):
        t = self.peek()
        if t.kind == "op" and t.text == "-":
            self.next()
            arg = self.parse_factor()
            return Neg(arg, (t.start, arg.span[1]))
        return self.parse_atom()

    def parse_atom(self):
        t = self.next()
        if t.kind == "num":
            return _num_node(t)
        if t.kind == "name":
            if t.text == "pi":
                return PiConst((t.start, t.end))
            if t.text in FUNCTIONS:
                self.expect_op("(")
                arg = self.parse_expr()
                close = self.expect_op(")")
                return Call(t.text, arg, (t.start, close.end))
            raise ParseError(t.start, f"unknown name {t.text!r}")
        if t.kind == "op" and t.text == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        raise ParseError(t.start, "expected a number, name or '('")


def _num_node(t: _Token):
    text = t.text
    span = (t.start, t.end)
    if "." not in text:
        return IntLit(decimal_to_int(text), span)
    whole, frac = text.split(".")
    num = decimal_to_int(whole + frac)
    den = 10 ** len(frac)
    g = math.gcd(num, den)
    num, den = num // g, den // g
    if den == 1:
        # "2.0" denotes an integer; normalizing keeps printing injective
        return IntLit(num, span)
    return DecLit(num, den, span)


def parse(src: str):
    """Parse a query or a bare expression."""
    return _Parser(src).parse_query_or_expr()


def parse_expression(src: str) -> Expr:
    node = parse(src)
    if isinstance(node, Query):
        raise ParseError(node.span[0],
                         "expected an expression, found a comparison")
    return node


def parse_query(src: str) -> Query:
    node = parse(src)
    if not isinstance(node, Query):
        raise ParseError(0, "expected a comparison query "
                            "(two expressions joined by < or >)")
    return node


# -- printer --------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def format_expr(node) -> str:
    """Minimal-parentheses rendering; reparsing gives the same tree."""
    if isinstance(node, Query):
        return (f"{format_expr(node.lhs)} {node.relation} "
                f"{format_expr(node.rhs)}")
    return _fmt(node, 0)


def _fmt(node, parent_prec: int) -> str:
    if isinstance(node, IntLit):
        return int_to_decimal(node.value)
    if isinstance(node, DecLit):
        return _decimal_text(node.num, node.den)
    if isinstance(node, PiConst):
        return "pi"
    if isinstance(node, Call):
        return f"{node.fn}({_fmt(node.arg, 0)})"
    if isinstance(node, Neg):
        inner = _fmt(node.arg, 3)
        s = f"-{inner}"
        return f"({s})" if parent_prec >= 3 else s
    if isinstance(node, BinOp):
        prec = _PREC[node.op]
        # parsing is left-associative, so a right operand at the same
        # precedence level needs parentheses to reparse as the same tree
        lhs = _fmt(node.lhs, prec - 1)
        rhs = _fmt(node.rhs, prec)
        s = f"{lhs} {node.op} {rhs}"
        return f"({s})" if parent_prec >= prec else s
    raise TypeError(f"not an expression node: {node!r}")


def _decimal_text(num: int, den: int) -> str:
    # den is 2**a * 5**b after reduction of a power of ten; scale to the
    # smallest power of ten and print exactly
    a = (den & -den).bit_length() - 1
    rest = den >> a
    b = 0
    while rest % 5 == 0:
        rest //= 5
        b += 1
    assert rest == 1, "decimal literal denominator must divide a power of 10"
    digits = max(a, b)
    scaled = num * 10 ** digits // den
    whole, frac = divmod(scaled, 10 ** digits)
    if digits == 0:
        return int_to_decimal(whole)
    text = int_to_decimal(frac).zfill(digits).rstrip("0")
    if not text:
        text = "0"
    return f"{int_to_decimal(whole)}.{text}"


# -- elaboration ----------------------------------------------------------

@dataclass(frozen=True, slots=True)
class DomainBudget:
    """Precision budget for discharging domain side conditions."""

    start_precision: int = 1
    max_precision: int = 60

    def __post_init__(self):
        if not isinstance(self.start_precision, int) \
                or not isinstance(self.max_precision, int):
            raise TypeError("precision bounds must be integers")
        if self.start_precision < 1:
            raise ValueError("start_precision must be at least 1")
        if self.max_precision < self.start_precision:
            raise ValueError("max_precision must be >= start_precision")


def elaborate(node, budget: DomainBudget | None = None) -> creal.CReal:
    """Turn an expression into a computable real.

    Discharges the domain side conditions along the way; raises
    DomainUnverifiable when an apartness search exhausts the budget and
    DomainViolation when a condition provably fails.
    """
    if isinstance(node, Query):
        raise TypeError("elaborate expects an expression, not a query; "
                        "use prove() for queries")
    if budget is None:
        budget = DomainBudget()
    return _elab(node, budget)


def _find_apart_or_raise(x: creal.CReal, span: Span, budget: DomainBudget,
                         what: str) -> creal.ApartnessCertificate:
    cert = creal.find_apart(x, budget.start_precision, budget.max_precision)
    if cert is None:
        raise DomainUnverifiable(
            span, budget.max_precision,
            f"could not certify {what} apart from zero up to precision "
            f"2^-{budget.max_precision} (bytes {span[0]}..{span[1]}); "
            f"it may be zero or merely too close to call")
    return cert


def _elab(node, budget: DomainBudget) -> creal.CReal:
    if isinstance(node, IntLit):
        return creal.const(node.value)
    if isinstance(node, DecLit):
        return creal.const(node.num, node.den)
    if isinstance(node, PiConst):
        return functions.pi()
    if isinstance(node, Neg):
        return -_elab(node.arg, budget)
    if isinstance(node, BinOp):
        lhs = _elab(node.lhs, budget)
        rhs = _elab(node.rhs, budget)
        if node.op == "+":
            return lhs + rhs
        if node.op == "-":
            return lhs - rhs
        if node.op == "*":
            return lhs * rhs
        if node.op == "/":
            cert = _find_apart_or_raise(rhs, node.rhs.span, budget,
                                        "the divisor")
            return creal.div(lhs, rhs, cert)
        raise AssertionError(f"unknown operator {node.op!r}")
    if isinstance(node, Call):
        arg = _elab(node.arg, budget)
        if node.fn == "exp":
            return functions.exp(arg)
        if node.fn == "sin":
            return functions.sin(arg)
        if node.fn == "cos":
            return functions.cos(arg)
        if node.fn == "ln":
            cert = _find_apart_or_raise(arg, node.arg.span, budget,
                                        "the ln argument")
            if cert.sign < 0:
                raise DomainViolation(
                    node.arg.span, cert,
                    f"ln argument is provably negative (witnessed at "
                    f"precision 2^-{cert.witness_precision})")
            return functions.ln(arg, cert)
        if node.fn == "tan":
            cert = _find_apart_or_raise(functions.cos(arg), node.span,
                                        budget, "cos of the tan argument")
            return functions.tan(arg, cert)
        raise AssertionError(f"unknown function {node.fn!r}")
    raise TypeError(f"not an expression node: {node!r}")
