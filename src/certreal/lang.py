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

Elaboration builds one node per distinct subterm.  A Sharing gives
every syntax node a structure id, equal for two occurrences of the same
subterm whatever their spans, and memoizes the elaborated node by it,
so sin(x) * sin(x) reads one sin(x) node and a repeated divisor is
certified once.  The interval backend keeps its enclosures on the same
Sharing.  A Sharing lives for one elaborate() call, or for one prove()
or conformance_check() call whose two sides or backends share it;
nothing outlives the call, so approx(x, k) still depends on k alone.

An expression may nest at most DEPTH_LIMIT levels deep (see
docs/grammar.ebnf); deeper input is a ParseError, not a RecursionError
in one of the recursive walks.
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
class Num:
    """Exact literal num/den in lowest terms: den is 1 for an integer
    and otherwise divides a power of ten."""

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


Expr = Num | PiConst | Neg | BinOp | Call

FUNCTIONS = ("exp", "sin", "cos", "tan", "ln")

# Bound on an expression's nesting, counted two ways (docs/grammar.ebnf):
# the groups and function calls open around a token, and a node's
# height, the number of nodes from it down to its deepest leaf, where a
# tan counts TAN_HEIGHT.  The parser refuses a token that takes either
# past the limit.  format_expr opens at most one group per node, so a
# tree within the limit prints as text within it.  Every recursive walk
# of a tree then stays inside Python's default limit of 1000 frames
# with more than 150 to spare for the caller.  The parser spends four
# frames per group; Sharing, _elab, the interval evaluation and
# format_expr one per node; and CReal._raw at most four per unit of
# height, as under 1/(1/(...)).  A tan is one node (functions._Tan) and
# takes about four frames per level on that walk, as sin does, so the
# stack alone would let it count one unit.  It counts two for cost:
# each level's certificate search reads the whole chain inside it, so
# nested tan costs about the square of its depth, and
# `prove --backend both` took 6-8 s at 199 levels against about 0.5 s
# at 99 (on two shared x86-64 cores).
DEPTH_LIMIT = 200
TAN_HEIGHT = 2


def same_tree(a, b) -> bool:
    """Structural equality ignoring source spans.

    Both trees are interned into one table and their structure ids
    compared.  A non-node argument raises TypeError.
    """
    table, ids = {}, {}
    return _intern(a, table, ids) == _intern(b, table, ids)


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

# How tightly each binary operator binds, read by the parser and the
# printer; unary minus binds tighter than any of them.
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}
_UNARY_PREC = max(_PREC.values()) + 1


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _lex(src)
        self.pos = 0
        self.depth = 0  # groups and calls now open

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
        lhs, _ = self.parse_expr()
        t = self.peek()
        if t.kind == "rel":
            self.next()
            rhs, _ = self.parse_expr()
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

    # Each parse_* method returns (node, height).

    def _open(self, t: _Token) -> None:
        """Open one nesting level at token t."""
        self.depth += 1
        if self.depth > DEPTH_LIMIT:
            raise _too_deep(t)

    @staticmethod
    def _above(height: int, t: _Token) -> int:
        """Height of the node that token t builds over children at most
        height high."""
        if height >= DEPTH_LIMIT:
            raise _too_deep(t)
        return height + 1

    def parse_expr(self, level: int = 1):
        # operands joined left to right by the operators of one _PREC
        # level; an operand is read inline, not by a helper, so each
        # level costs one frame
        tighter = level + 1
        node, h = (self.parse_factor() if tighter == _UNARY_PREC
                   else self.parse_expr(tighter))
        while True:
            t = self.peek()
            if t.kind != "op" or _PREC.get(t.text) != level:
                return node, h
            self.next()
            rhs, hr = (self.parse_factor() if tighter == _UNARY_PREC
                       else self.parse_expr(tighter))
            h = self._above(max(h, hr), t)
            node = BinOp(t.text, node, rhs, (node.span[0], rhs.span[1]))

    def parse_factor(self):
        # a run of unary minuses is read by a loop, not by recursion
        minuses = []
        t = self.peek()
        while t.kind == "op" and t.text == "-":
            minuses.append(self.next())
            t = self.peek()
        node, h = self.parse_atom()
        for t in reversed(minuses):
            h = self._above(h, t)
            node = Neg(node, (t.start, node.span[1]))
        return node, h

    def parse_atom(self):
        t = self.next()
        if t.kind == "num":
            return _num_node(t), 1
        if t.kind == "name":
            if t.text == "pi":
                return PiConst((t.start, t.end)), 1
            if t.text in FUNCTIONS:
                self.expect_op("(")
                self._open(t)
                arg, h = self.parse_expr()
                close = self.expect_op(")")
                self.depth -= 1
                if t.text == "tan":
                    h += TAN_HEIGHT - 1
                return (Call(t.text, arg, (t.start, close.end)),
                        self._above(h, t))
            raise ParseError(t.start, f"unknown name {t.text!r}")
        if t.kind == "op" and t.text == "(":
            self._open(t)
            node = self.parse_expr()
            self.expect_op(")")
            self.depth -= 1
            return node
        raise ParseError(t.start, "expected a number, name or '('")


def _too_deep(t: _Token) -> ParseError:
    return ParseError(t.start, f"expression nests deeper than "
                               f"{DEPTH_LIMIT} levels")


def _num_node(t: _Token) -> Num:
    # reduced, so "2.0" and "2" are one node and printing is injective
    whole, _, frac = t.text.partition(".")
    num = decimal_to_int(whole + frac)
    den = 10 ** len(frac)
    g = math.gcd(num, den)
    return Num(num // g, den // g, (t.start, t.end))


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


def format_expr(node) -> str:
    """Minimal-parentheses rendering; reparsing gives the same tree."""
    if isinstance(node, Query):
        return (f"{format_expr(node.lhs)} {node.relation} "
                f"{format_expr(node.rhs)}")
    return _fmt(node, 0)


def _fmt(node, parent_prec: int) -> str:
    if isinstance(node, Num):
        return _decimal_text(node.num, node.den)
    if isinstance(node, PiConst):
        return "pi"
    if isinstance(node, Call):
        return f"{node.fn}({_fmt(node.arg, 0)})"
    if isinstance(node, Neg):
        s = f"-{_fmt(node.arg, _UNARY_PREC)}"
        return f"({s})" if parent_prec >= _UNARY_PREC else s
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
    # den is 2**a * 5**b after reduction of a power of ten, 1 for an
    # integer; scale to the smallest power of ten and print exactly
    a = (den & -den).bit_length() - 1
    rest = den >> a
    b = 0
    while rest % 5 == 0:
        rest //= 5
        b += 1
    assert rest == 1, "literal denominator must divide a power of 10"
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


class Sharing:
    """The repeated subterms of one expression or query.

    Every syntax node under the root gets a structure id, a small int
    interned from its kind, its operator, function or literal value, and
    its children's ids; spans are ignored, so two occurrences of one
    subterm get one id.  ``ids`` maps id(node) to it and holds while the
    tree is alive.  ``nodes`` is the elaboration memo, one computable
    real per structure id, filled under a single domain budget.
    ``enclosures`` is the interval backend's memo, one enclosure per
    call or pi structure id and working precision, shared by every
    intervals.eval_interval pass given this Sharing; it is None, and
    nothing is memoized, when no structure occurs twice.  ``paired``
    holds the ids of the arguments that occur under both a sin and a
    cos; the interval backend takes their sine and cosine from one
    pair per working precision, kept in the same memo.
    """

    __slots__ = ("ids", "nodes", "enclosures", "paired")

    def __init__(self, root):
        table = {}
        self.ids = {}
        self.nodes = {}
        _intern(root, table, self.ids)
        self.enclosures = {} if len(table) < len(self.ids) else None
        self.paired = frozenset(k[1] for k in table
                                if k[0] == "sin" and ("cos", k[1]) in table)


def _intern(n, table: dict, ids: dict) -> int:
    # a key leads with a tag that no two kinds share: the operator, the
    # function name, the relation, or "neg", "num", "pi"
    t = type(n)
    if t is BinOp:
        key = (n.op, _intern(n.lhs, table, ids), _intern(n.rhs, table, ids))
    elif t is Call:
        key = (n.fn, _intern(n.arg, table, ids))
    elif t is Num:
        key = ("num", n.num, n.den)
    elif t is PiConst:
        key = "pi"
    elif t is Neg:
        key = ("neg", _intern(n.arg, table, ids))
    elif t is Query:
        key = (n.relation, _intern(n.lhs, table, ids),
               _intern(n.rhs, table, ids))
    else:
        raise TypeError(f"not a syntax node: {n!r}")
    sid = ids[id(n)] = table.setdefault(key, len(table))
    return sid


def elaborate(node, budget: DomainBudget | None = None, *,
              sharing: Sharing | None = None) -> creal.CReal:
    """Turn an expression into a computable real.

    Discharges the domain side conditions along the way; raises
    DomainUnverifiable when an apartness search exhausts the budget and
    DomainViolation when a condition provably fails.  Each distinct
    subterm becomes one node.  ``sharing``, built from a tree that
    contains node (prove() passes the query's), carries the memo across
    calls under the same budget; by default it lasts for this call.
    """
    if isinstance(node, Query):
        raise TypeError("elaborate expects an expression, not a query; "
                        "use prove() for queries")
    if budget is None:
        budget = DomainBudget()
    if sharing is None:
        sharing = Sharing(node)
    return _elab(node, budget, sharing.ids, sharing.nodes)


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


def _elab(node, budget: DomainBudget, ids: dict, nodes: dict) -> creal.CReal:
    # the first occurrence of a structure elaborates it, so a domain
    # error names the first offending subterm in reading order
    sid = ids[id(node)]
    x = nodes.get(sid)
    if x is not None:
        return x
    if isinstance(node, Num):
        x = creal.const(node.num, node.den)
    elif isinstance(node, PiConst):
        x = functions.pi()
    elif isinstance(node, Neg):
        x = -_elab(node.arg, budget, ids, nodes)
    elif isinstance(node, BinOp):
        lhs = _elab(node.lhs, budget, ids, nodes)
        rhs = _elab(node.rhs, budget, ids, nodes)
        if node.op == "+":
            x = lhs + rhs
        elif node.op == "-":
            x = lhs - rhs
        elif node.op == "*":
            x = lhs * rhs
        elif node.op == "/":
            cert = _find_apart_or_raise(rhs, node.rhs.span, budget,
                                        "the divisor")
            x = creal.div(lhs, rhs, cert)
        else:
            raise AssertionError(f"unknown operator {node.op!r}")
    elif isinstance(node, Call):
        arg = _elab(node.arg, budget, ids, nodes)
        if node.fn == "exp":
            x = functions.exp(arg)
        elif node.fn == "sin":
            x = functions.sin(arg)
        elif node.fn == "cos":
            x = functions.cos(arg)
        elif node.fn == "ln":
            cert = _find_apart_or_raise(arg, node.arg.span, budget,
                                        "the ln argument")
            if cert.sign < 0:
                raise DomainViolation(
                    node.arg.span, cert,
                    f"ln argument is provably negative (witnessed at "
                    f"precision 2^-{cert.witness_precision})")
            x = functions.ln(arg, cert)
        elif node.fn == "tan":
            # one node, from one sine and cosine pair; the search
            # certifies a cos node of the argument
            cert = _find_apart_or_raise(functions.cos(arg), node.span,
                                        budget, "cos of the tan argument")
            x = functions.tan(arg, cert)
        else:
            raise AssertionError(f"unknown function {node.fn!r}")
    else:
        raise TypeError(f"not an expression node: {node!r}")
    nodes[sid] = x
    return x
