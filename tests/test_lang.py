"""Parsing, printing, spans, and elaboration with domain discharge."""

import random
import threading
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import oracles
from certreal import creal, lang, prover
from certreal.errors import (DomainUnverifiable, DomainViolation, ParseError,
                             RelationUnsupported)
from certreal.lang import (DEPTH_LIMIT, TAN_HEIGHT, BinOp, Call,
                           DomainBudget, Neg, Num, PiConst, Query, Sharing,
                           elaborate, format_expr, parse, parse_expression,
                           parse_query, same_tree)

S = (0, 0)  # spans are ignored by same_tree


def _dec(num, den):
    return Num(num, den, S)


exprs = st.deferred(lambda: st.one_of(
    st.integers(0, 10 ** 6).map(lambda n: Num(n, 1, S)),
    st.sampled_from([_dec(1, 2), _dec(5, 4), _dec(1, 8), _dec(3, 10),
                     _dec(7, 100), _dec(123, 1000)]),
    st.just(PiConst(S)),
    st.builds(lambda a: Neg(a, S), exprs),
    st.builds(lambda op, a, b: BinOp(op, a, b, S),
              st.sampled_from("+-*/"), exprs, exprs),
    st.builds(lambda f, a: Call(f, a, S),
              st.sampled_from(lang.FUNCTIONS), exprs),
))


@given(exprs)
def test_print_parse_round_trip(e):
    text = format_expr(e)
    back = parse_expression(text)
    assert same_tree(e, back), text


@given(exprs, exprs, st.sampled_from("<>"))
def test_query_round_trip(a, b, rel):
    q = Query(a, rel, b, S)
    back = parse(format_expr(q))
    assert isinstance(back, Query)
    assert back.relation == rel
    assert same_tree(q, back)


def test_parse_basics():
    e = parse_expression("1 + 2 * 3")
    assert isinstance(e, BinOp) and e.op == "+"
    assert isinstance(e.rhs, BinOp) and e.rhs.op == "*"
    # left associativity
    e2 = parse_expression("1 - 2 - 3")
    assert e2.op == "-" and isinstance(e2.lhs, BinOp)
    assert e2.lhs.rhs.num == 2 and e2.rhs.num == 3
    e3 = parse_expression("-sin(pi)")
    assert isinstance(e3, Neg) and isinstance(e3.arg, Call)


def test_decimal_literals():
    d = parse_expression("0.50")
    assert isinstance(d, Num) and (d.num, d.den) == (1, 2)
    assert isinstance(parse_expression("1.25"), Num)
    assert parse_expression("1.25").num == 5
    # a decimal denoting an integer is the integer node
    two = parse_expression("2.0")
    assert isinstance(two, Num) and (two.num, two.den) == (2, 1)
    assert format_expr(two) == "2"


def test_literals_past_int_str_limit():
    # 5000 digits: more than Python's default int/str conversion limit
    digits = "1234567890" * 500
    exact = 1234567890 * (10 ** 5000 - 1) // (10 ** 10 - 1)
    n = parse_expression(digits)
    assert isinstance(n, Num) and (n.num, n.den) == (exact, 1)
    assert format_expr(n) == digits
    d = parse_expression("0." + digits)
    assert isinstance(d, Num)
    assert Fraction(d.num, d.den) == Fraction(exact, 10 ** 5000)
    assert format_expr(d) == "0." + digits[:-1]


def test_spans_cover_source():
    text = "sin(pi) + 1.5"
    e = parse_expression(text)
    assert text[slice(*e.span)] == text
    assert text[slice(*e.lhs.span)] == "sin(pi)"
    assert text[slice(*e.lhs.arg.span)] == "pi"
    assert text[slice(*e.rhs.span)] == "1.5"


def test_same_tree_ignores_spans():
    a = parse_expression("1+2")
    b = parse_expression("  1 +   2 ")
    assert a.span != b.span or a.lhs.span != b.lhs.span
    assert same_tree(a, b)
    assert not same_tree(a, parse_expression("2+1"))


def test_same_tree_compares_kinds_values_and_relations():
    assert same_tree(parse_expression("2.50"), parse_expression("2.5"))
    assert not same_tree(Num(2, 1, S), Num(1, 2, S))
    assert not same_tree(parse_expression("-pi"), parse_expression("pi"))
    assert not same_tree(parse_expression("sin(1)"),
                         parse_expression("cos(1)"))
    assert same_tree(parse_query("pi > 3"), parse_query(" pi>3"))
    assert not same_tree(parse_query("pi > 3"), parse_query("pi < 3"))
    assert not same_tree(parse_query("pi > 3"), parse_expression("pi"))
    with pytest.raises(TypeError):
        same_tree(parse_expression("1"), 1)


@pytest.mark.parametrize("text,frag", [
    ("", "expected"),
    ("1 +", "expected"),
    ("(1", "expected ')'"),
    ("1.", "digit expected after decimal point"),
    ("foo(1)", "unknown name"),
    ("sin 1", "expected '('"),
    ("sin(1, 2)", "unexpected character"),
    ("1 @ 2", "unexpected character"),
    ("1 < 2 < 3", "only one comparison per query"),
])
def test_parse_errors(text, frag):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert frag in str(exc.value)


def test_error_positions_are_byte_offsets():
    with pytest.raises(ParseError) as exc:
        parse_expression("12 + $")
    assert exc.value.position == 5
    assert "(at byte 5)" in str(exc.value)


@pytest.mark.parametrize("text", ["1 <= 2", "1 >= 2", "1 = 2", "1 == 2"])
def test_nonstrict_relations_rejected(text):
    with pytest.raises(RelationUnsupported) as exc:
        parse(text)
    assert "only strict < and > are supported" in str(exc.value)


def test_parse_query_requires_relation():
    with pytest.raises(ParseError):
        parse_query("1 + 2")
    q = parse_query("1 < 2")
    assert isinstance(q, Query)
    # and parse_expression refuses queries
    with pytest.raises(ParseError):
        parse_expression("1 < 2")


def test_format_query():
    q = parse("exp(pi) - pi < 20")
    assert format_expr(q) == "exp(pi) - pi < 20"


def test_printer_parenthesizes_only_when_needed():
    t = parse_expression("(1 + 2) * 3")
    assert format_expr(t) == "(1 + 2) * 3"
    t2 = parse_expression("1 + 2 * 3")
    assert format_expr(t2) == "1 + 2 * 3"
    t3 = BinOp("+", Num(1, 1, S),
               BinOp("+", Num(2, 1, S), Num(3, 1, S), S), S)
    assert format_expr(t3) == "1 + (2 + 3)"
    t4 = parse_expression("-(1 + 2)")
    assert format_expr(t4) == "-(1 + 2)"


@pytest.mark.parametrize("text", [
    "1 + 2 * 3",
    "exp(1) - ln(7)",
    "sin(pi / 6) * 2",
    "tan(1) / exp(2)",
    "0.125 * (pi - 3)",
])
def test_elaborate_matches_oracle(text):
    e = parse_expression(text)
    x = elaborate(e)
    lo, hi = oracles.eval_expr_bounds(e, 80)
    q = x.approx(60).as_fraction()
    assert lo - Fraction(1, 2 ** 60) <= q <= hi + Fraction(1, 2 ** 60)


def test_elaborate_domain_unverifiable():
    with pytest.raises(DomainUnverifiable) as exc:
        elaborate(parse_expression("1 / (1 - 1)"))
    assert "may be zero or merely too close to call" in str(exc.value)
    with pytest.raises(DomainUnverifiable):
        elaborate(parse_expression("ln(sin(pi))"))
    with pytest.raises(DomainUnverifiable):
        elaborate(parse_expression("tan(pi / 2)"))


def test_elaborate_domain_violation_negative_ln():
    with pytest.raises(DomainViolation) as exc:
        elaborate(parse_expression("ln(0 - 2)"))
    assert "provably negative" in str(exc.value)
    assert exc.value.evidence.sign == -1


def test_elaborate_budget_controls_search_depth():
    deep = parse_expression("1 / 0.0000001")  # needs k around 24
    assert elaborate(deep) is not None
    with pytest.raises(DomainUnverifiable) as exc:
        elaborate(deep, DomainBudget(max_precision=8))
    assert exc.value.max_precision == 8


def test_elaborate_rejects_queries():
    with pytest.raises(TypeError):
        elaborate(parse("1 < 2"))


def test_domain_budget_validation():
    with pytest.raises(ValueError):
        DomainBudget(start_precision=0)
    with pytest.raises(ValueError):
        DomainBudget(start_precision=9, max_precision=3)


# -- nesting limit ----------------------------------------------------------

L = DEPTH_LIMIT
T = (L - 1) // TAN_HEIGHT  # the most nested tans of height at most L


@pytest.mark.parametrize("text", [
    "(" * L + "1" + ")" * L,                  # groups
    "-" * (L - 1) + "1",                      # height L
    "+".join(["1"] * L),                      # a chain of height L
    "sin(" * (L - 1) + "1" + ")" * (L - 1),   # calls
    "tan(" * T + "0.1" + ")" * T,             # tan counts TAN_HEIGHT
])
def test_nesting_at_the_limit_parses(text):
    e = parse_expression(text)
    assert same_tree(parse_expression(format_expr(e)), e)
    assert format_expr(parse(f"{text} < {text}")).count("<") == 1


@pytest.mark.parametrize("text,position", [
    ("(" * (L + 1) + "1" + ")" * (L + 1), L),         # the group past it
    ("-" * L + "1", 0),                               # the minus on top
    ("+".join(["1"] * (L + 1)), 2 * L - 1),           # the last plus
    ("2 * " + "exp(" * L + "1" + ")" * L, 4),         # the outermost exp
    ("tan(" * (T + 1) + "0.1" + ")" * (T + 1), 0),    # the outermost tan
])
def test_nesting_past_the_limit_is_a_parse_error(text, position):
    with pytest.raises(ParseError) as exc:
        parse_expression(text)
    assert exc.value.position == position
    assert f"deeper than {L} levels" in str(exc.value)


# groups nested n deep under binary operators, the parser's deepest
# walks, and whether each parses; the parser spends four frames per
# group, and a fifth would overflow Python's stack before the limit
@pytest.mark.parametrize("prefix,n,parses", [
    ("1+1*(", L - 1, False), ("1+1*(", L, False),
    ("1-1/(", L - 1, False), ("1-1/(", L, False),
    ("1*(", L - 1, True), ("1*(", L, False),
    ("(", L - 1, True), ("(", L, True),
])
def test_nested_groups_end_in_a_tree_or_a_parse_error(prefix, n, parses):
    text = prefix * n + "1" + ")" * n
    if parses:
        e = parse_expression(text)
        assert same_tree(parse_expression(format_expr(e)), e)
    else:
        with pytest.raises(ParseError, match=f"deeper than {L} levels"):
            parse_expression(text)


# -- one node per distinct subterm ------------------------------------------

IDENTITY = "sin(0.62) * sin(0.62) + cos(0.62) * cos(0.62)"


def test_structure_ids_ignore_spans():
    q = parse_query("exp( 1.5 )*2 < exp(1.50) * 2")
    ids = Sharing(q).ids
    assert ids[id(q.lhs)] == ids[id(q.rhs)]
    assert ids[id(q.lhs.lhs)] == ids[id(q.rhs.lhs)]
    assert ids[id(q.lhs.lhs)] != ids[id(q.lhs)]
    assert ids[id(q.lhs.rhs)] == ids[id(q.rhs.rhs)]
    assert Sharing(q).enclosures == {}
    assert Sharing(parse_query("exp(1) < 2")).enclosures is None


def test_elaboration_shares_repeated_subterms():
    x = elaborate(parse_expression(IDENTITY))
    sin_sq, cos_sq = x.x, x.y
    assert sin_sq.x is sin_sq.y
    assert cos_sq.x is cos_sq.y
    assert sin_sq.x.x is cos_sq.x.x  # one 0.62


def _count_find_apart(monkeypatch):
    calls = []
    honest = creal.find_apart

    def counting(x, *args):
        calls.append(x)
        return honest(x, *args)

    monkeypatch.setattr(creal, "find_apart", counting)
    return calls


def test_repeated_divisor_is_certified_once(monkeypatch):
    calls = _count_find_apart(monkeypatch)
    elaborate(parse_expression("1/(exp(0.5) - 1) + 1/(exp(0.5) - 1)"))
    assert len(calls) == 1
    # prove shares one memo between the two sides of a query
    calls.clear()
    out = prover.prove("1/(exp(0.5) - 1) < 1/(exp(0.5) - 1) + 1")
    assert isinstance(out, prover.Proved)
    assert len(calls) == 1


def _dag_nodes(x, seen):
    if id(x) in seen:
        return seen
    seen[id(x)] = x
    for cls in type(x).__mro__:
        for slot in getattr(cls, "__slots__", ()):
            child = getattr(x, slot, None)
            if isinstance(child, creal.CReal):
                _dag_nodes(child, seen)
    return seen


def test_elaborations_share_no_node():
    # no pi or ln: those are process-wide nodes by design
    text = "1/(exp(0.5) - 1) + " + IDENTITY + " * tan(0.2)"
    a = _dag_nodes(elaborate(parse_expression(text)), {})
    b = _dag_nodes(elaborate(parse_expression(text)), {})
    assert len(a) == len(b) > 10
    assert not a.keys() & b.keys()


_SHARED_TEXT = (IDENTITY + " - exp(0.3) * exp(0.3) / (1 + exp(0.3) * exp(0.3))"
                " + tan(0.4) * tan(0.4)")


def _bits(q):
    return q.mantissa, q.exponent


def _cold(ks):
    # each precision from a fresh elaboration, so no memo is warm
    return [_bits(elaborate(parse_expression(_SHARED_TEXT)).approx(k))
            for k in ks]


def test_threads_approximate_a_shared_dag_identically():
    rng = random.Random("shared-dag-threads")
    ks = [rng.randint(20, 1500) for _ in range(6)]
    cold = _cold(ks)
    x = elaborate(parse_expression(_SHARED_TEXT))
    barrier = threading.Barrier(3)
    results = [None] * 3

    def run(i):
        barrier.wait()
        # each thread walks the precisions from a different start
        order = ks[2 * i:] + ks[:2 * i]
        got = {k: _bits(x.approx(k)) for k in order}
        results[i] = [got[k] for k in ks]

    threads = [threading.Thread(target=run, args=(i,)) for i in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results == [cold] * 3


def test_shared_dag_bits_do_not_depend_on_history():
    rng = random.Random("shared-dag-history")
    ks = [rng.randint(20, 1500) for _ in range(4)]
    cold = _cold(ks)
    x = elaborate(parse_expression(_SHARED_TEXT))
    for _ in range(12):
        k = rng.randint(0, 2000)
        if k not in ks:
            x.approx(k)
    assert [_bits(x.approx(k)) for k in ks] == cold
