"""Command-line front end.

Four subcommands:

  prove QUERY      semi-decide a strict inequality
  eval EXPR        print a certified decimal approximation
  pi01 PRED        decide a universally quantified predicate over n
  selftest         run the built-in cross-validation suite

Exit codes: 0 proved / counterexample found / success, 1 refuted or
selftest failure, 2 budget exhausted (no decision, including a
ResourceExhausted error: a working precision or a predicate power over
its limit), 3 usage or evaluation error (including an
expression nested past lang.DEPTH_LIMIT), 4 internal error (a
ConformanceError, such as the backends disagreeing, or any other
unexpected exception; never a verdict).  JSON output (--json) follows docs/cli-schema.json.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from . import lang, prover, selftest
from .dyadic import power_of_two, to_decimal_string
from .errors import CertRealError, ConformanceError, ResourceExhausted
from .kernels import PRECISION_LIMIT
from .prover import Counterexample, outcome_jsonable

DEFAULT_EVAL_DIGITS = 30


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors, which collides with the
    # "budget exhausted" code; route usage errors to 3
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    p = _ArgumentParser(prog="certreal",
                        description="exact real arithmetic with "
                                    "certified error bounds")
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("prove", parents=[],
                        help="semi-decide a strict inequality")
    pr.add_argument("query", help="e.g. 'exp(pi) - pi < 20'")
    pr.add_argument("--max-prec", type=int, default=prover.DEFAULT_MAX_PRECISION,
                    metavar="K", help="stop after precision 2^-K")
    pr.add_argument("--start-eps", default=None, metavar="RAT",
                    help="initial enclosure width as a rational, "
                         "e.g. 1/1024 or 0.01")
    pr.add_argument("--backend",
                    choices=("approx", "creal", "interval", "both"),
                    default="approx",
                    help="creal is an alias for approx, the module that "
                         "implements that backend")
    pr.add_argument("--trace", action="store_true",
                    help="show every refinement step")
    pr.add_argument("--json", action="store_true")

    ev = sub.add_parser("eval", help="certified decimal approximation")
    ev.add_argument("expression")
    ev.add_argument("--digits", type=int, default=DEFAULT_EVAL_DIGITS,
                    metavar="D", help="decimal digits after the point")
    ev.add_argument("--json", action="store_true")

    pz = sub.add_parser("pi01",
                        help="decide 'for all n, P(n)' for a decidable "
                             "predicate P")
    pz.add_argument("predicate", help="e.g. 'n < 20 or 3 | n'")
    pz.add_argument("--max-prec", type=int,
                    default=prover.DEFAULT_PI01_MAX_PRECISION, metavar="K")
    pz.add_argument("--json", action="store_true")

    st = sub.add_parser("selftest", help="cross-validate the backends")
    st.add_argument("--quick", action="store_true")
    st.add_argument("--prec-list", default=None, metavar="K,K,...",
                    help="comma-separated conformance precisions, "
                         "overriding the built-in list")
    st.add_argument("--json", action="store_true")
    return p


# a trailing decimal exponent e, which Fraction expands into 10**|e|
_EXPONENT = re.compile(r"[eE]([-+]?[0-9_]+)\s*\Z")


def _start_precision(text: str | None, max_prec: int) -> int:
    if text is None:
        return 1
    limit = max(max_prec, 1)
    # no precision above PRECISION_LIMIT can run, so none is looked for
    runs = min(limit, PRECISION_LIMIT)
    # a mantissa shorter than the text lies in [10**-n, 10**n) for
    # n = len(text), so past n + runs decades the exponent alone
    # decides and the text is read with its exponent digits zeroed,
    # which keeps its syntax and sign
    far = len(text) + runs
    exp = _EXPONENT.search(text)
    try:
        e = 0 if exp is None else int(exp[1])
        eps = Fraction(text if abs(e) <= far else
                       text[:exp.start(1)] + re.sub("[1-9]", "0", exp[1])
                       + text[exp.end(1):])
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"--start-eps: not a rational: {text!r}")
    if eps <= 0:
        raise ValueError("--start-eps must be positive")
    if e > far:
        return 1
    # coarsest dyadic grid at least as fine as the requested width: the
    # least k >= 1 with q <= p * 2**k is the bit-length gap or one more
    if e >= -far:
        p, q = eps.numerator, eps.denominator
        k = max(1, q.bit_length() - p.bit_length())
        if p << k < q:
            k += 1
        if k <= runs:
            return k
    if runs < limit:
        raise ResourceExhausted("--start-eps asks for a precision over the "
                                f"limit 2^-{PRECISION_LIMIT}")
    raise ValueError("--start-eps is finer than --max-prec allows")


def _fmt_endpoint(d) -> str:
    return to_decimal_string(d, 10)


def _print_trace(steps) -> None:
    for s in steps:
        print(f"  k={s.precision:<6d} {s.backend:<8s} "
              f"lhs=[{_fmt_endpoint(s.lhs.lo)}, {_fmt_endpoint(s.lhs.hi)}] "
              f"rhs=[{_fmt_endpoint(s.rhs.lo)}, {_fmt_endpoint(s.rhs.hi)}]")


def _cmd_prove(args) -> int:
    start_k = _start_precision(args.start_eps, args.max_prec)
    backend = prover.normalize_backend(args.backend)
    outcome = prover.prove(args.query, start_precision=start_k,
                           max_precision=args.max_prec,
                           backend=backend)
    verified = prover.verify_outcome(outcome)
    if args.json:
        doc = {
            "command": "prove",
            "query": args.query,
            "backend": backend,
            "result": outcome_jsonable(outcome, include_trace=args.trace),
            "verified": verified,
        }
        print(json.dumps(doc, indent=2))
    else:
        print(outcome)
        if args.trace:
            _print_trace(outcome.trace)
    if isinstance(outcome, prover.Proved):
        return 0
    if isinstance(outcome, prover.Refuted):
        return 1
    return 2


def _cmd_eval(args) -> int:
    if args.digits < 1:
        raise ValueError("--digits must be at least 1")
    expr = lang.parse_expression(args.expression)
    x = lang.elaborate(expr)
    k = _eval_precision(args.digits)
    q = x.approx(k)
    text = to_decimal_string(q, args.digits)
    if args.json:
        r = power_of_two(-k)
        doc = {
            "command": "eval",
            "expression": args.expression,
            "digits": args.digits,
            "precision": k,
            "value": text,
            "enclosure": {
                "lo": prover._dyadic_jsonable(q - r),
                "hi": prover._dyadic_jsonable(q + r),
            },
        }
        print(json.dumps(doc, indent=2))
    else:
        print(text)
    return 0


def _eval_precision(digits: int) -> int:
    """(10**digits).bit_length() + 2, without building 10**digits.

    2**-k is then below a quarter of the last printed decimal place, so
    the rendering is off by at most one unit in that place.  k is
    floor(digits * log2(10)) + 3, and digits * log2(10) is never an
    integer, so a fine enough enclosure of it settles the floor; a k
    over the precision limit is refused by approx.
    """
    x = lang.elaborate(lang.parse_expression(f"{digits} * ln(10) / ln(2)"))
    j = 16
    while True:
        q, r = x.approx(j), power_of_two(-j)
        lo = (q - r).floor()
        if lo == (q + r).floor():
            return lo + 3
        j *= 2


def _cmd_pi01(args) -> int:
    result = prover.pi01_decide(args.predicate, max_precision=args.max_prec)
    found = isinstance(result, Counterexample)
    if args.json:
        if found:
            body = {"outcome": "counterexample", "n": result.n}
        else:
            body = {"outcome": "no_counterexample_below_bound",
                    "max_precision": result.max_precision}
        body["comparison"] = outcome_jsonable(result.comparison,
                                              include_trace=False)
        doc = {
            "command": "pi01",
            "predicate": args.predicate,
            "result": body,
        }
        print(json.dumps(doc, indent=2))
    else:
        print(result)
    return 0 if found else 2


def _parse_prec_list(text: str) -> tuple:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"--prec-list: not a comma-separated integer "
                         f"list: {text!r}")


def _cmd_selftest(args) -> int:
    precisions = (_parse_prec_list(args.prec_list)
                  if args.prec_list is not None else None)
    report = selftest.run(quick=args.quick, precisions=precisions)
    if args.json:
        failures = []
        for f in report.failures:
            if isinstance(f, selftest.CheckResult):
                failures.append({"expression": f.expression,
                                 "precision": f.precision})
            else:
                failures.append({"method": f.method,
                                 "precision": f.precision})
        doc = {
            "command": "selftest",
            "quick": args.quick,
            "passed": report.passed,
            "total": len(report.checks) + len(report.pi_checks),
            "failed": len(report.failures),
            "unconverged": report.unconverged,
            "failures": failures,
        }
        print(json.dumps(doc, indent=2))
    else:
        print(report.summary())
        for f in report.failures:
            if isinstance(f, selftest.CheckResult):
                print(f"  FAIL {f.expression!r} at k={f.precision}")
            else:
                print(f"  FAIL pi method {f.method!r} at k={f.precision}")
    return 0 if report.passed else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {
        "prove": _cmd_prove,
        "eval": _cmd_eval,
        "pi01": _cmd_pi01,
        "selftest": _cmd_selftest,
    }[args.command]
    try:
        return handler(args)
    except ResourceExhausted as e:
        # a budget ran out before any answer, as with Exhausted
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ConformanceError as e:
        # the backends disagree: an engine bug, not a user error
        print(f"internal error: {e}", file=sys.stderr)
        return 4
    except (CertRealError, ValueError, TypeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except Exception as e:
        # a crash must not exit 1, which reads as "refuted"
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
