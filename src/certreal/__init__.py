"""certreal: exact real arithmetic with certified dyadic error bounds.

Numbers are represented by approximation procedures: asking a value
for precision k returns a dyadic rational provably within 2**-k of the
exact result, at every k.  On top of that sit semi-decision of strict
inequalities, an independent interval backend for cross-checking, a
small expression language with domain-condition discharge, and a
decision pipeline for universally quantified arithmetic predicates.

No floating point is used anywhere in the evaluation paths.
"""

from .creal import (ApartnessCertificate, CReal, Exhausted, ProofOutcome,
                    Proved, Refuted, TraceStep, archimedean_bound,
                    cmp_semidecide, const, deepening_schedule, div,
                    find_apart, lim, recip, scale2, series_sum)
from .dyadic import BigDyadic, dyadic, to_decimal_string
from .errors import (CertRealError, ConformanceError, DomainUndetermined,
                     DomainUnverifiable, DomainViolation, ExponentOverflow,
                     InvalidCertificate, LangError, ParseError,
                     RelationUnsupported, ResourceExhausted)
from .functions import atan_rat, cos, exp, ln, pi, sin, tan
from .intervals import (ConformanceReport, Interval, IntervalResult,
                        conformance_check, eval_interval)
from .lang import (DomainBudget, Query, elaborate, format_expr, parse,
                   parse_expression, parse_query, same_tree)
from .prover import (Counterexample, NoCounterexampleBelowBound, Pi01Pred,
                     outcome_jsonable, parse_predicate, pi01_decide,
                     pi01_sum, prove, verify_outcome)

__version__ = "0.1.0"

__all__ = [
    "ApartnessCertificate", "BigDyadic", "CReal", "CertRealError",
    "ConformanceError", "ConformanceReport", "Counterexample",
    "DomainBudget", "DomainUndetermined", "DomainUnverifiable",
    "DomainViolation", "Exhausted", "ExponentOverflow", "Interval",
    "IntervalResult", "InvalidCertificate", "LangError",
    "NoCounterexampleBelowBound", "ParseError", "Pi01Pred", "ProofOutcome",
    "Proved", "Query", "Refuted", "RelationUnsupported",
    "ResourceExhausted", "TraceStep", "archimedean_bound",
    "atan_rat", "cmp_semidecide", "conformance_check", "const", "cos",
    "deepening_schedule", "div", "dyadic", "elaborate", "eval_interval",
    "exp", "find_apart", "format_expr", "lim", "ln", "outcome_jsonable",
    "parse", "parse_expression", "parse_predicate", "parse_query", "pi",
    "pi01_decide", "pi01_sum", "prove", "recip", "scale2", "series_sum",
    "sin", "tan", "to_decimal_string", "verify_outcome", "__version__",
]
