"""Built-in cross-validation suite.

Runs the two evaluation backends against each other over a fixed,
deterministically generated corpus of closed-form expressions, and
checks the independent pi routes against one another.  Every corpus
entry is domain-clean by construction: denominators are bounded away
from zero, ln arguments are provably positive, tan arguments stay away
from the cosine zeros.

The full run is what `certreal selftest` executes; quick mode is a
strict subset for smoke testing.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import functions, lang
from .dyadic import power_of_two
from .intervals import conformance_check

FULL_PRECISIONS = (4, 10, 20, 40)
QUICK_PRECISIONS = (4, 10)
CORPUS_SIZE = 200

_ATOMS = ("1", "2", "3", "7", "0.5", "1.25", "0.125", "2.5", "pi")
_TAN_ARGS = ("0.5", "1", "0.25", "1.5", "0.125")


def _generate() -> list[str]:
    out = []
    for a in _ATOMS:
        out.append(a)
        out.append(f"0 - {a}")
    pairs = list(zip(_ATOMS, _ATOMS[1:] + _ATOMS[:1]))
    for a, b in pairs:
        out.append(f"{a} + {b}")
        out.append(f"{a} - {b}")
        out.append(f"{a} * {b}")
        out.append(f"{a} / {b}")
    for a in _ATOMS:
        out.append(f"sin({a})")
        out.append(f"cos({a})")
        out.append(f"exp({a})")
        out.append(f"ln({a})")
    for a in _TAN_ARGS:
        out.append(f"tan({a})")
    for a in _ATOMS[:6]:
        out.append(f"sin(cos({a}))")
        out.append(f"exp(sin({a}))")
        out.append(f"cos({a}) * cos({a}) + sin({a}) * sin({a})")
        out.append(f"ln(1 + exp(0 - {a}))")
    for a in _ATOMS:
        out.append(f"sin({a}) / exp({a})")
        out.append(f"{a} / pi")
        out.append(f"pi * {a} - {a}")
    for a, b in pairs[:6]:
        out.append(f"exp({a} - {b})")
        out.append(f"sin({a} * {b})")
        out.append(f"({a} + {b}) / (2 + sin({a}))")
    for a, b in pairs:
        out.append(f"cos({a} - {b})")
        out.append(f"ln({a} + {b})")
        out.append(f"exp(0 - {a}) * {b}")
    for a in _TAN_ARGS:
        out.append(f"tan({a}) * cos({a})")
    for a in _ATOMS:
        out.append(f"(pi + {a}) / (pi + 1)")
    return out


def corpus() -> tuple[str, ...]:
    """The fixed expression corpus, exactly CORPUS_SIZE entries."""
    exprs = _generate()
    assert len(exprs) >= CORPUS_SIZE
    return tuple(exprs[:CORPUS_SIZE])


@dataclass(frozen=True, slots=True)
class CheckResult:
    expression: str
    precision: int
    passed: bool
    converged: bool


@dataclass(frozen=True, slots=True)
class PiCheck:
    """Agreement of one pi route against the production route."""

    method: str
    precision: int
    passed: bool


@dataclass(frozen=True, slots=True)
class SelfTestReport:
    checks: tuple[CheckResult, ...]
    pi_checks: tuple[PiCheck, ...]

    @property
    def passed(self) -> bool:
        return (all(c.passed for c in self.checks)
                and all(p.passed for p in self.pi_checks))

    @property
    def failures(self) -> tuple:
        bad = [c for c in self.checks if not c.passed]
        bad += [p for p in self.pi_checks if not p.passed]
        return tuple(bad)

    @property
    def unconverged(self) -> int:
        """Conformance checks whose interval enclosure stayed wider than
        requested: still sound, so not failures, but worth seeing."""
        return sum(not c.converged for c in self.checks)

    def summary(self) -> str:
        n = len(self.checks) + len(self.pi_checks)
        bad = len(self.failures)
        verdict = "PASS" if self.passed else "FAIL"
        return (f"{verdict}: {n - bad}/{n} checks passed, "
                f"{self.unconverged} unconverged")


def _pi_agreement(k: int, method: str, **kw) -> PiCheck:
    # both routes are within 2**-k of the same number, so their
    # approximations may differ by at most 2**(1-k)
    a = functions.pi().approx(k)
    b = functions.pi(method, **kw).approx(k)
    tol = power_of_two(1 - k)
    diff = a - b
    return PiCheck(method, k, abs(diff).compare(tol) <= 0)


def run(quick: bool = False, precisions=None) -> SelfTestReport:
    """Execute the cross-validation suite and return its report.

    ``precisions`` overrides the conformance precision list; the pi
    agreement checks keep their own fixed precisions either way.
    """
    exprs = corpus()
    if precisions is None:
        precisions = QUICK_PRECISIONS if quick else FULL_PRECISIONS
    else:
        precisions = tuple(precisions)
        if not precisions or any(not isinstance(k, int) or k < 0
                                 for k in precisions):
            raise ValueError("precisions must be nonnegative integers")
    if quick:
        exprs = exprs[::8]
    checks = []
    for text in exprs:
        expr = lang.parse_expression(text)
        for k in precisions:
            rep = conformance_check(expr, k)
            checks.append(CheckResult(text, k, rep.passed, rep.converged))
    if quick:
        pi_checks = (
            _pi_agreement(30, "cos_iteration"),
            _pi_agreement(8, "leibniz"),
        )
    else:
        pi_checks = (
            _pi_agreement(100, "cos_iteration"),
            _pi_agreement(10, "leibniz"),
        )
    return SelfTestReport(tuple(checks), pi_checks)
