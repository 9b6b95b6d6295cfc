"""Span recorder for the traced pass.

Wraps module-level entry points of each certreal layer for the duration
of a traced pass, and records only while an operation is being timed:
input generation and result checks call some of the same entry points
and stay out of the metrics.  The untraced pass never imports this
module.  A span records its name, the operation it belongs to,
its parent span, its start and end, and the time its child spans
covered; self time is the span's duration minus that child time.  Spans
stay in memory until the pass ends, then are aggregated into the
per-layer metrics and written to a gzipped TSV file.

The wrapped entry points are looked up by name.  An entry point that a
later version of the package renames or removes is reported on
standard error and its metrics read zero, so the traced pass keeps
working while the gap stays visible.
"""

from __future__ import annotations

import gzip
import sys
import time
from collections import defaultdict

from certreal import creal, functions, intervals, kernels, lang, prover

FUNCS = ("exp", "sin", "cos", "atan", "ln1p")

# span fields
NAME, OP, PARENT, START, END, CHILD, NOTE, ERROR, OUTER = range(9)


def _kernel_note(args, result):
    # every kernel takes (..., w, cap) as its last two arguments
    return args[-2], args[-1]


def _targets():
    """(owner, attribute, span name, note) for every wrapped entry point.

    ``note(args, result)`` keeps the one fact a metric needs from a call
    that returned.
    """
    t = [
        (lang, "parse_query", "lang.parse", None),
        (lang, "parse_expression", "lang.parse", None),
        (lang, "elaborate", "lang.elaborate", None),
        (creal, "find_apart", "creal.find_apart",
         lambda args, r: r is not None),
        (creal.CReal, "approx", "creal.approx", None),
        # prover imported cmp_semidecide by name, so both bindings
        (creal, "cmp_semidecide", "creal.cmp_semidecide",
         lambda args, r: len(r.trace)),
        (prover, "cmp_semidecide", "creal.cmp_semidecide",
         lambda args, r: len(r.trace)),
        (intervals, "eval_interval", "intervals.eval_interval",
         lambda args, r: r.converged),
        (prover, "prove", "prover.prove", None),
        (prover, "verify_outcome", "prover.verify_outcome", None),
        (prover, "pi01_decide", "prover.pi01_decide", None),
        (prover, "parse_predicate", "prover.parse_predicate", None),
        (prover, "witness_search", "prover.witness_search", None),
    ]
    for f in FUNCS:
        t.append((functions, f"_cap_{f}", f"functions.caps.{f}", None))
        t.append((intervals, f"_term_cap_{f}", f"intervals.caps.{f}", None))
        t.append((kernels, f"{f}_series", f"kernels.{f}_series",
                  _kernel_note))
    return t


class Recorder:
    """Records spans around the layer entry points while installed."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._active = defaultdict(int)
        self._saved = []
        self._op = None

    def begin_op(self, index: int) -> None:
        self._op = index

    def end_op(self) -> None:
        self._op = None

    def install(self) -> None:
        for owner, attr, name, note in _targets():
            fn = owner.__dict__.get(attr)
            if fn is None:
                print(f"tracer: {owner.__name__}.{attr} not found; its "
                      f"metrics read 0", file=sys.stderr)
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn, note))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def _wrap(self, name, fn, note):
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            span = [name, self._op, stack[-1] if stack else None,
                    0, 0, 0, None, None, active[name] == 0]
            spans.append(span)
            stack.append(span)
            active[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    span[NOTE] = note(args, result)
                return result
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                t1 = clock()
                active[name] -= 1
                stack.pop()
                span[START], span[END] = t0, t1
                if stack:
                    stack[-1][CHILD] += t1 - t0

        return wrapper

    # -- aggregation -----------------------------------------------------

    def _totals(self):
        calls = defaultdict(int)
        self_ns = defaultdict(int)
        outer_ns = defaultdict(int)
        for s in self.spans:
            dur = s[END] - s[START]
            calls[s[NAME]] += 1
            self_ns[s[NAME]] += dur - s[CHILD]
            if s[OUTER]:
                outer_ns[s[NAME]] += dur
        return calls, self_ns, outer_ns

    def metrics(self) -> dict:
        """Every per-layer metric by name (overhead is added by run.py)."""
        calls, self_ns, outer_ns = self._totals()

        def sec(ns):
            return ns / 1e9

        def spans_of(name):
            return [s for s in self.spans if s[NAME] == name]

        elab = spans_of("lang.elaborate")
        apart = spans_of("creal.find_apart")
        cmp_ = spans_of("creal.cmp_semidecide")
        kern = [s for f in FUNCS for s in spans_of(f"kernels.{f}_series")]
        ivals = spans_of("intervals.eval_interval")
        ival_done = [s for s in ivals if s[ERROR] is None]
        m = {
            "lang.parse.calls": calls["lang.parse"],
            "lang.parse.self_s": sec(self_ns["lang.parse"]),
            "lang.elaborate.calls": calls["lang.elaborate"],
            "lang.elaborate.self_s": sec(self_ns["lang.elaborate"]),
            "lang.elaborate.domain_errors": sum(
                s[ERROR] in ("DomainUnverifiable", "DomainViolation")
                for s in elab),
            "creal.find_apart.calls": len(apart),
            "creal.find_apart.s": sec(outer_ns["creal.find_apart"]),
            "creal.find_apart.cert_ratio": (
                sum(s[NOTE] is True for s in apart) / len(apart)
                if apart else 0.0),
            "creal.approx.calls": calls["creal.approx"],
            "creal.approx.self_s": sec(self_ns["creal.approx"]),
            "creal.cmp_semidecide.calls": len(cmp_),
            "creal.cmp_semidecide.self_s": sec(
                self_ns["creal.cmp_semidecide"]),
            "creal.cmp_semidecide.probes": sum(
                s[NOTE] or 0 for s in cmp_),
            "functions.caps.calls": sum(
                calls[f"functions.caps.{f}"] for f in FUNCS),
            "functions.caps.s": sec(sum(
                outer_ns[f"functions.caps.{f}"] for f in FUNCS)),
        }
        for f in FUNCS:
            m[f"functions.caps.{f}.s"] = sec(outer_ns[f"functions.caps.{f}"])
        m["kernels.calls"] = len(kern)
        m["kernels.s"] = sec(sum(outer_ns[f"kernels.{f}_series"]
                                 for f in FUNCS))
        for f in FUNCS:
            m[f"kernels.{f}_series.s"] = sec(outer_ns[f"kernels.{f}_series"])
        m["kernels.width_bits.max"] = max(
            (s[NOTE][0] for s in kern if s[NOTE]), default=0)
        m["kernels.cap_terms.sum"] = sum(s[NOTE][1] for s in kern if s[NOTE])
        m["intervals.eval_interval.calls"] = len(ivals)
        m["intervals.eval_interval.self_s"] = sec(
            self_ns["intervals.eval_interval"])
        m["intervals.eval_interval.unconverged_ratio"] = (
            sum(s[NOTE] is False for s in ival_done) / len(ival_done)
            if ival_done else 0.0)
        m["intervals.eval_interval.domain_undetermined"] = sum(
            s[ERROR] == "DomainUndetermined" for s in ivals)
        m["intervals.caps.s"] = sec(sum(outer_ns[f"intervals.caps.{f}"]
                                        for f in FUNCS))
        m["prover.prove.self_s"] = sec(self_ns["prover.prove"])
        m["prover.verify_outcome.s"] = sec(outer_ns["prover.verify_outcome"])
        m["prover.pi01_decide.self_s"] = sec(self_ns["prover.pi01_decide"])
        m["prover.parse_predicate.s"] = sec(
            outer_ns["prover.parse_predicate"])
        m["prover.witness_search.s"] = sec(outer_ns["prover.witness_search"])
        return m

    def layer_split(self, busy_s: float) -> dict:
        """Share of the traced busy time spent as self time in each layer.

        "bench" is operation time outside every span: the benchmark's
        own loop and whatever the package does between entry points.
        """
        _, self_ns, _ = self._totals()
        split = defaultdict(float)
        for name, ns in self_ns.items():
            split[name.split(".")[0]] += ns / 1e9
        covered = sum(s[END] - s[START] for s in self.spans
                      if s[PARENT] is None) / 1e9
        split["bench"] = busy_s - covered
        return {k: v / busy_s for k, v in sorted(split.items())}

    def write_spans(self, path):
        """Write every span as one line of gzipped TSV: op, id, parent
        id, name, start ns, end ns, self ns, error."""
        ids = {id(s): i for i, s in enumerate(self.spans)}
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("op\tid\tparent\tname\tstart_ns\tend_ns\tself_ns\terror\n")
            for i, s in enumerate(self.spans):
                parent = "" if s[PARENT] is None else ids[id(s[PARENT])]
                f.write(f"{s[OP]}\t{i}\t{parent}\t{s[NAME]}\t{s[START]}\t"
                        f"{s[END]}\t{s[END] - s[START] - s[CHILD]}\t"
                        f"{s[ERROR] or ''}\n")
        return path
