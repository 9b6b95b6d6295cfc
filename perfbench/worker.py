"""One measured pass of one workload, in a fresh interpreter.

run.py starts this file once per pass, because pi(), _ln2() and
intervals._LN2_CACHE are process-global memos: a pass that shares an
interpreter with another would find them warm.  The pass is a closed
loop with a single client: the next operation starts when the previous
one has returned.  Only the call into the library is timed; generating
inputs, computing expected answers and checking results happen between
timed calls.

Usage: python3 perfbench/worker.py --workload NAME --seed N
           (--seconds S | --rounds R) [--trace]

Prints one JSON object on its last line of standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import certreal  # noqa: E402

import speed  # noqa: E402
import workloads  # noqa: E402

# failures listed in full in the output; the rest are only counted
SHOWN_FAILURES = 5


def measure(ops_rounds, seconds=None, rounds=None, recorder=None) -> dict:
    """Run whole rounds until ``rounds`` are done, or until the next
    round would be expected to end past ``seconds`` of timed work.

    A ``recorder`` is told where each timed operation begins and ends,
    so that its spans cover timed work only.  Between operations a
    speed.Gauge probes the machine's speed, untimed and untraced.
    """
    gauge = speed.Gauge()
    latencies = []
    stamps = []
    failures = []
    failed = 0
    first_round = hashlib.sha256()
    every_op = hashlib.sha256()
    busy = 0.0
    done = 0
    for batch in ops_rounds:
        for op in batch:
            if recorder is not None:
                recorder.begin_op(len(latencies))
            t0 = time.perf_counter()
            try:
                result = workloads.execute(op)
            except Exception as exc:  # judged by check(); never fatal
                result = exc
            elapsed = time.perf_counter() - t0
            if recorder is not None:
                recorder.end_op()
            latencies.append(elapsed)
            stamps.append(t0 + elapsed / 2)
            busy += elapsed
            gauge.keep_up(busy)
            line = workloads.fingerprint(op, result)
            if not workloads.check(op, result):
                failed += 1
                if len(failures) < SHOWN_FAILURES:
                    detail = f"{result}" if isinstance(result, Exception) \
                        else ""
                    failures.append(f"{line:.300} {detail:.300}")
            every_op.update(line.encode() + b"\n")
            if done == 0:
                first_round.update(line.encode() + b"\n")
        done += 1
        if rounds is not None:
            if done >= rounds:
                break
        elif busy + busy / done > seconds:
            break
    return {
        "rounds": done,
        "latencies_s": latencies,
        "scaled_s": gauge.scaled(latencies, stamps),
        "failed": failed,
        "failures": failures,
        "busy_s": busy,
        "reference_s": gauge.median_s(),
        "probes": len(gauge.samples),
        "digest": first_round.hexdigest(),
        "digest_all": every_op.hexdigest(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    span = ap.add_mutually_exclusive_group(required=True)
    span.add_argument("--seconds", type=float)
    span.add_argument("--rounds", type=int)
    ap.add_argument("--trace", action="store_true",
                    help="record spans at the layer boundaries")
    args = ap.parse_args(argv)

    # the compiled kernel twin is a different program; this benchmark
    # measures the pure-Python package and refuses to report on the
    # other.  getattr: a package without the twin has no selector.
    backend = getattr(certreal, "KERNEL_BACKEND", "python")
    if backend != "python":
        print(f"worker: kernel backend {backend!r} loaded; the benchmark "
              f"measures the pure-Python kernels only", file=sys.stderr)
        return 2

    stream = workloads.rounds(args.workload, args.seed)
    recorder = None
    if args.trace:
        import tracer
        recorder = tracer.Recorder()
        recorder.install()
    try:
        res = measure(stream, args.seconds, args.rounds, recorder)
    finally:
        if recorder is not None:
            recorder.uninstall()
    if recorder is not None:
        res["layers"] = recorder.metrics()
        res["layer_split"] = recorder.layer_split(res["busy_s"])
        out_dir = ROOT / "perfbench" / "out"
        out_dir.mkdir(exist_ok=True)
        res["spans_file"] = str(recorder.write_spans(
            out_dir / f"spans-{args.workload}.tsv.gz"))
    res["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    res["kernel_backend"] = backend
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
