"""certreal benchmark: seeded workloads against the library's public API.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of eval-hiprec, prove-approx, prove-both, pi01-sweep, or
"all" to run the four in turn.  Run from anywhere inside a source
checkout: the package is imported from the checkout's src/, and the
expected answers come from the exact-rational oracles in tests/.

--trace 0 measures the end-to-end metrics: a fresh interpreter runs the
workload's seeded rounds as a closed loop with a single client for about
S seconds of timed work, and set-up time is the median import time of
the package over several fresh interpreters.  Every time is reported
scaled to a reference machine speed, measured by probes interleaved
with the timed work (speed.py); the raw times are printed beside the
scaled ones.

--trace 1 measures the per-layer metrics: it runs a fixed number of
rounds twice, each time in a fresh interpreter, first plain and then
with spans recorded at the layer boundaries, and reports the layer
totals of the second pass and the ratio of the two throughputs.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  The
exit code is 0 whenever that line is printed, 2 when the checkout lacks
the package or its oracles, and 1 when a pass fails to finish.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Same names as workloads.WORKLOADS (a test keeps them equal): this file
# imports nothing from the package, so that it can refuse cleanly in a
# checkout without it.
WORKLOADS = ("eval-hiprec", "prove-approx", "prove-both", "pi01-sweep")

# Rounds per pass of a traced run: a fixed amount of work, so the
# per-layer counts repeat exactly for a seed.  About 5-10 s untraced.
TRACE_ROUNDS = {"eval-hiprec": 8, "prove-approx": 200, "prove-both": 24,
                "pi01-sweep": 60}

# fresh interpreters timed for setup_s, after one unrecorded warm-up
# import that compiles the bytecode cache of a new checkout
SETUP_IMPORTS = 11

# the passes of one workload must end within this many seconds
TIME_LIMIT_S = 170

IMPORT_TIMER = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import certreal; "
                "print(time.perf_counter() - t)")


class PassFailed(Exception):
    """A child interpreter did not produce a result."""


def _child(cmd, deadline):
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"{cmd[1]} ran past the time limit") from exc
    if proc.returncode != 0:
        raise PassFailed(f"{' '.join(cmd[1:])} exited with "
                         f"{proc.returncode}:\n{proc.stderr.strip()}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return proc.stdout.strip().splitlines()[-1]


def setup_seconds(deadline):
    """(scaled, raw): the median import time of certreal over fresh
    interpreters, scaled by probes taken between the imports, and
    unscaled."""
    cmd = [sys.executable, "-c", IMPORT_TIMER, str(ROOT / "src")]
    _child(cmd, deadline)
    # probes as long as the imports: an import is short, so an equal
    # share keeps each import's local sample of probes large enough
    gauge = speed.Gauge(share=1.0)
    times, stamps = [], []
    for _ in range(SETUP_IMPORTS):
        t0 = time.perf_counter()
        times.append(float(_child(cmd, deadline)))
        stamps.append((t0 + time.perf_counter()) / 2)
        gauge.keep_up(sum(times))
    return (statistics.median(gauge.scaled(times, stamps)),
            statistics.median(times))


def run_pass(workload, seed, deadline, *, seconds=None, rounds=None,
             trace=False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed)]
    cmd += ["--seconds", str(seconds)] if rounds is None \
        else ["--rounds", str(rounds)]
    if trace:
        cmd.append("--trace")
    return json.loads(_child(cmd, deadline))


def tail(latencies):
    """(value, percentile): the latency at the highest whole percentile
    with at least ten samples beyond it (nearest rank), or the maximum
    when there are ten samples or fewer."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100
    q = 100 * (n - 10) // n
    return xs[-(-q * n // 100) - 1], q


def end_to_end(res: dict, setup):
    """Metrics of one pass, times scaled to the reference machine, and
    the lines printed beside them: the raw measurements and scales."""
    setup_s, raw_setup_s = setup
    n = len(res["latencies_s"])
    pct = tail(range(n))[1]
    figures = {}
    for kind, times in (("scaled", res["scaled_s"]),
                        ("raw", res["latencies_s"])):
        lat_ms = [x * 1e3 for x in times]
        figures[kind] = (n / sum(times), statistics.median(lat_ms),
                         tail(lat_ms)[0])
    ops, p50_ms, tail_ms = figures["scaled"]
    metrics = {
        "ops_per_s": (ops, "1/s", ""),
        "latency_p50_ms": (p50_ms, "ms", f"n={n}"),
        "latency_tail_ms": (tail_ms, "ms", f"p{pct} of n={n}"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB", "worker process"),
        "setup_s": (setup_s, "s",
                    f"median of {SETUP_IMPORTS} fresh imports"),
    }
    raw_ops, raw_p50_ms, raw_tail_ms = figures["raw"]
    info = {
        "fail_ratio": (res["failed"] / n, "ratio", f"{res['failed']} of {n}"),
        "speed_scale": (raw_ops / ops, "",
                        f"scaled / raw time; {res['probes']} probes, "
                        f"median {res['reference_s'] * 1e3:.3f} ms"),
        "raw.ops_per_s": (raw_ops, "1/s", "unscaled"),
        "raw.latency_p50_ms": (raw_p50_ms, "ms", "unscaled"),
        "raw.latency_tail_ms": (raw_tail_ms, "ms", "unscaled"),
        "raw.setup_s": (raw_setup_s, "s", "unscaled"),
    }
    return metrics, info


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith(".max"):
        return "bits"
    return "count"


def per_layer(plain: dict, traced: dict):
    metrics = {k: (v, layer_unit(k), "") for k, v in traced["layers"].items()}
    ratio = sum(traced["scaled_s"]) / sum(plain["scaled_s"])
    metrics["trace.overhead_ratio"] = (ratio, "ratio",
                                       "untraced / traced scaled ops_per_s")
    split = ", ".join(f"{k} {v:.1%}" for k, v in traced["layer_split"].items())
    info = {"layer_split": (split, "", "self time share of traced time"),
            "spans": (traced["spans_file"], "", "")}
    return metrics, info


def run_workload(workload, seed, seconds, trace, deadline):
    """Run one workload; returns (correct, attempted, failed, metrics)."""
    if trace:
        rounds = TRACE_ROUNDS[workload]
        plain = run_pass(workload, seed, deadline, rounds=rounds)
        traced = run_pass(workload, seed, deadline, rounds=rounds,
                          trace=True)
        metrics, info = per_layer(plain, traced)
        passes = (plain, traced)
        # the wrappers must not change a single bit of any answer
        consistent = plain["digest_all"] == traced["digest_all"]
        res = traced
    else:
        setup = setup_seconds(deadline)
        res = run_pass(workload, seed, deadline, seconds=seconds)
        metrics, info = end_to_end(res, setup)
        passes = (res,)
        consistent = True
    attempted = sum(len(p["latencies_s"]) for p in passes)
    failed = sum(p["failed"] for p in passes)

    print(f"== {workload}  seed={seed}  trace={int(trace)}  "
          f"rounds={res['rounds']}  busy={res['busy_s']:.2f}s")
    print(f"   env: python={platform.python_version()} "
          f"nproc={os.cpu_count()} kernel_backend={res['kernel_backend']} "
          f"platform={platform.platform()}")
    for name, (value, unit, note) in {**metrics, **info}.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"   {name:<44} {shown:>14} {unit:<6} {note}")
    print(f"   digest (first round)  sha256:{res['digest']}")
    if not consistent:
        print("   FAIL: traced and untraced passes computed different bits")
    for p in passes:
        for f in p["failures"]:
            print(f"   FAIL: {f}")
    values = {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}
    return failed == 0 and consistent, attempted, failed, values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="certreal benchmark (see the module docstring)")
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    for needed in ("src/certreal/__init__.py", "tests/oracles.py"):
        if not (ROOT / needed).is_file():
            print(f"run.py: {needed} not found under {ROOT}; run the "
                  f"benchmark from a certreal source checkout",
                  file=sys.stderr)
            return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for name in names:
            deadline = time.monotonic() + TIME_LIMIT_S
            ok, a, f, m = run_workload(name, args.seed, args.seconds,
                                       bool(args.trace), deadline)
            correct &= ok
            attempted += a
            failed += f
            if args.workload == "all":
                m = {f"{name}.{k}": v for k, v in m.items()}
            metrics.update(m)
    except PassFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
