"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _names(kind):
    return {m["name"] for m in SPEC[kind]}


def _result(cmd, cwd=ROOT):
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=cwd,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    for m in SPEC["per_layer"]:
        assert run.layer_unit(m["name"]) == m["unit"], m["name"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_prints_every_end_to_end_metric(workload):
    out, res = _result([sys.executable, str(BENCH / "run.py"),
                        "--workload", workload, "--seed", "7",
                        "--seconds", "0.5", "--trace", "0"])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == _names("end_to_end")
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for name, v in res["metrics"].items():
        assert v["unit"] == units[name]
        assert v["value"] > 0
    assert "fail_ratio" in out and "digest (first round)" in out


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_traced_pass_yields_every_per_layer_metric(workload):
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", "7", "--rounds", "1"]
    _, plain = _result(cmd)
    _, traced = _result(cmd + ["--trace"])
    assert plain["failed"] == traced["failed"] == 0
    assert plain["digest_all"] == traced["digest_all"]
    metrics, _ = run.per_layer(plain, traced)
    assert set(metrics) == _names("per_layer")


def test_traced_run_end_to_end():
    out, res = _result([sys.executable, str(BENCH / "run.py"),
                        "--workload", "pi01-sweep", "--seed", "3",
                        "--seconds", "1", "--trace", "1"])
    assert res["correct"]
    assert set(res["metrics"]) == _names("per_layer")
    # pi01 runs creal alone: no term caps, no kernels, no intervals
    for name in ("functions.caps.s", "kernels.s", "intervals.caps.s"):
        assert res["metrics"][name]["value"] == 0
    assert res["metrics"]["creal.approx.calls"]["value"] > 0
    assert "layer_split" in out


def _tamper(op):
    if op.kind == "eval":
        lo, hi = op.expect
        return replace(op, expect=(lo + 1, hi + 1))
    if op.kind == "prove":
        swap = {"proved": "refuted", "refuted": "proved",
                "exhausted": "proved", "DomainUnverifiable": "exhausted"}
        return replace(op, expect=swap[op.expect])
    return replace(op, expect=None if op.expect is not None else 1)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_wrong_expected_answer_counts_as_failure(workload):
    first = next(workloads.rounds(workload, 11))
    assert worker.measure([first], rounds=1)["failed"] == 0
    for i in (0, len(first) - 1):
        bad = list(first)
        bad[i] = _tamper(bad[i])
        res = worker.measure([bad], rounds=1)
        assert res["failed"] == 1
        assert len(res["failures"]) == 1


def test_seed_fixes_the_inputs():
    a = [op.text for op in next(workloads.rounds("prove-both", 5))]
    b = [op.text for op in next(workloads.rounds("prove-both", 5))]
    c = [op.text for op in next(workloads.rounds("prove-both", 6))]
    assert a == b and a != c


def test_gauge_probes_its_share_of_the_work():
    gauge = speed.Gauge(share=0.5)
    gauge.keep_up(0.0)
    assert gauge.samples == []
    gauge.keep_up(0.05)
    assert gauge.spent >= 0.025 and len(gauge.samples) >= 1
    assert gauge.stamps == sorted(gauge.stamps)


def test_each_time_is_scaled_by_the_probes_around_it():
    gauge = speed.Gauge()
    ref = speed.REFERENCE_S
    # probes at half the reference speed for two seconds, then at it
    gauge.stamps = [0.1 * i for i in range(40)]
    gauge.samples = [2 * ref] * 20 + [ref] * 20
    slow, fast = gauge.scaled([0.010, 0.010], [0.5, 3.5])
    assert slow == pytest.approx(0.005) and fast == pytest.approx(0.010)


def test_end_to_end_reports_scaled_times_and_raw_ones_beside():
    res = {"latencies_s": [0.002, 0.004, 0.006],
           "scaled_s": [0.001, 0.002, 0.003],
           "failed": 0, "peak_rss_mb": 20.0, "probes": 9,
           "reference_s": 2 * speed.REFERENCE_S}
    metrics, info = run.end_to_end(res, (0.04, 0.08))
    assert metrics["latency_p50_ms"][0] == pytest.approx(2.0)
    assert metrics["ops_per_s"][0] == pytest.approx(500.0)
    assert metrics["setup_s"][0] == 0.04
    assert info["raw.latency_p50_ms"][0] == pytest.approx(4.0)
    assert info["speed_scale"][0] == pytest.approx(0.5)


def test_tail_has_ten_samples_beyond_it():
    xs = list(range(100))
    assert run.tail(xs) == (89, 90)
    assert run.tail([3, 1, 2]) == (3, 100)
    # p95 of 240 leaves 12 beyond it; p96 would leave 9
    assert run.tail(range(240)) == (227, 95)
    assert run.tail(range(8800)) == (8711, 99)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "pi01-sweep", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path,
                          timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
