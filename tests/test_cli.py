"""CLI behavior: exit codes, output shapes, JSON schema conformance."""

import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

from certreal import (ConformanceError, ResourceExhausted, cli, kernels,
                      lang, prover)
from certreal.cli import main
from certreal.dyadic import decimal_to_int

SCHEMA = json.loads(
    (Path(__file__).parent.parent / "docs" / "cli-schema.json").read_text())


def _json_out(capsys):
    doc = json.loads(capsys.readouterr().out)
    jsonschema.validate(doc, SCHEMA)
    return doc


# -- prove -----------------------------------------------------------------

def test_prove_exit_codes(capsys):
    assert main(["prove", "1 < 2"]) == 0
    assert "Proved" in capsys.readouterr().out
    assert main(["prove", "2 < 1"]) == 1
    assert "Refuted" in capsys.readouterr().out
    assert main(["prove", "1 < 1", "--max-prec", "8"]) == 2
    assert "Exhausted" in capsys.readouterr().out


def test_prove_trace_output(capsys):
    assert main(["prove", "pi > 3", "--trace"]) == 0
    out = capsys.readouterr().out
    assert "k=" in out and "lhs=[" in out and "rhs=[" in out


def test_prove_json_is_schema_valid(capsys):
    assert main(["prove", "exp(1) > 2", "--json", "--trace"]) == 0
    doc = _json_out(capsys)
    assert doc["command"] == "prove"
    assert doc["result"]["outcome"] == "proved"
    assert doc["verified"] is True
    assert doc["result"]["trace"]


def test_prove_json_exhausted(capsys):
    assert main(["prove", "1 < 1", "--max-prec", "8", "--json"]) == 2
    doc = _json_out(capsys)
    assert doc["result"]["outcome"] == "exhausted"
    assert doc["result"]["max_precision"] == 8
    assert "trace" not in doc["result"]


def test_prove_start_eps_sets_first_precision(capsys):
    assert main(["prove", "1 < 1", "--max-prec", "40", "--json", "--trace",
                 "--start-eps", "1/1024"]) == 2
    doc = _json_out(capsys)
    assert doc["result"]["trace"][0]["precision"] == 10


def _start_precision_by_scan(text, max_prec):
    # the reference: try k = 1, 2, ... until 2**-k <= eps
    eps = Fraction(text)
    k = 1
    while Fraction(1, 1 << k) > eps:
        k += 1
        if k > max_prec:
            raise ValueError("--start-eps is finer than --max-prec allows")
    return k


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as e:
        return str(e)


@pytest.mark.parametrize("max_prec", [0, 1, 2, 9, 10, 11, 64, 1000])
def test_start_precision_matches_a_scan(max_prec):
    texts = ["1", "1/2", "0.3", "1e-300", "3"]
    for k in (1, 2, 3, 9, 10, 11, 63, 64, 65, 500):
        texts += [f"1/{(1 << k) - 1}", f"1/{1 << k}", f"1/{(1 << k) + 1}"]
    for text in texts:
        assert _outcome(cli._start_precision, text, max_prec) == \
            _outcome(_start_precision_by_scan, text, max_prec), text


def _start_precision_by_fraction(text, max_prec):
    # the reference for any text: Fraction reads it whole
    try:
        eps = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"--start-eps: not a rational: {text!r}")
    if eps <= 0:
        raise ValueError("--start-eps must be positive")
    return _start_precision_by_scan(text, max_prec)


@pytest.mark.parametrize("max_prec", [0, 1, 9, 64])
def test_start_precision_with_an_exponent_matches_a_scan(max_prec):
    # around the exponent past which the mantissa cannot matter
    texts = []
    for mantissa in ("1", "7.5", "0.003", "1000", "00.00", "-2", "1/2",
                     "1_0"):
        for e in range(-90, 91, 3):
            texts += [f"{mantissa}e{e}", f"{mantissa}E{e:+d} "]
    texts += ["1e1_0", "1e-1__0", "1e_1", "1.e-40", "1e", "1 e-40"]
    for text in texts:
        assert _outcome(cli._start_precision, text, max_prec) == \
            _outcome(_start_precision_by_fraction, text, max_prec), text


def test_start_precision_past_the_precision_limit():
    # no precision over PRECISION_LIMIT can run: with --max-prec above
    # the limit a finer width is a spent budget, and at the limit it is
    # the usage error of any --max-prec
    big = 10 ** 8
    limit = kernels.PRECISION_LIMIT
    assert limit == 1 << 22     # the grid of 10**-1262611 is 2**-4194303
    assert cli._start_precision("1e-1262611", big) == limit - 1
    for text in ("1e-1262612", "1e-10000000"):
        with pytest.raises(ResourceExhausted, match="over the limit"):
            cli._start_precision(text, big)
        with pytest.raises(ValueError, match="finer than --max-prec"):
            cli._start_precision(text, limit)


def test_prove_interval_backend(capsys):
    assert main(["prove", "pi > 3", "--backend", "interval", "--json"]) == 0
    doc = _json_out(capsys)
    assert doc["backend"] == "interval"
    assert doc["result"]["outcome"] == "proved"


def test_prove_creal_backend_alias(capsys):
    assert main(["prove", "pi > 3", "--backend", "creal", "--json"]) == 0
    doc = _json_out(capsys)
    assert doc["backend"] == "approx"


@pytest.mark.parametrize("argv", [
    ["prove", "1 <= 2"],                          # non-strict relation
    ["prove", "1 / sin(pi) < 1"],                 # domain unverifiable
    ["prove", "1 < 2", "--start-eps", "abc"],     # not a rational
    ["prove", "1 < 2", "--start-eps=-1/2"],       # not positive
    ["prove", "1 < 2", "--start-eps", "1/100000", "--max-prec", "8"],
    ["eval", "ln(0 - 1)"],                        # domain violation
    ["eval", "pi", "--digits", "0"],
    ["eval", "1 +"],                              # parse error
])
def test_error_paths_exit_3(capsys, argv):
    assert main(argv) == 3
    assert "error:" in capsys.readouterr().err


def test_usage_errors_exit_3():
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 3
    with pytest.raises(SystemExit) as exc:
        main(["prove", "1 < 2", "--backend", "nope"])
    assert exc.value.code == 3
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 3


def test_crash_exits_4_not_refuted(capsys, monkeypatch):
    # with the nesting limit lifted, deep nesting overflows the recursive
    # parser; exit 1 would read as "refuted", so an unexpected exception
    # gets its own code
    monkeypatch.setattr(lang, "DEPTH_LIMIT", 10 ** 6)
    query = "(" * 400 + "1" + ")" * 400 + " < 2"
    assert main(["prove", query]) == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error: RecursionError")
    assert err.count("\n") == 1


@pytest.mark.parametrize("query", [
    "(" * 250 + "1" + ")" * 250 + " < 2",
    " * ".join(["1"] * 400) + " < 2",
    " + ".join(["1"] * 1500) + " < 2",
    "-" * 2000 + "1 < 2",
], ids=["groups", "product", "sum", "minuses"])
def test_deep_expressions_exit_3(capsys, query):
    assert main(["prove", query, "--backend", "both"]) == 3
    err = capsys.readouterr().err
    assert f"nests deeper than {lang.DEPTH_LIMIT} levels" in err


@pytest.mark.parametrize("prefix", ["1+1*(", "1-1/(", "1*(", "("])
def test_nested_groups_exit_3_in_a_fresh_process(prefix):
    # each text is too deep or not a comparison; a fresh interpreter
    # holds only the CLI's own frames below the parser
    for n in (lang.DEPTH_LIMIT - 1, lang.DEPTH_LIMIT):
        text = prefix * n + "1" + ")" * n
        proc = _run_module("prove", text, "--backend", "both")
        assert proc.returncode == 3, proc.stderr


def test_expressions_at_the_depth_limit_are_proved(capsys):
    # groups are the parser's deepest walk, right-nested division that
    # of the approximation backend (four frames per level)
    n = lang.DEPTH_LIMIT
    groups = "(" * n + "0.1" + ")" * n
    quotients = "1/(" * (n - 1) + "1" + ")" * (n - 1)
    query = f"{groups} < {quotients}"
    assert main(["prove", query, "--backend", "both", "--max-prec",
                 "64"]) == 0
    assert capsys.readouterr().out.startswith("Proved")


def test_conformance_error_exits_4(capsys, monkeypatch):
    # a backend disagreement is an engine bug: never a verdict, and not
    # the code for a typo either
    def disagree(oa, oi, query):
        raise ConformanceError({"query": "1 < 2"})

    monkeypatch.setattr(prover, "_merge_outcomes", disagree)
    assert main(["prove", "1 < 2", "--backend", "both"]) == 4
    assert capsys.readouterr().err.startswith(
        "internal error: backend disagreement")


# -- eval ------------------------------------------------------------------

def test_eval_prints_certified_digits(capsys):
    assert main(["eval", "exp(1)", "--digits", "20"]) == 0
    out = capsys.readouterr().out.strip()
    # the enclosure radius is far below the tie boundary here, so the
    # rendering is exact
    assert out == "2.71828182845904523536"


def test_eval_pi_prefix(capsys):
    assert main(["eval", "pi"]) == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("3.1415926535897932384626433832")
    assert len(out) == 2 + 30  # "3." plus thirty fractional digits


def test_eval_keeps_trailing_zeros(capsys):
    assert main(["eval", "1/4", "--digits", "3"]) == 0
    assert capsys.readouterr().out.strip() == "0.250"
    assert main(["eval", "0", "--digits", "10"]) == 0
    assert capsys.readouterr().out.strip() == "0.0000000000"


def test_eval_past_int_str_limit(capsys):
    # more digits than Python's default int/str conversion limit (4300)
    assert main(["eval", "pi", "--digits", "5000"]) == 0
    long = capsys.readouterr().out.strip()
    assert main(["eval", "pi", "--digits", "4000"]) == 0
    short = capsys.readouterr().out.strip()
    assert long[:2] == short[:2] == "3." and len(long) == 2 + 5000
    # each rendering is within one unit in its last place of pi
    a, b = decimal_to_int(short[2:]), decimal_to_int(long[2:])
    assert abs(a * 10 ** 1000 - b) <= 10 ** 1000 + 1
    assert main(["eval", "pi", "--digits", "5000", "--json"]) == 0
    doc = _json_out(capsys)
    assert doc["value"] == long
    assert len(doc["enclosure"]["lo"]["m"]) > 5000


def test_resource_exhausted_exits_2(capsys):
    # every exp level widens the working precision; 60 levels pass the
    # limit, which is a spent budget, not a parse or domain error
    tower = "exp(" * 60 + "1" + ")" * 60
    assert main(["eval", tower]) == 2
    assert "over the limit" in capsys.readouterr().err


def test_eval_precision_is_the_power_of_ten_bit_length():
    rng = random.Random("eval-precision")
    for d in list(range(1, 400)) + [rng.randint(400, 50000)
                                    for _ in range(20)]:
        assert cli._eval_precision(d) == (10 ** d).bit_length() + 2, d


@pytest.mark.parametrize("args,code,message", [
    (("eval", "1", "--digits", "100000000"), 2,
     "precision request 2^-332192812 over the limit"),
    (("prove", "1 < 2", "--start-eps", "1e-100000000"), 3,
     "--start-eps is finer than --max-prec allows"),
    (("prove", "1 < 2", "--start-eps", "1e100000000"), 0, ""),
    (("prove", "1 < 2", "--max-prec", "100000000",
      "--start-eps", "1e-10000000"), 2, "over the limit"),
], ids=["digits", "tiny-start-eps", "huge-start-eps",
        "start-eps-past-the-precision-limit"])
def test_huge_numbers_are_refused_before_a_power_of_ten(args, code, message):
    # building 10**(10**8) alone would take minutes
    proc = _run_module(*args, timeout=20)
    assert proc.returncode == code, proc.stderr
    assert message in proc.stderr


def test_eval_json_is_schema_valid(capsys):
    assert main(["eval", "sin(1)", "--digits", "12", "--json"]) == 0
    doc = _json_out(capsys)
    assert doc["command"] == "eval"
    assert doc["digits"] == 12
    assert doc["value"].startswith("0.841470984")
    lo = int(doc["enclosure"]["lo"]["m"])
    hi = int(doc["enclosure"]["hi"]["m"])
    assert lo < hi


# -- pi01 ------------------------------------------------------------------

def test_pi01_counterexample_exits_0(capsys):
    assert main(["pi01", "n < 20"]) == 0
    assert "n = 20" in capsys.readouterr().out


def test_pi01_tautology_exits_2(capsys):
    assert main(["pi01", "n >= 0", "--max-prec", "64"]) == 2
    assert "not a proof" in capsys.readouterr().out


def test_pi01_json_both_outcomes(capsys):
    assert main(["pi01", "n != 7", "--json"]) == 0
    doc = _json_out(capsys)
    assert doc["result"]["outcome"] == "counterexample"
    assert doc["result"]["n"] == 7

    assert main(["pi01", "0 = 0", "--max-prec", "64", "--json"]) == 2
    doc = _json_out(capsys)
    assert doc["result"]["outcome"] == "no_counterexample_below_bound"
    assert doc["result"]["max_precision"] == 64


def test_pi01_bad_predicate_exits_3(capsys):
    assert main(["pi01", "m < 3"]) == 3
    assert "error:" in capsys.readouterr().err


def test_pi01_rejects_a_search_cap_option(capsys):
    # the proof's precision bounds the counterexample scan, so there is
    # no separate search limit to set
    with pytest.raises(SystemExit) as exc:
        main(["pi01", "n < 10", "--witness-cap", "5"])
    assert exc.value.code == 3
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("predicate,code", [
    ("n ^ 100000000 > 0", 2),                     # a power over the limit
    ("n" + " + 1" * 1200 + " > 0", 3),            # a chain too deep
    ("(" * 500 + "n < 1" + ")" * 500, 3),         # groups too deep
])
def test_pi01_hostile_predicates_exit_typed(capsys, predicate, code):
    assert main(["pi01", predicate]) == code
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


# -- selftest --------------------------------------------------------------

def test_selftest_quick(capsys):
    assert main(["selftest", "--quick"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_selftest_quick_json(capsys):
    assert main(["selftest", "--quick", "--json"]) == 0
    doc = _json_out(capsys)
    assert doc["passed"] is True
    assert doc["failed"] == 0
    assert doc["total"] > 0


def test_selftest_reports_unconverged(capsys, monkeypatch):
    import dataclasses

    from certreal import lang, selftest

    assert main(["selftest", "--quick", "--json"]) == 0
    assert _json_out(capsys)["unconverged"] == 0
    # an unconverged enclosure is sound, so it is counted, not failed
    honest = selftest.conformance_check

    def wide_for_sin(expr, k):
        rep = honest(expr, k)
        return dataclasses.replace(
            rep, converged="sin" not in lang.format_expr(expr))

    monkeypatch.setattr(selftest, "conformance_check", wide_for_sin)
    expected = len(selftest.QUICK_PRECISIONS) * sum(
        "sin" in text for text in selftest.corpus()[::8])
    assert expected > 0
    assert main(["selftest", "--quick", "--json"]) == 0
    doc = _json_out(capsys)
    assert doc["unconverged"] == expected
    assert doc["passed"] is True and doc["failed"] == 0
    assert main(["selftest", "--quick"]) == 0
    assert f", {expected} unconverged" in capsys.readouterr().out


def test_selftest_prec_list(capsys):
    assert main(["selftest", "--quick", "--prec-list", "4,12", "--json"]) == 0
    doc = _json_out(capsys)
    assert doc["passed"] is True
    assert main(["selftest", "--prec-list", "nope"]) == 3
    assert "error:" in capsys.readouterr().err


def test_selftest_run_validates_precisions():
    from certreal import selftest
    with pytest.raises(ValueError):
        selftest.run(precisions=())
    with pytest.raises(ValueError):
        selftest.run(precisions=(4, -1))


# -- entry points ----------------------------------------------------------

def _run_module(*args, timeout=120, module="certreal.cli"):
    # the module entry point as a fresh process, with the package taken
    # from this checkout's src
    src = str(Path(__file__).parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src + os.pathsep + path if path else src)
    return subprocess.run([sys.executable, "-m", module, *args],
                          capture_output=True, text=True, timeout=timeout,
                          env=env)


def test_module_entry_point_runs():
    proc = _run_module("pi01", "n != 5")
    assert proc.returncode == 0, proc.stderr
    assert "Counterexample: n = 5" in proc.stdout
    proc = _run_module("prove", "sin(1) < 1")
    assert proc.returncode == 0, proc.stderr
    assert "Proved" in proc.stdout


def test_package_runs_as_a_module():
    # python -m certreal, from a source checkout
    proc = _run_module("selftest", "--quick", module="certreal")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("PASS: "), proc.stdout


@pytest.mark.skipif(shutil.which("certreal") is None,
                    reason="console script not on PATH")
def test_console_script_runs():
    proc = subprocess.run(["certreal", "prove", "sin(1) < 1"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "Proved" in proc.stdout
