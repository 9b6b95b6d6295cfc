"""The benchmark's first-round digests at seed 1, pinned.

Each digest is a sha256 over the fingerprints of every answer in the
first round of one perfbench workload, so a change that moves a single
bit of any approximation, verdict or enclosure shows here.  A change
that moves bits on purpose updates the pin and says why.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

WORKER = Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"

DIGESTS = {
    "eval-hiprec":
        "f81880ea395f433d7c215de8945b8f1a53e92bddaf4e0e5d17beeb11b185564b",
    "prove-approx":
        "421a04ebca2b48c6b8d7a10ea6ef47c769e043947e462fcd9337c3b86ac8487a",
    "prove-both":
        "158a0c3942d59f2069e2ac0084fe4c516a816045610e12872bf4ad70b2c237ce",
    "pi01-sweep":
        "283f8ad8c0bfa0005db0bdbcdc1229321293a93b662f0b75f453dea4250eb408",
}


# digest_all, over every answer of 20 rounds of pi01-sweep at seed 1:
# each pi01 node extends its exact prefix many times over a round, and
# the rounds draw fresh predicates and budgets
PI01_DEEP_DIGEST = \
    "664f9208a66cf156f4e2fa78f7922d77558e567e187e3d8514ade806507a2e93"


# digest_all, over every answer of 10 rounds of prove-both at seed 1:
# the first round has 26 answers; ten rounds reach the interval
# backend's memo, quotients and tan enclosures far more often.  Pinned
# anew when tan became one node (functions._Tan): its approximations
# come from one sine and cosine pair and one rounded quotient, so the
# approximation enclosures of three tan answers in these rounds moved
# by one step of their grid (tan(0.21) at 2**-256, tan(0.61) at 2**-128
# and five nested tan at 2**-16), each still within 2**-k
PROVE_BOTH_DEEP_DIGEST = \
    "5294b995bda50f4c3b6f9a10dd480c0eb60511cc0a29765d51f7bde496b417c8"


def _run_worker(workload, rounds):
    proc = subprocess.run(
        [sys.executable, str(WORKER), "--workload", workload, "--seed", "1",
         "--rounds", str(rounds)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0, result["failures"]
    return result


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_first_round_digest(workload):
    assert _run_worker(workload, 1)["digest"] == DIGESTS[workload]


def test_pi01_sweep_twenty_round_digest():
    assert _run_worker("pi01-sweep", 20)["digest_all"] == PI01_DEEP_DIGEST


def test_prove_both_ten_round_digest():
    assert _run_worker("prove-both", 10)["digest_all"] == \
        PROVE_BOTH_DEEP_DIGEST
