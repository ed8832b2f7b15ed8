"""Golden CLI reports: README commands must print byte-identical reports.

Each file in tests/golden/ is the stdout of `python -m tfloc.cli ARGS` for
the ARGS listed below, run with every BLAS thread variable set to 1, and
every run must leave stderr empty with RuntimeWarnings raised as errors.
The CLI runs each command at one BLAS thread, so the reports that call BLAS
must also come out byte-identical with those variables set to 2, and so
must a `prolate` spectrum large enough to round per thread count.  A change
that moves any byte must say why and regenerate the file with that same
command.  The README `bound` report is 13.9 MB, so only its SHA-256 is kept.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tfloc
from tfloc.cli import THREAD_ENV_VARS

GOLDEN = Path(__file__).parent / "golden"
WITNESS = ["witness", "--scheme", "rv", "--R1", "3", "--R2", "3", "--eps", "0.1",
           "--thin", "0.2", "--seed", "20260", "--json"]
CASES = {
    "bells.csv": ["bells", "--D", "8", "--eta", "0.25", "--samples", "64"],
    "basis_check.csv": ["basis", "check", "--D", "32", "--eta", "0.3",
                        "--count", "50", "--tol", "1e-6"],
    "decay_fit.csv": ["decay", "fit", "--D", "32", "--eta", "0.3", "--j", "5", "--k", "0"],
    "witness_none.json": WITNESS + ["--C", "0.22"],
    "witness_even.json": WITNESS + ["--C", "0.10", "--parity", "even"],
    "whitney.csv": ["whitney", "--D", "36", "--C", "0.22", "--eps", "0.1"],
    "zeta.csv": ["zeta", "--T-max", "236", "--eps", "0.1", "--C", "10"],
    # the README zeta witness: 455,205 rows against 22 atoms, no null space
    "witness_zeta.json": ["witness", "--scheme", "zeta", "--R1", "1.01", "--R2", "6",
                          "--C", "0.22", "--eps", "0.1", "--thin", "0.3", "--seed", "1",
                          "--json"],
    "prolate.csv": ["prolate", "--W", "2", "--T", "2"],
}
BOUND = ["bound", "--scheme", "rv", "--R1-max", "10", "--R2-max", "10",
         "--step", "0.01", "--eps", "0.1"]
BOUND_SHA256 = "617811bc712fbe2a99da150db72f89395e67205b1d5c3dbe495735d6f6ed3d79"


def _report(argv, threads=1) -> bytes:
    env = dict(os.environ, **dict.fromkeys(THREAD_ENV_VARS, str(threads)))
    src = str(Path(tfloc.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    # -W error turns a RuntimeWarning inside the CLI run into a failure;
    # pytest's own filterwarnings does not reach the subprocess
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "tfloc.cli",
                           *argv], env=env, capture_output=True, check=True)
    assert done.stderr == b""
    return done.stdout


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    assert _report(CASES[name]) == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", ["basis_check.csv", "decay_fit.csv", "prolate.csv",
                                  "witness_even.json", "witness_none.json",
                                  "witness_zeta.json"])
def test_report_matches_golden_at_two_threads(name):
    assert _report(CASES[name], threads=2) == (GOLDEN / name).read_bytes()


def test_prolate_report_independent_of_threads():
    # at 4WT = 576 the eigensolve rounds per BLAS thread count: unpinned, 143
    # of its 1,889 rows differed between one and two threads
    argv = ["prolate", "--W", "12", "--T", "12"]
    assert _report(argv, threads=1) == _report(argv, threads=2)


def test_bound_report_matches_sha256():
    assert hashlib.sha256(_report(BOUND)).hexdigest() == BOUND_SHA256
