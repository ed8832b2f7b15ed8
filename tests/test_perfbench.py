"""The benchmark's tracer must find every tfloc name it wraps.

The subprocess runs with -B, so importing perfbench/tracer.py leaves no
bytecode there.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_INSTALL = "import sys; sys.path[:0] = sys.argv[1:]; import tracer; tracer.Tracer().install()"


def test_tracer_installs():
    # a library cut that removes a traced name (BellWindow.value, say) must
    # fail here, not only in a traced benchmark run
    done = subprocess.run(
        [sys.executable, "-B", "-c", _INSTALL, str(ROOT / "perfbench"), str(ROOT / "src")],
        capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


_TRACE_WITNESS = """
import sys; sys.path[:0] = sys.argv[1:]
import tracer
from tfloc.schemes import rv_scheme
from tfloc.witness import WitnessProblem, solve_witness, thin_scheme
t = tracer.Tracer(); t.install(); t.phase = 1
scheme = thin_scheme(rv_scheme(10), 0.2, 3.0, 3.0, seed=20260)
solve_witness(WitnessProblem(scheme, 3.0, 3.0, 0.22, 0.1))
print(t.layer_metrics(1)["witness.assemble_s"]["value"])
"""


def test_traced_witness_solve_times_its_assembly():
    # the README rv witness: solve_witness must assemble through the traced
    # witness.assemble_constraints, or witness.assemble_s reads 0
    done = subprocess.run(
        [sys.executable, "-B", "-c", _TRACE_WITNESS, str(ROOT / "perfbench"), str(ROOT / "src")],
        capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) > 0.0
