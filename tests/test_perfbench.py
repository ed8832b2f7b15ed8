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
