"""The benchmark's tracer (`bench/tracing.py`) wraps program functions and
methods by name, and a traced run fails if one of them is missing. The
tier-1 suite collects only `tests/`, so this guard runs the tracer's
`install` here, in a fresh interpreter, against the current source."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_name_the_benchmark_wraps_resolves():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    code = ("import tracing\n"
            "tracing.install(tracing.Tracer())\n"
            "print(len(tracing.TARGETS))\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT / "bench", capture_output=True,
                          text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) > 0
