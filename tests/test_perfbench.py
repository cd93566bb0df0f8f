"""The benchmark under perfbench/ still runs against this source tree.

The benchmark drives the public API and reads solver internals such as
``SolveOutcome.polished``, ``BaselineController.solver``/``.template`` and
``AdaptiveController.solvers``.  Its tracer wraps ``__init__`` and ``solve``
from each controller class's own ``__dict__``, so ``BaselineController``
must define both in its class body even though it inherits the logic from
``AdaptiveController``.  Running its self-test here makes a change to src/
that breaks what the benchmark reads fail the test suite.
"""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=900,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
