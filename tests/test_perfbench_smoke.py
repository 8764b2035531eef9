"""Smoke tests: the benchmark harness runs short passes and passes its gate.

The traced pass also runs the tracer's instrumentation, which rebinds the
package functions it measures by name, so renaming one of them fails here.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_bench(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_large_fit_single_pass_is_correct():
    result = run_bench("--workload", "large_fit", "--seconds", "0", "--trace", "0")
    assert result["correct"] is True


def test_exact_certify_traced_pass_is_correct():
    # "correct" also needs the traced counters to repeat between the passes
    result = run_bench("--workload", "exact_certify", "--seconds", "0", "--trace", "1")
    assert result["correct"] is True
    assert result["failed"] == 0
