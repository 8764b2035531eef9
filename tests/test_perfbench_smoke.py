"""Smoke tests: the benchmark harness runs short passes and passes its gate.

The traced pass also runs the tracer's instrumentation, which rebinds the
package functions it measures by name, so renaming one of them fails here.
Each run works in a copy of the checkout's ``perfbench/`` (without its
``out/``), ``src/`` and ``BENCHMARK.json``, so the results it writes never
replace those of a benchmark run in the checkout.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_bench(tmp_path, *args):
    skip = shutil.ignore_patterns("out", "__pycache__", "*.egg-info")
    for name in ("perfbench", "src"):
        shutil.copytree(os.path.join(ROOT, name), tmp_path / name, ignore=skip)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=tmp_path, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_large_fit_single_pass_is_correct(tmp_path):
    result = run_bench(tmp_path, "--workload", "large_fit", "--seconds", "0", "--trace", "0")
    assert result["correct"] is True
    assert (tmp_path / "perfbench" / "out" / "result-large_fit-seed0-trace0.json").is_file()


def test_exact_certify_traced_pass_is_correct(tmp_path):
    # "correct" also needs the traced counters to repeat between the passes
    result = run_bench(tmp_path, "--workload", "exact_certify", "--seconds", "0", "--trace", "1")
    assert result["correct"] is True
    assert result["failed"] == 0
    assert (tmp_path / "perfbench" / "out" / "result-exact_certify-seed0-trace1.json").is_file()
