"""Smoke runs of the drivers in scripts/, each once on the smallest inputs it accepts."""

import os
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def tiny_libsvm(path):
    """40 regular points of class 1 and an anomaly pool of 6 points of class 3."""
    rng = np.random.default_rng(0)
    rows = [(1, rng.normal(size=2)) for _ in range(40)]
    rows += [(3, 4.0 * rng.normal(size=2)) for _ in range(6)]
    path.write_text("".join(f"{c} 1:{x:.4f} 2:{y:.4f}\n" for c, (x, y) in rows))
    return path


@pytest.mark.parametrize("script, args", [
    ("synthetic_cv.py", ["--seeds", "0", "--p", "1"]),
    ("real_data_cv.py", ["--anomaly-classes", "3", "--p", "1", "--C", "0.5",
                         "--anomaly-fractions", "0.1", "--seeds", "0"]),
    ("gap_study.py", ["--p", "1", "--C", "0.5", "--n-train", "10", "--seeds", "0"]),
])
def test_driver_runs(tmp_path, script, args):
    if script == "real_data_cv.py":
        args = ["--libsvm", str(tiny_libsvm(tmp_path / "tiny.libsvm"))] + args
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    out = tmp_path / "out"
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script), *args, "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
    assert (out / "resolved_config.json").exists()
