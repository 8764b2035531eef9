"""The three benchmark workloads: inputs from a seed, one timed pass, checks.

Every workload is a closed loop with a single caller: one pass runs its
operations one after another in this process, and the next pass starts only
when the previous one has returned.

Each workload keeps one fixed synthetic point set (generator seed 0, noise
0.1) and the seed rotates it about the origin; seed 0 is the unrotated set.
A rotation leaves the distances, the Gram matrix up to rounding, the optimum
and the amount of work unchanged, while the program still receives new
coordinates, so one set of recorded answers checks every seed.  Drawing the
data from the seed instead would make the work itself vary.  Measured on a
2-core x86_64 machine with one BLAS thread: across eight draws the five exact
instances took 9.2-22.6 s (1.9k-3.9k nodes), a mere reordering of the same
points moved the RBF tree from 2.2k to 3.4k nodes, the large heuristic fit
took 7.3-11.1 s over six draws, and five cv grids on five draws spread by 17%.
"""

from __future__ import annotations

import csv
import math
import os
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass

import numpy as np

import msvdd.data
import msvdd.detection
import msvdd.exact
import msvdd.experiments
import msvdd.heuristic
import msvdd.kernels
from msvdd.solution import SolveStatus

CV_SPEC = dict(n_train=60, n_val=40, n_test=100)  # the default `msvdd cv` sizes
# name, kernel, n_train, p, C
EXACT_INSTANCES = (
    ("lin30p2", msvdd.kernels.LINEAR, 30, 2, 0.2),
    ("lin40p2", msvdd.kernels.LINEAR, 40, 2, 0.2),
    ("lin60p2", msvdd.kernels.LINEAR, 60, 2, 0.2),
    ("lin40p3", msvdd.kernels.LINEAR, 40, 3, 0.3),
    ("rbf40p2", msvdd.kernels.rbf(1.0), 40, 2, 0.2),
)

LARGE_N_TRAIN = 600
LARGE_N_TEST = 20_000
LARGE_CONFIG = dict(p=2, nu=0.1, max_iters=100, restarts=5, seed=0)


def rotation(seed: int) -> np.ndarray:
    """Plane rotation for a seed; seed 0 is the identity."""
    if seed == 0:
        return np.eye(2)
    theta = 2.0 * math.pi * np.random.default_rng(seed).random()
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def fixed_draw(n_train: int, n_val: int = 1, n_test: int = 1, seed: int = 0):
    """The fixed synthetic draw (generator seed 0, noise 0.1), rotated by ``seed``."""
    spec = msvdd.data.SyntheticSpec(n_train, n_val, n_test, 0.1, seed=0)
    ds = msvdd.data.generate_synthetic(spec)
    ds.points = ds.points @ rotation(seed).T
    return ds


@dataclass
class PassResult:
    wall_s: float
    outcome: object


class Checker:
    """Collects failed operations of one pass against the recorded answers."""

    def __init__(self, refs: dict):
        self.obj_tol = refs["objective_tol"]
        self.auc_tol = refs["auc_tol"]
        self.attempted = 0
        self.failed: list[str] = []

    def fail(self, op: str, why: str) -> None:
        self.failed.append(f"{op}: {why}")

    def close(self, a, b, tol) -> bool:
        return a is not None and b is not None and abs(float(a) - float(b)) <= tol


class CvGrid:
    name = "cv_grid"

    def __init__(self, out_root: str):
        self.out_root = out_root

    def setup(self, seed: int) -> dict:
        path = os.path.join(self.out_root, f"cv-data-seed{seed}.csv")
        msvdd.data.write_dataset_csv(fixed_draw(**CV_SPEC, seed=seed), path)
        return {"seed": seed, "data": {"type": "csv", "path": path}}

    def describe(self, inputs) -> str:
        return f"default cv grid on the fixed 60/40/100 set rotated by seed {inputs['seed']}"

    def run_pass(self, inputs, tracer=None) -> PassResult:
        out_dir = tempfile.mkdtemp(prefix="cv-", dir=self.out_root)
        config = msvdd.experiments.ExperimentConfig(out_dir=out_dir, data=inputs["data"])
        t0 = time.perf_counter()
        try:
            rows = msvdd.experiments.run_cross_validation(config)
        except Exception as exc:  # every cell of a raising grid has failed
            shutil.rmtree(out_dir, ignore_errors=True)
            return PassResult(time.perf_counter() - t0, exc)
        wall = time.perf_counter() - t0
        try:
            with open(os.path.join(out_dir, "cells.csv"), newline="") as fh:
                cells = list(csv.DictReader(fh))
            with open(os.path.join(out_dir, "timings.csv"), newline="") as fh:
                seconds = [float(r["seconds"]) for r in csv.DictReader(fh)]
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        return PassResult(wall, {"rows": rows, "cells": cells, "seconds": seconds})

    def record(self, inputs, outcome) -> dict:
        return {
            "rows": [
                {k: r[k] for k in ("model", "p", "param_value", "mean_test_auc", "run_ids")}
                for r in outcome["rows"]
            ],
            "exact_cells": {
                c["run_id"]: float(c["objective"])
                for c in outcome["cells"]
                if c["model"] == msvdd.experiments.MODEL_EXACT
            },
            "cells": sorted(c["run_id"] for c in outcome["cells"]),
        }

    def check(self, inputs, outcome, refs, chk: Checker) -> None:
        ref = refs["cv_grid"]
        if isinstance(outcome, Exception):
            chk.attempted += len(ref["cells"])
            for rid in ref["cells"]:
                chk.fail(rid, f"grid raised {type(outcome).__name__}: {outcome}")
            return
        cells = {c["run_id"]: c for c in outcome["cells"]}
        chk.attempted += len(cells.keys() | set(ref["cells"]))
        bad = {rid: "cell missing" for rid in ref["cells"] if rid not in cells}
        for rid, c in cells.items():
            if rid not in ref["cells"]:
                bad[rid] = "cell not in the reference grid"
            elif c["error"]:
                bad[rid] = c["error"]
            elif c["model"] == msvdd.experiments.MODEL_EXACT:
                want = ref["exact_cells"][rid]
                if c["status"] != SolveStatus.OPTIMAL.value:
                    bad[rid] = f"status {c['status']}"
                elif not chk.close(c["objective"], want, chk.obj_tol):
                    bad[rid] = f"objective {c['objective']} != {want}"
        got = {(r["model"], r["p"]): r for r in outcome["rows"]}
        for want in ref["rows"]:
            row = got.get((want["model"], want["p"]))
            rid = want["run_ids"]
            if row is None:
                bad.setdefault(rid, "report row missing")
            elif row["param_value"] != want["param_value"]:
                bad.setdefault(rid, f"selected {row['param_value']} != {want['param_value']}")
            elif not chk.close(row["mean_test_auc"], want["mean_test_auc"], chk.auc_tol):
                bad.setdefault(
                    rid, f"mean_test_auc {row['mean_test_auc']} != {want['mean_test_auc']}"
                )
        for rid, why in sorted(bad.items()):
            chk.fail(rid, why)

    def layer_extras(self, outcome) -> dict:
        if isinstance(outcome, Exception):
            return {}
        seconds = outcome["seconds"]
        return {
            "experiments.cells": float(len(outcome["cells"])),
            "experiments.cell_p50_s": statistics.median(seconds) if seconds else 0.0,
        }


class ExactCertify:
    name = "exact_certify"

    def setup(self, seed: int) -> dict:
        problems = []
        for name, kernel, n, p, C in EXACT_INSTANCES:
            train = fixed_draw(n, seed=seed).subset("train")
            g = msvdd.kernels.gram(kernel, train.points)
            problems.append((name, msvdd.exact.MsvddProblem(gram=g, p=p, C=C, seed=0)))
        return {"problems": problems, "seed": seed}

    def describe(self, inputs) -> str:
        return f"5 fixed instances rotated by seed {inputs['seed']}"

    def run_pass(self, inputs, tracer=None) -> PassResult:
        sols = {}
        t0 = time.perf_counter()
        for name, problem in inputs["problems"]:
            if tracer is not None:
                tracer.begin_op(name)
            try:
                sols[name] = msvdd.exact.solve_exact(problem)
            except Exception as exc:  # a raising solve is a failed operation
                sols[name] = exc
        return PassResult(time.perf_counter() - t0, sols)

    def record(self, inputs, outcome) -> dict:
        return {
            name: {"status": sol.status.value, "objective": sol.objective}
            for name, sol in outcome.items()
        }

    def check(self, inputs, outcome, refs, chk: Checker) -> None:
        for name, sol in outcome.items():
            chk.attempted += 1
            want = refs["exact_certify"][name]
            if isinstance(sol, Exception):
                chk.fail(name, f"raised {type(sol).__name__}: {sol}")
            elif sol.status is not SolveStatus.OPTIMAL:
                chk.fail(name, f"status {sol.status.value}")
            elif not chk.close(sol.objective, want["objective"], chk.obj_tol):
                chk.fail(name, f"objective {sol.objective!r} != {want['objective']!r}")

    def layer_extras(self, outcome) -> dict:
        return {}


class LargeFit:
    name = "large_fit"

    def setup(self, seed: int) -> dict:
        ds = fixed_draw(LARGE_N_TRAIN, n_test=LARGE_N_TEST, seed=seed)
        train, test = ds.subset("train"), ds.subset("test")
        return {
            "seed": seed,
            "train": train.points,
            "gram": msvdd.kernels.gram(msvdd.kernels.LINEAR, train.points),
            "test": test.points,
            "labels": test.labels,
        }

    def describe(self, inputs) -> str:
        return (f"n_train={LARGE_N_TRAIN}, n_test={LARGE_N_TEST}, "
                f"fixed set rotated by seed {inputs['seed']}")

    def run_pass(self, inputs, tracer=None) -> PassResult:
        if tracer is not None:
            tracer.begin_op("large_fit")
        t0 = time.perf_counter()
        try:
            config = msvdd.heuristic.HeuristicConfig(**LARGE_CONFIG)
            sol = msvdd.heuristic.solve_heuristic(inputs["gram"], config)
            model = msvdd.detection.DetectionModel.from_solution(
                sol, inputs["gram"], inputs["train"]
            )
            scores = msvdd.detection.score_points(model, inputs["test"])
            auc = msvdd.detection.auc_roc(scores, inputs["labels"]).auc
            outcome = {"objective": sol.objective, "auc": auc}
        except Exception as exc:  # a raising fit is a failed operation
            outcome = exc
        return PassResult(time.perf_counter() - t0, outcome)

    def record(self, inputs, outcome) -> dict:
        return dict(outcome)

    def check(self, inputs, outcome, refs, chk: Checker) -> None:
        chk.attempted += 1
        want = refs["large_fit"]
        if isinstance(outcome, Exception):
            chk.fail("large_fit", f"raised {type(outcome).__name__}: {outcome}")
            return
        wrong = [
            f"{key} {outcome[key]!r} != {want[key]!r}"
            for key, tol in (("objective", chk.obj_tol), ("auc", chk.auc_tol))
            if not chk.close(outcome[key], want[key], tol)
        ]
        if wrong:
            chk.fail("large_fit", "; ".join(wrong))

    def layer_extras(self, outcome) -> dict:
        return {}


def make(name: str, out_root: str):
    if name == "cv_grid":
        return CvGrid(out_root)
    if name == "exact_certify":
        return ExactCertify()
    if name == "large_fit":
        return LargeFit()
    raise ValueError(f"unknown workload {name!r}")
