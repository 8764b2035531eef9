"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Shared solve work is held in module-scoped fixtures
so the random-instance batteries are computed once.
"""

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from msvdd.data import (
    SyntheticSpec,
    generate_synthetic,
    parse_libsvm,
    scale_to_unit_box,
    Dataset,
)
from msvdd.detection import DetectionModel, score_points
from msvdd.exact import MsvddProblem, solve_exact
from msvdd.experiments import ExperimentConfig, run_dataset_block, run_gap_study
from msvdd.heuristic import HeuristicConfig, solve_heuristic
from msvdd.kernels import LINEAR, KernelKind, KernelSpec, gram, rbf
from msvdd.solution import SolveStatus, canonical_objective
from msvdd.svdd import recover_radius, solve_svdd
from oracles import (
    compute_delta_dual,
    compute_delta_primal,
    enumerate_msvdd,
    evaluate_assignment,
    geometric_scores,
    verify_bigM_feasibility,
)


@dataclass
class Instance:
    points: np.ndarray
    gram: object
    p: int
    C: float
    solution: object
    oracle: float | None


@pytest.fixture(scope="module")
def exact_battery():
    """30 random instances: the (n, p, C) grid plus three extra draws."""
    combos = list(itertools.product((6, 8, 10), (1, 2, 3), (0.2, 0.5, 1.0)))
    combos += [(8, 2, 0.5), (10, 3, 0.5), (10, 2, 1.0)]
    instances = []
    master = np.random.default_rng(20240615)
    for n, p, C in combos:
        seed = int(master.integers(0, 2**31))
        pts = np.random.default_rng(seed).normal(scale=1.5, size=(n, 2))
        g = gram(LINEAR, pts)
        sol = solve_exact(MsvddProblem(gram=g, p=p, C=C, seed=seed))
        oracle, _ = enumerate_msvdd(g, p, C)
        instances.append(Instance(pts, g, p, C, sol, oracle))
    return instances


@pytest.fixture(scope="module")
def single_sphere_battery():
    """100 random single-sphere solves across kernels and C values."""
    solves = []
    master = np.random.default_rng(77)
    for _ in range(100):
        n = int(master.integers(4, 21))
        C = float(master.uniform(1.0 / n, 1.2))
        pts = master.normal(scale=float(master.uniform(0.5, 3.0)), size=(n, 2))
        spec = rbf(float(master.uniform(0.05, 1.0))) if master.random() < 0.5 else LINEAR
        g = gram(spec, pts)
        solves.append((C, solve_svdd(g, range(n), C)))
    return solves


def test_criterion_01_oracle_equivalence(exact_battery):
    t0 = time.perf_counter()
    feasible = infeasible = 0
    for inst in exact_battery:
        if inst.oracle is None:
            assert inst.solution.status is SolveStatus.INFEASIBLE
            infeasible += 1
        else:
            assert inst.solution.status is SolveStatus.OPTIMAL
            assert abs(inst.solution.objective - inst.oracle) <= 1e-6, (
                inst.p,
                inst.C,
                inst.solution.objective,
                inst.oracle,
            )
            feasible += 1
    assert feasible + infeasible == 30
    assert time.perf_counter() - t0 < 300.0
    print(
        f"\n[PASS] criterion 1: exact objective = enumeration on {feasible} "
        f"feasible instances (1e-6), {infeasible} infeasible combos agreed"
    )


def test_criterion_02_strong_duality_and_kkt(single_sphere_battery):
    for C, sol in single_sphere_battery:
        assert abs(sol.dual_objective - sol.objective) <= 1e-6
        inside = sol.distances_sq < sol.radius_sq - 1e-6
        outside = sol.distances_sq > sol.radius_sq + 1e-6
        assert np.all(sol.alpha[inside] <= 1e-6)
        assert np.all(sol.alpha[outside] >= C - 1e-6)
    print(
        "\n[PASS] criterion 2: strong duality (1e-6) and KKT complementarity "
        "(1e-6) on 100 single-sphere solves"
    )


def test_criterion_03_single_sphere_reduction():
    master = np.random.default_rng(13)
    for _ in range(20):
        n = int(master.integers(5, 16))
        pts = master.normal(size=(n, 2))
        g = gram(rbf(float(master.uniform(0.1, 1.0))), pts)
        C = float(master.uniform(1.0 / n, 1.2))
        whole = solve_exact(MsvddProblem(gram=g, p=1, C=C, seed=0))
        classical = solve_svdd(g, range(n), C)
        assert abs(whole.objective - classical.objective) <= 1e-6
    print(
        "\n[PASS] criterion 3: p=1 kernelized solve equals the classical dual "
        "solve (1e-6) on 20 instances"
    )


def test_criterion_04_primal_dual_geometry_agreement():
    master = np.random.default_rng(29)
    for _ in range(20):
        n = int(master.integers(6, 13))
        p = int(master.integers(1, 3))
        pts = master.normal(scale=1.5, size=(n, 2))
        g = gram(LINEAR, pts)
        C = 0.5
        sol = solve_exact(MsvddProblem(gram=g, p=p, C=C, seed=1))
        if sol.status is not SolveStatus.OPTIMAL:
            continue
        geo_total = 0.0
        for s in sol.spheres:
            members = list(s.members)
            center = s.alpha @ pts[members]
            d2 = np.sum((pts[members] - center) ** 2, axis=1)
            R_geo, xi_geo = recover_radius(d2, C)
            assert abs(R_geo - s.radius_sq) <= 1e-9
            geo_total += R_geo + C * xi_geo.sum()
        assert abs(geo_total - sol.objective) <= 1e-9
        model = DetectionModel.from_solution(sol, g, pts)
        queries = master.normal(scale=2.0, size=(30, 2))
        assert np.max(
            np.abs(score_points(model, queries) - geometric_scores(model, queries))
        ) <= 1e-9
    print(
        "\n[PASS] criterion 4: linear-kernel pipeline = direct Euclidean "
        "pipeline (1e-9) on objectives, radii, scores"
    )


def test_criterion_05_structural_properties(exact_battery):
    checked = 0
    for inst in exact_battery:
        sol = inst.solution
        if sol.status is not SolveStatus.OPTIMAL:
            continue
        checked += 1
        counts = np.bincount(sol.sphere_of, minlength=inst.p)
        assert np.all(counts >= 1)  # every sphere nonempty
        assert all(s.radius_sq >= 0.0 for s in sol.spheres)  # nonneg radii
        objs = [s.objective for s in sol.spheres]
        for perm in itertools.permutations(objs):
            assert canonical_objective(perm) == canonical_objective(objs)
        d_primal = [compute_delta_primal(inst.points, i) for i in range(len(inst.points))]
        d_dual = [compute_delta_dual(inst.gram, inst.C, i) for i in range(len(inst.points))]
        assert verify_bigM_feasibility(sol, d_primal, inst.gram, tol=1e-6)
        assert verify_bigM_feasibility(sol, d_dual, inst.gram, tol=1e-6)
    assert checked >= 20
    print(
        f"\n[PASS] criterion 5: nonempty spheres, nonnegative radii, label-"
        f"permutation invariance, big-M feasibility (both delta flavors) on "
        f"{checked} optimal solutions"
    )


def test_criterion_06_strict_outlier_cap(exact_battery, single_sphere_battery):
    spheres = [(C, s) for C, s in single_sphere_battery]
    for inst in exact_battery:
        if inst.solution.status is SolveStatus.OPTIMAL:
            spheres.extend((inst.C, s) for s in inst.solution.spheres)
    for C, s in spheres:
        strict = int(np.sum(s.distances_sq > s.radius_sq + 1e-6))
        assert strict <= math.floor(1.0 / C), (C, strict)
    print(
        f"\n[PASS] criterion 6: strict outliers per sphere <= floor(1/C) on "
        f"{len(spheres)} solved spheres"
    )


def test_criterion_07_table_trend_desk_scale():
    t0 = time.perf_counter()
    config = ExperimentConfig(
        mode="both",
        p_grid=(2,),
        C_grid=(0.1, 0.15, 0.2, 0.25, 0.4, 0.8),
        nu_grid=(0.025, 0.05, 0.075, 0.1, 0.15, 0.2),
        kernels=(KernelSpec(KernelKind.LINEAR),),
        data={
            "type": "synthetic",
            "n_train": 60,
            "n_val": 40,
            "n_test": 100,
            "noise_levels": [0.1],
        },
        seeds=(0, 1, 2, 3, 4),
        out_dir="unused",
    )
    selected = {}
    for seed in config.seeds:
        for cell in run_dataset_block(config, 0.1, seed):
            assert cell["error"] == "", cell
            key = (cell["model"], seed)
            if key not in selected or cell["val_auc"] > selected[key]["val_auc"]:
                selected[key] = cell
    wins = 0
    exact_aucs = []
    for seed in config.seeds:
        e = selected[("msvdd-exact", seed)]["test_auc"]
        h = selected[("cluster-svdd", seed)]["test_auc"]
        exact_aucs.append(e)
        wins += e >= h
    elapsed = time.perf_counter() - t0
    assert wins >= 4, f"exact beat heuristic in only {wins}/5 seeds"
    assert float(np.mean(exact_aucs)) >= 0.90
    assert elapsed < 1800.0
    print(
        f"\n[PASS] criterion 7: exact >= heuristic in {wins}/5 seeds, exact "
        f"mean test AUC {np.mean(exact_aucs):.4f} >= 0.90 ({elapsed:.0f}s)"
    )


def test_criterion_08_outliers_nonincreasing_in_C():
    ds = generate_synthetic(SyntheticSpec(60, 40, 100, noise_level=0.1, seed=7))
    train = ds.subset("train")
    g = gram(LINEAR, train.points)
    counts = []
    for C in (0.1, 0.2, 0.4, 0.8):
        sol = solve_exact(MsvddProblem(gram=g, p=2, C=C, seed=7))
        assert sol.status is SolveStatus.OPTIMAL
        model = DetectionModel.from_solution(sol, g, train.points)
        counts.append(int(np.sum(score_points(model, train.points) > 1e-9)))
    inversions = sum(b > a for a, b in zip(counts, counts[1:]))
    assert inversions <= 1, counts
    print(
        f"\n[PASS] criterion 8: detected training outliers {counts} over "
        f"C in (0.1, 0.2, 0.4, 0.8); {inversions} inversion(s) (<= 1 allowed)"
    )


def test_criterion_09_heuristic_contract(exact_battery):
    compared = 0
    for k, inst in enumerate(exact_battery):
        if inst.solution.status is not SolveStatus.OPTIMAL:
            continue
        heur = solve_heuristic(
            inst.gram,
            HeuristicConfig(p=inst.p, nu=0.2, max_iters=200, restarts=2, seed=k),
        )
        hist = heur.iterate_objectives
        assert 1 <= len(hist) <= 200
        assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))
        under_c = evaluate_assignment(
            inst.gram, heur.sphere_of, inst.p, inst.C, enforce_cardinality=True
        )
        # assignments below the cardinality floor are infeasible for the
        # exact model: treated as an infinite upper bound
        if under_c is not None:
            assert under_c.objective >= inst.solution.objective - 1e-6
            compared += 1
    assert compared >= 10
    print(
        f"\n[PASS] criterion 9: heuristic monotone iterates (1e-9), "
        f"termination <= 200, upper-bounds exact on {compared} comparable runs"
    )


def test_criterion_10_gap_study(tmp_path):
    # p=3 on a noisy draw: the root incumbent (5.562) is suboptimal here
    # (optimum 4.642), so the log records genuine improvements during the
    # search
    config = ExperimentConfig(
        mode="exact",
        p_grid=(3,),
        C_grid=(0.3,),
        kernels=(KernelSpec(KernelKind.LINEAR),),
        data={
            "type": "synthetic",
            "n_train": 24,
            "n_val": 12,
            "n_test": 30,
            "noise_levels": [0.2],
        },
        seeds=(2,),
        out_dir=str(tmp_path),
    )
    rows = run_gap_study(config)
    assert len(rows) >= 2
    objs = [r["objective"] for r in rows]
    assert all(b < a for a, b in zip(objs, objs[1:]))
    assert rows[-1]["gap"] == pytest.approx(0.0, abs=1e-12)
    z_opt = objs[-1]
    for r in rows:
        assert abs(r["gap"] - (r["objective"] - z_opt) / r["objective"]) <= 1e-12
    print(
        f"\n[PASS] criterion 10: incumbent log strictly decreasing "
        f"({len(rows)} records), final gap 0, gap column matches the formula "
        f"(1e-12)"
    )


def test_criterion_11_data_layer():
    # libSVM fixtures parse to exact matrices
    ds = parse_libsvm("1 1:0.5 3:-1\n2\n-1 2:2.5 4:1\n")
    assert np.array_equal(
        ds.points,
        np.array(
            [
                [0.5, 0.0, -1.0, 0.0],
                [0.0, 0.0, 0.0, 0.0],
                [0.0, 2.5, 0.0, 1.0],
            ]
        ),
    )
    assert np.array_equal(ds.labels, [1, 2, -1])

    # train column extremes land exactly on -1 and +1
    train = Dataset(np.array([[0.0, 3.0], [10.0, -3.0], [5.0, 0.0]]))
    (scaled,) = scale_to_unit_box(train)
    assert scaled.points[0, 0] == -1.0 and scaled.points[1, 0] == 1.0
    assert scaled.points[0, 1] == 1.0 and scaled.points[1, 1] == -1.0

    # synthetic generation: bit-reproducible, anomaly fraction exact per split
    spec = SyntheticSpec(100, 66, 166, noise_level=0.15, seed=42)
    a = generate_synthetic(spec)
    b = generate_synthetic(spec)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.labels, b.labels)
    for name, count in (("train", 100), ("val", 66), ("test", 166)):
        sub = a.subset(name)
        assert int(sub.labels.sum()) == round(0.15 * count)
    print(
        "\n[PASS] criterion 11: libSVM parsing exact, scaling extremes at "
        "+-1, synthetic generation bit-reproducible with exact anomaly counts"
    )
