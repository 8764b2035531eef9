import csv
import json
import math
import os
from collections import Counter

import numpy as np
import pytest

import msvdd.experiments
from msvdd.codec import from_dict, to_dict
from msvdd.errors import InputError, SolverFailure
from msvdd.experiments import (
    DATA_SOURCES,
    MODEL_EXACT,
    MODEL_HEURISTIC,
    ExperimentConfig,
    emit_plot_data,
    load_dataset,
    run_cross_validation,
    run_gap_study,
)
from msvdd.exact import MsvddProblem
from msvdd.heuristic import HeuristicConfig
from msvdd.kernels import LINEAR, KernelKind, KernelSpec, gram


# values of the wrong type, each with the field its message must name
WRONGLY_TYPED = (
    {"data": {"type": "synthetic", "n_train": 20.7}},
    {"data": {"type": "synthetic", "n_val": "10"}},
    {"data": {"type": "libsvm", "path": "x.libsvm", "scale": "no"}},
    {"time_limit": "x"},
    {"kernels": ({"kind": "rbf", "sigma_squared": "x"},)},
)
WRONGLY_TYPED_NAMES = ("n_train", "n_val", "scale", "time_limit", "sigma_squared")

# values a config refuses when it is built, before any cell runs, each with
# the key its message names
REFUSED_AT_ENTRY = (
    ({"data": {"type": "synthetic", "noise_levels": ["a"]}}, "noise_levels"),
    ({"data": {"type": "synthetic", "cluster_sigmas": [0.5]}}, "cluster_sigmas"),
    ({"p_grid": [True]}, "p_grid"),
    ({"data": {"type": "synthetic", "n_train": True}}, "n_train"),
    ({"data": {"type": "synthetic", "noise_levels": [0.1, 0.7]}}, "noise_levels"),
    ({"data": {"type": "synthetic", "cluster_sigmas": [0.5, 0.0]}}, "cluster_sigmas"),
    ({"data": {"type": "libsvm", "path": "x", "fractions": [0.5, 0.5, 0.5]}}, "fractions"),
    ({"data": {"type": "libsvm", "path": "x", "anomaly_classes": [1.5]}}, "anomaly_classes"),
    ({"data": {"type": "libsvm", "path": "x", "anomaly_fractions": [0.0]}}, "anomaly_fractions"),
    ({"data": {"type": "csv", "path": ""}}, "path"),
    ({"data": {"type": "csv"}}, "path"),
    ({"kernels": [{"kind": "rbf", "sigma_squared": True}]}, "sigma_squared"),
    ({"kernels": [{"kind": "rbf", "sigma_squared": math.inf}]}, "sigma_squared"),
)


def small_config(out_dir, **overrides):
    base = dict(
        mode="both",
        p_grid=(2,),
        C_grid=(0.5, 1.0),
        nu_grid=(0.2, 0.4),
        kernels=(KernelSpec(KernelKind.LINEAR),),
        data={
            "type": "synthetic",
            "n_train": 14,
            "n_val": 12,
            "n_test": 20,
            "noise_levels": [0.1],
        },
        seeds=(0, 1),
        out_dir=str(out_dir),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# resolved_config.json of small_config, with its out_dir written as OUT
RESOLVED_SMALL_CONFIG = """\
{
  "C_grid": [
    0.5,
    1.0
  ],
  "data": {
    "cluster_sigmas": [
      0.5,
      0.6
    ],
    "n_test": 20,
    "n_train": 14,
    "n_val": 12,
    "noise_levels": [
      0.1
    ],
    "type": "synthetic"
  },
  "enforce_cardinality": true,
  "kernels": [
    {
      "kind": "linear",
      "sigma_squared": null
    }
  ],
  "mode": "both",
  "nu_grid": [
    0.2,
    0.4
  ],
  "out_dir": "OUT",
  "p_grid": [
    2
  ],
  "seeds": [
    0,
    1
  ],
  "time_limit": null,
  "workers": 1
}
"""


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def gap_outputs(out_dir):
    """incumbents.csv without its wall clock, and gap_summary.json."""
    rows = read_csv(os.path.join(out_dir, "incumbents.csv"))
    for row in rows:
        del row["wall_time_s"]
    with open(os.path.join(out_dir, "gap_summary.json")) as fh:
        return rows, json.load(fh)


class TestConfig:
    def test_round_trip(self, tmp_path):
        rbf = KernelSpec(KernelKind.RBF, 0.25)
        linear = KernelSpec(KernelKind.LINEAR)
        sources = (
            {"type": "synthetic", "n_train": 10, "noise_levels": [0.1, 0.2],
             "cluster_sigmas": [0.4, 0.7]},
            {"type": "libsvm", "path": "x.libsvm", "anomaly_classes": [3],
             "anomaly_fractions": [0.05], "fractions": [0.3, 0.2, 0.5], "scale": False},
            {"type": "csv", "path": "x.csv"},
        )
        for kernels in ((rbf,), (linear,), (linear, rbf)):
            for data in sources:
                config = small_config(tmp_path, kernels=kernels, data=data, time_limit=2.5)
                again = from_dict(ExperimentConfig, json.loads(json.dumps(to_dict(config))))
                assert again == config

    def test_validation(self, tmp_path):
        with pytest.raises(InputError):
            small_config(tmp_path, mode="fancy")
        with pytest.raises(InputError):
            small_config(tmp_path, C_grid=(0.0,))
        with pytest.raises(InputError):
            small_config(tmp_path, nu_grid=(1.5,))
        with pytest.raises(InputError):
            small_config(tmp_path, p_grid=())

    @pytest.mark.parametrize("split", ["val", "test"])
    def test_noise_level_without_an_anomaly_in_a_scored_split(self, tmp_path, split):
        # round(0.05 * 10) is 0: every cell of that level would fail its AUC
        data = {"type": "synthetic", "noise_levels": [0.1, 0.05], f"n_{split}": 10}
        with pytest.raises(InputError, match=f"noise level 0.05 leaves the {split} split"):
            small_config(tmp_path, data=data)
        # the training split is not scored, so it may hold no anomaly
        data = {"type": "synthetic", "noise_levels": [0.05], "n_train": 10}
        assert small_config(tmp_path, data=data).data["n_train"] == 10

    @pytest.mark.parametrize("bad", [
        {"C_grid": (0.2, math.inf)}, {"C_grid": (math.nan,)}, {"C_grid": (-0.1,)},
        {"time_limit": math.nan}, {"time_limit": -1.0},
        {"workers": 0}, {"seeds": (0.5,)}, {"p_grid": (2, 0)},
        {"p_grid": 2}, {"p_grid": (1.5,)}, {"seeds": "01"}, {"workers": 2.0},
        {"enforce_cardinality": "no"}, {"kernels": ({"sigma_squared": 1.0},)},
        {"data": {"type": "synthetic", "noise_level": [0.2]}},
        {"data": {"type": "synthetic", "noise_levels": 0.2}},
        {"data": {"type": "parquet"}}, {"data": {"type": "csv"}},
        *WRONGLY_TYPED,
    ])
    def test_non_finite_penalty_or_bad_time_limit_rejected(self, tmp_path, bad):
        with pytest.raises(InputError):
            small_config(tmp_path, **bad)

    @pytest.mark.parametrize("bad,name", zip(WRONGLY_TYPED, WRONGLY_TYPED_NAMES))
    def test_wrongly_typed_value_is_named(self, tmp_path, bad, name):
        # a value of the wrong type is refused, not coerced, and the message
        # names the field rather than repeating Python's comparison error
        with pytest.raises(InputError, match=name):
            small_config(tmp_path, **bad)

    @pytest.mark.parametrize("bad,name", REFUSED_AT_ENTRY)
    def test_bad_value_is_refused_where_it_enters(self, tmp_path, bad, name):
        with pytest.raises(InputError, match=name):
            from_dict(ExperimentConfig, {**bad, "out_dir": str(tmp_path)})

    @pytest.mark.parametrize("source", sorted(DATA_SOURCES))
    def test_data_block_is_complete(self, tmp_path, source):
        data = {"type": source} if source == "synthetic" else {"type": source, "path": "x"}
        config = small_config(tmp_path, data=data)
        assert set(config.data) == {"type", *DATA_SOURCES[source]}
        assert all(not isinstance(v, list) for v in config.data.values())
        assert from_dict(ExperimentConfig, json.loads(json.dumps(to_dict(config)))) == config

    @pytest.mark.parametrize("limit", [None, 0.0, math.inf])
    def test_time_limit_accepted(self, tmp_path, limit):
        assert small_config(tmp_path, time_limit=limit).time_limit == limit


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    out = tmp_path_factory.mktemp("cv")
    config = small_config(out)
    rows = run_cross_validation(config)
    return config, rows


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    out = tmp_path_factory.mktemp("gap")
    config = small_config(out, mode="exact", C_grid=(0.5,), seeds=(0,), p_grid=(2,))
    rows = run_gap_study(config)
    return config, rows


class TestRunCrossValidation:
    def test_report_rows_cover_models(self, run):
        config, rows = run
        models = {r["model"] for r in rows}
        assert models == {MODEL_EXACT, MODEL_HEURISTIC}
        for row in rows:
            assert row["n_seeds"] == len(config.seeds)
            assert 0.0 <= row["mean_test_auc"] <= 1.0

    def test_resolved_config_text(self, run):
        config, _ = run
        with open(os.path.join(config.out_dir, "resolved_config.json")) as fh:
            text = fh.read().replace(json.dumps(config.out_dir), '"OUT"')
        assert text == RESOLVED_SMALL_CONFIG

    def test_resolved_config_loads_to_the_same_config(self, run):
        config, _ = run
        with open(os.path.join(config.out_dir, "resolved_config.json")) as fh:
            resolved = json.load(fh)
        assert set(resolved["data"]) == {"type", *DATA_SOURCES["synthetic"]}
        assert from_dict(ExperimentConfig, resolved) == config

    def test_artifacts_written(self, run):
        config, _ = run
        for name in (
            "report.csv",
            "report.txt",
            "cells.csv",
            "timings.csv",
            "resolved_config.json",
        ):
            assert os.path.exists(os.path.join(config.out_dir, name))

    def test_every_report_cell_references_runs(self, run):
        config, rows = run
        cells = {c["run_id"]: c for c in read_csv(os.path.join(config.out_dir, "cells.csv"))}
        for row in rows:
            for run_id in row["run_ids"].split(";"):
                assert run_id in cells
                assert cells[run_id]["error"] == ""

    def test_cell_count_matches_grid(self, run):
        config, _ = run
        cells = read_csv(os.path.join(config.out_dir, "cells.csv"))
        expected = (
            len(config.seeds)
            * len(config.p_grid)
            * (len(config.C_grid) + len(config.nu_grid))
        )
        assert len(cells) == expected

    def test_heuristic_rows_carry_implied_C(self, run):
        _, rows = run
        heur = [r for r in rows if r["model"] == MODEL_HEURISTIC]
        assert heur and all(r["implied_C"] != "" for r in heur)
        for r in heur:
            assert r["implied_C"] == pytest.approx(
                r["p"] / (r["param_value"] * 14), abs=1e-12
            )

    def test_cells_carry_their_solver_status(self, run):
        # the heuristic certifies nothing and has no time limit to hit
        config, _ = run
        cells = read_csv(os.path.join(config.out_dir, "cells.csv"))
        want = {MODEL_HEURISTIC: "heuristic", MODEL_EXACT: "optimal"}
        assert cells and all(c["status"] == want[c["model"]] for c in cells)

    def test_infeasible_cells_recorded_not_fatal(self, tmp_path):
        # C = 0.05 needs 20 points per sphere but the train split has 14
        config = small_config(
            tmp_path / "infeas", mode="exact", C_grid=(0.05, 1.0), seeds=(0,)
        )
        run_cross_validation(config)
        cells = read_csv(os.path.join(config.out_dir, "cells.csv"))
        bad = [c for c in cells if c["param_value"] == "0.05"]
        good = [c for c in cells if c["param_value"] == "1.0"]
        assert bad and all(c["error"] != "" and c["status"] == "infeasible" for c in bad)
        assert good and all(c["error"] == "" and c["status"] == "optimal" for c in good)


class TestScoring:
    def test_cv_scores_each_solved_cell_on_val_and_test_only(self, tmp_path, monkeypatch):
        # an exact cell of this grid, with three spheres, has an earlier
        # incumbent, which only the gap study scores
        calls = []
        score = msvdd.experiments.score_points

        def counting(model, X):
            calls.append(len(X))
            return score(model, X)

        monkeypatch.setattr(msvdd.experiments, "score_points", counting)
        config = small_config(tmp_path, seeds=(0,), p_grid=(3,))
        run_cross_validation(config)
        solved = [c for c in read_csv(os.path.join(config.out_dir, "cells.csv"))
                  if not c["error"]]
        assert len(solved) == 4
        assert calls == [12, 20] * len(solved)
        calls.clear()
        # the gap study scores each cell on val and test, and each earlier
        # incumbent on test
        rows = run_gap_study(small_config(tmp_path / "gap", mode="exact", seeds=(0,),
                                          p_grid=(3,)))
        logged = Counter(r["run_id"] for r in rows)
        assert max(logged.values()) >= 2
        assert len(calls) == 2 * len(logged) + len(rows) - len(logged)


class TestDeterminism:
    def test_deterministic_artifacts_byte_identical(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            run_cross_validation(small_config(out, seeds=(3,)))
        for name in ("report.csv", "cells.csv", "report.txt"):
            with open(out_a / name, "rb") as fa, open(out_b / name, "rb") as fb:
                assert fa.read() == fb.read(), name

    def test_worker_pool_matches_serial(self, tmp_path):
        serial = tmp_path / "serial"
        pooled = tmp_path / "pooled"
        run_cross_validation(small_config(serial, seeds=(0, 1), workers=1))
        run_cross_validation(small_config(pooled, seeds=(0, 1), workers=2))
        for name in ("report.csv", "cells.csv"):
            with open(serial / name, "rb") as fa, open(pooled / name, "rb") as fb:
                assert fa.read() == fb.read(), name


class TestRunGapStudy:
    def test_requires_exact_mode(self, tmp_path):
        with pytest.raises(InputError):
            run_gap_study(small_config(tmp_path, mode="both"))

    def test_rows_strictly_decreasing_and_final_zero(self, study):
        config, rows = study
        assert rows
        objs = [r["objective"] for r in rows]
        assert all(b < a for a, b in zip(objs, objs[1:]))
        assert rows[-1]["gap"] == pytest.approx(0.0, abs=1e-12)

    def test_gap_formula_recomputes(self, study):
        config, rows = study
        z_opt = rows[-1]["objective"]
        for r in rows:
            assert r["gap"] == pytest.approx(
                (r["objective"] - z_opt) / r["objective"], abs=1e-12
            )
            assert r["reference"] == "optimal"

    def test_file_preserves_row_order_verbatim(self, study):
        config, rows = study
        on_disk = read_csv(os.path.join(config.out_dir, "incumbents.csv"))
        assert [r["run_id"] for r in on_disk] == [r["run_id"] for r in rows]
        assert [float(r["test_auc"]) for r in on_disk] == [
            pytest.approx(r["test_auc"]) for r in rows
        ]

    def test_worker_pool_matches_serial(self, tmp_path):
        serial = tmp_path / "serial"
        pooled = tmp_path / "pooled"
        run_gap_study(small_config(serial, mode="exact", workers=1))
        run_gap_study(small_config(pooled, mode="exact", workers=2))
        rows, summary = gap_outputs(serial)
        assert rows and len(summary) == 4
        assert gap_outputs(pooled) == (rows, summary)

    def test_failed_cells_recorded_and_study_finishes(self, tmp_path, monkeypatch):
        # C = 0.05 needs 20 points per sphere but the train split has 14;
        # the C = 1 cell of seed 1 fails in the solver
        solve = msvdd.experiments._solve_cell

        def failing(model, gram_train, p, param, config, seed):
            if param == 1.0 and seed == 1:
                raise SolverFailure("no convergence")
            return solve(model, gram_train, p, param, config, seed)

        monkeypatch.setattr(msvdd.experiments, "_solve_cell", failing)
        config = small_config(tmp_path, mode="exact", C_grid=(0.05, 0.5, 1.0))
        rows = run_gap_study(config)
        with open(os.path.join(config.out_dir, "gap_summary.json")) as fh:
            summary = {e["run_id"]: e for e in json.load(fh)}
        assert len(summary) == 6
        solved = set()
        for run_id, entry in summary.items():
            if run_id.endswith("_0.05"):
                assert entry == {"run_id": run_id, "status": "infeasible",
                                 "error": "infeasible cardinality for this (p, C)"}
            elif run_id.endswith("_s1_p2_linear_1"):
                assert entry == {"run_id": run_id, "status": "failed",
                                 "error": "SolverFailure: no convergence"}
            else:
                assert set(entry) == {"run_id", "status", "objective", "lower_bound",
                                      "node_count", "incumbents"}
                assert entry["status"] == "optimal"
                solved.add(run_id)
        assert len(solved) == 3
        assert {r["run_id"] for r in rows} == solved

    def test_cell_without_incumbent_is_recorded(self, tmp_path):
        # with p = n there is no root heuristic, and a zero limit stops the
        # search before any incumbent: the cell fails, the runs finish
        config = small_config(
            tmp_path, mode="exact", p_grid=(14,), C_grid=(1.0,), seeds=(0,), time_limit=0.0
        )
        assert run_gap_study(config) == []
        with open(os.path.join(config.out_dir, "gap_summary.json")) as fh:
            (entry,) = json.load(fh)
        assert entry["status"] == "failed"
        assert entry["error"] == "SolverFailure: time limit hit before any incumbent"
        assert run_cross_validation(config) == []
        (cell,) = read_csv(os.path.join(config.out_dir, "cells.csv"))
        assert cell["error"] == entry["error"]

    def test_last_incumbent_scores_as_its_cell(self, tmp_path):
        config = small_config(tmp_path, mode="exact", p_grid=(3,))
        rows = run_gap_study(config)
        run_cross_validation(config)
        cells = {c["run_id"]: c for c in read_csv(os.path.join(config.out_dir, "cells.csv"))}
        last = {r["run_id"]: r for r in rows}
        assert last.keys() == cells.keys()
        # some cell has an earlier incumbent, and every incumbent is scored
        assert max(Counter(r["run_id"] for r in rows).values()) >= 2
        assert all(isinstance(r["test_auc"], float) and 0.0 <= r["test_auc"] <= 1.0
                   for r in rows)
        for run_id, row in last.items():
            assert repr(row["test_auc"]) == cells[run_id]["test_auc"]


class TestSolutionToDict:
    def test_errors_and_support_as_stored_before(self, rng):
        # two clusters and a far point: with p = 3 and no floor the far point
        # gets a one-member sphere, which C * 1 < 1 collapses to radius zero
        from msvdd.exact import MsvddProblem, solve_exact
        from msvdd.experiments import solution_to_dict
        from msvdd.kernels import LINEAR, gram
        from msvdd.svdd import DEFAULT_TOLS, recover_radius

        pts = np.vstack([rng.normal(size=(7, 2)) - 3, rng.normal(size=(7, 2)) + 3, [[12, 0]]])
        g = gram(LINEAR, pts)
        sol = solve_exact(MsvddProblem(gram=g, p=3, C=0.3, enforce_cardinality=False))
        payload = solution_to_dict(sol)
        assert sorted(len(s.members) for s in sol.spheres) == [1, 7, 7]
        tol = DEFAULT_TOLS.feasibility
        for s, entry in zip(sol.spheres, payload["spheres"]):
            ia = np.asarray(s.members)
            if ia.size == 1:
                # the errors of a zero-radius sphere are its distances, and
                # its weight 1 above the cap C = 0.3 lists it nowhere
                assert s.radius_sq == 0.0
                assert entry["errors"] == s.distances_sq.tolist()
                assert entry["support_free"] == entry["support_bound"] == []
                continue
            # errors from the radius recovery, support from the weights
            assert entry["errors"] == recover_radius(s.distances_sq, s.C)[1].tolist()
            bound = s.alpha >= s.C - tol
            assert entry["support_free"] == ia[(s.alpha > tol) & ~bound].tolist() != []
            assert entry["support_bound"] == ia[bound].tolist() != []

    def test_every_weight_at_the_cap_is_bound(self, rng):
        # C * |S| == 1: the radius collapses to zero, but unlike a C * |S| < 1
        # sphere every weight sits at the cap, so every member is bound
        from msvdd.exact import MsvddProblem, solve_exact
        from msvdd.experiments import solution_to_dict
        from msvdd.kernels import LINEAR, gram

        sol = solve_exact(MsvddProblem(gram=gram(LINEAR, rng.normal(size=(4, 2))), p=1, C=0.25))
        (entry,) = solution_to_dict(sol)["spheres"]
        assert entry["radius_sq"] == 0.0
        assert entry["alpha"] == [0.25] * 4
        assert entry["support_bound"] == [0, 1, 2, 3]
        assert entry["support_free"] == []


class TestEmitPlotData:
    def test_bundle_from_cv_results(self, tmp_path):
        config = small_config(tmp_path / "cv", seeds=(0,))
        run_cross_validation(config)
        written = emit_plot_data(config.out_dir)
        names = {os.path.basename(p) for p in written}
        assert {"profile.csv", "auc_curve.csv"} <= names

        profile = read_csv(os.path.join(config.out_dir, "profile.csv"))
        fractions = [float(r["fraction_solved"]) for r in profile]
        assert all(0.0 < f <= 1.0 for f in fractions)
        assert fractions == sorted(fractions)
        assert fractions[-1] == 1.0

        curve = read_csv(os.path.join(config.out_dir, "auc_curve.csv"))
        combos = {(r["model"], r["p"], r["param_value"]) for r in curve}
        assert len(curve) == len(combos)
        exact_rows = [r for r in curve if r["model"] == MODEL_EXACT]
        assert len(exact_rows) == len(config.p_grid) * len(config.C_grid)

    def test_scatter_and_spheres_from_solve_artifacts(self, tmp_path, rng):
        from msvdd.data import SyntheticSpec, generate_synthetic, write_dataset_csv
        from msvdd.detection import DetectionModel
        from msvdd.exact import MsvddProblem, solve_exact
        from msvdd.experiments import solution_to_dict
        from msvdd.kernels import LINEAR, gram

        out = tmp_path / "solve"
        os.makedirs(out)
        ds = generate_synthetic(SyntheticSpec(16, 10, 10, noise_level=0.1, seed=0))
        write_dataset_csv(ds, out / "dataset.csv")
        train = ds.subset("train")
        g = gram(LINEAR, train.points)
        sol = solve_exact(MsvddProblem(gram=g, p=2, C=0.5, seed=0))
        model = DetectionModel.from_solution(sol, g, train.points)
        with open(out / "solution.json", "w") as fh:
            json.dump(solution_to_dict(sol, model), fh)
        written = emit_plot_data(str(out))
        names = {os.path.basename(p) for p in written}
        assert {"scatter.csv", "spheres.csv"} <= names
        assert (out / "scatter.csv").read_bytes() == (out / "dataset.csv").read_bytes()
        spheres = read_csv(out / "spheres.csv")
        assert len(spheres) == 2
        assert "center_x1" in spheres[0] and "radius_sq" in spheres[0]
        assert all("alpha_ref" in s for s in spheres)

    def test_gap_bundle(self, tmp_path):
        config = small_config(
            tmp_path / "gap", mode="exact", C_grid=(0.5,), seeds=(0,)
        )
        run_gap_study(config)
        written = emit_plot_data(config.out_dir)
        names = {os.path.basename(p) for p in written}
        assert "gap_vs_auc.csv" in names
        rows = read_csv(os.path.join(config.out_dir, "gap_vs_auc.csv"))
        assert rows and {"run_id", "gap", "test_auc", "objective"} == set(rows[0])


class TestLoadDataset:
    def test_libsvm_protocol(self, tmp_path):
        path = tmp_path / "toy.libsvm"
        rng = np.random.default_rng(0)
        lines = []
        for _ in range(80):
            lines.append(f"1 1:{rng.normal():.4f} 2:{rng.normal():.4f}")
        for _ in range(30):
            lines.append(f"9 1:{rng.normal() + 4:.4f} 2:{rng.normal() + 4:.4f}")
        path.write_text("\n".join(lines) + "\n")
        config = ExperimentConfig(
            mode="heuristic",
            data={
                "type": "libsvm",
                "path": str(path),
                "anomaly_classes": [9],
                "anomaly_fractions": [0.1],
            },
            out_dir=str(tmp_path),
        )
        ds = load_dataset(config, 0.1, seed=0)
        train = ds.subset("train")
        assert train.n == 24 + round(0.1 * 24)
        # scaled into the unit box on the train split
        assert train.points.min() >= -1.0 - 1e-9
        assert train.points.max() <= 1.0 + 1e-9

    def test_csv_source_is_checked(self, tmp_path):
        # the one CSV reader refuses a file without labels, whichever study
        # or caller reads it
        from msvdd.data import Dataset, write_dataset_csv

        path = tmp_path / "unlabelled.csv"
        write_dataset_csv(Dataset(np.zeros((6, 2)), split=["train", "val", "test"] * 2), path)
        config = ExperimentConfig(mode="heuristic", data={"type": "csv", "path": str(path)},
                                  out_dir=str(tmp_path))
        with pytest.raises(InputError, match="has no labels"):
            load_dataset(config, "na", seed=0)


def test_csv_source_is_read_once_per_run(tmp_path, monkeypatch):
    from msvdd.data import SyntheticSpec, generate_synthetic, write_dataset_csv

    path = tmp_path / "dataset.csv"
    write_dataset_csv(generate_synthetic(SyntheticSpec(14, 12, 20, 0.1, seed=0)), path)
    reads = []
    read = msvdd.experiments.read_dataset_csv
    monkeypatch.setattr(msvdd.experiments, "read_dataset_csv",
                        lambda p: reads.append(p) or read(p))
    # two seeds make two dataset blocks, which share the one read
    config = ExperimentConfig(mode="heuristic", p_grid=(1,), nu_grid=(0.2,), seeds=(0, 1),
                              data={"type": "csv", "path": str(path)},
                              out_dir=str(tmp_path / "cv"))
    rows = run_cross_validation(config)
    assert reads == [str(path)]
    assert rows and rows[0]["n_seeds"] == 2


class TestBoolIsNotANumber:
    # Python counts True as the integer 1; a rule refuses it unless it asks for bool
    @pytest.mark.parametrize("name,build", [
        ("p_grid", lambda out: small_config(out, p_grid=(True,))),
        ("seeds", lambda out: small_config(out, seeds=(0, False))),
        ("workers", lambda out: small_config(out, workers=True)),
        ("time_limit", lambda out: small_config(out, time_limit=True)),
        ("p", lambda out: MsvddProblem(gram=gram(LINEAR, np.eye(3)), p=True, C=0.5)),
        ("restarts", lambda out: HeuristicConfig(p=2, nu=0.5, restarts=True)),
    ])
    def test_bool_is_refused(self, tmp_path, name, build):
        with pytest.raises(InputError, match=f"^{name} must be"):
            build(tmp_path)

    def test_flag_takes_a_bool(self, tmp_path):
        assert small_config(tmp_path, enforce_cardinality=False).enforce_cardinality is False
