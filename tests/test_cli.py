import csv
import json
import os

import numpy as np
import pytest

from msvdd.cli import main
from msvdd.data import read_dataset_csv
from test_data import MALFORMED_CSV
from test_experiments import REFUSED_AT_ENTRY


def run_cli(args):
    return main([str(a) for a in args])


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture
def dataset_dir(tmp_path):
    out = tmp_path / "data"
    code = run_cli(
        ["generate", "--n-train", 16, "--n-val", 10, "--n-test", 12,
         "--noise", 0.1, "--seed", 3, "--out", out]
    )
    assert code == 0
    return out


class TestGenerate:
    def test_writes_dataset_and_spec(self, dataset_dir):
        ds = read_dataset_csv(dataset_dir / "dataset.csv")
        assert ds.n == 38
        with open(dataset_dir / "spec.json") as fh:
            spec = json.load(fh)
        assert spec["seed"] == 3

    def test_bad_noise_is_input_error(self, tmp_path):
        assert run_cli(["generate", "--noise", "0.9", "--out", tmp_path]) == 1


class TestSolve:
    def test_exact_solve_writes_solution(self, dataset_dir, tmp_path):
        out = tmp_path / "run"
        code = run_cli(
            ["solve", "--data", dataset_dir / "dataset.csv", "--p", 2,
             "--C", 0.5, "--seed", 0, "--out", out]
        )
        assert code == 0
        with open(out / "solution.json") as fh:
            payload = json.load(fh)
        assert payload["status"] == "optimal"
        assert payload["p"] == 2
        assert len(payload["spheres"]) == 2
        assert "linear_centers" in payload
        assert payload["relative_gap"] == 0.0
        rows = read_rows(out / "incumbents.csv")
        assert rows and all(r["reference"] == "optimal" for r in rows)
        assert float(rows[-1]["gap"]) == 0.0

    def test_heuristic_solve(self, dataset_dir, tmp_path):
        out = tmp_path / "heur"
        code = run_cli(
            ["solve", "--data", dataset_dir / "dataset.csv", "--p", 2,
             "--nu", 0.2, "--seed", 0, "--out", out]
        )
        assert code == 0
        with open(out / "solution.json") as fh:
            payload = json.load(fh)
        assert payload["status"] == "time_limit_incumbent"

    def test_heuristic_solve_reports_no_gap(self, dataset_dir, tmp_path):
        # the heuristic proves no bound: no gap in solution.json, and its
        # incumbent rows have an empty gap against reference "none"
        out = tmp_path / "heur"
        code = run_cli(
            ["solve", "--data", dataset_dir / "dataset.csv", "--p", 2,
             "--nu", 0.1, "--seed", 0, "--out", out]
        )
        assert code == 0
        with open(out / "solution.json") as fh:
            payload = json.load(fh)
        assert payload["relative_gap"] is None and payload["lower_bound"] is None
        rows = read_rows(out / "incumbents.csv")
        assert rows and list(rows[0]) == ["wall_time_s", "objective", "gap", "reference"]
        assert all(r["gap"] == "" and r["reference"] == "none" for r in rows)

    def test_heuristic_solve_fits_the_cv_cell(self, tmp_path):
        # solve --nu and a cv cell run the same restarts on the same training
        # points, so each (p, nu, seed) fits the same spheres
        data = tmp_path / "data"
        assert run_cli(["generate", "--seed", 0, "--out", data]) == 0
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "mode": "heuristic", "p_grid": [2, 3], "nu_grid": [0.05, 0.2], "seeds": [0, 1],
            "data": {"type": "csv", "path": str(data / "dataset.csv")},
        }))
        assert run_cli(["cv", "--config", config, "--out", tmp_path / "cv"]) == 0
        cells = read_rows(tmp_path / "cv" / "cells.csv")
        assert len(cells) == 8
        for cell in cells:
            out = tmp_path / cell["run_id"]
            code = run_cli(
                ["solve", "--data", data / "dataset.csv", "--p", cell["p"],
                 "--nu", cell["param_value"], "--seed", cell["seed"], "--out", out]
            )
            assert code == 0
            with open(out / "solution.json") as fh:
                assert json.load(fh)["objective"] == float(cell["objective"]), cell["run_id"]

    def test_infeasible_cardinality_is_input_error(self, dataset_dir, tmp_path):
        code = run_cli(
            ["solve", "--data", dataset_dir / "dataset.csv", "--p", 2,
             "--C", 0.05, "--out", tmp_path / "x"]
        )
        assert code == 1

    def test_time_limit_exit_code(self, dataset_dir, tmp_path):
        code = run_cli(
            ["solve", "--data", dataset_dir / "dataset.csv", "--p", 2,
             "--C", 0.5, "--time-limit", 0.0, "--out", tmp_path / "tl"]
        )
        assert code == 3

    def test_missing_file_is_input_error(self, tmp_path):
        assert run_cli(["solve", "--data", tmp_path / "nope.csv"]) == 1

    def test_nan_in_data_is_input_error(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("x1,x2,label,split\n0,0,1,\n1,nan,1,\n2,1,1,\n")
        assert run_cli(["solve", "--data", path, "--out", tmp_path / "n"]) == 1

    @pytest.mark.parametrize("command", ["solve", "cv"])
    @pytest.mark.parametrize("case", sorted(MALFORMED_CSV))
    def test_malformed_csv_is_input_error(self, tmp_path, capsys, command, case):
        text, line = MALFORMED_CSV[case]
        path = tmp_path / "bad.csv"
        path.write_text(text)
        if command == "solve":
            args = ["solve", "--data", path]
        else:
            config_path = tmp_path / "config.json"
            config_path.write_text(json.dumps({"data": {"type": "csv", "path": str(path)}}))
            args = ["cv", "--config", config_path]
        assert run_cli(args + ["--out", tmp_path / "out"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"input error: line {line}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["cv", "gap"])
    @pytest.mark.parametrize("blank, message", [
        ("label", "has no labels"),
        ("split", "has no split tags"),
    ], ids=["no-labels", "no-split-tags"])
    def test_unusable_csv_source_is_input_error(self, dataset_dir, tmp_path, capsys,
                                                command, blank, message):
        # a grid study needs the labels and split tags that a CSV may leave
        # empty; the file is refused before the output directory is made
        rows = read_rows(dataset_dir / "dataset.csv")
        path = tmp_path / "blank.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows({**row, blank: ""} for row in rows)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"mode": "exact", "p_grid": [1], "C_grid": [0.5],
                                           "data": {"type": "csv", "path": str(path)}}))
        out = tmp_path / "out"
        assert run_cli([command, "--config", config_path, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and message in err
        assert "Traceback" not in err
        assert not os.path.exists(out)

    def test_workers_flag_removed(self, dataset_dir, tmp_path):
        with pytest.raises(SystemExit):
            run_cli(
                ["solve", "--data", dataset_dir / "dataset.csv",
                 "--workers", 2, "--out", tmp_path / "w"]
            )

    def test_rbf_requires_sigma2(self, dataset_dir, tmp_path):
        code = run_cli(
            ["solve", "--data", dataset_dir / "dataset.csv", "--kernel", "rbf",
             "--out", tmp_path / "r"]
        )
        assert code == 1

    @pytest.mark.parametrize("command", ["solve", "cv", "gap"])
    @pytest.mark.parametrize("flags, message", [
        (["--kernel", "linear", "--sigma2", 0.5], "--sigma2 needs --kernel rbf"),
        (["--sigma2", 0.5], "--sigma2 needs --kernel rbf"),
        (["--kernel", "rbf"], "--kernel rbf needs --sigma2"),
    ], ids=["linear", "no-kernel", "rbf-alone"])
    def test_one_kernel_flag_rule(self, dataset_dir, tmp_path, capsys, command, flags, message):
        # solve once ran --kernel linear --sigma2 0.5 as linear and exited 0
        out = tmp_path / command
        data = ["--data", dataset_dir / "dataset.csv"] if command == "solve" else []
        assert run_cli([command, *data, *flags, "--out", out]) == 1
        assert f"input error: {message}" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("flags", [
        ["--C", 0.2], ["--time-limit", 5], ["--cardinality", "on"], ["--cardinality", "off"],
    ], ids=["C", "time-limit", "cardinality-on", "cardinality-off"])
    def test_exact_flags_with_nu_are_input_errors(self, dataset_dir, tmp_path, capsys, flags):
        # the heuristic once ran with these flags ignored and exited 0
        out = tmp_path / "heur"
        code = run_cli(
            ["solve", "--data", dataset_dir / "dataset.csv", "--nu", 0.1, *flags, "--out", out]
        )
        assert code == 1
        assert f"input error: --nu runs the heuristic, which takes no {flags[0]}" in (
            capsys.readouterr().err
        )
        assert not os.path.exists(out)

    def test_nu_alone_runs_the_heuristic(self, dataset_dir, tmp_path):
        out = tmp_path / "heur"
        assert run_cli(["solve", "--data", dataset_dir / "dataset.csv", "--nu", 0.1,
                        "--out", out]) == 0
        assert os.path.exists(out / "solution.json")

    def test_exact_defaults(self, dataset_dir, tmp_path):
        out = tmp_path / "exact"
        assert run_cli(["solve", "--data", dataset_dir / "dataset.csv", "--out", out]) == 0
        with open(out / "solution.json") as fh:
            payload = json.load(fh)
        assert payload["C"] == 0.2
        assert payload["enforce_cardinality"] is True

    def test_rbf_solve(self, dataset_dir, tmp_path):
        out = tmp_path / "rbf"
        code = run_cli(
            ["solve", "--data", dataset_dir / "dataset.csv", "--p", 2,
             "--C", 0.5, "--kernel", "rbf", "--sigma2", 0.5, "--out", out]
        )
        assert code == 0
        with open(out / "solution.json") as fh:
            payload = json.load(fh)
        assert "linear_centers" not in payload

    def test_cardinality_off(self, dataset_dir, tmp_path):
        # C = 0.05 is infeasible with the floor but fine without it
        out = tmp_path / "nofloor"
        code = run_cli(
            ["solve", "--data", dataset_dir / "dataset.csv", "--p", 2,
             "--C", 0.05, "--cardinality", "off", "--out", out]
        )
        assert code == 0
        with open(out / "solution.json") as fh:
            payload = json.load(fh)
        assert payload["status"] == "optimal"
        assert payload["enforce_cardinality"] is False
        assert all(s["radius_sq"] >= 0.0 for s in payload["spheres"])


class TestCvAndGap:
    def test_cv_with_flag_overrides(self, tmp_path):
        out = tmp_path / "cv"
        code = run_cli(
            ["cv", "--mode", "both", "--p", 2, "--C", 0.5, "--nu", 0.25,
             "--seed", 0, "--out", out]
        )
        assert code == 0
        assert os.path.exists(out / "report.csv")
        with open(out / "resolved_config.json") as fh:
            resolved = json.load(fh)
        assert resolved["p_grid"] == [2]
        assert resolved["C_grid"] == [0.5]

    def test_cv_from_config_file(self, tmp_path):
        config_path = tmp_path / "config.json"
        out = tmp_path / "cv2"
        config_path.write_text(
            json.dumps(
                {
                    "mode": "heuristic",
                    "p_grid": [2],
                    "nu_grid": [0.25],
                    "seeds": [0],
                    "data": {
                        "type": "synthetic",
                        "n_train": 14,
                        "n_val": 10,
                        "n_test": 12,
                        "noise_levels": [0.1],
                    },
                    "out_dir": str(out),
                }
            )
        )
        assert run_cli(["cv", "--config", config_path]) == 0
        assert os.path.exists(out / "report.txt")

    def test_flags_override_config_file(self, tmp_path):
        config_path = tmp_path / "config.json"
        out = tmp_path / "cv3"
        config_path.write_text(
            json.dumps(
                {
                    "mode": "both",
                    "nu_grid": [0.25],
                    "seeds": [0],
                    "data": {
                        "type": "synthetic",
                        "n_train": 14,
                        "n_val": 10,
                        "n_test": 12,
                        "noise_levels": [0.1],
                    },
                    "workers": 2,
                }
            )
        )
        code = run_cli(
            ["cv", "--config", config_path, "--mode", "heuristic", "--p", 1,
             "--kernel", "rbf", "--sigma2", 0.5, "--out", out]
        )
        assert code == 0
        with open(out / "resolved_config.json") as fh:
            resolved = json.load(fh)
        assert resolved["mode"] == "heuristic"
        assert resolved["p_grid"] == [1]
        assert resolved["kernels"] == [{"kind": "rbf", "sigma_squared": 0.5}]
        assert resolved["workers"] == 2
        assert resolved["nu_grid"] == [0.25]

    @pytest.mark.parametrize("payload", [
        {"C": [0.3]},
        {"data": {"type": "synthetic", "noise_level": [0.2]}},
        {"data": {"type": "parquet", "path": "x"}},
        {"kernels": [{"sigma_squared": 1.0}]},
        {"p_grid": 2},
        [{"p_grid": [2]}],
        *(bad for bad, _ in REFUSED_AT_ENTRY),
    ], ids=["top_key", "data_key", "data_type", "kernel_kind", "scalar_p", "not_object",
            *(f"{name}-{k}" for k, (_, name) in enumerate(REFUSED_AT_ENTRY))])
    def test_malformed_config_is_input_error(self, tmp_path, capsys, payload):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(payload))
        assert run_cli(["cv", "--config", config_path, "--out", tmp_path / "cv"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error: ")
        assert "Traceback" not in err
        assert not os.path.exists(tmp_path / "cv")

    def test_rbf_grid_requires_sigma2(self, tmp_path, capsys):
        code = run_cli(["cv", "--kernel", "linear", "rbf", "--out", tmp_path / "cv"])
        assert code == 1
        assert "--sigma2" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["cv", "gap"])
    @pytest.mark.parametrize("kernel", [[], ["--kernel", "linear"]], ids=["no-kernel", "linear"])
    def test_sigma2_without_rbf_is_input_error(self, tmp_path, capsys, command, kernel):
        out = tmp_path / command
        code = run_cli([command, "--mode", "heuristic", "--p", 1, *kernel,
                        "--sigma2", 0.5, "--out", out])
        assert code == 1
        assert "--sigma2 needs --kernel rbf" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_gap_then_plotdata(self, tmp_path):
        out = tmp_path / "gap"
        code = run_cli(
            ["gap", "--p", 2, "--C", 0.5, "--seed", 0, "--out", out]
        )
        assert code == 0
        assert os.path.exists(out / "incumbents.csv")
        assert run_cli(["plotdata", "--results", out]) == 0
        assert os.path.exists(out / "gap_vs_auc.csv")

    def test_plotdata_on_empty_dir(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert run_cli(["plotdata", "--results", empty]) == 1
