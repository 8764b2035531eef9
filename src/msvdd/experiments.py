"""Experiment protocol: parameter grids, cross-validation, gap studies, plot CSVs.

A run walks a grid of (model, sphere count, kernel, penalty) cells per dataset
draw, selects parameters on the validation split by AUC, and reports test AUC
mean and standard deviation across seeds.  Every solver invocation is logged
as one cells.csv row under a deterministic run id, and report rows reference
the run ids they aggregate.  Deterministic outputs (report.csv, cells.csv,
report.txt) never contain wall-clock values; those live in timings.csv and in
the incumbent logs only.
"""

from __future__ import annotations

import csv
import json
import math
import os
import statistics
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from numbers import Integral, Real

import numpy as np

from .codec import from_dict, to_dict, write_json
from .data import (
    CLUSTER_SIGMAS,
    Dataset,
    SyntheticSpec,
    generate_synthetic,
    parse_libsvm,
    read_dataset_csv,
    scale_to_unit_box,
    split_real,
)
from .detection import DetectionModel, auc_roc, linear_centers, score_points
from .errors import InputError, MsvddError
from .exact import MsvddProblem, incumbent_gap_rows, solve_exact
from .heuristic import HeuristicConfig, solve_heuristic
from .kernels import KernelKind, KernelSpec, gram
from .solution import Assignment, MsvddSolution, SolveStatus, evaluate_assignment

MODEL_EXACT = "msvdd-exact"
MODEL_HEURISTIC = "cluster-svdd"


# the fixed synthetic draw a config uses by default
_DEFAULT_DRAW = {"n_train": 60, "n_val": 40, "n_test": 100, "noise_levels": (0.1,)}
# the keys each data source accepts besides "type", with their defaults;
# None marks a required key
DATA_SOURCES = {
    "synthetic": {**_DEFAULT_DRAW, "cluster_sigmas": CLUSTER_SIGMAS},
    "libsvm": {
        "path": None, "fractions": (0.3, 0.2, 0.5), "anomaly_classes": (),
        "anomaly_fractions": (0.1,), "scale": True,
    },
    "csv": {"path": None},
}


def _grid(name: str, values, kind=object, ok=lambda v: True, what="values") -> tuple:
    """``values`` as a tuple, if it is a list of ``kind`` entries that are all ``ok``."""
    if not isinstance(values, (list, tuple)) or not all(
        isinstance(v, kind) and ok(v) for v in values
    ):
        raise InputError(f"{name} must be a list of {what}, got {values!r}")
    return tuple(values)


def _checked_data(data) -> dict:
    """The data block with list values as tuples, once its keys fit its source."""
    if not isinstance(data, dict) or data.get("type") not in DATA_SOURCES:
        raise InputError(f"data needs a 'type' among {', '.join(DATA_SOURCES)}, got {data!r}")
    kind = data["type"]
    defaults = DATA_SOURCES[kind]
    unknown = sorted(set(data) - set(defaults) - {"type"})
    if unknown:
        raise InputError(f"unknown key(s) for {kind} data: {', '.join(unknown)}")
    for key, default in defaults.items():
        if key not in data:
            if default is None:
                raise InputError(f"{kind} data needs a {key!r} key")
            continue
        value = data[key]
        if isinstance(default, tuple):
            _grid(f"data {key}", value)
        elif isinstance(default, bool):
            if not isinstance(value, bool):
                raise InputError(f"data {key} must be true or false, got {value!r}")
        elif isinstance(default, int):
            if not isinstance(value, Integral) or value < 1:
                raise InputError(f"data {key} must be an integer >= 1, got {value!r}")
    return {k: tuple(v) if isinstance(v, list) else v for k, v in data.items()}


@dataclass
class ExperimentConfig:
    """One grid study.  The JSON config file holds these fields by name."""

    mode: str = "both"  # exact | heuristic | both
    p_grid: tuple[int, ...] = (1, 2)
    C_grid: tuple[float, ...] = (0.1, 0.15, 0.2, 0.25, 0.4, 0.8)
    nu_grid: tuple[float, ...] = (0.025, 0.05, 0.075, 0.1, 0.15, 0.2)
    kernels: tuple[KernelSpec, ...] = (KernelSpec(KernelKind.LINEAR),)
    data: dict = field(default_factory=lambda: {"type": "synthetic", **_DEFAULT_DRAW})
    seeds: tuple[int, ...] = (0,)
    time_limit: float | None = None
    workers: int = 1
    enforce_cardinality: bool = True
    heuristic_restarts: int = 5
    heuristic_max_iters: int = 100
    out_dir: str = "results"

    def __post_init__(self):
        if self.mode not in ("exact", "heuristic", "both"):
            raise InputError(f"unknown mode {self.mode!r}")
        self.p_grid = _grid("p_grid", self.p_grid, Integral, lambda p: p >= 1, "integers >= 1")
        self.C_grid = _grid(
            "C_grid", self.C_grid, Real, lambda c: 0 < c < math.inf, "finite numbers > 0"
        )
        self.nu_grid = _grid(
            "nu_grid", self.nu_grid, Real, lambda v: 0 < v <= 1, "values in (0, 1]"
        )
        self.seeds = _grid("seeds", self.seeds, Integral, what="integers")
        self.kernels = tuple(
            k if isinstance(k, KernelSpec) else from_dict(KernelSpec, k)
            for k in _grid("kernels", self.kernels)
        )
        self.data = _checked_data(self.data)
        if not self.p_grid or not self.seeds or not self.kernels:
            raise InputError("p grid, seeds, and kernel grid must be nonempty")
        if self.mode in ("exact", "both") and not self.C_grid:
            raise InputError("C grid must be nonempty for exact runs")
        if self.mode in ("heuristic", "both") and not self.nu_grid:
            raise InputError("nu grid must be nonempty for heuristic runs")
        if self.time_limit is not None and not (
            isinstance(self.time_limit, Real) and self.time_limit >= 0
        ):
            raise InputError(f"time_limit must be None or a number >= 0, got {self.time_limit!r}")
        for name in ("workers", "heuristic_restarts", "heuristic_max_iters"):
            value = getattr(self, name)
            if not isinstance(value, Integral) or value < 1:
                raise InputError(f"{name} must be an integer >= 1, got {value!r}")
        if not isinstance(self.enforce_cardinality, bool):
            raise InputError("enforce_cardinality must be true or false")

    @property
    def models(self) -> tuple[str, ...]:
        if self.mode == "exact":
            return (MODEL_EXACT,)
        if self.mode == "heuristic":
            return (MODEL_HEURISTIC,)
        return (MODEL_HEURISTIC, MODEL_EXACT)


def noise_levels(config: ExperimentConfig) -> tuple:
    """Synthetic noise levels, libSVM anomaly fractions, or "na" for a CSV file."""
    data = {**DATA_SOURCES[config.data["type"]], **config.data}
    return tuple(data.get("noise_levels", data.get("anomaly_fractions", ("na",))))


def load_dataset(config: ExperimentConfig, noise, seed: int) -> Dataset:
    """Materialize one dataset draw for a (noise level, seed) pair."""
    data = {**DATA_SOURCES[config.data["type"]], **config.data}
    if data["type"] == "synthetic":
        spec = SyntheticSpec(
            n_train=data["n_train"],
            n_val=data["n_val"],
            n_test=data["n_test"],
            noise_level=float(noise),
            cluster_sigmas=tuple(data["cluster_sigmas"]),
            seed=seed,
        )
        return generate_synthetic(spec)
    if data["type"] == "libsvm":
        with open(data["path"]) as fh:
            raw = parse_libsvm(fh.read())
        ds = split_real(
            raw,
            fractions=tuple(data["fractions"]),
            anomaly_classes=data["anomaly_classes"],
            anomaly_fraction=float(noise),
            seed=seed,
        )
        return scale_to_unit_box(ds.subset("train"), (ds,))[1] if data["scale"] else ds
    return read_dataset_csv(data["path"])


def _kernel_name(spec: KernelSpec) -> str:
    if spec.kind is KernelKind.LINEAR:
        return "linear"
    return f"rbf{spec.sigma_squared:g}"


def _run_id(model, noise, seed, p, kspec, param) -> str:
    return f"{model}_a{noise}_s{seed}_p{p}_{_kernel_name(kspec)}_{param:g}"


def _solve_cell(model, gram_train, p, param, config, seed):
    if model == MODEL_EXACT:
        problem = MsvddProblem(
            gram=gram_train,
            p=p,
            C=param,
            enforce_cardinality=config.enforce_cardinality,
            time_limit=config.time_limit,
            seed=seed,
        )
        return solve_exact(problem)
    hconfig = HeuristicConfig(
        p=p,
        nu=param,
        max_iters=config.heuristic_max_iters,
        restarts=config.heuristic_restarts,
        seed=seed,
    )
    return solve_heuristic(gram_train, hconfig)


def run_dataset_block(config: ExperimentConfig, noise, seed: int) -> list[dict]:
    """All grid cells for one dataset draw; failures are recorded, not raised."""
    dataset = load_dataset(config, noise, seed)
    train = dataset.subset("train")
    val = dataset.subset("val")
    test = dataset.subset("test")
    cells = []
    for kspec in config.kernels:
        gram_train = gram(kspec, train.points)
        for model in config.models:
            grid = config.C_grid if model == MODEL_EXACT else config.nu_grid
            param_name = "C" if model == MODEL_EXACT else "nu"
            for p in config.p_grid:
                for param in grid:
                    cell = {
                        "run_id": _run_id(model, noise, seed, p, kspec, param),
                        "model": model,
                        "anomaly_pct": noise,
                        "seed": seed,
                        "p": p,
                        "kernel": _kernel_name(kspec),
                        "param_name": param_name,
                        "param_value": param,
                        "n_train": train.n,
                        "status": "",
                        "objective": "",
                        "node_count": "",
                        "val_auc": "",
                        "test_auc": "",
                        "error": "",
                        "seconds": None,
                    }
                    t0 = time.perf_counter()
                    try:
                        sol = _solve_cell(model, gram_train, p, param, config, seed)
                        if sol.status is SolveStatus.INFEASIBLE:
                            raise InputError("infeasible cardinality for this (p, C)")
                        dm = DetectionModel.from_solution(sol, gram_train, train.points)
                        val_auc = auc_roc(score_points(dm, val.points), val.labels).auc
                        test_auc = auc_roc(score_points(dm, test.points), test.labels).auc
                        cell.update(
                            status=sol.status.value,
                            objective=sol.objective,
                            node_count=sol.node_count,
                            val_auc=val_auc,
                            test_auc=test_auc,
                        )
                    except MsvddError as exc:
                        cell["error"] = f"{type(exc).__name__}: {exc}"
                    cell["seconds"] = time.perf_counter() - t0
                    cells.append(cell)
    return cells


def _collect_cells(config: ExperimentConfig) -> list[dict]:
    blocks = [(noise, seed) for noise in noise_levels(config) for seed in config.seeds]
    if config.workers > 1 and len(blocks) > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            results = list(
                pool.map(_block_worker, [(config, noise, seed) for noise, seed in blocks])
            )
        cells = [cell for block in results for cell in block]
    else:
        cells = []
        for noise, seed in blocks:
            cells.extend(run_dataset_block(config, noise, seed))
    cells.sort(key=lambda c: c["run_id"])
    return cells


def _block_worker(args):
    config, noise, seed = args
    return run_dataset_block(config, noise, seed)


def select_and_summarize(config: ExperimentConfig, cells: list[dict]) -> list[dict]:
    """Validation-AUC selection per (model, noise, p, seed), then seed means."""
    grid_order = {c["run_id"]: k for k, c in enumerate(cells)}
    chosen: dict[tuple, dict] = {}
    for cell in cells:
        if cell["error"]:
            continue
        key = (cell["model"], cell["anomaly_pct"], cell["p"], cell["seed"])
        cur = chosen.get(key)
        if (
            cur is None
            or cell["val_auc"] > cur["val_auc"]
            or (
                cell["val_auc"] == cur["val_auc"]
                and grid_order[cell["run_id"]] < grid_order[cur["run_id"]]
            )
        ):
            chosen[key] = cell
    rows = []
    groups: dict[tuple, list[dict]] = {}
    for key, cell in chosen.items():
        groups.setdefault(key[:3], []).append(cell)
    for (model, noise, p), picks in sorted(
        groups.items(), key=lambda kv: (str(kv[0][1]), kv[0][2], kv[0][0])
    ):
        aucs = [c["test_auc"] for c in picks]
        params = [c["param_value"] for c in picks]
        param_mode = min(
            (v for v, cnt in Counter(params).items() if cnt == max(Counter(params).values())),
        )
        row = {
            "model": model,
            "anomaly_pct": noise,
            "p": p,
            "n_seeds": len(picks),
            "mean_test_auc": statistics.fmean(aucs),
            "std_test_auc": statistics.pstdev(aucs) if len(aucs) > 1 else 0.0,
            "param_name": picks[0]["param_name"],
            "param_value": param_mode,
            "implied_C": "",
            "run_ids": ";".join(sorted(c["run_id"] for c in picks)),
        }
        if model == MODEL_HEURISTIC:
            n_train = picks[0]["n_train"]
            row["implied_C"] = p / (param_mode * n_train)
        rows.append(row)
    return rows


def _write_csv(path, rows, columns):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def _format_report_text(rows) -> str:
    lines = []
    header = f"{'model':<14}{'anom%':>7}{'p':>4}{'mean_auc':>10}{'std':>8}  param"
    lines.append(header)
    lines.append("-" * len(header))
    best: dict[tuple, float] = {}
    for row in rows:
        key = (row["anomaly_pct"], row["p"])
        best[key] = max(best.get(key, -1.0), row["mean_test_auc"])
    for row in rows:
        mark = "*" if row["mean_test_auc"] >= best[(row["anomaly_pct"], row["p"])] else " "
        param = f"{row['param_name']}={row['param_value']:g}"
        if row["implied_C"] != "":
            param += f" (implied C={row['implied_C']:.4g})"
        lines.append(
            f"{row['model']:<14}{str(row['anomaly_pct']):>7}{row['p']:>4}"
            f"{row['mean_test_auc']:>9.4f}{mark}{row['std_test_auc']:>8.4f}  {param}"
        )
    return "\n".join(lines) + "\n"


CELL_COLUMNS = [
    "run_id", "model", "anomaly_pct", "seed", "p", "kernel", "param_name",
    "param_value", "n_train", "status", "objective", "node_count", "val_auc",
    "test_auc", "error",
]
REPORT_COLUMNS = [
    "model", "anomaly_pct", "p", "n_seeds", "mean_test_auc", "std_test_auc",
    "param_name", "param_value", "implied_C", "run_ids",
]


def run_cross_validation(config: ExperimentConfig) -> list[dict]:
    """Full grid study; writes report/cells/timings and returns report rows."""
    os.makedirs(config.out_dir, exist_ok=True)
    write_json(to_dict(config), os.path.join(config.out_dir, "resolved_config.json"))
    cells = _collect_cells(config)
    rows = select_and_summarize(config, cells)
    _write_csv(os.path.join(config.out_dir, "cells.csv"), cells, CELL_COLUMNS)
    _write_csv(
        os.path.join(config.out_dir, "timings.csv"),
        [{"run_id": c["run_id"], "seconds": c["seconds"]} for c in cells],
        ["run_id", "seconds"],
    )
    _write_csv(os.path.join(config.out_dir, "report.csv"), rows, REPORT_COLUMNS)
    with open(os.path.join(config.out_dir, "report.txt"), "w") as fh:
        fh.write(_format_report_text(rows))
    return rows


GAP_COLUMNS = ["run_id", "wall_time_s", "objective", "gap", "test_auc", "reference"]


def run_gap_study(config: ExperimentConfig) -> list[dict]:
    """Incumbent trajectories of the exact solver with per-incumbent test AUC."""
    if config.mode != "exact":
        raise InputError("gap study requires mode='exact'")
    os.makedirs(config.out_dir, exist_ok=True)
    write_json(to_dict(config), os.path.join(config.out_dir, "resolved_config.json"))
    all_rows = []
    summaries = []
    for noise in noise_levels(config):
        for seed in config.seeds:
            dataset = load_dataset(config, noise, seed)
            train = dataset.subset("train")
            test = dataset.subset("test")
            for kspec in config.kernels:
                gram_train = gram(kspec, train.points)
                for p in config.p_grid:
                    for C in config.C_grid:
                        run_id = _run_id(MODEL_EXACT, noise, seed, p, kspec, C)
                        sol = _solve_cell(MODEL_EXACT, gram_train, p, C, config, seed)
                        if sol.status is SolveStatus.INFEASIBLE:
                            summaries.append({"run_id": run_id, "status": "infeasible"})
                            continue
                        rows = incumbent_gap_rows(sol)
                        for rec, row in zip(sol.incumbent_log, rows):
                            inc = evaluate_assignment(
                                gram_train,
                                Assignment(rec.sphere_of),
                                p,
                                C,
                                config.enforce_cardinality,
                            )
                            dm = DetectionModel.from_solution(inc, gram_train, train.points)
                            row["test_auc"] = auc_roc(
                                score_points(dm, test.points), test.labels
                            ).auc
                            row["run_id"] = run_id
                        all_rows.extend(rows)
                        summaries.append(
                            {
                                "run_id": run_id,
                                "status": sol.status.value,
                                "objective": sol.objective,
                                "lower_bound": sol.lower_bound,
                                "node_count": sol.node_count,
                                "incumbents": len(rows),
                            }
                        )
    _write_csv(os.path.join(config.out_dir, "incumbents.csv"), all_rows, GAP_COLUMNS)
    write_json(summaries, os.path.join(config.out_dir, "gap_summary.json"))
    return all_rows


def solution_to_dict(sol: MsvddSolution, model: DetectionModel | None = None) -> dict:
    """JSON-ready solution; the spheres' input-space centres are added under
    ``linear_centers`` when ``model`` is a linear-kernel model of ``sol``."""
    payload = {
        "status": sol.status.value,
        "objective": None if not np.isfinite(sol.objective) else sol.objective,
        "lower_bound": None if not np.isfinite(sol.lower_bound) else sol.lower_bound,
        "relative_gap": sol.relative_gap if sol.spheres else None,
        "node_count": sol.node_count,
        "p": sol.p,
        "C": None if not np.isfinite(sol.C) else sol.C,
        "enforce_cardinality": sol.enforce_cardinality,
        "assignment": [int(j) for j in sol.assignment.sphere_of],
        "spheres": [
            {
                "members": list(s.members),
                "alpha": [float(a) for a in s.alpha],
                "radius_sq": s.radius_sq,
                "errors": [float(e) for e in s.errors],
                "objective": s.objective,
                "C": s.C,
                "support_free": list(s.support_free),
                "support_bound": list(s.support_bound),
            }
            for s in sol.spheres
        ],
        "incumbents": [
            {"objective": r.objective, "wall_time_s": r.wall_time}
            for r in sol.incumbent_log
        ],
    }
    if model is not None and model.kernel_spec.kind is KernelKind.LINEAR and sol.spheres:
        payload["linear_centers"] = linear_centers(model).tolist()
    return payload


def emit_plot_data(results_dir: str, out_dir: str | None = None) -> list[str]:
    """CSV bundle for external plotting, from whatever artifacts are present.

    dataset.csv + solution.json -> scatter.csv, spheres.csv
    timings.csv                 -> profile.csv  (nondecreasing solved fraction)
    cells.csv                   -> auc_curve.csv (one row per (model, p, param))
    incumbents.csv              -> gap_vs_auc.csv
    """
    out_dir = out_dir or results_dir
    os.makedirs(out_dir, exist_ok=True)
    written = []

    dataset_path = os.path.join(results_dir, "dataset.csv")
    solution_path = os.path.join(results_dir, "solution.json")
    if os.path.exists(dataset_path):
        ds = read_dataset_csv(dataset_path)
        rows = []
        for i in range(ds.n):
            row = {f"x{j + 1}": repr(float(v)) for j, v in enumerate(ds.points[i])}
            row["label"] = "" if ds.labels is None else int(ds.labels[i])
            row["split"] = "" if ds.split is None else ds.split[i]
            rows.append(row)
        cols = [f"x{j + 1}" for j in range(ds.d)] + ["label", "split"]
        path = os.path.join(out_dir, "scatter.csv")
        _write_csv(path, rows, cols)
        written.append(path)
    if os.path.exists(solution_path):
        with open(solution_path) as fh:
            payload = json.load(fh)
        rows = []
        for j, sphere in enumerate(payload.get("spheres", [])):
            row = {
                "sphere": j,
                "radius_sq": sphere["radius_sq"],
                "alpha_ref": f"solution.json#/spheres/{j}/alpha",
            }
            if "linear_centers" in payload:
                for k, v in enumerate(payload["linear_centers"][j]):
                    row[f"center_x{k + 1}"] = v
            rows.append(row)
        if rows:
            cols = sorted({k for row in rows for k in row}, key=str)
            path = os.path.join(out_dir, "spheres.csv")
            _write_csv(path, rows, cols)
            written.append(path)

    timings_path = os.path.join(results_dir, "timings.csv")
    if os.path.exists(timings_path):
        with open(timings_path, newline="") as fh:
            seconds = sorted(float(r["seconds"]) for r in csv.DictReader(fh))
        total = len(seconds)
        rows = [
            {"seconds": s, "fraction_solved": (k + 1) / total}
            for k, s in enumerate(seconds)
        ]
        path = os.path.join(out_dir, "profile.csv")
        _write_csv(path, rows, ["seconds", "fraction_solved"])
        written.append(path)

    cells_path = os.path.join(results_dir, "cells.csv")
    if os.path.exists(cells_path):
        with open(cells_path, newline="") as fh:
            cells = [r for r in csv.DictReader(fh) if not r["error"]]
        groups: dict[tuple, list] = {}
        for c in cells:
            key = (c["model"], int(c["p"]), c["param_name"], float(c["param_value"]))
            groups.setdefault(key, []).append(
                (float(c["val_auc"]), float(c["test_auc"]))
            )
        rows = [
            {
                "model": model,
                "p": p,
                "param_name": name,
                "param_value": value,
                "mean_val_auc": statistics.fmean(v for v, _ in pairs),
                "mean_test_auc": statistics.fmean(t for _, t in pairs),
            }
            for (model, p, name, value), pairs in sorted(
                groups.items(), key=lambda kv: (kv[0][0], kv[0][1], kv[0][3])
            )
        ]
        path = os.path.join(out_dir, "auc_curve.csv")
        _write_csv(
            path,
            rows,
            ["model", "p", "param_name", "param_value", "mean_val_auc", "mean_test_auc"],
        )
        written.append(path)

    incumbents_path = os.path.join(results_dir, "incumbents.csv")
    if os.path.exists(incumbents_path):
        with open(incumbents_path, newline="") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
            have = reader.fieldnames or []
        cols = [c for c in ("run_id", "gap", "test_auc", "objective") if c in have]
        if "gap" in cols:
            path = os.path.join(out_dir, "gap_vs_auc.csv")
            _write_csv(path, rows, cols)
            written.append(path)
    return written
