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
import shutil
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field

from .codec import from_dict, to_dict, write_json
from .data import (
    CLUSTER_SIGMAS,
    Dataset,
    SyntheticSpec,
    anomaly_count,
    generate_synthetic,
    parse_libsvm,
    read_dataset_csv,
    scale_to_unit_box,
    split_real,
)
from .detection import DetectionModel, auc_roc, linear_centers, score_points
from .errors import (
    COUNT, FLAG, FRACTION, INTEGER, NOISE_LEVEL, PATH, POSITIVE, SPLIT_FRACTIONS, TIME_LIMIT,
    InputError, MsvddError, SolverFailure, checked, each,
)
from .exact import MsvddProblem, incumbent_gap_rows, solve_exact
from .heuristic import HeuristicConfig, solve_heuristic
from .kernels import KernelKind, KernelSpec, gram
from .solution import MsvddSolution, SolveStatus
from .svdd import DEFAULT_TOLS

MODEL_EXACT = "msvdd-exact"
MODEL_HEURISTIC = "cluster-svdd"


# each data source's keys besides "type", as key: (default, rule for
# `checked`); a required key's default is None, which its rule refuses
DATA_SOURCES = {
    "synthetic": {
        "n_train": (60, COUNT), "n_val": (40, COUNT), "n_test": (100, COUNT),
        "noise_levels": ((0.1,), each(NOISE_LEVEL)),
        "cluster_sigmas": (CLUSTER_SIGMAS, each(POSITIVE, len(CLUSTER_SIGMAS))),
    },
    "libsvm": {
        "path": (None, PATH), "fractions": ((0.3, 0.2, 0.5), SPLIT_FRACTIONS),
        "anomaly_classes": ((), each(INTEGER)), "anomaly_fractions": ((0.1,), each(FRACTION)),
        "scale": (True, FLAG),
    },
    "csv": {"path": (None, PATH)},
}


def _checked_data(data) -> dict:
    """The complete data block: its source's defaults filled in, every value
    checked against its key's rule, and lists as tuples.  A synthetic noise
    level must leave an anomaly in the val and test splits, which AUC needs."""
    if not isinstance(data, dict) or data.get("type") not in DATA_SOURCES:
        raise InputError(f"data needs a 'type' among {', '.join(DATA_SOURCES)}, got {data!r}")
    kind = data["type"]
    unknown = sorted(set(data) - set(DATA_SOURCES[kind]) - {"type"})
    if unknown:
        raise InputError(f"unknown key(s) for {kind} data: {', '.join(unknown)}")
    block = {"type": kind}
    for key, (default, rule) in DATA_SOURCES[kind].items():
        value = checked(f"data {key}", data.get(key, default), *rule)
        block[key] = tuple(value) if isinstance(value, list) else value
    for noise in block.get("noise_levels", ()):
        for split in ("val", "test"):
            count = block[f"n_{split}"]
            if anomaly_count(noise, count) == 0:
                raise InputError(
                    f"data noise level {noise} leaves the {split} split of {count} points "
                    f"without an anomaly (round({noise} * {count}) is 0), so AUC is undefined"
                )
    return block


@dataclass
class ExperimentConfig:
    """One grid study.  The JSON config file holds these fields by name; once
    built, ``data`` holds its source's complete block (`DATA_SOURCES`)."""

    mode: str = "both"  # exact | heuristic | both
    p_grid: tuple[int, ...] = (1, 2)
    C_grid: tuple[float, ...] = (0.1, 0.15, 0.2, 0.25, 0.4, 0.8)
    nu_grid: tuple[float, ...] = (0.025, 0.05, 0.075, 0.1, 0.15, 0.2)
    kernels: tuple[KernelSpec, ...] = (KernelSpec(KernelKind.LINEAR),)
    data: dict = field(default_factory=lambda: {"type": "synthetic"})
    seeds: tuple[int, ...] = (0,)
    time_limit: float | None = None
    workers: int = 1
    enforce_cardinality: bool = True
    out_dir: str = "results"

    def __post_init__(self):
        if self.mode not in ("exact", "heuristic", "both"):
            raise InputError(f"unknown mode {self.mode!r}")
        for name, rule in (("p_grid", COUNT), ("C_grid", POSITIVE), ("nu_grid", FRACTION),
                           ("seeds", INTEGER)):
            setattr(self, name, tuple(checked(name, getattr(self, name), *each(rule))))
        self.kernels = tuple(
            k if isinstance(k, KernelSpec) else from_dict(KernelSpec, k)
            for k in checked("kernels", self.kernels, (list, tuple), what="a list")
        )
        self.data = _checked_data(self.data)
        if not self.p_grid or not self.seeds or not self.kernels:
            raise InputError("p grid, seeds, and kernel grid must be nonempty")
        if self.mode in ("exact", "both") and not self.C_grid:
            raise InputError("C grid must be nonempty for exact runs")
        if self.mode in ("heuristic", "both") and not self.nu_grid:
            raise InputError("nu grid must be nonempty for heuristic runs")
        checked("time_limit", self.time_limit, *TIME_LIMIT)
        checked("workers", self.workers, *COUNT)
        checked("enforce_cardinality", self.enforce_cardinality, *FLAG)

    @property
    def models(self) -> tuple[str, ...]:
        if self.mode == "exact":
            return (MODEL_EXACT,)
        if self.mode == "heuristic":
            return (MODEL_HEURISTIC,)
        return (MODEL_HEURISTIC, MODEL_EXACT)


def noise_levels(config: ExperimentConfig) -> tuple:
    """Synthetic noise levels, libSVM anomaly fractions, or "na" for a CSV file."""
    return config.data.get("noise_levels", config.data.get("anomaly_fractions", ("na",)))


def load_dataset(config: ExperimentConfig, noise, seed: int) -> Dataset:
    """Materialize one dataset draw for a (noise level, seed) pair."""
    data = config.data
    if data["type"] == "synthetic":
        spec = SyntheticSpec(
            n_train=data["n_train"],
            n_val=data["n_val"],
            n_test=data["n_test"],
            noise_level=float(noise),
            cluster_sigmas=data["cluster_sigmas"],
            seed=seed,
        )
        return generate_synthetic(spec)
    if data["type"] == "libsvm":
        with open(data["path"]) as fh:
            raw = parse_libsvm(fh.read())
        ds = split_real(
            raw,
            fractions=data["fractions"],
            anomaly_classes=data["anomaly_classes"],
            anomaly_fraction=float(noise),
            seed=seed,
        )
        return scale_to_unit_box(ds.subset("train"), (ds,))[1] if data["scale"] else ds
    return _csv_source(config)


def _csv_source(config: ExperimentConfig) -> Dataset | None:
    """A CSV source's one dataset, checked; None for a source that each block
    draws.  The studies read it once per run, before any output is written,
    and pass it to every block; `load_dataset` reads it through here too.

    A grid study scores AUC against the labels on the train, val and test
    splits, so a file without labels, split tags or one of those splits is
    refused here rather than failing every cell.
    """
    if config.data["type"] != "csv":
        return None
    path = config.data["path"]
    ds = read_dataset_csv(path)
    if ds.labels is None:
        raise InputError(f"{path}: the dataset has no labels, which a grid study scores against")
    if ds.split is None:
        raise InputError(f"{path}: the dataset has no split tags")
    missing = [name for name in ("train", "val", "test") if not (ds.split == name).any()]
    if missing:
        raise InputError(f"{path}: the dataset has no {', '.join(missing)} split")
    return ds


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
    return solve_heuristic(gram_train, HeuristicConfig(p=p, nu=param, seed=seed))


def _aucs(solved, gram_train, train, *splits) -> list[float]:
    """AUC on each split of the rule that the spheres of ``solved``, a solution
    or an incumbent record, induce."""
    model = DetectionModel.from_solution(solved, gram_train, train.points)
    return [auc_roc(score_points(model, split.points), split.labels).auc for split in splits]


def run_dataset_block(
    config: ExperimentConfig, noise, seed: int, incumbents: bool = False,
    dataset: Dataset | None = None,
) -> list[dict]:
    """All grid cells for one dataset draw; failures are recorded, not raised.

    The draw is ``dataset`` when given (a run's CSV source, `_csv_source`)
    and `load_dataset`'s otherwise.  With ``incumbents``, which only the gap
    study asks for, a solved exact cell also carries its ``lower_bound`` and
    its ``incumbents``: the `incumbent_gap_rows`, each with its run id and the
    test AUC of the rule that incumbent's spheres induce.
    """
    if dataset is None:
        dataset = load_dataset(config, noise, seed)
    train, val, test = (dataset.subset(name) for name in ("train", "val", "test"))
    cells = []
    for kspec in config.kernels:
        gram_train = gram(kspec, train.points)
        for model in config.models:
            grid = config.C_grid if model == MODEL_EXACT else config.nu_grid
            for p in config.p_grid:
                for param in grid:
                    cell = dict.fromkeys(CELL_COLUMNS, "")
                    cell.update(
                        run_id=_run_id(model, noise, seed, p, kspec, param), model=model,
                        anomaly_pct=noise, seed=seed, p=p, kernel=_kernel_name(kspec),
                        param_name="C" if model == MODEL_EXACT else "nu",
                        param_value=param, n_train=train.n,
                    )
                    t0 = time.perf_counter()
                    try:
                        sol = _solve_cell(model, gram_train, p, param, config, seed)
                        cell["status"] = sol.status.value
                        if sol.status is SolveStatus.INFEASIBLE:
                            cell["error"] = "infeasible cardinality for this (p, C)"
                        elif not sol.spheres:
                            raise SolverFailure("time limit hit before any incumbent")
                        else:
                            val_auc, test_auc = _aucs(sol, gram_train, train, val, test)
                            cell.update(objective=sol.objective, node_count=sol.node_count,
                                        val_auc=val_auc, test_auc=test_auc)
                            if model == MODEL_EXACT and incumbents:
                                rows = incumbent_gap_rows(sol)
                                for rec, row in zip(sol.incumbent_log, rows):
                                    # the last incumbent's spheres are the solution's
                                    row.update(run_id=cell["run_id"], test_auc=(
                                        test_auc if rec.spheres is sol.spheres
                                        else _aucs(rec, gram_train, train, test)[0]
                                    ))
                                cell.update(lower_bound=sol.lower_bound, incumbents=rows)
                    except MsvddError as exc:
                        cell.update(status="failed", error=f"{type(exc).__name__}: {exc}")
                    cell["seconds"] = time.perf_counter() - t0
                    cells.append(cell)
    return cells


def _collect_cells(config: ExperimentConfig, incumbents: bool = False,
                   dataset: Dataset | None = None) -> list[dict]:
    """Every cell of the grid in run-id order, its (noise, seed) blocks run
    by ``config.workers`` processes; ``incumbents`` and ``dataset`` as
    `run_dataset_block`."""
    blocks = [(noise, seed) for noise in noise_levels(config) for seed in config.seeds]
    n = len(blocks)
    args = ([config] * n, *zip(*blocks), [incumbents] * n, [dataset] * n)
    if config.workers > 1 and n > 1:
        # imported here: a serial run should not pay for loading multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            results = list(pool.map(run_dataset_block, *args))
    else:
        results = map(run_dataset_block, *args)
    return sorted((cell for block in results for cell in block), key=lambda c: c["run_id"])


def select_and_summarize(cells: list[dict]) -> list[dict]:
    """Validation-AUC selection per (model, noise, p, seed), then seed means."""
    chosen: dict[tuple, dict] = {}
    for cell in cells:
        if cell["error"]:
            continue
        key = (cell["model"], cell["anomaly_pct"], cell["p"], cell["seed"])
        cur = chosen.get(key)
        if cur is None or cell["val_auc"] > cur["val_auc"]:  # ties keep the first
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


def write_csv(path, rows, columns):
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
    dataset = _csv_source(config)
    os.makedirs(config.out_dir, exist_ok=True)
    write_json(to_dict(config), os.path.join(config.out_dir, "resolved_config.json"))
    cells = _collect_cells(config, dataset=dataset)
    rows = select_and_summarize(cells)
    write_csv(os.path.join(config.out_dir, "cells.csv"), cells, CELL_COLUMNS)
    write_csv(
        os.path.join(config.out_dir, "timings.csv"),
        [{"run_id": c["run_id"], "seconds": c["seconds"]} for c in cells],
        ["run_id", "seconds"],
    )
    write_csv(os.path.join(config.out_dir, "report.csv"), rows, REPORT_COLUMNS)
    with open(os.path.join(config.out_dir, "report.txt"), "w") as fh:
        fh.write(_format_report_text(rows))
    return rows


GAP_COLUMNS = ["run_id", "wall_time_s", "objective", "gap", "test_auc", "reference"]


def _gap_summary(cell: dict) -> dict:
    """A cell's gap_summary.json entry: its solve, or how it failed."""
    if cell["error"]:
        return {k: cell[k] for k in ("run_id", "status", "error")}
    keys = ("run_id", "status", "objective", "lower_bound", "node_count")
    return {**{k: cell[k] for k in keys}, "incumbents": len(cell["incumbents"])}


def run_gap_study(config: ExperimentConfig) -> list[dict]:
    """Incumbent trajectories of the exact cells, with per-incumbent test AUC,
    in run-id order; writes incumbents.csv and gap_summary.json."""
    if config.mode != "exact":
        raise InputError("gap study requires mode='exact'")
    dataset = _csv_source(config)
    os.makedirs(config.out_dir, exist_ok=True)
    write_json(to_dict(config), os.path.join(config.out_dir, "resolved_config.json"))
    cells = _collect_cells(config, incumbents=True, dataset=dataset)
    rows = [row for cell in cells for row in cell.get("incumbents", ())]
    write_csv(os.path.join(config.out_dir, "incumbents.csv"), rows, GAP_COLUMNS)
    write_json([_gap_summary(c) for c in cells], os.path.join(config.out_dir, "gap_summary.json"))
    return rows


def solution_to_dict(sol: MsvddSolution, model: DetectionModel | None = None) -> dict:
    """JSON-ready solution; the spheres' input-space centres are added under
    ``linear_centers`` when ``model`` is a linear-kernel model of ``sol``.
    A sphere's free and bound support vectors are the members with weights
    in (tol, C - tol) and [C - tol, C], tol the feasibility tolerance; the
    weights 1/|S| > C of a zero-radius sphere fall in neither."""
    def finite(x):
        return x if math.isfinite(x) else None

    tol = DEFAULT_TOLS.feasibility
    payload = {
        "status": sol.status.value,
        "objective": finite(sol.objective),
        "lower_bound": finite(sol.lower_bound),
        "relative_gap": finite(sol.relative_gap),
        "node_count": sol.node_count,
        "p": sol.p,
        "C": finite(sol.C),
        "enforce_cardinality": sol.enforce_cardinality,
        "assignment": [int(j) for j in sol.sphere_of],
        "spheres": [
            {
                "members": list(s.members),
                "alpha": [float(a) for a in s.alpha],
                "radius_sq": s.radius_sq,
                "errors": [float(e) for e in s.errors],
                "objective": s.objective,
                "C": s.C,
                "support_free": [i for i, a in zip(s.members, s.alpha) if tol < a < s.C - tol],
                "support_bound": [i for i, a in zip(s.members, s.alpha) if s.C - tol <= a <= s.C],
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

    dataset.csv                 -> scatter.csv  (a copy)
    solution.json               -> spheres.csv
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
        path = os.path.join(out_dir, "scatter.csv")
        shutil.copyfile(dataset_path, path)
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
            write_csv(path, rows, cols)
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
        write_csv(path, rows, ["seconds", "fraction_solved"])
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
        write_csv(
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
            write_csv(path, rows, cols)
            written.append(path)
    return written
