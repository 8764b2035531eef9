"""Command-line front end.

Subcommands: generate, solve, cv, gap, plotdata.  Exit codes: 0 success,
1 input error, 2 solver failure, 3 time limit hit with an incumbent returned.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .codec import from_dict, to_dict, write_json
from .data import SyntheticSpec, generate_synthetic, read_dataset_csv, write_dataset_csv
from .detection import DetectionModel
from .errors import InputError, MsvddError, SolverFailure
from .exact import MsvddProblem, incumbent_gap_rows, solve_exact
from .experiments import (
    ExperimentConfig,
    emit_plot_data,
    run_cross_validation,
    run_gap_study,
    solution_to_dict,
    write_csv,
)
from .heuristic import HeuristicConfig, solve_heuristic
from .kernels import LINEAR, KernelSpec, gram, rbf
from .solution import SolveStatus

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_SOLVER = 2
EXIT_TIME_LIMIT = 3


def _kernels_from_args(names, sigma2s) -> list[KernelSpec]:
    """The kernels that --kernel and --sigma2 name, under one rule for every
    subcommand: --sigma2 needs --kernel rbf, and --kernel rbf needs --sigma2."""
    names = names or ()
    if sigma2s is not None and "rbf" not in names:
        raise InputError("--sigma2 needs --kernel rbf")
    if "rbf" in names and not sigma2s:
        raise InputError("--kernel rbf needs --sigma2")
    kernels = []
    for name in names:
        kernels += [LINEAR] if name == "linear" else [rbf(s2) for s2 in sigma2s]
    return kernels


def _add_solver_flags(sub):
    sub.add_argument("--p", type=int, default=2, help="number of spheres")
    sub.add_argument("--C", type=float, default=None, help="outlier penalty (exact model, default 0.2)")
    sub.add_argument("--nu", type=float, default=None, help="run the heuristic with this outlier fraction instead")
    sub.add_argument("--kernel", choices=["linear", "rbf"], default="linear")
    sub.add_argument("--sigma2", type=float, default=None, help="RBF bandwidth (denominator)")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--time-limit", type=float, default=None, help="exact model only")
    sub.add_argument(
        "--cardinality", choices=["on", "off"], default=None,
        help="enforce the ceil(1/C) member floor per sphere (exact model, default on)",
    )
    sub.add_argument("--out", default="results")


def _field_flags(cls, args) -> dict:
    """The given flags whose argparse dest is a field of ``cls``."""
    names = {f.name for f in dataclasses.fields(cls)}
    return {k: v for k, v in vars(args).items() if k in names and v is not None}


def cmd_generate(args) -> int:
    spec = from_dict(SyntheticSpec, _field_flags(SyntheticSpec, args))
    dataset = generate_synthetic(spec)
    os.makedirs(args.out, exist_ok=True)
    write_dataset_csv(dataset, os.path.join(args.out, "dataset.csv"))
    write_json(to_dict(spec), os.path.join(args.out, "spec.json"))
    print(f"wrote {dataset.n} points ({args.noise_level:.0%} anomalies) to {args.out}/dataset.csv")
    return EXIT_OK


def cmd_solve(args) -> int:
    if args.nu is not None:
        exact_only = {"--C": args.C, "--time-limit": args.time_limit,
                      "--cardinality": args.cardinality}
        given = [flag for flag, value in exact_only.items() if value is not None]
        if given:
            raise InputError(f"--nu runs the heuristic, which takes no {', '.join(given)}")
    dataset = read_dataset_csv(args.data)
    if dataset.split is not None and "train" in set(dataset.split):
        train = dataset.subset("train")
    else:
        train = dataset
    (kspec,) = _kernels_from_args([args.kernel], None if args.sigma2 is None else [args.sigma2])
    gram_train = gram(kspec, train.points)
    if args.nu is not None:
        config = HeuristicConfig(p=args.p, nu=args.nu, seed=args.seed)
        sol = solve_heuristic(gram_train, config)
    else:
        problem = MsvddProblem(
            gram=gram_train,
            p=args.p,
            C=0.2 if args.C is None else args.C,
            enforce_cardinality=args.cardinality != "off",
            time_limit=args.time_limit,
            seed=args.seed,
        )
        sol = solve_exact(problem)

    os.makedirs(args.out, exist_ok=True)
    model = DetectionModel.from_solution(sol, gram_train, train.points)
    payload = solution_to_dict(sol, model)
    write_json(payload, os.path.join(args.out, "solution.json"))
    if sol.incumbent_log:
        write_csv(
            os.path.join(args.out, "incumbents.csv"), incumbent_gap_rows(sol),
            ["wall_time_s", "objective", "gap", "reference"],
        )

    print(f"status:     {sol.status.value}")
    if sol.status is not SolveStatus.INFEASIBLE:
        print(f"objective:  {sol.objective:.6f}")
        print(f"spheres:    {[len(s.members) for s in sol.spheres]} members")
        print(f"radii_sq:   {[round(s.radius_sq, 6) for s in sol.spheres]}")
        print(f"nodes:      {sol.node_count}")
        outliers = int(np.sum([np.sum(s.errors > 1e-9) for s in sol.spheres]))
        print(f"outliers:   {outliers} training points with positive error")
    print(f"solution:   {os.path.join(args.out, 'solution.json')}")

    if sol.status is SolveStatus.INFEASIBLE:
        print("infeasible: p * ceil(1/C) exceeds the point count", file=sys.stderr)
        return EXIT_INPUT
    if sol.status is SolveStatus.TIME_LIMIT_INCUMBENT:
        return EXIT_TIME_LIMIT
    return EXIT_OK


def _config_from_args(args) -> ExperimentConfig:
    """The JSON config file, if any, with the given flags merged over it."""
    payload = {}
    if args.config:
        with open(args.config) as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict):
            raise InputError(f"{args.config} must hold a JSON object")
    payload.update(_field_flags(ExperimentConfig, args))
    kernels = _kernels_from_args(args.kernel, args.sigma2)
    if args.kernel is not None:
        payload["kernels"] = kernels
    if args.cardinality:
        payload["enforce_cardinality"] = args.cardinality == "on"
    return from_dict(ExperimentConfig, payload)


def _add_grid_flags(sub):
    sub.add_argument("--config", default=None, help="JSON experiment config")
    sub.add_argument("--mode", choices=["exact", "heuristic", "both"], default=None)
    sub.add_argument("--p", dest="p_grid", type=int, nargs="*", default=None)
    sub.add_argument("--C", dest="C_grid", type=float, nargs="*", default=None)
    sub.add_argument("--nu", dest="nu_grid", type=float, nargs="*", default=None)
    sub.add_argument("--kernel", nargs="*", choices=["linear", "rbf"], default=None)
    sub.add_argument("--sigma2", type=float, nargs="*", default=None)
    sub.add_argument("--seed", dest="seeds", type=int, nargs="*", default=None)
    sub.add_argument("--time-limit", type=float, default=None)
    sub.add_argument("--workers", type=int, default=None)
    sub.add_argument("--cardinality", choices=["on", "off"], default=None)
    sub.add_argument("--out", dest="out_dir", default=None)


def cmd_cv(args) -> int:
    config = _config_from_args(args)
    rows = run_cross_validation(config)
    with open(os.path.join(config.out_dir, "report.txt")) as fh:
        print(fh.read(), end="")
    print(f"report: {os.path.join(config.out_dir, 'report.csv')} ({len(rows)} rows)")
    return EXIT_OK


def cmd_gap(args) -> int:
    config = _config_from_args(args)
    rows = run_gap_study(config)
    print(f"incumbents: {os.path.join(config.out_dir, 'incumbents.csv')} ({len(rows)} rows)")
    return EXIT_OK


def cmd_plotdata(args) -> int:
    written = emit_plot_data(args.results, args.out)
    for path in written:
        print(f"wrote {path}")
    if not written:
        print("no recognizable artifacts found", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msvdd",
        description="Multisphere support vector data description: exact and heuristic solvers",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    g = subs.add_parser("generate", help="generate a synthetic multimodal dataset")
    g.add_argument("--n-train", type=int, default=60)
    g.add_argument("--n-val", type=int, default=40)
    g.add_argument("--n-test", type=int, default=100)
    g.add_argument("--noise", dest="noise_level", type=float, default=0.1)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", default="results")
    g.set_defaults(func=cmd_generate)

    s = subs.add_parser("solve", help="solve one instance and dump the solution")
    s.add_argument("--data", required=True, help="dataset CSV (x1..xd,label,split)")
    _add_solver_flags(s)
    s.set_defaults(func=cmd_solve)

    c = subs.add_parser("cv", help="cross-validated grid study")
    _add_grid_flags(c)
    c.set_defaults(func=cmd_cv)

    p = subs.add_parser("gap", help="incumbent/optimality-gap study (exact mode)")
    _add_grid_flags(p)
    p.set_defaults(func=cmd_gap, mode="exact")

    d = subs.add_parser("plotdata", help="emit plot-ready CSVs from prior results")
    d.add_argument("--results", required=True)
    d.add_argument("--out", default=None)
    d.set_defaults(func=cmd_plotdata)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except MsvddError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
