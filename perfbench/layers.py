"""Where each layer is measured, and the per-layer metrics built from the spans.

Every wrapped name is rebound where its caller looks it up, so a call is
recorded whichever module makes it.  Span names are ``<layer>.<function>``.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

import msvdd.data
import msvdd.detection
import msvdd.exact
import msvdd.experiments
import msvdd.heuristic
import msvdd.kernels
import msvdd.solution
import msvdd.svdd
from msvdd.solution import SolveStatus
from tracer import PHASE_A, PHASE_SETUP

from workloads import EXACT_INSTANCES

# counters that must repeat exactly between two traced passes of the same code
REPEAT_COUNTERS = (
    "exact.nodes", "exact.sphere_solves", "svdd.solves", "svdd.iters",
    "svdd.projections", "heuristic.alternations",
)

S, COUNT, RATIO = "s", "count", "ratio"
PER_LAYER = (
    ("svdd.solves", COUNT), ("svdd.solve_s", S), ("svdd.self_s", S),
    ("svdd.solve_p50_ms", "ms"), ("svdd.solve_p99_ms", "ms"),
    ("svdd.iters", COUNT), ("svdd.iters_per_solve", "iter/solve"),
    ("svdd.members_mean", "points"), ("svdd.projections", COUNT),
    ("svdd.projections_per_solve", "proj/solve"), ("svdd.project_s", S),
    ("svdd.failures", COUNT), ("svdd.wall_share", RATIO),
    ("solution.sphere_solves", COUNT), ("solution.zero_radius", COUNT),
    ("solution.self_s", S),
    ("exact.solves", COUNT), ("exact.solve_s", S), ("exact.self_s", S),
    ("exact.nodes", COUNT), ("exact.nodes_per_s", "1/s"),
    ("exact.sphere_solves", COUNT), ("exact.sphere_solves_per_node", "solve/node"),
    ("exact.root_s", S), ("exact.search_s", S), ("exact.root_gap", RATIO),
    ("exact.incumbents", COUNT),
    *((f"exact.wall_s.{inst[0]}", S) for inst in EXACT_INSTANCES),
    ("heuristic.fits", COUNT), ("heuristic.fit_s", S), ("heuristic.self_s", S),
    ("heuristic.sphere_solves", COUNT), ("heuristic.alternations", COUNT),
    ("detection.score_s", S), ("detection.points_scored", COUNT),
    ("detection.auc_s", S), ("detection.self_s", S),
    ("kernels.gram_s", S), ("kernels.cross_kernel_s", S), ("kernels.self_s", S),
    ("data.generate_s", S), ("data.csv_s", S),
    ("experiments.cells", COUNT), ("experiments.cell_p50_s", S),
    ("experiments.self_s", S),
    ("trace.wall_s", S), ("trace.untraced_wall_s", S), ("trace.overhead_s", S),
    ("trace.overhead_frac", RATIO), ("trace.unattributed_s", S),
    ("trace.spans", COUNT),
)


def _svdd_done(tracer, sol):
    tracer.count("svdd.iters", sol.iterations)
    tracer.count("svdd.members", len(sol.members))


def _exact_done(tracer, sol):
    tracer.count("exact.nodes", sol.node_count)
    tracer.count("exact.incumbents", len(sol.incumbent_log))
    if sol.status is SolveStatus.OPTIMAL and sol.incumbent_log:
        # relative excess of the first incumbent (the root heuristic's, when
        # it found one) over the certified optimum
        first = sol.incumbent_log[0].objective
        if first > 0:
            tracer.count("exact.root_gap_sum", (first - sol.objective) / first)
            tracer.count("exact.root_gap_n")


def _heuristic_done(tracer, sol):
    tracer.count("heuristic.alternations", len(sol.iterate_objectives))


def _scored(tracer, scores):
    tracer.count("detection.points_scored", len(scores))


def instrument(tracer) -> None:
    """Wrap every measured name at each place a caller binds it."""
    m = msvdd
    w = tracer.wrap
    w(m.svdd, "project_capped_simplex", "svdd.project_capped_simplex")
    for module, key in ((m.svdd, None), (m.solution, None),
                        (m.heuristic, "heuristic.sphere_solves")):
        w(module, "solve_svdd", "svdd.solve_svdd", count_key=key, observe=_svdd_done)
    w(m.solution, "zero_radius_sphere", "solution.zero_radius_sphere")
    w(m.solution, "solve_sphere", "solution.solve_sphere")
    w(m.exact, "solve_sphere", "solution.solve_sphere", count_key="exact.sphere_solves")
    w(m.exact, "solve_exact", "exact.solve_exact", observe=_exact_done)
    w(m.experiments, "solve_exact", "exact.solve_exact", observe=_exact_done, new_op=True)
    w(m.heuristic, "solve_heuristic", "heuristic.solve_heuristic", observe=_heuristic_done)
    w(m.exact, "solve_heuristic", "heuristic.solve_heuristic",
      time_key="exact.root_s", observe=_heuristic_done)
    w(m.experiments, "solve_heuristic", "heuristic.solve_heuristic",
      observe=_heuristic_done, new_op=True)
    for module in (m.detection, m.experiments):
        w(module, "score_points", "detection.score_points", observe=_scored)
        w(module, "auc_roc", "detection.auc_roc")
    for module in (m.kernels, m.detection):
        w(module, "cross_kernel", "kernels.cross_kernel")
    for module in (m.kernels, m.experiments):
        w(module, "gram", "kernels.gram")
    for module in (m.data, m.experiments):
        w(module, "generate_synthetic", "data.generate_synthetic")
    w(m.data, "write_dataset_csv", "data.write_dataset_csv")
    w(m.experiments, "read_dataset_csv", "data.read_dataset_csv")
    w(m.experiments, "run_cross_validation", "experiments.run_cross_validation")


def _ratio(num, den):
    return num / den if den else 0.0


def repeat_counters(tracer, phase) -> dict:
    """The REPEAT_COUNTERS of one phase, as integers."""
    calls = Counter(tracer.names[tracer.name_id[i]]
                    for i in range(len(tracer.start)) if tracer.phase[i] == phase)
    counts = dict(tracer.counts[phase])
    counts["svdd.solves"] = calls["svdd.solve_svdd"]
    counts["svdd.projections"] = calls["svdd.project_capped_simplex"]
    return {k: int(counts.get(k, 0)) for k in REPEAT_COUNTERS}


def per_layer(tracer, phase_walls: dict, untraced_wall: float, traced_walls, extras) -> dict:
    """Per-layer metrics over the traced set-up and the first traced pass."""
    phases = {PHASE_SETUP, PHASE_A}
    total: dict[str, float] = {}
    self_t: dict[str, float] = {}
    calls: dict[str, int] = {}
    by_op: dict[str, float] = {}
    solve_ms = []
    top = 0.0
    for i in range(len(tracer.start)):
        if tracer.phase[i] not in phases:
            continue
        name = tracer.names[tracer.name_id[i]]
        dur = tracer.end[i] - tracer.start[i]
        total[name] = total.get(name, 0.0) + dur
        self_t[name] = self_t.get(name, 0.0) + dur - tracer.child[i]
        calls[name] = calls.get(name, 0) + 1
        if tracer.parent[i] < 0:
            top += dur
        if name == "svdd.solve_svdd":
            solve_ms.append(1e3 * dur)
        elif name == "exact.solve_exact":
            label = tracer.op_labels[tracer.op[i]]
            by_op[label] = by_op.get(label, 0.0) + dur

    counts: dict[str, float] = {}
    for ph in phases:
        for k, v in tracer.counts[ph].items():
            counts[k] = counts.get(k, 0.0) + v

    def tot(name):
        return total.get(name, 0.0)

    def self_of(*names):
        return sum(self_t.get(n, 0.0) for n in names)

    solves = calls.get("svdd.solve_svdd", 0)
    projections = calls.get("svdd.project_capped_simplex", 0)
    nodes = counts.get("exact.nodes", 0.0)
    exact_s = tot("exact.solve_exact")
    root_s = counts.get("exact.root_s", 0.0)
    wall_a = phase_walls[PHASE_A]
    mean_traced = sum(traced_walls) / len(traced_walls)
    out = {
        "svdd.solves": solves,
        "svdd.solve_s": tot("svdd.solve_svdd"),
        "svdd.self_s": self_of("svdd.solve_svdd"),
        "svdd.solve_p50_ms": float(np.percentile(solve_ms, 50)) if solve_ms else 0.0,
        "svdd.solve_p99_ms": float(np.percentile(solve_ms, 99)) if solve_ms else 0.0,
        "svdd.iters": counts.get("svdd.iters", 0.0),
        "svdd.iters_per_solve": _ratio(counts.get("svdd.iters", 0.0), solves),
        "svdd.members_mean": _ratio(counts.get("svdd.members", 0.0), solves),
        "svdd.projections": projections,
        "svdd.projections_per_solve": _ratio(projections, solves),
        "svdd.project_s": tot("svdd.project_capped_simplex"),
        "svdd.failures": counts.get("svdd.solve_svdd.raised", 0.0),
        "svdd.wall_share": _ratio(tot("svdd.solve_svdd"), wall_a),
        "solution.sphere_solves": calls.get("solution.solve_sphere", 0),
        "solution.zero_radius": calls.get("solution.zero_radius_sphere", 0),
        "solution.self_s": self_of("solution.solve_sphere", "solution.zero_radius_sphere"),
        "exact.solves": calls.get("exact.solve_exact", 0),
        "exact.solve_s": exact_s,
        "exact.self_s": self_of("exact.solve_exact"),
        "exact.nodes": nodes,
        "exact.nodes_per_s": _ratio(nodes, exact_s),
        "exact.sphere_solves": counts.get("exact.sphere_solves", 0.0),
        "exact.sphere_solves_per_node": _ratio(counts.get("exact.sphere_solves", 0.0), nodes),
        "exact.root_s": root_s,
        "exact.search_s": exact_s - root_s,
        "exact.root_gap": _ratio(counts.get("exact.root_gap_sum", 0.0),
                                 counts.get("exact.root_gap_n", 0.0)),
        "exact.incumbents": counts.get("exact.incumbents", 0.0),
        **{f"exact.wall_s.{inst[0]}": by_op.get(inst[0], 0.0) for inst in EXACT_INSTANCES},
        "heuristic.fits": calls.get("heuristic.solve_heuristic", 0),
        "heuristic.fit_s": tot("heuristic.solve_heuristic"),
        "heuristic.self_s": self_of("heuristic.solve_heuristic"),
        "heuristic.sphere_solves": counts.get("heuristic.sphere_solves", 0.0),
        "heuristic.alternations": counts.get("heuristic.alternations", 0.0),
        "detection.score_s": tot("detection.score_points"),
        "detection.points_scored": counts.get("detection.points_scored", 0.0),
        "detection.auc_s": tot("detection.auc_roc"),
        "detection.self_s": self_of("detection.score_points", "detection.auc_roc"),
        "kernels.gram_s": tot("kernels.gram"),
        "kernels.cross_kernel_s": tot("kernels.cross_kernel"),
        "kernels.self_s": self_of("kernels.gram", "kernels.cross_kernel"),
        "data.generate_s": tot("data.generate_synthetic"),
        "data.csv_s": tot("data.write_dataset_csv") + tot("data.read_dataset_csv"),
        "experiments.cells": 0.0,
        "experiments.cell_p50_s": 0.0,
        "experiments.self_s": self_of("experiments.run_cross_validation"),
        "trace.wall_s": wall_a,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": mean_traced - untraced_wall,
        "trace.overhead_frac": _ratio(mean_traced - untraced_wall, untraced_wall),
        "trace.unattributed_s": phase_walls[PHASE_SETUP] + wall_a - top,
        "trace.spans": sum(calls.values()),
    }
    out.update(extras)
    return {k: float(v) for k, v in out.items()}
