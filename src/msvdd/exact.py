"""Exact multisphere solver: branch-and-bound over the point-to-sphere assignment.

The search branches on one unassigned point at a time, restricting children to
the currently nonempty spheres plus exactly one fresh empty sphere, which
removes the p! label symmetry.  The branching point is chosen max-min: the
unassigned point whose squared feature distance to its nearest nonempty
sphere center is largest, so every child of the split pays for a far point
and the bound rises fastest.  Node bounds use the decomposition bound: the
sum of single-sphere optima over the members assigned so far, which is valid
because adding a point to a sphere can only raise that sphere's objective, and
is tight at leaves.  Each sphere enters that sum through its certified dual
value, so pruning never rests on a primal value that carries the subsolver's
gap tolerance; incumbents keep their primal values.  Nodes are explored
best-first (ties: deeper first), the root incumbent comes from seeded restarts
of the alternating heuristic, and a node is discarded as soon as the remaining
unassigned points cannot fill every sphere to its cardinality floor.

The big-M constants of the assignment-linearized formulation are not used by
the search at all; they are computed only so `verify_bigM_feasibility` can
certify a returned solution against that formulation.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InputError, SolverFailure
from .heuristic import HeuristicConfig, solve_heuristic
from .kernels import GramMatrix
from .solution import (
    UNASSIGNED,
    Assignment,
    IncumbentRecord,
    MsvddSolution,
    SolveStatus,
    canonical_objective,
    evaluate_assignment,
    min_members,
    solve_sphere,
    sphere_distances_sq,
)

_ROOT_RESTARTS = 5


@dataclass
class MsvddProblem:
    """One exact solve: Gram matrix, sphere budget p, global penalty C.

    ``enforce_cardinality`` switches on the per-sphere floor of ceil(1/C)
    members (which also guarantees nonnegative radii); without it radii are
    clamped at zero by the subsolver and spheres only need to be nonempty.
    """

    gram: GramMatrix
    p: int
    C: float
    enforce_cardinality: bool = True
    time_limit: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.p < 1:
            raise InputError("p must be >= 1")
        if self.p > self.gram.n:
            raise InputError(f"p={self.p} exceeds the number of points {self.gram.n}")
        if not self.C > 0:
            raise InputError("C must be positive")


class _SubproblemCache:
    """Memoizes single-sphere solves within one branch-and-bound run.

    Spheres below the 1/C floor are valued by the radius-floored fallback;
    with cardinality enforcement such spheres can only appear at inner nodes
    (the counting prune bars them from leaves), where that value is a valid
    lower bound on any completion.
    """

    def __init__(self, gram, C):
        self.gram = gram
        self.C = C
        self._store: dict[tuple[int, ...], object] = {}

    def solve(self, members: tuple[int, ...], warm_alpha=None):
        hit = self._store.get(members)
        if hit is not None:
            return hit
        try:
            sol = solve_sphere(
                self.gram, members, self.C, enforce_cardinality=False,
                warm_alpha=warm_alpha,
            )
        except ConvergenceError:
            # one retry from a cold start, then give up with a diagnostic
            try:
                sol = solve_sphere(self.gram, members, self.C, enforce_cardinality=False)
            except ConvergenceError as exc:
                raise SolverFailure(
                    f"sphere subproblem on {len(members)} members failed to "
                    f"converge twice (best gap {exc.gap:.3e})"
                ) from exc
        if len(self._store) < 500_000:
            self._store[members] = sol
        return sol


def compute_delta_primal(points, i: int) -> float:
    """Largest squared Euclidean distance from point i to any other point.

    Deactivates the distance constraint of any sphere whose center stays in
    the convex hull of the data, which holds for all solutions produced here.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    diffs = pts - pts[i]
    return float(np.max(np.sum(diffs * diffs, axis=1)))


def compute_delta_dual(gram_matrix: GramMatrix, C: float, i: int) -> float:
    """Kernel-space constraint-deactivation constant for point i.

    Worst-case bound of the expanded squared distance over weight vectors in
    the box [0, C]^n: with pi[k, l] = C where K[k, l] < 0 and 0 elsewhere,

        Delta_i = K[i, i] + 2 * sum_k pi[i, k] * |K[i, k]|
                   + sum_{k, l} (C - pi[k, l])^2 * K[k, l]

    The linear term takes the magnitude of the negative kernel values (the
    cross term -2 * sum_k a_k K[i, k] is largest when a_k sits at the cap
    exactly on those entries); the quadratic term keeps nonnegative entries at
    the cap-squared weight and zeroes out negative ones.
    """
    K = gram_matrix.values
    pi = np.where(K < 0.0, C, 0.0)
    linear = 2.0 * float(pi[i] @ np.abs(K[i]))
    quad = float(((C - pi) ** 2 * K).sum())
    return float(K[i, i]) + linear + quad


def verify_bigM_feasibility(
    solution: MsvddSolution, deltas, gram_matrix: GramMatrix, tol: float = 1e-6
) -> bool:
    """Check every (point, sphere) constraint of the big-M formulation.

    True iff d2[i, j] <= R_j + xi_i + Delta_i * (1 - z[i, j]) + tol for all
    pairs, certifying the solution is feasible for the assignment-linearized
    model exactly as written.
    """
    deltas = np.asarray(deltas, dtype=float)
    d2 = sphere_distances_sq(gram_matrix, solution.spheres)
    radii = solution.radii
    xi = solution.xi_full()
    z = np.zeros_like(d2)
    z[np.arange(solution.assignment.n), solution.assignment.sphere_of] = 1.0
    rhs = radii[None, :] + xi[:, None] + deltas[:, None] * (1.0 - z)
    return bool(np.all(d2 <= rhs + tol))


def lower_bound(
    assignment: Assignment, gram_matrix: GramMatrix, C: float
) -> float:
    """Decomposition bound for a partial assignment.

    Sum of certified single-sphere dual values over the members assigned so
    far; empty spheres contribute 0.  Spheres still below the 1/C floor are
    bounded by their radius-floored value, which no completion can undercut.
    """
    labels = np.unique(assignment.sphere_of)
    total = 0.0
    for j in labels:
        if j == UNASSIGNED:
            continue
        members = tuple(int(i) for i in assignment.members(int(j)))
        sol = solve_sphere(gram_matrix, members, C, enforce_cardinality=False)
        total += sol.dual_objective
    return total


def _pick_branch_point(gram_matrix, sphere_of, spheres):
    """Max-min point: the unassigned point whose squared feature distance to
    its nearest nonempty sphere center is largest; ties go to the lowest index.

    ``spheres`` holds one solved sphere per label, None for an empty one; with
    every sphere empty the lowest unassigned index is taken.
    """
    unassigned = np.flatnonzero(sphere_of == UNASSIGNED)
    placed = [s for s in spheres if s is not None]
    if not placed:
        return int(unassigned[0])
    nearest = sphere_distances_sq(gram_matrix, placed)[unassigned].min(axis=1)
    return int(unassigned[np.argmax(nearest)])  # first maximum: lowest index


def _child_sphere_ids(counts, p):
    ids = [j for j in range(p) if counts[j] > 0]
    for j in range(p):
        if counts[j] == 0:
            ids.append(j)
            break
    return ids


def branch(
    assignment: Assignment, gram_matrix: GramMatrix, C: float, p: int
) -> list[Assignment]:
    """Children of a partial assignment under the orbit rule.

    The max-min branching point is assigned to each currently nonempty sphere
    plus exactly one empty sphere, eliminating label permutations.
    """
    if assignment.is_complete():
        raise InputError("cannot branch on a complete assignment")
    counts = assignment.counts(p)
    spheres = [
        solve_sphere(gram_matrix, assignment.members(j), C, enforce_cardinality=False)
        if counts[j] else None
        for j in range(p)
    ]
    point = _pick_branch_point(gram_matrix, assignment.sphere_of, spheres)
    return [assignment.with_point(point, j) for j in _child_sphere_ids(counts, p)]


class _Node:
    """A partial assignment with one solved sphere (or None if empty) per label;
    ``lb`` sums their certified dual values."""

    __slots__ = ("sphere_of", "depth", "spheres", "lb")

    def __init__(self, sphere_of, depth, spheres, lb):
        self.sphere_of = sphere_of
        self.depth = depth
        self.spheres = spheres
        self.lb = lb


def _infeasible_solution(problem: MsvddProblem) -> MsvddSolution:
    return MsvddSolution(
        assignment=Assignment.empty(problem.gram.n),
        spheres=(),
        objective=math.inf,
        status=SolveStatus.INFEASIBLE,
        p=problem.p,
        C=problem.C,
        enforce_cardinality=problem.enforce_cardinality,
        lower_bound=math.inf,
    )


def _repair_cardinality(sphere_of, gram_matrix, p, floor):
    """Move cheapest points into deficient spheres until all meet the floor."""
    sphere_of = sphere_of.copy()
    K = gram_matrix.values
    diag = np.diag(K)
    for _ in range(sphere_of.size * p):
        counts = np.bincount(sphere_of, minlength=p)[:p]
        needy = np.flatnonzero(counts < floor)
        if needy.size == 0:
            return sphere_of
        j = int(needy[0])
        donors = np.flatnonzero(counts[sphere_of] > floor)
        donors = donors[sphere_of[donors] != j]
        if donors.size == 0:
            return None
        target = np.flatnonzero(sphere_of == j)
        if target.size:
            alpha = np.full(target.size, 1.0 / target.size)
            w = K[np.ix_(donors, list(target))] @ alpha
            quad = float(alpha @ K[np.ix_(list(target), list(target))] @ alpha)
            cost = diag[donors] - 2.0 * w + quad
        else:
            cost = np.zeros(donors.size)
        sphere_of[int(donors[np.argmin(cost)])] = j
    return None


def _root_incumbent(problem, cache):
    """Heuristic warm start re-evaluated under the exact model's global C."""
    gram_mat, p, C = problem.gram, problem.p, problem.C
    n = gram_mat.n
    nu = min(1.0, max(p / (C * n), 1.0 / n))
    config = HeuristicConfig(
        p=p, nu=nu, max_iters=100, restarts=_ROOT_RESTARTS, seed=problem.seed
    )
    try:
        heur = solve_heuristic(gram_mat, config)
    except SolverFailure:
        return None
    sphere_of = heur.assignment.sphere_of.copy()
    floor = min_members(C, problem.enforce_cardinality)
    repaired = _repair_cardinality(sphere_of, gram_mat, p, floor)
    if repaired is None:
        return None
    objs = []
    for j in range(p):
        members = tuple(int(i) for i in np.flatnonzero(repaired == j))
        objs.append(cache.solve(members).objective)
    return repaired, canonical_objective(objs)


def solve_exact(problem: MsvddProblem) -> MsvddSolution:
    """Globally optimal multisphere solution (or the best incumbent on timeout)."""
    gram_mat, p, C = problem.gram, problem.p, problem.C
    n = gram_mat.n
    floor = min_members(C, problem.enforce_cardinality)
    if p * floor > n:
        return _infeasible_solution(problem)

    t0 = time.perf_counter()
    cache = _SubproblemCache(gram_mat, C)

    incumbent_of = None
    incumbent = math.inf
    log: list[IncumbentRecord] = []

    if n > p:
        seeded = _root_incumbent(problem, cache)
        if seeded is not None:
            incumbent_of, incumbent = seeded
            log.append(
                IncumbentRecord(incumbent, time.perf_counter() - t0, incumbent_of.copy())
            )

    root = _Node(np.full(n, UNASSIGNED, dtype=np.int16), 0, (None,) * p, 0.0)
    counter = itertools.count()
    heap = [(root.lb, 0, next(counter), root)]
    node_count = 0
    timed_out = False
    final_lb = None

    def prune_tol(ub):
        return 1e-9 * max(1.0, abs(ub)) if math.isfinite(ub) else 0.0

    while heap:
        lb, _, _, node = heapq.heappop(heap)
        if lb >= incumbent - prune_tol(incumbent):
            final_lb = incumbent
            break
        if problem.time_limit is not None and time.perf_counter() - t0 > problem.time_limit:
            timed_out = True
            final_lb = min([lb] + [entry[0] for entry in heap] + [incumbent])
            break
        node_count += 1

        if node.depth == n:
            value = canonical_objective([s.objective for s in node.spheres])
            if value < incumbent - 1e-12:
                incumbent = value
                incumbent_of = node.sphere_of.copy()
                log.append(
                    IncumbentRecord(incumbent, time.perf_counter() - t0, incumbent_of.copy())
                )
            continue

        counts = np.bincount(
            node.sphere_of[node.sphere_of >= 0], minlength=p
        )[:p]
        point = _pick_branch_point(gram_mat, node.sphere_of, node.spheres)
        unassigned_left = n - node.depth - 1

        for j in _child_sphere_ids(counts, p):
            child_counts = counts.copy()
            child_counts[j] += 1
            deficit = int(np.maximum(floor - child_counts, 0).sum())
            if deficit > unassigned_left:
                continue
            old = node.spheres[j]
            warm = None
            if old is None:
                new_members = (point,)
            else:
                new_members = tuple(sorted(old.members + (point,)))
                warm = np.insert(old.alpha, new_members.index(point), 0.0)
            sol = cache.solve(new_members, warm_alpha=warm)
            spheres = node.spheres[:j] + (sol,) + node.spheres[j + 1 :]
            child_lb = sum(s.dual_objective for s in spheres if s is not None)
            if child_lb >= incumbent - prune_tol(incumbent):
                continue
            child_of = node.sphere_of.copy()
            child_of[point] = j
            child = _Node(child_of, node.depth + 1, spheres, child_lb)
            heapq.heappush(heap, (child.lb, -child.depth, next(counter), child))

    if final_lb is None:
        final_lb = incumbent  # queue exhausted: the incumbent is optimal

    if incumbent_of is None:
        if timed_out:
            return MsvddSolution(
                assignment=Assignment.empty(n),
                spheres=(),
                objective=math.inf,
                status=SolveStatus.TIME_LIMIT_INCUMBENT,
                p=p,
                C=C,
                enforce_cardinality=problem.enforce_cardinality,
                node_count=node_count,
                lower_bound=final_lb,
            )
        return _infeasible_solution(problem)

    assignment = Assignment(incumbent_of)
    spheres = tuple(
        cache.solve(tuple(int(i) for i in assignment.members(j))) for j in range(p)
    )
    return MsvddSolution(
        assignment=assignment,
        spheres=spheres,
        objective=canonical_objective([s.objective for s in spheres]),
        status=SolveStatus.TIME_LIMIT_INCUMBENT if timed_out else SolveStatus.OPTIMAL,
        p=p,
        C=C,
        enforce_cardinality=problem.enforce_cardinality,
        node_count=node_count,
        incumbent_log=tuple(log),
        lower_bound=final_lb,
    )


def incumbent_gap_rows(solution: MsvddSolution) -> list[dict]:
    """Incumbent log as CSV-ready rows with the relative gap column.

    gap = (Z_incumbent - Z_reference) / Z_incumbent, where the reference is
    the final objective on optimal solves and the proven lower bound
    otherwise (flagged in the ``reference`` column).
    """
    if solution.status is SolveStatus.OPTIMAL:
        z_ref = solution.objective
        ref = "optimal"
    else:
        z_ref = solution.lower_bound
        ref = "lower_bound"
    rows = []
    for rec in solution.incumbent_log:
        if abs(rec.objective) <= 1e-300:
            gap = 0.0
        else:
            gap = (rec.objective - z_ref) / rec.objective
        rows.append(
            {
                "wall_time_s": rec.wall_time,
                "objective": rec.objective,
                "gap": gap,
                "reference": ref,
            }
        )
    return rows
