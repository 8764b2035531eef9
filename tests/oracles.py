"""Independent reference computations used to freeze expected test values.

Nothing here shares code with the solver paths it checks: the single-sphere
oracle scans centers on a dense grid with an exhaustive breakpoint search for
the radius, the multisphere oracle enumerates every canonical assignment, and
the coordinate-space Gram reconstructs inner products from pairwise squared
Euclidean distances only.  The last few helpers are reference versions of
package code that tests compare against (a rank loop, a sort-based radius
recovery, center distances from Gram columns, input-space scores, the ROC
curve whose area `auc_roc` gives) and a monotonicity check on the sphere
solver.  `expand_reference` is the search's node expansion as it was first
written, with counts from `np.bincount` and sorted member tuples and every
child built unscreened; the lean `_expand` must match it bit for bit on the
children the search keeps.  `jensen_lift` is the completion lift as it was
first written, from each sphere's centroid distances alone, which the
pairwise lift must never fall below, and `neighbour_table_reference` builds
the lift's nearest-neighbour table pair by pair in plain Python.

Two oracles certify whole multisphere solutions.  The big-M check tests a
solution against every (point, sphere) constraint of the paper's
assignment-linearized MISOCP, with the constraint-deactivation constants
computed in input space (`compute_delta_primal`) or from the kernel alone
(`compute_delta_dual`); the search never uses that model.  The cold
evaluation (`evaluate_assignment`) re-solves every sphere of a complete
assignment from scratch, with no warm start or certificate carried from a
parent, which is what the search's incumbents and bounds are compared against.
`heuristic_best_root` values the heuristic's own best restart that way: the
exact solver's root incumbent must be at least as good.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from msvdd.detection import DetectionModel, linear_centers
from msvdd.errors import InputError
from msvdd.exact import _neighbour_table, _Node, _pick, _repair_cardinality, _sphere
from msvdd.kernels import GramMatrix, KernelKind, KernelSpec
from msvdd.solution import (
    MsvddSolution,
    SolveStatus,
    canonical_objective,
    min_members,
    solve_sphere,
)
from msvdd.svdd import solve_svdd


def svdd_1d_brute_force(xs, C, step=1e-4):
    """Grid search over centers with exact piecewise-linear radius choice.

    For each center the best radius is one of {0} union {d_i^2} because the
    cost is convex piecewise linear in R with those breakpoints.
    """
    xs = np.asarray(xs, dtype=float).ravel()
    grid = np.arange(xs.min(), xs.max() + step, step)
    best = math.inf
    for c in grid:
        d2 = (xs - c) ** 2
        for R in np.concatenate([[0.0], d2]):
            val = R + C * np.maximum(0.0, d2 - R).sum()
            if val < best:
                best = val
    return best


def canonical_assignments(n, p):
    """Restricted-growth strings: sphere labels up to permutation symmetry."""
    def rec(prefix, used):
        i = len(prefix)
        if i == n:
            yield tuple(prefix)
            return
        for j in range(min(used + 1, p)):
            prefix.append(j)
            yield from rec(prefix, max(used, j + 1))
            prefix.pop()

    yield from rec([], 0)


def enumerate_msvdd(gram_matrix: GramMatrix, p, C, enforce_cardinality=True):
    """Exhaustive minimum over all assignments, using the same subsolver.

    Returns (best objective, best assignment tuple), or (None, None) when no
    assignment satisfies the cardinality floor.
    """
    n = gram_matrix.n
    floor = min_members(C, enforce_cardinality)
    cache = {}

    def sphere_value(members):
        if members not in cache:
            cache[members] = solve_sphere(gram_matrix, members, C).objective
        return cache[members]

    best = None
    best_assign = None
    for assign in canonical_assignments(n, p):
        blocks = {}
        for i, j in enumerate(assign):
            blocks.setdefault(j, []).append(i)
        if len(blocks) < p:
            # fewer than p nonempty spheres never beats the best exactly-p
            # assignment: splitting off a singleton adds a zero-cost sphere
            # and can only shrink the donor block's objective
            continue
        if any(len(b) < floor for b in blocks.values()):
            continue
        total = sum(sphere_value(tuple(b)) for b in blocks.values())
        if best is None or total < best:
            best = total
            best_assign = assign
    return best, best_assign


def distance_space_gram(points) -> GramMatrix:
    """Linear-kernel Gram rebuilt from pairwise squared Euclidean distances.

    Uses the polarization identity K[i,k] = (|x_i|^2 + |x_k|^2 - d2[i,k]) / 2,
    so every Gram entry is derived from direct distance evaluations.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    diffs = pts[:, None, :] - pts[None, :, :]
    d2 = np.sum(diffs * diffs, axis=2)
    sq = np.sum(pts * pts, axis=1)
    values = 0.5 * (sq[:, None] + sq[None, :] - d2)
    values = 0.5 * (values + values.T)
    return GramMatrix(values, KernelSpec(KernelKind.LINEAR))


def capped_simplex_samples(rng, n, cap, count):
    """Random feasible weight vectors: Dirichlet draws pushed under the cap."""
    out = []
    while len(out) < count:
        w = rng.dirichlet(np.ones(n))
        excess = np.maximum(w - cap, 0.0).sum()
        if excess > 0:
            w = np.minimum(w, cap)
            room = cap - w
            w += room * (excess / room.sum())
        if w.max() <= cap + 1e-12 and abs(w.sum() - 1.0) < 1e-9:
            out.append(w)
    return np.array(out)


def average_ranks_loop(values):
    """1-based average ranks by a scan over the sorted values, one tie run at
    a time."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="mergesort")
    sorted_vals = values[order]
    ranks = np.empty(values.size)
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def roc_curve(scores, labels):
    """(thresholds, fpr, tpr) of the ROC curve, outliers (truthy labels) the
    positive class: thresholds descend from inf, with one curve point per
    distinct score, so tied scores take one step together."""
    s = np.asarray(scores, dtype=float).ravel()
    y = np.asarray(labels).astype(bool).ravel()
    desc = np.argsort(-s, kind="mergesort")
    ss, yy = s[desc], y[desc]
    last_of_group = np.flatnonzero(np.r_[ss[1:] != ss[:-1], True])
    tp = np.cumsum(yy)[last_of_group]
    fp = np.cumsum(~yy)[last_of_group]
    thresholds = np.r_[np.inf, ss[last_of_group]]
    return thresholds, np.r_[0.0, fp / fp[-1]], np.r_[0.0, tp / tp[-1]]


def trapezoid_auc(fpr, tpr) -> float:
    # written out, since numpy before 2.0 names the rule np.trapz
    fpr, tpr = np.asarray(fpr, dtype=float), np.asarray(tpr, dtype=float)
    return float((np.diff(fpr) * (tpr[1:] + tpr[:-1]) / 2.0).sum())


def recover_radius_sorted(distances_sq, C):
    """Radius and errors by a full sort and a scan of every slope of
    g(R) = R + C * sum(max(0, d2 - R)): the smallest k whose slope
    1 - C * (n - k) is nonnegative within 1e-12 gives R = the k-th smallest
    distance (0 for k = 0)."""
    d2 = np.asarray(distances_sq, dtype=float)
    n = d2.size
    d_sorted = np.sort(d2)
    slopes = 1.0 - C * (n - np.arange(n + 1))
    k = int(np.argmax(slopes >= -1e-12))
    R = 0.0 if k == 0 else float(d_sorted[k - 1])
    return R, np.maximum(0.0, d2 - R)


def sphere_distances_sq_columns(gram_matrix: GramMatrix, spheres) -> np.ndarray:
    """(n, p) squared feature distances from every point to every sphere
    center, through the Gram columns of each sphere's support (the members
    with nonzero weight): the reference for the stored ``column``, which the
    solver forms from Gram rows."""
    K = gram_matrix.values
    diag = np.diag(K)
    cols = []
    for s in spheres:
        support = np.asarray(s.members)[s.alpha > 0.0]
        cols.append(diag - 2.0 * K[:, support] @ s.alpha[s.alpha > 0.0] + s.alpha_quad)
    return np.maximum(np.stack(cols, axis=1), 0.0)


def svdd_objective_monotone_check(gram_matrix, members, extra, C, tol=1e-7):
    """Whether adding ``extra`` to the member set keeps the objective from
    dropping, which the branch-and-bound lower bound rests on."""
    idx = tuple(sorted(int(i) for i in members))
    if extra in idx:
        raise InputError(f"extra point {extra} already belongs to the member set")
    base = solve_svdd(gram_matrix, idx, C).objective
    grown = solve_svdd(gram_matrix, idx + (int(extra),), C).objective
    return grown >= base - tol


def geometric_scores(model: DetectionModel, X) -> np.ndarray:
    """Scores min_j ||x - c_j||^2 - R_j computed in input space from explicit
    centers (linear kernel only), apart from the kernel path of
    `score_points`."""
    centers = linear_centers(model)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    diffs = X[:, None, :] - centers[None, :, :]
    d2 = np.sum(diffs * diffs, axis=2)
    return np.min(d2 - model.radii[None, :], axis=1)


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


def xi_full(solution: MsvddSolution) -> np.ndarray:
    """Per-point errors, each taken from the point's assigned sphere."""
    xi = np.zeros(solution.sphere_of.size)
    for s in solution.spheres:
        xi[list(s.members)] = s.errors
    return xi


def verify_bigM_feasibility(
    solution: MsvddSolution, deltas, gram_matrix: GramMatrix, tol: float = 1e-6
) -> bool:
    """Check every (point, sphere) constraint of the big-M formulation.

    True iff d2[i, j] <= R_j + xi_i + Delta_i * (1 - z[i, j]) + tol for all
    pairs, certifying the solution is feasible for the assignment-linearized
    model exactly as written.
    """
    deltas = np.asarray(deltas, dtype=float)
    d2 = sphere_distances_sq_columns(gram_matrix, solution.spheres)
    radii = np.array([s.radius_sq for s in solution.spheres])
    z = np.zeros_like(d2)
    z[np.arange(solution.sphere_of.size), solution.sphere_of] = 1.0
    rhs = radii[None, :] + xi_full(solution)[:, None] + deltas[:, None] * (1.0 - z)
    return bool(np.all(d2 <= rhs + tol))


def assignment_of(spheres, n: int) -> np.ndarray:
    """The int16 point-to-sphere map that ``spheres`` cover, UNASSIGNED (-1)
    for the points that no sphere holds."""
    sphere_of = np.full(n, -1, dtype=np.int16)
    for j, s in enumerate(spheres):
        sphere_of[list(s.members)] = j
    return sphere_of


def evaluate_assignment(
    gram_matrix: GramMatrix,
    sphere_of,
    p: int,
    C: float,
    enforce_cardinality: bool = True,
) -> MsvddSolution | None:
    """Re-solve every sphere of a complete point-to-sphere map cold under a
    single global C.

    Returns None when the assignment is infeasible for the requested model
    (an empty sphere, or a sphere below the ceil(1/C) cardinality floor).
    """
    sphere_of = np.array(sphere_of, dtype=np.int16)
    if np.any(sphere_of < 0):
        raise InputError("evaluate_assignment needs a complete assignment")
    if np.any(np.bincount(sphere_of, minlength=p)[:p] < min_members(C, enforce_cardinality)):
        return None
    spheres = tuple(solve_sphere(gram_matrix, np.flatnonzero(sphere_of == j), C) for j in range(p))
    return MsvddSolution(
        sphere_of=sphere_of,
        spheres=spheres,
        objective=canonical_objective([s.objective for s in spheres]),
        status=SolveStatus.TIME_LIMIT_INCUMBENT,
        p=p,
        C=C,
        enforce_cardinality=enforce_cardinality,
    )


def heuristic_best_root(gram_matrix: GramMatrix, heuristic, C: float, p: int
                        ) -> MsvddSolution | None:
    """The root incumbent picked by the heuristic's own objective: the
    partition of its best restart (``heuristic.sphere_of``, valued with the
    per-cluster C_k), repaired to the cardinality floor and solved cold under
    the global C, or None when the repair fails.  The exact solver's root
    compares every restart under the global C instead, so it is never worse.
    """
    repaired = _repair_cardinality(heuristic.sphere_of, gram_matrix, C, p, min_members(C, True))
    return None if repaired is None else evaluate_assignment(gram_matrix, repaired, p, C)


def expand_reference(node, gram_matrix, C, p, floor):
    """Children of a search node, made as `msvdd.exact._expand` first made
    them: member counts by `np.bincount` over ``sphere_of``, each grown member
    tuple sorted afresh, and every child built, with no screen and no prune
    bound."""
    sphere_of, spheres = node.sphere_of, node.spheres
    point, _ = node.pick or _pick(node, _neighbour_table(gram_matrix, 0))
    counts = np.bincount(sphere_of[sphere_of >= 0], minlength=p)[:p]
    deficit = int(np.maximum(floor - counts, 0).sum())
    left = sphere_of.size - node.depth - 1
    children = []
    for j in [j for j in range(p) if counts[j]] + [j for j in range(p) if not counts[j]][:1]:
        if deficit - (counts[j] < floor) > left:
            continue
        old = spheres[j]
        members = (point,) if old is None else tuple(sorted(old.members + (point,)))
        slot = None if old is None else members.index(point)
        sol = _sphere(gram_matrix, C, members, old, slot)
        child_spheres = spheres[:j] + (sol,) + spheres[j + 1 :]
        lb = sum(s.dual_objective for s in child_spheres if s is not None)
        child_of = sphere_of.copy()
        child_of[point] = j
        children.append(_Node(child_of, node.depth + 1, child_spheres, lb))
    return children


def jensen_lift(node, size) -> float:
    """The completion lift about each sphere's centroid by Jensen's
    inequality: a nonempty sphere of m < ``size`` members that must take k
    of the unassigned points adds C * m / (m + k) times its k smallest
    squared distances to them, each column sorted in full."""
    unassigned = np.flatnonzero(node.sphere_of < 0)
    lift = 0.0
    for sphere in node.spheres:
        if sphere is None:
            continue
        m = len(sphere.members)
        k = min(size - m, unassigned.size)
        if k > 0:
            nearest = np.sort(sphere.column[unassigned])[:k]
            lift += sphere.C * m / (m + k) * float(nearest.sum())
    return lift


def neighbour_table_reference(gram_matrix: GramMatrix, size) -> np.ndarray:
    """`msvdd.exact._neighbour_table` one point at a time: row r, column u is
    half the running sum of u's r smallest distances
    max(V_uu + V_vv - 2 V_uv, 0) to the other points v, in increasing order."""
    V = gram_matrix.values
    n = V.shape[0]
    table = np.zeros((size, n))
    for u in range(n):
        dist = sorted(max(V[u, u] + V[v, v] - 2.0 * V[u, v], 0.0) for v in range(n) if v != u)
        total = 0.0
        for r in range(1, size):
            total += dist[r - 1]
            table[r, u] = 0.5 * total
    return table
