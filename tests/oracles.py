"""Independent reference computations used to freeze expected test values.

Nothing here shares code with the solver paths it checks: the single-sphere
oracle scans centers on a dense grid with an exhaustive breakpoint search for
the radius, the multisphere oracle enumerates every canonical assignment, and
the coordinate-space Gram reconstructs inner products from pairwise squared
Euclidean distances only.  The last few helpers are reference versions of
package code that tests compare against (a rank loop, a sort-based radius
recovery, input-space scores) and a monotonicity check on the sphere solver.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from msvdd.detection import DetectionModel, linear_centers
from msvdd.errors import InputError
from msvdd.kernels import GramMatrix, KernelKind, KernelSpec
from msvdd.solution import min_members, solve_sphere
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
