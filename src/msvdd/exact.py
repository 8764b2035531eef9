"""Exact multisphere solver: branch-and-bound over the point-to-sphere assignment.

Nodes are explored best-first (ties: deeper first) from a root incumbent:
the best, under the model's global C, of the final partitions of seeded
restarts of the alternating heuristic (`_root_incumbent`).  `_expand` is the
one way the search makes children.  It branches on one unassigned point,
chosen max-min: the point whose squared feature distance to its nearest
nonempty sphere center is largest, so every child pays for a far point and the
bound rises fastest.  The point joins each nonempty sphere and exactly one
empty one, which removes the p! label symmetry, and a child is dropped when
the points left cannot fill every sphere to its cardinality floor.  Node
bounds sum the single-sphere optima over the members assigned so far, which
is valid because adding a point to a sphere can only raise its objective, and
is tight at leaves.  Each sphere enters that sum through its certified dual
value, so pruning never rests on a primal value that carries the subsolver's
gap tolerance; incumbents keep their primal values.

Under the cardinality floor a node's first pop adds a completion lift, the
completion bound of repetitive branch-and-bound for clustering (Brusco,
Psychometrika 2006).  A sphere with C * |S| < 1 is valued C * scatter at its
centroid, and must still take points up to the floor of ceil(1/C) members.
By the scatter identity, the k points it takes add their distances to the
centroid, weighted by its m members, plus the distances between the k points
themselves (the pairwise-dissimilarity form of that bound); each point's
share of those pairs is at least half its k - 1 smallest distances to the
other points, read from a table built once per solve (`_neighbour_table`), so
the unassigned points of smallest score bound what the completion adds
(`_pick` gives the derivation).  Each term bounds one sphere's own
completion, so their sum is valid, and the centroid distances are the ones
the max-min pick reads anyway.  A lifted node goes
back on the queue under its raised key and is expanded, and counted, when it
comes out again; children are keyed by their plain dual sums.

Every solved sphere carries its ``column``, the squared feature distance from
every point to its center, formed once by the certificate that certified it
(`msvdd.svdd.SvddSolution`).  The max-min pick, the lift and the root's
cardinality repair read these columns and multiply no Gram rows.  A grown
sphere is first certified from its parent: the parent's weights plus a 0 keep
their dual value and center, so the parent's column gives the child's
distances, and when the gap stays within tolerance the child needs no solve
and shares that column (`msvdd.svdd.grow_certified`).  Otherwise it is
warm-started from the parent, and cold if that fails or if the parent has
collapsed to radius zero, whose weights lie off the child's capped simplex.

A child whose bound reaches the incumbent is pruned, and by weak duality the
dual value at any feasible weights already bounds its sphere.  So `_expand`
first screens each child from its parent sphere's column in closed form
(`_screen`): one SMO pair step onto the branch point, the scatter identity
for a collapsed sphere that stays collapsed, or the uniform weights for one
that grows out of collapse.  A child whose screen reaches the cutoff
(incumbent - rounding allowance) - (the child's other dual values), plus
the gap tolerance and the same allowance (`_rounding`), is dropped without
a solve or a zero-radius build; it would have been pruned on push, so the
expanded nodes do not change.  Every other child is built and solved to
its certificate: there is no solve cutoff, and every sphere in a node is
certified.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import (
    COUNT, FLAG, INTEGER, POSITIVE, TIME_LIMIT, ConvergenceError, InputError, SolverFailure,
    checked,
)
from .heuristic import HeuristicConfig, solve_heuristic
from .kernels import GramMatrix
from .solution import (
    UNASSIGNED,
    IncumbentRecord,
    MsvddSolution,
    SolveStatus,
    canonical_objective,
    min_members,
    solve_sphere,
)
from .svdd import DEFAULT_TOLS, capacity, collapses, grow_certified, zero_radius_sphere


def _rounding(x: float) -> float:
    """The search's allowance for rounding at a value x, 1e-9 * max(1, |x|),
    or 0 at an infinite x: the prune bound's margin below the incumbent, and
    part of the screens' slack above the prune bound (an infinite prune bound
    leaves the screens' cutoff infinite)."""
    return 1e-9 * max(1.0, abs(x)) if math.isfinite(x) else 0.0


# the entries of one block of pair distances in `_neighbour_table`
_BLOCK = 1 << 18


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
        for name, rule in (("p", COUNT), ("C", POSITIVE), ("time_limit", TIME_LIMIT),
                           ("seed", INTEGER), ("enforce_cardinality", FLAG)):
            checked(name, getattr(self, name), *rule)
        if self.p > self.gram.n:
            raise InputError(f"p={self.p} exceeds the number of points {self.gram.n}")


def _sphere(gram_matrix, C, members, parent=None, slot=None):
    """The sphere on ``members``, each distinct start tried once.

    A sphere grown from ``parent`` by the point at index ``slot`` of
    ``members`` takes the parent's weights with a 0 in that slot, built
    once: the grown sphere is certified from them when they still certify
    it (`grow_certified`), else solved warm from them, then cold.  One
    without a parent, or grown from a collapsed one (weights 1/|S| above the
    cap), is solved cold once.  Spheres below the 1/C floor take the
    radius-floored value; with cardinality enforcement such spheres only
    appear at inner nodes (the counting prune bars them from leaves), where
    that value is a valid lower bound on any completion.
    """
    starts = [None]
    if parent is not None and not collapses(C, len(parent.members)):
        grown = np.concatenate((parent.alpha[:slot], [0.0], parent.alpha[slot:]))
        sol = grow_certified(parent, members, grown)
        if sol is not None:
            return sol
        starts.insert(0, grown)
    for warm in starts:
        try:
            return solve_sphere(gram_matrix, members, C, warm_alpha=warm)
        except ConvergenceError as exc:
            failure = exc
    tried = "warm and cold starts" if len(starts) > 1 else "cold start"
    raise SolverFailure(f"sphere subproblem on {len(members)} members failed to converge "
                        f"from its {tried} (best gap {failure.gap:.3e})") from failure


@dataclass(eq=False, slots=True)
class _Node:
    """A partial assignment of ``depth`` points with one solved sphere (or None
    if empty) per label; ``lb`` sums their certified dual values.  ``pick``
    caches `_pick` once the search has computed it."""

    sphere_of: np.ndarray
    depth: int
    spheres: tuple
    lb: float
    pick: tuple | None = None


def _neighbour_table(gram_matrix, size) -> np.ndarray:
    """The completion lift's pair terms: row r holds, for every point u, half
    the sum of u's r smallest squared feature distances
    D(u, v) = V_uu + V_vv - 2 V_uv to the other points v, for r < ``size``
    (row 0 is 0).  The distances are formed ``_BLOCK`` entries at a time, so
    no n x n array is kept; D is a distance, so rounding below 0 is cut off.
    """
    V = gram_matrix.values
    n = V.shape[0]
    table = np.zeros((size, n))
    if size < 2:
        return table
    diag = V.diagonal()
    rows = max(1, _BLOCK // n)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        D = diag[lo:hi, None] + diag - 2.0 * V[lo:hi]
        np.maximum(D, 0.0, out=D)
        D[np.arange(hi - lo), np.arange(lo, hi)] = np.inf  # u is not its own neighbour
        near = np.partition(D, size - 2, axis=1)[:, : size - 1]
        near.sort(axis=1)
        table[1:, lo:hi] = 0.5 * np.cumsum(near, axis=1).T
    return table


def _pick(node, table):
    """Branch point and the node's lift, from the columns of its spheres.

    The branch point is the max-min point: the unassigned point whose squared
    feature distance to its nearest nonempty sphere center is largest, ties
    going to the lowest index (with every sphere empty, the lowest unassigned
    index).  The same distances give the completion lift, with ``table`` the
    `_neighbour_table` h for ``size`` = len(table), the largest member count
    whose sphere is valued C * scatter: the `msvdd.svdd.capacity` of C under
    the cardinality floor, and 0, which turns the lift off, without it.  A
    nonempty sphere S with m < ``size`` members and column d sits at its
    centroid with value C * scatter(S), and must still take
    k = min(size - m, |U|) of the unassigned points U.  For any k of them, A,
    with g = m + k, the scatter identity |T| * scatter(T) = (the sum of D
    over the pairs of T) splits the pairs of S + A into those within S, those
    across, where sum_S D(s, u) = scatter(S) + m * d_u for each u, and those
    within A:
        g * scatter(S + A) = m * scatter(S) + (k * scatter(S) + m * sum_A d_u)
                             + (the sum of D over the pairs of A).
    Each u of A has k - 1 partners in A, so the pairs of A sum to at least
    half the sum over u of its k - 1 smallest distances, h[k - 1][u].
    So scatter(S + A) >= scatter(S) + (1 / g) * sum_A (m * d_u + h[k - 1][u]).
    S + A has at most ``size`` members, so its value is C times its scatter.
    A completion gives S at least ceil(1/C) >= ``size`` members, so it
    contains some such A and, the value being monotone in the members, costs
    at least that much.  So each such sphere adds C / g times its k smallest
    scores m * d_u + h[k - 1][u] over U, and the sum over the spheres is the
    lift.  Each score is at least m * d_u, so the lift is never below the
    Jensen bound C * m / g * (the k smallest d_u) about the centroid.
    """
    size = len(table)
    unassigned = (node.sphere_of == UNASSIGNED).nonzero()[0]
    closest = None
    lift = 0.0
    for sphere in node.spheres:
        if sphere is None:
            continue
        d2 = sphere.column[unassigned]
        closest = d2.copy() if closest is None else np.minimum(closest, d2, out=closest)
        m = len(sphere.members)
        k = min(size - m, unassigned.size)
        if k > 0:
            d2 *= m  # the scores, in place of the distances
            d2 += table[k - 1][unassigned]
            d2.partition(k - 1)
            lift += sphere.C / (m + k) * float(d2[:k].sum())
    if closest is None:
        return unassigned.item(0), 0.0
    return unassigned.item(closest.argmax()), lift  # first maximum: lowest index


def _screen(sphere, point, V, C, reach=-math.inf) -> float:
    """A lower bound on the value of ``sphere`` grown by ``point``, in closed
    form from the sphere's column d, without building the grown sphere.

    A collapsed sphere S of m members sits at its centroid with value
    C * scatter(S), and by the scatter identity scatter(S + u) =
    scatter(S) + m / (m + 1) * d_u.  A grown sphere that still collapses has
    C times that value, exactly; one that does not admits the uniform
    weights 1/(m + 1), whose dual value is scatter(S + u) / (m + 1).  For a
    sphere that does not collapse, one SMO pair step (Fan, Chen & Lin, JMLR
    2005) from its certified weights a moves weight t from a support point s
    onto u, which keeps the grown weights on their capped simplex for
    0 <= t <= min(a_s, C) = a_s, and raises the dual value by
    t (d_u - d_s) - t^2 ||phi_u - phi_s||^2; the bound is the dual value
    plus the best such step, which needs the Gram row of u at the support.
    By weak duality each value bounds the grown sphere's optimum.  No step
    gains more than C * d_u (it moves at most C onto u, and d_s >= 0), so
    when even that stays below ``reach`` the step is not searched, and the
    sphere's own dual value, the bound at t = 0, is returned.
    """
    m = len(sphere.members)
    d_u = sphere.column.item(point)
    dual = sphere.dual_objective
    if collapses(C, m):
        scatter = dual / C + m / (m + 1) * d_u
        return C * scatter if collapses(C, m + 1) else scatter / (m + 1)
    if dual + C * d_u < reach:
        return dual
    a = sphere.alpha
    s = a.nonzero()[0]
    ids = np.array(sphere.members)[s]
    cap = a[s]
    rise = d_u - sphere.column[ids]
    # ||phi_u - phi_s||^2, 0 on a duplicate of u
    eta = V.diagonal()[ids] - 2.0 * V[point, ids] + V.item(point, point)
    # the step to the vertex of t (rise - t eta), clipped to [0, cap]; where
    # the point gains nothing (rise <= 0) the step is 0
    t = np.where(rise > 0.0, cap, 0.0)
    np.divide(rise, 2.0 * eta, out=t, where=(rise > 0.0) & (rise < 2.0 * eta * cap))
    return dual + max(float((t * (rise - t * eta)).max()), 0.0)


def _expand(node, gram_matrix, C, p, floor, bound=math.inf):
    """Children of a node: the search's one way of making them.

    The branch point is the node's `_pick`, which the search takes when it
    first pops the node, before it expands it.  It joins every nonempty sphere
    and exactly one empty one, which removes the label permutations.  A child
    is dropped when the points left cannot bring every sphere to ``floor``
    members, counted from the node's spheres.  The point enters a sphere's
    members at a slot found by bisection, which `_sphere` reuses; the grown
    sphere is certified from the node's sphere when it can be and solved
    otherwise.  Before that, a child is dropped unbuilt when the `_screen` of
    its grown sphere reaches the cutoff: ``bound`` (the search's prune bound)
    minus the dual values of the child's other spheres, plus the gap
    tolerance and the `_rounding` allowance at ``bound``.  The grown
    sphere's certified dual value is within the gap tolerance of its
    optimum, which the screen bounds, so such a child's bound would reach
    ``bound`` and it would be pruned on push.  Child bounds are plain dual
    sums; the search adds a child's lift when it pops it.
    """
    sphere_of, spheres = node.sphere_of, node.spheres
    point, _ = node.pick
    counts = [0 if s is None else len(s.members) for s in spheres]
    deficit = sum(floor - c for c in counts if c < floor)
    left = sphere_of.size - node.depth - 1
    duals = [(k, s.dual_objective) for k, s in enumerate(spheres) if s is not None]
    slack = DEFAULT_TOLS.duality_gap + _rounding(bound)
    V = gram_matrix.values
    children = []
    for j in [j for j in range(p) if counts[j]] + [j for j in range(p) if not counts[j]][:1]:
        if deficit - (counts[j] < floor) > left:
            continue
        old = spheres[j]
        rest = sum(d for k, d in duals if k != j)  # the others, in label order
        reach = bound - rest + slack
        if old is not None and _screen(old, point, V, C, reach) >= reach:
            continue  # its bound would reach the prune bound on push
        held = () if old is None else old.members
        slot = bisect_left(held, point)
        members = held[:slot] + (point,) + held[slot:]
        sol = _sphere(gram_matrix, C, members, old, slot)
        child_spheres = spheres[:j] + (sol,) + spheres[j + 1 :]
        lb = sum(s.dual_objective for s in child_spheres if s is not None)
        child_of = sphere_of.copy()
        child_of[point] = j
        children.append(_Node(child_of, node.depth + 1, child_spheres, lb))
    return children


def _node_of(sphere_of, gram_matrix, C, p) -> _Node:
    """A (partial) ``sphere_of`` map as a node whose spheres are all solved cold;
    its ``lb`` is the decomposition bound (`_Node`), with empty spheres at 0."""
    sphere_of = np.array(sphere_of, dtype=np.int16)
    counts = np.bincount(sphere_of[sphere_of >= 0], minlength=p)[:p]
    spheres = tuple(
        _sphere(gram_matrix, C, tuple(np.flatnonzero(sphere_of == j).tolist()))
        if counts[j]
        else None
        for j in range(p)
    )
    lb = sum(s.dual_objective for s in spheres if s is not None)
    return _Node(sphere_of, int(counts.sum()), spheres, lb)


def _repair_cardinality(sphere_of, gram_matrix, C, p, floor):
    """Move cheapest points into deficient spheres until all meet the floor,
    or None when no donor can move.

    Every one of the p spheres must be nonempty, as in every restart
    partition of `solve_heuristic` on more than p points, and a move never
    empties a donor.  A sphere below the floor sits at the centroid of its
    members (C * |S| < 1, `zero_radius_sphere`), so a move into it is priced
    by the point's squared distance to that centroid, re-taken after every
    move.  Donors keep the floor.
    """
    sphere_of = sphere_of.copy()
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
        centroid = zero_radius_sphere(gram_matrix, np.flatnonzero(sphere_of == j), C)
        sphere_of[int(donors[np.argmin(centroid.column[donors])])] = j
    return None


def _root_incumbent(problem):
    """The best of the heuristic's `RESTARTS` restarts under the exact model's
    global C, as a complete node, or None when no restart gives one.

    The heuristic values its clusters with per-cluster penalties, so its own
    best restart need not be the best one under the global C.  Each distinct
    restart partition is repaired to the cardinality floor and solved cold
    under the global C; the lowest objective wins, the first on ties.  A
    partition the repair or a sphere solve fails on is skipped.
    """
    gram_mat, p, C = problem.gram, problem.p, problem.C
    n = gram_mat.n
    nu = min(1.0, max(p / (C * n), 1.0 / n))
    try:
        heur = solve_heuristic(gram_mat, HeuristicConfig(p=p, nu=nu, seed=problem.seed))
    except SolverFailure:
        return None
    floor = min_members(C, problem.enforce_cardinality)
    nodes, seen = [], set()
    for sphere_of in heur.restart_partitions:
        repaired = _repair_cardinality(sphere_of, gram_mat, C, p, floor)
        if repaired is None:
            continue
        # the same clusters under other labels give the same objective
        clusters = frozenset(tuple(np.flatnonzero(repaired == j)) for j in range(p))
        if clusters in seen:
            continue
        seen.add(clusters)
        try:
            nodes.append(_node_of(repaired, gram_mat, C, p))
        except SolverFailure:
            pass
    return min(nodes, key=_objective, default=None)  # the first of equal minima


def _objective(node) -> float:
    return canonical_objective([s.objective for s in node.spheres])


def solve_exact(problem: MsvddProblem) -> MsvddSolution:
    """Globally optimal multisphere solution (or the best incumbent on timeout).

    With p = 1 every point is in the one sphere, so there is nothing to
    branch on: when the floor is feasible, the sphere on all points, solved
    cold (`_node_of`), is returned OPTIMAL with its objective as the lower
    bound, one incumbent record and no node.  A timed-out solve reports as
    ``lower_bound`` the largest node key it popped, capped at the incumbent;
    it never drops as the search goes on.
    When p spheres cannot all reach the cardinality floor the solve skips
    the root heuristic and the search and reports `SolveStatus.INFEASIBLE`.
    """
    gram_mat, p, C = problem.gram, problem.p, problem.C
    n = gram_mat.n
    floor = min_members(C, problem.enforce_cardinality)
    feasible = p * floor <= n
    size = capacity(C) if problem.enforce_cardinality else 0

    t0 = time.perf_counter()
    best = None  # the incumbent, a complete node carrying its spheres
    incumbent = math.inf
    log: list[IncumbentRecord] = []

    if feasible and p == 1:
        # one sphere takes every point: there is nothing to branch on
        best = _node_of(np.zeros(n), gram_mat, C, p)
    elif feasible and n > p:
        best = _root_incumbent(problem)
    if best is not None:
        incumbent = _objective(best)
        log.append(IncumbentRecord(incumbent, time.perf_counter() - t0, best.spheres))

    root = _Node(np.full(n, UNASSIGNED, dtype=np.int16), 0, (None,) * p, 0.0)
    counter = itertools.count()
    heap = [(root.lb, 0, next(counter), root)] if feasible and p > 1 else []
    table = _neighbour_table(gram_mat, size) if heap else None
    node_count = 0
    timed_out = False
    # the largest key popped so far: a popped key is the smallest open one,
    # and a subtree's bound only rises, so no completion lies below it
    proven = -math.inf

    # the key from which a node is pruned, taken again when the incumbent changes
    bound = incumbent - _rounding(incumbent)
    while heap:
        lb, _, _, node = heapq.heappop(heap)
        if lb >= bound:
            break
        proven = max(proven, lb)
        if problem.time_limit is not None and time.perf_counter() - t0 > problem.time_limit:
            timed_out = True
            break

        if node.depth == n:
            node_count += 1
            value = _objective(node)
            if value < incumbent - 1e-12:
                best, incumbent = node, value
                bound = incumbent - _rounding(incumbent)
                log.append(IncumbentRecord(incumbent, time.perf_counter() - t0, node.spheres))
            continue

        if node.pick is None:
            # first pop: lift the key and requeue; expand when it comes out again
            node.pick = _pick(node, table)
            lifted = lb + node.pick[1]
            if lifted > lb:
                if lifted < bound:
                    heapq.heappush(heap, (lifted, -node.depth, next(counter), node))
                continue
        node_count += 1

        for child in _expand(node, gram_mat, C, p, floor, bound):
            if child.lb < bound:
                heapq.heappush(heap, (child.lb, -child.depth, next(counter), child))

    if timed_out:
        final_lb = min(proven, incumbent)
        status = SolveStatus.TIME_LIMIT_INCUMBENT
    else:
        final_lb = incumbent  # every node left is pruned: the incumbent is optimal
        status = SolveStatus.INFEASIBLE if best is None else SolveStatus.OPTIMAL
    return MsvddSolution(
        sphere_of=root.sphere_of if best is None else best.sphere_of,
        spheres=() if best is None else best.spheres,
        objective=incumbent,
        status=status,
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
    otherwise (flagged in the ``reference`` column).  A solve with no finite
    bound, such as the heuristic's, gets an empty gap and reference "none".
    """
    if solution.status is SolveStatus.OPTIMAL:
        z_ref, ref = solution.objective, "optimal"
    elif math.isfinite(solution.lower_bound):
        z_ref, ref = solution.lower_bound, "lower_bound"
    else:
        z_ref, ref = None, "none"
    rows = []
    for rec in solution.incumbent_log:
        if z_ref is None:
            gap = ""
        elif abs(rec.objective) <= 1e-300:
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
