"""Single-sphere solver: the dual QP on the capped simplex plus primal recovery.

Given a Gram matrix, a member set S and a penalty C with C * |S| >= 1, the
sphere is found by maximizing

    f(a) = sum_i a_i K[i, i] - a' K a      over  {a : sum a = 1, 0 <= a_i <= C}

by sequential minimal optimization (SMO): each step moves weight between one
pair of points, chosen by second-order working-set selection (Fan, Chen & Lin,
JMLR 2005), with the exact step length of the pair's one-dimensional quadratic.
A cold solve starts at the far-point vertex of the capped simplex: weight C on
the floor(1/C) members farthest from the member centroid and the remainder on
the next one, the core-set start for minimum enclosing balls (Badoiu &
Clarkson, SODA 2003).  A pair step zeroes at most one weight, so this start
saves the m - |SV| steps that a start at the uniform weight spends zeroing
interior points.  A warm start is used as given when it lies on the capped
simplex; any other solve starts cold.  After every block of pair steps a
primal-dual gap certificate is computed from a fresh K @ a, and the solve
returns at a certificate only: once that gap is within tolerance, or else
once the dual value reaches the caller's ``cutoff``.  The start is not
certified unless its dual value already reaches the cutoff or the first
block takes no step, so a solve pays for the certificates it can return at.
By weak duality the dual value at any feasible weights bounds the sphere's
optimum from below, which is all a pruned branch-and-bound child needs; a
sphere stopped at the cutoff is uncertified.  A solve that cannot certify
raises `ConvergenceError` with the smallest gap over the certificates taken.
At a certificate that does not certify, after a block with pair steps, one
exact free-face step solves the equality-constrained QP on the face of the
free weights (the face solve of active-set SVM methods, Scheinberg, JMLR
2006) and moves toward its solution as far as the box allows; it is never
taken twice in a row, and refused when it would not raise the dual.  A warm
start's first block is one pair step, which brings a branch-and-bound child's
new zero-weight point onto the face, so the face step follows at once.
The radius is recovered from the induced distances by a one-dimensional
piecewise-linear minimization (`recover_radius`), which is total (it needs no
free support vector) and returns the smallest minimizer on ties; the errors
follow from it.  The radius's rank among the distances depends on (|S|, C)
alone, so a solve takes it once and its certificates select the radius in
work buffers.  `grow_certified` applies the same certificate to a solved
sphere grown by one point, without a solve.
A solve reads the shared Gram matrix through the member indices and never
copies the members' block: a pair step gathers the Gram rows of its two
points at the members, a certificate forms the full-length product of the
Gram rows of the nonzero weights with those weights, a face step gathers the
rows of the free weights, and the cold start takes the member sums from one
product of the Gram matrix with the member indicator.  Rows stand in for
columns, which is exact because `GramMatrix` stores a symmetric matrix.
The certificate that certifies keeps its product as the sphere's ``column``:
the squared feature distance from every point of the Gram matrix to the
center.  It is the one place a solved sphere's distances are computed; a
child that `grow_certified` certifies shares its parent's column, and
`zero_radius_sphere` builds its own from the mean of its members' Gram rows.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InfeasibleSubproblemError, InputError
from .kernels import GramMatrix

MAX_ITERATIONS = 50_000
# pair steps between two fresh-gradient certificates
_CHECK_EVERY = 16
# pair-curvature floor, relative to the largest kernel diagonal
_ETA_FLOOR = 1e-12
# the smallest positive normal float, the floor of that diagonal scale
_TINY = float(np.finfo(float).tiny)
# a warm start is used only if its weights sum to 1 within this
_SUM_TOL = 1e-12


@dataclass(frozen=True)
class SolverTolerances:
    """All numeric tolerances used by the sphere solver, in one place."""

    feasibility: float = 1e-7
    duality_gap: float = 1e-8
    objective: float = 1e-6


DEFAULT_TOLS = SolverTolerances()


def collapses(C: float, m: int) -> bool:
    """Whether m weights capped at C cannot sum to 1 (C * m < 1 beyond a 1e-12
    slack), so a sphere of m members collapses to radius zero."""
    return C * m < 1.0 - 1e-12


@dataclass(frozen=True)
class SvddSolution:
    """One solved sphere: its weights ``alpha`` and radius ``radius_sq``.

    ``alpha`` is indexed like ``members`` (ascending global point indices).
    ``column`` holds the squared feature distance, clamped at 0, from every
    point of the Gram matrix to the center, K_ii - 2 (K a)_i + alpha_quad;
    ``alpha_quad`` is alpha' K alpha at the final certificate.  Solved spheres
    may share one column object (`grow_certified`), so it is never written
    to.  The members' distances (`distances_sq`) are the column at the
    members, and the errors follow from them (`errors`).  ``objective`` is the
    primal value radius_sq + C * sum(errors); ``gap`` is the certified
    distance to the dual optimum at termination.  It is within
    ``DEFAULT_TOLS.duality_gap`` unless the solve stopped at its ``cutoff``
    (`solve_svdd`); such a sphere is not certified, and only its
    ``dual_objective`` is a valid bound.
    """

    members: tuple[int, ...]
    alpha: np.ndarray
    radius_sq: float
    column: np.ndarray
    objective: float
    C: float
    dual_objective: float
    gap: float
    iterations: int
    alpha_quad: float

    @property
    def distances_sq(self) -> np.ndarray:
        """Squared feature distances of the members to the center, in member order."""
        return self.column[np.array(self.members)]

    @property
    def errors(self) -> np.ndarray:
        """Per-member errors max(0, d2 - R), as `recover_radius` gives them."""
        return np.maximum(0.0, self.distances_sq - self.radius_sq)


def project_capped_simplex(v, cap: float) -> np.ndarray:
    """Euclidean projection of v onto {a : sum a = 1, 0 <= a_i <= cap}.

    Exact: the shift tau with sum(clip(v - tau, 0, cap)) = 1 is located by
    sorting the breakpoints {v_i} and {v_i - cap} of that piecewise-linear
    budget function and interpolating on the crossing segment.  No solve
    calls it: a warm start off the capped simplex starts the solve cold.
    """
    v = np.asarray(v, dtype=float)
    m = v.size
    if m == 0:
        raise InputError("cannot project an empty vector")
    if collapses(cap, m):
        raise InfeasibleSubproblemError(
            f"capped simplex is empty: cap {cap} * size {m} < 1"
        )
    if cap * m <= 1.0 + 1e-12:
        return np.full(m, cap)

    bps = np.unique(np.concatenate([v, v - cap]))
    # phi is nonincreasing in tau; phi(bps[0]) = m * cap >= 1, phi(bps[-1]) = 0.
    phi = np.minimum(np.maximum(v[None, :] - bps[:, None], 0.0), cap).sum(axis=1)
    k = int(np.searchsorted(-phi, -1.0, side="right")) - 1
    if phi[k] <= 1.0 + 1e-15:
        tau = bps[k]
    else:
        # phi is exactly linear between consecutive breakpoints, and
        # phi[k] > 1 > phi[k + 1] here, so the denominator is positive
        tau = bps[k] + (phi[k] - 1.0) * (bps[k + 1] - bps[k]) / (phi[k] - phi[k + 1])
    a = np.minimum(np.maximum(v - tau, 0.0), cap)
    interior = (a > 0.0) & (a < cap)
    if interior.any():
        # absorb rounding drift so the weights sum to 1 at machine precision
        a[interior] += (1.0 - a.sum()) / interior.sum()
        np.minimum(np.maximum(a, 0.0, out=a), cap, out=a)
    return a


def recover_radius(distances_sq, C: float) -> tuple[float, np.ndarray]:
    """Radius and errors minimizing g(R) = R + C * sum(max(0, d2 - R)), R >= 0.

    g is convex piecewise linear with breakpoints at the d2 values, and its
    slope just right of the k-th smallest is 1 - C * (n - k).  R is the k-th
    smallest distance (0 for k = 0) for the first k where that slope is
    nonnegative within 1e-12, so ties go to the smallest minimizer (a sphere
    holding exactly 1/C points collapses to R = 0).  k comes in closed form,
    settled by that float test (`_rank`), and the distance from a partition.
    """
    d2 = np.asarray(distances_sq, dtype=float)
    n = d2.size
    if n == 0:
        raise InputError("recover_radius needs at least one distance")
    if (d2 < 0.0).any():
        raise InputError("squared distances must be nonnegative")
    if not math.isfinite(C):
        raise InputError(f"C must be finite, got {C}")
    if collapses(C, n):
        raise InputError(f"C * n = {C * n} < 1: penalty slope never turns nonnegative")
    xi = np.empty(n)
    return _radius(d2, _rank(n, C), xi), xi


def _rank(n: int, C: float) -> int:
    """The rank k of `recover_radius`'s radius among n distances at penalty C:
    the first k where the slope 1 - C * (n - k) is nonnegative within 1e-12.
    It depends on (n, C) alone, so a solve takes it once."""
    # the slope test is monotone in k and holds at k = n, so k stays in [0, n]
    k = min(max(math.ceil(n - 1.0 / C), 0), n)
    while k > 0 and 1.0 - C * (n - (k - 1)) >= -1e-12:
        k -= 1
    while 1.0 - C * (n - k) < -1e-12:
        k += 1
    return k


def _radius(d2, k: int, xi) -> float:
    """The k-th smallest of ``d2`` (0 for k = 0) as the radius R, with the
    errors max(0, d2 - R) written into ``xi``, which the partition also
    works in."""
    R = 0.0
    if k:
        np.copyto(xi, d2)
        xi.partition(k - 1)
        R = float(xi[k - 1])
    np.subtract(d2, R, out=xi)
    np.maximum(0.0, xi, out=xi)
    return R


def _as_member_tuple(members, n: int) -> tuple[int, ...]:
    idx = tuple(sorted(map(int, members)))
    if not idx:
        raise InputError("member set is empty")
    if len(set(idx)) != len(idx):
        raise InputError("member set contains duplicates")
    if idx[0] < 0 or idx[-1] >= n:
        raise InputError(f"member indices must lie in [0, {n}), got {idx[0]}..{idx[-1]}")
    return idx


def solve_svdd(
    gram_matrix: GramMatrix,
    members,
    C: float,
    warm_alpha=None,
    max_iters: int = MAX_ITERATIONS,
    *,
    cutoff: float = math.inf,
) -> SvddSolution:
    """Solve the single-sphere subproblem on the given member set.

    ``warm_alpha`` (length len(members), aligned with the sorted member order)
    seeds the pair steps, as given, when it lies on the capped simplex.
    Without one, or if it lies off the capped simplex, has the wrong length or
    a non-finite entry, the solve starts cold at the far-point vertex (see
    `_start`).  Blocks of pair steps alternate with single free-face steps
    (see `_face_step`), which are tried at a certificate that does not
    certify, never twice in a row; the block after a face step runs on the
    incrementally updated K @ a, and the fresh-gradient certificate stays the
    only exit: it returns when the gap is within tolerance, or else when the
    dual value is at least ``cutoff``, uncertified (its ``gap`` above the
    tolerance) but with a dual value that bounds the sphere from below.
    Blocks hold `_CHECK_EVERY` pair steps, except that the first block of a
    warm start holds one.  ``iterations`` counts pair steps plus
    accepted face steps, and ``max_iters`` caps that sum.
    The start forms K @ a and the gradient but is certified only when its
    dual value already reaches ``cutoff`` or the first block takes no step;
    otherwise the first certificate follows the first block.
    Every read of ``gram_matrix`` goes through the member indices and copies
    no m x m member block: the largest temporaries are the Gram rows of the
    nonzero weights (at a certificate) or of the free weights (at a face
    step), each of length n, the Gram matrix's point count.  Pair steps
    allocate nothing: they, and each certificate's distances and radius,
    work in per-solve buffers of length m.  The certificate that certifies
    keeps its length-n product as the solution's ``column``.
    Raises InfeasibleSubproblemError when C * |S| < 1 and ConvergenceError,
    carrying the smallest gap over the certificates taken, if the iteration
    cap is hit or no pair step can close the gap.
    """
    idx = _as_member_tuple(members, gram_matrix.n)
    m = len(idx)
    if not C > 0:
        raise InputError("C must be positive")
    if collapses(C, m):
        raise InfeasibleSubproblemError(
            f"sphere with {m} members infeasible for C={C}: C*|S| < 1"
        )
    ia = np.asarray(idx)
    V = gram_matrix.values
    q = V.diagonal()[ia]

    a, warm = _start(V, ia, q, C, warm_alpha)
    # a warm start runs one pair step before its first face step, which
    # brings a new zero-weight point onto the face when it is needed
    block = 1 if warm else _CHECK_EVERY

    # floor for the pair curvature, which is 0 on duplicate points
    eta_floor = _ETA_FLOOR * max(float(q.max()), _TINY)
    # the radius's rank among the m distances, the same at every certificate
    k = _rank(m, C)
    best_gap = math.inf
    it = 0
    # a face step needs an SMO block with steps since the start or the last one
    face_ready = False
    # which weights can rise and which can fall; a pair step updates its two
    # entries, and an accepted face step recomputes both masks
    up, pos = a < C, a > 0.0
    # work buffers: the gradient, the certificate's distances and errors, and
    # a pair step's selection, its two Gram rows, curvatures and gains
    G, d2, xi, G_up, b, K_i, K_j, eta, gain = np.empty((9, m))
    start, stalled = True, False
    while True:
        if not stalled:
            # a fresh K @ a, so drift in the incremental gradient can slow
            # the loop but never certify a wrong point
            Kw = _gram_dot(V, ia, a)
            Ka = Kw[ia]
            quad = float(a @ Ka)
            dual = float(q @ a) - quad
        # the start is certified only when its dual value already reaches
        # the cutoff, or when the first block takes no step
        if not start or stalled or dual >= cutoff:
            np.multiply(Ka, 2.0, out=d2)
            np.subtract(q, d2, out=d2)
            d2 += quad
            np.maximum(d2, 0.0, out=d2)
            R = _radius(d2, k, xi)
            primal = float(R + C * xi.sum())
            gap = max(primal - dual, 0.0)
            best_gap = min(best_gap, gap)
            if gap <= DEFAULT_TOLS.duality_gap or dual >= cutoff:
                # the same arithmetic as d2, so the column at the members is d2
                column = np.maximum(V.diagonal() - 2.0 * Kw + quad, 0.0)
                a_out = np.minimum(np.maximum(a, 0.0), C)
                return _assemble(idx, a_out, column, R, primal, C, dual, quad, gap, it)
            if stalled:
                break
        start = False

        # SMO pair steps on min a'Ka - q'a; G is its gradient
        np.multiply(Ka, 2.0, out=G)
        G -= q
        faced = False
        if face_ready and it < max_iters:
            step = _face_step(V, ia, a, G, C, up, pos)
            if step is not None:
                rows_F, delta = step
                Ka += delta @ rows_F
                np.multiply(Ka, 2.0, out=G)
                G -= q
                np.less(a, C, out=up)
                np.greater(a, 0.0, out=pos)
                it += 1
                faced = True
        steps = 0
        while steps < block and it < max_iters:
            G_up.fill(np.inf)
            np.copyto(G_up, G, where=up)
            i = int(G_up.argmin())
            g_i = G_up.item(i)
            b.fill(-np.inf)
            np.copyto(b, G, where=pos)
            # the gap is at most the largest violation G_j - G_i over a_j > 0
            if b.max() - g_i <= DEFAULT_TOLS.duality_gap:
                break
            b -= g_i
            V[idx[i]].take(ia, out=K_i, mode="clip")
            np.add(q, q[i], out=eta)
            np.multiply(K_i, 2.0, out=gain)  # gain holds 2 K_i until the gains
            eta -= gain
            np.maximum(eta, eta_floor, out=eta)
            # b is -inf off the positive weights, so their gain is 0, and
            # some b_j over a_j > 0 passed the test above, so a positive gain wins
            np.maximum(b, 0.0, out=gain)
            gain *= gain
            gain /= eta
            j = int(gain.argmax())
            a_i, a_j = a.item(i), a.item(j)
            t = min(b.item(j) / (2.0 * eta.item(j)), C - a_i, a_j)
            a_i = C if t == C - a_i else a_i + t
            a_j = 0.0 if t == a_j else a_j - t
            a[i], a[j] = a_i, a_j
            up[i], pos[i] = a_i < C, a_i > 0.0
            up[j], pos[j] = a_j < C, a_j > 0.0
            V[idx[j]].take(ia, out=K_j, mode="clip")
            np.subtract(K_i, K_j, out=K_j)
            K_j *= 2.0 * t
            G += K_j
            steps += 1
            it += 1
        # after a face step the block ran on an incrementally updated
        # gradient, so an empty block re-certifies before it counts as
        # stalled; an empty first block certifies the start
        stalled = steps == 0 and not faced
        face_ready = steps > 0
        block = _CHECK_EVERY

    reason = "iteration cap hit" if it >= max_iters else "stalled"
    raise ConvergenceError(
        f"no convergence after {it} iterations, {reason} (gap {best_gap:.3e})", best_gap
    )


def _gram_dot(V, ia, a) -> np.ndarray:
    """V @ w for the length-n weights w that put ``a`` on the points ``ia``,
    from the rows of the symmetric Gram matrix V at the nonzero weights."""
    s = a.nonzero()[0]
    return a[s] @ V[ia[s]]


def _start(V, ia, q, C, warm_alpha) -> tuple[np.ndarray, bool]:
    """Starting weights on {a : sum a = 1, 0 <= a_i <= C}, as a fresh array,
    and whether they come from the warm start.

    A warm start is used as given when it has the right length and lies on
    the capped simplex; any other warm start is ignored.  The cold start is
    the vertex with weight C on the k = floor(1/C) members farthest from the
    member centroid, ranked by K_ii - 2 (K 1/m)_i with ties broken stably,
    and the remainder 1 - kC on the next one; it is all C when C * m = 1.
    The member sums K 1/m come from one product of the Gram matrix V with
    the member indicator, so no member block is built.
    """
    m = q.size
    if warm_alpha is not None:
        w = np.array(warm_alpha, dtype=float)
        # a NaN fails both bound tests, and an infinite entry one of them
        if (w.shape == (m,) and w.min() >= 0.0 and w.max() <= C
                and abs(w.sum() - 1.0) <= _SUM_TOL):
            return w, True
    if C * m <= 1.0 + 1e-12:
        return np.full(m, C), False
    w = np.zeros(V.shape[0])
    w[ia] = 1.0 / m
    far = q - 2.0 * (V @ w)[ia]
    order = np.argsort(-far, kind="stable")
    # C * m > 1 leaves k < m, so the remainder has a member to go on
    k = int(1.0 / C)
    a = np.zeros(m)
    a[order[:k]] = C
    a[order[k]] = max(1.0 - k * C, 0.0)
    return a, False


def _face_step(V, ia, a, G, C, up, pos):
    """One exact step on the face of the free weights, or None if refused.

    With F = {0 < a < C} and B = {a = C}, the minimizer x of a'Ka - q'a on
    the face {a_i = C on B, a_i = 0 elsewhere, sum a = 1} solves the KKT
    system [2 K_FF 1; 1' 0] [x; mu] = [q_F - 2C K_FB 1; 1 - C|B|].  It is
    solved here for the step d = x - a_F, whose right-hand side is the
    gradient, [2 K_FF 1; 1' 0] [d; mu] = [-G_F; 0].  a_F moves toward x as
    far as the box allows; a blocking weight is set to exactly 0 or C, and
    the sum of the weights is restored on the free weight farthest from its
    bounds.  The step is refused when the solve fails, is not finite, or does
    not lower the objective, as on the singular faces of duplicated points or
    of more than d + 1 free points under a d-dimensional linear kernel.
    F is read from the solver's masks ``up`` (a < C) and ``pos`` (a > 0).
    Updates ``a`` in place and returns the Gram rows of F at the members and
    the a_F change, for the caller's K @ a.
    """
    F = (up & pos).nonzero()[0]
    f = F.size
    if f < 2:
        return None
    rows_F = V[ia[F]][:, ia]
    K_FF = rows_F[:, F]
    G_F = G[F]
    # the bordered system, built in place: 2 K_FF, a border of ones, a 0 corner
    kkt = np.ones((f + 1, f + 1))
    np.multiply(K_FF, 2.0, out=kkt[:f, :f])
    kkt[f, f] = 0.0
    rhs = np.zeros(f + 1)
    np.negative(G_F, out=rhs[:f])
    try:
        d = np.linalg.solve(kkt, rhs)[:f]
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(d)):
        return None
    a_F = a[F]
    # a zero step component sets no bound; a tiny one overflows the ratio to
    # inf, which sets none either
    room = np.full(f, np.inf)
    with np.errstate(over="ignore"):
        np.divide(C - a_F, d, out=room, where=d > 0.0)
        np.divide(-a_F, d, out=room, where=d < 0.0)
    k = int(np.argmin(room))
    new = a_F + min(room[k], 1.0) * d
    if room[k] < 1.0:
        new[k] = C if d[k] > 0.0 else 0.0
    np.minimum(np.maximum(new, 0.0, out=new), C, out=new)
    delta = new - a_F
    # dual gain of the step, on the face: -(G_F' delta + delta' K_FF delta)
    if not float(G_F @ delta + delta @ K_FF @ delta) < 0.0:
        return None
    a[F] = new
    inside = ((new > 0.0) & (new < C)).nonzero()[0]
    if inside.size:
        s = F[inside[np.argmax(np.minimum(new[inside], C - new[inside]))]]
        a[s] = min(max(a[s] + (1.0 - a.sum()), 0.0), C)
        delta = a[F] - a_F
    return rows_F, delta


def _assemble(members, a, column, R, objective, C, dual, quad, gap, iters):
    column.setflags(write=False)
    return SvddSolution(
        members=members,
        alpha=a,
        radius_sq=float(R),
        column=column,
        objective=objective,
        C=float(C),
        dual_objective=dual,
        gap=float(gap),
        iterations=iters,
        alpha_quad=quad,
    )


def grow_certified(parent: SvddSolution, point: int) -> SvddSolution | None:
    """The sphere of ``parent.members`` plus ``point`` if the parent certifies it.

    The parent's weights plus a 0 for the point keep the parent's dual value
    and center, so the grown sphere's distances are the parent's column at
    its members; the radius follows as in a solve's certificate.  Returns the
    grown sphere, with 0 iterations and the parent's column object, when the
    gap is within the default tolerance (the one every sphere solve of the
    search uses); None otherwise, and for a zero-radius parent
    (C * |S| < 1), whose weights exceed the cap.
    """
    C = parent.C
    if collapses(C, len(parent.members)):
        return None
    pos = bisect_left(parent.members, point)
    members = parent.members[:pos] + (int(point),) + parent.members[pos:]
    m = len(members)
    xi = np.empty(m)
    R = _radius(parent.column[np.array(members)], _rank(m, C), xi)
    primal = float(R + C * xi.sum())
    gap = max(primal - parent.dual_objective, 0.0)
    if gap > DEFAULT_TOLS.duality_gap:
        return None
    a = np.concatenate((parent.alpha[:pos], [0.0], parent.alpha[pos:]))
    dual, quad = parent.dual_objective, parent.alpha_quad
    return _assemble(members, a, parent.column, R, primal, C, dual, quad, gap, 0)


def zero_radius_sphere(gram_matrix: GramMatrix, members, C: float) -> SvddSolution:
    """Degenerate sphere at the feature centroid with radius zero.

    This is the optimum of the radius-floored subproblem min R + C*sum(xi),
    R >= 0 when C * |S| < 1 (the penalty slope is then positive everywhere, so
    the radius collapses and the best center is the centroid).  The capped
    simplex bound on alpha does not apply in this regime; alpha is uniform,
    and the column comes from the mean of the members' Gram rows.
    """
    idx = _as_member_tuple(members, gram_matrix.n)
    m = len(idx)
    ia = np.asarray(idx)
    V = gram_matrix.values
    a = np.full(m, 1.0 / m)
    Kw = a @ V[ia]
    quad = float(a @ Kw[ia])
    column = np.maximum(V.diagonal() - 2.0 * Kw + quad, 0.0)
    # radius zero: every distance is an error, and the value is its own dual
    xi = np.empty(m)
    R = _radius(column[ia], 0, xi)
    penalty = C * xi.sum()
    return _assemble(idx, a, column, R, float(R + penalty), C, float(penalty), quad, 0.0, 0)
