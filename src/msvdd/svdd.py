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
simplex; any other solve starts cold.  Once a pair step leaves the free set
{0 < a < C} as the pair step before it left it, the free set has settled, and
one exact free-face step solves the equality-constrained QP on the face of
the free weights (the face solve of active-set SVM methods, Scheinberg, JMLR
2006) and moves toward its solution as far as the box allows.  It is taken
at most once per free set, and refused when it would not raise the dual.  A
branch-and-bound child's first pair step brings its new zero-weight point
into the free set, and the face step follows its next one.
After every block of pair steps a primal-dual gap certificate is computed
from a fresh K @ a, and the solve returns at a certificate only, once that
gap is within tolerance: every sphere it returns is certified.  The start is
not certified unless the first block takes no step; then its own K @ a is
certified, so a solve pays for the certificates it can return at.  A cold
solve of at most `capacity` members starts with every weight at C, the one
point of its capped simplex, so its first block takes no step and its first
certificate decides it, with 0 iterations.  A solve that cannot certify
raises `ConvergenceError` with the smallest gap over the certificates taken.
The radius is recovered from the induced distances by a one-dimensional
piecewise-linear minimization (`recover_radius`), which is total (it needs no
free support vector) and returns the smallest minimizer on ties; the errors
follow from it.  The radius's rank among the distances depends on (|S|, C)
alone, so a solve takes it once and its certificates select the radius in
work buffers.
A solve reads the shared Gram matrix through the member indices and never
copies the members' block: a pair step gathers the Gram rows of its two
points at the members, a certificate forms the full-length product of the
Gram rows of the nonzero weights with those weights, a face step gathers the
rows of the free weights, and the cold start takes the member sums from one
product of the Gram matrix with the member indicator.  Rows stand in for
columns, which is exact because `GramMatrix` stores a symmetric matrix.
Every certificate turns its product, in place, into the ``column`` of
squared feature distances from every point of the Gram matrix to the center,
and reads the members' distances from it: the one place a solved sphere's
distances are computed, and the column the sphere keeps if that certificate
certifies it.  One helper (`_certified`) takes the radius, the primal value
and the gap from those distances, for a solve and for `grow_certified`,
which certifies a solved sphere grown by one point without a solve, from
the parent's column, which the grown sphere shares.  `zero_radius_sphere`
builds its column, in place as well, from the mean of its members' Gram
rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InfeasibleSubproblemError, InputError
from .kernels import GramMatrix

MAX_ITERATIONS = 50_000
# pair steps between two fresh-gradient certificates
_CHECK_EVERY = 16
# pair steps in a row that leave the free set unchanged before its face step
_SETTLE = 1
# pair-curvature floor, relative to the largest kernel diagonal
_ETA_FLOOR = 1e-12
# the smallest positive normal float, the floor of that diagonal scale
_TINY = float(np.finfo(float).tiny)
# a warm start is used only if its weights sum to 1 within this
_SUM_TOL = 1e-12
# a weight's offset on the gradient in the pair selection, indexed by whether
# it can rise (a < C) or fall (a > 0): +-inf hides it from the min or max
_RISE, _FALL = np.array([math.inf, 0.0]), np.array([-math.inf, 0.0])


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


def capacity(C: float) -> int:
    """How many weights can sit at the cap C: the largest t with
    1 - C * t >= 0 within 1e-12, which is floor(1/C) or, within that slack,
    one more (C = 1/(0.1 * 930) has 1/C just below 93, and yields 93).  It
    bounds a sphere's outliers, and a sphere of at most that many members
    has all its weights at C.  `msvdd.solution.min_members`, ceil(1/C), is
    the same or one more."""
    # the test holds at floor(1/C) and, for C > 2e-12, fails two past it;
    # a smaller C has a capacity beyond 5e11 either way
    t = math.floor(1.0 / C) + 1
    return t if 1.0 - C * t >= -1e-12 else t - 1


@dataclass(slots=True, eq=False)
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
    distance to the dual optimum at termination, within
    ``DEFAULT_TOLS.duality_gap``.  No field is written after the record is
    built; it is not frozen because a frozen field costs a checked store.
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
    if m <= capacity(cap):
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
    the first k where the slope 1 - C * (n - k) is nonnegative within 1e-12,
    so n - k is the `capacity` of C, or 0 past n.  It depends on (n, C)
    alone, so a solve takes it once."""
    return max(n - capacity(C), 0)


def _radius(d2, k: int, xi) -> float:
    """The k-th smallest of ``d2`` (0 for k = 0) as the radius R, with the
    errors max(0, d2 - R) written into ``xi``, which the partition also
    works in."""
    R = 0.0
    if k:
        np.copyto(xi, d2)
        xi.partition(k - 1)
        R = xi.item(k - 1)
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


def solve_svdd(gram_matrix: GramMatrix, members, C: float, warm_alpha=None) -> SvddSolution:
    """Solve the single-sphere subproblem on the given member set, to a
    certified gap.

    ``warm_alpha`` (length len(members), aligned with the sorted member order)
    seeds the pair steps, as given, when it lies on the capped simplex.
    Without one, or if it lies off the capped simplex, has the wrong length or
    a non-finite entry, the solve starts cold at the far-point vertex (see
    `_start`).  Blocks of `_CHECK_EVERY` pair steps alternate with
    fresh-gradient certificates, the solve's only exit: it returns when the
    gap is within tolerance.  Within a block, `_SETTLE` pair steps in a row
    that leave the free set {0 < a < C} as they found it are followed by one
    free-face step (see `_face_step`), and the gradient is updated from the
    Gram rows it returns.  It is taken at most once per free set: after it,
    the next needs a pair step that moves a weight of its pair into or out of
    (0, C), unless the face step itself set a free weight to 0 or C.
    ``iterations`` counts pair steps plus accepted face steps, and
    `MAX_ITERATIONS`, read at the call, caps that sum.
    The start forms K @ a and the gradient but is certified only when the
    first block takes no step, from that same K @ a; otherwise the first
    certificate follows the first block.  A cold start of at most `capacity`
    members, all at C, is that case: its first certificate decides it, with
    0 iterations.  Each later certificate forms K @ a afresh; a certificate
    that does not certify, followed by no pair step, ends the solve.
    Every read of ``gram_matrix`` goes through the member indices and copies
    no m x m member block: the largest temporaries are the Gram rows of the
    nonzero weights and the product formed from them (at each fresh K @ a),
    or the Gram rows of the free weights (at a face step), each of length n,
    the Gram matrix's point count.  Pair steps allocate nothing: they, and
    each certificate's members' distances and radius, work in per-solve
    buffers of length m, and choose the pair through 0 or +-inf offsets on
    the gradient.  Each certificate turns its length-n product, in place,
    into a ``column``, the solution's if it certifies.
    Raises InputError unless 0 < C < inf, InfeasibleSubproblemError when
    C * |S| < 1 and ConvergenceError, carrying the smallest gap over the
    certificates taken, if the iteration cap is hit or no pair step can
    close the gap.
    """
    if not 0.0 < C < math.inf:
        raise InputError(f"C must be a finite number > 0, got {C!r}")
    idx = _as_member_tuple(members, gram_matrix.n)
    m = len(idx)
    max_iters = MAX_ITERATIONS
    if collapses(C, m):
        raise InfeasibleSubproblemError(
            f"sphere with {m} members infeasible for C={C}: C*|S| < 1"
        )
    ia = np.asarray(idx)
    V = gram_matrix.values
    q = V.diagonal()[ia]

    a = _start(V, ia, q, C, warm_alpha)
    # the radius's rank among the m distances, the same at every certificate
    k = _rank(m, C)

    # floor for the pair curvature, which is 0 on duplicate points
    eta_floor = _ETA_FLOOR * max(q.item(q.argmax()), _TINY)
    best_gap = math.inf
    it = 0
    # pair steps in a row that left the free set as they found it; the face
    # step follows the `_SETTLE`-th, so each free set has at most one
    settled = 0
    # the offsets for the weights that can rise and for those that can fall;
    # a pair step updates its two entries, and an accepted face step all
    up, pos = _RISE.take(a < C), _FALL.take(a > 0.0)
    # work buffers: K @ a at the members, the gradient, the certificate's
    # distances and errors, and a pair step's selection, two Gram rows,
    # curvatures and gains
    Ka, G, d2, xi, G_up, b, K_i, K_j, eta, gain = np.empty((10, m))
    # the start's K @ a; it is certified only when the first block takes no step
    Kw = _gram_dot(V, ia, a)
    certify = False
    while True:
        Kw.take(ia, out=Ka)
        quad = float(a @ Ka)
        dual = float(q @ a) - quad
        if certify:
            # the column overwrites Kw, whose member entries Ka has taken
            column = _column(V, Kw, quad)
            column.take(ia, out=d2)
            sol, gap = _certified(idx, a, column, d2, k, C, dual, quad, it, xi)
            if sol is not None:
                return sol
            best_gap = min(best_gap, gap)

        # SMO pair steps on min a'Ka - q'a; G is its gradient
        np.multiply(Ka, 2.0, out=G)
        G -= q
        steps = 0
        while steps < _CHECK_EVERY and it < max_iters:
            # G + 0 is G but for a zero's sign, which moves no comparison or step
            np.add(G, up, out=G_up)
            i = int(G_up.argmin())
            g_i = G_up.item(i)
            np.add(G, pos, out=b)
            # the gap is at most the largest violation G_j - G_i over a_j > 0
            if b.item(b.argmax()) - g_i <= DEFAULT_TOLS.duality_gap:
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
            # whether each was free: a_i < C, as it can rise, and a_j > 0
            free_i, free_j = a_i > 0.0, a_j < C
            t = min(b.item(j) / (2.0 * eta.item(j)), C - a_i, a_j)
            a_i = C if t == C - a_i else a_i + t
            a_j = 0.0 if t == a_j else a_j - t
            a[i], a[j] = a_i, a_j
            up[i], pos[i] = 0.0 if a_i < C else math.inf, 0.0 if a_i > 0.0 else -math.inf
            up[j], pos[j] = 0.0 if a_j < C else math.inf, 0.0 if a_j > 0.0 else -math.inf
            V[idx[j]].take(ia, out=K_j, mode="clip")
            np.subtract(K_i, K_j, out=K_j)
            K_j *= 2.0 * t
            G += K_j
            steps += 1
            it += 1
            if free_i == (0.0 < a_i < C) and free_j == (0.0 < a_j < C):
                settled += 1
            else:
                settled = 0
            if settled == _SETTLE and it < max_iters:
                # the free set has settled: one exact step on its face
                step = _face_step(V, ia, a, G, C)
                if step is not None:
                    rows_F, delta, kept = step
                    G += 2.0 * (delta @ rows_F)
                    up, pos = _RISE.take(a < C), _FALL.take(a > 0.0)
                    it += 1
                    if not kept:
                        settled = 0  # a new free set, with a face step of its own
        if steps:
            # a fresh K @ a, so drift in the incremental gradient can slow the
            # loop but never certify a wrong point
            Kw = _gram_dot(V, ia, a)
        elif certify:
            # an empty block after a certificate leaves the weights it did
            # not certify: the solve has stalled
            break
        certify = True

    reason = "iteration cap hit" if it >= max_iters else "stalled"
    raise ConvergenceError(
        f"no convergence after {it} iterations, {reason} (gap {best_gap:.3e})", best_gap
    )


def _column(V, Kw, quad) -> np.ndarray:
    """The squared distances max(diag - 2 Kw + quad, 0), formed in place in
    ``Kw``: (-2 Kw + diag) + quad has the same bits, signed zeros included."""
    Kw *= -2.0
    Kw += V.diagonal()
    Kw += quad
    return np.maximum(Kw, 0.0, out=Kw)


def _gram_dot(V, ia, a) -> np.ndarray:
    """V @ w for the length-n weights w that put ``a`` on the points ``ia``,
    from the rows of the symmetric Gram matrix V at the nonzero weights."""
    s = a.nonzero()[0]
    return a[s] @ V[ia[s]]


def _start(V, ia, q, C, warm_alpha) -> np.ndarray:
    """Starting weights on {a : sum a = 1, 0 <= a_i <= C}, as a fresh array.

    A warm start is used as given when it has the right length and lies on
    the capped simplex; any other warm start is ignored.  The cold start is
    the vertex with weight C on the k = floor(1/C) members farthest from the
    member centroid, ranked by K_ii - 2 (K 1/m)_i with ties broken stably,
    and the remainder 1 - kC on the next one; it is all C when m is at most
    `capacity` (C * m = 1 within 1e-12).
    The member sums K 1/m come from one product of the Gram matrix V with
    the member indicator, so no member block is built.
    """
    m = q.size
    if warm_alpha is not None:
        w = np.array(warm_alpha, dtype=float)
        # a NaN is the minimum and the maximum that argmin and argmax find,
        # and fails both bound tests; an infinite entry fails one of them
        if (w.shape == (m,) and w.item(w.argmin()) >= 0.0 and w.item(w.argmax()) <= C
                and abs(w.sum() - 1.0) <= _SUM_TOL):
            return w
    if m <= capacity(C):
        return np.full(m, C)
    w = np.zeros(V.shape[0])
    w[ia] = 1.0 / m
    far = q - 2.0 * (V @ w)[ia]
    order = np.argsort(-far, kind="stable")
    # int(1/C) can fall one short of capacity(C): for the heuristic's
    # C = 1/(0.1 * 930) it is 92 against 93.  Either vertex is feasible, but
    # the start fixes a solve's path, so the count stays.  m above
    # capacity(C) leaves k < m, so the remainder has a member to go on
    k = int(1.0 / C)
    a = np.zeros(m)
    a[order[:k]] = C
    a[order[k]] = max(1.0 - k * C, 0.0)
    return a


def _face_step(V, ia, a, G, C):
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
    Updates ``a`` in place and returns the Gram rows of F at the members and
    the a_F change, for the caller's gradient, and whether every weight of F
    is still free.
    """
    F = ((a > 0.0) & (a < C)).nonzero()[0]
    f = F.size
    if f < 2:
        return None
    # column-major, as this gather leaves it: the products below take their
    # order of summation from that layout
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
    if not np.isfinite(d).all():
        return None
    a_F = a[F]
    # the room to the bound each component moves toward: (C - a_F) / d, or
    # -a_F / d = a_F / |d|.  A zero component divides by 0 and a tiny one
    # overflows, both to inf, so neither sets a bound
    with np.errstate(over="ignore", divide="ignore"):
        room = np.where(d > 0.0, C - a_F, a_F) / np.abs(d)
    k = int(room.argmin())
    step = room.item(k)
    new = a_F + min(step, 1.0) * d
    if step < 1.0:
        new[k] = C if d.item(k) > 0.0 else 0.0
    np.minimum(np.maximum(new, 0.0, out=new), C, out=new)
    delta = new - a_F
    # dual gain of the step, on the face: -(G_F' delta + delta' K_FF delta)
    if not float(G_F @ delta + delta @ K_FF @ delta) < 0.0:
        return None
    a[F] = new
    # a weight's distance to its nearer bound is 0 unless it is free
    slack = np.minimum(new, C - new)
    kept = slack.item(slack.argmin()) > 0.0
    s = int(slack.argmax())
    if slack.item(s) > 0.0:
        s = F[s]
        a[s] = min(max(a[s] + (1.0 - a.sum()), 0.0), C)
        delta = a[F] - a_F
    return rows_F, delta, kept


def _certified(members, a, column, d2, k, C, dual, quad, iters, xi):
    """The certificate of weights ``a`` of dual value ``dual``, whose
    members' distances ``d2`` are their entries of ``column``: the radius at
    rank ``k`` (`_radius`, with the errors in ``xi``), the primal value and
    the gap.  Returns the sphere and the gap when the gap is within the
    default tolerance, with ``a`` clipped into [0, C] in place against
    rounding; None and the gap otherwise."""
    R = _radius(d2, k, xi)
    primal = R + C * float(xi.sum())
    gap = max(primal - dual, 0.0)
    if gap > DEFAULT_TOLS.duality_gap:
        return None, gap
    np.maximum(a, 0.0, out=a)
    np.minimum(a, C, out=a)
    return _assemble(members, a, column, R, primal, C, dual, quad, gap, iters), gap


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


def grow_certified(parent: SvddSolution, members: tuple, alpha) -> SvddSolution | None:
    """The sphere on ``members`` if ``parent`` certifies it, where ``members``
    is ``parent.members`` with one point inserted, and ``alpha`` the parent's
    weights with a 0 in that point's slot.

    Those weights keep the parent's dual value and center, so the grown
    sphere's distances are the parent's column at its members, and a
    solve's certificate (`_certified`) takes the radius, the value and the
    gap from them.  Returns the grown sphere, with
    ``alpha`` as its weights, 0 iterations and the parent's column object,
    when the gap is within the default tolerance (the one every sphere solve
    of the search uses); None otherwise.  The parent must not collapse
    (C * |S| >= 1): a zero-radius parent's weights exceed the cap.
    """
    C, column, m = parent.C, parent.column, len(members)
    return _certified(members, alpha, column, column[np.array(members)], _rank(m, C), C,
                      parent.dual_objective, parent.alpha_quad, 0, np.empty(m))[0]


def zero_radius_sphere(gram_matrix: GramMatrix, members, C: float) -> SvddSolution:
    """Degenerate sphere at the feature centroid with radius zero.

    This is the optimum of the radius-floored subproblem min R + C*sum(xi),
    R >= 0 when C * |S| < 1 (the penalty slope is then positive everywhere, so
    the radius collapses and the best center is the centroid).  The capped
    simplex bound on alpha does not apply in this regime; alpha is uniform,
    and the column comes from the mean of the members' Gram rows.  Raises
    InputError unless 0 < C < inf.
    """
    if not 0.0 < C < math.inf:
        raise InputError(f"C must be a finite number > 0, got {C!r}")
    idx = _as_member_tuple(members, gram_matrix.n)
    m = len(idx)
    ia = np.asarray(idx)
    V = gram_matrix.values
    a = np.full(m, 1.0 / m)
    Kw = a @ V[ia]
    quad = float(a @ Kw[ia])
    column = _column(V, Kw, quad)
    # radius zero: every distance is an error, and the value is its own dual;
    # rank 0 partitions nothing, so the errors may overwrite the distances
    xi = column[ia]
    R = _radius(xi, 0, xi)
    penalty = C * float(xi.sum())
    return _assemble(idx, a, column, R, R + penalty, C, penalty, quad, 0.0, 0)
