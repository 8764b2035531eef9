import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import msvdd.svdd
from msvdd.errors import ConvergenceError, InfeasibleSubproblemError, InputError
from msvdd.exact import MsvddProblem, solve_exact
from msvdd.experiments import ExperimentConfig
from msvdd.heuristic import HeuristicConfig, solve_heuristic
from msvdd.kernels import LINEAR, GramMatrix, gram, rbf
from msvdd.solution import min_members
from msvdd.svdd import (
    _SUM_TOL,
    DEFAULT_TOLS,
    SvddSolution,
    capacity,
    collapses,
    _rank,
    _start,
    grow_certified,
    project_capped_simplex,
    recover_radius,
    solve_svdd,
    zero_radius_sphere,
)
from oracles import (
    recover_radius_sorted,
    sphere_distances_sq_columns,
    svdd_1d_brute_force,
    svdd_objective_monotone_check,
)


def linear_gram(points):
    return gram(LINEAR, np.atleast_2d(np.asarray(points, dtype=float)))


class TestProjection:
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_feasible_output(self, seed):
        r = np.random.default_rng(seed)
        m = int(r.integers(1, 40))
        cap = float(r.uniform(1.0 / m, 2.0))
        v = r.normal(scale=float(r.uniform(0.01, 50.0)), size=m)
        a = project_capped_simplex(v, cap)
        assert abs(a.sum() - 1.0) <= 1e-9
        assert a.min() >= -1e-12
        assert a.max() <= cap + 1e-12

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_idempotent(self, seed):
        r = np.random.default_rng(seed)
        m = int(r.integers(1, 20))
        cap = float(r.uniform(1.0 / m, 2.0))
        a = project_capped_simplex(r.normal(size=m), cap)
        again = project_capped_simplex(a, cap)
        assert np.allclose(a, again, atol=1e-9)

    def test_single_feasible_point(self):
        # cap * m == 1 forces the all-cap vector
        a = project_capped_simplex(np.array([9.0, -4.0]), 0.5)
        assert np.array_equal(a, [0.5, 0.5])

    def test_empty_capped_simplex(self):
        with pytest.raises(InfeasibleSubproblemError):
            project_capped_simplex(np.array([1.0, 2.0]), 0.4)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_optimality_via_kkt(self, seed):
        # projection KKT: there is a shift tau with a = clip(v - tau, 0, cap)
        r = np.random.default_rng(seed)
        m = int(r.integers(2, 15))
        cap = float(r.uniform(1.0 / m, 1.5))
        v = r.normal(size=m)
        a = project_capped_simplex(v, cap)
        interior = (a > 1e-12) & (a < cap - 1e-12)
        if interior.any():
            taus = (v - a)[interior]
            tau = taus.mean()
            assert np.allclose(taus, tau, atol=1e-8)
            assert np.all(v[a <= 1e-12] - tau <= 1e-8)
            assert np.all(v[a >= cap - 1e-12] - tau >= cap - 1e-8)


class TestRecoverRadius:
    def test_three_equal_distances(self):
        R, xi = recover_radius([4.0, 4.0, 4.0], 1.0)
        assert R == 4.0
        assert np.array_equal(xi, [0.0, 0.0, 0.0])

    def test_tie_prefers_smallest_radius(self):
        # C * n == 1: cost is flat, so the degenerate R = 0 answer wins
        R, xi = recover_radius([9.0], 1.0)
        assert R == 0.0
        assert np.array_equal(xi, [9.0])

    def test_middle_breakpoint(self):
        R, xi = recover_radius([1.0, 100.0], 0.6)
        assert R == 1.0
        assert np.allclose(xi, [0.0, 99.0])

    def test_infeasible_penalty(self):
        with pytest.raises(InputError):
            recover_radius([1.0, 2.0], 0.3)

    @pytest.mark.parametrize("C", [math.inf, math.nan])
    def test_non_finite_penalty(self, C):
        with pytest.raises(InputError):
            recover_radius([1.0, 2.0], C)

    @given(
        st.integers(min_value=1, max_value=300),
        st.sampled_from(["one_over_n", "just_above", "uniform"]),
        st.booleans(),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_matches_the_sorted_reference(self, n, c_kind, tied, seed):
        # bit-identical to a full sort and a scan of every slope, at the
        # edges of the slope test: C * n = 1 and C just above 1/n
        r = np.random.default_rng(seed)
        C = {
            "one_over_n": 1.0 / n,
            "just_above": np.nextafter(1.0 / n, np.inf),
            "uniform": float(r.uniform(1.0 / n, 2.0)),
        }[c_kind]
        if tied:
            d2 = r.integers(0, 4, size=n).astype(float) * 0.5
        else:
            d2 = r.exponential(size=n)
        R, xi = recover_radius(d2, C)
        R_ref, xi_ref = recover_radius_sorted(d2, C)
        assert R == R_ref
        assert np.array_equal(xi, xi_ref)

    @given(st.data(), st.integers(min_value=1, max_value=300),
           st.floats(min_value=-1e-13, max_value=1e-13))
    def test_rank_matches_the_slope_scan(self, data, n, delta):
        # a solve takes the rank once; at C near 1/k the 1e-12 slope test
        # decides it, and the distances 1..n make the radius equal the rank
        k = data.draw(st.integers(min_value=1, max_value=n))
        C = 1.0 / k + delta
        if C <= 0.0 or msvdd.svdd.collapses(C, n):
            return
        d2 = np.arange(1.0, n + 1.0)
        assert _rank(n, C) == recover_radius_sorted(d2, C)[0]
        assert _rank(n, C) == recover_radius(d2, C)[0]

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_minimizes_cost(self, seed):
        r = np.random.default_rng(seed)
        n = int(r.integers(1, 12))
        C = float(r.uniform(1.0 / n, 2.0))
        d2 = r.uniform(0.0, 10.0, size=n)
        R, xi = recover_radius(d2, C)
        got = R + C * xi.sum()
        # scan all breakpoints and 0: the convex piecewise-linear minimum
        candidates = np.concatenate([[0.0], d2])
        best = min(c + C * np.maximum(0.0, d2 - c).sum() for c in candidates)
        assert got == pytest.approx(best, abs=1e-10)
        # smallest minimizer: any strictly smaller R must cost strictly more
        for c in candidates:
            if c < R - 1e-12:
                assert c + C * np.maximum(0.0, d2 - c).sum() > got + 1e-12


def ulps_from(x, steps):
    """``x`` moved ``steps`` floats up (or down, for negative ``steps``)."""
    for _ in range(abs(steps)):
        x = np.nextafter(x, math.copysign(math.inf, steps))
    return float(x)


# penalties at C = 1/k and a few ulps around it, and the heuristic's
# per-cluster C_k = 1/(nu * N) over the default nu grid
PENALTIES = st.one_of(
    st.builds(lambda k, steps: ulps_from(1.0 / k, steps),
              st.integers(min_value=1, max_value=200), st.integers(min_value=-4, max_value=4)),
    st.builds(lambda nu, N: 1.0 / (nu * N),
              st.sampled_from(ExperimentConfig.nu_grid), st.integers(min_value=1, max_value=1000)),
)


class TestCapacity:
    @given(PENALTIES)
    @example(1.0 / (0.1 * 930))  # int(1/C) = 92, one below
    def test_is_the_last_count_the_cap_test_passes(self, C):
        fits = [t for t in range(int(2.0 / C) + 3) if 1.0 - C * t >= -1e-12]
        assert capacity(C) == max(fits)

    @given(PENALTIES, st.integers(min_value=0, max_value=450))
    def test_rank_matches_the_brute_force_slope_scan(self, C, n):
        # the first k whose slope 1 - C * (n - k) is nonnegative within 1e-12
        assert _rank(n, C) == next(k for k in range(n + 1) if 1.0 - C * (n - k) >= -1e-12)

    @given(PENALTIES)
    def test_floor_is_capacity_or_one_more(self, C):
        assert min_members(C, True) - capacity(C) in (0, 1)

    @given(PENALTIES, st.integers(min_value=1, max_value=40))
    @example(1.0 / (0.1 * 930), 1)
    def test_cold_start_vertex_lies_on_the_capped_simplex(self, C, extra):
        # more members than capacity(C), so the start is the far-point vertex
        V = gram(LINEAR, np.random.default_rng(7).normal(size=(256, 2))).values
        ia = np.arange(capacity(C) + extra)
        a = _start(V, ia, V.diagonal()[ia], C, None)
        assert a.min() >= 0.0 and a.max() <= C
        assert abs(a.sum() - 1.0) <= _SUM_TOL


def random_instance(seed):
    r = np.random.default_rng(seed)
    n = int(r.integers(1, 30))
    C = float(r.uniform(1.0 / n, 1.5))
    pts = r.normal(scale=2.0, size=(n, 2))
    spec = rbf(float(r.uniform(0.1, 2.0))) if r.random() < 0.4 else LINEAR
    return r, gram(spec, pts), n, C


class TestSolveSvdd:
    def test_single_point(self):
        g = linear_gram([[3.0, 1.0]])
        sol = solve_svdd(g, [0], 1.5)
        assert np.array_equal(sol.alpha, [1.0])
        assert sol.radius_sq == 0.0
        assert sol.objective == 0.0
        warm = solve_svdd(g, [0], 1.5, warm_alpha=[0.3])
        assert np.array_equal(warm.alpha, [1.0])
        assert warm.gap == 0.0
        assert warm.iterations == 0

    def test_two_identical_points(self):
        g = linear_gram([[2.0], [2.0]])
        sol = solve_svdd(g, [0, 1], 1.0)
        assert sol.radius_sq == pytest.approx(0.0, abs=1e-10)
        assert sol.objective == pytest.approx(0.0, abs=1e-10)

    def test_matches_1d_brute_force(self):
        xs = [0.0, 1.0, 10.0]
        oracle = svdd_1d_brute_force(xs, 0.4)
        assert oracle == pytest.approx(22.56, abs=1e-3)
        sol = solve_svdd(linear_gram([[x] for x in xs]), [0, 1, 2], 0.4)
        assert sol.objective == pytest.approx(oracle, abs=1e-4)

    def test_infeasible_member_count(self):
        g = linear_gram([[0.0], [1.0]])
        with pytest.raises(InfeasibleSubproblemError):
            solve_svdd(g, [0, 1], 0.3)

    @pytest.mark.parametrize("members", [[-1, 0, 1], [0, 1, 3]])
    def test_member_index_out_of_range(self, members):
        g = linear_gram([[0.0], [1.0], [2.0]])
        with pytest.raises(InputError):
            solve_svdd(g, members, 0.5)
        with pytest.raises(InputError):
            zero_radius_sphere(g, members, 0.1)

    @pytest.mark.parametrize("entry", [solve_svdd, zero_radius_sphere],
                             ids=["solve", "zero_radius"])
    @pytest.mark.parametrize("C", [math.inf, math.nan, 0.0, -1.0])
    def test_bad_penalty_is_refused(self, entry, C):
        # refused where the sphere starts: an infinite C ran a solve to its
        # iteration cap, and the centroid priced its errors at any C
        g = linear_gram([[float(i)] for i in range(10)])
        with pytest.raises(InputError, match="C must be"):
            entry(g, range(10), C)

    def test_iteration_cap_carries_best_iterate(self, rng, monkeypatch):
        pts = rng.normal(size=(12, 2))
        g = gram(LINEAR, pts)
        # an instance the cold start does not solve within one pair step
        assert solve_svdd(g, range(12), 0.5).iterations > 1
        monkeypatch.setattr(msvdd.svdd, "MAX_ITERATIONS", 1)
        with pytest.raises(ConvergenceError) as err:
            solve_svdd(g, range(12), 0.5)
        assert err.value.gap > DEFAULT_TOLS.duality_gap

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_warm_start_agrees_with_cold(self, seed):
        r, g, n, C = random_instance(seed)
        cold = solve_svdd(g, range(n), C)
        warm = solve_svdd(g, range(n), C, warm_alpha=r.dirichlet(np.ones(n)))
        assert warm.objective == pytest.approx(cold.objective, abs=1e-7)
        # the uniform weight is feasible, since C * n >= 1
        uniform = solve_svdd(g, range(n), C, warm_alpha=np.full(n, 1.0 / n))
        assert uniform.objective == pytest.approx(cold.objective, abs=1e-7)

    @given(st.integers(min_value=0, max_value=2**31 - 1), st.booleans())
    def test_solution_contract(self, seed, capped):
        r = np.random.default_rng(seed)
        n = int(r.integers(1, 14))
        C = float(r.uniform(1.0 / n, 1.5))
        pts = r.normal(scale=2.0, size=(n, 2))
        spec = rbf(float(r.uniform(0.1, 2.0))) if r.random() < 0.4 else LINEAR
        if capped:
            # the capacity(C) points of a capped solve, every weight at C
            n = capacity(C)
            if collapses(C, n):
                return
            pts = pts[:n]
        sol = solve_svdd(gram(spec, pts), range(n), C)
        if capped:
            assert np.array_equal(sol.alpha, np.full(n, C))
            assert sol.iterations == 0
        assert abs(sol.alpha.sum() - 1.0) <= 1e-8
        assert sol.alpha.min() >= 0.0
        assert sol.alpha.max() <= C + 1e-10
        assert sol.objective == pytest.approx(
            sol.radius_sq + C * sol.errors.sum(), abs=1e-8
        )
        assert np.allclose(sol.errors, recover_radius(sol.distances_sq, C)[1], atol=1e-7)
        # strong duality at the reported tolerance
        assert abs(sol.dual_objective - sol.objective) <= 1e-6
        assert 0.0 <= sol.gap <= DEFAULT_TOLS.duality_gap
        assert sol.objective - sol.dual_objective <= DEFAULT_TOLS.duality_gap
        # weak duality, up to the rounding of the two sums
        assert sol.dual_objective <= sol.objective + 1e-12 * max(1.0, sol.objective)
        # KKT complementarity
        inside = sol.distances_sq < sol.radius_sq - 1e-6
        outside = sol.distances_sq > sol.radius_sq + 1e-6
        assert np.all(sol.alpha[inside] <= 1e-6)
        assert np.all(sol.alpha[outside] >= C - 1e-6)
        # strict outliers sit at the cap, so their count is at most 1/C
        assert int(outside.sum()) <= math.floor(1.0 / C)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_radius_is_recovered_from_the_distances(self, seed):
        # the certificate gives the radius, errors and objective, bit for
        # bit, that recover_radius gives for the sphere's own distances:
        # cold, warm, capped and grown; a zero-radius sphere has R = 0 and
        # its distances as errors
        r, g, n, C = random_instance(seed)
        sols = [solve_svdd(g, range(n), C),
                solve_svdd(g, range(n), C, warm_alpha=r.dirichlet(np.ones(n)))]
        capped = capped_solve(g, n, C)
        if isinstance(capped, SvddSolution):
            sols.append(capped)
        m = int(r.integers(1, n + 1))
        if m < n and not collapses(C, m):
            # the first m points grown in their last slot by each later point
            parent = solve_svdd(g, range(m), C)
            grown = [grow_certified(parent, (*range(m), i), np.append(parent.alpha, 0.0))
                     for i in range(m, n)]
            sols += [sol for sol in grown if sol is not None]
        zero = min(n, math.ceil(1.0 / C) - 1)
        if zero >= 1 and collapses(C, zero):
            sols.append(zero_radius_sphere(g, r.choice(n, size=zero, replace=False), C))
        for sol in sols:
            if collapses(C, len(sol.members)):
                R, xi = 0.0, sol.distances_sq
                assert np.array_equal(sol.errors, xi)
            else:
                R, xi = recover_radius(sol.distances_sq, C)
                assert sol.errors.tobytes() == xi.tobytes()
            assert sol.radius_sq.hex() == R.hex()
            assert sol.objective.hex() == (R + C * float(xi.sum())).hex()

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_member_subset_matches_its_own_gram(self, seed):
        # a solve reads the shared Gram matrix through the member indices;
        # the members' own Gram block, solved over range(m), is the reference
        r = np.random.default_rng(seed)
        n = int(r.integers(2, 40))
        pts = r.normal(scale=2.0, size=(n, 2))
        spec = rbf(float(r.uniform(0.1, 2.0))) if r.random() < 0.5 else LINEAR
        g = gram(spec, pts)
        m = int(r.integers(1, n + 1))
        members = np.sort(r.choice(n, size=m, replace=False))
        C = float(r.uniform(1.0 / m, 1.5))
        own = GramMatrix(g.values[np.ix_(members, members)], spec)
        pairs = [(solve_svdd(g, members, C), solve_svdd(own, range(m), C))]
        if C * (m - 1) >= 1.0:
            # branch-style warm start: the parent's weights plus a 0
            parent = solve_svdd(g, members[:-1], C)
            own_parent = solve_svdd(own, range(m - 1), C)
            pairs.append((
                solve_svdd(g, members, C, warm_alpha=np.append(parent.alpha, 0.0)),
                solve_svdd(own, range(m), C, warm_alpha=np.append(own_parent.alpha, 0.0)),
            ))
        for sub, ref in pairs:
            assert sub.members == tuple(members.tolist())
            assert sub.gap <= DEFAULT_TOLS.duality_gap
            assert sub.objective == pytest.approx(ref.objective, abs=DEFAULT_TOLS.objective)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_scale_equivariance(self, seed):
        r = np.random.default_rng(seed)
        n = int(r.integers(2, 10))
        pts = r.normal(size=(n, 2))
        t = float(r.uniform(0.3, 4.0))
        base = solve_svdd(gram(LINEAR, pts), range(n), 0.8)
        scaled = solve_svdd(gram(LINEAR, t * pts), range(n), 0.8)
        assert scaled.objective == pytest.approx(
            t * t * base.objective, rel=1e-6, abs=1e-6
        )


# a start on the capped simplex at C = 0.3 with weights at exactly C and 0
EDGE_START = np.array([0.3, 0.3, 0.3, 0.1, 0.0, 0.0, 0.0, 0.0, 0.0])


def sum_edge(w, i, direction):
    """``w`` with ``w[i]`` moved in ``direction`` to the last float at which
    the weights still sum to 1 within the warm-start slack, and ``w`` with
    ``w[i]`` at the next float, past it."""
    tol = msvdd.svdd._SUM_TOL
    inside, outside = w[i], w[i] + 2.0 * direction * tol

    def at(x):
        v = w.copy()
        v[i] = x
        return v

    while True:
        mid = (inside + outside) / 2.0
        if mid in (inside, outside):
            return at(inside), at(outside)
        if abs(at(mid).sum() - 1.0) <= tol:
            inside = mid
        else:
            outside = mid


class TestSmoCases:
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_duplicated_points_double_the_penalty(self, seed):
        # two copies of every point at C cost what one copy costs at 2C
        r = np.random.default_rng(seed)
        n = int(r.integers(1, 10))
        C = float(r.uniform(1.0 / (2 * n), 1.0))
        pts = r.normal(size=(n, 2))
        spec = rbf(float(r.uniform(0.2, 2.0))) if r.random() < 0.4 else LINEAR
        doubled = solve_svdd(gram(spec, np.vstack([pts, pts])), range(2 * n), C)
        single = solve_svdd(gram(spec, pts), range(n), 2.0 * C)
        assert doubled.gap <= DEFAULT_TOLS.duality_gap
        assert doubled.objective == pytest.approx(
            single.objective, abs=DEFAULT_TOLS.objective
        )

    def test_every_weight_at_the_cap(self, rng):
        # C * |S| == 1: the capped simplex is the single point a = C, so the
        # solve certifies its start and takes no step
        pts = rng.normal(size=(4, 2))
        g = gram(LINEAR, pts)
        sol = solve_svdd(g, range(4), 0.25)
        assert np.array_equal(sol.alpha, np.full(4, 0.25))
        assert sol.radius_sq == 0.0
        assert sol.gap <= DEFAULT_TOLS.duality_gap
        assert sol.iterations == 0
        centroid = zero_radius_sphere(g, range(4), 0.25)
        assert sol.objective == pytest.approx(centroid.objective, abs=1e-12)

    @pytest.mark.parametrize("warm", [
        # wrong length or a non-finite entry
        [0.5, 0.5], np.full(9, np.nan), [np.inf] + [0.0] * 8,
        # off the capped simplex at C = 0.3: sum 2, a weight above C, negative weights
        np.full(9, 1.0 / 9.0) * 2.0, np.eye(9)[0], -np.arange(9.0),
        # EDGE_START with a NaN, an infinity, or a weight one float outside
        # the box in place of one of its weights
        *(np.r_[EDGE_START[:8], x] for x in (np.nan, np.inf, -np.inf, -5e-324)),
        np.r_[np.nextafter(0.3, 1.0), EDGE_START[1:]],
    ])
    def test_unusable_warm_start_falls_back_to_cold(self, warm, rng, monkeypatch):
        g = gram(LINEAR, rng.normal(size=(9, 2)))
        cold = solve_svdd(g, range(9), 0.3)
        projections = count_projections(monkeypatch)
        given = np.array(warm, dtype=float)
        sol = solve_svdd(g, range(9), 0.3, warm_alpha=warm)
        assert projections == []
        assert bits(sol) == bits(cold)
        np.testing.assert_array_equal(warm, given)

    @pytest.mark.parametrize("edge", ["bounds", "sum-above", "sum-below"])
    def test_warm_start_on_the_edge_of_the_capped_simplex_is_used(self, edge, rng):
        # weights at exactly 0 and C, and a sum at either end of the slack,
        # are used as given; a sum one float past the slack starts cold
        V = gram(LINEAR, rng.normal(size=(9, 2))).values
        ia = np.arange(9)
        used, refused = EDGE_START, None
        if edge != "bounds":
            used, refused = sum_edge(EDGE_START, 3, 1.0 if edge == "sum-above" else -1.0)
            assert abs(refused.sum() - 1.0) > msvdd.svdd._SUM_TOL
        a = _start(V, ia, V.diagonal()[ia], 0.3, used)
        assert a is not used and a.tobytes() == used.tobytes()
        if refused is not None:
            a = _start(V, ia, V.diagonal()[ia], 0.3, refused)
            assert a.tobytes() == _start(V, ia, V.diagonal()[ia], 0.3, None).tobytes()

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @example(2**31 - 1)
    def test_all_C_cold_and_warm_starts_certify_with_the_same_bits(self, seed):
        # a cold solve of capacity(C) members starts with every weight at C,
        # as a warm start at those weights does: each takes no step in its
        # first block and returns at, or fails with the gap of, the
        # certificate of that start, with 0 iterations
        r, g, n, C = random_instance(seed)
        if r.random() < 0.5:
            # C at or one float beside 1/k, where capacity and collapses turn
            C = float(np.nextafter(1.0 / int(r.integers(1, n + 1)), r.choice([0.0, 1.0, 2.0])))
        capped = capped_solve(g, n, C)
        if capped is None:
            return
        m = capacity(C)
        try:
            loop = solve_svdd(g, range(m), C, warm_alpha=np.full(m, C))
        except ConvergenceError as exc:
            loop = exc
        if isinstance(capped, ConvergenceError):
            assert isinstance(loop, ConvergenceError)
            assert capped.gap == loop.gap
            return
        assert bits(capped) == bits(loop)
        assert capped.iterations == 0
        assert np.array_equal(capped.alpha, np.full(m, C))

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_branch_style_warm_start(self, seed):
        # the search seeds a child sphere with its parent's weights plus a 0
        r, g, n, C = random_instance(seed)
        if n < 2 or C * (n - 1) < 1.0:
            return
        parent = solve_svdd(g, range(n - 1), C)
        warm = solve_svdd(g, range(n), C, warm_alpha=np.append(parent.alpha, 0.0))
        cold = solve_svdd(g, range(n), C)
        assert warm.objective == pytest.approx(cold.objective, abs=DEFAULT_TOLS.objective)
        assert warm.objective >= parent.objective - DEFAULT_TOLS.objective


def capped_solve(g, n, C):
    """The cold solve of the first capacity(C) points, whose weights all sit
    at C; the ConvergenceError it raises; or None if those points collapse
    or number more than ``n``."""
    m = capacity(C)
    if m > n or collapses(C, m):
        return None
    try:
        return solve_svdd(g, range(m), C)
    except ConvergenceError as exc:
        return exc


def bits(sol):
    """Every field of a sphere, with floats and arrays as their exact bits."""
    out = []
    for f in dataclasses.fields(sol):
        v = getattr(sol, f.name)
        out.append(v.tobytes() if isinstance(v, np.ndarray) else v.hex() if isinstance(v, float) else v)
    return out


def cold_start(g, n, C):
    """The weights a cold solve of all ``n`` points starts from."""
    K = g.values
    return _start(K, np.arange(n), np.diag(K).copy(), C, None)


def count_projections(monkeypatch):
    calls = []

    def counting(v, cap):
        calls.append(cap)
        return project_capped_simplex(v, cap)

    monkeypatch.setattr(msvdd.svdd, "project_capped_simplex", counting)
    return calls


class TestStart:
    @pytest.mark.parametrize(
        "n, C", [(12, 0.1), (12, 0.25), (12, 0.3), (12, 1 / 3), (12, 1.0),
                 (12, 2.0), (10, 0.1), (4, 0.25)]
    )
    def test_cold_start_is_far_point_vertex(self, n, C, rng, monkeypatch):
        projections = count_projections(monkeypatch)
        g = gram(LINEAR, rng.normal(size=(n, 2)))
        a = cold_start(g, n, C)
        assert projections == []
        assert abs(a.sum() - 1.0) <= 1e-12
        assert a.min() >= 0.0 and a.max() <= C
        k = min(math.floor(1.0 / C), n)
        K = g.values
        far = np.diag(K) - 2.0 * K.mean(axis=1)
        farthest = np.argsort(-far, kind="stable")
        assert np.array_equal(np.flatnonzero(a == C), np.sort(farthest[:k]))
        assert np.count_nonzero(a) <= k + 1
        if k < n:
            assert a[farthest[k]] == pytest.approx(1.0 - k * C, abs=1e-15)

    @pytest.mark.parametrize("spec", [LINEAR, rbf(0.5)], ids=["linear", "rbf"])
    def test_cold_start_of_a_member_subset(self, spec, rng):
        # the member sums come from the shared Gram matrix at the members
        g = gram(spec, rng.normal(size=(30, 2)))
        ia = np.sort(rng.choice(30, size=12, replace=False))
        own = GramMatrix(g.values[np.ix_(ia, ia)], spec)
        a = _start(g.values, ia, np.diag(g.values)[ia], 0.2, None)
        assert np.array_equal(a, cold_start(own, 12, 0.2))

    def test_optimal_feasible_warm_start_takes_no_step(self, rng, monkeypatch):
        # at a solve's own certified weights the first block takes no step,
        # so the start is certified and returned as the solve returned it
        projections = count_projections(monkeypatch)
        for spec in (rbf(1.0), LINEAR):
            g = gram(spec, rng.normal(size=(20, 2)))
            sol = solve_svdd(g, range(20), 0.2)
            assert sol.iterations > 0
            again = solve_svdd(g, range(20), 0.2, warm_alpha=sol.alpha)
            assert again.iterations == 0
            assert bits(again) == bits(dataclasses.replace(sol, iterations=0))
        assert projections == []

    def test_a_start_is_certified_only_where_the_solve_can_return(self, monkeypatch):
        # one pair step solves both: each solve takes one certificate, after
        # the step, and none at its start
        radius = msvdd.svdd._radius
        calls = []
        monkeypatch.setattr(msvdd.svdd, "_radius", lambda *args: calls.append(1) or radius(*args))
        for seed, n, warm in ((1, 13, False), (14, 9, True)):
            r = np.random.default_rng(seed)
            assert int(r.integers(8, 20)) == n
            g = gram(LINEAR, r.normal(size=(n, 2)))
            start = np.append(solve_svdd(g, range(n - 1), 0.25).alpha, 0.0) if warm else None
            calls.clear()
            sol = solve_svdd(g, range(n), 0.25, warm_alpha=start)
            assert sol.iterations == 1 and sol.gap <= DEFAULT_TOLS.duality_gap
            assert len(calls) == 1

    def test_large_linear_cold_solve_takes_few_steps(self):
        # a uniform start spends about one step per interior point
        m = 300
        pts = np.random.default_rng(5).normal(size=(m, 2))
        sol = solve_svdd(gram(LINEAR, pts), range(m), 1.0 / 30.0)
        assert sol.iterations < m / 2


def degenerate_instance(seed, scale=1.0):
    """Points with duplicates or on a line, scaled by 10^k for k in [-3, 3]
    and then by ``scale``.

    Faces with duplicated points, or with more than d + 1 free points under a
    d-dimensional linear kernel, have a singular KKT matrix.
    """
    r = np.random.default_rng(seed)
    n = int(r.integers(2, 25))
    pts = r.normal(size=(n, 2))
    shape = int(r.integers(3))
    if shape == 0:
        pts[n // 2 :] = pts[: n - n // 2]
    elif shape == 1:
        pts = np.outer(r.normal(size=n), r.normal(size=2)) + r.normal(size=2)
    pts *= 10.0 ** int(r.integers(-3, 4))
    pts *= scale
    spec = rbf(float(r.uniform(0.1, 2.0))) if r.random() < 0.4 else LINEAR
    C = float(r.uniform(1.0 / n, 1.0))
    return r, gram(spec, pts), n, C


def free_count(sol):
    """Members whose weight lies strictly between 0 and the cap, up to the
    feasibility tolerance."""
    tol = DEFAULT_TOLS.feasibility
    return int(np.sum((sol.alpha > tol) & (sol.alpha < sol.C - tol)))


def record_face_steps(monkeypatch):
    """Every face step that `solve_svdd` tries, as (pair steps in its block,
    iterations before it, free set it starts from, whether it was accepted,
    whether it left that free set as it found it), read from the solve's
    locals at the call."""
    calls = []
    face = msvdd.svdd._face_step

    def recording(V, ia, a, G, C):
        solve = sys._getframe(1).f_locals
        free = frozenset(np.flatnonzero((a > 0.0) & (a < C)).tolist())
        step = face(V, ia, a, G, C)
        calls.append((solve["steps"], solve["it"], free, step is not None,
                      step is None or step[2]))
        return step

    monkeypatch.setattr(msvdd.svdd, "_face_step", recording)
    return calls


class TestFaceStep:
    def test_warm_child_solve_takes_few_steps(self, monkeypatch):
        # the search seeds a child with its parent's weights plus a 0 for
        # the new point; pair steps alone spent 160 iterations on this one
        pts = np.random.default_rng(5).normal(size=(30, 2))
        g = gram(rbf(0.5), pts)
        C = 0.1
        parent = solve_svdd(g, range(29), C)
        assert free_count(parent) >= 10
        K, a = g.values, parent.alpha
        outside = K[29, 29] - 2.0 * K[29, :29] @ a + a @ K[:29, :29] @ a
        assert outside > parent.radius_sq
        faces = record_face_steps(monkeypatch)
        child = solve_svdd(g, range(30), C, warm_alpha=np.append(a, 0.0))
        assert free_count(child) >= 10
        assert child.iterations <= 80
        child_faces = faces.copy()
        faces.clear()
        cold = solve_svdd(g, range(30), C)
        assert child.objective == pytest.approx(cold.objective, abs=1e-7)
        # each ends within a few iterations of its last accepted face step;
        # here that step is the last of the child's 6 iterations and of the
        # cold solve's 27
        for sol, taken in ((child, child_faces), (cold, faces)):
            last = max(it for _, it, _, accepted, _ in taken if accepted)
            assert sol.iterations <= last + 3

    def test_warm_child_solve_faces_once_its_new_point_is_free(self, monkeypatch):
        # the first pair step brings the child's new zero-weight point onto
        # the free set; the second leaves that set as it found it, and the
        # face step on it follows and ends the solve
        r = np.random.default_rng(1)
        n = int(r.integers(10, 40))
        pts = r.normal(size=(n, 2))
        C = float(r.choice([0.1, 0.2, 0.3]))
        assert (n, C) == (24, 0.2)
        g = gram(rbf(0.5), pts)
        parent = solve_svdd(g, range(n - 1), C)
        faces = record_face_steps(monkeypatch)
        child = solve_svdd(g, range(n), C, warm_alpha=np.append(parent.alpha, 0.0))
        ((steps, it, free, accepted, kept),) = faces
        assert (steps, it, accepted, kept) == (2, 2, True, True)
        assert n - 1 in free
        assert child.iterations == 3
        assert child.alpha[-1] > 0.0
        cold = solve_svdd(g, range(n), C)
        assert child.objective == pytest.approx(cold.objective, abs=DEFAULT_TOLS.objective)

    @settings(max_examples=60)
    @given(st.integers(min_value=0, max_value=2**31 - 1), st.booleans())
    def test_face_steps_follow_pair_steps_once_per_free_set(self, seed, warm):
        # no face step is taken at a certificate: each follows a pair step
        # of its block.  A free set gets one face step until it changes, and
        # a change that brings it back takes pair steps: at least two after a
        # face step that left the set, and three after one that kept it
        r, g, n, C = random_instance(seed)
        if collapses(C, n) or (warm and collapses(C, n - 1)):
            return
        start = np.append(solve_svdd(g, range(n - 1), C).alpha, 0.0) if warm else None
        with pytest.MonkeyPatch.context() as monkeypatch:
            faces = record_face_steps(monkeypatch)
            try:
                solve_svdd(g, range(n), C, warm_alpha=start)
            except ConvergenceError:
                return
        for steps, *_ in faces:
            assert steps >= 1
        for (_, it0, free0, accepted, kept), (_, it1, free1, _, _) in zip(faces, faces[1:]):
            if free1 == free0:
                assert it1 - it0 - accepted >= (3 if kept else 2)

    # a fixed draw of examples: near the scales where the absolute gap
    # tolerance meets float resolution, instances of this kind can stall
    # (test_absolute_gap_at_float_resolution)
    @settings(derandomize=True)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_singular_faces_and_scales(self, seed):
        r, g, n, C = degenerate_instance(seed)
        uniform = solve_svdd(g, range(n), C, warm_alpha=np.full(n, 1.0 / n))
        sols = [
            solve_svdd(g, range(n), C),
            solve_svdd(g, range(n), C, warm_alpha=r.dirichlet(np.ones(n))),
        ]
        if C * (n - 1) >= 1.0:
            parent = solve_svdd(g, range(n - 1), C)
            sols.append(
                solve_svdd(g, range(n), C, warm_alpha=np.append(parent.alpha, 0.0))
            )
        for sol in [uniform, *sols]:
            assert sol.gap <= DEFAULT_TOLS.duality_gap
            assert abs(sol.alpha.sum() - 1.0) <= 1e-12
            assert sol.alpha.min() >= 0.0 and sol.alpha.max() <= C
        for sol in sols:
            assert sol.objective == pytest.approx(uniform.objective, abs=1e-7)


    @pytest.mark.xfail(raises=ConvergenceError, strict=True)
    def test_absolute_gap_at_float_resolution(self):
        # 21 collinear points near 1e5 give an objective near 2e10, where the
        # absolute 1e-8 gap tolerance is below float resolution: the rounding
        # of the certificate keeps the gap at 3.8e-6 and no pair step is left.
        # A cold solve, so the warm-start path cannot move it
        _, g, n, C = degenerate_instance(638, scale=100.0)
        solve_svdd(g, range(n), C)


class TestSupportGeometry:
    @pytest.mark.parametrize("spec", [LINEAR, rbf(0.5)], ids=["linear", "rbf"])
    def test_distances_match_all_members(self, spec, rng):
        pts = rng.normal(scale=1.5, size=(30, 2))
        g = gram(spec, pts)
        spheres = [
            solve_svdd(g, range(0, 30, 2), 0.2),
            solve_svdd(g, range(1, 30, 2), 0.3),
            zero_radius_sphere(g, range(5), 0.1),
        ]
        K = g.values
        for s in spheres:
            idx = list(s.members)
            quad = s.alpha @ K[np.ix_(idx, idx)] @ s.alpha
            assert s.alpha_quad == pytest.approx(quad, rel=0.0, abs=1e-12)
            # the members' distances are the column at the members
            assert np.array_equal(s.distances_sq, s.column[idx])
        # the column is formed from the support rows alone
        assert np.count_nonzero(spheres[0].alpha) < len(spheres[0].members)
        columns = np.stack([s.column for s in spheres], axis=1)
        full = np.stack(
            [
                np.diag(K) - 2.0 * K[:, list(s.members)] @ s.alpha
                + s.alpha @ K[np.ix_(s.members, s.members)] @ s.alpha
                for s in spheres
            ],
            axis=1,
        )
        assert np.allclose(columns, np.maximum(full, 0.0), rtol=0.0, atol=1e-12)
        if spec is LINEAR:
            # under the linear kernel these are Euclidean distances to the
            # alpha-weighted mean of the members
            centers = np.stack([s.alpha @ pts[list(s.members)] for s in spheres])
            direct = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            assert np.allclose(columns, direct, rtol=0.0, atol=1e-9)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_rows_match_columns(self, seed):
        # support rows stand in for support columns of the symmetric Gram:
        # the column a cold, warm or zero-radius sphere stores matches the
        # oracle, which reads support columns instead
        r = np.random.default_rng(seed)
        n = int(r.integers(4, 40))
        pts = r.normal(size=(n, 2)) * 10.0 ** int(r.integers(-2, 3)) + r.normal(size=2)
        spec = rbf(float(r.uniform(0.1, 2.0))) if r.random() < 0.5 else LINEAR
        g = gram(spec, pts)
        half = n // 2
        first = solve_svdd(g, range(half), float(r.uniform(1.0 / half, 1.0)))
        spheres = [
            first,
            solve_svdd(g, range(half, n), float(r.uniform(1.0 / (n - half), 1.0))),
            solve_svdd(g, range(half + 1), float(r.uniform(1.0 / half, 1.0)),
                       warm_alpha=np.append(first.alpha, 0.0)),
            zero_radius_sphere(g, range(1, n, 2), 1.0 / n),
        ]
        # relative to the largest kernel value, the scale of every term
        scale = np.abs(g.values).max()
        assert np.allclose(
            np.stack([s.column for s in spheres], axis=1),
            sphere_distances_sq_columns(g, spheres), rtol=1e-12, atol=1e-12 * scale,
        )

    @settings(max_examples=30)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_certified_and_search_columns(self, seed):
        # the columns of certified children and of the spheres that the exact
        # and heuristic solvers return match the oracle; n stays small so
        # that the exact search is cheap
        r = np.random.default_rng(seed)
        n = int(r.integers(6, 10))
        pts = r.normal(size=(n, 2)) * 10.0 ** int(r.integers(-2, 3)) + r.normal(size=2)
        spec = rbf(float(r.uniform(0.1, 2.0))) if r.random() < 0.5 else LINEAR
        half = n // 2
        C = float(r.uniform(1.5 / half, 1.0))
        # the last point duplicates the member nearest the center of the
        # first half, so the first half grown by it is certified
        nearest = int(np.argmin(solve_svdd(gram(spec, pts), range(half), C).distances_sq))
        g = gram(spec, np.vstack([pts, pts[nearest]]))
        parent = solve_svdd(g, range(half), C)
        # each point past the first half grows it in the last slot
        weights = np.append(parent.alpha, 0.0)
        grown = (grow_certified(parent, (*parent.members, i), weights) for i in range(half, n + 1))
        certified = [c for c in grown if c]
        assert certified
        assert all(c.column is parent.column for c in certified)
        spheres = [
            *certified,
            *solve_exact(MsvddProblem(gram=g, p=2, C=0.3, seed=0)).spheres,
            *solve_heuristic(g, HeuristicConfig(p=2, nu=0.3, seed=0)).spheres,
        ]
        scale = np.abs(g.values).max()
        assert np.allclose(
            np.stack([s.column for s in spheres], axis=1),
            sphere_distances_sq_columns(g, spheres), rtol=1e-12, atol=1e-12 * scale,
        )


class TestColumnBits:
    @given(st.integers(min_value=0, max_value=2**31 - 1), st.sampled_from(["cold", "warm", "capped"]))
    def test_column_has_the_bits_of_its_formula(self, seed, start):
        # the column is formed in place, and keeps the bits of
        # max(K_ii - 2 (K w)_i + alpha_quad, 0) with K w from the returned
        # weights, taken over their nonzero entries as the solver takes it
        r, g, n, C = random_instance(seed)
        m = max(math.ceil(1.0 / C), int(r.integers(1, n + 1)))
        if start == "capped":
            m = capacity(C)
        members = tuple(sorted(r.choice(n, size=min(m, n), replace=False).tolist()))
        if collapses(C, len(members)):
            return
        warm = None
        if start == "warm" and not collapses(C, len(members) - 1):
            warm = np.append(solve_svdd(g, members[:-1], C).alpha, 0.0)
        try:
            sol = solve_svdd(g, members, C, warm_alpha=warm)
        except ConvergenceError:
            # all at C with C * m just above 1, the start cannot certify
            assert start == "capped"
            return
        V = g.values
        nz = sol.alpha.nonzero()[0]
        Kw = sol.alpha[nz] @ V[np.array(members)[nz]]
        want = np.maximum(V.diagonal() - 2.0 * Kw + sol.alpha_quad, 0.0)
        assert sol.column.tobytes() == want.tobytes()

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_zero_radius_column_has_the_bits_of_its_formula(self, seed):
        r, g, n, _ = random_instance(seed)
        members = np.sort(r.choice(n, size=int(r.integers(1, n + 1)), replace=False))
        sol = zero_radius_sphere(g, members, 0.5 / members.size)
        V = g.values
        a = np.full(members.size, 1.0 / members.size)
        want = np.maximum(V.diagonal() - 2.0 * (a @ V[members]) + sol.alpha_quad, 0.0)
        assert sol.column.tobytes() == want.tobytes()


class TestMonotoneCheck:
    def test_duplicate_point(self):
        g = linear_gram([[1.0, 1.0], [1.0, 1.0]])
        assert svdd_objective_monotone_check(g, [0], 1, 1.0)

    def test_random_1d_instances(self, rng):
        for _ in range(20):
            xs = rng.uniform(-5, 5, size=6)
            g = linear_gram(xs[:, None])
            members = list(rng.choice(6, size=4, replace=False))
            extra = next(i for i in range(6) if i not in members)
            assert svdd_objective_monotone_check(g, members, extra, 1.0)

    def test_far_point_strictly_increases(self):
        g = linear_gram([[0.0], [0.5], [50.0]])
        base = solve_svdd(g, [0, 1], 1.0).objective
        grown = solve_svdd(g, [0, 1, 2], 1.0).objective
        assert svdd_objective_monotone_check(g, [0, 1], 2, 1.0)
        assert grown > base + 1.0

    def test_extra_already_member(self):
        g = linear_gram([[0.0], [1.0]])
        with pytest.raises(InputError):
            svdd_objective_monotone_check(g, [0, 1], 1, 1.0)


class TestZeroRadiusSphere:
    def test_centroid_value(self):
        g = linear_gram([[0.0], [2.0]])
        sol = zero_radius_sphere(g, [0, 1], 0.3)
        assert sol.radius_sq == 0.0
        # centroid at 1.0: both squared distances are 1
        assert sol.objective == pytest.approx(0.6, abs=1e-12)

    def test_lower_bounds_any_superset(self, rng):
        pts = rng.normal(size=(8, 2))
        g = gram(LINEAR, pts)
        C = 0.3
        small = (1, 5)  # C * 2 < 1
        bound = zero_radius_sphere(g, small, C).objective
        for extra in ([0], [0, 2], [0, 2, 3, 4]):
            members = sorted(set(small) | set(extra))
            if C * len(members) >= 1.0:
                assert solve_svdd(g, members, C).objective >= bound - 1e-9
