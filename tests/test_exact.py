import dataclasses
import hashlib
import heapq
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import msvdd.exact
from msvdd.data import SyntheticSpec, generate_synthetic
from msvdd.errors import ConvergenceError, InputError, SolverFailure
from msvdd.heuristic import solve_heuristic
from msvdd.exact import (
    MsvddProblem,
    _expand,
    _neighbour_table,
    _node_of,
    _pick,
    _repair_cardinality,
    _screen,
    incumbent_gap_rows,
    solve_exact,
)
from msvdd.kernels import LINEAR, GramMatrix, gram, rbf
from msvdd.solution import (
    SolveStatus,
    canonical_objective,
    min_members,
    solve_sphere,
)
from msvdd.svdd import DEFAULT_TOLS, capacity, collapses, solve_svdd
from oracles import (
    assignment_of,
    capped_simplex_samples,
    canonical_assignments,
    compute_delta_dual,
    compute_delta_primal,
    distance_space_gram,
    enumerate_msvdd,
    evaluate_assignment,
    expand_reference,
    heuristic_best_root,
    jensen_lift,
    neighbour_table_reference,
    verify_bigM_feasibility,
    xi_full,
)

TWO_CLUSTERS_1D = np.array([[0.0], [0.1], [0.2], [10.0], [10.1], [10.2]])


@pytest.fixture(scope="module")
def two_cluster_solution():
    g = gram(LINEAR, TWO_CLUSTERS_1D)
    return g, solve_exact(MsvddProblem(gram=g, p=2, C=1.0, seed=0))


class TestDeltaPrimal:
    def test_single_point(self):
        assert compute_delta_primal([[4.0, 4.0]], 0) == 0.0

    def test_1d_spread(self):
        assert compute_delta_primal([[0.0], [3.0], [5.0]], 0) == 25.0

    def test_2d_pair(self):
        assert compute_delta_primal([[0.0, 0.0], [3.0, 4.0]], 1) == 25.0


class TestDeltaDual:
    def test_rbf_two_points(self):
        pts = [[0.0, 0.0], [1.0, 0.0]]
        g = gram(rbf(1.0), pts)
        k01 = g.values[0, 1]
        # all kernel values nonnegative, so the bound is K_ii + C^2 * sum(K)
        expected = 1.0 + (2.0 + 2.0 * k01)
        assert compute_delta_dual(g, 1.0, 0) == pytest.approx(expected, abs=1e-12)

    def test_linear_negative_entry_by_hand(self):
        g = gram(LINEAR, [[1.0, 0.0], [-1.0, 0.0]])
        # K = [[1,-1],[-1,1]], C = 0.5: linear term 2*0.5*|-1| = 1,
        # quadratic term 0.25*1 + 0 + 0 + 0.25*1 = 0.5
        assert compute_delta_dual(g, 0.5, 0) == pytest.approx(2.5, abs=1e-12)
        # the only feasible weight vector is (.5, .5): distance 1 <= 2.5
        assert 2.5 >= 1.0

    @pytest.mark.parametrize("spec", [LINEAR, rbf(0.5)])
    def test_monte_carlo_validity(self, spec, rng):
        pts = rng.normal(scale=1.5, size=(7, 2))
        g = gram(spec, pts)
        C = 0.3
        samples = capped_simplex_samples(rng, 7, C, 1000)
        K = g.values
        for i in range(7):
            delta = compute_delta_dual(g, C, i)
            d2 = K[i, i] - 2.0 * samples @ K[i] + np.einsum(
                "sk,kl,sl->s", samples, K, samples
            )
            assert np.all(d2 <= delta + 1e-9), (i, d2.max(), delta)


def expand(node, g, C, p, floor):
    """`_expand` on a node, after the branch point pick that the search takes
    when it first pops a node."""
    node.pick = _pick(node, _neighbour_table(g, 0))
    return _expand(node, g, C, p, floor)


def branch(sphere_of, g, C, p, enforce_cardinality=True):
    """Children of a partial assignment, as the search makes them, under the
    floor ``enforce_cardinality`` gives."""
    return expand(_node_of(sphere_of, g, C, p), g, C, p, min_members(C, enforce_cardinality))


class TestBranch:
    def test_root_single_child(self, rng):
        pts = rng.normal(size=(5, 2))
        g = gram(LINEAR, pts)
        children = branch(np.full(5, -1), g, 1.0, p=3)
        assert len(children) == 1
        assert children[0].sphere_of[0] == 0
        assert (children[0].sphere_of >= 0).sum() == 1

    def test_two_used_one_fresh(self, rng):
        pts = rng.normal(size=(5, 2))
        g = gram(LINEAR, pts)
        a = np.array([0, 1, -1, -1, -1])
        children = branch(a, g, 1.0, p=3)
        assert len(children) == 3
        spheres = sorted(int(c.sphere_of[c.sphere_of >= 0].size) for c in children)
        assert spheres == [3, 3, 3]

    def test_splits_on_point_farthest_from_every_sphere(self):
        # spheres at 0 and 10: a best-vs-second-best gap rule would take the
        # point at 1 (costs 1 vs 81); the point at 5 is 25 from both centers
        g = gram(LINEAR, [[0.0], [10.0], [1.0], [5.0]])
        children = branch(np.array([0, 1, -1, -1]), g, 1.0, p=2)
        assert len(children) == 2
        assert all(c.sphere_of[3] >= 0 and c.sphere_of[2] == -1 for c in children)

    def test_all_spheres_nonempty(self, rng):
        pts = rng.normal(size=(5, 2))
        g = gram(LINEAR, pts)
        a = np.array([0, 1, 2, -1, -1])
        assert len(branch(a, g, 1.0, p=3)) == 3

    def test_drops_children_that_cannot_fill_every_sphere(self, rng):
        # joining sphere 0 leaves one point for the two empty spheres
        g = gram(LINEAR, rng.normal(size=(3, 2)))
        children = branch(np.array([0, -1, -1]), g, 1.0, p=3)
        assert len(children) == 1
        assert int(children[0].sphere_of.max()) == 1

    def test_floor_follows_the_cardinality_mode(self, rng):
        # C = 0.3 asks for 4 members per sphere, which 5 points cannot give
        # two spheres; without the floor each sphere needs only one member
        g = gram(LINEAR, rng.normal(size=(5, 2)))
        a = np.array([0, -1, -1, -1, -1])
        assert branch(a, g, 0.3, p=2) == []
        children = branch(a, g, 0.3, p=2, enforce_cardinality=False)
        assert sorted(int(c.sphere_of.max()) for c in children) == [0, 1]


class TestCapacityRule:
    # the member floor and the collapse test of a sphere solve are one rule
    @pytest.mark.parametrize("C,floor", [
        (0.05, 20), (0.1, 10), (0.15, 7), (0.2, 5), (0.25, 4), (0.3, 4), (1 / 3, 3),
        (0.4, 3), (0.5, 2), (0.8, 2), (1.0, 1), (2.0, 1), (1 / (3 + 5e-10), 4),
    ])
    def test_floor_is_the_fewest_members_that_do_not_collapse(self, C, floor):
        assert min_members(C, True) == floor
        assert not collapses(C, floor)
        assert floor == 1 or collapses(C, floor - 1)
        assert min_members(C, False) == 1

    def test_no_optimal_sphere_below_the_floor_collapses(self, rng):
        # 1/C is 3 + 5e-10: three members hold C * 3 = 1 - 1.7e-10 < 1, so
        # they collapse, and the floor is 4
        C = 1 / (3 + 5e-10)
        g = gram(LINEAR, rng.normal(size=(8, 2)))
        assert solve_sphere(g, range(3), C).radius_sq == 0.0
        sol = solve_exact(MsvddProblem(gram=g, p=2, C=C))
        assert sol.status is SolveStatus.OPTIMAL
        assert [len(s.members) for s in sol.spheres] == [4, 4]
        assert not any(collapses(C, len(s.members)) for s in sol.spheres)


def count_sphere_solves(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(tuple(args[1]))
        return solve_sphere(*args, **kwargs)

    monkeypatch.setattr(msvdd.exact, "solve_sphere", counting)
    return calls


class TestExpand:
    def test_certified_grown_child_takes_no_solve(self, monkeypatch):
        # the sphere around -2 and 2 has center 0 and radius^2 4; the
        # max-min point 0.1 lies inside it, so the parent's weights plus a 0
        # certify the grown sphere
        g = gram(LINEAR, [[-2.0], [2.0], [0.1], [-0.1]])
        node = _node_of(np.array([0, 0, -1, -1]), g, 1.0, 1)
        calls = count_sphere_solves(monkeypatch)
        (child,) = expand(node, g, 1.0, 1, 1)
        assert calls == []
        assert list(child.sphere_of) == [0, 0, 0, -1]
        grown = child.spheres[0]
        assert grown.members == (0, 1, 2)
        assert grown.iterations == 0
        assert grown.radius_sq == pytest.approx(4.0, abs=1e-12)
        warm = solve_sphere(g, (0, 1, 2), 1.0, warm_alpha=[0.5, 0.5, 0.0])
        tol = DEFAULT_TOLS.duality_gap
        assert grown.objective == pytest.approx(warm.objective, abs=tol)
        assert grown.dual_objective == pytest.approx(warm.dual_objective, abs=tol)
        assert child.lb == grown.dual_objective

    def test_far_point_is_solved(self, monkeypatch):
        g = gram(LINEAR, [[-2.0], [2.0], [9.0]])
        node = _node_of(np.array([0, 0, -1]), g, 1.0, 1)
        calls = count_sphere_solves(monkeypatch)
        (child,) = expand(node, g, 1.0, 1, 1)
        assert calls == [(0, 1, 2)]
        cold = solve_sphere(g, (0, 1, 2), 1.0)
        assert child.spheres[0].objective == pytest.approx(cold.objective, abs=1e-7)

    @staticmethod
    def failing_solves(monkeypatch, fail_cold):
        # every warm solve (and every cold one with ``fail_cold``) raises
        calls = []

        def flaky(gram_matrix, members, C, warm_alpha=None):
            calls.append(warm_alpha is not None)
            if warm_alpha is not None or fail_cold:
                raise ConvergenceError("no convergence", gap=0.5)
            return solve_sphere(gram_matrix, members, C)

        monkeypatch.setattr(msvdd.exact, "solve_sphere", flaky)
        return calls

    def test_failed_warm_solve_retries_cold(self, monkeypatch):
        g = gram(LINEAR, [[-2.0], [2.0], [9.0]])
        node = _node_of(np.array([0, 0, -1]), g, 1.0, 1)
        calls = self.failing_solves(monkeypatch, fail_cold=False)
        (child,) = expand(node, g, 1.0, 1, 1)
        assert calls == [True, False]
        cold = solve_sphere(g, (0, 1, 2), 1.0)
        assert child.spheres[0].objective == cold.objective

    def test_child_solve_fails_after_cold_retry(self, monkeypatch):
        g = gram(LINEAR, [[-2.0], [2.0], [9.0]])
        node = _node_of(np.array([0, 0, -1]), g, 1.0, 1)
        calls = self.failing_solves(monkeypatch, fail_cold=True)
        with pytest.raises(SolverFailure, match="on 3 members failed to converge from its warm "
                                                "and cold starts") as err:
            expand(node, g, 1.0, 1, 1)
        assert calls == [True, False]
        assert isinstance(err.value.__cause__, ConvergenceError)

    def test_root_sphere_is_attempted_once(self, monkeypatch):
        # a rerun of the same cold start would fail the same way
        g = gram(LINEAR, [[-2.0], [2.0], [9.0]])
        calls = self.failing_solves(monkeypatch, fail_cold=True)
        with pytest.raises(SolverFailure, match="on 2 members failed to converge from its cold start"):
            _node_of(np.array([0, 0, -1]), g, 1.0, 1)
        assert calls == [False]

    def test_child_of_collapsed_parent_is_attempted_once(self, monkeypatch):
        # the one-member parent at C = 0.5 has weight 1 > C, which is no
        # start on the child's capped simplex, so the child starts cold
        g = gram(LINEAR, [[-2.0], [2.0], [9.0]])
        node = _node_of(np.array([0, -1, -1]), g, 0.5, 1)
        assert node.spheres[0].radius_sq == 0.0
        calls = self.failing_solves(monkeypatch, fail_cold=True)
        with pytest.raises(SolverFailure, match="on 2 members failed to converge from its cold start"):
            expand(node, g, 0.5, 1, 1)
        assert calls == [False]

    @settings(max_examples=30)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_child_bounds_match_cold_lower_bound(self, seed):
        # walk down the search tree through random children: every child
        # sphere is certified from its parent or warm-solved, so each child
        # bound is within the gap tolerance per sphere of cold solves
        r = np.random.default_rng(seed)
        n = int(r.integers(4, 14))
        p = int(r.integers(1, 4))
        C = float(r.uniform(0.1, 1.2))
        floor = min_members(C, bool(r.random() < 0.5))
        pts = r.normal(scale=1.5, size=(n, 2))
        spec = rbf(float(r.uniform(0.2, 2.0))) if r.random() < 0.5 else LINEAR
        g = gram(spec, pts)
        node = _node_of(np.full(n, -1), g, C, p)
        while node.depth < n:
            children = expand(node, g, C, p, floor)
            if not children:
                break
            for child in children:
                cold = _node_of(child.sphere_of, g, C, p).lb
                slack = p * DEFAULT_TOLS.duality_gap + 1e-12 * max(1.0, abs(cold))
                assert abs(child.lb - cold) <= slack
            node = children[int(r.integers(len(children)))]


def sphere_bits(sol):
    """Every field of a sphere, with floats and arrays as their exact bits."""
    if sol is None:
        return None
    out = []
    for f in dataclasses.fields(sol):
        v = getattr(sol, f.name)
        out.append(v.tobytes() if isinstance(v, np.ndarray) else v.hex() if isinstance(v, float) else v)
    return out


def assert_same_children(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.sphere_of.dtype == b.sphere_of.dtype
        assert a.sphere_of.tobytes() == b.sphere_of.tobytes()
        assert a.depth == b.depth
        assert a.lb.hex() == b.lb.hex()
        assert [sphere_bits(s) for s in a.spheres] == [sphere_bits(s) for s in b.spheres]


class TestLeanExpand:
    # searches with p = 2 and 3 under both kernels, with and without the floor
    @pytest.mark.parametrize("kernel,n,seed,p,C,enforce", [
        (LINEAR, 14, 0, 2, 0.2, True),
        (LINEAR, 12, 1, 3, 0.3, True),
        (rbf(1.0), 14, 2, 2, 0.2, True),
        (rbf(0.5), 12, 3, 3, 0.3, True),
        (LINEAR, 10, 4, 3, 0.5, False),
        (rbf(2.0), 12, 5, 2, 0.15, False),
    ])
    def test_children_match_the_reference_bit_for_bit(
        self, monkeypatch, kernel, n, seed, p, C, enforce
    ):
        # every node the search expands gets the reference expansion's
        # children: all of them under no prune bound, and, under the search's
        # finite one, the ones it pushes (lb < bound); the screens drop only
        # children that would not be pushed
        g = gram(kernel, np.random.default_rng(seed).normal(scale=1.5, size=(n, 2)))
        lean = msvdd.exact._expand
        bounds = []

        def checked(node, gram_matrix, C, p, floor, bound=math.inf):
            bounds.append(bound)
            want = expand_reference(node, gram_matrix, C, p, floor)
            assert_same_children(lean(node, gram_matrix, C, p, floor), want)
            children = lean(node, gram_matrix, C, p, floor, bound)
            assert_same_children([c for c in children if c.lb < bound],
                                 [c for c in want if c.lb < bound])
            return children

        monkeypatch.setattr(msvdd.exact, "_expand", checked)
        sol = solve_exact(MsvddProblem(gram=g, p=p, C=C, enforce_cardinality=enforce, seed=0))
        assert sol.status is SolveStatus.OPTIMAL
        assert bounds and math.isfinite(max(bounds))


class TestCompletionLift:
    def test_lift_by_hand(self):
        # C = 1/3: a sphere is valued C * scatter up to 3 members.  The sphere
        # {0} must take both free points at 1 and 3 (k = 2, g = 3).  Point 1
        # scores 1 * 1 + 1/2 * 1 (its nearest other point is 0, at 1) and
        # point 3 scores 1 * 9 + 1/2 * 4 (its nearest is 1, at 4), so the
        # sphere adds C / 3 * 12.5 = 25/18; the completion {0, 1, 3} costs
        # C * 42/9 = 42/27, and the Jensen lift about {0} was C / 3 * 10
        g = gram(LINEAR, [[0.0], [1.0], [3.0]])
        C = 1.0 / 3.0
        assert capacity(C) == 3
        node = _node_of(np.array([0, -1, -1]), g, C, 1)
        point, lift = _pick(node, _neighbour_table(g, capacity(C)))
        assert point == 2
        assert lift == pytest.approx(25.0 / 18.0, abs=1e-12)
        assert jensen_lift(node, capacity(C)) == pytest.approx(10.0 / 9.0, abs=1e-12)
        best = evaluate_assignment(g, np.array([0, 0, 0]), 1, C)
        assert best.objective == pytest.approx(42.0 / 27.0, abs=1e-9)
        assert lift <= best.objective

    @pytest.mark.parametrize("C,size", [(0.2, 5), (0.3, 3), (0.5, 2), (0.45, 2), (1.0, 1)])
    def test_centroid_size(self, C, size):
        # the largest sphere valued C * scatter, the lift's size under the
        # cardinality floor, is the capacity of C
        assert capacity(C) == size
        assert C * size <= 1.0 + 1e-12 < C * (size + 1)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_lifted_bound_never_above_best_completion(self, seed):
        # a random partial assignment: the dual sum plus the lift must not
        # exceed the best feasible completion, found by enumeration
        r = np.random.default_rng(seed)
        C = float(r.uniform(0.12, 0.5))
        floor = min_members(C, True)
        n = int(r.integers(max(4, floor), 10))
        p = int(r.integers(1, min(3, n // floor) + 1))
        spec = rbf(float(r.uniform(0.2, 2.0))) if r.random() < 0.5 else LINEAR
        g = gram(spec, r.normal(scale=1.5, size=(n, 2)))
        base = r.integers(0, p, size=n)
        free = r.choice(n, size=int(r.integers(n // 2, min(n - 1, 7) + 1)), replace=False)
        base[free] = -1
        node = _node_of(base, g, C, p)
        lift = _pick(node, _neighbour_table(g, capacity(C)))[1]
        assert lift >= 0.0
        assert _pick(node, _neighbour_table(g, 0))[1] == 0.0
        best = math.inf
        for combo in itertools.product(range(p), repeat=free.size):
            full = base.copy()
            full[free] = combo
            sol = evaluate_assignment(g, full, p, C)
            if sol is not None:
                best = min(best, sol.objective)
        assert node.lb + lift <= best + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_pairwise_lift_never_below_jensen(self, seed):
        # every score m * d_u + h[k - 1][u] is at least m * d_u, so the k
        # smallest scores over g bound the k smallest distances times m / g
        r = np.random.default_rng(seed)
        C = float(r.uniform(0.04, 0.5))
        size = capacity(C)
        n = int(r.integers(max(6, size + 2), 40))
        p = int(r.integers(1, 4))
        spec = rbf(float(r.uniform(0.2, 2.0))) if r.random() < 0.5 else LINEAR
        pts = r.normal(scale=1.5, size=(n, 2))
        pts[r.integers(0, n, size=n // 5)] = pts[0]  # duplicates: D = 0
        g = gram(spec, pts)
        base = r.integers(0, p, size=n)
        base[r.choice(n, size=int(r.integers(1, n)), replace=False)] = -1
        node = _node_of(base, g, C, p)
        jensen = jensen_lift(node, size)
        lift = _pick(node, _neighbour_table(g, size))[1]
        assert lift >= jensen - 1e-12 * max(1.0, jensen)

    @pytest.mark.parametrize("spec", [LINEAR, rbf(0.5)], ids=["linear", "rbf"])
    @pytest.mark.parametrize("block", [lambda n: n - 1, lambda n: 3 * n],
                             ids=["under-a-row", "three-rows"])
    def test_row_blocks_equal_the_full_build(self, spec, block, rng, monkeypatch):
        # blocks of rows, one row when the block holds fewer than n entries,
        # give the table a pair-by-pair build gives; duplicates are at D = 0
        n = 17
        pts = rng.normal(size=(n, 2))
        pts[[5, 11]] = pts[2]
        g = gram(spec, pts)
        monkeypatch.setattr(msvdd.exact, "_BLOCK", block(n))
        table = _neighbour_table(g, 6)
        assert table.shape == (6, n)
        np.testing.assert_array_equal(table, neighbour_table_reference(g, 6))
        assert not table[0].any()
        assert table[2, [2, 5, 11]] == pytest.approx(0.0, abs=1e-12)
        assert _neighbour_table(g, 0).shape == (0, n)

    def test_distances_rounded_below_zero_count_as_zero(self):
        # near-duplicates far from the origin: V_uu + V_vv - 2 V_uv rounds
        # below 0 for some pair, and the table's sums still never fall below 0
        r = np.random.default_rng(0)
        pts = r.normal(size=(17, 2)) + 100.0
        pts[[5, 11]] = pts[2] + 1e-7 * r.normal(size=(2, 2))
        g = gram(LINEAR, pts)
        diag = g.values.diagonal()
        raw = diag[:, None] + diag - 2.0 * g.values
        np.fill_diagonal(raw, 1.0)
        assert raw.min() < 0.0  # the premise
        table = _neighbour_table(g, 6)
        assert table.min() == 0.0
        np.testing.assert_array_equal(table, neighbour_table_reference(g, 6))


class TestRepairCardinality:
    def test_nearest_point_joins_the_undersized_sphere(self):
        # sphere 1 holds only the point at 10 and needs two members; of the
        # donors at 0, 1 and 5 the one at 5 is nearest its centroid
        g = gram(LINEAR, [[0.0], [1.0], [5.0], [10.0]])
        repaired = _repair_cardinality(np.array([0, 0, 0, 1]), g, 0.5, 2, 2)
        assert list(repaired) == [0, 0, 1, 1]

    def test_no_donor_left(self):
        # the only donor sphere sits at the floor, so nothing can move
        g = gram(LINEAR, [[0.0], [1.0], [10.0]])
        assert _repair_cardinality(np.array([0, 0, 1]), g, 0.5, 2, 2) is None


def lin60p2():
    """Linear p=2, C=0.2 on the first 60 training points of the fixed draw
    (generator seed 0, noise 0.1).  The heuristic's own best restart is
    worth 6.9325 under C=0.2, its first restart the optimum 6.762043."""
    ds = generate_synthetic(SyntheticSpec(60, 1, 1, 0.1, seed=0)).subset("train")
    return MsvddProblem(gram=gram(LINEAR, ds.points), p=2, C=0.2, seed=0)


class TestRootIncumbent:
    def test_best_restart_under_the_global_C(self):
        sol = solve_exact(lin60p2())
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.incumbent_log[0].objective == pytest.approx(6.762043, abs=1e-6)
        assert sol.objective == pytest.approx(6.762043, abs=1e-6)
        assert sol.node_count <= 40

    def test_one_heuristic_call(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return solve_heuristic(*args, **kwargs)

        monkeypatch.setattr(msvdd.exact, "solve_heuristic", counting)
        sol = solve_exact(lin60p2())
        assert sol.status is SolveStatus.OPTIMAL
        assert len(calls) == 1

    @pytest.mark.parametrize("failing", [1, math.inf])
    def test_failed_candidate_is_skipped(self, monkeypatch, failing):
        # the first re-solve (or every one) fails: the root falls back to the
        # other candidates (or to none), and the search still ends optimal
        calls = []

        def flaky(*args):
            calls.append(args[0])
            if len(calls) <= failing:
                raise SolverFailure("injected")
            return _node_of(*args)

        problem = lin60p2()
        monkeypatch.setattr(msvdd.exact, "_node_of", flaky)
        root = msvdd.exact._root_incumbent(problem)
        assert len(calls) >= 2
        if failing == 1:
            assert root is not None and not np.array_equal(root.sphere_of, calls[0])
        else:
            assert root is None
        sol = solve_exact(problem)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(6.762043, abs=1e-6)

    @settings(max_examples=30)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_never_worse_than_the_heuristic_best_restart(self, seed):
        r = np.random.default_rng(seed)
        n, p = int(r.integers(8, 25)), int(r.integers(2, 4))
        C = float(r.choice([0.2, 0.3, 0.5, 1.0]))
        spec = rbf(float(r.uniform(0.2, 2.0))) if r.random() < 0.5 else LINEAR
        g = gram(spec, r.normal(scale=1.5, size=(n, 2)))
        problem = MsvddProblem(gram=g, p=p, C=C, seed=int(r.integers(0, 100)))
        heuristic = []

        def recording(*args, **kwargs):
            heuristic.append(solve_heuristic(*args, **kwargs))
            return heuristic[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(msvdd.exact, "solve_heuristic", recording)
            root = msvdd.exact._root_incumbent(problem)
        (heur,) = heuristic
        reference = heuristic_best_root(g, heur, C, p)
        if reference is None:
            return
        assert root is not None
        value = canonical_objective([s.objective for s in root.spheres])
        assert value <= reference.objective + 1e-12 * max(1.0, abs(reference.objective))


class TestLowerBound:
    def test_all_unassigned(self, rng):
        g = gram(LINEAR, rng.normal(size=(6, 2)))
        assert _node_of(np.full(6, -1), g, 1.0, 2).lb == 0.0

    def test_tight_at_leaves(self, two_cluster_solution):
        g, sol = two_cluster_solution
        lb = _node_of(sol.sphere_of, g, 1.0, 2).lb
        assert lb == pytest.approx(sol.objective, abs=1e-8)

    def test_sums_certified_dual_values(self, rng):
        from msvdd.solution import solve_sphere

        g = gram(rbf(0.5), rng.normal(size=(12, 2)))
        C = 0.3
        a = np.array([0, 1, 0, -1, 1, 0, 1, 0, 2, 1, 0, 1])
        sols = [solve_sphere(g, np.flatnonzero(a == j), C) for j in range(3)]
        # the primal values sit above the dual ones by up to the gap tolerance
        assert sum(s.objective for s in sols) > sum(s.dual_objective for s in sols)
        assert _node_of(a, g, C, 3).lb == sum(s.dual_objective for s in sols)

    def test_partial_equals_cluster_objective(self):
        from msvdd.svdd import solve_svdd

        g = gram(LINEAR, TWO_CLUSTERS_1D)
        a = np.array([0, 0, 0, -1, -1, -1])
        expected = solve_svdd(g, [0, 1, 2], 1.0).objective
        assert _node_of(a, g, 1.0, 2).lb == pytest.approx(expected, abs=1e-9)

    def test_bounds_every_completion_exhaustively(self, rng):
        pts = rng.normal(size=(7, 2))
        g = gram(LINEAR, pts)
        C = 0.5
        partial = np.array([0, 1, -1, -1, 0, -1, -1])
        lb = _node_of(partial, g, C, 2).lb
        base = partial.copy()
        free = np.flatnonzero(base < 0)
        from itertools import product

        for combo in product(range(2), repeat=free.size):
            full = base.copy()
            full[free] = combo
            sol = evaluate_assignment(g, full, 2, C)
            if sol is not None:
                assert sol.objective >= lb - 1e-7


class TestSolveExact:
    def test_each_point_own_sphere(self, rng):
        pts = rng.normal(size=(4, 2))
        g = gram(LINEAR, pts)
        sol = solve_exact(
            MsvddProblem(gram=g, p=4, C=1.0, enforce_cardinality=False, seed=0)
        )
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(0.0, abs=1e-9)
        assert all(s.radius_sq <= 1e-9 for s in sol.spheres)
        assert all(np.all(s.errors <= 1e-9) for s in sol.spheres)

    def test_two_cluster_natural_split(self, two_cluster_solution):
        g, sol = two_cluster_solution
        assert sol.status is SolveStatus.OPTIMAL
        left = set(sol.sphere_of[:3])
        right = set(sol.sphere_of[3:])
        assert len(left) == 1 and len(right) == 1 and left != right
        oracle, _ = enumerate_msvdd(g, 2, 1.0)
        assert sol.objective == pytest.approx(oracle, abs=1e-6)

    @pytest.mark.parametrize("p,C", [(1, 0.5), (2, 0.5), (3, 1.0), (2, 0.2)])
    def test_matches_enumeration(self, p, C, rng):
        pts = rng.normal(scale=2.0, size=(8, 2))
        g = gram(LINEAR, pts)
        sol = solve_exact(MsvddProblem(gram=g, p=p, C=C, seed=3))
        oracle, _ = enumerate_msvdd(g, p, C)
        if oracle is None:
            assert sol.status is SolveStatus.INFEASIBLE
        else:
            assert sol.status is SolveStatus.OPTIMAL
            assert sol.objective == pytest.approx(oracle, abs=1e-6)

    def test_rbf_matches_enumeration(self, rng):
        pts = rng.normal(size=(7, 2))
        g = gram(rbf(0.5), pts)
        sol = solve_exact(MsvddProblem(gram=g, p=2, C=0.5, seed=0))
        oracle, _ = enumerate_msvdd(g, 2, 0.5)
        assert sol.objective == pytest.approx(oracle, abs=1e-6)

    @pytest.mark.parametrize("p,C", [(2, 0.2), (3, 0.3), (2, 1.0)])
    def test_cardinality_off_matches_enumeration(self, p, C, rng):
        # without the member floor, undersized spheres collapse to their
        # zero-radius centroid solution; leaves must match the oracle that
        # applies the same rule
        pts = rng.normal(scale=1.5, size=(7, 2))
        g = gram(LINEAR, pts)
        sol = solve_exact(
            MsvddProblem(gram=g, p=p, C=C, enforce_cardinality=False, seed=2)
        )
        oracle, _ = enumerate_msvdd(g, p, C, enforce_cardinality=False)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(oracle, abs=1e-6)
        assert all(s.radius_sq >= 0.0 for s in sol.spheres)
        assert all(len(s.members) >= 1 for s in sol.spheres)

    def test_randomized_campaign_matches_enumeration(self):
        # mixture and blob structures, both kernels, both cardinality
        # variants, random C: every feasible case must match the oracle;
        # about half the cases have the floor on and C < 0.5
        master = np.random.default_rng(424242)
        checked = 0
        while checked < 30:
            n = int(master.integers(5, 10))
            if master.random() < 0.5:
                # floor on, C < 0.5 and room for every sphere: the search
                # lifts nodes by what their undersized spheres must still take
                C, enforce = float(master.uniform(0.2, 0.5)), True
                p = int(master.integers(1, min(3, n // min_members(C, True)) + 1))
            else:
                p = int(master.integers(1, 4))
                C = float(master.uniform(0.15, 1.3))
                enforce = bool(master.random() < 0.6)
            if master.random() < 0.5:
                pts = master.normal(scale=0.8, size=(n, 2))
                pts[: n // 2] += np.array([3.0, 3.0])
            else:
                pts = master.normal(scale=1.6, size=(n, 2))
            spec = rbf(float(master.uniform(0.1, 1.5))) if master.random() < 0.5 else LINEAR
            g = gram(spec, pts)
            sol = solve_exact(
                MsvddProblem(gram=g, p=p, C=C, enforce_cardinality=enforce, seed=checked)
            )
            oracle, _ = enumerate_msvdd(g, p, C, enforce_cardinality=enforce)
            if oracle is None:
                assert sol.status is SolveStatus.INFEASIBLE
            else:
                assert sol.status is SolveStatus.OPTIMAL
                assert sol.objective == pytest.approx(oracle, abs=1e-6)
            checked += 1

    def test_completion_lift_cuts_the_rbf_tree(self):
        # the benchmark's rbf40p2 instance; without the completion lift the
        # search expands 911 nodes, with the lift from centroid distances
        # alone (Jensen) 327, and with the pair terms 125
        train = generate_synthetic(SyntheticSpec(40, 1, 1, 0.1, seed=0)).subset("train")
        g = gram(rbf(1.0), train.points)
        sol = solve_exact(MsvddProblem(gram=g, p=2, C=0.2, seed=0))
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(0.966321139539, abs=1e-6)
        assert sol.node_count <= 200

    def test_pair_terms_cut_the_hard_rbf_tree(self):
        # the optimum is a big sphere and a satellite of 10 points at radius
        # zero: the Jensen lift expands 4,640 nodes, the pair terms 763
        train = generate_synthetic(SyntheticSpec(100, 1, 1, 0.1, seed=0)).subset("train")
        g = gram(rbf(1.0), train.points)
        sol = solve_exact(MsvddProblem(gram=g, p=2, C=0.1, seed=0))
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.node_count <= 800
        assert sol.objective == pytest.approx(float.fromhex("0x1.ffa1846b600aap-1"), rel=1e-12)

    def test_midsearch_timeout_bound_is_valid(self):
        rng = np.random.default_rng(99)
        pts = np.vstack(
            [rng.normal(size=(15, 2)) + c for c in ([0, 0], [4, 4])]
        ) + rng.normal(scale=0.2, size=(30, 2))
        g = gram(LINEAR, pts)
        full = solve_exact(MsvddProblem(gram=g, p=2, C=0.3, seed=0))
        assert full.status is SolveStatus.OPTIMAL
        capped = solve_exact(
            MsvddProblem(gram=g, p=2, C=0.3, time_limit=0.02, seed=0)
        )
        if capped.status is SolveStatus.TIME_LIMIT_INCUMBENT:
            assert capped.lower_bound <= full.objective + 1e-9
            assert capped.objective >= full.objective - 1e-9

    @pytest.mark.parametrize("spec,p,C,limit", [
        (LINEAR, 2, 0.3, None), (rbf(0.5), 3, 0.3, None), (rbf(1.0), 2, 0.2, 0.01),
    ])
    def test_lower_bound_never_above_objective(self, spec, p, C, limit, rng):
        g = gram(spec, rng.normal(size=(14, 2)))
        sol = solve_exact(MsvddProblem(gram=g, p=p, C=C, time_limit=limit, seed=0))
        assert sol.lower_bound <= sol.objective
        # weak duality at the leaf, up to the rounding of the two sums
        slack = 1e-12 * max(1.0, sol.objective)
        assert _node_of(sol.sphere_of, g, C, p).lb <= sol.objective + slack

    def test_infeasible_cardinality(self, rng):
        g = gram(LINEAR, rng.normal(size=(6, 2)))
        sol = solve_exact(MsvddProblem(gram=g, p=2, C=0.2, seed=0))
        # two spheres of five points each need ten points
        assert sol.status is SolveStatus.INFEASIBLE
        assert math.isinf(sol.objective)

    @pytest.mark.parametrize("spec", [LINEAR, rbf(0.5)], ids=["linear", "rbf"])
    @pytest.mark.parametrize("floor", [True, False], ids=["floor", "no-floor"])
    def test_one_sphere_is_its_solve_without_a_search(self, spec, floor, rng, monkeypatch):
        # every point is in the one sphere: the solve is that sphere's, with
        # no heuristic, no node and one incumbent
        def no_heuristic(*args, **kwargs):
            raise AssertionError("the root heuristic ran")

        monkeypatch.setattr(msvdd.exact, "solve_heuristic", no_heuristic)
        g = gram(spec, rng.normal(size=(12, 2)))
        for C in (0.1, 0.25, 1.0):
            sol = solve_exact(MsvddProblem(gram=g, p=1, C=C, enforce_cardinality=floor))
            (sphere,) = sol.spheres
            want = solve_svdd(g, range(12), C)
            assert sphere.objective.hex() == want.objective.hex()
            assert sphere.alpha.tobytes() == want.alpha.tobytes()
            assert sol.objective.hex() == want.objective.hex()
            assert sol.status is SolveStatus.OPTIMAL
            assert sol.lower_bound == sol.objective
            assert sol.node_count == 0
            assert len(sol.incumbent_log) == 1
            assert list(sol.sphere_of) == [0] * 12

    def test_infeasible_skips_the_heuristic_and_the_search(self, rng, monkeypatch):
        def no_heuristic(*args, **kwargs):
            raise AssertionError("the root heuristic ran")

        monkeypatch.setattr(msvdd.exact, "solve_heuristic", no_heuristic)
        g = gram(LINEAR, rng.normal(size=(6, 2)))
        sol = solve_exact(MsvddProblem(gram=g, p=2, C=0.2, seed=0))
        assert sol.status is SolveStatus.INFEASIBLE
        assert sol.objective == math.inf and sol.lower_bound == math.inf
        assert sol.node_count == 0
        assert sol.spheres == () and sol.incumbent_log == ()
        assert list(sol.sphere_of) == [-1] * 6

    def test_time_limit_before_any_incumbent(self, rng):
        # with p = n there is no root heuristic, and a zero limit stops the
        # search at the root: no incumbent, the root's bound of 0
        g = gram(LINEAR, rng.normal(size=(3, 2)))
        sol = solve_exact(MsvddProblem(gram=g, p=3, C=1.0, time_limit=0.0, seed=0))
        assert sol.status is SolveStatus.TIME_LIMIT_INCUMBENT
        assert sol.objective == math.inf
        assert sol.spheres == () and sol.incumbent_log == ()
        assert list(sol.sphere_of) == [-1] * 3
        assert sol.node_count == 0
        assert sol.lower_bound == 0.0

    @pytest.mark.parametrize("C,limit", [
        (math.inf, None), (math.nan, None), (-1.0, None), (0.0, None),
        (0.5, math.nan), (0.5, -1.0),
    ])
    def test_bad_penalty_or_time_limit_rejected(self, C, limit, rng):
        g = gram(LINEAR, rng.normal(size=(6, 2)))
        with pytest.raises(InputError):
            MsvddProblem(gram=g, p=2, C=C, time_limit=limit)

    @pytest.mark.parametrize("field,value", [
        ("p", 2.5), ("C", "x"), ("time_limit", "x"), ("seed", 1.5),
        # not a bool: "off" would otherwise solve with the floor on
        ("enforce_cardinality", "off"), ("enforce_cardinality", 0),
    ])
    def test_wrongly_typed_field_is_named(self, field, value, rng):
        g = gram(LINEAR, rng.normal(size=(6, 2)))
        with pytest.raises(InputError, match=field):
            MsvddProblem(**{"gram": g, "p": 2, "C": 0.5, field: value})

    @pytest.mark.parametrize("limit", [None, 0.0, 2.5, math.inf])
    def test_time_limit_accepted(self, limit, rng):
        g = gram(LINEAR, rng.normal(size=(6, 2)))
        assert MsvddProblem(gram=g, p=2, C=0.5, time_limit=limit).time_limit == limit

    def test_p_larger_than_n_rejected(self, rng):
        g = gram(LINEAR, rng.normal(size=(3, 2)))
        with pytest.raises(InputError):
            MsvddProblem(gram=g, p=4, C=1.0)

    def test_time_limit_returns_incumbent(self):
        pts = np.vstack(
            [np.random.default_rng(5).normal(size=(14, 2)) + c for c in ([0, 0], [6, 6])]
        )
        g = gram(LINEAR, pts)
        sol = solve_exact(
            MsvddProblem(gram=g, p=2, C=0.5, time_limit=0.0, seed=0)
        )
        assert sol.status is SolveStatus.TIME_LIMIT_INCUMBENT
        assert sol.objective >= sol.lower_bound - 1e-9
        assert sol.incumbent_log

    def test_incumbent_log_strictly_decreasing(self, rng):
        pts = rng.normal(scale=1.5, size=(10, 2))
        g = gram(LINEAR, pts)
        sol = solve_exact(MsvddProblem(gram=g, p=2, C=0.5, seed=0))
        objs = [r.objective for r in sol.incumbent_log]
        assert all(b < a - 1e-12 for a, b in zip(objs, objs[1:]))
        assert sol.incumbent_log[-1].objective == pytest.approx(
            sol.objective, abs=1e-9
        )

    def test_incumbents_carry_their_spheres(self, rng):
        # each record's spheres are its assignment's, as a cold re-solve
        # gives them, and the last record's are the solution's
        g = gram(LINEAR, rng.normal(scale=1.5, size=(12, 2)))
        sol = solve_exact(MsvddProblem(gram=g, p=3, C=0.3, seed=0))
        assert len(sol.incumbent_log) >= 1
        for rec in sol.incumbent_log:
            cold = evaluate_assignment(g, assignment_of(rec.spheres, 12), 3, 0.3)
            assert [s.members for s in rec.spheres] == [s.members for s in cold.spheres]
            assert canonical_objective([s.objective for s in rec.spheres]) == rec.objective
            assert rec.objective == pytest.approx(cold.objective, abs=1e-7)
        assert sol.incumbent_log[-1].spheres is sol.spheres

    def test_optimal_gap_zero(self, two_cluster_solution):
        _, sol = two_cluster_solution
        assert sol.relative_gap <= 1e-6

    def test_deterministic_incumbents(self, rng):
        pts = rng.normal(size=(9, 2))
        g = gram(LINEAR, pts)
        a = solve_exact(MsvddProblem(gram=g, p=2, C=0.5, seed=11))
        b = solve_exact(MsvddProblem(gram=g, p=2, C=0.5, seed=11))
        assert [r.objective for r in a.incumbent_log] == [
            r.objective for r in b.incumbent_log
        ]
        assert all(
            [s.members for s in x.spheres] == [s.members for s in y.spheres]
            for x, y in zip(a.incumbent_log, b.incumbent_log)
        )
        assert a.node_count == b.node_count

    def test_label_permutation_preserves_objective(self, two_cluster_solution):
        from msvdd.solution import canonical_objective

        _, sol = two_cluster_solution
        objs = [s.objective for s in sol.spheres]
        assert canonical_objective(objs) == canonical_objective(objs[::-1])
        assert sol.objective == canonical_objective(objs)

    def test_zero_radius_alternative_optimum_at_floor(self):
        # a sphere holding exactly 1/C members, all on or outside the
        # boundary, admits an equal-cost solution with radius zero; the
        # smallest-minimizer rule returns that radius directly
        from msvdd.svdd import solve_svdd

        g = gram(LINEAR, [[0.0], [4.0]])
        sol = solve_svdd(g, [0, 1], 0.5)
        assert sol.radius_sq == pytest.approx(0.0, abs=1e-9)

        def cost(R):
            return R + 0.5 * np.maximum(0.0, sol.distances_sq - R).sum()

        assert abs(cost(0.0) - cost(4.0)) <= 1e-6

    def test_floor_spheres_tie_check_on_solutions(self, rng):
        # same tie assertion applied to solved instances: every sphere at
        # exactly ceil(1/C) members whose points all sit on or outside the
        # boundary must cost the same with its radius collapsed to zero
        from msvdd.solution import min_members

        pts = rng.normal(scale=1.5, size=(8, 2))
        g = gram(LINEAR, pts)
        for C in (0.5, 0.25):
            sol = solve_exact(MsvddProblem(gram=g, p=2, C=C, seed=0))
            if sol.status is not SolveStatus.OPTIMAL:
                continue
            floor = min_members(C, True)
            for s in sol.spheres:
                boundary_or_out = np.all(s.distances_sq >= s.radius_sq - 1e-6)
                if len(s.members) == floor and boundary_or_out:
                    g_at = lambda R: R + C * np.maximum(0.0, s.distances_sq - R).sum()
                    assert abs(g_at(0.0) - g_at(s.radius_sq)) <= 1e-6

    def test_distance_space_search_agrees(self, rng):
        # the same search run on a Gram derived purely from pairwise squared
        # Euclidean distances must land on the same objective
        pts = rng.normal(scale=1.8, size=(9, 2))
        g_inner = gram(LINEAR, pts)
        g_dist = distance_space_gram(pts)
        a = solve_exact(MsvddProblem(gram=g_inner, p=2, C=0.5, seed=0))
        b = solve_exact(MsvddProblem(gram=g_dist, p=2, C=0.5, seed=0))
        assert a.objective == pytest.approx(b.objective, abs=1e-9)


class TestVerifyBigM:
    def test_optimal_solution_passes_both_delta_flavors(self, two_cluster_solution):
        g, sol = two_cluster_solution
        d_primal = [compute_delta_primal(TWO_CLUSTERS_1D, i) for i in range(6)]
        d_dual = [compute_delta_dual(g, 1.0, i) for i in range(6)]
        assert verify_bigM_feasibility(sol, d_primal, g)
        assert verify_bigM_feasibility(sol, d_dual, g)

    def test_shrunk_radius_fails(self, two_cluster_solution):
        import dataclasses

        g, sol = two_cluster_solution
        deltas = [compute_delta_primal(TWO_CLUSTERS_1D, i) for i in range(6)]
        # the errors follow the radius and the stored column, so shifting
        # both by 1 shrinks the radius and keeps the errors
        s = sol.spheres[0]
        shrunk = dataclasses.replace(
            sol,
            spheres=(
                dataclasses.replace(s, radius_sq=s.radius_sq - 1.0, column=s.column - 1.0),
                sol.spheres[1],
            ),
        )
        assert np.allclose(shrunk.spheres[0].errors, s.errors)
        assert not verify_bigM_feasibility(shrunk, deltas, g)

    def test_zeroed_delta_fails(self, two_cluster_solution):
        g, sol = two_cluster_solution
        deltas = np.array([compute_delta_primal(TWO_CLUSTERS_1D, i) for i in range(6)])
        d2 = np.stack([s.column for s in sol.spheres], axis=1)
        xi = xi_full(sol)
        radii = [s.radius_sq for s in sol.spheres]
        # pick a point whose distance to the sphere it is NOT assigned to
        # exceeds that sphere's radius plus its own error
        broken = deltas.copy()
        found = False
        for i in range(6):
            j = 1 - int(sol.sphere_of[i])
            if d2[i, j] > radii[j] + xi[i] + 1e-6:
                broken[i] = 0.0
                found = True
                break
        assert found
        assert not verify_bigM_feasibility(sol, broken, g)


class PopClock:
    """Stands in for `msvdd.exact`'s ``time`` and ``heapq``: the clock reads
    the number of heap pops so far, so a solve with time_limit = k + 0.5
    times out at its (k + 1)-th pop.  ``keys`` records every popped key."""

    def __init__(self):
        self.keys = []
        self.trail = hashlib.sha256()

    def perf_counter(self):
        return float(len(self.keys))

    def heappop(self, heap):
        item = heapq.heappop(heap)
        self.keys.append(item[0])
        self.trail.update(np.array(item[:2], dtype=float).tobytes() + item[3].sphere_of.tobytes())
        return item

    def digest(self):
        """SHA-256 over every popped (key, -depth, sphere_of), in pop order."""
        return self.trail.hexdigest()

    heappush = staticmethod(heapq.heappush)


class TestDeadlineBound:
    def test_bound_never_drops_as_the_deadline_grows(self, monkeypatch):
        g = gram(LINEAR, np.random.default_rng(0).normal(scale=1.5, size=(14, 2)))
        problem = dict(gram=g, p=2, C=0.2, seed=0)

        def solve(time_limit=None):
            clock = PopClock()
            monkeypatch.setattr(msvdd.exact, "time", clock)
            monkeypatch.setattr(msvdd.exact, "heapq", clock)
            return solve_exact(MsvddProblem(**problem, time_limit=time_limit)), clock.keys

        optimum, keys = solve()
        assert optimum.status is SolveStatus.OPTIMAL
        assert optimum.lower_bound == optimum.objective
        # lifted nodes make a popped key fall below an earlier one, which the
        # smallest open key alone would report as a falling bound
        assert any(k < max(keys[:i]) for i, k in enumerate(keys) if i)
        bounds = []
        for pops in range(len(keys)):
            sol, _ = solve(pops + 0.5)
            if sol.status is SolveStatus.OPTIMAL:
                assert sol.lower_bound == sol.objective == optimum.objective
                break
            assert sol.status is SolveStatus.TIME_LIMIT_INCUMBENT
            bounds.append(sol.lower_bound)
        assert len(bounds) >= len(keys) // 2
        assert bounds == sorted(bounds)
        assert bounds[-1] > bounds[0]
        assert max(bounds) <= optimum.objective


def screen_case(C, m):
    """Which screen a sphere of m members grown by one point takes."""
    if not collapses(C, m):
        return "pair step"
    return "collapsed" if collapses(C, m + 1) else "uniform"


class TestScreens:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_screen_bounds_the_cold_solved_child(self, seed):
        # walk down the tree through random children; every child of a
        # nonempty sphere is screened from its parent sphere.  With 1/C in
        # (k - 1, k] and more than p * k points, some sphere grows past k
        # members on every walk, so each walk meets all three screens
        r = np.random.default_rng(seed)
        p = int(r.integers(2, 4))
        k = int(r.integers(3, 5))
        C = float(r.uniform(1.0 / k, 1.0 / (k - 1)))
        n = p * k + int(r.integers(1, 4))
        floor = min_members(C, bool(r.random() < 0.5))
        spec = rbf(float(r.uniform(0.2, 2.0))) if r.random() < 0.5 else LINEAR
        g = gram(spec, r.normal(scale=1.5, size=(n, 2)))
        node = _node_of(np.full(n, -1), g, C, p)
        seen = set()
        while node.depth < n:
            children = expand(node, g, C, p, floor)
            point = node.pick[0]
            for child in children:
                j = int(child.sphere_of[point])
                old = node.spheres[j]
                if old is None:
                    continue
                screen = _screen(old, point, g.values, C)
                cold = _node_of(child.sphere_of, g, C, p).spheres[j]
                rounding = 1e-12 * max(1.0, abs(cold.objective))
                assert screen <= cold.objective + rounding
                case = screen_case(C, len(old.members))
                if case == "collapsed":
                    # the grown zero-radius sphere's value, in closed form
                    assert screen == pytest.approx(cold.objective, rel=1e-12, abs=1e-12)
                seen.add(case)
            node = children[int(r.integers(len(children)))]
        assert seen == {"pair step", "collapsed", "uniform"}

    # instances on which the screens drop children
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("kernel,n,seed,p,C,time_limit", [
        (LINEAR, 18, 0, 2, 0.2, None),
        (LINEAR, 18, 1, 3, 0.3, None),
        (rbf(4.0), 16, 0, 2, 0.15, None),
        (rbf(2.0), 16, 1, 3, 0.3, None),
        (LINEAR, 18, 1, 3, 0.3, 100.5),
    ])
    def test_screens_leave_the_search_unchanged(
        self, monkeypatch, kernel, n, seed, p, C, time_limit, scale
    ):
        # the same search with screens that never drop a child: the same
        # popped (key, -depth, sphere_of) sequence, nodes and objectives
        g = gram(kernel, np.random.default_rng(seed).normal(scale=1.5, size=(n, 2)))
        g = GramMatrix(g.values * scale, g.spec)
        problem = MsvddProblem(gram=g, p=p, C=C, time_limit=time_limit, seed=0)
        real = msvdd.exact._screen
        dropped = []

        def counting(sphere, point, V, C, reach=-math.inf):
            value = real(sphere, point, V, C, reach)
            dropped.append(value >= reach)
            return value

        def solve():
            # a clock that counts heap pops makes the time limit deterministic
            clock = PopClock()
            monkeypatch.setattr(msvdd.exact, "time", clock)
            monkeypatch.setattr(msvdd.exact, "heapq", clock)
            return solve_exact(problem), clock.digest()

        monkeypatch.setattr(msvdd.exact, "_screen", counting)
        screened, trail = solve()
        assert any(dropped)
        monkeypatch.setattr(msvdd.exact, "_screen", lambda *args: -math.inf)
        full, full_trail = solve()
        expected = SolveStatus.OPTIMAL if time_limit is None else SolveStatus.TIME_LIMIT_INCUMBENT
        assert screened.status is full.status is expected
        assert trail == full_trail
        assert screened.node_count == full.node_count
        assert screened.objective.hex() == full.objective.hex()
        assert np.array_equal(screened.sphere_of, full.sphere_of)
        assert screened.lower_bound == full.lower_bound
        assert ([r.objective for r in screened.incumbent_log]
                == [r.objective for r in full.incumbent_log])


class TestIncumbentGapRows:
    def test_final_gap_zero_and_formula(self, two_cluster_solution):
        _, sol = two_cluster_solution
        rows = incumbent_gap_rows(sol)
        assert rows[-1]["gap"] == pytest.approx(0.0, abs=1e-12)
        for row in rows:
            z_inc = row["objective"]
            expected = (z_inc - sol.objective) / z_inc if abs(z_inc) > 1e-300 else 0.0
            assert row["gap"] == pytest.approx(expected, abs=1e-15)
            assert row["reference"] == "optimal"

    def test_timeout_rows_flag_lower_bound_reference(self, rng):
        pts = rng.normal(scale=1.5, size=(16, 2))
        g = gram(LINEAR, pts)
        sol = solve_exact(MsvddProblem(gram=g, p=2, C=0.5, time_limit=0.0, seed=0))
        assert sol.status is SolveStatus.TIME_LIMIT_INCUMBENT
        rows = incumbent_gap_rows(sol)
        assert rows
        for row in rows:
            assert row["reference"] == "lower_bound"
            expected = (row["objective"] - sol.lower_bound) / row["objective"]
            assert row["gap"] == pytest.approx(expected, abs=1e-15)
