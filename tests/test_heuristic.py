import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import msvdd.heuristic

from msvdd.errors import InputError
from msvdd.exact import MsvddProblem, solve_exact
from msvdd.heuristic import HeuristicConfig, _nearest_sphere, solve_heuristic
from msvdd.kernels import LINEAR, gram, rbf
from msvdd.solution import SolveStatus
from msvdd.svdd import solve_svdd
from oracles import assignment_of, evaluate_assignment

TWO_CLUSTERS_1D = np.array([[0.0], [0.1], [0.2], [10.0], [10.1], [10.2]])


class TestConfig:
    def test_validation(self):
        with pytest.raises(InputError):
            HeuristicConfig(p=2, nu=0.0)
        with pytest.raises(InputError):
            HeuristicConfig(p=2, nu=1.2)
        with pytest.raises(InputError):
            HeuristicConfig(p=2, nu=0.5, max_iters=0)
        with pytest.raises(InputError):
            HeuristicConfig(p=0, nu=0.5)

    @pytest.mark.parametrize("field,value", [
        ("p", 2.5), ("nu", "x"), ("restarts", 1.5), ("seed", 0.5), ("max_iters", "9"),
    ])
    def test_wrongly_typed_field_is_named(self, field, value):
        with pytest.raises(InputError, match=field):
            HeuristicConfig(**{"p": 2, "nu": 0.5, field: value})

    def test_incumbents_carry_their_spheres(self, rng):
        g = gram(LINEAR, rng.normal(size=(12, 2)))
        sol = solve_heuristic(g, HeuristicConfig(p=2, nu=0.3, seed=0))
        for rec in sol.incumbent_log:
            # the spheres partition the points, and their values sum to the record's
            assert (assignment_of(rec.spheres, 12) >= 0).all()
            assert sum(len(s.members) for s in rec.spheres) == 12
            assert sum(s.objective for s in rec.spheres) == pytest.approx(rec.objective)


class TestSolveHeuristic:
    def test_single_sphere_equals_direct_solve(self, rng):
        pts = rng.normal(size=(12, 2))
        g = gram(LINEAR, pts)
        nu = 0.25
        heur = solve_heuristic(g, HeuristicConfig(p=1, nu=nu, seed=0))
        direct = solve_svdd(g, range(12), 1.0 / (nu * 12))
        assert heur.objective == pytest.approx(direct.objective, abs=1e-7)
        assert heur.status is SolveStatus.HEURISTIC

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_two_clusters_natural_split(self, seed):
        g = gram(LINEAR, TWO_CLUSTERS_1D)
        heur = solve_heuristic(
            g, HeuristicConfig(p=2, nu=0.1, restarts=3, seed=seed)
        )
        exact = solve_exact(MsvddProblem(gram=g, p=2, C=1.0, seed=0))
        # same partition up to sphere labels
        h = heur.sphere_of
        e = exact.sphere_of
        match = np.all((h == h[0]) == (e == e[0]))
        assert match

    def test_objective_history_nonincreasing(self):
        g = gram(LINEAR, TWO_CLUSTERS_1D)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            pts = rng.normal(scale=2.0, size=(14, 2)) + rng.choice(
                [-3.0, 3.0], size=(14, 1)
            )
            gm = gram(LINEAR, pts)
            heur = solve_heuristic(
                gm, HeuristicConfig(p=2, nu=0.2, max_iters=200, seed=seed)
            )
            hist = heur.iterate_objectives
            assert len(hist) >= 1
            assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))

    def test_terminates_within_iteration_budget(self, rng):
        pts = rng.normal(size=(20, 2))
        g = gram(LINEAR, pts)
        heur = solve_heuristic(g, HeuristicConfig(p=3, nu=0.3, max_iters=200, seed=5))
        assert len(heur.iterate_objectives) <= 200

    def test_per_sphere_penalties(self, rng):
        pts = rng.normal(size=(10, 2))
        g = gram(LINEAR, pts)
        nu = 0.4
        heur = solve_heuristic(g, HeuristicConfig(p=2, nu=nu, seed=1))
        for s in heur.spheres:
            assert s.C == pytest.approx(1.0 / (nu * len(s.members)), abs=1e-12)

    def test_upper_bounds_exact_under_global_C(self, rng):
        for seed in range(5):
            r = np.random.default_rng(seed)
            pts = r.normal(scale=2.0, size=(8, 2))
            g = gram(LINEAR, pts)
            C = 0.5
            exact = solve_exact(MsvddProblem(gram=g, p=2, C=C, seed=0))
            heur = solve_heuristic(g, HeuristicConfig(p=2, nu=0.25, seed=seed))
            under_c = evaluate_assignment(g, heur.sphere_of, 2, C)
            if under_c is not None:
                assert under_c.objective >= exact.objective - 1e-6

    def test_restarts_solve_each_cluster_once(self, rng, monkeypatch):
        # with p = 1 every restart holds the same single cluster
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1])
            return solve_svdd(*args, **kwargs)

        monkeypatch.setattr(msvdd.heuristic, "solve_svdd", counting)
        g = gram(LINEAR, rng.normal(size=(12, 2)))
        heur = solve_heuristic(g, HeuristicConfig(p=1, nu=0.25, restarts=4))
        assert len(calls) == 1
        assert heur.objective == solve_svdd(g, range(12), 1.0 / 3.0).objective

    def test_all_spheres_nonempty(self, rng):
        pts = rng.normal(size=(9, 2))
        g = gram(LINEAR, pts)
        heur = solve_heuristic(g, HeuristicConfig(p=3, nu=0.5, seed=7))
        assert all(len(s.members) >= 1 for s in heur.spheres)

    def test_needs_enough_points(self, rng):
        g = gram(LINEAR, rng.normal(size=(2, 2)))
        with pytest.raises(InputError):
            solve_heuristic(g, HeuristicConfig(p=3, nu=0.5))


# (draw, kernel, p, nu, objective, sphere_of, iterate objectives) of a
# five-restart heuristic on 20 normal points, the draw also seeding the
# restarts; handing back the restart partitions must not move any of them
RECORDED_RUNS = [
    (0, LINEAR, 2, 0.2, 4.2809564902, "11010000011010001101",
     (12.1836454819, 9.2402325745, 8.2723397498, 4.7854946084, 4.2809564902)),
    (1, LINEAR, 3, 0.3, 10.1861150724, "10111121020122101121", (21.4233407685, 10.1861150724)),
    (2, rbf(1.0), 2, 0.25, 1.6162018423, "00011101101111111011",
     (1.6221956981, 1.6211445233, 1.6162018423)),
    (3, rbf(1.0), 3, 0.2, 2.2242972128, "00001200221211100021", (2.2582758467, 2.2242972128)),
]


class TestRestartPartitions:
    @pytest.mark.parametrize("draw,spec,p,nu,objective,sphere_of,iterates", RECORDED_RUNS)
    def test_result_matches_the_recorded_run(self, draw, spec, p, nu, objective, sphere_of,
                                             iterates):
        g = gram(spec, np.random.default_rng(draw).normal(scale=1.5, size=(20, 2)))
        heur = solve_heuristic(g, HeuristicConfig(p=p, nu=nu, restarts=5, seed=draw))
        assert heur.objective == pytest.approx(objective, abs=1e-9)
        assert "".join(map(str, heur.sphere_of)) == sphere_of
        assert heur.iterate_objectives == pytest.approx(iterates, abs=1e-9)

    @pytest.mark.parametrize("draw,spec,p,nu", [run[:4] for run in RECORDED_RUNS])
    def test_one_final_partition_per_restart(self, draw, spec, p, nu):
        g = gram(spec, np.random.default_rng(draw).normal(scale=1.5, size=(20, 2)))
        heur = solve_heuristic(g, HeuristicConfig(p=p, nu=nu, restarts=5, seed=draw))
        assert len(heur.restart_partitions) == 5
        # the kept restart is one of them, and restart 0 is a lone run's
        assert any(np.array_equal(heur.sphere_of, s) for s in heur.restart_partitions)
        first = solve_heuristic(g, HeuristicConfig(p=p, nu=nu, restarts=1, seed=draw))
        assert np.array_equal(heur.restart_partitions[0], first.sphere_of)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1), st.sampled_from([2, 3]),
           st.sampled_from([0.05, 0.2, 0.5, 1.0]), st.booleans())
    def test_no_restart_ends_with_an_empty_cluster(self, seed, p, nu, on_grid):
        # the exact root's cardinality repair takes every restart partition
        # of more than p points as it is, and needs all p clusters nonempty;
        # points on a coarse grid repeat, so clusters can tie or coincide
        r = np.random.default_rng(seed)
        n = int(r.integers(p + 1, 13))
        pts = r.integers(-2, 3, size=(n, 2)).astype(float) if on_grid else r.normal(size=(n, 2))
        spec = rbf(float(r.uniform(0.2, 2.0))) if r.random() < 0.5 else LINEAR
        heur = solve_heuristic(gram(spec, pts), HeuristicConfig(p=p, nu=nu, seed=seed % 97))
        for partition in heur.restart_partitions:
            assert (np.bincount(partition, minlength=p) > 0).all()


class TestReassign:
    @staticmethod
    def reassign(g, memberships, C):
        # each point's sphere under the alternation's reassignment rule
        spheres = [solve_svdd(g, m, C) for m in memberships]
        radii = np.array([s.radius_sq for s in spheres])
        return _nearest_sphere(np.stack([s.column for s in spheres], axis=1), radii)

    def test_point_inside_one_sphere(self):
        pts = np.array([[0.0], [1.0], [10.0], [11.0], [0.4]])
        g = gram(LINEAR, pts)
        assert self.reassign(g, [(0, 1), (2, 3)], 1.0)[4] == 0

    def test_tie_inside_two_goes_to_nearer_center(self):
        # point 4 sits inside both spheres; nearer center wins
        pts = np.array([[0.0], [4.0], [5.0], [9.0], [3.0]])
        g = gram(LINEAR, pts)
        assert self.reassign(g, [(0, 1), (2, 3)], 1.0)[4] == 0

    def test_outside_all_smallest_excess_wins(self):
        # centers 0.5 and 9.5 with radii ~0.25; point at 4 is outside both
        # but closer to the left boundary
        pts = np.array([[0.0], [1.0], [9.0], [10.0], [4.0]])
        g = gram(LINEAR, pts)
        assert self.reassign(g, [(0, 1), (2, 3)], 1.0)[4] == 0

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_vectorized_rule_matches_lexsort(self, seed):
        # few distinct values force ties in excess and in distance
        r = np.random.default_rng(seed)
        n, p = int(r.integers(1, 30)), int(r.integers(1, 5))
        d2 = r.integers(0, 4, size=(n, p)).astype(float)
        radii = r.integers(0, 3, size=p).astype(float)
        excess = np.maximum(0.0, d2 - radii[None, :])
        expected = [np.lexsort((d2[i], excess[i]))[0] for i in range(n)]
        assert np.array_equal(_nearest_sphere(d2, radii), expected)
