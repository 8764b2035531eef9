import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from msvdd.errors import InputError
from msvdd.kernels import (
    GramMatrix,
    KernelKind,
    KernelSpec,
    LINEAR,
    cross_kernel,
    gram,
    rbf,
)
from msvdd.svdd import solve_svdd, zero_radius_sphere


class TestEvalKernel:
    # single pairs, as 1-row blocks of cross_kernel
    def test_linear_dot_product(self):
        assert cross_kernel(LINEAR, (1, 2), (3, 4)).tolist() == [[11.0]]

    def test_rbf_zero_distance(self):
        assert cross_kernel(rbf(0.5), (7, -1), (7, -1))[0, 0] == 1.0

    def test_rbf_unit_distance(self):
        # exp(-1) under the fixed convention exp(-||x-y||^2 / sigma2)
        val = cross_kernel(rbf(1.0), (0, 0), (1, 0))[0, 0]
        assert val == pytest.approx(0.36787944117144233, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            cross_kernel(LINEAR, (1, 2), (1, 2, 3))

    def test_rbf_requires_positive_sigma(self):
        with pytest.raises(InputError):
            KernelSpec(KernelKind.RBF, 0.0)
        with pytest.raises(InputError):
            KernelSpec(KernelKind.RBF)


class TestGram:
    def test_orthonormal_pair(self):
        g = gram(LINEAR, [(1, 0), (0, 1)])
        assert np.array_equal(g.values, np.eye(2))

    def test_rbf_single_point(self):
        g = gram(rbf(0.25), [(3.0, 4.0)])
        assert np.array_equal(g.values, [[1.0]])

    def test_linear_by_hand(self):
        g = gram(LINEAR, [(1, 1), (2, 2)])
        assert np.array_equal(g.values, [[2.0, 4.0], [4.0, 8.0]])

    def test_empty_input(self):
        with pytest.raises(InputError):
            gram(LINEAR, np.zeros((0, 2)))

    def test_more_than_two_dimensions_rejected(self):
        with pytest.raises(InputError):
            gram(LINEAR, np.zeros((2, 3, 2)))

    def test_one_dimensional_points_rejected(self):
        # three 1-D coordinates are not one 3-D point
        with pytest.raises(InputError, match=r"reshape\(-1, 1\)"):
            gram(LINEAR, [0.0, 1.0, 2.0])
        assert gram(LINEAR, np.reshape([0.0, 1.0, 2.0], (-1, 1))).n == 3
        # a 1-D query stays one point for cross_kernel
        assert cross_kernel(LINEAR, [1.0, 2.0], [[1.0, 0.0], [0.0, 1.0]]).shape == (1, 2)

    def test_symmetry_exact_and_rbf_diag(self, rng):
        pts = rng.normal(size=(17, 3))
        for spec in (LINEAR, rbf(0.3)):
            g = gram(spec, pts)
            assert np.array_equal(g.values, g.values.T)
        g = gram(rbf(0.3), pts)
        assert np.all(np.diag(g.values) == 1.0)

    def test_asymmetric_input_stored_as_symmetric_part(self, rng):
        v = rng.normal(size=(6, 6))
        g = GramMatrix(v, LINEAR)
        assert np.array_equal(g.values, 0.5 * (v + v.T))
        assert np.array_equal(g.values, g.values.T)
        symmetric = v + v.T
        assert np.array_equal(GramMatrix(symmetric, LINEAR).values, symmetric)

    @pytest.mark.parametrize("spec", [LINEAR, rbf(0.3)], ids=["linear", "rbf"])
    @pytest.mark.parametrize("k", [-3, 0, 3])
    def test_values_bit_identical_to_symmetrize_then_pin(self, spec, k, rng):
        # symmetrizing before pinning the RBF diagonal, as gram() did, and
        # after, as GramMatrix does, gives the same bits
        pts = rng.normal(size=(17, 3)) * 10.0**k + 5.0
        ref = cross_kernel(spec, pts, pts)
        ref = 0.5 * (ref + ref.T)
        if spec.kind is KernelKind.RBF:
            np.fill_diagonal(ref, 1.0)
        assert np.array_equal(gram(spec, pts).values, ref)

    def test_positive_semidefinite_small(self, rng):
        pts = rng.normal(size=(12, 2))
        for spec in (LINEAR, rbf(0.5)):
            eigs = np.linalg.eigvalsh(gram(spec, pts).values)
            assert eigs.min() >= -1e-8

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, bad):
        pts = np.array([[0.0, 1.0], [bad, 2.0], [3.0, 4.0]])
        for spec in (LINEAR, rbf(1.0)):
            with pytest.raises(InputError):
                gram(spec, pts)

    def test_non_finite_matrix_rejected(self):
        with pytest.raises(InputError):
            GramMatrix(np.array([[1.0, np.nan], [np.nan, 1.0]]), LINEAR)

    def test_values_immutable(self, rng):
        g = gram(LINEAR, rng.normal(size=(4, 2)))
        with pytest.raises(ValueError):
            g.values[0, 0] = 5.0


class TestFeatureDistanceSq:
    """Squared feature distances to a sphere's center from Gram entries alone,
    as a solved sphere's ``column`` holds them; a zero-radius sphere is centred at the
    uniform mean of its members."""

    @staticmethod
    def distance_sq(g, i, members):
        return float(zero_radius_sphere(g, members, 1.0).column[i])

    def test_unit_weight_on_self(self, rng):
        g = gram(LINEAR, rng.normal(size=(5, 2)))
        assert self.distance_sq(g, 2, [2]) == 0.0

    def test_distance_to_other_point(self):
        g = gram(LINEAR, [(0.0, 0.0), (2.0, 0.0)])
        assert self.distance_sq(g, 0, [1]) == pytest.approx(4.0, abs=1e-12)

    def test_midpoint_center(self):
        g = gram(LINEAR, [(0.0, 0.0), (2.0, 0.0)])
        assert self.distance_sq(g, 0, [0, 1]) == pytest.approx(1.0, abs=1e-12)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_linear_matches_euclidean(self, seed):
        r = np.random.default_rng(seed)
        n = int(r.integers(2, 9))
        pts = r.normal(scale=3.0, size=(n, int(r.integers(1, 4))))
        g = gram(LINEAR, pts)
        sphere = solve_svdd(g, range(n), float(r.uniform(1.0 / n, 1.0)))
        i = int(r.integers(0, n))
        direct = float(np.sum((pts[i] - sphere.alpha @ pts) ** 2))
        got = float(sphere.column[i])
        assert got == pytest.approx(direct, abs=1e-9)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_joint_permutation_invariance(self, seed):
        r = np.random.default_rng(seed)
        n = 6
        pts = r.normal(size=(n, 2))
        members = sorted(r.choice(n, size=int(r.integers(1, n + 1)), replace=False))
        perm = r.permutation(n)
        where = np.argsort(perm)  # position of each original point in pts[perm]
        g = gram(LINEAR, pts)
        gp = gram(LINEAR, pts[perm])
        i = int(r.integers(0, n))
        a = self.distance_sq(g, i, members)
        b = self.distance_sq(gp, int(where[i]), sorted(int(where[k]) for k in members))
        assert a == pytest.approx(b, abs=1e-9)

    def test_clamps_tiny_negative(self, rng):
        g = gram(rbf(0.05), rng.normal(size=(6, 2)))
        assert self.distance_sq(g, 4, [4]) == 0.0
