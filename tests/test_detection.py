import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from msvdd.detection import (
    DetectionModel,
    _average_ranks,
    Label,
    anomaly_score,
    auc_roc,
    classify,
    linear_centers,
    model_distances_sq,
    score_points,
)
from msvdd.errors import InputError, UndefinedMetricError
from msvdd.exact import MsvddProblem, solve_exact
from msvdd.kernels import LINEAR, KernelKind, KernelSpec, cross_kernel, gram, rbf
from oracles import average_ranks_loop, geometric_scores, roc_curve, trapezoid_auc, xi_full


def manual_model(centers, radii):
    """Model whose 'training points' are exactly the sphere centers."""
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    p = centers.shape[0]
    alphas = np.eye(p)
    quad = np.sum(centers * centers, axis=1)
    return DetectionModel(
        KernelSpec(KernelKind.LINEAR), centers, alphas, np.asarray(radii, float), quad
    )


class TestScores:
    def test_center_scores_minus_radius(self):
        m = manual_model([[0.0, 0.0]], [2.0])
        assert anomaly_score(m, [0.0, 0.0]) == pytest.approx(-2.0, abs=1e-12)
        assert classify(m, [0.0, 0.0]) is Label.REGULAR

    def test_boundary_counts_as_regular(self):
        m = manual_model([[0.0, 0.0]], [1.0])
        assert anomaly_score(m, [1.0, 0.0]) == pytest.approx(0.0, abs=1e-12)
        assert classify(m, [1.0, 0.0]) is Label.REGULAR

    def test_outside_positive_excess(self):
        m = manual_model([[0.0, 0.0]], [1.0])
        assert anomaly_score(m, [2.0, 0.0]) == pytest.approx(3.0, abs=1e-12)
        assert classify(m, [2.0, 0.0]) is Label.OUTLIER

    def test_min_over_spheres(self):
        m = manual_model([[0.0, 0.0], [10.0, 0.0]], [1.0, 4.0])
        assert anomaly_score(m, [9.0, 0.0]) == pytest.approx(-3.0, abs=1e-12)

    def test_dimension_mismatch(self):
        m = manual_model([[0.0, 0.0]], [1.0])
        with pytest.raises(InputError):
            anomaly_score(m, [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("spec", [LINEAR, rbf(1.0)], ids=["linear", "rbf"])
    def test_non_finite_query_rejected(self, bad, spec, rng):
        # a NaN query used to score NaN, with a RuntimeWarning, and classify
        # as an outlier
        pts = rng.normal(size=(6, 2))
        sol = solve_exact(MsvddProblem(gram=gram(spec, pts), p=1, C=0.5))
        m = DetectionModel.from_solution(sol, gram(spec, pts), pts)
        for call in (score_points, model_distances_sq):
            with pytest.raises(InputError, match="finite"):
                call(m, [[0.0, 0.0], [bad, 0.0]])
        with pytest.raises(InputError, match="finite"):
            classify(m, [0.0, bad])

    def test_kernel_expansion_equals_geometry_for_linear(self, rng):
        pts = rng.normal(scale=1.5, size=(12, 2))
        g = gram(LINEAR, pts)
        sol = solve_exact(MsvddProblem(gram=g, p=2, C=0.5, seed=0))
        model = DetectionModel.from_solution(sol, g, pts)
        queries = rng.normal(scale=2.5, size=(40, 2))
        via_kernel = score_points(model, queries)
        via_geometry = geometric_scores(model, queries)
        assert np.allclose(via_kernel, via_geometry, atol=1e-9)

    @pytest.mark.parametrize("spec", [LINEAR, rbf(0.5)], ids=["linear", "rbf"])
    def test_support_vector_columns_match_all_columns(self, spec, rng):
        pts = rng.normal(scale=1.5, size=(30, 2))
        g = gram(spec, pts)
        sol = solve_exact(MsvddProblem(gram=g, p=2, C=0.2, seed=0))
        model = DetectionModel.from_solution(sol, g, pts)
        assert np.any(np.all(model.alphas == 0.0, axis=0))
        queries = rng.normal(scale=2.5, size=(50, 2))
        kxx = np.diag(cross_kernel(spec, queries, queries))
        full = (
            kxx[:, None]
            - 2.0 * cross_kernel(spec, queries, pts) @ model.alphas.T
            + model.alpha_quad[None, :]
        )
        assert np.allclose(
            model_distances_sq(model, queries), np.maximum(full, 0.0), rtol=0.0, atol=1e-12
        )

    def test_linear_centers_shape(self, rng):
        pts = rng.normal(size=(8, 2))
        g = gram(LINEAR, pts)
        sol = solve_exact(MsvddProblem(gram=g, p=2, C=0.5, seed=0))
        model = DetectionModel.from_solution(sol, g, pts)
        assert linear_centers(model).shape == (2, 2)
        rbf_model = DetectionModel.from_solution(
            sol, gram(rbf(0.5), pts), pts
        )
        with pytest.raises(InputError):
            linear_centers(rbf_model)

    def test_training_members_score_nonpositive_inside(self, rng):
        pts = rng.normal(size=(10, 2))
        g = gram(rbf(0.5), pts)
        sol = solve_exact(MsvddProblem(gram=g, p=2, C=1.0, seed=0))
        model = DetectionModel.from_solution(sol, g, pts)
        scores = score_points(model, pts)
        xi = xi_full(sol)
        # points with zero error sit inside or on their sphere
        assert np.all(scores[xi <= 1e-9] <= 1e-6)


class TestAucRoc:
    def test_perfect_separation(self):
        roc = auc_roc([1, 2, 3, 4], [0, 0, 1, 1])
        assert roc.auc == 1.0

    def test_anti_separation(self):
        roc = auc_roc([1, 2, 3, 4], [1, 1, 0, 0])
        assert roc.auc == 0.0

    def test_ties_average_rank(self):
        roc = auc_roc([1, 1, 2, 2], [0, 1, 0, 1])
        assert roc.auc == 0.5

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_ranks_match_the_loop(self, seed):
        r = np.random.default_rng(seed)
        n = int(r.integers(1, 80))
        # few distinct values force long runs of ties
        values = r.integers(0, int(r.integers(1, n + 1)), size=n) * 0.25
        if r.random() < 0.3:
            values = values + r.normal(size=n)
        assert np.array_equal(_average_ranks(values), average_ranks_loop(values))

    def test_single_class_rejected(self):
        with pytest.raises(UndefinedMetricError):
            auc_roc([1, 2], [1, 1])

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            auc_roc([1, 2, 3], [0, 1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_rejected(self, bad):
        # a NaN score used to rank somewhere and give an AUC of 0.75
        with pytest.raises(InputError, match="finite"):
            auc_roc([bad, 0.1, 0.2, 0.3], [1, 0, 1, 0])

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_curve_monotone_and_trapezoid_identity(self, seed):
        r = np.random.default_rng(seed)
        n = int(r.integers(4, 60))
        scores = r.normal(size=n)
        if r.random() < 0.4:
            scores = np.round(scores, 1)  # force ties
        labels = r.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        thresholds, fpr, tpr = roc_curve(scores, labels)
        assert np.all(np.diff(fpr) >= 0)
        assert np.all(np.diff(tpr) >= 0)
        assert fpr[0] == 0.0 and tpr[0] == 0.0
        assert fpr[-1] == 1.0 and tpr[-1] == 1.0
        # one curve point per distinct score, after a first threshold above them all
        assert thresholds[0] == np.inf
        assert len(thresholds) == len(fpr) == len(tpr) == np.unique(scores).size + 1
        assert abs(auc_roc(scores, labels).auc - trapezoid_auc(fpr, tpr)) <= 1e-12

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_invariance_under_increasing_transform(self, seed):
        r = np.random.default_rng(seed)
        n = int(r.integers(4, 40))
        scores = r.normal(size=n)
        labels = r.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        base = auc_roc(scores, labels).auc
        warped = auc_roc(np.expm1(2.0 * scores), labels).auc
        assert warped == pytest.approx(base, abs=1e-12)


class TestScoreRuleConsistency:
    def test_classify_matches_score_sign(self, rng):
        pts = rng.normal(size=(10, 2))
        g = gram(LINEAR, pts)
        sol = solve_exact(MsvddProblem(gram=g, p=2, C=0.5, seed=0))
        model = DetectionModel.from_solution(sol, g, pts)
        for x in rng.normal(scale=2.0, size=(25, 2)):
            s = anomaly_score(model, x)
            expected = Label.REGULAR if s <= 1e-9 else Label.OUTLIER
            assert classify(model, x) is expected
