"""Decision rules, anomaly scores, and AUC-ROC evaluation.

The fitted rule is binary (a point is regular when it falls inside at least
one sphere, boundary included).  For ranking metrics the scalar score is the
signed boundary excess min_j (d_j^2(x) - R_j): zero exactly on a boundary,
negative inside, positive outside, and monotone in the rule.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import InputError, UndefinedMetricError
from .kernels import GramMatrix, KernelKind, KernelSpec, cross_kernel
from .solution import IncumbentRecord, MsvddSolution

BOUNDARY_TOL = 1e-9


class Label(enum.Enum):
    REGULAR = "regular"
    OUTLIER = "outlier"


@dataclass(frozen=True)
class DetectionModel:
    """Spheres in dual form: weight rows over the training points plus radii.

    Everything needed to score new points through kernel evaluations alone;
    ``alpha_quad`` holds alpha' K alpha per sphere, as each solved sphere
    stores it.
    """

    kernel_spec: KernelSpec
    train_points: np.ndarray
    alphas: np.ndarray      # (p, n_train)
    radii: np.ndarray       # (p,)
    alpha_quad: np.ndarray  # (p,)

    @classmethod
    def from_solution(
        cls, solution: MsvddSolution | IncumbentRecord, gram_matrix: GramMatrix, train_points
    ) -> "DetectionModel":
        """The model of the spheres ``solution`` carries (a solution's, or an
        incumbent's along the search)."""
        pts = np.atleast_2d(np.asarray(train_points, dtype=float))
        n = pts.shape[0]
        p = len(solution.spheres)
        alphas = np.zeros((p, n))
        quad = np.zeros(p)
        radii = np.zeros(p)
        for j, s in enumerate(solution.spheres):
            alphas[j, list(s.members)] = s.alpha
            quad[j] = s.alpha_quad
            radii[j] = s.radius_sq
        return cls(gram_matrix.spec, pts, alphas, radii, quad)


def model_distances_sq(model: DetectionModel, X) -> np.ndarray:
    """(m, p) squared feature distances from query points to sphere centers.

    Raises InputError on a query of the wrong dimension or with a non-finite
    coordinate.  The cross-kernel block is built against the support vectors
    only (the training points with weight in some sphere): the other columns
    would multiply zero weights.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != model.train_points.shape[1]:
        raise InputError(
            f"query dimension {X.shape[1]} does not match training dimension "
            f"{model.train_points.shape[1]}"
        )
    if not np.isfinite(X).all():
        raise InputError("query points must have finite coordinates")
    if model.kernel_spec.kind is KernelKind.LINEAR:
        kxx = np.sum(X * X, axis=1)
    else:
        kxx = np.ones(X.shape[0])
    sv = np.flatnonzero(np.any(model.alphas != 0.0, axis=0))
    kxt = cross_kernel(model.kernel_spec, X, model.train_points[sv])
    d2 = kxx[:, None] - 2.0 * (kxt @ model.alphas[:, sv].T) + model.alpha_quad[None, :]
    np.maximum(d2, 0.0, out=d2)
    return d2


def score_points(model: DetectionModel, X) -> np.ndarray:
    """Signed boundary excess min_j (d_j^2 - R_j) for each query point."""
    d2 = model_distances_sq(model, X)
    return np.min(d2 - model.radii[None, :], axis=1)


def anomaly_score(model: DetectionModel, x) -> float:
    return float(score_points(model, np.atleast_2d(np.asarray(x, dtype=float)))[0])


def classify(model: DetectionModel, x) -> Label:
    """Regular iff the point lies inside (or on the boundary of) some sphere."""
    return Label.REGULAR if anomaly_score(model, x) <= BOUNDARY_TOL else Label.OUTLIER


@dataclass(frozen=True)
class RocResult:
    """Area under the ROC curve, outliers the positive class."""

    auc: float


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, each run of equal values sharing the mean of its ranks."""
    order = np.argsort(values, kind="mergesort")
    sorted_vals = values[order]
    first = np.ones(values.size, dtype=bool)
    first[1:] = sorted_vals[1:] != sorted_vals[:-1]
    starts = np.flatnonzero(first)
    ends = np.append(starts[1:], values.size) - 1
    ranks = np.empty(values.size)
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, ends - starts + 1)
    return ranks


def auc_roc(scores, labels) -> RocResult:
    """Rank-based AUC with average-rank tie handling: the Mann-Whitney U of
    the outlier scores over n_out * n_reg, which equals the trapezoid area
    under the ROC curve with ties grouped into one step.

    ``labels`` flags outliers truthy; outliers are expected to score higher.
    Perfect separation gives 1, anti-separation 0.  Raises InputError on a
    non-finite score, and UndefinedMetricError when only one class is present.
    """
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels).astype(bool).ravel()
    if s.ravel().shape != y.shape:
        raise InputError("scores and labels must have equal length")
    s = s.ravel()
    if not np.isfinite(s).all():
        raise InputError("scores must be finite")
    n_out = int(y.sum())
    n_reg = y.size - n_out
    if n_out == 0 or n_reg == 0:
        raise UndefinedMetricError("AUC needs both regular and outlier labels")
    u = _average_ranks(s)[y].sum() - n_out * (n_out + 1) / 2.0
    return RocResult(auc=float(u / (n_out * n_reg)))


def linear_centers(model: DetectionModel) -> np.ndarray:
    """Explicit sphere centers in input coordinates (linear kernel only)."""
    if model.kernel_spec.kind is not KernelKind.LINEAR:
        raise InputError("explicit centers exist only for the linear kernel")
    return model.alphas @ model.train_points

