"""Kernel functions and Gram-matrix construction.

All solver geometry is expressed through pairwise kernel values, so the plain
Euclidean setting is just the linear kernel applied to raw coordinates.  The
RBF convention is fixed as K(x, y) = exp(-||x - y||^2 / sigma_squared), with
sigma_squared appearing directly in the denominator (no extra factor of 2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import POSITIVE, InputError, checked


class KernelKind(enum.Enum):
    LINEAR = "linear"
    RBF = "rbf"


@dataclass(frozen=True)
class KernelSpec:
    """Kernel choice; ``sigma_squared`` is required (a finite number > 0) for RBF."""

    kind: KernelKind
    sigma_squared: float | None = None

    def __post_init__(self):
        kind = self.kind
        if not isinstance(kind, KernelKind):
            kind = KernelKind(str(kind).lower())
            object.__setattr__(self, "kind", kind)
        if kind is KernelKind.RBF:
            checked("sigma_squared", self.sigma_squared, *POSITIVE)


LINEAR = KernelSpec(KernelKind.LINEAR)


def rbf(sigma_squared: float) -> KernelSpec:
    return KernelSpec(KernelKind.RBF, float(sigma_squared))


@dataclass(frozen=True)
class GramMatrix:
    """Cached pairwise kernel values; immutable and safe to share across workers.

    ``values`` is stored as the symmetric part 0.5 * (v + v') of the given
    matrix, which leaves a symmetric input unchanged and is all a quadratic
    form a'Ka sees, so the solvers may read a Gram row in place of a column.
    """

    values: np.ndarray
    spec: KernelSpec

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise InputError("Gram matrix must be square")
        v = v + v.T
        v *= 0.5
        if not np.all(np.isfinite(v)):
            raise InputError("Gram matrix has NaN or infinite entries")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.shape[0]


def cross_kernel(spec: KernelSpec, X, Y) -> np.ndarray:
    """Kernel values between two point sets, as an (len(X), len(Y)) block."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if X.shape[1] != Y.shape[1]:
        raise InputError(f"point dimensions differ: {X.shape[1]} vs {Y.shape[1]}")
    if spec.kind is KernelKind.LINEAR:
        return X @ Y.T
    sq = (
        np.sum(X * X, axis=1)[:, None]
        - 2.0 * (X @ Y.T)
        + np.sum(Y * Y, axis=1)[None, :]
    )
    return np.exp(-np.maximum(sq, 0.0) / spec.sigma_squared)


def gram(spec: KernelSpec, points) -> GramMatrix:
    """Build the full Gram matrix once per dataset/kernel pair.

    The RBF diagonal is pinned to exactly 1; `GramMatrix` makes the values
    exactly symmetric.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        hint = "; use reshape(-1, 1) for one coordinate per point" if pts.ndim == 1 else ""
        raise InputError(
            f"points must be a 2-D array (n_points, n_dims), got {pts.ndim} dimensions{hint}"
        )
    if pts.size == 0:
        raise InputError("cannot build a Gram matrix from an empty point set")
    if not np.all(np.isfinite(pts)):
        raise InputError("points contain NaN or infinite coordinates")
    values = cross_kernel(spec, pts, pts)
    if spec.kind is KernelKind.RBF:
        np.fill_diagonal(values, 1.0)
    return GramMatrix(values, spec)
