"""Shared solution containers for the exact and heuristic multisphere solvers."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .kernels import GramMatrix
from .svdd import SvddSolution, collapses, solve_svdd, zero_radius_sphere

UNASSIGNED = -1


class SolveStatus(enum.Enum):
    OPTIMAL = "optimal"
    # best feasible solution of an exact solve stopped by its time limit
    TIME_LIMIT_INCUMBENT = "time_limit_incumbent"
    # a solution of the alternating heuristic, which certifies no optimality
    HEURISTIC = "heuristic"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class IncumbentRecord:
    """One improving feasible solution found during a solve: its objective,
    the seconds since the solve began, and its spheres, whose members give
    its assignment."""

    objective: float
    wall_time: float
    spheres: tuple[SvddSolution, ...]


@dataclass
class MsvddSolution:
    """A complete multisphere solution.

    ``sphere_of`` is the int16 point-to-sphere map, all UNASSIGNED (-1) for
    an infeasible solve.  For exact solves ``objective`` is
    sum(R_j) + C * sum(xi_i) under the global C; for
    heuristic solves each sphere carries its own per-cluster C and
    ``objective`` sums the per-sphere values accordingly.
    ``iterate_objectives`` and ``restart_partitions`` are only populated by
    the heuristic: one objective per alternation step of the kept restart,
    and one final ``sphere_of`` per restart, in restart order, which the
    exact solver's root re-evaluates under its global C.  `solution_to_dict`
    leaves both out.
    """

    sphere_of: np.ndarray
    spheres: tuple[SvddSolution, ...]
    objective: float
    status: SolveStatus
    p: int
    C: float
    enforce_cardinality: bool
    node_count: int = 0
    incumbent_log: tuple[IncumbentRecord, ...] = ()
    lower_bound: float = math.nan
    iterate_objectives: tuple[float, ...] = ()
    restart_partitions: tuple[np.ndarray, ...] = ()

    @property
    def relative_gap(self) -> float:
        """(objective - lower_bound) / objective; NaN without a finite bound
        and incumbent (a heuristic solve, an infeasible one)."""
        diff = self.objective - self.lower_bound
        if not math.isfinite(diff):
            return math.nan
        return 0.0 if abs(diff) <= 1e-12 else diff / self.objective


def canonical_objective(values) -> float:
    """Sum of per-sphere objectives evaluated in canonical sorted order.

    Sorting before summing makes the total bit-identical under any
    permutation of sphere labels.
    """
    return float(np.sort(np.asarray(values, dtype=float)).sum())


def min_members(C: float, enforce_cardinality: bool) -> int:
    """Minimum member count per sphere: 1 without the cardinality rule, else
    the fewest members that C does not `collapses`, which is ceil(1/C) up to
    that test's slack (C = 1/3 yields 3)."""
    if not enforce_cardinality:
        return 1
    m = max(1, math.floor(1.0 / C))
    return m + 1 if collapses(C, m) else m


def solve_sphere(gram_matrix: GramMatrix, members, C: float, warm_alpha=None) -> SvddSolution:
    """Single-sphere subproblem with the radius-floored fallback.

    A sphere with C * |S| >= 1 is a plain dual solve, certified
    (`solve_svdd`); a smaller one collapses to the zero-radius centroid
    solution, which is exact.
    """
    members = tuple(members)
    if collapses(C, len(members)):
        return zero_radius_sphere(gram_matrix, members, C)
    return solve_svdd(gram_matrix, members, C, warm_alpha=warm_alpha)
