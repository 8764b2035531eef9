"""Alternating location-allocation baseline.

Starts from a uniform random partition into p clusters, fits one sphere per
cluster with a per-cluster penalty C_k = 1/(nu * N_k), reassigns every point
to the sphere with the smallest boundary excess, and repeats until the
assignment stops changing.  Because C_k tracks the cluster sizes, a raw
alternation step can occasionally tick the objective upward; the loop then
reverts to the previous state and stops, so the reported per-iteration
objective sequence is nonincreasing by construction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import COUNT, FRACTION, INTEGER, InputError, checked
from .kernels import GramMatrix
from .solution import (
    IncumbentRecord,
    MsvddSolution,
    SolveStatus,
    canonical_objective,
)
from .svdd import solve_svdd


# seeded restarts of every heuristic solve: grid cells, `solve --nu`, the exact root
RESTARTS = 5


@dataclass(frozen=True)
class HeuristicConfig:
    p: int
    nu: float
    max_iters: int = 100
    restarts: int = RESTARTS
    seed: int = 0

    def __post_init__(self):
        for name, rule in (("p", COUNT), ("nu", FRACTION), ("max_iters", COUNT),
                           ("restarts", COUNT), ("seed", INTEGER)):
            checked(name, getattr(self, name), *rule)


def _nearest_sphere(d2, radii) -> np.ndarray:
    """Per-point sphere index with the smallest (excess, distance, index)."""
    excess = np.maximum(0.0, d2 - radii[None, :])
    choice = np.zeros(d2.shape[0], dtype=np.int16)
    best_ex, best_d2 = excess[:, 0].copy(), d2[:, 0].copy()
    for j in range(1, d2.shape[1]):
        # strict comparisons keep the lower index on a full tie
        better = (excess[:, j] < best_ex) | (
            (excess[:, j] == best_ex) & (d2[:, j] < best_d2)
        )
        choice[better] = j
        best_ex[better] = excess[better, j]
        best_d2[better] = d2[better, j]
    return choice


def _initial_partition(n, p, rng) -> np.ndarray:
    sphere_of = rng.integers(0, p, size=n).astype(np.int16)
    counts = np.bincount(sphere_of, minlength=p)
    for j in range(p):
        while counts[j] == 0:
            donor = int(np.argmax(counts))
            pool = np.flatnonzero(sphere_of == donor)
            pick = int(pool[rng.integers(0, pool.size)])
            sphere_of[pick] = j
            counts[donor] -= 1
            counts[j] += 1
    return sphere_of


def _repair_empty(sphere_of, d2, radii, p):
    """Reseed empty clusters with the point carrying the largest current excess."""
    counts = np.bincount(sphere_of, minlength=p)
    while np.any(counts == 0):
        j = int(np.argmin(counts))
        excess = np.maximum(0.0, d2[np.arange(sphere_of.size), sphere_of] - radii[sphere_of])
        movable = counts[sphere_of] > 1
        if not movable.any():
            break
        cand = np.flatnonzero(movable)
        own_d2 = d2[np.arange(sphere_of.size), sphere_of]
        order = np.lexsort((cand, -own_d2[cand], -excess[cand]))
        pick = int(cand[order[0]])
        counts[sphere_of[pick]] -= 1
        sphere_of[pick] = j
        counts[j] += 1
    return sphere_of


def _solve_clusters(gram_matrix, sphere_of, p, nu, solved):
    """One sphere per cluster, reusing any cluster already in ``solved``.

    ``solved`` maps (member tuple, C_k) to its sphere; a solve is a function
    of that key alone, so a reused sphere is the one a new solve would give.
    """
    spheres = []
    for j in range(p):
        members = tuple(np.flatnonzero(sphere_of == j).tolist())
        key = (members, 1.0 / (nu * len(members)))
        if key not in solved:
            solved[key] = solve_svdd(gram_matrix, members, key[1])
        spheres.append(solved[key])
    return spheres


def _single_run(gram_matrix, p, nu, max_iters, rng, t0, solved):
    n = gram_matrix.n
    sphere_of = _initial_partition(n, p, rng)
    history: list[float] = []
    log: list[IncumbentRecord] = []
    state = None
    for _ in range(max_iters):
        spheres = _solve_clusters(gram_matrix, sphere_of, p, nu, solved)
        obj = canonical_objective([s.objective for s in spheres])
        if state is not None and obj > state[2] + 1e-12:
            break  # alternation ticked upward; keep the previous state
        history.append(obj)
        state = (sphere_of.copy(), spheres, obj)
        if not log or obj < log[-1].objective - 1e-12:
            log.append(
                IncumbentRecord(obj, time.perf_counter() - t0, sphere_of.copy(), tuple(spheres))
            )
        d2 = np.stack([s.column for s in spheres], axis=1)
        radii = np.array([s.radius_sq for s in spheres])
        new_assign = _repair_empty(_nearest_sphere(d2, radii), d2, radii, p)
        if np.array_equal(new_assign, sphere_of):
            break
        sphere_of = new_assign
    return state, history, log


def solve_heuristic(gram_matrix: GramMatrix, config: HeuristicConfig) -> MsvddSolution:
    """Best solution over seeded restarts of the alternating procedure.

    Every sphere in the result was solved with its own C_k = 1/(nu * N_k);
    the status is `SolveStatus.HEURISTIC`.  ``restart_partitions`` holds every
    restart's final partition, in restart order.
    """
    n = gram_matrix.n
    if n < config.p:
        raise InputError(f"need at least p={config.p} points, got {n}")
    t0 = time.perf_counter()
    best = None
    partitions = []
    # restarts that reach the same cluster solve it once
    solved: dict = {}
    for r in range(config.restarts):
        rng = np.random.default_rng([config.seed, r])
        state, history, log = _single_run(
            gram_matrix, config.p, config.nu, config.max_iters, rng, t0, solved
        )
        partitions.append(state[0])
        if best is None or state[2] < best[0][2] - 1e-12:
            best = (state, history, log)
    (sphere_of, spheres, obj), history, log = best
    return MsvddSolution(
        sphere_of=sphere_of,
        spheres=tuple(spheres),
        objective=obj,
        status=SolveStatus.HEURISTIC,
        p=config.p,
        C=float("nan"),
        enforce_cardinality=False,
        incumbent_log=tuple(log),
        iterate_objectives=tuple(history),
        restart_partitions=tuple(partitions),
    )
