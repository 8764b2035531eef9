"""Multisphere support vector data description.

Joint sphere placement, point assignment, and outlier scoring for multimodal
data: an exact branch-and-bound solver over assignments, a location-allocation
heuristic baseline, kernelized geometry throughout, and an evaluation pipeline
(AUC-ROC, grid cross-validation, incumbent-gap studies).
"""

from .data import (
    Dataset,
    SyntheticSpec,
    generate_synthetic,
    parse_libsvm,
    scale_to_unit_box,
    split_real,
)
from .detection import (
    DetectionModel,
    Label,
    RocResult,
    anomaly_score,
    auc_roc,
    classify,
    score_points,
)
from .errors import (
    ConvergenceError,
    InfeasibleSubproblemError,
    InputError,
    MsvddError,
    ParseError,
    SolverFailure,
    UndefinedMetricError,
)
from .exact import MsvddProblem, incumbent_gap_rows, solve_exact
from .experiments import (
    ExperimentConfig,
    emit_plot_data,
    run_cross_validation,
    run_gap_study,
)
from .heuristic import HeuristicConfig, solve_heuristic
from .kernels import GramMatrix, KernelKind, KernelSpec, gram
from .solution import IncumbentRecord, MsvddSolution, SolveStatus
from .svdd import (
    DEFAULT_TOLS,
    SolverTolerances,
    SvddSolution,
    recover_radius,
    solve_svdd,
)

__version__ = "0.1.0"
