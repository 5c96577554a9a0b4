"""Gaussian graphical model selection.

Estimates sparse precision matrices with an l1-penalized likelihood solver
(graphical lasso) and chooses the regularization level by a bootstrap
procedure whose confidence parameter alpha asymptotically bounds the
family-wise error rate of false edge discovery. Testing-based selection
(partial-correlation p-values with Holm, Bonferroni, or Sidak adjustment)
and information-criterion baselines (k-fold cross-validation, extended BIC)
are included, along with a simulation harness that measures the empirical
error rates on synthetic ground truths.
"""

from .core import (
    DEFAULT_ZERO_TOL,
    DataMatrix,
    EdgeSet,
    SelectionResult,
    empirical_covariance,
    edges_from_precision,
    load_data_csv,
    max_offdiag_abs,
)
from .errors import (
    DegenerateCorrelationWarning,
    GenerationError,
    GgmSelectError,
    InvalidInputError,
    NotApplicableError,
    SingularInputError,
    UnmatchedNodeError,
)
from .metrics import (
    ConfusionCounts,
    EdgeValidationReport,
    MetricRecord,
    confusion,
    jaccard,
    metrics_from_confusion,
    validated_edge_report,
)
from .robsel import (
    RobselConfig,
    RobselResult,
    bootstrap_rwp_samples,
    order_statistic_rank,
    robsel_lambda,
)
from .simulation import (
    ExperimentPlan,
    ExperimentReport,
    GroundTruth,
    generate_precision,
    load_experiment_config,
    run_experiment,
    sample_gaussian,
    write_replicates_csv,
    write_summary_csv,
)
from .solver import SolverConfig, SolverResult, glasso, kkt_residual, objective_value
from .testing import (
    PValueMatrix,
    adjust_pvalues,
    partial_correlations,
    testing_select,
    unadjusted_pvalues,
)
from .tuning import (
    LambdaGrid,
    TuningResult,
    cv_select,
    ebic_score,
    ebic_select,
    lambda_grid,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_ZERO_TOL",
    "ConfusionCounts",
    "DataMatrix",
    "DegenerateCorrelationWarning",
    "EdgeSet",
    "EdgeValidationReport",
    "ExperimentPlan",
    "ExperimentReport",
    "GenerationError",
    "GgmSelectError",
    "GroundTruth",
    "InvalidInputError",
    "LambdaGrid",
    "MetricRecord",
    "NotApplicableError",
    "PValueMatrix",
    "RobselConfig",
    "RobselResult",
    "SelectionResult",
    "SingularInputError",
    "SolverConfig",
    "SolverResult",
    "TuningResult",
    "UnmatchedNodeError",
    "adjust_pvalues",
    "bootstrap_rwp_samples",
    "confusion",
    "cv_select",
    "ebic_score",
    "ebic_select",
    "edges_from_precision",
    "empirical_covariance",
    "generate_precision",
    "glasso",
    "jaccard",
    "kkt_residual",
    "lambda_grid",
    "load_data_csv",
    "load_experiment_config",
    "max_offdiag_abs",
    "metrics_from_confusion",
    "objective_value",
    "order_statistic_rank",
    "partial_correlations",
    "robsel_lambda",
    "run_experiment",
    "sample_gaussian",
    "testing_select",
    "unadjusted_pvalues",
    "validated_edge_report",
    "write_replicates_csv",
    "write_summary_csv",
]
