"""Ranking from pairwise comparisons with item covariates.

Items carry latent scores alpha_i + x_i @ beta; comparisons follow the
logistic law in the score difference.  The package estimates the scores
by constrained maximum likelihood (damped Newton on the total scores
with the weighted comparison-graph Laplacian as Hessian, after checking
Ford's strong-connectivity condition for the estimate to exist),
quantifies uncertainty through the pseudoinverse of the projected
Hessian, ranks items with soft-thresholded scores, and ships a
reproducible Monte Carlo harness plus a CSV-driven CLI.
"""

__version__ = "0.1.0"

from .errors import (
    CareRankError,
    ConfigurationError,
    ConnectivityError,
    DegenerateColumnError,
    DegenerateContrastError,
    DegenerateDesignError,
    DimensionError,
    InvalidArgumentError,
    ParseError,
)
from .model import (
    ComparisonData,
    CovariateMatrix,
    FitDiagnostics,
    ParamVector,
    ProjectionOperator,
    build_projection,
    connected_components,
    gradient,
    hessian,
    is_connected,
    neg_log_likelihood,
)
from .estimation import (
    FitConfig,
    FitResult,
    fit_mle,
    preprocess_covariates,
    project_to_theta,
)
from .inference import (
    ContrastResult,
    InferenceReport,
    RankingScores,
    VarianceModel,
    care_ranking_scores,
    contrast_inference,
    full_inference_report,
    oracle_variance_model,
    plugin_variance_model,
    projected_hessian_pinv,
    quadratic_approx_minimizer,
    soft_threshold,
    standardized_stats,
)
from .normal import normal_cdf, normal_quantile, two_sided_p_value
from .simulation import (
    ExperimentPlan,
    ExperimentResult,
    SyntheticSpec,
    distribution_sampling_probability,
    effective_sample_size,
    generate_truth,
    ks_distance_to_normal,
    rate_experiment_pairs,
    rng_stream,
    run_distribution_experiment,
    run_rate_experiment,
    sample_comparisons,
)
