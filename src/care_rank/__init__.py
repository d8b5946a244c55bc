"""Ranking from pairwise comparisons with item covariates.

Items carry latent scores alpha_i + x_i @ beta; comparisons follow the
logistic law in the score difference.  The package estimates the scores
by constrained maximum likelihood (damped Newton on the total scores
with the weighted comparison-graph Laplacian as Hessian, after checking
Ford's strong-connectivity condition for the estimate to exist),
quantifies uncertainty through the pseudoinverse of the projected
Hessian, ranks items with soft-thresholded scores, and ships a
reproducible Monte Carlo harness plus a CSV-driven CLI.

The public names below load their module, and with it numpy, on first
access, so importing the package or the CLI loads neither.
"""

import importlib

__version__ = "0.1.0"

# The thread-count variables of the BLAS libraries numpy may link; each
# is read once, when numpy loads.
_BLAS_THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# The public names, by the submodule that owns them.
_EXPORTS = {
    "errors": (
        "CareRankError",
        "ConfigurationError",
        "ConnectivityError",
        "DegenerateColumnError",
        "DegenerateContrastError",
        "DegenerateDesignError",
        "DimensionError",
        "InvalidArgumentError",
        "ParseError",
    ),
    "model": (
        "ComparisonData",
        "CovariateMatrix",
        "FitDiagnostics",
        "ParamVector",
        "ProjectionOperator",
        "build_projection",
        "connected_components",
        "gradient",
        "hessian",
        "is_connected",
    ),
    "estimation": (
        "FitConfig",
        "FitResult",
        "fit_mle",
        "preprocess_covariates",
    ),
    "inference": (
        "ContrastResult",
        "InferenceReport",
        "RankingScores",
        "VarianceModel",
        "care_ranking_scores",
        "contrast_inference",
        "full_inference_report",
        "plugin_variance_model",
        "projected_hessian_pinv",
        "quadratic_approx_minimizer",
        "soft_threshold",
        "standardized_stats",
    ),
    "normal": ("normal_cdf", "normal_quantile", "two_sided_p_value"),
    "simulation": (
        "ExperimentPlan",
        "ExperimentResult",
        "SyntheticSpec",
        "distribution_sampling_probability",
        "effective_sample_size",
        "generate_truth",
        "ks_distance_to_normal",
        "rate_experiment_pairs",
        "rng_stream",
        "run_distribution_experiment",
        "run_rate_experiment",
        "sample_comparisons",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)


def __getattr__(name: str):
    # the owning submodules resolve too, as they did when this module
    # imported them
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
