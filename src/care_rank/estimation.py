"""Covariate preprocessing and the constrained maximum-likelihood fit.

The likelihood depends on (alpha, beta) only through the total scores
s = alpha + X beta, which range over all of R^n (up to a constant shift
the likelihood ignores).  The fit is therefore a Bradley-Terry fit on s,
by damped Newton on the weighted Laplacian, followed by the regression
split of s on the augmented design: beta is the slope and alpha the
residual, which lies in the identifiable subspace.  Both come from the
one SVD of the design that ``CovariateMatrix._basis`` caches, as does
the fit's ``incoherence``.  Each Newton step is
solved by ``model._ShiftedLaplacian``, which the quadratic surrogate
also uses: Jacobi-preconditioned conjugate gradients with O(E) matvecs
over the half-edge layout, so the fit builds no n x n array.  The MLE
exists only when the directed win graph is strongly connected (Ford
1957); other data stops at once with ``stop_reason == "no_mle"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateColumnError,
    DimensionError,
    InvalidArgumentError,
)
from .model import (
    ComparisonData,
    CovariateMatrix,
    FitDiagnostics,
    ParamVector,
    _CG_RTOL,
    _integer,
    _projected_norm,
    _refuse_split,
    _regression_split,
    _score_terms,
    _ShiftedLaplacian,
)

__all__ = [
    "FitConfig",
    "FitResult",
    "preprocess_covariates",
    "fit_mle",
]

# Objective increases beyond this slack trigger step halving; the same
# slack bounds how much the recorded trace may rise per step.
_DESCENT_SLACK = 1e-12
_MAX_HALVINGS = 80


@dataclass(frozen=True)
class FitConfig:
    """Knobs for the Newton fit.

    ``max_iters`` caps the Newton steps.  The fit converges when the
    projected gradient norm of the objective (the negative
    log-likelihood divided by the total trial count) is at most
    ``grad_tol``.
    """

    max_iters: int = 100
    grad_tol: float = 1e-8

    def __post_init__(self):
        object.__setattr__(self, "max_iters", _integer("max_iters", self.max_iters, 1))
        if not 0.0 < self.grad_tol < np.inf:
            raise InvalidArgumentError(
                f"grad_tol must be positive and finite, got {self.grad_tol}"
            )


@dataclass
class FitResult:
    """Outcome of a constrained fit.

    ``converged`` is True only when the projected gradient norm met
    ``grad_tol``.  Any other stop is reported via ``stop_reason`` instead
    of an exception: ``"max_iters"``, ``"stalled"`` (no step length
    decreased the objective) or ``"no_mle"`` (a win graph that is not
    strongly connected, so the MLE does not exist; the fit stops before
    iterating).  ``objective_trace`` holds the scaled objective at the
    start and after every accepted step; ``likelihood_scale`` is the
    total trial count that scales it.
    """

    params: ParamVector
    diagnostics: FitDiagnostics
    converged: bool
    objective_trace: list[float]
    stop_reason: str
    data: ComparisonData = field(repr=False)
    covariates: CovariateMatrix = field(repr=False)
    likelihood_scale: float = 1.0


def preprocess_covariates(raw: np.ndarray, standardize: bool = True) -> CovariateMatrix:
    """Standardize columns and rescale rows to the model's working scale.

    Columns are centered to mean 0 and scaled to standard deviation 1
    (population convention), then all rows are divided by a single
    constant K chosen so the largest row norm equals sqrt((d+1)/n).  The
    likelihood and predictions are unchanged by K; it only normalizes the
    geometry the solver and the theory operate on.
    """
    raw = np.asarray(raw, dtype=float)
    if raw.ndim != 2:
        raise InvalidArgumentError(f"covariates must be a 2-d array, got ndim={raw.ndim}")
    n, d = raw.shape
    if n < 2:
        raise InvalidArgumentError(f"need at least 2 items, got {n}")
    if d + 1 >= n:
        raise DimensionError(
            f"{d} covariates with {n} items leaves no identifiable intrinsic "
            "scores; need d + 1 < n"
        )
    if not np.all(np.isfinite(raw)):
        raise InvalidArgumentError("covariates contain non-finite values")
    if standardize and d > 0:
        means = raw.mean(axis=0)
        sds = raw.std(axis=0)
        bad = np.where(sds <= 1e-12 * np.maximum(1.0, np.abs(means)))[0]
        if bad.size:
            raise DegenerateColumnError(
                f"column {bad[0]} is constant and cannot be standardized"
            )
        x = (raw - means) / sds
    else:
        means = np.zeros(d)
        sds = np.ones(d)
        x = raw.copy()
    if d > 0:
        max_norm = float(np.sqrt((x * x).sum(axis=1)).max())
        target = np.sqrt((d + 1) / n)
        k = max_norm / target if max_norm > 0 else 1.0
    else:
        k = 1.0
    return CovariateMatrix(raw, float(k), x / k, means, sds)


def fit_mle(data: ComparisonData, cov: CovariateMatrix, config: FitConfig | None = None) -> FitResult:
    """Constrained MLE of (alpha, beta) by damped Newton on the total scores.

    Minimizes the negative log-likelihood over the total trial count
    from s = 0.  Each step solves with the Hessian L_w / scale + 11^T / n
    (the last term pins the constant shift the objective ignores) by the
    conjugate gradients of ``model._ShiftedLaplacian``, over the
    half-edge layout of the comparisons (every edge once from each end,
    grouped by item).  The solve is inexact (Dembo, Eisenstat & Steihaug
    1982): it stops at the relative residual
    max(``_CG_RTOL``, min(0.1, ||g||) ||g|| / 10) for the scaled gradient
    g, which tightens as g falls, so the early steps take few CG
    iterations; the 1e-12 floor binds only once ||g|| < 3e-6.  The step is
    halved while it would increase the objective, so the objective trace
    is nonincreasing.  The fit converges when the projected gradient in
    (alpha, beta), ||[(I - Q Q^T) G; X^T G]||, meets ``grad_tol``.  Memory and time per
    inner iteration are O(n d + E).
    Requires a connected comparison graph; a win graph that is not
    strongly connected stops at once with ``"no_mle"``.

    Raises
    ------
    ConnectivityError
        If the comparison graph is disconnected (including isolated
        items); the error lists the components.
    """
    config = config or FitConfig()
    if data.n_items != cov.n_items:
        raise InvalidArgumentError(
            f"item counts disagree: data={data.n_items}, covariates={cov.n_items}"
        )
    if data.n_edges == 0:
        raise InvalidArgumentError("comparison data has no edges")
    _refuse_split("comparison graph", data._component_labels)

    scale = float(data.total_trials)

    def objective(s: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        value, grad, weights = _score_terms(data, s)
        return value / scale, grad / scale, weights

    s = np.zeros(data.n_items)
    val, g, weights = objective(s)
    pg_norm = _projected_norm(cov, g)
    trace = [val]
    iterations = halvings = cg_iterations = 0
    stop_reason = None if data._closed_group is None else "no_mle"
    while stop_reason is None:
        if pg_norm <= config.grad_tol:
            stop_reason = "grad_tol"
            break
        if iterations >= config.max_iters:
            stop_reason = "max_iters"
            break
        g_norm = float(np.linalg.norm(g))
        rtol = max(_CG_RTOL, min(0.1, g_norm) * g_norm / 10)
        newton, inner = _ShiftedLaplacian(data._half_edges, weights / scale, rtol).solve(-g)
        cg_iterations += inner
        t = 1.0
        for _ in range(_MAX_HALVINGS):
            cand = s + t * newton
            cand_val, cand_g, cand_weights = objective(cand)
            if cand_val <= val + _DESCENT_SLACK * max(1.0, abs(val)):
                break
            t *= 0.5
            halvings += 1
        else:
            stop_reason = "stalled"
            break
        s, val, g, weights = cand, cand_val, cand_g, cand_weights
        pg_norm = _projected_norm(cov, g)
        trace.append(val)
        iterations += 1

    params = _regression_split(cov, s)
    scores = params.scores(cov)
    q = cov._basis[0]
    with np.errstate(over="ignore"):  # inf past a score range of about 709
        kappa1 = float(np.exp(scores.max() - scores.min()))
    diagnostics = FitDiagnostics(
        kappa1=kappa1,
        incoherence=float(np.sqrt((q * q).sum(axis=1)).max()),
        iterations=iterations,
        final_grad_norm=pg_norm,
        halvings=halvings,
        cg_iterations=cg_iterations,
    )
    return FitResult(
        params=params,
        diagnostics=diagnostics,
        converged=stop_reason == "grad_tol",
        objective_trace=trace,
        stop_reason=stop_reason,
        data=data,
        covariates=cov,
        likelihood_scale=scale,
    )

