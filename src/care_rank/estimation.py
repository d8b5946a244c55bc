"""Covariate preprocessing and the constrained maximum-likelihood fit.

The likelihood depends on (alpha, beta) only through the total scores
s = alpha + X beta, which range over all of R^n (up to a constant shift
the likelihood ignores).  The fit is therefore a Bradley-Terry fit on s,
by damped Newton on the weighted Laplacian, followed by the regression
split of s on the augmented design: beta is the slope and alpha the
residual, which lies in the identifiable subspace.  Each Newton step is
solved by Jacobi-preconditioned conjugate gradients with Laplacian
matvecs over the half-edge layout of the comparisons, so a step costs
O(E) per inner iteration and the fit builds no n x n array.  The MLE
exists only when the directed win graph is strongly connected (Ford
1957); other data stops at once with ``stop_reason == "no_mle"``.
"""

from __future__ import annotations

import operator
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
    ProjectionOperator,
    _laplacian_times,
    _refuse_split,
    _regression_split,
    _score_terms,
    build_projection,
)

__all__ = [
    "FitConfig",
    "FitResult",
    "preprocess_covariates",
    "project_to_theta",
    "fit_mle",
]

# Objective increases beyond this slack trigger step halving; the same
# slack bounds how much the recorded trace may rise per step.
_DESCENT_SLACK = 1e-12
_MAX_HALVINGS = 80
# Each Newton system is solved by preconditioned CG from zero to this
# relative residual, within at most this many inner iterations.
_CG_RTOL = 1e-12
_CG_MAX_ITERS = 1000


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
        try:
            max_iters = operator.index(self.max_iters)
        except TypeError:
            max_iters = 0
        if max_iters < 1:
            raise InvalidArgumentError(
                f"max_iters must be an integer of at least 1, got {self.max_iters!r}"
            )
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

    @property
    def projection(self) -> ProjectionOperator:
        """The projector of ``covariates``, cached on them."""
        return build_projection(self.covariates)


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
    scaled = x / k
    augmented = np.hstack([np.ones((n, 1)), scaled])
    return CovariateMatrix(raw, float(k), scaled, augmented, means, sds)


def project_to_theta(params: ParamVector, proj: ProjectionOperator) -> ParamVector:
    """Project parameters onto the identifiable subspace; idempotent."""
    if params.n_items != proj.n_items or params.n_features != proj.n_features:
        raise InvalidArgumentError(
            f"parameter shape ({params.n_items}, {params.n_features}) does not "
            f"match projector ({proj.n_items}, {proj.n_features})"
        )
    return ParamVector.from_stacked(proj.apply(params.stacked), params.n_items)


def _pcg(apply, b: np.ndarray, diag: np.ndarray) -> tuple[np.ndarray, int]:
    """Solve H x = b for symmetric positive definite H, given by
    ``apply``, by conjugate gradients with the Jacobi preconditioner
    ``diag`` from x = 0; returns x and the iteration count.

    Every iterate minimizes 0.5 x^T H x - b^T x over a Krylov space that
    contains 0, so b^T x > 0 as soon as x != 0: with b the negative
    gradient, each iterate is a descent direction.
    """
    x = np.zeros_like(b)
    r = b.copy()
    z = r / diag
    p = z.copy()
    rz = float(r @ z)
    stop = _CG_RTOL * float(np.linalg.norm(b))
    for k in range(_CG_MAX_ITERS):
        if np.linalg.norm(r) <= stop:
            return x, k
        hp = apply(p)
        curvature = float(p @ hp)
        if not curvature > 0:
            return x, k
        step = rz / curvature
        x += step * p
        r -= step * hp
        z = r / diag
        rz, rz_old = float(r @ z), rz
        p = z + (rz / rz_old) * p
    return x, _CG_MAX_ITERS


def fit_mle(data: ComparisonData, cov: CovariateMatrix, config: FitConfig | None = None) -> FitResult:
    """Constrained MLE of (alpha, beta) by damped Newton on the total scores.

    Minimizes the negative log-likelihood over the total trial count
    from s = 0.  Each step solves with the Hessian L_w / scale + 11^T / n
    (the last term pins the constant shift the objective ignores) by
    Jacobi-preconditioned conjugate gradients, applying L_w v = deg * v - sum_e w_e v[other] as
    one segment sum over the half-edge layout of the comparisons (every
    edge once from each end, grouped by item); the step is halved while
    it would increase the objective, so the objective trace is
    nonincreasing.  The fit converges when the projected gradient in
    (alpha, beta), ||[(I - Q Q^T) G; X^T G]||, meets ``grad_tol``.  Memory and time per inner iteration are O(n d + E).
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

    proj = build_projection(cov)
    n = data.n_items
    half = data._half_edges
    x, q = cov.scaled, proj._span_q
    scale = float(data.total_trials)

    def objective(s: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        value, grad, weights = _score_terms(data, s)
        return value / scale, grad / scale, weights

    def projected_norm(g: np.ndarray) -> float:
        return float(np.linalg.norm(proj.apply(np.concatenate([g, x.T @ g]))))

    def hess_apply(v: np.ndarray) -> np.ndarray:
        # (L_w / scale + 11^T / n) v, with the edge weights w / scale of
        # the current step on both half-edges
        out = _laplacian_times(half, w_half, degree, v)
        out += v.sum() / n
        return out

    s = np.zeros(n)
    val, g, weights = objective(s)
    pg_norm = projected_norm(g)
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
        w = weights / scale
        w_half = half.spread(w, w)
        degree = half.sum(w_half)
        newton, inner = _pcg(hess_apply, -g, degree + 1.0 / n)
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
        pg_norm = projected_norm(g)
        trace.append(val)
        iterations += 1

    params = _regression_split(cov, s)
    scores = params.scores(cov)
    diagnostics = FitDiagnostics(
        kappa1=float(np.exp(scores.max() - scores.min())),
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

