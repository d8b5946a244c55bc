"""Uncertainty quantification for fitted comparison models.

The sampling variance of any linear combination c of the fitted
parameters is read off the Moore-Penrose pseudoinverse of the projected
Hessian: var(c . fit) ~= cbar^T [P H P]^+ cbar with cbar the projection
of c onto the identifiable subspace.  Because the Hessian here folds the
per-edge trial counts in, no separate 1/L factor is needed; when every
pair has the same trial count the numbers agree exactly with the
constant-count formula that carries sqrt(L) explicitly.

The likelihood depends on (alpha, beta) only through the total scores
s = alpha + X beta, so H = M^T L_w M with M = [I, X] and L_w the
weighted Laplacian of the comparison graph.  The variance models use
that shape: with T the linear map from s to its regression split
(alpha = (I - Q Q^T) s, beta = the slope rows of Xbar^+ s),
[P H P]^+ = T L_w^+ T^T.  T kills the constant vector, so L_w^+ may be
replaced by A^-1 with A = L_w + 11^T/n, and with the Cholesky factor
A = L L^T the covariance is G^T G for the n x (n+d) root G = L^-1 T^T.
Building G costs one Cholesky factorization (about n^3/3 flops), one
triangular inverse by blocked matrix products (about 2 n^3/3, as the
products treat the triangular blocks as dense) and O(n^2 (d+1))
products, against about 8 n^3/3 for a general inverse; every coordinate variance is a column sum of
G * G and every contrast variance a squared norm, with no dense
(n+d) x (n+d) matrix.

Also provided: the minimizer of the quadratic expansion of the loss
around a known truth (the inferential surrogate used to study how close
the MLE is to its linearization), and soft-thresholded ranking scores
that zero out statistically insignificant intrinsic effects.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .errors import ConnectivityError, DegenerateContrastError, InvalidArgumentError
from .estimation import FitResult
from .model import (
    ComparisonData,
    CovariateMatrix,
    ParamVector,
    ProjectionOperator,
    _hessian_weights,
    _readonly,
    _score_split,
    _weighted_laplacian,
    gradient,
    hessian,
    is_connected,
)
from .normal import normal_quantile, two_sided_p_value

__all__ = [
    "VarianceModel",
    "ContrastResult",
    "CoefficientEstimate",
    "RankingScores",
    "InferenceReport",
    "projected_hessian_pinv",
    "plugin_variance_model",
    "oracle_variance_model",
    "contrast_inference",
    "beta_inference",
    "alpha_inference",
    "full_inference_report",
    "quadratic_approx_minimizer",
    "soft_threshold",
    "care_ranking_scores",
    "standardized_stats",
]

DEFAULT_EIGEN_CUTOFF = 1e-10


class VarianceModel:
    """The plug-in covariance V = [P H P]^+ of the stacked (alpha, beta)
    estimate, in one of two forms.

    The factor form, built by ``plugin_variance_model`` and
    ``oracle_variance_model``, keeps only the n x (n+d) root
    G = L^-1 T^T of V = G^T G (see the module docstring): ``diagonal`` is
    the column sums of G * G and ``variance_of`` a squared norm, both
    O(n (n+d)), and ``pseudoinverse`` (G^T G) and ``projected_hessian``
    (rebuilt from the dense Hessian) are O(n^3) and built only on first
    access.  The dense form, from ``projected_hessian_pinv``, holds both
    (n+d) x (n+d) matrices.

    ``rank_warning`` flags more near-zero eigenvalues than the d+1 the
    constraint accounts for, the signature of a disconnected graph or
    collinear design.
    """

    def __init__(
        self,
        *,
        n_zero_eigenvalues: int,
        expected_zero_eigenvalues: int,
        root: np.ndarray | None = None,
        pseudoinverse: np.ndarray | None = None,
        projected_hessian: np.ndarray | Callable[[], np.ndarray],
    ):
        """Give exactly one of ``root`` (factor form) and ``pseudoinverse``
        (dense form); ``projected_hessian`` may be a function that builds it."""
        if (root is None) == (pseudoinverse is None):
            raise InvalidArgumentError("give exactly one of root and pseudoinverse")
        self.n_zero_eigenvalues = n_zero_eigenvalues
        self.expected_zero_eigenvalues = expected_zero_eigenvalues
        self.rank_warning = n_zero_eigenvalues > expected_zero_eigenvalues
        self._root = None if root is None else _readonly(root)
        self._pinv = None if pseudoinverse is None else _readonly(pseudoinverse)
        self._hessian = projected_hessian

    @cached_property
    def diagonal(self) -> np.ndarray:
        """The coordinate variances, diag V, stacked (alpha, beta)."""
        if self._root is None:
            return _readonly(np.diagonal(self._pinv))
        return _readonly(np.einsum("ij,ij->j", self._root, self._root))

    def variance_of(self, cbar: np.ndarray) -> float:
        """cbar^T V cbar, clipped at zero."""
        if self._root is None:
            v = float(cbar @ self._pinv @ cbar)
        else:
            u = self._root @ cbar
            v = float(u @ u)
        return max(v, 0.0)

    @cached_property
    def pseudoinverse(self) -> np.ndarray:
        if self._pinv is not None:
            return self._pinv
        return _readonly(_symmetrized(self._root.T @ self._root))

    @cached_property
    def projected_hessian(self) -> np.ndarray:
        hess = self._hessian
        return _readonly(hess() if callable(hess) else hess)


@dataclass(frozen=True)
class ContrastResult:
    estimate: float
    std_error: float
    z_stat: float
    p_value: float
    ci_low: float
    ci_high: float
    level: float


@dataclass(frozen=True)
class CoefficientEstimate:
    index: int
    estimate: float
    std_error: float
    z_stat: float
    p_value: float
    ci_low: float
    ci_high: float
    level: float


@dataclass(frozen=True)
class RankingScores:
    """Covariate-only and soft-thresholded ranking scores with ranks."""

    scores1: np.ndarray
    scores2: np.ndarray
    taus: np.ndarray
    ranks1: np.ndarray
    ranks2: np.ndarray


@dataclass(frozen=True)
class InferenceReport:
    alpha_rows: list[CoefficientEstimate]
    beta_rows: list[CoefficientEstimate]
    care_scores_1: np.ndarray
    care_scores_2: np.ndarray
    thresholds_tau: np.ndarray
    ranks_1: np.ndarray
    ranks_2: np.ndarray
    level: float
    quantile_level: float


def _symmetrized(a: np.ndarray) -> np.ndarray:
    a += a.T
    a *= 0.5
    return a


def _projected(hess: np.ndarray, proj: ProjectionOperator) -> np.ndarray:
    # P is symmetric, so projecting every row and then every column
    # gives P @ hess @ P without the dense projector.
    return _symmetrized(proj.apply(proj.apply(hess).T))


def _dense_projected_hessian(
    data: ComparisonData, cov: CovariateMatrix, params: ParamVector, proj: ProjectionOperator
) -> np.ndarray:
    return _projected(hessian(data, cov, params), proj)


def projected_hessian_pinv(hess: np.ndarray, proj: ProjectionOperator) -> VarianceModel:
    """Pseudoinverse of P @ hess @ P via symmetric eigendecomposition.

    Eigenvalues below ``DEFAULT_EIGEN_CUTOFF`` times the largest are treated
    as exact zeros.  On a connected graph with a full-rank design exactly
    d+1 of them should vanish; any surplus is recorded as a warning on
    the result rather than raised.
    """
    hess = np.asarray(hess, dtype=float)
    dim = proj.n_items + proj.n_features
    if hess.shape != (dim, dim):
        raise InvalidArgumentError(
            f"hessian shape {hess.shape} does not match projector dimension {dim}"
        )
    projected = _projected(hess, proj)
    eigvals, eigvecs = np.linalg.eigh(projected)
    lam_max = float(eigvals[-1])
    threshold = DEFAULT_EIGEN_CUTOFF * max(lam_max, 0.0)
    keep = eigvals > threshold
    inv_vals = np.where(keep, 1.0 / np.where(keep, eigvals, 1.0), 0.0)
    return VarianceModel(
        n_zero_eigenvalues=int(np.sum(~keep)),
        expected_zero_eigenvalues=proj.n_constraints,
        pseudoinverse=_symmetrized((eigvecs * inv_vals) @ eigvecs.T),
        projected_hessian=projected,
    )


# Diagonal blocks up to this size are inverted directly by _invert_lower;
# of 32-256, 64 was fastest at n = 200 and level with the rest at
# n = 2000 (2-core OpenBLAS).
_INVERSE_BLOCK = 64


def _invert_lower(low: np.ndarray) -> np.ndarray:
    """Invert the lower-triangular ``low`` in place and return it.

    Recursive 2 x 2 blocking,
    [[A, 0], [B, C]]^-1 = [[A^-1, 0], [-C^-1 B A^-1, C^-1]]: after the
    two diagonal blocks are inverted, the off-diagonal one is two matrix
    products, so nearly all the work runs as BLAS-3 products.
    """
    n = low.shape[0]
    if n <= _INVERSE_BLOCK:
        low[...] = np.tril(np.linalg.inv(low))
        return low
    h = n // 2
    top, bottom = _invert_lower(low[:h, :h]), _invert_lower(low[h:, h:])
    corner = bottom @ low[h:, :h]
    np.negative(corner, out=corner)
    low[h:, :h] = corner @ top
    return low


def _shifted_laplacian(data: ComparisonData, weights: np.ndarray) -> np.ndarray:
    """A = L_w + 11^T/n, positive definite when the weighted graph is
    connected; A^-1 = L_w^+ + 11^T/n."""
    n = data.n_items
    shifted = _weighted_laplacian(n, data.item_i, data.item_j, weights)
    shifted += 1.0 / n
    return shifted


def _projected_hessian_trace(shifted: np.ndarray, q: np.ndarray, x: np.ndarray) -> float:
    """tr(P H P) from A = L_w + 11^T/n, in O(n^2 d) by one product A [Q, X].

    P H P = N^T L_w N with N = [I - Q Q^T, X], so
    tr(P H P) = tr(L_w) - tr(Q^T L_w Q) + tr(X^T L_w X); for any columns
    Y, tr(Y^T L_w Y) = tr(Y^T A Y) - |1^T Y|^2 / n, and tr(L_w) = tr(A) - 1.
    """
    n, k = q.shape
    cols = np.hstack([q, x])
    quad = np.einsum("ij,ij->j", cols, shifted @ cols) - cols.sum(axis=0) ** 2 / n
    return float(np.trace(shifted)) - 1.0 - float(quad[:k].sum()) + float(quad[k:].sum())


def _eigen_ratio_bound(hessian_trace: float, diagonal: np.ndarray) -> float:
    """tr(P H P) tr([P H P]^+), an upper bound on
    lambda_max(P H P) lambda_max([P H P]^+) since both are positive
    semidefinite, from ``_projected_hessian_trace`` and the variances."""
    return hessian_trace * float(diagonal.sum())


def _laplacian_variance_model(
    data: ComparisonData,
    cov: CovariateMatrix,
    params: ParamVector,
    proj: ProjectionOperator,
) -> VarianceModel:
    """Variance model in the factor form: the root G = L^-1 T^T with
    A = L_w + 11^T/n = L L^T and T stacking I - Q Q^T over the slope rows
    S of Xbar^+, so G = [R - (R Q) Q^T, R S^T] with R = L^-1.

    When A is not numerically positive definite (edge weights that
    underflow, a disconnected graph) or the trace bound of
    ``_eigen_ratio_bound`` reaches 1 / ``DEFAULT_EIGEN_CUTOFF`` (some
    nonzero eigenvalue might fall below the cutoff, or the factor
    overflowed), the result falls back to ``projected_hessian_pinv`` on
    the dense Hessian, whose eigenvalue count reports the extra null
    directions.
    """
    weights = _hessian_weights(data, cov, params)
    shifted = _shifted_laplacian(data, weights)
    try:
        root = np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return projected_hessian_pinv(hessian(data, cov, params), proj)
    q = proj._span_q
    k = q.shape[1]
    # A is freed below; reading tr(P H P) from it first adds only an
    # n x (2d + 1) product, well under the Cholesky peak
    hessian_trace = _projected_hessian_trace(shifted, q, cov.scaled)
    del shifted
    _invert_lower(root)
    products = root @ np.hstack([q, _score_split(cov).T])
    root -= products[:, :k] @ q.T
    vm = VarianceModel(
        n_zero_eigenvalues=proj.n_constraints,
        expected_zero_eigenvalues=proj.n_constraints,
        root=np.hstack([root, products[:, k:]]),
        projected_hessian=partial(_dense_projected_hessian, data, cov, params, proj),
    )
    # A NaN bound (a factor that overflowed) falls back as well.
    bound = _eigen_ratio_bound(hessian_trace, vm.diagonal)
    if not bound * DEFAULT_EIGEN_CUTOFF < 1.0:
        return projected_hessian_pinv(hessian(data, cov, params), proj)
    return vm


def plugin_variance_model(fit: FitResult) -> VarianceModel:
    """Variance model with the Hessian evaluated at the fitted parameters."""
    return _laplacian_variance_model(fit.data, fit.covariates, fit.params, fit.projection)


def oracle_variance_model(
    data: ComparisonData,
    cov: CovariateMatrix,
    truth: ParamVector,
    proj: ProjectionOperator,
) -> VarianceModel:
    """Variance model at known true parameters (simulation use)."""
    return _laplacian_variance_model(data, cov, truth, proj)


def _project_contrast(c: np.ndarray, proj: ProjectionOperator) -> np.ndarray:
    c = np.asarray(c, dtype=float).ravel()
    cbar = proj.apply(c)
    norm_c = float(np.linalg.norm(c))
    if float(np.linalg.norm(cbar)) <= 1e-12 * max(norm_c, 1.0):
        raise DegenerateContrastError(
            "contrast lies in the unidentifiable space (P c = 0)"
        )
    return cbar


def _z_tests(est: np.ndarray, se: np.ndarray, level: float):
    """Two-sided z-tests of est = 0 and the intervals est -+ z_q se at
    ``level``, elementwise.  A zero standard error gives z = +-inf and
    p = 0 for a nonzero estimate, z = 0 and p = 1 for a zero one.
    Returns (z, p, ci_low, ci_high)."""
    if not (0.0 < level < 1.0):
        raise InvalidArgumentError(f"level must be in (0, 1), got {level}")
    pos = se > 0
    z = np.where(est > 0, np.inf, np.where(est < 0, -np.inf, 0.0))
    p = np.where(est != 0, 0.0, 1.0)
    z[pos] = est[pos] / se[pos]
    p[pos] = two_sided_p_value(z[pos])
    zq = normal_quantile(1.0 - (1.0 - level) / 2.0)
    return z, p, est - zq * se, est + zq * se


def contrast_inference(
    c: np.ndarray,
    fit: FitResult,
    vm: VarianceModel,
    level: float = 0.95,
) -> ContrastResult:
    """z-test and confidence interval for a linear combination of parameters.

    The null is c . params = 0; the interval is
    estimate +- z_{(1-level)/2} * std_error with the plug-in standard
    error from ``vm``.
    """
    n, d = fit.params.n_items, fit.params.n_features
    c = np.asarray(c, dtype=float).ravel()
    if c.size != n + d:
        raise InvalidArgumentError(f"contrast length {c.size}, expected {n + d}")
    cbar = _project_contrast(c, fit.projection)
    variance = vm.variance_of(cbar)
    se = float(np.sqrt(variance))
    estimate = float(c @ fit.params.stacked)
    z, p, lo, hi = (float(v[0]) for v in _z_tests(np.array([estimate]), np.array([se]), level))
    return ContrastResult(
        estimate=estimate,
        std_error=se,
        z_stat=z,
        p_value=p,
        ci_low=lo,
        ci_high=hi,
        level=level,
    )


def _basis_contrast(k: int, dim: int) -> np.ndarray:
    c = np.zeros(dim)
    c[k] = 1.0
    return c


def _coefficient_rows(
    fit: FitResult, vm: VarianceModel, start: int, stop: int, level: float
) -> list[CoefficientEstimate]:
    """Rows of ``contrast_inference`` on the basis contrasts e_k for the
    stacked indices start <= k < stop, numbered from 0, vectorised: for
    e_k the variance cbar^T V cbar is the diagonal entry V[k, k], since V
    already lives on the subspace."""
    n, d = fit.params.n_items, fit.params.n_features
    q = fit.projection._span_q
    indices = np.arange(start, stop)
    alpha_idx = indices[indices < n]
    # ||P e_k||^2 = 1 - ||q_k||^2 for an alpha coordinate (beta coordinates
    # are left alone by P).  The difference cancels near zero, so any
    # coordinate close to the span is rechecked the way contrast_inference
    # checks it, which raises DegenerateContrastError for P e_k = 0.
    for k in alpha_idx[(q[alpha_idx] ** 2).sum(axis=1) > 1.0 - 1e-6]:
        _project_contrast(_basis_contrast(int(k), n + d), fit.projection)
    se = np.sqrt(np.maximum(vm.diagonal[indices], 0.0))
    est = fit.params.stacked[indices]
    z, p, lo, hi = _z_tests(est, se, level)
    return [
        CoefficientEstimate(k, *map(float, row), level)
        for k, row in enumerate(zip(est, se, z, p, lo, hi))
    ]


def beta_inference(fit: FitResult, vm: VarianceModel, level: float = 0.95) -> list[CoefficientEstimate]:
    """Per-covariate-effect tests: one row per beta coordinate."""
    n, d = fit.params.n_items, fit.params.n_features
    return _coefficient_rows(fit, vm, n, n + d, level)


def alpha_inference(fit: FitResult, vm: VarianceModel, level: float = 0.95) -> list[CoefficientEstimate]:
    """Per-item intrinsic-score tests: one row per alpha coordinate."""
    return _coefficient_rows(fit, vm, 0, fit.params.n_items, level)


def quadratic_approx_minimizer(
    data: ComparisonData,
    cov: CovariateMatrix,
    truth: ParamVector,
    proj: ProjectionOperator,
) -> ParamVector:
    """Minimizer of the quadratic expansion of the loss around ``truth``,
    constrained to the identifiable subspace.

    In the total scores the expansion is g^T (s - s*) + (s - s*)^T L_w
    (s - s*) / 2 around the true scores s*, so the minimizer is one Newton
    step, s = s* - L_w^+ g = s* - A^-1 g (g sums to zero), solved through
    the Cholesky factor of A = L_w + 11^T/n; the regression split of s is
    the point of the subspace with those scores.  Simulation-side tool:
    requires the true parameters.
    """
    if not is_connected(data):
        raise ConnectivityError("comparison graph is disconnected")
    n = data.n_items
    g = gradient(data, cov, truth)[:n]
    shifted = _shifted_laplacian(data, _hessian_weights(data, cov, truth))
    try:
        root = _invert_lower(np.linalg.cholesky(shifted))
    except np.linalg.LinAlgError:
        raise InvalidArgumentError(
            "L_w + 11^T/n is not numerically positive definite; "
            "graph may be effectively disconnected"
        ) from None
    step = root.T @ (root @ g)
    # stationarity in (alpha, beta): P M^T (g + L_w (s - s*)), with
    # L_w v = A v - 1 (1^T v) / n
    resid = g - shifted @ step + step.sum() / n
    residual = float(np.linalg.norm(proj.apply(np.concatenate([resid, cov.scaled.T @ resid]))))
    scale = float(np.linalg.norm(proj.apply(np.concatenate([g, cov.scaled.T @ g]))))
    if not residual <= 1e-8 * max(1.0, scale):
        raise InvalidArgumentError(
            f"quadratic stationarity residual {residual:.3e} too large; "
            "graph may be effectively disconnected"
        )
    s = truth.scores(cov) - step
    stacked = proj.apply(np.concatenate([s, _score_split(cov) @ s]))
    return ParamVector.from_stacked(stacked, n, identified=True)


def soft_threshold(x, tau):
    """sign(x) * max(|x| - tau, 0); zero exactly when |x| <= tau."""
    tau_arr = np.asarray(tau, dtype=float)
    if np.any(tau_arr < 0):
        raise InvalidArgumentError("soft threshold must be nonnegative")
    x_arr = np.asarray(x, dtype=float)
    out = np.sign(x_arr) * np.maximum(np.abs(x_arr) - tau_arr, 0.0)
    return out if out.ndim else float(out)


def care_ranking_scores(
    fit: FitResult,
    vm: VarianceModel,
    quantile_level: float = 0.995,
) -> RankingScores:
    """Ranking scores with and without shrunk intrinsic effects.

    ``scores1`` uses the covariate part alone; ``scores2`` adds each
    intrinsic score soft-thresholded at tau_i = Phi^-1(quantile_level)
    times its plug-in standard error, so individually insignificant
    intrinsic effects drop out.  The high default quantile keeps the
    familywise false-positive rate low across many items.
    """
    if not (0.5 < quantile_level < 1.0):
        raise InvalidArgumentError(
            f"quantile_level must be in (0.5, 1), got {quantile_level}"
        )
    n = fit.params.n_items
    zq = normal_quantile(quantile_level)
    alpha_var = vm.diagonal[:n]
    taus = zq * np.sqrt(np.maximum(alpha_var, 0.0))
    scores1 = fit.covariates.scaled @ fit.params.beta
    scores2 = soft_threshold(fit.params.alpha, taus) + scores1
    return RankingScores(
        scores1=scores1,
        scores2=scores2,
        taus=taus,
        ranks1=_dense_ranks(scores1),
        ranks2=_dense_ranks(scores2),
    )


def _dense_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks, best (largest) score first, ties broken by item index."""
    order = np.lexsort((np.arange(scores.size), -scores))
    ranks = np.empty(scores.size, dtype=np.int64)
    ranks[order] = np.arange(1, scores.size + 1)
    return ranks


def full_inference_report(
    fit: FitResult,
    vm: VarianceModel,
    level: float = 0.95,
    quantile_level: float = 0.995,
) -> InferenceReport:
    """All per-coefficient rows plus ranking scores in one bundle."""
    ranking = care_ranking_scores(fit, vm, quantile_level)
    return InferenceReport(
        alpha_rows=alpha_inference(fit, vm, level),
        beta_rows=beta_inference(fit, vm, level),
        care_scores_1=ranking.scores1,
        care_scores_2=ranking.scores2,
        thresholds_tau=ranking.taus,
        ranks_1=ranking.ranks1,
        ranks_2=ranking.ranks2,
        level=level,
        quantile_level=quantile_level,
    )


def standardized_stats(
    fit: FitResult,
    vm_true: VarianceModel,
    vm_plugin: VarianceModel,
    c: np.ndarray,
    truth: ParamVector,
) -> tuple[float, float]:
    """The two standardized errors of c . fit: denominator at the truth
    (first) and at the fitted parameters (second).  Both are approximately
    standard normal when the model holds."""
    n, d = fit.params.n_items, fit.params.n_features
    c = np.asarray(c, dtype=float).ravel()
    if c.size != n + d:
        raise InvalidArgumentError(f"contrast length {c.size}, expected {n + d}")
    cbar = _project_contrast(c, fit.projection)
    err = float(c @ fit.params.stacked) - float(c @ truth.stacked)
    se_true = float(np.sqrt(vm_true.variance_of(cbar)))
    se_plugin = float(np.sqrt(vm_plugin.variance_of(cbar)))
    if se_true <= 0 or se_plugin <= 0:
        raise DegenerateContrastError("contrast has zero plug-in variance")
    return err / se_true, err / se_plugin
