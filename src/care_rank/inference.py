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
R = L^-1 is built in place of A by one recursive 2 x 2 block routine
(leaves inverted directly, everything else matrix products, about
7 n^3/6 flops, against about 8 n^3/3 for a general inverse), so A, the
factor and the root share one n x n buffer; with the blocked products'
temporaries the variance model peaks at about 1.3 n x n arrays.  The
root is kept as its two blocks R (I - Q Q^T) and R S^T, so every
coordinate variance is a column sum of G * G and every contrast
variance a squared norm, O(n (n+d)) each, with no dense
(n+d) x (n+d) matrix and no n x (n+d) copy.  The variance model holds
those two blocks and nothing else; the projector and S come from the
covariates alone, so no caller passes them.  ``projected_hessian_pinv``
builds the same kind of root from a dense eigendecomposition of P H P,
as a reference: no command or study runs it.

The Hessian's only null directions must be the d+1 of the constraint,
so the graph must stay connected under its weights: edges weighing at
most ``DEFAULT_EIGEN_CUTOFF`` times the largest count as absent, and a
split raises ``ConnectivityError``, as no coordinate is then estimable.

Per-coefficient inference is one z-test and interval for each stacked
(alpha, beta) coordinate, with the variance read off diag V.
``full_inference_report`` returns it as an ``InferenceReport`` of
columns, alpha first.  ``contrast_inference`` tests a single linear
combination c, refused unless it has n + d entries, all finite, and
P c != 0.

Also provided: the minimizer of the quadratic expansion of the loss
around a known truth (the inferential surrogate used to study how close
the MLE is to its linearization), and soft-thresholded ranking scores
that zero out statistically insignificant intrinsic effects.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateContrastError, InvalidArgumentError
from .estimation import FitResult
from .model import (
    ComparisonData,
    CovariateMatrix,
    ParamVector,
    ProjectionOperator,
    _check_dims,
    _readonly,
    _refuse_split,
    _regression_split,
    _score_terms,
    _smallest_reaching,
    _weighted_laplacian,
    build_projection,
)
from .normal import normal_quantile, two_sided_p_value

__all__ = [
    "VarianceModel",
    "ContrastResult",
    "RankingScores",
    "InferenceReport",
    "projected_hessian_pinv",
    "plugin_variance_model",
    "oracle_variance_model",
    "contrast_inference",
    "full_inference_report",
    "quadratic_approx_minimizer",
    "soft_threshold",
    "care_ranking_scores",
    "standardized_stats",
]

DEFAULT_EIGEN_CUTOFF = 1e-10


class VarianceModel:
    """The plug-in covariance V = [P H P]^+ of the stacked (alpha, beta)
    estimate as V = G^T G, held only as the alpha and beta column blocks
    of the root G: the n x (n+d) G = L^-1 T^T = [R (I - Q Q^T) | R S^T]
    (see the module docstring) from ``plugin_variance_model`` and
    ``oracle_variance_model``, or Lambda^-1/2 V^T of the kept eigenpairs
    from ``projected_hessian_pinv``.  ``diagonal`` is the column sums of
    G * G and ``variance_of`` a squared norm, both O(n (n+d)) in time and
    O(n) in extra memory; no dense (n+d) x (n+d) matrix is kept.  The
    factor root peaks at ``FACTOR_PEAK_SQUARES`` n^2.

    ``rank_warning`` flags more near-zero eigenvalues than the d+1 the
    constraint accounts for, which only ``projected_hessian_pinv`` can
    report: the factor route refuses such a Hessian.
    """

    def __init__(self, *, root: tuple[np.ndarray, np.ndarray], rank_warning: bool = False):
        """``root`` holds the alpha and beta column blocks of G."""
        self.rank_warning = rank_warning
        self._root = tuple(_readonly(block) for block in root)

    @cached_property
    def diagonal(self) -> np.ndarray:
        """The coordinate variances, diag V, stacked (alpha, beta)."""
        return _readonly(np.concatenate([np.einsum("ij,ij->j", g, g) for g in self._root]))

    def variance_of(self, cbar: np.ndarray) -> float:
        """cbar^T V cbar, clipped at zero."""
        top, beta = self._root
        n = top.shape[1]
        u = top @ cbar[:n] + beta @ cbar[n:]
        return max(float(u @ u), 0.0)


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
class RankingScores:
    """Covariate-only and soft-thresholded ranking scores with ranks."""

    scores1: np.ndarray
    scores2: np.ndarray
    taus: np.ndarray
    ranks1: np.ndarray
    ranks2: np.ndarray


@dataclass(frozen=True)
class InferenceReport:
    """One z-test and interval per stacked (alpha, beta) coordinate, alpha
    first as in ``ParamVector.stacked``, held as columns, all at ``level``."""

    estimate: np.ndarray
    std_error: np.ndarray
    z_stat: np.ndarray
    p_value: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    level: float


def _projected(hess: np.ndarray, proj: ProjectionOperator) -> np.ndarray:
    # P is symmetric, so projecting every row and then every column
    # gives P @ hess @ P without the dense projector.
    out = proj.apply(proj.apply(hess).T)
    out += out.T
    out *= 0.5
    return out


def projected_hessian_pinv(hess: np.ndarray, proj: ProjectionOperator) -> VarianceModel:
    """Pseudoinverse of P @ hess @ P via symmetric eigendecomposition, as
    the root Lambda^-1/2 V^T of the kept eigenpairs.

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
    root = (eigvecs[:, keep] / np.sqrt(eigvals[keep])).T
    return VarianceModel(
        root=(root[:, : proj.n_items], root[:, proj.n_items :]),
        rank_warning=int(np.sum(~keep)) > proj.n_constraints,
    )


# Diagonal blocks up to this size are factored and inverted directly by
# _cholesky_inverse; of 32-256, 64 was fastest at n = 200 and level with
# the rest at n = 2000 (2-core OpenBLAS).
_INVERSE_BLOCK = 64

# Peak of the variance model in n x n float64 arrays beyond what the fit
# holds: the shifted Laplacian, overwritten by the root, plus the
# quarter-size temporaries of _cholesky_inverse's top level (traced:
# 1.26 n^2 at n = 1500, 1.27 at n = 2000).
FACTOR_PEAK_SQUARES = 1.3

# Rows of the root updated per product in the projection step, so its
# temporary is this many rows rather than n.
_ROW_CHUNK = 256


def _cholesky_inverse(a: np.ndarray) -> np.ndarray:
    """Overwrite the symmetric positive definite ``a`` with R = L^-1,
    lower-triangular, for its Cholesky factor a = L L^T, and return it.

    Recursive 2 x 2 blocking: with R11 the result for the top-left
    block, L21 = A21 R11^T is the factor's off-diagonal block,
    A22 - L21 L21^T the Schur complement whose result is R22, and
    R21 = -(R22 L21) R11.  Blocks up to ``_INVERSE_BLOCK`` are factored
    and inverted directly; everything else is matrix products written
    into the blocks of ``a``, so the only temporaries are a quarter of
    the matrix at a time.  A leaf that is not numerically positive
    definite raises ``np.linalg.LinAlgError``, leaving ``a`` partly
    overwritten.
    """
    n = a.shape[0]
    if n <= _INVERSE_BLOCK:
        a[...] = np.tril(np.linalg.inv(np.linalg.cholesky(a)))
        return a
    h = n // 2
    top = _cholesky_inverse(a[:h, :h])
    low = a[h:, :h]
    np.matmul(low, top.T, out=low)
    a[h:, h:] -= low @ low.T
    bottom = _cholesky_inverse(a[h:, h:])
    np.matmul(bottom @ low, top, out=low)
    np.negative(low, out=low)
    a[:h, h:] = 0.0
    return a


def _shifted_laplacian(data: ComparisonData, weights: np.ndarray) -> np.ndarray:
    """A = L_w + 11^T/n, positive definite when the weighted graph is
    connected; A^-1 = L_w^+ + 11^T/n."""
    n = data.n_items
    shifted = _weighted_laplacian(n, data.item_i, data.item_j, weights)
    shifted += 1.0 / n
    return shifted


def _factored_laplacian(data: ComparisonData, weights: np.ndarray) -> np.ndarray:
    """R = L^-1 for the Cholesky factor L of A = L_w + 11^T/n, in place
    of A.  First, edges weighing at most ``DEFAULT_EIGEN_CUTOFF`` times
    the largest are dropped and the rest's components found in O(E);
    more than one raises ``ConnectivityError``, and a factor that still
    fails raises ``InvalidArgumentError``."""
    keep = weights > DEFAULT_EIGEN_CUTOFF * weights.max(initial=0.0)
    if keep.all():
        graph, labels = "comparison graph", data._component_labels
    else:
        half = data._half_edges
        graph = "comparison graph under its Hessian weights"
        labels = _smallest_reaching(half, half.spread(keep, keep))
    _refuse_split(graph, labels)
    try:
        return _cholesky_inverse(_shifted_laplacian(data, weights))
    except np.linalg.LinAlgError:
        raise InvalidArgumentError("L_w + 11^T/n is not numerically positive definite") from None


def _laplacian_variance_model(
    data: ComparisonData, cov: CovariateMatrix, params: ParamVector
) -> VarianceModel:
    """The variance model from its root G = L^-1 T^T, with T stacking
    I - Q Q^T over the slope rows S of Xbar^+, so G = [R - (R Q) Q^T, R S^T]
    with R = L^-1 from ``_factored_laplacian``."""
    _check_dims(data, cov, params)
    root = _factored_laplacian(data, _score_terms(data, params.scores(cov))[2])
    q = build_projection(cov)._span_q
    n, k = q.shape
    products = root @ np.hstack([q, cov._score_split.T])
    for start in range(0, n, _ROW_CHUNK):
        rows = slice(start, start + _ROW_CHUNK)
        root[rows] -= products[rows, :k] @ q.T
    return VarianceModel(root=(root, products[:, k:]))


def plugin_variance_model(fit: FitResult) -> VarianceModel:
    """Variance model with the Hessian evaluated at the fitted parameters."""
    return _laplacian_variance_model(fit.data, fit.covariates, fit.params)


def oracle_variance_model(
    data: ComparisonData, cov: CovariateMatrix, truth: ParamVector
) -> VarianceModel:
    """Variance model at known true parameters (simulation use)."""
    return _laplacian_variance_model(data, cov, truth)


def _project_contrast(c: np.ndarray, fit: FitResult) -> tuple[np.ndarray, np.ndarray]:
    """The contrast as a flat float vector and its projection P c, after
    checking that it has n + d entries, all finite, and that P c != 0."""
    c = np.asarray(c, dtype=float).ravel()
    dim = fit.params.n_items + fit.params.n_features
    if c.size != dim:
        raise InvalidArgumentError(f"contrast length {c.size}, expected {dim}")
    if not np.isfinite(c).all():
        raise InvalidArgumentError("contrast has non-finite entries")
    cbar = fit.projection.apply(c)
    norm_c = float(np.linalg.norm(c))
    if float(np.linalg.norm(cbar)) <= 1e-12 * max(norm_c, 1.0):
        raise DegenerateContrastError(
            "contrast lies in the unidentifiable space (P c = 0)"
        )
    return c, cbar


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
    c, cbar = _project_contrast(c, fit)
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


def quadratic_approx_minimizer(
    data: ComparisonData, cov: CovariateMatrix, truth: ParamVector
) -> ParamVector:
    """Minimizer of the quadratic expansion of the loss around ``truth``,
    constrained to the identifiable subspace.

    In the total scores the expansion is g^T (s - s*) + (s - s*)^T L_w
    (s - s*) / 2 around the true scores s*, so the minimizer is one Newton
    step, s = s* - L_w^+ g = s* - A^-1 g (g sums to zero), solved through
    R = L^-1 for the Cholesky factor L of A = L_w + 11^T/n, built in
    place of A by ``_cholesky_inverse``; the regression split of s is
    the point of the subspace with those scores.  Simulation-side tool:
    requires the true parameters.
    """
    _check_dims(data, cov, truth)
    proj = build_projection(cov)
    s = truth.scores(cov)
    _, g, weights = _score_terms(data, s)
    root = _factored_laplacian(data, weights)
    step = root.T @ (root @ g)
    # stationarity in (alpha, beta): P M^T (g + L_w (s - s*)), with
    # L_w v = deg * v - sum_e w_e v[other] over the half-edge layout
    half = data._half_edges
    w_half = half.spread(weights, weights)
    resid = g - (half.sum(w_half) * step - half.sum(w_half * step.take(half.other)))
    residual = float(np.linalg.norm(proj.apply(np.concatenate([resid, cov.scaled.T @ resid]))))
    scale = float(np.linalg.norm(proj.apply(np.concatenate([g, cov.scaled.T @ g]))))
    if not residual <= 1e-8 * max(1.0, scale):
        raise InvalidArgumentError(
            f"quadratic stationarity residual {residual:.3e} too large; "
            "graph may be effectively disconnected"
        )
    return _regression_split(cov, s - step)


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


def full_inference_report(fit: FitResult, vm: VarianceModel, level: float = 0.95) -> InferenceReport:
    """``contrast_inference`` on every basis contrast e_k of the stacked
    coordinates, vectorised: for e_k the variance cbar^T V cbar is the
    diagonal entry V[k, k], since V already lives on the subspace."""
    est = fit.params.stacked
    q = fit.projection._span_q
    # ||P e_k||^2 = 1 - ||q_k||^2 for an alpha coordinate (beta coordinates
    # are left alone by P).  The difference cancels near zero, so any
    # coordinate close to the span is rechecked the way contrast_inference
    # checks it, which raises DegenerateContrastError for P e_k = 0.
    for k in np.flatnonzero((q * q).sum(axis=1) > 1.0 - 1e-6):
        basis = np.zeros(est.size)
        basis[k] = 1.0
        _project_contrast(basis, fit)
    se = np.sqrt(np.maximum(vm.diagonal, 0.0))
    return InferenceReport(est, se, *_z_tests(est, se, level), level)


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
    c, cbar = _project_contrast(c, fit)
    err = float(c @ fit.params.stacked) - float(c @ truth.stacked)
    se_true = float(np.sqrt(vm_true.variance_of(cbar)))
    se_plugin = float(np.sqrt(vm_plugin.variance_of(cbar)))
    if se_true <= 0 or se_plugin <= 0:
        raise DegenerateContrastError("contrast has zero plug-in variance")
    return err / se_true, err / se_plugin
