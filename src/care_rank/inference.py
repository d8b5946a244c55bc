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
A = L L^T the covariance is G^T G for the n x (n+d) root G = R T^T,
R = L^-1.  A is stored, and R built in its place, as a recursive 2 x 2
block tree of the lower triangle: dense leaves of at most a few hundred
rows, and below each diagonal split one dense block.  The tree is built
from the edges, and the factor-invert step is one recursion over it,
which splits each leaf the same way as views down to small blocks that
LAPACK factors and inverts; above those it is matrix products that
skip the zero upper halves (about 2 n^3/3 flops).  So no n x n array
is ever allocated, and the variance model peaks at
``factor_peak_bytes(n)``: the tree, about 0.5 n^2 doubles, and O(n)
rows of leaves and temporaries.  The variance model keeps the root as
its factors, the tree of R and the covariates, which give T: a contrast
variance is ||R T^T cbar||^2, one pass over the tree; the coordinate
variances are the squared column norms of G, for which one pass forms
R Q and R S^T and one more takes each stored block of R less its part
of (R Q) Q^T.  No dense (n+d) x (n+d) matrix, nor G, is formed.
``projected_hessian_pinv``
builds a dense root from an eigendecomposition of P H P, as a
reference: no command or study runs it.  The distribution study reads
three variances from each of two models, at the truth and at the fit,
so it builds no factor: ``_variances_by_solve`` gets them as
u^T A^-1 u for the same u = T^T c from one dense LU solve with A.

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
the MLE is to its linearization, one conjugate gradient solve with A),
and soft-thresholded ranking scores that zero out statistically
insignificant intrinsic effects.
"""

from __future__ import annotations

import operator
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
    _hessian_weights,
    _projected_norm,
    _readonly,
    _refuse_split,
    _regression_split,
    _score_terms,
    _ShiftedLaplacian,
    _smallest_reaching,
    _split_transpose,
    _weighted_degrees,
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
    estimate as V = G^T G for a root G.  From ``plugin_variance_model``
    G = R T^T (see the module docstring), held as its two factors: the
    block tree of R's lower triangle and the covariates, which give T;
    from ``projected_hessian_pinv`` G = Lambda^-1/2 V^T of the kept
    eigenpairs, held whole.
    ``variance_of`` is the squared norm of G cbar and ``diagonal`` the
    squared column norms of G, computed on first use; no dense
    (n+d) x (n+d) matrix is kept.  The factor route peaks at
    ``factor_peak_bytes(n)``.

    ``rank_warning`` flags more near-zero eigenvalues than the d+1 the
    constraint accounts for, which only ``projected_hessian_pinv`` can
    report: the factor route refuses such a Hessian.
    """

    def __init__(self, *, root, rank_warning: bool = False):
        """``root`` is a ``_DenseRoot`` or the factor route's
        ``_FactorRoot``."""
        self.rank_warning = rank_warning
        self._root = root

    @cached_property
    def diagonal(self) -> np.ndarray:
        """The coordinate variances, diag V, stacked (alpha, beta)."""
        return _readonly(self._root.column_norms())

    def variance_of(self, cbar: np.ndarray) -> float:
        """cbar^T V cbar, as ||G cbar||^2."""
        u = self._root.times(cbar)
        return float(u @ u)


@dataclass(frozen=True)
class _DenseRoot:
    """G held as one dense matrix."""

    g: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "g", _readonly(self.g))

    def times(self, c: np.ndarray) -> np.ndarray:
        """G c, for one stacked vector or the columns of a matrix."""
        return self.g @ c

    def column_norms(self) -> np.ndarray:
        """The squared column norms of G."""
        return np.einsum("ij,ij->j", self.g, self.g)


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
    # P is symmetric, so projecting every row and then every column
    # gives P @ hess @ P without the dense projector.
    projected = proj.apply(proj.apply(hess).T)
    projected += projected.T
    projected *= 0.5
    eigvals, eigvecs = np.linalg.eigh(projected)
    lam_max = float(eigvals[-1])
    threshold = DEFAULT_EIGEN_CUTOFF * max(lam_max, 0.0)
    keep = eigvals > threshold
    return VarianceModel(
        root=_DenseRoot((eigvecs[:, keep] / np.sqrt(eigvals[keep])).T),
        rank_warning=int(np.sum(~keep)) > proj.n_constraints,
    )


# Diagonal blocks up to this size are factored and inverted directly by
# _invert_tree; of 32-256, 64 was fastest at n = 200 and level with the
# rest at n = 2000 (2-core OpenBLAS).
_INVERSE_BLOCK = 64

# Rows of the block tree's leaves: a node of more rows is split in half.
# Each leaf is one dense square, its zero upper half included, so the
# leaves cost up to n * _LEAF_ROWS doubles; the tree products take their
# left operand this many rows at a time, bounding their temporaries
# alike.  At n = 2000 (2-core
# OpenBLAS), 64, 128, 256 and 512 gave ``infer`` a peak RSS of 65.0,
# 65.4, 67.0 and 73.8 MB, and the variance model 173, 155, 153 and
# 168 ms.
_LEAF_ROWS = 256

# The variance model and report peak, beyond what the fit holds, at the
# block tree's 0.5 n^2 doubles plus O(n * _LEAF_ROWS): the leaves' zero
# halves, the products' temporaries, and R Q and R S^T while the
# diagonal is formed.  Traced with the report at mean degree 40, that
# term was at most 280 n doubles from n = 20 to 4000 (at n = 256, one
# leaf), so 400 n bounds it.
def factor_peak_bytes(n: int) -> int:
    """Bytes that bound the factor route's peak for ``n`` items."""
    return 4 * n * n + 3200 * n  # 8 (0.5 n^2 + 400 n)


# Rows per step of the diagonal, whose temporaries are this many rows by
# a leaf's width: against 256 rows, 64 cut the traced peak at n = 500
# from 1.28 to 1.05 n^2 and cost the report 0.7 ms at n = 2000.
_DIAGONAL_ROWS = 64


# The lower triangle of a symmetric (or lower-triangular) n x n matrix
# as a recursive 2 x 2 block tree.  A node is a dense square leaf of at
# most _LEAF_ROWS rows, or a triple (top, low, bottom): the trees of the
# two diagonal blocks, of n // 2 and n - n // 2 rows, and the dense
# block below the diagonal.  The upper off-diagonal blocks are never
# stored, so the tree holds about half of the n x n square.


def _rows_times(out: np.ndarray, a: np.ndarray, b: np.ndarray, combine) -> None:
    """``combine(out, a @ b)`` in place, ``_LEAF_ROWS`` rows at a time,
    with ``combine`` one of np.copyto, operator.iadd and operator.isub.
    Row r of the product needs row r of ``a`` only, so ``a`` may be
    ``out`` itself."""
    for start in range(0, out.shape[0], _LEAF_ROWS):
        rows = slice(start, start + _LEAF_ROWS)
        combine(out[rows], a[rows] @ b)


def _times_transpose(x: np.ndarray, node) -> None:
    """x <- x R^T in place, for R the lower-triangular tree ``node``;
    ``_times_transpose(x.T, node)`` is x <- R x."""
    if isinstance(node, np.ndarray):
        _rows_times(x, x, node.T, np.copyto)
        return
    top, low, bottom = node
    h = low.shape[1]
    _times_transpose(x[:, h:], bottom)
    _rows_times(x[:, h:], x[:, :h], low.T, operator.iadd)
    _times_transpose(x[:, :h], top)


def _times(x: np.ndarray, node) -> None:
    """x <- x R in place, for R the lower-triangular tree ``node``;
    ``_times(x.T, node)`` is x <- R^T x."""
    if isinstance(node, np.ndarray):
        _rows_times(x, x, node, np.copyto)
        return
    top, low, bottom = node
    h = low.shape[1]
    _times(x[:, :h], top)
    _rows_times(x[:, :h], x[:, h:], low, operator.iadd)
    _times(x[:, h:], bottom)


def _subtract_gram(node, y: np.ndarray) -> None:
    """B <- B - y y^T on the stored lower triangle of the symmetric
    tree ``node``; a leaf gets the whole symmetric square."""
    if isinstance(node, np.ndarray):
        node -= y @ y.T
        return
    top, low, bottom = node
    h = low.shape[1]
    _subtract_gram(top, y[:h])
    _rows_times(low, y[h:], y[:h].T, operator.isub)
    _subtract_gram(bottom, y[h:])


def _invert_tree(node) -> None:
    """Overwrite the tree of a symmetric positive definite A with that
    of R = L^-1 for its Cholesky factor A = L L^T.

    Recursive 2 x 2 blocking: with R11 the result for the top block,
    L21 = A21 R11^T is the factor's off-diagonal block, A22 - L21 L21^T
    the Schur complement whose result is R22, and R21 = -(R22 L21) R11,
    all done by the tree products, which skip the zero upper halves
    (about 2 n^3/3 flops).  A dense leaf of more than ``_INVERSE_BLOCK``
    rows runs the same steps on its blocks as views, its upper block
    zeroed; smaller ones are factored and inverted directly.  A block
    that is not numerically positive definite raises
    ``np.linalg.LinAlgError``, leaving the tree partly overwritten.
    """
    if isinstance(node, np.ndarray):
        n = node.shape[0]
        if n <= _INVERSE_BLOCK:
            node[...] = np.tril(np.linalg.inv(np.linalg.cholesky(node)))
            return
        h = n // 2
        node[:h, h:] = 0.0
        node = (node[:h, :h], node[h:, :h], node[h:, h:])
    top, low, bottom = node
    _invert_tree(top)
    _times_transpose(low, top)  # L21 = A21 R11^T
    _subtract_gram(bottom, low)  # the Schur complement A22 - L21 L21^T
    _invert_tree(bottom)
    _times_transpose(low.T, bottom)  # R22 L21
    _times(low, top)  # (R22 L21) R11
    np.negative(low, out=low)


def _shifted_laplacian_tree(data: ComparisonData, weights: np.ndarray):
    """The tree of A = L_w + 11^T/n, built from the edges block by block:
    each level splits the edges between its two diagonal blocks and the
    block below the diagonal, and the leaves add the degrees.  A is
    positive definite when the weighted graph is connected, and
    A^-1 = L_w^+ + 11^T/n."""
    n = data.n_items
    shift = 1.0 / n
    deg = _weighted_degrees(n, data.item_i, data.item_j, weights)

    def build(start, size, lo, hi, w):
        # the edges (lo < hi) with both ends in rows start .. start + size
        if size <= _LEAF_ROWS:
            block = np.zeros((size, size))
            block[hi - start, lo - start] = -w
            block[lo - start, hi - start] = -w
            block[np.diag_indices(size)] += deg[start : start + size]
            block += shift
            return block
        h = size // 2
        mid = start + h
        upper, lower = hi < mid, lo >= mid
        cross = ~(upper | lower)
        low = np.zeros((size - h, h))
        low[hi[cross] - mid, lo[cross] - start] = -w[cross]
        low += shift
        return (
            build(start, h, lo[upper], hi[upper], w[upper]),
            low,
            build(mid, size - h, lo[lower], hi[lower], w[lower]),
        )

    return build(0, n, data.item_i, data.item_j, weights)


def _refuse_weight_split(data: ComparisonData, weights: np.ndarray) -> None:
    """Drop the edges weighing at most ``DEFAULT_EIGEN_CUTOFF`` times the
    largest; if the rest split the graph, raise ``ConnectivityError``."""
    keep = weights > DEFAULT_EIGEN_CUTOFF * weights.max(initial=0.0)
    if keep.all():
        graph, labels = "comparison graph", data._component_labels
    else:
        half = data._half_edges
        graph = "comparison graph under its Hessian weights"
        labels = _smallest_reaching(half, half.spread(keep, keep))
    _refuse_split(graph, labels)


_NOT_POSITIVE_DEFINITE = "L_w + 11^T/n is not numerically positive definite"


@dataclass(frozen=True)
class _FactorRoot:
    """The root G = R T^T = [R (I - Q Q^T) | R S^T] of the factor route,
    held as its two factors: the tree of R and the covariates, which
    give T.  G itself is never formed."""

    tree: object
    cov: CovariateMatrix

    def times(self, c: np.ndarray) -> np.ndarray:
        """G c = R T^T c, one pass over the tree, for one stacked vector
        or the columns of a matrix."""
        u = _split_transpose(self.cov, c)
        _times_transpose(u.reshape(u.shape[0], -1).T, self.tree)
        return u

    def column_norms(self) -> np.ndarray:
        """The squared column norms of G: one pass over the tree forms
        R Q and R S^T, the beta block of G, and one more takes those of
        R (I - Q Q^T), each stored block of R less its part of
        (R Q) Q^T, ``_DIAGONAL_ROWS`` rows by at most ``_LEAF_ROWS``
        columns at a time, subtracted before squaring (diag A^-1 less
        projection terms cancels when the 1/n shift dominates A^-1);
        above a leaf, R is zero and the rows add q^T (R Q)^T (R Q) q."""
        q = build_projection(self.cov)._span_q
        products = np.hstack([q, self.cov._score_split.T])
        _times_transpose(products.T, self.tree)
        rq, rs = np.hsplit(products, [q.shape[1]])
        alpha = np.zeros(q.shape[0])

        def add(row, col, block):
            cols = slice(col, col + block.shape[1])
            qt, rq_rows = q[cols].T, rq[row : row + block.shape[0]]
            for start in range(0, block.shape[0], _DIAGONAL_ROWS):
                rows = slice(start, start + _DIAGONAL_ROWS)
                t = rq_rows[rows] @ qt
                np.subtract(block[rows], t, out=t)
                alpha[cols] += np.einsum("ij,ij->j", t, t)

        def walk(node, start):
            if isinstance(node, np.ndarray):
                add(start, start, node)
                cols = slice(start, start + node.shape[1])
                q_rows, above = q[cols], rq[:start]
                alpha[cols] += np.einsum("ij,ij->i", q_rows @ (above.T @ above), q_rows)
                return
            top, low, bottom = node
            h = low.shape[1]
            walk(top, start)
            for col in range(0, h, _LEAF_ROWS):
                add(start + h, start + col, low[:, col : col + _LEAF_ROWS])
            walk(bottom, start + h)

        walk(self.tree, 0)
        return np.concatenate([alpha, np.einsum("ij,ij->j", rs, rs)])


def _laplacian_variance_model(
    data: ComparisonData, cov: CovariateMatrix, params: ParamVector
) -> VarianceModel:
    """The variance model from its root G = R T^T, with T the regression
    split and R = L^-1 inverted in place from the tree of A after
    ``_refuse_weight_split``; a failed factor raises
    ``InvalidArgumentError``."""
    _check_dims(data, cov, params)
    weights = _hessian_weights(data, params.scores(cov))
    _refuse_weight_split(data, weights)
    tree = _shifted_laplacian_tree(data, weights)
    try:
        _invert_tree(tree)
    except np.linalg.LinAlgError:
        raise InvalidArgumentError(_NOT_POSITIVE_DEFINITE) from None
    return VarianceModel(root=_FactorRoot(tree, cov))


def _variances_by_solve(
    data: ComparisonData, cov: CovariateMatrix, params: ParamVector, contrasts: np.ndarray
) -> np.ndarray:
    """The variance at ``params`` of each column c of the (n+d) x k
    ``contrasts``, u^T A^-1 u for u = T^T c, from one dense LU solve with
    A = L_w + 11^T/n: the numbers ``_laplacian_variance_model`` gives as
    ||G P c||^2, without a factor.  Builds two n x n arrays (A and
    LAPACK's copy), so it suits a few contrasts at study sizes.  A graph
    split under the weights raises ``ConnectivityError`` and a singular
    A ``InvalidArgumentError``, as on the factor route."""
    _check_dims(data, cov, params)
    weights = _hessian_weights(data, params.scores(cov))
    _refuse_weight_split(data, weights)
    n = data.n_items
    a = _weighted_laplacian(n, data.item_i, data.item_j, weights)
    a += 1.0 / n
    u = _split_transpose(cov, contrasts)
    try:
        x = np.linalg.solve(a, u)
    except np.linalg.LinAlgError:
        raise InvalidArgumentError(_NOT_POSITIVE_DEFINITE) from None
    return np.maximum(np.einsum("ik,ik->k", u, x), 0.0)


def plugin_variance_model(fit: FitResult) -> VarianceModel:
    """Variance model with the Hessian evaluated at the fitted parameters."""
    return _laplacian_variance_model(fit.data, fit.covariates, fit.params)


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
    step, s = s* - L_w^+ g = s* - A^-1 g (g sums to zero), solved by the
    fit's conjugate gradients on A (``model._ShiftedLaplacian``) in O(E)
    memory; the regression split of s is the point of the subspace with
    those scores.  Simulation-side tool: requires the true parameters.
    """
    _check_dims(data, cov, truth)
    s = truth.scores(cov)
    _, g, weights = _score_terms(data, s)
    _refuse_weight_split(data, weights)
    system = _ShiftedLaplacian(data._half_edges, weights)
    step = system.solve(g)[0]
    # stationarity in (alpha, beta): P M^T (g + L_w (s - s*)); the shift
    # adds sum(step) / n = sum(g) / n, zero up to rounding
    residual = _projected_norm(cov, g - system.times(step))
    if not residual <= 1e-8 * max(1.0, _projected_norm(cov, g)):
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
