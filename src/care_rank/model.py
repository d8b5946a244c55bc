"""Core probability model for pairwise comparisons with item covariates.

Item ``i`` carries a latent score ``alpha_i + x_i @ beta``.  For a compared
pair the probability that the higher-indexed item ``j`` beats ``i`` is the
logistic function of the score difference.  This module holds the data
containers, the likelihood kernel, the gradient and Hessian of the
negative log-likelihood, the regression split T of total scores onto
the identifiable parameter subspace and its transpose, both from one
SVD of the augmented design, the projector onto that subspace, and
structural diagnostics of the comparison graph.

Conventions used throughout:

* edges are stored with ``i < j`` and ``wins_j`` counts the trials in which
  ``j`` was preferred over ``i``;
* per-edge trial counts are first class, so datasets with unequal numbers
  of comparisons per pair need no special casing;
* the joint parameter vector stacks ``alpha`` (length n) before ``beta``
  (length d).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConnectivityError, DegenerateDesignError, InvalidArgumentError

__all__ = [
    "ComparisonData",
    "CovariateMatrix",
    "ParamVector",
    "ProjectionOperator",
    "FitDiagnostics",
    "gradient",
    "hessian",
    "build_projection",
    "is_connected",
    "connected_components",
]

# Relative singular-value cutoff below which the augmented design is
# treated as rank deficient.
RANK_RTOL = 1e-10
_CG_RTOL = 1e-12
_CG_MAX_ITERS = 1000


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def _integers(name: str, values) -> np.ndarray:
    """``values`` as an int64 array.  An integer array is taken as it is;
    any other value must be finite and integral, and is refused rather
    than truncated."""
    a = np.asarray(values)
    if a.dtype.kind not in "iu":
        a = np.asarray(a, dtype=float)
        whole = (np.floor(a) == a) & (np.abs(a) < 2.0**63)
        if not whole.all():
            raise InvalidArgumentError(f"{name} must be finite integers, got {float(a[~whole][0])}")
    return np.asarray(a, dtype=np.int64)


def _integer(name: str, value, least: int) -> int:
    """``value`` as an int of at least ``least``; a float or any other
    non-integer is refused, not truncated."""
    try:
        number = operator.index(value)
    except TypeError:
        raise InvalidArgumentError(f"{name} must be an integer, got {value!r}") from None
    if number < least:
        raise InvalidArgumentError(f"{name} must be at least {least}, got {number}")
    return number


def sigmoid(t: np.ndarray | float) -> np.ndarray | float:
    """Logistic function, stable for arguments of any magnitude."""
    t = np.asarray(t, dtype=float)
    # e = e^-|t| never overflows; 1 / (1 + e^-t) for t >= 0, e^t / (1 + e^t) below
    e = np.exp(-np.abs(t))
    out = np.where(t >= 0, 1.0, e) / (1.0 + e)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class ComparisonData:
    """Edge list of compared pairs with per-pair trial and win counts.

    ``wins_j[e]`` counts the trials on edge ``(item_i[e], item_j[e])`` in
    which the higher-indexed item ``item_j[e]`` was preferred.  The win
    fraction ``wins_j / trials`` is the sufficient statistic: the
    likelihood depends on the raw outcomes only through it.  The arrays
    are read-only, so the half-edge layout that every per-item reduction
    runs over, the component labels and the win graph's closed group are
    built on first use and cached.
    """

    n_items: int
    item_i: np.ndarray
    item_j: np.ndarray
    trials: np.ndarray
    wins_j: np.ndarray

    def __post_init__(self):
        n = int(_integers("n_items", self.n_items))
        if n < 1:
            raise InvalidArgumentError(f"n_items must be positive, got {n}")
        ii, jj, tt, ww = (
            _integers(name, getattr(self, name)).ravel()
            for name in ("item_i", "item_j", "trials", "wins_j")
        )
        if not (ii.shape == jj.shape == tt.shape == ww.shape):
            raise InvalidArgumentError("edge arrays must share one length")
        if ii.size:
            if ii.min(initial=0) < 0 or jj.max(initial=-1) >= n:
                raise InvalidArgumentError("edge endpoint out of range")
            if np.any(ii >= jj):
                raise InvalidArgumentError(
                    "edges must satisfy i < j (no self-edges, canonical order)"
                )
            keys = np.sort(ii * n + jj)
            if np.any(keys[1:] == keys[:-1]):
                raise InvalidArgumentError("duplicate (i, j) pairs in edge list")
            if np.any(tt < 1):
                raise InvalidArgumentError("every edge needs at least one trial")
            if np.any(ww < 0) or np.any(ww > tt):
                raise InvalidArgumentError("wins_j must lie in [0, trials]")
        object.__setattr__(self, "n_items", n)
        object.__setattr__(self, "item_i", _readonly(ii))
        object.__setattr__(self, "item_j", _readonly(jj))
        object.__setattr__(self, "trials", _readonly(tt))
        object.__setattr__(self, "wins_j", _readonly(ww))

    @classmethod
    def from_edges(cls, n_items: int, edges) -> "ComparisonData":
        """Build from an iterable of (i, j, trials, wins_j) tuples."""
        rows = list(edges)
        if rows:
            ii, jj, tt, ww = (np.asarray(col) for col in zip(*rows))
        else:
            ii = jj = tt = ww = np.zeros(0, dtype=np.int64)
        return cls(n_items, ii, jj, tt, ww)

    @property
    def n_edges(self) -> int:
        return self.item_i.size

    @property
    def edges(self) -> list[tuple[int, int, int, int]]:
        return [
            (int(i), int(j), int(t), int(w))
            for i, j, t, w in zip(self.item_i, self.item_j, self.trials, self.wins_j)
        ]

    @property
    def win_fraction(self) -> np.ndarray:
        """Fraction of trials in which the higher-indexed item won, per edge."""
        return self.wins_j / self.trials

    @property
    def total_trials(self) -> int:
        return int(self.trials.sum())

    @cached_property
    def _half_edges(self) -> _HalfEdges:
        return _HalfEdges.build(self.n_items, self.item_i, self.item_j)

    @cached_property
    def _component_labels(self) -> np.ndarray:
        """Smallest member of each item's undirected component, by
        label propagation over the half-edge layout; cached, so
        ``is_connected`` and ``connected_components`` share one pass."""
        return _readonly(_smallest_reaching(self._half_edges))

    @cached_property
    def _closed_group(self) -> tuple[list[int], bool] | None:
        """Ford's (1957) condition for the unpenalized MLE to exist, and
        the items that break it; cached, so the fit and the message of a
        fit without an MLE share one pass.

        In the win graph each item points to every item that beat it at
        least once.  Unless item 0 reaches every item along it and along
        its reversal, some group of items won (or lost) every comparison
        against the rest, and the likelihood keeps rising as their scores
        move apart.  Both reachabilities are label propagations over the
        half-edge layout, one keeping the half-edges whose far end beat
        their start at least once, the other those whose start beat their
        far end.  The items that item 0 does not reach won every
        comparison against the rest; those that do not reach item 0 lost
        every one.  Returns None when there are none, else the smaller of
        the first such group and the rest, sorted, with True when it won
        and False when it lost.
        """
        half = self._half_edges
        beat_j = self.wins_j > 0  # item_j won at least once
        beat_i = self.wins_j < self.trials  # item_i won at least once
        far_won = half.spread(beat_j, beat_i)
        near_won = half.spread(beat_i, beat_j)
        for won, keep in ((True, far_won), (False, near_won)):
            apart = _smallest_reaching(half, keep).astype(bool)
            if apart.any():
                if 2 * np.count_nonzero(apart) > self.n_items:
                    # the rest did the opposite against the group
                    apart, won = ~apart, not won
                return np.flatnonzero(apart).tolist(), won
        return None


@dataclass(frozen=True)
class _HalfEdges:
    """Every edge once from each end, grouped by the item it starts at.

    The half-edges starting at item ``items[k]`` occupy positions
    ``starts[k]`` up to the next start (or the end); ``other`` holds each
    one's far end and ``slot`` its position in the doubled edge list
    ``(item_i, item_j)``: e for the half-edge leaving ``item_i[e]``,
    E + e for the one leaving ``item_j[e]``, so ``slot < E`` marks the
    half-edges that start at the lower-indexed item.  Only items with an
    edge own a segment, because ``reduceat`` gives an empty segment the
    value at its start rather than the identity.  Per-item reductions
    over the segments replace scatter-adds by item.
    """

    n_items: int
    starts: np.ndarray
    items: np.ndarray
    other: np.ndarray
    slot: np.ndarray

    @classmethod
    def build(cls, n: int, item_i: np.ndarray, item_j: np.ndarray) -> "_HalfEdges":
        own = np.concatenate([item_i, item_j])
        # numpy sorts keys of at most 16 bits by radix sort, 3x faster
        # than int64 keys at 200k half-edges; stable keeps the edge order
        order = np.argsort(own.astype(np.min_scalar_type(n - 1)), kind="stable")
        counts = np.bincount(own, minlength=n)
        items = np.flatnonzero(counts)
        return cls(
            n,
            _readonly((np.cumsum(counts) - counts)[items]),
            _readonly(items),
            _readonly(np.concatenate([item_j, item_i]).take(order)),
            _readonly(order),
        )

    def spread(self, at_i: np.ndarray, at_j: np.ndarray) -> np.ndarray:
        """Per-half-edge values from two per-edge arrays: ``at_i[e]`` on
        the half-edge leaving ``item_i[e]``, ``at_j[e]`` on the one
        leaving ``item_j[e]``."""
        return np.concatenate([at_i, at_j]).take(self.slot)

    def sum(self, values: np.ndarray) -> np.ndarray:
        """Per-item sums of per-half-edge values; 0 for items without edges."""
        return self._reduce(np.add, values, 0)

    def min(self, values: np.ndarray, fill) -> np.ndarray:
        """Per-item minima of per-half-edge values; ``fill`` for items
        without edges."""
        return self._reduce(np.minimum, values, fill)

    def _reduce(self, ufunc: np.ufunc, values: np.ndarray, fill) -> np.ndarray:
        if self.items.size == self.n_items:
            return ufunc.reduceat(values, self.starts)
        out = np.full(self.n_items, fill, dtype=values.dtype)
        if values.size:
            out[self.items] = ufunc.reduceat(values, self.starts)
        return out


class _ShiftedLaplacian:
    """A = L_w + 11^T/n for per-edge weights w, held as the weights
    spread onto the half-edge layout and the degrees, so a matvec is one
    segment sum and no n x n array is built.  A is positive definite
    when the graph is connected under w, and A^-1 = L_w^+ + 11^T/n.
    ``rtol`` is the relative residual at which ``solve`` stops."""

    def __init__(self, half: _HalfEdges, w: np.ndarray, rtol: float = _CG_RTOL):
        self.half = half
        self.w_half = half.spread(w, w)
        self.degree = half.sum(self.w_half)
        self.rtol = rtol

    def times(self, v: np.ndarray) -> np.ndarray:
        """A v = degree * v - sum_e w_e v[other] + sum(v) / n."""
        out = self.degree * v
        out -= self.half.sum(self.w_half * v.take(self.half.other))
        out += v.sum() / self.half.n_items
        return out

    def solve(self, b: np.ndarray) -> tuple[np.ndarray, int]:
        """Solve A x = b by conjugate gradients with the Jacobi
        preconditioner diag A from x = 0, to a residual of ``rtol`` ||b||
        within ``_CG_MAX_ITERS`` iterations; returns x and the iteration
        count.  Each iterate minimizes 0.5 x^T A x - b^T x over a Krylov
        space that contains 0, so b^T x > 0 once x != 0: with b the
        negative gradient, every iterate is a descent direction, however
        early the solve stops."""
        diag = self.degree + 1.0 / self.half.n_items
        x = np.zeros_like(b)
        r = b.copy()
        z = r / diag
        p = z.copy()
        rz = float(r @ z)
        stop2 = (self.rtol * float(np.linalg.norm(b))) ** 2
        for k in range(_CG_MAX_ITERS):
            if float(r @ r) <= stop2:
                return x, k
            ap = self.times(p)
            curvature = float(p @ ap)
            if not curvature > 0:
                return x, k
            step = rz / curvature
            x += step * p
            r -= step * ap
            np.divide(r, diag, out=z)
            rz, rz_old = float(r @ z), rz
            p *= rz / rz_old
            p += z
        return x, _CG_MAX_ITERS


@dataclass(frozen=True)
class CovariateMatrix:
    """Item features together with the rescaling that the model is fit on.

    ``scaled`` is the standardized feature matrix divided by ``scale_k`` so
    that the largest row norm equals sqrt((d+1)/n); ``augmented`` prepends
    an all-ones intercept column to ``scaled``.  The regression split,
    which depends on the covariates alone, is built on first use from one
    SVD of the augmented design and cached as ``_basis`` = (Q, W): Q an
    orthonormal basis of its span and W the d x (d+1) slope factor, so
    that the slope rows of its pseudoinverse are S = W Q^T
    (``_regression_split``, ``build_projection``).
    """

    raw: np.ndarray
    scale_k: float
    scaled: np.ndarray
    column_means: np.ndarray
    column_sds: np.ndarray

    def __post_init__(self):
        for name in ("raw", "scaled", "column_means", "column_sds"):
            object.__setattr__(self, name, _readonly(np.asarray(getattr(self, name), dtype=float)))

    @property
    def n_items(self) -> int:
        return self.scaled.shape[0]

    @property
    def n_features(self) -> int:
        return self.scaled.shape[1]

    @property
    def augmented(self) -> np.ndarray:
        """The design Xbar = [1, X] of the scaled covariates."""
        return _readonly(np.hstack([np.ones((self.n_items, 1)), self.scaled]))

    @cached_property
    def _basis(self) -> tuple[np.ndarray, np.ndarray]:
        return _svd_basis(self.augmented)

    @cached_property
    def _projection(self) -> ProjectionOperator:
        return ProjectionOperator(self._basis[0])


@dataclass(frozen=True)
class ParamVector:
    """Joint parameters (alpha, beta)."""

    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.alpha, dtype=float).ravel()
        b = np.asarray(self.beta, dtype=float).ravel()
        object.__setattr__(self, "alpha", _readonly(a))
        object.__setattr__(self, "beta", _readonly(b))

    @classmethod
    def from_stacked(cls, stacked: np.ndarray, n_items: int) -> "ParamVector":
        stacked = np.asarray(stacked, dtype=float).ravel()
        return cls(stacked[:n_items], stacked[n_items:])

    @property
    def n_items(self) -> int:
        return self.alpha.size

    @property
    def n_features(self) -> int:
        return self.beta.size

    @property
    def stacked(self) -> np.ndarray:
        return np.concatenate([self.alpha, self.beta])

    def scores(self, cov: CovariateMatrix) -> np.ndarray:
        """Total item scores alpha_i + x_i @ beta on the scaled covariates."""
        return self.alpha + cov.scaled @ self.beta


@dataclass(frozen=True)
class ProjectionOperator:
    """Orthogonal projector onto the identifiable subspace.

    The projector is P = blockdiag(I - Q Q^T, I_d) with ``_span_q`` = Q an
    orthonormal basis of the column span of the augmented design, so it
    centers the alpha block against the covariate span and leaves beta
    untouched.  Q is all it holds: the dimensions are read off its
    n x (d+1) shape, and ``apply`` costs O(n d).
    """

    _span_q: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_span_q", _readonly(self._span_q))

    @property
    def n_items(self) -> int:
        return self._span_q.shape[0]

    @property
    def n_features(self) -> int:
        return self._span_q.shape[1] - 1

    @property
    def n_constraints(self) -> int:
        return self._span_q.shape[1]

    def apply(self, stacked: np.ndarray) -> np.ndarray:
        """Project a stacked (alpha, beta) vector onto the subspace."""
        v = np.asarray(stacked, dtype=float)
        n = self.n_items
        if v.shape[-1] != n + self.n_features:
            raise InvalidArgumentError(
                f"expected vector of length {n + self.n_features}, got {v.shape[-1]}"
            )
        out = v.astype(float).copy()
        a = out[..., :n]
        a -= (a @ self._span_q) @ self._span_q.T
        return out


@dataclass(frozen=True)
class FitDiagnostics:
    """Structural and convergence diagnostics attached to a fit.

    ``iterations`` counts accepted Newton steps, ``halvings`` the step
    halvings over all of them and ``cg_iterations`` the inner conjugate
    gradient iterations that solved them.
    """

    kappa1: float
    incoherence: float
    iterations: int
    final_grad_norm: float
    halvings: int
    cg_iterations: int


def _check_dims(data: ComparisonData, cov: CovariateMatrix, params: ParamVector) -> None:
    if data.n_items != cov.n_items or data.n_items != params.n_items:
        raise InvalidArgumentError(
            f"item counts disagree: data={data.n_items}, "
            f"covariates={cov.n_items}, params={params.n_items}"
        )
    if cov.n_features != params.n_features:
        raise InvalidArgumentError(
            f"feature counts disagree: covariates={cov.n_features}, "
            f"params={params.n_features}"
        )


def _score_terms(data: ComparisonData, s: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """The likelihood kernel on total scores ``s``: the negative
    log-likelihood, its gradient in ``s``, and the per-edge
    logistic-variance weights ``trials * sigma * (1 - sigma)`` of the
    Hessian in ``s`` (a weighted Laplacian).

    Each edge contributes ``trials * (-(1 - y) * delta + log(1 + e^delta))``
    where ``delta`` is the score of the lower-indexed item minus the score
    of the higher-indexed one and ``y`` is the win fraction of the
    higher-indexed item.
    """
    delta = s[data.item_i] - s[data.item_j]
    y = data.win_fraction
    # one e = e^-|delta| serves the stable softplus max(delta, 0) +
    # log1p(e) and the stable sigmoid, which never overflow
    e = np.exp(-np.abs(delta))
    softplus = np.maximum(delta, 0.0) + np.log1p(e)
    value = float(np.sum(data.trials * (-(1.0 - y) * delta + softplus)))
    sig = np.where(delta >= 0, 1.0, e) / (1.0 + e)
    r = data.trials * (sig - (1.0 - y))
    half = data._half_edges
    return value, half.sum(half.spread(r, -r)), data.trials * sig * (1.0 - sig)


def _hessian_weights(data: ComparisonData, s: np.ndarray) -> np.ndarray:
    """``_score_terms(data, s)[2]`` alone, bit for bit: the weights
    ``trials * sigma * (1 - sigma)`` without the loss and gradient."""
    sig = sigmoid(s[data.item_i] - s[data.item_j])
    return data.trials * sig * (1.0 - sig)


def gradient(data: ComparisonData, cov: CovariateMatrix, params: ParamVector) -> np.ndarray:
    """Gradient of the negative log-likelihood, stacked (alpha, beta).

    Uses the identity grad_beta = X^T grad_alpha: the beta block
    aggregates the per-item gradient through the feature rows.
    """
    _check_dims(data, cov, params)
    g_alpha = _score_terms(data, params.scores(cov))[1]
    return np.concatenate([g_alpha, cov.scaled.T @ g_alpha])


def _weighted_degrees(n: int, item_i: np.ndarray, item_j: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Per-item sums of the weights of the edges at each item."""
    return np.bincount(item_i, weights=w, minlength=n) + np.bincount(item_j, weights=w, minlength=n)


def _weighted_laplacian(n: int, item_i: np.ndarray, item_j: np.ndarray, w: np.ndarray) -> np.ndarray:
    lap = np.zeros((n, n))
    # ComparisonData holds each pair once as a canonical i < j edge, so
    # plain assignment places every weight; no scatter-add is needed.
    lap[item_i, item_j] = -w
    lap[item_j, item_i] = -w
    lap[np.diag_indices(n)] += _weighted_degrees(n, item_i, item_j, w)
    return lap


def hessian(data: ComparisonData, cov: CovariateMatrix, params: ParamVector) -> np.ndarray:
    """Hessian of the negative log-likelihood: a trial-weighted sum of
    outer products of feature differences with logistic-variance weights
    in (0, 1/4].  Assembled from the weighted Laplacian of the alpha
    block by the block identities H_ab = H_aa X and H_bb = X^T H_aa X."""
    _check_dims(data, cov, params)
    w = _hessian_weights(data, params.scores(cov))
    lap = _weighted_laplacian(data.n_items, data.item_i, data.item_j, w)
    x = cov.scaled
    n, d = x.shape
    top_right = lap @ x
    out = np.empty((n + d, n + d))
    out[:n, :n] = lap
    out[:n, n:] = top_right
    out[n:, :n] = top_right.T
    out[n:, n:] = x.T @ top_right
    return out


def _svd_basis(augmented: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One SVD Xbar = U diag(sigma) V^T of the n x k augmented design,
    with a rank check: Q = U, an orthonormal basis of its span, and the
    (k-1) x k slope factor W = (V diag(1/sigma))[1:], so that the slope
    rows of Xbar^+ = V diag(1/sigma) U^T are W Q^T."""
    k = augmented.shape[1]
    u, svals, vt = np.linalg.svd(augmented, full_matrices=False)
    rank = int(np.sum(svals > RANK_RTOL * svals[0]))
    if rank < k:
        raise DegenerateDesignError(
            f"augmented design has rank {rank} < {k}; covariate columns "
            "are collinear with each other or with the intercept",
            rank=rank,
        )
    return _readonly(u), _readonly(vt.T[1:] / svals)


def build_projection(cov: CovariateMatrix) -> ProjectionOperator:
    """Projector onto the identifiable subspace {(alpha, beta): Xbar^T alpha = 0};
    built once per covariate matrix and cached on it."""
    return cov._projection


def _regression_split(cov: CovariateMatrix, s: np.ndarray) -> ParamVector:
    """The point of the identifiable subspace with total scores ``s``:
    the regression split of s on Xbar, with beta = W Q^T s the slope
    rows of Xbar^+ s and alpha = (I - Q Q^T) s.  The intercept is
    dropped, as the likelihood ignores constant shifts of s."""
    q, w = cov._basis
    qs = q.T @ s
    return ParamVector(s - q @ qs, w @ qs)


def _split_transpose(cov: CovariateMatrix, c: np.ndarray) -> np.ndarray:
    """T^T c = (I - Q Q^T) c_alpha + Q W^T c_beta, for T the regression
    split above, of one stacked (alpha, beta) vector or the columns of a
    matrix: the contrast as one on the total scores."""
    (q, w), n = cov._basis, cov.n_items
    alpha = c[:n]
    return alpha - q @ (q.T @ alpha - w.T @ c[n:])


def _projected_norm(cov: CovariateMatrix, r: np.ndarray) -> float:
    """||P M^T r|| for M = [I, X]: the norm in (alpha, beta), on the
    identifiable subspace, of a gradient ``r`` in the total scores."""
    return float(np.linalg.norm(build_projection(cov).apply(np.concatenate([r, cov.scaled.T @ r]))))


def _smallest_reaching(half: _HalfEdges, keep: np.ndarray | None = None) -> np.ndarray:
    """For each item, the smallest item that reaches it, where a kept
    half-edge from u to v lets v reach u; ``keep`` (one flag per
    half-edge) defaults to every half-edge.

    Min-label propagation, each sweep a segment minimum over the layout
    in which dropped half-edges contribute the sentinel n, followed by
    pointer jumping: if w reaches u and u reaches v then w reaches v, so
    ``label[label]`` is again a valid label and long chains collapse in a
    logarithmic number of jumps.  At the fixed point label[u] <= label[v]
    on every kept half-edge from u to v.
    """
    n = half.n_items
    label = np.arange(n)
    while True:
        far = label.take(half.other)
        if keep is not None:
            far = np.where(keep, far, n)
        new = np.minimum(label, half.min(far, n))
        jumped = new[new]
        while not np.array_equal(jumped, new):
            new, jumped = jumped, jumped[jumped]
        if np.array_equal(new, label):
            return label
        label = new


def _components(labels: np.ndarray) -> list[list[int]]:
    """The items grouped by component label, each group sorted, ordered
    by smallest member."""
    order = np.argsort(labels, kind="stable")
    cuts = np.flatnonzero(np.diff(labels[order])) + 1
    return [comp.tolist() for comp in np.split(order, cuts)]


def _refuse_split(graph: str, labels: np.ndarray) -> None:
    """Raise ``ConnectivityError`` with every component when the
    component ``labels`` of ``graph`` mark more than one."""
    if labels.any():
        raise ConnectivityError(graph, _components(labels))


def connected_components(data: ComparisonData) -> list[list[int]]:
    """Connected components of the undirected comparison graph, each
    sorted, ordered by smallest member."""
    return _components(data._component_labels)


def is_connected(data: ComparisonData) -> bool:
    """True when every item is reachable from every other through compared pairs."""
    return not data._component_labels.any()

