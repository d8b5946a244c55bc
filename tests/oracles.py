"""Independent reference implementations used as test oracles.

Each oracle recomputes a quantity along a different route than the
library (direct summation over probabilities, finite differences, grid
search, null-space construction via scipy), so agreement is evidence and
not tautology.
"""

import csv
import io
import math
from collections import deque

import numpy as np
from scipy.linalg import null_space

from care_rank.errors import InvalidArgumentError, ParseError
from care_rank.io import (
    AGGREGATED_HEADER,
    PER_TRIAL_HEADER,
    TIE_MARKER,
    ParsedComparisons,
    ParsedCovariates,
    fmt17,
    provenance_comment,
)
from care_rank.model import ComparisonData, ParamVector, _check_dims, _score_terms


def sigmoid_by_masks(t):
    """Logistic function by boolean masks: 1 / (1 + e^-t) where t >= 0 and
    e^t / (1 + e^t) elsewhere (the library's former formula)."""
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out if out.ndim else float(out)


def score_terms_by_bincount(data, s):
    """The likelihood kernel on total scores (the library's former
    formulas): softplus and sigmoid each from their own exponential, and
    the gradient by one ``bincount`` scatter per edge end."""
    delta = s[data.item_i] - s[data.item_j]
    y = data.win_fraction
    softplus = np.maximum(delta, 0.0) + np.log1p(np.exp(-np.abs(delta)))
    value = float(np.sum(data.trials * (-(1.0 - y) * delta + softplus)))
    sig = sigmoid_by_masks(delta)
    r = data.trials * (sig - (1.0 - y))
    return value, signed_sums_by_bincount(data, r), data.trials * sig * (1.0 - sig)


def degree_by_bincount(data, w):
    """Per-item sums of per-edge values over both edge ends."""
    n = data.n_items
    return np.bincount(data.item_i, w, n) + np.bincount(data.item_j, w, n)


def signed_sums_by_bincount(data, r):
    """Per-item sums of per-edge values, added at the lower-indexed end
    and subtracted at the higher-indexed end."""
    n = data.n_items
    return np.bincount(data.item_i, r, n) - np.bincount(data.item_j, r, n)


def minima_by_minimum_at(n, src, dst, values, fill):
    """out[v] = min(fill, values[u] over arcs u -> v), by ``np.minimum.at``."""
    out = np.full(n, fill, dtype=np.asarray(values).dtype)
    np.minimum.at(out, dst, values[src])
    return out


def win_probability(score_i, score_j):
    """Probability that item j is preferred over item i, by the logistic
    law in the score difference."""
    return 1.0 / (1.0 + math.exp(score_i - score_j))


def design_by_outer_products(data, cov):
    """Sum over compared pairs, once per pair, of the outer products of
    the stacked (indicator, scaled covariate) differences."""
    n = data.n_items
    dim = n + cov.n_features
    sigma = np.zeros((dim, dim))
    for i, j, _, _ in data.edges:
        xt_i = np.concatenate([np.eye(n)[i], cov.scaled[i]])
        xt_j = np.concatenate([np.eye(n)[j], cov.scaled[j]])
        diff = xt_i - xt_j
        sigma += np.outer(diff, diff)
    return sigma


def neg_log_likelihood(data, cov, params):
    """Negative log-likelihood of the comparison outcomes, from the
    library's likelihood kernel on the total scores.  The value depends
    on the parameters only through those scores, so it is invariant
    under any parameter shift orthogonal to all pairwise feature
    differences."""
    _check_dims(data, cov, params)
    if data.n_edges == 0:
        raise InvalidArgumentError("comparison data has no edges")
    return _score_terms(data, params.scores(cov))[0]


def nll_by_direct_summation(data, cov, params):
    """Negative log-likelihood via per-edge Bernoulli log-probabilities."""
    s = params.alpha + cov.scaled @ params.beta
    total = 0.0
    for i, j, t, w in data.edges:
        p_j = win_probability(s[i], s[j])
        total += -(w * math.log(p_j) + (t - w) * math.log(1.0 - p_j))
    return total


def central_difference_gradient(data, cov, params, h=1e-6):
    base = params.stacked
    g = np.zeros(base.size)
    for k in range(base.size):
        bump = np.zeros(base.size)
        bump[k] = h
        up = ParamVector.from_stacked(base + bump, params.n_items)
        down = ParamVector.from_stacked(base - bump, params.n_items)
        g[k] = (
            neg_log_likelihood(data, cov, up) - neg_log_likelihood(data, cov, down)
        ) / (2.0 * h)
    return g


def central_difference_hessian(data, cov, params, h=1e-5):
    from care_rank.model import gradient

    base = params.stacked
    dim = base.size
    h_mat = np.zeros((dim, dim))
    for k in range(dim):
        bump = np.zeros(dim)
        bump[k] = h
        up = gradient(data, cov, ParamVector.from_stacked(base + bump, params.n_items))
        down = gradient(data, cov, ParamVector.from_stacked(base - bump, params.n_items))
        h_mat[:, k] = (up - down) / (2.0 * h)
    return 0.5 * (h_mat + h_mat.T)


def theta_basis_by_nullspace(z_pad):
    """Orthonormal basis of the constraint null space, via scipy."""
    return null_space(z_pad.T)


def projector_by_nullspace(z_pad):
    basis = theta_basis_by_nullspace(z_pad)
    return basis @ basis.T


def constraint_matrix(cov):
    """The (n+d) x (d+1) constraint matrix: the augmented design stacked
    over a zero block, so the identifiable subspace is its null space."""
    n = cov.n_items
    z_pad = np.zeros((n + cov.n_features, cov.augmented.shape[1]))
    z_pad[:n] = cov.augmented
    return z_pad


def projected_hessian_by_nullspace(hess, cov):
    """P H P with the dense P from ``projector_by_nullspace``."""
    p = projector_by_nullspace(constraint_matrix(cov))
    return p @ hess @ p


def covariance_from_root(vm):
    """The dense V = G^T G, with G read off the variance model's root
    column by column."""
    g = vm._root.times(np.eye(vm.diagonal.size))
    v = g.T @ g
    return 0.5 * (v + v.T)


def oracle_variance_model(data, cov, truth):
    """The factor route's variance model at known parameters.  Not an
    independent route: a wrapper that names the private call."""
    from care_rank.inference import _laplacian_variance_model

    return _laplacian_variance_model(data, cov, truth)


def dense_from_tree(node):
    """The n x n lower-triangular matrix a lower-triangle block tree
    stores: a leaf is its dense square, a (top, low, bottom) triple puts
    ``low`` below the diagonal and zeros above it."""
    if isinstance(node, np.ndarray):
        return node.copy()
    top, low, bottom = node
    h = low.shape[1]
    out = np.zeros((h + low.shape[0],) * 2)
    out[:h, :h] = dense_from_tree(top)
    out[h:, :h] = low
    out[h:, h:] = dense_from_tree(bottom)
    return out


def satisfies_penrose(m, plus):
    """Whether ``plus`` is the Moore-Penrose pseudoinverse of ``m`` by
    the four Penrose conditions, to a relative 1e-8."""
    mp, pm = m @ plus, plus @ m
    return (
        np.linalg.norm(mp @ m - m) <= 1e-8 * np.linalg.norm(m)
        and np.linalg.norm(pm @ plus - plus) <= 1e-8 * np.linalg.norm(plus)
        and np.linalg.norm(mp.T - mp) <= 1e-8
        and np.linalg.norm(pm.T - pm) <= 1e-8
    )


def pinv_by_svd(m, cutoff=1e-10):
    """The pseudoinverse of the symmetric ``m`` by ``np.linalg.pinv``,
    singular values at most ``cutoff`` times the largest taken as zero."""
    return np.linalg.pinv(m, rtol=cutoff, hermitian=True)


def null_dimension(m, cutoff=1e-10):
    """The count of eigenvalues of the symmetric ``m`` at most ``cutoff``
    times the largest in magnitude."""
    eigs = np.linalg.eigvalsh(m)
    return int(np.sum(np.abs(eigs) <= cutoff * np.abs(eigs).max()))


def grid_search_mle(data, cov, span=4.0, final_spacing=1e-4):
    """Brute-force constrained MLE on a 2-dof problem (n - d - 1 = 1
    intrinsic direction plus one covariate effect) by iterated grid
    refinement.  Returns the stacked parameter vector."""
    n = data.n_items
    basis = theta_basis_by_nullspace(constraint_matrix(cov))
    assert basis.shape[1] == 2, "oracle only handles 2 free dimensions"

    def objective(coords):
        stacked = basis @ coords
        return neg_log_likelihood(data, cov, ParamVector.from_stacked(stacked, n))

    center = np.zeros(2)
    half = span
    spacing = span / 20.0
    while True:
        axis0 = center[0] + np.arange(-half, half + spacing / 2, spacing)
        axis1 = center[1] + np.arange(-half, half + spacing / 2, spacing)
        best = None
        for t in axis0:
            for s in axis1:
                val = objective(np.array([t, s]))
                if best is None or val < best[0]:
                    best = (val, t, s)
        center = np.array([best[1], best[2]])
        if spacing <= final_spacing:
            break
        half = 2.0 * spacing
        spacing = spacing / 10.0
    return basis @ center


def sample_small_instance(seed, n=4, d=2, trials=12):
    """A random all-pairs comparison instance with interior win counts."""
    from care_rank.estimation import preprocess_covariates

    rng = np.random.default_rng(seed)
    raw = rng.uniform(-1.0, 1.0, size=(n, d))
    cov = preprocess_covariates(raw, standardize=True)
    alpha = rng.normal(scale=0.5, size=n)
    beta = rng.normal(scale=0.8, size=d)
    params = ParamVector(alpha, beta)
    scores = params.scores(cov)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            p_j = win_probability(scores[i], scores[j])
            wins = int(rng.binomial(trials, p_j))
            wins = min(max(wins, 1), trials - 1)  # keep the MLE finite
            edges.append((i, j, trials, wins))
    data = ComparisonData.from_edges(n, edges)
    return data, cov, params


def reachable_by_bfs(n, adjacency, start):
    """Items reachable from ``start`` by breadth-first search over a list
    of neighbour lists."""
    seen = [False] * n
    seen[start] = True
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for u in adjacency[v]:
            if not seen[u]:
                seen[u] = True
                queue.append(u)
    return [v for v in range(n) if seen[v]]


def components_by_bfs(data):
    """Connected components of the undirected comparison graph, each
    sorted, ordered by smallest member."""
    n = data.n_items
    adjacency = [[] for _ in range(n)]
    for i, j, _, _ in data.edges:
        adjacency[i].append(j)
        adjacency[j].append(i)
    comps, assigned = [], set()
    for start in range(n):
        if start not in assigned:
            comp = reachable_by_bfs(n, adjacency, start)
            assigned.update(comp)
            comps.append(comp)
    return comps


def strongly_connected_by_bfs(data):
    """Whether every item reaches every other in the directed win graph
    (an arc from each item to every item that beat it at least once)."""
    n = data.n_items
    forward = [[] for _ in range(n)]
    backward = [[] for _ in range(n)]
    for i, j, t, w in data.edges:
        if w > 0:  # j beat i
            forward[i].append(j)
            backward[j].append(i)
        if w < t:  # i beat j
            forward[j].append(i)
            backward[i].append(j)
    return (len(reachable_by_bfs(n, forward, 0)) == n
            and len(reachable_by_bfs(n, backward, 0)) == n)


def _records_by_rows(path):
    """The stripped header of a CSV file and its body records, each with
    its 1-based record number and stripped cells; blank records and
    records whose first cell starts with '#' are skipped, and so is a
    leading UTF-8 byte-order mark.  A record ``csv.reader`` cannot read
    is a ParseError at its number."""
    header, rows, lineno = None, [], 0
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        try:
            for lineno, row in enumerate(csv.reader(fh), start=1):
                if not row or all(not cell.strip() for cell in row):
                    continue
                if row[0].lstrip().startswith("#"):
                    continue
                if header is None:
                    header = [h.strip() for h in row]
                    continue
                rows.append((lineno, [cell.strip() for cell in row]))
        except csv.Error as exc:
            raise ParseError(str(exc), row=lineno + 1, path=path) from None
    if header is None:
        raise ParseError(f"{path}: empty file")
    return header, rows


def parse_comparisons_by_rows(path):
    """``parse_comparisons_csv`` one record at a time: each record is
    checked in turn and the pairs are summed in a dict."""

    def bad(message, lineno):
        return ParseError(message, row=lineno, path=path)

    header, rows = _records_by_rows(path)
    if header not in (AGGREGATED_HEADER, PER_TRIAL_HEADER):
        raise ParseError(
            f"{path}: unrecognized header {header}; expected "
            f"{AGGREGATED_HEADER} or {PER_TRIAL_HEADER}"
        )
    aggregated = header == AGGREGATED_HEADER

    raw_edges, ties = [], 0
    for lineno, row in rows:
        if len(row) != len(header):
            raise bad(f"expected {len(header)} columns, got {len(row)}", lineno)
        if not row[0] or not row[1]:
            raise bad("empty item id", lineno)
        if row[0] == row[1]:
            raise bad(f"self-comparison of item {row[0]!r}", lineno)
        if aggregated:
            try:
                trials, wins_j = int(row[2]), int(row[3])
            except ValueError:
                raise bad(f"non-integer trials/wins in {row[2]!r},{row[3]!r}", lineno)
            if not all(-(2**63) <= v < 2**63 for v in (trials, wins_j)):
                raise bad(
                    f"trials/wins {row[2]!r},{row[3]!r} outside the 64-bit range", lineno
                )
            if trials < 1:
                raise bad(f"trials must be positive, got {trials}", lineno)
            if not (0 <= wins_j <= trials):
                raise bad(f"wins_j {wins_j} outside [0, {trials}]", lineno)
        else:
            winner = row[2]
            if winner.lower() == TIE_MARKER:
                ties += 1
                continue
            if winner == row[0]:
                trials, wins_j = 1, 0
            elif winner == row[1]:
                trials, wins_j = 1, 1
            else:
                raise bad(
                    f"winner {winner!r} is neither {row[0]!r} nor {row[1]!r}", lineno
                )
        raw_edges.append((row[0], row[1], trials, wins_j))

    if not raw_edges:
        raise ParseError(f"{path}: no usable comparison rows")
    item_ids = sorted({name for edge in raw_edges for name in edge[:2]})
    index = {name: k for k, name in enumerate(item_ids)}
    edges = {}
    for name_i, name_j, trials, wins_j in raw_edges:
        a, b = index[name_i], index[name_j]
        if a > b:
            a, b, wins_j = b, a, trials - wins_j
        acc = edges.setdefault((a, b), [0, 0])
        acc[0] += trials
        acc[1] += wins_j
    data = ComparisonData.from_edges(
        len(item_ids), [(a, b, t, w) for (a, b), (t, w) in sorted(edges.items())]
    )
    return ParsedComparisons(data, item_ids, ties)


def parse_covariates_by_rows(path, item_ids):
    """``parse_covariates_csv`` one record at a time: each record is
    checked in turn and its values kept in a dict by id."""

    def bad(message, lineno):
        return ParseError(message, row=lineno, path=path)

    header, rows = _records_by_rows(path)
    if header[0] != "item":
        raise ParseError(f"{path}: first column must be 'item', got {header[:1]}")
    seen = set()
    for column, name in enumerate(header[1:], start=2):
        if name == "":
            raise ParseError(f"{path}: empty feature name in column {column}")
        if name in seen:
            raise ParseError(f"{path}: duplicate feature name {name!r} in column {column}")
        seen.add(name)
    by_id = {}
    for lineno, row in rows:
        if len(row) != len(header):
            raise bad(f"expected {len(header)} columns, got {len(row)}", lineno)
        name = row[0]
        if not name:
            raise bad("empty item id", lineno)
        if name in by_id:
            raise bad(f"duplicate item {name!r}", lineno)
        values = []
        for cell, column in zip(row[1:], header[1:]):
            try:
                values.append(float(cell))
            except ValueError:
                raise bad(
                    f"non-numeric value {cell!r} in column {column!r}", lineno
                )
        by_id[name] = values
    missing = [name for name in item_ids if name not in by_id]
    if missing:
        raise ParseError(
            f"{path}: missing covariates for compared items {missing[:8]}"
            + ("..." if len(missing) > 8 else "")
        )
    matrix = np.array([by_id[name] for name in item_ids], dtype=float)
    return ParsedCovariates(
        matrix.reshape(len(item_ids), len(header) - 1),
        header[1:],
        [name for name in by_id if name not in item_ids],
    )


def _csv_text_by_rows(header, rows, comment):
    buf = io.StringIO()
    if comment:
        buf.write(comment + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def comparisons_text_by_rows(data, item_ids, comment=None):
    """The text ``write_comparisons_csv`` writes, built one edge at a
    time from numpy scalars."""
    rows = (
        [item_ids[i], item_ids[j], int(t), int(w)]
        for i, j, t, w in zip(data.item_i, data.item_j, data.trials, data.wins_j)
    )
    return _csv_text_by_rows(AGGREGATED_HEADER, rows, comment)


def covariates_text_by_rows(matrix, item_ids, feature_names, comment=None):
    """The text ``write_covariates_csv`` writes, one item at a time."""
    rows = ([item_ids[k]] + [fmt17(v) for v in matrix[k]] for k in range(len(item_ids)))
    return _csv_text_by_rows(["item"] + list(feature_names), rows, comment)


def inference_text_by_rows(report, item_ids, feature_names, comment=None):
    """The text ``write_inference_csv`` writes, one coefficient at a time."""
    header = [
        "kind", "index", "name", "estimate", "std_error", "z_stat",
        "p_value", "ci_low", "ci_high", "level",
    ]
    n = len(item_ids)
    rows = []
    for k in range(report.estimate.size):
        if k < n:
            kind, index, name = "alpha", k, item_ids[k]
        else:
            kind, index, name = "beta", k - n, feature_names[k - n]
        rows.append([
            kind, index, name, fmt17(report.estimate[k]), fmt17(report.std_error[k]),
            fmt17(report.z_stat[k]), fmt17(report.p_value[k]), fmt17(report.ci_low[k]),
            fmt17(report.ci_high[k]), fmt17(report.level),
        ])
    return _csv_text_by_rows(header, rows, comment)


def ranking_text_by_rows(ranking, item_ids, comment=None):
    """The text ``write_ranking_csv`` writes, one item at a time from
    numpy scalars."""
    rows = (
        [item_ids[k], fmt17(ranking.scores1[k]), fmt17(ranking.scores2[k]),
         fmt17(ranking.taus[k]), int(ranking.ranks1[k]), int(ranking.ranks2[k])]
        for k in range(len(item_ids))
    )
    return _csv_text_by_rows(["item", "score1", "score2", "tau", "rank1", "rank2"], rows, comment)


def experiment_texts_by_rows(payload):
    """The texts of ``records.csv`` and ``summary.csv`` that
    ``write_experiment_files`` writes, built one record at a time from
    ``payload``, the parsed ``result.json`` it writes beside them."""
    comment = provenance_comment(payload["provenance"])
    records, summary = [], []
    for s in payload["settings"]:
        for rec in s["records"]:
            for key, value in rec.items():
                if key == "replication":
                    continue
                if isinstance(value, bool):
                    cell = "1" if value else "0"
                elif isinstance(value, (int, np.integer)):
                    cell = str(value)
                else:
                    cell = fmt17(value)
                records.append([fmt17(s["p"]), s["L"], rec["replication"], key, cell])
        for stat in sorted(s["aggregates"]):
            agg = s["aggregates"][stat]
            summary.append([fmt17(s["p"]), s["L"], stat, fmt17(agg["mean"]), fmt17(agg["sd"])])
    return (
        _csv_text_by_rows(["p", "L", "replication", "statistic", "value"], records, comment),
        _csv_text_by_rows(["p", "L", "statistic", "mean", "sd"], summary, comment),
    )


def fit_by_dense_newton(data, cov, grad_tol=1e-8, max_iters=100):
    """The damped Newton fit of ``fit_mle`` with each step solved densely
    on the assembled n x n Hessian.  Returns the stacked parameters and
    the Newton step count."""
    from care_rank.model import _score_terms, _weighted_laplacian, build_projection

    proj = build_projection(cov)
    n, scale = data.n_items, float(data.total_trials)

    def objective(s):
        value, grad, weights = _score_terms(data, s)
        return value / scale, grad / scale, weights

    def projected_norm(g):
        return float(np.linalg.norm(proj.apply(np.concatenate([g, cov.scaled.T @ g]))))

    s = np.zeros(n)
    val, g, weights = objective(s)
    iterations = 0
    while projected_norm(g) > grad_tol and iterations < max_iters:
        hess = _weighted_laplacian(n, data.item_i, data.item_j, weights / scale)
        hess += 1.0 / n
        newton = np.linalg.solve(hess, -g)
        t = 1.0
        while True:
            cand_val, cand_g, cand_weights = objective(s + t * newton)
            if cand_val <= val + 1e-12 * max(1.0, abs(val)):
                break
            t *= 0.5
        s, val, g, weights = s + t * newton, cand_val, cand_g, cand_weights
        iterations += 1
    return proj.apply(np.concatenate([s, np.linalg.pinv(cov.augmented)[1:] @ s])), iterations


def quadratic_minimizer_by_dense_pinv(data, cov, truth):
    """The minimizer of the quadratic expansion of the loss around
    ``truth`` on the identifiable subspace, in (alpha, beta) with the
    dense Hessian: out = P truth - [P H P]^+ P (g + H (P truth - truth)),
    with P from ``projector_by_nullspace`` and the pseudoinverse from
    ``pinv_by_svd``.  Returns the stacked parameters."""
    from care_rank.model import gradient, hessian

    g = gradient(data, cov, truth)
    h = hessian(data, cov, truth)
    p = projector_by_nullspace(constraint_matrix(cov))
    pinv = pinv_by_svd(p @ h @ p)
    t = truth.stacked
    pt = p @ t
    return p @ (pt - pinv @ (p @ (g + h @ (pt - t))))


def sample_comparisons_by_triu(cov, truth, p, L, rng):
    """Erdos-Renyi draw over ``np.triu_indices`` (the library's former
    sampler): one uniform per candidate pair in one call, then the
    binomial wins of the kept pairs."""
    n = cov.n_items
    scores = truth.scores(cov)
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.random(iu.size) < p
    ii, jj = iu[mask], ju[mask]
    win_probs = sigmoid_by_masks(scores[jj] - scores[ii])
    wins = rng.binomial(L, win_probs) if ii.size else np.zeros(0, dtype=np.int64)
    return ii, jj, wins
