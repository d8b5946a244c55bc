"""Independent reference implementations used as test oracles.

Each oracle recomputes a quantity along a different route than the
library (direct summation over probabilities, finite differences, grid
search, null-space construction via scipy), so agreement is evidence and
not tautology.
"""

import math
from collections import deque

import numpy as np
from scipy.linalg import null_space

from care_rank.model import ComparisonData, ParamVector, neg_log_likelihood, win_probability


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


def grid_search_mle(data, cov, span=4.0, final_spacing=1e-4):
    """Brute-force constrained MLE on a 2-dof problem (n - d - 1 = 1
    intrinsic direction plus one covariate effect) by iterated grid
    refinement.  Returns the stacked parameter vector."""
    n = data.n_items
    z_pad = np.zeros((n + cov.n_features, cov.augmented.shape[1]))
    z_pad[:n] = cov.augmented
    basis = theta_basis_by_nullspace(z_pad)
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
