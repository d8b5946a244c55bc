"""Core model: likelihood, derivatives, projection, graph diagnostics."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from care_rank import model
from care_rank.errors import ConnectivityError, DegenerateDesignError, InvalidArgumentError
from care_rank.estimation import preprocess_covariates, project_to_theta
from care_rank.model import (
    ComparisonData,
    ParamVector,
    _hessian_weights,
    _score_terms,
    build_projection,
    connected_components,
    gradient,
    hessian,
    is_connected,
    neg_log_likelihood,
    sigmoid,
)

from oracles import (
    central_difference_gradient,
    central_difference_hessian,
    components_by_bfs,
    constraint_matrix,
    degree_by_bincount,
    design_by_outer_products,
    minima_by_minimum_at,
    nll_by_direct_summation,
    projector_by_nullspace,
    sample_small_instance,
    score_terms_by_bincount,
    sigmoid_by_masks,
    signed_sums_by_bincount,
    strongly_connected_by_bfs,
)


def btl_cov(n):
    """Covariate-free design (d = 0)."""
    return preprocess_covariates(np.zeros((n, 0)))


def assert_names_a_closed_group(data):
    """``_closed_group`` is None exactly when the win graph is strongly
    connected, and otherwise names at most half of the items, which won
    (or lost) every trial against the rest."""
    closed = data._closed_group
    assert (closed is None) == strongly_connected_by_bfs(data)
    if closed is None:
        return
    group, won = closed
    assert group == sorted(set(group)) and 0 < 2 * len(group) <= data.n_items
    inside = np.zeros(data.n_items, dtype=bool)
    inside[group] = True
    for i, j, t, w in data.edges:
        if inside[i] != inside[j]:
            group_wins = w if inside[j] else t - w
            assert group_wins == (t if won else 0)


class TestSigmoid:
    def test_equals_masked_formula(self):
        special = [0.0, -0.0, 700.0, -700.0, 800.0, -800.0, 5e-324, -5e-324,
                   np.inf, -np.inf, np.nan]
        t = np.concatenate([special, np.random.default_rng(8).normal(scale=10, size=10_000)])
        got, want = sigmoid(t), sigmoid_by_masks(t)
        np.testing.assert_array_equal(got, want)  # NaN where the formula gives NaN
        finite = ~np.isnan(want)
        assert np.array_equal(got[finite].view(np.uint64), want[finite].view(np.uint64))
        assert math.isnan(got[len(special) - 1])

    def test_scalar_in_scalar_out(self):
        for t in (0.0, -0.0, 3.0, -3.0, 800.0, -800.0, math.inf, -math.inf):
            got = sigmoid(t)
            assert type(got) is float and got == sigmoid_by_masks(t)
        assert math.isnan(sigmoid(math.nan))


class TestComparisonData:
    def test_rejects_self_edges(self):
        with pytest.raises(InvalidArgumentError):
            ComparisonData.from_edges(3, [(1, 1, 2, 1)])

    def test_rejects_unordered_edges(self):
        with pytest.raises(InvalidArgumentError):
            ComparisonData.from_edges(3, [(2, 1, 2, 1)])

    def test_rejects_duplicates(self):
        with pytest.raises(InvalidArgumentError):
            ComparisonData.from_edges(3, [(0, 1, 2, 1), (0, 1, 3, 2)])

    def test_rejects_bad_wins(self):
        with pytest.raises(InvalidArgumentError):
            ComparisonData.from_edges(3, [(0, 1, 2, 3)])
        with pytest.raises(InvalidArgumentError):
            ComparisonData.from_edges(3, [(0, 1, 2, -1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidArgumentError):
            ComparisonData.from_edges(3, [(0, 3, 2, 1)])

    def test_rejects_non_integral_values(self):
        # truncation would read this as n = 3, item_i [0, 1], trials [5, 5], wins_j [2, 3]
        with pytest.raises(InvalidArgumentError, match="n_items must be finite integers, got 3.9"):
            ComparisonData(3.9, [0, 1.9], [1, 2], [5.5, 5], [2.8, 3])
        good = dict(item_i=[0, 1], item_j=[1, 2], trials=[5, 5], wins_j=[2, 3])
        for name, bad, shown in [
            ("item_i", [0, 1.9], "1.9"), ("item_j", [1, np.nan], "nan"),
            ("trials", [5.5, 5], "5.5"), ("trials", [np.inf, 5], "inf"),
            ("wins_j", [2.8, 3], "2.8"), ("trials", [1e30, 5], r"1e\+30"),
        ]:
            with pytest.raises(InvalidArgumentError, match=f"{name} must be finite integers, got {shown}"):
                ComparisonData(3, **{**good, name: bad})
        # integral floats are the integers they hold
        floats = ComparisonData(3.0, *(np.array(v, dtype=float) for v in good.values()))
        assert floats.n_items == 3 and floats.edges == ComparisonData(3, **good).edges

    def test_rejects_no_items(self):
        with pytest.raises(InvalidArgumentError, match="n_items must be positive, got 0"):
            ComparisonData.from_edges(0, [])

    def test_rejects_edge_arrays_of_unequal_length(self):
        with pytest.raises(InvalidArgumentError, match="edge arrays must share one length"):
            ComparisonData(3, [0, 1], [1, 2], [5], [2, 3])

    def test_rejects_zero_trial_edge(self):
        with pytest.raises(InvalidArgumentError, match="every edge needs at least one trial"):
            ComparisonData.from_edges(3, [(0, 1, 2, 1), (1, 2, 0, 0)])

    def test_win_fraction(self):
        data = ComparisonData.from_edges(2, [(0, 1, 4, 3)])
        assert data.win_fraction[0] == 0.75
        assert data.total_trials == 4


class TestLikelihoodKernel:
    def instance(self):
        from care_rank.simulation import SyntheticSpec, generate_truth, sample_comparisons

        cov, truth = generate_truth(SyntheticSpec(n=60, d=2, seed=9))
        data = sample_comparisons(cov, truth, 0.3, 7, 9)
        alpha = np.random.default_rng(9).normal(scale=20.0, size=60)
        alpha[:2] = (800.0, -800.0)  # e^|delta| overflows on their edges
        return data, cov, ParamVector(alpha, truth.beta)

    def test_score_terms_equal_former_formulas(self):
        data, cov, params = self.instance()
        value, grad, weights = _score_terms(data, params.scores(cov))
        want_value, want_grad, want_weights = score_terms_by_bincount(data, params.scores(cov))
        assert value == want_value
        np.testing.assert_array_equal(weights, want_weights)
        # the per-item sums now run in half-edge order, not edge order
        np.testing.assert_allclose(grad, want_grad, rtol=0, atol=1e-12 * data.total_trials)

    def test_hessian_weights_equal_former_formulas(self):
        data, cov, params = self.instance()
        want = score_terms_by_bincount(data, params.scores(cov))[2]
        np.testing.assert_array_equal(_score_terms(data, params.scores(cov))[2], want)

    def test_hessian_weights_are_score_terms_weights(self):
        data, cov, params = self.instance()
        s = params.scores(cov)
        # bit for bit, on edges where e^-|delta| underflows as well
        assert np.abs(s[data.item_i] - s[data.item_j]).max() > 40
        assert np.array_equal(_hessian_weights(data, s), _score_terms(data, s)[2])


@st.composite
def comparison_graphs(draw, max_items=10):
    """Comparison data on up to ``max_items`` items, edges in drawn
    (unsorted) order; items may have no edge and E may be 0."""
    n = draw(st.integers(1, max_items))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = []
    for i, j in chosen:
        trials = draw(st.integers(1, 3))
        edges.append((i, j, trials, draw(st.integers(0, trials))))
    return ComparisonData.from_edges(n, edges)


class TestHalfEdgeLayout:
    @given(comparison_graphs())
    @example(ComparisonData.from_edges(1, []))
    @example(ComparisonData.from_edges(4, []))
    @example(ComparisonData.from_edges(3, [(0, 1, 2, 1)]))  # last item isolated
    @example(ComparisonData.from_edges(5, [(2, 4, 1, 1), (1, 3, 2, 0), (0, 2, 3, 3), (0, 1, 1, 0)]))
    @example(ComparisonData.from_edges(3, [(1, 2, 2, 1), (0, 2, 2, 2), (0, 1, 2, 2)]))  # 0 never wins
    @example(ComparisonData.from_edges(3, [(1, 2, 2, 1), (0, 2, 2, 0), (0, 1, 2, 0)]))  # 0 never loses
    def test_reducers_equal_scatter_formulas(self, data):
        half = data._half_edges
        n, ii, jj = data.n_items, data.item_i, data.item_j
        assert half.other.dtype == half.slot.dtype == np.intp
        # integer-valued weights, so every summation order is exact
        w = data.trials.astype(float)
        r = (2 * data.wins_j - data.trials).astype(float)
        np.testing.assert_array_equal(half.sum(half.spread(w, w)), degree_by_bincount(data, w))
        np.testing.assert_array_equal(
            half.sum(half.spread(r, -r)), signed_sums_by_bincount(data, r)
        )
        labels = np.arange(n)[::-1].copy()
        far = labels.take(half.other)
        both_i, both_j = np.concatenate([ii, jj]), np.concatenate([jj, ii])
        np.testing.assert_array_equal(
            half.min(far, n), minima_by_minimum_at(n, both_j, both_i, labels, n)
        )
        beat_j, beat_i = data.wins_j > 0, data.wins_j < data.trials
        loser = np.concatenate([ii[beat_j], jj[beat_i]])
        winner = np.concatenate([jj[beat_j], ii[beat_i]])
        far_won = half.spread(beat_j, beat_i)
        near_won = half.spread(beat_i, beat_j)
        np.testing.assert_array_equal(
            half.min(np.where(far_won, far, n), n),
            minima_by_minimum_at(n, winner, loser, labels, n),
        )
        np.testing.assert_array_equal(
            half.min(np.where(near_won, far, n), n),
            minima_by_minimum_at(n, loser, winner, labels, n),
        )
        assert connected_components(data) == components_by_bfs(data)
        assert is_connected(data) == (len(components_by_bfs(data)) == 1)
        assert_names_a_closed_group(data)


class TestNegLogLikelihood:
    def test_single_win_at_zero(self):
        data = ComparisonData.from_edges(2, [(0, 1, 1, 1)])
        cov = btl_cov(2)
        val = neg_log_likelihood(data, cov, ParamVector(np.zeros(2), np.zeros(0)))
        assert val == pytest.approx(math.log(2.0), abs=1e-15)

    def test_split_trials_at_zero(self):
        data = ComparisonData.from_edges(2, [(0, 1, 2, 1)])
        cov = btl_cov(2)
        val = neg_log_likelihood(data, cov, ParamVector(np.zeros(2), np.zeros(0)))
        assert val == pytest.approx(2.0 * math.log(2.0), abs=1e-15)

    def test_matches_direct_summation(self):
        data, cov, params = sample_small_instance(seed=11, n=3, d=1)
        ours = neg_log_likelihood(data, cov, params)
        ref = nll_by_direct_summation(data, cov, params)
        assert ours == pytest.approx(ref, abs=1e-10)

    def test_nonnegative(self):
        for seed in range(5):
            data, cov, params = sample_small_instance(seed=seed)
            assert neg_log_likelihood(data, cov, params) >= 0.0

    def test_shift_invariance_constant_when_btl(self):
        data = ComparisonData.from_edges(3, [(0, 1, 5, 2), (1, 2, 4, 3), (0, 2, 6, 1)])
        cov = btl_cov(3)
        alpha = np.array([0.3, -0.2, 0.8])
        base = neg_log_likelihood(data, cov, ParamVector(alpha, np.zeros(0)))
        shifted = neg_log_likelihood(data, cov, ParamVector(alpha + 2.5, np.zeros(0)))
        assert shifted == pytest.approx(base, abs=1e-12)

    def test_shift_invariance_general_null_direction(self):
        # v with alpha part c - X w and beta part w is orthogonal to every
        # pairwise feature difference, so the value cannot change.
        data, cov, params = sample_small_instance(seed=4)
        rng = np.random.default_rng(8)
        w = rng.normal(size=cov.n_features)
        const = rng.normal()
        v_alpha = const - cov.scaled @ w
        shifted = ParamVector(params.alpha + v_alpha, params.beta + w)
        base = neg_log_likelihood(data, cov, params)
        assert neg_log_likelihood(data, cov, shifted) == pytest.approx(base, rel=1e-12)

    def test_dimension_mismatch(self):
        data = ComparisonData.from_edges(2, [(0, 1, 1, 1)])
        cov = btl_cov(3)
        with pytest.raises(InvalidArgumentError):
            neg_log_likelihood(data, cov, ParamVector(np.zeros(3), np.zeros(0)))

    def test_convex_along_identifiable_segments(self):
        data, cov, _ = sample_small_instance(seed=21)
        proj = build_projection(cov)
        rng = np.random.default_rng(9)
        n = data.n_items
        for _ in range(10):
            a = proj.apply(rng.normal(size=n + cov.n_features))
            b = proj.apply(rng.normal(size=n + cov.n_features))
            la = neg_log_likelihood(data, cov, ParamVector.from_stacked(a, n))
            lb = neg_log_likelihood(data, cov, ParamVector.from_stacked(b, n))
            mid = neg_log_likelihood(data, cov, ParamVector.from_stacked((a + b) / 2, n))
            assert mid <= (la + lb) / 2 + 1e-12


class TestGradient:
    def test_single_edge_at_zero(self):
        data = ComparisonData.from_edges(2, [(0, 1, 1, 1)])
        g = gradient(data, btl_cov(2), ParamVector(np.zeros(2), np.zeros(0)))
        np.testing.assert_allclose(g, [0.5, -0.5], atol=1e-15)

    def test_zero_at_matched_fractions(self):
        # Win fractions chosen to equal the model probabilities exactly:
        # score gaps of log 2 and log 4 give probabilities 1/3 and 1/5.
        alpha = np.array([math.log(2.0), 0.0, -math.log(2.0)])
        data = ComparisonData.from_edges(
            3, [(0, 1, 3, 1), (0, 2, 5, 1), (1, 2, 3, 1)]
        )
        g = gradient(data, btl_cov(3), ParamVector(alpha, np.zeros(0)))
        np.testing.assert_allclose(g, 0.0, atol=1e-12)

    def test_matches_central_differences(self):
        data, cov, params = sample_small_instance(seed=2, n=4, d=2)
        g = gradient(data, cov, params)
        fd = central_difference_gradient(data, cov, params)
        assert np.all(np.abs(g) > 1e-3)  # instance chosen with no tiny components
        np.testing.assert_allclose(fd, g, rtol=1e-5)


class TestHessian:
    def test_weights_quarter_at_equal_scores(self):
        data = ComparisonData.from_edges(3, [(0, 1, 1, 0), (0, 2, 1, 1), (1, 2, 1, 0)])
        cov = btl_cov(3)
        h = hessian(data, cov, ParamVector(np.zeros(3), np.zeros(0)))
        np.testing.assert_allclose(h, design_by_outer_products(data, cov) / 4.0, atol=1e-14)

    def test_psd(self):
        for seed in range(4):
            data, cov, params = sample_small_instance(seed=seed)
            eigs = np.linalg.eigvalsh(hessian(data, cov, params))
            assert eigs.min() >= -1e-10

    def test_matches_finite_differences_of_gradient(self):
        data, cov, params = sample_small_instance(seed=5, n=4, d=2)
        h = hessian(data, cov, params)
        fd = central_difference_hessian(data, cov, params)
        np.testing.assert_allclose(fd, h, atol=1e-4)

    def test_zero_edges_give_zero_matrix(self):
        data = ComparisonData.from_edges(3, [])
        h = hessian(data, btl_cov(3), ParamVector(np.zeros(3), np.zeros(0)))
        np.testing.assert_array_equal(h, np.zeros((3, 3)))


class TestProjection:
    def test_covariate_factors_built_once(self):
        _, cov, _ = sample_small_instance(seed=24, n=6, d=2)
        proj, split = build_projection(cov), cov._score_split
        assert build_projection(cov) is proj and cov._score_split is split
        assert not (proj._span_q.flags.writeable or split.flags.writeable)

    def test_btl_block_is_centering(self):
        cov = btl_cov(5)
        proj = build_projection(cov)
        expected = np.eye(5) - np.ones((5, 5)) / 5.0
        np.testing.assert_allclose(proj.apply(np.eye(5)), expected, atol=1e-12)

    def test_idempotent_symmetric_annihilating(self):
        rng = np.random.default_rng(14)
        cov = preprocess_covariates(rng.normal(size=(6, 2)))
        # P symmetric: projecting the rows of the identity gives P itself
        p = build_projection(cov).apply(np.eye(8))
        assert np.linalg.norm(p @ p - p) <= 1e-10
        assert np.linalg.norm(p - p.T) <= 1e-10
        assert np.linalg.norm(p @ constraint_matrix(cov)) <= 1e-10

    def test_rank_is_n_minus_one(self):
        rng = np.random.default_rng(15)
        cov = preprocess_covariates(rng.normal(size=(7, 3)))
        proj = build_projection(cov)
        assert round(np.trace(proj.apply(np.eye(10)))) == 6

    def test_annihilates_padded_span(self):
        rng = np.random.default_rng(16)
        cov = preprocess_covariates(rng.normal(size=(5, 2)))
        proj = build_projection(cov)
        c = rng.normal(size=3)
        np.testing.assert_allclose(proj.apply(constraint_matrix(cov) @ c), 0.0, atol=1e-10)

    def test_matches_nullspace_oracle(self):
        rng = np.random.default_rng(17)
        cov = preprocess_covariates(rng.normal(size=(5, 2)))
        proj = build_projection(cov)
        ref = projector_by_nullspace(constraint_matrix(cov))
        assert np.linalg.norm(proj.apply(np.eye(7)) - ref) <= 1e-10

    def test_apply_agrees_with_matrix(self):
        rng = np.random.default_rng(18)
        cov = preprocess_covariates(rng.normal(size=(6, 2)))
        proj = build_projection(cov)
        v = rng.normal(size=8)
        ref = projector_by_nullspace(constraint_matrix(cov))
        np.testing.assert_allclose(proj.apply(v), ref @ v, atol=1e-12)

    def test_projected_vector_satisfies_constraint(self):
        rng = np.random.default_rng(19)
        cov = preprocess_covariates(rng.normal(size=(6, 2)))
        proj = build_projection(cov)
        out = proj.apply(rng.normal(size=8))
        assert np.abs(constraint_matrix(cov).T @ out).max() <= 1e-8

    def test_rank_deficient_design_rejected(self):
        # Second column proportional to the first makes the augmented
        # design rank deficient.
        base = np.array([[1.0], [2.0], [-1.0], [0.5], [1.5]])
        raw = np.hstack([base, 2.0 * base])
        cov = preprocess_covariates(raw, standardize=False)
        with pytest.raises(DegenerateDesignError) as exc_info:
            build_projection(cov)
        assert exc_info.value.rank == 2


class TestConnectivity:
    def test_error_names_components_within_preview_limits(self):
        # the message shows the count, the first 6 components and the
        # first 8 items of each; the components themselves stay whole
        comps = [list(range(10 * c, 10 * c + 10)) for c in range(7)]
        err = ConnectivityError("comparison graph", comps)
        ids = [f"i{k}" for k in range(70)]
        named = err.named(ids)
        assert named.components == err.components == comps
        assert str(err) == "comparison graph has 7 components: " + ", ".join(
            str(list(range(10 * c, 10 * c + 8))) for c in range(6)
        )
        assert str(named) == "comparison graph has 7 components: " + ", ".join(
            str([f"i{k}" for k in range(10 * c, 10 * c + 8)]) for c in range(6)
        )
        assert str(pickle.loads(pickle.dumps(named))) == str(named)

    def test_path_is_connected(self):
        data = ComparisonData.from_edges(3, [(0, 1, 1, 0), (1, 2, 1, 0)])
        assert is_connected(data)

    def test_one_propagation_per_dataset(self, monkeypatch):
        real, undirected = model._smallest_reaching, []

        def counting(half, keep=None):
            undirected.append(keep is None)
            return real(half, keep)

        monkeypatch.setattr(model, "_smallest_reaching", counting)
        data = ComparisonData.from_edges(3, [(0, 1, 1, 0), (1, 2, 1, 0)])
        assert is_connected(data) and connected_components(data) == [[0, 1, 2]]
        assert is_connected(data) and undirected == [True]
        # item 0 beat 1 and 1 beat 2: the win graph's two propagations,
        # run once however often the group is read
        assert data._closed_group == data._closed_group == ([0], True)
        assert undirected == [True, False, False]

    @pytest.mark.parametrize("edges, closed", [
        # item 2 won all its trials; item 3 lost all its trials
        ([(0, 1, 6, 2), (0, 2, 6, 6), (1, 2, 6, 6)], ([2], True)),
        ([(0, 1, 4, 2), (1, 2, 4, 2), (0, 2, 4, 2), (0, 3, 4, 0), (1, 3, 4, 0), (2, 3, 4, 0)],
         ([3], False)),
        # item 0 won all: the losers {1, 2} are named by the smaller side
        ([(0, 1, 3, 0), (0, 2, 3, 0), (1, 2, 4, 2)], ([0], True)),
        # separated by a covariate: the larger index wins every trial
        ([(i, j, 5, 5) for i in range(5) for j in range(i + 1, 5)], ([0], False)),
        ([(0, 1, 6, 2), (1, 2, 6, 3), (0, 2, 6, 1)], None),
    ])
    def test_closed_group_names_the_smaller_side(self, edges, closed):
        data = ComparisonData.from_edges(1 + max(j for _, j, _, _ in edges), edges)
        assert data._closed_group == closed
        assert_names_a_closed_group(data)

    def test_isolated_item_disconnects(self):
        data = ComparisonData.from_edges(3, [(0, 1, 1, 0)])
        assert not is_connected(data)
        assert connected_components(data) == [[0, 1], [2]]

    def test_erdos_renyi_above_threshold_mostly_connected(self):
        from care_rank.simulation import SyntheticSpec, generate_truth, sample_comparisons

        n = 50
        p = 3.0 * math.log(n) / n
        cov, truth = generate_truth(SyntheticSpec(n=n, d=0, seed=123))
        connected = sum(
            is_connected(sample_comparisons(cov, truth, p, 1, seed))
            for seed in range(100)
        )
        assert connected >= 99

    def test_long_path_matches_bfs(self):
        # a 2000-item path, in item order and in a shuffled order, is the
        # worst case for label propagation: one label must travel its length
        n = 2000
        for order in (np.arange(n), np.random.default_rng(0).permutation(n)):
            a, b = order[:-1], order[1:]
            data = ComparisonData(n, np.minimum(a, b), np.maximum(a, b),
                                  np.ones(n - 1), np.zeros(n - 1))
            assert connected_components(data) == components_by_bfs(data) == [list(range(n))]
            assert is_connected(data)
            cut = ComparisonData(n, data.item_i[1:], data.item_j[1:],
                                 data.trials[1:], data.wins_j[1:])
            assert connected_components(cut) == components_by_bfs(cut)
            assert len(connected_components(cut)) == 2

    def test_random_graphs_match_bfs(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            n = int(rng.integers(2, 40))
            p = float(rng.uniform(0.0, 0.3))
            trials = int(rng.integers(1, 4))
            edges = [(i, j, trials, int(rng.integers(0, trials + 1)))
                     for i in range(n) for j in range(i + 1, n) if rng.random() < p]
            data = ComparisonData.from_edges(n, edges)
            assert connected_components(data) == components_by_bfs(data)
            assert is_connected(data) == (len(components_by_bfs(data)) == 1)
            assert_names_a_closed_group(data)
