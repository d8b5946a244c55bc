"""Preprocessing and the constrained MLE by Newton on the total scores."""

import math
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from care_rank.errors import (
    ConnectivityError,
    DegenerateColumnError,
    DimensionError,
    InvalidArgumentError,
)
from care_rank import estimation, model
from care_rank.estimation import (
    FitConfig,
    fit_mle,
    preprocess_covariates,
)
from care_rank.io import parse_comparisons_csv
from care_rank.model import (
    ComparisonData,
    ParamVector,
    build_projection,
    is_connected,
)
from care_rank.simulation import (
    SyntheticSpec,
    distribution_sampling_probability,
    generate_truth,
    rate_experiment_pairs,
    sample_comparisons,
)

from oracles import (
    fit_by_dense_newton,
    grid_search_mle,
    neg_log_likelihood,
    sample_small_instance,
)


@st.composite
def comparison_instances(draw, max_items=7):
    """A connected comparison graph (a random spanning tree plus drawn
    extra pairs) with drawn trial and win counts, and a full-rank raw
    covariate matrix of up to two columns."""
    n = draw(st.integers(3, max_items))
    pairs = {(draw(st.integers(0, j - 1)), j) for j in range(1, n)}
    every = [(i, j) for i in range(n) for j in range(i + 1, n)]
    pairs = sorted(pairs | set(draw(st.lists(st.sampled_from(every), unique=True))))
    edges = []
    for i, j in pairs:
        trials = draw(st.integers(2, 12))
        # mostly split counts, so that most draws have an MLE
        wins = draw(st.one_of(st.integers(1, trials - 1), st.sampled_from([0, trials])))
        edges.append((i, j, trials, wins))
    d = draw(st.integers(0, min(2, n - 2)))
    raw = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=(n, d))
    return ComparisonData.from_edges(n, edges), raw


class TestPreprocess:
    def test_btl_fallback(self):
        cov = preprocess_covariates(np.zeros((4, 0)))
        assert cov.scale_k == 1.0
        np.testing.assert_array_equal(cov.augmented, np.ones((4, 1)))

    def test_two_level_column(self):
        cov = preprocess_covariates(np.array([[1.0], [-1.0], [1.0], [-1.0]]))
        # already mean 0, sd 1; K maps max row norm 1 to sqrt(2/4)
        assert cov.scale_k == pytest.approx(math.sqrt(2.0), abs=1e-12)
        np.testing.assert_allclose(cov.column_means, [0.0])
        np.testing.assert_allclose(cov.column_sds, [1.0])
        np.testing.assert_allclose(
            np.abs(cov.scaled[:, 0]), math.sqrt(0.5), atol=1e-12
        )

    def test_max_row_norm_hits_target(self):
        rng = np.random.default_rng(0)
        cov = preprocess_covariates(rng.normal(size=(200, 5)))
        max_norm = np.sqrt((cov.scaled**2).sum(axis=1)).max()
        assert max_norm == pytest.approx(math.sqrt(6.0 / 200.0), abs=1e-12)

    def test_columns_standardized(self):
        rng = np.random.default_rng(1)
        cov = preprocess_covariates(rng.uniform(-3, 9, size=(60, 3)))
        centered = cov.scaled * cov.scale_k
        np.testing.assert_allclose(centered.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(centered.std(axis=0), 1.0, atol=1e-12)

    def test_standardize_off_records_identity(self):
        raw = np.array([[2.0, 1.0], [4.0, 1.5], [0.0, 0.5], [1.0, 2.5]])
        cov = preprocess_covariates(raw, standardize=False)
        np.testing.assert_array_equal(cov.column_means, [0.0, 0.0])
        np.testing.assert_array_equal(cov.column_sds, [1.0, 1.0])
        np.testing.assert_allclose(cov.scaled * cov.scale_k, raw, atol=1e-12)

    def test_constant_column_rejected(self):
        raw = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0], [1.5, 5.0]])
        with pytest.raises(DegenerateColumnError):
            preprocess_covariates(raw)

    def test_too_many_covariates_rejected(self):
        with pytest.raises(DimensionError):
            preprocess_covariates(np.random.default_rng(2).normal(size=(4, 3)))

    def test_too_few_items_rejected(self):
        with pytest.raises(InvalidArgumentError):
            preprocess_covariates(np.zeros((1, 0)))

    def test_one_dimensional_array_rejected(self):
        with pytest.raises(InvalidArgumentError, match="2-d array, got ndim=1"):
            preprocess_covariates(np.arange(5.0))

    def test_nan_rejected(self):
        raw = np.random.default_rng(4).normal(size=(6, 2))
        raw[3, 1] = np.nan
        with pytest.raises(InvalidArgumentError, match="covariates contain non-finite values"):
            preprocess_covariates(raw)

    def test_augmented_intercept_column(self):
        rng = np.random.default_rng(3)
        cov = preprocess_covariates(rng.normal(size=(9, 2)))
        np.testing.assert_array_equal(cov.augmented[:, 0], np.ones(9))
        np.testing.assert_allclose(cov.augmented[:, 1:], cov.scaled)


class TestProjectToTheta:
    """``build_projection(cov).apply`` on stacked parameters: the
    projection onto theta, the identifiable subspace."""

    def test_fixed_point(self):
        rng = np.random.default_rng(4)
        cov = preprocess_covariates(rng.normal(size=(5, 2)))
        proj = build_projection(cov)
        inside = proj.apply(ParamVector(rng.normal(size=5), rng.normal(size=2)).stacked)
        again = proj.apply(inside)
        np.testing.assert_allclose(again, inside, atol=1e-12)

    def test_btl_centering(self):
        cov = preprocess_covariates(np.zeros((3, 0)))
        proj = build_projection(cov)
        out = proj.apply(ParamVector(np.ones(3), np.zeros(0)).stacked)
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_constraint_satisfied(self):
        rng = np.random.default_rng(5)
        cov = preprocess_covariates(rng.normal(size=(5, 2)))
        proj = build_projection(cov)
        out = proj.apply(ParamVector(rng.normal(size=5), rng.normal(size=2)).stacked)
        assert np.abs(cov.augmented.T @ out[:5]).max() <= 1e-10

    def test_dimension_mismatch(self):
        cov = preprocess_covariates(np.zeros((3, 0)))
        proj = build_projection(cov)
        with pytest.raises(InvalidArgumentError):
            proj.apply(ParamVector(np.zeros(4), np.zeros(0)).stacked)


class TestFitConfig:
    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            FitConfig(grad_tol=0.0)
        for value in (np.inf, np.nan):
            with pytest.raises(InvalidArgumentError):
                FitConfig(grad_tol=value)
        with pytest.raises(InvalidArgumentError):
            FitConfig(max_iters=0)
        with pytest.raises(TypeError):  # the fit is the MLE, with no penalty
            FitConfig(ridge_alpha=0.1)

    @pytest.mark.parametrize("value", [float("nan"), 2.5, 3.0, "3", None])
    def test_max_iters_must_be_an_integer(self, value):
        # a NaN cap never binds, since iterations >= nan is always false
        with pytest.raises(InvalidArgumentError, match="max_iters must be an integer"):
            FitConfig(max_iters=value)

    def test_numpy_integer_max_iters_accepted(self):
        assert FitConfig(max_iters=np.int64(3)).max_iters == 3


class TestFitMLE:
    def test_symmetric_pair_gives_equal_scores(self):
        data = ComparisonData.from_edges(2, [(0, 1, 2, 1)])
        cov = preprocess_covariates(np.zeros((2, 0)))
        fit = fit_mle(data, cov)
        np.testing.assert_allclose(fit.params.alpha, 0.0, atol=1e-8)
        assert fit.converged

    def test_matches_grid_search_oracle(self):
        data, cov, _ = sample_small_instance(seed=31, n=3, d=1)
        fit = fit_mle(data, cov)
        oracle = grid_search_mle(data, cov)
        assert np.abs(fit.params.stacked - oracle).max() <= 2e-3

    def test_disconnected_rejected_with_components(self):
        data = ComparisonData.from_edges(4, [(0, 1, 2, 1), (2, 3, 2, 1)])
        cov = preprocess_covariates(np.zeros((4, 0)))
        with pytest.raises(ConnectivityError) as exc_info:
            fit_mle(data, cov)
        assert exc_info.value.components == [[0, 1], [2, 3]]

    def test_last_item_without_edges_rejected(self):
        # item 3 starts no half-edge, so the layout has no segment for it
        data = ComparisonData.from_edges(4, [(0, 1, 2, 1), (1, 2, 2, 1), (0, 2, 2, 1)])
        cov = preprocess_covariates(np.zeros((4, 0)))
        with pytest.raises(ConnectivityError) as exc_info:
            fit_mle(data, cov)
        assert exc_info.value.components == [[0, 1, 2], [3]]

    def test_no_edges_rejected(self):
        data = ComparisonData.from_edges(3, [])
        cov = preprocess_covariates(np.zeros((3, 0)))
        with pytest.raises(InvalidArgumentError):
            fit_mle(data, cov)

    def test_covariates_for_another_item_count_rejected(self):
        data = ComparisonData.from_edges(3, [(0, 1, 2, 1), (1, 2, 2, 1)])
        cov = preprocess_covariates(np.zeros((4, 0)))
        with pytest.raises(InvalidArgumentError, match="item counts disagree: data=3, covariates=4"):
            fit_mle(data, cov)

    def test_non_convergence_is_not_an_exception(self):
        data, cov, _ = sample_small_instance(seed=32)
        fit = fit_mle(data, cov, FitConfig(max_iters=1))
        assert not fit.converged
        assert fit.stop_reason == "max_iters"

    def test_converged_means_small_projected_gradient(self):
        data, cov, _ = sample_small_instance(seed=33)
        config = FitConfig(grad_tol=1e-9)
        fit = fit_mle(data, cov, config)
        assert fit.converged
        assert fit.diagnostics.final_grad_norm <= config.grad_tol

    def test_objective_trace_nonincreasing(self):
        data, cov, _ = sample_small_instance(seed=34)
        fit = fit_mle(data, cov)
        trace = np.array(fit.objective_trace)
        assert np.all(np.diff(trace) <= 1e-12)

    def test_result_in_identifiable_subspace(self):
        data, cov, _ = sample_small_instance(seed=35)
        fit = fit_mle(data, cov)
        assert np.abs(cov.augmented.T @ fit.params.alpha).max() <= 1e-8

    def test_local_optimality(self):
        data, cov, _ = sample_small_instance(seed=36)
        fit = fit_mle(data, cov)
        proj = build_projection(cov)
        best = neg_log_likelihood(data, cov, fit.params)
        rng = np.random.default_rng(100)
        n = data.n_items
        for _ in range(20):
            delta = proj.apply(rng.normal(size=n + cov.n_features))
            delta *= 1e-3 / np.linalg.norm(delta)
            perturbed = ParamVector.from_stacked(fit.params.stacked + delta, n)
            assert neg_log_likelihood(data, cov, perturbed) >= best - 1e-8

    def test_edge_order_invariance(self):
        data, cov, _ = sample_small_instance(seed=37)
        fit_a = fit_mle(data, cov)
        order = np.random.default_rng(0).permutation(data.n_edges)
        # re-sort into a valid (i < j, canonical) object with permuted
        # construction order; arrays must still be i<j so shuffle rows
        shuffled = ComparisonData(
            data.n_items,
            data.item_i[order],
            data.item_j[order],
            data.trials[order],
            data.wins_j[order],
        )
        fit_b = fit_mle(shuffled, cov)
        assert np.abs(fit_a.params.stacked - fit_b.params.stacked).max() <= 1e-6

    @given(st.data())
    def test_relabelling_invariance(self, drawn):
        # item k becomes item perm[k], with its covariate row; an edge
        # whose ends swap order counts the wins of its other end
        data, raw = drawn.draw(comparison_instances())
        n = data.n_items
        perm = np.array(drawn.draw(st.permutations(range(n))))
        i, j = perm[data.item_i], perm[data.item_j]
        flip = i > j
        relabelled = ComparisonData(
            n, np.minimum(i, j), np.maximum(i, j), data.trials,
            np.where(flip, data.trials - data.wins_j, data.wins_j),
        )
        moved = np.empty_like(raw)
        moved[perm] = raw
        fit_a = fit_mle(data, preprocess_covariates(raw))
        fit_b = fit_mle(relabelled, preprocess_covariates(moved))
        assert fit_a.stop_reason == fit_b.stop_reason
        if fit_a.converged:
            np.testing.assert_allclose(fit_b.params.alpha[perm], fit_a.params.alpha, rtol=0, atol=1e-6)
            np.testing.assert_allclose(fit_b.params.beta, fit_a.params.beta, rtol=0, atol=1e-6)

    @given(st.data())
    def test_orientation_invariance(self, drawn):
        # an edge listed as (j, i) with wins_j -> trials - wins_j, in the
        # comparisons file, the one input that takes either orientation
        data, raw = drawn.draw(comparison_instances())
        flips = drawn.draw(st.lists(st.booleans(), min_size=data.n_edges, max_size=data.n_edges))
        ids = [f"item{k}" for k in range(data.n_items)]
        fits = []
        with tempfile.TemporaryDirectory() as tmp:
            for flipped in ([False] * data.n_edges, flips):
                rows = [
                    f"{ids[j]},{ids[i]},{t},{t - w}" if swap else f"{ids[i]},{ids[j]},{t},{w}"
                    for (i, j, t, w), swap in zip(data.edges, flipped)
                ]
                path = os.path.join(tmp, "comparisons.csv")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write("item_i,item_j,trials,wins_j\n" + "\n".join(rows) + "\n")
                fits.append(fit_mle(parse_comparisons_csv(path).data, preprocess_covariates(raw)))
        assert fits[0].stop_reason == fits[1].stop_reason
        np.testing.assert_array_equal(fits[0].params.stacked, fits[1].params.stacked)

    def test_deterministic(self):
        data, cov, _ = sample_small_instance(seed=38)
        fit_a = fit_mle(data, cov)
        fit_b = fit_mle(data, cov)
        np.testing.assert_array_equal(fit_a.params.stacked, fit_b.params.stacked)
        assert fit_a.objective_trace == fit_b.objective_trace

    def test_kappa1_at_least_one(self):
        data, cov, _ = sample_small_instance(seed=41)
        fit = fit_mle(data, cov)
        assert fit.diagnostics.kappa1 >= 1.0

    def test_incoherence_btl_value(self):
        # without covariates the design projector is 11'/n, whose rows
        # all have norm 1/sqrt(n)
        data = ComparisonData.from_edges(4, [(0, 1, 2, 1), (1, 2, 2, 1), (2, 3, 2, 1)])
        cov = preprocess_covariates(np.zeros((4, 0)))
        fit = fit_mle(data, cov)
        assert fit.diagnostics.incoherence == pytest.approx(0.5, abs=1e-12)

    def test_newton_converges_in_few_steps(self):
        designs = [(200, p, L) for p, L in rate_experiment_pairs()] + [(2000, 0.05, 10)]
        config = FitConfig()
        for n, p, L in designs:
            cov, truth = generate_truth(SyntheticSpec(n=n, d=5, seed=20250801))
            data = sample_comparisons(cov, truth, p, L, 1)
            fit = fit_mle(data, cov, config)
            assert fit.converged, (n, p, L)
            assert fit.diagnostics.iterations <= 10, (n, p, L)
            assert fit.diagnostics.final_grad_norm <= config.grad_tol

    def test_no_mle_stops_at_once(self):
        # item 2 beats items 0 and 1 in every trial: its score has no
        # finite maximizer, though the graph is connected.  Under
        # covariate separation (the item with the larger covariate wins
        # all 5 trials of every pair) beta has none either.
        separated = [(i, j, 5, 5) for i in range(5) for j in range(i + 1, 5)]
        for data, raw, closed in (
            (ComparisonData.from_edges(3, [(0, 1, 6, 2), (0, 2, 6, 6), (1, 2, 6, 6)]),
             np.zeros((3, 0)), ([2], True)),
            (ComparisonData.from_edges(5, separated), np.arange(5.0)[:, None], ([0], False)),
        ):
            fit = fit_mle(data, preprocess_covariates(raw))
            assert not fit.converged
            assert fit.stop_reason == "no_mle"
            assert fit.diagnostics.iterations == fit.diagnostics.cg_iterations == 0
            assert fit.objective_trace == [fit.objective_trace[0]]
            assert data._closed_group == closed

    def test_sparse_single_trial_draw_has_no_mle(self):
        # one trial per pair at mean degree 6: some items lose every
        # comparison, so the likelihood has no finite optimum
        n = 500
        cov, truth = generate_truth(SyntheticSpec(n=n, d=5, seed=3))
        data = next(d for d in (sample_comparisons(cov, truth, 6 / (n - 1), 1, seed)
                                for seed in range(20)) if is_connected(d))
        fit = fit_mle(data, cov)
        assert fit.stop_reason == "no_mle" and fit.diagnostics.iterations == 0

    def test_fit_needs_no_eigendecomposition(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigendecomposition in the fit")

        for name in ("eig", "eigh", "eigvals", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, refuse)
        data, cov, _ = sample_small_instance(seed=42)
        assert fit_mle(data, cov).converged

    def test_real_data_recipe_runs(self):
        # an item that lost every comparison leaves no MLE; fitting
        # without the group that the fit names gives the MLE of the rest
        core, cov, _ = sample_small_instance(seed=53)
        n = core.n_items
        data = ComparisonData.from_edges(n + 1, core.edges + [(k, n, 3, 0) for k in range(n)])
        wide = preprocess_covariates(np.vstack([cov.raw, np.zeros((1, cov.n_features))]))
        assert fit_mle(data, wide).stop_reason == "no_mle"
        assert data._closed_group == ([n], False)
        kept = np.setdiff1d(np.arange(n + 1), data._closed_group[0])
        refit = fit_mle(core, preprocess_covariates(wide.raw[kept]))
        assert refit.converged
        np.testing.assert_array_equal(refit.params.stacked, fit_mle(core, cov).params.stacked)

    def test_matches_dense_newton(self):
        designs = [(200, p, L) for p, L in rate_experiment_pairs()] + [(2000, 0.05, 10)]
        for n, p, L in designs:
            cov, truth = generate_truth(SyntheticSpec(n=n, d=5, seed=20250801))
            data = sample_comparisons(cov, truth, p, L, 1)
            fit = fit_mle(data, cov)
            stacked, iterations = fit_by_dense_newton(data, cov)
            assert fit.converged, (n, p, L)
            assert fit.diagnostics.iterations == iterations, (n, p, L)
            assert np.abs(fit.params.stacked - stacked).max() <= 1e-10, (n, p, L)
            assert fit.diagnostics.halvings == 0
            assert fit.diagnostics.cg_iterations >= iterations

    def test_forcing_term_saves_cg_iterations(self, monkeypatch):
        # the inexact steps take the same Newton path in fewer inner
        # iterations than steps all solved to _CG_RTOL
        n, d = 200, 5
        cov, truth = generate_truth(SyntheticSpec(n=n, d=d, seed=20250801))
        data = sample_comparisons(cov, truth, distribution_sampling_probability(n, d), 20, 1)
        forced = fit_mle(data, cov)
        monkeypatch.setattr(estimation, "_ShiftedLaplacian",
                            lambda half, w, rtol: model._ShiftedLaplacian(half, w))
        exact = fit_mle(data, cov)
        assert forced.converged and exact.converged
        assert forced.diagnostics.iterations == exact.diagnostics.iterations
        assert forced.diagnostics.cg_iterations < exact.diagnostics.cg_iterations
        assert np.abs(forced.params.stacked - exact.params.stacked).max() <= 1e-10

    def test_fit_builds_no_dense_matrix(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense n x n solve in the fit")

        monkeypatch.setattr(np.linalg, "solve", refuse)
        monkeypatch.setattr(np.linalg, "inv", refuse)
        monkeypatch.setattr(model, "_weighted_laplacian", refuse)
        data, cov, _ = sample_small_instance(seed=42)
        assert fit_mle(data, cov).converged

    def test_fit_memory_is_linear_in_edges(self):
        n = 1500
        cov, truth = generate_truth(SyntheticSpec(n=n, d=5, seed=7))
        data = sample_comparisons(cov, truth, 0.02, 5, 1)
        tracemalloc.start()
        try:
            fit = fit_mle(data, cov)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fit.converged
        # one n x n float array alone would take 18 MB
        assert peak < n * n * 8 / 4

    def test_stall_stops_without_convergence(self, stalled_newton):
        data, cov, _ = sample_small_instance(seed=43)
        fit = fit_mle(data, cov)
        assert fit.stop_reason == "stalled" and not fit.converged
        assert fit.diagnostics.iterations == 1
        assert fit.diagnostics.halvings == estimation._MAX_HALVINGS
        assert len(fit.objective_trace) == 2
        assert all(b <= a for a, b in zip(fit.objective_trace, fit.objective_trace[1:]))

    def test_halvings_counted(self, monkeypatch):
        # a first direction 64 times too long is halved five or six times
        # (twice the Newton step may already descend); later steps are
        # plain Newton steps
        solve, calls = model._ShiftedLaplacian.solve, []

        def overshoot_once(system, b):
            x, k = solve(system, b)
            calls.append(k)
            return (64.0 * x if len(calls) == 1 else x), k

        monkeypatch.setattr(model._ShiftedLaplacian, "solve", overshoot_once)
        data, cov, _ = sample_small_instance(seed=43)
        fit = fit_mle(data, cov)
        assert fit.converged
        assert fit.diagnostics.halvings in (5, 6)
        assert fit.diagnostics.cg_iterations == sum(calls)
        monkeypatch.undo()
        plain = fit_mle(data, cov)
        assert plain.diagnostics.halvings == 0
        assert np.abs(fit.params.stacked - plain.params.stacked).max() <= 1e-6

class TestPipeline:
    def test_balanced_cycle_gives_zero_scores(self):
        edges = [(0, 1, 2, 1), (1, 2, 2, 1), (0, 2, 2, 1)]
        fit = fit_mle(ComparisonData.from_edges(3, edges), preprocess_covariates(np.zeros((3, 0))))
        np.testing.assert_allclose(fit.params.alpha, 0.0, atol=1e-8)

    def test_bit_identical_reruns(self):
        rng = np.random.default_rng(61)
        raw = rng.normal(size=(4, 1))
        edges = [(0, 1, 4, 2), (1, 2, 4, 1), (2, 3, 4, 3), (0, 3, 4, 2)]
        fit_a, fit_b = (
            fit_mle(ComparisonData.from_edges(4, edges), preprocess_covariates(raw))
            for _ in range(2)
        )
        np.testing.assert_array_equal(fit_a.params.stacked, fit_b.params.stacked)
        assert fit_a.objective_trace == fit_b.objective_trace
