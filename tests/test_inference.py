"""Variance models, tests/intervals, quadratic surrogate, ranking scores."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import null_space

from care_rank import inference, model, simulation
from care_rank.cli import EXIT_CONFIG, main
from care_rank.errors import ConnectivityError, DegenerateContrastError, InvalidArgumentError
from care_rank.estimation import FitConfig, fit_mle, preprocess_covariates
from care_rank.inference import (
    DEFAULT_EIGEN_CUTOFF,
    care_ranking_scores,
    contrast_inference,
    full_inference_report,
    plugin_variance_model,
    projected_hessian_pinv,
    quadratic_approx_minimizer,
    soft_threshold,
    standardized_stats,
)
from care_rank.model import (
    ComparisonData,
    ParamVector,
    build_projection,
    gradient,
    hessian,
)
from care_rank.normal import two_sided_p_value
from care_rank.simulation import (
    ExperimentPlan,
    SyntheticSpec,
    distribution_sampling_probability,
    generate_truth,
    sample_comparisons,
)

from oracles import (
    components_by_bfs,
    constraint_matrix,
    covariance_from_root,
    dense_from_tree,
    null_dimension,
    oracle_variance_model,
    projected_hessian_by_nullspace,
    quadratic_minimizer_by_dense_pinv,
    sample_small_instance,
    satisfies_penrose,
    theta_basis_by_nullspace,
)


def fitted_instance(seed=70, **config_kwargs):
    data, cov, truth = sample_small_instance(seed=seed, n=5, d=2, trials=30)
    fit = fit_mle(data, cov, FitConfig(**config_kwargs) if config_kwargs else None)
    return data, cov, truth, fit


class TestProjectedHessianPinv:
    def test_triangle_equal_scores(self):
        # complete graph on 3 items, one trial per pair, all scores equal:
        # the restricted Hessian spectrum is {3/4, 3/4}, so the
        # pseudoinverse spectrum on the subspace is {4/3, 4/3}.
        data = ComparisonData.from_edges(3, [(0, 1, 1, 0), (0, 2, 1, 1), (1, 2, 1, 0)])
        cov = preprocess_covariates(np.zeros((3, 0)))
        proj = build_projection(cov)
        h = hessian(data, cov, ParamVector(np.zeros(3), np.zeros(0)))
        vm = projected_hessian_pinv(h, proj)
        eigs = np.sort(np.linalg.eigvalsh(covariance_from_root(vm)))
        np.testing.assert_allclose(eigs, [0.0, 4.0 / 3.0, 4.0 / 3.0], atol=1e-10)
        assert not vm.rank_warning

    def test_involution_on_retained_spectrum(self):
        data, cov, _, fit = fitted_instance(seed=71)
        vm = plugin_variance_model(fit)
        back = projected_hessian_pinv(covariance_from_root(vm), build_projection(cov))
        m = projected_hessian_by_nullspace(hessian(data, cov, fit.params), cov)
        np.testing.assert_allclose(
            covariance_from_root(back), m, atol=1e-8 * np.linalg.norm(m),
        )

    def test_penrose_conditions(self):
        rng = np.random.default_rng(72)
        cov = preprocess_covariates(rng.normal(size=(6, 2)))
        proj = build_projection(cov)
        a = rng.normal(size=(8, 8))
        spd = a @ a.T
        vm = projected_hessian_pinv(spd, proj)
        m = projected_hessian_by_nullspace(spd, cov)
        assert satisfies_penrose(m, covariance_from_root(vm))

    def test_expected_null_dimension(self):
        # the factor root's G^T G is [P H P]^+ with P from the null-space
        # oracle, and both have exactly the d + 1 = 3 null directions
        data, cov, _, fit = fitted_instance(seed=73)
        vm = plugin_variance_model(fit)
        m = projected_hessian_by_nullspace(hessian(data, cov, fit.params), cov)
        plus = covariance_from_root(vm)
        assert satisfies_penrose(m, plus)
        assert null_dimension(m) == null_dimension(plus) == 3
        assert not vm.rank_warning

    def test_rank_warning_on_disconnected(self):
        data = ComparisonData.from_edges(4, [(0, 1, 3, 1), (2, 3, 3, 2)])
        cov = preprocess_covariates(np.zeros((4, 0)))
        proj = build_projection(cov)
        h = hessian(data, cov, ParamVector(np.zeros(4), np.zeros(0)))
        vm = projected_hessian_pinv(h, proj)
        assert null_dimension(projected_hessian_by_nullspace(h, cov)) == 2
        assert vm.rank_warning

    def test_wrong_shape_refused(self):
        proj = build_projection(preprocess_covariates(np.zeros((3, 0))))
        with pytest.raises(InvalidArgumentError, match=r"hessian shape \(4, 4\)"):
            projected_hessian_pinv(np.eye(4), proj)


def unequal_trials_instance(seed, n=12, d=2, standardize=True):
    """A random connected graph (a path plus about half the other pairs)
    with unequal trial counts and interior win counts."""
    rng = np.random.default_rng(seed)
    cov = preprocess_covariates(rng.uniform(0.5, 2.0, size=(n, d)), standardize=standardize)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if j == i + 1 or rng.random() < 0.5:
                trials = int(rng.integers(2, 12))
                edges.append((i, j, trials, int(rng.integers(1, trials))))
    return ComparisonData.from_edges(n, edges), cov


def variance_model_at(fit, offset):
    """The MLE with its plug-in variance model or, for ``offset`` > 0,
    a projected random point about that far from the MLE with the
    variance model there."""
    if not offset:
        return fit.params, plugin_variance_model(fit)
    n, stacked = fit.params.n_items, fit.params.stacked
    step = np.random.default_rng(n).normal(scale=offset, size=stacked.size)
    point = ParamVector.from_stacked(build_projection(fit.covariates).apply(stacked + step), n)
    return point, oracle_variance_model(fit.data, fit.covariates, point)


class TestLaplacianVarianceModel:
    @pytest.mark.parametrize(
        "d, standardize, offset", [(0, True, 0.0), (2, False, 0.0), (2, True, 0.5)]
    )
    def test_matches_dense_route(self, d, standardize, offset):
        data, cov = unequal_trials_instance(seed=100 + d, d=d, standardize=standardize)
        fit = fit_mle(data, cov)
        params, vm = variance_model_at(fit, offset)
        hess = hessian(data, cov, params)
        ref = projected_hessian_pinv(hess, build_projection(cov))
        got, want = covariance_from_root(vm), covariance_from_root(ref)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        m = projected_hessian_by_nullspace(hess, cov)
        assert satisfies_penrose(m, got)
        assert null_dimension(m) == null_dimension(got) == d + 1
        assert not vm.rank_warning and not ref.rank_warning

    @pytest.mark.parametrize(
        "design", ["d0", "d2-unstandardized", "d2-off-mle", "study-n300"]
    )
    def test_readers_match_dense_route(self, design):
        if design == "study-n300":
            cov, truth = generate_truth(SyntheticSpec(n=300, d=5, seed=108))
            data = sample_comparisons(
                cov, truth, distribution_sampling_probability(300, 5), 20, 108
            )
            offset = 0.0
        else:
            d, standardize, offset = {
                "d0": (0, True, 0.0),
                "d2-unstandardized": (2, False, 0.0),
                "d2-off-mle": (2, True, 0.5),
            }[design]
            data, cov = unequal_trials_instance(seed=100 + d, d=d, standardize=standardize)
        fit = fit_mle(data, cov)
        params, vm = variance_model_at(fit, offset)
        ref = projected_hessian_pinv(hessian(data, cov, params), build_projection(cov))
        n = data.n_items
        dense = covariance_from_root(ref)
        np.testing.assert_allclose(vm.diagonal, np.diagonal(dense), rtol=1e-12, atol=0)
        rng = np.random.default_rng(len(design))
        for _ in range(5):
            cbar = build_projection(cov).apply(rng.normal(size=n + cov.n_features))
            assert vm.variance_of(cbar) == pytest.approx(ref.variance_of(cbar), rel=1e-12)
        beta_block, want = covariance_from_root(vm)[n:, n:], dense[n:, n:]
        if want.size:
            assert np.abs(beta_block - want).max() <= 1e-12 * np.abs(want).max()

    def test_inference_and_study_touch_no_dense_matrix(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense (n+d) x (n+d) work")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(model, "hessian", refuse)
        data, cov = unequal_trials_instance(seed=109)
        fit = fit_mle(data, cov)
        vm = plugin_variance_model(fit)
        report = full_inference_report(fit, vm)
        assert report.estimate.size == 14
        care_ranking_scores(fit, vm)
        c = np.zeros(14)
        c[0], c[12] = 1.0, 1.0
        assert contrast_inference(c, fit, vm).std_error > 0
        # a study runs its replications in worker processes, spawned from
        # this process, which these patches do not reach; run one
        # replication here, on the context the study builds and sends to
        # its workers
        plan = ExperimentPlan(
            pl_pairs=((0.5, 6),), replications=1,
            statistics=frozenset({"qq_alpha1", "coverage"}), workers=1,
        )
        spec = SyntheticSpec(n=40, d=2, seed=109)
        context = simulation._StudyContext(spec, plan, *generate_truth(spec))
        record = simulation._distribution_replication(context, (0.5, 6, 0, 0))
        assert record["replication"] == 0 and record["var_c_plugin"] > 0

    def test_memory_stays_near_one_square(self):
        # the block tree of the lower triangle, factored and inverted in
        # place, with row-chunked temporaries: about 0.63 n^2 doubles
        # traced.  Below one n x n array, so none is ever allocated.
        n = 1500
        cov, truth = generate_truth(SyntheticSpec(n=n, d=5, seed=110))
        data = sample_comparisons(cov, truth, 40.0 / (n - 1), 10, 110)
        fit = fit_mle(data, cov)
        for call in (
            lambda: full_inference_report(fit, plugin_variance_model(fit)),
            lambda: oracle_variance_model(data, cov, truth).diagonal,
            lambda: quadratic_approx_minimizer(data, cov, truth),
        ):
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1.0 * n * n * 8
            assert peak <= 0.7 * n * n * 8
            assert peak <= inference.factor_peak_bytes(n)

    def test_invert_dense_square(self):
        rng = np.random.default_rng(113)
        for n in (1, 5, 64, 65, 300):
            m = rng.normal(size=(n, n))
            a = m @ m.T / n + np.eye(n)
            inv = a.copy()
            inference._invert_tree(inv)
            assert np.array_equal(inv, np.tril(inv))
            assert np.abs(inv @ a @ inv.T - np.eye(n)).max() <= 1e-13

    @pytest.mark.parametrize(
        "leaf, block, n",
        [(256, 64, 256), (256, 64, 257), (256, 64, 513), (4, 64, 9), (4, 64, 37), (16, 4, 37)],
        ids=["256-256", "256-257", "256-513", "4-9", "4-37", "16-37"],
    )
    def test_tree_factor_matches_dense(self, monkeypatch, leaf, block, n):
        # a leaf alone, one split with a leaf of 128 rows and one of 129,
        # two levels, with 4-row leaves a deep uneven tree, and with
        # 16-row leaves inverted 4 rows at a time, uneven views split
        # inside the tree's leaves
        monkeypatch.setattr(inference, "_LEAF_ROWS", leaf)
        monkeypatch.setattr(inference, "_INVERSE_BLOCK", block)
        data, _ = unequal_trials_instance(seed=116, n=n, d=0)
        weights = np.random.default_rng(n).uniform(0.1, 2.0, size=data.n_edges)
        tree = inference._shifted_laplacian_tree(data, weights)
        a = dense_from_tree(tree)
        lap = model._weighted_laplacian(n, data.item_i, data.item_j, weights) + 1.0 / n
        assert np.array_equal(np.tril(a), np.tril(lap))
        inference._invert_tree(tree)
        r = dense_from_tree(tree)
        assert np.array_equal(r, np.tril(r))
        assert np.abs(r @ lap @ r.T - np.eye(n)).max() <= 1e-12
        # the tree products against their dense counterparts: x R^T,
        # x R, and R X, R^T X on a column-major X through x = X^T
        x = np.random.default_rng(n + 1).normal(size=(3, n))
        for product, want in (
            (inference._times_transpose, x @ r.T),
            (inference._times, x @ r),
        ):
            for y in (x.copy(), x.T.copy().T):
                product(y, tree)
                np.testing.assert_allclose(y, want, rtol=0, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize(
        "n, d, trials",
        [(60, 2, 10**6), (60, 2, 10**8), (60, 2, None), (40, 0, None), (256, 3, None),
         (257, 3, None), (513, 3, 10**8)],
    )
    def test_diagonal_matches_dense_reference(self, n, d, trials):
        # with a million trials a pair the 1/n shift dominates A^-1_ii,
        # so a diagonal read as diag A^-1 less projection terms cancels:
        # it is off by 8e-11 there and by 1e-8 at 10^8 trials, where the
        # column route stays within 4e-15.  None draws unequal counts.
        rng = np.random.default_rng(n + d)
        cov = preprocess_covariates(rng.normal(size=(n, d)))
        truth = ParamVector(rng.normal(scale=0.5, size=n), rng.normal(size=d))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if j == i + 1 or rng.random() < 12.0 / n]
        counts = rng.integers(1, 30, size=len(pairs)) if trials is None else [trials] * len(pairs)
        data = ComparisonData.from_edges(n, [(i, j, int(t), 0) for (i, j), t in zip(pairs, counts)])
        vm = oracle_variance_model(data, cov, truth)
        ref = projected_hessian_pinv(hessian(data, cov, truth), build_projection(cov))
        np.testing.assert_allclose(vm.diagonal, ref.diagonal, rtol=1e-10, atol=0)
        cbar = build_projection(cov).apply(rng.normal(size=n + d))
        assert vm.variance_of(cbar) == pytest.approx(ref.variance_of(cbar), rel=1e-10)

    def test_invert_dense_square_refuses_indefinite(self):
        # positive definite leading blocks, an indefinite Schur complement:
        # the failure surfaces in a leaf of the lower half
        rng = np.random.default_rng(114)
        n = 200
        m = rng.normal(size=(n, n))
        a = m @ m.T / n + np.eye(n)
        a[150:, 150:] -= 50.0 * np.eye(n - 150)
        with pytest.raises(np.linalg.LinAlgError):
            inference._invert_tree(a)

    def test_oracle_matches_dense_route(self):
        data, cov = unequal_trials_instance(seed=104)
        rng = np.random.default_rng(104)
        truth = ParamVector(rng.normal(size=12), rng.normal(size=2))
        vm = oracle_variance_model(data, cov, truth)
        ref = projected_hessian_pinv(hessian(data, cov, truth), build_projection(cov))
        want = covariance_from_root(ref)
        assert np.abs(covariance_from_root(vm) - want).max() <= 1e-12 * np.abs(want).max()

    def test_report_rows_match_contrast_inference(self):
        data, cov = unequal_trials_instance(seed=105)
        fit = fit_mle(data, cov)
        vm = plugin_variance_model(fit)
        report = full_inference_report(fit, vm, level=0.9)
        columns = ("estimate", "std_error", "z_stat", "p_value", "ci_low", "ci_high")
        for k in range(12 + 2):
            c = np.zeros(12 + 2)
            c[k] = 1.0
            ref = contrast_inference(c, fit, vm, level=0.9)
            np.testing.assert_allclose(
                [getattr(report, name)[k] for name in columns],
                [getattr(ref, name) for name in columns],
                rtol=1e-10, atol=1e-14,
            )
        assert report.level == 0.9

    @pytest.mark.parametrize("n, d", [(60, 5), (60, 0), (200, 5), (200, 0)])
    def test_solve_matches_factor_route(self, n, d):
        # the distribution study's contrast, alpha_1, beta_1 (alpha_2
        # when d = 0) and a random contrast, at the truth and at the fit
        cov, truth = generate_truth(SyntheticSpec(n=n, d=d, seed=n + d))
        data = sample_comparisons(cov, truth, distribution_sampling_probability(n, d), 20, 3)
        columns = np.zeros((n + d, 4))
        columns[:, 0] = simulation._default_contrast(n, d)
        columns[0, 1] = 1.0
        columns[n if d else 1, 2] = 1.0
        columns[:, 3] = np.random.default_rng(n + d).standard_normal(n + d)
        proj = build_projection(cov)
        for params in (truth, fit_mle(data, cov).params):
            vm = inference._laplacian_variance_model(data, cov, params)
            want = [vm.variance_of(proj.apply(c)) for c in columns.T]
            got = inference._variances_by_solve(data, cov, params, columns)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
            np.testing.assert_allclose(got[1:3], vm.diagonal[[0, n if d else 1]], rtol=1e-12, atol=0)

    def test_singular_solve_is_invalid_argument(self, monkeypatch):
        data, cov, truth = sample_small_instance(seed=71, n=5, d=2, trials=30)

        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        with pytest.raises(InvalidArgumentError, match="not numerically positive definite"):
            inference._variances_by_solve(data, cov, truth, np.eye(7)[:, :2])

    def test_underflowing_weights_refused(self, monkeypatch):
        # two triangles joined by the bridge (2, 3); scores 800 apart make
        # the bridge weight underflow to exactly zero, so L_w has a second
        # null vector, no coordinate is estimable, and every caller refuses
        # before any dense work
        def refuse(*args, **kwargs):
            raise AssertionError("dense (n+d) x (n+d) work")

        edges = [(0, 1, 4, 2), (0, 2, 4, 1), (1, 2, 4, 3),
                 (3, 4, 4, 2), (3, 5, 4, 1), (4, 5, 4, 3), (2, 3, 4, 2)]
        data = ComparisonData.from_edges(6, edges)
        cov = preprocess_covariates(np.zeros((6, 0)))
        fit = fit_mle(data, cov)
        far = ParamVector(np.repeat([400.0, -400.0], 3), np.zeros(0))
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(model, "hessian", refuse)
        monkeypatch.setattr(inference, "projected_hessian_pinv", refuse)
        for call in (
            lambda: plugin_variance_model(dataclasses.replace(fit, params=far)),
            lambda: oracle_variance_model(data, cov, far),
            lambda: inference._variances_by_solve(data, cov, far, np.eye(6)[:, :1]),
            lambda: quadratic_approx_minimizer(data, cov, far),
        ):
            with pytest.raises(ConnectivityError, match="2 components") as exc:
                call()
            assert exc.value.components == [[0, 1, 2], [3, 4, 5]]
        monkeypatch.undo()
        hess = hessian(data, cov, far)
        assert projected_hessian_pinv(hess, build_projection(cov)).rank_warning
        assert null_dimension(projected_hessian_by_nullspace(hess, cov)) == 2

    def test_one_hot_covariate_is_degenerate(self, tmp_path):
        # a one-hot column puts e_0 in the covariate span, so P e_0 = 0
        data, _ = unequal_trials_instance(seed=107, n=6, d=0)
        raw = np.zeros((6, 1))
        raw[0, 0] = 1.0
        fit = fit_mle(data, preprocess_covariates(raw))
        vm = plugin_variance_model(fit)
        with pytest.raises(DegenerateContrastError):
            full_inference_report(fit, vm)

        ids = [f"i{k}" for k in range(6)]
        comparisons = tmp_path / "comparisons.csv"
        comparisons.write_text(
            "item_i,item_j,trials,wins_j\n"
            + "".join(f"{ids[i]},{ids[j]},{t},{w}\n" for i, j, t, w in data.edges)
        )
        covariates = tmp_path / "covariates.csv"
        covariates.write_text(
            "item,hot\n" + "".join(f"{ids[k]},{raw[k, 0]}\n" for k in range(6))
        )
        code = main(["infer", "--comparisons", str(comparisons),
                     "--covariates", str(covariates), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG


@st.composite
def weighted_connected_graphs(draw, max_items=8):
    """A connected graph (a random spanning tree plus drawn extra pairs)
    with weights in [0.5, 2], each multiplied by a drawn 1, 0 or 1e-12."""
    n = draw(st.integers(2, max_items))
    pairs = {(draw(st.integers(0, j - 1)), j) for j in range(1, n)}
    every = [(i, j) for i in range(n) for j in range(i + 1, n)]
    pairs = sorted(pairs | set(draw(st.lists(st.sampled_from(every), unique=True))))
    data = ComparisonData.from_edges(n, [(i, j, 1, 0) for i, j in pairs])
    size = dict(min_size=len(pairs), max_size=len(pairs))
    weights = draw(st.lists(st.floats(0.5, 2.0), **size))
    factors = draw(st.lists(st.sampled_from([1.0, 0.0, 1e-12]), **size))
    return data, np.array(weights) * np.array(factors)


class TestWeightGraphRefusal:
    @given(weighted_connected_graphs())
    def test_refuses_exactly_the_splits(self, drawn):
        data, weights = drawn
        kept = weights > DEFAULT_EIGEN_CUTOFF * weights.max()
        want = components_by_bfs(ComparisonData(
            data.n_items, data.item_i[kept], data.item_j[kept],
            data.trials[kept], data.wins_j[kept],
        ))
        if len(want) > 1:
            with pytest.raises(ConnectivityError) as exc:
                inference._refuse_weight_split(data, weights)
            assert exc.value.components == want
        else:
            inference._refuse_weight_split(data, weights)
            tree = inference._shifted_laplacian_tree(data, weights)
            inference._invert_tree(tree)
            root = dense_from_tree(tree)
            assert np.all(np.isfinite(root)) and np.array_equal(root, np.tril(root))

    def test_failed_factor_is_invalid_argument(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", fail)
        data, cov, truth, fit = fitted_instance(seed=115)
        with pytest.raises(InvalidArgumentError, match="positive definite"):
            plugin_variance_model(fit)


class TestContrastInference:
    def test_quantile_p_value_anchor(self):
        assert two_sided_p_value(1.959964) == pytest.approx(0.05, abs=1e-6)

    def test_p_value_symmetry(self):
        for z in [0.0, 0.37, 1.2, 4.4]:
            assert two_sided_p_value(z) == two_sided_p_value(-z)

    def test_pairwise_score_contrast(self):
        data, cov, _, fit = fitted_instance(seed=75)
        vm = plugin_variance_model(fit)
        n = data.n_items
        c = np.zeros(n + 2)
        c[0], c[1] = 1.0, -1.0
        c[n:] = cov.scaled[0] - cov.scaled[1]
        result = contrast_inference(c, fit, vm)
        assert result.std_error > 0
        assert 0.0 <= result.p_value <= 1.0
        assert result.ci_low <= result.estimate <= result.ci_high

    def test_degenerate_contrast_rejected(self):
        data, cov, _, fit = fitted_instance(seed=76)
        vm = plugin_variance_model(fit)
        c = np.zeros(data.n_items + 2)
        c[: data.n_items] = cov.augmented[:, 1]  # inside the span, P c = 0
        with pytest.raises(DegenerateContrastError):
            contrast_inference(c, fit, vm)

    def test_invalid_contrast_rejected(self):
        # a wrong length or a non-finite entry is refused before it can
        # read as a significant z-test
        data, cov, truth, fit = fitted_instance(seed=77)
        vm = plugin_variance_model(fit)
        for c in ([1.0, 0.0, 0.0], [np.nan] + [0.0] * 6, [0.0] * 6 + [np.inf]):
            with pytest.raises(InvalidArgumentError, match="contrast"):
                contrast_inference(np.array(c), fit, vm)
            with pytest.raises(InvalidArgumentError, match="contrast"):
                standardized_stats(fit, vm, vm, np.array(c), truth)

    def test_level_validation(self):
        data, cov, _, fit = fitted_instance(seed=77)
        vm = plugin_variance_model(fit)
        c = np.zeros(data.n_items + 2)
        c[0] = 1.0
        with pytest.raises(InvalidArgumentError):
            contrast_inference(c, fit, vm, level=1.0)

    def test_scale_equivariance(self):
        data, _, _, _ = fitted_instance(seed=78)
        rng = np.random.default_rng(78)
        raw = rng.uniform(-1, 1, size=(5, 2))
        fits = []
        for factor in (1.0, 7.0):
            cov = preprocess_covariates(raw * factor)
            fit = fit_mle(data, cov, FitConfig(grad_tol=1e-11))
            fits.append((fit, plugin_variance_model(fit)))
        report_a = full_inference_report(*fits[0])
        report_b = full_inference_report(*fits[1])
        np.testing.assert_allclose(report_a.z_stat[5:], report_b.z_stat[5:], rtol=0, atol=1e-8)
        np.testing.assert_allclose(report_a.p_value[5:], report_b.p_value[5:], rtol=0, atol=1e-8)


class TestCoefficientInference:
    def test_symmetric_two_item(self):
        data = ComparisonData.from_edges(2, [(0, 1, 2, 1)])
        cov = preprocess_covariates(np.zeros((2, 0)))
        fit = fit_mle(data, cov)
        vm = plugin_variance_model(fit)
        report = full_inference_report(fit, vm)
        np.testing.assert_allclose(report.z_stat, 0.0, rtol=0, atol=1e-7)
        np.testing.assert_allclose(report.p_value, 1.0, rtol=0, atol=1e-6)

    def test_positive_diagonal_variances(self):
        data, cov, _, fit = fitted_instance(seed=79)
        vm = plugin_variance_model(fit)
        assert (full_inference_report(fit, vm).std_error > 0.0).all()

    def test_row_shapes(self):
        data, cov, _, fit = fitted_instance(seed=80)
        report = full_inference_report(fit, plugin_variance_model(fit))
        for column in (report.estimate, report.std_error, report.z_stat,
                       report.p_value, report.ci_low, report.ci_high):
            assert column.shape == (5 + 2,)
        np.testing.assert_array_equal(report.estimate, fit.params.stacked)

    def test_strong_effects_detected(self):
        # strong true covariate effects on a well-sampled graph produce
        # overwhelmingly small p-values for most coordinates
        from care_rank.simulation import SyntheticSpec, generate_truth, sample_comparisons

        cov, truth = generate_truth(SyntheticSpec(n=120, d=5, seed=301))
        data = sample_comparisons(cov, truth, 0.5, 25, 301)
        fit = fit_mle(data, cov)
        vm = plugin_variance_model(fit)
        beta_p = full_inference_report(fit, vm).p_value[120:]
        assert (beta_p < 0.01).sum() >= 4

    def test_full_report_bundle(self):
        data, cov, _, fit = fitted_instance(seed=81)
        vm = plugin_variance_model(fit)
        report = full_inference_report(fit, vm, level=0.9)
        assert report.estimate.size == 5 + 2
        assert report.level == 0.9


class TestQuadraticApproxMinimizer:
    def test_zero_gradient_returns_truth(self):
        # win fractions equal to the model probabilities at the truth, and
        # the truth already sums to zero, so the surrogate is the truth
        alpha = np.array([math.log(2.0), 0.0, -math.log(2.0)])
        truth = ParamVector(alpha, np.zeros(0))
        data = ComparisonData.from_edges(3, [(0, 1, 3, 1), (0, 2, 5, 1), (1, 2, 3, 1)])
        cov = preprocess_covariates(np.zeros((3, 0)))
        approx = quadratic_approx_minimizer(data, cov, truth)
        np.testing.assert_allclose(approx.stacked, truth.stacked, atol=1e-12)

    def test_matches_basis_reduction_oracle(self):
        data, cov, truth = sample_small_instance(seed=82, n=5, d=2, trials=25)
        proj = build_projection(cov)
        truth_in = ParamVector.from_stacked(proj.apply(truth.stacked), 5)
        approx = quadratic_approx_minimizer(data, cov, truth_in)
        basis = theta_basis_by_nullspace(constraint_matrix(cov))
        g = gradient(data, cov, truth_in)
        h = hessian(data, cov, truth_in)
        z = np.linalg.solve(basis.T @ h @ basis, -basis.T @ g)
        oracle = truth_in.stacked + basis @ z
        np.testing.assert_allclose(approx.stacked, oracle, atol=1e-8)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_dense_pinv_oracle(self, seed):
        # the truth off the subspace (as criterion 5 passes it) and on it
        cov, truth = generate_truth(SyntheticSpec(n=60 + 40 * seed, d=seed + 1, seed=120 + seed))
        data = sample_comparisons(cov, truth, 0.5, 25, 120 + seed)
        proj = build_projection(cov)
        for t in (truth, ParamVector.from_stacked(proj.apply(truth.stacked), cov.n_items)):
            got = quadratic_approx_minimizer(data, cov, t).stacked
            want = quadratic_minimizer_by_dense_pinv(data, cov, t)
            assert np.abs(got - want).max() <= 1e-10 * max(1.0, np.abs(want).max())

    def test_builds_no_dense_hessian(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense Hessian work")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(model, "hessian", refuse)
        data, cov, truth = sample_small_instance(seed=84, n=6, d=2, trials=20)
        quadratic_approx_minimizer(data, cov, truth)

    def test_builds_no_block_tree(self, monkeypatch):
        # one conjugate gradient solve over the half-edge layout, the
        # fit's, not the variance models' factor
        def refuse(*args, **kwargs):
            raise AssertionError("block tree built")

        monkeypatch.setattr(inference, "_shifted_laplacian_tree", refuse)
        cov, truth = generate_truth(SyntheticSpec(n=300, d=3, seed=85))
        data = sample_comparisons(cov, truth, 0.1, 5, 85)
        got = quadratic_approx_minimizer(data, cov, truth).stacked
        want = quadratic_minimizer_by_dense_pinv(data, cov, truth)
        assert np.abs(got - want).max() <= 1e-10 * max(1.0, np.abs(want).max())

    def test_memory_is_linear_in_edges(self):
        n = 1500
        cov, truth = generate_truth(SyntheticSpec(n=n, d=5, seed=7))
        data = sample_comparisons(cov, truth, 0.02, 5, 1)
        tracemalloc.start()
        try:
            quadratic_approx_minimizer(data, cov, truth)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one n x n float array alone would take 18 MB
        assert peak < n * n * 8 / 4

    def test_unsolved_step_is_invalid_argument(self, monkeypatch):
        # a step that misses stationarity in (alpha, beta) is refused
        monkeypatch.setattr(model._ShiftedLaplacian, "solve", lambda system, b: (0.0 * b, 0))
        data, cov, truth = sample_small_instance(seed=86, n=6, d=2, trials=20)
        with pytest.raises(InvalidArgumentError, match="stationarity residual"):
            quadratic_approx_minimizer(data, cov, truth)

    def test_stationarity_residual(self):
        data, cov, truth = sample_small_instance(seed=83, n=6, d=2, trials=20)
        proj = build_projection(cov)
        truth_in = ParamVector.from_stacked(proj.apply(truth.stacked), 6)
        approx = quadratic_approx_minimizer(data, cov, truth_in)
        g = gradient(data, cov, truth_in)
        h = hessian(data, cov, truth_in)
        residual = proj.apply(g + h @ (approx.stacked - truth_in.stacked))
        assert np.linalg.norm(residual) <= 1e-8


class TestSoftThreshold:
    def test_examples(self):
        assert soft_threshold(3.0, 1.0) == 2.0
        assert soft_threshold(-0.5, 1.0) == 0.0
        assert soft_threshold(-2.5, 1.0) == -1.5

    def test_shrinks_toward_zero(self):
        rng = np.random.default_rng(84)
        x = rng.normal(size=100)
        tau = np.abs(rng.normal(size=100))
        out = soft_threshold(x, tau)
        assert np.all(np.abs(out) <= np.abs(x))
        assert np.array_equal(out == 0.0, np.abs(x) <= tau)

    def test_negative_tau_rejected(self):
        with pytest.raises(InvalidArgumentError):
            soft_threshold(1.0, -0.1)


class TestCareRankingScores:
    def test_all_thresholded_scores_collapse(self):
        data, cov, _, fit = fitted_instance(seed=85)
        vm = plugin_variance_model(fit)
        ranking = care_ranking_scores(fit, vm, quantile_level=0.9999999)
        if np.all(np.abs(fit.params.alpha) <= ranking.taus):
            np.testing.assert_array_equal(ranking.scores2, ranking.scores1)

    def test_vanishing_threshold_recovers_full_scores(self):
        data, cov, _, fit = fitted_instance(seed=86)
        vm = plugin_variance_model(fit)
        ranking = care_ranking_scores(fit, vm, quantile_level=0.500001)
        full = fit.params.alpha + cov.scaled @ fit.params.beta
        np.testing.assert_allclose(ranking.scores2, full, atol=1e-5)

    def test_quantile_level_range(self):
        data, cov, _, fit = fitted_instance(seed=87)
        vm = plugin_variance_model(fit)
        with pytest.raises(InvalidArgumentError):
            care_ranking_scores(fit, vm, quantile_level=0.5)

    def test_tau_scales_with_doubled_trials(self):
        data, cov, _, fit = fitted_instance(seed=88, grad_tol=1e-11)
        doubled = ComparisonData(
            data.n_items, data.item_i, data.item_j, 2 * data.trials, 2 * data.wins_j
        )
        fit2 = fit_mle(doubled, cov, FitConfig(grad_tol=1e-11))
        taus1 = care_ranking_scores(fit, plugin_variance_model(fit)).taus
        taus2 = care_ranking_scores(fit2, plugin_variance_model(fit2)).taus
        np.testing.assert_allclose(taus2, taus1 / math.sqrt(2.0), rtol=1e-6)

    def test_rank1_invariant_to_unidentifiable_shift(self):
        data, cov, _, fit = fitted_instance(seed=89)
        vm = plugin_variance_model(fit)
        base = care_ranking_scores(fit, vm)
        shift = constraint_matrix(cov) @ np.array([0.7, -0.3, 1.1])
        shifted_params = ParamVector.from_stacked(
            fit.params.stacked + shift, data.n_items
        )
        shifted_fit = dataclasses.replace(fit, params=shifted_params)
        shifted = care_ranking_scores(shifted_fit, vm)
        np.testing.assert_array_equal(base.ranks1, shifted.ranks1)

    def test_rank_ties_break_by_index(self):
        data, cov, _, fit = fitted_instance(seed=90)
        vm = plugin_variance_model(fit)
        zero_beta = dataclasses.replace(
            fit, params=ParamVector(fit.params.alpha, np.zeros(2))
        )
        ranking = care_ranking_scores(zero_beta, vm)
        # all scores1 are exactly zero -> ranks follow item index
        np.testing.assert_array_equal(ranking.ranks1, np.arange(1, 6))


class TestStandardizedStats:
    def test_zero_at_truth(self):
        data, cov, truth, fit = fitted_instance(seed=91)
        proj = build_projection(cov)
        truth_in = ParamVector.from_stacked(proj.apply(truth.stacked), 5)
        vm_true = projected_hessian_pinv(hessian(data, cov, truth_in), proj)
        vm_plugin = plugin_variance_model(fit)
        at_truth = dataclasses.replace(fit, params=truth_in)
        c = np.zeros(7)
        c[0], c[5] = 1.0, 1.0
        a, b = standardized_stats(at_truth, vm_true, vm_plugin, c, truth_in)
        assert a == 0.0 and b == 0.0

    def test_finite_for_default_contrast(self):
        data, cov, truth, fit = fitted_instance(seed=92)
        proj = build_projection(cov)
        truth_in = ParamVector.from_stacked(proj.apply(truth.stacked), 5)
        vm_true = projected_hessian_pinv(hessian(data, cov, truth_in), proj)
        vm_plugin = plugin_variance_model(fit)
        c = np.zeros(7)
        c[0], c[5] = 1.0, 1.0
        a, b = standardized_stats(fit, vm_true, vm_plugin, c, truth_in)
        assert np.isfinite(a) and np.isfinite(b)
