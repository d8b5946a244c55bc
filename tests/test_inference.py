"""Variance models, tests/intervals, quadratic surrogate, ranking scores."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import null_space

from care_rank import inference, simulation
from care_rank.cli import EXIT_CONFIG, main
from care_rank.errors import DegenerateContrastError, InvalidArgumentError
from care_rank.estimation import FitConfig, fit_mle, preprocess_covariates
from care_rank.inference import (
    DEFAULT_EIGEN_CUTOFF,
    VarianceModel,
    alpha_inference,
    beta_inference,
    care_ranking_scores,
    contrast_inference,
    full_inference_report,
    oracle_variance_model,
    plugin_variance_model,
    projected_hessian_pinv,
    quadratic_approx_minimizer,
    soft_threshold,
    standardized_stats,
)
from care_rank.model import (
    ComparisonData,
    ParamVector,
    ProjectionOperator,
    _hessian_weights,
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
    quadratic_minimizer_by_dense_pinv,
    sample_small_instance,
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
        eigs = np.sort(np.linalg.eigvalsh(vm.pseudoinverse))
        np.testing.assert_allclose(eigs, [0.0, 4.0 / 3.0, 4.0 / 3.0], atol=1e-10)
        assert vm.n_zero_eigenvalues == 1
        assert not vm.rank_warning

    def test_involution_on_retained_spectrum(self):
        data, cov, _, fit = fitted_instance(seed=71)
        vm = plugin_variance_model(fit)
        back = projected_hessian_pinv(vm.pseudoinverse, fit.projection)
        np.testing.assert_allclose(
            back.pseudoinverse, vm.projected_hessian,
            atol=1e-8 * np.linalg.norm(vm.projected_hessian),
        )

    def test_penrose_conditions(self):
        rng = np.random.default_rng(72)
        cov = preprocess_covariates(rng.normal(size=(6, 2)))
        proj = build_projection(cov)
        a = rng.normal(size=(8, 8))
        spd = a @ a.T
        vm = projected_hessian_pinv(spd, proj)
        m = vm.projected_hessian
        plus = vm.pseudoinverse
        scale = np.linalg.norm(m)
        assert np.linalg.norm(m @ plus @ m - m) <= 1e-8 * scale
        assert np.linalg.norm(plus @ m @ plus - plus) <= 1e-8 * np.linalg.norm(plus)
        assert np.linalg.norm((m @ plus).T - m @ plus) <= 1e-8
        assert np.linalg.norm((plus @ m).T - plus @ m) <= 1e-8

    def test_expected_null_dimension(self):
        data, cov, _, fit = fitted_instance(seed=73)
        vm = plugin_variance_model(fit)
        assert vm.expected_zero_eigenvalues == 3  # d + 1
        assert vm.n_zero_eigenvalues == 3
        assert not vm.rank_warning

    def test_rank_warning_on_disconnected(self):
        data = ComparisonData.from_edges(4, [(0, 1, 3, 1), (2, 3, 3, 2)])
        cov = preprocess_covariates(np.zeros((4, 0)))
        proj = build_projection(cov)
        h = hessian(data, cov, ParamVector(np.zeros(4), np.zeros(0)))
        vm = projected_hessian_pinv(h, proj)
        assert vm.n_zero_eigenvalues == 2
        assert vm.rank_warning


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


class TestLaplacianVarianceModel:
    @pytest.mark.parametrize(
        "d, standardize, ridge", [(0, True, 0.0), (2, False, 0.0), (2, True, 0.5)]
    )
    def test_matches_dense_route(self, d, standardize, ridge):
        data, cov = unequal_trials_instance(seed=100 + d, d=d, standardize=standardize)
        fit = fit_mle(data, cov, FitConfig(ridge_alpha=ridge))
        vm = plugin_variance_model(fit)
        ref = projected_hessian_pinv(hessian(data, cov, fit.params), fit.projection)
        for got, want in (
            (vm.pseudoinverse, ref.pseudoinverse),
            (vm.projected_hessian, ref.projected_hessian),
        ):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert vm.n_zero_eigenvalues == ref.n_zero_eigenvalues == d + 1
        assert vm.expected_zero_eigenvalues == ref.expected_zero_eigenvalues
        assert not vm.rank_warning and not ref.rank_warning

    @pytest.mark.parametrize(
        "design", ["d0", "d2-unstandardized", "d2-ridge", "study-n300"]
    )
    def test_readers_match_dense_route(self, design):
        if design == "study-n300":
            cov, truth = generate_truth(SyntheticSpec(n=300, d=5, seed=108))
            data = sample_comparisons(
                cov, truth, distribution_sampling_probability(300, 5), 20, 108
            )
            ridge = 0.0
        else:
            d, standardize, ridge = {
                "d0": (0, True, 0.0),
                "d2-unstandardized": (2, False, 0.0),
                "d2-ridge": (2, True, 0.5),
            }[design]
            data, cov = unequal_trials_instance(seed=100 + d, d=d, standardize=standardize)
        fit = fit_mle(data, cov, FitConfig(ridge_alpha=ridge))
        vm = plugin_variance_model(fit)
        ref = projected_hessian_pinv(hessian(data, cov, fit.params), fit.projection)
        n = data.n_items
        np.testing.assert_allclose(vm.diagonal, np.diagonal(ref.pseudoinverse), rtol=1e-12, atol=0)
        rng = np.random.default_rng(len(design))
        for _ in range(5):
            cbar = fit.projection.apply(rng.normal(size=n + cov.n_features))
            assert vm.variance_of(cbar) == pytest.approx(ref.variance_of(cbar), rel=1e-12)
        beta_block, want = vm.pseudoinverse[n:, n:], ref.pseudoinverse[n:, n:]
        if want.size:
            assert np.abs(beta_block - want).max() <= 1e-12 * np.abs(want).max()

    def test_inference_and_study_touch_no_dense_matrix(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense (n+d) x (n+d) work")

        for name in ("pseudoinverse", "projected_hessian"):
            monkeypatch.setattr(VarianceModel, name, property(refuse))
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(inference, "hessian", refuse)
        data, cov = unequal_trials_instance(seed=109)
        fit = fit_mle(data, cov)
        vm = plugin_variance_model(fit)
        report = full_inference_report(fit, vm)
        assert len(report.alpha_rows) == 12 and len(report.beta_rows) == 2
        care_ranking_scores(fit, vm)
        c = np.zeros(14)
        c[0], c[12] = 1.0, 1.0
        assert contrast_inference(c, fit, vm).std_error > 0
        # a study runs its replications in spawned processes, which these
        # patches do not reach; run one replication here, on the context
        # the study builds and sends to its workers
        plan = ExperimentPlan(
            pl_pairs=((0.5, 6),), replications=1,
            statistics=frozenset({"qq_alpha1", "coverage"}), workers=1,
        )
        context = simulation._distribution_context(SyntheticSpec(n=40, d=2, seed=109), plan)
        record = simulation._distribution_replication(context, (0.5, 6, 0, 0))
        assert record["replication"] == 0 and record["var_c_plugin"] > 0

    def test_memory_stays_near_three_squares(self):
        # variance model plus report at n = 1500, mean degree 40: the
        # shifted Laplacian, its Cholesky factor and the root, about
        # 2.2-2.4 n^2 doubles traced; a general inverse with dense
        # (n+d)^2 sandwiches needs about 4 n^2
        n = 1500
        cov, truth = generate_truth(SyntheticSpec(n=n, d=5, seed=110))
        data = sample_comparisons(cov, truth, 40.0 / (n - 1), 10, 110)
        fit = fit_mle(data, cov)
        tracemalloc.start()
        try:
            full_inference_report(fit, plugin_variance_model(fit))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * n * n * 8

    def test_trace_bound_quiet_at_cli_scale(self, monkeypatch):
        # the size of the cli-n2000 benchmark dataset; the bound reads
        # about 4e-4 of its limit there and grows like n^2
        n = 2000
        cov, truth = generate_truth(SyntheticSpec(n=n, d=5, seed=20250801))
        data = sample_comparisons(cov, truth, 0.05, 10, 20250801)
        fit = fit_mle(data, cov)
        bounds = []
        real_bound = inference._eigen_ratio_bound

        def record(*args):
            bounds.append(real_bound(*args))
            return bounds[-1]

        def refuse(*args, **kwargs):
            raise AssertionError("dense Hessian built")

        monkeypatch.setattr(inference, "_eigen_ratio_bound", record)
        monkeypatch.setattr(inference, "hessian", refuse)
        vm = plugin_variance_model(fit)
        assert not vm.rank_warning and vm.n_zero_eigenvalues == 6
        assert len(bounds) == 1 and bounds[0] * DEFAULT_EIGEN_CUTOFF < 1e-2

    def test_trace_bound_is_product_of_traces(self):
        data, cov = unequal_trials_instance(seed=111)
        fit = fit_mle(data, cov)
        vm = plugin_variance_model(fit)
        weights = _hessian_weights(data, cov, fit.params)
        bound = inference._eigen_ratio_bound(
            inference._projected_hessian_trace(
                inference._shifted_laplacian(data, weights), fit.projection._span_q, cov.scaled
            ),
            vm.diagonal,
        )
        want = np.trace(vm.projected_hessian) * np.trace(vm.pseudoinverse)
        assert bound == pytest.approx(want, rel=1e-12)
        top = np.linalg.eigvalsh(vm.projected_hessian)[-1] * np.linalg.eigvalsh(vm.pseudoinverse)[-1]
        assert top <= bound

    @pytest.mark.parametrize("bound", [1.0 / DEFAULT_EIGEN_CUTOFF, math.nan])
    def test_trace_bound_at_limit_falls_back(self, monkeypatch, bound):
        data, cov = unequal_trials_instance(seed=112)
        fit = fit_mle(data, cov)
        monkeypatch.setattr(inference, "_eigen_ratio_bound", lambda *args: bound)
        vm = plugin_variance_model(fit)
        ref = projected_hessian_pinv(hessian(data, cov, fit.params), fit.projection)
        np.testing.assert_array_equal(vm.pseudoinverse, ref.pseudoinverse)
        np.testing.assert_array_equal(vm.diagonal, np.diagonal(ref.pseudoinverse))

    def test_triangular_inverse(self):
        rng = np.random.default_rng(113)
        for n in (1, 5, 64, 65, 300):
            low = np.tril(rng.normal(size=(n, n))) + n * np.eye(n)
            inv = inference._invert_lower(low.copy())
            assert np.array_equal(inv, np.tril(inv))
            assert np.abs(inv @ low - np.eye(n)).max() <= 1e-13

    def test_oracle_matches_dense_route(self):
        data, cov = unequal_trials_instance(seed=104)
        rng = np.random.default_rng(104)
        truth = ParamVector(rng.normal(size=12), rng.normal(size=2))
        proj = build_projection(cov)
        vm = oracle_variance_model(data, cov, truth, proj)
        ref = projected_hessian_pinv(hessian(data, cov, truth), proj)
        assert np.abs(vm.pseudoinverse - ref.pseudoinverse).max() <= 1e-12 * np.abs(
            ref.pseudoinverse
        ).max()

    def test_report_rows_match_contrast_inference(self):
        data, cov = unequal_trials_instance(seed=105)
        fit = fit_mle(data, cov)
        vm = plugin_variance_model(fit)
        report = full_inference_report(fit, vm, level=0.9)
        n, d = 12, 2
        for rows, offset in ((report.alpha_rows, 0), (report.beta_rows, n)):
            for row in rows:
                c = np.zeros(n + d)
                c[row.index + offset] = 1.0
                ref = contrast_inference(c, fit, vm, level=0.9)
                np.testing.assert_allclose(
                    [row.estimate, row.std_error, row.z_stat, row.p_value,
                     row.ci_low, row.ci_high],
                    [ref.estimate, ref.std_error, ref.z_stat, ref.p_value,
                     ref.ci_low, ref.ci_high],
                    rtol=1e-10, atol=1e-14,
                )
                assert row.level == 0.9

    def test_underflowing_weights_fall_back_to_dense_route(self):
        # two triangles joined by the bridge (2, 3); scores 800 apart make
        # the bridge weight underflow to exactly zero, so L_w has a second
        # null vector and the dense route must report it
        edges = [(0, 1, 4, 2), (0, 2, 4, 1), (1, 2, 4, 3),
                 (3, 4, 4, 2), (3, 5, 4, 1), (4, 5, 4, 3), (2, 3, 4, 2)]
        data = ComparisonData.from_edges(6, edges)
        cov = preprocess_covariates(np.zeros((6, 0)))
        fit = fit_mle(data, cov)
        far = ParamVector(np.repeat([400.0, -400.0], 3), np.zeros(0))
        vm = plugin_variance_model(dataclasses.replace(fit, params=far))
        ref = projected_hessian_pinv(hessian(data, cov, far), fit.projection)
        np.testing.assert_array_equal(vm.pseudoinverse, ref.pseudoinverse)
        np.testing.assert_array_equal(vm.projected_hessian, ref.projected_hessian)
        assert vm.n_zero_eigenvalues == ref.n_zero_eigenvalues == 2
        assert vm.rank_warning and ref.rank_warning

    def test_fit_and_report_never_build_dense_projector(self, monkeypatch):
        def refuse(self):
            raise AssertionError("dense projector built")

        for name in ("matrix_p", "z_pad"):
            monkeypatch.setattr(ProjectionOperator, name, property(refuse))
        data, cov = unequal_trials_instance(seed=106)
        fit = fit_mle(data, cov)
        report = full_inference_report(fit, plugin_variance_model(fit))
        assert len(report.alpha_rows) == 12 and len(report.beta_rows) == 2

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
        rows_a = beta_inference(*fits[0])
        rows_b = beta_inference(*fits[1])
        for ra, rb in zip(rows_a, rows_b):
            assert ra.z_stat == pytest.approx(rb.z_stat, abs=1e-8)
            assert ra.p_value == pytest.approx(rb.p_value, abs=1e-8)


class TestCoefficientInference:
    def test_symmetric_two_item(self):
        data = ComparisonData.from_edges(2, [(0, 1, 2, 1)])
        cov = preprocess_covariates(np.zeros((2, 0)))
        fit = fit_mle(data, cov)
        vm = plugin_variance_model(fit)
        rows = alpha_inference(fit, vm)
        for row in rows:
            assert row.z_stat == pytest.approx(0.0, abs=1e-7)
            assert row.p_value == pytest.approx(1.0, abs=1e-6)

    def test_positive_diagonal_variances(self):
        data, cov, _, fit = fitted_instance(seed=79)
        vm = plugin_variance_model(fit)
        for row in alpha_inference(fit, vm) + beta_inference(fit, vm):
            assert row.std_error > 0.0

    def test_row_shapes(self):
        data, cov, _, fit = fitted_instance(seed=80)
        vm = plugin_variance_model(fit)
        assert [r.index for r in alpha_inference(fit, vm)] == list(range(5))
        assert [r.index for r in beta_inference(fit, vm)] == [0, 1]

    def test_strong_effects_detected(self):
        # strong true covariate effects on a well-sampled graph produce
        # overwhelmingly small p-values for most coordinates
        from care_rank.simulation import SyntheticSpec, generate_truth, sample_comparisons

        cov, truth = generate_truth(SyntheticSpec(n=120, d=5, seed=301))
        data = sample_comparisons(cov, truth, 0.5, 25, 301)
        fit = fit_mle(data, cov)
        vm = plugin_variance_model(fit)
        rows = beta_inference(fit, vm)
        significant = sum(r.p_value < 0.01 for r in rows)
        assert significant >= 4

    def test_full_report_bundle(self):
        data, cov, _, fit = fitted_instance(seed=81)
        vm = plugin_variance_model(fit)
        report = full_inference_report(fit, vm, level=0.9, quantile_level=0.99)
        assert len(report.alpha_rows) == 5
        assert len(report.beta_rows) == 2
        assert report.care_scores_1.shape == (5,)
        assert report.thresholds_tau.shape == (5,)
        assert sorted(report.ranks_1.tolist()) == [1, 2, 3, 4, 5]


class TestQuadraticApproxMinimizer:
    def test_zero_gradient_returns_truth(self):
        # win fractions equal to the model probabilities at the truth, and
        # the truth already sums to zero, so the surrogate is the truth
        alpha = np.array([math.log(2.0), 0.0, -math.log(2.0)])
        truth = ParamVector(alpha, np.zeros(0))
        data = ComparisonData.from_edges(3, [(0, 1, 3, 1), (0, 2, 5, 1), (1, 2, 3, 1)])
        cov = preprocess_covariates(np.zeros((3, 0)))
        proj = build_projection(cov)
        approx = quadratic_approx_minimizer(data, cov, truth, proj)
        np.testing.assert_allclose(approx.stacked, truth.stacked, atol=1e-12)

    def test_matches_basis_reduction_oracle(self):
        data, cov, truth = sample_small_instance(seed=82, n=5, d=2, trials=25)
        proj = build_projection(cov)
        truth_in = ParamVector.from_stacked(proj.apply(truth.stacked), 5, identified=True)
        approx = quadratic_approx_minimizer(data, cov, truth_in, proj)
        basis = theta_basis_by_nullspace(np.asarray(proj.z_pad))
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
            got = quadratic_approx_minimizer(data, cov, t, proj).stacked
            want = quadratic_minimizer_by_dense_pinv(data, cov, t, proj)
            assert np.abs(got - want).max() <= 1e-10 * max(1.0, np.abs(want).max())

    def test_builds_no_dense_hessian(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense Hessian work")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(inference, "hessian", refuse)
        data, cov, truth = sample_small_instance(seed=84, n=6, d=2, trials=20)
        approx = quadratic_approx_minimizer(data, cov, truth, build_projection(cov))
        assert approx.identified

    def test_stationarity_residual(self):
        data, cov, truth = sample_small_instance(seed=83, n=6, d=2, trials=20)
        proj = build_projection(cov)
        truth_in = ParamVector.from_stacked(proj.apply(truth.stacked), 6, identified=True)
        approx = quadratic_approx_minimizer(data, cov, truth_in, proj)
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
        shift = fit.projection.z_pad @ np.array([0.7, -0.3, 1.1])
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
        proj = fit.projection
        truth_in = ParamVector.from_stacked(proj.apply(truth.stacked), 5, identified=True)
        vm_true = projected_hessian_pinv(hessian(data, cov, truth_in), proj)
        vm_plugin = plugin_variance_model(fit)
        at_truth = dataclasses.replace(fit, params=truth_in)
        c = np.zeros(7)
        c[0], c[5] = 1.0, 1.0
        a, b = standardized_stats(at_truth, vm_true, vm_plugin, c, truth_in)
        assert a == 0.0 and b == 0.0

    def test_finite_for_default_contrast(self):
        data, cov, truth, fit = fitted_instance(seed=92)
        proj = fit.projection
        truth_in = ParamVector.from_stacked(proj.apply(truth.stacked), 5, identified=True)
        vm_true = projected_hessian_pinv(hessian(data, cov, truth_in), proj)
        vm_plugin = plugin_variance_model(fit)
        c = np.zeros(7)
        c[0], c[5] = 1.0, 1.0
        a, b = standardized_stats(fit, vm_true, vm_plugin, c, truth_in)
        assert np.isfinite(a) and np.isfinite(b)
