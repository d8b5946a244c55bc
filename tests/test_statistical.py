"""Replication-based statistical checks beyond the acceptance criteria:
test size under a null coefficient, generator laws, the oracle-
standardized statistic's calibration, and the intrinsic-score error
rate in n."""

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from care_rank.estimation import fit_mle, preprocess_covariates
from care_rank.inference import full_inference_report, plugin_variance_model
from care_rank.model import ParamVector, build_projection
from care_rank.simulation import (
    ExperimentPlan,
    SyntheticSpec,
    draw_alpha,
    draw_beta,
    draw_covariates,
    rng_stream,
    run_rate_experiment,
    sample_comparisons,
)


class TestGeneratorLaws:
    def test_alpha_law_moments(self):
        spec = SyntheticSpec(n=200, d=5, seed=88)
        alpha = draw_alpha(spec)
        lo, hi = 0.5, math.log(5.0) - 0.5
        assert lo <= alpha.min() and alpha.max() <= hi
        midpoint = (lo + hi) / 2.0
        se = (hi - lo) / math.sqrt(12.0) / math.sqrt(spec.n)
        assert abs(alpha.mean() - midpoint) <= 3.0 * se

    def test_beta_law_norm(self):
        spec = SyntheticSpec(n=200, d=5, seed=89)
        beta = draw_beta(spec)
        radius = 0.5 * math.sqrt(spec.n / (spec.d + 1))
        assert abs(np.linalg.norm(beta) - radius) <= 1e-12

    def test_covariate_law_range(self):
        spec = SyntheticSpec(n=200, d=5, seed=90)
        raw = draw_covariates(spec)
        assert raw.min() >= -0.5
        assert raw.max() <= 0.5


class TestSizeUnderNull:
    def test_null_coefficient_rejection_rate(self):
        # one covariate effect forced to zero in the generating process;
        # a level-0.05 test of it should reject about 5% of the time
        n, d, p, L, reps = 100, 3, 0.4, 10, 300
        null_index = d - 1
        spec = SyntheticSpec(n=n, d=d, seed=777)
        cov = preprocess_covariates(draw_covariates(spec), standardize=True)
        beta = draw_beta(spec)
        beta[null_index] = 0.0
        proj = build_projection(cov)
        truth = ParamVector.from_stacked(proj.apply(np.concatenate([draw_alpha(spec), beta])), n)

        def one_rep(rep: int) -> int:
            data = sample_comparisons(cov, truth, p, L, rng_stream(spec.seed, 10_000 + rep))
            fit = fit_mle(data, cov)
            vm = plugin_variance_model(fit)
            report = full_inference_report(fit, vm, level=0.95)
            return int(report.p_value[n + null_index] < 0.05)

        with ThreadPoolExecutor(max_workers=4) as pool:
            rejections = sum(pool.map(one_rep, range(reps)))
        rate = rejections / reps
        assert 0.03 <= rate <= 0.08, f"size {rate:.4f} outside [0.03, 0.08]"


class TestDistributionalCalibration:
    def test_oracle_statistic_centered(self, distribution_study):
        block = distribution_study.settings[0].extras["hist_A"]
        assert -0.2 <= block["mean"] <= 0.2
        assert 0.85 <= block["sd"] <= 1.15

    def test_first_intrinsic_score_close_to_normal(self, distribution_study):
        qq = distribution_study.settings[0].extras["qq_alpha1"]
        assert qq["ks_distance"] <= 0.12

    def test_no_resampling_needed_at_study_density(self, distribution_study):
        assert distribution_study.settings[0].resamples == 0


class TestRateMagnitudes:
    def test_densest_design_is_in_the_small_error_regime(self, rate_study):
        plan, result = rate_study
        densest = next(s for s in result.settings if (s.p, s.L) == (1.0, 50))
        assert densest.aggregates["alpha_linf"]["mean"] < 0.1

    def test_errors_ordered_by_information(self, rate_study):
        plan, result = rate_study
        by_pl = {(s.p, s.L): s.aggregates["alpha_linf"]["mean"] for s in result.settings}
        assert by_pl[(1.0, 50)] < by_pl[(0.278, 5)]


class TestRateInN:
    def test_alpha_error_follows_the_paper_rate_in_n(self):
        """The paper's l-infinity rate: at fixed (p, L) the mean
        max-error of the intrinsic scores scales as sqrt(log n / n).
        The bounds are criterion 1's, fixed before the run."""
        plan = ExperimentPlan(
            pl_pairs=[(0.2, 5)], replications=20, statistics={"alpha_linf"}, workers=2
        )
        sizes = (200, 400, 800, 1600)
        means = [
            run_rate_experiment(SyntheticSpec(n=n, d=5, seed=11), plan)
            .settings[0].aggregates["alpha_linf"]["mean"]
            for n in sizes
        ]
        x = np.log([math.sqrt(math.log(n) / n) for n in sizes])
        y = np.log(means)
        slope = float(np.polyfit(x, y, 1)[0])
        r2 = float(np.corrcoef(x, y)[0, 1] ** 2)
        assert 0.8 <= slope <= 1.2 and r2 >= 0.9, (means, slope, r2)
