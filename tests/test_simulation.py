"""Generators, RNG streams, and the experiment harness."""

import json
import math
import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest

import care_rank
from care_rank import inference, simulation
from care_rank.errors import ConfigurationError, InvalidArgumentError
from care_rank.estimation import preprocess_covariates
from care_rank.model import ParamVector, is_connected
from care_rank.simulation import (
    ExperimentPlan,
    SyntheticSpec,
    distribution_sampling_probability,
    effective_sample_size,
    generate_truth,
    ks_distance_to_normal,
    rate_experiment_pairs,
    rng_stream,
    run_distribution_experiment,
    run_rate_experiment,
    sample_comparisons,
)

from oracles import constraint_matrix, sample_comparisons_by_triu, win_probability


class TestRngStream:
    def test_reproducible(self):
        a = rng_stream(99, 5).random(1000)
        b = rng_stream(99, 5).random(1000)
        np.testing.assert_array_equal(a, b)

    def test_streams_do_not_collide(self):
        draws = {}
        for stream in range(8):
            bits = rng_stream(123, stream).integers(0, 2**63, size=10_000)
            draws[stream] = set(bits.tolist())
        union = set().union(*draws.values())
        assert len(union) == sum(len(s) for s in draws.values())

    def test_seed_bounds(self):
        # integers only: a float seed is refused, not truncated
        for seed, stream_id in ((-1, 0), (0, 2**64), (1.7, 0), (0, 2.0)):
            with pytest.raises(InvalidArgumentError):
                rng_stream(seed, stream_id)


class TestGenerateTruth:
    def test_beta_radius_exact(self):
        spec = SyntheticSpec(n=200, d=5, seed=1)
        _, truth = generate_truth(spec)
        assert np.linalg.norm(truth.beta) == pytest.approx(
            0.5 * math.sqrt(200 / 6), rel=1e-12
        )

    def test_truth_in_subspace(self):
        spec = SyntheticSpec(n=50, d=3, seed=2)
        cov, truth = generate_truth(spec)
        assert np.abs(constraint_matrix(cov).T @ truth.stacked).max() <= 1e-8

    def test_alpha_law(self):
        # pre-projection the law is Uniform[0.5, log 5 - 0.5]; the mean of
        # the projected alpha is near zero, so check the law through the
        # score decomposition instead: spread stays within the designed
        # condition-number bound plus projection slack
        spec = SyntheticSpec(n=200, d=5, seed=3)
        cov, truth = generate_truth(spec)
        scores = truth.scores(cov)
        assert scores.max() - scores.min() <= math.log(5.0) + 0.35

    def test_covariate_law(self):
        spec = SyntheticSpec(n=200, d=5, seed=4)
        cov, _ = generate_truth(spec)
        assert cov.raw.min() >= -0.5 and cov.raw.max() <= 0.5
        # Uniform[-0.5, 0.5]: mean 0 within 4 standard errors
        se = (1.0 / math.sqrt(12.0)) / math.sqrt(cov.raw.size)
        assert abs(cov.raw.mean()) <= 4 * se

    def test_deterministic(self):
        a_cov, a_truth = generate_truth(SyntheticSpec(n=40, d=2, seed=5))
        b_cov, b_truth = generate_truth(SyntheticSpec(n=40, d=2, seed=5))
        np.testing.assert_array_equal(a_cov.scaled, b_cov.scaled)
        np.testing.assert_array_equal(a_truth.stacked, b_truth.stacked)

    def test_spec_validation(self):
        # counts and seeds are integers, never truncated
        for kwargs in ({"n": 1}, {"d": -1}, {"seed": -1},
                       {"n": 20.5}, {"d": 1.0}, {"seed": 1.7}, {"seed": "1"}):
            with pytest.raises(InvalidArgumentError):
                SyntheticSpec(**kwargs)
        spec = SyntheticSpec(n=np.int64(30), d=np.int32(2), seed=np.uint64(5))
        assert [type(v) for v in (spec.n, spec.d, spec.seed)] == [int, int, int]

    def test_btl_case(self):
        cov, truth = generate_truth(SyntheticSpec(n=30, d=0, seed=6))
        assert truth.beta.size == 0
        assert abs(truth.alpha.sum()) <= 1e-8


class TestSampleComparisons:
    def test_complete_graph_at_p_one(self):
        cov, truth = generate_truth(SyntheticSpec(n=25, d=2, seed=7))
        data = sample_comparisons(cov, truth, 1.0, 3, 7)
        assert data.n_edges == 25 * 24 // 2

    def test_equal_scores_balanced(self):
        cov = preprocess_covariates(np.zeros((12, 0)))
        truth = ParamVector(np.zeros(12), np.zeros(0))
        data = sample_comparisons(cov, truth, 1.0, 10_000, 8)
        pooled = data.wins_j.sum() / data.trials.sum()
        assert abs(pooled - 0.5) <= 0.02

    def test_edge_count_concentration(self):
        cov, truth = generate_truth(SyntheticSpec(n=200, d=5, seed=9))
        data = sample_comparisons(cov, truth, 0.5, 1, 9)
        pairs = 200 * 199 // 2
        sigma = math.sqrt(pairs * 0.25)
        assert abs(data.n_edges - pairs * 0.5) <= 4 * sigma

    def test_deterministic_given_seed(self):
        cov, truth = generate_truth(SyntheticSpec(n=30, d=1, seed=10))
        a = sample_comparisons(cov, truth, 0.4, 5, 11)
        b = sample_comparisons(cov, truth, 0.4, 5, 11)
        np.testing.assert_array_equal(a.wins_j, b.wins_j)
        np.testing.assert_array_equal(a.item_i, b.item_i)

    @pytest.mark.parametrize("chunk", [7, 1000, 1 << 16])
    @pytest.mark.parametrize("n, p", [(7, 0.6), (200, 0.3), (301, 0.05), (4, 1.0)])
    def test_chunked_draw_matches_triu_oracle(self, monkeypatch, chunk, n, p):
        # chunks of 7 and 1000 end inside rows and span several of them
        cov, truth = generate_truth(SyntheticSpec(n=n, d=2, seed=14))
        monkeypatch.setattr(simulation, "_SAMPLE_CHUNK", chunk)
        data = sample_comparisons(cov, truth, p, 5, rng_stream(14, 9))
        ii, jj, wins = sample_comparisons_by_triu(cov, truth, p, 5, rng_stream(14, 9))
        np.testing.assert_array_equal(data.item_i, ii)
        np.testing.assert_array_equal(data.item_j, jj)
        np.testing.assert_array_equal(data.wins_j, wins)

    def test_validation(self):
        cov, truth = generate_truth(SyntheticSpec(n=10, d=0, seed=12))
        with pytest.raises(InvalidArgumentError):
            sample_comparisons(cov, truth, 0.0, 5, 1)
        with pytest.raises(InvalidArgumentError):
            sample_comparisons(cov, truth, 0.5, 0, 1)
        with pytest.raises(InvalidArgumentError):
            sample_comparisons(cov, truth, 0.5, 2.5, 1)

    def test_win_rates_track_probabilities(self):
        cov, truth = generate_truth(SyntheticSpec(n=6, d=1, seed=13))
        data = sample_comparisons(cov, truth, 1.0, 50_000, 13)
        scores = truth.scores(cov)
        for i, j, t, w in data.edges:
            expect = win_probability(scores[i], scores[j])
            assert abs(w / t - expect) <= 4 * math.sqrt(expect * (1 - expect) / t)


class TestPlans:
    def test_pair_validation(self):
        for kwargs in (
            {"pl_pairs": [(1.5, 5)]}, {"pl_pairs": [(0.5, 0)]}, {"pl_pairs": []},
            # counts are integers, never truncated
            {"pl_pairs": [(0.5, 2.5)]},
            {"pl_pairs": [(0.5, 5)], "replications": 2.5},
            {"pl_pairs": [(0.5, 5)], "workers": 1.5},
            {"level": 0.0}, {"level": 1.0},
        ):
            with pytest.raises(InvalidArgumentError):
                ExperimentPlan(**kwargs)

    def test_statistic_validation(self):
        with pytest.raises(InvalidArgumentError):
            ExperimentPlan(pl_pairs=[(0.5, 5)], statistics=frozenset({"nope"}))

    def test_only_unset_fields_take_the_study_design(self, monkeypatch):
        # the studies themselves are not run: each records the plan it
        # resolved in its provenance
        monkeypatch.setattr(simulation, "_run_study", lambda context, replication_fn: [])
        for d in (0, 3):
            spec = SyntheticSpec(n=50, d=d, seed=33)
            assert run_rate_experiment(spec).provenance["replications"] == 200
            assert run_distribution_experiment(spec).provenance["replications"] == 250
            # a given field replaces the design, an empty one included
            given = ExperimentPlan(pl_pairs=[(0.5, 3)], statistics={"coverage"})
            dist = run_distribution_experiment(spec, given).provenance
            assert (dist["pl_pairs"], dist["statistics"]) == ([[0.5, 3]], ["coverage"])
            with pytest.raises(InvalidArgumentError, match="needs one of"):
                run_rate_experiment(spec, ExperimentPlan(statistics=frozenset()))

    def test_stream_space_bounds_the_attempts(self):
        last = simulation._replication_stream(1, 0, 0, (1 << 12) - 1)
        assert last == (1 << 56) | ((1 << 12) - 1)
        with pytest.raises(ConfigurationError, match="exhausted the stream space"):
            simulation._replication_stream(1, 0, 0, 1 << 12)

    def test_paper_pairs(self):
        assert rate_experiment_pairs() == [
            (1.0, 50), (0.5, 25), (0.222, 25), (0.625, 5), (0.4, 5), (0.278, 5)
        ]

    def test_effective_sample_size(self):
        n_a = effective_sample_size(200, 5)
        assert n_a == pytest.approx(200 / (6 * math.log(200)), rel=1e-12)
        assert distribution_sampling_probability(200, 5) == pytest.approx(
            2 / n_a, rel=1e-12
        )


class TestRateExperiment:
    def test_structure_and_determinism(self):
        spec = SyntheticSpec(n=30, d=1, seed=20)
        plan = ExperimentPlan(pl_pairs=[(0.8, 4), (0.8, 16)], replications=6, workers=1)
        res_serial = run_rate_experiment(spec, plan)
        plan8 = ExperimentPlan(pl_pairs=[(0.8, 4), (0.8, 16)], replications=6, workers=8)
        res_threaded = run_rate_experiment(spec, plan8)
        assert res_serial.to_dict() == res_threaded.to_dict()
        for setting in res_serial.settings:
            assert len(setting.records["replication"]) == 6
            assert {"alpha_linf", "beta_rel_l2"} <= set(setting.aggregates)

    def test_more_information_less_error(self):
        spec = SyntheticSpec(n=40, d=1, seed=21)
        plan = ExperimentPlan(pl_pairs=[(1.0, 64), (0.5, 2)], replications=10)
        res = run_rate_experiment(spec, plan)
        rich = res.settings[0].aggregates["alpha_linf"]["mean"]
        poor = res.settings[1].aggregates["alpha_linf"]["mean"]
        assert rich < poor

    def test_requires_rate_statistic(self):
        spec = SyntheticSpec(n=20, d=1, seed=22)
        plan = ExperimentPlan(pl_pairs=[(0.9, 4)], replications=2,
                              statistics=frozenset({"coverage"}))
        with pytest.raises(InvalidArgumentError):
            run_rate_experiment(spec, plan)

    def test_refuses_distribution_statistics(self):
        # a study would run without recording them while its provenance
        # listed them
        spec = SyntheticSpec(n=20, d=1, seed=22)
        plan = ExperimentPlan(pl_pairs=[(0.9, 4)], replications=2,
                              statistics=frozenset({"alpha_linf", "coverage", "hist_A"}))
        with pytest.raises(InvalidArgumentError, match=r"\['coverage', 'hist_A'\]"):
            run_rate_experiment(spec, plan)

    def test_beta_statistic_needs_covariates(self):
        spec = SyntheticSpec(n=20, d=0, seed=23)
        plan = ExperimentPlan(pl_pairs=[(0.9, 4)], replications=2,
                              statistics=simulation.RATE_STATISTICS)
        with pytest.raises(InvalidArgumentError, match="beta_rel_l2 is undefined"):
            run_rate_experiment(spec, plan)

    @pytest.mark.parametrize("d", [0, 2])
    def test_default_plan_runs_the_study_grid(self, d):
        spec = SyntheticSpec(n=40, d=d, seed=34)
        res = run_rate_experiment(spec, ExperimentPlan(replications=2))
        assert res.provenance["pl_pairs"] == [list(pair) for pair in rate_experiment_pairs()]
        assert res.provenance["replications"] == 2
        statistics = res.provenance["statistics"]
        assert statistics == (["alpha_linf", "beta_rel_l2"] if d else ["alpha_linf"])
        assert [(s.p, s.L) for s in res.settings] == rate_experiment_pairs()
        for setting in res.settings:
            assert set(statistics) <= set(setting.records)
            assert len(setting.records["replication"]) == 2

    def test_hopelessly_sparse_raises_configuration_error(self):
        spec = SyntheticSpec(n=24, d=0, seed=24)
        plan = ExperimentPlan(pl_pairs=[(0.01, 2)], replications=3,
                              statistics=frozenset({"alpha_linf"}))
        with pytest.raises(ConfigurationError):
            run_rate_experiment(spec, plan)

    def test_mostly_disconnected_setting_refused(self):
        # 2 replications kept after 3 disconnected draws: 3 of 5 draws
        plan = ExperimentPlan(pl_pairs=[(0.2, 3)], replications=2,
                              statistics=frozenset({"alpha_linf"}))
        rows = [{"replication": k, "converged": True, "resamples": r} for k, r in enumerate((1, 2))]
        with pytest.raises(ConfigurationError, match=r"more than half of the draws at \(p=0.2, L=3\)"):
            simulation._setting_result(plan, 0.2, 3, rows)

    def test_resampling_keeps_replication_count(self):
        # sparse enough that some draws disconnect but not hopeless
        spec = SyntheticSpec(n=24, d=0, seed=25)
        plan = ExperimentPlan(pl_pairs=[(0.16, 2)], replications=12,
                              statistics=frozenset({"alpha_linf"}))
        res = run_rate_experiment(spec, plan)
        setting = res.settings[0]
        assert setting.records["replication"].tolist() == list(range(12))
        assert setting.resamples >= 1
        # the stream that produced each kept draw is recorded; resampled
        # replications advanced past their base stream
        np.testing.assert_array_equal(
            setting.records["stream"] % (1 << 12), setting.records["resamples"]
        )


class TestDistributionExperiment:
    def test_fields_and_blocks(self):
        spec = SyntheticSpec(n=36, d=2, seed=26)
        plan = ExperimentPlan(
            pl_pairs=[(0.7, 6)], replications=8,
            statistics=frozenset({"qq_alpha1", "hist_A", "hist_B", "coverage"}),
        )
        res = run_distribution_experiment(spec, plan)
        setting = res.settings[0]
        for key in ("alpha1_err", "alpha1_std_plugin", "a_stat", "b_stat",
                    "var_c_oracle", "cover_alpha1", "cover_beta1",
                    "var_alpha1_oracle", "var_beta1_oracle"):
            assert setting.records[key].shape == (8,)
        assert "qq_alpha1" in setting.extras
        assert "hist_A" in setting.extras and "hist_B" in setting.extras
        assert len(setting.extras["hist_A"]["counts"]) == 30
        assert 0.0 <= setting.extras["coverage"]["alpha1"] <= 1.0
        qq = setting.extras["qq_alpha1"]
        assert len(qq["sorted_values"]) == 8
        assert qq["sorted_values"] == sorted(qq["sorted_values"])

    def test_aggregates_cover_converged_fits_only(self):
        # sparse designs where many fits stop with no MLE, and at
        # (0.04, 1) every one does
        plan = ExperimentPlan(
            pl_pairs=[(0.05, 1), (0.03, 5), (0.04, 1)], replications=60,
            statistics=simulation.DISTRIBUTION_STATISTICS, workers=2,
        )
        res = run_distribution_experiment(SyntheticSpec(n=200, d=5, seed=7), plan)
        counts = []
        for setting in res.settings:
            records, aggregates, extras = setting.records, setting.aggregates, setting.extras
            kept = records["converged"]
            counts.append(int(kept.sum()))
            assert all(column.shape == (60,) for column in records.values())
            # the draws' bookkeeping is over every replication
            assert aggregates["converged"]["mean"] == pytest.approx(kept.mean())
            assert aggregates["resamples"]["mean"] == pytest.approx(records["resamples"].mean())
            if not kept.any():
                assert set(aggregates) == {"converged", "resamples"}
                assert set(extras) == {"c_dot_truth"}
                continue
            for name in ("alpha1", "beta1"):
                expected = records[f"cover_{name}"][kept].mean()
                assert extras["coverage"][name] == pytest.approx(expected)
                assert aggregates[f"cover_{name}"]["mean"] == pytest.approx(expected)
            assert aggregates["b_stat"]["mean"] == pytest.approx(records["b_stat"][kept].mean())
            assert extras["hist_B"]["mean"] == pytest.approx(records["b_stat"][kept].mean())
            assert len(extras["qq_alpha1"]["sorted_values"]) == kept.sum()
            mc_var = records["c_dot_fit"][kept].var(ddof=1) if kept.sum() > 1 else 0.0
            assert extras["contrast_variance"]["mc_var"] == pytest.approx(mc_var)
        assert 0 < counts[0] < counts[1] < 60 and counts[2] == 0
        # a no_mle fit returns the zero vector, whose wide plug-in
        # interval skews coverage taken over every replication
        sparse = res.settings[1].records
        assert (res.settings[1].extras["coverage"]["beta1"]
                > sparse["cover_beta1"].mean())

    def test_worker_independence(self):
        spec = SyntheticSpec(n=36, d=2, seed=27)
        kwargs = dict(
            pl_pairs=[(0.7, 6)], replications=6,
            statistics=frozenset({"qq_alpha1", "coverage"}),
        )
        res1 = run_distribution_experiment(spec, ExperimentPlan(workers=1, **kwargs))
        res4 = run_distribution_experiment(spec, ExperimentPlan(workers=4, **kwargs))
        assert res1.to_dict() == res4.to_dict()

    def test_requires_distribution_statistic(self):
        spec = SyntheticSpec(n=20, d=1, seed=28)
        plan = ExperimentPlan(pl_pairs=[(0.9, 4)], replications=2,
                              statistics=frozenset({"alpha_linf"}))
        with pytest.raises(InvalidArgumentError, match="needs one of"):
            run_distribution_experiment(spec, plan)

    @pytest.mark.parametrize("d", [0, 2])
    def test_default_plan_runs_the_study_setting(self, d):
        spec = SyntheticSpec(n=40, d=d, seed=35)
        res = run_distribution_experiment(spec, ExperimentPlan(replications=2))
        p = distribution_sampling_probability(40, d)
        assert res.provenance["pl_pairs"] == [[p, 20]]
        assert res.provenance["replications"] == 2
        assert res.provenance["statistics"] == sorted(simulation.DISTRIBUTION_STATISTICS)
        (setting,) = res.settings
        assert (setting.p, setting.L) == (p, 20)
        assert len(setting.records["replication"]) == 2
        assert {"qq_alpha1", "hist_A", "hist_B", "coverage"} <= set(setting.extras)

    def test_refuses_rate_statistics(self):
        spec = SyntheticSpec(n=20, d=1, seed=28)
        plan = ExperimentPlan(pl_pairs=[(0.9, 4)], replications=2,
                              statistics=frozenset({"coverage", "alpha_linf"}))
        with pytest.raises(InvalidArgumentError, match=r"\['alpha_linf'\]"):
            run_distribution_experiment(spec, plan)

    def test_json_serializable(self):
        import json

        spec = SyntheticSpec(n=30, d=1, seed=29)
        plan = ExperimentPlan(pl_pairs=[(0.8, 4)], replications=3,
                              statistics=frozenset({"qq_alpha1"}))
        res = run_distribution_experiment(spec, plan)
        text = json.dumps(res.to_dict())
        assert json.loads(text)["kind"] == "distribution"

    def test_replication_builds_no_factor(self, monkeypatch):
        # the six variances come from two dense solves, at any n
        n, d = 300, 3
        spec = SyntheticSpec(n=n, d=d, seed=31)
        p = distribution_sampling_probability(n, d)
        plan = ExperimentPlan(pl_pairs=[(p, 20)], replications=1,
                              statistics=frozenset({"coverage"}))
        context = simulation._StudyContext(spec, plan, *generate_truth(spec))

        def refuse(*args, **kwargs):
            raise AssertionError("factor built in a replication")

        monkeypatch.setattr(inference, "_invert_tree", refuse)
        rec = simulation._distribution_replication(context, (p, 20, 0, 0))
        assert rec["converged"] and rec["var_c_oracle"] > 0 and rec["var_beta1_oracle"] > 0

    def test_replication_records_the_solved_variances(self):
        # the record holds each oracle variance as solved, not the square
        # of its square root, which can be an ulp away
        n, d = 200, 5
        spec = SyntheticSpec(n=n, d=d, seed=20250801)
        p = distribution_sampling_probability(n, d)
        plan = ExperimentPlan(pl_pairs=[(p, 20)], replications=10,
                              statistics=frozenset({"coverage"}))
        context = simulation._StudyContext(spec, plan, *generate_truth(spec))
        columns = np.zeros((n + d, 3))
        columns[:, 0] = simulation._default_contrast(n, d)
        columns[0, 1] = columns[n, 2] = 1.0
        for rep in range(10):
            rec = simulation._distribution_replication(context, (p, 20, 0, rep))
            data = sample_comparisons(context.cov, context.truth, p, 20,
                                      rng_stream(spec.seed, rec["stream"]))
            oracle = inference._variances_by_solve(data, context.cov, context.truth, columns)
            assert rec["var_alpha1_oracle"] == oracle[1]
            assert rec["var_beta1_oracle"] == oracle[2]


class TestKsPipeline:
    def test_standard_normal_sample_passes(self):
        # pipeline self-test: genuinely standard-normal values pass the
        # same KS machinery below the 5% critical value for 250 samples
        values = rng_stream(4242, 0).normal(size=250)
        assert ks_distance_to_normal(values) <= 0.086

    def test_shifted_sample_fails(self):
        values = rng_stream(4242, 1).normal(size=250) + 1.0
        assert ks_distance_to_normal(values) > 0.2

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgumentError):
            ks_distance_to_normal([])


class TestWorkerPool:
    BLAS_PREFIXES = ("OMP_", "OPENBLAS_", "MKL_")

    def blas_env(self):
        return {k: v for k, v in os.environ.items() if k.startswith(self.BLAS_PREFIXES)}

    def pools_started(self, monkeypatch, workers):
        """The sizes and BLAS variables of the pools a three-replication
        rate study at ``workers`` asks for, run in this process."""
        started = []

        class InProcessPool:
            """Records what the study asks for and runs its tasks here."""

            def __init__(self, processes, initializer, initargs):
                started.append((processes, {
                    name: os.environ.get(name)
                    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
                }))
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, fn, tasks, chunksize):
                return map(fn, tasks)

        def get_context(method):
            assert method == "spawn"
            return type("SpawnContext", (), {"Pool": InProcessPool})

        monkeypatch.setattr(multiprocessing, "get_context", get_context)
        monkeypatch.setattr(simulation, "_worker_state", None)
        plan = ExperimentPlan(pl_pairs=[(0.9, 4)], replications=3, workers=workers)
        res = run_rate_experiment(SyntheticSpec(n=20, d=1, seed=30), plan)
        assert res.settings[0].records["replication"].tolist() == [0, 1, 2]
        return started

    def test_never_more_processes_than_replications(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        before = self.blas_env()
        started = self.pools_started(monkeypatch, workers=10_000)
        one = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
        assert started == [(3, one)]
        assert self.blas_env() == before

    def test_no_worker_count_is_one_process(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        assert [size for size, _ in self.pools_started(monkeypatch, workers=None)] == [1]

    def test_never_more_processes_than_cores(self, monkeypatch):
        # one usable core: by affinity where the platform has it, else
        # by the machine's CPU count
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert [size for size, _ in self.pools_started(monkeypatch, workers=4)] == [1]
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert [size for size, _ in self.pools_started(monkeypatch, workers=4)] == [1]

    def test_output_independent_of_workers_and_blas_environment(self, tmp_path):
        # n = 200 is large enough for a multithreaded BLAS to change the
        # last bits of the Cholesky factor and the products behind each
        # variance model.  The CLI runs with one BLAS thread and forks its
        # workers; the library run here, in a process that loaded numpy
        # first, spawns them, so the two routes are checked against each
        # other.
        from care_rank import cli
        from care_rank.io import write_experiment_files

        argv = ["experiment", "--kind", "distribution", "--n", "200", "--d", "5",
                "--seed", "31", "--replications", "4"]
        env = _subprocess_env()
        pinned = dict(env, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
        two_threads = dict(env, OMP_NUM_THREADS="2", OPENBLAS_NUM_THREADS="2")
        runs = (("w1", 1, env), ("w2", 2, env), ("w1-pinned", 1, pinned),
                ("w2-two-threads", 2, two_threads))
        outputs = []
        for label, workers, run_env in runs:
            out = tmp_path / label
            subprocess.run(
                [sys.executable, "-m", "care_rank.cli", *argv,
                 "--workers", str(workers), "--out", str(out)],
                env=run_env, check=True, capture_output=True,
            )
            outputs.append(out / "experiment")
        config = cli.resolve_config(cli.build_parser().parse_args(argv))
        spec = SyntheticSpec(n=200, d=5, seed=31)
        plan = ExperimentPlan(
            pl_pairs=[(distribution_sampling_probability(200, 5), 20)], replications=4,
            statistics=frozenset({"qq_alpha1", "hist_A", "hist_B", "coverage"}), workers=2,
        )
        outputs.append(tmp_path / "library")
        write_experiment_files(
            str(outputs[-1]), run_distribution_experiment(spec, plan), config.provenance()
        )
        files = [{name: (out / name).read_bytes() for name in ("records.csv", "summary.csv")}
                 for out in outputs]
        assert all(found == files[0] for found in files[1:])


def _subprocess_env(**blas) -> dict:
    """This environment with the package importable and the BLAS thread
    variables replaced by ``blas``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(care_rank.__file__)))
    env = {k: v for k, v in os.environ.items() if k not in care_rank._BLAS_THREAD_ENV}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return {**env, **blas}


# Records the start method of every pool a study asks for, runs a small
# study, then prints the methods and the BLAS thread variables.
_START_METHOD_PROBE = """
import json, multiprocessing, os, sys
started, get_context = [], multiprocessing.get_context
multiprocessing.get_context = lambda method: started.append(method) or get_context(method)
{before}
{study}
print(json.dumps({{"methods": started, "env": [os.environ.get(k) for k in {names!r}]}}))
"""

_LIBRARY_STUDY = """
from care_rank.simulation import ExperimentPlan, SyntheticSpec, run_rate_experiment
run_rate_experiment(SyntheticSpec(n=20, d=1, seed=30),
                    ExperimentPlan(pl_pairs=[(0.9, 4)], replications=3, workers=2))
"""

_CLI_STUDY = """
from care_rank.cli import main
assert main(["experiment", "--kind", "rate", "--n", "20", "--d", "1", "--seed", "30",
             "--pairs", "0.9:4", "--replications", "3", "--out", "out"{config}]) == 0
"""

_ONE = dict.fromkeys(care_rank._BLAS_THREAD_ENV, "1")


@pytest.mark.parametrize("blas, before, study, method, env_after", [
    # numpy not yet loaded and all three variables at 1: the process is
    # pinned, and its workers fork
    (_ONE, "", _LIBRARY_STUDY, "fork", ["1", "1", "1"]),
    # numpy loaded first, or a variable unset: the BLAS state is unknown
    (_ONE, "import numpy", _LIBRARY_STUDY, "spawn", ["1", "1", "1"]),
    ({"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}, "", _LIBRARY_STUDY, "spawn",
     ["1", "1", None]),
    # the experiment command pins itself before numpy loads, also when a
    # config file is read first ...
    ({}, "", _CLI_STUDY.format(config=""), "fork", ["1", "1", "1"]),
    ({"OMP_NUM_THREADS": "2"}, "", _CLI_STUDY.format(config=', "--config", "study.cfg"'),
     "fork", ["1", "1", "1"]),
    # ... but leaves the environment of a process with numpy loaded alone
    ({}, "import numpy", _CLI_STUDY.format(config=""), "spawn", [None, None, None]),
], ids=["pinned", "numpy-first", "partly-pinned", "cli", "cli-config", "cli-numpy-first"])
def test_workers_fork_only_from_a_pinned_process(tmp_path, blas, before, study, method,
                                                 env_after):
    (tmp_path / "study.cfg").write_text("workers = 2\n", encoding="ascii")
    code = _START_METHOD_PROBE.format(before=before, study=study,
                                      names=care_rank._BLAS_THREAD_ENV)
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, check=True,
                          env=_subprocess_env(**blas), capture_output=True, text=True)
    found = json.loads(proc.stdout.splitlines()[-1])
    assert found == {"methods": [method], "env": env_after}
