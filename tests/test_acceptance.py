"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Run with ``pytest tests/test_acceptance.py -s`` to see
the lines as they complete.  The heavy Monte Carlo studies (criteria 1-4)
run once per session through module-scoped fixtures; everything here
finishes in a few minutes on a laptop.
"""

import csv
import filecmp
import json
import math

import numpy as np
import pytest

from care_rank.cli import main
from care_rank.estimation import FitConfig, fit_mle
from care_rank.inference import plugin_variance_model, quadratic_approx_minimizer
from care_rank.model import (
    ParamVector,
    build_projection,
    gradient,
    hessian,
)
from care_rank.simulation import (
    SyntheticSpec,
    generate_truth,
    rng_stream,
    sample_comparisons,
)

from oracles import (
    central_difference_gradient,
    constraint_matrix,
    covariance_from_root,
    grid_search_mle,
    neg_log_likelihood,
    projected_hessian_by_nullspace,
    projector_by_nullspace,
    sample_small_instance,
    satisfies_penrose,
)

from conftest import ACCEPTANCE_D as D
from conftest import ACCEPTANCE_N as N
from conftest import ACCEPTANCE_SEED as SEED
from conftest import ACCEPTANCE_WORKERS as WORKERS


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_rate_scaling(rate_study):
    plan, result = rate_study
    x = np.array([math.log(1.0 / math.sqrt(p * L)) for p, L in plan.pl_pairs])
    details = []
    ok = True
    for stat in ("alpha_linf", "beta_rel_l2"):
        y = np.log([s.aggregates[stat]["mean"] for s in result.settings])
        slope = float(np.polyfit(x, y, 1)[0])
        r2 = float(np.corrcoef(x, y)[0, 1] ** 2)
        details.append(f"{stat}: slope={slope:.3f} R2={r2:.4f}")
        ok = ok and 0.8 <= slope <= 1.2 and r2 >= 0.9
    report(1, ok, "; ".join(details))


def test_criterion_2_normality_of_standardized_contrast(distribution_study):
    block = distribution_study.settings[0].extras["hist_B"]
    ks, mean, sd = block["ks_distance"], block["mean"], block["sd"]
    ok = ks <= 0.12 and -0.2 <= mean <= 0.2 and 0.85 <= sd <= 1.15
    report(2, ok, f"B statistic: KS={ks:.4f} mean={mean:.4f} sd={sd:.4f}")


def test_criterion_3_coverage(distribution_study):
    block = distribution_study.settings[0].extras["coverage"]
    alpha_cov, beta_cov = block["alpha1"], block["beta1"]
    ok = 0.91 <= alpha_cov <= 0.985 and 0.91 <= beta_cov <= 0.985
    report(3, ok, f"95% CI coverage: alpha1={alpha_cov:.3f} beta1={beta_cov:.3f}")


def test_criterion_4_plugin_variance(distribution_study):
    records = distribution_study.settings[0].records
    details = []
    ok = True
    for err_key, var_key, label in (
        ("alpha1_err", "var_alpha1_oracle", "e_1"),
        ("beta1_err", "var_beta1_oracle", "e_n+1"),
    ):
        mc = float(np.var(records[err_key], ddof=1))
        oracle = float(np.mean(records[var_key]))
        ratio = mc / oracle
        details.append(f"{label}: mc/oracle={ratio:.3f}")
        ok = ok and abs(ratio - 1.0) <= 0.2
    report(4, ok, "; ".join(details))


def test_criterion_5_approximation_error():
    below = 0
    worst = 0.0
    for offset in range(100):
        spec = SyntheticSpec(n=N, d=D, seed=50_000 + offset)
        cov, truth = generate_truth(spec)
        data = sample_comparisons(cov, truth, 0.5, 25, rng_stream(spec.seed, 4))
        fit = fit_mle(data, cov)
        surrogate = quadratic_approx_minimizer(data, cov, truth)
        ratio = np.linalg.norm(fit.params.stacked - surrogate.stacked) / np.linalg.norm(
            surrogate.stacked - truth.stacked
        )
        worst = max(worst, ratio)
        below += ratio < 0.2
    report(5, below >= 90, f"{below}/100 seeds with ratio < 0.2 (worst {worst:.4f})")


def test_criterion_6_oracle_equivalence():
    worst = 0.0
    for k in range(20):
        data, cov, _ = sample_small_instance(seed=900 + k, n=3, d=1,
                                             trials=int(8 + 2 * k))
        fit = fit_mle(data, cov, FitConfig(grad_tol=1e-10))
        oracle = grid_search_mle(data, cov, span=6.0)
        worst = max(worst, float(np.abs(fit.params.stacked - oracle).max()))
    report(6, worst <= 2e-3, f"20 all-pairs instances, worst gap {worst:.2e}")


def test_criterion_7_numerical_hygiene():
    checks = []

    data, cov, params = sample_small_instance(seed=2, n=4, d=2)
    g = gradient(data, cov, params)
    fd = central_difference_gradient(data, cov, params)
    checks.append(("gradient-fd", float(np.abs((fd - g) / g).max()) <= 1e-5))

    psd_ok = True
    for seed in range(3):
        d2, c2, p2 = sample_small_instance(seed=seed)
        psd_ok = psd_ok and np.linalg.eigvalsh(hessian(d2, c2, p2)).min() >= -1e-10
    checks.append(("hessian-psd", psd_ok))

    rng = np.random.default_rng(77)
    from care_rank.estimation import preprocess_covariates

    cov6 = preprocess_covariates(rng.normal(size=(6, 2)))
    z = constraint_matrix(cov6)
    p = projector_by_nullspace(z)
    checks.append((
        "projection",
        np.linalg.norm(p @ p - p) <= 1e-10
        and np.linalg.norm(p - p.T) <= 1e-10
        and np.linalg.norm(p @ z) <= 1e-10
        and np.linalg.norm(build_projection(cov6).apply(np.eye(8)) - p) <= 1e-10,
    ))

    dfit, cfit, _ = sample_small_instance(seed=13, n=5, d=2, trials=20)
    fit = fit_mle(dfit, cfit)
    m = projected_hessian_by_nullspace(hessian(dfit, cfit, fit.params), cfit)
    checks.append(("penrose", satisfies_penrose(m, covariance_from_root(plugin_variance_model(fit)))))

    base = neg_log_likelihood(dfit, cfit, fit.params)
    w = rng.normal(size=2)
    shift = ParamVector(
        fit.params.alpha + (0.8 - cfit.scaled @ w), fit.params.beta + w
    )
    shifted = neg_log_likelihood(dfit, cfit, shift)
    checks.append(("shift-invariance", abs(shifted - base) <= 1e-12 * max(1.0, abs(base))))

    failed = [name for name, ok in checks if not ok]
    report(7, not failed, "all hygiene checks" if not failed else f"failed: {failed}")


def test_criterion_8_determinism_across_workers(tmp_path):
    comparisons = {}
    for kind, pairs, reps in (("rate", "0.8:4,0.8:12", 8), ("distribution", "0.5:6", 10)):
        payloads = []
        for label, workers in (("w1", "1"), ("w8", "8")):
            out = tmp_path / f"{kind}-{label}"
            code = main([
                "experiment", "--kind", kind, "--n", "60", "--d", "2",
                "--seed", "31", "--pairs", pairs, "--replications", str(reps),
                "--workers", workers, "--out", str(out),
            ])
            assert code == 0
            result = json.loads((out / "experiment" / "result.json").read_text())
            result["provenance"].pop("timestamp")
            payloads.append(result)
        csv_same = all(
            filecmp.cmp(
                tmp_path / f"{kind}-w1" / "experiment" / name,
                tmp_path / f"{kind}-w8" / "experiment" / name,
                shallow=False,
            )
            for name in ("records.csv", "summary.csv")
        )
        comparisons[kind] = payloads[0] == payloads[1] and csv_same
    ok = all(comparisons.values())
    report(8, ok, f"1 vs 8 workers byte-identical: {comparisons}")
