"""Shared fixtures: the expensive n=200 Monte Carlo runs execute once per
session and feed both the acceptance criteria and the distributional
example checks.  Property tests draw the same examples on every run (a
derandomized hypothesis profile with no example database) and have no
per-example deadline, so the suite stays deterministic on slow machines."""

# Loaded before care_rank, so that this process never counts as pinned
# to one BLAS thread, whatever the environment, and its studies spawn
# their workers as any library caller's do; the forked route is tested in
# subprocesses.
import numpy
import pytest
from hypothesis import settings

from care_rank.simulation import (
    ExperimentPlan,
    SyntheticSpec,
    distribution_sampling_probability,
    rate_experiment_pairs,
    run_distribution_experiment,
    run_rate_experiment,
)

ACCEPTANCE_SEED = 20250801
ACCEPTANCE_N = 200
ACCEPTANCE_D = 5
ACCEPTANCE_WORKERS = 4

settings.register_profile("care-rank", derandomize=True, deadline=None, database=None)
settings.load_profile("care-rank")


@pytest.fixture(scope="session")
def distribution_study():
    """250 replications at (p, L) = (2 / effective sample size, 20)."""
    spec = SyntheticSpec(n=ACCEPTANCE_N, d=ACCEPTANCE_D, seed=ACCEPTANCE_SEED)
    p = distribution_sampling_probability(ACCEPTANCE_N, ACCEPTANCE_D)
    plan = ExperimentPlan(
        pl_pairs=[(p, 20)],
        replications=250,
        statistics=frozenset({"qq_alpha1", "hist_A", "hist_B", "coverage"}),
        workers=ACCEPTANCE_WORKERS,
    )
    return run_distribution_experiment(spec, plan)


@pytest.fixture(scope="session")
def rate_study():
    """50 replications of each of the six (p, L) designs."""
    spec = SyntheticSpec(n=ACCEPTANCE_N, d=ACCEPTANCE_D, seed=ACCEPTANCE_SEED)
    plan = ExperimentPlan(
        pl_pairs=rate_experiment_pairs(), replications=50, workers=ACCEPTANCE_WORKERS
    )
    return plan, run_rate_experiment(spec, plan)
