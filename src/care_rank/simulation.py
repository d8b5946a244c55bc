"""Synthetic data generation and the Monte Carlo experiment harness.

Data follows the generating process used throughout the synthetic
studies: covariates uniform on [-0.5, 0.5] then standardized and
rescaled, intrinsic scores uniform on [0.5, log(5) - 0.5], covariate
effects uniform on the sphere of radius 0.5 * sqrt(n/(d+1)), and the
joint truth projected onto the identifiable subspace (keeping the
implied score spread, hence the condition number, near its designed
bound of 5).  Comparison graphs are Erdos-Renyi: each pair is observed
independently with probability p, and each observed pair contributes L
Bernoulli trials.

Randomness comes from counter-based Philox streams keyed by
(seed, stream_id), so every replication owns an independent,
platform-stable stream.  A study runs its replications in a pool of
worker processes, each with one BLAS thread; a replication's
floating-point results depend on the BLAS thread count, so pinning it
in every worker (one worker included) is what makes a study's output
independent of both the worker count and the caller's BLAS environment.
A process that imports this module before numpy, with every BLAS
thread variable at 1, as ``care-rank experiment`` does, forks its
workers, which inherit its one-thread BLAS.  Any other process, one
that loaded numpy first included, spawns them as interpreters that
each load numpy with one thread.
"""

from __future__ import annotations

import operator
import os
import sys
from dataclasses import dataclass
from itertools import islice
from math import log, sqrt

from . import _BLAS_THREAD_ENV

# Whether this process loads numpy with one BLAS thread: numpy is not
# loaded yet and every thread variable reads 1.  Only then may a study's
# workers fork from it.
_BLAS_PINNED = "numpy" not in sys.modules and all(
    os.environ.get(name) == "1" for name in _BLAS_THREAD_ENV
)

import numpy as np

from .errors import ConfigurationError, DegenerateContrastError, InvalidArgumentError
from .estimation import fit_mle, preprocess_covariates, project_to_theta
from .inference import _variances_by_solve
from .model import (
    ComparisonData,
    CovariateMatrix,
    ParamVector,
    build_projection,
    is_connected,
    sigmoid,
)
from .normal import normal_cdf, normal_quantile

__all__ = [
    "SyntheticSpec",
    "ExperimentPlan",
    "SettingResult",
    "ExperimentResult",
    "rng_stream",
    "draw_covariates",
    "draw_alpha",
    "draw_beta",
    "generate_truth",
    "sample_comparisons",
    "run_rate_experiment",
    "run_distribution_experiment",
    "rate_experiment_pairs",
    "distribution_sampling_probability",
    "effective_sample_size",
    "ks_distance_to_normal",
]

RATE_STATISTICS = frozenset({"alpha_linf", "beta_rel_l2"})
DISTRIBUTION_STATISTICS = frozenset({"qq_alpha1", "hist_A", "hist_B", "coverage"})
KNOWN_STATISTICS = RATE_STATISTICS | DISTRIBUTION_STATISTICS

HIST_RANGE = (-4.0, 4.0)
HIST_BINS = 30

# Fixed stream ids for the one-off draws; replication streams are
# composed well above this range.
_STREAM_COVARIATES = 1
_STREAM_ALPHA = 2
_STREAM_BETA = 3
_STREAM_SAMPLE = 4

_MAX_RESAMPLE_ATTEMPTS = 200

# Candidate pairs per uniform draw in sample_comparisons, which bounds
# its memory to this many doubles plus the kept pairs.
_SAMPLE_CHUNK = 1 << 16

# A study sends its replications to the workers in chunks, about this
# many per worker: each task and each result through the parent costs it
# CPU time that the workers, one per core, would otherwise have, while
# the last chunk holds a worker up for only about 1/32 of its share.
_CHUNKS_PER_WORKER = 32


def _integer(name: str, value, least: int) -> int:
    """``value`` as an int of at least ``least``; a float or any other
    non-integer is refused, not truncated."""
    try:
        number = operator.index(value)
    except TypeError:
        raise InvalidArgumentError(f"{name} must be an integer, got {value!r}") from None
    if number < least:
        raise InvalidArgumentError(f"{name} must be at least {least}, got {number}")
    return number


def rng_stream(seed: int, stream_id: int) -> np.random.Generator:
    """Independent reproducible generator for (seed, stream_id).

    Streams are Philox4x64 counter-based generators keyed by the 128-bit
    pair (seed, stream_id); distinct ids give statistically independent
    streams and the output is identical across platforms and thread
    counts.
    """
    seed, stream_id = _integer("seed", seed, 0), _integer("stream_id", stream_id, 0)
    if not (seed < 2**64 and stream_id < 2**64):
        raise InvalidArgumentError("seed and stream_id must fit in 64 bits")
    key = np.array([seed, stream_id], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _replication_stream(kind_code: int, pair_index: int, replication: int, attempt: int) -> int:
    if attempt >= 1 << 12:
        raise ConfigurationError("resample attempts exhausted the stream space")
    return (kind_code << 56) | (pair_index << 40) | (replication << 12) | attempt


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of the synthetic generating process."""

    n: int = 200
    d: int = 5
    seed: int = 0

    def __post_init__(self):
        for name, least in (("n", 2), ("d", 0), ("seed", 0)):
            object.__setattr__(self, name, _integer(name, getattr(self, name), least))


def effective_sample_size(n: int, d: int) -> float:
    """n / ((d+1) log n), the graph-sparsity scale of the normality studies."""
    return n / ((d + 1) * log(n))


def distribution_sampling_probability(n: int, d: int) -> float:
    """2 / effective_sample_size, the p used in the normality studies."""
    return 2.0 / effective_sample_size(n, d)


def rate_experiment_pairs() -> list[tuple[float, int]]:
    """The six (p, L) pairs of the rate-of-convergence study."""
    return [(1.0, 50), (0.5, 25), (0.222, 25), (0.625, 5), (0.4, 5), (0.278, 5)]


def draw_covariates(spec: SyntheticSpec) -> np.ndarray:
    """Raw feature matrix, entrywise uniform on [-0.5, 0.5]."""
    return rng_stream(spec.seed, _STREAM_COVARIATES).uniform(-0.5, 0.5, size=(spec.n, spec.d))


def draw_alpha(spec: SyntheticSpec) -> np.ndarray:
    """Pre-projection intrinsic scores, i.i.d. uniform on [0.5, log(5) - 0.5]."""
    return rng_stream(spec.seed, _STREAM_ALPHA).uniform(0.5, log(5.0) - 0.5, size=spec.n)


def draw_beta(spec: SyntheticSpec) -> np.ndarray:
    """Covariate effect drawn uniformly from the sphere of radius
    0.5 * sqrt(n / (d + 1))."""
    if spec.d == 0:
        return np.zeros(0)
    g = rng_stream(spec.seed, _STREAM_BETA).normal(size=spec.d)
    return g * (0.5 * sqrt(spec.n / (spec.d + 1)) / np.linalg.norm(g))


def generate_truth(spec: SyntheticSpec) -> tuple[CovariateMatrix, ParamVector]:
    """Draw covariates and true parameters, projected onto the
    identifiable subspace.  The projection only recenters alpha; the
    covariate effect keeps its exact designed norm."""
    cov = preprocess_covariates(draw_covariates(spec), standardize=True)
    truth = project_to_theta(
        ParamVector(draw_alpha(spec), draw_beta(spec)), build_projection(cov)
    )
    return cov, truth


def sample_comparisons(
    cov: CovariateMatrix,
    truth: ParamVector,
    p: float,
    L: int,
    seed: int | np.random.Generator,
) -> ComparisonData:
    """Erdos-Renyi comparison graph with binomial outcomes.

    Every unordered pair enters independently with probability p; an
    included pair (i, j) records Binomial(L, P(j beats i)) wins for the
    higher-indexed item.  A disconnected draw is returned as-is; the
    fitting stage is the one that rejects it.
    """
    if not (0.0 < p <= 1.0):
        raise InvalidArgumentError(f"p must be in (0, 1], got {p}")
    L = _integer("L", L, 1)
    rng = seed if isinstance(seed, np.random.Generator) else rng_stream(seed, _STREAM_SAMPLE)
    n = cov.n_items
    scores = truth.scores(cov)
    # Pair (i, j), i < j, is number starts[i] + j - i - 1 in row-major
    # order of the upper triangle.  One uniform per pair, drawn in chunks
    # of pair numbers: successive draws continue one Philox stream, so
    # the kept pairs are those of a single draw over all n (n - 1) / 2.
    rows = np.arange(n - 1, dtype=np.int64)
    starts = rows * (2 * n - rows - 1) // 2
    n_pairs = n * (n - 1) // 2
    kept = [np.zeros(0, dtype=np.int64)]
    for first in range(0, n_pairs, _SAMPLE_CHUNK):
        draws = rng.random(min(_SAMPLE_CHUNK, n_pairs - first))
        kept.append(np.flatnonzero(draws < p) + first)
    pairs = np.concatenate(kept)
    ii = np.searchsorted(starts, pairs, side="right") - 1
    jj = pairs - starts[ii] + ii + 1
    win_probs = sigmoid(scores[jj] - scores[ii])
    wins = rng.binomial(L, win_probs) if ii.size else np.zeros(0, dtype=np.int64)
    return ComparisonData(n, ii, jj, np.full(ii.size, L, dtype=np.int64), wins)


@dataclass(frozen=True)
class ExperimentPlan:
    """What to run: the (p, L) grid, replication count, and statistics."""

    pl_pairs: tuple
    replications: int = 200
    statistics: frozenset = frozenset({"alpha_linf", "beta_rel_l2"})
    level: float = 0.95
    workers: int | None = None

    def __post_init__(self):
        pairs = tuple((float(p), _integer("L", L, 1)) for p, L in self.pl_pairs)
        if not pairs:
            raise InvalidArgumentError("pl_pairs must be nonempty")
        for p, _ in pairs:
            if not (0.0 < p <= 1.0):
                raise InvalidArgumentError(f"p must be in (0, 1], got {p}")
        object.__setattr__(self, "pl_pairs", pairs)
        object.__setattr__(self, "replications", _integer("replications", self.replications, 1))
        stats = frozenset(self.statistics)
        unknown = stats - KNOWN_STATISTICS
        if unknown:
            raise InvalidArgumentError(f"unknown statistics: {sorted(unknown)}")
        object.__setattr__(self, "statistics", stats)
        if not (0.0 < self.level < 1.0):
            raise InvalidArgumentError("level must be in (0, 1)")
        if self.workers is not None:
            object.__setattr__(self, "workers", _integer("workers", self.workers, 1))


@dataclass
class SettingResult:
    p: float
    L: int
    resamples: int
    aggregates: dict
    extras: dict
    records: dict[str, np.ndarray]  # one column per recorded quantity, in replication order


@dataclass
class ExperimentResult:
    kind: str
    settings: list[SettingResult]
    provenance: dict

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "provenance": self.provenance,
            "settings": [
                {**vars(s), "records": [dict(zip(s.records, row)) for row in
                                        zip(*(column.tolist() for column in s.records.values()))]}
                for s in self.settings
            ],
        }


def _usable_cores() -> int:
    """CPUs this process may run on: its affinity set where the platform
    reports one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _sample_connected(
    spec: SyntheticSpec,
    cov: CovariateMatrix,
    truth: ParamVector,
    p: float,
    L: int,
    kind_code: int,
    pair_index: int,
    replication: int,
) -> tuple[ComparisonData, int, int]:
    """Sample until connected, counting discarded draws and returning the
    stream id that produced the kept draw.  Each attempt uses a fresh
    sub-stream so replication counts stay exact."""
    attempt = 0
    while True:
        stream = _replication_stream(kind_code, pair_index, replication, attempt)
        data = sample_comparisons(cov, truth, p, L, rng_stream(spec.seed, stream))
        if is_connected(data):
            return data, attempt, stream
        attempt += 1
        if attempt >= _MAX_RESAMPLE_ATTEMPTS:
            raise ConfigurationError(
                f"replication {replication} at (p={p}, L={L}) stayed "
                f"disconnected after {attempt} draws; increase p"
            )


def _default_contrast(n: int, d: int) -> np.ndarray:
    c = np.zeros(n + d)
    c[0] = 1.0
    if d > 0:
        c[n] = 1.0
    return c


@dataclass(frozen=True)
class _StudyContext:
    """What every replication of one study reads.  The parent builds it
    once; the pool sends it once to each worker."""

    spec: SyntheticSpec
    plan: ExperimentPlan
    cov: CovariateMatrix
    truth: ParamVector


# The replication function and shared context of the study this worker
# process serves; installed by the pool initializer.
_worker_state: tuple | None = None


def _install_worker(replication_fn, context: _StudyContext) -> None:
    global _worker_state
    _worker_state = (replication_fn, context)


def _run_task(task: tuple) -> dict:
    replication_fn, context = _worker_state
    return replication_fn(context, task)


def _start_pool(processes: int, replication_fn, context: _StudyContext):
    """A pool of worker processes, each with one BLAS thread.

    When this process loaded numpy with one BLAS thread (``_BLAS_PINNED``)
    and the platform can fork, the workers are forked from it and inherit
    its BLAS and the study context; a BLAS with one thread starts none,
    so the fork copies no thread's locks.  Otherwise they are spawned
    interpreters.  Either way the BLAS thread variables are set to 1
    while the children start and restored after: a spawned child reads
    them when it loads numpy, while this process keeps its own
    environment and its already loaded BLAS."""
    import multiprocessing

    fork = _BLAS_PINNED and "fork" in multiprocessing.get_all_start_methods()
    saved = {name: os.environ.get(name) for name in _BLAS_THREAD_ENV}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_ENV, "1"))
    try:
        return multiprocessing.get_context("fork" if fork else "spawn").Pool(
            processes, _install_worker, (replication_fn, context)
        )
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def _run_study(context: _StudyContext, replication_fn) -> list[SettingResult]:
    """Every (p, L) setting's replications, in one pool of at most as many
    workers as there are replications or usable cores (more processes
    than cores only add start-up cost).  Results arrive in task order, and
    a chunk stops at its first failing replication, so a failing
    replication raises the same error at any worker count."""
    plan = context.plan
    tasks = [
        (p, L, pair_index, rep)
        for pair_index, (p, L) in enumerate(plan.pl_pairs)
        for rep in range(plan.replications)
    ]
    workers = min(plan.workers or 1, len(tasks), _usable_cores())
    chunksize = 1 + len(tasks) // (_CHUNKS_PER_WORKER * workers)
    with _start_pool(workers, replication_fn, context) as pool:
        rows = pool.imap(_run_task, tasks, chunksize)
        return [
            _setting_result(plan, p, L, list(islice(rows, plan.replications)))
            for p, L in plan.pl_pairs
        ]


def _mean_sd(values: np.ndarray) -> dict:
    values = values.astype(float)
    return {
        "mean": float(values.mean()),
        "sd": float(values.std(ddof=1)) if values.size > 1 else 0.0,
    }


def _converged(records: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """The records of the replications whose fit converged."""
    kept = records["converged"]
    return {key: column[kept] for key, column in records.items()}


def _setting_result(plan: ExperimentPlan, p: float, L: int, rows: list[dict]) -> SettingResult:
    records = {key: np.array([row[key] for row in rows]) for key in rows[0]}
    resamples = int(records["resamples"].sum())
    draws = plan.replications + resamples
    if resamples / draws > 0.5:
        raise ConfigurationError(
            f"more than half of the draws at (p={p}, L={L}) were "
            f"disconnected ({resamples} of {draws}); increase p"
        )
    # converged and resamples describe the draws, so their means are over
    # every replication; every other mean is over the converged fits only
    columns = _converged(records) if records["converged"].any() else {}
    columns.update((key, records[key]) for key in ("converged", "resamples"))
    aggregates = {
        key: _mean_sd(columns[key])
        for key in sorted(columns) if key not in ("replication", "stream")
    }
    return SettingResult(p, L, resamples, aggregates, {}, records)


def _check_statistics(plan: ExperimentPlan, kind: str, own: frozenset) -> None:
    """Refuse a plan that asks the ``kind`` study for none of its ``own``
    statistics, or for any it does not record."""
    if not plan.statistics & own:
        raise InvalidArgumentError(f"{kind} experiment needs one of {sorted(own)}")
    foreign = sorted(plan.statistics - own)
    if foreign:
        raise InvalidArgumentError(f"{kind} experiment does not record {foreign}")


def _provenance(spec: SyntheticSpec, plan: ExperimentPlan, kind: str) -> dict:
    # Worker count deliberately not recorded: results are identical for
    # any split of replications across worker processes.
    from . import __version__

    return {
        "seed": spec.seed,
        "n": spec.n,
        "d": spec.d,
        "replications": plan.replications,
        "pl_pairs": [[p, L] for p, L in plan.pl_pairs],
        "statistics": sorted(plan.statistics),
        "kind": kind,
        "rng": "philox4x64 key=(seed, stream_id)",
        "version": __version__,
    }


def run_rate_experiment(spec: SyntheticSpec, plan: ExperimentPlan) -> ExperimentResult:
    """Replicated sample-fit-record loop measuring estimation error.

    Per replication: draw a comparison graph (resampling disconnected
    draws with fresh sub-streams), fit, and record the max intrinsic-score
    error and/or the relative covariate-effect error.
    """
    _check_statistics(plan, "rate", RATE_STATISTICS)
    if "beta_rel_l2" in plan.statistics and spec.d == 0:
        raise InvalidArgumentError("beta_rel_l2 is undefined without covariates")
    settings = _run_study(_StudyContext(spec, plan, *generate_truth(spec)), _rate_replication)
    return ExperimentResult("rate", settings, _provenance(spec, plan, "rate"))


def _rate_replication(context: _StudyContext, task: tuple) -> dict:
    p, L, pair_index, rep = task
    truth, statistics = context.truth, context.plan.statistics
    data, resamples, stream = _sample_connected(
        context.spec, context.cov, truth, p, L, 1, pair_index, rep
    )
    fit = fit_mle(data, context.cov)
    rec = {"replication": rep, "stream": stream, "resamples": resamples,
           "converged": bool(fit.converged)}
    if "alpha_linf" in statistics:
        rec["alpha_linf"] = float(np.abs(fit.params.alpha - truth.alpha).max())
    if "beta_rel_l2" in statistics:
        rec["beta_rel_l2"] = float(
            np.linalg.norm(fit.params.beta - truth.beta) / np.linalg.norm(truth.beta)
        )
    return rec


def ks_distance_to_normal(values) -> float:
    """Kolmogorov-Smirnov distance between a sample and the standard normal."""
    x = np.sort(np.asarray(values, dtype=float))
    m = x.size
    if m == 0:
        raise InvalidArgumentError("need at least one value")
    cdf = normal_cdf(x)
    upper = float(np.max(np.arange(1, m + 1) / m - cdf))
    lower = float(np.max(cdf - np.arange(0, m) / m))
    return max(upper, lower)


def _qq_block(values: np.ndarray) -> dict:
    m = values.size
    probs = (np.arange(1, m + 1) - 0.5) / m
    return {
        "sorted_values": np.sort(values).tolist(),
        "normal_quantiles": normal_quantile(probs).tolist(),
        "ks_distance": ks_distance_to_normal(values),
    }


def _hist_block(values: np.ndarray) -> dict:
    counts, edges = np.histogram(values, bins=HIST_BINS, range=HIST_RANGE)
    return {
        "bin_edges": edges.tolist(),
        "counts": counts.tolist(),
        **_mean_sd(values),
        "ks_distance": ks_distance_to_normal(values),
    }


def _distribution_replication(context: _StudyContext, task: tuple) -> dict:
    """One replication of the distribution study: draw a connected
    graph, fit, and record the errors of alpha_1, beta_1 and the
    contrast, standardized by their variances at the truth (oracle) and
    at the fit (plug-in), each set from one ``_variances_by_solve``."""
    p, L, pair_index, rep = task
    spec, cov, truth = context.spec, context.cov, context.truth
    contrast = _default_contrast(spec.n, spec.d)
    zq = normal_quantile(1.0 - (1.0 - context.plan.level) / 2.0)
    data, resamples, stream = _sample_connected(spec, cov, truth, p, L, 2, pair_index, rep)
    fit = fit_mle(data, cov)
    # columns: the contrast, alpha_1 and, when d > 0, beta_1
    columns = np.zeros((spec.n + spec.d, 3 if spec.d else 2))
    columns[:, 0] = contrast
    columns[0, 1] = 1.0
    if spec.d > 0:
        columns[spec.n, 2] = 1.0
    oracle = _variances_by_solve(data, cov, truth, columns).tolist()
    plugin = _variances_by_solve(data, cov, fit.params, columns).tolist()
    var_c_oracle, var_alpha1_oracle = oracle[:2]
    var_c_plugin, var_alpha1_plugin = plugin[:2]
    if min(var_c_oracle, var_c_plugin) <= 0:
        raise DegenerateContrastError("contrast has zero plug-in variance")
    c_dot_fit = float(contrast @ fit.params.stacked)
    c_err = c_dot_fit - float(contrast @ truth.stacked)
    alpha1_err = float(fit.params.alpha[0] - truth.alpha[0])
    se1_true, se1_plugin = sqrt(var_alpha1_oracle), sqrt(var_alpha1_plugin)
    rec = {
        "replication": rep,
        "stream": stream,
        "resamples": resamples,
        "converged": bool(fit.converged),
        "alpha1_err": alpha1_err,
        "alpha1_std_oracle": alpha1_err / se1_true,
        "alpha1_std_plugin": alpha1_err / se1_plugin,
        "var_alpha1_oracle": var_alpha1_oracle,
        "a_stat": c_err / sqrt(var_c_oracle),
        "b_stat": c_err / sqrt(var_c_plugin),
        "c_dot_fit": c_dot_fit,
        "var_c_oracle": var_c_oracle,
        "var_c_plugin": var_c_plugin,
        "cover_alpha1": int(abs(alpha1_err) <= zq * se1_plugin),
    }
    if spec.d > 0:
        beta1_err = float(fit.params.beta[0] - truth.beta[0])
        rec["beta1_err"] = beta1_err
        rec["var_beta1_oracle"] = oracle[2]
        rec["cover_beta1"] = int(abs(beta1_err) <= zq * sqrt(plugin[2]))
    return rec


def run_distribution_experiment(spec: SyntheticSpec, plan: ExperimentPlan) -> ExperimentResult:
    """Replicated study of the standardized fitted quantities.

    Records, per replication, the first intrinsic score standardized by
    its plug-in and oracle standard errors, the error of the contrast
    alpha_1 + beta_1 (alpha_1 alone when d = 0) standardized at the
    truth (statistic named a_stat) and at the fit (b_stat),
    per-coordinate CI coverage indicators, and the oracle contrast
    variance.  Emits QQ and histogram summaries per setting.  These, the
    coverage and the contrast variance are over the converged fits.
    """
    _check_statistics(plan, "distribution", DISTRIBUTION_STATISTICS)
    context = _StudyContext(spec, plan, *generate_truth(spec))
    d = spec.d
    c_dot_truth = float(_default_contrast(spec.n, d) @ context.truth.stacked)

    settings = _run_study(context, _distribution_replication)
    for setting in settings:
        col = _converged(setting.records)
        extras = setting.extras = {"c_dot_truth": c_dot_truth}
        if not col["converged"].size:
            continue
        if "qq_alpha1" in plan.statistics:
            extras["qq_alpha1"] = _qq_block(col["alpha1_std_plugin"])
        if "hist_A" in plan.statistics:
            extras["hist_A"] = _hist_block(col["a_stat"])
        if "hist_B" in plan.statistics:
            extras["hist_B"] = _hist_block(col["b_stat"])
        if "coverage" in plan.statistics:
            extras["coverage"] = {"level": plan.level, "alpha1": float(col["cover_alpha1"].mean())}
            if d > 0:
                extras["coverage"]["beta1"] = float(col["cover_beta1"].mean())
        extras["contrast_variance"] = {
            "mc_var": float(col["c_dot_fit"].var(ddof=1)) if len(col["c_dot_fit"]) > 1 else 0.0,
            "mean_oracle_var": float(col["var_c_oracle"].mean()),
            "mean_plugin_var": float(col["var_c_plugin"].mean()),
        }
    return ExperimentResult(
        "distribution", settings, _provenance(spec, plan, "distribution")
    )
