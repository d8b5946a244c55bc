"""Command-line interface.

Subcommands: ``simulate`` (write a synthetic dataset), ``fit`` (estimate
scores from CSV data), ``infer`` (fit plus per-coefficient tests and
intervals), ``rank`` (fit plus ranking scores), and ``experiment`` (the
Monte Carlo studies).  Options can come from a flat key=value config
file via --config; command-line flags win over the file, which wins over
defaults.

Exit codes: 0 success; 2 malformed input file; 3 disconnected comparison
graph, or at ``infer``/``rank`` Hessian weights that split it; 4 fit did
not converge, or (without --ridge-alpha) the win graph is not strongly
connected so the MLE does not exist; 5 invalid configuration, an
unusable input path, degenerate inputs, or too little available memory
for the variance model of ``infer``/``rank``; 1 unexpected failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .errors import (
    CareRankError,
    ConfigurationError,
    ConnectivityError,
    DegenerateContrastError,
    DegenerateDesignError,
    InvalidArgumentError,
    ParseError,
)
from .estimation import FitConfig, FitResult, fit_mle, preprocess_covariates
from .inference import (
    FACTOR_PEAK_SQUARES,
    VarianceModel,
    care_ranking_scores,
    full_inference_report,
    plugin_variance_model,
)
from .io import (
    ParsedComparisons,
    config_hash,
    file_sha256,
    parse_comparisons_csv,
    parse_covariates_csv,
    read_config_file,
    write_comparisons_csv,
    write_covariates_csv,
    write_experiment_files,
    write_inference_csv,
    write_json,
    write_ranking_csv,
)
from .model import _component_preview
from .simulation import (
    ExperimentPlan,
    SyntheticSpec,
    distribution_sampling_probability,
    generate_truth,
    rate_experiment_pairs,
    run_distribution_experiment,
    run_rate_experiment,
    sample_comparisons,
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_PARSE = 2
EXIT_CONNECTIVITY = 3
EXIT_CONVERGENCE = 4
EXIT_CONFIG = 5


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route usage errors through the config exit code
        raise ConfigurationError(message)


def _parse_bool(text: str) -> bool:
    lowered = str(text).strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigurationError(f"expected a boolean, got {text!r}")


def _parse_pairs(text: str) -> tuple[tuple[float, int], ...]:
    pairs = []
    for chunk in str(text).split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" not in chunk:
            raise ConfigurationError(f"expected p:L, got {chunk!r}")
        p_str, l_str = chunk.split(":", 1)
        pairs.append((float(p_str), int(l_str)))
    if not pairs:
        raise ConfigurationError("no (p, L) pairs given")
    return tuple(pairs)


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved options for one command invocation."""

    command: str
    comparisons: str | None = None
    covariates: str | None = None
    out: str | None = None
    # fit options
    max_iters: int = 100
    grad_tol: float = 1e-8
    ridge_alpha: float = 0.0
    standardize: bool = True
    # inference options
    level: float = 0.95
    quantile_level: float = 0.995
    # simulate / experiment options
    n: int = 200
    d: int = 5
    seed: int = 0
    p: float = 1.0
    trials: int = 50
    kind: str = "rate"
    pairs: tuple | None = None
    replications: int | None = None
    workers: int | None = None
    statistics: str | None = None

    def __post_init__(self):
        # each level is checked only for the commands that read it, so a
        # shared config file may carry values meant for another command
        if self.command in ("infer", "experiment") and not (0.0 < self.level < 1.0):
            raise ConfigurationError(f"level must be in (0, 1), got {self.level}")
        if self.command == "rank" and not (0.5 < self.quantile_level < 1.0):
            raise ConfigurationError(
                f"quantile-level must be in (0.5, 1), got {self.quantile_level}"
            )

    def require(self, *fields: str) -> None:
        for name in fields:
            if getattr(self, name) is None:
                raise ConfigurationError(f"--{name.replace('_', '-')} is required")

    def fit_config(self) -> FitConfig:
        return FitConfig(
            max_iters=self.max_iters,
            grad_tol=self.grad_tol,
            ridge_alpha=self.ridge_alpha,
        )

    def provenance(self) -> dict:
        # Hash only what defines the computation: input files by their
        # bytes, not their paths, and only for the commands that read
        # them; the output path and the worker count must not change
        # result file contents.
        hashable = {
            k: v for k, v in dataclasses.asdict(self).items()
            if k not in ("out", "workers")
        }
        reads_inputs = self.command in ("fit", "infer", "rank")
        for key in ("comparisons", "covariates"):
            path = hashable[key]
            hashable[key] = file_sha256(path) if path and reads_inputs else None
        return {
            "version": __version__,
            "config_hash": config_hash(hashable),
            "seed": self.seed,
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        }


# converter applied to config-file strings (command-line values arrive
# already typed through argparse, except the string-typed options below)
_CONVERTERS = {
    "comparisons": str,
    "covariates": str,
    "out": str,
    "max_iters": int,
    "grad_tol": float,
    "ridge_alpha": float,
    "standardize": _parse_bool,
    "level": float,
    "quantile_level": float,
    "n": int,
    "d": int,
    "seed": int,
    "p": float,
    "trials": int,
    "kind": str,
    "pairs": _parse_pairs,
    "replications": int,
    "workers": int,
    "statistics": str,
}


@dataclass(frozen=True)
class ResultBundle:
    """Everything a fitting command knows, ready for serialization."""

    parsed: ParsedComparisons
    fit: FitResult
    feature_names: list[str]
    provenance: dict

    def fit_payload(self) -> dict:
        fit, cov = self.fit, self.fit.covariates
        return {
            "provenance": self.provenance,
            "items": self.parsed.item_ids,
            "features": list(self.feature_names),
            "n_items": fit.params.n_items,
            "n_features": fit.params.n_features,
            "tie_rows_dropped": self.parsed.tie_rows_dropped,
            "converged": bool(fit.converged),
            "stop_reason": fit.stop_reason,
            "iterations": fit.diagnostics.iterations,
            "halvings": fit.diagnostics.halvings,
            "cg_iterations": fit.diagnostics.cg_iterations,
            "final_grad_norm": fit.diagnostics.final_grad_norm,
            "kappa1": fit.diagnostics.kappa1,
            "incoherence": fit.diagnostics.incoherence,
            "likelihood_scale": fit.likelihood_scale,
            "objective_initial": fit.objective_trace[0],
            "objective_final": fit.objective_trace[-1],
            "scale_k": cov.scale_k,
            "column_means": cov.column_means.tolist(),
            "column_sds": cov.column_sds.tolist(),
            "alpha": fit.params.alpha.tolist(),
            "beta": fit.params.beta.tolist(),
            "scores": fit.params.scores(cov).tolist(),
        }


def build_parser() -> _Parser:
    parser = _Parser(prog="care-rank", description=__doc__)
    parser.add_argument("--version", action="version", version=f"care-rank {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", help="flat key=value options file")
        sp.add_argument("--out", help="output directory")

    def add_fit_options(sp):
        sp.add_argument("--comparisons", help="comparisons CSV path")
        sp.add_argument("--covariates", help="covariates CSV path (omit for none)")
        sp.add_argument("--max-iters", dest="max_iters", type=int,
                        help="Newton step limit, default 100")
        sp.add_argument("--grad-tol", dest="grad_tol", type=float)
        sp.add_argument("--ridge-alpha", dest="ridge_alpha", type=float,
                        help="l2 penalty on intrinsic scores only")
        sp.add_argument("--standardize", dest="standardize",
                        action=argparse.BooleanOptionalAction, default=None)

    sp_fit = sub.add_parser("fit", help="estimate scores from CSV data")
    add_common(sp_fit)
    add_fit_options(sp_fit)

    sp_infer = sub.add_parser("infer", help="fit plus coefficient tests and intervals")
    add_common(sp_infer)
    add_fit_options(sp_infer)
    sp_infer.add_argument("--level", type=float, help="confidence level, default 0.95")

    sp_rank = sub.add_parser("rank", help="fit plus ranking scores")
    add_common(sp_rank)
    add_fit_options(sp_rank)
    sp_rank.add_argument("--quantile-level", dest="quantile_level", type=float,
                         help="soft-threshold quantile, default 0.995")

    sp_sim = sub.add_parser("simulate", help="write a synthetic dataset")
    add_common(sp_sim)
    sp_sim.add_argument("--n", type=int, help="number of items, default 200")
    sp_sim.add_argument("--d", type=int, help="number of covariates, default 5")
    sp_sim.add_argument("--seed", type=int)
    sp_sim.add_argument("--p", type=float, help="pair sampling probability")
    sp_sim.add_argument("--trials", type=int, help="trials per compared pair")

    sp_exp = sub.add_parser("experiment", help="run a Monte Carlo study")
    add_common(sp_exp)
    sp_exp.add_argument("--kind", choices=["rate", "distribution"])
    sp_exp.add_argument("--n", type=int)
    sp_exp.add_argument("--d", type=int)
    sp_exp.add_argument("--seed", type=int)
    sp_exp.add_argument("--level", type=float)
    sp_exp.add_argument("--pairs", help="comma-separated p:L pairs, e.g. 1:50,0.5:25")
    sp_exp.add_argument("--replications", type=int)
    sp_exp.add_argument("--workers", type=int,
                        help="worker processes, each with one BLAS thread, at most "
                             "one per usable CPU; default 1")
    sp_exp.add_argument("--statistics", help="comma-separated statistic names")
    return parser


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Apply precedence: command line > config file > defaults."""
    file_cfg = read_config_file(args.config) if getattr(args, "config", None) else {}
    unknown = sorted(set(file_cfg) - set(_CONVERTERS))
    if unknown:
        raise ConfigurationError(
            f"{args.config}: unknown key{'s' if len(unknown) > 1 else ''} {', '.join(unknown)}"
        )
    resolved = {"command": args.command}
    for key, convert in _CONVERTERS.items():
        value = getattr(args, key, None)
        if value is None:
            value = file_cfg.get(key)
        if isinstance(value, str):
            try:
                value = convert(value)
            except ValueError as exc:
                raise ConfigurationError(f"{key}: {exc}") from None
        if value is not None:
            resolved[key] = value
    return RunConfig(**resolved)


def _load_and_fit(config: RunConfig) -> ResultBundle:
    config.require("comparisons", "out")
    parsed = parse_comparisons_csv(config.comparisons)
    if parsed.tie_rows_dropped:
        print(f"note: dropped {parsed.tie_rows_dropped} tie rows", file=sys.stderr)
    if config.covariates:
        pc = parse_covariates_csv(config.covariates, parsed.item_ids)
        if pc.extra_items:
            print(
                f"note: ignoring covariates for {len(pc.extra_items)} items "
                "never compared", file=sys.stderr,
            )
        raw, feature_names = pc.matrix, pc.feature_names
    else:
        raw = np.zeros((parsed.data.n_items, 0))
        feature_names = []
    cov = preprocess_covariates(raw, standardize=config.standardize)
    try:
        fit = fit_mle(parsed.data, cov, config.fit_config())
    except ConnectivityError as exc:
        raise _named_components(exc, parsed.item_ids) from None
    return ResultBundle(parsed, fit, feature_names, config.provenance())


def _write_fit(config: RunConfig, bundle: ResultBundle) -> None:
    write_json(os.path.join(config.out, "fit.json"), bundle.fit_payload())


def _converged_or_report(bundle: ResultBundle, held_back: str | None = None) -> bool:
    if bundle.fit.converged:
        return True
    suffix = f"; not writing {held_back}" if held_back else ""
    if bundle.fit.stop_reason == "no_mle":
        message = (
            "the maximum-likelihood estimate does not exist: some items won or "
            "lost every comparison against the rest; try --ridge-alpha 0.1"
        )
    else:
        message = f"fit stopped without convergence ({bundle.fit.stop_reason})"
    print(f"{message}{suffix}", file=sys.stderr)
    return False


def _available_memory(
    meminfo: str = "/proc/meminfo",
    proc_cgroup: str = "/proc/self/cgroup",
    cgroup_root: str = "/sys/fs/cgroup",
) -> int | None:
    """Bytes this process may still allocate: the smaller of the kernel's
    MemAvailable and the room left under its cgroup v2 ``memory.max``,
    each where it can be read; None when neither can."""
    found = []
    try:
        with open(meminfo, encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    found.append(int(line.split()[1]) * 1024)  # the file counts kB
                    break
    except (OSError, ValueError, IndexError):
        pass
    try:
        with open(proc_cgroup, encoding="ascii") as fh:
            group = next(line[3:].strip() for line in fh if line.startswith("0::"))
        base = os.path.join(cgroup_root, group.lstrip("/"))
        with open(os.path.join(base, "memory.max"), encoding="ascii") as fh:
            limit = fh.read().strip()
        if limit != "max":
            with open(os.path.join(base, "memory.current"), encoding="ascii") as fh:
                found.append(int(limit) - int(fh.read()))
    except (OSError, ValueError, StopIteration):
        pass
    return min(found) if found else None


def _named_components(exc: ConnectivityError, item_ids: list[str]) -> ConnectivityError:
    """``exc`` with the components in its message named by item id; its
    ``components`` stay indices."""
    named = [[item_ids[k] for k in comp] for comp in exc.components]
    head = str(exc).removesuffix(_component_preview(exc.components))
    return ConnectivityError(head + _component_preview(named), components=exc.components)


def _variance_model(bundle: ResultBundle) -> VarianceModel:
    """``plugin_variance_model``, refused up front when its peak memory
    would exceed what is available, rather than killed part way."""
    n = bundle.fit.params.n_items
    need = FACTOR_PEAK_SQUARES * 8 * n * n
    available = _available_memory()
    if available is not None and need > available:
        raise ConfigurationError(
            f"the variance model for {n} items needs about {need / 2**20:.0f} MiB "
            f"of memory, but only {available / 2**20:.0f} MiB is available"
        )
    try:
        return plugin_variance_model(bundle.fit)
    except ConnectivityError as exc:
        raise _named_components(exc, bundle.parsed.item_ids) from None


def cmd_fit(config: RunConfig) -> int:
    bundle = _load_and_fit(config)
    _write_fit(config, bundle)
    return EXIT_OK if _converged_or_report(bundle) else EXIT_CONVERGENCE


def cmd_infer(config: RunConfig) -> int:
    bundle = _load_and_fit(config)
    _write_fit(config, bundle)
    if not _converged_or_report(bundle, "inference output"):
        return EXIT_CONVERGENCE
    write_inference_csv(
        os.path.join(config.out, "inference.csv"),
        full_inference_report(bundle.fit, _variance_model(bundle), config.level),
        bundle.parsed.item_ids,
        bundle.feature_names,
        bundle.provenance,
    )
    return EXIT_OK


def cmd_rank(config: RunConfig) -> int:
    bundle = _load_and_fit(config)
    _write_fit(config, bundle)
    if not _converged_or_report(bundle, "ranking output"):
        return EXIT_CONVERGENCE
    ranking = care_ranking_scores(bundle.fit, _variance_model(bundle), config.quantile_level)
    write_ranking_csv(
        os.path.join(config.out, "ranking.csv"),
        ranking,
        bundle.parsed.item_ids,
        bundle.provenance,
    )
    return EXIT_OK


def cmd_simulate(config: RunConfig) -> int:
    config.require("out")
    spec = SyntheticSpec(n=config.n, d=config.d, seed=config.seed)
    cov, truth = generate_truth(spec)
    data = sample_comparisons(cov, truth, config.p, config.trials, spec.seed)
    width = max(4, len(str(spec.n - 1)))
    item_ids = [f"item_{k:0{width}d}" for k in range(spec.n)]
    feature_names = [f"f{k + 1}" for k in range(spec.d)]
    provenance = config.provenance()
    write_comparisons_csv(
        os.path.join(config.out, "comparisons.csv"), data, item_ids, provenance
    )
    write_covariates_csv(
        os.path.join(config.out, "covariates.csv"), cov.raw, item_ids,
        feature_names, provenance,
    )
    write_json(
        os.path.join(config.out, "truth.json"),
        {
            "provenance": provenance,
            "n": spec.n,
            "d": spec.d,
            "p": config.p,
            "trials": config.trials,
            "scale_k": cov.scale_k,
            "alpha": truth.alpha.tolist(),
            "beta": truth.beta.tolist(),
            "scores": truth.scores(cov).tolist(),
            "items": item_ids,
        },
    )
    return EXIT_OK


def cmd_experiment(config: RunConfig) -> int:
    config.require("out")
    spec = SyntheticSpec(n=config.n, d=config.d, seed=config.seed)
    if config.kind == "rate":
        # beta_rel_l2 is undefined without covariates
        stats = "alpha_linf,beta_rel_l2" if spec.d else "alpha_linf"
        pairs, replications = rate_experiment_pairs(), 200
    elif config.kind == "distribution":
        pairs = [(distribution_sampling_probability(spec.n, spec.d), 20)]
        stats, replications = "qq_alpha1,hist_A,hist_B,coverage", 250
    else:
        raise ConfigurationError(f"unknown experiment kind {config.kind!r}")
    # a given value replaces the default even when it is falsy, so that
    # ExperimentPlan rejects zero replications instead of running the
    # default study
    if config.pairs is not None:
        pairs = config.pairs
    if config.statistics is not None:
        stats = config.statistics
    if config.replications is not None:
        replications = config.replications
    plan = ExperimentPlan(
        pl_pairs=pairs,
        replications=replications,
        statistics=frozenset(s.strip() for s in stats.split(",") if s.strip()),
        level=config.level,
        workers=config.workers,
    )
    runner = run_rate_experiment if config.kind == "rate" else run_distribution_experiment
    result = runner(spec, plan)
    write_experiment_files(
        os.path.join(config.out, "experiment"), result, config.provenance()
    )
    return EXIT_OK


_COMMANDS = {
    "fit": cmd_fit,
    "infer": cmd_infer,
    "rank": cmd_rank,
    "simulate": cmd_simulate,
    "experiment": cmd_experiment,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = resolve_config(args)
        return _COMMANDS[args.command](config)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ConnectivityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONNECTIVITY
    except (ConfigurationError, InvalidArgumentError, DegenerateDesignError,
            DegenerateContrastError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError, PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CareRankError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
