"""Command-line interface.

Subcommands: ``simulate`` (write a synthetic dataset), ``fit`` (estimate
scores from CSV data), ``infer`` (fit plus per-coefficient tests and
intervals), ``rank`` (fit plus ranking scores), and ``experiment`` (the
Monte Carlo studies).  Options can come from a flat key=value config
file via --config; command-line flags win over the file, which wins over
defaults.

Exit codes: 0 success; 2 malformed input file; 3 disconnected comparison
graph, or at ``infer``/``rank`` Hessian weights that split it; 4 fit did
not converge, or the win graph is not strongly connected so the MLE does
not exist (the message names a group of items that won or lost every
comparison against the rest); 5 invalid configuration, an unusable input
path, degenerate inputs, or too little available memory for the variance
model of ``infer``/``rank``; 1 unexpected failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import math
import os
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, NamedTuple

# numpy and the modules built on it load inside the commands that use
# them, so that ``experiment`` can pin BLAS to one thread before numpy
# loads and ``fit`` loads no inference or simulation code
from . import _BLAS_THREAD_ENV, __version__
from .errors import (
    CareRankError,
    ConfigurationError,
    ConnectivityError,
    DegenerateContrastError,
    DegenerateDesignError,
    InvalidArgumentError,
    ParseError,
)

if TYPE_CHECKING:
    from .estimation import FitResult
    from .inference import VarianceModel
    from .io import ParsedComparisons

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
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_pairs(text: str) -> tuple[tuple[float, int], ...]:
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" not in chunk:
            raise ValueError(f"expected p:L, got {chunk!r}")
        p_str, l_str = chunk.split(":", 1)
        pairs.append((float(p_str), int(l_str)))
    if not pairs:
        raise ValueError("no (p, L) pairs given")
    return tuple(pairs)


class _Option(NamedTuple):
    convert: Callable  # from the text of a flag or of a config-file value
    commands: tuple[str, ...]  # the commands that read it
    help: str | None


# the table that each inference command writes from a converged fit
_TABLES = {"infer": "inference", "rank": "ranking"}
_FITTING = ("fit", *_TABLES)
_SYNTHETIC = ("simulate", "experiment")

# every option, in --help order; each command's flags are the options
# that list it
_OPTIONS = {
    "out": _Option(str, _FITTING + _SYNTHETIC, "output directory"),
    "comparisons": _Option(str, _FITTING, "comparisons CSV path"),
    "covariates": _Option(str, _FITTING, "covariates CSV path (omit for none)"),
    "max_iters": _Option(int, _FITTING, "Newton step limit, default 100"),
    "grad_tol": _Option(float, _FITTING, None),
    "standardize": _Option(_parse_bool, _FITTING, None),
    "level": _Option(float, ("infer", "experiment"), "confidence level, default 0.95"),
    "quantile_level": _Option(float, ("rank",), "soft-threshold quantile, default 0.995"),
    "n": _Option(int, _SYNTHETIC, "number of items, default 200"),
    "d": _Option(int, _SYNTHETIC, "number of covariates, default 5"),
    "seed": _Option(int, _SYNTHETIC, None),
    "p": _Option(float, ("simulate",), "pair sampling probability"),
    "trials": _Option(int, ("simulate",), "trials per compared pair"),
    "kind": _Option(str, ("experiment",), "rate or distribution, default rate"),
    "pairs": _Option(_parse_pairs, ("experiment",),
                     "comma-separated p:L pairs, e.g. 1:50,0.5:25"),
    "replications": _Option(int, ("experiment",), "replications per (p, L) pair"),
    "workers": _Option(int, ("experiment",),
                       "worker processes, forked from this one, which runs "
                       "with one BLAS thread; at most one per usable CPU; "
                       "default 1"),
    "statistics": _Option(str, ("experiment",), "comma-separated statistic names"),
}


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
        if self._reads("level") and not (0.0 < self.level < 1.0):
            raise ConfigurationError(f"level must be in (0, 1), got {self.level}")
        if self._reads("quantile_level") and not (0.5 < self.quantile_level < 1.0):
            raise ConfigurationError(
                f"quantile-level must be in (0.5, 1), got {self.quantile_level}"
            )

    def _reads(self, key: str) -> bool:
        return self.command in _OPTIONS[key].commands

    def require(self, *fields: str) -> None:
        for name in fields:
            if getattr(self, name) is None:
                raise ConfigurationError(f"--{name.replace('_', '-')} is required")

    def provenance(self) -> dict:
        # Hash only what defines the computation: input files by their
        # bytes, not their paths, and only for the commands that read
        # them; the output path and the worker count must not change
        # result file contents.
        from .io import config_hash, file_sha256

        hashable = {
            k: v for k, v in dataclasses.asdict(self).items()
            if k not in ("out", "workers")
        }
        for key in ("comparisons", "covariates"):
            path = hashable[key]
            hashable[key] = file_sha256(path) if path and self._reads(key) else None
        return {
            "version": __version__,
            "config_hash": config_hash(hashable),
            "seed": self.seed,
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
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
            # exp(max s - min s) overflows past a score range of about 709
            "kappa1": fit.diagnostics.kappa1 if math.isfinite(fit.diagnostics.kappa1) else None,
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
    for command, (_, summary) in _COMMANDS.items():
        sp = sub.add_parser(command, help=summary)
        sp.add_argument("--config", help="flat key=value options file")
        for key, option in _OPTIONS.items():
            if command not in option.commands:
                continue
            flag = "--" + key.replace("_", "-")
            if option.convert is _parse_bool:
                sp.add_argument(flag, action=argparse.BooleanOptionalAction, help=option.help)
            else:
                sp.add_argument(flag, help=option.help)
    return parser


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Apply precedence: command line > config file > defaults."""
    file_cfg = {}
    if args.config:
        from .io import read_config_file

        file_cfg = read_config_file(args.config)
    unknown = sorted(set(file_cfg) - set(_OPTIONS))
    if unknown:
        raise ConfigurationError(
            f"{args.config}: unknown key{'s' if len(unknown) > 1 else ''} {', '.join(unknown)}"
        )
    resolved = {"command": args.command}
    for key, option in _OPTIONS.items():
        value = getattr(args, key, None)
        if value is None:
            value = file_cfg.get(key)
        if isinstance(value, str):
            try:
                value = option.convert(value)
            except ValueError as exc:
                raise ConfigurationError(f"{key}: {exc}") from None
        if value is not None:
            resolved[key] = value
    return RunConfig(**resolved)


def _load_and_fit(config: RunConfig) -> ResultBundle:
    import numpy as np

    from .estimation import FitConfig, fit_mle, preprocess_covariates
    from .io import parse_comparisons_csv, parse_covariates_csv

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
        bad = np.argwhere(~np.isfinite(raw))
        if bad.size:  # the parser reads nan and inf; the fit cannot use them
            k, c = bad[0].tolist()
            raise InvalidArgumentError(
                f"{config.covariates}: covariates contain non-finite values, first "
                f"{raw[k, c]} for item {parsed.item_ids[k]!r} in column {feature_names[c]!r}"
            )
    else:
        raw = np.zeros((parsed.data.n_items, 0))
        feature_names = []
    cov = preprocess_covariates(raw, standardize=config.standardize)
    try:
        fit = fit_mle(parsed.data, cov, FitConfig(max_iters=config.max_iters, grad_tol=config.grad_tol))
    except ConnectivityError as exc:
        raise exc.named(parsed.item_ids) from None
    return ResultBundle(parsed, fit, feature_names, config.provenance())


def _available_memory(
    meminfo: str = "/proc/meminfo",
    proc_cgroup: str = "/proc/self/cgroup",
    cgroup_root: str = "/sys/fs/cgroup",
) -> int | None:
    """Bytes this process may still allocate: the smallest of the
    kernel's MemAvailable and the room left under each memory limit on
    the process's cgroup and on every ancestor of it (a limit applies to
    all groups below it), for the cgroup v2 group (``memory.max`` less
    ``memory.current``) and the cgroup v1 memory controller's group
    (``memory.limit_in_bytes`` less ``memory.usage_in_bytes``), each where
    it can be read; None when none can."""
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
            lines = fh.read().splitlines()
    except OSError:
        lines = []
    for line in lines:
        hierarchy, controllers, group = (line.split(":", 2) + ["", ""])[:3]
        if hierarchy == "0" and not controllers:
            # cgroup v2, mounted at the root or, beside v1, under "unified"
            mounts, limit_file, usage_file = ("", "unified"), "memory.max", "memory.current"
        elif "memory" in controllers.split(","):
            mounts, limit_file, usage_file = (
                ("memory",), "memory.limit_in_bytes", "memory.usage_in_bytes"
            )
        else:
            continue
        parts = [part for part in group.split("/") if part]
        for mount in mounts:
            for depth in range(len(parts), -1, -1):
                base = os.path.join(cgroup_root, mount, *parts[:depth])
                try:
                    with open(os.path.join(base, limit_file), encoding="ascii") as fh:
                        limit = fh.read().strip()
                    if limit != "max":
                        with open(os.path.join(base, usage_file), encoding="ascii") as fh:
                            found.append(int(limit) - int(fh.read()))
                except (OSError, ValueError):
                    pass
    return min(found) if found else None


def _variance_model(bundle: ResultBundle) -> VarianceModel:
    """``plugin_variance_model``, refused up front when its peak memory
    would exceed what is available, rather than killed part way."""
    from .inference import factor_peak_bytes, plugin_variance_model

    n = bundle.fit.params.n_items
    need = factor_peak_bytes(n)
    available = _available_memory()
    if available is not None and need > available:
        raise ConfigurationError(
            f"the variance model for {n} items needs about {need / 2**20:.0f} MiB "
            f"of memory, but only {available / 2**20:.0f} MiB is available"
        )
    try:
        return plugin_variance_model(bundle.fit)
    except ConnectivityError as exc:
        raise exc.named(bundle.parsed.item_ids) from None


def cmd_fit(config: RunConfig) -> int:
    """``fit``, ``infer`` and ``rank``: write ``fit.json``, then, from a
    converged fit, the inference or ranking table that the command names."""
    from .io import write_json

    bundle = _load_and_fit(config)
    write_json(os.path.join(config.out, "fit.json"), bundle.fit_payload())
    fit, table = bundle.fit, _TABLES.get(config.command)
    if not fit.converged:
        if fit.stop_reason == "no_mle":
            # the group by its size and first 8 ids
            group, won = fit.data._closed_group
            rest = fit.params.n_items - len(group)
            shown = ", ".join(bundle.parsed.item_ids[k] for k in group[:8])
            message = (
                "the maximum-likelihood estimate does not exist: "
                + (f"item {shown}" if len(group) == 1 else f"{len(group)} items {shown}")
                + (", ..." if len(group) > 8 else "")
                + f" {'won' if won else 'lost'} every comparison against the other {rest} "
                + ("item" if rest == 1 else "items")
                + ("; inference needs the MLE" if table else "")
            )
        else:
            message = f"fit stopped without convergence ({fit.stop_reason})"
        print(message + (f"; not writing {table} output" if table else ""), file=sys.stderr)
        return EXIT_CONVERGENCE
    if table is None:
        return EXIT_OK
    from .inference import care_ranking_scores, full_inference_report
    from .io import write_inference_csv, write_ranking_csv

    vm, ids = _variance_model(bundle), bundle.parsed.item_ids
    path = os.path.join(config.out, f"{table}.csv")
    if table == "inference":
        report = full_inference_report(fit, vm, config.level)
        write_inference_csv(path, report, ids, bundle.feature_names, bundle.provenance)
    else:
        write_ranking_csv(path, care_ranking_scores(fit, vm, config.quantile_level), ids,
                          bundle.provenance)
    return EXIT_OK


def cmd_simulate(config: RunConfig) -> int:
    from .io import write_comparisons_csv, write_covariates_csv, write_json
    from .simulation import SyntheticSpec, generate_truth, sample_comparisons

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
    from .io import write_experiment_files
    from .simulation import (
        ExperimentPlan,
        SyntheticSpec,
        run_distribution_experiment,
        run_rate_experiment,
    )

    config.require("out")
    spec = SyntheticSpec(n=config.n, d=config.d, seed=config.seed)
    runners = {"rate": run_rate_experiment, "distribution": run_distribution_experiment}
    if config.kind not in runners:
        raise ConfigurationError(f"unknown experiment kind {config.kind!r}")
    # an option left unset takes the study's own design; a given one
    # replaces it even when it is empty or zero, so that the plan or the
    # study refuses it instead of running the design
    stats = config.statistics
    plan = ExperimentPlan(
        pl_pairs=config.pairs,
        replications=config.replications,
        statistics=None if stats is None else {s.strip() for s in stats.split(",") if s.strip()},
        level=config.level,
        workers=config.workers,
    )
    write_experiment_files(
        os.path.join(config.out, "experiment"), runners[config.kind](spec, plan),
        config.provenance(),
    )
    return EXIT_OK


_COMMANDS = {
    "fit": (cmd_fit, "estimate scores from CSV data"),
    "infer": (cmd_fit, "fit plus coefficient tests and intervals"),
    "rank": (cmd_fit, "fit plus ranking scores"),
    "simulate": (cmd_simulate, "write a synthetic dataset"),
    "experiment": (cmd_experiment, "run a Monte Carlo study"),
}

_PATH_ERRORS = (FileNotFoundError, IsADirectoryError, NotADirectoryError, PermissionError)

# the exit code of each caught exception type, most specific first
_EXIT_CODES = (
    (ParseError, EXIT_PARSE),
    (ConnectivityError, EXIT_CONNECTIVITY),
    ((ConfigurationError, InvalidArgumentError, DegenerateDesignError,
      DegenerateContrastError, *_PATH_ERRORS), EXIT_CONFIG),
    (CareRankError, EXIT_INTERNAL),
)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "experiment" and "numpy" not in sys.modules:
            # A study's output depends on the BLAS thread count, so every
            # replication runs with one thread.  Set before numpy loads,
            # the variables pin this process too; simulation, loaded
            # first, sees that and forks its workers, which inherit it.
            os.environ.update(dict.fromkeys(_BLAS_THREAD_ENV, "1"))
            from . import simulation
        return _COMMANDS[args.command][0](resolve_config(args))
    except (CareRankError, *_PATH_ERRORS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for types, code in _EXIT_CODES if isinstance(exc, types))


if __name__ == "__main__":
    sys.exit(main())
