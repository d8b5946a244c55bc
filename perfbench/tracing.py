"""Per-layer timings for the care-rank benchmark.

Spans are recorded here, in the benchmark's own code, around each call
into a public function of ``care_rank``; nothing inside the package is
instrumented.  A span records its name, start, end and parent.  Spans
stay in memory and are written to one file when the run ends.

Run as a script, this module times one experiment call in a fresh
interpreter, so a worker-sweep cell can choose its BLAS thread
environment before numpy loads::

    python3 perfbench/tracing.py --kind distribution --n 200 --d 5 \
        --seed 1 --replications 100 --workers 2
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from contextlib import contextmanager

# Stream ids of the benchmark's own replication loop; the library
# composes its stream ids from kind codes 1 and 2, so 0x7f keeps the
# loop's draws apart from any experiment run in the same process.
_LOOP_STREAM_KIND = 0x7F
_MAX_ATTEMPTS = 200


class Tracer:
    """Collects spans; a disabled tracer only runs the wrapped code."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        rec = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def top_level_seconds(self) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["parent"] is None)

    def write(self, path: str, origin: float) -> None:
        rows = [
            {**s, "start": s["start"] - origin, "end": s["end"] - origin}
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows}, fh)


class Counters:
    """Counts taken at the same boundaries as the spans."""

    def __init__(self):
        self.iterations: list[int] = []
        self.edges: list[int] = []
        self.nonconverged = 0
        self.rank_warnings = 0
        self.draws = 0
        self.kept_draws = 0
        self.rows_parsed = 0
        self.bytes_written = 0


def cli_pipeline(tr: Tracer, c: Counters, w, seed: int, work: str) -> tuple[str, str]:
    """simulate, fit, infer and rank in one process, through the calls the
    CLI makes, in the CLI's order.  Returns the data and output dirs."""
    from care_rank import __version__
    from care_rank.cli import ResultBundle
    from care_rank.estimation import FitConfig, fit_mle, preprocess_covariates
    from care_rank.inference import (
        care_ranking_scores,
        full_inference_report,
        plugin_variance_model,
    )
    from care_rank.io import (
        parse_comparisons_csv,
        parse_covariates_csv,
        write_comparisons_csv,
        write_covariates_csv,
        write_inference_csv,
        write_json,
        write_ranking_csv,
    )
    from care_rank.model import build_projection, connected_components, hessian
    from care_rank.simulation import SyntheticSpec, generate_truth, sample_comparisons

    data_dir, out_dir = os.path.join(work, "data"), os.path.join(work, "out")
    comparisons = os.path.join(data_dir, "comparisons.csv")
    covariates = os.path.join(data_dir, "covariates.csv")
    provenance = {"version": __version__, "seed": seed}

    with tr.span("cli.simulate"):
        with tr.span("simulation.generate_truth"):
            cov, truth = generate_truth(SyntheticSpec(n=w.n, d=w.d, seed=seed))
        with tr.span("simulation.sample"):
            data = sample_comparisons(cov, truth, w.p, w.trials, seed)
        c.draws += 1
        width = max(4, len(str(w.n - 1)))
        ids = [f"item_{k:0{width}d}" for k in range(w.n)]
        names = [f"f{k + 1}" for k in range(w.d)]
        with tr.span("io.write_dataset"):
            write_comparisons_csv(comparisons, data, ids, provenance)
            write_covariates_csv(covariates, cov.raw, ids, names, provenance)

    with tr.span("cli.fit"):
        with tr.span("io.parse_comparisons"):
            parsed = parse_comparisons_csv(comparisons)
        with tr.span("io.parse_covariates"):
            pc = parse_covariates_csv(covariates, parsed.item_ids)
        c.rows_parsed += parsed.data.n_edges + pc.matrix.shape[0]
        with tr.span("estimation.preprocess"):
            cov = preprocess_covariates(pc.matrix)
        with tr.span("model.connected_components"):
            comps = connected_components(parsed.data)
        c.kept_draws += len(comps) == 1
        with tr.span("model.build_projection"):
            build_projection(cov)
        with tr.span("estimation.fit"):
            fit = fit_mle(parsed.data, cov, FitConfig())
        _count_fit(c, fit)
        bundle = ResultBundle(parsed, fit, pc.feature_names, provenance)
        with tr.span("io.write"):
            write_json(os.path.join(out_dir, "fit.json"), bundle.fit_payload())

    with tr.span("cli.infer"):
        with tr.span("model.hessian"):
            hessian(parsed.data, cov, fit.params)
        with tr.span("inference.variance_model"):
            vm = plugin_variance_model(fit)
        c.rank_warnings += bool(vm.rank_warning)
        with tr.span("inference.report"):
            report = full_inference_report(fit, vm)
        with tr.span("io.write"):
            write_inference_csv(
                os.path.join(out_dir, "inference.csv"), report, parsed.item_ids,
                pc.feature_names, provenance,
            )

    with tr.span("cli.rank"):
        with tr.span("inference.ranking"):
            ranking = care_ranking_scores(fit, vm)
        with tr.span("io.write"):
            write_ranking_csv(
                os.path.join(out_dir, "ranking.csv"), ranking, parsed.item_ids, provenance
            )

    c.bytes_written += sum(
        os.path.getsize(os.path.join(out_dir, f))
        for f in ("fit.json", "inference.csv", "ranking.csv")
    )
    return data_dir, out_dir


def _count_fit(c: Counters, fit) -> None:
    c.iterations.append(fit.diagnostics.iterations)
    c.edges.append(fit.data.n_edges)
    c.nonconverged += not fit.converged


def replication_loop(tr: Tracer, c: Counters, w, seed: int, reps: int) -> int:
    """The experiment's per-replication calls, serially, ``reps`` times per
    (p, L) design.  Returns the number of replications run."""
    import numpy as np

    from care_rank.estimation import fit_mle
    from care_rank.inference import (
        plugin_variance_model,
        projected_hessian_pinv,
        standardized_stats,
    )
    from care_rank.model import build_projection, hessian, is_connected
    from care_rank.simulation import (
        SyntheticSpec,
        generate_truth,
        rng_stream,
        sample_comparisons,
    )

    distribution = w.experiment == "distribution"
    with tr.span("simulation.generate_truth"):
        cov, truth = generate_truth(SyntheticSpec(n=w.n, d=w.d, seed=seed))
    if distribution:
        with tr.span("model.build_projection"):
            proj = build_projection(cov)
        contrast = np.zeros(w.n + w.d)
        contrast[0] = 1.0
        contrast[w.n] = 1.0

    for pair_index, (p, L) in enumerate(w.pairs):
        for rep in range(reps):
            with tr.span("replication"):
                for attempt in range(_MAX_ATTEMPTS):
                    stream = (_LOOP_STREAM_KIND << 56) | (pair_index << 40) | (rep << 12) | attempt
                    with tr.span("simulation.sample"):
                        data = sample_comparisons(cov, truth, p, L, rng_stream(seed, stream))
                    with tr.span("model.connected_components"):
                        connected = is_connected(data)
                    c.draws += 1
                    if connected:
                        break
                else:
                    raise RuntimeError(f"no connected draw at (p={p}, L={L})")
                c.kept_draws += 1
                with tr.span("estimation.fit"):
                    fit = fit_mle(data, cov)
                _count_fit(c, fit)
                if not distribution:
                    continue
                with tr.span("model.hessian"):
                    hess = hessian(data, cov, truth)
                with tr.span("inference.projected_hessian_pinv"):
                    vm_true = projected_hessian_pinv(hess, proj)
                with tr.span("inference.variance_model"):
                    vm = plugin_variance_model(fit)
                c.rank_warnings += bool(vm.rank_warning)
                with tr.span("inference.standardized_stats"):
                    standardized_stats(fit, vm_true, vm, contrast, truth)
    return reps * len(w.pairs)


def layer_metrics(tr: Tracer, c: Counters) -> dict[str, float]:
    """Per-layer metrics from one traced pass: a time is the median span
    per call, except io.write_s, the total for one set of outputs."""

    def med(name: str) -> float:
        d = tr.durations(name)
        return statistics.median(d) if d else 0.0

    return {
        "io.parse_comparisons_s": med("io.parse_comparisons"),
        "io.parse_covariates_s": med("io.parse_covariates"),
        "io.rows_parsed": c.rows_parsed,
        "io.write_s": sum(tr.durations("io.write")),
        "io.bytes_written": c.bytes_written,
        "model.connected_components_s": med("model.connected_components"),
        "model.build_projection_s": med("model.build_projection"),
        "model.hessian_s": med("model.hessian"),
        "model.edges": statistics.median(c.edges) if c.edges else 0,
        "estimation.preprocess_s": med("estimation.preprocess"),
        "estimation.fit_s": med("estimation.fit"),
        "estimation.iterations": statistics.median(c.iterations) if c.iterations else 0,
        "estimation.nonconverged": c.nonconverged,
        "inference.variance_model_s": med("inference.variance_model"),
        "inference.report_s": med("inference.report"),
        "inference.ranking_s": med("inference.ranking"),
        "inference.rank_warnings": c.rank_warnings,
        "simulation.generate_truth_s": med("simulation.generate_truth"),
        "simulation.sample_s": med("simulation.sample"),
        "simulation.kept_draw_frac": c.kept_draws / c.draws if c.draws else 0.0,
    }


def time_experiment(kind: str, n: int, d: int, seed: int, replications: int, workers: int) -> float:
    """Wall seconds of one in-process experiment call, as the CLI makes it."""
    from care_rank.simulation import (
        ExperimentPlan,
        SyntheticSpec,
        distribution_sampling_probability,
        rate_experiment_pairs,
        run_distribution_experiment,
        run_rate_experiment,
    )

    if kind == "rate":
        pairs, stats, runner = rate_experiment_pairs(), "alpha_linf,beta_rel_l2", run_rate_experiment
    else:
        pairs = [(distribution_sampling_probability(n, d), 20)]
        stats, runner = "qq_alpha1,hist_A,hist_B,coverage", run_distribution_experiment
    plan = ExperimentPlan(
        pl_pairs=pairs, replications=replications,
        statistics=frozenset(stats.split(",")), workers=workers,
    )
    spec = SyntheticSpec(n=n, d=d, seed=seed)
    t0 = time.perf_counter()
    runner(spec, plan)
    return time.perf_counter() - t0


def _main(argv=None) -> int:
    import argparse

    ap = argparse.ArgumentParser(description="time one experiment call")
    ap.add_argument("--kind", choices=["rate", "distribution"], required=True)
    ap.add_argument("--n", type=int, required=True)
    ap.add_argument("--d", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--replications", type=int, required=True)
    ap.add_argument("--workers", type=int, required=True)
    a = ap.parse_args(argv)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.isdir(os.path.join(src, "care_rank")):
        print(f"error: no care_rank package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    wall = time_experiment(a.kind, a.n, a.d, a.seed, a.replications, a.workers)
    print(json.dumps({"wall_s": wall}))
    return 0


if __name__ == "__main__":
    sys.exit(_main())
