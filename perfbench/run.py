#!/usr/bin/env python3
"""The care-rank benchmark.

One run::

    python3 perfbench/run.py --workload cli-n2000 --seed 20250801 --seconds 38 --trace 0

measures one workload for about ``--seconds`` seconds and prints, as its
last line, ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones, timed on the CLI run
as separate processes; with ``--trace 1`` they are the per-layer ones,
from spans around in-process calls into each module (see tracing.py).

``--all`` runs every workload on the acceptance and the held-out seed,
then once traced, and prints every metric with its unit and sample count
and each run's check result.  ``--smoke`` runs
every workload's generator, commands, output checks and trace at n=60
in a few seconds.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

# The test suite's acceptance seed, and one seed no tuning looked at.
ACCEPTANCE_SEED = 20250801
HELD_OUT_SEED = 20251017

# A run stops starting commands after this many seconds, and kills one
# still running at the hard limit, so it always exits within 180 s.
SOFT_LIMIT_S = 120.0
HARD_LIMIT_S = 165.0
SETUP_REPEATS = 5
STARTUP_REPEATS = 5

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "CARE_RANK_WORKERS")

WORKLOAD_NAMES = ("cli-n2000", "mc-distribution", "mc-rate")
PERCENTILES = (50, 75, 90, 95, 99, 99.9)


@dataclass(frozen=True)
class Workload:
    name: str
    # dataset the fit, infer and rank commands read
    n: int
    d: int
    p: float
    trials: int
    # Monte Carlo study run by the experiment command, if any
    experiment: str | None = None
    pairs: tuple = ()
    replications: int = 0
    workers: int = 1
    # fit/infer/rank passes per experiment command
    cli_repeats: int = 1
    # sizes of the traced replication loop, sweep cells and determinism check
    loop_reps: int = 0
    cell_reps: int = 0
    prefix_reps: int = 0


def make_workloads(smoke: bool) -> dict[str, Workload]:
    from care_rank.simulation import distribution_sampling_probability, rate_experiment_pairs

    n, d = (60, 3) if smoke else (200, 5)
    p_dist = distribution_sampling_probability(n, d)
    cli = Workload("cli-n2000", *((60, 3, 0.3, 10) if smoke else (2000, 5, 0.05, 10)))
    dist = Workload(
        "mc-distribution", n, d, p_dist, 20, "distribution", ((p_dist, 20),),
        replications=4 if smoke else 250, workers=2, cli_repeats=5,
        loop_reps=2 if smoke else 60, cell_reps=2 if smoke else 100,
        prefix_reps=3 if smoke else 8,
    )
    rate = Workload(
        "mc-rate", n, d, 1.0, 50, "rate", tuple(rate_experiment_pairs()),
        replications=2 if smoke else 50, workers=1, cli_repeats=5,
        loop_reps=1 if smoke else 15, cell_reps=1 if smoke else 15,
    )
    return {w.name: w for w in (cli, dist, rate)}


def program_env(extra: dict | None = None) -> dict:
    """The user's environment, with the checkout's sources importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env.update(extra or {})
    return env


@dataclass
class Proc:
    wall_s: float
    rss_mb: float
    code: int


class Run:
    """One benchmark run: its clock, its scratch directory, its tally."""

    def __init__(self, work: str):
        self.start = time.monotonic()
        self.work = work
        self.log = os.path.join(work, "commands.log")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def execute(self, argv: list[str], env: dict | None = None) -> Proc:
        """Run a process to completion; wall time and peak RSS from wait4."""
        t0 = time.perf_counter()
        with open(self.log, "ab") as log:
            proc = subprocess.Popen(
                argv, cwd=self.work, env=env or program_env(), stdout=log, stderr=log
            )
        timer = threading.Timer(max(1.0, HARD_LIMIT_S - self.elapsed()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Proc(time.perf_counter() - t0, usage.ru_maxrss / 1024.0, proc.returncode)

    def cli(self, *args) -> Proc:
        return self.execute([sys.executable, "-m", "care_rank.cli", *map(str, args)])

    def op(self, label: str, code: int, *checks) -> None:
        """Count one operation; it fails on a non-zero exit or any problem
        a check reports (a check that raises reports its exception)."""
        problems = [f"{label}: exit code {code}"] if code else []
        if not code:
            for check in checks:
                try:
                    problems += check()
                except Exception as exc:  # a malformed output is a failed check
                    problems.append(f"{label}: check raised {exc!r}")
        self.attempted += 1
        self.failed += bool(problems)
        self.problems += problems

    def replications(self, count: int, nonconverged: int) -> None:
        self.attempted += count
        self.failed += nonconverged
        if nonconverged:
            self.problems.append(f"{nonconverged} of {count} replications did not converge")


def simulate_args(w: Workload, seed: int, out: str) -> list:
    return ["simulate", "--n", w.n, "--d", w.d, "--p", repr(w.p), "--trials", w.trials,
            "--seed", seed, "--out", out]


def experiment_args(w: Workload, seed: int, replications: int, workers: int, out: str) -> list:
    return ["experiment", "--kind", w.experiment, "--n", w.n, "--d", w.d, "--seed", seed,
            "--replications", replications, "--workers", workers, "--out", out]


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def measure(run: Run, w: Workload, seed: int, seconds: float) -> dict[str, list[float]]:
    """Closed loop, one client: [experiment,] fit, infer, rank, ... in a
    fixed cycle, each its own process.  The loop stops at the first
    command whose mean duration so far no longer fits in ``seconds``;
    every command runs at least once.

    The k-th experiment command studies seed + k * 2**32: how fast a study
    runs depends on its drawn truth (about +-10% in solver iterations
    between seeds), so a run's median spans several truths."""
    import checks

    data = os.path.join(run.work, "data")
    setup = [run.cli(*simulate_args(w, seed, data)) for _ in range(SETUP_REPEATS)]
    if any(p.code for p in setup):
        raise RuntimeError(f"simulate failed; see {run.log}")
    dataset = checks.Dataset(data)
    out = os.path.join(run.work, "out")
    exp_out = os.path.join(run.work, "exp")
    fit_args = ["--comparisons", os.path.join(data, "comparisons.csv"),
                "--covariates", os.path.join(data, "covariates.csv"), "--out", out]
    output_checks = {"fit": (), "infer": (checks.check_inference,), "rank": (checks.check_ranking,)}
    cycle = (["experiment"] if w.experiment else []) + ["fit", "infer", "rank"] * w.cli_repeats
    walls: dict[str, list[float]] = {cmd: [] for cmd in cycle}
    reps_per_s: list[float] = []
    rss: list[float] = []
    t0 = time.monotonic()
    for cmd in itertools.cycle(cycle):
        past = walls[cmd]
        if past and (time.monotonic() - t0 + statistics.mean(past) > seconds
                     or run.elapsed() > SOFT_LIMIT_S):
            break
        if cmd == "experiment":
            fresh_dir(exp_out)
            study_seed = seed + (len(past) << 32)
            proc = run.cli(*experiment_args(w, study_seed, w.replications, w.workers, exp_out))
            nonconverged = 0

            def check_study():
                nonlocal nonconverged
                problems, nonconverged = checks.check_experiment(
                    os.path.join(exp_out, "experiment"), w.pairs, w.replications)
                return problems

            run.op(cmd, proc.code, check_study)
            total = w.replications * len(w.pairs)
            run.replications(total, nonconverged)
            reps_per_s.append(total / proc.wall_s)
        else:
            fresh_dir(out)
            proc = run.cli(cmd, *fit_args)
            run.op(cmd, proc.code, lambda: checks.check_fit(dataset, out),
                   *(lambda f=f: f(dataset, out) for f in output_checks[cmd]))
        past.append(proc.wall_s)
        rss.append(proc.rss_mb)
    if not w.experiment:
        # one fit -> infer -> rank pass counts as a replication
        medians = [statistics.median(walls[cmd]) for cmd in ("fit", "infer", "rank")]
        reps_per_s = [1.0 / sum(medians)]
    if w.prefix_reps:
        check_worker_determinism(run, w, seed)
    return {
        "fit_s": walls["fit"],
        "infer_s": walls["infer"],
        "rank_s": walls["rank"],
        "reps_per_s": reps_per_s,
        "peak_rss_mb": [max(rss)],
        "setup_s": [p.wall_s for p in setup],
    }


def check_worker_determinism(run: Run, w: Workload, seed: int) -> None:
    """A short prefix of the study writes identical files at 1 and 2 workers."""
    import checks

    dirs = []
    code = 0
    for workers in (1, 2):
        d = fresh_dir(os.path.join(run.work, f"prefix-w{workers}"))
        code = code or run.cli(*experiment_args(w, seed, w.prefix_reps, workers, d)).code
        dirs.append(os.path.join(d, "experiment"))
    run.op("worker determinism", code, lambda: checks.same_bytes(*dirs))


def measure_traced(run: Run, w: Workload, seed: int, spans_path: str) -> dict[str, float]:
    """Per-layer metrics: startup, untraced and traced in-process passes
    over the workload's calls, and the worker-efficiency cells."""
    import checks
    import tracing

    startup = [
        run.execute([sys.executable, "-c", "import care_rank.cli"]).wall_s
        for _ in range(STARTUP_REPEATS)
    ]

    def one_pass(tr, c):
        t0 = time.perf_counter()
        data, out = tracing.cli_pipeline(tr, c, w, seed, fresh_dir(os.path.join(run.work, "pipe")))
        pipeline_nonconverged = c.nonconverged
        reps = tracing.replication_loop(tr, c, w, seed, w.loop_reps) if w.experiment else 0
        return time.perf_counter() - t0, reps, c.nonconverged - pipeline_nonconverged, data, out

    # The first pass pays one-time costs (imports, first BLAS calls), so
    # the untraced reference is the second.
    one_pass(tracing.Tracer(enabled=False), tracing.Counters())
    untraced_s = one_pass(tracing.Tracer(enabled=False), tracing.Counters())[0]
    tr, counters = tracing.Tracer(), tracing.Counters()
    origin = time.perf_counter()
    traced_s, reps, loop_nonconverged, data, out = one_pass(tr, counters)
    tr.write(spans_path, origin)

    dataset = checks.Dataset(data)
    run.op("traced fit", 0, lambda: checks.check_fit(dataset, out))
    run.op("traced infer", 0, lambda: checks.check_inference(dataset, out))
    run.op("traced rank", 0, lambda: checks.check_ranking(dataset, out))
    run.replications(reps, loop_nonconverged)

    metrics = {"cli.startup_s": statistics.median(startup)}
    metrics.update(tracing.layer_metrics(tr, counters))
    metrics.update(efficiency_cells(run, w, seed, tr, reps))
    metrics["trace.coverage_frac"] = tr.top_level_seconds() / traced_s
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    return metrics


SWEEP_CELLS = (("w1", 1, {}), ("w2", 2, {}),
               ("w1_omp1", 1, {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}),
               ("w2_omp1", 2, {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}))


def efficiency_cells(run: Run, w: Workload, seed: int, tr, reps: int) -> dict[str, float]:
    """Serial per-replication time (from the traced loop) times the cell's
    replications, over workers x the cell's wall time.  Cells with more
    workers than cores are skipped; they report 0, as do unused cells."""
    out = {"simulation.parallel_efficiency": 0.0}
    out.update({f"simulation.parallel_efficiency.{name}": 0.0 for name, _, _ in SWEEP_CELLS})
    if not w.experiment:
        return out
    per_rep = sum(tr.durations("replication")) / reps
    cells = SWEEP_CELLS if w.experiment == "distribution" else SWEEP_CELLS[:1]
    nproc = len(os.sched_getaffinity(0))
    script = os.path.join(ROOT, "perfbench", "tracing.py")
    for name, workers, env in cells:
        if workers > nproc:
            continue
        argv = [sys.executable, script, "--kind", w.experiment, "--n", str(w.n),
                "--d", str(w.d), "--seed", str(seed), "--replications", str(w.cell_reps),
                "--workers", str(workers)]
        proc = subprocess.run(argv, cwd=run.work, env=program_env(env), capture_output=True,
                              text=True, timeout=max(1.0, HARD_LIMIT_S - run.elapsed()))
        run.op(f"sweep cell {name}", proc.returncode)
        if proc.returncode:
            continue
        wall = json.loads(proc.stdout.strip().splitlines()[-1])["wall_s"]
        total = w.cell_reps * len(w.pairs)
        out[f"simulation.parallel_efficiency.{name}"] = per_rep * total / (workers * wall)
    out["simulation.parallel_efficiency"] = out[f"simulation.parallel_efficiency.w{w.workers}"]
    return out


def machine_record(w: Workload) -> dict:
    import numpy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 prints instead of returning
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "env": {k: os.environ.get(k) for k in THREAD_ENV},
        "workers": w.workers,
        "git_commit": git_commit(),
    }


def git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def summarize(values: list[float]) -> dict:
    """Median, sample count, and the highest listed percentile with at
    least ten samples beyond it (None when there are too few)."""
    import numpy

    top = [q for q in PERCENTILES if len(values) * (1 - q / 100) >= 10]
    q = max(top) if top else None
    return {
        "value": statistics.median(values),
        "samples": len(values),
        "percentile": q,
        "percentile_value": float(numpy.percentile(values, q)) if q else None,
    }


def run_one(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the result record (also written to disk)."""
    label = f"{w.name}-seed{seed}-trace{int(trace)}"
    work = fresh_dir(os.path.join(OUT, "work", f"{label}-{os.getpid()}"))
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    run = Run(work)
    record = {"workload": w.name, "seed": seed, "seconds": seconds, "trace": trace,
              "machine": machine_record(w)}
    try:
        if trace:
            spans = os.path.join(OUT, "results", f"{label}.spans.json")
            values = measure_traced(run, w, seed, spans)
            record["spans"] = os.path.relpath(spans, ROOT)
            record["metrics"] = {k: {"value": v} for k, v in values.items()}
        else:
            samples = measure(run, w, seed, seconds)
            record["metrics"] = {k: summarize(v) for k, v in samples.items()}
    finally:
        record.update(attempted=run.attempted, failed=run.failed, problems=run.problems,
                      wall_s=run.elapsed())
        shutil.rmtree(work, ignore_errors=True)
    with open(os.path.join(OUT, "results", f"{label}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    return record


def declared_units(trace: bool) -> dict[str, str]:
    """Unit of every metric BENCHMARK.json declares for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in declared}


def report_line(record: dict, units: dict[str, str]) -> str:
    metrics = {k: {"value": m["value"], "unit": units[k]} for k, m in record["metrics"].items()}
    return json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                       "failed": record["failed"], "metrics": metrics})


def print_details(record: dict, units: dict[str, str]) -> None:
    for name, m in record["metrics"].items():
        extra = ""
        if "samples" in m:
            pct = f"p{m['percentile']:g}={m['percentile_value']:.6g}" if m["percentile"] else "p-"
            extra = f"  n={m['samples']}  {pct}"
        print(f"{name:40s} {m['value']:14.6g} {units[name]:6s}{extra}")
    frac = record["failed"] / max(1, record["attempted"])
    print(f"{'failed_frac':40s} {frac:14.6g} {'1':6s}  "
          f"({record['failed']} of {record['attempted']} operations)")
    for p in record["problems"]:
        print(f"problem: {p}", file=sys.stderr)


def run_all(seconds: float, seeds: list[int]) -> int:
    """Every workload untraced on each seed, then traced once, as separate
    runs of this script; prints every metric with its check result."""
    runs = [(name, seed, 0) for seed in seeds for name in WORKLOAD_NAMES]
    runs += [(name, seeds[0], 1) for name in WORKLOAD_NAMES]
    bad = 0
    for name, seed, trace in runs:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
                str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        try:
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=200)
        except subprocess.TimeoutExpired:
            proc = subprocess.CompletedProcess(argv, -9, "", "timed out after 200 s")
        print(f"== {name} seed={seed} trace={trace} exit={proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]) if proc.returncode == 0 else proc.stderr, flush=True)
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        ok = bool(result and result["correct"])
        print(f"check: {'ok' if ok else 'FAILED'}")
        bad += not ok
    return 1 if bad else 0


def smoke() -> int:
    """Every workload at n=60, untraced (one round) and traced."""
    bad = 0
    for w in make_workloads(smoke=True).values():
        for trace in (False, True):
            units = declared_units(trace)
            record = run_one(w, ACCEPTANCE_SEED, 0, trace)
            mismatch = set(units) ^ set(record["metrics"])
            ok = record["failed"] == 0 and not mismatch
            print(f"smoke {w.name} trace={int(trace)}: {'ok' if ok else 'FAILED'} "
                  f"({record['attempted']} operations, {record['wall_s']:.1f} s)")
            if mismatch:
                print(f"undeclared or missing metrics: {sorted(mismatch)}", file=sys.stderr)
            elif not ok:
                print_details(record, units)
            bad += not ok
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=ACCEPTANCE_SEED)
    ap.add_argument("--seconds", type=float, default=38)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true",
                    help="every workload on the acceptance and held-out seeds, then traced")
    ap.add_argument("--smoke", action="store_true", help="seconds-long end-to-end self check")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "care_rank", "__init__.py")):
        print(f"error: no care_rank sources under {SRC}; run from a care-rank checkout",
              file=sys.stderr)
        return 2
    if not (args.all or args.smoke or args.workload):
        ap.error("one of --workload, --all or --smoke is required")
    sys.path.insert(0, SRC)
    if args.smoke:
        return smoke()
    if args.all:
        return run_all(args.seconds, [args.seed, HELD_OUT_SEED])
    w = make_workloads(smoke=False)[args.workload]
    units = declared_units(bool(args.trace))
    record = run_one(w, args.seed, args.seconds, bool(args.trace))
    print_details(record, units)
    print(report_line(record, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
