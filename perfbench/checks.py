"""Output checks that do not trust the solver.

Each check reads the files a ``care-rank`` command wrote and returns a
list of problems (empty when the output is correct).  The fit check
recomputes the projected gradient at the written estimates with the
public ``model.gradient`` and ``build_projection``, so it holds whatever
algorithm produced the estimates.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

from care_rank.estimation import preprocess_covariates
from care_rank.io import parse_comparisons_csv, parse_covariates_csv
from care_rank.model import ParamVector, build_projection, gradient

# The CLI's default grad_tol: a converged fit meets it by definition.
GRAD_TOL = 1e-8


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a CSV written by care-rank, '#' lines skipped."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    if not rows:
        raise ValueError(f"{path}: no header")
    return rows[0], rows[1:]


class Dataset:
    """A dataset as the CLI sees it, parsed once for repeated checks."""

    def __init__(self, data_dir: str):
        parsed = parse_comparisons_csv(os.path.join(data_dir, "comparisons.csv"))
        pc = parse_covariates_csv(os.path.join(data_dir, "covariates.csv"), parsed.item_ids)
        self.data = parsed.data
        self.cov = preprocess_covariates(pc.matrix)
        self.proj = build_projection(self.cov)
        self.n = self.cov.n_items
        self.d = self.cov.n_features


def check_fit(dataset: Dataset, out_dir: str) -> list[str]:
    """fit.json reports convergence and its estimates are stationary."""
    with open(os.path.join(out_dir, "fit.json"), encoding="utf-8") as fh:
        fit = json.load(fh)
    errors = []
    if fit.get("converged") is not True:
        errors.append(f"fit.json: not converged ({fit.get('stop_reason')})")
    params = ParamVector(np.array(fit["alpha"], dtype=float), np.array(fit["beta"], dtype=float))
    if params.n_items != dataset.n or params.n_features != dataset.d:
        return errors + [f"fit.json: shape ({params.n_items}, {params.n_features}) "
                         f"!= ({dataset.n}, {dataset.d})"]
    g = gradient(dataset.data, dataset.cov, params) / float(fit["likelihood_scale"])
    pg = float(np.linalg.norm(dataset.proj.apply(g)))
    if not pg <= GRAD_TOL:
        errors.append(f"fit.json: projected gradient {pg:.3g} > {GRAD_TOL:g}")
    return errors


def check_inference(dataset: Dataset, out_dir: str) -> list[str]:
    """inference.csv has one row per coefficient with a finite positive SE."""
    header, rows = read_csv(os.path.join(out_dir, "inference.csv"))
    errors = []
    if len(rows) != dataset.n + dataset.d:
        errors.append(f"inference.csv: {len(rows)} rows, expected {dataset.n + dataset.d}")
    col = header.index("std_error")
    bad = [r for r in rows if not (math.isfinite(float(r[col])) and float(r[col]) > 0)]
    if bad:
        errors.append(f"inference.csv: {len(bad)} rows without a finite positive std_error")
    return errors


def _ranks_consistent(scores: list[float], ranks: list[int]) -> bool:
    # Ranks are 1..n with the best score first, ties broken by item index.
    n = len(scores)
    if sorted(ranks) != list(range(1, n + 1)):
        return False
    order = sorted(range(n), key=lambda k: ranks[k])
    return all(
        scores[a] > scores[b] or (scores[a] == scores[b] and a < b)
        for a, b in zip(order, order[1:])
    )


def check_ranking(dataset: Dataset, out_dir: str) -> list[str]:
    """ranking.csv ranks are permutations consistent with their scores."""
    header, rows = read_csv(os.path.join(out_dir, "ranking.csv"))
    if len(rows) != dataset.n:
        return [f"ranking.csv: {len(rows)} rows, expected {dataset.n}"]
    errors = []
    for score_col, rank_col in (("score1", "rank1"), ("score2", "rank2")):
        s, r = header.index(score_col), header.index(rank_col)
        if not _ranks_consistent([float(x[s]) for x in rows], [int(x[r]) for x in rows]):
            errors.append(f"ranking.csv: {rank_col} is not a ranking of {score_col}")
    return errors


def check_experiment(out_dir: str, pairs, replications: int) -> tuple[list[str], int]:
    """Every (p, L) setting has exactly replications 0..R-1.

    Returns the problems found and the number of replications whose fit
    did not converge.
    """
    _, rows = read_csv(os.path.join(out_dir, "records.csv"))
    reps: dict[tuple[str, str], set[int]] = {}
    nonconverged = 0
    for p, L, rep, stat, value in rows:
        reps.setdefault((p, L), set()).add(int(rep))
        if stat == "converged" and value != "1":
            nonconverged += 1
    errors = []
    if len(reps) != len(pairs):
        errors.append(f"records.csv: {len(reps)} settings, expected {len(pairs)}")
    expected = set(range(replications))
    for key, got in sorted(reps.items()):
        if got != expected:
            errors.append(f"records.csv: setting {key} has {len(got)} replications, "
                          f"expected {replications}")
    return errors, nonconverged


def same_bytes(dir_a: str, dir_b: str, names=("records.csv", "summary.csv")) -> list[str]:
    """Files that differ between two experiment output directories."""
    errors = []
    for name in names:
        with open(os.path.join(dir_a, name), "rb") as fa, open(os.path.join(dir_b, name), "rb") as fb:
            if fa.read() != fb.read():
                errors.append(f"{name} differs between {dir_a} and {dir_b}")
    return errors
