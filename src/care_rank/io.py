"""File ingestion and result serialization.

Comparison data arrives as CSV in either aggregated form
(``item_i,item_j,trials,wins_j``) or per-trial form
(``item_i,item_j,winner``); item ids are arbitrary strings mapped to
dense indices in sorted id order, so row order does not matter, and the
mapping travels with every output.  All writes go through a temp file
plus atomic rename so a failing command never leaves partial output, and
every float written to CSV uses 17 significant digits so it re-parses to
the identical double.
"""

from __future__ import annotations

import csv
import hashlib
import io as _io
import json
import os
from dataclasses import dataclass

import numpy as np

from .errors import ParseError
from .model import ComparisonData
from .simulation import ExperimentResult

__all__ = [
    "ParsedComparisons",
    "ParsedCovariates",
    "parse_comparisons_csv",
    "parse_covariates_csv",
    "read_config_file",
    "config_hash",
    "fmt17",
    "provenance_comment",
    "atomic_write_text",
    "write_json",
    "write_comparisons_csv",
    "write_covariates_csv",
    "write_inference_csv",
    "write_ranking_csv",
    "write_experiment_files",
]

AGGREGATED_HEADER = ["item_i", "item_j", "trials", "wins_j"]
PER_TRIAL_HEADER = ["item_i", "item_j", "winner"]
TIE_MARKER = "tie"


def fmt17(value) -> str:
    """Format a float with 17 significant digits (round-trip exact)."""
    return format(float(value), ".17g")


def atomic_write_text(path: str, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see a
    partial file and failures leave the old content intact."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".{os.path.basename(path)}.tmp-{os.getpid()}")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def write_json(path: str, payload: dict) -> None:
    atomic_write_text(path, json.dumps(payload, indent=2) + "\n")


@dataclass(frozen=True)
class ParsedComparisons:
    data: ComparisonData
    item_ids: list[str]
    tie_rows_dropped: int


@dataclass(frozen=True)
class ParsedCovariates:
    matrix: np.ndarray
    feature_names: list[str]
    extra_items: list[str]


def _read_rows(path: str) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """Header and body rows with 1-based line numbers; '#' comment lines
    (such as the provenance line our writers emit) and blank lines skip."""
    header = None
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            if row[0].lstrip().startswith("#"):
                continue
            if header is None:
                header = [h.strip() for h in row]
                continue
            rows.append((lineno, [cell.strip() for cell in row]))
    if header is None:
        raise ParseError(f"{path}: empty file")
    return header, rows


def parse_comparisons_csv(path: str) -> ParsedComparisons:
    """Load comparisons from CSV in aggregated or per-trial form.

    Item ids map to dense indices in sorted id order, so the result does
    not depend on row order and a write/parse round trip is exact.
    Duplicate pairs are summed, orientation is canonicalized to i < j in
    mapping order, and per-trial rows whose winner column is the tie
    marker are dropped (counted in the result) -- the model cannot
    represent ties.
    """
    header, rows = _read_rows(path)
    if header == AGGREGATED_HEADER:
        aggregated = True
    elif header == PER_TRIAL_HEADER:
        aggregated = False
    else:
        raise ParseError(
            f"{path}: unrecognized header {header}; expected "
            f"{AGGREGATED_HEADER} or {PER_TRIAL_HEADER}"
        )

    raw_edges: list[tuple[str, str, int, int]] = []
    ties = 0
    for lineno, row in rows:
        if len(row) != len(header):
            raise ParseError(f"expected {len(header)} columns, got {len(row)}", row=lineno)
        if not row[0] or not row[1]:
            raise ParseError("empty item id", row=lineno)
        if row[0] == row[1]:
            raise ParseError(f"self-comparison of item {row[0]!r}", row=lineno)
        if aggregated:
            try:
                trials = int(row[2])
                wins_j = int(row[3])
            except ValueError:
                raise ParseError(f"non-integer trials/wins in {row[2]!r},{row[3]!r}", row=lineno)
            if trials < 1:
                raise ParseError(f"trials must be positive, got {trials}", row=lineno)
            if not (0 <= wins_j <= trials):
                raise ParseError(f"wins_j {wins_j} outside [0, {trials}]", row=lineno)
        else:
            winner = row[2]
            if winner.lower() == TIE_MARKER:
                ties += 1
                continue
            if winner == row[0]:
                trials, wins_j = 1, 0
            elif winner == row[1]:
                trials, wins_j = 1, 1
            else:
                raise ParseError(
                    f"winner {winner!r} is neither {row[0]!r} nor {row[1]!r}", row=lineno
                )
        raw_edges.append((row[0], row[1], trials, wins_j))

    if not raw_edges:
        raise ParseError(f"{path}: no usable comparison rows")
    item_ids = sorted({name for edge in raw_edges for name in edge[:2]})
    index = {name: k for k, name in enumerate(item_ids)}
    edges: dict[tuple[int, int], list[int]] = {}
    for name_i, name_j, trials, wins_j in raw_edges:
        a, b = index[name_i], index[name_j]
        # Canonical orientation: lower index first, wins count the
        # higher-indexed item.
        if a > b:
            a, b = b, a
            wins_j = trials - wins_j
        acc = edges.setdefault((a, b), [0, 0])
        acc[0] += trials
        acc[1] += wins_j

    keys = sorted(edges)
    ii = np.array([k[0] for k in keys], dtype=np.int64)
    jj = np.array([k[1] for k in keys], dtype=np.int64)
    tt = np.array([edges[k][0] for k in keys], dtype=np.int64)
    ww = np.array([edges[k][1] for k in keys], dtype=np.int64)
    data = ComparisonData(len(item_ids), ii, jj, tt, ww)
    return ParsedComparisons(data, item_ids, ties)


def parse_covariates_csv(path: str, item_ids: list[str]) -> ParsedCovariates:
    """Load item features and align rows to the comparison mapping.

    The header is ``item,<f1>,...,<fd>``; a file with only the item
    column is valid and yields the covariate-free model.  Items outside
    the mapping are reported, not used.
    """
    header, rows = _read_rows(path)
    if not header or header[0] != "item":
        raise ParseError(f"{path}: first column must be 'item', got {header[:1]}")
    feature_names = header[1:]
    d = len(feature_names)
    wanted = set(item_ids)
    seen: dict[str, np.ndarray] = {}
    extra = []
    for lineno, row in rows:
        if len(row) != d + 1:
            raise ParseError(f"expected {d + 1} columns, got {len(row)}", row=lineno)
        name = row[0]
        if not name:
            raise ParseError("empty item id", row=lineno)
        if name in seen:
            raise ParseError(f"duplicate item {name!r}", row=lineno)
        values = np.empty(d)
        for col, cell in enumerate(row[1:], start=1):
            try:
                values[col - 1] = float(cell)
            except ValueError:
                raise ParseError(
                    f"non-numeric value {cell!r} in column {header[col]!r}", row=lineno
                )
        seen[name] = values
        if name not in wanted:
            extra.append(name)
    missing = [name for name in item_ids if name not in seen]
    if missing:
        raise ParseError(
            f"{path}: missing covariates for compared items {missing[:8]}"
            + ("..." if len(missing) > 8 else "")
        )
    if d == 0:
        matrix = np.zeros((len(item_ids), 0))
    else:
        matrix = np.vstack([seen[name] for name in item_ids])
    return ParsedCovariates(matrix, feature_names, extra)


def read_config_file(path: str) -> dict[str, str]:
    """Flat key=value config file; '#' starts a comment; blank lines ignored."""
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ParseError(f"expected key=value, got {stripped!r}", row=lineno)
            key, value = stripped.split("=", 1)
            out[key.strip().replace("-", "_")] = value.strip()
    return out


def config_hash(config: dict) -> str:
    """Stable hash of a configuration mapping (order-insensitive)."""
    canon = json.dumps({k: str(v) for k, v in sorted(config.items())}, sort_keys=True)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def provenance_comment(provenance: dict | None) -> str | None:
    """One '#' line identifying the producing run; stable across reruns
    (no timestamp) so output files stay byte-comparable."""
    if not provenance:
        return None
    return (
        f"# care-rank {provenance.get('version', '?')}"
        f" config={provenance.get('config_hash', '?')}"
        f" seed={provenance.get('seed')}"
    )


def _csv_text(header: list[str], rows, comment: str | None = None) -> str:
    buf = _io.StringIO()
    if comment:
        buf.write(comment + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def write_comparisons_csv(
    path: str, data: ComparisonData, item_ids: list[str], provenance: dict | None = None
) -> None:
    rows = (
        [item_ids[i], item_ids[j], int(t), int(w)]
        for i, j, t, w in zip(data.item_i, data.item_j, data.trials, data.wins_j)
    )
    atomic_write_text(
        path, _csv_text(AGGREGATED_HEADER, rows, provenance_comment(provenance))
    )


def write_covariates_csv(
    path: str,
    matrix: np.ndarray,
    item_ids: list[str],
    feature_names: list[str],
    provenance: dict | None = None,
) -> None:
    rows = (
        [item_ids[k]] + [fmt17(v) for v in matrix[k]] for k in range(len(item_ids))
    )
    atomic_write_text(
        path,
        _csv_text(["item"] + list(feature_names), rows, provenance_comment(provenance)),
    )


def write_inference_csv(
    path: str,
    report,
    item_ids: list[str],
    feature_names: list[str],
    provenance: dict | None = None,
) -> None:
    """One row per coefficient: intrinsic scores first, then covariate effects."""
    header = [
        "kind", "index", "name", "estimate", "std_error", "z_stat",
        "p_value", "ci_low", "ci_high", "level",
    ]
    rows = []
    for row in report.alpha_rows:
        rows.append([
            "alpha", row.index, item_ids[row.index], fmt17(row.estimate),
            fmt17(row.std_error), fmt17(row.z_stat), fmt17(row.p_value),
            fmt17(row.ci_low), fmt17(row.ci_high), fmt17(row.level),
        ])
    for row in report.beta_rows:
        name = feature_names[row.index] if row.index < len(feature_names) else f"f{row.index + 1}"
        rows.append([
            "beta", row.index, name, fmt17(row.estimate), fmt17(row.std_error),
            fmt17(row.z_stat), fmt17(row.p_value), fmt17(row.ci_low),
            fmt17(row.ci_high), fmt17(row.level),
        ])
    atomic_write_text(path, _csv_text(header, rows, provenance_comment(provenance)))


def write_ranking_csv(
    path: str, ranking, item_ids: list[str], provenance: dict | None = None
) -> None:
    header = ["item", "score1", "score2", "tau", "rank1", "rank2"]
    rows = (
        [item_ids[k], fmt17(ranking.scores1[k]), fmt17(ranking.scores2[k]),
         fmt17(ranking.taus[k]), int(ranking.ranks1[k]), int(ranking.ranks2[k])]
        for k in range(len(item_ids))
    )
    atomic_write_text(path, _csv_text(header, rows, provenance_comment(provenance)))


def _tidy_value(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return fmt17(value)


def write_experiment_files(out_dir: str, result: ExperimentResult, provenance: dict) -> None:
    """result.json with everything, records.csv tidy per-replication rows,
    and summary.csv with per-setting means and standard deviations."""
    os.makedirs(out_dir, exist_ok=True)
    payload = result.to_dict()
    payload["provenance"] = {**payload["provenance"], **provenance}
    write_json(os.path.join(out_dir, "result.json"), payload)
    comment = provenance_comment(payload["provenance"])

    records = (
        [fmt17(p), int(L), int(rep), stat, _tidy_value(value)]
        for (p, L, rep, stat, value) in result.tidy_rows()
    )
    atomic_write_text(
        os.path.join(out_dir, "records.csv"),
        _csv_text(["p", "L", "replication", "statistic", "value"], records, comment),
    )

    summary_rows = []
    for s in result.settings:
        for stat in sorted(s.aggregates):
            agg = s.aggregates[stat]
            summary_rows.append(
                [fmt17(s.p), int(s.L), stat, fmt17(agg["mean"]), fmt17(agg["sd"])]
            )
    atomic_write_text(
        os.path.join(out_dir, "summary.csv"),
        _csv_text(["p", "L", "statistic", "mean", "sd"], summary_rows, comment),
    )
