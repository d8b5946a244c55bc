"""File ingestion and result serialization.

Comparison data arrives as CSV in either aggregated form
(``item_i,item_j,trials,wins_j``) or per-trial form
(``item_i,item_j,winner``); item ids are arbitrary strings mapped to
dense indices in sorted id order, so row order does not matter, and the
mapping travels with every output.  ``csv.reader`` splits the records;
the cells are then stripped, checked, mapped and summed as numpy
columns, and a malformed file raises the error of its first bad record
with that record's 1-based number.  All writes go through a temp file
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
    "file_sha256",
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


def _is_record(row: list[str]) -> bool:
    """False for blank records and for '#' comment records (such as the
    provenance line our writers emit)."""
    first = row[0].lstrip() if row else ""
    if first:
        return first[0] != "#"
    return any(cell.strip() for cell in row)


def _read_table(path: str) -> tuple[list[str], np.ndarray, np.ndarray, ParseError | None]:
    """A CSV file as its header and a column-addressable body.

    ``csv.reader`` splits the records, so quoting works as usual; blank
    and comment records are skipped.  Returns the stripped header, the
    1-based record numbers of the body records, their stripped cells as
    an (m, width) string array, and the error for the first record whose
    width differs from the header's (or None).  The body stops before
    that record; its error stands only if no earlier record fails.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        records = list(csv.reader(fh))
    numbers = [k for k, row in enumerate(records, start=1) if _is_record(row)]
    if not numbers:
        raise ParseError(f"{path}: empty file")
    header = [h.strip() for h in records[numbers[0] - 1]]
    body = [records[k - 1] for k in numbers[1:]]
    del records
    widths = np.fromiter(map(len, body), dtype=np.int64, count=len(body))
    wrong = np.flatnonzero(widths != len(header))
    width_error = None
    if wrong.size:
        k = int(wrong[0])
        width_error = ParseError(
            f"expected {len(header)} columns, got {widths[k]}", row=numbers[k + 1]
        )
        del body[k:]
    cells = np.array(body, dtype=str).reshape(len(body), len(header))
    del body
    return header, np.array(numbers[1 : len(cells) + 1]), np.char.strip(cells), width_error


def _raise_first(numbers: np.ndarray, checks, width_error: ParseError | None) -> None:
    """Raise the error a record-by-record reading would meet first.

    ``checks`` are (mask, message) pairs in the order a record is
    checked; ``message`` builds the text from a record's position.  The
    earliest record failing any check wins, and at that record the
    earliest check.  The body stops before the width error's record, so
    that error is raised only when no check fails.
    """
    first = None
    for mask, message in checks:
        hits = np.flatnonzero(mask)
        if hits.size and (first is None or hits[0] < first[0]):
            first = (int(hits[0]), message)
    if first is not None:
        k, message = first
        raise ParseError(message(k), row=int(numbers[k]))
    if width_error is not None:
        raise width_error


def _convert(cells: np.ndarray, kind: type) -> tuple[np.ndarray, np.ndarray]:
    """Values of string cells as ``kind`` (int or float) and the mask of
    cells ``kind()`` rejects, whose values read 0.  numpy's cast accepts
    the spellings ``kind()`` accepts; when it refuses the array, each
    cell goes through ``kind()`` to locate the bad ones."""
    dtype = np.int64 if kind is int else np.float64
    try:
        return cells.astype(dtype), np.zeros(cells.shape, dtype=bool)
    except (ValueError, OverflowError):
        values = np.zeros(cells.shape, dtype=dtype)
        bad = np.zeros(cells.shape, dtype=bool)
        for pos, cell in np.ndenumerate(cells):
            try:
                values[pos] = kind(cell)
            except ValueError:
                bad[pos] = True
        return values, bad


def parse_comparisons_csv(path: str) -> ParsedComparisons:
    """Load comparisons from CSV in aggregated or per-trial form.

    Item ids map to dense indices in sorted id order, so the result does
    not depend on row order and a write/parse round trip is exact.
    Duplicate pairs are summed, orientation is canonicalized to i < j in
    mapping order, and per-trial rows whose winner column is the tie
    marker are dropped (counted in the result) -- the model cannot
    represent ties.  The records are checked and aggregated as columns;
    a malformed file raises the error of its first bad record, with that
    record's number.
    """
    header, numbers, cells, width_error = _read_table(path)
    if header == AGGREGATED_HEADER:
        aggregated = True
    elif header == PER_TRIAL_HEADER:
        aggregated = False
    else:
        raise ParseError(
            f"{path}: unrecognized header {header}; expected "
            f"{AGGREGATED_HEADER} or {PER_TRIAL_HEADER}"
        )

    first, second = cells[:, 0], cells[:, 1]
    checks = [
        ((first == "") | (second == ""), lambda k: "empty item id"),
        (first == second, lambda k: f"self-comparison of item {str(first[k])!r}"),
    ]
    if aggregated:
        (trials, wins_j), bad = _convert(cells[:, 2:].T, int)
        checks += [
            (bad.any(axis=0), lambda k: (
                f"non-integer trials/wins in {str(cells[k, 2])!r},{str(cells[k, 3])!r}"
            )),
            (trials < 1, lambda k: f"trials must be positive, got {trials[k]}"),
            ((wins_j < 0) | (wins_j > trials),
             lambda k: f"wins_j {wins_j[k]} outside [0, {trials[k]}]"),
        ]
        keep = slice(None)
        ties = 0
    else:
        winner = cells[:, 2]
        tie = np.char.lower(winner) == TIE_MARKER
        second_won = winner == second
        checks.append((~(tie | second_won | (winner == first)), lambda k: (
            f"winner {str(winner[k])!r} is neither {str(first[k])!r} nor {str(second[k])!r}"
        )))
        keep = ~tie
        ties = int(tie.sum())
        trials = np.ones(int(keep.sum()), dtype=np.int64)
        wins_j = second_won[keep].astype(np.int64)
    _raise_first(numbers, checks, width_error)

    pairs = cells[keep, :2]
    del cells
    if not pairs.size:
        raise ParseError(f"{path}: no usable comparison rows")
    if trials.sum(dtype=np.float64) >= 2.0**63:  # int64 sums below would wrap
        raise ParseError(f"{path}: trial counts sum past the 64-bit range")
    item_ids, index = np.unique(pairs, return_inverse=True)
    index = index.reshape(-1, 2)
    n = item_ids.size
    # Canonical orientation: lower index first, wins count the
    # higher-indexed item.
    flip = index[:, 0] > index[:, 1]
    wins_j = np.where(flip, trials - wins_j, wins_j)
    keys, edge = np.unique(index.min(axis=1) * n + index.max(axis=1), return_inverse=True)
    tt = np.zeros(keys.size, dtype=np.int64)
    ww = np.zeros(keys.size, dtype=np.int64)
    np.add.at(tt, edge, trials)
    np.add.at(ww, edge, wins_j)
    data = ComparisonData(n, keys // n, keys % n, tt, ww)
    return ParsedComparisons(data, item_ids.tolist(), ties)


def parse_covariates_csv(path: str, item_ids: list[str]) -> ParsedCovariates:
    """Load item features and align rows to the comparison mapping.

    The header is ``item,<f1>,...,<fd>``; a file with only the item
    column is valid and yields the covariate-free model.  Items outside
    the mapping are reported, not used.
    """
    header, numbers, cells, width_error = _read_table(path)
    if header[0] != "item":
        raise ParseError(f"{path}: first column must be 'item', got {header[:1]}")
    feature_names = header[1:]
    names = cells[:, 0]
    repeated = np.ones(names.size, dtype=bool)
    repeated[np.unique(names, return_index=True)[1]] = False
    values, bad = _convert(cells[:, 1:], float)
    _raise_first(numbers, [
        (names == "", lambda k: "empty item id"),
        (repeated, lambda k: f"duplicate item {str(names[k])!r}"),
        (bad.any(axis=1), lambda k: (
            f"non-numeric value {str(cells[k, 1 + bad[k].argmax()])!r} "
            f"in column {header[1 + bad[k].argmax()]!r}"
        )),
    ], width_error)

    position = {name: k for k, name in enumerate(names.tolist())}
    missing = [name for name in item_ids if name not in position]
    if missing:
        raise ParseError(
            f"{path}: missing covariates for compared items {missing[:8]}"
            + ("..." if len(missing) > 8 else "")
        )
    wanted = set(item_ids)
    extra = [name for name in position if name not in wanted]
    matrix = values[[position[name] for name in item_ids]]
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


def file_sha256(path: str) -> str:
    """Hex sha256 of a file's bytes."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


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
