"""File ingestion and result serialization.

Comparison data arrives as CSV in either aggregated form
(``item_i,item_j,trials,wins_j``) or per-trial form
(``item_i,item_j,winner``); item ids are arbitrary strings mapped to
dense indices in sorted id order, so row order does not matter, and the
mapping travels with every output.  ``csv.reader`` splits the records
into one Python list of stripped cells per column; the ids become
integer codes through one dict and the counts become numpy arrays a
column at a time, the checks and the pair sums run on those arrays, and
a malformed file raises the error of its first bad record with that
record's 1-based number.  The writers turn each numpy column into a
Python list once and hand the rows to ``csv.writer``.  All writes go
through a temp file plus atomic rename so a failing command never leaves
partial output, and every float written to CSV uses 17 significant
digits so it re-parses to the identical double.
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


def _read_table(path: str) -> tuple[list[str], list[int], list[list[str]], ParseError | None]:
    """A CSV file as its header and its body's columns.

    ``csv.reader`` splits the records, so quoting works as usual; blank
    records and '#' comment records (such as the provenance line our
    writers emit) are skipped.  Returns the stripped header, the 1-based
    record numbers of the body records, one list of stripped cells per
    header column, and the error for the first record whose width
    differs from the header's (or None).  The body stops before that
    record; its error stands only if no earlier record fails.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            records = list(csv.reader(fh))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    numbers = [
        k for k, row in enumerate(records, start=1)
        if row and ((first := row[0].lstrip()) and first[0] != "#"
                    or not first and any(map(str.strip, row)))
    ]
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
    columns = [[row[c].strip() for row in body] for c in range(len(header))]
    return header, numbers[1 : len(body) + 1], columns, width_error


def _raise_first(numbers: list[int], checks, width_error: ParseError | None) -> None:
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
        raise ParseError(message(k), row=numbers[k])
    if width_error is not None:
        raise width_error


def _convert(cells: list[str], kind: type) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Values of string cells as ``kind`` (int or float), the mask of
    cells ``kind()`` rejects and the mask of integers outside the int64
    range; the values of both read 0.  The cells are converted as one
    column; only when that raises does each cell go through ``kind()``
    alone, to locate the bad ones."""
    dtype = np.int64 if kind is int else np.float64
    try:
        values = np.fromiter(map(kind, cells), dtype=dtype, count=len(cells))
        clean = np.zeros(len(cells), dtype=bool)
        return values, clean, clean
    except (ValueError, OverflowError):
        pass
    values = np.zeros(len(cells), dtype=dtype)
    rejected = np.zeros(len(cells), dtype=bool)
    wide = np.zeros(len(cells), dtype=bool)
    for k, cell in enumerate(cells):
        try:
            value = kind(cell)
        except ValueError:
            rejected[k] = True
            continue
        try:
            values[k] = value
        except OverflowError:
            wide[k] = True
    return values, rejected, wide


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
    header, numbers, columns, width_error = _read_table(path)
    if header == AGGREGATED_HEADER:
        aggregated = True
    elif header == PER_TRIAL_HEADER:
        aggregated = False
    else:
        raise ParseError(
            f"{path}: unrecognized header {header}; expected "
            f"{AGGREGATED_HEADER} or {PER_TRIAL_HEADER}"
        )

    # Every id seen, in sorted order, as an integer code; the checks
    # below compare codes rather than strings.
    first, second = columns[0], columns[1]
    m = len(first)
    ids = sorted(set(first) | set(second))
    code = {name: k for k, name in enumerate(ids)}
    code_i = np.fromiter(map(code.__getitem__, first), dtype=np.int64, count=m)
    code_j = np.fromiter(map(code.__getitem__, second), dtype=np.int64, count=m)
    empty = code.get("", -1)
    checks = [
        ((code_i == empty) | (code_j == empty), lambda k: "empty item id"),
        (code_i == code_j, lambda k: f"self-comparison of item {first[k]!r}"),
    ]
    if aggregated:
        (trials, bad_t, wide_t), (wins_j, bad_w, wide_w) = (
            _convert(column, int) for column in columns[2:]
        )
        checks += [
            (bad_t | bad_w, lambda k: (
                f"non-integer trials/wins in {columns[2][k]!r},{columns[3][k]!r}"
            )),
            (wide_t | wide_w, lambda k: (
                f"trials/wins {columns[2][k]!r},{columns[3][k]!r} outside the 64-bit range"
            )),
            (trials < 1, lambda k: f"trials must be positive, got {trials[k]}"),
            ((wins_j < 0) | (wins_j > trials),
             lambda k: f"wins_j {wins_j[k]} outside [0, {trials[k]}]"),
        ]
        ties = 0
    else:
        winner = columns[2]
        tie = np.fromiter((w.lower() == TIE_MARKER for w in winner), dtype=bool, count=m)
        code_w = np.fromiter((code.get(w, -1) for w in winner), dtype=np.int64, count=m)
        checks.append((~(tie | (code_w == code_i) | (code_w == code_j)), lambda k: (
            f"winner {winner[k]!r} is neither {first[k]!r} nor {second[k]!r}"
        )))
        keep = ~tie
        ties = int(tie.sum())
        wins_j = (code_w == code_j)[keep].astype(np.int64)
        trials = np.ones(wins_j.size, dtype=np.int64)
        code_i, code_j = code_i[keep], code_j[keep]
    _raise_first(numbers, checks, width_error)
    del columns, first, second, checks, code  # free the cells before copying ids below

    if not code_i.size:
        raise ParseError(f"{path}: no usable comparison rows")
    if trials.sum(dtype=np.float64) >= 2.0**63:  # int64 sums below would wrap
        raise ParseError(f"{path}: trial counts sum past the 64-bit range")
    # Keep the ids the usable rows name, renumbered densely.  The kept
    # ids are fresh string objects: the parsed cells they came from are
    # scattered over the heap the records filled, and would keep it all
    # mapped for as long as the ids live.
    used = np.zeros(len(ids), dtype=bool)
    used[code_i] = used[code_j] = True
    item_ids = [ids[k].encode().decode() for k in np.flatnonzero(used).tolist()]
    renumber = np.cumsum(used) - 1
    index_i, index_j = renumber[code_i], renumber[code_j]
    n = len(item_ids)
    # Canonical orientation: lower index first, wins count the
    # higher-indexed item.
    flip = index_i > index_j
    wins_j = np.where(flip, trials - wins_j, wins_j)
    keys, edge = np.unique(
        np.minimum(index_i, index_j) * n + np.maximum(index_i, index_j), return_inverse=True
    )
    tt = np.zeros(keys.size, dtype=np.int64)
    ww = np.zeros(keys.size, dtype=np.int64)
    np.add.at(tt, edge, trials)
    np.add.at(ww, edge, wins_j)
    data = ComparisonData(n, keys // n, keys % n, tt, ww)
    return ParsedComparisons(data, item_ids, ties)


def parse_covariates_csv(path: str, item_ids: list[str]) -> ParsedCovariates:
    """Load item features and align rows to the comparison mapping.

    The header is ``item,<f1>,...,<fd>``; a file with only the item
    column is valid and yields the covariate-free model.  Items outside
    the mapping are reported, not used.
    """
    header, numbers, columns, width_error = _read_table(path)
    if header[0] != "item":
        raise ParseError(f"{path}: first column must be 'item', got {header[:1]}")
    feature_names = header[1:]
    names = columns[0]
    m = len(names)
    # The first record of each id; any later record of it is a duplicate.
    position = dict(zip(reversed(names), range(m - 1, -1, -1)))
    first_row = np.fromiter(map(position.__getitem__, names), dtype=np.int64, count=m)
    repeated = first_row != np.arange(m)
    values = np.zeros((m, len(feature_names)))
    bad = np.zeros((m, len(feature_names)), dtype=bool)
    for c, column in enumerate(columns[1:]):
        values[:, c], bad[:, c], _ = _convert(column, float)
    _raise_first(numbers, [
        (np.fromiter((name == "" for name in names), dtype=bool, count=m),
         lambda k: "empty item id"),
        (repeated, lambda k: f"duplicate item {names[k]!r}"),
        (bad.any(axis=1), lambda k: (
            f"non-numeric value {columns[1 + bad[k].argmax()][k]!r} "
            f"in column {header[1 + bad[k].argmax()]!r}"
        )),
    ], width_error)

    missing = [name for name in item_ids if name not in position]
    if missing:
        raise ParseError(
            f"{path}: missing covariates for compared items {missing[:8]}"
            + ("..." if len(missing) > 8 else "")
        )
    wanted = set(item_ids)
    extra = [name for name in names if name not in wanted]
    matrix = values[[position[name] for name in item_ids]]
    return ParsedCovariates(matrix, feature_names, extra)


def read_config_file(path: str) -> dict[str, str]:
    """Flat key=value config file; '#' starts a comment; blank lines ignored."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    out: dict[str, str] = {}
    for lineno, line in enumerate(lines, start=1):
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
    writer.writerows(rows)
    return buf.getvalue()


def write_comparisons_csv(
    path: str, data: ComparisonData, item_ids: list[str], provenance: dict | None = None
) -> None:
    rows = zip(
        map(item_ids.__getitem__, data.item_i.tolist()),
        map(item_ids.__getitem__, data.item_j.tolist()),
        data.trials.tolist(),
        data.wins_j.tolist(),
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
    rows = ([name, *map(fmt17, values)] for name, values in zip(item_ids, matrix.tolist()))
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
    rows = zip(
        item_ids,
        map(fmt17, ranking.scores1.tolist()),
        map(fmt17, ranking.scores2.tolist()),
        map(fmt17, ranking.taus.tolist()),
        ranking.ranks1.tolist(),
        ranking.ranks2.tolist(),
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
