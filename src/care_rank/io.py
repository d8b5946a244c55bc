"""File ingestion and result serialization.

Comparison data arrives as CSV in either aggregated form
(``item_i,item_j,trials,wins_j``) or per-trial form
(``item_i,item_j,winner``); item ids are arbitrary strings mapped to
dense indices in sorted id order, so row order does not matter, and the
mapping travels with every output.

Two tokenizers read a comparison file into numpy columns of id codes
and counts, and only decide whether the file is valid.  A plain
aggregated file (ASCII, no quotes, unpadded cells, counts of ASCII
digits), such as ``care-rank simulate`` writes, is tokenized from its
bytes (``_plain_columns``); any other file, or a plain one that fails a
check, from the records ``csv.reader`` splits (``_csv_columns``).  Both
share the checks (``_valid``), the renumbering and the pair sums.  Only
an invalid file is walked one record at a time, to name its first bad
record by its 1-based number (``_raise_first_bad_record``); covariate
files, one record per item, are always read that way.

Every CSV output is one table written by ``_write_table``: the
provenance '#' line, the header, then the rows zipped from one column
per header cell.  A float numpy column is written with 17 significant
digits (``fmt17``), so it re-parses to the identical double; each writer
only names its header and columns.  All writes go through a temp file
plus atomic rename, so a failing command never leaves partial output.
"""

from __future__ import annotations

import csv
import hashlib
import io as _io
import json
import os
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import InvalidArgumentError, ParseError
from .model import ComparisonData

if TYPE_CHECKING:
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


def _records(path: str) -> tuple[list[str], list[int], list[list[str]]]:
    """A CSV file's stripped header, and the 1-based numbers and raw
    cells of its body records, as ``csv.reader`` splits them (so quoting
    works as usual).  A leading UTF-8 byte-order mark is dropped; blank
    records and '#' comment records, such as the provenance line our
    writers emit, are skipped."""
    records = []
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            records.extend(csv.reader(fh))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:  # such as a cell past csv.field_size_limit()
        raise ParseError(str(exc), row=len(records) + 1) from None
    numbers = [
        k for k, row in enumerate(records, start=1)
        if row and ((first := row[0].lstrip()) and first[0] != "#"
                    or not first and any(map(str.strip, row)))
    ]
    if not numbers:
        raise ParseError(f"{path}: empty file")
    header = [h.strip() for h in records[numbers[0] - 1]]
    return header, numbers[1:], [records[k - 1] for k in numbers[1:]]


def _stripped_rows(header: list[str], numbers: list[int], body: list[list[str]]):
    """Each body record's number and stripped cells, in file order; a
    record of another width than the header is a ParseError there."""
    for number, row in zip(numbers, body):
        if len(row) != len(header):
            raise ParseError(f"expected {len(header)} columns, got {len(row)}", row=number)
        yield number, [cell.strip() for cell in row]


def _valid(ids, code_i, code_j, trials, wins_j) -> bool:
    """Whether every record has two distinct non-empty ids (as codes into
    the sorted ``ids``), trials >= 1 and wins_j in [0, trials]."""
    empty = 0 if ids[:1] == [""] else -1
    return bool((
        (code_i != empty) & (code_j != empty) & (code_i != code_j)
        & (trials >= 1) & (wins_j >= 0) & (wins_j <= trials)
    ).all())


# An aggregated file is plain when csv.reader and str.strip would leave
# its bytes as they are: see _plain_columns.
_PLAIN_HEADER = ",".join(AGGREGATED_HEADER).encode()
_MAX_ID_BYTES = 64  # so an id's sort key is at most eight 64-bit words
_MAX_DIGITS = 18  # every count of 18 digits is below 2**63


def _digit_values(body: np.ndarray, last: np.ndarray, width: np.ndarray) -> np.ndarray | None:
    """The integers spelled by the cells of ``width`` bytes ending at
    ``last``, or None if a cell has a byte other than an ASCII digit."""
    value = np.zeros(last.size, dtype=np.int64)
    for w in range(int(width.max())):
        inside = width > w
        digit = body.take(last - w, mode="clip") - np.uint8(48)  # other bytes wrap past 9
        if (inside & (digit > 9)).any():
            return None
        value += np.where(inside, digit, 0).astype(np.int64) * 10**w
    return value


def _sorted_codes(body: np.ndarray, first: np.ndarray, size: np.ndarray):
    """The distinct ids spelled by the cells of ``size`` bytes at
    ``first``, in sorted order, and each cell's code into them.

    Each id is a big-endian number of its bytes, NUL-padded, split into
    64-bit words; with no NUL inside an id these numbers sort as the ids
    do.  Bytes that are the same in every id change neither the order
    nor which ids are equal, so they are left out.
    """
    longest = int(size.max())
    words, kept = [], 0
    for w in range(longest):
        byte = np.where(size > w, body.take(first + w, mode="clip"), np.uint8(0))
        if (byte == byte[0]).all():
            continue
        if kept % 8 == 0:
            words.append(np.zeros(first.size, dtype=np.uint64))
        words[-1] = (words[-1] << np.uint64(8)) | byte
        kept += 1
    if not words:  # a single id
        words.append(np.zeros(first.size, dtype=np.uint64))
    order = np.argsort(words[0]) if len(words) == 1 else np.lexsort(words[::-1])
    new = np.zeros(first.size, dtype=bool)
    new[0] = True
    for word in words:
        ranked = word[order]
        new[1:] |= ranked[1:] != ranked[:-1]
    codes = np.empty(first.size, dtype=np.int64)
    codes[order] = np.cumsum(new) - 1
    chosen = order[new]
    ids = [body[a:a + n].tobytes().decode()
           for a, n in zip(first[chosen].tolist(), size[chosen].tolist())]
    return ids, codes


def _plain_columns(raw: bytes):
    """The sorted ids, each record's id codes and counts, and the number
    of tie records dropped (0) of a plain aggregated file, tokenized from
    its bytes (the caller checks the records); None for a file that is
    not plain.

    Plain means: ASCII with no '"' byte and no line longer than
    csv's field limit, line ends '\\n' or '\\r\\n', and, after any blank
    or '#' lines, exactly the aggregated header; every later line that
    is neither blank nor starts with '#' holds four non-empty cells with
    no byte at or below the space, ids of at most 64 bytes and counts of
    1-18 ASCII digits.  On such a file ``csv.reader`` and ``str.strip``
    change nothing, so the cells are the bytes between the separators,
    the ids sort as their bytes do and ``int()`` reads each count as its
    digits spell it.
    """
    if not raw.isascii() or b'"' in raw:
        return None
    if b"\r" in raw:
        if raw.count(b"\r") != raw.count(b"\r\n"):
            return None
        raw = raw.replace(b"\r\n", b"\n")
    if not raw.endswith(b"\n"):
        raw += b"\n"
    buf = np.frombuffer(raw, dtype=np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    starts = np.concatenate(([0], ends[:-1] + 1))
    if (ends - starts).max() > csv.field_size_limit():
        return None
    lines = np.flatnonzero((starts < ends) & (buf[starts] != ord("#")))
    if lines.size < 2 or raw[starts[lines[0]]:ends[lines[0]]] != _PLAIN_HEADER:
        return None
    # The body: the records after the header, each ending in '\n'.
    lines = lines[1:]
    if lines.size == ends.size - lines[0]:
        body = buf[starts[lines[0]]:]
    else:  # blank or '#' lines among the records
        keep = np.zeros(ends.size, dtype=bool)
        keep[lines] = True
        body = buf[np.repeat(keep, ends - starts + 1)]
    ends = np.flatnonzero(body == ord("\n"))
    m = ends.size
    commas = np.flatnonzero(body == ord(","))
    if np.count_nonzero(body <= ord(" ")) != m or commas.size != 3 * m:
        return None
    # Each record's separators, from the '\n' before it to its own.
    bounds = np.column_stack((np.concatenate(([-1], ends[:-1])), commas.reshape(m, 3), ends))
    width = np.diff(bounds, axis=1) - 1
    if width.min() < 1 or width[:, :2].max() > _MAX_ID_BYTES or width[:, 2:].max() > _MAX_DIGITS:
        return None
    trials = _digit_values(body, bounds[:, 3] - 1, width[:, 2])
    wins_j = _digit_values(body, bounds[:, 4] - 1, width[:, 3])
    if trials is None or wins_j is None:
        return None

    ids, codes = _sorted_codes(body, bounds[:, :2].ravel() + 1, width[:, :2].ravel())
    return ids, codes[0::2], codes[1::2], trials, wins_j, 0


def _csv_columns(header: list[str], body: list[list[str]]):
    """What ``_plain_columns`` returns, from the records ``_records``
    read (the caller checks the records); None if a record's width
    differs from the header's, a count is one ``int()`` rejects or one
    outside the int64 range, a winner is neither item of its record, or
    a tie record fails the id checks of ``_valid``."""
    if set(map(len, body)) - {len(header)}:
        return None
    first, second, *rest = ([row[c].strip() for row in body] for c in range(len(header)))
    m = len(first)
    # Every id seen, in sorted order, as an integer code; the checks
    # compare codes rather than strings.
    ids = sorted(set(first) | set(second))
    code = {name: k for k, name in enumerate(ids)}
    code_i = np.fromiter(map(code.__getitem__, first), dtype=np.int64, count=m)
    code_j = np.fromiter(map(code.__getitem__, second), dtype=np.int64, count=m)
    if header == AGGREGATED_HEADER:
        try:
            trials, wins_j = (np.fromiter(map(int, c), dtype=np.int64, count=m) for c in rest)
        except (ValueError, OverflowError):
            return None
        return ids, code_i, code_j, trials, wins_j, 0
    winner = rest[0]
    tie = np.fromiter((w.lower() == TIE_MARKER for w in winner), dtype=bool, count=m)
    code_w = np.fromiter((code.get(w, -1) for w in winner), dtype=np.int64, count=m)
    trials = np.ones(m, dtype=np.int64)
    wins_j = (code_w == code_j).astype(np.int64)
    # Tie records are checked with the others, before they are dropped.
    named = tie | (code_w == code_i) | (code_w == code_j)
    if not (named.all() and _valid(ids, code_i, code_j, trials, wins_j)):
        return None
    keep = ~tie
    return ids, code_i[keep], code_j[keep], trials[keep], wins_j[keep], m - int(keep.sum())


def _raise_first_bad_record(header: list[str], numbers: list[int], body: list[list[str]]):
    """Raise the error of the first comparison record that fails a
    check, with its number, checking one record at a time.  Only called
    once a tokenizer has found the file invalid."""
    aggregated = header == AGGREGATED_HEADER
    for number, (first, second, *rest) in _stripped_rows(header, numbers, body):
        if not first or not second:
            raise ParseError("empty item id", row=number)
        if first == second:
            raise ParseError(f"self-comparison of item {first!r}", row=number)
        if aggregated:
            try:
                trials, wins_j = map(int, rest)
            except ValueError:
                raise ParseError(
                    f"non-integer trials/wins in {rest[0]!r},{rest[1]!r}", row=number
                ) from None
            if not -(2**63) <= min(trials, wins_j) <= max(trials, wins_j) < 2**63:
                raise ParseError(
                    f"trials/wins {rest[0]!r},{rest[1]!r} outside the 64-bit range", row=number
                )
            if trials < 1:
                raise ParseError(f"trials must be positive, got {trials}", row=number)
            if not 0 <= wins_j <= trials:
                raise ParseError(f"wins_j {wins_j} outside [0, {trials}]", row=number)
        elif rest[0].lower() != TIE_MARKER and rest[0] not in (first, second):
            raise ParseError(
                f"winner {rest[0]!r} is neither {first!r} nor {second!r}", row=number
            )
    raise AssertionError("a tokenizer refused records that pass every check")


def parse_comparisons_csv(path: str) -> ParsedComparisons:
    """Load comparisons from CSV in aggregated or per-trial form.

    Item ids map to dense indices in sorted id order, so the result does
    not depend on row order and a write/parse round trip is exact.
    Duplicate pairs are summed, orientation is canonicalized to i < j in
    mapping order, and per-trial rows whose winner column is the tie
    marker are dropped (counted in the result) -- the model cannot
    represent ties.  An invalid file raises the error of its first bad
    record, with that record's number.
    """
    with open(path, "rb") as fh:
        columns = _plain_columns(fh.read())
    if columns is None or not _valid(*columns[:5]):
        header, numbers, body = _records(path)
        if header not in (AGGREGATED_HEADER, PER_TRIAL_HEADER):
            raise ParseError(
                f"{path}: unrecognized header {header}; expected "
                f"{AGGREGATED_HEADER} or {PER_TRIAL_HEADER}"
            )
        columns = _csv_columns(header, body)
        if columns is None or not _valid(*columns[:5]):
            _raise_first_bad_record(header, numbers, body)
    ids, code_i, code_j, trials, wins_j, ties = columns

    if not code_i.size:
        raise ParseError(f"{path}: no usable comparison rows")
    if trials.sum(dtype=np.float64) >= 2.0**63:  # int64 sums below would wrap
        raise ParseError(f"{path}: trial counts sum past the 64-bit range")
    # Keep the ids the usable rows name, renumbered densely.  The kept
    # ids are fresh string objects: cells parsed by csv.reader are
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

    The header is ``item,<f1>,...,<fd>`` with distinct, nonempty
    feature names; a file with only the item column is valid and yields
    the covariate-free model.  Items outside the mapping are reported,
    not used.  A covariate file has one record per item, so its records
    are checked one at a time and the first bad one is named by number.
    """
    header, numbers, body = _records(path)
    if header[0] != "item":
        raise ParseError(f"{path}: first column must be 'item', got {header[:1]}")
    feature_names = header[1:]
    for column, name in enumerate(feature_names, start=2):
        if not name or name in feature_names[: column - 2]:
            what = f"duplicate feature name {name!r}" if name else "empty feature name"
            raise ParseError(f"{path}: {what} in column {column}")
    position, values = {}, []
    for number, (name, *cells) in _stripped_rows(header, numbers, body):
        if not name:
            raise ParseError("empty item id", row=number)
        if name in position:
            raise ParseError(f"duplicate item {name!r}", row=number)
        position[name] = len(position)
        for cell, feature in zip(cells, feature_names):
            try:
                values.append(float(cell))
            except ValueError:
                raise ParseError(
                    f"non-numeric value {cell!r} in column {feature!r}", row=number
                ) from None

    missing = [name for name in item_ids if name not in position]
    if missing:
        raise ParseError(
            f"{path}: missing covariates for compared items {missing[:8]}"
            + ("..." if len(missing) > 8 else "")
        )
    wanted = set(item_ids)
    extra = [name for name in position if name not in wanted]
    matrix = np.array(values).reshape(len(position), len(feature_names))
    return ParsedCovariates(matrix[[position[name] for name in item_ids]], feature_names, extra)


def read_config_file(path: str) -> dict[str, str]:
    """Flat key=value config file; '#' starts a comment; blank lines
    ignored; a leading UTF-8 byte-order mark is dropped."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
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


def _write_table(path: str, header: list[str], columns, provenance: dict | None) -> None:
    """Write the provenance line, the header and one row per position of
    ``columns``, one column per header cell: a float numpy array through
    ``fmt17``, any other numpy array as its ``tolist()``, anything else
    as given."""
    cells = [
        column if not isinstance(column, np.ndarray)
        else map(fmt17, column.tolist()) if column.dtype.kind == "f" else column.tolist()
        for column in columns
    ]
    buf = _io.StringIO()
    if comment := provenance_comment(provenance):
        buf.write(comment + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(zip(*cells))
    atomic_write_text(path, buf.getvalue())


def write_comparisons_csv(
    path: str, data: ComparisonData, item_ids: list[str], provenance: dict | None = None
) -> None:
    _write_table(path, AGGREGATED_HEADER, [
        map(item_ids.__getitem__, data.item_i.tolist()),
        map(item_ids.__getitem__, data.item_j.tolist()),
        data.trials, data.wins_j,
    ], provenance)


def write_covariates_csv(
    path: str,
    matrix: np.ndarray,
    item_ids: list[str],
    feature_names: list[str],
    provenance: dict | None = None,
) -> None:
    _write_table(path, ["item", *feature_names], [item_ids, *matrix.T], provenance)


def write_inference_csv(
    path: str,
    report,
    item_ids: list[str],
    feature_names: list[str],
    provenance: dict | None = None,
) -> None:
    """One row per coefficient: intrinsic scores first, then covariate
    effects, named by ``item_ids`` and then ``feature_names``."""
    n, d = len(item_ids), len(feature_names)
    if n + d != report.estimate.size:
        raise InvalidArgumentError(
            f"{n} item ids and {d} feature names for {report.estimate.size} coefficients"
        )
    header = [
        "kind", "index", "name", "estimate", "std_error", "z_stat",
        "p_value", "ci_low", "ci_high", "level",
    ]
    _write_table(path, header, [
        ["alpha"] * n + ["beta"] * d, [*range(n), *range(d)], [*item_ids, *feature_names],
        report.estimate, report.std_error, report.z_stat, report.p_value,
        report.ci_low, report.ci_high, np.full(n + d, report.level),
    ], provenance)


def write_ranking_csv(
    path: str, ranking, item_ids: list[str], provenance: dict | None = None
) -> None:
    _write_table(path, ["item", "score1", "score2", "tau", "rank1", "rank2"], [
        item_ids, ranking.scores1, ranking.scores2, ranking.taus, ranking.ranks1, ranking.ranks2,
    ], provenance)


def _cells(column: np.ndarray):
    """A record column as records.csv writes it: floats by ``fmt17``,
    integers and flags as digits."""
    return map(fmt17, column.tolist()) if column.dtype.kind == "f" else column.astype(int).tolist()


def write_experiment_files(out_dir: str, result: ExperimentResult, provenance: dict) -> None:
    """result.json with everything, records.csv with one (p, L, replication,
    statistic, value) row per recorded number, and summary.csv with
    per-setting means and standard deviations.  A setting with no
    converged fit has no other means, which a stderr note says."""
    for s in result.settings:
        if not s.records["converged"].any():
            print(f"note: no fit converged at (p={s.p}, L={s.L}); "
                  "summary.csv gives only its converged and resamples rows", file=sys.stderr)
    payload = result.to_dict()
    payload["provenance"] = {**payload["provenance"], **provenance}
    write_json(os.path.join(out_dir, "result.json"), payload)
    records = [
        (fmt17(s.p), s.L, rep, name, cell)
        for s in result.settings
        for rep, row in zip(s.records["replication"].tolist(),
                            zip(*map(_cells, s.records.values())))
        for name, cell in zip(s.records, row) if name != "replication"
    ]
    summary = [
        (fmt17(s.p), s.L, stat, fmt17(agg["mean"]), fmt17(agg["sd"]))
        for s in result.settings for stat, agg in sorted(s.aggregates.items())
    ]
    for name, header, rows in (
        ("records.csv", ["p", "L", "replication", "statistic", "value"], records),
        ("summary.csv", ["p", "L", "statistic", "mean", "sd"], summary),
    ):
        _write_table(os.path.join(out_dir, name), header, zip(*rows), payload["provenance"])
