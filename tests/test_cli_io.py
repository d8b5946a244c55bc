"""CSV ingestion, serialization, CLI commands, and exit codes."""

import argparse
import csv
import io
import json
import os
import shutil
import struct
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from care_rank import cli
from care_rank.cli import (
    EXIT_CONFIG,
    EXIT_CONNECTIVITY,
    EXIT_CONVERGENCE,
    EXIT_OK,
    EXIT_PARSE,
    main,
)
from care_rank.errors import InvalidArgumentError, ParseError
from care_rank.inference import InferenceReport, RankingScores, factor_peak_bytes
from care_rank.io import (
    AGGREGATED_HEADER,
    PER_TRIAL_HEADER,
    _plain_columns,
    fmt17,
    parse_comparisons_csv,
    parse_covariates_csv,
    provenance_comment,
    read_config_file,
    write_comparisons_csv,
    write_covariates_csv,
    write_experiment_files,
    write_inference_csv,
    write_json,
    write_ranking_csv,
)
from care_rank.model import ComparisonData
from care_rank.simulation import (
    DISTRIBUTION_STATISTICS,
    ExperimentPlan,
    SyntheticSpec,
    run_distribution_experiment,
    run_rate_experiment,
)

from oracles import (
    comparisons_text_by_rows,
    covariates_text_by_rows,
    experiment_texts_by_rows,
    inference_text_by_rows,
    parse_comparisons_by_rows,
    parse_covariates_by_rows,
    ranking_text_by_rows,
)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def read_csv(path):
    """Rows of a CSV output, skipping the leading provenance comment."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.reader(lines))


def read_csv_dicts(path):
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def parse_outcome(parse, path):
    """What a parser makes of a file: the parsed result, or the message
    and record number of its ParseError."""
    try:
        parsed = parse(path)
    except ParseError as exc:
        return "error", str(exc), exc.row
    data = parsed.data
    return "ok", data.n_items, data.edges, parsed.item_ids, parsed.tie_rows_dropped


def covariates_outcome(parse, path, item_ids):
    """What a covariates parser makes of a file: the matrix (by shape
    and bytes, so NaN compares equal), feature names and extra items, or
    the message and record number of its ParseError."""
    try:
        parsed = parse(path, item_ids)
    except ParseError as exc:
        return "error", str(exc), exc.row
    matrix = parsed.matrix
    return "ok", matrix.shape, matrix.tobytes(), parsed.feature_names, parsed.extra_items


# Ids with a comma, inner and outer blanks, quotes, a leading '#' (a
# record starting with it is a comment), the tie marker itself, a
# trailing NUL (kept: it is not whitespace) and Unicode whitespace
# (stripped, so "\u2003a" is "a").
ODD_IDS = [
    "a", "b", "c,d", " e f ", '"g"', "#h", "Tie", "10", "item_2", "a\x00", "\u2003a",
]


def csv_text(draw, records):
    """Records as CSV text, with blank, comment and blank-cell lines
    drawn in before each."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for record in records:
        for _ in range(draw(st.integers(0, 2))):
            buf.write(draw(st.sampled_from(["\n", "# a comment, quoted \"x\"\n", " , \n"])))
        writer.writerow(record)
    return buf.getvalue()


@st.composite
def comparison_files(draw):
    """Small comparison files in either form, with tie rows in mixed
    case, duplicate pairs in both orientations, comment and blank lines,
    padded cells and quoted ids."""
    aggregated = draw(st.booleans())
    ids = draw(st.lists(st.sampled_from(ODD_IDS), min_size=2, max_size=4, unique=True))
    header = AGGREGATED_HEADER if aggregated else PER_TRIAL_HEADER
    records = [[f" {h} " for h in header] if draw(st.booleans()) else header]
    for _ in range(draw(st.integers(1, 12))):
        first, second = draw(st.permutations(ids))[:2]
        if aggregated:
            trials = draw(st.integers(1, 9))
            rest = [str(trials), str(draw(st.integers(0, trials)))]
        else:
            rest = [draw(st.sampled_from([first, second, "tie", "TIE", "Tie"]))]
        cells = [first, second, *rest]
        if draw(st.booleans()):
            cells = [f"  {c} " for c in cells]
        records.append(cells)
    return csv_text(draw, records)


NUMERIC_CELLS = ["1", "-0.5", "2e3", "1_0.5", "nan", "-inf", "\u0663", "+.5"]
NON_NUMERIC_CELLS = ["x", "", "0x1", "1,5", "--1"]


@st.composite
def covariate_files(draw):
    """Small covariate files with up to two features and the compared
    ids to align them to: duplicate, empty, NUL-suffixed and padded ids,
    non-numeric and padded cells, short records, and compared ids that
    are missing from the file or leave some of it extra."""
    names = [f"f{k + 1}" for k in range(draw(st.integers(0, 2)))]
    ids = draw(st.lists(st.sampled_from(ODD_IDS), max_size=5, unique=True))
    if draw(st.integers(0, 3)) == 0:
        ids.append(draw(st.sampled_from(ODD_IDS + [""])))
    records = [["item", *names]]
    for name in ids:
        cells = [name]
        for _ in names:
            bad = draw(st.integers(0, 15)) == 0
            cells.append(draw(st.sampled_from(NON_NUMERIC_CELLS if bad else NUMERIC_CELLS)))
        if draw(st.integers(0, 15)) == 0:
            cells = cells[:-1] if len(cells) > 1 else cells + ["1"]
        if draw(st.booleans()):
            cells = [f"  {c} " for c in cells]
        records.append(cells)
    pool = sorted({name.strip() for name in ids} - {""}) + ["zz"]
    compared = draw(st.lists(st.sampled_from(pool), max_size=len(pool), unique=True))
    return csv_text(draw, records), sorted(compared)


class TestParseComparisons:
    def test_aggregated_minimal(self, tmp_path):
        path = write(tmp_path / "c.csv", "item_i,item_j,trials,wins_j\na,b,5,3\n")
        parsed = parse_comparisons_csv(path)
        assert parsed.item_ids == ["a", "b"]
        assert parsed.data.edges == [(0, 1, 5, 3)]
        assert parsed.tie_rows_dropped == 0

    def test_per_trial_aggregation(self, tmp_path):
        path = write(
            tmp_path / "c.csv",
            "item_i,item_j,winner\na,b,b\na,b,a\n",
        )
        parsed = parse_comparisons_csv(path)
        assert parsed.data.edges == [(0, 1, 2, 1)]

    def test_ties_dropped_with_count(self, tmp_path):
        path = write(
            tmp_path / "c.csv",
            "item_i,item_j,winner\na,b,b\na,b,tie\na,b,TIE\n",
        )
        parsed = parse_comparisons_csv(path)
        assert parsed.tie_rows_dropped == 2
        assert parsed.data.edges == [(0, 1, 1, 1)]

    def test_reversed_rows_reoriented(self, tmp_path):
        path = write(
            tmp_path / "c.csv",
            "item_i,item_j,trials,wins_j\nb,a,2,1\nb,a,3,0\n",
        )
        parsed = parse_comparisons_csv(path)
        # wins flip to count the higher-indexed item (b)
        assert parsed.item_ids == ["a", "b"]
        assert parsed.data.edges == [(0, 1, 5, 4)]

    def test_duplicates_summed(self, tmp_path):
        path = write(
            tmp_path / "c.csv",
            "item_i,item_j,trials,wins_j\na,b,2,1\na,b,4,2\n",
        )
        parsed = parse_comparisons_csv(path)
        assert parsed.data.edges == [(0, 1, 6, 3)]

    def test_row_numbered_errors(self, tmp_path):
        path = write(
            tmp_path / "c.csv",
            "item_i,item_j,trials,wins_j\na,b,2,1\na,b,2,5\n",
        )
        with pytest.raises(ParseError) as exc_info:
            parse_comparisons_csv(path)
        assert exc_info.value.row == 3

    def test_self_comparison_rejected(self, tmp_path):
        path = write(tmp_path / "c.csv", "item_i,item_j,trials,wins_j\na,a,2,1\n")
        with pytest.raises(ParseError):
            parse_comparisons_csv(path)

    def test_unknown_winner_rejected(self, tmp_path):
        path = write(tmp_path / "c.csv", "item_i,item_j,winner\na,b,c\n")
        with pytest.raises(ParseError):
            parse_comparisons_csv(path)

    def test_bad_header_rejected(self, tmp_path):
        path = write(tmp_path / "c.csv", "from,to,n,w\na,b,2,1\n")
        with pytest.raises(ParseError):
            parse_comparisons_csv(path)

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(42)
        n = 12
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.6:
                    t = int(rng.integers(1, 9))
                    edges.append((i, j, t, int(rng.integers(0, t + 1))))
        data = ComparisonData.from_edges(n, edges)
        ids = [f"item_{k:03d}" for k in range(n)]
        path = tmp_path / "c.csv"
        write_comparisons_csv(str(path), data, ids)
        parsed = parse_comparisons_csv(str(path))
        assert parsed.item_ids == ids
        np.testing.assert_array_equal(parsed.data.item_i, data.item_i)
        np.testing.assert_array_equal(parsed.data.item_j, data.item_j)
        np.testing.assert_array_equal(parsed.data.trials, data.trials)
        np.testing.assert_array_equal(parsed.data.wins_j, data.wins_j)


    def test_trial_sums_past_int64_rejected(self, tmp_path):
        big = 2**62
        path = write(
            tmp_path / "c.csv", f"item_i,item_j,trials,wins_j\na,b,{big},0\nb,a,{big},0\n"
        )
        with pytest.raises(ParseError, match="64-bit"):
            parse_comparisons_csv(path)

    @pytest.mark.parametrize("text", [
        "item_i,item_j,trials,wins_j\na,b,5,3\n",
        "item_i,item_j,winner\na,b,b\nb,a,b\na,b,a\na,b,b\nb,a,a\n",
    ], ids=["aggregated", "per-trial"])
    def test_byte_order_mark_dropped(self, tmp_path, text):
        # spreadsheet programs start a UTF-8 CSV file with one
        path = write(tmp_path / "c.csv", "\ufeff" + text)
        outcome = parse_outcome(parse_comparisons_csv, path)
        assert outcome == ("ok", 2, [(0, 1, 5, 3)], ["a", "b"], 0)
        assert outcome == parse_outcome(parse_comparisons_by_rows, path)

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(comparison_files())
    def test_matches_row_oracle(self, tmp_path, text):
        path = write(tmp_path / "c.csv", text)
        assert parse_outcome(parse_comparisons_csv, path) == parse_outcome(
            parse_comparisons_by_rows, path
        )

    @pytest.mark.parametrize("text, row", [
        ("item_i,item_j,trials,wins_j\na,b,2,1\na,b,2\n", 3),
        ("item_i,item_j,trials,wins_j\na,b,2,1\n , b,2,1\n", 3),
        ("item_i,item_j,trials,wins_j\na,b,2,1\n\nb, b ,2,1\n", 4),
        ("item_i,item_j,trials,wins_j\na,b,2,1\na,b,2.5,1\n", 3),
        ("item_i,item_j,trials,wins_j\na,b,2,1\na,b,x,\n", 3),
        ("item_i,item_j,trials,wins_j\na,b,0,0\n", 2),
        ("item_i,item_j,trials,wins_j\na,b,2,3\n", 2),
        ("item_i,item_j,trials,wins_j\na,b,2,-1\n", 2),
        ("item_i,item_j,winner\na,b,b\na,b,c\n", 3),
        ("item_i,item_j,winner\na,b,tie\n# note\na,b,TIE\n", None),
        ("", None),
        ("# only a comment\n\n", None),
        ("from,to,n,w\na,b,2,1\n", None),
        # the earliest bad record wins, whichever check it fails
        ("item_i,item_j,trials,wins_j\na,b,2,5\na,b\n,b,2,1\n", 2),
        ("item_i,item_j,trials,wins_j\na,b\na,b,2,5\n", 2),
        ("item_i,item_j,trials,wins_j\na,b,2,x\na,a,2,1\n", 2),
        ("item_i,item_j,trials,wins_j\na,b,0,x\n", 2),
        ("item_i,item_j,trials,wins_j\na,b,١٢,+3\na,b,1_0,٣\na,b,2,9\n", 4),
        ("item_i,item_j,trials,wins_j\na,b,2,1\na,b,99999999999999999999,1\n", 3),
        ("item_i,item_j,trials,wins_j\na,b,2,-9223372036854775809\n", 2),
        ("item_i,item_j,trials,wins_j\na,b,99999999999999999999,x\n", 2),
        # a quoted line break keeps one record: numbers count records
        ('item_i,item_j,trials,wins_j\n"a\nb",c,2,1\na,c,3,4\n', 3),
        # cells and '#' lines past csv.field_size_limit()
        ("item_i,item_j,trials,wins_j\na,b,2,1\n" + "x" * 200_000 + ",b,2,1\n", 3),
        ("#" + "x" * 200_000 + "\nitem_i,item_j,trials,wins_j\na,b,2,1\n", 1),
        # tie records are dropped only after their ids are checked
        ("item_i,item_j,winner\na,b,b\na,a,tie\n", 3),
        ("item_i,item_j,winner\na,b,b\n,b,tie\n", 3),
    ], ids=[
        "wrong-width", "empty-id", "self-comparison", "non-integer", "non-integer-empty",
        "trials-below-one", "wins-above-trials", "wins-negative", "unknown-winner",
        "no-usable-rows", "empty-file", "comments-only", "bad-header",
        "value-before-width", "width-before-value", "non-integer-before-self",
        "non-integer-before-range", "non-ascii-digits", "past-int64", "below-int64",
        "non-integer-before-int64", "quoted-line-break", "long-id", "long-comment",
        "tie-self-comparison", "tie-empty-id",
    ])
    def test_errors_match_row_oracle(self, tmp_path, text, row):
        path = write(tmp_path / "c.csv", text)
        outcome = parse_outcome(parse_comparisons_csv, path)
        assert outcome[0] == "error" and outcome[2] == row
        assert outcome == parse_outcome(parse_comparisons_by_rows, path)

    @pytest.mark.parametrize("text", [
        '"item_i","item_j","trials","wins_j"\n"a","b","2","1"\n"c,d","b","3","0"\n',
        "item_i, item_j ,winner\n a ,b, b\nb,a , TIE \n b , a, a\n",
    ], ids=["quoted", "padded-per-trial"])
    def test_valid_file_never_reaches_record_loop(self, tmp_path, text):
        # the tokenizers decide validity; the record loop runs only to
        # name what is wrong
        path = write(tmp_path / "c.csv", text)
        expected = parse_outcome(parse_comparisons_by_rows, path)
        assert expected[0] == "ok"
        with mock.patch("care_rank.io._raise_first_bad_record",
                        side_effect=AssertionError("record loop reached")):
            assert parse_outcome(parse_comparisons_csv, path) == expected


# Printable ASCII but the comma and the quote: what a plain file's ids
# may hold.  An id starting with '#' makes a record a comment.
PLAIN_ID_CHARS = "".join(c for c in map(chr, range(0x21, 0x7F)) if c not in ',"')


@st.composite
def plain_files(draw):
    """Small aggregated files that take the byte path: unpadded ASCII
    ids, counts of 1-18 digits (some with leading zeros, some failing a
    check), leading blank and '#' lines, '\\n' or '\\r\\n' line ends and
    maybe no final line end."""
    ids = draw(st.lists(
        st.text(PLAIN_ID_CHARS, min_size=1, max_size=10), min_size=2, max_size=5, unique=True
    ))
    lines = draw(st.lists(st.sampled_from(["", "#", "# care-rank 0.1.0 seed=1, a b"]), max_size=2))
    lines.append(",".join(AGGREGATED_HEADER))
    for _ in range(draw(st.integers(1, 12))):
        first, second = draw(st.permutations(ids))[:2]
        trials = draw(st.integers(0, 12) | st.integers(1, 10**18 - 1))
        wins_j = draw(st.integers(0, trials + 1))
        counts = [f"{value:0{draw(st.integers(1, 3))}d}" for value in (trials, wins_j)]
        lines.append(",".join([first, second, *counts]))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from([end, ""]))


def parse_without_csv_reader(path):
    """``parse_comparisons_csv`` with ``csv.reader`` made to fail."""
    def refuse(*args, **kwargs):
        raise AssertionError("csv.reader called")

    with mock.patch.object(csv, "reader", refuse):
        return parse_comparisons_csv(path)


class TestPlainComparisons:
    """Plain aggregated files are tokenized from their bytes; the result
    and every error are those of the row oracle."""

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(plain_files())
    def test_matches_row_oracle(self, tmp_path, text):
        path = str(tmp_path / "c.csv")
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write(text)
        expected = parse_outcome(parse_comparisons_by_rows, path)
        assert parse_outcome(parse_comparisons_csv, path) == expected
        if expected[0] == "ok":
            assert parse_outcome(parse_without_csv_reader, path) == expected

    def test_simulated_file_never_reaches_csv_reader(self, tmp_path):
        sim = simulate_dataset(tmp_path, n=40, d=2, seed=3, p=0.5, trials=7)
        path = str(sim / "comparisons.csv")
        assert parse_outcome(parse_without_csv_reader, path) == parse_outcome(
            parse_comparisons_by_rows, path
        )

    @pytest.mark.parametrize("text, plain", [
        ("item_i,item_j,trials,wins_j\na,b,2,1\na\x00,b,3,1\n", False),
        ("item_i,item_j,trials,wins_j\na,b,2,1\n\u2003a,c,3,1\n", False),
        ("item_i,item_j,trials,wins_j\na,b,2,1\n#h,b,3,1\nb,#h,1,1\n", True),
        ('# a "quoted" note\nitem_i,item_j,trials,wins_j\na,b,2,1\n', False),
        ('#c,"\nitem_i,item_j,trials,wins_j\na,b,2,1\n"\n'
         "item_i,item_j,trials,wins_j\nb,c,3,1\n", False),
        ("item_i,item_j,trials,wins_j\r\na,b,2,1\r\nb,c,3,1\r\n", True),
        ("item_i,item_j,trials,wins_j\na,b,2,1\rb,c,3,1\n", False),
        ("item_i,item_j,trials,wins_j\na,b,2,1\n# note\rb,c,3,1\n", False),
        ("item_i,item_j,trials,wins_j\na, b,2,1\nb,c,3,1\n", False),
        ("item_i,item_j,trials,wins_j\na,b,1000000000000000000,7\n", False),
        ("item_i,item_j,trials,wins_j\na,b,0000000000000000009,7\n", False),
        ("item_i,item_j,trials,wins_j\na,b,999999999999999999,007\n", True),
        ("item_i,item_j,trials,wins_j\na,b,+3,1\n", False),
        ("item_i,item_j,trials,wins_j\na,b,1_0,3\n", False),
        ("item_i,item_j,trials,wins_j\na,b,\u0661\u0662,\u0663\n", False),
        ("\n# note\nitem_i,item_j,trials,wins_j\n\na,b,2,1\n# more\nb,c,3,1", True),
        ("item_i,item_j,trials,wins_j\na,b,2,1\n , ,\nb,c,3,1\n", False),
        ("item_i,item_j,trials,wins_j\na,b,2,1\n,,,\nb,c,3,1\n", False),
        ("item_i,item_j,trials,wins_j\n" + "x" * 65 + ",b,2,1\n", False),
        ("item_i,item_j,trials,wins_j\n~,}~,2,1\n}~,~},3,1\n", True),
        ("# a\x00 note\nitem_i,item_j,trials,wins_j\na,b,2,1\n#\x00\nb,c,3,1\n", True),
    ], ids=[
        "nul-suffixed-id", "unicode-space-id", "hash-first-cell", "quote-in-comment",
        "comment-opens-quoted-field", "crlf", "bare-cr", "bare-cr-in-comment", "padded-id",
        "19-digits", "19-digits-leading-zeros", "18-digits", "plus-sign", "underscore",
        "arabic-indic-digits", "blank-and-comment-lines", "blank-cells", "empty-cells",
        "long-id", "high-ascii-order", "nul-in-comments",
    ])
    def test_traps_match_row_oracle(self, tmp_path, text, plain):
        path = str(tmp_path / "c.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        expected = parse_outcome(parse_comparisons_by_rows, path)
        assert expected[0] == "ok"
        assert parse_outcome(parse_comparisons_csv, path) == expected
        with open(path, "rb") as fh:
            assert (_plain_columns(fh.read()) is not None) == plain

    def test_overlong_comment_fails_as_in_csv_reader(self, tmp_path):
        text = "#" + "x" * csv.field_size_limit() + "\nitem_i,item_j,trials,wins_j\na,b,2,1\n"
        path = write(tmp_path / "c.csv", text)
        for parse in (parse_comparisons_by_rows, parse_comparisons_csv):
            with pytest.raises(ParseError) as exc_info:
                parse(path)
            assert str(exc_info.value).startswith(f"{path}: row 1: field larger than field limit")


class TestParseCovariates:
    def test_minimal(self, tmp_path):
        path = write(tmp_path / "x.csv", "item,f1,f2\na,0.5,1.0\nb,-0.5,2.0\n")
        parsed = parse_covariates_csv(path, ["a", "b"])
        np.testing.assert_allclose(parsed.matrix, [[0.5, 1.0], [-0.5, 2.0]])
        assert parsed.feature_names == ["f1", "f2"]

    def test_ids_only_is_valid(self, tmp_path):
        path = write(tmp_path / "x.csv", "item\na\nb\n")
        parsed = parse_covariates_csv(path, ["a", "b"])
        assert parsed.matrix.shape == (2, 0)

    def test_row_order_irrelevant(self, tmp_path):
        a = write(tmp_path / "a.csv", "item,f1\na,1.0\nb,2.0\n")
        b = write(tmp_path / "b.csv", "item,f1\nb,2.0\na,1.0\n")
        ma = parse_covariates_csv(a, ["a", "b"]).matrix
        mb = parse_covariates_csv(b, ["a", "b"]).matrix
        np.testing.assert_array_equal(ma, mb)

    def test_missing_item_rejected(self, tmp_path):
        path = write(tmp_path / "x.csv", "item,f1\na,1.0\n")
        with pytest.raises(ParseError):
            parse_covariates_csv(path, ["a", "b"])

    def test_duplicate_item_rejected(self, tmp_path):
        path = write(tmp_path / "x.csv", "item,f1\na,1.0\na,2.0\n")
        with pytest.raises(ParseError):
            parse_covariates_csv(path, ["a"])

    def test_non_numeric_cell_addressed(self, tmp_path):
        path = write(tmp_path / "x.csv", "item,f1\na,oops\n")
        with pytest.raises(ParseError) as exc_info:
            parse_covariates_csv(path, ["a"])
        assert "f1" in str(exc_info.value)
        assert exc_info.value.row == 2

    def test_extra_items_reported(self, tmp_path):
        path = write(tmp_path / "x.csv", "item,f1\na,1.0\nb,2.0\nzz,3.0\n")
        parsed = parse_covariates_csv(path, ["a", "b"])
        assert parsed.extra_items == ["zz"]
        assert parsed.matrix.shape == (2, 1)

    def test_cell_past_field_limit_is_a_parse_error(self, tmp_path):
        path = write(tmp_path / "x.csv", "item,f1\na,1.0\nb," + "9" * 200_000 + "\n")
        outcome = covariates_outcome(parse_covariates_csv, path, ["a", "b"])
        assert outcome[0] == "error" and outcome[2] == 3 and "field limit" in outcome[1]
        assert outcome == covariates_outcome(parse_covariates_by_rows, path, ["a", "b"])

    @pytest.mark.parametrize("header, message", [
        ("item,f,f", "duplicate feature name 'f' in column 3"),
        ("item, g ,h,g", "duplicate feature name 'g' in column 4"),
        ("item,,g", "empty feature name in column 2"),
        ("item,g, ", "empty feature name in column 3"),
    ], ids=["duplicate", "padded-duplicate", "empty", "blank"])
    def test_header_errors(self, tmp_path, capsys, header, message):
        # each feature name labels a beta row of inference.csv
        row = ",1" * header.count(",")
        path = write(tmp_path / "x.csv", f"{header}\na{row}\nb{row}\n")
        outcome = covariates_outcome(parse_covariates_csv, path, ["a", "b"])
        assert outcome == ("error", f"{path}: {message}", None)
        assert outcome == covariates_outcome(parse_covariates_by_rows, path, ["a", "b"])
        comparisons = write(tmp_path / "c.csv", "item_i,item_j,trials,wins_j\na,b,4,1\n")
        code = main(["fit", "--comparisons", comparisons, "--covariates", path,
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_PARSE
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    def test_first_column_not_item_exits_parse(self, tmp_path, capsys):
        path = write(tmp_path / "x.csv", "name,f1\na,1\nb,2\n")
        comparisons = write(tmp_path / "c.csv", "item_i,item_j,trials,wins_j\na,b,4,1\n")
        code = main(["fit", "--comparisons", comparisons, "--covariates", path,
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_PARSE
        assert capsys.readouterr().err == (
            f"error: {path}: first column must be 'item', got ['name']\n"
        )

    def test_empty_item_id_exits_parse(self, tmp_path, capsys):
        path = write(tmp_path / "x.csv", "item,f1\na,1\n,2\nb,3\n")
        comparisons = write(tmp_path / "c.csv", "item_i,item_j,trials,wins_j\na,b,4,1\n")
        code = main(["fit", "--comparisons", comparisons, "--covariates", path,
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_PARSE
        assert capsys.readouterr().err == f"error: {path}: row 3: empty item id\n"

    def test_byte_order_mark_dropped(self, tmp_path):
        path = write(tmp_path / "x.csv", "\ufeffitem,f1\nb,2.0\na,1.0\n")
        outcome = covariates_outcome(parse_covariates_csv, path, ["a", "b"])
        assert outcome[0] == "ok" and outcome[3] == ["f1"]
        assert parse_covariates_csv(path, ["a", "b"]).matrix.tolist() == [[1.0], [2.0]]
        assert outcome == covariates_outcome(parse_covariates_by_rows, path, ["a", "b"])

    def test_nul_suffixed_id_is_its_own_item(self, tmp_path):
        path = write(tmp_path / "x.csv", "item,f1\na,1.0\na\x00,2.0\n")
        parsed = parse_covariates_csv(path, ["a", "a\x00"])
        assert parsed.matrix.tolist() == [[1.0], [2.0]]

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(covariate_files())
    def test_matches_row_oracle(self, tmp_path, file):
        text, compared = file
        path = write(tmp_path / "x.csv", text)
        assert covariates_outcome(parse_covariates_csv, path, compared) == covariates_outcome(
            parse_covariates_by_rows, path, compared
        )


# Ids a CSV writer must quote (comma, quote, line break, leading '#' or
# blank) or keep as they are (trailing NUL, non-ASCII).
QUOTED_IDS = ["c,d", '"g"', "x\ny", " e f ", "#h", "a\x00", "\u00e9t\u00e9", "plain"]
PROVENANCE = {"version": "0.0", "config_hash": "abc", "seed": 1}


def special_doubles(rng, shape):
    """Random doubles over many magnitudes, with NaN, infinities, signed
    zeros and a subnormal mixed in."""
    values = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
    flat = values.reshape(-1)
    flat[:6] = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324][: flat.size]
    rng.shuffle(flat)
    return values


class TestWriters:
    """The column writers give the bytes of a row-by-row writer."""

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_json_refuses_non_finite_floats(self, tmp_path, value):
        path = tmp_path / "out.json"
        with pytest.raises(ValueError):
            write_json(str(path), {"ok": 1.0, "bad": [value]})
        assert not path.exists()

    def test_comparisons(self, tmp_path):
        rng = np.random.default_rng(1)
        n = len(QUOTED_IDS)
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.7:
                    t = int(rng.integers(1, 2**40))
                    edges.append((i, j, t, int(rng.integers(0, t + 1))))
        data = ComparisonData.from_edges(n, edges)
        path = tmp_path / "c.csv"
        write_comparisons_csv(str(path), data, QUOTED_IDS, PROVENANCE)
        expected = comparisons_text_by_rows(data, QUOTED_IDS, provenance_comment(PROVENANCE))
        assert path.read_bytes() == expected.encode("utf-8")

    @pytest.mark.parametrize("d", [0, 3])
    def test_covariates(self, tmp_path, d):
        matrix = special_doubles(np.random.default_rng(2), (len(QUOTED_IDS), d))
        names = QUOTED_IDS[:d]
        path = tmp_path / "x.csv"
        write_covariates_csv(str(path), matrix, QUOTED_IDS, names)
        assert path.read_bytes() == covariates_text_by_rows(matrix, QUOTED_IDS, names).encode()

    def test_inference(self, tmp_path):
        rng = np.random.default_rng(3)
        names = ["w,x", '"y"', "z"]
        columns = special_doubles(rng, (6, len(QUOTED_IDS) + len(names)))
        report = InferenceReport(*columns, level=0.9)
        path = tmp_path / "inference.csv"
        write_inference_csv(str(path), report, QUOTED_IDS, names, PROVENANCE)
        expected = inference_text_by_rows(
            report, QUOTED_IDS, names, provenance_comment(PROVENANCE)
        )
        assert path.read_bytes() == expected.encode("utf-8")

    def test_inference_names_every_coefficient(self, tmp_path):
        # a missing feature name is an error, not a made-up "f3"
        columns = np.zeros((6, len(QUOTED_IDS) + 3))
        report = InferenceReport(*columns, level=0.95)
        path = tmp_path / "inference.csv"
        with pytest.raises(InvalidArgumentError, match="2 feature names for"):
            write_inference_csv(str(path), report, QUOTED_IDS, ["w", "x"])
        assert not path.exists()

    def test_ranking(self, tmp_path):
        rng = np.random.default_rng(4)
        n = len(QUOTED_IDS)
        ranking = RankingScores(
            scores1=special_doubles(rng, n), scores2=special_doubles(rng, n),
            taus=np.abs(special_doubles(rng, n)),
            ranks1=rng.permutation(n) + 1, ranks2=rng.permutation(n) + 1,
        )
        path = tmp_path / "ranking.csv"
        write_ranking_csv(str(path), ranking, QUOTED_IDS, PROVENANCE)
        expected = ranking_text_by_rows(ranking, QUOTED_IDS, provenance_comment(PROVENANCE))
        assert path.read_bytes() == expected.encode("utf-8")

    @pytest.mark.parametrize("kind", ["rate", "distribution"])
    def test_experiment_tables(self, tmp_path, kind):
        spec = SyntheticSpec(n=20, d=1, seed=7)
        if kind == "rate":
            plan = ExperimentPlan(pl_pairs=[(1.0, 5), (0.7, 3)], replications=3, workers=1)
            result = run_rate_experiment(spec, plan)
        else:
            plan = ExperimentPlan(
                pl_pairs=[(0.8, 10)], replications=4, statistics=DISTRIBUTION_STATISTICS,
                workers=1,
            )
            result = run_distribution_experiment(spec, plan)
        provenance = {"version": "0.0", "config_hash": "abc"}
        study = tmp_path / "study"
        write_experiment_files(str(study), result, provenance)
        payload = json.loads((study / "result.json").read_text())
        records, summary = experiment_texts_by_rows(payload)
        assert (study / "records.csv").read_bytes() == records.encode("utf-8")
        assert (study / "summary.csv").read_bytes() == summary.encode("utf-8")


class TestConfigFile:
    def test_parse(self, tmp_path):
        path = write(
            tmp_path / "run.cfg",
            "# comment\nmax-iters = 50\ngrad_tol=1e-6\n\nstep_size = auto # inline\n",
        )
        cfg = read_config_file(path)
        assert cfg == {"max_iters": "50", "grad_tol": "1e-6", "step_size": "auto"}

    def test_byte_order_mark_dropped(self, tmp_path):
        path = write(tmp_path / "run.cfg", "\ufeffmax_iters = 50\n")
        assert read_config_file(path) == {"max_iters": "50"}

    def test_bad_line(self, tmp_path):
        path = write(tmp_path / "run.cfg", "just a line\n")
        with pytest.raises(ParseError):
            read_config_file(path)

    def test_bad_line_error_names_the_file(self, tmp_path, capsys):
        cfg = write(tmp_path / "run.cfg", "max_iters = 50\nbogus\n")
        data = write(tmp_path / "c.csv", "item_i,item_j,trials,wins_j\na,b,4,1\n")
        code = main(["fit", "--config", cfg, "--comparisons", data, "--out", str(tmp_path / "o")])
        assert code == EXIT_PARSE
        assert capsys.readouterr().err == f"error: {cfg}: row 2: expected key=value, got 'bogus'\n"


class TestFmt17:
    def test_round_trip_random_doubles(self):
        rng = np.random.default_rng(7)
        for _ in range(2000):
            bits = rng.integers(0, 2**64, dtype=np.uint64)
            value = struct.unpack("<d", struct.pack("<Q", bits))[0]
            if not np.isfinite(value):
                continue
            assert float(fmt17(value)) == value


def simulate_dataset(tmp_path, **kw):
    out = tmp_path / "sim"
    args = ["simulate", "--out", str(out)]
    for key, val in kw.items():
        args += [f"--{key.replace('_', '-')}", str(val)]
    assert main(args) == EXIT_OK
    return out


class TestCliPipelines:
    def test_simulate_then_fit_converges(self, tmp_path):
        sim = simulate_dataset(tmp_path, n=40, d=3, seed=5, p=0.7, trials=10)
        out = tmp_path / "fit"
        code = main([
            "fit", "--comparisons", str(sim / "comparisons.csv"),
            "--covariates", str(sim / "covariates.csv"), "--out", str(out),
        ])
        assert code == EXIT_OK
        payload = json.loads((out / "fit.json").read_text())
        assert payload["converged"] is True
        assert payload["n_items"] == 40
        assert len(payload["items"]) == 40

    def test_simulate_defaults_then_fit_converges(self, tmp_path):
        # default synthetic design: 200 items, 5 features, complete
        # graph, 50 trials per pair
        sim = simulate_dataset(tmp_path)
        out = tmp_path / "fit"
        code = main([
            "fit", "--comparisons", str(sim / "comparisons.csv"),
            "--covariates", str(sim / "covariates.csv"), "--out", str(out),
        ])
        assert code == EXIT_OK
        payload = json.loads((out / "fit.json").read_text())
        assert payload["converged"] is True
        assert payload["n_items"] == 200
        assert payload["n_features"] == 5

    def test_fit_recovers_simulated_scores(self, tmp_path):
        sim = simulate_dataset(tmp_path, n=60, d=2, seed=6, p=1.0, trials=200)
        out = tmp_path / "fit"
        main([
            "fit", "--comparisons", str(sim / "comparisons.csv"),
            "--covariates", str(sim / "covariates.csv"), "--out", str(out),
        ])
        payload = json.loads((out / "fit.json").read_text())
        truth = json.loads((sim / "truth.json").read_text())
        fitted = dict(zip(payload["items"], payload["scores"]))
        true_scores = dict(zip(truth["items"], truth["scores"]))
        common = sorted(fitted)
        a = np.array([fitted[k] for k in common])
        b = np.array([true_scores[k] for k in common])
        assert np.abs(a - b).max() < 0.25

    def test_rank_schema(self, tmp_path):
        sim = simulate_dataset(tmp_path, n=30, d=2, seed=7, p=0.8, trials=12)
        out = tmp_path / "rank"
        code = main([
            "rank", "--comparisons", str(sim / "comparisons.csv"),
            "--covariates", str(sim / "covariates.csv"), "--out", str(out),
            "--quantile-level", "0.995",
        ])
        assert code == EXIT_OK
        rows = read_csv(out / "ranking.csv")
        assert rows[0] == ["item", "score1", "score2", "tau", "rank1", "rank2"]
        assert len(rows) == 31
        ranks = sorted(int(r[4]) for r in rows[1:])
        assert ranks == list(range(1, 31))

    def test_infer_schema_and_level(self, tmp_path):
        sim = simulate_dataset(tmp_path, n=30, d=2, seed=8, p=0.8, trials=12)
        out = tmp_path / "infer"
        code = main([
            "infer", "--comparisons", str(sim / "comparisons.csv"),
            "--covariates", str(sim / "covariates.csv"), "--out", str(out),
            "--level", "0.9",
        ])
        assert code == EXIT_OK
        rows = read_csv_dicts(out / "inference.csv")
        assert len(rows) == 32  # 30 alphas + 2 betas
        kinds = {r["kind"] for r in rows}
        assert kinds == {"alpha", "beta"}
        for r in rows:
            assert float(r["ci_low"]) <= float(r["estimate"]) <= float(r["ci_high"])
            assert float(r["level"]) == 0.9

    def test_numbers_round_trip_from_disk(self, tmp_path):
        from care_rank.estimation import fit_mle, preprocess_covariates
        from care_rank.inference import full_inference_report, plugin_variance_model

        sim = simulate_dataset(tmp_path, n=25, d=1, seed=9, p=0.9, trials=9)
        out = tmp_path / "infer"
        main([
            "infer", "--comparisons", str(sim / "comparisons.csv"),
            "--covariates", str(sim / "covariates.csv"), "--out", str(out),
        ])
        # recompute the same pipeline in-process; every written float must
        # re-parse to the identical double
        parsed = parse_comparisons_csv(str(sim / "comparisons.csv"))
        pc = parse_covariates_csv(str(sim / "covariates.csv"), parsed.item_ids)
        fit = fit_mle(parsed.data, preprocess_covariates(pc.matrix))
        report = full_inference_report(fit, plugin_variance_model(fit))
        n = fit.params.n_items
        rows = read_csv_dicts(out / "inference.csv")
        assert len(rows) == report.estimate.size
        for row in rows:
            k = int(row["index"]) + (n if row["kind"] == "beta" else 0)
            for column in ("estimate", "std_error", "z_stat", "p_value", "ci_low", "ci_high"):
                assert float(row[column]) == getattr(report, column)[k]

    def test_byte_identical_reruns_modulo_timestamp(self, tmp_path):
        sim = simulate_dataset(tmp_path, n=25, d=1, seed=10, p=0.9, trials=9)
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            main([
                "fit", "--comparisons", str(sim / "comparisons.csv"),
                "--covariates", str(sim / "covariates.csv"), "--out", str(out),
            ])
            payload = json.loads((out / "fit.json").read_text())
            payload["provenance"].pop("timestamp")
            outs.append(payload)
        assert outs[0] == outs[1]

    def test_config_hash_follows_file_bytes(self, tmp_path):
        sim = simulate_dataset(tmp_path, n=20, d=1, seed=13, p=0.9, trials=6)
        copy = tmp_path / "elsewhere" / "copy"
        copy.mkdir(parents=True)
        for name in ("comparisons.csv", "covariates.csv"):
            shutil.copy(sim / name, copy / name)

        def run_rank(data_dir, name):
            out = tmp_path / name
            assert main([
                "rank", "--comparisons", str(data_dir / "comparisons.csv"),
                "--covariates", str(data_dir / "covariates.csv"), "--out", str(out),
            ]) == EXIT_OK
            payload = json.loads((out / "fit.json").read_text())
            with open(out / "ranking.csv", encoding="utf-8") as fh:
                return payload["provenance"]["config_hash"], fh.readline()

        original = run_rank(sim, "r1")
        assert run_rank(copy, "r2") == original
        # one changed win count is another computation
        lines = (copy / "comparisons.csv").read_text().splitlines(keepends=True)
        k = lines.index(",".join(AGGREGATED_HEADER) + "\n") + 1
        i, j, trials, wins = lines[k].rstrip("\n").split(",")
        wins = int(wins) + (1 if int(wins) < int(trials) else -1)
        lines[k] = f"{i},{j},{trials},{wins}\n"
        (copy / "comparisons.csv").write_text("".join(lines))
        changed = run_rank(copy, "r3")
        assert changed[0] != original[0] and changed[1] != original[1]

    def test_fit_json_solver_trace(self, tmp_path):
        sim = simulate_dataset(tmp_path, n=40, d=3, seed=5, p=0.7, trials=10)
        out = tmp_path / "fit"
        assert main([
            "fit", "--comparisons", str(sim / "comparisons.csv"),
            "--covariates", str(sim / "covariates.csv"), "--out", str(out),
        ]) == EXIT_OK
        payload = json.loads((out / "fit.json").read_text())
        assert payload["halvings"] == 0
        assert payload["cg_iterations"] >= payload["iterations"] > 0

    def test_config_file_precedence(self, tmp_path):
        sim = simulate_dataset(tmp_path, n=20, d=1, seed=11, p=0.9, trials=6)
        cfg = write(tmp_path / "run.cfg", "grad-tol = 1e-4\nmax-iters = 1\n")
        out = tmp_path / "fit"
        code = main([
            "fit", "--comparisons", str(sim / "comparisons.csv"),
            "--covariates", str(sim / "covariates.csv"),
            "--config", cfg, "--max-iters", "50", "--out", str(out),
        ])
        assert code == EXIT_OK
        # file's grad_tol loosens convergence; CLI max-iters overrides file
        payload = json.loads((out / "fit.json").read_text())
        assert payload["final_grad_norm"] <= 1e-4 and payload["iterations"] > 1

    def test_boolean_read_from_config_file(self, tmp_path):
        # "no" in a file reads as --no-standardize, "yes" as the default
        sim = simulate_dataset(tmp_path, n=20, d=2, seed=12, p=0.9, trials=6)
        data = ["--comparisons", str(sim / "comparisons.csv"),
                "--covariates", str(sim / "covariates.csv")]

        def fitted(name, *args):
            out = tmp_path / name
            assert main(["fit", *data, *args, "--out", str(out)]) == EXIT_OK
            payload = json.loads((out / "fit.json").read_text())
            return [payload[key] for key in ("alpha", "beta", "column_sds")]

        fits = {}
        for value, flags in [("no", ["--no-standardize"]), ("yes", [])]:
            cfg = write(tmp_path / f"{value}.cfg", f"standardize = {value}\n")
            fits[value] = fitted(f"file-{value}", "--config", cfg)
            assert fits[value] == fitted(f"flag-{value}", *flags)
        # the unstandardized fit records unit column sds, so the two differ
        assert fits["no"][2] == [1.0, 1.0] != fits["yes"][2]

    def test_stock_scale_shape(self, tmp_path):
        # hundreds of items with three features parse and fit end to end
        sim = simulate_dataset(tmp_path, n=334, d=3, seed=12, p=0.05, trials=5)
        out = tmp_path / "fit"
        code = main([
            "fit", "--comparisons", str(sim / "comparisons.csv"),
            "--covariates", str(sim / "covariates.csv"), "--out", str(out),
        ])
        assert code == EXIT_OK
        payload = json.loads((out / "fit.json").read_text())
        assert payload["n_items"] == 334
        assert payload["n_features"] == 3

    def test_stderr_notes(self, tmp_path, capsys):
        per_trial = write(tmp_path / "c.csv", "item_i,item_j,winner\n" + "".join(
            f"{i},{j},{w}\n" for i, j in ("ab", "bc", "ac") for w in (i, j)) + "a,b,tie\n")
        cov = write(tmp_path / "x.csv", "item,f1\na,0.5\nb,-1\nc,2\nd,3\n")
        code = main(["fit", "--comparisons", per_trial, "--covariates", cov,
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_OK
        assert capsys.readouterr().err == (
            "note: dropped 1 tie rows\n"
            "note: ignoring covariates for 1 items never compared\n"
        )


    def test_cycle_past_the_exp_range_writes_strict_json(self, tmp_path):
        # 300 items in a chain, each beating the next 50-0, and one upset
        # closing the cycle: the MLE exists, but the fitted scores span
        # more than 709, so exp(max s - min s) overflows a double
        rows = [f"i{k:03d},i{k + 1:03d},50,0\n" for k in range(299)] + ["i299,i000,50,49\n"]
        data = write(tmp_path / "cycle.csv", "item_i,item_j,trials,wins_j\n" + "".join(rows))
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        out = tmp_path / "o"
        proc = subprocess.run(
            [sys.executable, "-m", "care_rank.cli", "infer", "--comparisons", data,
             "--out", str(out)], env=env, capture_output=True, text=True,
        )
        assert proc.returncode == EXIT_OK
        assert "RuntimeWarning" not in proc.stderr

        def refuse(token):
            raise ValueError(f"{token} is not JSON")

        payload = json.loads((out / "fit.json").read_text(), parse_constant=refuse)
        assert max(payload["scores"]) - min(payload["scores"]) > 709
        assert payload["kappa1"] is None


class TestParser:
    def test_flags_of_each_command(self):
        expected = {
            "fit": ["--config", "--out", "--comparisons", "--covariates", "--max-iters",
                    "--grad-tol", "--standardize", "--no-standardize"],
            "infer": ["--config", "--out", "--comparisons", "--covariates", "--max-iters",
                      "--grad-tol", "--standardize", "--no-standardize", "--level"],
            "rank": ["--config", "--out", "--comparisons", "--covariates", "--max-iters",
                     "--grad-tol", "--standardize", "--no-standardize", "--quantile-level"],
            "simulate": ["--config", "--out", "--n", "--d", "--seed", "--p", "--trials"],
            "experiment": ["--config", "--out", "--level", "--n", "--d", "--seed", "--kind",
                           "--pairs", "--replications", "--workers", "--statistics"],
        }
        parser = cli.build_parser()
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        flags = {
            command: [f for a in sub._actions for f in a.option_strings if f not in ("-h", "--help")]
            for command, sub in commands.choices.items()
        }
        assert flags == expected


class TestExitCodes:
    def test_missing_file_is_config_error(self, tmp_path):
        code = main(["fit", "--comparisons", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("bad_file", ["comparisons", "covariates"])
    def test_row_error_names_its_file(self, tmp_path, capsys, bad_file):
        # with two input files, the message says which one holds the bad row
        comparisons, covariates = (
            write(tmp_path / "c.csv", "item_i,item_j,trials,wins_j\na,b,4,1\nb,b,4,2\n"
                  if bad_file == "comparisons" else "item_i,item_j,trials,wins_j\na,b,4,1\n"),
            write(tmp_path / "x.csv", "item,f1\na,1\n,2\nb,3\n"
                  if bad_file == "covariates" else "item,f1\na,1\nb,3\n"),
        )
        code = main(["fit", "--comparisons", comparisons, "--covariates", covariates,
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_PARSE
        assert capsys.readouterr().err == {
            "comparisons": f"error: {comparisons}: row 3: self-comparison of item 'b'\n",
            "covariates": f"error: {covariates}: row 3: empty item id\n",
        }[bad_file]

    def test_malformed_csv_is_parse_error(self, tmp_path):
        bad = write(tmp_path / "bad.csv", "item_i,item_j,trials,wins_j\na,b,2,9\n")
        code = main(["fit", "--comparisons", bad, "--out", str(tmp_path / "o")])
        assert code == EXIT_PARSE

    def test_count_past_int64_is_parse_error(self, tmp_path, capsys):
        bad = write(
            tmp_path / "big.csv",
            "item_i,item_j,trials,wins_j\na,b,2,1\na,b,99999999999999999999,1\n",
        )
        code = main(["fit", "--comparisons", bad, "--out", str(tmp_path / "o")])
        assert code == EXIT_PARSE
        assert "row 3:" in capsys.readouterr().err

    def test_id_past_field_limit_is_parse_error(self, tmp_path, capsys):
        text = "item_i,item_j,trials,wins_j\n" + "x" * 200_000 + ",b,2,1\n"
        bad = write(tmp_path / "long.csv", text)
        code = main(["fit", "--comparisons", bad, "--out", str(tmp_path / "o")])
        assert code == EXIT_PARSE
        assert capsys.readouterr().err == (
            f"error: {bad}: row 2: field larger than field limit ({csv.field_size_limit()})\n"
        )

    def test_disconnected_graph_exit(self, tmp_path, capsys):
        data = write(
            tmp_path / "c.csv",
            "item_i,item_j,trials,wins_j\nx1,x2,2,1\ny1,y2,2,1\n",
        )
        code = main(["fit", "--comparisons", data, "--out", str(tmp_path / "o")])
        assert code == EXIT_CONNECTIVITY
        err = capsys.readouterr().err
        assert err == "error: comparison graph has 2 components: ['x1', 'x2'], ['y1', 'y2']\n"

    @pytest.mark.parametrize("command, output", [("infer", "inference.csv"), ("rank", "ranking.csv")])
    def test_hessian_weights_that_split_the_graph_exit(self, tmp_path, capsys, command, output):
        # two triangles whose pairs carry 10^12 trials each, joined by a
        # pair with 2: the bridge's Hessian weight is 2e-12 of the others'
        big = "1000000000000,500000000000"
        rows = [f"{i},{j},{big}" for i, j in ("ab", "ac", "bc", "de", "df", "ef")]
        data = write(
            tmp_path / "c.csv",
            "item_i,item_j,trials,wins_j\n" + "\n".join(rows) + "\nc,d,2,1\n",
        )
        out = tmp_path / "o"
        code = main([command, "--comparisons", data, "--out", str(out)])
        assert code == EXIT_CONNECTIVITY
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "2 components: ['a', 'b', 'c'], ['d', 'e', 'f']" in err
        assert (out / "fit.json").exists() and not (out / output).exists()

    def test_non_convergence_exit(self, tmp_path):
        data = write(
            tmp_path / "c.csv",
            "item_i,item_j,trials,wins_j\na,b,9,1\nb,c,9,2\na,c,9,8\n",
        )
        out = tmp_path / "o"
        code = main(["fit", "--comparisons", data, "--out", str(out),
                     "--max-iters", "1"])
        assert code == EXIT_CONVERGENCE
        # result file still written, honestly flagged
        payload = json.loads((out / "fit.json").read_text())
        assert payload["converged"] is False

    def test_stalled_fit_exit(self, tmp_path, capsys, stalled_newton):
        data = write(
            tmp_path / "c.csv",
            "item_i,item_j,trials,wins_j\na,b,9,1\nb,c,9,2\na,c,9,8\n",
        )
        out = tmp_path / "o"
        assert main(["fit", "--comparisons", data, "--out", str(out)]) == EXIT_CONVERGENCE
        assert capsys.readouterr().err == "fit stopped without convergence (stalled)\n"
        assert json.loads((out / "fit.json").read_text())["stop_reason"] == "stalled"

    def test_no_mle_exit(self, tmp_path, capsys):
        data = write(
            tmp_path / "c.csv",
            "item_i,item_j,trials,wins_j\na,b,6,2\na,c,6,6\nb,c,6,6\n",
        )
        out = tmp_path / "o"
        code = main(["fit", "--comparisons", data, "--out", str(out)])
        assert code == EXIT_CONVERGENCE
        assert capsys.readouterr().err == (
            "the maximum-likelihood estimate does not exist: "
            "item c won every comparison against the other 2 items\n"
        )
        payload = json.loads((out / "fit.json").read_text())
        assert payload["converged"] is False
        assert payload["stop_reason"] == "no_mle"

    def test_covariate_separation_exits_without_an_mle(self, tmp_path, capsys):
        # the item with the larger covariate wins all 5 trials of every pair
        ids = [f"x{k}" for k in range(5)]
        data = write(tmp_path / "c.csv", "item_i,item_j,trials,wins_j\n" + "".join(
            f"{ids[i]},{ids[j]},5,5\n" for i in range(5) for j in range(i + 1, 5)))
        cov = write(tmp_path / "x.csv", "item,f1\n" + "".join(f"{k},{i}\n" for i, k in enumerate(ids)))
        named = "item x0 lost every comparison against the other 4 items"
        for command in ("fit", "infer"):
            out = tmp_path / command
            code = main([command, "--comparisons", data, "--covariates", cov, "--out", str(out)])
            assert code == EXIT_CONVERGENCE
            assert named in capsys.readouterr().err
            payload = json.loads((out / "fit.json").read_text())
            assert payload["stop_reason"] == "no_mle" and payload["iterations"] == 0
        assert not (out / "inference.csv").exists()

    def test_no_mle_group_preview(self, tmp_path, capsys):
        # ten leaders won every trial against twelve others; each side
        # splits the pairs of a chain: the smaller side is named by its
        # count and first 8 ids
        rows = ([f"w{k},w{k + 1},4,2" for k in range(9)] + [f"z{k},z{k + 1},4,2" for k in range(11)]
                + [f"w{a},z{b},3,0" for a in range(10) for b in range(12)])
        data = write(tmp_path / "c.csv", "item_i,item_j,trials,wins_j\n" + "\n".join(rows) + "\n")
        assert main(["fit", "--comparisons", data, "--out", str(tmp_path / "o")]) == EXIT_CONVERGENCE
        assert capsys.readouterr().err.endswith(
            "does not exist: 10 items w0, w1, w2, w3, w4, w5, w6, w7, ... won every "
            "comparison against the other 12 items\n"
        )

    @pytest.mark.parametrize("command, output", [("infer", "inference.csv"), ("rank", "ranking.csv")])
    def test_no_mle_at_inference_needs_the_mle(self, tmp_path, capsys, command, output):
        data = write(
            tmp_path / "c.csv",
            "item_i,item_j,trials,wins_j\na,b,6,2\na,c,6,6\nb,c,6,6\n",
        )
        out = tmp_path / "o"
        assert main([command, "--comparisons", data, "--out", str(out)]) == EXIT_CONVERGENCE
        err = capsys.readouterr().err
        assert "does not exist: item c won every comparison" in err
        assert "inference needs the MLE" in err
        assert (out / "fit.json").exists() and not (out / output).exists()

    @pytest.mark.parametrize("command", ["infer", "rank"])
    def test_inference_refuses_a_ridge(self, tmp_path, capsys, command):
        # every command estimates the unpenalized MLE: a ridge is an
        # unknown flag and an unknown config-file key, for fit as well
        data = write(tmp_path / "c.csv", "item_i,item_j,trials,wins_j\na,b,9,4\nb,c,9,5\na,c,9,3\n")
        out = tmp_path / "o"
        cfg = write(tmp_path / "run.cfg", "ridge_alpha = 0.1\n")
        for name in (command, "fit"):
            args = [name, "--comparisons", data, "--out", str(out)]
            assert main(args + ["--ridge-alpha", "0.1"]) == EXIT_CONFIG
            assert "unrecognized arguments: --ridge-alpha 0.1" in capsys.readouterr().err
            assert main(args + ["--config", cfg]) == EXIT_CONFIG
            assert capsys.readouterr().err == f"error: {cfg}: unknown key ridge_alpha\n"
        assert not out.exists()
        assert main([command, "--comparisons", data, "--out", str(out)]) == EXIT_OK

    @pytest.mark.parametrize("option, value", [
        ("--grad-tol", "inf"), ("--grad-tol", "nan"),
    ])
    def test_non_finite_fit_option_is_config_error(self, tmp_path, capsys, option, value):
        sim = simulate_dataset(tmp_path, n=30, d=2, p=0.5, trials=5)
        out = tmp_path / "o"
        code = main([
            "fit", "--comparisons", str(sim / "comparisons.csv"),
            "--covariates", str(sim / "covariates.csv"), "--out", str(out), option, value,
        ])
        assert code == EXIT_CONFIG
        name = option[2:].replace("-", "_")
        assert f"error: {name} must be" in capsys.readouterr().err
        assert not (out / "fit.json").exists()

    def test_non_finite_covariate_names_its_item_and_feature(self, tmp_path, capsys):
        data = write(tmp_path / "c.csv", "item_i,item_j,trials,wins_j\n"
                     "a,b,9,4\nb,c,9,5\nc,d,9,3\na,d,9,6\n")
        cov = write(tmp_path / "x.csv", "item,f1,f2\nd,inf,0\na,1,2\nc,1.5,nan\nb,2,3\n")
        out = tmp_path / "o"
        code = main(["fit", "--comparisons", data, "--covariates", cov, "--out", str(out)])
        assert code == EXIT_CONFIG
        # the first in item order, then feature order
        assert capsys.readouterr().err == (
            f"error: {cov}: covariates contain non-finite values, first nan for item 'c' "
            "in column 'f2'\n"
        )
        assert not (out / "fit.json").exists()

    def test_missing_required_option(self):
        assert main(["fit"]) == EXIT_CONFIG

    def test_non_numeric_value_is_config_error(self, tmp_path, capsys):
        out = str(tmp_path / "e")
        assert main(["experiment", "--kind", "rate", "--pairs", "abc:5", "--out", out]) == EXIT_CONFIG
        assert "error: pairs:" in capsys.readouterr().err
        cfg = write(tmp_path / "run.cfg", "n = ten\n")
        assert main(["experiment", "--config", cfg, "--out", out]) == EXIT_CONFIG
        assert "error: n:" in capsys.readouterr().err

    @pytest.mark.parametrize("command, key, value", [
        ("simulate", "n", "x"), ("fit", "max_iters", "2.5"), ("fit", "grad_tol", "tiny"),
        ("infer", "level", "high"), ("experiment", "pairs", "abc:5"),
        ("experiment", "pairs", "0.5"), ("experiment", "pairs", ","),
    ])
    def test_bad_value_reads_the_same_from_flag_and_file(self, tmp_path, capsys, command, key, value):
        args = [command, "--out", str(tmp_path / "o")]
        assert main(args + ["--" + key.replace("_", "-"), value]) == EXIT_CONFIG
        from_flag = capsys.readouterr().err
        cfg = write(tmp_path / "run.cfg", f"{key} = {value}\n")
        assert main(args + ["--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr().err == from_flag
        assert from_flag.startswith(f"error: {key}: ") and from_flag.count("\n") == 1

    def test_bad_boolean_in_config_file_names_its_key(self, tmp_path, capsys):
        cfg = write(tmp_path / "run.cfg", "standardize = maybe\n")
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: standardize: ") and err.count("\n") == 1

    def test_non_utf8_file_is_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "c.csv"
        bad.write_bytes(b"item_i,item_j,trials,wins_j\na,b,2,1\n\xff,b,2,1\n")
        assert main(["fit", "--comparisons", str(bad), "--out", str(tmp_path / "o")]) == EXIT_PARSE
        assert f"error: {bad}: not UTF-8 text" in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"n = 3\n\xff\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "s")]) == EXIT_PARSE
        assert f"error: {cfg}: not UTF-8 text" in capsys.readouterr().err

    def test_directory_path_is_config_error(self, tmp_path, capsys):
        data = write(tmp_path / "c.csv", "item_i,item_j,trials,wins_j\na,b,2,1\n")
        for path in (str(tmp_path), data + "/x"):
            assert main(["fit", "--comparisons", path, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
            assert "error:" in capsys.readouterr().err

    def test_unknown_config_key_is_config_error(self, tmp_path, capsys):
        data = write(tmp_path / "c.csv", "item_i,item_j,trials,wins_j\na,b,9,4\nb,c,9,5\na,c,9,3\n")
        args = ["fit", "--comparisons", data, "--out", str(tmp_path / "o")]
        cfg = write(tmp_path / "run.cfg", "ridge_alfa = 0.1\nmax_iter = 3\n")
        assert main(args + ["--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {cfg}: unknown keys max_iter, ridge_alfa\n"
        # a key that another command reads stays accepted
        cfg = write(tmp_path / "other.cfg", "n = 30\nquantile-level = 0.9\n")
        assert main(args + ["--config", cfg]) == EXIT_OK

    @pytest.mark.parametrize("command, line, code", [
        ("fit", "quantile_level = 2", EXIT_OK),
        ("simulate", "level = 7", EXIT_OK),
        ("rank", "level = 7", EXIT_OK),
        ("infer", "level = 7", EXIT_CONFIG),
        ("rank", "quantile_level = 2", EXIT_CONFIG),
    ])
    def test_levels_checked_only_where_read(self, tmp_path, capsys, command, line, code):
        # a shared config file may hold a value that only another command reads
        data = write(tmp_path / "c.csv", "item_i,item_j,trials,wins_j\na,b,9,4\nb,c,9,5\na,c,9,3\n")
        cfg = write(tmp_path / "run.cfg", line + "\n")
        out = tmp_path / "o"
        inputs = ["--n", "10", "--d", "1"] if command == "simulate" else ["--comparisons", data]
        assert main([command, *inputs, "--config", cfg, "--out", str(out)]) == code
        if code == EXIT_CONFIG:
            assert "level must be in" in capsys.readouterr().err
            assert not (out / "fit.json").exists()

    def test_quantile_level_is_a_rank_option(self, tmp_path):
        data = write(tmp_path / "c.csv", "item_i,item_j,trials,wins_j\na,b,9,4\nb,c,9,5\na,c,9,3\n")
        args = ["--comparisons", data, "--quantile-level", "0.9", "--out", str(tmp_path / "o")]
        assert main(["infer", *args]) == EXIT_CONFIG
        assert main(["rank", *args]) == EXIT_OK

    def test_unknown_statistic_is_config_error(self, tmp_path):
        code = main([
            "experiment", "--kind", "rate", "--n", "20", "--d", "1",
            "--replications", "2", "--statistics", "bogus",
            "--out", str(tmp_path / "e"),
        ])
        assert code == EXIT_CONFIG

    def test_statistic_of_the_other_study_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "e"
        code = main([
            "experiment", "--kind", "rate", "--n", "20", "--d", "1",
            "--replications", "2", "--statistics", "alpha_linf,coverage",
            "--out", str(out),
        ])
        assert code == EXIT_CONFIG
        assert "error: rate experiment does not record ['coverage']" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_kind_is_config_error(self, tmp_path, capsys):
        code = main(["experiment", "--kind", "bogus", "--out", str(tmp_path / "e")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == "error: unknown experiment kind 'bogus'\n"

    def test_zero_replications_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "e"
        code = main([
            "experiment", "--kind", "rate", "--n", "20", "--d", "1",
            "--replications", "0", "--out", str(out),
        ])
        assert code == EXIT_CONFIG
        assert "error: replications must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, output", [("infer", "inference.csv"), ("rank", "ranking.csv")])
    def test_variance_model_refused_when_memory_short(self, tmp_path, monkeypatch, capsys, command, output):
        sim = simulate_dataset(tmp_path, n=30, d=2, seed=8, p=0.8, trials=12)
        args = [command, "--comparisons", str(sim / "comparisons.csv"),
                "--covariates", str(sim / "covariates.csv")]
        # 30 items need 8 (0.5 * 30^2 + 400 * 30) bytes, 97 kB
        assert factor_peak_bytes(30) == 99600
        monkeypatch.setattr(cli, "_available_memory", lambda: 4 * 1024)
        out = tmp_path / "short"
        assert main(args + ["--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: the variance model for 30 items")
        assert "needs about 0 MiB" in err[0] and "only 0 MiB is available" in err[0]
        assert (out / "fit.json").exists() and not (out / output).exists()
        for available in (128 * 1024, None):
            monkeypatch.setattr(cli, "_available_memory", lambda: available)
            out = tmp_path / f"room-{available}"
            assert main(args + ["--out", str(out)]) == EXIT_OK
            assert (out / output).exists()

    def test_memory_guard_admits_the_tree_need(self, tmp_path, monkeypatch, capsys):
        # n = 600: between the block tree's need and the 1.3 n^2 doubles
        # the dense buffer needed, infer runs; just below the tree's
        # need, it stops with exit 5 after writing fit.json
        sim = simulate_dataset(tmp_path, n=600, d=2, seed=9, p=0.07, trials=10)
        args = ["infer", "--comparisons", str(sim / "comparisons.csv"),
                "--covariates", str(sim / "covariates.csv")]
        need, old_need = factor_peak_bytes(600), 1.3 * 8 * 600**2
        assert need < old_need
        for available, code in (((need + old_need) / 2, EXIT_OK), (0.99 * need, EXIT_CONFIG)):
            monkeypatch.setattr(cli, "_available_memory", lambda: int(available))
            out = tmp_path / f"room-{code}"
            assert main(args + ["--out", str(out)]) == code
            assert (out / "fit.json").exists()
            assert (out / "inference.csv").exists() == (code == EXIT_OK)
        assert "error: the variance model for 600 items" in capsys.readouterr().err

    def test_memory_probe_reads_meminfo_and_cgroup(self, tmp_path):
        meminfo = write(tmp_path / "meminfo", "MemTotal: 8000 kB\nMemAvailable:    5000 kB\n")
        proc_cgroup = write(tmp_path / "cgroup", "1:memory:/x\n0::/jobs/a\n")
        group = tmp_path / "fs" / "jobs" / "a"
        group.mkdir(parents=True)

        def probe():
            return cli._available_memory(meminfo, proc_cgroup, str(tmp_path / "fs"))

        assert probe() == 5000 * 1024  # no memory.max: MemAvailable alone
        write(group / "memory.max", "max\n")
        write(group / "memory.current", "100\n")
        assert probe() == 5000 * 1024
        write(group / "memory.max", "3000000\n")
        assert probe() == 3000000 - 100
        write(group / "memory.max", "9000000\n")
        assert probe() == 5000 * 1024
        missing = str(tmp_path / "missing")
        assert cli._available_memory(missing, proc_cgroup, str(tmp_path / "fs")) == 9000000 - 100
        assert cli._available_memory(missing, missing, missing) is None

    def test_memory_probe_reads_ancestors_and_cgroup_v1(self, tmp_path):
        meminfo = write(tmp_path / "meminfo", "MemAvailable:    5000 kB\n")
        fs = tmp_path / "fs"

        def limit(group, version, value, usage):
            names = {"v1": ("memory.limit_in_bytes", "memory.usage_in_bytes"),
                     "v2": ("memory.max", "memory.current")}[version]
            group.mkdir(parents=True, exist_ok=True)
            write(group / names[0], f"{value}\n")
            write(group / names[1], f"{usage}\n")

        def probe(cgroup_lines):
            return cli._available_memory(
                meminfo, write(tmp_path / "cgroup", cgroup_lines), str(fs)
            )

        # cgroup v2: a limit on an ancestor binds when the group's own is looser
        v2 = "0::/jobs/a/b\n"
        limit(fs / "jobs" / "a" / "b", "v2", "max", 10)
        assert probe(v2) == 5000 * 1024
        limit(fs / "jobs" / "a", "v2", 3000000, 500)
        assert probe(v2) == 3000000 - 500
        limit(fs / "jobs" / "a" / "b", "v2", 2000000, 100)
        assert probe(v2) == 2000000 - 100
        limit(fs, "v2", 1000000, 900)  # the namespace root's own limit
        assert probe(v2) == 1000000 - 900
        # the v2 hierarchy mounted under "unified", beside v1 controllers
        limit(fs / "unified" / "jobs" / "a" / "b", "v2", 900000, 1000)
        assert probe(v2) == 900000 - 1000
        # cgroup v1: the memory controller's group and its ancestors, also
        # when the memory controller shares its hierarchy with another
        v1 = "4:memory:/process_api/x\n"
        limit(fs / "memory" / "process_api" / "x", "v1", 9223372036854771712, 50)
        assert probe(v1) == 5000 * 1024
        limit(fs / "memory" / "process_api", "v1", 800000, 2000)
        assert probe(v1) == 800000 - 2000
        assert probe("4:cpu,memory:/process_api/x\n") == 800000 - 2000
        assert probe("4:cpu:/process_api/x\n0::/\n") == 1000000 - 900
        # both versions named: the smallest room of all
        assert probe("4:memory:/process_api/x\n0::/jobs/a/b\n") == 800000 - 2000
        write(fs / "memory" / "process_api" / "memory.usage_in_bytes", "junk\n")
        assert probe(v1) == 5000 * 1024  # an unreadable group is skipped


class TestExperimentCommand:
    def test_rate_outputs(self, tmp_path):
        out = tmp_path / "exp"
        code = main([
            "experiment", "--kind", "rate", "--n", "30", "--d", "1",
            "--seed", "3", "--pairs", "0.8:4,0.8:12", "--replications", "4",
            "--out", str(out),
        ])
        assert code == EXIT_OK
        result = json.loads((out / "experiment" / "result.json").read_text())
        assert result["kind"] == "rate"
        assert len(result["settings"]) == 2
        rows = read_csv_dicts(out / "experiment" / "records.csv")
        assert {r["statistic"] for r in rows} >= {"alpha_linf", "beta_rel_l2"}
        assert (out / "experiment" / "summary.csv").exists()

    def test_rate_without_covariates(self, tmp_path, capsys):
        args = ["experiment", "--kind", "rate", "--n", "30", "--d", "0",
                "--seed", "3", "--pairs", "0.8:4", "--replications", "2"]
        out = tmp_path / "exp"
        assert main(args + ["--out", str(out)]) == EXIT_OK
        stats = {r["statistic"] for r in read_csv_dicts(out / "experiment" / "records.csv")}
        assert "alpha_linf" in stats and "beta_rel_l2" not in stats
        out = tmp_path / "beta"
        assert main(args + ["--statistics", "beta_rel_l2", "--out", str(out)]) == EXIT_CONFIG
        assert "error: beta_rel_l2 is undefined without covariates" in capsys.readouterr().err

    def test_solver_trace_stays_out_of_experiment_files(self, tmp_path):
        out = tmp_path / "exp"
        assert main([
            "experiment", "--kind", "rate", "--n", "30", "--d", "1",
            "--seed", "3", "--pairs", "0.8:4", "--replications", "2",
            "--out", str(out),
        ]) == EXIT_OK
        for name in ("result.json", "records.csv", "summary.csv"):
            text = (out / "experiment" / name).read_text()
            assert "halvings" not in text and "cg_iterations" not in text

    def test_note_for_setting_without_converged_fit(self, tmp_path, capsys):
        # every fit at this sparse single-trial design stops with no MLE
        out = tmp_path / "exp"
        assert main([
            "experiment", "--kind", "distribution", "--n", "200", "--d", "5",
            "--seed", "7", "--pairs", "0.04:1", "--replications", "20", "--out", str(out),
        ]) == EXIT_OK
        notes = [line for line in capsys.readouterr().err.splitlines() if line.startswith("note:")]
        assert len(notes) == 1 and "(p=0.04, L=1)" in notes[0]
        rows = read_csv_dicts(out / "experiment" / "records.csv")
        assert {r["replication"] for r in rows} == {str(k) for k in range(20)}
        assert {r["value"] for r in rows if r["statistic"] == "converged"} == {"0"}
        summary = read_csv_dicts(out / "experiment" / "summary.csv")
        assert [r["statistic"] for r in summary] == ["converged", "resamples"]
        result = json.loads((out / "experiment" / "result.json").read_text())
        assert list(result["settings"][0]["extras"]) == ["c_dot_truth"]
        assert len(result["settings"][0]["records"]) == 20

    def test_worker_thread_determinism(self, tmp_path):
        payloads = []
        for name, workers in (("w1", "1"), ("w8", "8")):
            out = tmp_path / name
            code = main([
                "experiment", "--kind", "distribution", "--n", "40", "--d", "2",
                "--seed", "4", "--pairs", "0.6:4", "--replications", "6",
                "--workers", workers, "--out", str(out),
            ])
            assert code == EXIT_OK
            payload = json.loads((out / "experiment" / "result.json").read_text())
            payload["provenance"].pop("timestamp")
            payloads.append(payload)
            with open(out / "experiment" / "records.csv", "rb") as fh:
                payloads.append(fh.read())
        assert payloads[0] == payloads[2]
        assert payloads[1] == payloads[3]
