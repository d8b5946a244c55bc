"""CSV ingestion, serialization, CLI commands, and exit codes."""

import csv
import io
import json
import shutil
import struct
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from care_rank.cli import (
    EXIT_CONFIG,
    EXIT_CONNECTIVITY,
    EXIT_CONVERGENCE,
    EXIT_OK,
    EXIT_PARSE,
    main,
)
from care_rank.errors import ParseError
from care_rank.inference import CoefficientEstimate, RankingScores
from care_rank.io import (
    AGGREGATED_HEADER,
    PER_TRIAL_HEADER,
    fmt17,
    parse_comparisons_csv,
    parse_covariates_csv,
    provenance_comment,
    read_config_file,
    write_comparisons_csv,
    write_covariates_csv,
    write_inference_csv,
    write_ranking_csv,
)
from care_rank.model import ComparisonData

from oracles import (
    comparisons_text_by_rows,
    covariates_text_by_rows,
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
    ], ids=[
        "wrong-width", "empty-id", "self-comparison", "non-integer", "non-integer-empty",
        "trials-below-one", "wins-above-trials", "wins-negative", "unknown-winner",
        "no-usable-rows", "empty-file", "comments-only", "bad-header",
        "value-before-width", "width-before-value", "non-integer-before-self",
        "non-integer-before-range", "non-ascii-digits", "past-int64", "below-int64",
        "non-integer-before-int64", "quoted-line-break",
    ])
    def test_errors_match_row_oracle(self, tmp_path, text, row):
        path = write(tmp_path / "c.csv", text)
        outcome = parse_outcome(parse_comparisons_csv, path)
        assert outcome[0] == "error" and outcome[2] == row
        assert outcome == parse_outcome(parse_comparisons_by_rows, path)


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
        n = len(QUOTED_IDS)

        def rows(count):
            values = special_doubles(rng, (count, 7))
            return [CoefficientEstimate(k, *map(float, values[k])) for k in range(count)]

        # three effects, two names: the third falls back to "f3"
        report = SimpleNamespace(alpha_rows=rows(n), beta_rows=rows(3))
        names = ["w,x", '"y"']
        path = tmp_path / "inference.csv"
        write_inference_csv(str(path), report, QUOTED_IDS, names, PROVENANCE)
        expected = inference_text_by_rows(
            report, QUOTED_IDS, names, provenance_comment(PROVENANCE)
        )
        assert path.read_bytes() == expected.encode("utf-8")

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


class TestConfigFile:
    def test_parse(self, tmp_path):
        path = write(
            tmp_path / "run.cfg",
            "# comment\nmax-iters = 50\nridge_alpha=0.5\n\nstep_size = auto # inline\n",
        )
        cfg = read_config_file(path)
        assert cfg == {"max_iters": "50", "ridge_alpha": "0.5", "step_size": "auto"}

    def test_bad_line(self, tmp_path):
        path = write(tmp_path / "run.cfg", "just a line\n")
        with pytest.raises(ParseError):
            read_config_file(path)


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
        expected = {("alpha", r.index): r for r in report.alpha_rows}
        expected.update({("beta", r.index): r for r in report.beta_rows})
        rows = read_csv_dicts(out / "inference.csv")
        assert len(rows) == len(expected)
        for row in rows:
            ref = expected[(row["kind"], int(row["index"]))]
            assert float(row["estimate"]) == ref.estimate
            assert float(row["std_error"]) == ref.std_error
            assert float(row["z_stat"]) == ref.z_stat
            assert float(row["p_value"]) == ref.p_value
            assert float(row["ci_low"]) == ref.ci_low
            assert float(row["ci_high"]) == ref.ci_high

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
        cfg = write(tmp_path / "run.cfg", "grad-tol = 1e-4\nridge-alpha = 0.25\n")
        out = tmp_path / "fit"
        code = main([
            "fit", "--comparisons", str(sim / "comparisons.csv"),
            "--covariates", str(sim / "covariates.csv"),
            "--config", cfg, "--ridge-alpha", "0.5", "--out", str(out),
        ])
        assert code == EXIT_OK
        # file's grad_tol loosens convergence; CLI ridge overrides file
        payload = json.loads((out / "fit.json").read_text())
        assert payload["final_grad_norm"] <= 1e-4

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


class TestExitCodes:
    def test_missing_file_is_config_error(self, tmp_path):
        code = main(["fit", "--comparisons", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG

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

    def test_disconnected_graph_exit(self, tmp_path):
        data = write(
            tmp_path / "c.csv",
            "item_i,item_j,trials,wins_j\na,b,2,1\nc,d,2,1\n",
        )
        code = main(["fit", "--comparisons", data, "--out", str(tmp_path / "o")])
        assert code == EXIT_CONNECTIVITY

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

    def test_no_mle_exit(self, tmp_path, capsys):
        data = write(
            tmp_path / "c.csv",
            "item_i,item_j,trials,wins_j\na,b,6,2\na,c,6,6\nb,c,6,6\n",
        )
        out = tmp_path / "o"
        code = main(["fit", "--comparisons", data, "--out", str(out)])
        assert code == EXIT_CONVERGENCE
        err = capsys.readouterr().err
        assert "does not exist" in err and "--ridge-alpha" in err
        payload = json.loads((out / "fit.json").read_text())
        assert payload["converged"] is False
        assert payload["stop_reason"] == "no_mle"
        assert main(["fit", "--comparisons", data, "--out", str(out),
                     "--ridge-alpha", "0.1"]) == EXIT_OK

    def test_missing_required_option(self):
        assert main(["fit"]) == EXIT_CONFIG

    def test_non_numeric_value_is_config_error(self, tmp_path, capsys):
        out = str(tmp_path / "e")
        assert main(["experiment", "--kind", "rate", "--pairs", "abc:5", "--out", out]) == EXIT_CONFIG
        assert "error: pairs:" in capsys.readouterr().err
        cfg = write(tmp_path / "run.cfg", "n = ten\n")
        assert main(["experiment", "--config", cfg, "--out", out]) == EXIT_CONFIG
        assert "error: n:" in capsys.readouterr().err

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

    def test_unknown_statistic_is_config_error(self, tmp_path):
        code = main([
            "experiment", "--kind", "rate", "--n", "20", "--d", "1",
            "--replications", "2", "--statistics", "bogus",
            "--out", str(tmp_path / "e"),
        ])
        assert code == EXIT_CONFIG


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
