import bisect
import datetime
import logging
import math

import numpy as np
import pytest

from socialdmf import ingest
from socialdmf import (
    DataFormatError,
    RatingsTimeline,
    TrustTimeline,
    bin_timelines,
    filter_min_ratings,
    load_dataset,
    merge_split,
    parse_ratings,
    parse_trust,
    save_dataset,
    split_train_test,
)


def days(iso: str) -> int:
    return (datetime.date.fromisoformat(iso) - datetime.date(1970, 1, 1)).days


def ratings_table(rows):
    """A ratings table like :func:`parse_ratings` returns, from (user, item, value, day) tuples."""
    dtype = [("user_id", "U16"), ("item_id", "U16"), ("value", "f8"), ("timestamp", "i8")]
    return np.array(rows, dtype=dtype)


def trust_table(rows):
    """A trust table like :func:`parse_trust` returns, from (user_a, user_b, day) tuples."""
    return np.array(rows, dtype=[("user_a", "U16"), ("user_b", "U16"), ("timestamp", "i8")])


# ---------------------------------------------------------------------------
# Parsing


def test_parse_ratings_iso_dates(tmp_path):
    path = tmp_path / "r.tsv"
    path.write_text("u1\ti1\t4.0\t2003-05-15\nu2\ti1\t2.5\t2003-06-01\n")
    out = parse_ratings(path)
    assert out.dtype.names == ("user_id", "item_id", "value", "timestamp")
    assert len(out) == 2
    assert out.tolist() == [
        ("u1", "i1", 4.0, days("2003-05-15")),
        ("u2", "i1", 2.5, days("2003-06-01")),
    ]


def test_parse_ratings_day_numbers_and_custom_delimiter(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("u1,i1,3,120\nu1,i2,5,121\n")
    out = parse_ratings(path, delimiter=",", date_format="days")
    assert out["timestamp"].tolist() == [120, 121]


def test_parse_ratings_strptime_format(tmp_path):
    path = tmp_path / "r.tsv"
    path.write_text("u1\ti1\t3.0\t15/05/2003\n")
    out = parse_ratings(path, date_format="%d/%m/%Y")
    assert out["timestamp"][0] == days("2003-05-15")


def test_parse_ratings_counts_and_skips_malformed(tmp_path, caplog):
    path = tmp_path / "r.tsv"
    path.write_text(
        "u1\ti1\t4.0\t2003-05-15\n"
        "broken line\n"
        "u2\ti2\tnot_a_number\t2003-05-16\n"
        "u3\ti3\t3.0\t2003-05-17\n"
        "\n"
    )
    with caplog.at_level(logging.WARNING):
        out = parse_ratings(path)
    assert len(out) == 2
    assert any("2 malformed" in rec.message for rec in caplog.records)


def test_skipped_rows_warning_names_the_first_five_bad_lines(tmp_path, caplog):
    # Six bad rows of fourteen: under half, so the rows are skipped, and the
    # warning lists the first five bad line numbers. The blank line counts
    # in the line numbers but not as a row.
    good = "u1\ti1\t4.0\t2003-05-15\n"
    bad = "u2\ti2\tnot_a_number\t2003-05-16\n"
    path = tmp_path / "r.tsv"
    path.write_text(good + bad + "\n" + (good + bad) * 5 + good * 2)
    with caplog.at_level(logging.WARNING, logger="socialdmf.ingest"):
        out = parse_ratings(path)
    assert len(out) == 8
    [record] = [rec for rec in caplog.records if "malformed" in rec.msg]
    assert record.getMessage() == (
        f"{path}: skipped 6 malformed rows of 14 (first bad lines: [2, 5, 7, 9, 11])"
    )
    # The benchmark's parse counter matches this prefix and reads both counts.
    assert record.msg.startswith("%s: skipped %d malformed rows of %d")
    assert record.args[1:3] == (6, 14)


def test_parse_ratings_mostly_malformed_raises(tmp_path):
    path = tmp_path / "r.tsv"
    path.write_text("a;b;c\nd;e;f\nu1\ti1\t4.0\t2003-05-15\n")
    with pytest.raises(DataFormatError, match=r"malformed \(first bad lines: \[1, 2\]\)"):
        parse_ratings(path)
    # Rows with the right field count whose values fail to convert are listed too.
    path.write_text(
        "u1\ti1\tfive\t2003-05-15\n"
        "u1\ti2\t4.0\t2003-05-15\n"
        "\n"
        "u2\ti1\t3.0\tnot-a-date\n"
        "u2\ti2\t2.0\t2003-05-15\n"
        "u3\ti1\tnan\t2003-05-15\n"
    )
    with pytest.raises(DataFormatError, match=r"3 of 5 rows are malformed \(first bad lines: \[1, 4, 6\]\)"):
        parse_ratings(path)


def test_repeated_dates_keep_their_days_and_a_bad_date_fails_on_every_line(tmp_path, caplog):
    # Each distinct date string is converted once per file; a string that
    # does not parse must not be remembered as good.
    path = tmp_path / "r.tsv"
    path.write_text(
        "u1\ti1\t4.0\t2003-05-15\n"
        "u2\ti1\t2.0\t2003-02-30\n"
        "u2\ti2\t3.0\t2003-05-15\n"
        "u3\ti1\t5.0\t2003-06-01\n"
        "u3\ti2\t1.0\t2003-02-30\n"
        "u1\ti2\t2.5\t2003-06-01\n"
    )
    with caplog.at_level(logging.WARNING):
        out = parse_ratings(path)
    assert out.tolist() == [
        ("u1", "i1", 4.0, days("2003-05-15")),
        ("u2", "i2", 3.0, days("2003-05-15")),
        ("u3", "i1", 5.0, days("2003-06-01")),
        ("u1", "i2", 2.5, days("2003-06-01")),
    ]
    assert any("skipped 2 malformed rows of 6" in rec.message for rec in caplog.records)
    path.write_text("u1\ti1\t4.0\t2003-05-15\nu2\ti1\t2.0\t2003-02-30\nu3\ti2\t1.0\t2003-02-30\n")
    with pytest.raises(DataFormatError, match=r"2 of 3 rows are malformed \(first bad lines: \[2, 3\]\)"):
        parse_ratings(path)
    path = tmp_path / "t.tsv"
    path.write_text("a\tb\t2003-02-30\nb\tc\t2003-05-15\nc\ta\t2003-02-30\na\tc\t2003-05-15\n")
    with caplog.at_level(logging.WARNING):
        edges = parse_trust(path)
    assert edges.tolist() == [("b", "c", days("2003-05-15")), ("a", "c", days("2003-05-15"))]
    assert any("skipped 2 malformed rows of 4" in rec.message for rec in caplog.records)


def test_parse_ratings_rejects_non_finite_values(tmp_path):
    path = tmp_path / "r.tsv"
    path.write_text("u1\ti1\tnan\t2003-05-15\nu2\ti1\t4\t2003-05-15\n")
    out = parse_ratings(path)
    assert len(out) == 1 and out["user_id"][0] == "u2"


def test_repeated_and_reversed_trust_rows_become_one_edge_at_the_earliest_bin(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text(
        "bob\talice\t15\n"
        "alice\tbob\t5\n"
        "alice\tbob\t25\n"
        "carol\tbob\t12\n"
        "bob\tcarol\t22\n"
    )
    edges = parse_trust(path, date_format="days")
    # parse_trust keeps every row, in file order.
    assert edges.dtype.names == ("user_a", "user_b", "timestamp")
    assert [tuple(row) for row in edges.tolist()] == [
        ("bob", "alice", 15), ("alice", "bob", 5), ("alice", "bob", 25),
        ("carol", "bob", 12), ("bob", "carol", 22),
    ]
    _, trust, user_map, _ = bin_timelines(ratings_fixture(), edges, [10, 20])
    a, b, c = user_map["alice"], user_map["bob"], user_map["carol"]
    np.testing.assert_array_equal(trust.rows, [a, b])
    np.testing.assert_array_equal(trust.cols, [b, c])
    np.testing.assert_array_equal(trust.created, [0, 1])
    assert [trust.edge_count(t) for t in range(trust.N)] == [1, 2, 2]


def test_parse_trust_drops_self_loops(tmp_path, caplog):
    path = tmp_path / "t.tsv"
    path.write_text("u1\tu1\t2003-01-01\nu1\tu2\t2003-01-02\n")
    with caplog.at_level(logging.WARNING):
        out = parse_trust(path)
    assert len(out) == 1
    assert any("self-loop" in rec.message for rec in caplog.records)


def test_parse_empty_files_give_zero_length_tables(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("")
    ratings = parse_ratings(path)
    assert len(ratings) == 0
    assert ratings.dtype.names == ("user_id", "item_id", "value", "timestamp")
    edges = parse_trust(path)
    assert len(edges) == 0
    assert edges.dtype.names == ("user_a", "user_b", "timestamp")


# ---------------------------------------------------------------------------
# Block parser against the per-line reference


def reference_read_table(path, delimiter, schema, date_format):
    """The per-line parser that ``ingest._read_table`` replaced, kept as its reference.

    Returns ``(table, malformed, total, first_bad)`` or raises as the old
    parser did.
    """
    days = {}

    def day_of(token):
        day = days.get(token)
        if day is None:
            day = days[token] = ingest._parse_date(token, date_format)
        return day

    def convert(*fields):
        if len(fields) == 4:
            user, item, value, date = fields
            v = float(value)
            if not math.isfinite(v):
                raise ValueError("non-finite rating")
            return user, item, v, day_of(date)
        a, b, date = fields
        return a, b, day_of(date)

    columns = [[] for _ in schema]
    malformed, first_bad, total = 0, [], 0
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line.strip():
                continue
            total += 1
            fields = line.split(delimiter)
            try:
                if len(fields) != len(schema):
                    raise ValueError("wrong field count")
                record = convert(*fields)
            except (ValueError, OverflowError):
                malformed += 1
                if len(first_bad) < 5:
                    first_bad.append(line_no)
                continue
            for column, value in zip(columns, record):
                column.append(value)
    if total and malformed > total / 2:
        raise DataFormatError(
            f"{path}: {malformed} of {total} rows are malformed (first bad lines: {first_bad})"
        )
    arrays = [np.asarray(column, dtype=kind) for column, (_, kind) in zip(columns, schema)]
    return np.rec.fromarrays(arrays, names=[name for name, _ in schema]), malformed, total, first_bad


class _SkipWarnings(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.args = []

    def emit(self, record):
        if record.msg.startswith("%s: skipped %d malformed rows of %d"):
            self.args.append(record.args)


def block_read_table(path, delimiter, schema, date_format):
    """``ingest._read_table`` with the reference's return value, read from its warning."""
    handler = _SkipWarnings()
    ingest.logger.addHandler(handler)
    try:
        table = ingest._read_table(path, delimiter, schema, date_format)
    finally:
        ingest.logger.removeHandler(handler)
    if not handler.args:
        return table, 0, len(table), []
    [(logged_path, malformed, total, first_bad)] = handler.args
    assert logged_path == path
    return table, malformed, total, first_bad


def outcome(read, path, delimiter, schema, date_format):
    try:
        table, malformed, total, first_bad = read(path, delimiter, schema, date_format)
    except ValueError as exc:  # DataFormatError included
        return type(exc), str(exc)
    # Table bytes and per-field dtypes (str widths included) must agree.
    return table.dtype, table.tobytes(), malformed, total, first_bad


GOOD_VALUES = ["4", "3.5", " 2 ", "1e3", "-0.0", "1_0", "+7", "1E-5"]
BAD_VALUES = ["nan", "inf", "-Infinity", "1e400", "five", "", "0x10", "1__0"]
DATES = {
    "iso": (["2003-05-15", "2004-02-29", " 2003-06-01 ", "1969-12-31"], ["2003-02-30", "not-a-date", ""]),
    "days": (["12", "-3", " 7 ", "1_000", "+4"], ["9" * 25, "x1", "1.5", ""]),
    "%d/%m/%Y": (["15/05/2003", "29/02/2004", " 01/06/2003"], ["31/04/2003", "2003-05-15"]),
}
IDS = ["u1", "Zoë", "日本", "a:", ":b", "x:", "émile", "Ω", "q"]


def random_dump(rng, lines, delimiter, date_format, width, final_newline=True):
    """Text of ``lines`` lines mixing good rows with every kind of defect."""
    good_dates, bad_dates = DATES[date_format]
    out = []
    for _ in range(lines):
        kind = rng.random()
        if kind < 0.08:
            line = str(rng.choice(["", "   ", delimiter * (width - 1), "\t \t", "\x0c", " \x85 "]))
        elif kind < 0.14:
            fields = list(rng.choice(IDS, size=width + int(rng.choice([-2, -1, 1]))))
            line = delimiter.join(fields)
        else:
            fields = [str(rng.choice(IDS)), str(rng.choice(IDS))]
            if width == 4:
                fields.append(str(rng.choice(BAD_VALUES if rng.random() < 0.1 else GOOD_VALUES)))
            fields.append(str(rng.choice(bad_dates if rng.random() < 0.1 else good_dates)))
            line = delimiter.join(fields)
        out.append(line + str(rng.choice(["\n", "\r\n", "\r"], p=[0.6, 0.3, 0.1])))
    text = "".join(out)
    return text if final_newline else text.rstrip("\r\n")


SCHEMAS = [ingest._RATING_SCHEMA, ingest._TRUST_SCHEMA]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("delimiter", ["\t", ",", "::"])
@pytest.mark.parametrize("date_format", ["iso", "days", "%d/%m/%Y"])
@pytest.mark.parametrize("schema", SCHEMAS, ids=["ratings", "trust"])
def test_block_parser_matches_the_per_line_reference(tmp_path, monkeypatch, seed, delimiter, date_format, schema):
    # Blocks of 7 lines, so each file spans several blocks and a bad date
    # recurs in later blocks.
    monkeypatch.setattr(ingest, "_BLOCK_LINES", 7)
    rng = np.random.default_rng(seed)
    path = tmp_path / "dump.txt"
    path.write_bytes(random_dump(rng, 60, delimiter, date_format, len(schema), final_newline=seed % 2 == 0).encode())
    expected = outcome(reference_read_table, path, delimiter, schema, date_format)
    assert outcome(block_read_table, path, delimiter, schema, date_format) == expected
    # The dump parses, with malformed rows among its good ones.
    assert isinstance(expected[0], np.dtype) and expected[2] > 0 and len(expected[1])


@pytest.mark.parametrize(
    "text",
    [
        "",
        "\n\n  \n",
        "u1\ti1\t4\t2003-05-15",  # no final newline
        "u1\ti1\t4\t2003-05-15\r\nu2\ti1\t3\t2003-05-16\r\n",
        "u1\ti1\t4\t2003-05-15\ru2\ti1\t3\t2003-05-16\r",
        "u1\ti1\t4\t2003-05-15\n\t\t\t\nu2\ti1\t3\t2003-05-16\n",  # whitespace-only row of tabs
        "u1\ti1\t4\nu2\ti1\t3\t2003-05-16\tx\nu3\ti1\t3\t2003-05-16\n",  # too few, too many
        "u1\ti1\tnan\t2003-05-15\nu2\ti1\tinf\t2003-05-15\nu3\ti1\t1e400\t2003-05-15\nu4\ti1\t5\t2003-05-15\n",
        "u1\ti1\t1_0\t2003-05-15\nu2\ti1\tfive\t2003-05-15\nu3\ti1\t2\t2003-05-15\n",
        "u1\ti1\t4\t2003-02-30\nu2\ti1\t3\t2003-02-30\nu3\ti1\t2\t2003-05-15\n",  # more than half bad
        "ü\t日本\t4\t2003-05-15\nZoë\tΩ\t3\t2003-05-16\n",
    ],
)
def test_block_parser_matches_the_reference_on_edge_cases(tmp_path, text):
    path = tmp_path / "r.tsv"
    path.write_bytes(text.encode())
    expected = outcome(reference_read_table, path, "\t", ingest._RATING_SCHEMA, "iso")
    assert outcome(block_read_table, path, "\t", ingest._RATING_SCHEMA, "iso") == expected


def test_block_parser_numbers_bad_lines_across_a_full_block_boundary(tmp_path):
    # Bad lines end the first block and start the second at the real block
    # size; a blank line and a bad date sit in both blocks.
    block = ingest._BLOCK_LINES
    lines = [f"u{i % 50}\ti{i % 7}\t{i % 5}\t2003-05-{1 + i % 28:02d}" for i in range(2 * block + 10)]
    lines[block - 1] = lines[block] = "u0\ti0\tfive\t2003-05-15"
    lines[3] = lines[block + 3] = ""
    lines[5] = lines[block + 5] = "u1\ti1\t4\t2003-02-30"
    path = tmp_path / "r.tsv"
    path.write_text("\n".join(lines) + "\n")
    expected = outcome(reference_read_table, path, "\t", ingest._RATING_SCHEMA, "iso")
    got = outcome(block_read_table, path, "\t", ingest._RATING_SCHEMA, "iso")
    assert got == expected
    assert got[2:] == (4, len(lines) - 2, [6, block, block + 1, block + 6])


def test_block_parser_refuses_an_empty_delimiter(tmp_path):
    path = tmp_path / "r.tsv"
    path.write_text("u1\ti1\t4\t2003-05-15\n")
    with pytest.raises(ValueError, match="empty separator"):
        reference_read_table(path, "", ingest._RATING_SCHEMA, "iso")
    with pytest.raises(ValueError, match="empty separator"):
        parse_ratings(path, delimiter="")


# ---------------------------------------------------------------------------
# Filtering


def test_filter_keeps_only_strictly_more_active_users():
    ratings = ratings_table(
        [("light", f"i{j}", 3.0, j) for j in range(10)]
        + [("heavy", f"i{j}", 3.0, j) for j in range(11)]
    )
    kept = filter_min_ratings(ratings, 10)
    assert set(kept["user_id"].tolist()) == {"heavy"}
    assert len(kept) == 11


def test_filter_threshold_zero_keeps_everyone():
    ratings = ratings_table([("b", "i", 1.0, 0), ("a", "i", 2.0, 1), ("b", "j", 3.0, 2)])
    kept = filter_min_ratings(ratings, 0)
    assert kept.tolist() == ratings.tolist()  # file order, not id order


def test_filter_negative_threshold_rejected():
    with pytest.raises(ValueError):
        filter_min_ratings(ratings_table([]), -1)


# ---------------------------------------------------------------------------
# Binning


def ratings_fixture():
    return ratings_table([
        ("carol", "itemB", 4.0, 5),
        ("alice", "itemA", 3.0, 9),
        ("alice", "itemB", 2.0, 10),
        ("bob", "itemA", 5.0, 15),
        ("bob", "itemB", 1.0, 20),
        ("carol", "itemA", 2.5, 25),
    ])


def test_bin_boundaries_follow_cutoff_membership():
    """A record whose timestamp equals a cutoff lands in the later bin."""
    timeline, _, user_map, item_map = bin_timelines(ratings_fixture(), trust_table([]), [10, 20])
    assert timeline.N == 3
    assert user_map == {"alice": 0, "bob": 1, "carol": 2}
    assert item_map == {"itemA": 0, "itemB": 1}
    # Bin 0: timestamps 5, 9. Bin 1: 10, 15. Bin 2: 20, 25.
    u0, i0, v0 = timeline.bin(0)
    assert list(zip(u0, i0, v0)) == [(0, 0, 3.0), (2, 1, 4.0)]
    u1, i1, _ = timeline.bin(1)
    assert list(zip(u1, i1)) == [(0, 1), (1, 0)]
    u2, i2, _ = timeline.bin(2)
    assert list(zip(u2, i2)) == [(1, 1), (2, 0)]


def test_bins_are_sorted_by_user_then_item():
    timeline, _, _, _ = bin_timelines(ratings_fixture(), trust_table([]), [10, 20])
    for t in range(timeline.N):
        users, items, _ = timeline.bin(t)
        keys = list(zip(users, items))
        assert keys == sorted(keys)


def test_latest_rating_wins_within_a_bin():
    ratings = ratings_table([("a", "x", 1.0, 3), ("a", "x", 2.0, 7), ("a", "x", 5.0, 5)])
    timeline, _, _, _ = bin_timelines(ratings, trust_table([]), [100])
    _, _, values = timeline.bin(0)
    assert values.tolist() == [2.0]


def test_file_order_breaks_timestamp_ties():
    ratings = ratings_table([("a", "x", 1.0, 5), ("a", "x", 9.0, 5)])
    timeline, _, _, _ = bin_timelines(ratings, trust_table([]), [100])
    assert timeline.bin(0)[2].tolist() == [9.0]


def test_trust_graphs_accumulate_over_bins():
    edges = trust_table([("alice", "bob", 2), ("bob", "carol", 12)])
    _, trust, user_map, _ = bin_timelines(ratings_fixture(), edges, [10, 20])
    a, b, c = user_map["alice"], user_map["bob"], user_map["carol"]
    assert trust.graph(0)[a, b] == 1.0 and trust.graph(0)[b, c] == 0.0
    assert trust.graph(1)[a, b] == 1.0 and trust.graph(1)[b, c] == 1.0
    assert trust.graph(2)[b, c] == 1.0
    assert trust.edge_count(0) == 1 and trust.edge_count(2) == 2


def test_trust_edges_outside_user_universe_dropped(caplog):
    edges = trust_table([("alice", "stranger", 2)])
    with caplog.at_level(logging.WARNING):
        _, trust, _, _ = bin_timelines(ratings_fixture(), edges, [10, 20])
    assert trust.edge_count(2) == 0
    assert any("outside the user universe" in rec.message for rec in caplog.records)


def test_empty_trust_file_gives_edgeless_bins(tmp_path):
    path = tmp_path / "trust.tsv"
    path.write_text("")
    _, trust, _, _ = bin_timelines(ratings_fixture(), parse_trust(path), [10, 20])
    assert [trust.edge_count(t) for t in range(trust.N)] == [0, 0, 0]


def test_maps_follow_sorted_order_for_non_ascii_and_mixed_case_ids(tmp_path):
    users = ["zoë", "Zed", "émile", "Émile", "alice", "Bob", "ßeta", "Ωmega", "日本"]
    items = ["Ärger", "apple", "Apple", "ćevapi", "Zebra", "zebra", "ñu"]
    path = tmp_path / "r.tsv"
    lines = [f"{u}\t{items[n % len(items)]}\t3.0\t2003-01-0{1 + n}" for n, u in enumerate(users)]
    lines += [f"{users[0]}\t{i}\t4.0\t2003-02-01" for i in items]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    ratings = parse_ratings(path)
    _, _, user_map, item_map = bin_timelines(ratings, trust_table([]), [days("2003-01-05")])
    assert list(user_map) == sorted(users) and list(user_map.values()) == list(range(len(users)))
    assert list(item_map) == sorted(items) and list(item_map.values()) == list(range(len(items)))
    assert all(type(key) is str for key in [*user_map, *item_map])


@pytest.mark.parametrize(
    "ids",
    [
        [],
        [""],
        ["b", "a", "", "b", "a\x00b", "a"],
        ["日本", "zoë", "Zoë", "😀", "\U0010ffff", "z", "😀"],
        ["x" * 40 + "b", "x" * 40 + "a", "x" * 39, "x" * 41, "y"],
        [str(i) for i in range(3000, 0, -7)],
    ],
)
def test_index_ids_numbers_ids_in_sorted_order(ids):
    ids = np.array(ids, dtype=str)
    index, codes = ingest._index_ids(ids)
    distinct = sorted(set(ids.tolist()))
    assert list(index) == distinct and list(index.values()) == list(range(len(distinct)))
    assert codes.dtype == np.int64
    assert [distinct[c] for c in codes.tolist()] == ids.tolist()
    unique, inverse = np.unique(ids, return_inverse=True)
    assert unique.tolist() == distinct
    np.testing.assert_array_equal(codes, inverse.reshape(-1))


def reference_bins(ratings, edges, cutoffs):
    """Per-bin (user, item, value) rows and edge sets, built row by row with dicts."""
    user_map = {u: i for i, u in enumerate(sorted({r[0] for r in ratings}))}
    item_map = {x: j for j, x in enumerate(sorted({r[1] for r in ratings}))}
    latest = [{} for _ in range(len(cutoffs) + 1)]
    for order, (user, item, value, day) in enumerate(ratings):
        chosen = latest[bisect.bisect_right(cutoffs, day)]
        key = (user_map[user], item_map[item])
        if key not in chosen or (day, order) > chosen[key][:2]:
            chosen[key] = (day, order, value)
    bins = [sorted((u, i, rec[2]) for (u, i), rec in chosen.items()) for chosen in latest]
    known = [(user_map[a], user_map[b], day) for a, b, day in edges if {a, b} <= user_map.keys()]
    graphs = [
        {(min(a, b), max(a, b)) for a, b, day in known if bisect.bisect_right(cutoffs, day) <= t}
        for t in range(len(latest))
    ]
    return bins, graphs, user_map, item_map


@pytest.mark.parametrize("seed", range(6))
def test_bin_timelines_matches_dict_reference(seed):
    rng = np.random.default_rng(seed)
    users = [f"u{i}" for i in range(12)]
    items = [f"i{j}" for j in range(8)]
    # Few users, items and days, so (user, item) keys repeat within a bin and
    # timestamps tie; some trust endpoints never rate.
    ratings = [
        (users[u], items[i], float(value), int(day))
        for u, i, value, day in zip(
            rng.integers(12, size=300), rng.integers(8, size=300),
            rng.uniform(1, 5, size=300), rng.integers(30, size=300),
        )
    ]
    strangers = ["x0", "x1", "x2"]
    edges = []
    for _ in range(40):
        a, b = rng.choice(users + strangers, size=2, replace=False)
        edges.append((str(a), str(b), int(rng.integers(0, 30))))
    cutoffs = [8, 15, 16, 25]
    built = bin_timelines(ratings_table(ratings), trust_table(edges), cutoffs)
    timeline, trust, user_map, item_map = built
    bins, graphs, ref_users, ref_items = reference_bins(ratings, edges, cutoffs)
    assert user_map == ref_users and item_map == ref_items
    assert timeline.N == trust.N == len(bins)
    for t in range(timeline.N):
        users_t, items_t, values_t = timeline.bin(t)
        assert list(zip(users_t.tolist(), items_t.tolist(), values_t.tolist())) == bins[t]
        assert set(zip(*(e.tolist() for e in trust.edges(t)))) == graphs[t]
        np.testing.assert_array_equal(trust.graph(t).data, 1.0)


def test_bin_timelines_validates_inputs():
    with pytest.raises(ValueError, match="increasing"):
        bin_timelines(ratings_fixture(), trust_table([]), [20, 10])
    with pytest.raises(DataFormatError, match="no ratings"):
        bin_timelines(ratings_table([]), trust_table([]), [10])


# ---------------------------------------------------------------------------
# Splitting


def big_timeline(seed=0, m=20, n=15, N=3, p=60):
    rng = np.random.default_rng(seed)
    bins = []
    for t in range(N):
        pairs = set()
        while len(pairs) < p:
            pairs.add((int(rng.integers(m)), int(rng.integers(n))))
        pairs = sorted(pairs)
        users = np.array([u for u, _ in pairs], dtype=np.int64)
        items = np.array([i for _, i in pairs], dtype=np.int64)
        bins.append((users, items, rng.uniform(1, 5, size=p)))
    return RatingsTimeline(m, n, bins)


def test_split_sizes_follow_ceiling_rule():
    timeline = big_timeline(p=7)
    split = split_train_test(timeline, 0.8, seed=1)
    for t in range(timeline.N):
        assert split.train.p(t) == math.ceil(0.8 * 7) == 6
        assert split.test.p(t) == 1


def test_split_is_a_partition():
    timeline = big_timeline(seed=2)
    split = split_train_test(timeline, 0.7, seed=3)
    for t in range(timeline.N):
        all_pairs = set(zip(*timeline.bin(t)[:2]))
        train_pairs = set(zip(*split.train.bin(t)[:2]))
        test_pairs = set(zip(*split.test.bin(t)[:2]))
        assert train_pairs | test_pairs == all_pairs
        assert not (train_pairs & test_pairs)


def test_split_is_deterministic_and_seed_sensitive():
    timeline = big_timeline(seed=4)
    a = split_train_test(timeline, 0.8, seed=5)
    b = split_train_test(timeline, 0.8, seed=5)
    c = split_train_test(timeline, 0.8, seed=6)
    for t in range(timeline.N):
        np.testing.assert_array_equal(a.train.users[t], b.train.users[t])
        np.testing.assert_array_equal(a.train.values[t], b.train.values[t])
    assert any(
        not np.array_equal(a.train.users[t], c.train.users[t]) for t in range(timeline.N)
    )


def test_split_rejects_degenerate_fractions():
    timeline = big_timeline()
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            split_train_test(timeline, bad, seed=0)


def test_split_warns_on_empty_bin(caplog):
    timeline = RatingsTimeline(3, 3, [
        (np.array([0]), np.array([1]), np.array([2.0])),
        (np.array([], dtype=np.int64), np.array([], dtype=np.int64), np.array([])),
    ])
    with caplog.at_level(logging.WARNING):
        split = split_train_test(timeline, 0.5, seed=0)
    assert split.train.p(1) == 0 and split.test.p(1) == 0
    assert any("empty" in rec.message for rec in caplog.records)


def test_split_of_an_empty_bin_leaves_the_next_bins_split_unchanged():
    b0, b2 = big_timeline(seed=10, N=2).bin(0), big_timeline(seed=11, N=2).bin(1)
    empty = (np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))
    gap = split_train_test(RatingsTimeline(20, 15, [b0, empty, b2]), 0.7, seed=12)
    plain = split_train_test(RatingsTimeline(20, 15, [b0, b2]), 0.7, seed=12)
    for got, expected in ((gap.train, plain.train), (gap.test, plain.test)):
        for a, b in zip(got.bin(2), expected.bin(1)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert [a.dtype for a in got.bin(1)] == [np.int64, np.int64, np.float64]
        assert got.p(1) == 0


def test_merge_restores_canonical_timeline():
    timeline = big_timeline(seed=7)
    split = split_train_test(timeline, 0.6, seed=8)
    merged = merge_split(split)
    for t in range(timeline.N):
        np.testing.assert_array_equal(merged.users[t], timeline.users[t])
        np.testing.assert_array_equal(merged.items[t], timeline.items[t])
        np.testing.assert_array_equal(merged.values[t], timeline.values[t])


# ---------------------------------------------------------------------------
# Dataset directory round trip


def test_dataset_round_trip(tmp_path):
    ratings, trust, user_map, item_map = bin_timelines(
        ratings_fixture(),
        trust_table([("alice", "bob", 2), ("bob", "carol", 12)]),
        [10, 20],
    )
    out = tmp_path / "data"
    save_dataset(out, ratings, trust, user_map, item_map)
    r2, t2, u2, i2 = load_dataset(out)
    assert u2 == user_map and i2 == item_map
    assert (r2.m, r2.n, r2.N) == (ratings.m, ratings.n, ratings.N)
    for t in range(ratings.N):
        for a, b in zip(r2.bin(t), ratings.bin(t)):
            np.testing.assert_array_equal(a, b)
        assert (t2.graph(t) != trust.graph(t)).nnz == 0


def test_dataset_round_trip_preserves_split(tmp_path):
    """Loading a saved dataset and re-splitting gives the identical split."""
    ratings, trust, user_map, item_map = bin_timelines(ratings_fixture(), trust_table([]), [10, 20])
    save_dataset(tmp_path / "d", ratings, trust, user_map, item_map)
    loaded, _, _, _ = load_dataset(tmp_path / "d")
    s1 = split_train_test(ratings, 0.5, seed=9)
    s2 = split_train_test(loaded, 0.5, seed=9)
    for t in range(ratings.N):
        np.testing.assert_array_equal(s1.train.users[t], s2.train.users[t])
        np.testing.assert_array_equal(s1.train.values[t], s2.train.values[t])


def test_save_dataset_is_byte_stable(tmp_path):
    ratings, trust, user_map, item_map = bin_timelines(
        ratings_fixture(), trust_table([("alice", "carol", 3)]), [10, 20]
    )
    save_dataset(tmp_path / "a", ratings, trust, user_map, item_map)
    save_dataset(tmp_path / "b", ratings, trust, user_map, item_map)
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == [
        "items.map", "meta.txt", "ratings_index.npy", "ratings_value.npy", "trust.npy", "users.map",
    ]
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_load_dataset_rejects_count_mismatch(tmp_path):
    ratings, trust, user_map, item_map = bin_timelines(ratings_fixture(), trust_table([]), [10, 20])
    save_dataset(tmp_path / "d", ratings, trust, user_map, item_map)
    meta = (tmp_path / "d" / "meta.txt").read_text().replace("p=2", "p=3")
    (tmp_path / "d" / "meta.txt").write_text(meta)
    # meta.txt now sums to one rating more than the arrays hold.
    with pytest.raises(DataFormatError, match=r"ratings_index.npy: .* expected int64 of shape \(2, 7\)"):
        load_dataset(tmp_path / "d")


def test_load_dataset_requires_meta(tmp_path):
    with pytest.raises(DataFormatError, match="meta.txt"):
        load_dataset(tmp_path)


def _saved_fixture(directory):
    built = bin_timelines(
        ratings_fixture(),
        trust_table([("alice", "bob", 2), ("bob", "carol", 12), ("alice", "carol", 13)]),
        [10, 20],
    )
    save_dataset(directory, *built)
    return built


def test_save_dataset_writes_each_edge_in_exactly_one_file(tmp_path):
    _, trust, _, _ = _saved_fixture(tmp_path / "d")
    stored = np.load(tmp_path / "d" / "trust.npy")
    # Rows a, b, created: each edge once, a < b, sorted by (created, a, b).
    np.testing.assert_array_equal(stored, [[0, 0, 1], [1, 2, 2], [0, 1, 1]])
    assert stored.shape[1] == trust.edge_count(trust.N - 1)


def _add_edges(directory, *edges):
    """Append (a, b, created) columns to a saved dataset's trust.npy."""
    path = directory / "trust.npy"
    np.save(path, np.concatenate([np.load(path), np.array(edges, dtype=np.int64).T], axis=1))


def test_load_dataset_takes_each_bin_as_the_union_of_files(tmp_path):
    # An edge stored again with a later bin, even reversed, keeps its first bin.
    _, trust, _, _ = _saved_fixture(tmp_path / "d")
    _add_edges(tmp_path / "d", (2, 0, 2), (1, 0, 2))
    _, loaded, _, _ = load_dataset(tmp_path / "d")
    for t in range(trust.N):
        assert (loaded.graph(t) != trust.graph(t)).nnz == 0
    np.testing.assert_array_equal(loaded.created, trust.created)


def test_load_dataset_reads_cumulative_trust_files(tmp_path):
    """A trust.npy that lists every edge again in each later bin, as a
    cumulative per-bin edge list would, loads to the same graphs."""
    _, trust, _, _ = _saved_fixture(tmp_path / "d")
    _add_edges(
        tmp_path / "d",
        *[(b, a, t) for t in range(1, trust.N) for a, b in zip(*trust.edges(t))],
    )
    assert np.load(tmp_path / "d" / "trust.npy").shape == (3, 3 + 3 + 3)
    _, loaded, _, _ = load_dataset(tmp_path / "d")
    assert loaded.N == trust.N
    np.testing.assert_array_equal(loaded.created, trust.created)
    for t in range(trust.N):
        assert (loaded.graph(t) != trust.graph(t)).nnz == 0
        np.testing.assert_array_equal(loaded.laplacians[t].degrees, trust.laplacians[t].degrees)


@pytest.mark.parametrize("line", ["0\t3\n", "-1\t0\n", "1\t1\n", "0\tx\n"])
def test_load_dataset_names_a_trust_file_with_a_bad_pair(tmp_path, line):
    # The fixture has users 0..2: endpoints above and below that range, a
    # self-loop, and a non-integer (stored as text, so trust.npy has the wrong dtype).
    _saved_fixture(tmp_path / "d")
    path = tmp_path / "d" / "trust.npy"
    pair = np.array(line.split() + ["1"])[:, None]  # created in bin 1
    bad = np.concatenate([np.load(path).astype(str), pair], axis=1)
    np.save(path, bad if "x" in line else bad.astype(np.int64))
    with pytest.raises(DataFormatError, match="trust.npy"):
        load_dataset(tmp_path / "d")


@pytest.mark.parametrize("counts", ["2,2", "2,2,2,2", ""])
def test_load_dataset_requires_one_count_per_bin(tmp_path, counts):
    _saved_fixture(tmp_path / "d")
    meta = tmp_path / "d" / "meta.txt"
    text = meta.read_text()
    assert "p=2,2,2\n" in text
    meta.write_text(text.replace("p=2,2,2", f"p={counts}"))
    with pytest.raises(DataFormatError, match="meta.txt"):
        load_dataset(tmp_path / "d")


def test_load_dataset_rejects_an_old_tsv_directory(tmp_path):
    """A directory in the per-bin TSV layout is refused, with the way out."""
    _saved_fixture(tmp_path / "d")
    for name in ("ratings_index.npy", "ratings_value.npy", "trust.npy"):
        (tmp_path / "d" / name).unlink()
    for t in range(3):
        (tmp_path / "d" / f"ratings_bin_{t}.tsv").write_text("0\t0\t3\n1\t1\t4\n")
        (tmp_path / "d" / f"trust_bin_{t}.tsv").write_text("")
    with pytest.raises(DataFormatError, match=r"ratings_index.npy not found.*re-run ingest or synth"):
        load_dataset(tmp_path / "d")


def test_save_dataset_deletes_the_old_per_bin_files_and_nothing_else(tmp_path):
    directory = tmp_path / "d"
    directory.mkdir()
    stale = [f"ratings_bin_{t}.tsv" for t in (0, 1, 7, 11)] + [f"trust_bin_{t}.tsv" for t in (0, 12)]
    kept = [
        "notes.txt", "ratings_bin_x.tsv", "ratings_bin_0.tsv.bak", "old_ratings_bin_0.tsv",
        "trust_bin_.tsv", "ratings_bin_0.csv", "truth_U.npy", "ratings_bin_٣.tsv",
    ]
    for name in stale + kept:
        (directory / name).write_text(f"{name}\n", encoding="utf-8")
    _saved_fixture(directory)
    names = {p.name for p in directory.iterdir()}
    assert names.isdisjoint(stale)
    assert set(kept) <= names
    for name in kept:
        assert (directory / name).read_text(encoding="utf-8") == f"{name}\n"
    load_dataset(directory)


@pytest.mark.parametrize("name", ["ratings_index.npy", "ratings_value.npy", "trust.npy"])
def test_load_dataset_never_unpickles(tmp_path, name):
    _saved_fixture(tmp_path / "d")
    path = tmp_path / "d" / name
    np.save(path, np.load(path).astype(object), allow_pickle=True)
    with pytest.raises(DataFormatError, match=f"{name}: .*allow_pickle=False"):
        load_dataset(tmp_path / "d")


def _set(array, where, value):
    array = array.copy()
    array[where] = value
    return array


# The fixture has 3 users, 2 items, 3 bins and 6 ratings.
@pytest.mark.parametrize(
    "name, corrupt, message",
    [
        ("ratings_index.npy", lambda a: a.astype(np.int32), r"holds int32 of shape \(2, 6\)"),
        ("ratings_index.npy", lambda a: a[:, :5], r"expected int64 of shape \(2, 6\)"),
        ("ratings_index.npy", lambda a: _set(a, (0, 0), 3), "user index out of range"),
        ("ratings_index.npy", lambda a: _set(a, (1, 0), 2), "item index out of range"),
        ("ratings_index.npy", lambda a: a[:, [0, 0, 2, 3, 4, 5]], r"duplicate \(user, item\) pair"),
        ("ratings_value.npy", lambda v: _set(v, 0, np.nan), "non-finite rating value"),
        ("ratings_value.npy", lambda v: v[:, None], r"holds float64 of shape \(6, 1\)"),
        ("trust.npy", lambda e: e[:2], r"expected int64 of shape \(3, -1\)"),
        ("trust.npy", lambda e: _set(e, (2, -1), 3), "creation bin out of range"),
    ],
)
def test_load_dataset_names_the_file_of_each_defect(tmp_path, name, corrupt, message):
    _saved_fixture(tmp_path / "d")
    path = tmp_path / "d" / name
    np.save(path, corrupt(np.load(path)))
    with pytest.raises(DataFormatError, match=f"{name}: .*{message}"):
        load_dataset(tmp_path / "d")


@pytest.mark.parametrize(
    "name, lines",
    [
        ("users.map", ["alice\t0", "bob\t1"]),  # truncated
        ("users.map", ["alice\t0", "bob\t1", "bob\t2"]),  # an id given twice
        ("users.map", ["alice\t0", "bob\t1", "carol\t3"]),  # an index outside 0..m-1
        ("items.map", ["itemA\t0", "itemB\t0"]),  # two ids on one index
        ("items.map", ["itemA\t0", "itemB\tx"]),  # not an index
    ],
)
def test_load_dataset_checks_the_id_maps(tmp_path, name, lines):
    _saved_fixture(tmp_path / "d")
    (tmp_path / "d" / name).write_text("".join(line + "\n" for line in lines))
    with pytest.raises(DataFormatError, match=name):
        load_dataset(tmp_path / "d")


def test_dataset_round_trip_with_an_empty_bin_and_no_edges(tmp_path):
    ratings = RatingsTimeline(2, 2, [([1, 0], [0, 1], [4.0, 2.5]), ([], [], []), ([1], [1], [3.0])])
    trust = TrustTimeline(2, 3, [], [], [])
    user_map, item_map = {"u": 0, "v": 1}, {"a": 0, "b": 1}
    save_dataset(tmp_path / "d", ratings, trust, user_map, item_map)
    assert np.load(tmp_path / "d" / "trust.npy").shape == (3, 0)
    loaded, loaded_trust, u2, i2 = load_dataset(tmp_path / "d")
    assert loaded.counts == [2, 0, 1] and (u2, i2) == (user_map, item_map)
    # Bins are stored sorted by (user, item).
    np.testing.assert_array_equal(loaded.users[0], [0, 1])
    np.testing.assert_array_equal(loaded.values[0], [2.5, 4.0])
    np.testing.assert_array_equal(loaded.bin(2)[2], [3.0])
    assert [loaded_trust.edge_count(t) for t in range(3)] == [0, 0, 0]


def test_loaded_bins_are_views_of_the_stored_arrays(tmp_path):
    _saved_fixture(tmp_path / "d")
    ratings, _, _, _ = load_dataset(tmp_path / "d")
    index, values = ratings.users[0].base, ratings.values[0].base
    assert index is not None and values is not None
    assert all(a.base is index for a in ratings.users + ratings.items)
    assert all(v.base is values for v in ratings.values)
