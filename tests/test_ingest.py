import bisect
import datetime
import logging
import math

import numpy as np
import pytest

from socialdmf import (
    DataFormatError,
    RatingsTimeline,
    TableFormat,
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
    fmt = TableFormat(delimiter=",", date_format="days")
    out = parse_ratings(path, fmt)
    assert out["timestamp"].tolist() == [120, 121]


def test_parse_ratings_strptime_format(tmp_path):
    path = tmp_path / "r.tsv"
    path.write_text("u1\ti1\t3.0\t15/05/2003\n")
    out = parse_ratings(path, TableFormat(date_format="%d/%m/%Y"))
    assert out["timestamp"][0] == days("2003-05-15")


def test_parse_ratings_custom_column_order(tmp_path):
    path = tmp_path / "r.tsv"
    path.write_text("2004-01-01\t4.5\tmovie9\talice\n")
    fmt = TableFormat(columns=("date", "value", "item", "user"))
    out = parse_ratings(path, fmt)
    assert out.tolist() == [("alice", "movie9", 4.5, days("2004-01-01"))]


def test_parse_ratings_missing_required_column(tmp_path):
    path = tmp_path / "r.tsv"
    path.write_text("x\ty\n")
    with pytest.raises(DataFormatError, match="required"):
        parse_ratings(path, TableFormat(columns=("user", "item", "value")))


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


def test_parse_ratings_rejects_non_finite_values(tmp_path):
    path = tmp_path / "r.tsv"
    path.write_text("u1\ti1\tnan\t2003-05-15\nu2\ti1\t4\t2003-05-15\n")
    out = parse_ratings(path)
    assert len(out) == 1 and out["user_id"][0] == "u2"


def test_parse_trust_deduplicates_undirected_keeping_earliest(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text(
        "u2\tu1\t2003-02-01\n"
        "u1\tu2\t2003-01-01\n"
        "u1\tu3\t2003-03-01\n"
    )
    out = parse_trust(path)
    assert out.dtype.names == ("user_a", "user_b", "timestamp")
    by_key = {(a, b): timestamp for a, b, timestamp in out.tolist()}
    assert by_key == {("u1", "u2"): days("2003-01-01"), ("u1", "u3"): days("2003-03-01")}


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
    for name in sorted(p.name for p in (tmp_path / "a").iterdir()):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_load_dataset_rejects_count_mismatch(tmp_path):
    ratings, trust, user_map, item_map = bin_timelines(ratings_fixture(), trust_table([]), [10, 20])
    save_dataset(tmp_path / "d", ratings, trust, user_map, item_map)
    meta = (tmp_path / "d" / "meta.txt").read_text().replace("p=2", "p=3")
    (tmp_path / "d" / "meta.txt").write_text(meta)
    with pytest.raises(DataFormatError, match="meta.txt says"):
        load_dataset(tmp_path / "d")


def test_load_dataset_requires_meta(tmp_path):
    with pytest.raises(DataFormatError, match="meta.txt"):
        load_dataset(tmp_path)


def test_load_dataset_rejects_a_later_bin_that_lost_an_edge(tmp_path):
    ratings, trust, user_map, item_map = bin_timelines(
        ratings_fixture(),
        trust_table([("alice", "bob", 2), ("bob", "carol", 12)]),
        [10, 20],
    )
    save_dataset(tmp_path / "d", ratings, trust, user_map, item_map)
    (tmp_path / "d" / "trust_bin_1.tsv").write_text("1\t2\n")  # bin 0 has 0-1
    with pytest.raises(ValueError, match="lost edges"):
        load_dataset(tmp_path / "d")
