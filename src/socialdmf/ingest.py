"""Parsing, filtering, time-binning, and splitting of rating and trust data.

Raw dumps are delimiter-separated text files described by a small
:class:`TableFormat`. The parsers return columnar tables: numpy structured
arrays with one record per row and one named field per column. Timestamps
are integer days since 1970-01-01 throughout. Binning assigns a record with
timestamp tau to bin ``#{cutoffs <= tau}``, so ``len(cutoffs) + 1`` bins
cover the whole line.
Trust graphs are cumulative: an edge enters at its creation bin and persists
in every later bin.

The canonical on-disk dataset is a directory of sorted text files
(ratings_bin_<t>.tsv, trust_bin_<t>.tsv, users.map, items.map, meta.txt),
written deterministically so that two runs over the same inputs diff clean.
"""

from __future__ import annotations

import datetime
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .domain import RatingsTimeline, TrustTimeline

logger = logging.getLogger(__name__)

_EPOCH = datetime.date(1970, 1, 1)

_RATING_COLUMNS = ("user", "item", "value", "date")
_TRUST_COLUMNS = ("user_a", "user_b", "date")
_RATING_SCHEMA = (
    ("user_id", str), ("item_id", str), ("value", np.float64), ("timestamp", np.int64)
)
_TRUST_SCHEMA = (("user_a", str), ("user_b", str), ("timestamp", np.int64))


class DataFormatError(ValueError):
    """Raised when an input file cannot be used as data."""


@dataclass(frozen=True)
class TableFormat:
    """Shape of a delimiter-separated input file.

    ``columns`` names each field position; ``None`` selects the default
    order for the parser at hand. ``date_format`` is "iso" for ISO dates,
    "days" for integer days since the epoch, or any strptime pattern.
    """

    delimiter: str = "\t"
    columns: Optional[tuple[str, ...]] = None
    date_format: str = "iso"


def _parse_date(token: str, date_format: str) -> int:
    if date_format == "days":
        days = int(token)
        if not -(2**63) <= days < 2**63:
            raise ValueError(f"day number {days} out of range")
        return days
    if date_format == "iso":
        day = datetime.date.fromisoformat(token.strip())
    else:
        day = datetime.datetime.strptime(token.strip(), date_format).date()
    return (day - _EPOCH).days


def _read_table(path, fmt: TableFormat, default_columns, schema, convert) -> np.ndarray:
    """Read a delimited file into a table with one record per well-formed row.

    ``convert`` maps a row's fields, in ``default_columns`` order, to one
    record; a row with the wrong field count, or on which ``convert``
    raises ValueError or OverflowError, is malformed.
    """
    columns = fmt.columns if fmt.columns is not None else default_columns
    missing = set(default_columns) - set(columns)
    if missing:
        raise DataFormatError(f"format columns {columns} lack required fields {sorted(missing)}")
    index = [columns.index(name) for name in default_columns]
    records = []
    malformed = 0
    first_bad: list[int] = []
    total = 0
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line.strip():
                continue
            total += 1
            fields = line.split(fmt.delimiter)
            try:
                if len(fields) != len(columns):
                    raise ValueError("wrong field count")
                records.append(convert(*(fields[i] for i in index)))
            except (ValueError, OverflowError):
                malformed += 1
                if len(first_bad) < 5:
                    first_bad.append(line_no)
    if total and malformed > total / 2:
        raise DataFormatError(
            f"{path}: {malformed} of {total} rows are malformed (first bad lines: {first_bad})"
        )
    if malformed:
        logger.warning("%s: skipped %d malformed rows of %d", path, malformed, total)
    return _table(schema, list(zip(*records)) or [()] * len(schema))


def _table(schema, columns) -> np.ndarray:
    """A record array with one ``(name, dtype)`` field per ``schema`` entry, from ``columns``."""
    arrays = [np.asarray(column, dtype=kind) for column, (_, kind) in zip(columns, schema)]
    return np.rec.fromarrays(arrays, names=[name for name, _ in schema])


def parse_ratings(path, fmt: TableFormat = TableFormat()) -> np.ndarray:
    """Read ratings (user, item, value, date) from a delimited text file.

    Returns a structured array with fields ``user_id``, ``item_id`` (str),
    ``value`` (float64) and ``timestamp`` (int64 days), one record per
    well-formed row in file order. Malformed rows are counted and logged;
    more than half malformed raises :class:`DataFormatError`.
    """

    def convert(user, item, value, date):
        v = float(value)
        if not math.isfinite(v):
            raise ValueError("non-finite rating")
        return user, item, v, _parse_date(date, fmt.date_format)

    return _read_table(path, fmt, _RATING_COLUMNS, _RATING_SCHEMA, convert)


def parse_trust(path, fmt: TableFormat = TableFormat()) -> np.ndarray:
    """Read trust edges (user_a, user_b, date) from a delimited text file.

    Returns a structured array with fields ``user_a``, ``user_b`` (str) and
    ``timestamp`` (int64 days). Edges are undirected: each comes back once,
    smaller id first, with its earliest date, sorted by (user_a, user_b).
    Self-loops are dropped. Malformed handling matches :func:`parse_ratings`.
    """

    def convert(a, b, date):
        return a, b, _parse_date(date, fmt.date_format)

    table = _read_table(path, fmt, _TRUST_COLUMNS, _TRUST_SCHEMA, convert)
    loops = table["user_a"] == table["user_b"]
    if loops.any():
        logger.warning("%s: dropped %d self-loop edges", path, int(loops.sum()))
        table = table[~loops]
    a, b, timestamps = table["user_a"], table["user_b"], table["timestamp"]
    low, high = np.where(a < b, a, b), np.where(a < b, b, a)
    order = np.lexsort((timestamps, high, low))
    low, high, timestamps = low[order], high[order], timestamps[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = (low[1:] != low[:-1]) | (high[1:] != high[:-1])
    return _table(_TRUST_SCHEMA, (low[first], high[first], timestamps[first]))


def filter_min_ratings(ratings: np.ndarray, threshold: int) -> np.ndarray:
    """Keep only users with strictly more than ``threshold`` ratings, in file order."""
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    _, user_of_row, counts = np.unique(ratings["user_id"], return_inverse=True, return_counts=True)
    return ratings[counts[user_of_row] > threshold]


def bin_timelines(
    ratings: np.ndarray,
    edges: np.ndarray,
    cutoffs: Sequence[int],
) -> tuple[RatingsTimeline, TrustTimeline, dict[str, int], dict[str, int]]:
    """Bin ratings and trust edges into ``len(cutoffs) + 1`` time bins.

    ``ratings`` and ``edges`` are tables as returned by :func:`parse_ratings`
    and :func:`parse_trust`. Users and items are mapped to dense indices in
    lexicographic id order. Within a bin, duplicate (user, item) pairs keep
    the latest rating. Trust graphs are cumulative with binary weights;
    edges touching users outside the (post-filter) rating universe are
    dropped.

    Returns
    -------
    (RatingsTimeline, TrustTimeline, user_map, item_map)
    """
    cutoffs = np.array([int(c) for c in cutoffs], dtype=np.int64)
    if np.any(np.diff(cutoffs) <= 0):
        raise ValueError(f"cutoffs must be strictly increasing, got {cutoffs.tolist()}")
    if not len(ratings):
        raise DataFormatError("no ratings left after filtering")
    N = cutoffs.size + 1

    user_ids, users = np.unique(ratings["user_id"], return_inverse=True)
    item_ids, items = np.unique(ratings["item_id"], return_inverse=True)
    user_map = dict(zip(user_ids.tolist(), range(user_ids.size)))
    item_map = dict(zip(item_ids.tolist(), range(item_ids.size)))
    m, n = user_ids.size, item_ids.size

    # Latest rating wins within a bin; later file order breaks timestamp ties.
    # After sorting, the winner is the last row of its (bin, user, item) run.
    timestamps = ratings["timestamp"]
    bins = np.searchsorted(cutoffs, timestamps, side="right")
    order = np.lexsort((np.arange(len(ratings)), timestamps, items, users, bins))
    bins, users, items = bins[order], users[order], items[order]
    last = np.ones(order.size, dtype=bool)
    last[:-1] = (bins[1:] != bins[:-1]) | (users[1:] != users[:-1]) | (items[1:] != items[:-1])
    bins, users, items = bins[last], users[last], items[last]
    values = ratings["value"][order[last]]
    bounds = np.searchsorted(bins, np.arange(N + 1))
    timeline = RatingsTimeline(
        m, n, [(users[a:b], items[a:b], values[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]
    )

    a = np.searchsorted(user_ids, edges["user_a"]).clip(max=m - 1)
    b = np.searchsorted(user_ids, edges["user_b"]).clip(max=m - 1)
    inside = (user_ids[a] == edges["user_a"]) & (user_ids[b] == edges["user_b"])
    if not inside.all():
        logger.warning(
            "dropped %d trust edges with endpoints outside the user universe", int((~inside).sum())
        )
    created = np.searchsorted(cutoffs, edges["timestamp"][inside], side="right")
    a, b = a[inside], b[inside]
    trust = TrustTimeline.from_edges(m, [(a[created <= t], b[created <= t]) for t in range(N)])
    return timeline, trust, user_map, item_map


@dataclass(frozen=True)
class SplitTimeline:
    """A per-bin train/test partition of one ratings timeline."""

    train: RatingsTimeline
    test: RatingsTimeline
    seed: int

    def __post_init__(self) -> None:
        a, b = self.train, self.test
        if (a.m, a.n, a.N) != (b.m, b.n, b.N):
            raise ValueError("train and test halves disagree on (m, n, N)")


def split_train_test(timeline: RatingsTimeline, fraction: float, seed: int) -> SplitTimeline:
    """Split every bin into train/test uniformly at random.

    The training half of bin t gets ``ceil(fraction * p_t)`` observations.
    The same (timeline, fraction, seed) always produces the same split; a
    single generator is consumed in bin order.
    """
    if not 0 < fraction < 1:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    rng = np.random.default_rng(seed)
    train_bins = []
    test_bins = []
    for t in range(timeline.N):
        users, items, values = timeline.bin(t)
        p = users.size
        if p == 0:
            logger.warning("bin %d is empty; both halves will be empty", t)
            empty = (np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))
            train_bins.append(empty)
            test_bins.append(empty)
            continue
        perm = rng.permutation(p)
        n_train = math.ceil(fraction * p)
        tr = np.sort(perm[:n_train])
        te = np.sort(perm[n_train:])
        train_bins.append((users[tr], items[tr], values[tr]))
        test_bins.append((users[te], items[te], values[te]))
    train = RatingsTimeline(timeline.m, timeline.n, train_bins)
    test = RatingsTimeline(timeline.m, timeline.n, test_bins)
    return SplitTimeline(train=train, test=test, seed=seed)


def merge_split(split: SplitTimeline) -> RatingsTimeline:
    """Recombine a split into one timeline with canonical bin order."""
    bins = []
    for t in range(split.train.N):
        u = np.concatenate([split.train.users[t], split.test.users[t]])
        i = np.concatenate([split.train.items[t], split.test.items[t]])
        v = np.concatenate([split.train.values[t], split.test.values[t]])
        order = np.lexsort((i, u))
        bins.append((u[order], i[order], v[order]))
    return RatingsTimeline(split.train.m, split.train.n, bins)


# Canonical dataset directory ------------------------------------------------

def save_dataset(
    directory,
    ratings: RatingsTimeline,
    trust: TrustTimeline,
    user_map: dict[str, int],
    item_map: dict[str, int],
) -> None:
    """Write the canonical binned dataset directory.

    Layout: ratings_bin_<t>.tsv (user, item, value on dense indices, sorted),
    trust_bin_<t>.tsv (cumulative edges a < b, sorted), users.map and
    items.map (id to index), meta.txt (m, n, N, per-bin counts).
    """
    if ratings.N != trust.N or ratings.m != trust.m:
        raise ValueError("ratings and trust timelines disagree on (m, N)")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, mapping in (("users.map", user_map), ("items.map", item_map)):
        with open(directory / name, "w", encoding="utf-8") as fh:
            for key, idx in sorted(mapping.items(), key=lambda kv: kv[1]):
                fh.write(f"{key}\t{idx}\n")
    for t in range(ratings.N):
        users, items, values = ratings.bin(t)
        order = np.lexsort((items, users))
        with open(directory / f"ratings_bin_{t}.tsv", "w") as fh:
            for idx in order:
                fh.write(f"{users[idx]}\t{items[idx]}\t{values[idx]:.17g}\n")
        rows, cols = trust.edges(t)
        edge_order = np.lexsort((cols, rows))
        with open(directory / f"trust_bin_{t}.tsv", "w") as fh:
            for idx in edge_order:
                fh.write(f"{rows[idx]}\t{cols[idx]}\n")
    with open(directory / "meta.txt", "w") as fh:
        fh.write(f"m={ratings.m}\n")
        fh.write(f"n={ratings.n}\n")
        fh.write(f"N={ratings.N}\n")
        fh.write("p=" + ",".join(str(c) for c in ratings.counts) + "\n")


def load_dataset(directory) -> tuple[RatingsTimeline, TrustTimeline, dict[str, int], dict[str, int]]:
    """Read a dataset directory written by :func:`save_dataset`."""
    directory = Path(directory)
    meta_path = directory / "meta.txt"
    if not meta_path.exists():
        raise DataFormatError(f"{directory} has no meta.txt; not a dataset directory")
    meta: dict[str, str] = {}
    for line in meta_path.read_text().splitlines():
        if "=" in line:
            key, _, value = line.partition("=")
            meta[key.strip()] = value.strip()
    try:
        m, n, N = int(meta["m"]), int(meta["n"]), int(meta["N"])
        counts = [int(c) for c in meta["p"].split(",")] if meta.get("p") else []
    except (KeyError, ValueError) as exc:
        raise DataFormatError(f"{meta_path}: bad metadata ({exc})")

    def read_map(name):
        mapping: dict[str, int] = {}
        with open(directory / name, encoding="utf-8") as fh:
            for line in fh:
                line = line.rstrip("\n")
                if not line:
                    continue
                key, _, idx = line.rpartition("\t")
                mapping[key] = int(idx)
        return mapping

    user_map = read_map("users.map")
    item_map = read_map("items.map")

    def read_rows(path, width, dtype):
        if not path.stat().st_size:
            return np.empty((0, width), dtype=dtype)
        return np.loadtxt(path, delimiter="\t", dtype=dtype, ndmin=2)

    bins = []
    edges = []
    for t in range(N):
        path = directory / f"ratings_bin_{t}.tsv"
        data = read_rows(path, 3, np.float64)
        if counts and data.shape[0] != counts[t]:
            raise DataFormatError(f"{path}: has {data.shape[0]} rows, meta.txt says {counts[t]}")
        bins.append((data[:, 0].astype(np.int64), data[:, 1].astype(np.int64), data[:, 2]))
        pairs = read_rows(directory / f"trust_bin_{t}.tsv", 2, np.int64)
        edges.append((pairs[:, 0], pairs[:, 1]))
    return RatingsTimeline(m, n, bins), TrustTimeline.from_edges(m, edges), user_map, item_map
