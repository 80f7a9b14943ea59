"""Parsing, filtering, time-binning, and splitting of rating and trust data.

Raw dumps are delimiter-separated text files with their fields in one fixed
order: user, item, value, date for ratings and user_a, user_b, date for
trust. The parsers return columnar tables: numpy structured arrays with one
record per row and one named field per column. Timestamps are integer days
since 1970-01-01 throughout. Binning assigns a record with timestamp tau to
bin ``#{cutoffs <= tau}``, so ``len(cutoffs) + 1`` bins cover the whole line.
Trust graphs are binary and cumulative: an undirected edge enters at the bin
of its earliest sighting and persists in every later bin.

The canonical on-disk dataset is a directory of three ``.npy`` arrays and
three text files (see :func:`save_dataset`), written deterministically so
that equal inputs give equal bytes. The older per-bin TSV layout is not read.
Every ``.npy`` file the package loads, dataset or checkpoint, is read by :func:`read_array`.
"""

from __future__ import annotations

import datetime
import logging
import math
from dataclasses import dataclass
from itertools import compress, islice, repeat
from pathlib import Path
from typing import Sequence

import numpy as np

from .domain import RatingsTimeline, TrustTimeline

logger = logging.getLogger(__name__)

_EPOCH = datetime.date(1970, 1, 1)

_RATING_SCHEMA = (
    ("user_id", str), ("item_id", str), ("value", np.float64), ("timestamp", np.int64)
)
_TRUST_SCHEMA = (("user_a", str), ("user_b", str), ("timestamp", np.int64))

# Lines the parsers read and convert at once: enough to make the per-block
# work negligible, few enough that one block's tokens take a few MB.
_BLOCK_LINES = 1 << 13


class DataFormatError(ValueError):
    """Raised when an input file cannot be used as data."""


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


def _read_table(path, delimiter: str, schema, date_format: str) -> np.ndarray:
    """Read a delimited file into a table with one record per well-formed row.

    A line is blank when ``not line.strip()``; blank lines are skipped but
    still numbered. Every other line is a row, and it is malformed when it
    has other than one field per ``schema`` entry, or when a field fails to
    convert by its column's dtype: str fields are taken as they are, float64
    fields through ``float`` and must be finite, and int64 fields are dates
    (:func:`_parse_date` with ``date_format``). The file is read
    ``_BLOCK_LINES`` lines at a time. Fields are counted per line with
    ``str.count``; the well-formed lines' tokens come from one join and one
    split per block, and each column is converted at once, so only one
    block's tokens are held. Each distinct date string is parsed once per
    file, and one that fails is not remembered, so every row carrying it is
    malformed.
    """
    if not delimiter:
        raise ValueError("empty separator")
    width = len(schema)
    # Each column starts empty of its kind, so a file with no rows still gives typed columns.
    pieces = [[np.empty(0, kind)] for _, kind in schema]
    days: dict[str, int] = {}
    malformed = total = lines_before = 0
    first_bad: list[int] = []
    with open(path, encoding="utf-8") as fh:
        while block := list(islice(fh, _BLOCK_LINES)):
            # Universal newlines leave one "\n" per line, at its end; a delimiter
            # holding "\n" can match there only once, too few for a row.
            counts = np.fromiter(map(str.count, block, repeat(delimiter)), dtype=np.int64, count=len(block))
            blank = np.fromiter(map(str.isspace, block), dtype=bool, count=len(block))
            shaped = (counts == width - 1) & ~blank
            good = block if shaped.all() else list(compress(block, shaped.tolist()))
            tokens = "".join(good).replace(delimiter, "\n").split("\n")
            columns = [tokens[j : width * len(good) : width] for j in range(width)]
            ok = np.ones(len(good), dtype=bool)
            for index, (_, kind) in enumerate(schema):
                if kind is np.float64:
                    columns[index] = _floats(columns[index])
                    ok &= np.isfinite(columns[index])
                elif kind is np.int64:
                    columns[index], parsed = _day_numbers(columns[index], days, date_format)
                    ok &= parsed
            keep = None if ok.all() else ok.tolist()
            for piece, column in zip(pieces, columns):
                if isinstance(column, list):
                    piece.append(np.array(column if keep is None else list(compress(column, keep)), dtype=str))
                else:
                    piece.append(column if keep is None else column[ok])
            rejected = ~blank
            total += int(rejected.sum())
            rejected[shaped] = ~ok
            bad = np.flatnonzero(rejected)
            malformed += bad.size
            first_bad += (lines_before + 1 + bad[: 5 - len(first_bad)]).tolist()
            lines_before += len(block)
    if total and malformed > total / 2:
        raise DataFormatError(
            f"{path}: {malformed} of {total} rows are malformed (first bad lines: {first_bad})"
        )
    if malformed:
        logger.warning(
            "%s: skipped %d malformed rows of %d (first bad lines: %s)", path, malformed, total, first_bad
        )
    arrays = [np.concatenate(piece) for piece in pieces]
    return np.rec.fromarrays(arrays, names=[name for name, _ in schema])


def _floats(tokens: list[str]) -> np.ndarray:
    """``float`` of each token, NaN where ``float`` rejects the token."""
    values: list[float] = []
    rest = iter(tokens)
    while True:
        try:
            values.extend(map(float, rest))
            return np.array(values, dtype=np.float64)
        except ValueError:
            values.append(math.nan)


def _day_numbers(tokens: list[str], days: dict[str, int], date_format: str) -> tuple[np.ndarray, np.ndarray]:
    """Day numbers of date tokens (0 where one fails) and the mask of those that parse.

    ``days`` caches the file's distinct tokens that parsed; one that fails
    is not added, so it is tried again in the next block that has it.
    """
    for token in set(tokens).difference(days):
        try:
            days[token] = _parse_date(token, date_format)
        except (ValueError, OverflowError):
            pass
    parsed = np.fromiter(map(days.__contains__, tokens), dtype=bool, count=len(tokens))
    return np.fromiter(map(days.get, tokens, repeat(0)), dtype=np.int64, count=len(tokens)), parsed


def parse_ratings(path, delimiter: str = "\t", date_format: str = "iso") -> np.ndarray:
    """Read ratings (user, item, value, date) from a delimited text file.

    ``date_format`` is "iso" for ISO dates, "days" for integer days since
    the epoch, or any strptime pattern. Returns a structured array with
    fields ``user_id``, ``item_id`` (str), ``value`` (float64) and
    ``timestamp`` (int64 days), one record per well-formed row in file
    order. Malformed rows are counted and logged; more than half malformed
    raises :class:`DataFormatError`.
    """
    return _read_table(path, delimiter, _RATING_SCHEMA, date_format)


def parse_trust(path, delimiter: str = "\t", date_format: str = "iso") -> np.ndarray:
    """Read trust edges (user_a, user_b, date) from a delimited text file.

    Returns a structured array with fields ``user_a``, ``user_b`` (str) and
    ``timestamp`` (int64 days), one record per well-formed row in file
    order. Self-loops are dropped, counted and logged; repeated and reversed
    pairs are kept, for :class:`~socialdmf.domain.TrustTimeline` to collapse
    into one edge at its earliest bin. ``delimiter``, ``date_format`` and
    malformed handling match :func:`parse_ratings`.
    """
    table = _read_table(path, delimiter, _TRUST_SCHEMA, date_format)
    loops = table["user_a"] == table["user_b"]
    if loops.any():
        logger.warning("%s: dropped %d self-loop edges", path, int(loops.sum()))
        table = table[~loops]
    return table


def _index_ids(ids: np.ndarray) -> tuple[dict[str, int], np.ndarray]:
    """Number the distinct ids in sorted order: the id -> index map and each row's index.

    Rows are sorted as integers, not strings: each id's code points, at the
    fewest bits that hold the largest, are packed several to a uint64 key,
    big end first, so comparing an id's keys in turn compares the id in
    code point order, as ``sorted`` does. Only the distinct ids become
    Python strings, for the one dict.
    """
    ids = np.asarray(ids, dtype=str)
    points = ids.view(np.dtype((np.uint32, (ids.dtype.itemsize // 4,))))  # (rows, width), no copy
    bits = max(int(points.max(initial=0)).bit_length(), 1)
    per_key = 64 // bits
    keys = []
    for start in range(0, points.shape[1], per_key):
        key = np.zeros(ids.size, dtype=np.uint64)
        for column in points[:, start : start + per_key].T:
            key <<= np.uint64(bits)
            key |= column
        keys.append(key)
    order = np.lexsort(keys[::-1])
    first = np.zeros(ids.size, dtype=bool)
    first[:1] = True
    while keys:
        key = keys.pop()[order]
        first[1:] |= key[1:] != key[:-1]
    ranks = np.cumsum(first)
    ranks -= 1
    codes = np.empty(ids.size, dtype=np.int64)
    codes[order] = ranks
    distinct = ids[order[first]].tolist()
    return dict(zip(distinct, range(len(distinct)))), codes


def filter_min_ratings(ratings: np.ndarray, threshold: int) -> np.ndarray:
    """Keep only users with strictly more than ``threshold`` ratings, in file order.

    Users are counted by their indices from :func:`_index_ids`.
    """
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    _, users = _index_ids(ratings["user_id"])
    return ratings[np.bincount(users)[users] > threshold]


def _latest_rows(keys: np.ndarray, timestamps: np.ndarray) -> np.ndarray:
    """Each key's latest row (by timestamp, then file position), in key order.

    Rows are put in (key, timestamp, position) order by a stable sort on
    timestamps and then a stable sort on keys; each key's winner ends its run.
    """
    order = np.argsort(timestamps, kind="stable")
    keys = keys[order]
    by_key = np.argsort(keys, kind="stable")
    keys = keys[by_key]
    last = np.ones(keys.size, dtype=bool)
    last[:-1] = keys[1:] != keys[:-1]
    return order[by_key[last]]


def bin_timelines(
    ratings: np.ndarray,
    edges: np.ndarray,
    cutoffs: Sequence[int],
) -> tuple[RatingsTimeline, TrustTimeline, dict[str, int], dict[str, int]]:
    """Bin ratings and trust edges into ``len(cutoffs) + 1`` time bins.

    ``ratings`` and ``edges`` are tables as returned by :func:`parse_ratings`
    and :func:`parse_trust`. Users and items are mapped to dense indices in
    lexicographic id order (code point order, as ``sorted`` gives) by
    :func:`_index_ids`, which sorts integer keys rather than strings.
    Within a bin, duplicate (user, item) pairs keep the latest rating, and
    later file order breaks timestamp ties. Each trust edge is created in
    the bin of its earliest date; edges touching users outside the
    (post-filter) rating universe are dropped.

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

    user_map, users = _index_ids(ratings["user_id"])
    item_map, items = _index_ids(ratings["item_id"])
    m, n = len(user_map), len(item_map)

    bins = np.searchsorted(cutoffs, ratings["timestamp"], side="right")
    order = _latest_rows((bins * m + users) * n + items, ratings["timestamp"])
    bins, users, items, values = bins[order], users[order], items[order], ratings["value"][order]
    bounds = np.searchsorted(bins, np.arange(N + 1))
    timeline = RatingsTimeline(
        m, n, [(users[a:b], items[a:b], values[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]
    )

    a, b = (
        np.fromiter(map(user_map.get, edges[end].tolist(), repeat(-1)), dtype=np.int64, count=len(edges))
        for end in ("user_a", "user_b")
    )
    inside = (a >= 0) & (b >= 0)
    if not inside.all():
        logger.warning(
            "dropped %d trust edges with endpoints outside the user universe", int((~inside).sum())
        )
    created = np.searchsorted(cutoffs, edges["timestamp"][inside], side="right")
    trust = TrustTimeline(m, N, a[inside], b[inside], created)
    return timeline, trust, user_map, item_map


@dataclass(frozen=True)
class SplitTimeline:
    """A per-bin train/test partition of one ratings timeline."""

    train: RatingsTimeline
    test: RatingsTimeline

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
        perm = rng.permutation(p)
        n_train = math.ceil(fraction * p)
        tr = np.sort(perm[:n_train])
        te = np.sort(perm[n_train:])
        train_bins.append((users[tr], items[tr], values[tr]))
        test_bins.append((users[te], items[te], values[te]))
    train = RatingsTimeline(timeline.m, timeline.n, train_bins)
    test = RatingsTimeline(timeline.m, timeline.n, test_bins)
    return SplitTimeline(train=train, test=test)


def merge_split(split: SplitTimeline) -> RatingsTimeline:
    """Recombine a split: each bin's halves concatenated, which the timeline puts in (user, item) order."""
    bins = [
        tuple(np.concatenate(halves) for halves in zip(split.train.bin(t), split.test.bin(t)))
        for t in range(split.train.N)
    ]
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

    Layout: ratings_index.npy (int64 (2, P): users, items; bins in time order,
    each in the timeline's (user, item) order), ratings_value.npy (float64
    (P,)), trust.npy (int64 (3, E): a < b, creation bin; each edge once,
    sorted by (created, a, b)), users.map, items.map (id, tab, index),
    meta.txt (m, n, N, counts p=).
    No other file in ``directory`` is touched, old per-bin TSV files included.
    """
    if ratings.N != trust.N or ratings.m != trust.m:
        raise ValueError("ratings and trust timelines disagree on (m, N)")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, mapping in (("users.map", user_map), ("items.map", item_map)):
        with open(directory / name, "w", encoding="utf-8") as fh:
            for key, idx in sorted(mapping.items(), key=lambda kv: kv[1]):
                fh.write(f"{key}\t{idx}\n")
    index = np.stack([np.concatenate(ratings.users), np.concatenate(ratings.items)])
    np.save(directory / "ratings_index.npy", index)
    np.save(directory / "ratings_value.npy", np.concatenate(ratings.values))
    np.save(directory / "trust.npy", np.stack([trust.rows, trust.cols, trust.created]))
    with open(directory / "meta.txt", "w") as fh:
        fh.write(f"m={ratings.m}\n")
        fh.write(f"n={ratings.n}\n")
        fh.write(f"N={ratings.N}\n")
        fh.write("p=" + ",".join(str(c) for c in ratings.counts) + "\n")


def read_array(path: Path, dtype, shape: tuple[int, ...]) -> np.ndarray:
    """Read a .npy array of exactly ``dtype`` and ``shape`` (-1: any length), never unpickling.

    Any other file raises :class:`DataFormatError` naming it.
    """
    with open(path, "rb") as fh:
        try:
            array = np.lib.format.read_array(fh, allow_pickle=False)
        except ValueError as exc:
            raise DataFormatError(f"{path}: {exc}") from exc
    wrong_shape = array.ndim != len(shape) or any(w not in (-1, a) for w, a in zip(shape, array.shape))
    if array.dtype != dtype or wrong_shape:
        raise DataFormatError(
            f"{path}: holds {array.dtype} of shape {array.shape}, expected {np.dtype(dtype)} of shape {shape}"
        )
    return array


def _read_map(path: Path, size: int) -> dict[str, int]:
    """Read an id map, which must send ``size`` distinct ids onto ``0..size-1``."""
    lines = [line.rpartition("\t") for line in path.read_text(encoding="utf-8").split("\n") if line]
    try:
        mapping = {key: int(idx) for key, _, idx in lines}
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
    if len(mapping) != len(lines) or sorted(mapping.values()) != list(range(size)):
        raise DataFormatError(f"{path}: does not map {size} distinct ids onto 0..{size - 1}")
    return mapping


def load_dataset(directory) -> tuple[RatingsTimeline, TrustTimeline, dict[str, int], dict[str, int]]:
    """Read a dataset directory written by :func:`save_dataset`.

    Arrays are read by :func:`read_array`; each bin's are views of the loaded
    ones, as :func:`save_dataset` writes every bin in (user, item) order. An
    edge listed again in trust.npy, in either order, keeps its earliest bin.
    A wrong dtype or shape, counts that disagree with meta.txt, an index out
    of range, a self-loop, a creation bin outside ``[0, N)``, a non-finite or
    repeated rating, a map not sending m (resp. n) distinct ids onto the
    indices, or a missing array (as in the old TSV layout) raises
    :class:`DataFormatError` naming its file.
    """
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
        counts = [int(c) for c in meta["p"].split(",")]
    except (KeyError, ValueError) as exc:
        raise DataFormatError(f"{meta_path}: bad metadata ({exc})")
    if len(counts) != N or min(counts) < 0 or min(m, n) < 1:
        raise DataFormatError(f"{meta_path}: p= lists {counts} for N={N} bins (m={m}, n={n})")
    user_map, item_map = _read_map(directory / "users.map", m), _read_map(directory / "items.map", n)
    index_path, values_path, trust_path = paths = [
        directory / name for name in ("ratings_index.npy", "ratings_value.npy", "trust.npy")
    ]
    for path in paths:
        if not path.exists():
            raise DataFormatError(f"{path} not found; TSV datasets are no longer read, re-run ingest or synth")
    index = read_array(index_path, np.int64, (2, sum(counts)))
    values = read_array(values_path, np.float64, (sum(counts),))
    edges = read_array(trust_path, np.int64, (3, -1))
    if not np.isfinite(values).all():
        raise DataFormatError(f"{values_path}: non-finite rating value")
    bounds = np.cumsum([0] + counts)
    bins = [(index[0, a:b], index[1, a:b], values[a:b]) for a, b in zip(bounds, bounds[1:])]
    try:
        ratings = RatingsTimeline(m, n, bins)
    except ValueError as exc:
        raise DataFormatError(f"{index_path}: {exc}") from exc
    try:
        trust = TrustTimeline(m, N, *edges)
    except ValueError as exc:
        raise DataFormatError(f"{trust_path}: {exc}") from exc
    return ratings, trust, user_map, item_map
