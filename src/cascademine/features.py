"""Prefix features and long/short labels for cascade growth prediction.

A cascade is labeled Long when its size exceeds the city's nearest-rank
percentile threshold (default the 90th). Features are computed from the first
k nodes in (date, user) order only, never from anything later, grouped into
five blocks: business attributes, root-user attributes, non-root-user
aggregates, the root event, and non-root event aggregates. Count-like inputs
go through log1p before aggregation; star-valued gaps (a business or user
without a rating, a review without stars) are imputed with the mean star
rating of the city's rated businesses, everything else with zero, and every
imputed value increments a per-feature counter.

Labels travel as arrays: ``LabelingResult.labeled`` holds one (cascade index,
label) array pair per city, over its :class:`CityCascades`, and each city's
features are one array pass over its examples' prefix rows. The balanced
examples are one :data:`EXAMPLE_DTYPE` table, which ``features.pkl`` holds with
the city names its ``city`` column indexes; each city's rows are its ``X`` and ``y``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import log1p
from typing import Mapping, Sequence

import numpy as np

from cascademine.cascades import CityCascades
from cascademine.errors import DataError
from cascademine.ingest import EventKind, Profiles
from cascademine.util import ascending_names, load_cache, nearest_rank, save_cache, substream_seed

LABEL_SHORT = 0
LABEL_LONG = 1
LABEL_NAMES = {LABEL_SHORT: "short", LABEL_LONG: "long"}

FEATURE_NAMES: tuple[str, ...] = (
    # business
    "biz_stars",
    "biz_review_count_log1p",
    "biz_category_count",
    "biz_is_open",
    # root node
    "root_degree_log1p",
    "root_review_count_log1p",
    "root_avg_stars",
    "root_account_age_days",
    "root_fans_log1p",
    "root_elite_years",
    # non-root nodes
    "nonroot_degree_log1p_mean",
    "nonroot_degree_log1p_max",
    "nonroot_review_count_log1p_mean",
    "nonroot_review_count_log1p_max",
    "nonroot_avg_stars_mean",
    "nonroot_fans_log1p_mean",
    "nonroot_elite_years_mean",
    "nonroot_friend_of_root_frac",
    # root event
    "root_stars",
    "root_text_len_log1p",
    "root_votes_total",
    "root_is_tip",
    "root_event_weekday",
    # non-root events
    "nonroot_stars_mean",
    "nonroot_text_len_log1p_mean",
    "nonroot_votes_mean",
    "nonroot_tip_frac",
    "event_gap_days_mean",
    "event_gap_days_max",
    "prefix_span_days",
)

N_FEATURES = len(FEATURE_NAMES)
FALLBACK_STARS = 3.0  # midpoint of the 1..5 scale, used only with no businesses at all
# One balanced example per row; every integer is int64, so ``features`` is 8-byte aligned.
EXAMPLE_DTYPE = np.dtype([("city", np.int64), ("business", np.int64), ("component", np.int64),
                          ("label", np.int64), ("features", np.float64, (N_FEATURES,))])


@dataclass
class LabelingResult:
    labeled: dict[str, tuple[np.ndarray, np.ndarray]]  # included: (cascade index, label)
    thresholds: dict[str, int]  # percentile threshold per city (all cities)
    excluded: list[tuple[str, int]]  # (city, number of Long cascades found)


def label_cascades(cascades_by_city: Mapping[str, CityCascades], k: int,
                   percentile: float, min_big_cascades: int) -> LabelingResult:
    """Label eligible cascades (size >= k) Long when larger than the city's
    ``percentile`` size threshold; drop cities with fewer than
    ``min_big_cascades`` Long cascades, or no Short cascade to balance
    against, reporting them with their Long count instead."""
    labeled: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    thresholds: dict[str, int] = {}
    excluded: list[tuple[str, int]] = []
    for city in sorted(cascades_by_city):
        sizes = cascades_by_city[city].sizes
        if not len(sizes):
            excluded.append((city, 0))
            continue
        threshold = int(nearest_rank(np.sort(sizes).tolist(), percentile))
        thresholds[city] = threshold
        index = np.flatnonzero(sizes >= k)
        label = np.where(sizes[index] > threshold, LABEL_LONG, LABEL_SHORT)
        n_long = int((label == LABEL_LONG).sum())
        if n_long < min_big_cascades or n_long == len(index):
            excluded.append((city, n_long))
        else:
            labeled[city] = (index, label)
    return LabelingResult(labeled=labeled, thresholds=thresholds, excluded=excluded)


def balance(labeled_by_city: Mapping[str, tuple[np.ndarray, np.ndarray]],
            seed: int) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Downsample the majority class uniformly without replacement to the
    minority count per city; the minority class is kept whole. Each city's
    (cascade index, label) pair comes back Long cascades first, each class in
    index order. Deterministic given ``seed``, from which each city draws its
    own substream."""
    out: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for city in sorted(labeled_by_city):
        index, label = labeled_by_city[city]
        longs, shorts = (np.sort(index[label == y]) for y in (LABEL_LONG, LABEL_SHORT))
        n = min(len(longs), len(shorts))
        rng = np.random.default_rng(substream_seed(seed, "balance", city))
        if len(shorts) > n:
            shorts = shorts[np.sort(rng.choice(len(shorts), size=n, replace=False))]
        elif len(longs) > n:
            longs = longs[np.sort(rng.choice(len(longs), size=n, replace=False))]
        out[city] = (np.concatenate([longs, shorts]),
                     np.repeat([LABEL_LONG, LABEL_SHORT], [len(longs), len(shorts)]))
    return out


def _log1p(values: np.ndarray) -> np.ndarray:
    """``math.log1p`` of each value, as a float64 array of the same shape."""
    return np.array(list(map(log1p, values.ravel().tolist())), np.float64).reshape(values.shape)


def _rows(table: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``ids`` of ``table``, zero where an id falls outside it, and the
    mask of the ids inside it."""
    inside = (ids >= 0) & (ids < len(table))
    rows = np.zeros(ids.shape, table.dtype)
    rows[inside] = table[ids[inside]]
    return rows, inside


class FeatureExtractor:
    """Computes a city's feature vectors against the read-only profile tables,
    each feature one array operation over the (examples, k) prefix rows. Counts
    go through ``math.log1p`` value by value, since numpy's ``log1p`` can differ
    from it in the last bit; row means reduce each row's values in node order.
    ``imputed`` counts every value that had to be filled in, keyed by the
    feature it fed, so gaps in the user/business tables reconcile exactly with
    what the matrix contains; it holds no zero count."""

    def __init__(self, profiles: Profiles, k: int = 5):
        if k < 2:
            raise ValueError("k must be at least 2")
        self.profiles = profiles
        self.k = k
        self.imputed: Counter = Counter()

    def _city_mean_stars(self, city: str) -> float:
        """The mean stars of ``city``'s rated businesses, else of all rated
        businesses, else :data:`FALLBACK_STARS`."""
        businesses, cities = self.profiles.businesses, self.profiles.cities
        rated = ~np.isnan(businesses["stars"])
        here = rated & (businesses["city"] == (cities.index(city) if city in cities else -1))
        stars = businesses["stars"][here if here.any() else rated]
        return float(np.mean(stars)) if len(stars) else FALLBACK_STARS

    def extract(self, cascades: CityCascades, index) -> np.ndarray:
        """The ``(len(index), N_FEATURES)`` float64 feature block of cascades
        ``index`` of one city, each row from its cascade's first k nodes."""
        index, k = np.asarray(index, dtype=np.int64), self.k
        short = index[cascades.sizes[index] < k]
        if len(short):
            cascade = cascades[int(short[0])]
            raise ValueError(f"cascade {cascade.cascade_id} has {cascade.size} nodes, needs >= {k}")
        city_mean = self._city_mean_stars(cascades.city)
        # nodes are stored in (day, user) order, so each prefix is its first k rows
        nodes = cascades.nodes[cascades.node_offsets[index][:, None] + np.arange(k)]
        users, days = nodes["user"].astype(np.int64), nodes["day"].astype(np.int64)
        biz, known = _rows(self.profiles.businesses, cascades.business[index])
        rated = known & ~np.isnan(biz["stars"])
        user, _ = _rows(self.profiles.users, users)  # an unlisted user's row is zero
        listed = user["listed"]
        has_avg = listed & ~np.isnan(user["average_stars"])
        has_since = listed & (user["yelping_since"] != 0)
        avg_stars = np.where(has_avg, user["average_stars"], city_mean)
        review_counts, fans = (_log1p(np.where(listed, user[name], 0))
                               for name in ("review_count", "fans"))
        elite = np.where(listed, user["elite_years"], 0).astype(np.float64)
        indptr, n_users = self.profiles.graph.indptr, self.profiles.graph.n_nodes
        lo, hi = (indptr[np.clip(users + d, 0, n_users)] for d in (0, 1))  # 0 outside
        degrees = _log1p(hi - lo)
        # friend of root: one search of each (root, non-root) key row * n + col
        # among the root rows' keys, which ascend as rows and each row's columns do
        root, in_graph = users[:, :1], (users >= 0) & (users < n_users)
        rows = np.unique(root[in_graph[:, :1]])
        start, stop = (indptr[rows + d].astype(np.int64) for d in (0, 1))
        count = stop - start
        at = np.arange(count.sum()) + np.repeat(start - np.cumsum(count) + count, count)
        keys = np.append(np.repeat(rows, count) * n_users + self.profiles.graph.indices[at],
                         n_users * n_users)  # above every query, so each search ends on a key
        query = np.where(in_graph[:, :1] & in_graph[:, 1:], root * n_users + users[:, 1:], -1)
        friends = keys[np.searchsorted(keys, query)] == query  # -1 matches no key
        has_stars = nodes["stars"] != 0
        stars = np.where(has_stars, nodes["stars"], city_mean)
        text_lens, votes = _log1p(nodes["text_len"]), nodes["votes"].astype(np.float64)
        tips, gaps = nodes["kind"] == EventKind.TIP, np.diff(days, axis=1).astype(np.float64)

        # each mask marks the values filled in for the features it names
        for filled, features in (
                (~known, FEATURE_NAMES[0:4]), (known & ~rated, ["biz_stars"]),
                (~listed[:, 0], FEATURE_NAMES[5:10]),
                ((listed & ~has_avg)[:, 0], ["root_avg_stars"]),
                ((listed & ~has_since)[:, 0], ["root_account_age_days"]),
                (~listed[:, 1:], ["nonroot_review_count_log1p_mean", "nonroot_avg_stars_mean",
                                  "nonroot_fans_log1p_mean", "nonroot_elite_years_mean"]),
                ((listed & ~has_avg)[:, 1:], ["nonroot_avg_stars_mean"]),
                (~has_stars[:, 0], ["root_stars"]), (~has_stars[:, 1:], ["nonroot_stars_mean"])):
            if n_filled := int(np.count_nonzero(filled)):
                for feature in features:
                    self.imputed[feature] += n_filled

        rest = np.s_[:, 1:]  # the non-root nodes (k >= 2 guarantees one)
        return np.stack([
            # business block
            np.where(rated, biz["stars"], city_mean), _log1p(biz["review_count"]),
            biz["category_count"], biz["is_open"],
            # root node block
            degrees[:, 0], review_counts[:, 0], avg_stars[:, 0],
            np.where(has_since[:, 0], np.maximum(days[:, 0] - user["yelping_since"][:, 0], 0), 0),
            fans[:, 0], elite[:, 0],
            # non-root node block
            degrees[rest].mean(axis=1), degrees[rest].max(axis=1),
            review_counts[rest].mean(axis=1), review_counts[rest].max(axis=1),
            avg_stars[rest].mean(axis=1), fans[rest].mean(axis=1), elite[rest].mean(axis=1),
            friends.sum(axis=1) / (k - 1),
            # root event block; day 1 (0001-01-01) is a Monday
            stars[:, 0], text_lens[:, 0], votes[:, 0], tips[:, 0], (days[:, 0] + 6) % 7,
            # non-root event block
            stars[rest].mean(axis=1), text_lens[rest].mean(axis=1), votes[rest].mean(axis=1),
            tips[rest].sum(axis=1) / (k - 1), gaps.mean(axis=1), gaps.max(axis=1),
            days[:, -1] - days[:, 0],
        ], axis=1, dtype=np.float64)


def build_examples(cascades_by_city: Mapping[str, CityCascades],
                   balanced_by_city: Mapping[str, tuple[np.ndarray, np.ndarray]],
                   extractor: FeatureExtractor) -> np.ndarray:
    """The :data:`EXAMPLE_DTYPE` table of the balanced sets, in city and then
    cascade_id order; ``city`` indexes ``sorted(balanced_by_city)``. Each
    city's features come from one :meth:`FeatureExtractor.extract` call."""
    parts = [np.empty(0, EXAMPLE_DTYPE)]
    for c, city in enumerate(sorted(balanced_by_city)):
        cascades, (index, label) = cascades_by_city[city], balanced_by_city[city]
        order = np.lexsort((label, index))
        index, label = index[order], label[order]
        part = np.empty(len(index), EXAMPLE_DTYPE)
        part["city"], part["label"] = c, label
        part["business"], part["component"] = cascades.business[index], cascades.component[index]
        part["features"] = extractor.extract(cascades, index)
        parts.append(part)
    return np.concatenate(parts)


FEATURES_CACHE_FORMAT = "cascademine.features"
FEATURES_CACHE_VERSION = 3  # 2 held one (cascade id, vector, label) tuple per example


def save_examples(examples: np.ndarray, cities: Sequence[str], path) -> None:
    """Pickle the :data:`EXAMPLE_DTYPE` table ``examples`` with the names
    its ``city`` column indexes, for :func:`load_examples`."""
    save_cache(path, FEATURES_CACHE_FORMAT, FEATURES_CACHE_VERSION,
               feature_names=list(FEATURE_NAMES), cities=list(cities), examples=examples)


def load_examples(path) -> tuple[list[str], np.ndarray]:
    """The city names and the example table :func:`save_examples` wrote. A
    missing key, other feature names, cities that are not strictly ascending
    strings, a table that is not 1-D :data:`EXAMPLE_DTYPE` or a city index
    out of range raises DataError naming 'features'."""
    payload = load_cache(path, FEATURES_CACHE_FORMAT, FEATURES_CACHE_VERSION, "features")
    try:
        cities, table = payload["cities"], payload["examples"]
        if payload["feature_names"] != list(FEATURE_NAMES):
            raise ValueError("the feature names differ from this version's")
        if not ascending_names(cities):
            raise ValueError("the cities are not strictly ascending strings")
        if not isinstance(table, np.ndarray) or table.dtype != EXAMPLE_DTYPE or table.ndim != 1:
            raise ValueError("the examples are not a 1-D EXAMPLE_DTYPE table")
        if ((table["city"] < 0) | (table["city"] >= len(cities))).any():
            raise ValueError("a city index is out of range")
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"damaged features cache {path} ({exc!r}); "
                        "rerun 'features'") from exc
    return cities, table
