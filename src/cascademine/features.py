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
label) array pair per city, over its :class:`CityCascades`, and only
:func:`build_examples` makes views, of the cascades it extracts. The balanced
examples are one :data:`EXAMPLE_DTYPE` table, which ``features.pkl`` holds with
the city names its ``city`` column indexes; each city's rows are its ``X`` and ``y``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from datetime import date
from math import isnan, log1p
from typing import Mapping, Sequence

import numpy as np

from cascademine.cascades import Cascade, CityCascades
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


class FeatureExtractor:
    """Computes feature vectors against the read-only profile tables.

    Table values are read as Python numbers (``tolist``), so the arithmetic
    is that of the parsed input values. ``imputed`` counts every value that
    had to be filled in, keyed by the feature it fed, so gaps in the
    user/business tables reconcile exactly with what the matrix contains.
    """

    def __init__(self, profiles: Profiles, k: int = 5):
        if k < 2:
            raise ValueError("k must be at least 2")
        self.profiles = profiles
        self.graph = profiles.graph
        self.k = k
        self.imputed: Counter = Counter()
        self._city_stars: dict[str, float] = {}

    def _city_mean_stars(self, city: str) -> float:
        cached = self._city_stars.get(city)
        if cached is not None:
            return cached
        businesses, cities = self.profiles.businesses, self.profiles.cities
        rated = [(s, c) for s, c in zip(businesses["stars"].tolist(),
                                        businesses["city"].tolist()) if not isnan(s)]
        stars = [s for s, c in rated if cities[c] == city] or [s for s, _ in rated]
        value = float(np.mean(stars)) if stars else FALLBACK_STARS
        self._city_stars[city] = value
        return value

    def _stars_or_city_mean(self, value, city: str, feature: str) -> float:
        if value is None or isnan(value):
            self.imputed[feature] += 1
            return self._city_mean_stars(city)
        return float(value)

    def _user(self, u: int):
        """(review_count, average_stars, yelping_since ordinal, fans, elite_years)
        with None for an absent value, or None for a user the user file did not list."""
        table = self.profiles.users
        if not 0 <= u < len(table):
            return None
        listed, review_count, avg, since, fans, elite = table[u].tolist()
        if not listed:
            return None
        return review_count, None if isnan(avg) else avg, since or None, fans, elite

    def extract(self, cascade: Cascade) -> np.ndarray:
        if cascade.size < self.k:
            raise ValueError(
                f"cascade {cascade.cascade_id} has {cascade.size} nodes, needs >= {self.k}"
            )
        city = cascade.city
        # nodes are stored in (day, user) order, so the prefix is the first k
        # rows; the arithmetic below is on Python ints, not int32 scalars
        users, days, kinds, stars, text_lens, votes = zip(*cascade.nodes[: self.k].tolist())
        stars = [s or None for s in stars]  # 0 marks a node without stars
        root, rest = users[0], users[1:]

        v = np.empty(N_FEATURES, dtype=np.float64)

        # business block
        businesses = self.profiles.businesses
        if not 0 <= cascade.business_id < len(businesses):
            self.imputed.update(FEATURE_NAMES[0:4])
            v[0:4] = (self._city_mean_stars(city), 0.0, 0.0, 0.0)
        else:
            _, biz_stars, review_count, category_count, is_open = (
                businesses[cascade.business_id].tolist())
            v[0:4] = (self._stars_or_city_mean(biz_stars, city, "biz_stars"),
                      log1p(review_count), float(category_count), float(is_open))

        # root node block
        root_user = self._user(root)
        v[4] = log1p(self.graph.degree(root))
        if root_user is None:
            self.imputed.update(FEATURE_NAMES[5:10])
            v[5:10] = (0.0, self._city_mean_stars(city), 0.0, 0.0, 0.0)
        else:
            review_count, avg, since, fans, elite = root_user
            if since is None:
                self.imputed["root_account_age_days"] += 1
            v[5:10] = (log1p(review_count),
                       self._stars_or_city_mean(avg, city, "root_avg_stars"),
                       0.0 if since is None else float(max(days[0] - since, 0)),
                       log1p(fans), float(elite))

        # non-root node block (k >= 2 guarantees rest is nonempty)
        rows = []
        for u in rest:
            rec = self._user(u)
            if rec is None:
                self.imputed.update(("nonroot_review_count_log1p_mean", "nonroot_avg_stars_mean",
                                     "nonroot_fans_log1p_mean", "nonroot_elite_years_mean"))
                rows.append((0.0, self._city_mean_stars(city), 0.0, 0.0))
            else:
                review_count, avg, _, fans, elite = rec
                rows.append((log1p(review_count), self._stars_or_city_mean(
                    avg, city, "nonroot_avg_stars_mean"), log1p(fans), float(elite)))
        review_counts, avg_stars, fans, elite = zip(*rows)
        degrees = [log1p(self.graph.degree(u)) for u in rest]
        v[10:18] = (np.mean(degrees), np.max(degrees), np.mean(review_counts),
                    np.max(review_counts), np.mean(avg_stars), np.mean(fans), np.mean(elite),
                    sum(self.graph.are_friends(root, u) for u in rest) / len(rest))

        # root event block
        v[18:23] = (self._stars_or_city_mean(stars[0], city, "root_stars"), log1p(text_lens[0]),
                    float(votes[0]), float(kinds[0] == EventKind.TIP),
                    float(date.fromordinal(days[0]).weekday()))

        # non-root event block
        gaps = [float(b - a) for a, b in zip(days, days[1:])]
        v[23:30] = (np.mean([self._stars_or_city_mean(s, city, "nonroot_stars_mean")
                             for s in stars[1:]]),
                    np.mean([log1p(n) for n in text_lens[1:]]),
                    np.mean([float(n) for n in votes[1:]]),
                    sum(kind == EventKind.TIP for kind in kinds[1:]) / len(rest),
                    np.mean(gaps), np.max(gaps), float(days[-1] - days[0]))

        return v


def build_examples(cascades_by_city: Mapping[str, CityCascades],
                   balanced_by_city: Mapping[str, tuple[np.ndarray, np.ndarray]],
                   extractor: FeatureExtractor) -> np.ndarray:
    """The :data:`EXAMPLE_DTYPE` table of the balanced sets, in city and then
    cascade_id order; ``city`` indexes ``sorted(balanced_by_city)``."""
    rows = []
    for c, city in enumerate(sorted(balanced_by_city)):
        cascades = cascades_by_city[city]
        index, label = balanced_by_city[city]
        for j, y in sorted(zip(index.tolist(), label.tolist())):
            cascade = cascades[j]
            rows.append((c, *cascade.cascade_id[1:], y, extractor.extract(cascade)))
    return np.array(rows, EXAMPLE_DTYPE)


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
