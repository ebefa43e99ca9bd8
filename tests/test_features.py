import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascademine.cascades import NODE_DTYPE, Cascade
from cascademine.cli import main
from cascademine.config import build_config
from cascademine.errors import ConfigError
from cascademine.features import (EXAMPLE_DTYPE, FEATURE_NAMES, N_FEATURES, FeatureExtractor,
                                  LABEL_LONG, LABEL_SHORT,
                                  balance, label_cascades, load_examples, save_examples,
                                  build_examples)
from cascademine.ingest import BUSINESS_DTYPE, USER_DTYPE, EventKind, Profiles
from conftest import (as_store, as_stores, day, edge_array, graph_from_edges, mk_cascade,
                      random_graph, small_stores, stored)
from oracles import extract_features, reference_balance, reference_features


def user(review_count=5, avg=3.8, since=-400, fans=2, elite=1):
    """A listed user's USER_DTYPE row; None is an absent value."""
    return (True, review_count, np.nan if avg is None else avg,
            0 if since is None else day(since).toordinal(), fans, elite)


def business(city="testville", stars=4.0, review_count=50, categories=3, is_open=True):
    """A business row, with its city by name."""
    return (city, stars, review_count, categories, is_open)


def profiles(users: dict, businesses: list, graph) -> Profiles:
    """Tables over ``graph``'s users, listing ``users`` ({id: user(...)}), and
    over ``businesses`` (business ``b`` is ``businesses[b]``)."""
    user_table = np.zeros(graph.n_nodes, USER_DTYPE)
    user_table["average_stars"] = np.nan
    for uid, row in users.items():
        user_table[uid] = row
    cities = sorted({row[0] for row in businesses})
    business_table = np.array([(cities.index(city), *rest) for city, *rest in businesses],
                              BUSINESS_DTYPE)
    return Profiles(user_table, business_table, cities, graph)


def cascade_of_size(n, index=0, business_id=0):
    nodes = [(i, i) for i in range(n)]
    edges = [(i, i + 1) for i in range(n - 1)]
    return mk_cascade(nodes, edges, index=index, business=business_id)


class TestConfig:
    def test_defaults_valid(self):
        cfg = build_config()
        assert cfg.k == 5 and cfg.percentile == 90.0 and cfg.min_big_cascades == 50

    @pytest.mark.parametrize("kwargs", [
        {"k": 1}, {"percentile": 50.0}, {"percentile": 100.0}, {"min_big_cascades": 0},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            build_config(None, kwargs)


def labeled_sizes(store, pair):
    """(size, label) of each labeled cascade of ``store``."""
    index, label = pair
    return list(zip(store.sizes[index].tolist(), label.tolist()))


class TestLabeling:
    def test_threshold_and_eligibility(self):
        sizes = [2] * 5 + [3] * 3 + [5, 20]
        store = as_store([cascade_of_size(s, i) for i, s in enumerate(sizes)])
        res = label_cascades({"t": store}, 5, 90.0, 1)
        assert res.thresholds["t"] == 5  # nearest rank: ceil(0.9*10)=9th of sorted
        # only the size-5 and size-20 cascades are >= k=5; only 20 exceeds 5
        assert labeled_sizes(store, res.labeled["t"]) == [(5, LABEL_SHORT), (20, LABEL_LONG)]

    def test_city_below_floor_excluded(self):
        # threshold = 25th of 27 sorted sizes = 2, so the two 9s are Long
        cascades = [cascade_of_size(2, i) for i in range(25)] + [
            cascade_of_size(9, 25), cascade_of_size(9, 26)]
        res = label_cascades({"smalltown": as_store(cascades)}, 2, 90.0, 50)
        assert res.labeled == {}
        assert res.excluded == [("smalltown", 2)]

    def test_city_without_shorts_excluded(self):
        # threshold = 2, so every cascade with at least k=5 nodes is Long
        cascades = [cascade_of_size(2, i) for i in range(30)] + [
            cascade_of_size(6, 30 + i) for i in range(3)]
        res = label_cascades({"t": as_store(cascades)}, 5, 90.0, 1)
        assert res.thresholds["t"] == 2
        assert res.labeled == {}
        assert res.excluded == [("t", 3)]

    def test_planted_quantile_fraction(self, rng):
        sizes = rng.integers(2, 100, size=2000)
        cascades = [cascade_of_size(int(s), i) for i, s in enumerate(sizes)]
        res = label_cascades({"t": as_store(cascades)}, 2, 90.0, 1)
        _, label = res.labeled["t"]
        frac = float(np.mean(label == LABEL_LONG))
        assert 0.05 <= frac <= 0.15

    def test_label_definition_strictly_greater(self):
        store = as_store([cascade_of_size(s, i) for i, s in enumerate([2, 2, 3, 3, 8])])
        res = label_cascades({"t": store}, 2, 60.0, 1)
        threshold = res.thresholds["t"]
        assert threshold == 3
        rows = labeled_sizes(store, res.labeled["t"])
        for size, label in rows:
            assert (size > threshold) == (label == LABEL_LONG)
        assert sum(label == LABEL_LONG for _, label in rows) == 1


class TestBalance:
    def make_labeled(self, n_long, n_short):
        """Cascades 0..n_long-1 Long, the next n_short Short."""
        return {"t": (np.arange(n_long + n_short),
                      np.repeat([LABEL_LONG, LABEL_SHORT], [n_long, n_short]))}

    def test_downsamples_shorts(self):
        _, label = balance(self.make_labeled(30, 400), 0)["t"]
        assert (label == LABEL_LONG).sum() == 30
        assert (label == LABEL_SHORT).sum() == 30

    def test_same_seed_same_sample(self):
        labeled = self.make_labeled(10, 100)
        ids1 = balance(labeled, 42)["t"][0].tolist()
        ids2 = balance(labeled, 42)["t"][0].tolist()
        assert ids1 == ids2

    def test_different_seed_usually_differs(self):
        labeled = self.make_labeled(10, 200)
        ids = {tuple(balance(labeled, s)["t"][0].tolist()) for s in range(5)}
        assert len(ids) > 1

    def test_selection_frequency_uniform(self):
        n_long, n_short, n_seeds = 30, 400, 200
        labeled = self.make_labeled(n_long, n_short)
        counts = np.zeros(n_short)
        for seed in range(n_seeds):
            index, label = balance(labeled, seed)["t"]
            counts[index[label == LABEL_SHORT] - n_long] += 1
        expected = n_seeds * n_long / n_short  # 15
        assert abs(counts.mean() - expected) < 1e-9  # exactly n_long picks per seed
        assert counts.std() < 4 * np.sqrt(expected)  # loose uniformity bound

    def test_long_majority_downsampled_uniformly(self):
        n_long, n_short, n_seeds = 400, 30, 200
        labeled = self.make_labeled(n_long, n_short)
        counts = np.zeros(n_long)
        for seed in range(n_seeds):
            index, label = balance(labeled, seed)["t"]
            assert (label == LABEL_SHORT).sum() == n_short
            counts[index[label == LABEL_LONG]] += 1
        expected = n_seeds * n_short / n_long  # 15
        assert abs(counts.mean() - expected) < 1e-9  # exactly n_short picks per seed
        assert counts.std() < 4 * np.sqrt(expected)  # not the lowest ids every time


class CountingExtractor(FeatureExtractor):
    calls = 0

    def extract(self, cascade):
        self.calls += 1
        return super().extract(cascade)


@settings(max_examples=60, deadline=None)
@given(small_stores(), st.integers(0, 2 ** 32 - 1))
def test_labels_and_balance_match_per_row_path(by_city, shuffle_seed):
    """label_cascades -> balance -> build_examples pick the cascade ids and
    labels of the row-by-row oracle, in its order, whatever order balance
    gets its pairs in."""
    shuffle = np.random.default_rng(shuffle_seed)
    extractor = CountingExtractor(profiles({}, [business()], graph_from_edges([], 1)), 2)
    for stores in (as_stores(by_city), stored(by_city)):
        for k, percentile, seed in itertools.product((2, 3), (50.0, 90.0), range(3)):
            want = reference_balance(by_city, k, percentile, 1, seed)
            labeled = label_cascades(stores, k, percentile, 1).labeled
            assert sorted(labeled) == sorted(want)
            shuffled = {}
            for city, (index, label) in labeled.items():
                order = shuffle.permutation(len(index))
                shuffled[city] = (index[order], label[order])
            for pairs in (labeled, shuffled):
                balanced = balance(pairs, seed)
                assert {city: [(stores[city][j].cascade_id, y) for j, y in
                               zip(index.tolist(), label.tolist())]
                        for city, (index, label) in balanced.items()} == want
            extractor.calls = 0
            examples = build_examples(stores, balanced, extractor)
            cities = sorted(balanced)
            assert [((cities[c], b, j), y) for c, b, j, y, _ in examples.tolist()] == [
                row for city in sorted(want) for row in sorted(want[city])]
            assert extractor.calls == len(examples)


def small_world():
    users = {0: user(), 1: user(), 2: user(), 3: user(avg=None, since=None)}
    businesses = [business(), business(stars=2.0)]
    return profiles(users, businesses, graph_from_edges([(0, 1), (0, 2)], 5))


class TestExtract:
    def test_two_node_example(self):
        tables = small_world()
        cascade = mk_cascade(
            [(0, 1, EventKind.REVIEW, 4, 100, 2), (1, 4, EventKind.TIP, None, 30, 0)],
            [(0, 1)])
        vec = extract_features(cascade, 2, tables)
        named = dict(zip(FEATURE_NAMES, vec))
        assert named["root_stars"] == 4.0
        assert named["root_is_tip"] == 0.0
        assert named["root_votes_total"] == 2.0
        assert named["event_gap_days_mean"] == 3.0
        assert named["event_gap_days_max"] == 3.0
        assert named["prefix_span_days"] == 3.0
        assert named["nonroot_tip_frac"] == 1.0
        assert named["nonroot_friend_of_root_frac"] == 1.0
        assert named["root_event_weekday"] == float(day(1).weekday())
        assert named["biz_stars"] == 4.0

    def test_friendless_root_degree_zero(self):
        tables = small_world()
        cascade = mk_cascade([(3, 0), (4, 1)], [(3, 4)])
        vec = extract_features(cascade, 2, tables)
        named = dict(zip(FEATURE_NAMES, vec))
        assert named["root_degree_log1p"] == 0.0

    def test_requires_prefix(self):
        tables = small_world()
        cascade = mk_cascade([(0, 0), (1, 1)], [(0, 1)])
        with pytest.raises(ValueError):
            extract_features(cascade, 3, tables)

    def test_imputation_counted_and_finite(self):
        tables = small_world()
        # user 3 has no avg_stars/since; user 4 unknown; business 9 unknown
        cascade = mk_cascade([(3, 0), (4, 2)], [(3, 4)], business=9)
        extractor = FeatureExtractor(tables, k=2)
        vec = extractor.extract(cascade)
        assert np.all(np.isfinite(vec))
        assert extractor.imputed["root_avg_stars"] == 1
        assert extractor.imputed["root_account_age_days"] == 1
        assert extractor.imputed["biz_stars"] == 1
        assert extractor.imputed["nonroot_avg_stars_mean"] == 1

    def test_unrated_business_imputed_with_rated_city_mean(self):
        businesses = [business(stars=np.nan), business(stars=2.0), business(stars=5.0),
                      business(stars=np.nan), business(city="elsewhere", stars=1.0)]
        tables = profiles({0: user(), 1: user()}, businesses, graph_from_edges([(0, 1)], 2))
        extractor = FeatureExtractor(tables, k=2)
        vec = extractor.extract(mk_cascade([(0, 0), (1, 1, EventKind.TIP)], [(0, 1)]))
        named = dict(zip(FEATURE_NAMES, vec))
        assert named["biz_stars"] == 3.5  # testville's rated businesses only
        assert named["nonroot_stars_mean"] == 3.5
        assert extractor.imputed["biz_stars"] == 1
        assert np.all(np.isfinite(vec))

    def test_deterministic_bitwise(self, rng):
        tables, cascades = random_world(rng, 40)
        extractor = FeatureExtractor(tables, k=3)
        for cascade in cascades:
            if cascade.size < 3:
                continue
            v1 = extractor.extract(cascade)
            v2 = extractor.extract(cascade)
            assert v1.tobytes() == v2.tobytes()

    def test_matches_reference_implementation(self, rng):
        tables, cascades = random_world(rng, 120)
        extractor = FeatureExtractor(tables, k=4)
        checked = 0
        for cascade in cascades:
            if cascade.size < 4:
                continue
            vec = extractor.extract(cascade)
            ref = reference_features(cascade, 4, tables)
            for name, value in zip(FEATURE_NAMES, vec):
                assert abs(value - ref[name]) < 1e-9, name
            checked += 1
        assert checked >= 30

    def test_no_leakage_under_mutation(self, rng):
        tables, cascades = random_world(rng, 60)
        k = 3
        extractor = FeatureExtractor(tables, k=k)
        checked = 0
        for cascade in cascades:
            if cascade.size < k + 1:
                continue
            base = extractor.extract(cascade)
            for mutant in mutate_beyond_prefix(cascade, k, rng):
                assert extractor.extract(mutant).tobytes() == base.tobytes()
            checked += 1
        assert checked >= 10


def random_world(rng, n_cascades):
    """Random attribute tables plus synthetic cascades over them."""
    n_users = 60
    users = {}
    for u in range(n_users):
        if rng.random() < 0.15:
            continue  # missing record
        users[u] = user(
            review_count=int(rng.integers(0, 300)),
            avg=None if rng.random() < 0.2 else float(np.round(rng.uniform(1, 5), 2)),
            since=None if rng.random() < 0.1 else -int(rng.integers(100, 2000)),
            fans=int(rng.integers(0, 50)),
            elite=int(rng.integers(0, 5)),
        )
    # businesses 8 and 9 have no record
    businesses = [business(city="testville", stars=float(rng.integers(2, 11)) / 2.0,
                           review_count=int(rng.integers(0, 500)),
                           categories=int(rng.integers(0, 6)), is_open=bool(rng.random() < 0.8))
                  for _ in range(8)]
    businesses[0] = business(stars=np.nan)  # unrated
    graph = random_graph(rng, n_users, 0.08)

    cascades = []
    for i in range(n_cascades):
        n = int(rng.integers(2, 9))
        members = list(rng.choice(n_users, size=n, replace=False))
        specs = []
        for u in members:
            kind = EventKind.REVIEW if rng.random() < 0.7 else EventKind.TIP
            stars = int(rng.integers(1, 6)) if kind is EventKind.REVIEW else None
            specs.append((int(u), int(rng.integers(0, 30)), kind, stars,
                          int(rng.integers(1, 300)), int(rng.integers(0, 6))))
        ordered = sorted(specs, key=lambda s: (s[1], s[0]))
        edges = [(ordered[j][0], ordered[j + 1][0]) for j in range(len(ordered) - 1)]
        cascades.append(mk_cascade(specs, edges, business=int(rng.integers(0, 10)),
                                   index=i))
    return profiles(users, businesses, graph), cascades


def mutate_beyond_prefix(cascade, k, rng):
    """Mutations that only touch nodes after position k or later edges."""
    nodes = cascade.nodes  # NODE_DTYPE rows in (day, user) order
    prefix, suffix = nodes[:k], nodes[k:]
    last_day = int(nodes["day"].max())
    big_user = 10_000 + int(rng.integers(0, 1000))

    # 1: change payloads and push dates later on suffix nodes
    mutated = suffix.copy()
    mutated["day"] += 3
    mutated["kind"] = EventKind.TIP
    mutated["stars"] = 0
    mutated["text_len"] += 7
    mutated["votes"] += 5
    yield Cascade(cascade.cascade_id, np.concatenate([prefix, mutated]), cascade.edges)

    # 2: append brand-new later nodes and edges among them
    n = len(nodes)
    extra = np.array([(big_user + j, last_day + j + 1, EventKind.REVIEW, 5, 10, 0)
                      for j in range(3)], NODE_DTYPE)
    new_edges = np.concatenate([cascade.edges, edge_array([(n, n + 1), (n + 1, n + 2)])])
    yield Cascade(cascade.cascade_id, np.concatenate([nodes, extra]), new_edges)

    # 3: relabel a suffix node's user id upward (stays after the prefix); the
    # edges, positions in the nodes, stay as they are
    if len(suffix):
        relabeled = nodes.copy()
        relabeled["user"][k] = big_user
        yield Cascade(cascade.cascade_id, relabeled, cascade.edges)


class TestIO:
    def test_examples_round_trip(self, tmp_path, rng):
        tables, cascades = random_world(rng, 30)
        extractor = FeatureExtractor(tables, k=2)
        store = as_store(cascades)
        index = np.arange(len(store))
        examples = build_examples({"testville": store}, {"testville": (index, index % 2)},
                                  extractor)
        assert examples.dtype == EXAMPLE_DTYPE and len(examples) == len(store)
        for j, (row, cascade) in enumerate(zip(examples.tolist(), store)):
            assert row[:4] == (0, *cascade.cascade_id[1:], j % 2)
            assert np.array_equal(row[4], extractor.extract(cascade))
        path = tmp_path / "features.pkl"
        save_examples(examples, ["testville"], path)
        cities, loaded = load_examples(path)
        assert cities == ["testville"]
        assert loaded.dtype == EXAMPLE_DTYPE and loaded.tobytes() == examples.tobytes()

    def test_csv_header_names_all_features(self, tmp_path):
        data, cache = tmp_path / "data", tmp_path / "cache"
        assert main(["synth", "--out-dir", str(data), "--users", "250",
                     "--businesses", "150", "--events", "3500", "--friend-prob", "0.02",
                     "--influence-prob", "0.12", "--cities", "1", "--seed", "7"]) == 0
        args = ["--business", str(data / "business.json"), "--user", str(data / "user.json"),
                "--review", str(data / "review.json"), "--tip", str(data / "tip.json"),
                "--cache-dir", str(cache), "--k", "2", "--min-big-cascades", "3"]
        for stage in ("ingest", "build-cascades", "features"):
            assert main([stage, *args]) == 0
        lines = (cache / "features.csv").read_text(encoding="utf-8").splitlines()
        header = lines[0].split(",")
        assert header[:3] == ["cascade_id", "city", "label"]
        assert tuple(header[3:]) == FEATURE_NAMES
        assert len(header) == 3 + N_FEATURES
        assert len(lines) > 1
        assert all(len(line.split(",")) == len(header) for line in lines[1:])
