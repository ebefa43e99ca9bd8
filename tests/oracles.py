"""Independent reference implementations used as test oracles.

Everything here deliberately avoids the library's code paths: brute-force
pair enumeration instead of friend-list lookups, BFS components instead of
hook-and-compress labels, a JSON parse of the cascade export instead of the
columnar store, the export dumped from one dict per cascade instead of
formatted from the store's arrays, ``json.loads`` on each input line instead
of the decoder's scanner, signature buckets from degrees counted edge by edge
in each cascade instead of the census's pass over a city's arrays, exact inverse-CDF
sampling against tabulated zeta mass, labeling and balancing row by row
instead of over index arrays, a from-first-principles feature
recomputation, the feature extractor one example at a time (bit-exact)
instead of one array pass per city, the Mann-Whitney pair count for AUC,
and a GBDT grower that argsorts every feature again at every node instead
of filtering presorted orders. The library's test-only helpers live here
too: the graph's per-user lookups (degree, neighbours, friendship) and edge
list, a one-shot feature extractor, the continuous power-law exponent and
staged GBDT scores.
"""

from __future__ import annotations

import datetime as dt
import json
import math
import statistics
from collections import Counter, deque
from typing import NamedTuple

import numpy as np
from scipy.special import zeta

from cascademine.features import (EXAMPLE_DTYPE, FALLBACK_STARS, FEATURE_NAMES, LABEL_LONG,
                                  LABEL_SHORT, N_FEATURES, FeatureExtractor)
from cascademine.ingest import EventKind
from cascademine.learner import MAX_LEAF_VALUE, GbdtModel, Tree, sigmoid
from cascademine.util import substream_seed
from conftest import as_store

BASE_DAY = dt.date(2012, 1, 1)


def day(offset: int) -> dt.date:
    return BASE_DAY + dt.timedelta(days=int(offset))


# ---------------------------------------------------------------------------
# brute-force cascade construction


def brute_force_business(first_date: dict[int, int], friend_pairs: set, window_days=None):
    """Edges and components for one business from every ordered user pair.

    ``first_date`` maps participant user id to the day number of their first
    event; ``friend_pairs`` is a set of frozensets {u, v}. Returns (edge set,
    set of frozenset node components with >= 2 members).
    """
    users = sorted(first_date)
    edges = set()
    for u in users:
        for v in users:
            if u == v or frozenset((u, v)) not in friend_pairs:
                continue
            du, dv = first_date[u], first_date[v]
            if du > dv:
                continue
            if window_days is not None and dv - du > window_days:
                continue
            edges.add((u, v))

    undirected = {}
    for u, v in edges:
        undirected.setdefault(u, set()).add(v)
        undirected.setdefault(v, set()).add(u)
    seen = set()
    components = set()
    for start in users:
        if start in seen or start not in undirected:
            continue
        queue = deque([start])
        comp = set()
        while queue:
            node = queue.popleft()
            if node in comp:
                continue
            comp.add(node)
            queue.extend(undirected[node] - comp)
        seen |= comp
        if len(comp) >= 2:
            components.add(frozenset(comp))
    return edges, components


def neighbors(graph, u: int) -> np.ndarray:
    """User ``u``'s friends in a SocialGraph, ascending; none for an unknown id."""
    if 0 <= u < graph.n_nodes:
        return graph.indices[graph.indptr[u]:graph.indptr[u + 1]]
    return graph.indices[:0]


def degree(graph, u: int) -> int:
    """User ``u``'s friend count; 0 for an unknown id."""
    return len(neighbors(graph, u))


def are_friends(graph, u: int, v: int) -> bool:
    """True iff the undirected edge (u, v) exists. Unknown ids are never friends."""
    if u == v or not 0 <= v < graph.n_nodes:
        return False
    nbrs = neighbors(graph, u)
    i = int(np.searchsorted(nbrs, v))
    return i < len(nbrs) and nbrs[i] == v


def graph_edges(graph) -> list[tuple[int, int]]:
    """All undirected edges of a SocialGraph as (u, v) with u < v, ascending."""
    return [(u, int(v)) for u in range(graph.n_nodes) for v in neighbors(graph, u) if u < v]


# ---------------------------------------------------------------------------
# cascade nodes as plain records: the columnar store's rows unpacked, and the
# JSONL export parsed


class Node(NamedTuple):
    """One review (kind 0) or tip (kind 1); ``stars`` is None when absent."""

    user_id: int
    business_id: int
    date: dt.date
    kind: int
    stars: int | None
    text_len: int
    votes: int


def event_node(e) -> Node:
    """The Node of one events-table row (fields ``user_id``, ``day``, ...)."""
    return Node(int(e["user_id"]), int(e["business_id"]), dt.date.fromordinal(int(e["day"])),
                int(e["kind"]), int(e["stars"]) or None, int(e["text_len"]), int(e["votes"]))


def cascade_events(cascade) -> tuple[Node, ...]:
    """A cascade's node rows as the Nodes they stand for (stars 0 is None)."""
    return tuple(Node(int(n["user"]), cascade.business_id, dt.date.fromordinal(int(n["day"])),
                      int(n["kind"]), int(n["stars"]) or None, int(n["text_len"]),
                      int(n["votes"])) for n in cascade.nodes)


def cascade_edges(cascade) -> tuple[tuple[int, int], ...]:
    """The edges as (src_user, dst_user) pairs."""
    users = cascade.nodes["user"].tolist()
    return tuple((users[u], users[v]) for u, v in cascade.edges.tolist())


def as_plain(cascades_by_city) -> dict:
    """{city: [(cascade_id, Nodes, edges), ...]}, the form read_cascades_jsonl returns."""
    return {city: [(c.cascade_id, cascade_events(c), cascade_edges(c)) for c in cascades]
            for city, cascades in cascades_by_city.items()}


def signature_key(n: int, edges) -> str:
    """The serialized census signature 'n|m|in,...|out,...' of a digraph on
    nodes 0..n-1, its in- and out-degrees counted edge by edge."""
    indeg, outdeg = [0] * n, [0] * n
    for u, v in edges:
        outdeg[u] += 1
        indeg[v] += 1
    return "|".join([str(n), str(len(edges)),
                     ",".join(map(str, sorted(indeg))), ",".join(map(str, sorted(outdeg)))])


def reference_buckets(cascades) -> list[tuple[str, list]]:
    """(serialized signature, members) buckets by the per-cascade path: each
    cascade's :func:`signature_key`, cascades in cascade_id order, buckets
    ranked by descending member count, then serialized signature."""
    buckets: dict[str, list] = {}
    for cascade in sorted(cascades, key=lambda c: c.cascade_id):
        buckets.setdefault(signature_key(cascade.size, cascade.edges.tolist()),
                           []).append(cascade)
    return sorted(buckets.items(), key=lambda item: (-len(item[1]), item[0]))


def cascade_jsonl(cascades_by_city) -> bytes:
    """The ``cascades.jsonl`` export of the stores built as dicts, one
    ``json.dumps`` per cascade: the cities with cascades, sorted."""
    lines = []
    for city in sorted(cascades_by_city):
        for cascade in cascades_by_city[city]:
            obj = {
                "cascade_id": list(cascade.cascade_id),
                "city": cascade.city,
                "business_id": cascade.business_id,
                "nodes": [
                    {"user": user, "date": dt.date.fromordinal(day).isoformat(),
                     "kind": ("review", "tip")[kind], "stars": stars or None,
                     "text_len": text_len, "votes": votes}
                    for user, day, kind, stars, text_len, votes in cascade.nodes.tolist()
                ],
                "edges": cascade.nodes["user"][cascade.edges].tolist(),
            }
            lines.append(json.dumps(obj, separators=(",", ":")) + "\n")
    return "".join(lines).encode("utf-8")


def read_json_lines(path, *id_fields: str) -> tuple[list, Counter]:
    """The objects and drop counters of ingest's line reader, by ``json.loads``
    on each stripped non-blank line: an object whose ``id_fields`` are strings
    is kept, any other line, and one that ``json.loads`` rejects, is malformed."""
    objs, counts = [], Counter()
    with open(path, encoding="utf-8", errors="replace") as fh:
        for line in fh:
            stripped = line.strip()
            if not stripped:
                continue
            counts["lines"] += 1
            try:
                obj = json.loads(stripped)
            except (ValueError, RecursionError):
                obj = None
            if isinstance(obj, dict) and all(isinstance(obj.get(f), str) for f in id_fields):
                objs.append(obj)
            else:
                counts["malformed"] += 1
    return objs, counts


def read_cascades_jsonl(path) -> dict:
    """Parse the ``cascades.jsonl`` export into the form of :func:`as_plain`."""
    kinds = {"review": 0, "tip": 1}
    out: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            obj = json.loads(line)
            city, business_id, index = obj["cascade_id"]
            assert (obj["city"], obj["business_id"]) == (city, business_id)
            nodes = tuple(Node(n["user"], business_id, dt.date.fromisoformat(n["date"]),
                               kinds[n["kind"]], n["stars"], n["text_len"], n["votes"])
                          for n in obj["nodes"])
            edges = tuple((u, v) for u, v in obj["edges"])
            out.setdefault(city, []).append(((city, business_id, index), nodes, edges))
    return out


# ---------------------------------------------------------------------------
# discrete power-law sampling (exact inverse CDF)


class DiscretePowerLawSampler:
    """Exact sampler for P(X = x) = x^-alpha / zeta(alpha, xmin), x >= xmin.

    The CDF is tabulated up to ``table_max``; the vanishing mass beyond the
    table is resolved per sample by bisection on the zeta-ratio CCDF.
    """

    def __init__(self, alpha: float, xmin: int, table_max: int = 1_000_000):
        self.alpha = float(alpha)
        self.xmin = int(xmin)
        self.norm = float(zeta(self.alpha, self.xmin))
        xs = np.arange(self.xmin, table_max + 1, dtype=np.float64)
        self.cdf = np.cumsum(xs ** (-self.alpha)) / self.norm
        self.table_max = table_max

    def _ccdf(self, x: int) -> float:
        return float(zeta(self.alpha, x)) / self.norm

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        u = rng.random(n)
        out = self.xmin + np.searchsorted(self.cdf, u, side="right")
        overflow = np.nonzero(out > self.table_max)[0]
        for i in overflow:
            # smallest x with CDF(x) >= u  <=>  largest x with CCDF(x) > 1 - u
            target = 1.0 - u[i]
            lo = self.table_max + 1
            hi = lo * 2
            while self._ccdf(hi) > target:
                lo, hi = hi, hi * 2
            while lo < hi:
                mid = (lo + hi + 1) // 2
                if self._ccdf(mid) > target:
                    lo = mid
                else:
                    hi = mid - 1
            out[i] = lo
        return out.astype(np.int64)


# ---------------------------------------------------------------------------
# rank statistics


def alpha_mle_approx(sizes, xmin: int) -> float:
    """Closed-form continuous approximation 1 + n / sum(log(x / (xmin - 0.5))),
    a cheap cross-check of the exact discrete MLE."""
    arr = np.asarray(sizes, dtype=np.float64)
    tail = arr[arr >= xmin]
    if tail.size == 0:
        raise ValueError("empty tail")
    return float(1.0 + tail.size / np.sum(np.log(tail / (xmin - 0.5))))


def percentile_by_counting(values, p: float):
    """Nearest-rank percentile computed by scanning value counts upward."""
    counts = Counter(values)
    need = math.ceil(p / 100.0 * len(values))
    running = 0
    for v in sorted(counts):
        running += counts[v]
        if running >= need:
            return v
    raise AssertionError("unreachable")


def reference_balance(cascades_by_city, k: int, percentile: float, min_big_cascades: int,
                      seed: int) -> dict[str, list[tuple[tuple, int]]]:
    """Labeling and balancing row by row, as (cascade_id, label) rows per
    included city: label each cascade of at least ``k`` nodes Long when it is
    larger than the counted percentile, sort the rows by cascade_id, split
    them into classes, draw the larger class's subset with ``rng.choice`` and
    return the Long rows, then the Short rows."""
    out = {}
    for city in sorted(cascades_by_city):
        cascades = list(cascades_by_city[city])
        if not cascades:
            continue
        threshold = percentile_by_counting([c.size for c in cascades], percentile)
        rows = sorted((c.cascade_id, LABEL_LONG if c.size > threshold else LABEL_SHORT)
                      for c in cascades if c.size >= k)
        longs = [r for r in rows if r[1] == LABEL_LONG]
        shorts = [r for r in rows if r[1] == LABEL_SHORT]
        if len(longs) < min_big_cascades or not shorts:
            continue
        n = min(len(longs), len(shorts))
        rng = np.random.default_rng(substream_seed(seed, "balance", city))
        if len(shorts) > n:
            shorts = [shorts[i] for i in sorted(rng.choice(len(shorts), size=n, replace=False))]
        elif len(longs) > n:
            longs = [longs[i] for i in sorted(rng.choice(len(longs), size=n, replace=False))]
        out[city] = longs + shorts
    return out


def mann_whitney_auc(scores, y) -> float:
    """AUC as the normalized Mann-Whitney U statistic with 0.5 tie credit."""
    scores = np.asarray(scores, dtype=np.float64)
    y = np.asarray(y)
    pos = scores[y == 1]
    neg = scores[y == 0]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return float((wins + 0.5 * ties) / (len(pos) * len(neg)))


def roc_by_walking(scores, y) -> list[tuple[float, float, float]]:
    """ROC points by walking the stable descending order one row at a time,
    emitting a point after each run of equal scores (threshold from the run's
    first row). Finite scores only: NaN never compares equal to itself."""
    scores = [float(s) for s in scores]
    y = [int(v) for v in y]
    n_pos, n_neg = y.count(1), y.count(0)
    order = sorted(range(len(scores)), key=lambda i: -scores[i])  # sorted is stable
    points = [(0.0, 0.0, float("inf"))]
    tp = fp = 0
    for pos, i in enumerate(order):
        tp += y[i] == 1
        fp += y[i] == 0
        if pos + 1 == len(order) or scores[order[pos + 1]] != scores[i]:
            start = pos
            while start > 0 and scores[order[start - 1]] == scores[i]:
                start -= 1
            points.append((fp / n_neg, tp / n_pos, scores[order[start]]))
    return points


# ---------------------------------------------------------------------------
# digraph enumeration


def all_digraphs(n: int):
    """Yield every labeled simple digraph on n nodes as a tuple of edges."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    for mask in range(1 << len(pairs)):
        yield tuple(pairs[i] for i in range(len(pairs)) if mask >> i & 1)


def realizable_cascade_graphs(n: int):
    """All connected digraphs on n labeled nodes that a cascade can realize.

    Generated from every date assignment and friendship set under the edge
    rule (earlier friend -> later friend, same-day friends reciprocal).
    Arbitrary digraphs such as a 3-cycle are NOT realizable: cyclic dates are
    impossible and same-day pairs always come with both directions. Returns
    (edges, dates) pairs, one per distinct edge set, with a witness date
    vector (day offsets per node).
    """
    import itertools

    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    seen = {}
    for dates in itertools.product(range(n), repeat=n):
        for mask in range(1 << len(pairs)):
            friends = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            edges = []
            for u, v in friends:
                if dates[u] < dates[v]:
                    edges.append((u, v))
                elif dates[v] < dates[u]:
                    edges.append((v, u))
                else:
                    edges.append((u, v))
                    edges.append((v, u))
            key = tuple(sorted(edges))
            if key and key not in seen and weakly_connected(n, key):
                seen[key] = dates
    return sorted(seen.items())


def weakly_connected(n: int, edges) -> bool:
    adj = {i: set() for i in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen = {0}
    queue = deque([0])
    while queue:
        node = queue.popleft()
        for nbr in adj[node]:
            if nbr not in seen:
                seen.add(nbr)
                queue.append(nbr)
    return len(seen) == n


# ---------------------------------------------------------------------------
# independent feature recomputation


def _lg(x: float) -> float:
    return math.log(1.0 + x)


def extract_features(cascade, k: int, profiles) -> np.ndarray:
    """One-shot FeatureExtractor for a single cascade."""
    return FeatureExtractor(profiles, k).extract(as_store([cascade], cascade.city), [0])[0]


class PerExampleExtractor:
    """The feature extractor as it was before it took a city's examples in one
    array pass: one :class:`Cascade` view per example, its prefix rows and table
    rows read as Python numbers (``tolist``), a ``degree`` and an
    ``are_friends`` search per node. Bit-exact: the array pass must give the
    same vectors and the same ``imputed`` counts."""

    def __init__(self, profiles, k: int):
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
                                        businesses["city"].tolist()) if not math.isnan(s)]
        stars = [s for s, c in rated if cities[c] == city] or [s for s, _ in rated]
        value = float(np.mean(stars)) if stars else FALLBACK_STARS
        self._city_stars[city] = value
        return value

    def _stars_or_city_mean(self, value, city: str, feature: str) -> float:
        if value is None or math.isnan(value):
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
        return review_count, None if math.isnan(avg) else avg, since or None, fans, elite

    def extract(self, cascade) -> np.ndarray:
        city = cascade.city
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
                      math.log1p(review_count), float(category_count), float(is_open))

        # root node block
        root_user = self._user(root)
        v[4] = math.log1p(degree(self.graph, root))
        if root_user is None:
            self.imputed.update(FEATURE_NAMES[5:10])
            v[5:10] = (0.0, self._city_mean_stars(city), 0.0, 0.0, 0.0)
        else:
            review_count, avg, since, fans, elite = root_user
            if since is None:
                self.imputed["root_account_age_days"] += 1
            v[5:10] = (math.log1p(review_count),
                       self._stars_or_city_mean(avg, city, "root_avg_stars"),
                       0.0 if since is None else float(max(days[0] - since, 0)),
                       math.log1p(fans), float(elite))

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
                rows.append((math.log1p(review_count), self._stars_or_city_mean(
                    avg, city, "nonroot_avg_stars_mean"), math.log1p(fans), float(elite)))
        review_counts, avg_stars, fans, elite = zip(*rows)
        degrees = [math.log1p(degree(self.graph, u)) for u in rest]
        v[10:18] = (np.mean(degrees), np.max(degrees), np.mean(review_counts),
                    np.max(review_counts), np.mean(avg_stars), np.mean(fans), np.mean(elite),
                    sum(are_friends(self.graph, root, u) for u in rest) / len(rest))

        # root event block
        v[18:23] = (self._stars_or_city_mean(stars[0], city, "root_stars"),
                    math.log1p(text_lens[0]), float(votes[0]), float(kinds[0] == EventKind.TIP),
                    float(dt.date.fromordinal(days[0]).weekday()))

        # non-root event block
        gaps = [float(b - a) for a, b in zip(days, days[1:])]
        v[23:30] = (np.mean([self._stars_or_city_mean(s, city, "nonroot_stars_mean")
                             for s in stars[1:]]),
                    np.mean([math.log1p(n) for n in text_lens[1:]]),
                    np.mean([float(n) for n in votes[1:]]),
                    sum(kind == EventKind.TIP for kind in kinds[1:]) / len(rest),
                    np.mean(gaps), np.max(gaps), float(days[-1] - days[0]))
        return v


def per_example_examples(cascades_by_city, balanced_by_city, k: int,
                         profiles) -> tuple[np.ndarray, Counter]:
    """``build_examples``' table, one :class:`PerExampleExtractor` vector and
    one row tuple per example, and that extractor's ``imputed`` counts."""
    extractor = PerExampleExtractor(profiles, k)
    rows = []
    for c, city in enumerate(sorted(balanced_by_city)):
        cascades = cascades_by_city[city]
        index, label = balanced_by_city[city]
        for j, y in sorted(zip(index.tolist(), label.tolist())):
            cascade = cascades[j]
            rows.append((c, *cascade.cascade_id[1:], y, extractor.extract(cascade)))
    return np.array(rows, EXAMPLE_DTYPE), extractor.imputed


def reference_features(cascade, k: int, profiles) -> dict[str, float]:
    """Straightforward per-cascade recomputation of every feature, written
    against the same tables but with its own ordering, lookup, and math."""
    nodes = sorted(cascade_events(cascade), key=lambda n: (n.date, n.user_id))[:k]
    root, others = nodes[0], nodes[1:]
    graph, users, businesses = profiles.graph, profiles.users, profiles.businesses
    out: dict[str, float] = {}

    def record(table, i):
        """Row i by field name, None outside the table or for an unlisted user."""
        if not 0 <= i < len(table) or ("listed" in table.dtype.names
                                       and not table["listed"][i]):
            return None
        return {name: table[name][i].item() for name in table.dtype.names}

    def avg_stars(rec):
        return None if rec is None or math.isnan(rec["average_stars"]) else rec["average_stars"]

    rated = [b for b in businesses if not math.isnan(b["stars"])]
    city_stars = [float(b["stars"]) for b in rated
                  if profiles.cities[b["city"]] == cascade.city]
    if not city_stars:
        city_stars = [float(b["stars"]) for b in rated] or [3.0]
    city_mean = statistics.fmean(city_stars)

    biz = record(businesses, cascade.business_id)
    out["biz_stars"] = city_mean if biz is None or math.isnan(biz["stars"]) else biz["stars"]
    out["biz_review_count_log1p"] = _lg(biz["review_count"]) if biz else 0.0
    out["biz_category_count"] = float(biz["category_count"]) if biz else 0.0
    out["biz_is_open"] = float(bool(biz and biz["is_open"]))

    nbrs_of = lambda u: set(int(x) for x in neighbors(graph, u))
    ru = record(users, root.user_id)
    out["root_degree_log1p"] = _lg(len(nbrs_of(root.user_id)))
    out["root_review_count_log1p"] = _lg(ru["review_count"]) if ru else 0.0
    out["root_avg_stars"] = avg_stars(ru) if avg_stars(ru) is not None else city_mean
    if ru and ru["yelping_since"] != 0:
        since = dt.date.fromordinal(ru["yelping_since"])
        out["root_account_age_days"] = float(max((root.date - since).days, 0))
    else:
        out["root_account_age_days"] = 0.0
    out["root_fans_log1p"] = _lg(ru["fans"]) if ru else 0.0
    out["root_elite_years"] = float(ru["elite_years"]) if ru else 0.0

    degs = [_lg(len(nbrs_of(n.user_id))) for n in others]
    rcs, avgs, fans, elites = [], [], [], []
    for n in others:
        rec = record(users, n.user_id)
        rcs.append(_lg(rec["review_count"]) if rec else 0.0)
        avgs.append(avg_stars(rec) if avg_stars(rec) is not None else city_mean)
        fans.append(_lg(rec["fans"]) if rec else 0.0)
        elites.append(float(rec["elite_years"]) if rec else 0.0)
    root_nbrs = nbrs_of(root.user_id)
    out["nonroot_degree_log1p_mean"] = statistics.fmean(degs)
    out["nonroot_degree_log1p_max"] = max(degs)
    out["nonroot_review_count_log1p_mean"] = statistics.fmean(rcs)
    out["nonroot_review_count_log1p_max"] = max(rcs)
    out["nonroot_avg_stars_mean"] = statistics.fmean(avgs)
    out["nonroot_fans_log1p_mean"] = statistics.fmean(fans)
    out["nonroot_elite_years_mean"] = statistics.fmean(elites)
    out["nonroot_friend_of_root_frac"] = (
        sum(1 for n in others if n.user_id in root_nbrs) / len(others))

    out["root_stars"] = float(root.stars) if root.stars is not None else city_mean
    out["root_text_len_log1p"] = _lg(root.text_len)
    out["root_votes_total"] = float(root.votes)
    out["root_is_tip"] = float(int(root.kind) == 1)
    out["root_event_weekday"] = float(root.date.weekday())

    out["nonroot_stars_mean"] = statistics.fmean(
        [float(n.stars) if n.stars is not None else city_mean for n in others])
    out["nonroot_text_len_log1p_mean"] = statistics.fmean([_lg(n.text_len) for n in others])
    out["nonroot_votes_mean"] = statistics.fmean([float(n.votes) for n in others])
    out["nonroot_tip_frac"] = sum(1 for n in others if int(n.kind) == 1) / len(others)
    gaps = [(nodes[i + 1].date - nodes[i].date).days for i in range(len(nodes) - 1)]
    out["event_gap_days_mean"] = statistics.fmean(gaps)
    out["event_gap_days_max"] = float(max(gaps))
    out["prefix_span_days"] = float((nodes[-1].date - nodes[0].date).days)
    return out


def _reference_best_split(Xn: np.ndarray, r: np.ndarray, min_leaf: int):
    """Per-node split search: argsort each feature column of the node's rows.

    Returns (gain, feature, threshold) or None, with the library's tie rule:
    first maximum within a feature, and a later feature replaces the best
    only if it gains more than 1e-15 more.
    """
    n = len(r)
    if n < 2 * min_leaf:
        return None
    total = r.sum()
    parent = total * total / n
    best = None
    for f in range(Xn.shape[1]):
        col = Xn[:, f]
        order = np.argsort(col, kind="stable")
        xs = col[order]
        cum = np.cumsum(r[order])
        sizes = np.arange(1, n)
        valid = (xs[1:] != xs[:-1]) & (sizes >= min_leaf) & (n - sizes >= min_leaf)
        if not valid.any():
            continue
        s_left = cum[:-1][valid]
        n_left = sizes[valid]
        gain = s_left * s_left / n_left + (total - s_left) ** 2 / (n - n_left) - parent
        j = int(np.argmax(gain))
        if gain[j] <= 1e-12:
            continue
        pos = np.nonzero(valid)[0][j]
        threshold = 0.5 * (xs[pos] + xs[pos + 1])
        candidate = (float(gain[j]), f, float(threshold))
        if best is None or candidate[0] > best[0] + 1e-15:
            best = candidate
    return best


def _reference_fit_tree(X: np.ndarray, r: np.ndarray, hess: np.ndarray, max_depth: int,
                        min_leaf: int) -> Tree:
    tree = Tree()

    def grow(idx: np.ndarray, depth: int) -> int:
        node = tree.add_node(depth)
        split = None
        if depth < max_depth:
            split = _reference_best_split(X[idx], r[idx], min_leaf)
        if split is None:
            num = r[idx].sum()
            den = max(hess[idx].sum(), 1e-12)
            tree.value[node] = float(np.clip(num / den, -MAX_LEAF_VALUE, MAX_LEAF_VALUE))
            return node
        gain, f, threshold = split
        go_left = X[idx, f] <= threshold
        tree.feature[node] = f
        tree.threshold[node] = threshold
        tree.gain[node] = gain
        tree.left[node] = grow(idx[go_left], depth + 1)
        tree.right[node] = grow(idx[~go_left], depth + 1)
        return node

    grow(np.arange(len(r)), 0)
    return tree


def reference_train_gbdt(X, y, n_trees: int = 100, max_depth: int = 3,
                         learning_rate: float = 0.1, min_leaf: int = 5) -> GbdtModel:
    """`learner.train_gbdt` with the per-node split search and `Tree.predict`
    updates; inputs are assumed valid."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    p0 = float(np.clip(y.mean(), 1e-6, 1.0 - 1e-6))
    base = float(np.log(p0 / (1.0 - p0)))
    raw = np.full(len(y), base)
    trees = []
    for _ in range(n_trees):
        p = sigmoid(raw)
        tree = _reference_fit_tree(X, y - p, p * (1.0 - p), max_depth, min_leaf)
        trees.append(tree)
        raw += learning_rate * tree.predict(X)
    return GbdtModel(trees, learning_rate, base)


def staged_raw_scores(model: GbdtModel, X):
    """Yield a GBDT's raw scores after 0, 1, ..., n_trees stages."""
    X = np.asarray(X, dtype=np.float64)
    raw = np.full(len(X), model.base_score)
    yield raw.copy()
    for tree in model.trees:
        raw += model.learning_rate * tree.predict(X)
        yield raw.copy()
