"""Per-business influence graphs and their connected components (cascades).

For one business, each user is collapsed to their first event there. A
directed edge u->v exists when u and v are friends and u acted strictly
earlier (optionally within ``window_days``); two friends acting on the same
day get the reciprocal pair u->v and v->u. Cascades are the weakly connected
components with at least two nodes; users whose activity links to no friend
are discarded. Within a business, cascades are indexed by their earliest
(date, user) node.

A cascade's nodes are :data:`NODE_DTYPE` rows, each user's first event at the
business (the :data:`~cascademine.ingest.EVENT_DTYPE` fields but the business:
``day`` is the date's ordinal, ``stars`` 0 means none), ordered by (date, user
id); its edges are an ``(m, 2)`` int32 array of (src, dst) positions in those
nodes, ordered by (src user, dst user). A city's cascades are one
:class:`CityCascades`: its node and edge arrays, per-cascade offsets into
them, business and component index, in cascade_id order. Indexing or
iterating it makes a :class:`Cascade` view on access. Every analysis function
takes CityCascades and computes from their arrays (sizes are offset
differences), so no stage builds an object per cascade: ``purity`` and
``export-dot`` make views only of the cascades they check or draw.
``build-cascades`` writes the store ``cascades.npz`` (:func:`save_cascades`):
every city's arrays one after another, with per-city offsets and names.
:func:`read_cascades` loads and checks it once and gives each city its slices
of it. The export ``cascades.jsonl`` (:func:`write_cascades`), read by no
stage, has one cascade per line, its edges as user ids. Each line is
formatted straight from the store's arrays, a cascade at a time, with the
bytes that ``json.dumps`` with compact separators would give:

  {"cascade_id": [city, business_id, index], "city": ..., "business_id": ...,
   "nodes": [{"user": u, "date": "YYYY-MM-DD", "kind": "review"|"tip",
              "stars": 4|null, "text_len": n, "votes": n}, ...],
   "edges": [[src, dst], ...]}

Both list cascades in cascade_id order and leave out cities without any, and
both are byte-stable for fixed inputs.
"""

from __future__ import annotations

import datetime as dt
import json
from dataclasses import dataclass
from collections.abc import Iterator, Mapping

import numpy as np

from cascademine.errors import DataError
from cascademine.ingest import KIND_NAMES
from cascademine.social import SocialGraph
from cascademine.util import load_arrays, nearest_rank, save_arrays

CascadeId = tuple[str, int, int]
NODE_DTYPE = np.dtype([("user", np.int32), ("day", np.int32), ("kind", np.int8),
                       ("stars", np.int8), ("text_len", np.int32), ("votes", np.int32)])
STORE_FORMAT = "cascademine.cascades"
STORE_VERSION = 2  # 1 kept edges as user ids
# Friend lookups per array step. A hub's friend list is looked up at every business it
# acts at; pipebench's heavy_tail data makes 1.8 M lookups, 59 MB more RSS in one step.
LOOKUP_CHUNK = 1 << 16


@dataclass(frozen=True, slots=True, eq=False)
class Cascade:
    cascade_id: CascadeId  # (city, business_id, component index)
    nodes: np.ndarray  # NODE_DTYPE rows: each user's first event, sorted by (day, user)
    edges: np.ndarray  # (m, 2) int32 (src, dst) positions in nodes, by (src user, dst user)

    @property
    def city(self) -> str:
        return self.cascade_id[0]

    @property
    def business_id(self) -> int:
        return self.cascade_id[1]

    @property
    def size(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True, slots=True)
class SummaryRow:
    city: str
    cascade_count: int
    p50_size: int
    p90_size: int
    max_size: int


@dataclass(frozen=True, slots=True, eq=False)
class CityCascades:
    """One city's cascades in cascade_id order, as the store holds them and every
    analysis function takes them. Indexing or iterating makes a :class:`Cascade`
    view on access."""

    city: str
    nodes: np.ndarray  # NODE_DTYPE: cascade j's are rows node_offsets[j]..node_offsets[j + 1]
    edges: np.ndarray  # (m, 2) int32: cascade j's are rows edge_offsets[j]..edge_offsets[j + 1]
    node_offsets: np.ndarray  # from 0 to len(nodes)
    edge_offsets: np.ndarray  # from 0 to len(edges)
    business: np.ndarray  # cascade j's id is (city, business[j], component[j])
    component: np.ndarray

    @property
    def sizes(self) -> np.ndarray:
        return np.diff(self.node_offsets)

    def __len__(self) -> int:
        return len(self.business)

    def __getitem__(self, j: int) -> Cascade:
        j = range(len(self))[j]  # IndexError past either end
        (n0, n1), (e0, e1) = self.node_offsets[j:j + 2], self.edge_offsets[j:j + 2]
        return Cascade((self.city, int(self.business[j]), int(self.component[j])),
                       self.nodes[n0:n1], self.edges[e0:e1])

    def __iter__(self) -> Iterator[Cascade]:
        node_at, edge_at = self.node_offsets.tolist(), self.edge_offsets.tolist()
        for j, (b, c) in enumerate(zip(self.business.tolist(), self.component.tolist())):
            yield Cascade((self.city, b, c), self.nodes[node_at[j]:node_at[j + 1]],
                          self.edges[edge_at[j]:edge_at[j + 1]])


def _components(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Label each of ``n`` nodes with the smallest node of its weakly connected
    component under the edges ``src[i]``-``dst[i]``, by hook and compress
    (Shiloach & Vishkin 1982): each root hooks onto the smallest root it shares
    an edge with, then pointer jumping flattens the trees, until no edge joins
    two trees. Hooks point to smaller roots, so a root is its tree's smallest node.
    """
    label = np.arange(n)
    while True:
        a, b = label[src], label[dst]
        cross = a != b
        if not cross.any():
            return label
        src, dst, a, b = src[cross], dst[cross], a[cross], b[cross]
        np.minimum.at(label, np.maximum(a, b), np.minimum(a, b))
        while not np.array_equal(up := label[label], label):
            label = up


def _city_cascades(city: str, events: np.ndarray, graph: SocialGraph,
                   window_days: int | None) -> CityCascades:
    business = events["business_id"].astype(np.int64)
    # span > every user id, so each (business, user) key is distinct
    span = max(graph.n_nodes, int(events["user_id"].max(initial=-1)) + 1)
    keys, first = np.unique(business * span + events["user_id"], return_index=True)
    # The nodes are the first events in row order; events are sorted, so that
    # is (business, date, user) order.
    at = np.sort(first)
    node_of_key = np.searchsorted(at, first)
    business = business[at]
    rows = np.empty(len(at), NODE_DTYPE)
    rows[:] = events[["user_id", *NODE_DTYPE.names[1:]]][at]  # by position: user_id -> user
    user = rows["user"].astype(np.int64)

    # Expand every node v's friend list (none for users outside the graph) and
    # look each friend u up among the nodes of v's business: an edge u->v needs
    # u to act no later.
    lo, hi = (graph.indptr[np.minimum(user + d, graph.n_nodes)] for d in (0, 1))
    ends, total = np.cumsum(hi - lo), int((hi - lo).sum())
    src, dst = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    limit = np.inf if window_days is None else window_days
    for chunk in range(0, total, LOOKUP_CHUNK):
        t = np.arange(chunk, min(chunk + LOOKUP_CHUNK, total))
        v = np.searchsorted(ends, t, side="right")
        key = business[v] * span + graph.indices[hi[v] - ends[v] + t]
        pos = np.minimum(np.searchsorted(keys, key), len(keys) - 1)
        found = keys[pos] == key
        u, v = node_of_key[pos[found]], v[found]
        gap = rows["day"][v] - rows["day"][u]
        keep = (gap >= 0) & (gap <= limit)
        src.append(u[keep])
        dst.append(v[keep])
    src, dst = np.concatenate(src), np.concatenate(dst)

    # A component's label is its earliest node, so labels ascend in cascade
    # order (by business, then earliest (date, user)) and each leads its
    # component's nodes. Users linked to no friend are singletons and drop out.
    label = _components(len(rows), src, dst)
    nodes = np.unique(np.concatenate([src, dst]))
    nodes = nodes[np.argsort(label[nodes], kind="stable")]
    roots, node_at = np.unique(label[nodes], return_index=True)
    rank = np.zeros_like(label)
    rank[nodes] = np.arange(len(nodes))
    position = rank - rank[label]  # of each node in its cascade
    edge_order = np.lexsort((user[dst], user[src], label[src]))
    edge_at = np.searchsorted(label[src][edge_order], roots)
    index = np.arange(len(roots)) - np.searchsorted(business[roots], business[roots])
    edges = np.stack([position[src], position[dst]], axis=1)[edge_order].astype(np.int32)
    return CityCascades(city, rows[nodes], edges, np.append(node_at, len(nodes)),
                        np.append(edge_at, len(edges)), business[roots], index)


def build_cascades(events_by_city: Mapping[str, np.ndarray], graph: SocialGraph,
                   window_days: int | None = None) -> dict[str, CityCascades]:
    """Extract cascades for every city. Each city's events are
    :data:`~cascademine.ingest.EVENT_DTYPE` rows sorted by (business_id, day,
    user_id): one array pass per city takes each (business, user) pair's first
    event, looks every such node's friends up among its business's nodes by
    binary search, and labels the components.
    """
    if window_days is not None and window_days <= 0:
        raise ValueError("window_days must be positive when given")
    return {city: _city_cascades(city, events_by_city[city], graph, window_days)
            for city in sorted(events_by_city)}


def cascade_summary(cascades_by_city: Mapping[str, CityCascades]) -> list[SummaryRow]:
    """Per-city cascade counts and nearest-rank size percentiles."""
    rows = []
    for city in sorted(cascades_by_city):
        sizes = np.sort(cascades_by_city[city].sizes).tolist()
        rows.append(SummaryRow(city, len(sizes), nearest_rank(sizes, 50),
                               nearest_rank(sizes, 90), sizes[-1])
                    if sizes else SummaryRow(city, 0, 0, 0, 0))
    return rows


def _store_order(cascades_by_city: Mapping[str, CityCascades]) -> list[CityCascades]:
    """The cities with cascades, sorted."""
    return [cascades_by_city[city] for city in sorted(cascades_by_city)
            if len(cascades_by_city[city])]


def write_cascades(cascades_by_city: Mapping[str, CityCascades], path) -> None:
    """The JSON lines export, one cascade per line, formatted from each city's
    arrays and written a cascade at a time: the bytes of ``json.dumps`` with
    compact separators (the city name alone goes through it, so that a
    non-ASCII name stays ``\\uXXXX``-escaped)."""
    dates = {}  # day ordinal -> ISO date, filled on first sight
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for cascades in _store_order(cascades_by_city):
            city = json.dumps(cascades.city)
            node_at, edge_at = cascades.node_offsets.tolist(), cascades.edge_offsets.tolist()
            for j, (business, index) in enumerate(zip(cascades.business.tolist(),
                                                      cascades.component.tolist())):
                nodes = cascades.nodes[node_at[j]:node_at[j + 1]]
                rows = []
                for user, day, kind, stars, text_len, votes in nodes.tolist():
                    date = dates.get(day)
                    if date is None:
                        date = dates[day] = dt.date.fromordinal(day).isoformat()
                    rows.append(f'{{"user":{user},"date":"{date}","kind":"{KIND_NAMES[kind]}",'
                                f'"stars":{stars or "null"},"text_len":{text_len},'
                                f'"votes":{votes}}}')
                # the edges' (src, dst) user ids, flat, into one "[%d,%d]" per edge
                users = nodes["user"][cascades.edges[edge_at[j]:edge_at[j + 1]]].ravel().tolist()
                edges = ",".join(["[%d,%d]"] * (len(users) // 2)) % tuple(users)
                fh.write(f'{{"cascade_id":[{city},{business},{index}],"city":{city},'
                         f'"business_id":{business},"nodes":[{",".join(rows)}],'
                         f'"edges":[{edges}]}}\n')


def save_cascades(cascades_by_city: Mapping[str, CityCascades], path) -> None:
    """Write the columnar store that :func:`read_cascades` loads: each city's
    arrays one after another."""
    cities = _store_order(cascades_by_city)

    def joined(name: str, empty: np.ndarray) -> np.ndarray:
        return np.concatenate([empty, *(getattr(c, name) for c in cities)]).astype(
            empty.dtype, copy=False)

    def offsets(name: str) -> np.ndarray:
        return np.cumsum(np.concatenate([[0], *(np.diff(getattr(c, name)) for c in cities)]),
                         dtype=np.int64)

    save_arrays(
        path, STORE_FORMAT, STORE_VERSION,
        nodes=joined("nodes", np.empty(0, NODE_DTYPE)),
        edges=joined("edges", np.empty((0, 2), np.int32)),
        node_offsets=offsets("node_offsets"),
        edge_offsets=offsets("edge_offsets"),
        business=joined("business", np.empty(0, np.int32)),
        component=joined("component", np.empty(0, np.int32)),
        city_offsets=np.cumsum([0] + [len(c) for c in cities], dtype=np.int64),
        cities=np.array([c.city for c in cities], dtype=np.str_),
    )


def read_cascades(path) -> dict[str, CityCascades]:
    """Load the store that :func:`save_cascades` wrote; each city's arrays
    are views into the store's.

    A damaged store, one of another format or version, or one with a missing
    or malformed array (``cities`` not 1-D unicode, an offset, business or
    component array not 1-D signed integer), arrays whose lengths or offsets
    do not fit together (an offset array that does not start at 0 or that
    decreases), cities or cascades out of order, or an edge position outside
    its cascade raises DataError naming 'build-cascades' as the stage to rerun.
    """
    arrays = load_arrays(path, STORE_FORMAT, STORE_VERSION, "build-cascades")
    try:
        nodes, edges, cities = arrays["nodes"], arrays["edges"], arrays["cities"]
        node_at, edge_at, city_at, business, component = (
            arrays[name] for name in ("node_offsets", "edge_offsets", "city_offsets",
                                      "business", "component"))
        if (nodes.dtype != NODE_DTYPE or nodes.ndim != 1 or edges.dtype != np.int32
                or edges.shape[1:] != (2,) or cities.dtype.kind != "U" or cities.ndim != 1
                or any(a.dtype.kind != "i" or a.ndim != 1
                       for a in (node_at, edge_at, city_at, business, component))):
            raise ValueError("an array has the wrong type or shape")
        n = len(business)
        if ([len(node_at), len(edge_at), len(component), len(city_at)]
                != [n + 1, n + 1, n, len(cities) + 1]
                or [node_at[-1], edge_at[-1], city_at[-1]] != [len(nodes), len(edges), n]
                or any(at[0] != 0 or (np.diff(at) < 0).any()
                       for at in (node_at, edge_at, city_at))):
            raise ValueError("the arrays do not fit together")
        # within a city, each cascade's (business, component) exceeds the last's
        first = np.zeros(n + 1, bool)
        first[city_at] = True
        db, dc = (np.diff(a.astype(np.int64)) for a in (business, component))
        if (not ((db > 0) | (db == 0) & (dc > 0) | first[1:-1]).all()
                or (cities[1:] <= cities[:-1]).any()):
            raise ValueError("the cities or cascades are not in order")
        size = np.repeat(np.diff(node_at), np.diff(edge_at))[:, None]
        if ((edges < 0) | (edges >= size)).any():
            raise ValueError("an edge position lies outside its cascade")
        by_city = {}
        for city, lo, hi in zip(cities.tolist(), city_at.tolist(), city_at[1:].tolist()):
            n0, n1, e0, e1 = node_at[lo], node_at[hi], edge_at[lo], edge_at[hi]
            by_city[city] = CityCascades(city, nodes[n0:n1], edges[e0:e1],
                                         node_at[lo:hi + 1] - n0, edge_at[lo:hi + 1] - e0,
                                         business[lo:hi], component[lo:hi])
        return by_city
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        raise DataError(f"damaged cascade store {path} ({exc!r}); "
                        "rerun 'build-cascades'") from exc
