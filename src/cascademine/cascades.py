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
nodes, ordered by (src user, dst user). ``build-cascades`` writes the store
``cascades.npz`` (:func:`save_cascades`): all nodes and all edges as one array
each, with per-cascade offsets, business and component index, and per-city
offsets and names. :func:`read_cascades` loads and checks it once and slices
views out of it, so no stage builds an object per node. The export
``cascades.jsonl`` (:func:`write_cascades`), read by no stage, has one cascade
per line, its edges as user ids:

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
from typing import Mapping, Sequence

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


def _views(ids: Sequence[CascadeId], nodes: np.ndarray, edges: np.ndarray,
           node_at: Sequence[int], edge_at: Sequence[int]) -> list[Cascade]:
    """Cascade ``j`` is ``ids[j]`` over rows ``[at[j], at[j + 1])`` of each array."""
    return [Cascade(cid, nodes[node_at[j]:node_at[j + 1]], edges[edge_at[j]:edge_at[j + 1]])
            for j, cid in enumerate(ids)]


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
                   window_days: int | None) -> list[Cascade]:
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
    if not len(src):
        return []

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
    ids = [(city, b, i) for b, i in zip(business[roots].tolist(), index.tolist())]
    edges = np.stack([position[src], position[dst]], axis=1)[edge_order].astype(np.int32)
    return _views(ids, rows[nodes], edges, [*node_at.tolist(), len(nodes)],
                  [*edge_at.tolist(), len(edges)])


def build_cascades(events_by_city: Mapping[str, np.ndarray], graph: SocialGraph,
                   window_days: int | None = None) -> dict[str, list[Cascade]]:
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


def cascade_summary(cascades_by_city: Mapping[str, Sequence[Cascade]]) -> list[SummaryRow]:
    """Per-city cascade counts and nearest-rank size percentiles."""
    rows = []
    for city in sorted(cascades_by_city):
        sizes = sorted(c.size for c in cascades_by_city[city])
        rows.append(SummaryRow(city, len(sizes), nearest_rank(sizes, 50),
                               nearest_rank(sizes, 90), sizes[-1])
                    if sizes else SummaryRow(city, 0, 0, 0, 0))
    return rows


def _cascade_to_json(cascade: Cascade) -> str:
    obj = {
        "cascade_id": list(cascade.cascade_id),
        "city": cascade.city,
        "business_id": cascade.business_id,
        "nodes": [
            {"user": user, "date": dt.date.fromordinal(day).isoformat(),
             "kind": KIND_NAMES[kind], "stars": stars or None, "text_len": text_len,
             "votes": votes}
            for user, day, kind, stars, text_len, votes in cascade.nodes.tolist()
        ],
        "edges": cascade.nodes["user"][cascade.edges].tolist(),
    }
    return json.dumps(obj, separators=(",", ":"))


def _store_order(cascades_by_city: Mapping[str, Sequence[Cascade]]
                 ) -> list[tuple[str, list[Cascade]]]:
    """Cities with cascades, sorted, each with its cascades in cascade_id order."""
    return [(city, sorted(cascades_by_city[city], key=lambda c: c.cascade_id))
            for city in sorted(cascades_by_city) if cascades_by_city[city]]


def write_cascades(cascades_by_city: Mapping[str, Sequence[Cascade]], path) -> None:
    """The JSON lines export, one cascade per line."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for _, cascades in _store_order(cascades_by_city):
            for cascade in cascades:
                fh.write(_cascade_to_json(cascade))
                fh.write("\n")


def save_cascades(cascades_by_city: Mapping[str, Sequence[Cascade]], path) -> None:
    """Write the columnar store that :func:`read_cascades` loads."""
    by_city = _store_order(cascades_by_city)
    flat = [c for _, cascades in by_city for c in cascades]
    save_arrays(
        path, STORE_FORMAT, STORE_VERSION,
        nodes=np.frombuffer(b"".join([c.nodes.tobytes() for c in flat]), NODE_DTYPE),
        edges=np.concatenate([np.empty((0, 2), np.int32), *(c.edges for c in flat)]),
        node_offsets=np.cumsum([0] + [len(c.nodes) for c in flat], dtype=np.int64),
        edge_offsets=np.cumsum([0] + [len(c.edges) for c in flat], dtype=np.int64),
        business=np.array([c.business_id for c in flat], dtype=np.int32),
        component=np.array([c.cascade_id[2] for c in flat], dtype=np.int32),
        city_offsets=np.cumsum([0] + [len(cs) for _, cs in by_city], dtype=np.int64),
        cities=np.array([city for city, _ in by_city], dtype=np.str_),
    )


def read_cascades(path) -> dict[str, list[Cascade]]:
    """Load the store that :func:`save_cascades` wrote; nodes and edges are
    views into its two arrays.

    A damaged store, one of another format or version, or one with a missing
    or malformed array, an offset array that does not start at 0 or that
    decreases, or an edge position outside its cascade raises DataError naming
    'build-cascades' as the stage to rerun.
    """
    arrays = load_arrays(path, STORE_FORMAT, STORE_VERSION, "build-cascades")
    try:
        nodes, edges, cities = arrays["nodes"], arrays["edges"], arrays["cities"]
        node_at, edge_at, city_at = (arrays[f"{name}_offsets"].tolist()
                                     for name in ("node", "edge", "city"))
        # one name string per cascade, as a per-line parse gives: pickles of
        # cascade ids then keep their bytes
        names = np.repeat(cities, np.diff(city_at)).tolist()
        ids = list(zip(names, arrays["business"].tolist(), arrays["component"].tolist(),
                       strict=True))
        if (nodes.dtype != NODE_DTYPE or edges.dtype != np.int32 or edges.shape[1:] != (2,)
                or [len(node_at), len(edge_at), node_at[-1], edge_at[-1]]
                != [len(ids) + 1, len(ids) + 1, len(nodes), len(edges)]
                or any(at[0] != 0 or (np.diff(at) < 0).any()
                       for at in (node_at, edge_at, city_at))):
            raise ValueError("the arrays do not fit together")
        size = np.repeat(np.diff(node_at), np.diff(edge_at))[:, None]
        if ((edges < 0) | (edges >= size)).any():
            raise ValueError("an edge position lies outside its cascade")
        cascades = _views(ids, nodes, edges, node_at, edge_at)
        return {city: cascades[city_at[j]:city_at[j + 1]]
                for j, city in enumerate(cities.tolist())}
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        raise DataError(f"damaged cascade store {path} ({exc!r}); "
                        "rerun 'build-cascades'") from exc
