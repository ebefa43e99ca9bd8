"""Per-business influence graphs and their connected components (cascades).

For one business, each user is collapsed to their first event there. A
directed edge u->v exists when u and v are friends and u acted strictly
earlier (optionally within ``window_days``); two friends acting on the same
day get the reciprocal pair u->v and v->u. Cascades are the weakly connected
components with at least two nodes; users whose activity links to no friend
are discarded.

The on-disk store is JSON lines, one cascade per line:

  {"cascade_id": [city, business_id, index], "city": ..., "business_id": ...,
   "nodes": [{"user": u, "date": "YYYY-MM-DD", "kind": "review"|"tip",
              "stars": 4|null, "text_len": n, "votes": n}, ...],
   "edges": [[src, dst], ...]}

Nodes are ordered by (date, user id), edges lexicographically, cascades by
cascade_id, so the file is byte-stable for fixed inputs. Each node is the
user's first :class:`~cascademine.ingest.Event` at the business; its
``stars``/``text_len``/``votes`` carry that event's payload, so prefix
features need no event table, only the user, business and graph tables of the
ingest cache.
"""

from __future__ import annotations

import datetime as dt
import json
from dataclasses import dataclass
from itertools import groupby
from typing import Iterable, Mapping, Sequence

import numpy as np

from cascademine.errors import DataError
from cascademine.ingest import Event, KIND_FROM_NAME, KIND_NAMES
from cascademine.social import SocialGraph
from cascademine.util import nearest_rank

CascadeId = tuple[str, int, int]


@dataclass(frozen=True, slots=True)
class Cascade:
    cascade_id: CascadeId  # (city, business_id, component index)
    nodes: tuple[Event, ...]  # each user's first event, sorted by (date, user)
    edges: tuple[tuple[int, int], ...]  # directed (src_user, dst_user), lexicographic

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


def _first_events(events: Iterable[Event]) -> dict[int, Event]:
    """Collapse a business's time-sorted events to each user's first one."""
    first: dict[int, Event] = {}
    for event in events:
        if event.user_id not in first:
            first[event.user_id] = event
    return first


class _UnionFind:
    __slots__ = ("parent",)

    def __init__(self):
        self.parent: dict[int, int] = {}

    def find(self, x: int) -> int:
        parent = self.parent
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != x:
            parent[x], x = root, parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def _business_cascades(city: str, business_id: int, events: Sequence[Event],
                       graph: SocialGraph, window_days: int | None) -> list[Cascade]:
    first = _first_events(events)
    if len(first) < 2:
        return []

    # Edges into each user from friends who acted earlier or on the same day.
    # Same-day pairs yield both directions, once from each endpoint's turn.
    edges: list[tuple[int, int]] = []
    participants = np.fromiter(first, dtype=np.int64, count=len(first))
    for v, ev in first.items():
        dv = ev.date
        friends = np.intersect1d(graph.neighbors(v), participants, assume_unique=True)
        for u in friends.tolist():
            du = first[u].date
            if du > dv:
                continue
            if window_days is not None and (dv - du).days > window_days:
                continue
            edges.append((u, v))

    if not edges:
        return []

    uf = _UnionFind()
    for u, v in edges:
        uf.union(u, v)

    # Component index follows the position of each component's earliest node
    # in the canonical (date, user) order, so ids are stable across runs.
    order = sorted(first.values(), key=lambda e: (e.date, e.user_id))
    members: dict[int, list[Event]] = {}
    roots_in_order: list[int] = []
    for ev in order:
        root = uf.find(ev.user_id)
        if root not in members:
            members[root] = []
            roots_in_order.append(root)
        members[root].append(ev)

    edges_by_root: dict[int, list[tuple[int, int]]] = {}
    for u, v in edges:
        edges_by_root.setdefault(uf.find(u), []).append((u, v))

    cascades = []
    index = 0
    for root in roots_in_order:
        evs = members[root]
        if len(evs) < 2:
            continue  # isolated reviewer, no qualifying edge
        cascade_edges = tuple(sorted(edges_by_root.get(root, ())))
        cascades.append(Cascade((city, business_id, index), tuple(evs), cascade_edges))
        index += 1
    return cascades


def build_cascades(events_by_city: Mapping[str, Sequence[Event]], graph: SocialGraph,
                   window_days: int | None = None) -> dict[str, list[Cascade]]:
    """Extract cascades for every city. Events must be sorted by
    (business_id, date, user_id); each business is processed independently."""
    if window_days is not None and window_days <= 0:
        raise ValueError("window_days must be positive when given")
    out: dict[str, list[Cascade]] = {}
    for city in sorted(events_by_city):
        cascades: list[Cascade] = []
        for business_id, group in groupby(events_by_city[city], key=lambda e: e.business_id):
            cascades.extend(_business_cascades(city, business_id, list(group), graph, window_days))
        out[city] = cascades
    return out


def cascade_summary(cascades_by_city: Mapping[str, Sequence[Cascade]]) -> list[SummaryRow]:
    """Per-city cascade counts and nearest-rank size percentiles."""
    rows = []
    for city in sorted(cascades_by_city):
        sizes = sorted(c.size for c in cascades_by_city[city])
        if not sizes:
            rows.append(SummaryRow(city, 0, 0, 0, 0))
            continue
        rows.append(SummaryRow(
            city, len(sizes),
            nearest_rank(sizes, 50), nearest_rank(sizes, 90), sizes[-1],
        ))
    return rows


def _cascade_to_json(cascade: Cascade) -> str:
    obj = {
        "cascade_id": list(cascade.cascade_id),
        "city": cascade.city,
        "business_id": cascade.business_id,
        "nodes": [
            {"user": n.user_id, "date": n.date.isoformat(), "kind": KIND_NAMES[n.kind],
             "stars": n.stars, "text_len": n.text_len, "votes": n.votes}
            for n in cascade.nodes
        ],
        "edges": [list(e) for e in cascade.edges],
    }
    return json.dumps(obj, separators=(",", ":"))


def write_cascades(cascades_by_city: Mapping[str, Sequence[Cascade]], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for city in sorted(cascades_by_city):
            for cascade in sorted(cascades_by_city[city], key=lambda c: c.cascade_id):
                fh.write(_cascade_to_json(cascade))
                fh.write("\n")


def read_cascades(path) -> dict[str, list[Cascade]]:
    """Load the store that :func:`write_cascades` wrote.

    A line that is not a cascade record (a truncated or edited store) raises
    DataError naming the line and 'build-cascades' as the stage to rerun.
    """
    out: dict[str, list[Cascade]] = {}
    lineno = 0
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                obj = json.loads(line)
                city, business_id, index = obj["cascade_id"]
                nodes = tuple(
                    Event(n["user"], business_id, dt.date.fromisoformat(n["date"]),
                          KIND_FROM_NAME[n["kind"]], n["stars"], n["text_len"], n["votes"])
                    for n in obj["nodes"]
                )
                edges = tuple((e[0], e[1]) for e in obj["edges"])
                cascade = Cascade((city, business_id, index), nodes, edges)
                out.setdefault(city, []).append(cascade)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        # ValueError covers json.JSONDecodeError and UnicodeDecodeError
        raise DataError(f"damaged cascade store {path}, line {lineno} ({exc!r}); "
                        "rerun 'build-cascades'") from exc
    return {city: out[city] for city in sorted(out)}
