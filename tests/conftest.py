"""Shared builders for events, graphs, and hand-made cascades."""

from __future__ import annotations

import datetime as dt
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make `oracles` importable

from cascademine.cascades import NODE_DTYPE, Cascade
from cascademine.ingest import EVENT_DTYPE, EventKind
from cascademine.social import SocialGraph, build_graph

BASE_DAY = dt.date(2012, 1, 1)


def day(offset: int) -> dt.date:
    return BASE_DAY + dt.timedelta(days=int(offset))


def mk_event(user: int, business: int, offset: int, kind: EventKind = EventKind.REVIEW,
             stars: int | None = 4, text_len: int = 20, votes: int = 0) -> np.record:
    """One EVENT_DTYPE row, read by field name or attribute (``e.user_id``)."""
    if kind is EventKind.TIP:
        stars = None
    row = (business, user, day(offset).toordinal(), kind, stars or 0, text_len, votes)
    return np.rec.array([row], dtype=EVENT_DTYPE)[0]


def event_table(events) -> np.recarray:
    """EVENT_DTYPE rows sorted as ingest sorts a city's events: by (business,
    day, user, kind), exact ties in the order given."""
    table = np.array(list(events), dtype=EVENT_DTYPE)
    order = np.lexsort([table[name] for name in ("kind", "user_id", "day", "business_id")])
    return table[order].view(np.recarray)


def graph_from_edges(edges, n_nodes: int) -> SocialGraph:
    """Build a SocialGraph from undirected (u, v) pairs via one-sided listings."""
    edges = list(edges)
    return build_graph([u for u, _ in edges], [v for _, v in edges], n_nodes=n_nodes)


def mk_cascade(node_specs, edges, city: str = "testville", business: int = 0,
               index: int = 0) -> Cascade:
    """Cascade from (user, day_offset[, kind, stars, text_len, votes]) tuples
    and (src_user, dst_user) edges."""
    nodes = []
    for spec in node_specs:
        user, offset = spec[0], spec[1]
        kind = spec[2] if len(spec) > 2 else EventKind.REVIEW
        stars = spec[3] if len(spec) > 3 else (4 if kind is EventKind.REVIEW else None)
        text_len = spec[4] if len(spec) > 4 else 25
        votes = spec[5] if len(spec) > 5 else 1
        nodes.append((user, day(offset).toordinal(), kind, stars or 0, text_len, votes))
    nodes.sort(key=lambda n: (n[1], n[0]))
    position = {n[0]: i for i, n in enumerate(nodes)}
    return Cascade((city, business, index), np.array(nodes, NODE_DTYPE),
                   edge_array((position[u], position[v]) for u, v in sorted(edges)))


def edge_array(edges) -> np.ndarray:
    return np.array(list(edges), dtype=np.int32).reshape(-1, 2)


def random_events(rng: np.random.Generator, n_users: int, n_businesses: int,
                  n_events: int, span_days: int = 60) -> np.recarray:
    """Random events with possible same-day collisions, sorted as ingest does."""
    events = []
    for _ in range(n_events):
        kind = EventKind.REVIEW if rng.random() < 0.7 else EventKind.TIP
        events.append(mk_event(
            user=int(rng.integers(0, n_users)),
            business=int(rng.integers(0, n_businesses)),
            offset=int(rng.integers(0, span_days)),
            kind=kind,
            text_len=int(rng.integers(1, 200)),
            # two draws, useful then likes (tips only): this order fixes the
            # events, and so the cascades, that the oracle tests compare
            votes=int(rng.integers(0, 3))
            + (int(rng.integers(0, 3)) if kind is EventKind.TIP else 0),
        ))
    return event_table(events)


def random_graph(rng: np.random.Generator, n_nodes: int, p: float) -> SocialGraph:
    edges = [(u, v) for u in range(n_nodes) for v in range(u + 1, n_nodes)
             if rng.random() < p]
    return graph_from_edges(edges, n_nodes)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
