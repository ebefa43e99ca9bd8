"""Shared builders for events, graphs, and hand-made cascades."""

from __future__ import annotations

import datetime as dt
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make `oracles` importable

from cascademine.cascades import Cascade, node_array
from cascademine.ingest import Event, EventKind
from cascademine.social import SocialGraph, build_graph

BASE_DAY = dt.date(2012, 1, 1)


def day(offset: int) -> dt.date:
    return BASE_DAY + dt.timedelta(days=int(offset))


def mk_event(user: int, business: int, offset: int, kind: EventKind = EventKind.REVIEW,
             stars: int | None = 4, text_len: int = 20, votes: int = 0) -> Event:
    if kind is EventKind.TIP:
        stars = None
    return Event(user, business, day(offset), kind, stars, text_len, votes)


def graph_from_edges(edges, n_nodes: int) -> SocialGraph:
    """Build a SocialGraph from undirected (u, v) pairs via one-sided listings."""
    edges = list(edges)
    return build_graph([u for u, _ in edges], [v for _, v in edges], n_nodes=n_nodes)


def mk_cascade(node_specs, edges, city: str = "testville", business: int = 0,
               index: int = 0) -> Cascade:
    """Cascade from (user, day_offset[, kind, stars, text_len, votes]) tuples."""
    nodes = []
    for spec in node_specs:
        user, offset = spec[0], spec[1]
        kind = spec[2] if len(spec) > 2 else EventKind.REVIEW
        stars = spec[3] if len(spec) > 3 else (4 if kind is EventKind.REVIEW else None)
        text_len = spec[4] if len(spec) > 4 else 25
        votes = spec[5] if len(spec) > 5 else 1
        nodes.append(Event(user, business, day(offset), kind, stars, text_len, votes))
    nodes.sort(key=lambda n: (n.date, n.user_id))
    return Cascade((city, business, index), node_array(nodes), edge_array(sorted(edges)))


def edge_array(edges) -> np.ndarray:
    return np.array(list(edges), dtype=np.int32).reshape(-1, 2)


def random_events(rng: np.random.Generator, n_users: int, n_businesses: int,
                  n_events: int, span_days: int = 60) -> list[Event]:
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
    events.sort(key=lambda e: (e.business_id, e.date, e.user_id, e.kind))
    return events


def random_graph(rng: np.random.Generator, n_nodes: int, p: float) -> SocialGraph:
    edges = [(u, v) for u in range(n_nodes) for v in range(u + 1, n_nodes)
             if rng.random() < p]
    return graph_from_edges(edges, n_nodes)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
