"""Shared builders for events, graphs, hand-made cascades and their stores,
and a poll for the tests that order fork_map's processes."""

from __future__ import annotations

import datetime as dt
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))  # make `oracles` importable

from cascademine.cascades import (NODE_DTYPE, Cascade, CityCascades, read_cascades,
                                  save_cascades)
from cascademine.ingest import EVENT_DTYPE, EventKind
from cascademine.social import SocialGraph, build_graph

BASE_DAY = dt.date(2012, 1, 1)


def wait_for(done, seconds: float = 30.0) -> None:
    """Poll ``done()`` until it is true, or raise TimeoutError after ``seconds``."""
    deadline = time.monotonic() + seconds
    while not done():
        if time.monotonic() > deadline:
            raise TimeoutError(f"still waiting after {seconds} s")
        time.sleep(0.001)


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


def as_store(cascades, city: str = "testville") -> CityCascades:
    """``cascades``, all of ``city``, packed into one store in cascade_id order."""
    flat = sorted(cascades, key=lambda c: c.cascade_id)
    if any(c.city != city for c in flat):
        raise ValueError(f"cascades of another city than {city!r}")
    return CityCascades(city,
                        np.concatenate([np.empty(0, NODE_DTYPE), *(c.nodes for c in flat)]),
                        np.concatenate([np.empty((0, 2), np.int32), *(c.edges for c in flat)]),
                        np.cumsum([0] + [c.size for c in flat]),
                        np.cumsum([0] + [len(c.edges) for c in flat]),
                        np.array([c.business_id for c in flat], np.int64),
                        np.array([c.cascade_id[2] for c in flat], np.int64))


def as_stores(by_city: dict) -> dict[str, CityCascades]:
    """Each city's list of cascades as its store, named by the city's key."""
    return {city: as_store(cascades, city) for city, cascades in by_city.items()}


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


@st.composite
def small_stores(draw) -> dict[str, list[Cascade]]:
    """Up to three cities of 0 to 10 cascades with 2 to 12 nodes each. Each
    cascade is one of a few drawn shapes (a random tree, some of its edges
    reciprocated, a few extra edges), its nodes in a random order, so that
    signatures repeat, isomorphic cascades differ in their positions, and
    some signature collisions of the census can occur."""
    shapes = []
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(2, 12))
        edges = set()
        for v in range(1, n):
            u = draw(st.integers(0, v - 1))
            edges.add((u, v))
            if draw(st.booleans()):
                edges.add((v, u))  # a same-day reciprocal pair
        extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=3))
        shapes.append((n, edges | {(u, v) for u, v in extra if u != v}))
    by_city, k = {}, 0
    for city in draw(st.lists(st.sampled_from(["a town", "b", "Montréal"]), unique=True,
                              max_size=3)):
        by_city[city], components = [], {}
        for _ in range(draw(st.integers(0, 10))):
            n, edges = shapes[draw(st.integers(0, len(shapes) - 1))]
            perm = draw(st.permutations(range(n)))
            users = [100 * k + p for p in range(n)]  # nodes in user order
            business = draw(st.integers(0, 3))
            index = components[business] = components.get(business, -1) + 1
            by_city[city].append(mk_cascade(
                [(u, 0) for u in users], [(users[perm[u]], users[perm[v]]) for u, v in edges],
                city=city, business=business, index=index))
            k += 1
    return by_city


def stored(by_city: dict) -> dict:
    """``by_city``, each city's list of cascades, written to a cascade store
    and read back."""
    with tempfile.TemporaryDirectory() as tmp:
        save_cascades(as_stores(by_city), Path(tmp) / "cascades.npz")
        return read_cascades(Path(tmp) / "cascades.npz")
