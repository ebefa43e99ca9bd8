import datetime as dt

import networkx as nx
import numpy as np
import pytest

from cascademine import cascades
from cascademine.cascades import (_components, build_cascades, cascade_summary, read_cascades,
                                  save_cascades, write_cascades)
from cascademine.ingest import EventKind
from cascademine.util import nearest_rank
from conftest import (as_stores, day, event_table, graph_from_edges, mk_event, random_events,
                      random_graph)
from oracles import (as_plain, brute_force_business, cascade_edges, cascade_events,
                     cascade_jsonl, event_node, graph_edges, percentile_by_counting,
                     read_cascades_jsonl)


def build_one_city(events, graph, window_days=None):
    return build_cascades({"testville": event_table(events)}, graph, window_days)["testville"]


class TestBuildCascades:
    def test_two_friends_sequential_is_single_edge(self):
        graph = graph_from_edges([(0, 1)], 2)
        cascades = build_one_city([mk_event(0, 7, 1), mk_event(1, 7, 3)], graph)
        (cascade,) = cascades
        assert [n.user_id for n in cascade_events(cascade)] == [0, 1]
        assert cascade_edges(cascade) == ((0, 1),)
        assert cascade.cascade_id == ("testville", 7, 0)

    def test_same_day_friends_reciprocal_pair(self):
        graph = graph_from_edges([(0, 1)], 2)
        (cascade,) = build_one_city([mk_event(0, 7, 5), mk_event(1, 7, 5)], graph)
        assert set(cascade_edges(cascade)) == {(0, 1), (1, 0)}

    def test_isolated_user_discarded(self):
        graph = graph_from_edges([(0, 1)], 3)
        cascades = build_one_city(
            [mk_event(0, 7, 1), mk_event(1, 7, 2), mk_event(2, 7, 2)], graph)
        (cascade,) = cascades
        assert {n.user_id for n in cascade_events(cascade)} == {0, 1}

    def test_non_friends_never_linked(self):
        graph = graph_from_edges([], 2)
        assert len(build_one_city([mk_event(0, 7, 1), mk_event(1, 7, 3)], graph)) == 0

    def test_first_event_collapse(self):
        graph = graph_from_edges([(0, 1)], 2)
        events = [mk_event(0, 7, 1), mk_event(0, 7, 9), mk_event(1, 7, 3)]
        (cascade,) = build_one_city(events, graph)
        assert [n.user_id for n in cascade_events(cascade)] == [0, 1]
        assert cascade_events(cascade)[0].date == day(1)
        # the later event by user 0 creates no second node or self-influence
        assert cascade_edges(cascade) == ((0, 1),)

    def test_window_filters_long_gaps(self):
        graph = graph_from_edges([(0, 1)], 2)
        events = [mk_event(0, 7, 0), mk_event(1, 7, 40)]
        assert len(build_one_city(events, graph, window_days=30)) == 0
        (cascade,) = build_one_city(events, graph, window_days=40)
        assert cascade_edges(cascade) == ((0, 1),)

    def test_window_monotonicity(self, rng):
        graph = random_graph(rng, 40, 0.15)
        events = random_events(rng, 40, 6, 150)
        def edge_set(window):
            out = set()
            for c in build_one_city(events, graph, window):
                out |= set(cascade_edges(c))
            return out
        unlimited = edge_set(None)
        prev = unlimited
        for window in (60, 20, 5, 1):
            cur = edge_set(window)
            assert cur <= prev
            prev = cur

    def test_strict_edges_form_dag(self, rng):
        # removing same-day (reciprocal-capable) edges leaves an acyclic graph
        graph = random_graph(rng, 40, 0.2)
        events = random_events(rng, 40, 5, 200, span_days=20)
        for cascade in build_one_city(events, graph):
            date_of = {n.user_id: n.date for n in cascade_events(cascade)}
            strict = [(u, v) for u, v in cascade_edges(cascade) if date_of[u] != date_of[v]]
            # Kahn's algorithm
            succ, indeg = {}, {}
            for u, v in strict:
                succ.setdefault(u, []).append(v)
                indeg[v] = indeg.get(v, 0) + 1
                indeg.setdefault(u, 0)
            queue = [u for u, d in indeg.items() if d == 0]
            seen = 0
            while queue:
                u = queue.pop()
                seen += 1
                for v in succ.get(u, ()):
                    indeg[v] -= 1
                    if indeg[v] == 0:
                        queue.append(v)
            assert seen == len(indeg)

    def test_matches_brute_force_oracle(self, rng):
        for seed in range(20):
            local = np.random.default_rng(seed)
            n_users = 50
            graph = random_graph(local, n_users, 0.1)
            friend_pairs = {frozenset((u, v)) for u, v in graph_edges(graph)}
            events = random_events(local, n_users, 10, 200)
            window = None if seed % 2 == 0 else 7
            by_business = {}
            for e in events:
                by_business.setdefault(e.business_id, {})
                d = by_business[e.business_id]
                if e.user_id not in d or e.day < d[e.user_id]:
                    d[e.user_id] = e.day
            cascades = build_one_city(events, graph, window)
            got_edges = {}
            got_components = {}
            for c in cascades:
                got_edges.setdefault(c.business_id, set()).update(cascade_edges(c))
                got_components.setdefault(c.business_id, set()).add(
                    frozenset(n.user_id for n in cascade_events(c)))
            for business, first_date in by_business.items():
                want_edges, want_comps = brute_force_business(
                    first_date, friend_pairs, window)
                assert got_edges.get(business, set()) == want_edges, (seed, business)
                assert got_components.get(business, set()) == want_comps, (seed, business)

    @pytest.mark.parametrize("window", [None, 7])
    def test_hub_users_match_oracles(self, window):
        # Hubs befriend about 60 % of all users, so their degree is far above
        # the participant count of any business and every neighbour scan of a
        # hub is mostly non-participants.
        n_users, hubs = 300, range(5)
        for seed in range(8):
            local = np.random.default_rng(seed)
            edges = [(h, v) for h in hubs for v in range(n_users)
                     if v != h and local.random() < 0.6]
            edges += [(u, v) for u in range(len(hubs), n_users)
                      for v in range(u + 1, n_users) if local.random() < 0.02]
            graph = graph_from_edges(edges, n_users)
            friend_pairs = {frozenset(e) for e in graph_edges(graph)}
            events = []
            for business in range(6):
                others = local.choice(np.arange(len(hubs), n_users), size=12, replace=False)
                for user in [*hubs, *others.tolist()]:
                    for _ in range(int(local.integers(1, 3))):
                        events.append(mk_event(user, business, int(local.integers(0, 30))))
            cascades = build_one_city(events, graph, window)

            first_dates = {}
            for e in events:
                d = first_dates.setdefault(e.business_id, {})
                d[e.user_id] = min(e.day, d.get(e.user_id, e.day))
            for business, first_date in first_dates.items():
                assert max(graph.degree(u) for u in first_date) > 5 * len(first_date)
                got = [c for c in cascades if c.business_id == business]
                got_edges = {e for c in got for e in cascade_edges(c)}
                got_comps = {frozenset(n.user_id for n in cascade_events(c)) for c in got}
                want_edges, want_comps = brute_force_business(first_date, friend_pairs,
                                                              window)
                assert got_edges == want_edges, (seed, business)
                assert got_comps == want_comps, (seed, business)
                digraph = nx.DiGraph(list(got_edges))
                assert got_comps == {frozenset(c) for c in
                                     nx.weakly_connected_components(digraph)}

    @pytest.mark.parametrize("window", [None, 2])
    @pytest.mark.parametrize("seed", range(3))
    def test_order_and_lookup_chunks(self, tmp_path, monkeypatch, seed, window):
        # Hubs befriend about 60 % of the graph; users 50-59 act but are not in it.
        local = np.random.default_rng(seed)
        n_graph, hubs = 50, range(3)
        edges = [(h, v) for h in hubs for v in range(n_graph) if v != h and local.random() < 0.6]
        edges += [(u, v) for u in range(n_graph) for v in range(u + 1, n_graph)
                  if local.random() < 0.05]
        graph = graph_from_edges(edges, n_graph)
        events = random_events(local, n_graph + 10, 6, 300, span_days=30)
        assert any(e.user_id >= n_graph for e in events)
        friend_pairs = {frozenset(e) for e in graph_edges(graph)}
        first = {}
        for e in events:
            first.setdefault((e.business_id, e.user_id), e)

        # Businesses ascend; within one, cascades go by earliest (date, user)
        # node, nodes by (date, user) and edges by (src, dst).
        want = []
        for business in sorted({b for b, _ in first}):
            nodes = {u: e for (b, u), e in first.items() if b == business}
            want_edges, want_comps = brute_force_business(
                {u: e.day for u, e in nodes.items()}, friend_pairs, window)
            def when(u):
                return nodes[u].day, u
            ordered = sorted((sorted(comp, key=when) for comp in want_comps),
                             key=lambda comp: when(comp[0]))
            for index, comp in enumerate(ordered):
                want.append((("testville", business, index), tuple(event_node(nodes[u]) for u in comp),
                             tuple(sorted(e for e in want_edges if e[0] in comp))))
        assert any(u in hubs for _, nodes, _ in want for u in (n.user_id for n in nodes))

        stores = []
        for chunk in (1, 7, cascades.LOOKUP_CHUNK):
            monkeypatch.setattr(cascades, "LOOKUP_CHUNK", chunk)
            by_city = build_cascades({"testville": events}, graph, window)
            assert as_plain(by_city) == {"testville": want}, chunk
            save_cascades(by_city, tmp_path / f"{chunk}.npz")
            stores.append((tmp_path / f"{chunk}.npz").read_bytes())
        assert stores[0] == stores[1] == stores[2]

    def test_components_partition_linked_users(self, rng):
        graph = random_graph(rng, 30, 0.2)
        events = random_events(rng, 30, 4, 120)
        cascades = build_one_city(events, graph)
        by_business = {}
        for c in cascades:
            by_business.setdefault(c.business_id, []).append(c)
        for business, group in by_business.items():
            node_sets = [frozenset(n.user_id for n in cascade_events(c)) for c in group]
            for i, a in enumerate(node_sets):
                for b in node_sets[i + 1:]:
                    assert not (a & b)
            linked = set().union(*({u for e in cascade_edges(c) for u in e} for c in group))
            assert linked == set().union(*node_sets)

    def test_size_at_least_two_and_edges_nonempty(self, rng):
        graph = random_graph(rng, 30, 0.15)
        cascades = build_one_city(random_events(rng, 30, 5, 150), graph)
        assert cascades
        for c in cascades:
            assert c.size >= 2
            assert cascade_edges(c)
            users_in_edges = {u for e in cascade_edges(c) for u in e}
            assert users_in_edges <= {n.user_id for n in cascade_events(c)}

    def test_rejects_nonpositive_window(self, rng):
        graph = graph_from_edges([(0, 1)], 2)
        with pytest.raises(ValueError):
            build_cascades({"x": []}, graph, window_days=0)


class TestComponents:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_networkx(self, seed):
        local = np.random.default_rng(seed)
        n = int(local.integers(1, 300))
        src, dst = local.integers(0, n, size=(2, int(local.integers(0, 2 * n))))
        digraph = nx.DiGraph()
        digraph.add_nodes_from(range(n))
        digraph.add_edges_from(zip(src.tolist(), dst.tolist()))
        want = [0] * n
        for comp in nx.weakly_connected_components(digraph):
            for node in comp:
                want[node] = min(comp)
        assert _components(n, src, dst).tolist() == want

    def test_shuffled_long_path_is_one_component(self):
        # label propagation needs rounds in the thousands here
        path = np.random.default_rng(0).permutation(100_000)
        assert (_components(len(path), path[:-1], path[1:]) == 0).all()


class TestSummary:
    def test_p90_nearest_rank_small(self):
        assert nearest_rank([2, 2, 2, 10], 90) == 10

    def test_single_cascade(self):
        graph = graph_from_edges([(0, 1)], 2)
        cascades = build_one_city([mk_event(0, 0, 1), mk_event(1, 0, 2)], graph)
        (row,) = cascade_summary({"testville": cascades})
        assert (row.cascade_count, row.p90_size, row.max_size) == (1, 2, 2)

    def test_zero_cascades_row(self):
        (row,) = cascade_summary(as_stores({"ghost town": []}))
        assert (row.city, row.cascade_count, row.p50_size, row.p90_size,
                row.max_size) == ("ghost town", 0, 0, 0, 0)

    def test_percentiles_match_counting_oracle(self, rng):
        sizes = [int(s) for s in rng.integers(2, 200, size=1000)]
        sorted_sizes = sorted(sizes)
        for p in (50, 90, 99):
            assert nearest_rank(sorted_sizes, p) == percentile_by_counting(sizes, p)


def random_cities(seed):
    """Three cities of random events over one graph; "ghost" has a single
    event, so it has no cascade."""
    local = np.random.default_rng(seed)
    graph = random_graph(local, 40, 0.12)
    by_city = {city: random_events(local, 40, 8, n) for city, n in
               (("a town", 180), ("Montréal", 90), ("Saint Louis, MO", 60))}
    by_city["ghost"] = random_events(local, 40, 1, 1)
    return by_city, graph


class TestStore:
    def test_round_trip_and_determinism(self, tmp_path, rng):
        graph = random_graph(rng, 40, 0.12)
        events = random_events(rng, 40, 8, 180)
        by_city = build_cascades({"a town": events}, graph)
        p1, p2 = tmp_path / "c1.npz", tmp_path / "c2.npz"
        save_cascades(by_city, p1)
        loaded = read_cascades(p1)
        assert as_plain(loaded) == as_plain(by_city)
        save_cascades(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("seed", range(6))
    def test_store_matches_jsonl_export(self, tmp_path, seed):
        events_by_city, graph = random_cities(seed)
        by_city = build_cascades(events_by_city, graph, None if seed % 2 else 7)
        assert len(by_city["ghost"]) == 0 and all(by_city[c] for c in by_city if c != "ghost")
        store, export = tmp_path / "c.npz", tmp_path / "c.jsonl"
        save_cascades(by_city, store)
        write_cascades(by_city, export)
        loaded = read_cascades(store)
        expected = read_cascades_jsonl(export)
        assert "ghost" not in expected
        assert as_plain(loaded) == expected
        assert as_plain({c: v for c, v in by_city.items() if v}) == expected
        # every cascade is a view into one node array and one edge array
        flat = [c for cascades in loaded.values() for c in cascades]
        assert all(c.nodes.base is flat[0].nodes.base is not None for c in flat)
        assert all(c.edges.base is flat[0].edges.base is not None for c in flat)
        save_cascades(loaded, tmp_path / "again.npz")
        write_cascades(loaded, tmp_path / "again.jsonl")
        assert (tmp_path / "again.npz").read_bytes() == store.read_bytes()
        assert (tmp_path / "again.jsonl").read_bytes() == export.read_bytes()

    @pytest.mark.parametrize("seed", range(3))
    def test_export_bytes_match_json_dumps(self, tmp_path, seed):
        # cascades.jsonl as one json.dumps per cascade would write it: a
        # non-ASCII city, one whose name needs escapes, tips (stars null), a
        # same-day reciprocal pair, days before year 1000 and a city with no
        # cascade, beside random cities
        graph = graph_from_edges([(0, 1), (1, 2), (2, 3), (3, 4), (5, 6), (6, 7)], 8)
        early = dt.date(999, 12, 30).toordinal()

        def row(user, business, day, kind=EventKind.REVIEW, stars=4, votes=0):
            return business, user, day, kind, stars, 10 * user + 1, votes

        late = day(3).toordinal()
        by_city = build_cascades({
            "montréal": event_table([row(0, 0, late), row(1, 0, late, votes=2),
                                     row(2, 0, late + 1, EventKind.TIP, 0, votes=5),
                                     row(5, 1, late, stars=1), row(6, 1, late + 9, stars=5)]),
            'the "quoted" \\ town': event_table([row(3, 2, early), row(4, 2, early + 1),
                                                  row(7, 3, early + 2, EventKind.TIP, 0),
                                                  row(6, 3, early + 2, EventKind.TIP, 0)]),
            "no cascade": event_table([row(0, 4, late), row(7, 4, late)]),
        }, graph)
        assert len(by_city["no cascade"]) == 0
        by_city.update(build_cascades(*random_cities(seed)))
        write_cascades(by_city, tmp_path / "c.jsonl")
        data = (tmp_path / "c.jsonl").read_bytes()
        assert data == cascade_jsonl(by_city)
        assert b'"city":"montr\\u00e9al"' in data and b'"stars":null' in data
        assert b'"date":"0999-12-30"' in data and b'"the \\"quoted\\" \\\\ town"' in data

    def test_empty_store(self, tmp_path):
        save_cascades(as_stores({"ghost": []}), tmp_path / "c.npz")
        write_cascades(as_stores({"ghost": []}), tmp_path / "c.jsonl")
        assert read_cascades(tmp_path / "c.npz") == {}
        assert (tmp_path / "c.jsonl").read_bytes() == b""

    def test_node_and_edge_ordering(self, tmp_path):
        graph = graph_from_edges([(0, 1), (1, 2), (0, 2)], 3)
        events = [mk_event(2, 0, 1), mk_event(1, 0, 2), mk_event(0, 0, 3)]
        by_city = build_cascades({"t": event_table(events)}, graph)
        (cascade,) = by_city["t"]
        assert [n.user_id for n in cascade_events(cascade)] == [2, 1, 0]  # date order
        assert list(cascade_edges(cascade)) == sorted(cascade_edges(cascade))
