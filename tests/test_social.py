import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascademine.social import build_graph
from conftest import graph_from_edges, random_graph
from oracles import graph_edges


def from_listings(listings, n_nodes):
    """Graph from (user, [listed friends]) pairs, as a user file lists them."""
    src = [u for u, friends in listings for _ in friends]
    dst = [v for _, friends in listings for v in friends]
    return build_graph(src, dst, n_nodes=n_nodes)


class TestBuildGraph:
    def test_symmetric_closure_one_sided(self):
        graph = from_listings([(0, [1]), (1, [])], n_nodes=2)
        assert graph.are_friends(0, 1)
        assert graph.are_friends(1, 0)
        assert graph.n_edges == 1

    def test_self_loop_dropped(self):
        graph = from_listings([(0, [0])], n_nodes=1)
        assert not graph.are_friends(0, 0)
        assert graph.n_edges == 0

    def test_unknown_friend_id_becomes_node(self):
        # friend 5 lists nobody but the edge and its degree still count;
        # ids 1-4 appear in no listing and are isolated nodes
        graph = from_listings([(0, [5])], n_nodes=6)
        assert graph.n_nodes == 6
        assert graph.are_friends(0, 5)
        assert graph.degree(5) == 1
        assert [graph.degree(u) for u in range(1, 5)] == [0, 0, 0, 0]

    def test_duplicate_listings_single_edge(self):
        graph = from_listings([(0, [1, 1]), (1, [0])], n_nodes=2)
        assert graph.n_edges == 1
        assert graph.degree(0) == 1

    def test_id_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            from_listings([(0, [7])], n_nodes=3)
        with pytest.raises(ValueError):
            from_listings([(-1, [0])], n_nodes=3)

    def test_handshake_on_random_graph(self, rng):
        listings = []
        for u in range(100):
            friends = [v for v in range(100) if v != u and rng.random() < 0.05]
            listings.append((u, friends))
        graph = from_listings(listings, n_nodes=100)
        # independent edge count: normalize + dedupe the raw listings
        edges = set()
        for u, friends in listings:
            for v in friends:
                edges.add((min(u, v), max(u, v)))
        assert graph.n_edges == len(edges)
        assert int(graph.degrees().sum()) == 2 * len(edges)


class TestAreFriends:
    def test_agrees_with_edge_set_exhaustively(self, rng):
        n = 100
        edges = {(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.04}
        graph = graph_from_edges(edges, n)
        for u in range(n):
            for v in range(n):
                expected = u != v and ((min(u, v), max(u, v)) in edges)
                assert graph.are_friends(u, v) == expected

    def test_unknown_ids_false(self):
        graph = graph_from_edges([(0, 1)], 2)
        assert not graph.are_friends(0, 99)
        assert not graph.are_friends(-1, 0)

    def test_neighbors_sorted(self, rng):
        graph = random_graph(rng, 50, 0.2)
        for u in range(50):
            nbrs = graph.neighbors(u)
            assert np.all(nbrs[:-1] < nbrs[1:])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 19), st.lists(st.integers(0, 19), max_size=6)),
                max_size=20))
def test_symmetry_and_handshake_property(listings):
    graph = from_listings(listings, n_nodes=20)
    assert int(graph.degrees().sum()) == 2 * graph.n_edges
    for u in range(20):
        for v in graph.neighbors(u):
            assert graph.are_friends(int(v), u)
            assert int(v) != u


def test_edges_each_undirected_edge_once_ascending(rng):
    graph = random_graph(rng, 30, 0.15)
    edges = graph_edges(graph)
    assert len(edges) == graph.n_edges
    assert edges == sorted(edges)
    assert all(u < v and graph.are_friends(u, v) for u, v in edges)
