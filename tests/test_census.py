import pytest
from hypothesis import given, settings

from cascademine.census import (CensusRow, PurityRow, bucket_purity, census, digraph_isomorphic,
                                is_isomorphic)
from conftest import as_store, as_stores, digraph_census, mk_cascade, small_stores, stored
from oracles import (all_digraphs, realizable_cascade_graphs, reference_buckets,
                     signature_key, weakly_connected)


def relabel(n, edges, perm):
    return [(perm[u], perm[v]) for u, v in edges]


def census_signature(n, edges):
    """The signature the census gives a digraph on nodes 0..n-1, alone in its store."""
    (row,) = digraph_census(n, edges)
    return row.signature


class TestSignature:
    def test_single_edge(self):
        sig = census_signature(2, [(0, 1)])
        assert (sig.n, sig.m) == (2, 1)
        assert sig.in_seq == (0, 1)
        assert sig.out_seq == (0, 1)

    def test_reciprocal_pair(self):
        sig = census_signature(2, [(0, 1), (1, 0)])
        assert (sig.n, sig.m, sig.in_seq, sig.out_seq) == (2, 2, (1, 1), (1, 1))

    def test_out_star(self):
        sig = census_signature(4, [(0, 1), (0, 2), (0, 3)])
        assert sig.in_seq == (0, 1, 1, 1)
        assert sig.out_seq == (0, 0, 0, 3)

    def test_degree_sums_match_edge_count(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 9))
            pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
            take = rng.random(len(pairs)) < 0.3
            edges = [p for p, t in zip(pairs, take) if t]
            sig = census_signature(n, edges)
            assert sum(sig.in_seq) == sum(sig.out_seq) == sig.m == len(edges)

    def test_invariant_under_relabeling(self, rng):
        # a digraph and its relabeling, two cascades of one store, share a
        # bucket; the fixed cases have no edges or isolated nodes
        cases = [(2, []), (5, []), (4, [(0, 1)]), (6, [(1, 3), (3, 1), (3, 4)])]
        for _ in range(300):
            n = int(rng.integers(2, 9))
            pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
            take = rng.random(len(pairs)) < 0.35
            cases.append((n, [p for p, t in zip(pairs, take) if t]))
        for n, edges in cases:
            perm = list(rng.permutation(n))
            assert [row.count for row in digraph_census(n, edges, relabel(n, edges, perm))] \
                == [2], (n, edges, perm)

    def test_cascade_wrapper(self):
        cascade = mk_cascade([(10, 0), (20, 1)], [(10, 20)])
        (row,) = census(as_stores({"testville": [cascade]}))["testville"]
        sig = row.signature
        assert (sig.n, sig.m, sig.in_seq, sig.out_seq) == (2, 1, (0, 1), (0, 1))

    def test_serialization_canonical(self):
        sig = census_signature(3, [(0, 1), (0, 2)])
        assert sig.serialize() == "3|2|0,1,1|0,0,2"


class TestIsomorphism:
    def test_relabeled_graphs_isomorphic(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 7))
            pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
            take = rng.random(len(pairs)) < 0.4
            edges = [p for p, t in zip(pairs, take) if t]
            perm = list(rng.permutation(n))
            assert digraph_isomorphic(n, edges, n, relabel(n, edges, perm))

    def test_path_vs_star_not_isomorphic(self):
        assert not digraph_isomorphic(3, [(0, 1), (1, 2)], 3, [(0, 1), (0, 2)])

    def test_direction_matters(self):
        assert not digraph_isomorphic(2, [(0, 1)], 2, [(1, 0)]) or True
        # reversed single edge IS isomorphic (swap labels); a real direction case:
        a = [(0, 1), (0, 2)]  # out-star
        b = [(1, 0), (2, 0)]  # in-star
        assert not digraph_isomorphic(3, a, 3, b)

    def test_node_cap_returns_none(self):
        big = mk_cascade([(i, i) for i in range(12)],
                         [(i, i + 1) for i in range(11)])
        small = mk_cascade([(0, 0), (1, 1)], [(0, 1)])
        assert is_isomorphic(big, small, node_cap=10) is None
        assert is_isomorphic(small, small, node_cap=10) is True

    def test_exhaustive_3_node_cascades_signature_equals_isomorphism(self):
        # On cascade-realizable digraphs the signature pins down the class at
        # this size. Arbitrary digraphs collide already (see the next test):
        # a 3-cycle plus chord matches two reciprocal pairs sharing a hub,
        # but neither a cycle nor a lone same-day edge can occur in a cascade.
        for n in (2, 3):
            by_sig = {}
            for edges, _ in realizable_cascade_graphs(n):
                by_sig.setdefault(signature_key(n, edges), []).append(edges)
            for group in by_sig.values():
                rep = group[0]
                for other in group[1:]:
                    assert digraph_isomorphic(n, rep, n, other)

    def test_three_node_arbitrary_digraphs_do_collide(self):
        hub = [(0, 1), (1, 0), (0, 2), (2, 0)]
        cycle_chord = [(0, 1), (1, 2), (2, 0), (0, 2)]
        assert signature_key(3, hub) == signature_key(3, cycle_chord)
        assert not digraph_isomorphic(3, hub, 3, cycle_chord)

    def test_four_node_collision_exists(self):
        pair = find_signature_collision(4)
        assert pair is not None
        (e1, e2) = pair
        assert signature_key(4, e1) == signature_key(4, e2)
        assert not digraph_isomorphic(4, e1, 4, e2)


def find_signature_collision(n):
    """First signature-equal, non-isomorphic pair of weakly connected digraphs."""
    by_sig = {}
    for edges in all_digraphs(n):
        if not edges or not weakly_connected(n, edges):
            continue
        key = signature_key(n, edges)
        group = by_sig.setdefault(key, [])
        for other in group:
            if not digraph_isomorphic(n, other, n, edges):
                return other, edges
        # keep one representative per isomorphism class to bound the scan
        if all(not digraph_isomorphic(n, g, n, edges) for g in group):
            group.append(edges)
    return None


class TestCensus:
    def test_counts_and_shares(self):
        g1a = mk_cascade([(0, 0), (1, 1)], [(0, 1)], index=0)
        g1b = mk_cascade([(2, 0), (3, 2)], [(2, 3)], index=1)
        recip = mk_cascade([(4, 0), (5, 0)], [(4, 5), (5, 4)], index=2)
        table = census({"t": as_store([g1a, g1b, recip])}, max_rank=5)["t"]
        assert table[0].count == 2
        assert table[0].share == pytest.approx(2 / 3)
        assert table[0].signature.serialize() == "2|1|0,1|0,1"
        assert table[0].representative == g1a.cascade_id
        assert sum(r.share for r in table) == pytest.approx(1.0, abs=1e-12)

    def test_ties_broken_by_serialization(self):
        g1 = mk_cascade([(0, 0), (1, 1)], [(0, 1)], index=0)
        recip = mk_cascade([(2, 0), (3, 0)], [(2, 3), (3, 2)], index=1)
        table = census({"t": as_store([g1, recip])}, max_rank=5)["t"]
        assert [r.signature.serialize() for r in table] == ["2|1|0,1|0,1", "2|2|1,1|1,1"]

    def test_max_rank_truncates(self):
        cascades = [
            mk_cascade([(0, 0), (1, 1)], [(0, 1)], index=0),
            mk_cascade([(2, 0), (3, 0)], [(2, 3), (3, 2)], index=1),
            mk_cascade([(4, 0), (5, 1), (6, 2)], [(4, 5), (5, 6)], index=2),
        ]
        table = census({"t": as_store(cascades)}, max_rank=2)["t"]
        assert len(table) == 2

    def test_shares_sum_to_one_random(self, rng):
        cascades = []
        for i in range(200):
            n = int(rng.integers(2, 6))
            nodes = [(100 * i + j, int(rng.integers(0, 5))) for j in range(n)]
            users = [u for u, _ in nodes]
            edges = {(users[int(rng.integers(0, n))], users[int(rng.integers(0, n))])
                     for _ in range(n)}
            edges = [(u, v) for u, v in edges if u != v]
            if not edges:
                edges = [(users[0], users[1])]
            cascades.append(mk_cascade(nodes, edges, index=i))
        table = census({"t": as_store(cascades)}, max_rank=10 ** 9)["t"]
        assert abs(sum(r.share for r in table) - 1.0) < 1e-12
        assert sum(r.count for r in table) == len(cascades)


    def test_census_and_purity_rank_the_same_buckets(self, rng):
        cascades = []
        for i in rng.permutation(120):
            n = int(rng.integers(2, 5))
            users = [100 * int(i) + j for j in range(n)]
            edges = [(users[j], users[j + 1]) for j in range(n - 1)]
            if rng.random() < 0.4:
                edges.append((users[1], users[0]))
            cascades.append(mk_cascade([(u, j) for j, u in enumerate(users)], edges,
                                       index=int(i)))
        table = census(as_stores({"testville": cascades}), max_rank=10 ** 9)["testville"]
        purity = bucket_purity(as_store(cascades))
        assert [(r.signature, r.count) for r in table] == [
            (r.signature, r.bucket_size) for r in purity]
        for row in table:
            members = [c.cascade_id for c in cascades
                       if signature_key(c.size, c.edges.tolist()) == row.signature.serialize()]
            assert row.representative == min(members)


class TestBucketPurity:
    def test_pure_bucket_of_relabeled_g1(self):
        cascades = [mk_cascade([(10 * i, 0), (10 * i + 1, 1)],
                               [(10 * i, 10 * i + 1)], index=i) for i in range(3)]
        (row,) = bucket_purity(as_store(cascades))
        assert row.purity == 1.0
        assert row.bucket_size == 3
        assert row.checked == 2

    def test_planted_collision_detected(self):
        e1, e2 = find_signature_collision(4)
        def as_cascade(edges, index):
            users = sorted({u for e in edges for u in e})
            return mk_cascade([(u, u) for u in users], edges, index=index)
        cascades = [as_cascade(e1, 0), as_cascade(e1, 1), as_cascade(e2, 2)]
        (row,) = bucket_purity(as_store(cascades))
        assert row.bucket_size == 3
        assert row.purity is not None and row.purity < 1.0

    def test_all_small_cascade_buckets_pure(self, rng):
        # every bucket of realizable graphs with n <= 3 must be pure:
        # the signature identifies the isomorphism class exactly at that size
        cascades = []
        idx = 0
        for edges, dates in realizable_cascade_graphs(3):
            perm = list(rng.permutation(3))
            relabeled = sorted((perm[u], perm[v]) for u, v in edges)
            relabeled_dates = [0] * 3
            for u in range(3):
                relabeled_dates[perm[u]] = dates[u]
            cascades.append(mk_cascade(
                [(u, dates[u]) for u in range(3)], edges, index=idx))
            cascades.append(mk_cascade(
                [(u, relabeled_dates[u]) for u in range(3)], relabeled, index=idx + 1))
            idx += 2
        for row in bucket_purity(as_store(cascades)):
            assert row.purity == 1.0

    def test_oversize_representative_skipped(self):
        big = mk_cascade([(i, i) for i in range(12)], [(i, i + 1) for i in range(11)])
        (row,) = bucket_purity(as_store([big]), node_cap=10)
        assert row.purity is None
        assert row.checked == 0


@settings(max_examples=80, deadline=None)
@given(small_stores())
def test_census_and_purity_match_per_cascade_buckets(by_city):
    node_cap, max_members = 8, 3
    for cascades_by_city in (as_stores(by_city), stored(by_city)):
        table = census(cascades_by_city, max_rank=3)
        for city, cascades in cascades_by_city.items():
            buckets = reference_buckets(list(cascades))
            assert [(r.rank, r.signature.serialize(), r.representative, r.count, r.share)
                    for r in table[city]] == [
                (rank, key, members[0].cascade_id, len(members), len(members) / len(cascades))
                for rank, (key, members) in enumerate(buckets[:3], start=1)]
            assert all(isinstance(r, CensusRow) for r in table[city])
            want = []
            for key, members in buckets:
                rep, sample = members[0], members[1:1 + max_members]
                if rep.size > node_cap:
                    want.append((key, len(members), 0, None))
                else:
                    hits = sum(bool(is_isomorphic(rep, c, node_cap)) for c in sample)
                    want.append((key, len(members), len(sample),
                                 hits / len(sample) if sample else 1.0))
            rows = bucket_purity(cascades, node_cap, max_members)
            assert all(isinstance(r, PurityRow) and r.city == city for r in rows)
            assert [(r.signature.serialize(), r.bucket_size, r.checked, r.purity)
                    for r in rows] == want
