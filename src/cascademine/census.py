"""Frequent-topology census of cascades via degree-sequence signatures.

The bucket key is the multi-level signature (node count, edge count, sorted
in-degree sequence, sorted out-degree sequence). It is an isomorphism
invariant, so isomorphic cascades always land in the same bucket, but the
converse fails for some shapes from four nodes up; ``bucket_purity`` measures
that collision rate with an exact backtracking isomorphism check, which is
affordable because frequent cascade topologies are tiny.

Signatures have one path, the census's pass over a city's whole edge array:
one ``np.bincount`` each for in- and out-degrees, each sorted within every
cascade by one ``np.sort``, then cascades group by their degree bytes (the
edge count is the in-degrees' sum). Only the distinct signatures become
:class:`TopologySignature` objects, and only the cascades an isomorphism
check compares become :class:`Cascade` views.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from cascademine.cascades import Cascade, CascadeId, CityCascades

DEFAULT_NODE_CAP = 10


@dataclass(frozen=True, slots=True)
class TopologySignature:
    n: int
    m: int
    in_seq: tuple[int, ...]  # sorted nondecreasing, length n
    out_seq: tuple[int, ...]

    def serialize(self) -> str:
        """Canonical ASCII form 'n|m|i,i,...|o,o,...' used as the hash key."""
        return "{}|{}|{}|{}".format(
            self.n, self.m,
            ",".join(map(str, self.in_seq)),
            ",".join(map(str, self.out_seq)),
        )


@dataclass(frozen=True, slots=True)
class CensusRow:
    city: str
    rank: int
    signature: TopologySignature
    representative: CascadeId  # smallest cascade_id in the bucket
    count: int
    share: float


@dataclass(frozen=True, slots=True)
class PurityRow:
    city: str
    signature: TopologySignature
    bucket_size: int
    checked: int  # members (beyond the representative) exactly tested
    purity: float | None  # None when the representative exceeds the node cap


def _adjacency(n: int, edges: Sequence[Sequence[int]]) -> tuple[list[set], list[set]]:
    """Successor and predecessor sets of nodes 0..n-1."""
    succ, pred = [set() for _ in range(n)], [set() for _ in range(n)]
    for u, v in edges:
        succ[u].add(v)
        pred[v].add(u)
    return succ, pred


def digraph_isomorphic(n_a: int, edges_a: Sequence[Sequence[int]],
                       n_b: int, edges_b: Sequence[Sequence[int]]) -> bool:
    """Exact directed-graph isomorphism by backtracking.

    Candidate targets are restricted to nodes with identical (in, out) degree
    pairs and every partial mapping is checked for edge agreement in both
    directions, which prunes hard enough for the small graphs seen here.
    """
    if n_a != n_b:
        return False
    (succ_a, pred_a), (succ_b, pred_b) = _adjacency(n_a, edges_a), _adjacency(n_b, edges_b)

    profile_a = [(len(pred_a[i]), len(succ_a[i])) for i in range(n_a)]
    profile_b = [(len(pred_b[i]), len(succ_b[i])) for i in range(n_b)]
    # equal profiles also mean equal counts of distinct edges
    if sorted(profile_a) != sorted(profile_b):
        return False

    # Map the most constrained nodes first: rare degree profiles, then high degree.
    profile_freq = Counter(profile_a)
    order = sorted(range(n_a),
                   key=lambda i: (profile_freq[profile_a[i]], -sum(profile_a[i]), i))
    mapping = [-1] * n_a
    used = [False] * n_b

    def extend(pos: int) -> bool:
        if pos == n_a:
            return True
        a = order[pos]
        for b in range(n_b):
            if used[b] or profile_b[b] != profile_a[a]:
                continue
            if (a in succ_a[a]) != (b in succ_b[b]):
                continue
            ok = True
            for a2 in succ_a[a]:
                m2 = mapping[a2]
                if m2 >= 0 and m2 not in succ_b[b]:
                    ok = False
                    break
            if ok:
                for a2 in pred_a[a]:
                    m2 = mapping[a2]
                    if m2 >= 0 and m2 not in pred_b[b]:
                        ok = False
                        break
            if ok:
                # Forward edge preservation plus equal edge counts implies a
                # full bijection once every node is mapped, so no reverse scan.
                mapping[a] = b
                used[b] = True
                if extend(pos + 1):
                    return True
                mapping[a] = -1
                used[b] = False
        return False

    return extend(0)


def is_isomorphic(a: Cascade, b: Cascade, node_cap: int = DEFAULT_NODE_CAP) -> bool | None:
    """Exact isomorphism for cascades up to node_cap nodes; None when larger."""
    if a.size > node_cap or b.size > node_cap:
        return None
    return digraph_isomorphic(a.size, a.edges.tolist(), b.size, b.edges.tolist())


def _buckets(cascades: CityCascades) -> list[tuple[TopologySignature, list[int]]]:
    """Signature buckets as member indices in cascade_id order, ranked by
    descending member count with ties broken on the serialized signature."""
    rows, at = len(cascades.nodes), cascades.node_offsets
    sizes, n_edges = np.diff(at), np.diff(cascades.edge_offsets)
    ends = cascades.edges + np.repeat(at[:-1], n_edges)[:, None]  # node rows of the city
    # every node's in- and out-degree, sorted within its cascade (degrees <= rows)
    key = np.repeat(np.arange(len(sizes)), sizes) * (rows + 1)
    indeg, outdeg = (np.sort(np.bincount(ends[:, col], minlength=rows) + key) - key
                     for col in (1, 0))
    ins, outs, bounds = indeg.tobytes(), outdeg.tobytes(), (at * indeg.itemsize).tolist()
    groups: dict[tuple[bytes, bytes], list[int]] = {}
    for j, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        groups.setdefault((ins[lo:hi], outs[lo:hi]), []).append(j)
    buckets = []
    for (in_bytes, out_bytes), members in groups.items():
        in_seq, out_seq = (np.frombuffer(b, indeg.dtype).tolist() for b in (in_bytes, out_bytes))
        sig = TopologySignature(len(in_seq), sum(in_seq), tuple(in_seq), tuple(out_seq))
        buckets.append((-len(members), sig.serialize(), sig, members))
    buckets.sort(key=lambda b: b[:2])
    return [(sig, members) for _, _, sig, members in buckets]


def census(cascades_by_city: Mapping[str, CityCascades],
           max_rank: int = 10) -> dict[str, list[CensusRow]]:
    """Rank topologies per city by frequency; ties break on the serialized
    signature so output order is deterministic."""
    if max_rank <= 0:
        raise ValueError("max_rank must be positive")
    out: dict[str, list[CensusRow]] = {}
    for city in sorted(cascades_by_city):
        cascades = cascades_by_city[city]
        out[city] = [
            CensusRow(city, rank, sig, cascades[members[0]].cascade_id, len(members),
                      len(members) / len(cascades))
            for rank, (sig, members) in enumerate(_buckets(cascades)[:max_rank], start=1)
        ]
    return out


def bucket_purity(cascades: CityCascades, node_cap: int = DEFAULT_NODE_CAP,
                  max_members: int = 50) -> list[PurityRow]:
    """Fraction of each signature bucket exactly isomorphic to its representative.

    Up to ``max_members`` members per bucket (beyond the representative, in
    cascade_id order) are tested. Buckets whose representative exceeds
    node_cap get purity None.
    """
    rows = []
    for sig, members in _buckets(cascades):
        if sig.n > node_cap:
            rows.append(PurityRow(cascades.city, sig, len(members), 0, None))
            continue
        sample = members[1:1 + max_members]
        if not sample:
            rows.append(PurityRow(cascades.city, sig, len(members), 0, 1.0))
            continue
        rep = cascades[members[0]]
        hits = sum(1 for j in sample if is_isomorphic(rep, cascades[j], node_cap))
        rows.append(PurityRow(cascades.city, sig, len(members), len(sample),
                              hits / len(sample)))
    return rows
