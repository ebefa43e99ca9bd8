#!/usr/bin/env python3
"""Sweep the influence window and report how the cascade population reacts.

The default edge rule draws an edge from every earlier-acting friend with no
time limit; this script quantifies what a finite window would change: number
of cascades, edges, and the size tail. Uses a synthetic dataset unless you
pass an existing cache directory containing ingest.pkl and profiles.npz.
"""

import sys
import tempfile
from pathlib import Path

from cascademine.cascades import build_cascades
from cascademine.ingest import ingest_dataset, load_ingest, load_profiles
from cascademine.synth import SynthConfig, generate_synthetic
from cascademine.util import nearest_rank

WINDOWS = [None, 365, 90, 30, 7, 1]


def load_events_and_graph(cache_dir: str | None):
    if cache_dir:
        events_by_city = load_ingest(Path(cache_dir) / "ingest.pkl").events_by_city
        return events_by_city, load_profiles(Path(cache_dir) / "profiles.npz").graph
    with tempfile.TemporaryDirectory(prefix="window_sweep_") as tmp:
        synth = generate_synthetic(SynthConfig(
            n_users=400, n_businesses=300, n_events=6000,
            friend_prob=0.015, influence_prob=0.1, n_cities=1, seed=7), Path(tmp))
        result = ingest_dataset(synth.paths)
    return result.events_by_city, result.profiles.graph


def main() -> int:
    cache_dir = sys.argv[1] if len(sys.argv) > 1 else None
    events_by_city, graph = load_events_and_graph(cache_dir)
    print(f"{'window':>8} {'cascades':>9} {'edges':>8} {'p50':>5} {'p90':>5} {'max':>5}")
    for window in WINDOWS:
        stores = build_cascades(events_by_city, graph, window).values()
        sizes = sorted(size for store in stores for size in store.sizes.tolist())
        n_edges = sum(len(store.edges) for store in stores)
        label = "inf" if window is None else str(window)
        if sizes:
            print(f"{label:>8} {len(sizes):>9} {n_edges:>8} "
                  f"{nearest_rank(sizes, 50):>5} {nearest_rank(sizes, 90):>5} "
                  f"{sizes[-1]:>5}")
        else:
            print(f"{label:>8} {0:>9} {0:>8} {'-':>5} {'-':>5} {'-':>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
