import json

from cascademine.cascades import build_cascades
from cascademine.census import census
from cascademine.ingest import ingest_dataset
from cascademine.synth import SynthConfig, generate_synthetic


def ingest_synth(tmp_path, **kwargs):
    cfg = SynthConfig(**kwargs)
    result = generate_synthetic(cfg, tmp_path / "data")
    return result, ingest_dataset(result.paths)


def test_files_parse_with_zero_drops(tmp_path):
    synth, ingested = ingest_synth(tmp_path, n_users=50, n_businesses=10,
                                   n_events=200, seed=7)
    assert ingested.n_events == 200
    for counts in ingested.drop_counts.values():
        assert counts.get("malformed", 0) == 0
        assert counts.get("unknown_business", 0) == 0
        assert counts.get("empty_city", 0) == 0


def test_zero_influence_has_no_truth_edges(tmp_path):
    synth, _ = ingest_synth(tmp_path, n_users=50, n_businesses=10, n_events=200,
                            influence_prob=0.0, seed=3)
    assert synth.n_truth_edges == 0
    assert synth.truth_path.read_text() == ""


def test_truth_edges_reference_real_users_and_businesses(tmp_path):
    synth, ingested = ingest_synth(tmp_path, n_users=40, n_businesses=8,
                                   n_events=150, influence_prob=0.5, seed=11)
    users = set(ingested.user_ids)
    businesses = set(ingested.business_ids)
    n_lines = 0
    with open(synth.truth_path) as fh:
        for line in fh:
            obj = json.loads(line)
            assert obj["src"] in users
            assert obj["dst"] in users
            assert obj["business"] in businesses
            n_lines += 1
    assert n_lines == synth.n_truth_edges


def test_same_seed_byte_identical(tmp_path):
    cfg = dict(n_users=30, n_businesses=6, n_events=100, seed=9)
    r1 = generate_synthetic(SynthConfig(**cfg), tmp_path / "a")
    r2 = generate_synthetic(SynthConfig(**cfg), tmp_path / "b")
    for name in ("business", "user", "review", "tip"):
        p1 = getattr(r1.paths, name)
        p2 = getattr(r2.paths, name)
        assert p1.read_bytes() == p2.read_bytes()
    assert r1.truth_path.read_bytes() == r2.truth_path.read_bytes()


def test_chain_topology_high_influence_gives_paths(tmp_path):
    synth, ingested = ingest_synth(tmp_path, n_users=60, n_businesses=12,
                                   n_events=300, influence_prob=0.9, seed=5,
                                   topology="chain", n_cities=1)
    assert synth.n_truth_edges > 0
    # ground truth: every influence edge connects chain neighbors
    with open(synth.truth_path) as fh:
        for line in fh:
            obj = json.loads(line)
            src = int(obj["src"][1:])
            dst = int(obj["dst"][1:])
            assert abs(src - dst) == 1
    by_city = build_cascades(ingested.events_by_city, ingested.profiles.graph)
    table = census(by_city, max_rank=1)
    (rows,) = table.values()
    top = rows[0].signature
    # chains under strong influence make the top topology a path of > 2 nodes
    assert top.n > 2
    assert max(top.in_seq) <= 2 and max(top.out_seq) <= 2
