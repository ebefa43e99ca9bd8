"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete. The optional full-dataset checks (criterion 10) run only when
CASCADEMINE_YELP_DIR points at a directory with the four dataset files.
"""

import hashlib
import os
import time
from pathlib import Path

import numpy as np
import pytest

from cascademine.cascades import build_cascades
from cascademine.census import bucket_purity, census, digraph_isomorphic
from cascademine.cli import main
from cascademine.features import FEATURE_NAMES, FeatureExtractor, label_cascades
from cascademine.ingest import DatasetPaths, ingest_dataset
from cascademine.learner import (auc_trapezoid, cross_validate, feature_importance,
                                 log_loss, logistic_smooth_grad,
                                 logistic_smooth_objective, roc_curve, train_gbdt,
                                 train_logreg)
from cascademine.stats import fit_power_law
from cascademine.util import nearest_rank
from conftest import as_store, digraph_census, mk_cascade, random_events, random_graph
from oracles import (DiscretePowerLawSampler, all_digraphs, brute_force_business,
                     cascade_edges, cascade_events, graph_edges, mann_whitney_auc,
                     percentile_by_counting, realizable_cascade_graphs, reference_features,
                     signature_key, staged_raw_scores, weakly_connected)
from test_features import mutate_beyond_prefix, random_world


def report(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[ACCEPTANCE {num:02d}] {status}: {description}{suffix}")
    assert ok, f"criterion {num} failed: {description}{suffix}"


def test_criterion_01_cascade_oracle_equivalence():
    start = time.perf_counter()
    failures = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        graph = random_graph(rng, 50, 0.1)
        friend_pairs = {frozenset(e) for e in graph_edges(graph)}
        events = random_events(rng, 50, 10, 200)
        window = None if seed % 2 == 0 else int(rng.integers(1, 30))
        by_business_first = {}
        for e in events:
            d = by_business_first.setdefault(e.business_id, {})
            if e.user_id not in d or e.day < d[e.user_id]:
                d[e.user_id] = e.day
        cascades = build_cascades({"t": events}, graph, window)["t"]
        got_edges, got_comps = {}, {}
        for c in cascades:
            got_edges.setdefault(c.business_id, set()).update(cascade_edges(c))
            got_comps.setdefault(c.business_id, set()).add(
                frozenset(n.user_id for n in cascade_events(c)))
        for business, first in by_business_first.items():
            want_edges, want_comps = brute_force_business(first, friend_pairs, window)
            if (got_edges.get(business, set()) != want_edges
                    or got_comps.get(business, set()) != want_comps):
                failures += 1
    elapsed = time.perf_counter() - start
    report(1, "build_cascades matches brute-force oracle on 100 seeded datasets",
           failures == 0 and elapsed < 10.0,
           f"failures={failures}, {elapsed:.1f}s")


def test_criterion_02_signature_relabeling_invariance():
    rng = np.random.default_rng(2024)
    bad = 0
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        edges = [p for p in pairs if rng.random() < 0.35]
        perm = list(rng.permutation(n))
        relabeled = [(perm[u], perm[v]) for u, v in edges]
        # the two cascades of one store; edgeless draws and isolated nodes included
        if [row.count for row in digraph_census(n, edges, relabeled)] != [2]:
            bad += 1
    report(2, "relabeled cascades land in one census bucket, 1000 random relabelings",
           bad == 0, f"violations={bad}")


def test_criterion_03_signature_vs_exact_isomorphism():
    start = time.perf_counter()

    # census-by-signature equals census-by-isomorphism over all cascade-
    # realizable connected digraphs on <= 3 nodes (relabeled copies included);
    # arbitrary digraphs already collide at this size, but the colliding
    # shapes (e.g. 3-cycles) cannot arise from the temporal edge rule.
    rng = np.random.default_rng(3)
    cascades = []
    idx = 0
    for n in (2, 3):
        for edges, dates in realizable_cascade_graphs(n):
            for _ in range(int(rng.integers(1, 4))):
                perm = list(rng.permutation(n))
                relabeled = sorted((perm[u], perm[v]) for u, v in edges)
                redates = [0] * n
                for u in range(n):
                    redates[perm[u]] = dates[u]
                cascades.append(mk_cascade([(u, redates[u]) for u in range(n)],
                                           relabeled, index=idx))
                idx += 1
    sig_counts = sorted(row.count for row in census({"t": as_store(cascades)}, 10 ** 9)["t"])
    iso_classes: list[tuple[tuple, int]] = []  # ((n, edges), count)
    for c in cascades:
        n, edges = c.size, cascade_edges(c)
        local = {node.user_id: i for i, node in enumerate(cascade_events(c))}
        edges = [(local[u], local[v]) for u, v in edges]
        for i, ((cn, cedges), count) in enumerate(iso_classes):
            if cn == n and digraph_isomorphic(cn, cedges, n, edges):
                iso_classes[i] = ((cn, cedges), count + 1)
                break
        else:
            iso_classes.append(((n, tuple(edges)), 1))
    iso_counts = sorted(count for _, count in iso_classes)
    small_ok = sig_counts == iso_counts

    # a 4-node signature collision must exist, and bucket_purity must see it
    collision = None
    by_sig: dict[str, list] = {}
    for edges in all_digraphs(4):
        if not edges or not weakly_connected(4, edges):
            continue
        key = signature_key(4, edges)
        group = by_sig.setdefault(key, [])
        for other in group:
            if not digraph_isomorphic(4, other, 4, edges):
                collision = (other, edges)
                break
        else:
            if all(not digraph_isomorphic(4, g, 4, edges) for g in group):
                group.append(edges)
        if collision:
            break
    collision_ok = collision is not None

    purity_ok = False
    if collision:
        e1, e2 = collision
        planted = [mk_cascade([(u, u) for u in range(4)], sorted(e1), index=0),
                   mk_cascade([(u, u) for u in range(4)], sorted(e1), index=1),
                   mk_cascade([(u, u) for u in range(4)], sorted(e2), index=2)]
        (row,) = bucket_purity(as_store(planted))
        purity_ok = row.purity is not None and row.purity < 1.0

    elapsed = time.perf_counter() - start
    report(3, "signature census exact at <= 3 nodes; 4-node collision caught by purity",
           small_ok and collision_ok and purity_ok and elapsed < 60.0,
           f"censuses={'=' if small_ok else '!='}, collision={collision_ok}, "
           f"purity_detects={purity_ok}, {elapsed:.1f}s")


def test_criterion_04_power_law_recovery():
    start = time.perf_counter()
    sampler = DiscretePowerLawSampler(alpha=2.0, xmin=2)
    alphas = []
    for seed in range(50):
        rng = np.random.default_rng(seed)
        sizes = sampler.sample(100_000, rng)
        alphas.append(fit_power_law(sizes).alpha)
    hits = sum(1 for a in alphas if abs(a - 2.0) <= 0.1)
    median_off = abs(float(np.median(alphas)) - 2.0)

    rng = np.random.default_rng(999)
    sizes = sampler.sample(20_000, rng)
    f1 = fit_power_law(sizes)
    f2 = fit_power_law(np.repeat(sizes, 2))
    dup_ok = (f1.alpha == f2.alpha and f1.xmin == f2.xmin
              and f1.ks_statistic == f2.ks_statistic)

    elapsed = time.perf_counter() - start
    report(4, "alpha recovered within 0.1 for >= 45/50 seeds; duplication exact",
           hits >= 45 and median_off <= 0.05 and dup_ok and elapsed < 60.0,
           f"hits={hits}/50, |median-2|={median_off:.4f}, dup={dup_ok}, {elapsed:.1f}s")


def test_criterion_05_percentile_labeling():
    rng = np.random.default_rng(5)
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(1, 400))
        values = [int(v) for v in rng.integers(2, 500, size=n)]
        if nearest_rank(sorted(values), 90) != percentile_by_counting(values, 90):
            mismatches += 1

    def path_cascade(size, index):
        return mk_cascade([(i, i) for i in range(size)],
                          [(i, i + 1) for i in range(size - 1)], index=index)

    by_city = {
        "bigtown": [path_cascade(2 + int(s), i)
                    for i, s in enumerate(rng.pareto(1.2, size=400).astype(int))],
        "tinyville": [path_cascade(2, i) for i in range(30)] + [path_cascade(9, 30)],
    }
    result = label_cascades({city: as_store(cs) for city, cs in by_city.items()}, 2, 90.0, 5)
    excluded_names = [city for city, _ in result.excluded]
    exclusion_ok = ("tinyville" in excluded_names and "bigtown" in result.labeled
                    and result.excluded[0][1] < 5)
    report(5, "nearest-rank p90 matches counting oracle; floor exclusion reported",
           mismatches == 0 and exclusion_ok,
           f"mismatches={mismatches}, excluded={result.excluded}")


def test_criterion_06_feature_no_leakage_and_oracle():
    rng = np.random.default_rng(6)
    k = 3
    tables, cascades = random_world(rng, 700)
    eligible = [c for c in cascades if c.size >= k + 1]
    assert len(eligible) >= 500
    eligible = eligible[:500]
    extractor = FeatureExtractor(tables, k=k)
    leaks = 0
    worst = 0.0
    for cascade in eligible:
        # one store of the cascade and its mutants, which share its cascade id
        mutants = list(mutate_beyond_prefix(cascade, k, rng))
        base, *rows = extractor.extract(as_store([cascade, *mutants]), range(1 + len(mutants)))
        leaks += sum(row.tobytes() != base.tobytes() for row in rows)
        ref = reference_features(cascade, k, tables)
        worst = max(worst, max(abs(v - ref[name])
                               for name, v in zip(FEATURE_NAMES, base)))
    report(6, "500 cascades: mutations beyond k leave features bitwise unchanged; "
              "reference oracle agrees", leaks == 0 and worst < 1e-9,
           f"leaks={leaks}, max|delta|={worst:.2e}")


def test_criterion_07_learner_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(7)

    # gradient vs central finite differences
    X = rng.normal(size=(50, 8))
    y = (rng.random(50) < 0.5).astype(np.int64)
    y[:2] = [0, 1]
    Xs = (X - X.mean(0)) / X.std(0)
    grad_ok = True
    eps = 1e-6
    for _ in range(20):
        w, b = rng.normal(size=8), float(rng.normal())
        gw, gb = logistic_smooth_grad(w, b, Xs, y, 0.2)
        for j in range(8):
            e = np.zeros(8)
            e[j] = eps
            fd = (logistic_smooth_objective(w + e, b, Xs, y, 0.2)
                  - logistic_smooth_objective(w - e, b, Xs, y, 0.2)) / (2 * eps)
            if abs(fd - gw[j]) / max(abs(fd), abs(gw[j]), 1e-12) >= 1e-5:
                grad_ok = False
        fd_b = (logistic_smooth_objective(w, b + eps, Xs, y, 0.2)
                - logistic_smooth_objective(w, b - eps, Xs, y, 0.2)) / (2 * eps)
        if abs(fd_b - gb) / max(abs(fd_b), abs(gb), 1e-12) >= 1e-5:
            grad_ok = False

    # GBDT loss nonincreasing per boosting round on assorted datasets
    loss_ok = True
    for ds_seed in range(3):
        dsr = np.random.default_rng(ds_seed)
        Xd = dsr.normal(size=(120, 6))
        yd = (dsr.random(120) < 0.5).astype(np.int64)
        yd[:2] = [0, 1]
        model = train_gbdt(Xd, yd, n_trees=30, max_depth=3)
        losses = [log_loss(raw, yd) for raw in staged_raw_scores(model, Xd)]
        if any(b > a + 1e-12 for a, b in zip(losses, losses[1:])):
            loss_ok = False

    # XOR learnable with depth-2 trees
    bits = rng.integers(0, 2, size=(200, 2))
    Xx = bits + rng.normal(0, 0.08, size=(200, 2))
    yx = (bits[:, 0] ^ bits[:, 1]).astype(np.int64)
    xor_model = train_gbdt(Xx, yx, n_trees=50, max_depth=2, learning_rate=0.1)
    xor_acc = float(np.mean((xor_model.predict_proba(Xx) >= 0.5) == yx))

    # trapezoid AUC equals Mann-Whitney
    auc_ok = True
    for _ in range(20):
        scores = np.round(rng.random(100), 2)
        ya = (rng.random(100) < 0.5).astype(np.int64)
        ya[:2] = [0, 1]
        if abs(auc_trapezoid(roc_curve(scores, ya))
               - mann_whitney_auc(scores, ya)) >= 1e-10:
            auc_ok = False

    # permutation null: accuracy and AUC near chance for >= 95% of seeds
    n_seeds = 40
    inside = 0
    for seed in range(n_seeds):
        nr = np.random.default_rng(seed)
        Xn = nr.normal(size=(500, 30))
        yn = np.array([0, 1] * 250)
        nr.shuffle(yn)
        rep = cross_validate(Xn, yn,
                             lambda X, y: train_logreg(X, y, l2=1e-2, epochs=200),
                             folds=5, seed=seed)
        if 0.4 <= rep.mean_accuracy <= 0.6 and 0.4 <= rep.auc <= 0.6:
            inside += 1

    elapsed = time.perf_counter() - start
    report(7, "gradient, monotone loss, XOR, AUC identity, permutation null",
           grad_ok and loss_ok and xor_acc >= 0.95 and auc_ok
           and inside >= int(0.95 * n_seeds) and elapsed < 120.0,
           f"grad={grad_ok}, loss={loss_ok}, xor={xor_acc:.3f}, auc_id={auc_ok}, "
           f"null_inside={inside}/{n_seeds}, {elapsed:.1f}s")


def test_criterion_08_planted_signal_prediction():
    rng = np.random.default_rng(8)
    n = 600
    y = np.array([0, 1] * (n // 2))
    rng.shuffle(y)
    X = rng.normal(size=(n, 30))
    # Bayes error 10%: threshold midway between class means of feature 0
    sigma = 0.5 / 1.2816
    X[:, 0] = y + rng.normal(0, sigma, size=n)
    report8 = cross_validate(X, y, lambda X, y: train_gbdt(X, y), folds=5, seed=0)
    top_feature = feature_importance(train_gbdt(X, y), FEATURE_NAMES)[0][0]
    ok = (report8.mean_accuracy >= 0.85 and report8.auc >= 0.90
          and top_feature == FEATURE_NAMES[0])
    report(8, "planted-signal CV: acc >= 0.85, AUC >= 0.90, planted feature first",
           ok, f"acc={report8.mean_accuracy:.3f}, auc={report8.auc:.3f}, "
               f"top={top_feature}")


def _pipeline_args(data: Path, cache: Path) -> list[str]:
    return ["--business", str(data / "business.json"), "--user", str(data / "user.json"),
            "--review", str(data / "review.json"), "--tip", str(data / "tip.json"),
            "--cache-dir", str(cache), "--k", "2", "--min-big-cascades", "3",
            "--n-trees", "30", "--seed", "11"]


def test_criterion_09_full_run_determinism(tmp_path):
    data = tmp_path / "data"
    assert main(["synth", "--out-dir", str(data), "--users", "250", "--businesses",
                 "150", "--events", "3500", "--friend-prob", "0.02",
                 "--influence-prob", "0.12", "--cities", "1", "--seed", "7"]) == 0
    hashes = []
    for sub in ("runA", "runB"):
        cache = tmp_path / sub
        assert main(["all", *_pipeline_args(data, cache)]) == 0
        digest = {}
        for path in sorted(cache.rglob("*")):
            if path.is_file():
                digest[str(path.relative_to(cache))] = hashlib.sha256(
                    path.read_bytes()).hexdigest()
        hashes.append(digest)
    same = hashes[0] == hashes[1]
    report(9, "two `all` runs with one seed produce byte-identical outputs",
           same, f"{len(hashes[0])} files compared")


def _find_yelp_paths(root: Path) -> DatasetPaths | None:
    def locate(kind: str) -> Path | None:
        for name in (f"{kind}.json", f"yelp_academic_dataset_{kind}.json"):
            if (root / name).is_file():
                return root / name
        return None

    found = {kind: locate(kind) for kind in ("business", "user", "review", "tip")}
    if any(p is None for p in found.values()):
        return None
    return DatasetPaths(**found)


def test_criterion_10_optional_full_dataset():
    root = os.environ.get("CASCADEMINE_YELP_DIR")
    if not root:
        pytest.skip("CASCADEMINE_YELP_DIR not set; full-dataset checks skipped")
    paths = _find_yelp_paths(Path(root))
    if paths is None:
        pytest.skip(f"dataset files not found under {root}")

    result = ingest_dataset(paths)
    by_city = build_cascades(result.events_by_city, result.profiles.graph)
    # analysis population: cities with enough cascades to rank topologies
    big = {city: cs for city, cs in by_city.items() if len(cs) >= 100}
    table = census(big, max_rank=1)

    g1 = "2|1|0,1|0,1"
    g1_ok = all(rows and rows[0].signature.serialize() == g1 and rows[0].share > 0.5
                for rows in table.values())
    karlsruhe_ok = True
    if "karlsruhe" in table and table["karlsruhe"]:
        row = table["karlsruhe"][0]
        karlsruhe_ok = row.signature.serialize() == g1 and row.share > 0.8

    largest = sorted(big, key=lambda c: -len(big[c]))[:8]
    slopes = {}
    for city in largest:
        fit = fit_power_law([c.size for c in big[city]])
        slopes[city] = -fit.alpha
    slope_ok = all(-2.35 <= s <= -1.50 for s in slopes.values())

    labeling = label_cascades(by_city, 5, 90.0, 50)
    from cascademine.features import balance, build_examples
    balanced = balance(labeling.labeled, 0)
    extractor = FeatureExtractor(result.profiles, 5)
    clf_ok = True
    for city in sorted(balanced):
        examples = build_examples(by_city, {city: balanced[city]}, extractor)
        X, ycls = examples["features"], examples["label"]
        if len(ycls) < 10:
            continue
        rep = cross_validate(X, ycls, lambda A, b: train_gbdt(A, b), folds=5, seed=0)
        null_accs = []
        for s in range(20):
            nr = np.random.default_rng(s)
            yp = ycls.copy()
            nr.shuffle(yp)
            null = cross_validate(X, yp,
                                  lambda A, b: train_logreg(A, b, l2=1e-2, epochs=200),
                                  folds=5, seed=s)
            null_accs.append(null.mean_accuracy)
        threshold = 0.5 + 3.0 * float(np.std(null_accs))
        if rep.mean_accuracy <= threshold:
            clf_ok = False

    report(10, "full-dataset properties (G1 dominance, exponent band, classifier)",
           g1_ok and karlsruhe_ok and slope_ok and clf_ok,
           f"g1={g1_ok}, karlsruhe={karlsruhe_ok}, slopes={slopes}, clf={clf_ok}")
