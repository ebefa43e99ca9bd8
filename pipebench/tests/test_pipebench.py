"""Tests of the pipeline benchmark itself: generator, tracing wrappers, smoke runs."""

from __future__ import annotations

import hashlib
import importlib
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

TINY = gen.Spec(users=600, mean_degree=5.0, degree_gamma=2.3, degree_cap=60,
                businesses=120, zipf=0.9, city_shares=(0.8, 0.2), cascades=(300, 20),
                size_alpha=2.5, size_max=30, background=800)


def _digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def test_generator_is_deterministic_per_seed(tmp_path):
    a = gen.generate(TINY, 5, tmp_path / "a")
    b = gen.generate(TINY, 5, tmp_path / "b")
    assert _digest(tmp_path / "a") == _digest(tmp_path / "b")
    assert a.truth == b.truth and a.events == b.events


def test_different_seeds_give_different_inputs(tmp_path):
    gen.generate(TINY, 5, tmp_path / "a")
    gen.generate(TINY, 6, tmp_path / "b")
    assert _digest(tmp_path / "a") != _digest(tmp_path / "b")


def test_planted_sizes_do_not_depend_on_the_seed():
    sizes = gen.planted_sizes(1000, 2.0, 500)
    assert sizes[0] >= 50 * sizes[len(sizes) // 2]
    assert (sizes >= 2).all() and (sizes <= 500).all()


def test_generated_inputs_exercise_every_ingest_drop_counter(tmp_path):
    from cascademine.ingest import DatasetPaths, ingest_dataset

    g = gen.generate(TINY, 3, tmp_path)
    p = g.paths
    result = ingest_dataset(DatasetPaths(p["business"], p["user"], p["review"], p["tip"]))
    drops = result.drop_counts
    assert drops["business"]["malformed"] and drops["business"]["empty_city"]
    assert drops["user"]["malformed"]
    for kind in ("review", "tip"):
        assert drops[kind]["malformed"] and drops[kind]["unknown_business"]
    assert result.n_events == g.events
    # interned ids equal generator indices, which the truth check relies on
    assert result.user_ids == [f"u{i:06d}" for i in range(TINY.users)]


def _module_state():
    names = {m for m, _, _ in tracing.PATCH_POINTS} | {"cascademine.cli"}
    state = {}
    for name in names:
        module = importlib.import_module(name)
        state[name] = dict(vars(module))
    features = importlib.import_module("cascademine.features")
    state["FeatureExtractor"] = dict(vars(features.FeatureExtractor))
    return state


def test_wrappers_restore_every_attribute():
    import cascademine.census as census
    import cascademine.cli as cli
    import cascademine.features as features
    import cascademine.stats as stats

    before = _module_state()
    originals = (cli.ingest_dataset, census.is_isomorphic, stats.zeta,
                 features.FeatureExtractor.extract)
    with pytest.raises(RuntimeError):
        with tracing.patched(tracing.Tracer()):
            assert cli.ingest_dataset is not originals[0]
            assert census.is_isomorphic is not originals[1]
            assert stats.zeta is not originals[2]
            assert features.FeatureExtractor.extract is not originals[3]
            raise RuntimeError("leave the block by an exception")
    after = _module_state()
    for name in before:
        assert before[name].keys() == after[name].keys(), name
        for attr, value in before[name].items():
            assert after[name][attr] is value, f"{name}.{attr}"


def test_span_nesting_and_layer_totals():
    t = tracing.Tracer()
    with t.span("cli.fit"):
        with t.span("stats.fit_power_law"):
            with t.span("stats.fit_power_law"):
                pass
    (n0, s0, e0, p0), (n1, s1, e1, p1), (n2, s2, e2, p2) = t.spans
    assert (p0, p1, p2) == (-1, 0, 1)
    assert s0 <= s1 <= s2 <= e2 <= e1 <= e0
    totals = tracing.layer_totals(t.spans, s0, e0)
    assert totals["stats"] == pytest.approx(e1 - s1)  # the nested call is not counted twice


@pytest.fixture()
def tiny_workloads(monkeypatch, tmp_path):
    full = gen.Spec(users=800, mean_degree=4.0, degree_gamma=2.6, degree_cap=50,
                    businesses=200, zipf=0.8, city_shares=(0.8, 0.2), cascades=(500, 40),
                    size_alpha=3.0, size_max=30, background=400)
    heavy = gen.Spec(users=800, mean_degree=6.0, degree_gamma=2.2, degree_cap=150,
                     businesses=150, zipf=1.0, city_shares=(0.85, 0.15), cascades=(400, 30),
                     size_alpha=2.0, size_max=300, background=600)
    monkeypatch.setattr(gen, "SPECS", {"full_paper": full, "heavy_tail": heavy})
    monkeypatch.setattr(run, "PIPELINE_FLAGS", ("--n-trees", "3", "--folds", "2",
                                                "--min-big-cascades", "5"))
    monkeypatch.setattr(run, "MIN_RUNS", 2)
    (tmp_path / "src").symlink_to(ROOT / "src")
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize("workload,trace", [("full_paper", False), ("heavy_tail", False),
                                            ("restage", True)])
def test_smoke_run_of_every_workload(tiny_workloads, capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(int(trace))])
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()
    line = json.loads(out[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["failed"] == 0 and line["correct"], out
    wanted = tracing.LAYER_METRICS + (run.OVERHEAD,) if trace else run.END_TO_END
    assert sorted(line["metrics"]) == sorted(name for name, _, _ in wanted)
    report = tiny_workloads / ".pipebench" / "reports" / \
        f"{workload}-seed3{'-trace' if trace else ''}.json"
    rep = json.loads(report.read_text())
    assert rep["export_digest"] and rep["profile"]["events"] > 0
    assert rep["probe_setup_s"]
    if trace:
        assert line["metrics"]["cascades.read_cascades.calls"]["value"] == 7
        assert line["metrics"]["learner.train_gbdt.calls"]["value"] == 0


def test_stage_table_matches_the_cli():
    from cascademine import cli

    assert checks.ALL == tuple(name for name, _ in cli.ALL_STAGES)
    assert set(checks.STAGE_NAMES) == set(cli.STAGE_BY_NAME) == set(checks.ALL) | {"export-dot"}


def test_benchmark_json_matches_the_metrics_printed():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == \
        list(tracing.LAYER_METRICS + (run.OVERHEAD,))


def test_refuses_to_run_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "full_paper", "--seed", "1", "--seconds", "1",
                     "--trace", "0"]) != 0
    assert capsys.readouterr().out == ""
