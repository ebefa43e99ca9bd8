"""Correctness checks on one run's outputs, and the input profile of a workload.

A run fails when the child exits non-zero, leaves an expected output missing,
produces outputs that differ from the first run of the same code and seed,
or fails a content check below. Content checks read only the documented
exports (CSV, JSON lines, JSON), never the binary caches.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

# The CLI's stages in `cascademine all` order, with export-dot after longest:
# (stage, outputs as listed in the README's output table, run by `all`).
# run.py and tracing.py take their stage lists from here.
STAGES = (
    ("ingest", ("ingest.pkl", "yearly.csv"), True),
    ("build-cascades", ("cascades.jsonl",), True),
    ("summary", ("summary.csv",), True),
    ("census", ("census.csv",), True),
    ("purity", ("purity.csv",), True),
    ("fit", ("distribution.csv", "fit.csv"), True),
    ("longest", ("longest.csv",), True),
    ("export-dot", ("dot/*.dot",), False),
    ("features", ("features.csv", "features.pkl", "labeling.json"), True),
    ("train", ("models.pkl", "importance.csv"), True),
    ("evaluate", ("eval.json", "accuracy.csv", "roc.csv"), True),
)
STAGE_NAMES = tuple(name for name, _, _ in STAGES)
STAGE_OUTPUTS = {name: outputs for name, outputs, _ in STAGES}
ALL = tuple(name for name, _, in_all in STAGES if in_all)  # what `cascademine all` runs
# What a user reruns after changing analysis config: everything between the
# cascade store and the learner.
ANALYSIS = STAGE_NAMES[STAGE_NAMES.index("summary"):STAGE_NAMES.index("train")]
EXPORT_SUFFIXES = (".csv", ".jsonl", ".json", ".dot")


class CheckFailed(Exception):
    pass


def missing_outputs(cache: Path, stages) -> list[str]:
    return [pattern for stage in stages for pattern in STAGE_OUTPUTS[stage]
            if not any(cache.glob(pattern))]


def file_digests(cache: Path) -> dict[str, str]:
    return {str(p.relative_to(cache)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(cache.rglob("*")) if p.is_file()}


def export_digest(digests: dict[str, str]) -> str:
    """One digest over the text exports, the files a perf change keeps byte-identical."""
    h = hashlib.sha256()
    for name in sorted(digests):
        if name.endswith(EXPORT_SUFFIXES):
            h.update(f"{name}\0{digests[name]}\n".encode())
    return h.hexdigest()


def truth_recall(cache: Path, truth) -> float:
    """Share of generated influence edges found as cascade edges at their business.

    Relies on the interning rule (sorted raw ids) and the generator's id
    layout, under which interned ids equal generator indices.
    """
    found = set()
    with open(cache / "cascades.jsonl", encoding="utf-8") as fh:
        for line in fh:
            obj = json.loads(line)
            b = obj["business_id"]
            found.update((b, src, dst) for src, dst in obj["edges"])
    if not truth:
        raise CheckFailed("generator produced no truth edges")
    return sum(1 for edge in truth if tuple(edge) in found) / len(truth)


def yearly_events(cache: Path) -> int:
    with open(cache / "yearly.csv", encoding="ascii") as fh:
        return sum(int(r["review_count"]) + int(r["tip_count"]) for r in csv.DictReader(fh))


def auc_means(cache: Path) -> tuple[float, float]:
    """Mean pooled out-of-fold AUC over included cities: (gbdt, logreg)."""
    report = json.loads((cache / "eval.json").read_text(encoding="utf-8"))
    cities = report["cities"].values()
    if not cities:
        raise CheckFailed("eval.json has no included city")
    out = []
    for model in ("gbdt", "logreg"):
        aucs = [c[model]["auc"] for c in cities]
        if not all(isinstance(a, float) and 0.0 <= a <= 1.0 for a in aucs):
            raise CheckFailed(f"eval.json {model} AUC out of range: {aucs}")
        out.append(sum(aucs) / len(aucs))
    return out[0], out[1]


def profile(cache: Path, generated) -> dict:
    """Input profile of a workload: what the generator made and what the pipeline saw."""
    sizes: dict[str, dict[int, int]] = {}
    with open(cache / "distribution.csv", encoding="utf-8") as fh:
        for r in csv.DictReader(fh):
            sizes.setdefault(r["city"], {})[int(r["size"])] = int(r["count"])
    with open(cache / "summary.csv", encoding="ascii") as fh:
        summary = {r["city"]: r for r in csv.DictReader(fh)}
    with open(cache / "fit.csv", encoding="utf-8") as fh:
        alpha = {r["city"]: float(r["alpha"]) for r in csv.DictReader(fh)}
    labeling = json.loads((cache / "labeling.json").read_text(encoding="utf-8"))
    with open(cache / "features.csv", encoding="utf-8") as fh:
        examples = sum(1 for _ in fh) - 1
    cities = {}
    for city, hist in sorted(sizes.items()):
        total = sum(hist.values())
        cities[city] = {
            "cascades": total,
            "two_node_share": hist.get(2, 0) / total,
            "p50": int(summary[city]["p50_size"]),
            "p90": int(summary[city]["p90_size"]),
            "max": int(summary[city]["max_size"]),
            "alpha": alpha.get(city),
        }
    return {
        "events": generated.events,
        "users": generated.users,
        "friend_edges": generated.friend_edges,
        "max_degree": generated.max_degree,
        "cities": cities,
        "examples": examples,
        "excluded_cities": [city for city, _ in labeling["excluded"]],
    }


def regime_problems(workload_spec: str, prof: dict) -> list[str]:
    """Why the inputs are not in the regime the workload was chosen for, if so."""
    problems = []
    cities = prof["cities"]
    if workload_spec == "full_paper":
        for city, p in cities.items():
            if p["two_node_share"] <= 0.5:
                problems.append(f"{city}: two-node share {p['two_node_share']:.3f} <= 0.5")
        if not prof["excluded_cities"]:
            problems.append("no city falls under min_big_cascades")
    elif workload_spec == "heavy_tail":
        biggest = max(cities.values(), key=lambda p: p["max"])
        if biggest["max"] < 50 * biggest["p50"]:
            problems.append(f"max size {biggest['max']} < 50 x p50 {biggest['p50']}")
    if prof["examples"] <= 0:
        problems.append("no balanced examples")
    return problems
