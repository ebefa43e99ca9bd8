"""Outside-in tracing of the cascademine pipeline.

Nothing under ``src/`` is changed: :func:`patched` swaps the public functions
of each module for timing wrappers, and puts every attribute back on exit.
Spans (name, start, end, parent) are kept in memory and written out at the
end; counters record the size of the work at the same boundaries.

Patch points and their pitfalls:

* ``cascademine.cli`` imports ``ingest_dataset``, ``load_ingest``,
  ``save_ingest``, ``yearly_activity_counts`` and ``build_graph`` by name, so
  they are patched in ``cli`` as well as in their own modules.
* ``census.is_isomorphic`` and ``stats.zeta`` are looked up as module globals
  at call time, so patching the module attribute reaches the inner calls.
* ``FeatureExtractor.extract`` is a method: the wrapper is set on the class.
* ``cli.ALL_STAGES`` holds function objects, so the child drives stages by
  name and opens one ``cli.<stage>`` span per stage itself.
"""

from __future__ import annotations

import inspect
import os
import time
from contextlib import contextmanager
from functools import wraps

import numpy as np

import checks  # the benchmark's own module, next to this file

now = time.perf_counter  # CLOCK_MONOTONIC on Linux: shared with the parent process


class Tracer:
    """In-memory span and counter store for one child process."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self._open: list[int] = []
        self.counters: dict[str, float] = {}

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        self.spans.append((name, now(), 0.0, parent))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            _, start, _, parent = self.spans[index]
            self.spans[index] = (name, start, now(), parent)

    def add(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def set_once(self, name: str, value: float) -> None:
        self.counters.setdefault(name, value)


def _timed(tracer: Tracer, name: str, fn, after=None):
    """Wrap fn in a span; ``after(result, bound_args)`` runs once the span closed."""
    sig = inspect.signature(fn)

    @wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if after is not None:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            after(result, bound.arguments)
        return result

    return wrapper


def _hooks(t: Tracer):
    """Counter hooks: (result, arguments) -> None, keyed by span name."""
    import cascademine.stats as stats

    def ingested(result, a):
        counts = result.drop_counts.values()
        t.set_once("ingest.lines", sum(c.get("lines", 0) for c in counts))
        t.set_once("ingest.retained", sum(c.get("retained", 0) for c in counts))

    def saved_ingest(result, a):
        t.set_once("ingest.cache_bytes", os.path.getsize(a["path"]))

    def graph_built(graph, a):
        t.set_once("social.friend_edges", graph.n_edges)
        t.set_once("social.max_degree", int(graph.degrees().max(initial=0)))

    def cascade_sizes(by_city):
        t.set_once("cascades.count", sum(len(v) for v in by_city.values()))
        t.set_once("cascades.nodes", sum(c.size for v in by_city.values() for c in v))
        t.set_once("cascades.edges", sum(len(c.edges) for v in by_city.values() for c in v))

    def built(by_city, a):
        cascade_sizes(by_city)
        pairs = {(e.business_id, e.user_id)
                 for events in a["events_by_city"].values() for e in events}
        t.set_once("cascades.first_events", len(pairs))

    def written(result, a):
        t.set_once("cascades.store_bytes", os.path.getsize(a["path"]))

    def read(by_city, a):
        cascade_sizes(by_city)
        t.set_once("cascades.store_bytes", os.path.getsize(a["path"]))

    def purity(rows, a):
        t.add("census.buckets", len(rows))
        t.add("census.capped_buckets", sum(1 for r in rows if r.purity is None))

    def isomorphic(result, a):
        if result is not None:
            t.add("census.iso_checked")
            t.add("census.iso_matched", bool(result))

    def fitted(fit, a):
        t.add("stats.fits")
        grid = a["grid"]
        t.add("stats.fit.at_bound", fit.alpha in (float(grid[0]), float(grid[-1])))

    def extracted(vec, a):
        t.counters["features.imputed"] = sum(a["self"].imputed.values())

    def saved_examples(result, a):
        t.set_once("features.examples", len(a["examples"]))

    def gbdt(model, a):
        t.add("learner.gbdt.nodes", sum(len(tree.feature) for tree in model.trees))

    def logreg(model, a):
        t.add("learner.logreg.iters", model.n_iter)
        t.add("learner.logreg.converged", model.n_iter < a["epochs"])

    def zeta(*args, **kwargs):
        t.add("stats.zeta.calls")
        t.add("stats.zeta.evals", np.broadcast(*args, *kwargs.values()).size)
        return original_zeta(*args, **kwargs)

    original_zeta = stats.zeta
    return {
        "ingest.ingest_dataset": ingested, "ingest.save_ingest": saved_ingest,
        "social.build_graph": graph_built, "cascades.build_cascades": built,
        "cascades.write_cascades": written, "cascades.read_cascades": read,
        "census.bucket_purity": purity, "census.is_isomorphic": isomorphic,
        "stats.fit_power_law": fitted, "features.extract": extracted,
        "features.save_examples": saved_examples, "learner.train_gbdt": gbdt,
        "learner.train_logreg": logreg,
    }, zeta


# (module, attribute, also patched in cascademine.cli under the same name)
PATCH_POINTS = (
    ("cascademine.ingest", "ingest_dataset", True),
    ("cascademine.ingest", "save_ingest", True),
    ("cascademine.ingest", "load_ingest", True),
    ("cascademine.social", "build_graph", True),
    ("cascademine.cascades", "build_cascades", False),
    ("cascademine.cascades", "write_cascades", False),
    ("cascademine.cascades", "read_cascades", False),
    ("cascademine.census", "census", False),
    ("cascademine.census", "bucket_purity", False),
    ("cascademine.census", "is_isomorphic", False),
    ("cascademine.stats", "size_distribution", False),
    ("cascademine.stats", "fit_power_law", False),
    ("cascademine.stats", "longest_cascades", False),
    ("cascademine.stats", "export_dot", False),
    ("cascademine.features", "label_cascades", False),
    ("cascademine.features", "balance", False),
    ("cascademine.features", "save_examples", False),
    ("cascademine.features", "load_examples", False),
    ("cascademine.learner", "cross_validate", False),
    ("cascademine.learner", "train_gbdt", False),
    ("cascademine.learner", "train_logreg", False),
)


@contextmanager
def patched(tracer: Tracer):
    """Install the timing wrappers for the duration of the block."""
    import importlib

    import cascademine.cli as cli
    import cascademine.features as features
    import cascademine.stats as stats

    hooks, zeta = _hooks(tracer)
    saved = []  # (owner, attribute, original)

    def swap(owner, attr, new):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    try:
        for module_name, attr, in_cli in PATCH_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            name = f"{module_name.rsplit('.', 1)[1]}.{attr}"
            wrapper = _timed(tracer, name, original, hooks.get(name))
            swap(module, attr, wrapper)
            if in_cli:
                swap(cli, attr, wrapper)
        extract = features.FeatureExtractor.extract
        swap(features.FeatureExtractor, "extract",
             _timed(tracer, "features.extract", extract, hooks["features.extract"]))
        swap(stats, "zeta", zeta)
        swap(cli, "yearly_activity_counts",
             _timed(tracer, "ingest.yearly_activity_counts", cli.yearly_activity_counts))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics from one traced run

# (metric, unit, better); `.s` is inclusive time summed over calls in the timed
# section, `.calls` a call count there. Data counters describe the data and
# may come from set-up stages (restage builds its caches in set-up).
LAYER_METRICS = tuple(
    [(f"cli.{stage}.{kind}", unit, "lower")
     for stage in checks.STAGE_NAMES for kind, unit in (("wall_s", "s"), ("maxrss_mb", "MB"))]
    + [
        ("ingest.ingest_dataset.s", "s", "lower"),
        ("ingest.save_ingest.s", "s", "lower"),
        ("ingest.load_ingest.s", "s", "lower"),
        ("ingest.load_ingest.calls", "count", "lower"),
        ("ingest.lines", "count", "higher"),
        ("ingest.retained_ratio", "ratio", "higher"),
        ("ingest.cache_bytes", "bytes", "lower"),
        ("social.build_graph.s", "s", "lower"),
        ("social.build_graph.calls", "count", "lower"),
        ("social.friend_edges", "count", "higher"),
        ("social.max_degree", "count", "higher"),
        ("cascades.build_cascades.s", "s", "lower"),
        ("cascades.write_cascades.s", "s", "lower"),
        ("cascades.read_cascades.s", "s", "lower"),
        ("cascades.read_cascades.calls", "count", "lower"),
        ("cascades.count", "count", "higher"),
        ("cascades.nodes", "count", "higher"),
        ("cascades.edges", "count", "higher"),
        ("cascades.store_bytes", "bytes", "lower"),
        ("cascades.participant_ratio", "ratio", "higher"),
        ("census.census.s", "s", "lower"),
        ("census.bucket_purity.s", "s", "lower"),
        ("census.is_isomorphic.s", "s", "lower"),
        ("census.is_isomorphic.calls", "count", "lower"),
        ("census.iso_match_ratio", "ratio", "higher"),
        ("census.buckets", "count", "higher"),
        ("census.capped_buckets", "count", "lower"),
        ("stats.size_distribution.s", "s", "lower"),
        ("stats.fit_power_law.s", "s", "lower"),
        ("stats.zeta.calls", "count", "lower"),
        ("stats.zeta.evals", "count", "lower"),
        ("stats.fit.at_bound", "count", "lower"),
        ("stats.longest_cascades.s", "s", "lower"),
        ("stats.export_dot.s", "s", "lower"),
        ("features.label_cascades.s", "s", "lower"),
        ("features.balance.s", "s", "lower"),
        ("features.extract.s", "s", "lower"),
        ("features.extract.calls", "count", "lower"),
        ("features.save_examples.s", "s", "lower"),
        ("features.load_examples.s", "s", "lower"),
        ("features.examples", "count", "higher"),
        ("features.imputed", "count", "lower"),
        ("learner.cross_validate.s", "s", "lower"),
        ("learner.train_gbdt.s", "s", "lower"),
        ("learner.train_gbdt.calls", "count", "lower"),
        ("learner.gbdt.nodes", "count", "lower"),
        ("learner.train_logreg.s", "s", "lower"),
        ("learner.train_logreg.calls", "count", "lower"),
        ("learner.logreg.iters", "count", "lower"),
        ("learner.logreg.converged_ratio", "ratio", "higher"),
    ]
)
LAYERS = ("ingest", "social", "cascades", "census", "stats", "features", "learner")
_SPANNED = {f"{m.rsplit('.', 1)[1]}.{a}" for m, a, _ in PATCH_POINTS} | {"features.extract"}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, counters, t0: float, t1: float) -> dict[str, float]:
    """Every LAYER_METRICS value for one traced run; absent work reads 0."""
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    for name, start, end, _ in spans:
        if t0 <= start and end <= t1:
            total[name] = total.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
    c = counters.get
    derived = {
        "ingest.retained_ratio": _ratio(c("ingest.retained", 0), c("ingest.lines", 0)),
        "cascades.participant_ratio": _ratio(c("cascades.nodes", 0),
                                             c("cascades.first_events", 0)),
        "census.iso_match_ratio": _ratio(c("census.iso_matched", 0),
                                         c("census.iso_checked", 0)),
        "learner.logreg.converged_ratio": _ratio(c("learner.logreg.converged", 0),
                                                 calls.get("learner.train_logreg", 0)),
    }
    out = {}
    for metric, _, _ in LAYER_METRICS:
        if metric.startswith("cli."):
            stage, kind = metric[4:].rsplit(".", 1)
            ran = f"cli.{stage}" in total
            value = total.get(f"cli.{stage}", 0.0) if kind == "wall_s" else \
                (c(metric, 0.0) if ran else 0.0)
        elif metric.endswith(".s"):
            value = total.get(metric[:-2], 0.0)
        elif metric.endswith(".calls") and metric[:-6] in _SPANNED:
            value = calls.get(metric[:-6], 0)
        elif metric in derived:
            value = derived[metric]
        else:
            value = c(metric, 0)
        out[metric] = float(value)
    return out


def layer_totals(spans, t0: float, t1: float) -> dict[str, float]:
    """Time in each layer in the timed section, not double-counting nested calls."""
    by_index = {i: s for i, s in enumerate(spans)}
    out = {layer: 0.0 for layer in LAYERS}
    for name, start, end, parent in spans:
        layer = name.split(".", 1)[0]
        if layer not in out or not (t0 <= start and end <= t1):
            continue
        if parent >= 0 and by_index[parent][0].split(".", 1)[0] == layer:
            continue
        out[layer] += end - start
    return out
