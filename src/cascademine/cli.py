"""Pipeline CLI: composable subcommands over a shared cache directory.

Each stage reads the caches of its prerequisites and writes versioned outputs
of its own; rerunning a stage with unchanged inputs and seed reproduces its
files byte for byte. Exit codes: 0 success, 1 config error, 2 missing
prerequisite stage, 3 data error.

The argument parser is built once per process, with the config flags defined
once on a parent parser that every stage subcommand shares, so ``main()`` may
run stage after stage in one process and each call pays only for its stage.
"""

from __future__ import annotations

import argparse
import re
import sys
from functools import cache, partial
from pathlib import Path

import cascademine.cascades as casc
import cascademine.census as census_mod
import cascademine.features as feat
import cascademine.learner as learn
import cascademine.stats as stats_mod
from cascademine.config import RunConfig, build_config, parse_value
from cascademine.errors import ConfigError, DataError, MissingStageError
from cascademine.ingest import (DatasetPaths, ingest_dataset, load_ingest, load_profiles,
                                save_ingest, save_profiles, yearly_activity_counts)
from cascademine.social import build_graph  # noqa: F401; pipebench/tracing.py patches it here
from cascademine.synth import SynthConfig, generate_synthetic
from cascademine.util import fork_map, save_cache, substream_seed, write_csv, write_json

SCHEMA_VERSION = 1

INGEST_CACHE = "ingest.pkl"
PROFILES_CACHE = "profiles.npz"
CASCADES_CACHE = "cascades.npz"

MODELS_CACHE_FORMAT = "cascademine.models"


def _require(cfg: RunConfig, name: str, stage: str) -> Path:
    path = cfg.cache_path(name)
    if not path.is_file():
        raise MissingStageError(stage, path)
    return path


def _dataset_paths(cfg: RunConfig) -> DatasetPaths:
    missing = [n for n in ("business_path", "user_path", "review_path", "tip_path")
               if getattr(cfg, n) is None]
    if missing:
        raise ConfigError("dataset paths not configured: " + ", ".join(missing))
    return DatasetPaths(business=Path(cfg.business_path), user=Path(cfg.user_path),
                        review=Path(cfg.review_path), tip=Path(cfg.tip_path))


def _cascade_id_field(cascade_id) -> str:
    return "{}:{}:{}".format(*cascade_id)


def _signature_fields(s) -> tuple:
    """n, m, in_seq, out_seq columns; degree sequences are space-separated."""
    return s.n, s.m, " ".join(map(str, s.in_seq)), " ".join(map(str, s.out_seq))


# ---------------------------------------------------------------------------
# stages


def stage_ingest(cfg: RunConfig) -> None:
    paths = _dataset_paths(cfg)
    result = ingest_dataset(paths)
    save_ingest(result, cfg.cache_path(INGEST_CACHE))
    save_profiles(result.profiles, cfg.cache_path(PROFILES_CACHE))
    write_csv(cfg.cache_path("yearly.csv"), ("year", "review_count", "tip_count"),
              yearly_activity_counts(result.events))
    for name, counts in sorted(result.drop_counts.items()):
        dropped = {k: v for k, v in counts.items() if k not in ("lines", "retained")}
        print(f"[ingest] {name}: {counts.get('retained', 0)}/{counts.get('lines', 0)} "
              f"lines retained, drops={dropped}")
    print(f"[ingest] {result.n_events} events across {len(result.cities)} cities")


def stage_build_cascades(cfg: RunConfig) -> None:
    events_by_city = load_ingest(_require(cfg, INGEST_CACHE, "ingest")).events_by_city
    graph = load_profiles(_require(cfg, PROFILES_CACHE, "ingest")).graph
    by_city = casc.build_cascades(events_by_city, graph, cfg.window_days)
    casc.save_cascades(by_city, cfg.cache_path(CASCADES_CACHE))
    casc.write_cascades(by_city, cfg.cache_path("cascades.jsonl"))
    total = sum(len(v) for v in by_city.values())
    print(f"[build-cascades] {total} cascades in {len(by_city)} cities "
          f"(window_days={cfg.window_days})")


def stage_summary(cfg: RunConfig) -> None:
    by_city = casc.read_cascades(_require(cfg, CASCADES_CACHE, "build-cascades"))
    rows = casc.cascade_summary(by_city)
    write_csv(cfg.cache_path("summary.csv"),
              ("city", "cascade_count", "p50_size", "p90_size", "max_size"),
              [(r.city, r.cascade_count, r.p50_size, r.p90_size, r.max_size) for r in rows])
    for r in rows:
        print(f"[summary] {r.city}: n={r.cascade_count} p50={r.p50_size} "
              f"p90={r.p90_size} max={r.max_size}")


def stage_census(cfg: RunConfig) -> None:
    by_city = casc.read_cascades(_require(cfg, CASCADES_CACHE, "build-cascades"))
    table = census_mod.census(by_city, cfg.census_max_rank)
    write_csv(cfg.cache_path("census.csv"),
              ("city", "rank", "n", "m", "in_seq", "out_seq", "count", "share"),
              [(r.city, r.rank, *_signature_fields(r.signature), r.count, r.share)
               for city in sorted(table) for r in table[city]])
    for city in sorted(table):
        if table[city]:
            top = table[city][0]
            print(f"[census] {city}: rank1 {top.signature.serialize()} "
                  f"share={top.share:.3f}")


def stage_purity(cfg: RunConfig) -> None:
    by_city = casc.read_cascades(_require(cfg, CASCADES_CACHE, "build-cascades"))
    rows_by_city = {
        city: census_mod.bucket_purity(by_city[city], cfg.node_cap, cfg.purity_samples)
        for city in sorted(by_city)
    }
    write_csv(cfg.cache_path("purity.csv"),
              ("city", "n", "m", "in_seq", "out_seq", "bucket_size", "checked", "purity"),
              [(r.city, *_signature_fields(r.signature), r.bucket_size, r.checked, r.purity)
               for rows in rows_by_city.values() for r in rows])
    checked = sum(r.checked for rows in rows_by_city.values() for r in rows)
    impure = sum(1 for rows in rows_by_city.values() for r in rows
                 if r.purity is not None and r.purity < 1.0)
    print(f"[purity] {checked} exact isomorphism checks, {impure} impure buckets")


def stage_fit(cfg: RunConfig) -> None:
    by_city = casc.read_cascades(_require(cfg, CASCADES_CACHE, "build-cascades"))
    dist = stats_mod.size_distribution(by_city)
    write_csv(cfg.cache_path("distribution.csv"), ("city", "size", "count", "ccdf"),
              [(city, *row) for city in sorted(dist) for row in dist[city]])
    fits = {}
    for city in sorted(by_city):
        sizes = by_city[city].sizes
        try:
            fits[city] = stats_mod.fit_power_law(sizes)
        except ValueError as exc:
            print(f"[fit] {city}: skipped ({exc})")
            continue
        try:
            slope = stats_mod.ccdf_tail_slope(sizes)
        except ValueError:
            slope = None
        f = fits[city]
        slope_txt = "n/a" if slope is None else f"{slope:.3f}"
        print(f"[fit] {city}: slope={-f.alpha:.3f} (alpha={f.alpha:.3f}) xmin={f.xmin} "
              f"ks={f.ks_statistic:.4f} n_tail={f.n_tail} ccdf_ls_slope={slope_txt}")
    write_csv(cfg.cache_path("fit.csv"), ("city", "alpha", "xmin", "ks", "n_tail"),
              [(city, f.alpha, f.xmin, f.ks_statistic, f.n_tail) for city, f in fits.items()])


def stage_longest(cfg: RunConfig) -> None:
    by_city = casc.read_cascades(_require(cfg, CASCADES_CACHE, "build-cascades"))
    top = stats_mod.longest_cascades(by_city, cfg.top_k_longest)
    write_csv(cfg.cache_path("longest.csv"), ("city", "rank", "cascade_id", "size"),
              [(city, rank, _cascade_id_field(cascade.cascade_id), cascade.size)
               for city in sorted(top) for rank, cascade in enumerate(top[city], start=1)])
    for city in sorted(top):
        if top[city]:
            print(f"[longest] {city}: max size {top[city][0].size}")


def stage_export_dot(cfg: RunConfig) -> None:
    by_city = casc.read_cascades(_require(cfg, CASCADES_CACHE, "build-cascades"))
    out_dir = cfg.cache_path("dot")
    out_dir.mkdir(parents=True, exist_ok=True)
    top = stats_mod.longest_cascades(by_city, cfg.top_k_longest)
    stems: dict[str, str] = {}  # DOT name stem -> city
    for city in sorted(top):
        stem = re.sub(r"[^\w-]", "_", city)  # no separators: files stay inside dot/
        if stem in stems:
            raise DataError(f"cities {stems[stem]!r} and {city!r} both map to DOT "
                            f"names {stem}_rank<k>.dot")
        stems[stem] = city
    files = {f"{stem}_rank{rank}.dot": cascade for stem, city in stems.items()
             for rank, cascade in enumerate(top[city], start=1)}
    for old in out_dir.glob("*.dot"):  # an earlier run's ranks that this run does not rewrite
        if old.name not in files:
            old.unlink()
    for name, cascade in files.items():
        (out_dir / name).write_text(stats_mod.export_dot(cascade), encoding="ascii")
    print(f"[export-dot] wrote {len(files)} DOT files to {out_dir}")


def stage_features(cfg: RunConfig) -> None:
    profiles = load_profiles(_require(cfg, PROFILES_CACHE, "ingest"))
    by_city = casc.read_cascades(_require(cfg, CASCADES_CACHE, "build-cascades"))
    labeling = feat.label_cascades(by_city, cfg.k, cfg.percentile, cfg.min_big_cascades)
    balanced = feat.balance(labeling.labeled, cfg.seed)
    extractor = feat.FeatureExtractor(profiles, cfg.k)
    cities = sorted(balanced)
    examples = feat.build_examples(by_city, balanced, extractor)
    write_csv(cfg.cache_path("features.csv"),
              ("cascade_id", "city", "label", *feat.FEATURE_NAMES),
              [(_cascade_id_field((cities[c], b, j)), cities[c], feat.LABEL_NAMES[y],
                *x.tolist()) for c, b, j, y, x in examples.tolist()])
    feat.save_examples(examples, cities, cfg.cache_path("features.pkl"))
    labeling_doc = {
        "schema_version": SCHEMA_VERSION,
        "thresholds": labeling.thresholds,
        "excluded": [[city, n_long] for city, n_long in labeling.excluded],
        "included": sorted(labeling.labeled),
        "imputed_values": {k: v for k, v in sorted(extractor.imputed.items())},
    }
    write_json(cfg.cache_path("labeling.json"), labeling_doc)
    for city, n_long in labeling.excluded:
        reason = (f"only {n_long} long cascades (floor {cfg.min_big_cascades})"
                  if n_long < cfg.min_big_cascades
                  else f"no short cascades with at least k={cfg.k} nodes")
        print(f"[features] excluded {city}: {reason}")
    print(f"[features] {len(examples)} balanced examples from "
          f"{len(labeling.labeled)} cities")


def _gbdt_fit(cfg: RunConfig):
    return lambda X, y: learn.train_gbdt(X, y, n_trees=cfg.n_trees,
                                         max_depth=cfg.max_depth,
                                         learning_rate=cfg.learning_rate,
                                         min_leaf=cfg.min_leaf)


def _logreg_fit(cfg: RunConfig):
    return lambda X, y: learn.train_logreg(X, y, l1=cfg.l1, l2=cfg.l2,
                                           epochs=cfg.logreg_epochs)


def _examples_by_city(cfg: RunConfig):
    """Each city's (X, y), in city order, from its rows of the example table."""
    cities, table = feat.load_examples(_require(cfg, "features.pkl", "features"))
    return {city: (rows["features"], rows["label"]) for c, city in enumerate(cities)
            if len(rows := table[table["city"] == c])}


def stage_train(cfg: RunConfig) -> None:
    by_city = _examples_by_city(cfg)
    models = {}
    importance_rows = []
    for city, (X, y) in by_city.items():
        try:
            gbdt = _gbdt_fit(cfg)(X, y)
        except ValueError as exc:
            raise DataError(f"{city}: {exc}") from exc
        models[city] = {"gbdt": gbdt}
        level = learn.feature_importance(gbdt, feat.FEATURE_NAMES)
        gain = dict(learn.split_gain_importance(gbdt, feat.FEATURE_NAMES))
        for rank, (name, score) in enumerate(level, start=1):
            importance_rows.append((city, rank, name, score, gain[name]))
    save_cache(cfg.cache_path("models.pkl"), MODELS_CACHE_FORMAT, SCHEMA_VERSION,
               models=models)
    write_csv(cfg.cache_path("importance.csv"),
              ("city", "rank", "feature", "level_score", "gain_score"), importance_rows)
    print(f"[train] fitted models for {len(models)} cities")


def _caught(fn, *args):
    """``fn(*args)``, or the ValueError it raised, kept to be raised in its turn."""
    try:
        return fn(*args)
    except ValueError as exc:
        return exc


def _raised(value):
    if isinstance(value, Exception):
        raise value
    return value


def stage_evaluate(cfg: RunConfig) -> None:
    by_city = _examples_by_city(cfg)
    learners = {"gbdt": _gbdt_fit(cfg), "logreg": _logreg_fit(cfg)}

    def plan(city, X, y):  # learner -> (fold_scores, report) of learn.cv_plan
        return {name: learn.cv_plan(X, y, fit, cfg.folds,
                                    substream_seed(cfg.seed, "cv", name, city))
                for name, fit in learners.items()}

    def fold_scores(fit):
        city, name, f = fit
        return _caught(plans[city][name][0], f)

    plans = {city: _caught(plan, city, X, y) for city, (X, y) in by_city.items()}
    # Every fold of every city in one pool, the slower GBDT fits first. A
    # ValueError comes back as a result and is raised below in city order,
    # whichever process met it.
    fits = [(city, name, f) for name in learners for city, p in plans.items()
            if isinstance(p, dict) for f in range(cfg.folds)]
    scores = dict(zip(fits, fork_map(fold_scores, fits)))
    report = {"schema_version": SCHEMA_VERSION, "cities": {}, "skipped": []}
    acc_rows = []
    roc_rows = []
    for city, (X, y) in by_city.items():
        try:
            reps = {name: cv_report([_raised(scores[city, name, f]) for f in range(cfg.folds)])
                    for name, (_, cv_report) in _raised(plans[city]).items()}
        except learn.TooFewExamples as exc:
            print(f"[evaluate] skipped {city}: {exc} ({len(y)} examples)")
            report["skipped"].append([city, str(exc)])
            continue
        except ValueError as exc:
            raise DataError(f"{city}: {exc}") from exc
        report["cities"][city] = {"n_examples": len(y), **{
            name: {"fold_accuracies": rep.fold_accuracies, "mean_accuracy": rep.mean_accuracy,
                   "auc": rep.auc} for name, rep in reps.items()}}
        acc_rows += [(city, fold, acc) for fold, acc in enumerate(reps["gbdt"].fold_accuracies)]
        roc_rows += [(city, *point) for point in reps["gbdt"].roc]
        print(f"[evaluate] {city}: " + " | ".join(
            f"{name} acc={rep.mean_accuracy:.3f} auc={rep.auc:.3f}" for name, rep in reps.items()))
    write_json(cfg.cache_path("eval.json"), report)
    write_csv(cfg.cache_path("accuracy.csv"), ("city", "fold", "accuracy"), acc_rows)
    write_csv(cfg.cache_path("roc.csv"), ("city", "fpr", "tpr", "threshold"), roc_rows)


ALL_STAGES = [
    ("ingest", stage_ingest),
    ("build-cascades", stage_build_cascades),
    ("summary", stage_summary),
    ("census", stage_census),
    ("purity", stage_purity),
    ("fit", stage_fit),
    ("longest", stage_longest),
    ("features", stage_features),
    ("train", stage_train),
    ("evaluate", stage_evaluate),
]

STAGE_BY_NAME = dict(ALL_STAGES)
STAGE_BY_NAME["export-dot"] = stage_export_dot


def stage_all(cfg: RunConfig) -> None:
    for name, fn in ALL_STAGES:
        print(f"=== {name} ===")
        fn(cfg)


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


_CONFIG_FLAGS = [
    # (flag, dest, help); each parses as its RunConfig field does in a config file
    ("--business", "business_path", "business JSON-lines file"),
    ("--user", "user_path", "user JSON-lines file"),
    ("--review", "review_path", "review JSON-lines file"),
    ("--tip", "tip_path", "tip JSON-lines file"),
    ("--cache-dir", "cache_dir", "directory for stage outputs"),
    ("--window-days", "window_days", "max influence window in days (default: unlimited)"),
    ("--census-max-rank", "census_max_rank", "topology ranks per city"),
    ("--node-cap", "node_cap", "max nodes for exact isomorphism checks"),
    ("--purity-samples", "purity_samples", "bucket members checked per signature"),
    ("--top-k", "top_k_longest", "longest cascades kept per city"),
    ("--k", "k", "prefix size in nodes for features"),
    ("--percentile", "percentile", "long/short threshold percentile"),
    ("--min-big-cascades", "min_big_cascades", "city floor on long-cascade count"),
    ("--n-trees", "n_trees", "boosting rounds"),
    ("--max-depth", "max_depth", "tree depth limit"),
    ("--learning-rate", "learning_rate", "boosting shrinkage"),
    ("--min-leaf", "min_leaf", "minimum samples per leaf"),
    ("--l1", "l1", "elastic-net L1 penalty"),
    ("--l2", "l2", "elastic-net L2 penalty"),
    ("--logreg-epochs", "logreg_epochs", "proximal gradient iterations"),
    ("--folds", "folds", "cross-validation folds"),
    ("--seed", "seed", "global seed, substreamed per stage"),
]

_DEFAULTS = RunConfig()


@cache
def _build_parser() -> _Parser:
    # Built once per process, and the config flags once per build: argparse
    # checks each add_argument with a new HelpFormatter, which queries the
    # terminal size, while parents= copies the shared actions unchecked.
    shared = _Parser(add_help=False)
    shared.add_argument("--config", help="key=value config file; flags override it")
    for flag, dest, helptext in _CONFIG_FLAGS:
        # an absent flag sets nothing, so that the config file can fill it in
        # and no value outlives its call; the help shows RunConfig's default
        default = getattr(_DEFAULTS, dest)
        if default is not None:
            helptext = f"{helptext} (default: {default})"
        shared.add_argument(flag, dest=dest, type=partial(parse_value, dest),
                            default=argparse.SUPPRESS, help=helptext)

    parser = _Parser(prog="cascademine",
                     description="Mine influence cascades from review/tip logs and "
                                 "predict their growth.")
    sub = parser.add_subparsers(dest="command", required=True)

    stage_names = [name for name, _ in ALL_STAGES] + ["export-dot", "all"]
    for name in stage_names:
        sub.add_parser(name, help=f"run the {name} stage", parents=[shared])

    synth = SynthConfig()  # the flags' defaults
    p = sub.add_parser("synth", help="generate a synthetic dataset in Yelp format")
    p.add_argument("--out-dir", required=True, help="output directory for the files")
    p.add_argument("--users", type=int, default=synth.n_users,
                   help="number of users (default: %(default)s)")
    p.add_argument("--businesses", type=int, default=synth.n_businesses,
                   help="number of businesses (default: %(default)s)")
    p.add_argument("--events", type=int, default=synth.n_events,
                   help="review and tip events (default: %(default)s)")
    p.add_argument("--friend-prob", type=float, default=synth.friend_prob,
                   help="friendship probability per user pair (default: %(default)s)")
    p.add_argument("--influence-prob", type=float, default=synth.influence_prob,
                   help="probability that an active user's friend joins "
                        "(default: %(default)s)")
    p.add_argument("--cities", type=int, default=synth.n_cities,
                   help="number of cities (default: %(default)s)")
    p.add_argument("--topology", choices=("random", "chain"), default=synth.topology,
                   help="friendship graph shape (default: %(default)s)")
    p.add_argument("--seed", type=int, default=synth.seed,
                   help="random seed (default: %(default)s)")
    return parser


def run(argv=None) -> None:
    args = _build_parser().parse_args(argv)
    if args.command == "synth":
        try:
            scfg = SynthConfig(n_users=args.users, n_businesses=args.businesses,
                               n_events=args.events, friend_prob=args.friend_prob,
                               influence_prob=args.influence_prob, seed=args.seed,
                               n_cities=args.cities, topology=args.topology)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        result = generate_synthetic(scfg, args.out_dir)
        print(f"[synth] {result.n_events} events, {result.n_truth_edges} ground-truth "
              f"influence edges -> {args.out_dir}")
        return

    overrides = {dest: getattr(args, dest) for _, dest, _ in _CONFIG_FLAGS
                 if hasattr(args, dest)}
    cfg = build_config(args.config, overrides)
    try:
        Path(cfg.cache_dir).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cache_dir {cfg.cache_dir!r} is not a directory ({exc})") from exc
    if args.command == "all":
        stage_all(cfg)
    else:
        STAGE_BY_NAME[args.command](cfg)


def main(argv=None) -> int:
    try:
        run(argv)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except MissingStageError as exc:
        print(f"missing prerequisite: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        if isinstance(exc, OSError) and exc.filename is None:
            raise  # a broken pipe or a failed fork: no input or output file to name
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
