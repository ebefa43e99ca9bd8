import csv
import dataclasses
import hashlib
import io
import json
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cascademine
import cascademine.cli as cli
from cascademine.cli import main
from cascademine.config import RunConfig, build_config, load_config_file
from cascademine.errors import ConfigError
from cascademine.features import (EXAMPLE_DTYPE, FEATURE_NAMES, FEATURES_CACHE_FORMAT,
                                  FEATURES_CACHE_VERSION, N_FEATURES, save_examples)
from cascademine.synth import SynthConfig
from cascademine.util import load_cache, save_arrays, save_cache


def random_examples(rng, *sizes):
    """An example table with ``sizes[c]`` rows of city ``c``, labels
    alternating, and each label's features shifted by the label."""
    table = np.zeros(sum(sizes), EXAMPLE_DTYPE)
    table["city"] = np.repeat(np.arange(len(sizes)), sizes)
    table["component"] = np.concatenate([np.arange(n) for n in sizes])
    table["label"] = table["component"] % 2
    table["features"] = rng.normal(size=(len(table), N_FEATURES)) + table["label"][:, None]
    return table


@pytest.fixture(scope="module")
def fixture_dataset(tmp_path_factory):
    """One shared synthetic dataset with enough signal for every stage."""
    root = tmp_path_factory.mktemp("dataset")
    code = main(["synth", "--out-dir", str(root), "--users", "250",
                 "--businesses", "150", "--events", "3500", "--friend-prob", "0.02",
                 "--influence-prob", "0.12", "--cities", "1", "--seed", "7"])
    assert code == 0
    return root


@pytest.fixture(scope="module")
def two_city_dataset(tmp_path_factory):
    """A synthetic dataset with two cities, city00 and city01."""
    root = tmp_path_factory.mktemp("two_cities")
    code = main(["synth", "--out-dir", str(root), "--users", "250",
                 "--businesses", "150", "--events", "3500", "--friend-prob", "0.02",
                 "--influence-prob", "0.12", "--cities", "2", "--seed", "7"])
    assert code == 0
    return root


def edit_dataset(data: Path, out: Path, name: str, edit) -> Path:
    """Copy a synthetic dataset to ``out``, passing every record of file
    ``name`` through ``edit`` (which changes it in place)."""
    out.mkdir()
    for other in ("business.json", "user.json", "review.json", "tip.json"):
        (out / other).write_bytes((data / other).read_bytes())
    with open(data / name, encoding="utf-8") as src, \
            open(out / name, "w", encoding="utf-8") as dst:
        for line in src:
            record = json.loads(line)
            edit(record)
            dst.write(json.dumps(record, ensure_ascii=False) + "\n")
    return out


def rename_cities(data: Path, out: Path, names: dict[str, str]) -> Path:
    """Copy a synthetic dataset to ``out`` with its business cities renamed."""
    return edit_dataset(data, out, "business.json",
                        lambda record: record.update(city=names[record["city"]]))


def pipeline_args(data: Path, cache: Path, *extra: str) -> list[str]:
    return ["--business", str(data / "business.json"), "--user", str(data / "user.json"),
            "--review", str(data / "review.json"), "--tip", str(data / "tip.json"),
            "--cache-dir", str(cache), "--k", "2", "--min-big-cascades", "3",
            "--n-trees", "30", "--seed", "11", *extra]


def file_hashes(cache: Path) -> dict[str, str]:
    out = {}
    for path in sorted(cache.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(cache))] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    return out


class TestConfigFile:
    def test_key_value_parsing(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("# comment\nk = 4\npercentile = 85\nwindow_days = none\n"
                            "cache_dir = /tmp/x\n")
        values = load_config_file(cfg_file)
        assert values == {"k": 4, "percentile": 85.0, "window_days": None,
                          "cache_dir": "/tmp/x"}

    def test_flags_override_file(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("k = 4\nseed = 3\n")
        cfg = build_config(cfg_file, {"k": 9})
        assert cfg.k == 9
        assert cfg.seed == 3

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("nonsense = 1\n")
        with pytest.raises(ConfigError):
            load_config_file(cfg_file)

    def test_bad_value_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("k = not-a-number\n")
        with pytest.raises(ConfigError):
            load_config_file(cfg_file)

    def test_none_only_for_optional_fields(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("window_days = none\nuser_path = none\n")
        assert load_config_file(cfg_file) == {"window_days": None, "user_path": None}
        for line in ("k = none", "percentile =", "cache_dir = None"):
            cfg_file.write_text(line + "\n")
            with pytest.raises(ConfigError, match="value is required"):
                load_config_file(cfg_file)
        cfg_file.write_text("k = none\n")
        assert main(["census", "--config", str(cfg_file)]) == 1
        assert "value is required" in capsys.readouterr().err

    def test_example_config_is_valid(self):
        example = Path(__file__).parents[1] / "scripts" / "yelp.cfg.example"
        values = load_config_file(example)
        assert set(values) == {field.name for field in dataclasses.fields(RunConfig)}
        assert values["window_days"] is None
        cfg = build_config(example)
        assert (cfg.k, cfg.min_big_cascades, cfg.cache_dir) == (5, 50, "yelp_cache")

    def test_flags_parse_as_file_values(self, tmp_path, monkeypatch):
        # "none" on the command line resets a file's window to unlimited
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("window_days = 7\nk = 4\n")
        seen = []
        monkeypatch.setitem(cli.STAGE_BY_NAME, "census", seen.append)
        for flags, window_days in (([], 7), (["--window-days", "none"], None),
                                   (["--window-days", "3"], 3)):
            assert main(["census", "--config", str(cfg_file), "--cache-dir", str(tmp_path),
                         *flags]) == 0
            assert (seen[-1].window_days, seen[-1].k) == (window_days, 4)

    def test_validation_bounds(self):
        with pytest.raises(ConfigError):
            build_config(None, {"percentile": 40.0})
        with pytest.raises(ConfigError):
            build_config(None, {"window_days": -1})
        with pytest.raises(ConfigError):
            build_config(None, {"learning_rate": 0.0})

    @pytest.mark.parametrize("overrides", [
        {"l1": float("nan")}, {"l2": float("nan")}, {"l1": float("inf")},
        {"l2": float("inf")},
    ])
    def test_non_finite_penalties_rejected(self, overrides):
        with pytest.raises(ConfigError, match="finite"):
            build_config(None, overrides)

    def test_bad_values_exit_before_any_stage_work(self, tmp_path, capsys):
        for flags in (["features", "--min-big-cascades", "0"], ["evaluate", "--l1", "nan"]):
            assert main([*flags, "--cache-dir", str(tmp_path)]) == 1
            assert "config error" in capsys.readouterr().err

    def test_defaults_documented_in_help(self, capsys):
        for stage in [name for name, _ in cli.ALL_STAGES] + ["export-dot", "all"]:
            with pytest.raises(SystemExit):
                main([stage, "--help"])
            message = " ".join(capsys.readouterr().out.split())
            for flag, dest, helptext in cli._CONFIG_FLAGS:
                default = getattr(RunConfig(), dest)
                suffix = "" if default is None else f" (default: {default})"
                assert f"{flag} {dest.upper()} {helptext}{suffix}" in message, (stage, flag)
        with pytest.raises(SystemExit):
            main(["train", "--help"])
        message = " ".join(capsys.readouterr().out.split())
        assert "--n-trees N_TREES boosting rounds (default: 100) --max-depth" in message
        assert "(default: None)" not in message
        assert ("--window-days WINDOW_DAYS max influence window in days "
                "(default: unlimited) --census-max-rank") in message
        with pytest.raises(SystemExit):
            main(["synth", "--help"])
        message = " ".join(capsys.readouterr().out.split())
        # "--users USERS number of users (default: 50)"; the usage line's
        # "[--users USERS]" does not match
        shown = dict(re.findall(r"--([a-z-]+) (?:[A-Z_]+|\{[a-z,]+\}) [^()\[\]-]+ "
                                r"\(default: ([^)]*)\)", message))
        fields = {"users": "n_users", "businesses": "n_businesses", "events": "n_events",
                  "friend-prob": "friend_prob", "influence-prob": "influence_prob",
                  "cities": "n_cities", "topology": "topology", "seed": "seed"}
        assert shown == {flag: str(getattr(SynthConfig(), field))
                         for flag, field in fields.items()}


class TestParserReuse:
    def test_parser_built_once_per_process(self, tmp_path, monkeypatch):
        monkeypatch.setitem(cli.STAGE_BY_NAME, "census", lambda cfg: None)
        cli._build_parser.cache_clear()
        for _ in range(3):
            assert main(["census", "--cache-dir", str(tmp_path)]) == 0
        assert main(["census", "--k", "x"]) == 1
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 3)

    def test_no_value_carries_over(self, tmp_path, monkeypatch):
        seen = []
        monkeypatch.setitem(cli.STAGE_BY_NAME, "census", seen.append)
        args = ["census", "--cache-dir", str(tmp_path)]
        assert main([*args, "--window-days", "5", "--k", "3"]) == 0
        assert main(args) == 0
        assert (seen[0].window_days, seen[0].k) == (5, 3)
        assert (seen[1].window_days, seen[1].k) == (RunConfig().window_days, RunConfig().k)

    def test_valid_call_after_failed_one(self, tmp_path, monkeypatch, capsys):
        seen = []
        monkeypatch.setitem(cli.STAGE_BY_NAME, "census", seen.append)
        assert main(["census", "--cache-dir", str(tmp_path), "--k", "x"]) == 1
        assert "k: expected integer" in capsys.readouterr().err
        assert main(["census", "--cache-dir", str(tmp_path)]) == 0
        assert len(seen) == 1 and seen[0].k == RunConfig().k


class TestExitCodes:
    def test_missing_prerequisite_names_stage(self, tmp_path, capsys):
        code = main(["census", "--cache-dir", str(tmp_path / "empty")])
        assert code == 2
        assert "build-cascades" in capsys.readouterr().err

    def test_bad_flag_value_is_config_error(self, capsys):
        assert main(["ingest", "--k", "abc"]) == 1

    def test_unconfigured_paths_is_config_error(self, tmp_path, capsys):
        assert main(["ingest", "--cache-dir", str(tmp_path)]) == 1
        assert "not configured" in capsys.readouterr().err

    @pytest.mark.parametrize("under", [False, True])
    def test_cache_dir_that_is_a_file_is_config_error(self, tmp_path, capsys, under):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory\n")
        cache = blocker / "cache" if under else blocker
        assert main(["summary", "--cache-dir", str(cache)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: cache_dir") and "Traceback" not in err

    def test_missing_data_file_is_data_error(self, tmp_path, capsys):
        code = main(["ingest", "--business", str(tmp_path / "nope.json"),
                     "--user", str(tmp_path / "nope.json"),
                     "--review", str(tmp_path / "nope.json"),
                     "--tip", str(tmp_path / "nope.json"),
                     "--cache-dir", str(tmp_path / "cache")])
        assert code == 3

    @pytest.mark.parametrize("stage, blocked", [("summary", "summary.csv"),
                                                ("export-dot", "dot")])
    def test_unwritable_output_is_data_error(self, fixture_dataset, tmp_path, capsys,
                                             stage, blocked):
        # a directory where summary.csv goes (IsADirectoryError), a file where
        # the dot/ directory goes (FileExistsError)
        assert main(["ingest", *pipeline_args(fixture_dataset, tmp_path)]) == 0
        assert main(["build-cascades", "--cache-dir", str(tmp_path)]) == 0
        path = tmp_path / blocked
        if stage == "summary":
            path.mkdir()
        else:
            path.write_text("")
        capsys.readouterr()
        assert main([stage, "--cache-dir", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1
        assert str(path) in err and "Traceback" not in err

    def test_unknown_subcommand_is_config_error(self):
        assert main(["frobnicate"]) == 1

    def test_damaged_ingest_cache_is_data_error(self, tmp_path, capsys):
        (tmp_path / "ingest.pkl").write_bytes(pickle.dumps({"format": "x"})[:-3])
        assert main(["build-cascades", "--cache-dir", str(tmp_path)]) == 3
        assert "rerun 'ingest'" in capsys.readouterr().err

    def test_foreign_features_cache_is_data_error(self, tmp_path, capsys):
        for payload in (b"garbage", pickle.dumps({"format": "something-else"})):
            (tmp_path / "features.pkl").write_bytes(payload)
            assert main(["train", "--cache-dir", str(tmp_path)]) == 3
            assert "rerun 'features'" in capsys.readouterr().err

    def test_damaged_cascade_store_is_data_error(self, fixture_dataset, tmp_path, capsys):
        assert main(["ingest", *pipeline_args(fixture_dataset, tmp_path)]) == 0
        assert main(["build-cascades", "--cache-dir", str(tmp_path)]) == 0
        store = tmp_path / "cascades.npz"
        good = store.read_bytes()
        with np.load(store) as npz:
            arrays = {name: npz[name] for name in npz.files}
        assert arrays["format"].tolist() == "cascademine.cascades"
        bare = io.BytesIO()
        np.save(bare, arrays["nodes"])
        damaged = [
            good[:len(good) // 2],  # truncated
            b"not a zip archive\n",
            bare.getvalue(),  # one .npy array, not an archive
            {**arrays, "format": np.array("cascademine.features")},
            {**arrays, "version": np.array(0)},  # an older version
            {name: a for name, a in arrays.items() if name != "edges"},
            {**arrays, "cities": arrays["cities"].astype(object)},  # needs pickle
        ]
        for payload in damaged:
            if isinstance(payload, bytes):
                store.write_bytes(payload)
            else:
                np.savez(store, **payload)
            capsys.readouterr()
            assert main(["census", "--cache-dir", str(tmp_path)]) == 3
            assert "rerun 'build-cascades'" in capsys.readouterr().err

    def test_cascade_store_offsets_and_positions_are_checked(self, fixture_dataset,
                                                             tmp_path, capsys):
        assert main(["ingest", *pipeline_args(fixture_dataset, tmp_path)]) == 0
        assert main(["build-cascades", "--cache-dir", str(tmp_path)]) == 0
        store = tmp_path / "cascades.npz"
        with np.load(store) as npz:
            arrays = {name: npz[name] for name in npz.files}
        assert arrays["version"].tolist() == 2

        def changed(name, index, value):
            array = arrays[name].copy()
            array[index] = value
            return {**arrays, name: array}

        # the reason names the check that must catch each damage
        node_at, edge_at = arrays["node_offsets"], arrays["edge_offsets"]
        business, n = arrays["business"], len(arrays["business"])
        offsets, positions = "do not fit together", "outside its cascade"
        types, order = "wrong type or shape", "not in order"
        damaged = [
            (changed("node_offsets", [1, 2], node_at[[2, 1]]), offsets),  # decreasing
            (changed("edge_offsets", [1, 2], edge_at[[2, 1]]), offsets),
            (changed("node_offsets", 0, 1), offsets),  # a first offset other than 0
            (changed("edge_offsets", 0, 1), offsets),
            (changed("edges", (0, 1), node_at[1]), positions),  # the first cascade's size
            (changed("edges", (0, 0), -1), positions),
            ({**arrays, "version": np.array(1)}, "version 1 "),  # edges were user ids
            # ids like 28.5 or 0:28:0, or a traceback, at the stages that build ids
            ({**arrays, "cities": np.arange(len(arrays["cities"]))}, types),
            ({**arrays, "business": business + 0.5}, types),
            ({**arrays, "component": arrays["component"][:, None]}, types),
            (changed("business", 1, business[0] - 1), order),  # below its predecessor's
            ({**arrays, "cities": np.repeat(arrays["cities"], 2),  # one city twice
              "city_offsets": np.array([0, 1, n])}, order),
        ]
        for payload, reason in damaged:
            np.savez(store, **payload)
            for stage in ("summary", "census", "purity", "fit", "longest", "export-dot",
                          "features"):
                capsys.readouterr()
                assert main([stage, "--cache-dir", str(tmp_path)]) == 3, (stage, reason)
                err = capsys.readouterr().err
                assert reason in err and "rerun 'build-cascades'" in err

    def test_cache_without_cascade_store_is_missing_stage(self, fixture_dataset, tmp_path,
                                                          capsys):
        # a cache dir from before the store: cascades.jsonl alone
        assert main(["ingest", *pipeline_args(fixture_dataset, tmp_path)]) == 0
        assert main(["build-cascades", "--cache-dir", str(tmp_path)]) == 0
        (tmp_path / "cascades.npz").unlink()
        assert (tmp_path / "cascades.jsonl").is_file()
        for stage in ("summary", "census", "purity", "fit", "longest", "export-dot",
                      "features"):
            capsys.readouterr()
            assert main([stage, "--cache-dir", str(tmp_path)]) == 2, stage
            assert "build-cascades" in capsys.readouterr().err

    def test_cache_without_profile_store_is_missing_stage(self, fixture_dataset, tmp_path,
                                                          capsys):
        assert main(["ingest", *pipeline_args(fixture_dataset, tmp_path)]) == 0
        assert main(["build-cascades", "--cache-dir", str(tmp_path)]) == 0
        (tmp_path / "profiles.npz").unlink()
        for stage in ("build-cascades", "features"):
            capsys.readouterr()
            assert main([stage, "--cache-dir", str(tmp_path)]) == 2, stage
            assert "profiles.npz" in capsys.readouterr().err

    def test_damaged_profile_store_is_data_error(self, fixture_dataset, tmp_path, capsys):
        assert main(["ingest", *pipeline_args(fixture_dataset, tmp_path)]) == 0
        assert main(["build-cascades", "--cache-dir", str(tmp_path)]) == 0
        store = tmp_path / "profiles.npz"
        good = store.read_bytes()
        with np.load(store) as npz:
            arrays = {name: npz[name] for name in npz.files}
        assert arrays["format"].tolist() == "cascademine.profiles"
        indptr, indices = arrays["indptr"], arrays["indices"]
        hub = int(np.argmax(np.diff(indptr)))  # a row of at least 3 neighbours
        row = slice(indptr[hub], indptr[hub + 1])
        assert row.stop - row.start >= 3
        reversed_row, repeated = indices.copy(), indices.copy()
        reversed_row[row] = indices[row][::-1]
        repeated[row.start + 1] = indices[row.start]  # a neighbour listed twice
        damaged = [
            good[:len(good) // 2],  # truncated
            b"not a zip archive\n",
            {**arrays, "format": np.array("cascademine.cascades")},
            {**arrays, "version": np.array(0)},
            {name: a for name, a in arrays.items() if name != "indices"},
            {**arrays, "indptr": arrays["indptr"][:-1]},  # one user short
            {**arrays, "users": arrays["users"][["listed", "fans"]]},  # other columns
            {**arrays, "cities": arrays["cities"][:0]},  # city index out of range
            {**arrays, "cities": arrays["cities"].astype(object)},  # needs pickle
            {**arrays, "indices": reversed_row},  # rows are binary-searched
            {**arrays, "indices": repeated},
        ]
        for payload in damaged:
            if isinstance(payload, bytes):
                store.write_bytes(payload)
            else:
                np.savez(store, **payload)
            for stage in ("build-cascades", "features"):
                capsys.readouterr()
                assert main([stage, "--cache-dir", str(tmp_path)]) == 3, stage
                assert "rerun 'ingest'" in capsys.readouterr().err

    def test_damaged_events_table_is_data_error(self, fixture_dataset, tmp_path, capsys):
        assert main(["ingest", *pipeline_args(fixture_dataset, tmp_path)]) == 0
        cache = tmp_path / "ingest.pkl"
        payload = pickle.loads(cache.read_bytes())
        events, at = payload["events"], payload["city_offsets"]
        assert payload["version"] == 5 and len(at) == 2
        damaged = [
            {"events": events[["user_id", "day"]]},  # other columns
            {"events": events.astype([(name, np.int64) for name in events.dtype.names])},
            {"events": events[:-1]},  # the offsets end past the table
            {"city_offsets": np.array([0, len(events) - 1])},  # ... or before its end
            {"city_offsets": np.array([0, len(events), len(events) - 1]),
             "cities": ["city00", "city01"]},  # decreasing
            {"cities": ["city00", "city01"]},  # one name more than the offsets
            {"cities": []},
            {"city_offsets": np.array([0, len(events) // 2, len(events)]),
             "cities": ["city00", "city00"]},  # a name twice
            {"city_offsets": np.array([0, len(events) // 2, len(events)]),
             "cities": ["city01", "city00"]},  # names out of order
            {"cities": [0]},  # not a string
            {"city_offsets": at.astype(np.float64)},
        ]
        for change in damaged:
            cache.write_bytes(pickle.dumps({**payload, **change}))
            capsys.readouterr()
            assert main(["build-cascades", "--cache-dir", str(tmp_path)]) == 3, change
            assert "rerun 'ingest'" in capsys.readouterr().err

    def test_damaged_features_cache_is_data_error(self, tmp_path, capsys):
        names, cities = list(FEATURE_NAMES), ["acity"]
        examples = random_examples(np.random.default_rng(5), 20)
        narrow = np.zeros(len(examples), [*EXAMPLE_DTYPE.descr[:-1], ("features", "<f8", (3,))])
        text_label = examples.astype([(name, "U8" if name == "label" else examples.dtype[name])
                                      for name in EXAMPLE_DTYPE.names])
        cache = tmp_path / "features.pkl"
        save_examples(examples, cities, cache)
        assert main(["train", "--cache-dir", str(tmp_path), "--n-trees", "3"]) == 0
        good = {"feature_names": names, "cities": cities, "examples": examples}
        damaged = [
            {"feature_names": names, "cities": cities},  # no examples
            {"examples": examples, "cities": cities},  # no feature names
            {"feature_names": names, "examples": examples},  # no cities
            {**good, "feature_names": names[::-1]},
            {**good, "feature_names": names[:3], "examples": narrow},
            {**good, "examples": narrow},  # 3-wide vectors
            {**good, "examples": text_label},  # another dtype
            {**good, "examples": examples.reshape(4, 5)},  # 2-D
            {**good, "examples": examples.tolist()},  # rows, not a table
            {**good, "cities": []},  # city index out of range
            {**good, "cities": ["acity", "acity"]},  # a name twice
            {**good, "cities": "acity"},  # not a list
            {**good, "cities": [None]},  # not a string
        ]
        for payload in damaged:
            save_cache(cache, FEATURES_CACHE_FORMAT, FEATURES_CACHE_VERSION, **payload)
            for stage in ("train", "evaluate"):
                capsys.readouterr()
                assert main([stage, "--cache-dir", str(tmp_path), "--n-trees", "3"]) == 3
                assert "rerun 'features'" in capsys.readouterr().err
        examples["city"][5] = -1
        save_examples(examples, cities, cache)
        for stage in ("train", "evaluate"):
            assert main([stage, "--cache-dir", str(tmp_path), "--n-trees", "3"]) == 3
            assert "city index is out of range" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_fail_train(self, tmp_path, capsys, bad):
        examples = random_examples(np.random.default_rng(5), 20)
        examples["features"][3, 4] = bad
        examples["features"][7, 4] = -bad
        save_examples(examples, ["acity"], tmp_path / "features.pkl")
        assert main(["train", "--cache-dir", str(tmp_path), "--n-trees", "3"]) == 3
        assert "feature column 4 has non-finite values" in capsys.readouterr().err

    def test_non_finite_feature_fails_evaluate(self, tmp_path, capsys, monkeypatch):
        # a data fault is not a city too small for the folds; the folds that
        # train on the bad row fail in the forked worker and in this process
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        examples = random_examples(np.random.default_rng(5), 20)
        examples["features"][3, 4] = np.inf
        save_examples(examples, ["acity"], tmp_path / "features.pkl")
        assert main(["evaluate", "--cache-dir", str(tmp_path), "--n-trees", "3"]) == 3
        err = capsys.readouterr().err
        assert "acity: feature column 4 has non-finite values" in err
        assert not (tmp_path / "eval.json").exists()
        with pytest.raises(ChildProcessError):  # every worker was reaped
            os.waitpid(-1, os.WNOHANG)

    def test_caches_of_earlier_versions_are_data_errors(self, tmp_path, capsys):
        for name, fmt, version, stage, rerun in (
                ("ingest.pkl", "cascademine.ingest", 2, "build-cascades", "ingest"),
                # version 3 pickled the whole IngestResult, profiles included
                ("ingest.pkl", "cascademine.ingest", 3, "build-cascades", "ingest"),
                # version 4 pickled one object per event, by city
                ("ingest.pkl", "cascademine.ingest", 4, "build-cascades", "ingest"),
                ("features.pkl", "cascademine.features", 1, "train", "features"),
                # version 2 pickled one (cascade id, vector, label) tuple per example
                ("features.pkl", "cascademine.features", 2, "train", "features")):
            (tmp_path / name).write_bytes(pickle.dumps({"format": fmt, "version": version}))
            assert main([stage, "--cache-dir", str(tmp_path)]) == 3
            err = capsys.readouterr().err
            assert f"version {version} " in err and f"rerun '{rerun}'" in err
        # version 1 of the profile store kept a business without stars as 0.0
        save_arrays(tmp_path / "profiles.npz", "cascademine.profiles", 1)
        assert main(["features", "--cache-dir", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "version 1 " in err and "rerun 'ingest'" in err


class TestPipeline:
    def test_all_produces_expected_artifacts(self, fixture_dataset, tmp_path):
        cache = tmp_path / "cache"
        assert main(["all", *pipeline_args(fixture_dataset, cache)]) == 0
        for name in ("ingest.pkl", "yearly.csv", "cascades.npz", "cascades.jsonl", "summary.csv",
                     "census.csv", "purity.csv", "distribution.csv", "fit.csv",
                     "longest.csv", "features.csv", "features.pkl", "labeling.json",
                     "models.pkl", "importance.csv", "eval.json", "accuracy.csv",
                     "roc.csv"):
            assert (cache / name).is_file(), name
        report = json.loads((cache / "eval.json").read_text())
        assert report["schema_version"] == 1
        assert report["cities"]
        for city_report in report["cities"].values():
            assert len(city_report["gbdt"]["fold_accuracies"]) == 5
            assert 0.0 <= city_report["gbdt"]["auc"] <= 1.0
        labeling = json.loads((cache / "labeling.json").read_text())
        assert labeling["schema_version"] == 1

    def test_csv_headers(self, fixture_dataset, tmp_path):
        cache = tmp_path / "cache"
        assert main(["all", *pipeline_args(fixture_dataset, cache)]) == 0
        expectations = {
            "yearly.csv": "year,review_count,tip_count",
            "summary.csv": "city,cascade_count,p50_size,p90_size,max_size",
            "census.csv": "city,rank,n,m,in_seq,out_seq,count,share",
            "purity.csv": "city,n,m,in_seq,out_seq,bucket_size,checked,purity",
            "distribution.csv": "city,size,count,ccdf",
            "fit.csv": "city,alpha,xmin,ks,n_tail",
            "longest.csv": "city,rank,cascade_id,size",
            "accuracy.csv": "city,fold,accuracy",
            "roc.csv": "city,fpr,tpr,threshold",
            "importance.csv": "city,rank,feature,level_score,gain_score",
            "features.csv": ",".join(["cascade_id", "city", "label", *FEATURE_NAMES]),
        }
        for name, header in expectations.items():
            first = (cache / name).read_text().splitlines()[0]
            assert first == header, name

    def test_stage_isolation_byte_identical(self, fixture_dataset, tmp_path):
        cache = tmp_path / "cache"
        assert main(["all", *pipeline_args(fixture_dataset, cache)]) == 0
        before = (cache / "census.csv").read_bytes()
        (cache / "census.csv").unlink()
        assert main(["census", *pipeline_args(fixture_dataset, cache)]) == 0
        assert (cache / "census.csv").read_bytes() == before

    def test_export_dot_writes_city_rank_files(self, fixture_dataset, tmp_path):
        cache = tmp_path / "cache"
        args = pipeline_args(fixture_dataset, cache)
        assert main(["ingest", *args]) == 0
        assert main(["build-cascades", *args]) == 0
        assert main(["export-dot", *args, "--top-k", "2"]) == 0
        names = sorted(p.name for p in (cache / "dot").iterdir())
        assert names == ["city00_rank1.dot", "city00_rank2.dot"]
        assert (cache / "dot" / "city00_rank1.dot").read_text().startswith("digraph")

    def test_export_dot_rerun_removes_stale_files(self, two_city_dataset, tmp_path, capsys):
        cache = tmp_path / "cache"
        args = pipeline_args(two_city_dataset, cache)
        for stage in ("ingest", "build-cascades", "export-dot"):
            assert main([stage, *args, "--top-k", "3"]) == 0
        capsys.readouterr()
        (cache / "dot" / "notes.txt").write_text("kept\n")
        assert main(["export-dot", *args, "--top-k", "1"]) == 0
        assert "wrote 2 DOT files" in capsys.readouterr().out
        names = sorted(p.name for p in (cache / "dot").iterdir())
        assert names == ["city00_rank1.dot", "city01_rank1.dot", "notes.txt"]

    def test_dot_files_stay_inside_dot_dir(self, two_city_dataset, tmp_path):
        data = rename_cities(two_city_dataset, tmp_path / "data",
                             {"city00": "../up", "city01": "a/b"})
        cache = tmp_path / "cache"
        args = pipeline_args(data, cache)
        for stage in ("ingest", "build-cascades", "export-dot"):
            assert main([stage, *args, "--top-k", "1"]) == 0
        dots = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*.dot"))
        assert [str(p) for p in dots] == ["cache/dot/___up_rank1.dot",
                                          "cache/dot/a_b_rank1.dot"]

    def test_dot_name_clash_is_data_error(self, two_city_dataset, tmp_path, capsys):
        data = rename_cities(two_city_dataset, tmp_path / "data",
                             {"city00": "a/b", "city01": "a_b"})
        cache = tmp_path / "cache"
        args = pipeline_args(data, cache)
        for stage in ("ingest", "build-cascades"):
            assert main([stage, *args]) == 0
        assert main(["export-dot", *args]) == 3
        assert "'a/b' and 'a_b'" in capsys.readouterr().err
        assert not list((cache / "dot").iterdir())

    def test_train_saves_one_gbdt_per_city(self, tmp_path):
        examples = random_examples(np.random.default_rng(5), 20, 20)
        save_examples(examples, ["acity", "bcity"], tmp_path / "features.pkl")
        assert main(["train", "--cache-dir", str(tmp_path), "--n-trees", "3"]) == 0
        models = load_cache(tmp_path / "models.pkl", "cascademine.models", 1,
                            "train")["models"]
        assert {city: sorted(m) for city, m in models.items()} == {
            "acity": ["gbdt"], "bcity": ["gbdt"]}

    def test_train_grows_a_tree_deeper_than_the_recursion_limit(self, tmp_path):
        # alternating labels along one feature 0..n-1: each split peels off one row
        n = 1500
        examples = np.zeros(n, EXAMPLE_DTYPE)
        examples["component"] = np.arange(n)
        examples["label"] = examples["component"] % 2
        examples["features"][:, 0] = np.arange(n)
        save_examples(examples, ["acity"], tmp_path / "features.pkl")
        assert main(["train", "--cache-dir", str(tmp_path), "--max-depth", "100000",
                     "--min-leaf", "1", "--n-trees", "1"]) == 0
        models = load_cache(tmp_path / "models.pkl", "cascademine.models", 1,
                            "train")["models"]
        (tree,) = models["acity"]["gbdt"].trees
        assert max(tree.depth) == n - 1 > sys.getrecursionlimit()

    def test_real_world_city_names(self, two_city_dataset, tmp_path):
        data = rename_cities(two_city_dataset, tmp_path / "data",
                             {"city00": "Montréal", "city01": "Saint Louis, MO"})
        cache = tmp_path / "cache"
        args = pipeline_args(data, cache)
        assert main(["all", *args]) == 0
        assert main(["export-dot", *args]) == 0
        cities = {"montréal", "saint louis, mo"}  # ingest case-folds city names
        for path in sorted(cache.glob("*.csv")):
            with open(path, encoding="utf-8", newline="") as fh:
                header, *rows = csv.reader(fh)
            assert rows, path.name
            assert {len(row) for row in rows} == {len(header)}, path.name
            if "city" in header:
                column = header.index("city")
                assert {row[column] for row in rows} == cities, path.name
        labeling = json.loads((cache / "labeling.json").read_text(encoding="utf-8"))
        assert set(labeling["included"]) | {c for c, _ in labeling["excluded"]} == cities
        dots = {p.name.rsplit("_rank", 1)[0] for p in (cache / "dot").iterdir()}
        assert dots == {"montréal", "saint_louis__mo"}

    def test_features_needs_no_event_cache(self, fixture_dataset, tmp_path):
        kept, dropped = tmp_path / "kept", tmp_path / "dropped"
        for cache in (kept, dropped):
            args = pipeline_args(fixture_dataset, cache)
            assert main(["ingest", *args]) == 0
            assert main(["build-cascades", *args]) == 0
        (dropped / "ingest.pkl").unlink()
        for cache in (kept, dropped):
            assert main(["features", *pipeline_args(fixture_dataset, cache)]) == 0
        for name in ("features.csv", "features.pkl", "labeling.json"):
            assert (dropped / name).read_bytes() == (kept / name).read_bytes(), name

    @pytest.mark.parametrize("name,field,value", [
        ("review.json", "useful", float("inf")),
        ("review.json", "stars", float("inf")),
        ("user.json", "fans", float("inf")),
        ("user.json", "average_stars", "nan"),
        ("business.json", "stars", "NaN"),
    ])
    def test_non_finite_input_read_as_absent(self, fixture_dataset, tmp_path, name, field,
                                             value):
        bad = edit_dataset(fixture_dataset, tmp_path / "bad", name,
                           lambda record: record.update({field: value}))
        absent = edit_dataset(fixture_dataset, tmp_path / "absent", name,
                              lambda record: record.pop(field, None))
        assert main(["all", *pipeline_args(bad, tmp_path / "bad_cache")]) == 0
        assert main(["ingest", *pipeline_args(absent, tmp_path / "absent_cache")]) == 0
        for cache in ("ingest.pkl", "profiles.npz"):
            assert ((tmp_path / "bad_cache" / cache).read_bytes()
                    == (tmp_path / "absent_cache" / cache).read_bytes()), cache

    @pytest.mark.parametrize("votes", [
        {"useful": 3_000_000_000},
        {"useful": 1_000_000_000, "funny": 1_000_000_000, "cool": 1_000_000_000},
    ])
    def test_vote_total_beyond_int32_read_as_absent(self, fixture_dataset, tmp_path, votes):
        data = edit_dataset(fixture_dataset, tmp_path / "data", "review.json",
                            lambda record: record.update(votes))
        cache = tmp_path / "cache"
        assert main(["all", *pipeline_args(data, cache)]) == 0
        with np.load(cache / "cascades.npz") as npz:
            nodes = npz["nodes"]
        reviews = nodes[nodes["kind"] == 0]
        assert len(reviews) and (reviews["votes"] == 0).all()
        assert (nodes["votes"] > 0).any()  # tips keep their likes

    def test_full_determinism_two_runs(self, fixture_dataset, tmp_path):
        hashes = []
        for sub in ("runA", "runB"):
            cache = tmp_path / sub
            assert main(["all", *pipeline_args(fixture_dataset, cache)]) == 0
            hashes.append(file_hashes(cache))
        assert hashes[0] == hashes[1]

    def test_outputs_identical_at_one_and_two_cpus(self, fixture_dataset, tmp_path,
                                                   monkeypatch):
        # ingest and evaluate fork one worker per CPU of the affinity mask; the
        # forks are counted in this process, which only the parent increments
        real_fork, forks = os.fork, []
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
        hashes = []
        for n in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=n: set(range(n)))
            cache = tmp_path / f"cpus{n}"
            forks.clear()
            assert main(["all", *pipeline_args(fixture_dataset, cache)]) == 0
            assert main(["export-dot", *pipeline_args(fixture_dataset, cache)]) == 0
            assert (len(forks) > 0) == (n > 1)
            hashes.append(file_hashes(cache))
        assert "ingest.pkl" in hashes[0]  # drop counters from workers: same pickle bytes
        assert hashes[0] == hashes[1]

    def test_traced_all_reaches_every_layer(self, fixture_dataset, tmp_path, monkeypatch):
        # pipebench's tracer wraps the library's functions from outside and reads
        # what they return (tree nodes, logreg iterations, the graph's degrees);
        # on one CPU every fit runs in this process, where the tracer counts it.
        # With this ridge penalty the logreg fits converge before their epochs
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "pipebench"))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        import tracing

        tracer = tracing.Tracer()
        args = pipeline_args(fixture_dataset, tmp_path / "cache", "--l2", "0.1",
                             "--logreg-epochs", "400")
        with tracing.patched(tracer):
            codes = {stage: main([stage, *args]) for stage, _ in cli.ALL_STAGES}
        assert codes == dict.fromkeys(codes, 0)
        counted = {name: value for name, value in tracer.counters.items()
                   if name.startswith(("learner.", "social.")) or name == "stats.fits"}
        assert {"learner.gbdt.nodes", "learner.logreg.iters", "social.friend_edges",
                "social.max_degree", "stats.fits"} <= set(counted)
        assert all(value > 0 for value in counted.values()), counted


class TestSmallCities:
    def test_city_without_shorts_excluded_with_reason(self, fixture_dataset, tmp_path,
                                                      capsys):
        # the fixture's p90 size is 16, so every cascade with k=17 nodes is long
        args = pipeline_args(fixture_dataset, tmp_path / "cache", "--k", "17")
        for stage in ("ingest", "build-cascades", "features"):
            assert main([stage, *args]) == 0
        labeling = json.loads((tmp_path / "cache" / "labeling.json").read_text())
        assert labeling["included"] == []
        [[city, n_long]] = labeling["excluded"]
        assert city == "city00" and n_long >= 3
        assert ("excluded city00: no short cascades with at least k=17 nodes"
                in capsys.readouterr().out)

    def test_evaluate_skips_city_with_too_few_examples(self, tmp_path, capsys):
        examples = random_examples(np.random.default_rng(3), 40, 6)  # 20 and 3 per class
        save_examples(examples, ["bigcity", "smallcity"], tmp_path / "features.pkl")
        args = ["--cache-dir", str(tmp_path), "--n-trees", "5", "--folds", "5"]
        assert main(["train", *args]) == 0
        assert main(["evaluate", *args]) == 0
        report = json.loads((tmp_path / "eval.json").read_text())
        assert sorted(report["cities"]) == ["bigcity"]
        assert [city for city, _ in report["skipped"]] == ["smallcity"]
        assert "at least 5" in report["skipped"][0][1]
        assert "[evaluate] skipped smallcity" in capsys.readouterr().out
        accuracy = (tmp_path / "accuracy.csv").read_text().splitlines()[1:]
        assert {line.split(",")[0] for line in accuracy} == {"bigcity"}
        importance = (tmp_path / "importance.csv").read_text().splitlines()[1:]
        assert {line.split(",")[0] for line in importance} == {"bigcity", "smallcity"}

    def test_evaluate_identical_at_one_two_and_three_cpus(self, tmp_path, capsys, monkeypatch):
        # every (city, learner, fold) fit goes through one pool, dealt from a
        # queue: which process fits what must not show in any output
        examples = random_examples(np.random.default_rng(4), 40, 6, 30)  # 3 per class in b
        save_examples(examples, ["acity", "bcity", "ccity"], tmp_path / "features.pkl")
        outputs = []
        for n in (1, 2, 3):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=n: set(range(n)))
            assert main(["evaluate", "--cache-dir", str(tmp_path), "--n-trees", "5"]) == 0
            outputs.append([capsys.readouterr().out.encode()] + [
                (tmp_path / name).read_bytes() for name in ("eval.json", "accuracy.csv",
                                                            "roc.csv")])
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
        assert [line.split(":")[0] for line in outputs[0][0].decode().splitlines()] == [
            "[evaluate] acity", "[evaluate] skipped bcity", "[evaluate] ccity"]
        report = json.loads(outputs[0][1])
        assert sorted(report["cities"]) == ["acity", "ccity"]
        assert [city for city, _ in report["skipped"]] == ["bcity"]
        with pytest.raises(ChildProcessError):  # every worker was reaped
            os.waitpid(-1, os.WNOHANG)

    def test_non_finite_features_in_two_cities_name_the_first(self, tmp_path, capsys,
                                                              monkeypatch):
        examples = random_examples(np.random.default_rng(5), 20, 20, 20)
        examples["features"][23, 4] = np.inf  # bcity
        examples["features"][45, 2] = np.nan  # ccity
        save_examples(examples, ["acity", "bcity", "ccity"], tmp_path / "features.pkl")
        outs = []
        for n in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=n: set(range(n)))
            assert main(["evaluate", "--cache-dir", str(tmp_path), "--n-trees", "3"]) == 3
            out, err = capsys.readouterr()
            assert "bcity: feature column 4 has non-finite values" in err
            assert "ccity" not in err
            outs.append(out)
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
        # the cities before the failing one are reported as they were
        assert outs[0] == outs[1] and outs[0].startswith("[evaluate] acity: gbdt acc=")
        assert not (tmp_path / "eval.json").exists()


def test_runtime_import_loads_no_scipy():
    # scipy is a test-only dependency: no stage may import it at start-up
    env = dict(os.environ, PYTHONPATH=str(Path(cascademine.__file__).parents[1]))
    code = ("import cascademine.cli, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.strip() == "[]"
