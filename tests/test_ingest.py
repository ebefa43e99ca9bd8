import datetime as dt
import itertools
import json
import os
import pickle
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from cascademine import ingest
from cascademine.cli import main
from cascademine.errors import DataError
from cascademine.ingest import (CACHE_FORMAT, EVENT_DTYPE, DatasetPaths, EventKind, _read_lines,
                                ingest_dataset, load_ingest, load_profiles, normalize_city,
                                save_ingest, save_profiles, yearly_activity_counts)
from conftest import event_table, mk_event, wait_for
from oracles import are_friends, degree, neighbors, read_json_lines


def write_lines(path, objs):
    with open(path, "w", encoding="utf-8") as fh:
        for obj in objs:
            fh.write(obj if isinstance(obj, str) else json.dumps(obj))
            fh.write("\n")


def make_dataset(tmp_path, businesses, users, reviews, tips):
    paths = DatasetPaths(business=tmp_path / "b.json", user=tmp_path / "u.json",
                         review=tmp_path / "r.json", tip=tmp_path / "t.json")
    write_lines(paths.business, businesses)
    write_lines(paths.user, users)
    write_lines(paths.review, reviews)
    write_lines(paths.tip, tips)
    return paths


BIZ = [{"business_id": "b1", "city": "Springfield", "stars": 4.5, "review_count": 10,
        "categories": "Food, Bars", "is_open": 1}]
USERS = [{"user_id": "a", "friends": ["b"], "review_count": 3, "average_stars": 4.2,
          "yelping_since": "2010-06-01", "fans": 2, "elite": ["2012", "2013"]},
         {"user_id": "b", "friends": "a, c", "review_count": 1, "average_stars": None,
          "yelping_since": "2011-01-15", "fans": 0, "elite": "None"}]


class TestIngest:
    def test_review_field_mapping(self, tmp_path):
        reviews = [{"review_id": "r1", "user_id": "a", "business_id": "b1", "stars": 4,
                    "date": "2012-01-05", "text": "ok", "useful": 1, "funny": 0, "cool": 0}]
        result = ingest_dataset(make_dataset(tmp_path, BIZ, USERS, reviews, []))
        (event,) = result.events
        assert event["kind"] == EventKind.REVIEW
        assert event["stars"] == 4
        assert event["text_len"] == 2
        assert event["votes"] == 1
        assert event["day"] == dt.date(2012, 1, 5).toordinal()
        assert result.business_ids[event["business_id"]] == "b1"
        assert result.user_ids[event["user_id"]] == "a"

    def test_votes_sum_review_counts(self, tmp_path):
        reviews = [{"user_id": "a", "business_id": "b1", "date": "2012-01-05",
                    "text": "ok", "useful": 1, "funny": 2, "cool": 4, "likes": 8}]
        result = ingest_dataset(make_dataset(tmp_path, BIZ, USERS, reviews, []))
        (event,) = result.events
        assert event["votes"] == 7  # a review has no likes

    def test_tip_has_no_stars(self, tmp_path):
        tips = [{"user_id": "a", "business_id": "b1", "date": "2012-02-01",
                 "text": "nice", "likes": 3}]
        result = ingest_dataset(make_dataset(tmp_path, BIZ, USERS, [], tips))
        (event,) = result.events
        assert event["kind"] == EventKind.TIP
        assert event["stars"] == 0  # none
        assert event["votes"] == 3

    def test_malformed_lines_counted(self, tmp_path):
        reviews = [
            {"user_id": "a", "business_id": "b1", "date": "2012-01-01", "text": "x"},
            "{this is not json",
            {"user_id": "b", "business_id": "b1", "date": "2012-01-02", "text": "y"},
            {"user_id": "c", "business_id": "b1", "date": "2012-01-03", "text": "z"},
        ]
        result = ingest_dataset(make_dataset(tmp_path, BIZ, USERS, reviews, []))
        assert result.n_events == 3
        assert result.drop_counts["review"]["malformed"] == 1

    @pytest.mark.parametrize("bad", ["[" * 100_000, '{"review_count": ' + "1" * 5000 + "}"],
                             ids=["deeply-nested", "long-number"])
    @pytest.mark.parametrize("name", ["business", "user", "review", "tip"])
    def test_unparsable_line_counted_malformed(self, tmp_path, capsys, name, bad):
        # beyond the JSON decoder's recursion or integer-digit limit: one
        # malformed line, no traceback
        tips = [{"user_id": "b", "business_id": "b1", "date": "2012-01-02", "text": "t"}]
        files = {"business": BIZ, "user": USERS, "review": [], "tip": tips}
        files[name] = files[name] + [bad]
        paths = make_dataset(tmp_path, *files.values())
        result = ingest_dataset(paths)
        assert result.drop_counts[name]["malformed"] == 1
        assert result.n_events == 1
        assert main(["ingest", "--business", str(paths.business), "--user", str(paths.user),
                     "--review", str(paths.review), "--tip", str(paths.tip),
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        assert f"[ingest] {name}: " in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["business", "user", "review", "tip"])
    def test_non_object_or_non_string_id_counted_malformed(self, tmp_path, name):
        event = {"user_id": "a", "business_id": "b1", "date": "2012-01-02", "text": "t"}
        ids = {"business": ["business_id"], "user": ["user_id"],
               "review": ["user_id", "business_id"], "tip": ["user_id", "business_id"]}[name]
        good = {"business": BIZ[0], "user": USERS[0], "review": event, "tip": event}[name]
        bad = ["[1]", '"x"', "7", "null"] + [{**good, field: value} for field in ids
                                             for value in (7, None)]
        files = {"business": BIZ, "user": USERS, "review": [event], "tip": [event]}
        files[name] = files[name] + bad
        result = ingest_dataset(make_dataset(tmp_path, *files.values()))
        for file, c in result.drop_counts.items():
            assert c["lines"] == sum(n for key, n in c.items() if key != "lines"), file
        assert result.drop_counts[name]["malformed"] == len(bad)
        assert result.drop_counts[name]["retained"] == len(files[name]) - len(bad)
        assert result.n_events == 2

    def test_only_calendar_date_prefix_read(self, tmp_path):
        # Python 3.11's date.fromisoformat reads ISO week dates; 3.10 does not
        reviews = [{"user_id": "a", "business_id": "b1", "date": day, "text": "x"}
                   for day in ("2015-W01-1", "2015-02-30", "20150101", "2015-01-01T10")]
        users = [{**USERS[0], "yelping_since": "2015-W01-1"}, USERS[1]]
        result = ingest_dataset(make_dataset(tmp_path, BIZ, users, reviews, []))
        assert result.drop_counts["review"] == {"lines": 4, "malformed": 3, "retained": 1}
        assert result.events["day"].tolist() == [dt.date(2015, 1, 1).toordinal()]
        since = dict(zip(result.user_ids, result.profiles.users["yelping_since"].tolist()))
        assert since["a"] == 0  # absent
        assert since["b"] == dt.date(2011, 1, 15).toordinal()

    def test_drop_count_accounting(self, tmp_path):
        reviews = [
            {"user_id": "a", "business_id": "b1", "date": "2012-01-01", "text": "x"},
            {"user_id": "a", "business_id": "nope", "date": "2012-01-02", "text": "x"},
            {"user_id": "a", "business_id": "b1", "date": "not-a-date", "text": "x"},
            "garbage",
        ]
        result = ingest_dataset(make_dataset(tmp_path, BIZ, USERS, reviews, []))
        c = result.drop_counts["review"]
        assert c["lines"] == 4
        assert c["lines"] == c["retained"] + c["malformed"] + c["unknown_business"]
        assert c["unknown_business"] == 1
        assert c["malformed"] == 2

    def test_no_zero_drop_counters(self, tmp_path):
        reviews = [{"user_id": "a", "business_id": "b1", "date": "2012-01-05", "text": "x"}]
        result = ingest_dataset(make_dataset(tmp_path, BIZ, USERS, reviews, []))
        assert result.drop_counts == {"business": {"lines": 1, "retained": 1},
                                      "user": {"lines": 2, "retained": 2},
                                      "review": {"lines": 1, "retained": 1}, "tip": {}}

    def test_empty_city_business_dropped(self, tmp_path):
        businesses = BIZ + [{"business_id": "b2", "city": "   ", "stars": 3.0,
                             "review_count": 0, "categories": "", "is_open": 0}]
        reviews = [{"user_id": "a", "business_id": "b2", "date": "2012-01-01", "text": "x"}]
        result = ingest_dataset(make_dataset(tmp_path, businesses, USERS, reviews, []))
        assert result.drop_counts["business"]["empty_city"] == 1
        assert result.drop_counts["review"]["unknown_business"] == 1
        assert result.n_events == 0

    def test_city_partition_disjoint_exhaustive(self, tmp_path):
        businesses = [
            {"business_id": "b1", "city": "Alpha", "stars": 4.0, "review_count": 1,
             "categories": "", "is_open": 1},
            {"business_id": "b2", "city": "beta", "stars": 3.0, "review_count": 1,
             "categories": "", "is_open": 1},
        ]
        reviews = [
            {"user_id": "a", "business_id": "b1", "date": "2012-01-01", "text": "x"},
            {"user_id": "b", "business_id": "b2", "date": "2012-01-02", "text": "y"},
            {"user_id": "a", "business_id": "b2", "date": "2012-01-03", "text": "z"},
        ]
        result = ingest_dataset(make_dataset(tmp_path, businesses, USERS, reviews, []))
        assert set(result.events_by_city) == {"alpha", "beta"}
        assert sum(len(v) for v in result.events_by_city.values()) == 3
        profiles = result.profiles
        for city, events in result.events_by_city.items():
            for event in events:
                assert profiles.cities[profiles.businesses["city"][event.business_id]] == city

    def test_interning_independent_of_line_order(self, tmp_path, monkeypatch):
        users = USERS + [{"user_id": "q", "friends": ["z", "c", "a"], "review_count": 7,
                          "average_stars": 3.5}, "{not json"]
        reviews = [{"user_id": u, "business_id": "b1", "date": "2012-01-01", "text": u * 3}
                   for u in ("z", "m", "a")]
        tips = [{"user_id": "q", "business_id": "b1", "date": "2012-01-02", "text": ""}]

        def friends_reversed(user):
            if isinstance(user, str):
                return user
            friends = user["friends"]
            return {**user, "friends": friends[::-1] if isinstance(friends, list)
                    else ",".join(friends.split(",")[::-1])}

        inputs = [(users, reviews), (users, reviews[::-1]), (users[::-1], reviews),
                  ([friends_reversed(u) for u in users], reviews),
                  ([friends_reversed(u) for u in users[::-1]], reviews[::-1])]
        results, caches = [], []
        # with 3 CPUs each of the user, review and tip files is parsed in a
        # process of its own, with 1 all three inline
        for n in (1, 2, 3):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=n: set(range(n)))
            for i, (user_lines, review_lines) in enumerate(inputs):
                out = tmp_path / f"{n}-{i}"
                out.mkdir()
                results.append(ingest_dataset(
                    make_dataset(out, BIZ, user_lines, review_lines, tips)))
                save_ingest(results[-1], out / "ingest.pkl")
                save_profiles(results[-1].profiles, out / "profiles.npz")
                caches.append([(out / name).read_bytes()
                               for name in ("ingest.pkl", "profiles.npz")])
        first = results[0]
        assert first.user_ids == ["a", "b", "c", "m", "q", "z"]
        assert first.drop_counts["user"]["malformed"] == 1
        # the drop counters too: their order must not follow the first drop's line
        assert all(cache == caches[0] for cache in caches[1:])
        for other in results[1:]:
            assert other.user_ids == first.user_ids
            assert other.business_ids == first.business_ids
            assert other.events.tobytes() == first.events.tobytes()
            a, b = other.profiles, first.profiles
            assert a.users.tobytes() == b.users.tobytes()
            assert a.businesses.tobytes() == b.businesses.tobytes()
            assert a.cities == b.cities
            assert a.graph.indptr.tolist() == b.graph.indptr.tolist()
            assert a.graph.indices.tolist() == b.graph.indices.tolist()

    def test_duplicate_user_line_replaces_earlier(self, tmp_path):
        users = [{"user_id": "a", "friends": ["x", "r"], "fans": 1},
                 {"user_id": "b", "friends": ["a", "z", "u"], "fans": 4, "average_stars": 2},
                 {"user_id": "a", "friends": ["y"], "fans": 2},
                 {"user_id": "b", "friends": [], "fans": 3}]
        reviews = [{"user_id": "r", "business_id": "b1", "date": "2012-01-01"},
                   {"user_id": "u", "business_id": "b9", "date": "2012-01-01"}]
        result = ingest_dataset(make_dataset(tmp_path, BIZ, users, reviews, []))
        # 'x' and 'z' are named only on superseded lines, so they get no id,
        # nor does 'u', whose only review is at an unknown business. 'r' is
        # named on a superseded line too, but also by a retained review.
        assert result.user_ids == ["a", "b", "r", "y"]
        assert result.events["user_id"].tolist() == [2]
        assert result.drop_counts["review"]["unknown_business"] == 1
        graph = result.profiles.graph
        assert degree(graph, 0) == 1 and are_friends(graph, 0, 3)
        assert degree(graph, 1) == 0  # its kept line lists no friends
        assert degree(graph, 2) == 0
        table = result.profiles.users
        assert table["fans"].tolist() == [2, 3, 0, 0]
        assert table["listed"].tolist() == [True, True, False, False]
        assert np.isnan(table["average_stars"]).all()
        assert result.drop_counts["user"]["retained"] == 4

    def test_user_listing_memory_per_user(self, tmp_path):
        # no Python object is kept per user line: the tracemalloc peak was
        # about 650 B per listed user with a dict entry, a friend array and a
        # row tuple per user, about 470 B with flat arrays and a second dict of
        # every raw id at the merge, and about 410 B with one sorted numbering
        n, rnd = 5_000, random.Random(3)
        users = [{"user_id": f"user{i:07d}", "review_count": i, "average_stars": 3.5,
                  "friends": [f"user{rnd.randrange(n):07d}" for _ in range(6)],
                  "yelping_since": "2012-03-04", "fans": 1, "elite": "2012,2013"}
                 for i in range(n)]
        paths = make_dataset(tmp_path, BIZ, users, [], [])
        tracemalloc.start()
        try:
            ingest_dataset(paths)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / n < 441, f"{peak / n:.0f} B per listed user"

    def test_friends_both_encodings_and_elite(self, tmp_path):
        result = ingest_dataset(make_dataset(tmp_path, BIZ, USERS, [], []))
        users, graph = result.profiles.users, result.profiles.graph
        by_raw = dict(zip(result.user_ids, users))
        index = {raw: i for i, raw in enumerate(result.user_ids)}
        # 'b' lists 'a' and 'c'; 'a' lists 'b' too, so 'a' has one friend
        assert degree(graph, index["a"]) == 1
        assert degree(graph, index["b"]) == 2
        assert are_friends(graph, index["b"], index["c"])
        assert by_raw["a"]["elite_years"] == 2
        assert by_raw["b"]["elite_years"] == 0
        assert by_raw["a"]["yelping_since"] == dt.date(2010, 6, 1).toordinal()
        assert np.isnan(by_raw["b"]["average_stars"])
        assert by_raw["a"]["listed"] and by_raw["b"]["listed"] and not by_raw["c"]["listed"]

    def test_self_friend_removed(self, tmp_path):
        users = [{"user_id": "a", "friends": ["a", "b"], "review_count": 0,
                  "yelping_since": "2010-01-01", "fans": 0, "elite": []}]
        result = ingest_dataset(make_dataset(tmp_path, BIZ, users, [], []))
        uid = result.user_ids.index("a")
        graph = result.profiles.graph
        assert uid not in neighbors(graph, uid).tolist()
        assert degree(graph, uid) == 1  # 'b' only

    def test_missing_file_fatal(self, tmp_path):
        paths = make_dataset(tmp_path, BIZ, USERS, [], [])
        bad = DatasetPaths(business=paths.business, user=paths.user,
                           review=tmp_path / "absent.json", tip=paths.tip)
        with pytest.raises(DataError, match="absent.json"):
            ingest_dataset(bad)

    def test_zero_businesses_fatal(self, tmp_path):
        paths = make_dataset(tmp_path, ["not json at all"], USERS, [], [])
        with pytest.raises(DataError):
            ingest_dataset(paths)

    def test_out_of_range_stars_stored_absent(self, tmp_path):
        reviews = [{"user_id": "a", "business_id": "b1", "date": "2012-01-01",
                    "stars": 11, "text": "x"}]
        businesses = BIZ + [{"business_id": f"b{i}", "city": "Springfield", **stars}
                            for i, stars in enumerate(
                                ({"stars": 7.5}, {}, {"stars": "x"}, {"stars": 0.5},
                                 {"stars": float("nan")}, {"stars": 1}, {"stars": "5"}), 2)]
        users = [{**USERS[0], "average_stars": 9.0}, {**USERS[1], "average_stars": -1},
                 {"user_id": "c", "average_stars": float("inf")},
                 {"user_id": "d", "average_stars": "1.0"}, {"user_id": "e", "average_stars": 5}]
        result = ingest_dataset(make_dataset(tmp_path, businesses, users, reviews, []))
        (event,) = result.events
        assert event["stars"] == 0  # none
        # absent, malformed, not finite or outside 1..5: NaN
        stars = dict(zip(result.business_ids, result.profiles.businesses["stars"].tolist()))
        assert [stars[f"b{i}"] for i in (1, 7, 8)] == [4.5, 1.0, 5.0]
        assert all(np.isnan(stars[f"b{i}"]) for i in range(2, 7))
        average = dict(zip(result.user_ids, result.profiles.users["average_stars"].tolist()))
        assert (average["d"], average["e"]) == (1.0, 5.0)
        assert all(np.isnan(average[u]) for u in "abc")

    def test_datetime_date_parsed_to_day(self, tmp_path):
        reviews = [{"user_id": "a", "business_id": "b1",
                    "date": "2014-07-09 13:44:00", "text": "x"}]
        result = ingest_dataset(make_dataset(tmp_path, BIZ, USERS, reviews, []))
        (event,) = result.events
        assert event["day"] == dt.date(2014, 7, 9).toordinal()

    def test_events_sorted(self, tmp_path):
        businesses = BIZ + [{"business_id": "b0", "city": "Zeta", "stars": 3.0}]
        reviews = [{"user_id": u, "business_id": b, "date": d, "text": text}
                   for u, b, d, text in (("c", "b1", "2012-01-05", "1"),
                                         ("b", "b0", "2011-01-01", "2"),
                                         ("a", "b1", "2012-01-05", "3"),
                                         ("b", "b1", "2012-01-01", "4"),
                                         ("a", "b1", "2012-01-05", "55"))]
        tips = [{"user_id": "a", "business_id": "b1", "date": "2012-01-05", "text": "666"}]
        result = ingest_dataset(make_dataset(tmp_path, businesses, USERS, reviews, tips))
        assert result.cities == ["springfield", "zeta"]
        assert result.city_offsets.tolist() == [0, 5, 6]
        springfield = result.events_by_city["springfield"]
        keys = [(e.business_id, e.day, e.user_id, e.kind) for e in springfield]
        assert keys == sorted(keys)
        # (business, day, user, kind) ties keep file order
        assert springfield["text_len"].tolist() == [1, 1, 2, 3, 1]
        assert result.events_by_city["zeta"]["text_len"].tolist() == [1]

    def test_cache_round_trip(self, tmp_path):
        reviews = [{"user_id": "a", "business_id": "b1", "date": "2012-01-01", "text": "x"}]
        result = ingest_dataset(make_dataset(tmp_path, BIZ, USERS, reviews, []))
        cache = tmp_path / "ingest.pkl"
        save_ingest(result, cache)
        loaded = load_ingest(cache)
        assert loaded.events.dtype == EVENT_DTYPE
        assert loaded.events.tobytes() == result.events.tobytes()
        assert loaded.cities == result.cities == ["springfield"]
        assert loaded.city_offsets.tolist() == result.city_offsets.tolist() == [0, 1]
        assert {city: e.tolist() for city, e in loaded.events_by_city.items()} == {
            city: e.tolist() for city, e in result.events_by_city.items()}
        assert loaded.user_ids == result.user_ids
        assert loaded.business_ids == result.business_ids
        assert loaded.drop_counts == result.drop_counts
        assert loaded.profiles is None  # they are stored on their own
        store = tmp_path / "profiles.npz"
        save_profiles(result.profiles, store)
        profiles = load_profiles(store)
        for name in ("users", "businesses"):
            a, b = getattr(profiles, name), getattr(result.profiles, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert profiles.cities == result.profiles.cities == ["springfield"]
        assert profiles.graph.indptr.tolist() == result.profiles.graph.indptr.tolist()
        assert profiles.graph.indices.tolist() == result.profiles.graph.indices.tolist()

    def test_unreadable_or_old_cache_is_data_error(self, tmp_path):
        result = ingest_dataset(make_dataset(tmp_path, BIZ, USERS, [], []))
        cache = tmp_path / "ingest.pkl"
        save_ingest(result, cache)
        cache.write_bytes(cache.read_bytes()[:-20])  # truncated write
        with pytest.raises(DataError, match="unreadable.*rerun 'ingest'"):
            load_ingest(cache)
        # version 1 kept friend lists on the user records, with no graph
        with open(cache, "wb") as fh:
            pickle.dump({"format": CACHE_FORMAT, "version": 1, "result": None}, fh)
        with pytest.raises(DataError, match="version 1 .*rerun 'ingest'"):
            load_ingest(cache)


    @pytest.mark.parametrize("own", [1, 2])
    def test_caches_independent_of_which_process_parses_which_file(self, tmp_path, monkeypatch,
                                                                  own):
        # At 2 CPUs this process parses `own` of the user, review and tip
        # files and its worker the others, with the files queued in every
        # order. Ids of several characters: CPython shares one object per
        # one-character string, so those cannot show a copy's identity.
        users = [{"user_id": f"user-{u}", "friends": [f"user-{f}" for f in friends],
                  "review_count": 2, "average_stars": 3.5}
                 for u, friends in (("k", "mz"), ("m", "k"), ("k", "q"))] + ["{not json"]
        reviews = [{"user_id": f"user-{u}", "business_id": b, "date": "2012-01-01",
                    "text": u} for u, b in (("z", "b1"), ("k", "b1"), ("q", "b9"))]
        tips = [{"user_id": "user-m", "business_id": "b1", "date": "2012-01-02"}, "[1]"]
        paths = make_dataset(tmp_path, BIZ, users, reviews, tips)
        parse, parent, log = ingest._parse_file, os.getpid(), tmp_path / "log"

        def logged(who: str) -> int:
            return log.read_text().split().count(who) if log.exists() else 0

        def in_turn(name, path, business_index):
            if os.getpid() == parent:
                with open(log, "a") as fh:
                    fh.write("caller\n")
                wait_for(lambda: logged("worker") >= 3 - own)
                return parse(name, path, business_index)
            wait_for(lambda: logged("caller") >= 1)
            part = parse(name, path, business_index)
            with open(log, "a") as fh:
                fh.write("worker\n")
            wait_for(lambda: logged("caller") >= own)
            return part

        def caches(out) -> list[bytes]:
            out.mkdir()
            result = ingest_dataset(paths)
            save_ingest(result, out / "ingest.pkl")
            save_profiles(result.profiles, out / "profiles.npz")
            return [(out / name).read_bytes() for name in ("ingest.pkl", "profiles.npz")]

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        inline = caches(tmp_path / "inline")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(ingest, "_parse_file", in_turn)
        for i, order in enumerate(itertools.permutations(("user", "review", "tip"))):
            monkeypatch.setattr(ingest, "_PARALLEL_FILES", order)
            log.unlink(missing_ok=True)
            assert caches(tmp_path / str(i)) == inline, order
            assert logged("caller") == own and logged("worker") == 3 - own


class TestNormalizeCity:
    @pytest.mark.parametrize("raw,expected", [
        ("  Las   Vegas ", "las vegas"),
        ("PHOENIX", "phoenix"),
        ("a\tb\nc", "a b c"),
        ("", ""),
        (None, ""),
    ])
    def test_examples(self, raw, expected):
        assert normalize_city(raw) == expected

    def test_idempotent(self):
        for raw in ("Las  Vegas", " x ", "Montréal "):
            once = normalize_city(raw)
            assert normalize_city(once) == once


class TestYearlyCounts:
    def test_simple_tally(self):
        events = event_table([mk_event(0, 0, 0), mk_event(1, 0, 10),
                              mk_event(2, 0, 20, kind=EventKind.TIP)])
        assert yearly_activity_counts(events) == [(2012, 2, 1)]

    def test_empty(self):
        assert yearly_activity_counts(event_table([])) == []

    def test_synthetic_totals(self, rng):
        events = []
        per_year = {2009 + i: 200 for i in range(5)}
        for year, n in per_year.items():
            for _ in range(n):
                offset = (dt.date(year, 1, 1) - dt.date(2012, 1, 1)).days + int(
                    rng.integers(0, 365))
                kind = EventKind.REVIEW if rng.random() < 0.5 else EventKind.TIP
                events.append(mk_event(0, 0, offset, kind=kind))
        table = yearly_activity_counts(event_table(events))
        assert [row[0] for row in table] == sorted(per_year)
        assert sum(r + t for _, r, t in table) == 1000
        for year, r, t in table:
            assert r + t == per_year[year]


# Input lines on which the decoder's scanner and json.loads might part ways.
DECODER_LINES = [
    '{"user_id": "a", "n": 1}',
    '\ufeff{"user_id": "bom"}',  # json.loads refuses a leading BOM
    "{} x", "{}{}", '{"user_id": "a"} {}', '{"user_id": "a"}]',
    '[{"user_id": "a"}]', '"user_id"', "7", "-0.5e3", "null", "true",
    '{"user_id": "nan", "a": NaN, "b": Infinity, "c": -Infinity}',
    '{"user_id": "first", "user_id": "last"}', '{"user_id": 7, "user_id": "last"}',
    '{"user_id": "first", "user_id": 7}',
    '{"user_id": "a", "n": 01}', '{"user_id": "a",}', "{'user_id': 'a'}", "{",
    '\u00a0{"user_id": "nbsp"}\u2028',  # stripped as Unicode whitespace
    '{"user_id": "ctl\u0001"}', '{"user_id": "esc\\u00e9\\ud83d"}',
    "[" * 100_000, '{"user_id": "big", "n": ' + "1" * 5000 + "}",
    "   ", "\t",
]


class TestLineReader:
    @pytest.mark.parametrize("ends", ["\n", "\r\n", "\r", "mixed"])
    @pytest.mark.parametrize("id_fields", [(), ("user_id",)])
    def test_accepts_exactly_what_json_loads_accepts(self, tmp_path, ends, id_fields):
        path = tmp_path / "lines.json"
        cycle = ["\n", "\r\n", "\r"] if ends == "mixed" else [ends]
        with open(path, "w", encoding="utf-8", newline="") as fh:
            for i, line in enumerate(DECODER_LINES):
                fh.write(line + cycle[i % len(cycle)])
        counts = Counter()
        objs = list(_read_lines(path, counts, *id_fields))
        expected, expected_counts = read_json_lines(path, *id_fields)
        assert counts == expected_counts and set(counts) <= {"lines", "malformed"}
        assert counts["lines"] == len(DECODER_LINES) - 2  # the two blank lines
        assert repr(objs) == repr(expected)  # repr: NaN equals itself
        assert "last" in repr(objs) and "nbsp" in repr(objs)

    def test_no_line_no_counter(self, tmp_path):
        (tmp_path / "empty.json").write_text(" \n\r\n\n", encoding="utf-8")
        counts = Counter()
        assert list(_read_lines(tmp_path / "empty.json", counts, "user_id")) == []
        assert not counts.keys()  # Counter() == {} holds even with zero-valued keys
