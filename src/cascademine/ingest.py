"""Yelp-open-dataset JSON-lines ingestion into interned, city-partitioned tables.

Expected input files (one JSON object per line, field names as in the public
Yelp dataset dumps):

  review:   review_id, user_id, business_id, stars, date, text, useful, funny, cool
  tip:      user_id, business_id, date, text, likes
  user:     user_id, friends, review_count, average_stars, yelping_since, fans, elite
  business: business_id, city, stars, review_count, categories, is_open

Different dataset rounds encode ``friends``/``elite``/``categories`` either as
JSON arrays or as comma-separated strings; both are accepted. A date is read
from its ``YYYY-MM-DD`` prefix alone. A line ends at a line feed, a carriage
return and line feed, or a bare carriage return; a blank line is skipped. A
line, stripped of surrounding whitespace, must hold one JSON value that ends
it, as ``json.loads`` reads it. A line with trailing data or that the decoder
rejects, a value that is not an object, or id fields that are not strings make
the line malformed: skipped and counted per file (counters in name order, none
of them zero), never fatal. String ids become dense integers in sorted order of
the raw id strings, so the caches do not depend on line order. A user's last
line supersedes its earlier ones: a user id is numbered if a kept user line,
its friend list or a retained event names it, and an id that only a
superseded line names gets none.

The business file is parsed first. The user, review and tip files are then
parsed in parallel, one forked worker per CPU of the affinity mask
(:func:`cascademine.util.fork_map`), each interning user ids into local ids of
its own, in order of first sight. The caller numbers the raw ids once, in
sorted order, and maps each file's local ids straight to those numbers, so the
caches are byte-identical at any CPU count.

A count, a rating or a date that is missing, malformed, negative, out of
range (a rating outside 1..5) or not finite (``NaN``, ``Infinity``) is read as
absent: a business's ``stars`` and a user's ``average_stars`` are then NaN,
a review's ``stars`` (rounded to whole stars first) 0. So is an event's
``votes`` total that does not fit int32 (it is stored as 0).

Events and user lines are parsed straight into flat typed arrays, with no
object per line. The user and business tables and the friendship graph, built
once as CSR (:mod:`cascademine.social`), are the :class:`Profiles`. ``ingest``
writes two caches, one per reader:

* ``ingest.pkl`` (:func:`save_ingest`), read by ``build-cascades``: a pickle of
  the :class:`IngestResult` fields but ``profiles`` in the envelope
  ``{"format": "cascademine.ingest", "version": 5, ...}``;
* ``profiles.npz`` (:func:`save_profiles`), read by ``build-cascades`` for the
  graph and by ``features``: plain arrays, loaded without unpickling.

:func:`load_ingest` and :func:`load_profiles` refuse a damaged file, another
format or another version with a DataError.
"""

from __future__ import annotations

import datetime as dt
import json
import math
import re
import sys
from array import array
from collections import Counter
from dataclasses import dataclass, field
from enum import IntEnum
from itertools import repeat
from pathlib import Path

import numpy as np

import cascademine.social as social
from cascademine.errors import DataError
from cascademine.util import (ascending_names, fork_map, load_arrays, load_cache, save_arrays,
                              save_cache)

CACHE_FORMAT = "cascademine.ingest"
CACHE_VERSION = 5
PROFILES_FORMAT = "cascademine.profiles"
PROFILES_VERSION = 2

# One row per interned user. ``listed`` is False for a user known only from a
# friend list or an event; such a row holds no attributes. ``average_stars`` is
# NaN and ``yelping_since`` (a day ordinal) 0 when absent.
USER_DTYPE = np.dtype([("listed", np.bool_), ("review_count", np.int64),
                       ("average_stars", np.float64), ("yelping_since", np.int32),
                       ("fans", np.int64), ("elite_years", np.int64)])
# One row per interned business; ``city`` indexes the sorted city names and
# ``stars`` is NaN when absent.
BUSINESS_DTYPE = np.dtype([("city", np.int32), ("stars", np.float64),
                           ("review_count", np.int64), ("category_count", np.int64),
                           ("is_open", np.bool_)])
# One row per retained review or tip: the fields the pipeline consumes. A
# cascade node is its user's first event at the cascade's business. ``day`` is
# the date's ordinal; ``stars`` is 1..5 for a review and 0 for none (always for
# a tip); ``votes`` is useful + funny + cool for a review, likes for a tip.
EVENT_DTYPE = np.dtype([("business_id", np.int32), ("user_id", np.int32), ("day", np.int32),
                        ("kind", np.int8), ("stars", np.int8), ("text_len", np.int32),
                        ("votes", np.int32)])
_MAX_COUNT = int(np.iinfo(np.int64).max)
_MAX_VOTES = int(np.iinfo(np.int32).max)
_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")
_PARALLEL_FILES = ("user", "review", "tip")  # parsed in parallel, shared out in this order


class EventKind(IntEnum):
    REVIEW = 0
    TIP = 1


KIND_NAMES = {EventKind.REVIEW: "review", EventKind.TIP: "tip"}


@dataclass
class Profiles:
    """The user and business tables and the friendship graph: what feature
    extraction reads, stored as ``profiles.npz``."""

    users: np.ndarray  # USER_DTYPE, row u is interned user u
    businesses: np.ndarray  # BUSINESS_DTYPE, row b is interned business b
    cities: list[str]  # sorted normalized names, never empty strings
    graph: social.SocialGraph


@dataclass(frozen=True)
class DatasetPaths:
    business: Path
    user: Path
    review: Path
    tip: Path

    def all(self) -> dict[str, Path]:
        return {name: Path(getattr(self, name)) for name in ("business", "user", "review", "tip")}


@dataclass
class IngestResult:
    """Normalized tables keyed by dense interned ids.

    ``events`` is sorted by (city, business_id, day, user_id, kind), exact ties
    in file order (reviews before tips); city ``cities[j]`` has its rows
    ``[city_offsets[j], city_offsets[j + 1])``. ``user_ids`` / ``business_ids``
    map interned id back to the raw string id. ``profiles`` is None in a result
    read back by :func:`load_ingest`: they have a cache of their own.
    """

    events: np.ndarray  # EVENT_DTYPE, one plain array
    cities: list[str]  # sorted normalized names of the cities with events
    city_offsets: np.ndarray
    user_ids: list[str]
    business_ids: list[str]
    drop_counts: dict[str, dict[str, int]] = field(default_factory=dict)
    profiles: Profiles | None = None

    @property
    def n_events(self) -> int:
        return len(self.events)

    @property
    def events_by_city(self) -> dict[str, np.recarray]:
        """Each city's slice of ``events``, as a record view (``e.user_id``)."""
        at = self.city_offsets.tolist()
        return {city: self.events[at[j]:at[j + 1]].view(np.recarray)
                for j, city in enumerate(self.cities)}


def normalize_city(raw) -> str:
    """Trim, case-fold, and collapse whitespace runs in a raw city string."""
    if not isinstance(raw, str):
        return ""
    return " ".join(raw.split()).casefold()


def _parse_day(value) -> int | None:
    """The day ordinal of a ``YYYY-MM-DD`` date prefix, or None: no other form
    (an ISO week date, say) is read, whatever the Python version."""
    try:
        return dt.date.fromisoformat(value[:10]).toordinal() if _DATE.match(value) else None
    except (TypeError, ValueError):  # not a string, or a day such as 2015-02-30
        return None


def _as_int(value, default: int = 0) -> int:
    """A non-negative count that fits the tables; ``default`` for anything else."""
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):  # OverflowError: an infinite float
        return default
    return n if 0 <= n <= _MAX_COUNT else default


def _as_float(value) -> float | None:
    """A finite float, or None (NaN and infinities are absent values)."""
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):  # OverflowError: a huge int
        return None
    return x if math.isfinite(x) else None


def _as_rating(value) -> float:
    """A rating on the 1..5 scale, or NaN for an absent or out-of-range one."""
    x = _as_float(value)
    return x if x is not None and 1 <= x <= 5 else math.nan


def _id_list(value) -> list[str]:
    # friends / elite fields: JSON array in some rounds, comma string in others
    if isinstance(value, list):
        items = [str(x).strip() for x in value]
    elif isinstance(value, str):
        items = [x.strip() for x in value.split(",")]
    else:
        return []
    return [x for x in items if x and x != "None"]


def _read_lines(path: Path, counts: Counter, *id_fields: str):
    """Yield each non-blank line's JSON object whose ``id_fields`` are strings;
    count every such line in ``counts["lines"]``, every other in ``"malformed"``.

    The decoder's scanner reads one JSON value from the stripped line's start,
    and the line is taken only if that value ends it: the lines that
    ``json.loads`` accepts, without its per-call wrapping."""
    scan = json.JSONDecoder().scan_once
    lines = malformed = 0
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for line in fh:
            stripped = line.strip()
            if not stripped:
                continue
            lines += 1
            try:
                obj, end = scan(stripped, 0)
            # StopIteration: no value starts the line; ValueError: bad JSON or a
            # huge number; RecursionError: deep nesting
            except (StopIteration, ValueError, RecursionError):
                obj = end = None
            if end == len(stripped) and isinstance(obj, dict):
                for name in id_fields:
                    if not isinstance(obj.get(name), str):
                        break
                else:
                    yield obj
                    continue
            malformed += 1
    _tally(counts, lines=lines, malformed=malformed)


def _tally(counts: Counter, **tallies: int) -> None:
    """Add each nonzero tally to ``counts``, which gets no zero-valued key."""
    counts.update({name: n for name, n in tallies.items() if n})


def _event_table(rows: array, local: np.ndarray) -> np.ndarray:
    """An :data:`EVENT_DTYPE` table of :func:`_parse_events`' rows, its local
    user ids mapped through ``local``."""
    events = np.frombuffer(rows, [(name, np.int32) for name in EVENT_DTYPE.names]
                           ).astype(EVENT_DTYPE)  # by position
    events["user_id"] = local[events["user_id"]]
    return events


def _parse_businesses(path: Path, counts: Counter):
    records, empty_city, retained = {}, 0, 0
    for obj in _read_lines(path, counts, "business_id"):
        city = normalize_city(obj.get("city"))
        if not city:
            empty_city += 1
            continue
        records[obj["business_id"]] = (
            city,
            _as_rating(obj.get("stars")),
            _as_int(obj.get("review_count")),
            len(_id_list(obj.get("categories"))),
            bool(_as_int(obj.get("is_open"), 0)),
        )
        retained += 1
    _tally(counts, empty_city=empty_city, retained=retained)
    return records


def _parse_users(path: Path, counts: Counter, seen: dict[str, int]):
    """Append each retained user line to flat arrays: to an ``array("q")`` its
    local id (interned in ``seen``), friend count and integer USER_DTYPE columns,
    to an ``array("d")`` its average_stars, to an ``array("i")`` its friends'
    local ids."""
    columns, stars, friends = array("q"), array("d"), array("i")
    for obj in _read_lines(path, counts, "user_id"):
        uid = seen.setdefault(obj["user_id"], len(seen))
        listed = [seen.setdefault(f, len(seen)) for f in _id_list(obj.get("friends"))]
        friends.extend(listed)
        columns.extend((uid, len(listed), _as_int(obj.get("review_count")),
                        _parse_day(obj.get("yelping_since")) or 0, _as_int(obj.get("fans")),
                        len(_id_list(obj.get("elite")))))
        stars.append(_as_rating(obj.get("average_stars")))
    _tally(counts, retained=len(stars))
    return columns, stars, friends


def _parse_events(path: Path, kind: EventKind, business_index: dict[str, int],
                  counts: Counter, seen: dict[str, int]) -> array:
    """The :data:`EVENT_DTYPE` fields of each retained event, in order, in one
    flat array, its user id as the local id interned in ``seen``."""
    rows = array("i")
    days = {}  # date prefix -> its day: a file's events share few dates
    malformed = unknown_business = 0
    for obj in _read_lines(path, counts, "user_id", "business_id"):
        uid, bid = obj["user_id"], obj["business_id"]
        date = obj.get("date")
        date = date[:10] if isinstance(date, str) else None  # all that _parse_day reads
        if date not in days:
            days[date] = _parse_day(date)
        day = days[date]
        if day is None:
            malformed += 1
            continue
        if bid not in business_index:
            unknown_business += 1
            continue
        if kind is EventKind.REVIEW:
            stars = round(_as_float(obj.get("stars")) or 0)
            votes = (_as_int(obj.get("useful")) + _as_int(obj.get("funny"))
                     + _as_int(obj.get("cool")))
        else:
            stars, votes = 0, _as_int(obj.get("likes"))
        text = obj.get("text")
        rows.extend((business_index[bid], seen.setdefault(uid, len(seen)), day, kind,
                     stars if 1 <= stars <= 5 else 0, len(text) if isinstance(text, str) else 0,
                     votes if votes <= _MAX_VOTES else 0))
    _tally(counts, malformed=malformed, unknown_business=unknown_business,
           retained=len(rows) // len(EVENT_DTYPE.names))
    return rows


def _parse_file(name: str, path: Path, business_index: dict[str, int]):
    """Parse the user, review or tip file with user ids interned locally: its
    drop counters, its raw user ids in order of first sight (local id ``i`` is
    ``raw[i]``) and what :func:`_parse_users` or :func:`_parse_events` returns."""
    counts, seen = Counter(), {}
    if name == "user":
        parsed = _parse_users(path, counts, seen)
    else:
        parsed = _parse_events(path, EventKind[name.upper()], business_index, counts, seen)
    return counts, list(seen), parsed


def ingest_dataset(paths: DatasetPaths) -> IngestResult:
    """Parse the four dataset files into interned, city-partitioned tables.

    The business file is parsed first; the user, review and tip files then
    in parallel through :func:`fork_map`. Raises DataError for a missing file
    or when no valid business survives; malformed lines only increment
    per-file drop counters.
    """
    path_map = paths.all()
    for name, p in path_map.items():
        if not p.is_file():
            raise DataError(f"missing {name} file: {p}")

    counts = {name: Counter() for name in path_map}
    raw_businesses = _parse_businesses(path_map["business"], counts["business"])
    if not raw_businesses:
        raise DataError(f"no valid businesses in {path_map['business']}")
    # Interning: sorted raw-id order, so the assignment is a pure function of
    # the input content and not of file ordering.
    business_ids = sorted(raw_businesses)
    business_index = {raw: i for i, raw in enumerate(business_ids)}
    parts = fork_map(lambda name: _parse_file(name, path_map[name], business_index),
                     _PARALLEL_FILES)
    counts.update((name, part[0]) for name, part in zip(_PARALLEL_FILES, parts))
    _, user_raw, (columns, stars, friends) = parts.pop(0)  # leaves the event files

    # Each user's last line: the first occurrence of its id in reverse.
    lines = np.frombuffer(columns, np.int64).reshape(-1, 6)
    keep = np.zeros(len(lines), np.bool_)
    keep[len(lines) - 1 - np.unique(lines[::-1, 0], return_index=True)[1]] = True
    last = lines[keep]
    dst = np.frombuffer(friends, np.int32)[np.repeat(keep, lines[:, 1])]
    del lines, columns, friends

    # Final ids: the raw ids that a kept line, its friends or a retained event
    # names (not one named only on a superseded duplicate user line), numbered
    # once in sorted order. Each file's local ids map straight to them.
    named = np.zeros(len(user_raw), np.bool_)
    named[last[:, 0]] = named[dst] = True
    used = set(map(user_raw.__getitem__, np.flatnonzero(named).tolist()))
    for _, raw, _ in parts:
        used.update(raw)  # an event file interns only the users of retained events
    user_ids = sorted(used)
    del used, named
    index = dict(zip(user_ids, range(len(user_ids))))

    def final_ids(raw: list[str]) -> np.ndarray:  # local id -> final id, -1 for none
        return np.fromiter(map(index.get, raw, repeat(-1)), np.int32, len(raw))

    events = np.concatenate([_event_table(rows, final_ids(raw)) for _, raw, rows in parts])
    final = final_ids(user_raw)
    del parts, user_raw, index
    listed = final[last[:, 0]]
    src, dst = np.repeat(listed, last[:, 1]), final[dst]
    del final  # before the build, as are the friend arrays

    users = np.zeros(len(user_ids), USER_DTYPE)
    users["listed"][listed] = True
    for j, name in enumerate(("review_count", "yelping_since", "fans", "elite_years"), 2):
        users[name][listed] = last[:, j]
    users["average_stars"] = math.nan
    users["average_stars"][listed] = np.frombuffer(stars, np.float64)[keep]
    del last, stars
    graph = social.build_graph(src, dst, n_nodes=len(user_ids))
    del src, dst

    cities = sorted({city for city, *_ in raw_businesses.values()})
    city_index = {city: i for i, city in enumerate(cities)}
    businesses = np.array([(city_index[city], *row) for city, *row
                           in map(raw_businesses.__getitem__, business_ids)], BUSINESS_DTYPE)

    # lexsort is stable, so exact ties keep file order
    city = businesses["city"][events["business_id"]]
    order = np.lexsort((events["kind"], events["user_id"], events["day"],
                        events["business_id"], city))
    events, city = events[order], city[order]
    present, city_at = np.unique(city, return_index=True)

    return IngestResult(
        events=events,
        cities=[cities[i] for i in present.tolist()],
        city_offsets=np.append(city_at, len(events)),
        user_ids=user_ids,
        business_ids=business_ids,
        # pickle memoizes a string by identity: the interned name, not the copy
        # a worker sent back, keeps ingest.pkl's bytes the same at any CPU count
        drop_counts={name: {sys.intern(k): v for k, v in sorted(c.items())}
                     for name, c in counts.items()},
        profiles=Profiles(users, businesses, cities, graph),
    )


def yearly_activity_counts(events: np.ndarray) -> list[tuple[int, int, int]]:
    """Tally (year, review_count, tip_count) over events, ascending by year."""
    years = (np.datetime64("0001-01-01") + (events["day"] - 1)).astype("datetime64[Y]")
    years, at = np.unique(years.astype(np.int64) + 1970, return_inverse=True)
    counts = np.bincount(2 * at + events["kind"], minlength=2 * len(years)).reshape(-1, 2)
    return [(year, *row) for year, row in zip(years.tolist(), counts.tolist())]


def save_ingest(result: IngestResult, path) -> None:
    """Write ``ingest.pkl``: the events and the id maps, not the profiles."""
    save_cache(path, CACHE_FORMAT, CACHE_VERSION, events=result.events,
               cities=result.cities, city_offsets=result.city_offsets,
               user_ids=result.user_ids, business_ids=result.business_ids,
               drop_counts=result.drop_counts)


def load_ingest(path) -> IngestResult:
    """Read ``ingest.pkl``. A damaged file, another format or version, cities that
    are not strictly ascending strings or offsets that do not fit the events
    raise DataError naming 'ingest'."""
    payload = load_cache(path, CACHE_FORMAT, CACHE_VERSION, "ingest")
    try:
        events, cities, at = payload["events"], payload["cities"], payload["city_offsets"]
        if not ascending_names(cities):
            raise ValueError("the cities are not strictly ascending strings")
        if not (events.dtype == EVENT_DTYPE and at.dtype.kind == "i"
                and events.ndim == at.ndim == 1 and len(at) == len(cities) + 1
                and at[0] == 0 and at[-1] == len(events) and (np.diff(at) >= 0).all()):
            raise ValueError("the city offsets do not fit the events table")
        return IngestResult(events, cities, at, payload["user_ids"], payload["business_ids"],
                            payload["drop_counts"])
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        raise DataError(f"damaged ingest cache {path} ({exc!r}); rerun 'ingest'") from exc


def save_profiles(profiles: Profiles, path) -> None:
    """Write ``profiles.npz``, which :func:`load_profiles` reads."""
    save_arrays(path, PROFILES_FORMAT, PROFILES_VERSION, users=profiles.users,
                businesses=profiles.businesses, cities=np.array(profiles.cities, dtype=np.str_),
                indptr=profiles.graph.indptr, indices=profiles.graph.indices)


def load_profiles(path) -> Profiles:
    """Read ``profiles.npz``. A damaged file, another format or version, arrays
    that do not fit together or a neighbour row that is not strictly ascending
    raise DataError naming 'ingest'."""
    arrays = load_arrays(path, PROFILES_FORMAT, PROFILES_VERSION, "ingest")
    try:
        users, businesses, cities = arrays["users"], arrays["businesses"], arrays["cities"]
        indptr, indices = arrays["indptr"], arrays["indices"]
        fits = (users.dtype == USER_DTYPE and businesses.dtype == BUSINESS_DTYPE
                and cities.dtype.kind == "U" and indptr.dtype == indices.dtype == np.int32
                and {a.ndim for a in (users, businesses, cities, indptr, indices)} == {1}
                and len(indptr) == len(users) + 1 and indptr[0] == 0
                and indptr[-1] == len(indices) and (np.diff(indptr) >= 0).all()
                and ((0 <= indices) & (indices < len(users))).all()
                # each row strictly ascending: a step down only where a row starts
                and np.isin(np.flatnonzero(np.diff(indices) <= 0), indptr - 1).all()
                and ((0 <= businesses["city"]) & (businesses["city"] < len(cities))).all())
        if not fits:
            raise ValueError("the arrays do not fit together")
    except (KeyError, ValueError) as exc:
        raise DataError(f"damaged profile store {path} ({exc!r}); rerun 'ingest'") from exc
    return Profiles(users, businesses, cities.tolist(), social.SocialGraph(indptr, indices))
