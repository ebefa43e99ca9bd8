"""Seeded input generator for the pipeline benchmark, in the Yelp JSON-lines format.

The benchmark owns this generator so that a change to ``cascademine.synth``
never changes the benchmark's inputs. It runs in one process, in time linear
in events plus friendships, and draws everything from the workload seed.

Model, per workload (see ``SPECS``):

* Friendships are a Chung-Lu style graph: edge endpoints are drawn with
  probability proportional to a fixed, heavy-tailed weight profile
  (``w_i ~ (i + 1/2)^(-1/(gamma-1))``), so a few hub users have degrees far
  above the mean, as on Yelp. Hubs that act at a small business have more
  friends than that business has participants, which is the dense branch of
  ``build_cascades``. User ids are a random permutation of the profile.
* Businesses have Zipf popularity and fixed, skewed city sizes.
* Each city gets a fixed number of planted cascades whose target sizes are
  stratified quantiles of a discrete power law on [2, size_max]. A cascade
  starts on a random day and grows by influence: a random active member's
  random friend joins after a 0-3 day delay, so same-day reciprocal pairs
  occur. Larger targets start at better-connected roots, spread with
  shorter delays and carry longer, more-voted reviews (engagement grows as
  size^2), which gives the classifier a signal to find. Every followed
  edge is written as a truth edge.
  Because the size multiset, the weight profile and the city sizes are the
  same for every seed, the amount of work varies little between seeds.
* Background events by random users at Zipf-popular businesses of each
  city, in counts proportional to the city's size, and later
  repeat tips by cascade members, add parsing work and accidental merges.
* Every file carries a small share of dirty input: malformed lines, array
  as well as comma-string list fields, dates with a time part, one-sided
  friend listings, users listed only by their friends, businesses with an
  empty city and events at unknown businesses. Every ingest drop counter is
  therefore non-zero.

Raw ids are ``u%06d`` and ``b%05d``. Every user id occurs in the inputs and
the businesses that ingest drops sort after the kept ones, so the program's
interned ids (sorted raw-id order) equal the generator's indices. The truth
check relies on that.
"""

from __future__ import annotations

import datetime as dt
import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

EPOCH = dt.date(2010, 1, 1)
SPAN_DAYS = 8 * 365
CATEGORIES = ("Restaurants", "Bars", "Coffee & Tea", "Shopping", "Beauty & Spas",
              "Automotive", "Nightlife", "Fitness", "Hotels", "Grocery", "Pizza",
              "Mexican", "Sushi Bars", "Home Services")
# Raw spellings per city; ingest case-folds and collapses whitespace.
CITY_SPELLINGS = (("Las Vegas", "las vegas", " Las  Vegas"),
                  ("Henderson", "HENDERSON"))
DIRTY_SHARE = 0.002  # malformed / unknown-business lines per file


@dataclass(frozen=True)
class Spec:
    """Shape of one workload's inputs. Counts are exact for every seed."""

    users: int
    mean_degree: float
    degree_gamma: float  # tail exponent of the degree profile
    degree_cap: int  # expected degree of the largest hub
    businesses: int
    zipf: float  # business popularity exponent
    city_shares: tuple[float, ...]  # share of businesses per city
    cascades: tuple[int, ...]  # planted cascades per city
    size_alpha: float  # exponent of the planted size law
    size_max: int
    background: int  # spontaneous events outside planted cascades


SPECS = {
    # Subcritical and paper-like: two-node cascades are most of each city and
    # the small city stays under min_big_cascades (50 long cascades).
    "full_paper": Spec(users=20_000, mean_degree=6.0, degree_gamma=2.6, degree_cap=500,
                       businesses=4_000, zipf=0.8, city_shares=(0.8, 0.2),
                       cascades=(5_000, 400), size_alpha=3.0, size_max=40,
                       background=15_000),
    # Near-critical: heavy-tailed degrees and sizes spanning decades, few
    # long cascades, many events to parse.
    "heavy_tail": Spec(users=20_000, mean_degree=8.0, degree_gamma=2.2, degree_cap=1_000,
                       businesses=2_500, zipf=1.0, city_shares=(0.85, 0.15),
                       cascades=(1_800, 150), size_alpha=2.0, size_max=2_000,
                       background=25_000),
}


@dataclass
class Generated:
    """What was written, plus the facts the benchmark checks against."""

    paths: dict[str, Path]  # business/user/review/tip/truth
    events: int  # valid review + tip events (what ingest should keep)
    users: int
    friend_edges: int
    max_degree: int
    truth: list[tuple[int, int, int]]  # (business, src user, dst user), generator ids


def degree_weights(n: int, gamma: float) -> np.ndarray:
    ranks = np.arange(n, dtype=np.float64) + 0.5
    return ranks ** (-1.0 / (gamma - 1.0))


def planted_sizes(n: int, alpha: float, size_max: int) -> np.ndarray:
    """Stratified quantiles of a discrete power law on [2, size_max], descending."""
    support = np.arange(2, size_max + 1, dtype=np.float64)
    cdf = np.cumsum(support ** -alpha)
    cdf /= cdf[-1]
    q = (np.arange(n, dtype=np.float64) + 0.5) / n
    return support[np.searchsorted(cdf, q)].astype(np.int64)[::-1]


def friendship_graph(spec: Spec, rng: np.random.Generator):
    """CSR adjacency (indptr, indices) of a Chung-Lu style graph, plus edge arrays."""
    n = spec.users
    weights = degree_weights(n, spec.degree_gamma)
    m = int(round(n * spec.mean_degree / 2))
    p = weights / weights.sum()
    p = np.minimum(p, spec.degree_cap / (2.0 * m))
    p = p[rng.permutation(n)] / p.sum()
    a = rng.choice(n, size=m, p=p)
    b = rng.choice(n, size=m, p=p)
    keep = a != b
    lo = np.minimum(a[keep], b[keep])
    hi = np.maximum(a[keep], b[keep])
    pairs = np.unique(lo.astype(np.int64) * n + hi)
    lo, hi = pairs // n, pairs % n
    src = np.concatenate([lo, hi])
    dst = np.concatenate([hi, lo])
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, src + 1, 1)
    return np.cumsum(indptr), dst, lo, hi


def _zipf_weights(n: int, s: float, rng: np.random.Generator) -> np.ndarray:
    w = (np.arange(n, dtype=np.float64) + 1.0) ** -s
    return w[rng.permutation(n)]


def _date_text(day: int, rnd: random.Random) -> str:
    d = (EPOCH + dt.timedelta(days=day)).isoformat()
    if rnd.random() < 0.3:
        return f"{d} {rnd.randrange(24):02d}:{rnd.randrange(60):02d}:{rnd.randrange(60):02d}"
    return d


def _list_field(items: list[str], rnd: random.Random):
    # Dataset rounds differ: JSON array in some, comma-separated string in others.
    return items if rnd.random() < 0.6 else ", ".join(items)


def _malformed(kind: str, i: int) -> str:
    """A line that ingest must count as malformed and skip."""
    variants = ['{"truncated": ', "[1, 2, 3]",
                json.dumps({f"{kind}_id": i, "note": "id is not a string"})]
    if kind == "review":  # well-formed ids, unparseable date
        variants.append(json.dumps({"user_id": "u000000", "business_id": "b00000",
                                    "date": "someday"}))
    return variants[i % len(variants)]


def generate(spec: Spec, seed: int, out_dir) -> Generated:
    """Write business/user/review/tip JSON lines and truth_edges.json under out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 0x9E3779B9])
    rnd = random.Random(seed)

    indptr, indices, edge_lo, edge_hi = friendship_graph(spec, rng)
    degree = np.diff(indptr)
    n_users, n_biz = spec.users, spec.businesses

    # Businesses: fixed city sizes, Zipf popularity within each city.
    bounds = np.round(np.cumsum((0.0,) + spec.city_shares) * n_biz).astype(np.int64)
    bounds[-1] = n_biz
    biz_perm = rng.permutation(n_biz)
    city_of = np.empty(n_biz, dtype=np.int64)
    city_biz = []
    for c in range(len(spec.city_shares)):
        members = np.sort(biz_perm[bounds[c]:bounds[c + 1]])
        city_of[members] = c
        pop = _zipf_weights(len(members), spec.zipf, rng)
        city_biz.append((members, np.cumsum(pop / pop.sum())))

    def pick_business(cum: np.ndarray, members: np.ndarray) -> int:
        i = int(np.searchsorted(cum, rnd.random() * cum[-1], side="right"))
        return int(members[min(i, len(cum) - 1)])

    # events[(user, business)] = day of the user's first event there
    first: dict[tuple[int, int], int] = {}
    truth: list[tuple[int, int, int]] = []
    cascade_members: list[tuple[int, int, int]] = []
    engagement: dict[tuple[int, int], float] = {}  # cascade events only; 1 elsewhere
    active_users = np.flatnonzero(degree > 0)

    for c, n_casc in enumerate(spec.cascades):
        members, cum = city_biz[c]
        for target in planted_sizes(n_casc, spec.size_alpha, spec.size_max):
            b = pick_business(cum, members)
            # Larger cascades start at better-connected users (best of several
            # random candidates) and spread faster: the root and temporal
            # signals that prefix features pick up.
            root = -1
            while root < 0 or (root, b) in first:
                picks = [int(active_users[rnd.randrange(len(active_users))])
                         for _ in range(min(int(target) - 1, 6))]
                root = max(picks, key=lambda u: degree[u])
            first[(root, b)] = rnd.randrange(SPAN_DAYS - 400)
            slow = (2.0 / target) ** 1.5  # share of delays drawn from 0-3, else 0-1
            nodes = [root]
            attempts = 0
            while len(nodes) < target and attempts < 40 * target:
                attempts += 1
                x = nodes[rnd.randrange(len(nodes))]
                lo, hi = indptr[x], indptr[x + 1]
                y = int(indices[lo + rnd.randrange(hi - lo)])
                if (y, b) in first:
                    continue
                delay = rnd.randrange(4) if rnd.random() < slow else int(rnd.random() < 0.3)
                first[(y, b)] = first[(x, b)] + delay
                nodes.append(y)
                truth.append((b, x, y))
            cascade_members.extend((u, b, first[(u, b)]) for u in nodes)
            engagement.update(((u, b), (target / 2.0) ** 2) for u in nodes)

    for c, share in enumerate(spec.city_shares):
        members, cum = city_biz[c]
        n_background = 0
        while n_background < round(share * spec.background):
            u = rnd.randrange(n_users)
            b = pick_business(cum, members)
            if (u, b) in first:
                continue
            first[(u, b)] = rnd.randrange(SPAN_DAYS)
            n_background += 1

    # Users listed only through their friends' lists (never in user.json). They
    # are low-degree and pairwise non-adjacent, so every edge stays listed.
    unlisted: set[int] = set()
    low = np.flatnonzero((degree > 0) & (degree <= 3))
    for u in rng.choice(low, size=min(len(low), max(3, n_users // 500)), replace=False):
        u = int(u)
        if not unlisted.intersection(indices[indptr[u]:indptr[u + 1]].tolist()):
            unlisted.add(u)
    friends: list[list[int]] = [[] for _ in range(n_users)]
    for u, v in zip(edge_lo.tolist(), edge_hi.tolist()):
        r = rnd.random()
        if u in unlisted or (v not in unlisted and r < 0.05):
            friends[v].append(u)  # one-sided: only v lists the edge
        elif v in unlisted or r < 0.10:
            friends[u].append(v)
        else:
            friends[u].append(v)
            friends[v].append(u)

    paths = {name: out / f"{name}.json"
             for name in ("business", "user", "review", "tip", "truth_edges")}

    n_events = 0
    review_count = np.zeros(n_users, dtype=np.int64)
    star_sum = np.zeros(n_users, dtype=np.int64)
    first_day = np.full(n_users, SPAN_DAYS, dtype=np.int64)
    biz_events = np.zeros(n_biz, dtype=np.int64)
    repeaters = sorted(rnd.sample(range(len(cascade_members)), len(cascade_members) // 30))
    repeat_rows = [cascade_members[i] for i in repeaters]
    n_unknown = 0
    with open(paths["review"], "w", encoding="ascii", newline="\n") as rfh, \
            open(paths["tip"], "w", encoding="ascii", newline="\n") as tfh:
        def write_event(u: int, b: str, day: int, force_tip: bool = False,
                        eng: float = 1.0) -> None:
            date = _date_text(day, rnd)
            text = "x" * min(5000, int(60 * eng * rnd.lognormvariate(0.0, 0.2)) + 5)
            if force_tip or rnd.random() < 0.3:
                tfh.write(json.dumps({"user_id": f"u{u:06d}", "business_id": b,
                                      "date": date, "text": text[:rnd.randrange(5, 120)],
                                      "likes": rnd.randrange(3)}) + "\n")
                return
            stars = rnd.randrange(1, 6)
            review_count[u] += 1
            star_sum[u] += stars
            rfh.write(json.dumps({
                "review_id": f"r{rnd.getrandbits(48):012x}", "user_id": f"u{u:06d}",
                "business_id": b, "stars": stars if rnd.random() > 0.01 else None,
                "date": date, "text": text, "useful": int(eng * rnd.random() * 2),
                "funny": rnd.randrange(2), "cool": rnd.randrange(3)}) + "\n")

        for (u, b), day in first.items():
            write_event(u, f"b{b:05d}", day, eng=engagement.get((u, b), 1.0))
            n_events += 1
            biz_events[b] += 1
            first_day[u] = min(first_day[u], day)
            if rnd.random() < DIRTY_SHARE:
                n_unknown += 1
                write_event(u, f"bx{n_unknown:05d}", day)
        for u, b, day in repeat_rows:  # strictly later, so first events are unchanged
            write_event(u, f"b{b:05d}", day + 1 + rnd.randrange(30), force_tip=True)
            n_events += 1
            biz_events[b] += 1
        n_bad = max(4, int(DIRTY_SHARE * n_events))
        for i in range(n_bad):
            (rfh if i % 2 else tfh).write(_malformed("review", i) + "\n")
        for fh in (rfh, tfh):  # at least one unknown-business line in each file
            fh.write(json.dumps({"user_id": "u000001", "business_id": "bx99999",
                                 "date": "2012-05-05", "text": "x", "stars": 3}) + "\n")

    with open(paths["user"], "w", encoding="ascii", newline="\n") as fh:
        for u in range(n_users):
            if u in unlisted:
                continue
            since = int(first_day[u]) - rnd.randrange(30, 1500)
            record = {
                "user_id": f"u{u:06d}",
                "friends": _list_field([f"u{v:06d}" for v in friends[u]], rnd)
                if friends[u] else "None",
                "review_count": int(review_count[u]) + rnd.randrange(5),
                "average_stars": round(star_sum[u] / review_count[u], 2)
                if review_count[u] else None,
                "yelping_since": _date_text(since, rnd) if rnd.random() > 0.01 else None,
                "fans": rnd.randrange(4) if rnd.random() < 0.8 else rnd.randrange(200),
                "elite": _list_field([str(2010 + i) for i in range(rnd.randrange(4))], rnd)
                if rnd.random() < 0.2 else "",
            }
            fh.write(json.dumps(record) + "\n")
            if rnd.random() < DIRTY_SHARE:
                fh.write(_malformed("user", u) + "\n")
        fh.write(_malformed("user", 2) + "\n")

    spellings = [CITY_SPELLINGS[c % len(CITY_SPELLINGS)] for c in range(len(spec.city_shares))]
    with open(paths["business"], "w", encoding="ascii", newline="\n") as fh:
        for b in range(n_biz):
            names = spellings[int(city_of[b])]
            cats = rnd.sample(CATEGORIES, rnd.randrange(1, 4))
            fh.write(json.dumps({
                "business_id": f"b{b:05d}",
                "city": names[rnd.randrange(len(names))],
                "stars": rnd.randrange(2, 11) / 2.0,
                "review_count": int(biz_events[b]) + rnd.randrange(20),
                "categories": _list_field(cats, rnd) if rnd.random() > 0.01 else None,
                "is_open": int(rnd.random() < 0.85),
            }) + "\n")
        for i in range(max(2, int(DIRTY_SHARE * n_biz))):
            fh.write(json.dumps({"business_id": f"bz{i:04d}", "city": "  ",
                                 "stars": 3.0}) + "\n")
            fh.write(_malformed("business", i) + "\n")

    with open(paths["truth_edges"], "w", encoding="ascii", newline="\n") as fh:
        for b, src, dst in truth:
            fh.write(f'{{"business": "b{b:05d}", "src": "u{src:06d}", "dst": "u{dst:06d}"}}\n')

    return Generated(paths=paths, events=n_events, users=n_users,
                     friend_edges=len(edge_lo), max_degree=int(degree.max()), truth=truth)
