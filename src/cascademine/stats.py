"""Cascade size distributions, discrete power-law fits, longest cascades, DOT export.

The power-law fit is the standard discrete MLE with a KS-minimizing lower
cutoff (Clauset/Shalizi/Newman style): for every candidate xmin the exponent
is fit by maximizing the Hurwitz-zeta log-likelihood

    L(alpha) = -alpha * sum(log x_i) - n * log zeta(alpha, xmin)

over a grid with parabolic refinement, and xmin is the candidate whose fitted
tail CDF is closest to the empirical one in Kolmogorov-Smirnov distance. The
exponent is exposed as alpha > 1; report it negated to compare against slopes
quoted on the pmf scale.

The Hurwitz zeta is summed in numpy by Euler-Maclaurin, the method and
coefficients of Cephes' ``zeta.c`` (which ``scipy.special.zeta`` wraps), so
the runtime needs no scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from cascademine.cascades import Cascade, CityCascades

ALPHA_GRID = np.arange(1.05, 4.0 + 1e-9, 0.005)

# (2k)! / B_2k for k = 1..12: the Euler-Maclaurin tail coefficients of Cephes' zeta.c.
_ZETA_TAIL = (
    12.0, -720.0, 30240.0, -1209600.0, 47900160.0, -1.8924375803183791606e9,
    7.47242496e10, -2.950130727918164224e12, 1.1646782814350067249e14,
    -4.5979787224074726105e15, 1.8152105401943546773e17, -7.1661652561756670113e18,
)


def zeta(s, q) -> np.ndarray:
    """Hurwitz zeta sum_{i>=0} (q + i)^-s for s > 1 and q > 0, broadcasting s and q.

    Ten direct terms, then the Euler-Maclaurin remainder at w = q + 9: the
    integral w^(1-s)/(s-1), minus half the last direct term, plus twelve
    Bernoulli terms. Agrees with ``scipy.special.zeta`` to about 1e-15
    relative for s in [1.001, 30] and q >= 1.
    """
    s = np.asarray(s, dtype=np.float64)
    w = np.asarray(q, dtype=np.float64)
    total = w ** -s
    for _ in range(9):
        w = w + 1.0
        b = w ** -s
        total = total + b
    total = total + b * w / (s - 1.0) - 0.5 * b
    a = 1.0
    k = 0.0
    for coef in _ZETA_TAIL:
        a = a * (s + k)
        b = b / w
        total = total + a * b / coef
        k += 1.0
        a = a * (s + k)
        b = b / w
        k += 1.0
    return total


@dataclass(frozen=True, slots=True)
class PowerLawFit:
    alpha: float  # MLE exponent, > 1
    xmin: int  # KS-selected lower cutoff, >= 2
    ks_statistic: float
    n_tail: int  # observations >= xmin


def size_distribution(cascades_by_city: Mapping[str, CityCascades]
                      ) -> dict[str, list[tuple[int, int, float]]]:
    """Per-city histogram rows (size, count, P(X >= size)), ascending size."""
    out: dict[str, list[tuple[int, int, float]]] = {}
    for city in sorted(cascades_by_city):
        sizes = np.sort(cascades_by_city[city].sizes)
        if sizes.size == 0:
            out[city] = []
            continue
        values, counts = np.unique(sizes, return_counts=True)
        n = sizes.size
        tail = n - np.concatenate(([0], np.cumsum(counts)[:-1]))
        out[city] = [(int(v), int(c), float(t) / n) for v, c, t in zip(values, counts, tail)]
    return out


def _vertex_alpha(ll: np.ndarray, grid: np.ndarray) -> float:
    """Maximize one xmin's log-likelihood profile ``ll`` over ``grid``.

    Grid argmax plus one parabolic vertex step, which lands within ~1e-4 of
    the true optimum for these smooth profiles.
    """
    i = int(np.argmax(ll))
    if not 0 < i < len(grid) - 1:
        return float(grid[i])
    h = float(grid[i + 1] - grid[i])
    y0, y1, y2 = ll[i - 1], ll[i], ll[i + 1]
    curvature = y0 - 2.0 * y1 + y2
    if curvature >= 0.0:
        return float(grid[i])
    alpha = float(grid[i]) + 0.5 * h * float(y0 - y2) / float(curvature)
    return min(max(alpha, float(grid[i - 1])), float(grid[i + 1]))


def _ks_distance(v: np.ndarray, c: np.ndarray, z: np.ndarray) -> float:
    """Exact sup over integer support of |empirical tail CDF - fitted CDF|.

    ``v`` and ``c`` are the tail's observed values and counts; ``z`` holds
    zeta(alpha, q) at q = xmin, then at each v_j + 1, then at each v_{j+1}.
    The empirical CDF steps only at observed values, and the fitted CDF is
    increasing, so the sup is attained either at an observed value v_j or just
    before the next one (v_{j+1} - 1).
    """
    emp = np.cumsum(c) / c.sum()
    fit_at = 1.0 - z[1:len(v) + 1] / z[0]
    d = np.max(np.abs(emp - fit_at))
    if len(v) > 1:
        fit_before = 1.0 - z[len(v) + 1:] / z[0]
        d = max(d, float(np.max(np.abs(emp[:-1] - fit_before))))
    return float(d)


def fit_power_law(sizes: Sequence[int], min_tail: int = 10,
                  grid: np.ndarray = ALPHA_GRID) -> PowerLawFit:
    """Fit a discrete power law to a multiset of positive integers.

    Candidate xmin values are the distinct observed sizes >= 2 that keep at
    least ``min_tail`` observations and at least two distinct values in the
    tail; raises ValueError if no candidate qualifies or the data are
    degenerate (a single repeated value).
    """
    arr = np.asarray(sizes, dtype=np.int64)
    if arr.size == 0 or np.any(arr <= 0):
        raise ValueError("sizes must be positive integers")
    values, counts = np.unique(arr, return_counts=True)
    tail_counts = counts[::-1].cumsum()[::-1]  # observations >= values[j]
    distinct_ge = np.arange(len(values), 0, -1)  # distinct values >= values[j]

    candidates = [
        (int(v), int(t))
        for v, t, d in zip(values, tail_counts, distinct_ge)
        if v >= 2 and t >= min_tail and d >= 2
    ]
    if not candidates:
        raise ValueError(
            f"no usable xmin: need >= {min_tail} tail observations spanning "
            "at least two distinct sizes >= 2"
        )

    tails = [values >= xmin for xmin, _ in candidates]
    # The log-likelihood over the grid for every candidate, from one zeta
    # call: L(alpha) = -alpha * sum(log x_i) - n * log zeta(alpha, xmin).
    xmins, n = (np.array(col, dtype=np.float64)[:, None] for col in zip(*candidates))
    weighted = counts * np.log(values)
    log_sum = np.array([[weighted[tail].sum()] for tail in tails])
    ll = -grid * log_sum - n * np.log(zeta(grid, xmins))
    alphas = [_vertex_alpha(row, grid) for row in ll]

    # The KS points of every candidate, from one more zeta call: numpy's fixed
    # cost per call would outweigh the work of a call per candidate.
    v = [values[tail].astype(np.float64) for tail in tails]
    points = [np.concatenate(([xmin], vj + 1.0, vj[1:])) for (xmin, _), vj in zip(candidates, v)]
    lengths = [len(p) for p in points]
    z = np.split(zeta(np.repeat(alphas, lengths), np.concatenate(points)), np.cumsum(lengths)[:-1])

    best = None
    for (xmin, n_tail), alpha, tail, vj, zj in zip(candidates, alphas, tails, v, z):
        d = _ks_distance(vj, counts[tail].astype(np.float64), zj)
        if best is None or d < best[0]:
            best = (d, xmin, alpha, n_tail)
    d, xmin, alpha, n_tail = best
    return PowerLawFit(alpha=alpha, xmin=xmin, ks_statistic=d, n_tail=n_tail)


def ccdf_tail_slope(sizes: Sequence[int], min_tail_count: int = 10) -> float:
    """Least-squares slope of log CCDF vs log size over well-populated sizes.

    A diagnostic on the CCDF scale: a power law with exponent alpha has CCDF
    slope -(alpha - 1). Points with fewer than ``min_tail_count`` observations
    at or above them are dropped to keep extreme-tail noise out of the fit.
    """
    arr = np.asarray(sizes, dtype=np.int64)
    values, counts = np.unique(arr, return_counts=True)
    n = counts.sum()
    tail = counts[::-1].cumsum()[::-1]
    keep = tail >= min_tail_count
    if keep.sum() < 2:
        raise ValueError("not enough distinct sizes for a slope")
    x = np.log(values[keep].astype(np.float64))
    y = np.log(tail[keep] / n)
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)


def longest_cascades(cascades_by_city: Mapping[str, CityCascades],
                     top_k: int = 1) -> dict[str, list[Cascade]]:
    """Largest cascades per city, descending size, ties by cascade_id."""
    if top_k <= 0:
        raise ValueError("top_k must be positive")
    out = {}
    for city in sorted(cascades_by_city):
        cascades = cascades_by_city[city]
        ranked = np.argsort(-cascades.sizes, kind="stable")[:top_k]  # ties in cascade_id order
        out[city] = [cascades[j] for j in ranked.tolist()]
    return out


def export_dot(cascade: Cascade) -> str:
    """Graphviz DOT text with nodes anonymized to their temporal order index."""
    lines = ["digraph cascade {", *(f"  n{i};" for i in range(cascade.size)),
             *(f"  n{u} -> n{v};" for u, v in sorted(cascade.edges.tolist())), "}"]
    return "\n".join(lines) + "\n"
