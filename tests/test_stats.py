import numpy as np
import pytest
import scipy.special

from cascademine import stats
from cascademine.stats import (ccdf_tail_slope, export_dot,
                               fit_power_law, longest_cascades, size_distribution)
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (as_store, as_stores, mk_cascade, random_events, random_graph,
                      small_stores, stored)
from cascademine.cascades import SummaryRow, build_cascades, cascade_summary
from cascademine.util import nearest_rank
from oracles import DiscretePowerLawSampler, alpha_mle_approx

_SAMPLER = None


def sampler() -> DiscretePowerLawSampler:
    global _SAMPLER
    if _SAMPLER is None:
        _SAMPLER = DiscretePowerLawSampler(alpha=2.0, xmin=2)
    return _SAMPLER


def cascade_of_size(n, index=0):
    nodes = [(i, i) for i in range(n)]
    edges = [(i, i + 1) for i in range(n - 1)]
    return mk_cascade(nodes, edges, index=index)


class TestSizeDistribution:
    def test_simple_ccdf(self):
        cascades = [cascade_of_size(2, 0), cascade_of_size(2, 1), cascade_of_size(3, 2)]
        (rows,) = size_distribution({"t": as_store(cascades)}).values()
        assert rows == [(2, 2, 1.0), (3, 1, pytest.approx(1 / 3))]

    def test_all_equal_sizes(self):
        cascades = [cascade_of_size(4, i) for i in range(5)]
        (rows,) = size_distribution({"t": as_store(cascades)}).values()
        assert rows == [(4, 5, 1.0)]

    def test_empty_city(self):
        assert size_distribution(as_stores({"t": []})) == {"t": []}

    def test_ccdf_monotone_and_counts_sum(self, rng):
        cascades = [cascade_of_size(int(s), i)
                    for i, s in enumerate(rng.integers(2, 40, size=300))]
        (rows,) = size_distribution({"t": as_store(cascades)}).values()
        ccdfs = [c for _, _, c in rows]
        assert ccdfs[0] == 1.0
        assert all(a >= b for a, b in zip(ccdfs, ccdfs[1:]))
        assert sum(c for _, c, _ in rows) == 300

    def test_loglog_slope_near_minus_one_for_alpha_two(self):
        rng = np.random.default_rng(99)
        sizes = sampler().sample(10_000, rng)
        slope = ccdf_tail_slope(sizes)
        assert abs(slope - (-1.0)) < 0.15


class TestZeta:
    # Relative tolerance against scipy.special.zeta (Cephes), which sums the
    # same Euler-Maclaurin series; the largest difference seen is 6e-16.
    RTOL = 1e-14
    S = np.concatenate((np.geomspace(1.001, 1.1, 40), np.linspace(1.1, 30.0, 120)))
    Q = np.unique(np.concatenate((np.arange(1.0, 101.0), np.geomspace(1.0, 1e6, 200),
                                  np.round(np.geomspace(1.0, 1e6, 200)))))

    def test_broadcast_grid_matches_scipy(self):
        got = stats.zeta(self.S[:, None], self.Q[None, :])
        assert got.shape == (len(self.S), len(self.Q))
        np.testing.assert_allclose(got, scipy.special.zeta(self.S[:, None], self.Q[None, :]),
                                   rtol=self.RTOL, atol=0.0)

    def test_vectors_match_scipy(self):
        for s, q in ((self.S, 3.0), (2.5, self.Q), (self.S, np.linspace(1.0, 1e6, len(self.S)))):
            got = stats.zeta(s, q)
            assert got.shape == np.broadcast(s, q).shape
            np.testing.assert_allclose(got, scipy.special.zeta(s, q), rtol=self.RTOL, atol=0.0)

    def test_scalars_match_scipy(self):
        for s, q in ((1.001, 1.0), (2.0, 1.0), (3.7, 17.0), (30.0, 1e6), (1.05, 2)):
            got = stats.zeta(s, q)
            assert np.ndim(got) == 0
            assert abs(got / scipy.special.zeta(s, q) - 1.0) <= self.RTOL
        assert abs(stats.zeta(2.0, 1.0) - np.pi ** 2 / 6) <= 1e-15


class TestFitPowerLaw:
    @pytest.mark.parametrize("seed, n", [(0, 100_000), (1, 100_000), (999, 20_000)])
    def test_same_fit_as_through_scipy_zeta(self, seed, n, monkeypatch):
        # criterion 04's samples: same xmin and tail, alpha and KS to 1e-12
        sizes = sampler().sample(n, np.random.default_rng(seed))
        fit = fit_power_law(sizes)
        monkeypatch.setattr(stats, "zeta", scipy.special.zeta)
        ref = fit_power_law(sizes)
        assert (fit.xmin, fit.n_tail) == (ref.xmin, ref.n_tail)
        assert fit.alpha == pytest.approx(ref.alpha, rel=1e-12, abs=0.0)
        assert fit.ks_statistic == pytest.approx(ref.ks_statistic, rel=1e-12, abs=0.0)

    def test_recovers_alpha_two(self):
        rng = np.random.default_rng(1)
        sizes = sampler().sample(100_000, rng)
        fit = fit_power_law(sizes)
        assert 1.9 <= fit.alpha <= 2.1
        assert fit.xmin >= 2
        assert fit.n_tail >= 10
        assert 0.0 <= fit.ks_statistic <= 1.0

    def test_constant_input_rejected(self):
        with pytest.raises(ValueError):
            fit_power_law([5] * 100)

    def test_too_few_tail_observations_rejected(self):
        with pytest.raises(ValueError):
            fit_power_law([2, 3, 4, 5, 6])

    def test_duplicate_observations_invariant_exactly(self):
        rng = np.random.default_rng(7)
        sizes = sampler().sample(5_000, rng)
        fit1 = fit_power_law(sizes)
        fit2 = fit_power_law(np.repeat(sizes, 2))
        assert fit1.alpha == fit2.alpha
        assert fit1.xmin == fit2.xmin
        assert fit1.ks_statistic == fit2.ks_statistic
        assert fit2.n_tail == 2 * fit1.n_tail

    def test_approximation_close_to_exact_mle(self):
        rng = np.random.default_rng(3)
        sizes = sampler().sample(50_000, rng)
        fit = fit_power_law(sizes)
        approx = alpha_mle_approx(sizes, fit.xmin)
        assert abs(approx - fit.alpha) < 0.05

    def test_alpha_above_one(self, rng):
        sizes = [int(s) for s in rng.integers(2, 30, size=500)]
        fit = fit_power_law(sizes)
        assert fit.alpha > 1.0


class TestLongestCascades:
    def test_picks_largest(self):
        cascades = [cascade_of_size(2, 0), cascade_of_size(3, 1), cascade_of_size(7, 2)]
        (top,) = longest_cascades({"t": as_store(cascades)}, top_k=1).values()
        assert top[0].size == 7

    def test_top_k_larger_than_count(self):
        cascades = [cascade_of_size(2, 0), cascade_of_size(3, 1)]
        (top,) = longest_cascades({"t": as_store(cascades)}, top_k=10).values()
        assert len(top) == 2

    def test_ties_by_cascade_id(self):
        a = cascade_of_size(4, 1)
        b = cascade_of_size(4, 0)
        (top,) = longest_cascades({"t": as_store([a, b])}, top_k=2).values()
        assert [c.cascade_id for c in top] == [b.cascade_id, a.cascade_id]

    def test_rejects_bad_top_k(self):
        with pytest.raises(ValueError):
            longest_cascades({}, top_k=0)


class TestExportDot:
    def test_single_edge(self):
        text = export_dot(mk_cascade([(0, 0), (1, 1)], [(0, 1)]))
        assert text.startswith("digraph")
        assert text.count("->") == 1
        assert "n0 -> n1;" in text

    def test_reciprocal_pair_two_edges(self):
        text = export_dot(mk_cascade([(0, 0), (1, 0)], [(0, 1), (1, 0)]))
        assert text.count("->") == 2

    def test_edge_count_parse_back(self, rng):
        graph = random_graph(rng, 20, 0.35)
        events = random_events(rng, 20, 1, 20, span_days=10)
        by_city = build_cascades({"t": events}, graph)
        cascade = max(by_city["t"], key=lambda c: c.size)
        text = export_dot(cascade)
        edge_lines = [l for l in text.splitlines() if "->" in l]
        assert len(edge_lines) == len(cascade.edges)
        node_lines = [l for l in text.splitlines()
                      if l.strip().endswith(";") and "->" not in l]
        assert len(node_lines) == cascade.size

    def test_anonymized_and_deterministic(self):
        cascade = mk_cascade([(12345, 0), (99999, 1)], [(12345, 99999)])
        text = export_dot(cascade)
        assert "12345" not in text and "99999" not in text
        assert text == export_dot(cascade)


@settings(max_examples=80, deadline=None)
@given(small_stores(), st.integers(1, 4))
def test_size_stages_match_per_cascade_sizes(by_city, top_k):
    for cascades_by_city in (as_stores(by_city), stored(by_city)):
        sizes = {city: sorted(c.size for c in cascades)
                 for city, cascades in sorted(cascades_by_city.items())}
        assert cascade_summary(cascades_by_city) == [
            SummaryRow(city, len(s), nearest_rank(s, 50), nearest_rank(s, 90), s[-1])
            if s else SummaryRow(city, 0, 0, 0, 0) for city, s in sizes.items()]
        assert size_distribution(cascades_by_city) == {
            city: [(v, s.count(v), sum(x >= v for x in s) / len(s)) for v in sorted(set(s))]
            for city, s in sizes.items()}
        top = longest_cascades(cascades_by_city, top_k)
        for city, cascades in cascades_by_city.items():
            want = sorted(cascades, key=lambda c: (-c.size, c.cascade_id))[:top_k]
            assert [(c.cascade_id, c.size) for c in top[city]] == [
                (c.cascade_id, c.size) for c in want]
