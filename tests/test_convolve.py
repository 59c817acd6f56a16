"""Exact convolution engine, Poisson-binomial laws, and oracle statistics."""

from __future__ import annotations

import math

import numpy as np
import pytest

from lltkit import (
    LatticeError,
    chernoff_rho,
    convolve_all,
    iid_sum,
    kolmogorov_distance,
    llt_discrepancy,
    make_pmf,
    poisson_binomial,
    standard_normal_cdf,
)

from .conftest import random_pmf


class TestConvolveAll:
    def test_two_fair_coins(self, fair_bernoulli):
        law = convolve_all([fair_bernoulli, fair_bernoulli])
        assert law.pmf.probs == {0: 0.25, 1: 0.5, 2: 0.25}

    def test_binomial_64_central(self, fair_bernoulli):
        law = iid_sum(fair_bernoulli, 64)
        assert law.pmf.mass(32) == pytest.approx(math.comb(64, 32) / 2**64, rel=1e-13)

    def test_identity(self, uniform3):
        law = convolve_all([uniform3])
        assert law.pmf.probs == uniform3.probs

    def test_offsets_fold_into_sum(self):
        a = make_pmf(1.0, 1.0, [(0, 1), (1, 1)])
        b = make_pmf(-0.5, 1.0, [(0, 1)])
        law = convolve_all([a, b])
        assert law.pmf.v0 == 0.5
        assert law.mean == pytest.approx(1.0)

    def test_integer_ratio_spans_refine(self):
        coarse = make_pmf(0.0, 1.0, [(0, 1), (1, 1)])
        fine = make_pmf(0.0, 0.5, [(0, 1), (1, 1)])
        law = convolve_all([coarse, fine])
        assert law.pmf.D == 0.5
        assert law.pmf.mass(1) == pytest.approx(0.25)

    def test_incompatible_spans_rejected(self):
        a = make_pmf(0.0, 1.0, [(0, 1), (1, 1)])
        b = make_pmf(0.0, 0.7, [(0, 1), (1, 1)])
        with pytest.raises(LatticeError):
            convolve_all([a, b])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(11)
        pmfs = [random_pmf(rng, max_support=8) for _ in range(4)]
        d = min(p.D for p in pmfs)
        pmfs = [make_pmf(p.v0, d, list(p.probs.items())) for p in pmfs]
        base = convolve_all(pmfs).pmf
        perm = convolve_all([pmfs[2], pmfs[0], pmfs[3], pmfs[1]]).pmf
        ks = set(base.probs) | set(perm.probs)
        assert max(abs(base.mass(k) - perm.mass(k)) for k in ks) < 1e-12

    def test_moment_additivity(self):
        rng = np.random.default_rng(12)
        pmfs = [random_pmf(rng, max_support=10) for _ in range(6)]
        pmfs = [make_pmf(p.v0, 1.0, list(p.probs.items())) for p in pmfs]
        law = convolve_all(pmfs)
        from lltkit import moments

        mean_sum = sum(moments(p)[0] for p in pmfs)
        var_sum = sum(moments(p)[1] for p in pmfs)
        assert law.mean == pytest.approx(mean_sum, rel=1e-10)
        assert law.variance == pytest.approx(var_sum, rel=1e-10)


class TestPoissonBinomial:
    def test_two_halves(self):
        law = poisson_binomial([0.5, 0.5])
        assert np.allclose(law.pmf, [0.25, 0.5, 0.25])

    def test_tail_enumeration(self):
        # four fair coins: |B - 2| > 1.8 leaves exactly B in {0, 4}, 2/16 in all
        law = poisson_binomial([0.5] * 4)
        assert law.two_sided_tail(0.9) == pytest.approx(2.0 / 16.0)

    def test_tail_inequality_is_strict(self):
        # the deviation event excludes its boundary: |B - 2| > 2 is impossible
        # for four coins (|0 - 2| = 2 does not count)
        law = poisson_binomial([0.5] * 4)
        assert law.two_sided_tail(1.0) == 0.0

    def test_certain_successes(self):
        law = poisson_binomial([1.0, 1.0, 1.0])
        assert law.theta_n == 3.0
        assert law.pmf[3] == pytest.approx(1.0)

    def test_mean_matches_theta_n(self):
        rng = np.random.default_rng(3)
        ths = rng.uniform(0.05, 1.0, size=25)
        law = poisson_binomial(ths)
        assert float(np.arange(26) @ law.pmf) == pytest.approx(law.theta_n, abs=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(LatticeError):
            poisson_binomial([0.5, 0.0])
        with pytest.raises(LatticeError):
            poisson_binomial([1.1])

    def test_chernoff_dominates_small_grid(self):
        for n in (10, 50):
            law = poisson_binomial([0.5] * n)
            for h in (0.2, 0.5, 0.8):
                assert law.two_sided_tail(h) <= chernoff_rho(0.5 * n, h)


class TestKolmogorovDistance:
    def test_two_point_symmetric(self):
        p = make_pmf(0.0, 2.0, [(0, 1), (1, 1)])  # mass at -1, +1 after centering
        d = kolmogorov_distance(p, center=1.0, scale=1.0)
        assert d == pytest.approx(0.5 - standard_normal_cdf(-1.0), abs=1e-15)

    def test_point_mass(self, point_mass):
        assert kolmogorov_distance(point_mass, 0.0, 1.0) == pytest.approx(0.5)

    def test_binomial_rate(self, fair_bernoulli):
        dists = []
        for n in (4, 16, 64, 256):
            law = iid_sum(fair_bernoulli, n)
            dists.append(
                kolmogorov_distance(law.pmf, center=law.mean, scale=math.sqrt(law.variance))
            )
        assert all(a > b for a, b in zip(dists, dists[1:]))
        scaled = [d * math.sqrt(n) for d, n in zip(dists, (4, 16, 64, 256))]
        assert all(0.3 <= s <= 0.55 for s in scaled)  # Berry-Esseen n^{-1/2} order

    def test_affine_invariance(self):
        rng = np.random.default_rng(5)
        p = random_pmf(rng)
        a, b = 2.0, 3.25
        q = make_pmf(a * p.v0 + b, a * p.D, list(p.probs.items()))  # law of a*X + b
        d1 = kolmogorov_distance(p, center=1.0, scale=2.0)
        d2 = kolmogorov_distance(q, center=a * 1.0 + b, scale=a * 2.0)
        assert d2 == pytest.approx(d1, abs=1e-14)

    def test_rejects_bad_scale(self, fair_bernoulli):
        with pytest.raises(LatticeError):
            kolmogorov_distance(fair_bernoulli, 0.0, 0.0)


class TestLltDiscrepancy:
    def test_decreasing_for_fair_coin(self, fair_bernoulli):
        vals = [llt_discrepancy(iid_sum(fair_bernoulli, n)) for n in (8, 32, 128)]
        assert vals[0] > vals[1] > vals[2]

    def test_span_violation_stays_large(self):
        p = make_pmf(0.0, 1.0, [(0, 1), (2, 1)])  # even values on the unit lattice
        vals = [llt_discrepancy(iid_sum(p, n)) for n in (8, 32, 128)]
        assert min(vals) > 0.3

    def test_degenerate_variance_rejected(self, point_mass):
        with pytest.raises(LatticeError):
            llt_discrepancy(iid_sum(point_mass, 1))
