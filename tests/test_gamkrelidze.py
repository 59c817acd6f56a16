"""Smoothness statistics, interval discrepancy, and the extraction bound."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from lltkit import (
    LatticeError,
    PreconditionError,
    effective_pointwise_bound,
    h_default,
    iid_sum,
    interval_discrepancy,
    make_pmf,
    prepare_sum,
    smoothness_stat,
    smoothness_via_extraction,
    sum_law,
)


def brute_force_rho(report) -> float:
    """O(window^2) double loop over all intervals, including singletons."""
    d = report.d
    prefix = np.concatenate([[0.0], np.cumsum(d)])
    best = 0.0
    for i in range(len(prefix)):
        for j in range(i + 1, len(prefix)):
            best = max(best, abs(prefix[j] - prefix[i]))
    return best


class TestSmoothnessStat:
    def test_binomial_2(self, fair_bernoulli):
        law = iid_sum(fair_bernoulli, 2)
        assert smoothness_stat(law, 1.0) == pytest.approx(0.25)

    def test_point_mass_boundary_gap(self, point_mass):
        law = iid_sum(point_mass, 1)
        assert smoothness_stat(law, 1.0) == 1.0

    def test_bounded_along_n(self, fair_bernoulli):
        vals = [smoothness_stat(iid_sum(fair_bernoulli, n), n / 4.0) for n in (16, 64, 256)]
        assert all(0.15 < v < 0.5 for v in vals)

    def test_rejects_non_unit_span(self):
        p = make_pmf(0.0, 0.5, [(0, 1), (1, 1)])
        with pytest.raises(LatticeError):
            smoothness_stat(iid_sum(p, 2), 1.0)


def _gappy_law(seed):
    """Integer-valued law with an integer offset and zeros inside its array:
    a span-2 two-point law summed with a point mass on the unit lattice."""
    rng = np.random.default_rng(seed)
    coarse = make_pmf(float(rng.integers(-3, 4)), 2.0, [(0, rng.random() + 0.1), (1, 1.0)])
    point = make_pmf(float(rng.integers(-3, 4)), 1.0, [(0, 1.0)])
    return sum_law([(coarse, int(rng.integers(1, 30))), (point, 1)])


# a skewed sum whose lowest masses underflow to zero at the start of its array
_UNDERFLOWED = (make_pmf(0.0, 1.0, [(0, 0.05), (1, 0.95)]), 300)


@pytest.mark.parametrize("law", [_gappy_law(s) for s in range(5)] + [iid_sum(*_UNDERFLOWED)])
def test_dense_reads_equal_dict_reference(law):
    """Positive masses as an integer -> mass dict, read the way the statistics
    once read them: zeros are no support points and never widen the window."""
    ks, w = law.atoms()
    f = {k + round(law.v0): p for k, p in zip(ks.tolist(), w.tolist())}
    gap = max(abs(f.get(k + 1, 0.0) - f.get(k, 0.0)) for k in set(f) | {k - 1 for k in f})
    assert smoothness_stat(law, 3.0) == 3.0 * gap
    for a_n in (law.mean, law.mean + 40.0):
        report = interval_discrepancy(law, a_n, law.variance)
        sd = math.sqrt(law.variance)
        k_lo = min(min(f), math.floor(a_n - 9.5 * sd))
        k_hi = max(max(f), math.ceil(a_n + 9.5 * sd))
        p = np.zeros(k_hi - k_lo + 1)
        for k, mass in f.items():
            p[k - k_lo] = mass
        assert report.k_lo == k_lo and np.array_equal(report.p, p)


class TestIntervalDiscrepancy:
    def test_prefix_equals_brute_force(self, fair_bernoulli):
        law = iid_sum(fair_bernoulli, 64)
        report = interval_discrepancy(law, 32.0, 16.0)
        assert report.rho == pytest.approx(brute_force_rho(report), abs=1e-12)

    def test_rho_dominates_single_points(self, fair_bernoulli):
        report = interval_discrepancy(iid_sum(fair_bernoulli, 32), 16.0, 8.0)
        assert report.rho >= np.abs(report.d).max() - 1e-15

    def test_shifted_center_increases_rho(self, fair_bernoulli):
        law = iid_sum(fair_bernoulli, 64)
        good = interval_discrepancy(law, 32.0, 16.0)
        shifted = interval_discrepancy(law, 42.0, 16.0)
        assert shifted.rho > good.rho

    def test_single_point_law(self, point_mass):
        law = iid_sum(point_mass, 1)
        report = interval_discrepancy(law, 0.0, 1.0)
        assert report.rho == pytest.approx(brute_force_rho(report), abs=1e-14)
        # the dominant entry is the point mass minus its Gaussian cell
        assert np.abs(report.d).max() > 0.5

    def test_tail_window_covers_gaussian(self, fair_bernoulli):
        report = interval_discrepancy(iid_sum(fair_bernoulli, 16), 8.0, 4.0)
        assert abs(float(report.ell.sum()) - 1.0) < 1e-12

    def test_cell_increment_inequality(self, fair_bernoulli):
        # |ell_{k+1} - ell_k| <= sqrt(2/(e pi)) / b_n over the whole window
        for n, b in ((16, 4.0), (64, 16.0)):
            report = interval_discrepancy(iid_sum(fair_bernoulli, n), n / 2.0, b)
            cap = math.sqrt(2.0 / (math.e * math.pi)) / b
            assert (np.abs(np.diff(report.ell)) <= cap + 1e-15).all()


class TestEffectivePointwiseBound:
    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_both_inequalities_hold(self, fair_bernoulli, n):
        law = iid_sum(fair_bernoulli, n)
        report = interval_discrepancy(law, n / 2.0, n / 4.0)
        check = effective_pointwise_bound(report)
        assert check.all_pass
        assert check.failures == []

    def test_holds_with_wrong_centering(self, fair_bernoulli):
        # valid for any (a_n, b_n) feeding both sides consistently
        law = iid_sum(fair_bernoulli, 64)
        report = interval_discrepancy(law, 32.0 + 5 * 4.0, 16.0)
        assert effective_pointwise_bound(report).all_pass

    def test_holds_for_skewed_law(self):
        skew = make_pmf(0.0, 1.0, [(0, 5), (1, 3), (2, 2)])
        law = iid_sum(skew, 50)
        report = interval_discrepancy(law, law.mean, law.variance)
        check = effective_pointwise_bound(report)
        assert check.all_pass
        assert report.rho == pytest.approx(brute_force_rho(report), abs=1e-12)

    def test_slack_reads_the_law_error(self, fair_bernoulli):
        # sqrt(b_n) = 4: a table entry off by e moves the left side of (i)
        # by 4e, so a side 4e-12 above its bound is within the error of a
        # law with err_abs = 2e-12, and beyond that of one with 5e-13
        report = interval_discrepancy(iid_sum(fair_bernoulli, 64), 32.0, 16.0)
        top = 4.0 * float(np.abs(report.d).max())

        def check(bound, err):
            rho = (bound / (2.0 * math.sqrt(report.R))) ** 2
            return effective_pointwise_bound(replace(report, rho=rho, err_abs=err))

        assert check(top - 4e-12, 2e-12).pointwise_ok
        assert not check(top - 4e-12, 5e-13).pointwise_ok


class TestSmoothnessViaExtraction:
    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_dominates_exact_stat(self, fair_bernoulli, n):
        theta_n = n / 2.0
        try:
            h = h_default(theta_n)
        except Exception:
            h = 0.25
        b_n = n / 4.0
        bound = smoothness_via_extraction(prepare_sum([(fair_bernoulli, 0.5, n)]), h, b_n)
        exact = smoothness_stat(iid_sum(fair_bernoulli, n), b_n)
        assert bound.value >= exact

    @pytest.mark.parametrize("h", [0.0, 1.0, 1.5, -0.25])
    def test_h_out_of_range_rejected(self, fair_bernoulli, h):
        spec = prepare_sum([(fair_bernoulli, 0.5, 64)])
        with pytest.raises(PreconditionError, match="0 < h < 1"):
            smoothness_via_extraction(spec, h, 16.0)

    def test_ratio_constant_for_fair_coin(self, fair_bernoulli):
        bound = smoothness_via_extraction(prepare_sum([(fair_bernoulli, 0.5, 256)]), 0.25, 64.0)
        assert bound.b_over_theta == pytest.approx(0.5)

    def test_loose_h_still_upper_bound(self, fair_bernoulli):
        n = 256
        b_n = 64.0
        bound = smoothness_via_extraction(prepare_sum([(fair_bernoulli, 0.5, n)]), 0.99, b_n)
        exact = smoothness_stat(iid_sum(fair_bernoulli, n), b_n)
        assert bound.value >= exact
        tight = smoothness_via_extraction(prepare_sum([(fair_bernoulli, 0.5, n)]), 0.36, b_n)
        assert bound.value > tight.value

    def test_dominance_fuzz(self):
        # random integer-lattice summands, random h and b_n: the extraction
        # bound must sit above the exact adjacent-gap statistic
        rng = np.random.default_rng(31)
        from lltkit import theta as theta_of

        for _ in range(40):
            size = int(rng.integers(2, 5))
            ks = sorted(rng.choice(7, size=size, replace=False))
            if not any(b - a == 1 for a, b in zip(ks, ks[1:])):
                ks.append(int(ks[0]) + 1)
            p = make_pmf(0.0, 1.0, [(int(k), float(w)) for k, w in
                                    zip(sorted(set(ks)), rng.random(len(set(ks))) + 0.05)])
            n = int(rng.integers(5, 40))
            h = float(rng.uniform(0.05, 0.95))
            b_n = float(rng.uniform(0.5, 3.0)) * n
            bound = smoothness_via_extraction(prepare_sum([(p, theta_of(p), n)]), h, b_n)
            exact = smoothness_stat(iid_sum(p, n), b_n)
            assert bound.value >= exact
