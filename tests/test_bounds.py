"""Envelope bounds, constant calibration, and the binomial comparison terms."""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from hypothesis import given, settings
from hypothesis import strategies as st

from lltkit import (
    ConstantsRegistry,
    DEFAULT_C0,
    LatticeError,
    PlugIns,
    PreconditionError,
    bounded_plug_ins,
    calibrate_c0,
    calibrate_c0_scan,
    calibrated_registry,
    central_envelope,
    certified_registry,
    chernoff_rho,
    de_moivre_envelope,
    exact_plug_ins,
    exp_moment_gaussian,
    h_default,
    iid_sum,
    make_pmf,
    prepare_sum,
    psi_envelope,
    psi_moment,
    refined_bernoulli_comparison,
    sandwich_envelope,
)
from lltkit.bounds import (
    C0_TAIL_N_STAR,
    binomial_half_pmf,
    c0_scan_error_bound,
    c0_tail_bound,
)

from .conftest import random_pmf

# frozen by the calibration scan; the per-n scaled gap increases with n
C0_SCAN_100 = 0.19921869310773888
C0_SCAN_1000 = 0.1994461751490505


class TestConstantsRegistry:
    def test_derived_constants(self):
        reg = ConstantsRegistry()
        assert reg.c1 == 4.0  # max(4, c0) with c0 < 4
        assert reg.c2 == 12.0 * (reg.c1 + 1.0)
        assert reg.c3 >= reg.c2

    def test_custom_ce_can_lift_c3(self):
        reg = ConstantsRegistry(ce=30.0)
        assert reg.c3 == 2.0**1.5 * 30.0

    def test_calibrated_registry_provenance(self):
        reg = calibrated_registry(100)
        assert reg.c0 == pytest.approx(C0_SCAN_100, abs=1e-14)
        assert "n <= 100" in reg.provenance


class TestCalibrateC0:
    def test_n1_closed_form(self):
        scan = calibrate_c0_scan(1)
        assert scan[0] == pytest.approx(abs(0.5 - math.sqrt(2 / math.pi) * math.exp(-0.5)),
                                        abs=1e-15)

    def test_n2_center_closed_form(self):
        row = binomial_half_pmf(2)
        gap_center = abs(row[1] - math.sqrt(1 / math.pi))
        assert gap_center == pytest.approx(abs(0.5 - 1 / math.sqrt(math.pi)), abs=1e-15)
        assert calibrate_c0_scan(2)[1] == pytest.approx(2**1.5 * gap_center, abs=1e-15)

    def test_frozen_scan_values(self):
        assert calibrate_c0(100) == pytest.approx(C0_SCAN_100, abs=1e-14)
        assert calibrate_c0(1000) == pytest.approx(C0_SCAN_1000, abs=1e-14)

    def test_non_decreasing_in_n_max(self):
        scan = calibrate_c0_scan(200)
        running = np.maximum.accumulate(scan)
        assert (np.diff(running) >= 0).all()

    def test_default_pin_is_certified(self):
        assert DEFAULT_C0 == certified_registry(224).c0


def _gap_limit() -> mpmath.mpf:
    return mpmath.sqrt(2 / mpmath.pi) / 4


def _exact_scaled_gap(n: int, zs) -> mpmath.mpf:
    """n^{3/2} max_z |pmf - gaussian| over zs, from Python-int binomials."""
    scale = mpmath.mpf(2) ** n
    gaps = (
        abs(
            mpmath.mpf(math.comb(n, z)) / scale
            - mpmath.sqrt(2 / (mpmath.pi * n)) * mpmath.exp(-mpmath.mpf(2 * z - n) ** 2 / (2 * n))
        )
        for z in zs
    )
    return mpmath.mpf(n) ** 1.5 * max(gaps)


class TestCertifiedRegistry:
    def test_c0_independent_of_n0(self):
        values = {certified_registry(n0).c0 for n0 in (C0_TAIL_N_STAR, 1000, 10_000)}
        assert len(values) == 1
        (c0,) = values
        with mpmath.workdps(50):
            assert mpmath.mpf(c0) >= _gap_limit()
            assert mpmath.mpf(math.nextafter(c0, -math.inf)) < _gap_limit()

    def test_rejects_n0_below_tail_threshold(self):
        with pytest.raises(PreconditionError) as err:
            certified_registry(C0_TAIL_N_STAR - 1)
        assert f"N* = {C0_TAIL_N_STAR}" in str(err.value)

    def test_provenance_names_scan_and_threshold(self):
        reg = certified_registry(1000)
        assert "certified" in reg.provenance
        assert "n <= 1000" in reg.provenance
        assert f"N* = {C0_TAIL_N_STAR}" in reg.provenance

    def test_tail_threshold_is_least(self):
        with mpmath.workdps(50):
            assert c0_tail_bound(C0_TAIL_N_STAR) < _gap_limit()
            assert c0_tail_bound(C0_TAIL_N_STAR - 1) > _gap_limit()

    @pytest.mark.parametrize("n", [20_000, 100_000])
    def test_tail_bound_beyond_scan(self, n):
        with mpmath.workdps(40):
            gap = _exact_scaled_gap(n, [n // 2])
            assert gap < c0_tail_bound(n) < _gap_limit()

    @pytest.mark.parametrize("n", [999, 1000])
    def test_scan_error_bound_covers_exact_gap(self, n):
        scan = calibrate_c0_scan(n)
        bound = c0_scan_error_bound(n)
        with mpmath.workdps(40):
            exact = _exact_scaled_gap(n, range(n + 1))
            assert abs(mpmath.mpf(float(scan[-1])) - exact) <= bound[-1]


class TestRefinedComparison:
    def test_symmetry_in_z(self):
        assert refined_bernoulli_comparison(64, 20) == pytest.approx(
            refined_bernoulli_comparison(64, 44), abs=1e-13
        )

    def test_matches_pmf_closely(self):
        row = binomial_half_pmf(256)
        for z in (128, 120, 140):
            assert refined_bernoulli_comparison(256, z) == pytest.approx(
                float(row[z]), abs=5e-7
            )

    def test_beats_plain_gaussian_term(self):
        n = 128
        row = binomial_half_pmf(n)
        z = np.arange(n + 1)
        gauss = np.sqrt(2 / (math.pi * n)) * np.exp(-((2 * z - n) ** 2) / (2 * n))
        plain = np.abs(row - gauss).max()
        refined_err = max(
            abs(float(row[zz]) - refined_bernoulli_comparison(n, zz))
            for zz in range(44, 85)
        )
        assert refined_err < plain


class TestChernoffRho:
    def test_formula_value(self):
        assert chernoff_rho([0.5] * 200, 0.5) == pytest.approx(2 * math.exp(-75 / 7), rel=1e-14)

    def test_vacuous_small_h(self):
        assert chernoff_rho([0.5] * 10, 1e-9) == pytest.approx(2.0)

    def test_rejects_h_out_of_range(self):
        with pytest.raises(PreconditionError):
            chernoff_rho([0.5], 0.0)
        with pytest.raises(PreconditionError):
            chernoff_rho([0.5], 1.0)


class TestHDefault:
    def test_small_theta_rejected(self):
        with pytest.raises(PreconditionError) as err:
            h_default(math.e**2)
        assert "1/14" in str(err.value)

    def test_theta_100(self):
        assert h_default(100.0) == pytest.approx(math.sqrt(7 * math.log(100.0) / 200.0), rel=1e-15)
        assert h_default(100.0) <= 0.5

    def test_theta_1e6(self):
        assert h_default(1e6) == pytest.approx(math.sqrt(7 * math.log(1e6) / 2e6), rel=1e-15)


class TestExpMomentGaussian:
    def test_b_zero(self):
        assert exp_moment_gaussian(0.5, 0.0) == pytest.approx(1 / math.sqrt(2), rel=1e-15)

    def test_a1_b1(self):
        assert exp_moment_gaussian(1.0, 1.0) == pytest.approx(
            math.exp(-1 / 3) / math.sqrt(3), rel=1e-15
        )

    def test_against_quadrature_grid(self):
        for a in (0.1, 1.0, 10.0):
            for b in (0.0, 1.0, 3.0):
                val, _ = quad(
                    lambda g: math.exp(-a * (b - g) ** 2)
                    * math.exp(-g * g / 2)
                    / math.sqrt(2 * math.pi),
                    -12,
                    12,
                    epsabs=1e-13,
                )
                assert exp_moment_gaussian(a, b) == pytest.approx(val, abs=1e-10)

    def test_rejects_nonpositive_a(self):
        with pytest.raises(PreconditionError):
            exp_moment_gaussian(0.0, 1.0)


class TestSandwichEnvelope:
    def test_binomial_64_center(self, fair_bernoulli):
        summands = [fair_bernoulli] * 64
        thetas = [0.5] * 64
        spec = prepare_sum(summands, thetas)
        plug = exact_plug_ins(spec, 0.25)
        law = iid_sum(fair_bernoulli, 64)
        rep = sandwich_envelope(spec, 0.25, 32.0, plug, exact=law.pmf.mass(32))
        assert rep.lower <= rep.exact <= rep.upper

    def test_binomial_64_window(self, fair_bernoulli):
        summands = [fair_bernoulli] * 64
        thetas = [0.5] * 64
        spec = prepare_sum(summands, thetas)
        plug = exact_plug_ins(spec, 0.25)
        law = iid_sum(fair_bernoulli, 64)
        for k in range(20, 45):
            exact = law.pmf.mass(k)
            rep = sandwich_envelope(spec, 0.25, float(k), plug, exact=exact)
            assert rep.lower <= exact <= rep.upper

    def test_wide_h_still_valid(self, fair_bernoulli):
        summands = [fair_bernoulli] * 64
        thetas = [0.5] * 64
        spec = prepare_sum(summands, thetas)
        plug = exact_plug_ins(spec, 0.99)
        law = iid_sum(fair_bernoulli, 64)
        rep = sandwich_envelope(spec, 0.99, 32.0, plug)
        assert rep.lower <= law.pmf.mass(32) <= rep.upper

    def test_first_factor_monotone_in_h(self):
        factors = [(1 + h) / (1 - h) for h in (0.1, 0.25, 0.5, 0.9, 0.99)]
        assert all(a < b for a, b in zip(factors, factors[1:]))

    def test_plug_in_monotonicity(self, fair_bernoulli):
        summands = [fair_bernoulli] * 64
        thetas = [0.5] * 64
        spec = prepare_sum(summands, thetas)
        base = exact_plug_ins(spec, 0.25)
        bigger_h = PlugIns(h_n=base.h_n * 2, rho_n=base.rho_n, mode=base.mode)
        bigger_r = PlugIns(h_n=base.h_n, rho_n=base.rho_n * 2, mode=base.mode)
        r0 = sandwich_envelope(spec, 0.25, 32.0, base)
        r1 = sandwich_envelope(spec, 0.25, 32.0, bigger_h)
        r2 = sandwich_envelope(spec, 0.25, 32.0, bigger_r)
        assert r1.upper >= r0.upper and r1.lower <= r0.lower
        assert r2.upper >= r0.upper and r2.lower <= r0.lower

    def test_lower_reported_raw(self, fair_bernoulli):
        summands = [fair_bernoulli] * 16
        thetas = [0.5] * 16
        spec = prepare_sum(summands, thetas)
        plug = exact_plug_ins(spec, 0.25)
        rep = sandwich_envelope(spec, 0.25, 8.0, plug)
        assert rep.lower < 0 and rep.lower_negative

    def test_rejects_bad_h_and_theta(self, fair_bernoulli):
        summands = [fair_bernoulli] * 4
        plug = PlugIns(h_n=0.1, rho_n=0.1, mode="exact-plug-ins")
        with pytest.raises(PreconditionError):
            sandwich_envelope(prepare_sum(summands, [0.5] * 4), 1.5, 2.0, plug)
        with pytest.raises(PreconditionError):
            sandwich_envelope(prepare_sum(summands, [0.9] * 4), 0.25, 2.0, plug)  # above theta_X

    def test_rejects_off_lattice_kappa(self, fair_bernoulli):
        summands = [fair_bernoulli] * 4
        plug = PlugIns(h_n=0.1, rho_n=0.1, mode="exact-plug-ins")
        with pytest.raises(PreconditionError):
            sandwich_envelope(prepare_sum(summands, [0.5] * 4), 0.25, 2.5, plug)

    def test_non_unit_lattice(self):
        # values {0.5, 2.5} on L(0.5, 2): the envelope is span-covariant
        p = make_pmf(0.5, 2.0, [(0, 1), (1, 1)])
        n = 64
        summands = [p] * n
        thetas = [0.5] * n
        spec = prepare_sum(summands, thetas)
        plug = exact_plug_ins(spec, 0.25)
        law = iid_sum(p, n)
        sd = math.sqrt(law.variance)
        k_lo = math.ceil((law.mean - 4 * sd - law.pmf.v0) / law.pmf.D)
        k_hi = math.floor((law.mean + 4 * sd - law.pmf.v0) / law.pmf.D)
        for k in range(k_lo, k_hi + 1):
            kappa = law.pmf.v0 + law.pmf.D * k
            exact = law.pmf.mass(k)
            rep = sandwich_envelope(spec, 0.25, kappa, plug, exact=exact)
            assert rep.lower <= exact <= rep.upper

    def test_non_maximal_extraction_level(self, fair_bernoulli):
        # any 0 < vartheta_j <= theta_X is admissible; a smaller level shifts
        # Theta_n down and the conditional variance up, sandwich still holds
        n = 64
        summands = [fair_bernoulli] * n
        thetas = [0.3] * n
        spec = prepare_sum(summands, thetas)
        plug = exact_plug_ins(spec, 0.25)
        law = iid_sum(fair_bernoulli, n)
        for k in range(20, 45):
            exact = law.pmf.mass(k)
            rep = sandwich_envelope(spec, 0.25, float(k), plug, exact=exact)
            assert rep.lower <= exact <= rep.upper

    def test_n512_with_default_h(self, fair_bernoulli):
        n = 512
        summands = [fair_bernoulli] * n
        thetas = [0.5] * n
        spec = prepare_sum(summands, thetas)
        h = h_default(256.0)
        plug = exact_plug_ins(spec, h)
        law = iid_sum(fair_bernoulli, n)
        sd = math.sqrt(law.variance)
        for k in range(int(256 - 4 * sd), int(256 + 4 * sd) + 1, 3):
            exact = law.pmf.mass(k)
            rep = sandwich_envelope(spec, h, float(k), plug, exact=exact)
            assert rep.lower <= exact <= rep.upper

    def test_affine_covariance(self, fair_bernoulli):
        # rescaling the lattice (X -> a*X + b) leaves the envelope values
        # unchanged at the mapped point
        n, h = 32, 0.25
        a, b = 3.0, -0.75
        q = make_pmf(a * fair_bernoulli.v0 + b, a * fair_bernoulli.D,
                     list(fair_bernoulli.probs.items()))
        spec_p = prepare_sum([fair_bernoulli] * n, [0.5] * n)
        spec_q = prepare_sum([q] * n, [0.5] * n)
        plug_p = exact_plug_ins(spec_p, h)
        plug_q = exact_plug_ins(spec_q, h)
        assert plug_q.h_n == pytest.approx(plug_p.h_n, abs=1e-14)
        assert plug_q.rho_n == plug_p.rho_n
        rep_p = sandwich_envelope(spec_p, h, 16.0, plug_p)
        rep_q = sandwich_envelope(spec_q, h, a * 16.0 + n * b, plug_q)
        assert rep_q.gaussian == pytest.approx(rep_p.gaussian, rel=1e-12)
        assert rep_q.lower == pytest.approx(rep_p.lower, rel=1e-12, abs=1e-12)
        assert rep_q.upper == pytest.approx(rep_p.upper, rel=1e-12)


class TestSandwichProperty:
    """Randomized sandwich validity on small mixed sums with exact plug-ins."""

    @staticmethod
    def _random_case(seed: int):
        rng = np.random.default_rng(seed)
        base = [random_pmf(rng, max_support=5, require_theta=True) for _ in range(3)]
        base = [make_pmf(p.v0, 1.0, list(p.probs.items())) for p in base]  # shared span
        n = int(rng.integers(4, 21))
        summands = [base[j % len(base)] for j in range(n)]
        from lltkit import theta as theta_of

        thetas = [theta_of(p) * float(rng.uniform(0.3, 1.0)) for p in summands]
        h = float(rng.uniform(0.05, 0.95))
        return summands, thetas, h

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_sandwich_holds(self, seed):
        from lltkit import convolve_all

        summands, thetas, h = self._random_case(seed)
        spec = prepare_sum(summands, thetas)
        try:
            plug = exact_plug_ins(spec, h)
        except PreconditionError:
            return  # degenerate conditional sum; nothing to check
        law = convolve_all(summands)
        sd = math.sqrt(law.variance)
        k_lo = math.ceil((law.mean - 4 * sd - law.pmf.v0) / law.pmf.D)
        k_hi = math.floor((law.mean + 4 * sd - law.pmf.v0) / law.pmf.D)
        for k in range(k_lo, k_hi + 1):
            kappa = law.pmf.v0 + law.pmf.D * k
            exact = law.pmf.mass(k)
            rep = sandwich_envelope(spec, h, kappa, plug, exact=exact)
            assert rep.lower <= exact + 1e-15
            assert exact <= rep.upper + 1e-15
            assert rep.lower <= rep.upper


class TestCentralEnvelope:
    def setup_method(self):
        self.p = make_pmf(0, 1, [(0, 1), (1, 1)])
        self.n = 1000
        self.spec = prepare_sum([self.p] * self.n, [0.5] * self.n)
        self.law = iid_sum(self.p, self.n)
        self.plug = exact_plug_ins(self.spec)

    def test_contains_center(self):
        exact = self.law.pmf.mass(500)
        rep = central_envelope(self.spec, 500.0, self.plug, exact=exact)
        assert rep.lower <= exact <= rep.upper
        assert abs(exact - rep.gaussian) <= rep.params["half_width"]

    def test_edge_of_range_valid(self):
        theta_n = 500.0
        limit = math.sqrt(theta_n / (14 * math.log(theta_n)))
        k_edge = 500 + math.floor(math.sqrt(limit * self.law.variance))
        exact = self.law.pmf.mass(k_edge)
        rep = central_envelope(self.spec, float(k_edge), self.plug, exact=exact)
        assert rep.lower <= exact <= rep.upper

    def test_out_of_range_rejected_by_name(self):
        with pytest.raises(PreconditionError) as err:
            central_envelope(self.spec, 900.0, self.plug)
        assert "central range" in str(err.value)

    def test_small_theta_rejected_by_name(self, fair_bernoulli):
        plug = PlugIns(h_n=0.1, rho_n=None, mode="exact-plug-ins")
        with pytest.raises(PreconditionError) as err:
            central_envelope(prepare_sum([fair_bernoulli] * 4, [0.5] * 4), 2.0, plug)
        assert "log(theta_n)/theta_n" in str(err.value)


class TestPsiEnvelope:
    def test_cube_moment_ratio_value(self, fair_bernoulli):
        n = 1000
        spec = prepare_sum([fair_bernoulli] * n, [0.5] * n)
        rep = psi_envelope(spec, 500.0, bounded_plug_ins(spec, psi=lambda x: abs(x) ** 3))
        assert rep.params["l_n"] == pytest.approx(4 / math.sqrt(n), rel=1e-12)

    def test_contains_exact_discrepancy(self, fair_bernoulli):
        n = 1000
        law = iid_sum(fair_bernoulli, n)
        exact = law.pmf.mass(500)
        spec = prepare_sum([fair_bernoulli] * n, [0.5] * n)
        plug = bounded_plug_ins(spec, psi=lambda x: abs(x) ** 3)
        rep = psi_envelope(spec, 500.0, plug, exact=exact)
        assert rep.lower <= exact <= rep.upper

    def test_square_boundary_psi_accepted(self, fair_bernoulli):
        n = 1000
        spec = prepare_sum([fair_bernoulli] * n, [0.5] * n)
        rep = psi_envelope(spec, 500.0, bounded_plug_ins(spec, psi=lambda x: x * x))
        assert rep.upper > rep.lower


    def test_exact_plug_ins_rejected(self, fair_bernoulli):
        spec = prepare_sum([fair_bernoulli] * 64, [0.5] * 64)
        plug = exact_plug_ins(spec)
        assert plug.l_n is None
        with pytest.raises(LatticeError):
            psi_envelope(spec, 32.0, plug)


class TestBoundedPlugIns:
    def test_h_bound_dominates_exact(self, fair_bernoulli):
        summands = [fair_bernoulli] * 100
        thetas = [0.5] * 100
        spec = prepare_sum(summands, thetas)
        exact = exact_plug_ins(spec, 0.25)
        bound = bounded_plug_ins(spec, 0.25)
        assert bound.h_n >= exact.h_n
        assert bound.rho_n >= exact.rho_n
        assert bound.mode == "bounded-plug-ins"

    def test_psi_checked_once_per_call(self, uniform3):
        # the psi spot-check runs once per call, not once per summand
        calls = 0

        def psi(x):
            nonlocal calls
            calls += 1
            return abs(x) ** 3

        support = len(uniform3.probs)
        psi_moment(uniform3, psi)
        check_calls = calls - support
        calls = 0
        n = 50
        bounded_plug_ins(prepare_sum([uniform3] * n, [2.0 / 3.0] * n), psi=psi)
        assert calls == check_calls + n * support + 1


class TestDeMoivreEnvelope:
    def test_center_bound_formula(self):
        est, bound = de_moivre_envelope(1000, 0.5, 500, 0.5)
        assert bound == pytest.approx(1.0 / (2 * 1000 * 0.5), rel=1e-14)
        assert est == pytest.approx(1 / math.sqrt(2 * math.pi * 250), rel=1e-14)

    def test_band_contains_exact_at_530(self):
        est, bound = de_moivre_envelope(1000, 0.5, 530, 0.5)
        exact = float(Fraction(math.comb(1000, 530), 2**1000))
        assert est * math.exp(-bound) <= exact <= est * math.exp(bound)

    def test_skewed_p_sweep(self):
        n, p, gamma = 1000, 0.3, 0.5
        s = math.sqrt(n * p * (1 - p))
        width = gamma * math.sqrt(p * (1 - p) * n) * s
        for k in range(int(300 - width), int(300 + width) + 1, 25):
            est, bound = de_moivre_envelope(n, p, k, gamma)
            exact = float(
                Fraction(math.comb(n, k) * 3**k * 7 ** (n - k), 10**n)
            )
            assert est * math.exp(-bound) <= exact <= est * math.exp(bound)

    def test_range_violation_rejected(self):
        with pytest.raises(PreconditionError):
            de_moivre_envelope(1000, 0.5, 990, 0.5)
