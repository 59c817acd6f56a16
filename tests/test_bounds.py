"""Envelope bounds, constant calibration, and the binomial comparison terms."""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import asdict, replace
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lltkit import (
    ConstantsRegistry,
    DEFAULT_C0,
    DEFAULT_CONSTANTS,
    LatticeError,
    NumericsError,
    PlugIns,
    PreconditionError,
    bernoulli,
    bounded_plug_ins,
    calibrated_registry,
    central_envelope,
    chernoff_rho,
    constants_from_json,
    exact_plug_ins,
    h_default,
    make_pmf,
    prepare_sum,
    psi_envelope,
    sandwich_envelope,
    split,
    sum_law,
    theta,
    xi_law,
)
from lltkit import bounds, checks
from lltkit.convolve import exact_moments
from lltkit.checks import (
    C0_TAIL_N_STAR,
    binomial_half_pmf,
    c0_scan_error_bound,
    c0_tail_bound,
    calibrate_c0_scan,
    certified_registry,
    de_moivre_envelope,
    iid_sum,
    refined_bernoulli_comparison,
)

from .conftest import random_pmf

# frozen by the calibration scan; the per-n scaled gap increases with n.  The
# exact gaps at n = 100 and 1000 (40 digits) are 0.19921869310777409 and
# 0.19944617514904588, within 4.9e-14 and 3.3e-13 of these pins, inside the
# error bounds 2.1e-12 and 1.8e-10.
C0_SCAN_100 = 0.199218693107725
C0_SCAN_1000 = 0.19944617514872134


def _plain_scan(n_max: int) -> np.ndarray:
    """The calibration scan as first written: whole Pascal rows, the
    Gaussian over every z, one n at a time."""
    row = np.array([1.0])
    out = np.empty(n_max)
    for n in range(1, n_max + 1):
        nxt = np.zeros(len(row) + 1)
        nxt[:-1] += row
        nxt[1:] += row
        row = nxt * 0.5
        z = np.arange(n + 1)
        gauss = np.sqrt(2.0 / (np.pi * n)) * np.exp(-((2.0 * z - n) ** 2) / (2.0 * n))
        out[n - 1] = n**1.5 * np.abs(row - gauss).max()
    return out


def _plain_scan_error_bound(n_max: int) -> np.ndarray:
    """The floating-point error bound of :func:`_plain_scan`: n steps of the
    Pascal recursion round once each, ``gamma_n`` relatively, with the same
    charges as :func:`c0_scan_error_bound` for the rest."""
    u = 2.0**-53
    n = np.arange(1, n_max + 1, dtype=float)
    gamma = n * u / (1.0 - n * u)
    underflow = n**1.5 * (n + 2.0) * 2.0**-1074
    return math.sqrt(2.0 / math.pi) * n * (gamma + checks._SCAN_ROUNDING_ULPS * u) + underflow


@pytest.fixture(scope="module")
def plain_scan_5000():
    return _plain_scan(5000)


@pytest.fixture(scope="module")
def scan_5000():
    return calibrate_c0_scan(5000)


def _spy_blocks(monkeypatch) -> list:
    """Record the first n and the width of each block the scan evaluates."""
    calls = []
    block_gaps = checks._block_gaps

    def spy(n, width, centers):
        calls.append((int(n[0]), width))
        return block_gaps(n, width, centers)

    monkeypatch.setattr(checks, "_block_gaps", spy)
    return calls


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

    def test_derived_constants_are_fields(self):
        reg = ConstantsRegistry(c0=Fraction(1, 5), ce=np.float64(2.0))
        assert asdict(reg) == {"c0": 0.2, "ce": 2.0, "provenance": DEFAULT_CONSTANTS.provenance,
                               "c1": 4.0, "c2": 60.0, "c3": 60.0}
        assert all(type(asdict(reg)[key]) is float for key in ("c0", "ce", "c1", "c2", "c3"))

    @pytest.mark.parametrize("values, message", [
        ({"c0": 1e308}, "constants override rejected: the derived constants must be finite, "
                        "got c2 = inf, c3 = inf"),
        ({"ce": 1e308}, "constants override rejected: the derived constants must be finite, "
                        "got c2 = 60.0, c3 = inf"),
        ({"ce": float("nan")}, "constants override 'ce': nan rejected; "),
        ({"c0": -1.0}, "constants override 'c0': -1.0 rejected; "),
        ({"c0": 0}, "constants override 'c0': 0 rejected; "),
        ({"ce": True}, "constants override 'ce': True rejected; "),
        ({"c0": "0.2"}, "constants override 'c0': '0.2' rejected; "),
        ({"c0": 10**400}, f"constants override 'c0': {10**400} rejected; "),
        ({"provenance": 3}, "constants override 'provenance': 3 rejected; "),
    ], ids=["c0-overflows-c2", "ce-overflows-c3", "ce-nan", "c0-negative", "c0-zero", "ce-bool",
            "c0-string", "c0-beyond-doubles", "provenance-number"])
    def test_refuses_what_no_envelope_can_use(self, values, message):
        rule = "the file may set c0 and ce (finite numbers > 0) and provenance (a string)"
        if message.endswith("; "):
            message += rule
        with pytest.raises(LatticeError) as err:
            ConstantsRegistry(**values)
        assert str(err.value) == message
        with pytest.raises(LatticeError) as err:
            constants_from_json(values)
        assert str(err.value) == message

    def test_from_json_sets_a_subset_of_the_fields(self):
        assert constants_from_json({}) == DEFAULT_CONSTANTS
        reg = constants_from_json({"c0": 1, "provenance": "pinned"})
        assert reg == ConstantsRegistry(c0=1.0, provenance="pinned")
        assert type(reg.c0) is float

    @pytest.mark.parametrize("obj, message", [
        ([0.2], "constants override file must hold a JSON object"),
        (0.2, "constants override file must hold a JSON object"),
        ({"c0": 0.3, "c1": 5}, "constants override 'c1': 5 rejected; the file may set c0 and ce "
                               "(finite numbers > 0) and provenance (a string)"),
    ], ids=["list", "number", "unknown-key"])
    def test_from_json_refuses_other_objects(self, obj, message):
        with pytest.raises(LatticeError) as err:
            constants_from_json(obj)
        assert str(err.value) == message


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
        assert calibrate_c0_scan(100).max() == pytest.approx(C0_SCAN_100, abs=1e-14)
        assert calibrate_c0_scan(1000).max() == pytest.approx(C0_SCAN_1000, abs=1e-14)

    def test_windows_give_the_doubles_of_whole_rows(self, monkeypatch, scan_5000):
        block = checks._SCAN_BLOCK
        n_maxes = [*range(1, 301), *range(1074, 1081), 5000]
        n_maxes += [block - 1, block, block + 1, 2 * block - 1, 2 * block, 2 * block + 1]
        for n_max in n_maxes:
            assert np.array_equal(calibrate_c0_scan(n_max), scan_5000[:n_max]), n_max
        for setting, values in (("_SCAN_WINDOW", [0.2]), ("_SCAN_BLOCK", [7, 200, 1000])):
            for value in values:  # a window of 0.2 widens every block to whole rows
                monkeypatch.setattr(checks, setting, value)
                for n_max in n_maxes:
                    assert np.array_equal(calibrate_c0_scan(n_max), scan_5000[:n_max]), \
                        (setting, value, n_max)
                monkeypatch.undo()

    def test_within_both_error_bounds_of_the_pascal_scan(self, plain_scan_5000, scan_5000):
        gap = np.abs(scan_5000 - plain_scan_5000)
        assert (gap <= c0_scan_error_bound(5000) + _plain_scan_error_bound(5000)).all()

    def test_gaussian_terms_are_the_doubles_of_the_formula(self):
        n = np.arange(1, 601)
        z = (n // 2)[:, None] - np.arange(301)
        formula = np.sqrt(2.0 / (np.pi * n[:, None])) * np.exp(-((2.0 * z - n[:, None]) ** 2)
                                                              / (2.0 * n[:, None]))
        assert np.array_equal(checks._gauss_terms(n, 300), formula)

    def test_windows_cover_every_block_after_the_first(self, monkeypatch, scan_5000):
        calls = _spy_blocks(monkeypatch)
        assert np.array_equal(calibrate_c0_scan(5000), scan_5000)
        block = checks._SCAN_BLOCK
        windows = [(start, math.ceil(checks._SCAN_WINDOW * math.sqrt(min(start + block - 1, 5000))))
                   for start in range(block + 1, 5001, block)]
        assert calls == [(1, block // 2 + 1), *windows]  # the first block takes whole rows

    def test_failed_window_check_reruns_whole_rows(self, monkeypatch, scan_5000):
        calls = _spy_blocks(monkeypatch)
        monkeypatch.setattr(checks, "_SCAN_WINDOW", 0.2)  # too narrow: every check fails
        assert np.array_equal(calibrate_c0_scan(2000), scan_5000[:2000])
        block = checks._SCAN_BLOCK
        starts = range(1, 2001, block)
        whole = [(start, min(start + block - 1, 2000) // 2 + 1) for start in starts]
        assert [call for call in calls if call in whole] == whole
        assert len(calls) == 2 * len(whole) - 1  # a window, then whole rows, after the first

    def test_half_rows_are_symmetric_and_nondecreasing(self):
        # the two facts the scan's window check rests on, across the underflow onset
        for n in [*range(0, 80), 1074, 1075, 1076, 1077, 2000, 2001]:
            row = binomial_half_pmf(n)
            assert np.array_equal(row, row[::-1])
            assert (np.diff(row[:n // 2 + 1]) >= 0.0).all()

    def test_negative_n_rejected(self):
        with pytest.raises(LatticeError):
            binomial_half_pmf(-1)
        with pytest.raises(LatticeError):
            calibrate_c0_scan(0)
        # every scan argument is an integer, or a float with an integral value
        for call in (binomial_half_pmf, calibrate_c0_scan, calibrated_registry,
                     c0_scan_error_bound, certified_registry):
            for bad in (10.5, True, "1000", None):
                with pytest.raises(LatticeError, match="must be an integer"):
                    call(bad)
        assert np.array_equal(calibrate_c0_scan(100.0), calibrate_c0_scan(100))
        assert np.array_equal(binomial_half_pmf(np.int64(10)), binomial_half_pmf(10))
        assert "n <= 100," in calibrated_registry(100.0).provenance
        assert "n <= 1000 (" in certified_registry(1000.0).provenance

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

    @pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 256, 999, 1000, 4097])
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
        assert chernoff_rho(0.5 * 200, 0.5) == pytest.approx(2 * math.exp(-75 / 7), rel=1e-14)

    def test_vacuous_small_h(self):
        assert chernoff_rho(0.5 * 10, 1e-9) == pytest.approx(2.0)

    def test_rejects_h_out_of_range(self):
        with pytest.raises(PreconditionError):
            chernoff_rho(0.5, 0.0)
        with pytest.raises(PreconditionError):
            chernoff_rho(0.5, 1.0)


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


def _sum_shift(a, b):
    """Largest change of a bound on a sum of exact masses between two laws
    that stand for the same exact law: each law's sum of computed masses
    lies within its err_l1 of the exact sum and each bound adds that err_l1
    once more, plus the summations' rounding over the windows."""
    size = max(len(a.probs), len(b.probs))
    return 2 * (a.err_l1 + b.err_l1) + 2 * size * 2.0**-53


def _kolmogorov_shift(a, b):
    """Largest change of ``kolmogorov_distance(law, law.mean, sd)`` between
    two such laws: the CDFs move by ``_sum_shift``, and Phi, which is
    1/sqrt(2 pi)-Lipschitz, by the moved centering and scale at the atoms of
    either law, where both suprema are attained."""
    sd_a, sd_b = math.sqrt(a.variance), math.sqrt(b.variance)
    pts = a.v0 + a.D * np.concatenate([a.atoms()[0], b.atoms()[0]])
    reach = float(np.abs(pts - b.mean).max())
    moved = abs(a.mean - b.mean) / sd_a + reach * abs(1.0 / sd_a - 1.0 / sd_b)
    return _sum_shift(a, b) + moved / math.sqrt(2.0 * math.pi) + 2e-15  # Phi's own error


class TestPrepareSum:
    @pytest.mark.parametrize("n", [1, 7, 300])
    def test_one_part_equals_n_single_parts(self, n):
        p = make_pmf(0.3, 0.7, [(0, 0.2), (1, 0.5), (2, 0.3), (4, 0.1)])
        t = 0.9 * theta(p)
        one = prepare_sum([(p, t, n)])
        many = prepare_sum([(p, t, 1)] * n)
        assert len(one) == len(many) == n
        for field in ("theta_n", "v0", "mean", "var"):
            assert getattr(one, field) == getattr(many, field)
        exact_one, exact_many = exact_plug_ins(one, 0.25), exact_plug_ins(many, 0.25)
        # the n-fold part is an FFT power, the n single parts are convolved one
        # by one: both laws lie within their err_abs of the same exact law
        xi = xi_law(split(p, t))
        xi_one, xi_many = sum_law([(xi, n)]), sum_law([(xi, 1)] * n)
        b_one, b_many = sum_law([(bernoulli(t), n)]), sum_law([(bernoulli(t), 1)] * n)
        assert abs(exact_one.h_n - exact_many.h_n) <= _kolmogorov_shift(xi_one, xi_many)
        assert abs(exact_one.rho_n - exact_many.rho_n) <= _sum_shift(b_one, b_many)
        assert bounded_plug_ins(one, 0.25) == bounded_plug_ins(many, 0.25)

    def test_per_law_work_does_not_grow_with_n(self, uniform3, monkeypatch):
        import lltkit.bounds

        calls = {}

        def counting(name):
            original = getattr(lltkit.bounds, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return original(*args, **kwargs)

            return wrapper

        for name in ("theta", "moments", "split"):
            monkeypatch.setattr(lltkit.bounds, name, counting(name))
        counts = []
        for n in (2, 2000):
            calls.clear()
            spec = prepare_sum([(uniform3, theta(uniform3), n)])
            exact_plug_ins(spec, 0.25)
            bounded_plug_ins(spec, 0.25)
            counts.append(dict(calls))
        assert counts[0] == counts[1]
        assert set(counts[1]) == {"theta", "moments", "split"}

    @pytest.mark.parametrize("count", [0, -3, 2.5, 3.0, True, np.float64(3)])
    def test_bad_count_rejected(self, fair_bernoulli, count):
        # prepare_sum and sum_law share one rule and one message
        message = f"part 0: count must be an integer >= 1, got {count!r}"
        with pytest.raises(LatticeError) as err:
            prepare_sum([(fair_bernoulli, 0.5, count)])
        assert str(err.value) == message
        with pytest.raises(LatticeError) as err:
            sum_law([(fair_bernoulli, count)])
        assert str(err.value) == message

    def test_numpy_integer_count_accepted(self, fair_bernoulli):
        spec = prepare_sum([(fair_bernoulli, 0.5, np.int64(3))])
        assert spec == prepare_sum([(fair_bernoulli, 0.5, 3)])
        assert type(spec.parts[0][2]) is int and type(len(spec)) is int
        law = sum_law([(fair_bernoulli, np.int64(3))])
        assert np.array_equal(law.probs, sum_law([(fair_bernoulli, 3)]).probs)

    def test_law_is_sum_law_of_the_parts(self, fair_bernoulli, uniform3):
        parts = [(uniform3, 0.5, 7), (fair_bernoulli, 0.25, 1), (uniform3, theta(uniform3), 40)]
        spec = prepare_sum(parts)
        law = sum_law([(p, c) for p, _, c in parts])
        assert np.array_equal(spec.law.probs, law.probs)
        assert (spec.law.first, spec.law.v0, spec.law.D, spec.law.err_abs) == (
            law.first, law.v0, law.D, law.err_abs)
        assert spec.law is spec.law  # built once


class TestSandwichEnvelope:
    def test_binomial_64_center(self, fair_bernoulli):
        spec = prepare_sum([(fair_bernoulli, 0.5, 64)])
        plug = exact_plug_ins(spec, 0.25)
        law = iid_sum(fair_bernoulli, 64)
        rep = sandwich_envelope(spec, 32.0, plug, exact=True)
        assert (rep.exact, rep.exact_err) == (law.mass(32), law.err_abs)
        assert rep.lower <= rep.exact <= rep.upper
        assert rep.sandwich_ok is True

    def test_binomial_64_window(self, fair_bernoulli):
        spec = prepare_sum([(fair_bernoulli, 0.5, 64)])
        plug = exact_plug_ins(spec, 0.25)
        for k in range(20, 45):
            rep = sandwich_envelope(spec, float(k), plug, exact=True)
            assert rep.lower <= rep.exact <= rep.upper

    def test_wide_h_still_valid(self, fair_bernoulli):
        spec = prepare_sum([(fair_bernoulli, 0.5, 64)])
        plug = exact_plug_ins(spec, 0.99)
        law = iid_sum(fair_bernoulli, 64)
        rep = sandwich_envelope(spec, 32.0, plug)
        assert rep.params["h"] == 0.99
        assert rep.lower <= law.mass(32) <= rep.upper

    def test_first_factor_monotone_in_h(self):
        factors = [(1 + h) / (1 - h) for h in (0.1, 0.25, 0.5, 0.9, 0.99)]
        assert all(a < b for a, b in zip(factors, factors[1:]))

    def test_plug_in_monotonicity(self, fair_bernoulli):
        spec = prepare_sum([(fair_bernoulli, 0.5, 64)])
        base = exact_plug_ins(spec, 0.25)
        bigger_h = replace(base, h_n=base.h_n * 2)
        bigger_r = replace(base, rho_n=base.rho_n * 2)
        r0 = sandwich_envelope(spec, 32.0, base)
        r1 = sandwich_envelope(spec, 32.0, bigger_h)
        r2 = sandwich_envelope(spec, 32.0, bigger_r)
        assert r1.upper >= r0.upper and r1.lower <= r0.lower
        assert r2.upper >= r0.upper and r2.lower <= r0.lower

    def test_lower_reported_raw(self, fair_bernoulli):
        spec = prepare_sum([(fair_bernoulli, 0.5, 16)])
        plug = exact_plug_ins(spec, 0.25)
        rep = sandwich_envelope(spec, 8.0, plug)
        assert rep.lower < 0 and rep.lower_negative

    def test_rejects_bad_h_and_theta(self, fair_bernoulli):
        plug = PlugIns(h_n=0.1, rho_n=0.1, h=1.5)
        with pytest.raises(PreconditionError, match="0 < h < 1"):
            sandwich_envelope(prepare_sum([(fair_bernoulli, 0.5, 4)]), 2.0, plug)
        with pytest.raises(PreconditionError):
            prepare_sum([(fair_bernoulli, 0.9, 4)])  # above theta_X

    @pytest.mark.parametrize("rho_n, h", [(None, None), (0.1, None), (None, 0.25)])
    def test_rejects_plug_ins_without_rho_n_or_h(self, fair_bernoulli, rho_n, h):
        with pytest.raises(LatticeError, match="rho_n plug-in and the h"):
            sandwich_envelope(prepare_sum([(fair_bernoulli, 0.5, 4)]), 2.0,
                              PlugIns(h_n=0.1, rho_n=rho_n, h=h))

    def test_reads_h_from_the_plug_ins(self, fair_bernoulli):
        # the theorem pairs rho_n(h) with the same h; at h = 0.1 on n = 400
        # the envelope is the wide one of h = 0.1, not that of h = 0.9
        spec = prepare_sum([(fair_bernoulli, 0.5, 400)])
        rep = sandwich_envelope(spec, 200.0, exact_plug_ins(spec, 0.1), exact=True)
        assert rep.params["h"] == 0.1 and rep.params["rho_n_used"] > 0.0
        assert (rep.lower, rep.upper) == pytest.approx((-0.0374, 0.0949), abs=5e-5)
        assert rep.sandwich_ok is True
        wide = sandwich_envelope(spec, 200.0, exact_plug_ins(spec, 0.9))
        # rho_n(0.9) is P{|B - 200| > 180}, about 1e-87: its plug-in is that
        # tail rounded up by the error of the 40 masses in it
        tail = Fraction(2 * sum(math.comb(400, k) for k in range(20)), 2**400)
        assert wide.params["h"] == 0.9 and tail <= wide.params["rho_n_used"] < 1e-12

    def test_rejects_off_lattice_kappa(self, fair_bernoulli):
        plug = PlugIns(h_n=0.1, rho_n=0.1, h=0.25)
        with pytest.raises(PreconditionError):
            sandwich_envelope(prepare_sum([(fair_bernoulli, 0.5, 4)]), 2.5, plug)

    def test_non_unit_lattice(self):
        # values {0.5, 2.5} on L(0.5, 2): the envelope is span-covariant
        p = make_pmf(0.5, 2.0, [(0, 1), (1, 1)])
        n = 64
        spec = prepare_sum([(p, 0.5, n)])
        plug = exact_plug_ins(spec, 0.25)
        law = iid_sum(p, n)
        sd = math.sqrt(law.variance)
        k_lo = math.ceil((law.mean - 4 * sd - law.v0) / law.D)
        k_hi = math.floor((law.mean + 4 * sd - law.v0) / law.D)
        for k in range(k_lo, k_hi + 1):
            kappa = law.v0 + law.D * k
            rep = sandwich_envelope(spec, kappa, plug, exact=True)
            assert rep.exact == law.mass(k)
            assert rep.lower <= rep.exact <= rep.upper

    def test_non_maximal_extraction_level(self, fair_bernoulli):
        # any 0 < vartheta_j <= theta_X is admissible; a smaller level shifts
        # Theta_n down and the conditional variance up, sandwich still holds
        n = 64
        spec = prepare_sum([(fair_bernoulli, 0.3, n)])
        plug = exact_plug_ins(spec, 0.25)
        law = iid_sum(fair_bernoulli, n)
        for k in range(20, 45):
            rep = sandwich_envelope(spec, float(k), plug, exact=True)
            assert rep.exact == law.mass(k)  # the level does not change the law
            assert rep.lower <= rep.exact <= rep.upper

    def test_n512_with_default_h(self, fair_bernoulli):
        n = 512
        spec = prepare_sum([(fair_bernoulli, 0.5, n)])
        h = h_default(256.0)
        plug = exact_plug_ins(spec, h)
        sd = math.sqrt(spec.var)
        for k in range(int(256 - 4 * sd), int(256 + 4 * sd) + 1, 3):
            rep = sandwich_envelope(spec, float(k), plug, exact=True)
            assert rep.lower <= rep.exact <= rep.upper

    def test_affine_covariance(self, fair_bernoulli):
        # rescaling the lattice (X -> a*X + b) leaves the envelope values
        # unchanged at the mapped point
        n, h = 32, 0.25
        a, b = 3.0, -0.75
        q = make_pmf(a * fair_bernoulli.v0 + b, a * fair_bernoulli.D,
                     list(fair_bernoulli.probs.items()))
        spec_p = prepare_sum([(fair_bernoulli, 0.5, n)])
        spec_q = prepare_sum([(q, 0.5, n)])
        plug_p = exact_plug_ins(spec_p, h)
        plug_q = exact_plug_ins(spec_q, h)
        assert plug_q.h_n == pytest.approx(plug_p.h_n, abs=1e-14)
        assert plug_q.rho_n == plug_p.rho_n
        rep_p = sandwich_envelope(spec_p, 16.0, plug_p)
        rep_q = sandwich_envelope(spec_q, a * 16.0 + n * b, plug_q)
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
        summands, thetas, h = self._random_case(seed)
        spec = prepare_sum([(p, t, 1) for p, t in zip(summands, thetas)])
        try:
            plug = exact_plug_ins(spec, h)
        except PreconditionError:
            return  # degenerate conditional sum; nothing to check
        sd = math.sqrt(spec.var)
        k_lo = math.ceil((spec.mean - 4 * sd - spec.v0) / spec.d)
        k_hi = math.floor((spec.mean + 4 * sd - spec.v0) / spec.d)
        for k in range(k_lo, k_hi + 1):
            rep = sandwich_envelope(spec, spec.v0 + spec.d * k, plug, exact=True)
            assert rep.lower <= rep.exact + 1e-15
            assert rep.exact <= rep.upper + 1e-15
            assert rep.lower <= rep.upper


class TestCentralEnvelope:
    def setup_method(self):
        self.p = make_pmf(0, 1, [(0, 1), (1, 1)])
        self.n = 1000
        self.spec = prepare_sum([(self.p, 0.5, self.n)])
        self.law = iid_sum(self.p, self.n)
        self.plug = exact_plug_ins(self.spec)

    def test_contains_center(self):
        rep = central_envelope(self.spec, 500.0, self.plug, exact=True)
        assert (rep.exact, rep.exact_err) == (self.law.mass(500), self.law.err_abs)
        assert rep.lower <= rep.exact <= rep.upper
        assert abs(rep.exact - rep.gaussian) <= rep.params["half_width"]

    def test_edge_of_range_valid(self):
        theta_n = 500.0
        limit = math.sqrt(theta_n / (14 * math.log(theta_n)))
        k_edge = 500 + math.floor(math.sqrt(limit * self.law.variance))
        rep = central_envelope(self.spec, float(k_edge), self.plug, exact=True)
        assert rep.exact == self.law.mass(k_edge)
        assert rep.lower <= rep.exact <= rep.upper

    def test_out_of_range_rejected_by_name(self):
        with pytest.raises(PreconditionError) as err:
            central_envelope(self.spec, 900.0, self.plug)
        assert "central range" in str(err.value)

    def test_small_theta_rejected_by_name(self, fair_bernoulli):
        plug = PlugIns(h_n=0.1, rho_n=None)
        with pytest.raises(PreconditionError) as err:
            central_envelope(prepare_sum([(fair_bernoulli, 0.5, 4)]), 2.0, plug)
        assert "log(theta_n)/theta_n" in str(err.value)


class TestPsiEnvelope:
    def test_cube_moment_ratio_value(self, fair_bernoulli):
        n = 1000
        spec = prepare_sum([(fair_bernoulli, 0.5, n)])
        rep = psi_envelope(spec, 500.0, bounded_plug_ins(spec))
        assert rep.params["l_n"] == pytest.approx(4 / math.sqrt(n), rel=1e-12)

    def test_contains_exact_discrepancy(self, fair_bernoulli):
        n = 1000
        law = iid_sum(fair_bernoulli, n)
        spec = prepare_sum([(fair_bernoulli, 0.5, n)])
        plug = bounded_plug_ins(spec)
        rep = psi_envelope(spec, 500.0, plug, exact=True)
        assert rep.exact == law.mass(500) and rep.params["mode"] == "bounded-plug-ins"
        assert rep.lower <= rep.exact <= rep.upper

    def test_exact_plug_ins_rejected(self, fair_bernoulli):
        spec = prepare_sum([(fair_bernoulli, 0.5, 64)])
        plug = exact_plug_ins(spec)
        assert plug.l_n is None
        with pytest.raises(LatticeError):
            psi_envelope(spec, 32.0, plug)


class TestReportIsItsRow:
    """A one-point report holds the row its body computes over any block
    that holds the point: width and verdict included, field by field."""

    LAW = make_pmf(0.25, 0.5, [(0, 1), (1, 3), (2, 2)])
    N = 2000

    @pytest.mark.parametrize("mode", ["exact-plug-ins", "bounded-plug-ins"])
    @pytest.mark.parametrize("envelope", ["sandwich", "central", "psi"])
    def test_report_row_is_the_column_row(self, envelope, mode):
        spec = prepare_sum([(self.LAW, theta(self.LAW), self.N)])
        exact = mode == "exact-plug-ins"
        h = 0.25 if envelope == "sandwich" else None
        if exact and envelope != "psi":
            plug = exact_plug_ins(spec, h)
        else:
            plug = bounded_plug_ins(spec, h)
        body = bounds._BODIES[envelope](spec, plug, DEFAULT_CONSTANTS, exact)
        # E S_n sits at lattice index 7 N / 6, about 2333
        ks = range(2328, 2339)
        cols = body.columns(ks[0], [spec.v0 + spec.d * k for k in ks])
        assert ("sandwich_ok" in cols) is exact
        for i, k in enumerate(ks):
            report = getattr(bounds, f"{envelope}_envelope")(
                spec, spec.v0 + spec.d * k, plug, DEFAULT_CONSTANTS, exact)
            row = report.row()
            assert set(row) == set(cols)
            for name, col in cols.items():
                assert row[name] == (None if col is None else col[i]), name
            assert report.exact_err == (spec.law.err_abs if exact else 0.0)


class TestVerdictRounding:
    """The verdict allows for the rounding of the envelope's sides."""

    LAW = make_pmf(0.0, 1.0, [(0, 2), (1, 5), (2, 3)])

    def test_near_tie_within_the_side_rounding_reads_none(self):
        # an exact mass placed above the lower side by err_abs plus half the
        # sides' rounding bound is a tie the float sides cannot decide; one
        # placed above it by err_abs plus twice the bound is decided
        spec = prepare_sum([(self.LAW, theta(self.LAW), 600)])
        body = bounds._BODIES["sandwich"](spec, exact_plug_ins(spec, 0.25), DEFAULT_CONSTANTS,
                                          True)
        k = round((spec.mean - spec.v0) / spec.d)
        kappa = spec.v0 + spec.d * k
        lower = body.columns(k, [kappa])["lower"][0]
        rounding = body.rounding()
        assert 0.0 < rounding < 1e-14 and rounding > 0.01 * spec.law.err_abs
        err = spec.law.err_abs
        for offset, verdict in ((err + rounding / 2, None), (err + 2 * rounding, True)):
            probs = np.array([lower + offset])
            spec.__dict__["law"] = dataclasses.replace(spec.law, probs=probs, first=k)
            assert body.columns(k, [kappa])["sandwich_ok"] == [verdict]

    @pytest.mark.parametrize("envelope", ["sandwich", "central"])
    def test_rounding_covers_the_sides_at_exact_moments(self, envelope):
        # each side, evaluated in 50-digit arithmetic at the exact E S_n and
        # Var S_n of the stored masses, lies within the rounding bound of the
        # computed side at points across +-4 sd (+-1.25 sd, the central range)
        spec = prepare_sum([(self.LAW, theta(self.LAW), 900)])
        plug = exact_plug_ins(spec, 0.25 if envelope == "sandwich" else None)
        body = bounds._BODIES[envelope](spec, plug, DEFAULT_CONSTANTS, True)
        mean, var = exact_moments([(self.LAW, 900)])
        sd = math.sqrt(float(var))
        reach = 16 if envelope == "sandwich" else 5
        ks = [round(float(mean) + j * sd / 4) for j in range(-reach, reach + 1)]
        cols = body.columns(ks[0], [float(k) for k in ks])
        rounding = body.rounding()
        with mpmath.workdps(50):
            m, v = mpmath.mpf(mean.numerator) / mean.denominator, \
                mpmath.mpf(var.numerator) / var.denominator
            base = 1 / mpmath.sqrt(2 * mpmath.pi * v)
            for k, lo, hi in zip(ks, cols["lower"], cols["upper"]):
                for computed, (factor, den, term, rho), sign in ((lo, body.lower, -1),
                                                                  (hi, body.upper, 1)):
                    den = mpmath.mpf(den) * v / mpmath.mpf(spec.var)  # at the exact variance
                    exact = (factor * base * mpmath.exp(-(k - m) ** 2 / den)
                             + sign * (mpmath.mpf(term) + rho))
                    assert abs(computed - exact) <= rounding, k

    def test_rounding_covers_the_sides_of_random_laws(self):
        # the same check on random laws of 2-6 atoms on offsets 0..8, about
        # a third of them with one atom of mass 1e-20..1e-40 (half of those
        # of two atoms, where the variance is as tiny), at each v0, D and n
        # below, in each envelope whose conditions theta_n meets, at points
        # across +-4 sd and the two lattice points either side of E S_n (the
        # symmetric envelopes at those in their central range)
        rng = np.random.default_rng(20261021)
        checked = tiny_checked = 0
        for v0, d, n in itertools.product((0.0, -1.5, 3.0), (0.5, 1.0, 2.0), (10, 300, 3000)):
            tiny = rng.random() < 1 / 3
            two = tiny and rng.random() < 1 / 2
            while True:
                m = 2 if two else int(rng.integers(2, 7))
                ks = np.sort(rng.choice(9, m, replace=False)).tolist()
                w = (rng.random(m) + 0.05).tolist()
                if tiny:
                    w[int(rng.integers(m))] = 10.0 ** -rng.uniform(20, 40)
                law = make_pmf(v0, d, zip(ks, w))
                if theta(law) > 0:
                    break
            spec = prepare_sum([(law, theta(law), n)])
            mean, var = exact_moments([(law, n)])
            center, sd = float((mean - Fraction(v0)) / Fraction(d)), math.sqrt(float(var)) / d
            points = sorted({round(center + j * sd / 4) for j in range(-16, 17)}
                            | {round(center) + j for j in range(-2, 3)})
            for envelope, make_body in bounds._BODIES.items():
                plug = bounded_plug_ins(spec, 0.25 if envelope == "sandwich" else None)
                try:
                    body = make_body(spec, plug, DEFAULT_CONSTANTS, True)
                except PreconditionError:  # the growth condition on theta_n
                    continue
                kappas = [v0 + d * k for k in points]
                if body.limit is not None:
                    kappas = [x for x in kappas
                              if (x - spec.mean) ** 2 / spec.var <= body.limit[0]]
                cols = body.columns(points[0], kappas)
                rounding = body.rounding()
                assert rounding < math.inf, (envelope, v0, d, n, ks, w)
                with mpmath.workdps(50):
                    m_, v_ = (mpmath.mpf(mean.numerator) / mean.denominator,
                              mpmath.mpf(var.numerator) / var.denominator)
                    base = mpmath.mpf(d) / mpmath.sqrt(2 * mpmath.pi * v_)
                    for x, lo, hi in zip(kappas, cols["lower"], cols["upper"]):
                        for computed, (factor, den, term, rho), sign in (
                                (lo, body.lower, -1), (hi, body.upper, 1)):
                            den = mpmath.mpf(den) * v_ / mpmath.mpf(spec.var)
                            exact = (factor * base * mpmath.exp(-(x - m_) ** 2 / den)
                                     + sign * (mpmath.mpf(term) + rho))
                            assert abs(computed - exact) <= rounding, (envelope, v0, d, n, ks,
                                                                       w, x)
                checked += 1
                tiny_checked += tiny
        assert checked >= 50 and tiny_checked >= 10, (checked, tiny_checked)


@pytest.mark.parametrize("light, verdict", [(1e-25, True), (1e-30, True)])
def test_side_rounding_charges_the_variance_index_error(light, verdict):
    # on {0: light, 1: 1} the index mean's a-priori error bound, gamma_4 of
    # it, is far above the standard deviation, and its square is up to 20%
    # of the variance at light = 1e-30; the errors of the mean and the
    # variance, measured against their exact values, are 1e-29 and 2e-59
    # there, so the bound stays finite and the verdict is decided
    law = make_pmf(0.0, 1.0, [(0, light), (1, 1.0)])
    spec = prepare_sum([(law, theta(law), 10)])
    body = bounds._BODIES["sandwich"](spec, exact_plug_ins(spec, 0.25), DEFAULT_CONSTANTS, True)
    assert spec.moment_errors[1] < 1e-15 * spec.var and body.rounding() < math.inf
    assert body.columns(10, [10.0])["sandwich_ok"] == [verdict]


class TestExactPlugInBounds:
    @pytest.mark.parametrize("coins", [40, 301, 900])
    def test_plug_ins_dominate_the_exact_binomial_values(self, fair_bernoulli, coins):
        # B_n is Binomial(coins, 1/2) about Theta_n = coins/2, and the xi sum
        # is Binomial(2 coins, 1/2) on L(0, 1/2)
        from .test_convolve import _exact_binomial_kolmogorov

        spec = prepare_sum([(fair_bernoulli, 0.5, coins)])
        theta_n = Fraction(coins, 2)
        for h in (0.1, 0.25, 0.5):
            plug = exact_plug_ins(spec, h)
            far = sum(math.comb(coins, k) for k in range(coins + 1)
                      if abs(k - theta_n) > Fraction(h) * theta_n)
            assert Fraction(far, 2**coins) <= plug.rho_n <= Fraction(far, 2**coins) + 1e-10
        xi = sum_law([(xi_law(split(fair_bernoulli, 0.5)), coins)])
        d = Fraction(xi.D)  # the exact mean and variance of v0 + D Binomial(2 coins, 1/2)
        mean, var = xi.v0 + d * coins, d * d * coins / 2
        exact = _exact_binomial_kolmogorov(2 * coins, xi.v0, xi.D, mean, var)
        assert exact <= plug.h_n <= exact + 1e-10


class TestBoundedPlugIns:
    def test_h_bound_dominates_exact(self, fair_bernoulli):
        spec = prepare_sum([(fair_bernoulli, 0.5, 100)])
        exact = exact_plug_ins(spec, 0.25)
        bound = bounded_plug_ins(spec, 0.25)
        assert bound.h_n >= exact.h_n
        assert bound.rho_n >= exact.rho_n
        assert bound.mode == "bounded-plug-ins"
        assert exact.mode == "exact-plug-ins"

    @pytest.mark.parametrize("h", [0.1, 0.25, 0.9, None])
    def test_plug_ins_carry_their_h(self, fair_bernoulli, h):
        spec = prepare_sum([(fair_bernoulli, 0.5, 100)])
        for plug in (exact_plug_ins(spec, h), bounded_plug_ins(spec, h)):
            assert plug.h == h
            assert (plug.rho_n is None) == (h is None)

    def test_mode_follows_l_n(self):
        assert PlugIns(h_n=0.1, rho_n=None).mode == "exact-plug-ins"
        assert PlugIns(h_n=0.1, rho_n=None, l_n=0.2).mode == "bounded-plug-ins"

    @pytest.mark.parametrize("h", [1.5, 0.0, -0.25, float("nan")])
    def test_exact_plug_ins_check_h_before_any_law(self, fair_bernoulli, monkeypatch, h):
        import lltkit.bounds

        def no_law(*args):
            raise AssertionError("sum_law called for a refused h")

        monkeypatch.setattr(lltkit.bounds, "sum_law", no_law)
        with pytest.raises(PreconditionError, match="0 < h < 1"):
            exact_plug_ins(prepare_sum([(fair_bernoulli, 0.5, 64)]), h)

    @pytest.mark.parametrize("d, n", [(5e102, 4), (3.6e102, 9), (1e110, 4), (1.6e102, 64)])
    def test_non_finite_l_n_refused(self, d, n):
        # sum_j E|X_j|^3 overflows while Var S_n and its psi stay finite; at
        # D = 1e110 a cube |x|^3, and at n = 64 only psi(sqrt(Var S_n)), is
        # beyond the doubles though Var S_n is not
        spec = prepare_sum([(make_pmf(0.0, d, [(0, 1), (1, 1)]), 0.5, n)])
        with pytest.raises(NumericsError, match=r"^L_n = sum_j E psi\(X_j\) / "):
            bounded_plug_ins(spec, 0.25)

    def test_non_finite_h_n_refused(self):
        # L_n = 18 is finite, and 2^1.5 ce L_n overflows for a huge ce that
        # the registry accepts (its c3 = 2^1.5 ce is finite)
        spec = prepare_sum([(make_pmf(1.0, 1.0, [(0, 1), (1, 1)]), 0.5, 4)])
        with pytest.raises(NumericsError, match=r"^H_n = 2\^1\.5 ce L_n = inf is not finite "
                                                r"\(ce = 1e\+307, L_n = 18\.0\)$"):
            bounded_plug_ins(spec, 0.25, constants=ConstantsRegistry(ce=1e307))
        assert bounded_plug_ins(spec, 0.25, constants=ConstantsRegistry(ce=1e306)).h_n < math.inf


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
