"""Exact convolution engine, Poisson-binomial laws, and oracle statistics."""

from __future__ import annotations

import math
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import ndtr

from lltkit import (
    LatticeError,
    LatticePmf,
    bernoulli,
    chernoff_rho,
    iid_sum,
    kolmogorov_distance,
    llt_discrepancy,
    make_pmf,
    split,
    sum_law,
    theta,
    xi_law,
)

from lltkit import convolve
from lltkit.convolve import _Bounds, _direct_product, _fft_product, _measured, _power

from .conftest import random_pmf


def _probs(law):
    """The positive masses of a SumLaw as an index -> mass dict."""
    ks, w = law.atoms()
    return dict(zip(ks.tolist(), w.tolist()))


class TestConvolveAll:
    def test_two_fair_coins(self, fair_bernoulli):
        law = sum_law([(fair_bernoulli, 2)])
        assert _probs(law) == {0: 0.25, 1: 0.5, 2: 0.25}

    def test_binomial_64_central(self, fair_bernoulli):
        law = iid_sum(fair_bernoulli, 64)
        assert law.mass(32) == pytest.approx(math.comb(64, 32) / 2**64, rel=1e-13)

    def test_identity(self, uniform3):
        law = sum_law([(uniform3, 1)])
        assert _probs(law) == uniform3.probs

    def test_offsets_fold_into_sum(self):
        a = make_pmf(1.0, 1.0, [(0, 1), (1, 1)])
        b = make_pmf(-0.5, 1.0, [(0, 1)])
        law = sum_law([(a, 1), (b, 1)])
        assert law.v0 == 0.5
        assert law.mean == pytest.approx(1.0)

    def test_integer_ratio_spans_refine(self):
        coarse = make_pmf(0.0, 1.0, [(0, 1), (1, 1)])
        fine = make_pmf(0.0, 0.5, [(0, 1), (1, 1)])
        law = sum_law([(coarse, 1), (fine, 1)])
        assert law.D == 0.5
        assert law.mass(1) == pytest.approx(0.25)

    def test_incompatible_spans_rejected(self):
        a = make_pmf(0.0, 1.0, [(0, 1), (1, 1)])
        b = make_pmf(0.0, 0.7, [(0, 1), (1, 1)])
        with pytest.raises(LatticeError):
            sum_law([(a, 1), (b, 1)])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(11)
        pmfs = [random_pmf(rng, max_support=8) for _ in range(4)]
        d = min(p.D for p in pmfs)
        pmfs = [make_pmf(p.v0, d, list(p.probs.items())) for p in pmfs]
        base = sum_law([(p, 1) for p in pmfs])
        perm = sum_law([(pmfs[i], 1) for i in (2, 0, 3, 1)])
        ks = set(_probs(base)) | set(_probs(perm))
        assert max(abs(base.mass(k) - perm.mass(k)) for k in ks) < 1e-12

    def test_moment_additivity(self):
        rng = np.random.default_rng(12)
        pmfs = [random_pmf(rng, max_support=10) for _ in range(6)]
        pmfs = [make_pmf(p.v0, 1.0, list(p.probs.items())) for p in pmfs]
        law = sum_law([(p, 1) for p in pmfs])
        from lltkit import moments

        mean_sum = sum(moments(p)[0] for p in pmfs)
        var_sum = sum(moments(p)[1] for p in pmfs)
        assert law.mean == pytest.approx(mean_sum, rel=1e-10)
        assert law.variance == pytest.approx(var_sum, rel=1e-10)


def _sequential_reference(parts):
    """The kernel as it was written per summand: one freshly densified copy
    per summand, convolved in order with direct numpy.convolve, normalized
    by its fsum.  Returns (first index, masses)."""
    summands = [law for law, count in parts for _ in range(count)]
    d = min(p.D for p in summands)
    acc, first = np.array([1.0]), 0
    for p in summands:
        s = round(p.D / d)
        ks = p.support
        dense = np.zeros((ks[-1] - ks[0]) * s + 1)
        for k, w in p.probs.items():
            dense[(k - ks[0]) * s] = w
        acc = np.convolve(acc, dense)
        first += ks[0] * s
    return first, acc / math.fsum(acc)


def _fresh_array_fold(parts):
    """The kernel of sum_law with a fresh zero array per part: one add per
    atom in increasing k for a count-1 part, the FFT power over nonzero
    windows for the others, and the bound chain of each fold: the measured
    norms of the part's positive masses for a count-1 part, the power's
    bounds for the others.
    numpy.convolve in _sequential_reference rounds its dot products
    differently, so only this reference pins the bits of the fold.
    Returns (first index, masses, err_abs)."""
    u = 2.0**-53
    d = min(p.D for p, _ in parts)
    acc, lo, hi, first = np.array([1.0]), 0, 1, 0
    ab = _Bounds(1.0, 1.0, 1.0)
    for p, count in parts:
        s = round(p.D / d)
        ks, w = map(np.array, zip(*sorted(p.probs.items())))
        k0, span = int(ks[0]), int(ks[-1] - ks[0])
        ks, w = ks[w > 0] - k0, w[w > 0]
        out = np.zeros(len(acc) + count * span * s)
        win = acc[lo:hi]
        if count == 1:
            for k, wk in zip((lo + s * ks).tolist(), w.tolist()):
                out[k:k + len(win)] += wk * win
            ab = _direct_product(ab, _measured(w), min(len(win), len(w)))
            lo, hi = lo + s * int(ks[0]), hi + s * int(ks[-1])
        else:
            dense = np.zeros(span + 1)
            dense[ks] = w
            power, pb = _power(dense, count)
            nz = np.flatnonzero(power)
            spread = np.zeros((nz[-1] - nz[0]) * s + 1)
            spread[::s] = power[nz[0]:nz[-1] + 1]
            lo, hi = lo + s * int(nz[0]), hi + s * int(nz[-1])
            out[lo:hi] = np.convolve(win, spread)
            ab = _direct_product(ab, pb, min(len(win), len(spread)))
        acc = out
        first += count * s * k0
    total = math.fsum(acc)
    peak = float(acc.max())
    dm = ab.e1 + 2.0 * u * total
    err = (ab.einf + (peak + ab.einf) * dm / (total - dm) + u * peak) / total * (1.0 + 2.0**-40)
    return first, acc / total, err


def _random_parts(rng):
    """Mixed parts on spans 1/2, 1, 2 and 3: unit-span laws, half-span xi
    laws, Bernoulli levels (1.0 among them) and span multiples."""
    parts = []
    for _ in range(int(rng.integers(1, 5))):
        p = random_pmf(rng, max_support=6, require_theta=True)
        unit = make_pmf(p.v0, 1.0, list(p.probs.items()))
        kind = int(rng.integers(0, 4))
        if kind == 0:
            law = unit
        elif kind == 1:
            law = xi_law(split(unit, float(rng.uniform(0.2, 1.0)) * theta(unit)))
        elif kind == 2:
            law = bernoulli(1.0 if rng.random() < 0.3 else float(rng.uniform(0.05, 1.0)))
        else:
            law = make_pmf(p.v0, float(rng.integers(2, 4)), list(p.probs.items()))
        parts.append((law, int(rng.integers(1, 9))))
    return parts


class _WalkCounter(dict):
    """A probs map that counts how often it is walked (iterated or itemized)."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()

    def items(self):
        self.walks += 1
        return super().items()


def _partition_model_parts(m, n):
    """The parts of the law count_via_model(m, n) reads P{Y = n} from."""
    from scipy.special import expit

    from lltkit.partition import solve_sigma

    js = np.arange(m, n + 1)
    p_hit = expit(-solve_sigma(m, n) * js.astype(float))
    return [(make_pmf(0.0, 1.0, [(0, 1.0 - ph), (int(j), ph)]), 1)
            for j, ph in zip(js, p_hit)]


class TestSumLaw:
    @pytest.mark.parametrize("seed", range(24))
    def test_equals_sequential_reference(self, seed):
        parts = _random_parts(np.random.default_rng(seed))
        law = sum_law(parts)
        first, ref = _sequential_reference(parts)
        assert law.first == first
        assert np.all(np.abs(law.probs - ref) <= law.err_abs)

    def test_repeated_counts_of_one_law(self):
        p = make_pmf(0.0, 1.0, [(0, 0.7), (1, 0.2), (2, 0.1)])
        for count in (1, 2, 57):
            first, ref = _sequential_reference([(p, count)])
            law = iid_sum(p, count)
            assert np.all(np.abs(law.probs - ref) <= law.err_abs)

    @pytest.mark.parametrize("seed", range(8))
    def test_count_one_parts_keep_the_sequential_bits(self, seed):
        # count-1 parts are folded atom by atom, not by numpy.convolve, so
        # they match the sequential reference within the carried bound
        parts = [(law, 1) for law, _ in _random_parts(np.random.default_rng(seed))]
        first, ref = _sequential_reference(parts)
        law = sum_law(parts)
        assert law.first == first
        assert np.all(np.abs(law.probs - ref) <= law.err_abs)

    def test_partition_model_law_keeps_the_sequential_bits(self):
        parts = _partition_model_parts(1, 150)
        first, ref = _sequential_reference(parts)
        law = sum_law(parts)
        assert law.first == first
        assert np.all(np.abs(law.probs - ref) <= law.err_abs)

    def test_power_multiplies_by_the_measured_law(self, monkeypatch):
        # the law is measured once per precision, and the bounds passed with
        # it are the numbers a fresh measurement gives, so powers keep their bits
        seen = []

        def spy(x, bx, y, by):
            if y is not x:
                seen.append((y, by))
            return _fft_product(x, bx, y, by)

        monkeypatch.setattr(convolve, "_fft_product", spy)
        for count in list(range(2, 40)) + [127, 1000]:
            _power(np.array([0.7, 0.2, 0.0, 0.1]), count)
        assert {y.dtype for y, _ in seen} == {np.dtype(np.longdouble), np.dtype(np.float64)}
        assert all(by == _measured(y) for y, by in seen)

    @pytest.mark.parametrize("probs", [(1, 2, 1), (0.7, 0.2, 0.1), (0.05, 0.15, 0.8)])
    def test_error_bound_is_small_up_to_2e4(self, probs):
        p = make_pmf(0.0, 1.0, list(enumerate(probs)))
        for n in (2, 3, 300, 20000):
            assert iid_sum(p, n).err_abs <= 1e-12

    def test_error_bound_holds_on_exact_binomial(self):
        # {1, 2, 1}/4 is Binomial(2, 1/2), so n = 1000 copies give Binomial(2000, 1/2)
        law = iid_sum(make_pmf(0.0, 1.0, [(0, 1), (1, 2), (2, 1)]), 1000)
        exact = np.array([math.comb(2000, k) / 2**2000 for k in range(2001)])
        assert law.first == 0
        assert np.all(np.abs(law.probs - exact) <= law.err_abs + 2.0**-53 * exact)

    @pytest.mark.parametrize("probs", [(0.7, 0.2, 0.1), (0.05, 0.15, 0.8), (0.5, 0.0, 0.5)])
    def test_error_bound_holds_on_extended_reference(self, probs):
        # sequential convolution in extended precision: its own error is
        # below 3 n 2^-64 relative, far under the double-precision bound
        p = make_pmf(0.0, 1.0, [(k, w) for k, w in enumerate(probs) if w > 0])
        dense = np.array(probs, dtype=np.longdouble)
        ref = np.array([1.0], dtype=np.longdouble)
        for _ in range(300):
            ref = np.convolve(ref, dense)
        ref = (ref / ref.sum()).astype(float)
        law = iid_sum(p, 300)
        assert np.all(np.abs(law.probs - ref) <= law.err_abs + 2.0**-53 * ref)

    def test_each_law_densified_once(self):
        p = LatticePmf(0.0, 1.0, _WalkCounter({0: 0.25, 1: 0.5, 2: 0.25}))
        iid_sum(p, 1)
        once = p.probs.walks
        iid_sum(p, 40)
        assert p.probs.walks == 2 * once

    def test_mass_is_zero_off_the_array(self):
        law = iid_sum(make_pmf(2.0, 1.0, [(3, 1), (4, 1)]), 5)
        last = law.first + len(law.probs) - 1
        assert (law.first, last) == (15, 20)
        assert law.mass(law.first) > 0.0 and law.mass(last) > 0.0
        # first - 1 maps to array position -1, which must not wrap around
        assert law.mass(law.first - 1) == 0.0
        assert law.mass(last + 1) == 0.0

    def test_json_lists_positive_masses_only(self):
        coarse = make_pmf(0.0, 2.0, [(0, 1), (1, 1)])
        law = sum_law([(coarse, 2), (make_pmf(0.0, 1.0, [(0, 1)]), 1)])
        assert law.probs.tolist() == [0.25, 0.0, 0.5, 0.0, 0.25]
        assert law.to_json_dict() == {"v0": 0.0, "D": 1.0,
                                      "probs": [[0, 0.25], [2, 0.5], [4, 0.25]]}

    def test_bad_counts_rejected(self, fair_bernoulli):
        for parts in ([], [(fair_bernoulli, 0)], [(fair_bernoulli, 2), (fair_bernoulli, -1)]):
            with pytest.raises(LatticeError):
                sum_law(parts)


class _ConvolveSpy:
    """Stands in for numpy.convolve and records its arguments."""

    def __init__(self):
        self.args = []
        self.convolve = np.convolve

    def __call__(self, a, v, *rest):
        self.args += [np.asarray(a), np.asarray(v)]
        return self.convolve(a, v, *rest)


class TestSparseFold:
    """Count-1 parts fold by their atoms, powered parts over nonzero windows."""

    _P = make_pmf(0.0, 1.0, [(0, 0.7), (1, 0.2), (2, 0.1)])
    _Q = make_pmf(0.0, 1.0, [(0, 0.05), (1, 0.15), (2, 0.8)])

    def test_partition_model_law_makes_no_convolve_call(self, monkeypatch):
        spy = _ConvolveSpy()
        monkeypatch.setattr(np, "convolve", spy)
        law = sum_law(_partition_model_parts(1, 150))
        assert spy.args == []
        assert (law.first, len(law.probs)) == (0, 150 * 151 // 2 + 1)

    def test_powered_parts_convolve_their_nonzero_windows(self, monkeypatch):
        spy = _ConvolveSpy()
        monkeypatch.setattr(np, "convolve", spy)
        law = sum_law([(self._P, 10000), (self._Q, 10000)])
        assert spy.args
        for x in spy.args:
            # every argument starts and ends at a positive mass: it is its
            # own nonzero window, about 1.4e3 entries and not 20001
            assert x[0] > 0.0 and x[-1] > 0.0
            assert len(x) < 2000
        assert (law.first, len(law.probs)) == (0, 40001)
        assert law.err_abs <= 1e-13

    def _assert_fresh_array_bits(self, parts):
        law = sum_law(parts)
        first, ref, ref_err = _fresh_array_fold(parts)
        assert law.first == first
        assert np.array_equal(law.probs, ref)
        assert law.err_abs == ref_err
        first, ref = _sequential_reference(parts)
        assert law.first == first
        assert np.all(np.abs(law.probs - ref) <= law.err_abs)
        return law

    def test_count_one_parts_after_a_power_keep_the_bits(self):
        # the power's lowest entries fall below its error bound and are cut,
        # so the running window starts past 0 when the two-atom parts come in
        faint = make_pmf(0.0, 1.0, [(0, 1e-20), (1, 0.6), (2, 0.4)])
        law = self._assert_fresh_array_bits([(faint, 3)] + _partition_model_parts(2, 40))
        assert law.probs[0] == 0.0 and law.probs[1] == 0.0

    def test_count_one_parts_with_many_atoms_keep_the_bits(self):
        # the gapped laws list a massless first atom, so their masses start past 0
        gapped = LatticePmf(0.0, 1.0, {0: 0.0, 1: 0.25, 3: 0.5, 4: 0.25})
        gapped_pair = LatticePmf(0.0, 1.0, {0: 0.0, 2: 0.5, 3: 0.5})
        parts = [(self._P, 1), (self._Q, 1), (gapped, 1)] + _partition_model_parts(1, 30)
        self._assert_fresh_array_bits(parts + [(self._P, 1), (gapped_pair, 1), (gapped, 1)])

    def test_count_one_parts_at_stride_two_keep_the_bits(self):
        coarse = make_pmf(0.0, 2.0, [(0, 0.3), (1, 0.7)])
        wide = make_pmf(0.0, 2.0, [(0, 0.2), (1, 0.3), (3, 0.5)])
        unit = make_pmf(0.0, 1.0, [(0, 0.4), (1, 0.6)])
        self._assert_fresh_array_bits([(coarse, 1), (unit, 1), (wide, 1), (coarse, 2), (wide, 1)])

    @pytest.mark.parametrize("seed", range(8))
    def test_random_count_one_parts_keep_the_bits(self, seed):
        parts = _random_parts(np.random.default_rng(seed))
        self._assert_fresh_array_bits([(law, 1) for law, _ in parts])

    def test_one_atom_part_off_zero_keeps_the_bits(self):
        # {j: 1.0} has no mass at 0: a one-atom shift, measured as one entry
        point = LatticePmf(0.0, 1.0, {3: 1.0})
        parts = _partition_model_parts(1, 20)
        law = self._assert_fresh_array_bits(parts[:10] + [(point, 1)] + parts[10:])
        assert law.first == 3

    def test_count_one_bounds_are_the_measured_norms(self, monkeypatch):
        # every count-1 part enters the bound chain with the norms _measured
        # gives for its positive masses, to the bit, also where a drift of
        # one of them would be hidden by a min() further down the chain
        seen = []

        def spy(x, y, m):
            seen.append(y)
            return _direct_product(x, y, m)

        monkeypatch.setattr(convolve, "_direct_product", spy)
        rng = np.random.default_rng(5)
        pairs = [make_pmf(0.0, 1.0, [(0, a), (int(j), 1.0)]) for a, j in
                 [(1e-300, 1), (5e-324, 2), (1.0, 3), (0.3, 1)]]
        pairs += [make_pmf(0.0, 1.0, [(0, a), (int(j), b)]) for a, b, j in
                  zip(rng.random(40), rng.random(40), rng.integers(1, 9, 40))]
        laws = [law for law, _ in _partition_model_parts(1, 60)] + pairs
        laws += [law for law, _ in _random_parts(rng)] + [LatticePmf(0.0, 1.0, {3: 1.0})]
        sum_law([(law, 1) for law in laws])
        expected = [_measured(np.array([w for _, w in sorted(law.probs.items()) if w > 0]))
                    for law in laws]
        assert seen == expected

    def test_two_powered_parts_match_the_sequential_reference(self):
        parts = [(self._P, 300), (self._Q, 300)]
        first, ref = _sequential_reference(parts)
        law = sum_law(parts)
        assert law.first == first
        assert np.all(np.abs(law.probs - ref) <= law.err_abs)


class TestLengthCap:
    def test_refused_before_any_allocation(self, monkeypatch, fair_bernoulli):
        def no_alloc(*args, **kwargs):
            raise AssertionError("allocated before the length check")

        monkeypatch.setattr(convolve, "_LENGTH_CAP", 10)
        assert len(sum_law([(fair_bernoulli, 9)]).probs) == 10  # at the cap
        assert len(sum_law([(fair_bernoulli, 1)] * 9).probs) == 10
        for name in ("zeros", "empty"):  # the pre-pass reads only the atoms
            monkeypatch.setattr(np, name, no_alloc)
        monkeypatch.setattr(convolve, "_power", no_alloc)
        for parts in ([(fair_bernoulli, 10)], [(fair_bernoulli, 1)] * 10,
                      [(fair_bernoulli, 4), (make_pmf(0.0, 2.0, [(0, 1), (3, 1)]), 1)]):
            with pytest.raises(LatticeError, match="exact law of 11 points, above the cap of 10"):
                sum_law(parts)


class TestPoissonBinomial:
    def test_two_halves(self):
        law = sum_law([(bernoulli(0.5), 2)])
        assert np.allclose(law.probs, [0.25, 0.5, 0.25])

    def test_tail_enumeration(self):
        # four fair coins: |B - 2| > 1.8 leaves exactly B in {0, 4}, 2/16 in all
        law = sum_law([(bernoulli(0.5), 4)])
        assert law.two_sided_tail(2.0, 0.9 * 2.0) == pytest.approx(2.0 / 16.0)

    def test_tail_inequality_is_strict(self):
        # the deviation event excludes its boundary: |B - 2| > 2 is impossible
        # for four coins (|0 - 2| = 2 does not count)
        law = sum_law([(bernoulli(0.5), 4)])
        assert law.two_sided_tail(2.0, 1.0 * 2.0) == 0.0

    def test_certain_successes(self):
        law = sum_law([(bernoulli(1.0), 3)])
        assert law.mean == 3.0
        assert law.mass(3) == pytest.approx(1.0)

    def test_mean_matches_theta_n(self):
        rng = np.random.default_rng(3)
        ths = rng.uniform(0.05, 1.0, size=25)
        law = sum_law([(bernoulli(t), 1) for t in ths])
        assert float(np.arange(26) @ law.probs) == pytest.approx(math.fsum(ths), abs=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(LatticeError):
            bernoulli(0.0)
        with pytest.raises(LatticeError):
            bernoulli(1.1)

    def test_chernoff_dominates_small_grid(self):
        for n in (10, 50):
            law = sum_law([(bernoulli(0.5), n)])
            for h in (0.2, 0.5, 0.8):
                assert law.two_sided_tail(0.5 * n, h * 0.5 * n) <= chernoff_rho(0.5 * n, h)


class TestKolmogorovDistance:
    def test_two_point_symmetric(self):
        p = make_pmf(0.0, 2.0, [(0, 1), (1, 1)])  # mass at -1, +1 after centering
        d = kolmogorov_distance(sum_law([(p, 1)]), center=1.0, scale=1.0)
        assert d == pytest.approx(0.5 - float(ndtr(-1.0)), abs=1e-15)

    def test_point_mass(self, point_mass):
        assert kolmogorov_distance(iid_sum(point_mass, 1), 0.0, 1.0) == pytest.approx(0.5)

    def test_binomial_rate(self, fair_bernoulli):
        dists = []
        for n in (4, 16, 64, 256):
            law = iid_sum(fair_bernoulli, n)
            dists.append(
                kolmogorov_distance(law, center=law.mean, scale=math.sqrt(law.variance))
            )
        assert all(a > b for a, b in zip(dists, dists[1:]))
        scaled = [d * math.sqrt(n) for d, n in zip(dists, (4, 16, 64, 256))]
        assert all(0.3 <= s <= 0.55 for s in scaled)  # Berry-Esseen n^{-1/2} order

    def test_affine_invariance(self):
        rng = np.random.default_rng(5)
        p = random_pmf(rng)
        a, b = 2.0, 3.25
        q = make_pmf(a * p.v0 + b, a * p.D, list(p.probs.items()))  # law of a*X + b
        d1 = kolmogorov_distance(iid_sum(p, 1), center=1.0, scale=2.0)
        d2 = kolmogorov_distance(iid_sum(q, 1), center=a * 1.0 + b, scale=a * 2.0)
        assert d2 == pytest.approx(d1, abs=1e-14)

    @pytest.mark.parametrize("seed", range(6))
    def test_equals_per_point_reference(self, seed):
        # the per-point form it replaced, over the positive masses only
        law = sum_law(_random_parts(np.random.default_rng(100 + seed)))
        center, scale = law.mean, 1.0 + math.sqrt(law.variance)
        pts, w = [], []
        for i, p in enumerate(law.probs.tolist()):
            if p > 0.0:
                pts.append((law.v0 + law.D * (law.first + i) - center) / scale)
                w.append(p)
        phi = np.array([float(ndtr(x)) for x in pts])
        after = np.cumsum(w)
        ref = float(np.maximum(np.abs(after - phi), np.abs(after - np.array(w) - phi)).max())
        assert kolmogorov_distance(law, center, scale) == ref

    def test_rejects_bad_scale(self, fair_bernoulli):
        with pytest.raises(LatticeError):
            kolmogorov_distance(iid_sum(fair_bernoulli, 1), 0.0, 0.0)


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


def test_import_leaves_scipy_signal_unloaded():
    # the FFT kernel uses scipy.fft; scipy.signal would add a third to the import time
    code = "import sys, lltkit; sys.exit('scipy.signal' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0
