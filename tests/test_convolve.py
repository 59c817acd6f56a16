"""Exact convolution engine, Poisson-binomial laws, and oracle statistics."""

from __future__ import annotations

import dataclasses
import hashlib
import math
from fractions import Fraction
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest
from scipy.special import ndtr

from lltkit import (
    LatticeError,
    LatticePmf,
    NumericsError,
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
from lltkit.convolve import (_MAXLOG, _Bounds, _direct_product, _measured, _ndtr, _power,
                             exact_moments, kolmogorov_bound)

from .conftest import random_pmf


def _probs(law):
    """The positive masses of a SumLaw as an index -> mass dict."""
    ks, w = law.atoms()
    return dict(zip(ks.tolist(), w.tolist()))


def _on_support(law, first, size):
    """The law's masses over the ``size`` indices of a support from index
    ``first`` on, the zeros outside the window included; every positive mass
    lies on that support."""
    ks = law.atoms()[0]
    assert first <= ks[0] and ks[-1] < first + size
    return np.array(law.masses(first, size))


def _assert_near(law, first, ref, slack=0.0):
    """Every mass of the law over ``ref``'s support, from index ``first`` on,
    the zeros outside the window included, lies within ``err_abs`` (plus
    ``slack``) of ``ref``, and no positive mass lies off that support."""
    masses = _on_support(law, first, len(ref))
    assert np.all(np.abs(masses - ref) <= law.err_abs + slack)


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
        # spans 1 and 0.7 share the lattice 0.1; an irrational ratio shares none
        a = make_pmf(0.0, 1.0, [(0, 1), (1, 1)])
        b = make_pmf(0.0, math.sqrt(2.0), [(0, 1), (1, 1)])
        with pytest.raises(LatticeError):
            sum_law([(a, 1), (b, 1)])

    @pytest.mark.parametrize("spans", [
        [1.0] * 300,
        [0.5] * 150 + [1.5] * 150,
        [2.0, 3.0, 2.0, 3.0, 2.0],
        [1.0, 0.7, 1.0, 0.7, 0.1],
        [0.25, 1.0, 0.25, 0.75, 1.0],
        [1.0, math.sqrt(2.0), 1.0],
        [1.0, 1.0, 0.7, math.pi, 0.7, math.e],
    ], ids=["equal", "two-blocks", "mixed", "tenths", "quarters", "irrational",
            "first-refusal"])
    def test_common_lattice_matches_per_part_rule(self, spans):
        # reference: the rule applied to every part, one Fraction per span
        def per_part(spans):
            finest = min(spans)
            ratios = [D / finest for D in spans]
            den = math.lcm(*(Fraction(r).limit_denominator(convolve._MAX_REFINE).denominator
                             for r in ratios))
            strides = [round(r * den) for r in ratios]
            for D, r, s in zip(spans, ratios, strides):
                if abs(r * den - s) > 1e-9 * max(1.0, s):
                    raise LatticeError(f"incompatible spans: {D} and {finest} have no "
                                       "common lattice")
            g = math.gcd(*strides)
            return finest * g / den, [s // g for s in strides]

        try:
            expected = per_part(spans)
        except LatticeError as exc:
            with pytest.raises(LatticeError) as got:
                convolve._common_lattice(spans)
            assert str(got.value) == str(exc)
        else:
            assert convolve._common_lattice(spans) == expected

    def test_spans_densify_on_their_common_lattice(self):
        # spans 2 and 3: neither is a multiple of the other, both of 1
        x = [(1, 0.3), (2, 0.5), (4, 0.2)]
        law = sum_law([(make_pmf(0.5, 2.0, x), 2), (make_pmf(-1.0, 3.0, x), 3)])
        first, ref = _sequential_reference([
            (make_pmf(0.5, 1.0, [(2 * k, w) for k, w in x]), 2),
            (make_pmf(-1.0, 1.0, [(3 * k, w) for k, w in x]), 3)])
        assert (law.D, law.v0) == (1.0, -2.0)
        assert first == 2 * 2 + 3 * 3
        _assert_near(law, first, ref)
        # spans 1 and 0.7 share the lattice 0.1
        law = sum_law([(make_pmf(0.0, 1.0, x), 1), (make_pmf(0.0, 0.7, x), 1)])
        assert law.D == pytest.approx(0.1, rel=1e-15) and law.first == 17

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
    atom in increasing k for a count-1 part, the FFT power on its window
    (placed at the window's offset) over nonzero windows for the others, and
    the bound chain of each fold: the measured
    norms of the part's positive masses for a count-1 part, the power's
    bounds for the others.
    numpy.convolve in _sequential_reference rounds its dot products
    differently, so only this reference pins the bits of the fold.
    Returns (first index, masses on the whole support, err_abs)."""
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
            a, b = convolve._window(list(zip(ks.tolist(), w.tolist())), span, count)
            power, pb = _power(dense, count, a, b)
            nz = np.flatnonzero(power)
            spread = np.zeros((nz[-1] - nz[0]) * s + 1)
            spread[::s] = power[nz[0]:nz[-1] + 1]
            lo, hi = lo + s * (a + int(nz[0])), hi + s * (a + int(nz[-1]))
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


def _partition_model_parts(m, n, sigma=None):
    """The two-point parts ``{0: 1 - p_j, j: p_j}``, j = m..n, of the
    partition model at the tilt ``sigma`` (by default its centred tilt):
    many sparse count-1 parts whose law spans ``sum_j j`` points."""
    from scipy.special import expit

    from lltkit.partition import solve_sigma

    js = np.arange(m, n + 1)
    p_hit = expit(-(solve_sigma(m, n) if sigma is None else sigma) * js.astype(float))
    return [(make_pmf(0.0, 1.0, [(0, 1.0 - ph), (int(j), ph)]), 1)
            for j, ph in zip(js, p_hit)]


class TestSumLaw:
    @pytest.mark.parametrize("seed", range(24))
    def test_equals_sequential_reference(self, seed):
        parts = _random_parts(np.random.default_rng(seed))
        law = sum_law(parts)
        first, ref = _sequential_reference(parts)
        _assert_near(law, first, ref)

    def test_repeated_counts_of_one_law(self):
        p = make_pmf(0.0, 1.0, [(0, 0.7), (1, 0.2), (2, 0.1)])
        for count in (1, 2, 57):
            first, ref = _sequential_reference([(p, count)])
            law = iid_sum(p, count)
            _assert_near(law, first, ref)

    @pytest.mark.parametrize("seed", range(8))
    def test_count_one_parts_keep_the_sequential_bits(self, seed):
        # count-1 parts are folded atom by atom, not by numpy.convolve, so
        # they match the sequential reference within the carried bound
        parts = [(law, 1) for law, _ in _random_parts(np.random.default_rng(seed))]
        first, ref = _sequential_reference(parts)
        law = sum_law(parts)
        _assert_near(law, first, ref)

    def test_partition_model_law_keeps_the_sequential_bits(self):
        parts = _partition_model_parts(1, 150)
        first, ref = _sequential_reference(parts)
        law = sum_law(parts)
        _assert_near(law, first, ref)

    def test_one_transform_pair_per_power(self, monkeypatch):
        # a power is one rfft, a pointwise power and one irfft, whatever its count
        calls = []
        for name in ("rfft", "irfft"):
            def spy(*args, _name=name, _f=getattr(np.fft, name), **kwargs):
                calls.append(_name)
                return _f(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, spy)
        p = make_pmf(0.0, 1.0, [(0, 0.7), (1, 0.2), (3, 0.1)])
        for count in list(range(2, 40)) + [1000]:
            calls.clear()
            sum_law([(p, count), (bernoulli(0.3), 1)])
            assert calls == ["rfft", "irfft"], count
        calls.clear()
        sum_law([(p, 5), (bernoulli(0.3), 7)])
        assert calls == ["rfft", "irfft"] * 2
        # a law of many atoms squared stays in double: extended values could
        # not bring its bound below the inverse transform's error
        calls.clear()
        sum_law([(make_pmf(0.0, 1.0, [(k, 1.0) for k in range(200)]), 2)])
        assert calls == ["rfft", "irfft"]
        # one heavy atom among many light ones keeps the spectrum near 1, so
        # nearly every frequency is evaluated again: by one extended rfft,
        # where the direct sums would cost |frequencies| x atoms pairs
        calls.clear()
        sum_law([(make_pmf(0.0, 1.0, [(0, 99.0 * 200)] + [(k, 1.0) for k in range(1, 200)]), 2)])
        assert calls == ["rfft", "rfft", "irfft"]

    @pytest.mark.parametrize("probs", [(1, 2, 1), (0.7, 0.2, 0.1), (0.05, 0.15, 0.8)])
    def test_error_bound_is_small_up_to_2e4(self, probs):
        p = make_pmf(0.0, 1.0, list(enumerate(probs)))
        for n in (2, 3, 300, 20000):
            assert iid_sum(p, n).err_abs <= 1e-12

    def test_error_bound_holds_on_exact_binomial(self):
        # {1, 2, 1}/4 is Binomial(2, 1/2), so n = 1000 copies give Binomial(2000, 1/2)
        law = iid_sum(make_pmf(0.0, 1.0, [(0, 1), (1, 2), (2, 1)]), 1000)
        exact = np.array([math.comb(2000, k) / 2**2000 for k in range(2001)])
        _assert_near(law, 0, exact, 2.0**-53 * exact)

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
        _assert_near(law, 0, ref, 2.0**-53 * ref)

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


def _integer_power(law, count):
    """The exact law of ``count`` copies of ``law`` (stored masses scaled to
    total one) on its own span: integer masses ``c_i`` and a total ``T`` with
    ``P{S = first + i} = c_i / T``.  Each stored double is an integer times a
    power of two, so the masses scale to integers and the power is exact."""
    items = sorted(law.probs.items())
    k0 = items[0][0]
    fracs = [Fraction(w) for _, w in items]
    scale = math.lcm(*(f.denominator for f in fracs))
    dense = np.zeros(items[-1][0] - k0 + 1, dtype=object)
    dense[:] = 0
    for (k, _), f in zip(items, fracs):
        dense[k - k0] = int(f * scale)
    out = np.array([1], dtype=object)
    for bit in bin(count)[2:]:
        out = np.convolve(out, out)
        if bit == "1":
            out = np.convolve(out, dense)
    return count * k0, out.tolist()[: count * (len(dense) - 1) + 1], sum(dense.tolist()) ** count


def _assert_within_bound(law, first, masses, total):
    """Every computed mass on the whole support, the zeros outside the window
    included, lies within err_abs of ``masses[i] / total``, in rational
    arithmetic."""
    en, ed = law.err_abs.as_integer_ratio()
    for p, c in zip(_on_support(law, first, len(masses)), masses, strict=True):
        num, den = p.as_integer_ratio()  # |num/den - c/total| <= en/ed, cross-multiplied
        assert abs(num * total - c * den) * ed <= en * total * den


def _accuracy_laws(rng):
    """Laws of 2 to 6 points: a periodic support, zero interior masses (listed
    and unlisted), a mass of 1e-20, and random masses."""
    laws = [make_pmf(0.0, 1.0, [(0, 0.3), (2, 0.5), (4, 0.2)]),
            LatticePmf(0.0, 1.0, {0: 0.4, 1: 0.0, 3: 0.35, 5: 0.25}),
            make_pmf(0.0, 1.0, [(0, 1e-20), (1, 0.6), (2, 0.4)]),
            make_pmf(0.0, 1.0, [(0, 0.5), (3, 0.5)])]
    for size in range(2, 7):
        ks = np.sort(rng.choice(9, size=size, replace=False))
        laws.append(make_pmf(0.0, 1.0, list(zip(ks.tolist(), rng.random(size) + 1e-3))))
    return laws


class TestPowerAccuracy:
    """The one-transform power against exact integer references, also where
    the extended type is double (as with MSVC or on macOS arm64)."""

    @pytest.fixture(params=[np.longdouble, np.float64], ids=["longdouble", "double"])
    def ext(self, request, monkeypatch):
        monkeypatch.setattr(convolve, "_EXT", request.param)
        shares = []
        transform_at = convolve._transform_at

        def spy(dense, bf, freqs, size):
            shares.append(len(freqs) / (size // 2 + 1))
            return transform_at(dense, bf, freqs, size)

        monkeypatch.setattr(convolve, "_transform_at", spy)
        return shares

    @pytest.mark.parametrize("count", [2, 3, 7, 64])
    def test_random_laws_within_the_bound(self, ext, count):
        for law in _accuracy_laws(np.random.default_rng(count)):
            _assert_within_bound(iid_sum(law, count), *_integer_power(law, count))

    @pytest.mark.parametrize("count", [2, 3, 7, 64, 300, 1000])
    def test_binomials_within_the_bound(self, ext, count):
        # C(m, k) / 2^m on strides 1 and 2: n copies are Binomial(m n, 1/2)
        for m in range(1, 6):
            for stride in (1, 2):
                law = make_pmf(0.0, 1.0, [(stride * k, math.comb(m, k)) for k in range(m + 1)])
                size = m * count + 1
                masses = [0] * (stride * (size - 1) + 1)
                row = [1]
                for k in range(size - 1):  # C(mn, k + 1) = C(mn, k) (mn - k) / (k + 1)
                    row.append(row[-1] * (size - 1 - k) // (k + 1))
                masses[::stride] = row
                _assert_within_bound(iid_sum(law, count), 0, masses, 2 ** (m * count))

    @pytest.mark.parametrize("count", [2, 3, 7])
    def test_many_atom_laws_within_the_bound(self, ext, count):
        # 40 and 120 random masses stay in double at counts 2 and 3 and take
        # their extended values from one extended rfft at count 7; a heavy
        # atom among 39 light ones does so at every count
        rng = np.random.default_rng(40 + count)
        for size in (40, 120):
            law = make_pmf(0.0, 1.0, list(enumerate((rng.random(size) + 1e-3).tolist())))
            _assert_within_bound(iid_sum(law, count), *_integer_power(law, count))
        law = make_pmf(0.0, 1.0, [(0, 99.0 * 40)] + [(k, 1.0 + k / 40) for k in range(1, 40)])
        _assert_within_bound(iid_sum(law, count), *_integer_power(law, count))

    def test_direct_sums_in_blocks_keep_the_bits(self, monkeypatch):
        # the (frequency, atom) pairs are summed a block at a time; blocks of
        # 7 pairs give the same values, to the sign of zero, as one block, in
        # either extended type (a matmul's doubles may follow the block shape)
        for ext in (np.longdouble, np.float64):
            monkeypatch.setattr(convolve, "_EXT", ext)
            rng = np.random.default_rng(11)
            for _ in range(60):
                size = 2 ** int(rng.integers(4, 11))
                span = int(rng.integers(1, min(size, 40)))
                dense = np.zeros(span + 1)
                ks = rng.choice(span + 1, int(rng.integers(1, min(span + 1, 12) + 1)),
                                replace=False)
                dense[ks] = rng.random(len(ks)) + 1e-3
                dense /= dense.sum()
                picks = int(rng.integers(1, min(size // 2, 60) + 1))
                freqs = np.sort(rng.choice(size // 2 + 1, picks, replace=False))
                # the direct sums, not one extended rfft
                assert 4 * len(freqs) * len(ks) <= size * (size.bit_length() - 1) + 2**13
                monkeypatch.setattr(convolve, "_PAIRS", 2**16)
                whole = convolve._transform_at(dense, _measured(dense), freqs, size)
                monkeypatch.setattr(convolve, "_PAIRS", 7)
                blocks = convolve._transform_at(dense, _measured(dense), freqs, size)
                assert _same_bits(whole[0], blocks[0]) and whole[1] == blocks[1], ext

    def test_extended_set_spans_all_to_few_frequencies(self, ext):
        # count 2 re-evaluates every frequency, count 1000 a seventh of
        # them and count 20000 a few percent
        p = make_pmf(0.0, 1.0, [(0, 0.7), (1, 0.2), (2, 0.1)])
        for count in (2, 1000, 20000):
            iid_sum(p, count)
        assert ext[0] == 1.0 and ext[1] < 0.2 and ext[2] < 0.05


def _octant_reference(size):
    """cos and sin in ``_EXT`` of ``2 pi m / size`` for every m < size, by
    the octant reduction each call of the direct sums made before the
    tables were kept: ``cos`` and ``sin`` of the octant angles up to the
    largest one reached, then a swap and sign change per octant."""
    ext = convolve._EXT
    step = min(8, size)
    o, r = np.divmod(8 * np.arange(size), size)
    odd = (o & 1).astype(bool)
    t = np.where(odd, size - r, r) // step
    phi = np.arange(int(t.max()) + 1, dtype=ext) * (step * np.arctan(ext(1)) / size)
    cos, sin = np.cos(phi), np.sin(phi)
    quarter = o >> 1
    swap = odd ^ (quarter & 1).astype(bool)
    c, s = np.where(swap, sin[t], cos[t]), np.where(swap, cos[t], sin[t])
    c[(quarter == 1) | (quarter == 2)] *= -1
    s[quarter >= 2] *= -1
    return c, s


def _same_bits(x, y):
    """Equal values and signs of zero; a long double's padding bytes are
    not compared."""
    if np.iscomplexobj(x):
        return _same_bits(x.real, y.real) and _same_bits(x.imag, y.imag)
    return (x.dtype == y.dtype and np.array_equal(x, y)
            and np.array_equal(np.signbit(x), np.signbit(y)))


class TestTwiddles:
    """The full-circle twiddle tables of the direct sums (``_twiddles``)."""

    @pytest.mark.parametrize("ext", [np.longdouble, np.float64], ids=["longdouble", "double"])
    def test_table_is_the_octant_reduction(self, monkeypatch, ext):
        # every power-of-two size to 2^16: the same values, to the sign of zero
        monkeypatch.setattr(convolve, "_EXT", ext)
        for t in range(1, 17):
            c, s = convolve._twiddles(2**t)
            ref_c, ref_s = _octant_reference(2**t)
            assert _same_bits(c, ref_c) and _same_bits(s, ref_s), 2**t

    def test_twiddles_within_4u(self):
        # the bound's model of the direct sums: each twiddle within 4 u_e
        def exact(v):  # a power-of-two denominator: exact at 40 digits
            num, den = v.as_integer_ratio()
            return mpmath.mpf(num) / den

        size = 1024
        c, s = convolve._twiddles(size)
        ue = float(np.finfo(convolve._EXT).epsneg)
        with mpmath.workdps(40):
            for m in range(size):
                angle = 2 * mpmath.pi * m / size
                assert abs(exact(c[m]) - mpmath.cos(angle)) <= 4 * ue
                assert abs(exact(s[m]) - mpmath.sin(angle)) <= 4 * ue

    def test_cache_is_keyed_on_the_extended_type(self, monkeypatch):
        # a table built in one type is never served after _EXT changes
        for ext in (np.longdouble, np.float64, np.longdouble, np.float64):
            monkeypatch.setattr(convolve, "_EXT", ext)
            for size in (8, 64, 4096):
                c, s = convolve._twiddles(size)
                assert c.dtype == s.dtype == np.dtype(ext)
            law = iid_sum(make_pmf(0.0, 1.0, [(0, 0.3), (1, 0.45), (2, 0.25)]), 300)
            assert law.err_abs <= 1e-12

    def test_kept_tables_stay_within_their_budget(self, monkeypatch):
        # the kept tables of each type hold less than _TWIDDLE_BYTES, and a
        # size beyond it gets no table
        for ext in (np.longdouble, np.float64):
            monkeypatch.setattr(convolve, "_EXT", ext)
            itemsize = np.dtype(ext).itemsize
            largest = convolve._TWIDDLE_BYTES // (4 * itemsize)
            for t in range(1, largest.bit_length()):
                assert convolve._twiddles(2**t) is not None
            assert convolve._twiddles(2 * largest) is None
            kept = sum(c.nbytes + s.nbytes for (_, e), (c, s) in convolve._TWIDDLES.items()
                       if e is ext)
            assert kept < convolve._TWIDDLE_BYTES

    def test_sizes_beyond_the_budget_keep_the_bits(self, monkeypatch):
        # with no table kept, each block reduces its angles to the octant
        # table: the same extended values
        dense = np.zeros(9)
        dense[[0, 1, 4, 8]] = [0.25, 0.4, 0.15, 0.2]
        freqs = np.arange(0, 513, 3)
        kept = convolve._transform_at(dense, _measured(dense), freqs, 1024)
        monkeypatch.setattr(convolve, "_TWIDDLE_BYTES", 0)
        monkeypatch.setattr(convolve, "_TWIDDLES", {})
        monkeypatch.setattr(convolve, "_PAIRS", 100)
        reduced = convolve._transform_at(dense, _measured(dense), freqs, 1024)
        assert convolve._TWIDDLES == {}
        assert _same_bits(kept[0], reduced[0]) and kept[1] == reduced[1]

    def test_nothing_is_built_at_import(self):
        code = "import sys, lltkit; sys.exit(len(lltkit.convolve._TWIDDLES))"
        assert subprocess.run([sys.executable, "-c", code]).returncode == 0


def _hoeffding_window(law, count):
    """The window ``_power`` reads ``law`` to the power ``count`` on, and
    the bound on the mass it leaves out; it must be shorter than the law's
    whole support, so that the transform is shorter too."""
    items = sorted(law.probs.items())
    k0, span = items[0][0], items[-1][0] - items[0][0]
    a, b = convolve._window([(k - k0, w) for k, w in items if w > 0], span, count)
    last = count * span
    assert (b - a).bit_length() < last.bit_length()
    dense = np.zeros(span + 1)
    for k, w in items:
        dense[k - k0] = w
    outside = convolve._OUTSIDE * _measured(dense).n1 ** count * (1.0 + 4.0 * convolve._U)
    return a, b, outside


def _binomial_row(m, q=1):
    """C(m, k) q^(m - k) for k = 0..m, one at a time."""
    c = q**m
    for k in range(m + 1):
        yield c
        c = c * (m - k) // ((k + 1) * q)


class TestWindow:
    """Powers read on their Hoeffding window: short transforms, aliasing and
    truncation within the carried bound."""

    @pytest.mark.parametrize("count", [600, 2500, 20000])
    def test_bernoulli_quarter_on_its_window(self, count):
        # Bernoulli(1/4): P{S = k} = C(n, k) 3^(n - k) / 4^n exactly
        law = bernoulli(0.25)
        a, b, outside = _hoeffding_window(law, count)
        self._assert_exact(iid_sum(law, count), _binomial_row(count, 3), 4**count, a, b,
                           outside)

    @pytest.mark.parametrize("count", [300, 2000, 20000])
    def test_121_on_its_window(self, count):
        # {1, 2, 1}/4 is Binomial(2, 1/2): P{S = k} = C(2n, k) / 4^n exactly
        law = make_pmf(0.0, 1.0, [(0, 1), (1, 2), (2, 1)])
        a, b, outside = _hoeffding_window(law, count)
        self._assert_exact(iid_sum(law, count), _binomial_row(2 * count), 4**count, a, b,
                           outside)

    @staticmethod
    def _assert_exact(law, masses, total, a, b, outside):
        # every index, inside the window and out, is within err_abs of the
        # exact mass (compared in rational arithmetic), and the exact mass
        # outside the window is within the Hoeffding bound
        masses = list(masses)
        en, ed = law.err_abs.as_integer_ratio()
        left_out = 0
        for i, (p, c) in enumerate(zip(_on_support(law, 0, len(masses)), masses, strict=True)):
            num, den = p.as_integer_ratio()
            assert abs(num * total - c * den) * ed <= en * total * den, i
            if not a <= i <= b:
                left_out += c
                assert p == 0.0
        assert 0 < Fraction(left_out, total) <= Fraction(outside)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_laws_match_the_sequential_reference(self, seed):
        # 2-12 atoms on spans 2-15, at counts whose whole support just
        # passes 4096 points, so that the window halves the transform
        rng = np.random.default_rng(100 + seed)
        for atoms in (2, 5, 12):
            span = int(rng.integers(max(atoms - 1, 2), 16))
            ks = [0, span] + rng.choice(np.arange(1, span), atoms - 2, replace=False).tolist()
            law = make_pmf(0.0, 1.0, list(zip(ks, (rng.random(atoms) + 1e-3).tolist())))
            count = 4096 // span + 1
            _hoeffding_window(law, count)
            first, ref = _sequential_reference([(law, count)])
            _assert_near(iid_sum(law, count), first, ref)

    def test_powered_parts_with_other_parts(self):
        # windows of two powers on strides 1 and 2, folded with count-1 parts
        p = make_pmf(0.0, 1.0, [(0, 0.3), (1, 0.5), (3, 0.2)])
        q = make_pmf(0.5, 2.0, [(0, 0.6), (1, 0.4)])
        for law, count in ((p, 700), (q, 1100)):
            _hoeffding_window(law, count)
        gapped = make_pmf(0.0, 1.0, [(0, 1), (4, 3)])
        parts = [(p, 700), (bernoulli(0.3), 1), (q, 1100), (gapped, 1)]
        first, ref = _sequential_reference(parts)
        law = sum_law(parts)
        _assert_near(law, first, ref)


class _ConvolveSpy:
    """Stands in for numpy.convolve and records copies of its arguments (the
    running window is zeroed after the call returns)."""

    def __init__(self):
        self.args = []
        self.convolve = np.convolve

    def __call__(self, a, v, *rest):
        self.args += [np.array(a), np.array(v)]
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
        assert 0 <= law.first and law.first + len(law.probs) <= 150 * 151 // 2 + 1

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
        assert 0 <= law.first and law.first + len(law.probs) <= 40001
        # the law is held on its window alone: 1.4e3 entries, not 40001
        assert len(law.probs) < 2000
        assert law.err_abs <= 1e-13

    def _assert_fresh_array_bits(self, parts):
        law = sum_law(parts)
        first, ref, ref_err = _fresh_array_fold(parts)
        assert np.array_equal(_on_support(law, first, len(ref)), ref)
        assert law.err_abs == ref_err
        first, ref = _sequential_reference(parts)
        _assert_near(law, first, ref)
        return law

    def test_count_one_parts_after_a_power_keep_the_bits(self):
        # the power's lowest entries fall below its error bound and are cut,
        # so the running window starts past 0 when the two-atom parts come in
        faint = make_pmf(0.0, 1.0, [(0, 1e-20), (1, 0.6), (2, 0.4)])
        law = self._assert_fresh_array_bits([(faint, 3)] + _partition_model_parts(2, 40))
        assert law.mass(0) == 0.0 and law.mass(1) == 0.0 and law.first > 1

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
        # every count-1 part, a two-atom part {0: a, j: b} built from its
        # two floats included, enters the bound chain with the norms
        # _measured gives for its positive masses, to the bit, also where a
        # drift of one of them would be hidden by a min() further down the
        # chain
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
        _assert_near(law, first, ref)


_ERR_ABS_PINS = {  # parts, and the err_abs, window's first index and sha1 of its masses
    "121-n300": (lambda: [(make_pmf(0.0, 1.0, [(0, 1), (1, 2), (2, 1)]), 300)],
                 "0x1.fe16657f803f4p-49", 205, "c67b53260ec1eea142edcc14136c9b5d50550110"),
    "121-n2e4": (lambda: [(make_pmf(0.0, 1.0, [(0, 1), (1, 2), (2, 1)]), 20000)],
                 "0x1.0dd00b8c9c835p-49", 19235, "db7d9c342333303ed9eea65bd50686935b95d977"),
    "73-n2": (lambda: [(make_pmf(0.0, 1.0, [(0, 0.7), (1, 0.3)]), 2)],
              "0x1.adcab16b75ddbp-49", 0, "56a87a59983780baa3b29572552327b86d32dd92"),
    # the parts at a fixed tilt, the centred one as solve_sigma gave it when
    # the pin was taken, so the pin follows sum_law alone, not the last bits
    # of the root
    "partition-m1-n100": (
        lambda: _partition_model_parts(1, 100, float.fromhex("0x1.7322b21829726p-4")),
        "0x1.9734e7e3bdd5cp-47", 0, "08f9d8b46676689c921df840a46248c580d6de68"),
    "mixed-spans": (lambda: [(make_pmf(0.0, 2.0, [(0, 0.5), (1, 0.5)]), 3),
                             (make_pmf(0.5, 3.0, [(0, 0.2), (1, 0.3), (2, 0.5)]), 4),
                             (make_pmf(0.0, 1.0, [(0, 0.6), (2, 0.1), (5, 0.3)]), 1),
                             (bernoulli(0.3), 1)],
                    "0x1.831c272871513p-49", 0, "9d910af305f6619dcc9fe0e961f8beeee32a05fd"),
}


@pytest.mark.parametrize("case", _ERR_ABS_PINS)
def test_err_abs_is_pinned(case):
    # the bound chain (powers on their Hoeffding window, 121 at n = 300 and
    # 2e4, or on their whole support, with their tail drop, two-atom and
    # general count-1 folds, spans 2 and 3 on lattice 1) gives the same
    # double, and the kernel the same masses: a change that keeps the bound
    # but moves a mass fails here
    parts, pinned, first, digest = _ERR_ABS_PINS[case]
    law = sum_law(parts())
    assert law.err_abs.hex() == pinned
    assert law.first == first
    assert hashlib.sha1(law.probs.tobytes()).hexdigest() == digest


def _exact_fold(parts):
    """The exact law of ``parts``, each law's stored masses scaled to total
    one, on the finest span of the parts (every span a multiple of it):
    integer weights by lattice index and their total, folded one summand at
    a time in Python integers."""
    d = min(p.D for p, _ in parts)
    law, total = {0: 1}, 1
    for p, count in parts:
        s = round(p.D / d)
        fracs = {k: Fraction(w) for k, w in p.probs.items() if w > 0}
        scale = math.lcm(*(f.denominator for f in fracs.values()))
        atoms = [(s * k, int(f * scale)) for k, f in fracs.items()]
        for _ in range(count):
            out = {}
            for i, a in law.items():
                for k, w in atoms:
                    out[i + k] = out.get(i + k, 0) + a * w
            law, total = out, total * sum(w for _, w in atoms)
    return law, total


def _l1_distance(law, exact, total):
    """``sum_k |p^_k - exact[k] / total|`` over every index, exactly."""
    ks, w = law.atoms()
    got = {int(k): Fraction(float(p)) for k, p in zip(ks, w)}
    return sum(abs(got.get(k, 0) - Fraction(exact.get(k, 0), total))
               for k in got.keys() | exact.keys())


def _mixed_parts(rng):
    """1-3 parts on spans 0.5 and 1 (D and 2D), offsets off zero, counts
    1-12, 2-4 atoms on 0..5, and now and then one heavy atom."""
    parts = []
    for _ in range(int(rng.integers(1, 4))):
        ks = np.sort(rng.choice(6, size=int(rng.integers(2, 5)), replace=False))
        ws = rng.random(len(ks)) + 1e-3
        if rng.random() < 0.3:
            ws[int(rng.integers(len(ws)))] *= 1e3
        law = make_pmf(float(rng.choice([-1.25, 0.5, 3.0])), float(rng.choice([0.5, 1.0])),
                       list(zip(ks.tolist(), ws.tolist())))
        parts.append((law, int(rng.integers(1, 13))))
    return parts


class TestErrL1:
    """err_l1 against exact laws: it bounds the l1 distance of all the
    computed masses from the exact ones, the zeros off the window included."""

    @pytest.mark.parametrize("seed", range(4))
    def test_mixed_parts_against_exact_folds(self, seed):
        rng = np.random.default_rng(700 + seed)
        for _ in range(40):
            parts = _mixed_parts(rng)
            law = sum_law(parts)
            exact, total = _exact_fold(parts)
            assert _l1_distance(law, exact, total) <= Fraction(law.err_l1), parts
            assert law.err_l1 <= 1e-12

    @pytest.mark.parametrize("count", [600, 2500])
    def test_binomials_on_their_windows(self, count):
        # Bernoulli(1/4) to the power n is C(n, k) 3^(n - k) / 4^n, and {1, 2,
        # 1}/4 to the power n is Binomial(2n, 1/2): both powered on their
        # Hoeffding windows, the exact mass outside counted in the distance
        for law, row in ((bernoulli(0.25), _binomial_row(count, 3)),
                         (make_pmf(0.0, 1.0, [(0, 1), (1, 2), (2, 1)]), _binomial_row(2 * count))):
            _hoeffding_window(law, count)
            exact = dict(enumerate(row))
            got = iid_sum(law, count)
            assert _l1_distance(got, exact, 4**count) <= Fraction(got.err_l1)
            assert got.err_l1 <= 1e-12


class TestReach:
    """Exact laws whose support is far past the length cap: the law is held
    on its window alone."""

    @staticmethod
    def _log_mass(n, k, p, q):
        """log P{S = k} for S Binomial(n, p / (p + q)), at 40 digits."""
        with mpmath.workdps(40):
            p, q = mpmath.mpf(p), mpmath.mpf(q)  # exact: both are doubles
            return (mpmath.loggamma(n + 1) - mpmath.loggamma(k + 1) - mpmath.loggamma(n - k + 1)
                    + k * mpmath.log(p / (p + q)) + (n - k) * mpmath.log(q / (p + q)))

    @pytest.mark.parametrize("n", [10**7, 10**8, 10**9])
    def test_bernoulli_against_log_gamma_references(self, n):
        # Bernoulli(0.3), its stored masses scaled to total one: at the mean,
        # +3 sd and -5 sd each mass is within err_abs of the 40-digit value,
        # and 40 sd out, past the window, the mass is 0.0 and the exact one
        # below err_abs
        coin = bernoulli(0.3)
        law = iid_sum(coin, n)
        assert 0 <= law.first and law.first + len(law.probs) <= n + 1
        assert len(law.probs) < 2**18
        p, q = coin.probs[1], coin.probs[0]
        mean, sd = n * p / (p + q), math.sqrt(n * p * q) / (p + q)
        for z in (0, 3, -5, -40):
            k = round(mean + z * sd)
            exact = mpmath.exp(self._log_mass(n, k, p, q))
            assert abs(law.mass(k) - exact) <= law.err_abs, (z, law.mass(k), exact)
        assert law.mass(round(mean - 40 * sd)) == 0.0
        assert law.err_abs <= 1e-12

    def test_readers_do_not_depend_on_the_layout(self):
        # a law on its window and the same masses padded with zeros out to
        # its whole support give the same values to every reader: the zeros
        # outside the window are charged through err_l1, not read, and the
        # readers take their rounding and reach over the atoms
        p = make_pmf(0.0, 1.0, [(0, 1), (1, 2), (2, 1)])
        for parts, hi in (([(bernoulli(0.3), 10**5)], 10**5),
                          ([(p, 20000), (bernoulli(0.25), 1)], 40001)):
            law = sum_law(parts)
            padded = dataclasses.replace(law, probs=np.array(law.masses(0, hi + 1)), first=0)
            assert len(law.probs) < (hi + 1) / 10
            mean, var = exact_moments(parts)
            assert kolmogorov_bound(law, mean, var) == kolmogorov_bound(padded, mean, var)
            assert llt_discrepancy(law) == llt_discrepancy(padded)
            sd = math.sqrt(var)
            for c, r in ((mean, 0), (mean, 3 * sd), (mean + sd / 3, 2 * sd), (mean, 20 * sd),
                         (-5, 1), (hi, -1)):
                assert law.two_sided_tail_bound(c, r) == padded.two_sided_tail_bound(c, r)
            assert law.to_json_dict() == padded.to_json_dict()
            assert law.masses(-3, 50) == padded.masses(-3, 50)

    def test_a_radius_holding_the_window_is_charged_err_l1_alone(self):
        # the tail of a radius that holds the window has no computed mass:
        # its bound is err_l1, which covers the exact masses off the window
        law = iid_sum(bernoulli(0.3), 10**7)
        lo, hi = law.first, law.first + len(law.probs) - 1
        center, radius = Fraction(lo + hi, 2), Fraction(hi - lo, 2)
        expected = law.err_l1 * (1.0 + 4.0 * convolve._U)
        assert law.two_sided_tail_bound(center, radius) == expected
        assert law.two_sided_tail_bound(center, radius - 1) > expected

    @pytest.mark.parametrize("n", [10**7, 10**8, 10**9])
    def test_kolmogorov_bound_stays_near_the_distance(self, n):
        # the coin's xi law: the bound adds err_l1 and a few roundings to the
        # computed distance, not err_abs per index of the support
        coin = make_pmf(0.0, 1.0, [(0, 1), (1, 1)])
        parts = [(xi_law(split(coin, theta(coin))), n)]
        law = sum_law(parts)
        mean, var = exact_moments(parts)
        dist = kolmogorov_distance(law, float(mean), math.sqrt(float(var)))
        gap = kolmogorov_bound(law, mean, var) - dist
        assert law.err_l1 <= gap <= law.err_l1 + 1e-10 and gap <= 1e-8


class TestLengthCap:
    def test_refused_before_any_allocation(self, monkeypatch, fair_bernoulli):
        def no_alloc(*args, **kwargs):
            raise AssertionError("allocated before the length check")

        monkeypatch.setattr(convolve, "_LENGTH_CAP", 10)
        assert len(sum_law([(fair_bernoulli, 9)]).probs) == 10  # at the cap
        assert len(sum_law([(fair_bernoulli, 1)] * 9).probs) == 10
        self._spy(monkeypatch, no_alloc)
        for parts in ([(fair_bernoulli, 10)], [(fair_bernoulli, 1)] * 10,
                      [(fair_bernoulli, 4), (make_pmf(0.0, 2.0, [(0, 1), (3, 1)]), 1)]):
            with pytest.raises(LatticeError,
                               match="exact law on a window of 11 points, above the cap of 10"):
                sum_law(parts)

    @staticmethod
    def _spy(monkeypatch, no_alloc):
        for name in ("zeros", "empty", "ones", "convolve"):  # the pre-pass reads only the atoms
            monkeypatch.setattr(np, name, no_alloc)
        monkeypatch.setattr(convolve, "_power", no_alloc)

    def test_windows_above_the_cap_refused_before_any_allocation(self, monkeypatch,
                                                                 fair_bernoulli):
        # the cap is on the window, not the support: a coin's window at n =
        # 1e12 is over 2^23 points, and one at n = 4e11 is under it but is
        # pushed over by a count-1 part of span 1e6; the message names the
        # window the pre-pass found
        def no_alloc(*args, **kwargs):
            raise AssertionError("allocated before the length check")

        coin = [(0, 0.5), (1, 0.5)]
        big = convolve._window(coin, 1, 10**12)
        near = convolve._window(coin, 1, 4 * 10**11)
        assert near[1] - near[0] + 1 <= convolve._LENGTH_CAP < big[1] - big[0] + 1
        assert near[1] - near[0] + 10**6 + 1 > convolve._LENGTH_CAP
        self._spy(monkeypatch, no_alloc)
        wide = make_pmf(0.0, 1.0, [(0, 1), (10**6, 1)])
        for parts, window in (([(fair_bernoulli, 10**12)], big[1] - big[0] + 1),
                              ([(fair_bernoulli, 4 * 10**11), (wide, 1)],
                               near[1] - near[0] + 10**6 + 1)):
            with pytest.raises(LatticeError, match=f"exact law on a window of {window} points, "
                                                   f"above the cap of {convolve._LENGTH_CAP}"):
                sum_law(parts)


class TestPartMass:
    @pytest.mark.parametrize("count", [1, 10, 1000, 2000])
    def test_unnormalized_part_refused_before_the_fold(self, monkeypatch, count):
        # masses of total 2, built without make_pmf: without the check the
        # fold ends in a drift refusal (count 10), an IndexError (1000) or an
        # OverflowError after overflow warnings (2000)
        def no_alloc(*args, **kwargs):
            raise AssertionError("allocated before the mass check")

        for name in ("zeros", "empty"):
            monkeypatch.setattr(np, name, no_alloc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericsError, match=r"part 0: its masses total 2\.0, not one"):
                sum_law([(LatticePmf(0.0, 1.0, {0: 1.0, 1: 1.0}), count)])

    def test_mass_check_is_2u(self):
        # 1 + 2u passes, 1 + 4u (the next double up) is refused, and below
        # one 1 - 2u passes and 1 - 3u is refused
        for total, ok in ((1 + 2.0**-52, True), (1 + 2.0**-51, False),
                          (1 - 2.0**-52, True), (1 - 3 * 2.0**-53, False)):
            law = LatticePmf(0.0, 1.0, {0: 0.5, 1: total - 0.5})
            assert math.fsum(law.probs.values()) == total
            if ok:
                assert sum_law([(law, 3), (bernoulli(0.25), 1)]).probs.sum() == pytest.approx(1)
            else:
                with pytest.raises(NumericsError, match="not one to within 2u"):
                    sum_law([(bernoulli(0.25), 1), (law, 3)])

    def test_normalized_laws_pass_the_mass_check(self):
        # make_pmf's masses, those of the xi laws it builds and bernoulli's
        # total one to within 2u, which 3,000 random laws reach
        rng = np.random.default_rng(5)
        laws = [random_pmf(rng, require_theta=True) for _ in range(300)]
        laws += [xi_law(split(p)) for p in laws] + [bernoulli(float(t)) for t in rng.random(200)]
        worst = max(abs(math.fsum(p.probs.values()) - 1) for p in laws)
        assert worst <= 2.0**-52


class TestPoissonBinomial:
    def test_two_halves(self):
        law = sum_law([(bernoulli(0.5), 2)])
        assert np.allclose(law.probs, [0.25, 0.5, 0.25])

    def test_tail_enumeration(self):
        # four fair coins: |B - 2| > 1.8 leaves exactly B in {0, 4}, 2/16 in all
        law = sum_law([(bernoulli(0.5), 4)])
        assert law.two_sided_tail_bound(2.0, 0.9 * 2.0) == pytest.approx(2.0 / 16.0)

    def test_tail_inequality_is_strict(self):
        # the deviation event excludes its boundary: |B - 2| > 2 is impossible
        # for four coins (|0 - 2| = 2 does not count), so the tail holds no
        # computed mass and its bound is err_l1 alone
        law = sum_law([(bernoulli(0.5), 4)])
        assert law.two_sided_tail_bound(2.0, 1.0 * 2.0) == law.err_l1 * (1.0 + 4.0 * convolve._U)
        assert law.err_l1 < 1e-14

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

    def test_tail_bound_dominates_the_exact_tail(self):
        # Binomial(400, 1/2) about 200: the points at distance 20 are in the
        # tail just below radius 20 and out of it from 20 on; 0.1 * 200 as
        # real numbers lies above 20
        law = sum_law([(bernoulli(0.5), 400)])

        def exact(r):
            return Fraction(sum(math.comb(400, k) for k in range(401) if abs(k - 200) > r), 2**400)

        for r in (Fraction(20), Fraction(20) - Fraction(1, 10**30), Fraction(0.1) * 200,
                  Fraction(50), Fraction(0.25) * 200, Fraction(190)):
            bound = law.two_sided_tail_bound(200, r)
            assert exact(r) <= bound <= exact(r) + 1e-11
        assert law.two_sided_tail_bound(200.0, 20.0) == law.two_sided_tail_bound(200, Fraction(20))

    @pytest.mark.parametrize("v0, d", [(0.25, 0.5), (-1.5, 0.75)])
    def test_tail_decided_exactly_off_the_unit_lattice(self, v0, d):
        # centres on lattice points and radii that are multiples of the span
        # put points exactly on c - r and c + r, which are not in the tail;
        # a negative radius puts every point in it
        law = sum_law([(make_pmf(v0, d, [(0, 0.3), (1, 0.5), (3, 0.2)]), 5)])
        first, size = 0, 16  # the support: 5 copies of {0, 1, 3}
        masses = _on_support(law, first, size)
        points = [Fraction(law.v0) + Fraction(law.D) * (first + i) for i in range(size)]
        mid = law.v0 + law.D * (first + size // 2)
        cases = [(c, j * law.D) for c in (mid, mid + law.D) for j in (0, 1, 2, 5)]
        cases += [(Fraction(mid) + Fraction(1, 3), Fraction(law.D) * 3 - Fraction(1, 3)),
                  (Fraction(mid), Fraction(law.D) * 4 + Fraction(1, 10**30)),
                  (mid, Fraction(law.D) * 4 - Fraction(1, 10**30)), (mid, -0.25)]
        for c, r in cases:
            tail = np.array([abs(x - Fraction(c)) > Fraction(r) for x in points])
            expected = (math.fsum(masses[tail].tolist()) + law.err_l1) * (1.0 + 4.0 * convolve._U)
            assert law.two_sided_tail_bound(c, r) == expected
        assert law.two_sided_tail_bound(mid, -0.25) >= 1.0

    def test_chernoff_dominates_small_grid(self):
        for n in (10, 50):
            law = sum_law([(bernoulli(0.5), n)])
            for h in (0.2, 0.5, 0.8):
                assert law.two_sided_tail_bound(0.5 * n, h * 0.5 * n) <= chernoff_rho(0.5 * n, h)


def test_exact_moments_of_the_scaled_stored_masses():
    # offsets, spans 0.5 and 0.75, a mass of 1e-20 and masses that do not
    # total one: the moments of the stored masses scaled to total one
    p = LatticePmf(0.25, 0.5, {-3: 0.3, 0: 1e-20, 2: 0.7000000000000001})
    q = LatticePmf(-1.0, 0.75, {1: 0.125, 4: 0.875})
    mean, var = Fraction(0), Fraction(0)
    for law, count in ((p, 3), (q, 2)):
        w = {k: Fraction(x) for k, x in law.probs.items()}
        pts = {k: Fraction(law.v0) + Fraction(law.D) * k for k in w}
        m = sum(pts[k] * x for k, x in w.items()) / sum(w.values())
        mean += count * m
        var += count * sum((pts[k] - m) ** 2 * x for k, x in w.items()) / sum(w.values())
    assert exact_moments([(p, 3), (q, 2)]) == (mean, var)
    law = sum_law([(p, 3), (q, 2)])
    assert law.mean == pytest.approx(float(mean), rel=1e-14)
    assert law.variance == pytest.approx(float(var), rel=1e-14)


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

    @pytest.mark.parametrize("n", [20, 150, 600])
    def test_bound_dominates_exact_binomial_distance(self, n):
        # {1, 2, 1}/4 to the power n is Binomial(2n, 1/2); its exact CDF comes
        # from math.comb and Phi from mpmath at 40 digits
        law = iid_sum(make_pmf(0.0, 1.0, [(0, 1), (1, 2), (2, 1)]), n)
        bound = kolmogorov_bound(law, n, Fraction(n, 2))
        exact = _exact_binomial_kolmogorov(2 * n, 0.0, 1.0, n, Fraction(n, 2))
        assert exact <= bound <= exact + 1e-10
        assert kolmogorov_distance(law, float(n), math.sqrt(n / 2.0)) < bound


def _exact_binomial_kolmogorov(m, v0, d, mean, variance):
    """sup_x |P{(B - mean)/sqrt(variance) <= x} - Phi(x)| for B = v0 + d
    Binomial(m, 1/2), over both sides of every jump, in 40-digit arithmetic;
    ``mean`` and ``variance`` may be exact ``Fraction`` values."""
    with mpmath.workdps(40):
        mean, variance = Fraction(mean), Fraction(variance)
        center = mpmath.mpf(mean.numerator) / mean.denominator
        scale = mpmath.sqrt(mpmath.mpf(variance.numerator) / variance.denominator)
        total, below, worst = mpmath.mpf(2) ** m, mpmath.mpf(0), mpmath.mpf(0)
        c = 1
        for k in range(m + 1):
            phi = mpmath.ncdf((mpmath.mpf(v0) + mpmath.mpf(d) * k - center) / scale)
            above = below + c / total
            worst = max(worst, abs(below - phi), abs(above - phi))
            below, c = above, c * (m - k) // (k + 1)
        return float(worst) * (1.0 + 2.0**-52)


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


def _bits(x: np.ndarray) -> np.ndarray:
    """The bit patterns of a float array, every NaN as one pattern."""
    return np.where(np.isnan(x), np.nan, x).view(np.int64)


class TestNdtr:
    """``_ndtr`` gives the doubles of ``scipy.special.ndtr``, bit for bit."""

    @pytest.mark.parametrize("center", [1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0)],
                             ids=["erf-erfc", "erfc-1", "erfc-8"])
    def test_dense_grid_at_each_branch_edge(self, center):
        # |a| = sqrt2 |x|: x = 1/sqrt2 switches erf for erfc, x = 1 erfc's
        # 1 - erf for P/Q, and x = 8 P/Q for R/S
        a = center + np.arange(-20000, 20001) * 2.0**-40
        a = np.concatenate([a, -a, np.linspace(center - 1e-3, center + 1e-3, 20001)])
        assert np.array_equal(_bits(_ndtr(a)), _bits(ndtr(a)))

    def test_random_values(self):
        rng = np.random.default_rng(29)
        a = np.concatenate([rng.uniform(-45.0, 45.0, 200000), 3.0 * rng.standard_normal(200000)])
        assert np.array_equal(_bits(_ndtr(a)), _bits(ndtr(a)))

    def test_special_values_and_the_underflow_edge(self):
        # erfc(z) is 0 once z^2 > MAXLOG, near |a| = sqrt(2 MAXLOG) = 37.68;
        # huge finite values square to inf, and numpy must not warn of it
        edge = math.sqrt(_MAXLOG)
        z = edge + np.arange(-2000, 2001) * 2.0**-47
        a = np.concatenate([z * math.sqrt(2.0), np.linspace(37.5, 38.5, 4001)])
        big = np.finfo(float).max
        a = np.concatenate([a, -a, [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                                    1e200, -1e200, big, -big]])
        assert np.array_equal(_bits(_ndtr(a)), _bits(ndtr(a)))
        assert ((z[1:] * z[1:] > _MAXLOG) & (z[:-1] * z[:-1] <= _MAXLOG)).any()

    def test_empty_and_one_entry_arrays(self):
        assert _ndtr(np.array([])).shape == (0,)
        assert _ndtr(np.array([0.5])).tolist() == [float(ndtr(0.5))]


def test_import_leaves_scipy_signal_unloaded():
    # the FFT kernel uses numpy.fft; scipy.signal would add a third to the import time
    code = "import sys, lltkit; sys.exit('scipy.signal' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


@pytest.mark.skipif(np.finfo(np.longdouble).eps == np.finfo(np.float64).eps,
                    reason="long double is double here")
def test_fft_keeps_long_double():
    # numpy 1.x's fft cast long double to double: the extended frequencies of
    # sum_law's powers would then be double, and its err_abs would not hold
    x = np.arange(8, dtype=np.longdouble) / 7
    assert np.fft.rfft(x).dtype == np.clongdouble
    assert np.fft.irfft(np.fft.rfft(x), 8).dtype == np.longdouble
