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
    """The kernel of sum_law with a fresh zero array per part, each part read
    from its first positive atom: nothing for a point mass (its shift alone),
    one add per atom in increasing k for a count-1 part, and for a power, on
    its support reduced by the gcd of its offsets and spread at that stride,
    the binomial of a two-atom law, the direct power of a law of three or
    more atoms on its whole support up to _DIRECT_WIDTH points or the FFT
    power of any other on its window (placed at the window's offset) over
    nonzero windows; and the bound chain of each fold: the measured norms of
    the part's positive masses for a count-1 part, the power's bounds for
    the others.  numpy.convolve in _sequential_reference rounds its dot
    products differently, so only this reference pins the bits of the fold.
    Returns (first index, masses on the whole support, err_abs)."""
    u = 2.0**-53
    d = min(p.D for p, _ in parts)
    acc, lo, hi, first = np.array([1.0]), 0, 1, 0
    ab = _Bounds(1.0, 1.0, 1.0)
    for p, count in parts:
        s = round(p.D / d)
        ks, w = map(np.array, zip(*sorted(p.probs.items())))
        ks, w = ks[w > 0], w[w > 0]
        first += count * s * int(ks[0])
        if len(ks) == 1:
            continue
        ks = ks - ks[0]
        out = np.zeros(len(acc) + count * int(ks[-1]) * s)
        win = acc[lo:hi]
        if count == 1:
            for k, wk in zip((lo + s * ks).tolist(), w.tolist()):
                out[k:k + len(win)] += wk * win
            ab = _direct_product(ab, _measured(w), min(len(win), len(w)))
            hi += s * int(ks[-1])
        else:
            g = math.gcd(*ks.tolist())
            pos, st = [(k // g, wk) for k, wk in zip(ks.tolist(), w.tolist())], s * g
            span = pos[-1][0]
            if len(pos) == 2:  # a binomial, with no transform
                a, b = convolve._window(pos, span, count)
                power, pb = convolve._binomial(pos, count, a, b)
            elif count * span + 1 <= convolve._DIRECT_WIDTH:
                a, b = 0, count * span  # direct products on the whole support
                power, pb = convolve._direct_bounds(*convolve._direct_power(pos, span, count))
            else:
                a, b = convolve._window(pos, span, count)
                power, pb = _power(pos, span, count, a, b)
            nz = np.flatnonzero(power)
            spread = np.zeros((nz[-1] - nz[0]) * st + 1)
            spread[::st] = power[nz[0]:nz[-1] + 1]
            lo, hi = lo + st * (a + int(nz[0])), hi + st * (a + int(nz[-1]))
            out[lo:hi] = np.convolve(win, spread)
            ab = _direct_product(ab, pb, min(len(win), len(spread)))
        acc = out
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
        # a power of three or more atoms is raised by direct products while
        # its whole support has at most _DIRECT_WIDTH points, and past it by
        # one rfft, a pointwise power and one irfft, whatever its count; a
        # power of two atoms is a binomial and calls no transform
        calls = []
        for name in ("rfft", "irfft"):
            def spy(*args, _name=name, _f=getattr(np.fft, name), **kwargs):
                calls.append(_name)
                return _f(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, spy)
        p = make_pmf(0.0, 1.0, [(0, 0.7), (1, 0.2), (3, 0.1)])
        for count in list(range(2, 40)) + [(convolve._DIRECT_WIDTH - 1) // 3]:
            calls.clear()
            sum_law([(p, count), (bernoulli(0.3), 1)])
            assert calls == [], count
        for count in ((convolve._DIRECT_WIDTH - 1) // 3 + 1, 1000):
            calls.clear()
            sum_law([(p, count), (bernoulli(0.3), 1)])
            assert calls == ["rfft", "irfft"], count
        calls.clear()
        sum_law([(p, 500), (bernoulli(0.3), 7), (p, 5), (p, 3000)])
        assert calls == ["rfft", "irfft"] * 2
        gapped = LatticePmf(0.0, 1.0, {0: 0.0, 2: 0.4, 5: 0.6})  # a massless listed atom
        for count in list(range(2, 40)) + [1000, 10**6]:
            calls.clear()
            sum_law([(bernoulli(0.3), count), (gapped, count), (bernoulli(0.3), 1)])
            assert calls == [], count
        # a law of many atoms to the power 6, past the direct width, stays in
        # double: its surviving frequencies times its atoms pass the size rule
        calls.clear()
        sum_law([(make_pmf(0.0, 1.0, [(k, 1.0) for k in range(200)]), 6)])
        assert calls == ["rfft", "irfft"]
        # one heavy atom among many light ones keeps the spectrum near 1, so
        # nearly every frequency would be summed again, at |frequencies| x
        # atoms pairs: past the size rule the double power stands
        calls.clear()
        sum_law([(make_pmf(0.0, 1.0, [(0, 99.0 * 200)] + [(k, 1.0) for k in range(1, 200)]), 6)])
        assert calls == ["rfft", "irfft"]

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
    long double is double (as with MSVC or on macOS arm64): the kernel reads
    no long double, so ``np.longdouble`` patched to ``float64`` changes
    nothing."""

    @pytest.fixture(params=[np.longdouble, np.float64], ids=["longdouble", "double"])
    def ext(self, request, monkeypatch):
        monkeypatch.setattr(np, "longdouble", request.param)
        shares = []
        log_power = convolve._log_power

        def spy(pos, count, size, freqs):
            shares.append(len(freqs) / (size // 2 + 1))
            return log_power(pos, count, size, freqs)

        monkeypatch.setattr(convolve, "_log_power", spy)
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
        # 40 and 120 random masses stay in double at counts 2 and 3, and at
        # count 7 their surviving frequencies are summed in log form, or the
        # double power stands past the size rule; so does a heavy atom among
        # 39 light ones at every count
        rng = np.random.default_rng(40 + count)
        for size in (40, 120):
            law = make_pmf(0.0, 1.0, list(enumerate((rng.random(size) + 1e-3).tolist())))
            _assert_within_bound(iid_sum(law, count), *_integer_power(law, count))
        law = make_pmf(0.0, 1.0, [(0, 99.0 * 40)] + [(k, 1.0 + k / 40) for k in range(1, 40)])
        _assert_within_bound(iid_sum(law, count), *_integer_power(law, count))

    @pytest.mark.parametrize("count", [2, 3, 7, 16, 64])
    def test_power_within_its_bounds_at_small_widths(self, count):
        # sum_law raises these powers by direct products, so _power is called
        # here on the whole support, against the exact power of the stored
        # masses (integers over scale^count): every entry within einf and
        # the l1 distance within e1; the 40- and 120-atom laws stop at count
        # 16, where their exact integer powers still take under a second
        laws = [law for law in _accuracy_laws(np.random.default_rng(count))
                if sum(w > 0 for w in law.probs.values()) >= 3]
        rng = np.random.default_rng(40 + count)
        if count <= 16:
            laws += [make_pmf(0.0, 1.0, list(enumerate((rng.random(size) + 1e-3).tolist())))
                     for size in (40, 120)]
        for law in laws:
            items = sorted(law.probs.items())
            k0, span = items[0][0], items[-1][0] - items[0][0]
            x, xb = _power([(k - k0, w) for k, w in items if w > 0], span, count, 0,
                           count * span)
            _, masses, _ = _integer_power(law, count)
            scale = math.lcm(*(Fraction(w).denominator for _, w in items)) ** count
            diffs = [abs(Fraction(p) - Fraction(c, scale))
                     for p, c in zip(x.tolist(), masses, strict=True)]
            assert max(diffs) <= Fraction(xb.einf), law
            assert sum(diffs) <= Fraction(xb.e1), law

    def test_extended_set_spans_all_to_few_frequencies(self, ext):
        # count 2 sums every frequency again, count 1000 a seventh of
        # them and count 20000 a few percent; sum_law raises count 2 by
        # direct products, so its transform is called here
        p = make_pmf(0.0, 1.0, [(0, 0.7), (1, 0.2), (2, 0.1)])
        _power(sorted(p.probs.items()), 2, 2, 0, 4)
        for count in (1000, 20000):
            iid_sum(p, count)
        assert ext[0] == 1.0 and ext[1] < 0.2 and ext[2] < 0.05


class TestLogPower:
    """The surviving frequencies of a power, summed in double in log form."""

    @staticmethod
    def _exact(x):  # a double as an mpmath number: exact at 50 digits
        num, den = float(x).as_integer_ratio()
        return mpmath.mpf(num) / den

    LAWS = {
        "121": make_pmf(0.0, 1.0, [(0, 1), (1, 2), (2, 1)]),
        "721": make_pmf(0.0, 1.0, [(0, 0.7), (1, 0.2), (2, 0.1)]),
        "gapped5": make_pmf(0.0, 1.0, [(0, 0.3), (1, 0.1), (4, 0.25), (6, 0.15), (9, 0.2)]),
        "near-periodic": LatticePmf(0.0, 1.0, {0: 0.5 - 5e-7, 1: 1e-6, 2: 0.5 - 5e-7}),
    }

    @pytest.mark.parametrize("name", LAWS)
    @pytest.mark.parametrize("count", [10**3, 10**5, 10**7, 10**9])
    def test_each_frequency_within_its_bound(self, monkeypatch, name, count):
        # against 50-digit mpmath powers of the transform of the stored masses:
        # F_j^n = exp(n log F_j), at every frequency the kernel sums
        calls = []
        log_power = convolve._log_power

        def spy(pos, n, size, freqs):
            out = log_power(pos, n, size, freqs)
            calls.append((pos, n, size, freqs, out))
            return out

        monkeypatch.setattr(convolve, "_log_power", spy)
        iid_sum(self.LAWS[name], count)
        (pos, n, size, freqs, (values, bounds)), = calls
        with mpmath.workdps(50):
            atoms = [(k, self._exact(w)) for k, w in pos]
            for j, value, bound in zip(freqs.tolist(), values.tolist(), bounds.tolist()):
                f = mpmath.fsum(w * mpmath.expjpi(-2 * mpmath.mpf(j) * k / size) for k, w in atoms)
                exact = mpmath.exp(n * mpmath.log(f))
                assert abs(mpmath.mpc(value) - exact) <= bound, (j, value, bound)

    @pytest.mark.parametrize("name, f, mf, args", [
        ("sin", np.sin, mpmath.sin, "angles"), ("cos", np.cos, mpmath.cos, "angles"),
        ("log1p", np.log1p, mpmath.log1p, "log1p"), ("exp", np.exp, mpmath.exp, "exp"),
    ])
    def test_libm_within_its_model(self, name, f, mf, args):
        # the one platform assumption of the kernel: numpy's double sin, cos,
        # log1p, arctan2 and exp within _LIBM = 4u of the value at the
        # double argument, on the ranges the kernel reaches (angles up to
        # pi times the widest span and the phases of large counts, 1 + x =
        # |psi|^2 down to the kept set's least, exponents of masses above u^2)
        rng = np.random.default_rng(len(name))
        x = {"angles": np.concatenate([rng.uniform(-4, 4, 400), rng.uniform(-3e4, 3e4, 300),
                                       rng.uniform(-2**40, 2**40, 100), [0.5, -2.0, 1e-300]]),
             "log1p": np.concatenate([-rng.random(300), -(10.0 ** -rng.uniform(0, 30, 300)),
                                      10.0 ** -rng.uniform(14, 30, 100)]),
             "exp": np.concatenate([rng.uniform(-80, 0, 400), -(10.0 ** -rng.uniform(0, 20, 200))]),
             }[args]
        with mpmath.workdps(40):
            for xi, yi in zip(x.tolist(), f(x).tolist()):
                exact = mf(self._exact(xi))
                assert abs(self._exact(yi) - exact) <= convolve._LIBM * abs(exact), (name, xi)

    def test_exp_of_an_imaginary_phase_is_cos_and_sin(self):
        # P~ = e^L exp(i Phi): numpy's complex exp at 0 + i Phi gives the
        # cosine and the sine of Phi within the model; cos 0 and sin 0 are exact
        assert np.cos(np.zeros(4)).tolist() == [1.0] * 4 and not np.sin(np.zeros(4)).any()
        rng = np.random.default_rng(3)
        phi = np.concatenate([rng.uniform(-4, 4, 400), rng.uniform(-3e4, 3e4, 200), [0.0]])
        with mpmath.workdps(40):
            for p, z in zip(phi.tolist(), np.exp(1j * phi).tolist()):
                for part, exact in ((z.real, mpmath.cos(self._exact(p))),
                                    (z.imag, mpmath.sin(self._exact(p)))):
                    assert abs(self._exact(part) - exact) <= convolve._LIBM * abs(exact), p

    def test_arctan2_within_its_model(self):
        rng = np.random.default_rng(2)
        y = np.concatenate([rng.uniform(-2, 2, 400), 10.0 ** -rng.uniform(0, 40, 200)])
        x = np.concatenate([rng.uniform(-1, 1, 400), rng.uniform(-1, 1, 200)])
        with mpmath.workdps(40):
            for yi, xi, zi in zip(y.tolist(), x.tolist(), np.arctan2(y, x).tolist()):
                exact = mpmath.atan2(self._exact(yi), self._exact(xi))
                assert abs(self._exact(zi) - exact) <= convolve._LIBM * abs(exact), (yi, xi)

    def test_periodic_law_is_its_reduced_law_at_stride_two(self):
        # {0, 2, 4} is {0, 1, 2} at stride 2: the same masses, bit for bit, and
        # the same bounds, with exact zeros between them
        wide = iid_sum(make_pmf(0.0, 1.0, [(0, 0.25), (2, 0.5), (4, 0.25)]), 300)
        law = iid_sum(make_pmf(0.0, 1.0, [(0, 0.25), (1, 0.5), (2, 0.25)]), 300)
        assert wide.first == 2 * law.first and len(wide.probs) == 2 * len(law.probs) - 1
        assert wide.probs[::2].tobytes() == law.probs.tobytes()
        assert not wide.probs[1::2].any()
        assert (wide.err_abs, wide.err_l1) == (law.err_abs, law.err_l1)

    def test_one_cluster_of_frequencies_per_periodic_law(self, monkeypatch):
        # a law on {0, 3, 6, 9} keeps the frequencies about 0 only, as its
        # reduced law does, not the three clusters of its own transform
        sizes = []
        log_power = convolve._log_power

        def spy(pos, n, size, freqs):
            sizes.append((pos, len(freqs)))
            return log_power(pos, n, size, freqs)

        monkeypatch.setattr(convolve, "_log_power", spy)
        iid_sum(make_pmf(0.0, 1.0, [(0, 0.1), (3, 0.4), (6, 0.3), (9, 0.2)]), 500)
        iid_sum(make_pmf(0.0, 1.0, [(0, 0.1), (1, 0.4), (2, 0.3), (3, 0.2)]), 500)
        assert sizes[0] == sizes[1] and sizes[0][0][-1][0] == 3


def _hoeffding(law, count):
    """The Hoeffding window of ``law`` to the power ``count``: the mean
    plus or minus ``span sqrt(count ln(2 / u^2) / 2)``, one index more on
    each side, within the whole support."""
    items = sorted(law.probs.items())
    k0, span = items[0][0], items[-1][0] - items[0][0]
    pos = [(k - k0, w) for k, w in items if w > 0]
    center = count * math.fsum(k * w for k, w in pos) / math.fsum(w for _, w in pos)
    reach = span * math.sqrt(count * math.log(2.0 / convolve._OUTSIDE) / 2.0)
    return max(0, math.floor(center - reach) - 1), min(count * span, math.ceil(center + reach) + 1)


def _hoeffding_window(law, count):
    """The window ``_power`` reads ``law`` to the power ``count`` on, and
    the bound on the mass it leaves out; it must be shorter than the law's
    whole support, so that the transform is shorter too, and lie within the
    law's Hoeffding window."""
    items = sorted(law.probs.items())
    k0, span = items[0][0], items[-1][0] - items[0][0]
    a, b = convolve._window([(k - k0, w) for k, w in items if w > 0], span, count)
    last = count * span
    assert (b - a).bit_length() < last.bit_length()
    ha, hb = _hoeffding(law, count)
    assert ha <= a <= b <= hb
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
    """Powers read on their window, the narrower of Hoeffding's and
    Bernstein's: short transforms, aliasing and truncation within the
    carried bound."""

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

    @pytest.mark.parametrize("count", [600, 2500])
    def test_binomial_4_half_on_its_bernstein_window(self, count):
        # {1, 4, 6, 4, 1}/16 is Binomial(4, 1/2): P{S = k} = C(4n, k) / 16^n
        # exactly; its variance, 1, is a quarter of the span^2 / 4 that
        # Hoeffding's bound allows for, so Bernstein's window is much shorter
        law = make_pmf(0.0, 1.0, [(0, 1), (1, 4), (2, 6), (3, 4), (4, 1)])
        a, b, outside = _hoeffding_window(law, count)
        ha, hb = _hoeffding(law, count)
        assert b - a + 1 <= 0.6 * (hb - ha + 1)
        self._assert_exact(iid_sum(law, count), _binomial_row(4 * count), 16**count, a, b,
                           outside)

    def test_bernstein_window_only_below_2_41(self):
        # a law almost all on one atom has a Bernstein window of about 100
        # points at any count, but from count span = 2^41 on the computed
        # center may miss the mean by more than the window's margin (read
        # there, the power came out all zeros at count 2^56 and overflowed
        # at 2^62 + 1), so the window is Hoeffding's and the cap refuses the
        # law
        law = LatticePmf(0.0, 1.0, {0: 2.0**-70, 1: 1 - 2.0**-69, 2: 2.0**-70})
        below = _hoeffding_window(law, 2**40 - 1)
        assert below[1] - below[0] < 110
        assert convolve._window(sorted(law.probs.items()), 2, 2**40) == _hoeffding(law, 2**40)
        with pytest.raises(LatticeError, match="above the cap"):
            sum_law([(law, 2**62 + 1)])

    @staticmethod
    def _assert_exact(law, masses, total, a, b, outside):
        # every index, inside the window and out, is within err_abs of the
        # exact mass (compared in rational arithmetic), and the exact mass
        # outside the window is within the bound T' on what it leaves out
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


def _binomial_fold(law, count):
    """The exact law of ``count`` copies of the two-atom ``law`` (its stored
    masses scaled to total one): integer masses by index, the binomial row
    at the stride of its two positive atoms, and their total."""
    (k0, w0), (k1, w1) = [(k, Fraction(w)) for k, w in sorted(law.probs.items()) if w > 0]
    scale = math.lcm(w0.denominator, w1.denominator)
    c0, c1 = int(w0 * scale), int(w1 * scale)
    exact, term = {}, c0**count
    for j in range(count + 1):  # C(n, j) c1^j c0^(n - j)
        exact[count * k0 + j * (k1 - k0)] = term
        term = term * (count - j) * c1 // ((j + 1) * c0)
    return exact, (c0 + c1) ** count


def _assert_exact_law(law, exact, total):
    """Every index of ``exact`` (integer masses over ``total``) and of every
    positive computed mass is within err_abs of its exact mass, and all of
    them together within err_l1, compared in integers."""
    ks, w = law.atoms()
    got = dict(zip(ks.tolist(), w.tolist()))
    ratios = {k: float(got.get(k, 0.0)).as_integer_ratio() for k in got.keys() | exact.keys()}
    den = max(d for _, d in ratios.values())  # every denominator divides the largest
    en, ed = law.err_abs.as_integer_ratio()
    ln, ld = law.err_l1.as_integer_ratio()
    l1 = 0
    for k, (num, d) in ratios.items():
        diff = abs(num * (den // d) * total - exact.get(k, 0) * den)  # |p - c/total| den total
        assert diff * ed <= en * den * total, k
        l1 += diff
    assert l1 * ld <= ln * den * total


class TestBinomial:
    """Powers of two-atom laws by the ratio recurrence from the mode, against
    exact integer laws: every index within err_abs and the whole law within
    err_l1."""

    @staticmethod
    def _two_atom_laws(rng):
        """Two-atom laws at t near 0, 1 and 1/2 and at random, with the atoms
        1-3 apart, offsets and spans off 0 and 1, and now and then a massless
        listed atom before, between or after them; at t = 1e-310 and 5e-324
        the ratio w1 / w0 is subnormal."""
        ts = [0.5, 0.3, 1e-300, 1e-310, 5e-324, 2.0**-53, 1.0 - 2.0**-53]
        ts += rng.random(5).tolist()
        ts += (10.0 ** -rng.uniform(1.0, 300.0, 3)).tolist()
        for t in ts:
            gap, k0 = int(rng.integers(1, 4)), int(rng.integers(-3, 4))
            probs = {k0: 1.0 - t, k0 + gap: t}
            if rng.random() < 0.5:
                probs[k0 + int(rng.choice([-1, gap + 1] + ([1] if gap > 1 else [])))] = 0.0
            yield LatticePmf(float(rng.choice([0.0, -1.25, 3.5])),
                             float(rng.choice([0.5, 1.0, 2.0])), probs)

    @pytest.mark.parametrize("count", [2, 3, 7, 40, 300])
    def test_against_exact_binomials(self, count):
        for law in self._two_atom_laws(np.random.default_rng(count)):
            _assert_exact_law(iid_sum(law, count), *_binomial_fold(law, count))

    @pytest.mark.parametrize("count", [2, 7, 64, 300, 1000])
    def test_reduced_support_against_exact_binomials(self, monkeypatch, count):
        # gapped and massless-listed two-atom laws are raised on {0, 1} and
        # spread at the stride g of their atoms: every index within err_abs
        # of the exact binomial at stride g, and all of them within err_l1
        seen = []
        binomial = convolve._binomial

        def spy(pos, n, a, b):
            seen.append([k for k, _ in pos])
            return binomial(pos, n, a, b)

        monkeypatch.setattr(convolve, "_binomial", spy)
        for law in (LatticePmf(0.0, 1.0, {0: 0.3, 3: 0.7}), LatticePmf(0.0, 1.0, {1: 0.2, 6: 0.8}),
                    LatticePmf(0.0, 1.0, {0: 0.5, 2: 0.5}),
                    LatticePmf(0.0, 1.0, {0: 0.0, 2: 0.4, 3: 0.6, 7: 0.0})):
            _assert_exact_law(iid_sum(law, count), *_binomial_fold(law, count))
        assert seen == [[0, 1]] * 4

    @pytest.mark.parametrize("seed", range(3))
    def test_folded_with_other_parts(self, seed):
        # binomials on spans D and 2D folded with a three-atom power and
        # count-1 parts, against one-summand-at-a-time integer folds
        rng = np.random.default_rng(900 + seed)
        for law in self._two_atom_laws(rng):
            coarse = LatticePmf(law.v0 + 0.5, 2.0 * law.D, dict(law.probs))
            three = make_pmf(-law.v0, law.D, [(0, 0.2), (1, 0.5), (3, 0.3)])
            parts = [(law, int(rng.integers(2, 13))), (three, int(rng.integers(2, 5))),
                     (coarse, int(rng.integers(2, 9))), (law, 1)]
            _assert_exact_law(sum_law(parts), *_exact_fold(parts))

    def test_numpy_sums_as_the_bound_models(self):
        # the normalization's bound takes numpy's pairwise summation: a
        # Python copy of it gives the same doubles as ndarray.sum, and no term
        # passes through more roundings than _pairwise_adds allows; atoms 2
        # or 3 apart are summed as a view at that stride, which numpy must
        # not cut into blocks
        def pairwise(x):  # (sum, most roundings of any term)
            n = len(x)
            if n < 8:
                total = 0.0
                for v in x:
                    total += v
                return total, max(n - 1, 0)
            if n <= 128:
                r = list(x[:8])
                for i in range(8, n - n % 8, 8):
                    r = [a + b for a, b in zip(r, x[i:i + 8])]
                total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
                for v in x[n - n % 8:]:
                    total += v
                return total, n // 8 + 2 + n % 8
            half = n // 2 - n // 2 % 8
            (s1, d1), (s2, d2) = pairwise(x[:half]), pairwise(x[half:])
            return s1 + s2, 1 + max(d1, d2)

        rng = np.random.default_rng(3)
        for stride in (1, 2, 3):
            for size in (1, 5, 8, 77, 128, 129, 1000, 4099, 8193, 70001):
                x = (rng.random(stride * size) ** 8)[::stride]
                total, adds = pairwise(x.tolist())
                assert x.sum() == total, (stride, size)
                assert adds <= convolve._pairwise_adds(size), size

    def test_coin_does_not_read_the_extended_type(self, monkeypatch):
        # the coin at n = 1e8 has the same bits, err_abs and err_l1 where long
        # double is double, and err_l1 stays far below the transform's 3.4e-10
        coin = make_pmf(0.0, 1.0, [(0, 1), (1, 1)])
        law = iid_sum(coin, 10**8)
        monkeypatch.setattr(np, "longdouble", np.float64)
        monkeypatch.setattr(convolve, "_power", None)  # never reached
        again = iid_sum(coin, 10**8)
        assert hashlib.sha1(law.probs.tobytes()).digest() == \
            hashlib.sha1(again.probs.tobytes()).digest()
        assert (law.first, law.err_abs, law.err_l1) == (again.first, again.err_abs, again.err_l1)
        assert law.err_l1 < 1e-10 and law.err_abs < 1e-15


def _kronecker_power(pos, count):
    """The exact power of the masses ``pos`` (index, mass) on ``[0, span]``,
    as stored and as scaled to total one: integers ``c_i``, ``x_i = c_i /
    S`` and ``p_i = c_i / T`` at the index i of ``[0, count span]``.  One
    Python-int power of the masses, each an integer over their common
    power-of-two denominator, packed at a stride of whole bytes that no
    coefficient fills (Kronecker substitution: every coefficient is at most
    ``T``, their sum).  Returns (c, S, T)."""
    fracs = [(k, Fraction(w)) for k, w in pos]
    scale = math.lcm(*(f.denominator for _, f in fracs))
    dense = [0] * (pos[-1][0] + 1)
    for k, f in fracs:
        dense[k] = int(f * scale)
    total = sum(dense) ** count
    width = total.bit_length() // 8 + 1  # bytes per coefficient
    packed = int.from_bytes(b"".join(c.to_bytes(width, "little") for c in dense), "little")
    size = count * (len(dense) - 1) + 1
    data = (packed**count).to_bytes(width * size, "little")
    return ([int.from_bytes(data[i * width:(i + 1) * width], "little") for i in range(size)],
            scale**count, total)


def _direct_laws(rng, short=False):
    """Laws of 3-5 positive atoms: random masses off v0 = 0 on spans 2-6, a
    gapped law, a heavy atom among light ones and the near-periodic law;
    with ``short``, the random laws alone, their masses multiples of 1/64
    (which keeps their exact powers short at counts up to the direct
    width)."""
    laws = []
    for size in (3, 4, 5, 3, 5):
        span = int(rng.integers(size - 1, 7))
        ks = sorted([0, span] + rng.choice(np.arange(1, span), size - 2, replace=False).tolist())
        w = 1 + rng.multinomial(64 - size, [1 / size] * size) if short else rng.random(size) + 1e-3
        laws.append(make_pmf(float(rng.choice([-1.25, 3.5])), 1.0, list(zip(ks, w.tolist()))))
    if short:
        return laws
    w = rng.random(4) + 1e-3
    w[int(rng.integers(4))] *= 1e3
    return laws + [make_pmf(0.0, 1.0, list(zip([0, 3, 4, 9], (rng.random(4) + 1e-3).tolist()))),
                   make_pmf(0.0, 1.0, list(zip([0, 1, 2, 4], w.tolist()))),
                   LatticePmf(0.0, 1.0, {0: 0.5 - 5e-7, 1: 1e-6, 2: 0.5 - 5e-7})]


def _reduced(law):
    """The first listed index of ``law``, the gcd g of its positive atoms'
    offsets from the first of them, that first offset, and the positive
    atoms on the reduced support: ``(k0, g, k1, pos)`` as sum_law takes a
    law of three or more atoms."""
    items = sorted(law.probs.items())
    k0 = items[0][0]
    pos = [(k - k0, w) for k, w in items if w > 0]
    k1 = pos[0][0]
    g = math.gcd(*(k - k1 for k, _ in pos))
    return k0, g, k1, [((k - k1) // g, w) for k, w in pos]


class TestDirectPower:
    """Powers of three or more atoms up to the direct width, by direct
    products, against exact integer powers: every entry within its relative
    bound, the law within err_abs at every index and err_l1 in all."""

    @staticmethod
    def _assert_exact(law, count):
        k0, g, k1, pos = _reduced(law)
        span = pos[-1][0]
        assert count * span + 1 <= convolve._DIRECT_WIDTH
        masses, stored, total = _kronecker_power(pos, count)
        x, r, slack = convolve._direct_power(pos, span, count)
        # |x^_i - x_i| <= r x_i + s_i with sum_i s_i <= slack, in rationals
        r, excess = Fraction(r), Fraction(0)
        for p, c in zip(x.tolist(), masses, strict=True):
            exact = Fraction(c, stored)
            excess += max(abs(Fraction(p) - exact) - r * exact, 0)
        assert excess <= Fraction(slack)
        first = count * (k0 + k1)
        _assert_exact_law(iid_sum(law, count),
                          {first + g * i: c for i, c in enumerate(masses)}, total)

    @pytest.mark.parametrize("count", [2, 3, 7, 40])
    def test_against_exact_powers(self, count):
        for law in _direct_laws(np.random.default_rng(count)):
            self._assert_exact(law, count)

    def test_periodic_and_near_periodic_laws_at_128(self):
        # {0, 2, 4} is powered on its reduced support {0, 1, 2}
        self._assert_exact(make_pmf(0.0, 1.0, [(0, 0.25), (2, 0.5), (4, 0.25)]), 128)
        self._assert_exact(LatticePmf(0.0, 1.0, {0: 0.5 - 5e-7, 1: 1e-6, 2: 0.5 - 5e-7}), 128)

    @pytest.mark.parametrize("seed", range(2))
    def test_short_masses_up_to_the_direct_width(self, seed):
        # the largest count each law is raised to by direct products
        for law in _direct_laws(np.random.default_rng(60 + seed), short=True):
            span = _reduced(law)[3][-1][0]
            self._assert_exact(law, (convolve._DIRECT_WIDTH - 1) // span)

    @pytest.mark.parametrize("count", [2, 3, 7, 40, 341])
    def test_bound_is_the_recurrence_of_step_8(self, count):
        # r <- (1 + r_a)(1 + r_b)(1 + gamma_m) - 1 per product, m the shorter
        # factor's length, and slack = n (P 2^-1073 + F 2^-510) over the P
        # products made and the F entries tested, in rationals: the computed
        # bound covers it, up to its own rounding up
        u = Fraction(2) ** -53
        r, size, products, tested = Fraction(0), 4, 0, 0
        for bit in bin(count)[3:]:
            r = (1 + r) ** 2 * (1 + size * u / (1 - size * u)) - 1
            products, size = products + size * size, 2 * size - 1
            if bit == "1":
                r = (1 + r) * (1 + 4 * u / (1 - 4 * u)) - 1
                products, size = products + 4 * size, size + 3
            tested += size
        _, got, slack = convolve._direct_power([(0, 0.5), (1, 0.25), (3, 0.25)], 3, count)
        assert r <= Fraction(got) <= r * (1 + Fraction(1, 2**40))
        assert slack == count * (products * 2.0**-1073 + tested * 2.0**-510)

    @pytest.mark.parametrize("seed", range(3))
    def test_agrees_with_the_transform_at_the_direct_width(self, seed):
        # both powers of the largest direct count on the whole support lie
        # within their bounds of the exact one, so within their sum of each other
        for law in _direct_laws(np.random.default_rng(80 + seed)):
            pos = _reduced(law)[3]
            span = pos[-1][0]
            count = (convolve._DIRECT_WIDTH - 1) // span
            x, xb = convolve._direct_bounds(*convolve._direct_power(pos, span, count))
            y, yb = _power(pos, span, count, 0, count * span)
            diff = np.abs(x - y)
            assert diff.max() <= xb.einf + yb.einf
            assert math.fsum(diff.tolist()) <= (xb.e1 + yb.e1) * (1.0 - 1e-12)


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
        # {3: 1.0} has no mass at 0: a point mass is its shift alone, so the
        # sum keeps the bits and bounds of the same sum without it, 3 further on
        point = LatticePmf(0.0, 1.0, {3: 1.0})
        parts = _partition_model_parts(1, 20)
        law = self._assert_fresh_array_bits(parts[:10] + [(point, 1)] + parts[10:])
        bare = sum_law(parts)
        assert law.first == bare.first + 3 == 3
        assert np.array_equal(law.probs, bare.probs)
        assert (law.err_abs, law.err_l1) == (bare.err_abs, bare.err_l1)

    def test_count_one_bounds_are_the_measured_norms(self, monkeypatch):
        # every count-1 part of two or more positive atoms, a two-atom part
        # {0: a, j: b} built from its two floats included, enters the bound
        # chain with the norms _measured gives for its positive masses, to
        # the bit, also where a drift of one of them would be hidden by a
        # min() further down the chain; a point mass ({3: 1.0}, Bernoulli
        # levels of 1.0) is a shift and enters no fold
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
        masses = [[w for _, w in sorted(law.probs.items()) if w > 0] for law in laws]
        expected = [_measured(np.array(w)) for w in masses if len(w) > 1]
        assert len(expected) < len(laws) and seen == expected

    def test_two_powered_parts_match_the_sequential_reference(self):
        parts = [(self._P, 300), (self._Q, 300)]
        first, ref = _sequential_reference(parts)
        law = sum_law(parts)
        _assert_near(law, first, ref)


class TestPointMass:
    """A part of one positive atom is a shift: its scaled law is exactly 1.0,
    so it is neither transformed nor folded, and enters no bound."""

    @staticmethod
    def _calls(monkeypatch):
        calls = []
        for module, name in ((np.fft, "rfft"), (np.fft, "irfft"), (np, "convolve")):
            def spy(*args, _name=name, _f=getattr(module, name), **kwargs):
                calls.append(_name)
                return _f(*args, **kwargs)

            monkeypatch.setattr(module, name, spy)
        return calls

    def test_massless_listed_point_mass_is_exact(self, monkeypatch):
        calls = self._calls(monkeypatch)
        law = sum_law([(LatticePmf(0.0, 1.0, {0: 0.0, 3: 1.0}), 5)])
        assert law.probs.tolist() == [1.0] and law.first == 15
        assert calls == [] and law.err_abs <= 4.0 * convolve._U

    @pytest.mark.parametrize("count", [1, 2, 3, 7, 64, 1000, 10**5])
    def test_bernoulli_one_is_exact(self, monkeypatch, count):
        calls = self._calls(monkeypatch)
        law = sum_law([(bernoulli(1.0), count)])
        assert law.probs.tolist() == [1.0] and law.first == count
        assert calls == [] and law.err_abs <= 4.0 * convolve._U

    @pytest.mark.parametrize("seed", range(6))
    def test_point_masses_keep_the_bits_of_the_sum_without_them(self, seed):
        # point masses on the parts' own spans, some listing massless atoms,
        # at any count and place: the same masses and bounds, moved by
        # their shift count s k
        rng = np.random.default_rng(500 + seed)
        parts = _random_parts(rng)
        bare = sum_law(parts)
        shift, mixed = 0, list(parts)
        for _ in range(int(rng.integers(1, 4))):
            span = mixed[int(rng.integers(len(mixed)))][0].D
            k, count = int(rng.integers(-5, 6)), int(rng.choice([1, 2, 7, 10**5]))
            probs = {k - 2: 0.0, k: 1.0} if rng.random() < 0.5 else {k: 1.0}
            mixed.insert(int(rng.integers(len(mixed) + 1)),
                         (LatticePmf(float(rng.choice([0.0, 0.5])), span, probs), count))
            shift += count * round(span / bare.D) * k
        law = sum_law(mixed)
        assert np.array_equal(law.probs, bare.probs)
        assert (law.first, law.D) == (bare.first + shift, bare.D)
        assert (law.err_abs, law.err_l1) == (bare.err_abs, bare.err_l1)

    def test_power_sees_three_or_more_atoms(self, monkeypatch):
        # point masses are shifts and two-atom powers binomials, at every
        # count, so the transform only raises laws of three or more atoms
        seen = []
        power = convolve._power

        def spy(pos, span, count, a, b):
            seen.append(len(pos))
            return power(pos, span, count, a, b)

        monkeypatch.setattr(convolve, "_power", spy)
        three = make_pmf(0.0, 1.0, [(0, 0.7), (1, 0.2), (3, 0.1)])
        for count in (2, 7, 64, 1000, 10**5):
            sum_law([(bernoulli(1.0), count), (LatticePmf(0.0, 1.0, {0: 0.0, 3: 1.0}), count),
                     (LatticePmf(0.0, 1.0, {0: 0.3, 3: 0.7}), count),
                     (LatticePmf(0.0, 1.0, {0: 0.0, 2: 0.4, 3: 0.6, 7: 0.0}), count),
                     (three, min(count, 3000))])
        for seed in range(8):
            sum_law(_random_parts(np.random.default_rng(seed)))
        for law in _accuracy_laws(np.random.default_rng(0)):
            for count in (2, 700):
                iid_sum(law, count)
        assert seen and min(seen) >= 3


_ERR_ABS_PINS = {  # parts, and the err_abs, window's first index and sha1 of its masses
    "121-n300": (lambda: [(make_pmf(0.0, 1.0, [(0, 1), (1, 2), (2, 1)]), 300)],
                 "0x1.d9265e40d06d4p-46", 208, "7e641134235fe824efcf5f58b38dd88ec99e25ed"),
    "121-n2e4": (lambda: [(make_pmf(0.0, 1.0, [(0, 1), (1, 2), (2, 1)]), 20000)],
                 "0x1.d51d3cd885da0p-50", 19234, "552e7cebfd68c1c3716e076e281fcdccbb4ce650"),
    "73-n2": (lambda: [(make_pmf(0.0, 1.0, [(0, 0.7), (1, 0.3)]), 2)],
              "0x1.470a3d70a5206p-50", 0, "34ca8b6b61c96f70ea331ab224349001789bc62d"),
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
                    "0x1.5adae592219d3p-50", 0, "b2a92ff365eb1a02dd1a0256e5839995555118b5"),
}


@pytest.mark.parametrize("case", _ERR_ABS_PINS)
def test_err_abs_is_pinned(case):
    # the bound chain (powers by direct products on their whole support,
    # 121 at n = 300 and the span-3 law of mixed-spans, or by a transform on
    # their window, 121 at 2e4, with their tail drop, binomials of
    # two-atom laws, 73 at n = 2 and the span-2 coin of mixed-spans, two-atom
    # and general count-1 folds, spans 2 and 3 on lattice 1) gives the same
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
        # windows, the exact mass outside counted in the distance
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

    def test_kolmogorov_bound_reads_the_atoms_once(self, monkeypatch):
        # the distance, the rounding terms and the reach share one read of
        # the window
        parts = [(bernoulli(0.3), 600)]
        law = sum_law(parts)
        mean, var = exact_moments(parts)
        want = kolmogorov_bound(law, mean, var)
        reads, atoms = [], convolve.SumLaw.atoms
        monkeypatch.setattr(convolve.SumLaw, "atoms", lambda self: reads.append(1) or atoms(self))
        assert kolmogorov_bound(law, mean, var) == want
        assert len(reads) == 1


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


def test_tail_ends_are_those_of_the_fraction_quotients():
    # the tail's ends from integer floor and ceil on the inputs' integer
    # ratios are the ends that math.ceil and math.floor of the Fraction
    # quotients give, for float, int and Fraction centres and radii of both
    # signs, on laws off the unit lattice
    from .test_bounds import _fraction_tail

    rng = np.random.default_rng(56)
    for _ in range(60):
        v0, d = [0.0, -1.5, 3.0][int(rng.integers(3))], [0.5, 1.0, 2.0][int(rng.integers(3))]
        size = int(rng.integers(2, 6))
        ks = sorted(int(k) for k in rng.choice(7, size=size, replace=False))
        law = sum_law([(make_pmf(v0, d, list(zip(ks, (rng.random(size) + 1e-3).tolist()))),
                        int(rng.integers(1, 40)))])
        lo, hi = law.v0 + law.D * law.first, law.v0 + law.D * (law.first + len(law.probs))
        for _ in range(20):
            c = float(rng.uniform(lo - 2.0, hi + 2.0))
            r = float(rng.uniform(-1.0, 0.6 * (hi - lo)))
            on = law.v0 + law.D * (law.first + int(rng.integers(len(law.probs))))
            for center, radius in ((c, r), (Fraction(c) / 3, Fraction(r) * 7 / 5),
                                   (on, law.D * int(rng.integers(4))), (round(c), abs(round(r)))):
                assert (law.two_sided_tail_bound(center, radius)
                        == _fraction_tail(law, center, radius)), (center, radius)


def test_moment_ratios_are_the_exact_moments():
    # the integer pairs the request path reads are the fractions of
    # exact_moments, and each quotient is the double of float(Fraction)
    rng = np.random.default_rng(56)
    for _ in range(100):
        d = [0.5, 1.0, 2.0][int(rng.integers(3))]
        parts = []
        for _ in range(int(rng.integers(1, 4))):
            size = int(rng.integers(2, 6))
            ks = sorted(int(k) for k in rng.choice(9, size=size, replace=False))
            law = make_pmf([0.0, -1.5, 3.0][int(rng.integers(3))], d,
                           list(zip(ks, (rng.random(size) + 1e-3).tolist())))
            parts.append((law, int(rng.integers(1, 10**4))))
        pairs = convolve._moment_ratios(parts)
        exact = exact_moments(parts)
        for (num, den), x in zip(pairs, exact):
            assert den > 0 and Fraction(num, den) == x and num / den == float(x)


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


def test_exact_moments_are_the_sums_of_the_parts_fractions():
    # numerators summed over the parts' denominators and reduced once give
    # the fractions of the per-part sum, on 1-4 parts with a shared span
    rng = np.random.default_rng(52)
    for _ in range(200):
        d = [1.0, 0.5, 3e-3][int(rng.integers(3))]
        parts = []
        for _ in range(int(rng.integers(1, 5))):
            size = int(rng.integers(1, 6))
            ks = sorted(int(k) for k in rng.choice(12, size=size, replace=False))
            law = make_pmf([0.0, -1.5, 3.25][int(rng.integers(3))], d,
                           list(zip(ks, (rng.random(size) + 1e-3).tolist())))
            parts.append((law, int(rng.integers(1, 10**6 + 1))))
        mean, var = Fraction(0), Fraction(0)
        for law, count in parts:
            w = {k: Fraction(x) for k, x in law.probs.items()}
            pts = {k: Fraction(law.v0) + Fraction(law.D) * k for k in w}
            m = sum(pts[k] * x for k, x in w.items()) / sum(w.values())
            mean += count * m
            var += count * sum((pts[k] - m) ** 2 * x for k, x in w.items()) / sum(w.values())
        got = exact_moments(parts)
        assert got == (mean, var) and all(type(x) is Fraction for x in got), parts


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
