"""Random walks in random scenery: moments, covariance structure, envelope."""

from __future__ import annotations

import math
import sys
from collections import Counter, namedtuple
from dataclasses import replace
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from lltkit import (
    LatticeError,
    NumericsError,
    PreconditionError,
    SceneryModel,
    exact_plug_ins,
    make_pmf,
    monte_carlo_point_prob,
    prepare_sum,
    sandwich_envelope,
    scenery_envelope,
    scenery_from_json,
    second_moment_check,
    split,
    sum_law,
    theta,
)
from lltkit import checks, convolve, scenery
from lltkit.checks import (beta_functional, c_hk, iid_sum, theta_n_scenery,
                           y_covariance_factorization)
from lltkit.lattice import LatticePmf


def bern():
    return make_pmf(0.0, 1.0, [(0, 1), (1, 1)])


def inc_ones():
    return make_pmf(0.0, 1.0, [(1, 1)])


def inc_12():
    return make_pmf(0.0, 1.0, [(1, 1), (2, 1)])


def inc_pm1():
    return make_pmf(0.0, 1.0, [(-1, 1), (1, 1)])


def lazy_inc(p0):
    return make_pmf(0.0, 1.0, [(0, p0), (1, (1 - p0) / 2), (2, (1 - p0) / 2)])


def iter_paths(model):
    """Test-local path enumeration, independent of the library internals."""
    steps = sorted(model.increment_law.probs.items())

    def rec(depth, pos, prob, sites):
        if depth == model.n:
            yield tuple(sites), prob
            return
        for s, p in steps:
            yield from rec(depth + 1, pos + s, prob * p, sites + [pos + s])

    yield from rec(0, 0, 1.0, [])


def site_outcomes(model, r):
    """(x value, xi value, eps, prob) atoms at a site, built from the split."""
    x = model.x_law
    sp = split(x, model.vartheta_at(r))
    outs = []
    for (k, e), p in sorted(sp.joint.items()):
        base = x.v0 + x.D * k
        for coin in (0, 1):
            outs.append((base + e * x.D * coin, base + e * x.D / 2.0, e, p * 0.5))
    return outs


def enumerate_sum_law(model):
    """Exhaustive law of S_n over paths x site outcomes (test-local oracle)."""
    dist: dict[float, float] = {}
    for sites, pp in iter_paths(model):
        distinct = sorted(set(sites))
        outs = [site_outcomes(model, r) for r in distinct]
        for combo in product(*outs):
            w = pp
            at = dict(zip(distinct, combo))
            for r in distinct:
                w *= at[r][3]
            tot = sum(at[r][0] for r in sites)
            dist[tot] = dist.get(tot, 0.0) + w
    return dist


class TestModelValidation:
    def test_requires_positive_increments(self):
        # the model admits +-1 and lazy walks; each oracle that needs positive
        # increments refuses them, Monte Carlo only the negative steps
        pm1 = SceneryModel(bern(), inc_pm1(), 3, 0.5)
        lazy = SceneryModel(bern(), lazy_inc(0.3), 3, 0.5)
        for m in (pm1, lazy):
            with pytest.raises(PreconditionError, match="strictly positive increments"):
                scenery_envelope(m, 0.25, 1.0)
            with pytest.raises(PreconditionError, match="strictly positive increments"):
                y_covariance_factorization(m, 1, 2, (0.0, 1.0), (0.0, 1.0))
        with pytest.raises(PreconditionError, match="increments >= 0"):
            monte_carlo_point_prob(pm1, 1.0, samples=1000, seed=1)
        assert monte_carlo_point_prob(lazy, 1.0, samples=1000, seed=1).samples == 1000

    def test_revisit_flag_admits_them(self):
        m = SceneryModel(bern(), inc_pm1(), 3, {r: 0.4 for r in range(-4, 5)})
        assert m.n == 3

    def test_increments_must_be_integer_lattice(self):
        with pytest.raises(LatticeError):
            SceneryModel(bern(), make_pmf(0.0, 0.5, [(2, 1)]), 2, 0.5)

    def test_profile_range_checked(self):
        with pytest.raises(PreconditionError):
            SceneryModel(bern(), inc_ones(), 2, 0.9)

    def test_profile_map_coverage_checked(self):
        m = SceneryModel(bern(), inc_ones(), 3, {1: 0.5, 2: 0.5})
        with pytest.raises(LatticeError):
            theta_n_scenery(m)

    @pytest.mark.parametrize("field, value, match", [
        ("n", 3.7, "n must be an integer, got 3.7"),
        ("n", True, "n must be an integer, got True"),
        ("vartheta", [[1, 0.5], [1.9, 0.5]], "profile site must be an integer, got 1.9"),
    ])
    def test_json_integers_must_be_integral(self, field, value, match):
        # refused, not truncated (n = 3.7 to 3, site 1.9 to 1)
        obj = {**SceneryModel(bern(), inc_ones(), 2, 0.5).to_json_dict(), field: value}
        with pytest.raises(LatticeError, match=match):
            scenery_from_json(obj)
        assert scenery_from_json({**obj, field: 2.0 if field == "n" else [[1.0, 0.5]]})

    @pytest.mark.parametrize("n", [2.5, True, "3"])
    def test_n_must_be_an_integer(self, n):
        # read as the JSON reader reads it, so no n reaches the oracles as 2.5 or True
        with pytest.raises(LatticeError, match=f"n must be an integer, got {n!r}"):
            SceneryModel(bern(), inc_ones(), n, 0.5)
        m = SceneryModel(bern(), inc_ones(), 2.0, 0.5)
        assert type(m.n) is int and second_moment_check(m).theta_n == 1.0

    @pytest.mark.parametrize("dtype", [np.int64, np.uint8])
    def test_numpy_integer_n_and_sites(self, dtype):
        m = SceneryModel(bern(), inc_12(), dtype(4), {dtype(r): 0.25 for r in range(1, 9)})
        assert m == SceneryModel(bern(), inc_12(), 4, {r: 0.25 for r in range(1, 9)})
        assert type(m.n) is int and second_moment_check(m).theta_n == 1.0

    def test_json_round_trip(self):
        m = SceneryModel(bern(), inc_12(), 4, {r: 0.25 for r in range(1, 9)})
        m2 = scenery_from_json(m.to_json_dict())
        assert m2.n == 4 and m2.vartheta_at(3) == 0.25
        m3 = scenery_from_json(SceneryModel(bern(), inc_12(), 4, 0.5).to_json_dict())
        assert m3.constant_profile


class TestThetaN:
    def test_constant_profile(self):
        assert theta_n_scenery(SceneryModel(bern(), inc_12(), 10, 0.5)) == 5.0

    def test_harmonic_profile_on_line(self):
        m = SceneryModel(bern(), inc_ones(), 3, {1: 0.5, 2: 0.25, 3: 1 / 6})
        assert theta_n_scenery(m) == pytest.approx(0.5 + 0.25 + 1 / 6, abs=1e-14)

    def test_zero_steps(self):
        assert theta_n_scenery(SceneryModel(bern(), inc_12(), 0, 0.5)) == 0.0


class TestCHK:
    def test_positive_increments_vanish(self):
        m = SceneryModel(bern(), inc_12(), 5, 0.5)
        for h in range(1, 6):
            for k in range(1, 6):
                if h != k:
                    assert c_hk(m, h, k) == 0.0

    def test_pm1_against_path_enumeration(self):
        prof = {r: 0.1 + 0.05 * ((r % 3) + 1) for r in range(-6, 7)}
        m = SceneryModel(bern(), inc_pm1(), 4, prof)
        h, k = 1, 3
        # oracle: c_{h,k} = sum_r vartheta_r P{U_h = r, U_k = r} over all paths
        acc = 0.0
        for sites, pp in iter_paths(m):
            if sites[h - 1] == sites[k - 1]:
                acc += m.vartheta_at(sites[h - 1]) * pp
        assert c_hk(m, h, k) == pytest.approx(acc, abs=1e-14)

    def test_pm1_correction_fixes_second_moments(self):
        # direct check that c_{h,k} carries exactly the shortfall of the
        # positive-increment identity on a revisiting walk
        th = 0.4
        m = SceneryModel(bern(), inc_pm1(), 3, {r: th for r in range(-5, 6)})
        mom = second_moment_check(m)
        gap = mom.es2 - mom.es2_prime - 0.25 * mom.theta_n
        assert gap == pytest.approx(0.25 * mom.c_sum, abs=1e-13)

    def test_constant_profile_scalar_factor(self):
        th = 0.4
        m = SceneryModel(bern(), inc_pm1(), 4, {r: th for r in range(-6, 7)})
        sigma_2 = 0.5  # P{Y + Y' = 0} for two independent +-1 steps
        assert c_hk(m, 1, 3) == pytest.approx(sigma_2 * th, abs=1e-14)

    def test_equal_indices_rejected(self):
        with pytest.raises(LatticeError):
            c_hk(SceneryModel(bern(), inc_12(), 3, 0.5), 2, 2)


class TestEpsilonComposition:
    """The Bernoulli flag seen through the walk keeps a Bernoulli law."""

    def _model(self):
        prof = {r: 0.1 + 0.05 * ((r % 3) + 1) for r in range(-6, 8)}
        return SceneryModel(bern(), inc_pm1(), 4, prof)

    @staticmethod
    def _eps_mass(model, r):
        sp = split(model.x_law, model.vartheta_at(r))
        return sum(p for (_, e), p in sp.joint.items() if e == 1)

    def test_marginal_is_mean_profile(self):
        m = self._model()
        for k in (1, 2, 3, 4):
            law = m.u_law(k)
            oracle = sum(self._eps_mass(m, r) * pp for sites, pp in iter_paths(m)
                         for r in [sites[k - 1]])
            ks, w = law.atoms()
            expected = math.fsum(m.vartheta_at(r) * p for r, p in zip(ks.tolist(), w.tolist()))
            assert oracle == pytest.approx(expected, abs=1e-14)

    def test_pairwise_with_revisit_correction(self):
        m = self._model()
        h, k = 1, 3
        joint = 0.0
        e_tt = 0.0
        coincide = {}
        for sites, pp in iter_paths(m):
            rh, rk = sites[h - 1], sites[k - 1]
            if rh == rk:
                joint += pp * self._eps_mass(m, rh)
                coincide[rh] = coincide.get(rh, 0.0) + pp
            else:
                joint += pp * self._eps_mass(m, rh) * self._eps_mass(m, rk)
            e_tt += pp * m.vartheta_at(rh) * m.vartheta_at(rk)
        correction = sum(
            (m.vartheta_at(r) - m.vartheta_at(r) ** 2) * p for r, p in coincide.items()
        )
        assert joint == pytest.approx(e_tt + correction, abs=1e-14)


class TestSecondMomentCheck:
    def test_line_walk_n3(self):
        mom = second_moment_check(SceneryModel(bern(), inc_ones(), 3, 0.5))
        assert abs(mom.identity_residual) < 1e-12
        assert mom.theta_n == 1.5

    def test_single_step_variance_identity(self):
        mom = second_moment_check(SceneryModel(bern(), inc_ones(), 1, 0.5))
        assert mom.es2 == pytest.approx(mom.es2_prime + 0.25 * 0.5, abs=1e-14)

    def test_two_step_increments_n4(self):
        mom = second_moment_check(SceneryModel(bern(), inc_12(), 4, 0.5))
        assert abs(mom.identity_residual) < 1e-12

    def test_nonconstant_profile_n4(self):
        prof = {r: 0.5 / (1 + 0.3 * r) for r in range(1, 9)}
        mom = second_moment_check(SceneryModel(bern(), inc_12(), 4, prof))
        assert abs(mom.identity_residual) < 1e-10

    def test_revisit_model_needs_c_correction(self):
        prof = {r: 0.4 for r in range(-5, 6)}
        m = SceneryModel(bern(), inc_pm1(), 3, prof)
        mom = second_moment_check(m)
        assert abs(mom.identity_residual) < 1e-12
        assert mom.c_sum > 1e-6

    def test_mean_preserved(self):
        mom = second_moment_check(SceneryModel(bern(), inc_12(), 4, 0.5))
        assert mom.es == pytest.approx(mom.es_prime, abs=1e-13)

    def test_too_large_rejected(self):
        # 2^19 paths x 19 steps is above the 5e6 budget; so is any huge n
        with pytest.raises(LatticeError, match="2\\^19 increment paths exceeds the budget"):
            second_moment_check(SceneryModel(bern(), inc_12(), 19, 0.5))
        with pytest.raises(LatticeError, match="budget"):
            second_moment_check(SceneryModel(bern(), inc_ones(), 10**9, 0.5))
        # one step law: the n (n - 1) pairs of c_sum set the limit
        with pytest.raises(LatticeError, match="budget"):
            second_moment_check(SceneryModel(bern(), inc_ones(), 2300, 0.5))
        mom = second_moment_check(SceneryModel(bern(), inc_ones(), 2000, 0.5))
        assert mom.es2 == pytest.approx(mom.es2_prime + 0.25 * 1000, rel=1e-12)

    def test_budget_does_not_depend_on_level(self, monkeypatch):
        # uniform 6-point scenery: 7 (V, eps) atoms at theta_X but 11 below
        # it; the work is 2^4 paths x 4 steps plus 4 x 3 pairs = 76 units at
        # either level
        uni6 = make_pmf(0.0, 1.0, [(k, 1) for k in range(6)])
        for level in (theta(uni6), theta(uni6) / 2):
            m = SceneryModel(uni6, inc_12(), 4, level)
            monkeypatch.setattr(scenery, "_ENUM_BUDGET", 76)
            assert abs(second_moment_check(m).identity_residual) < 1e-12
            monkeypatch.setattr(scenery, "_ENUM_BUDGET", 75)
            with pytest.raises(LatticeError, match="budget of 75 units"):
                second_moment_check(m)

    def test_lazy_walk_n16(self):
        m = SceneryModel(bern(), make_pmf(0.0, 1.0, [(0, 0.3), (1, 0.7)]), 16, 0.5)
        mom = second_moment_check(m)
        assert mom.c_sum > 0
        assert abs(mom.identity_residual) <= 1e-12 * mom.es2


Atom = namedtuple("Atom", "x_val xi_val prob")


def reference_moments(model):
    """The product-space enumeration the path oracle replaced, kept as its
    reference: every increment path times every (V, eps, L) outcome at each
    distinct site the path visits."""

    def atoms_at(r):
        return [Atom(x, xi, p) for x, xi, _, p in site_outcomes(model, r)]

    es = es2 = esp = esp2 = 0.0
    for sites, pp in iter_paths(model):
        mult = Counter(sites)
        distinct = sorted(mult)
        for combo in product(*[atoms_at(r) for r in distinct]):
            w = pp
            s = 0.0
            s_prime = 0.0
            for r, a in zip(distinct, combo):
                w *= a.prob
                s += mult[r] * a.x_val
                s_prime += mult[r] * a.xi_val
            es += w * s
            es2 += w * s * s
            esp += w * s_prime
            esp2 += w * s_prime * s_prime
    return es, esp, es2, esp2


def uni3():
    return make_pmf(0.0, 1.0, [(0, 1), (1, 1), (2, 1)])


def skew3():
    return make_pmf(0.0, 1.0, [(0, 5), (1, 3), (2, 2)])


REFERENCE_MODELS = {
    "unit-coin-constant": lambda: SceneryModel(bern(), inc_ones(), 5, 0.5),
    "12-coin-map": lambda: SceneryModel(
        bern(), inc_12(), 4, {r: 0.5 / (1 + 0.3 * r) for r in range(1, 9)}),
    "lazy01-coin-below": lambda: SceneryModel(
        bern(), make_pmf(0.0, 1.0, [(0, 0.3), (1, 0.7)]), 5, 0.25),
    "pm1-coin-map": lambda: SceneryModel(
        bern(), inc_pm1(), 4, {r: 0.1 + 0.05 * ((r % 3) + 1) for r in range(-6, 7)}),
    "12-uni3-theta": lambda: SceneryModel(uni3(), inc_12(), 3, theta(uni3())),
    "pm1-uni3-below": lambda: SceneryModel(uni3(), inc_pm1(), 3, theta(uni3()) / 2),
    "lazy012-skew3-map-below": lambda: SceneryModel(
        skew3(), lazy_inc(0.3), 3, {r: theta(skew3()) * (0.4 + 0.1 * (r % 4)) for r in range(7)}),
}


def no_paths(model):
    raise AssertionError("paths enumerated before the refusal")


def _exact_c_sum(model):
    """``c_sum`` in rational arithmetic: the laws of U_j are convolved exactly
    from the stored increment masses, scaled to total one."""
    total = sum(Fraction(w) for w in model.increment_law.probs.values())
    step = {k: Fraction(w) / total for k, w in model.increment_law.probs.items()}
    laws = [step]
    for _ in range(model.n - 1):
        nxt = {}
        for i, x in laws[-1].items():
            for j, y in step.items():
                nxt[i + j] = nxt.get(i + j, 0) + x * y
        laws.append(nxt)
    sigma = [law.get(0, Fraction(0)) for law in laws]
    level = [sum(Fraction(model.vartheta_at(r)) * p for r, p in law.items()) for law in laws]
    n = model.n
    return sum(sigma[abs(k - h) - 1] * level[min(h, k) - 1]
               for h in range(1, n + 1) for k in range(1, n + 1) if h != k)


class TestPathEnumeration:
    @pytest.mark.parametrize("name", REFERENCE_MODELS)
    def test_agrees_with_product_space_reference(self, name):
        m = REFERENCE_MODELS[name]()
        mom = second_moment_check(m)
        got = (mom.es, mom.es_prime, mom.es2, mom.es2_prime)
        for g, ref in zip(got, reference_moments(m)):
            assert abs(g - ref) <= 1e-12 * max(1.0, abs(ref)), (name, got)
        assert abs(mom.identity_residual) <= 1e-12 * max(1.0, mom.es2)

    @pytest.mark.parametrize("name", ["pm1-coin-map", "lazy01-coin-below", "pm1-uni3-below",
                                      "lazy012-skew3-map-below"])
    def test_c_sum_is_fsum_of_c_hk(self, name):
        m = REFERENCE_MODELS[name]()
        pairs = [(h, k) for h in range(1, m.n + 1) for k in range(1, m.n + 1) if h != k]
        assert second_moment_check(m).c_sum == math.fsum(c_hk(m, h, k) for h, k in pairs)

    @pytest.mark.parametrize("n", [5, 6, 9])
    @pytest.mark.parametrize("walk", ["pm1-map", "lazy012-map"])
    def test_c_sum_is_fsum_of_c_hk_exactly(self, walk, n):
        # c_sum and c_hk take each pair's term from one definition
        if walk == "pm1-map":
            m = SceneryModel(bern(), inc_pm1(), n,
                             {r: 0.1 + 0.05 * ((r % 3) + 1) for r in range(-n, n + 1)})
        else:
            m = SceneryModel(skew3(), lazy_inc(0.3), n,
                             {r: theta(skew3()) * (0.4 + 0.1 * (r % 4)) for r in range(2 * n + 1)})
        pairs = [(h, k) for h in range(1, n + 1) for k in range(1, n + 1) if h != k]
        c_sum = second_moment_check(m).c_sum
        assert c_sum > 0 and c_sum == math.fsum(c_hk(m, h, k) for h, k in pairs)

    @pytest.mark.parametrize("name", REFERENCE_MODELS)
    def test_at_most_n_sum_law_calls(self, name, monkeypatch):
        calls = []

        def counted(parts):
            calls.append(parts)
            return sum_law(parts)

        monkeypatch.setattr(scenery, "sum_law", counted)
        m = REFERENCE_MODELS[name]()
        second_moment_check(m)
        assert len(calls) <= m.n
        if m.constant_profile and min(m.increment_law.support) >= 1:
            assert not calls

    def test_theta_n_and_c_sum_pinned(self):
        # the values the per-pair loop gave before the walk-law table; the
        # skewed lazy walk's c_sum was re-pinned from 0.36524999999999996 when
        # the powers moved to one transform, as the new value is nearer the
        # exact one
        pinned = {
            "pm1-coin-map": (0.815625, 0.4125),
            "lazy01-coin-below": (1.25, 0.76605),
            "pm1-uni3-below": (1.0, 0.3333333333333333),
            "lazy012-skew3-map-below": (0.8084250000000001, 0.36525),
            "12-coin-map": (1.0112058479196824, 0.0),
        }
        for name, (theta_n, c_sum) in pinned.items():
            mom = second_moment_check(REFERENCE_MODELS[name]())
            assert (mom.theta_n, mom.c_sum) == (theta_n, c_sum), name
        exact = _exact_c_sum(REFERENCE_MODELS["lazy012-skew3-map-below"]())
        assert abs(Fraction(0.36525) - exact) <= abs(Fraction(0.36524999999999996) - exact)

    @pytest.mark.parametrize("prof, kind, match", [
        # site 0 is reachable only at step 2
        ({r: 0.4 for r in (-3, -2, -1, 1, 2, 3)}, LatticeError, "reachable site 0"),
        ({**{r: 0.4 for r in range(-3, 4)}, 0: 0.9}, PreconditionError, "site 0 outside"),
    ])
    def test_levels_checked_before_the_first_path(self, prof, kind, match, monkeypatch):
        monkeypatch.setattr(scenery, "_iter_paths", no_paths)
        with pytest.raises(kind, match=match):
            second_moment_check(SceneryModel(bern(), inc_pm1(), 3, prof))

    def test_budget_checked_before_anything_is_built(self, monkeypatch):
        monkeypatch.setattr(scenery, "_iter_paths", no_paths)
        monkeypatch.setattr(scenery, "sum_law", no_paths)
        monkeypatch.setattr(scenery, "split", no_paths)
        for n in (19, 10**9):
            with pytest.raises(LatticeError, match="budget"):
                second_moment_check(SceneryModel(bern(), inc_pm1(), n, {}))
            with pytest.raises(LatticeError, match="budget"):
                y_covariance_factorization(
                    SceneryModel(bern(), inc_12(), 4 * n, {}), 1, 2, (0, 1), (0, 1))

    def test_moment_check_reads_every_reachable_site(self):
        # {1, 2} steps, n = 3: sites 1..6; 1 only at step 1, 6 only at step 3
        for missing in (1, 6):
            prof = {r: 0.4 for r in range(1, 7) if r != missing}
            with pytest.raises(LatticeError, match=f"reachable site {missing}"):
                second_moment_check(SceneryModel(bern(), inc_12(), 3, prof))


class TestCovarianceFactorization:
    def test_constant_profile_independence(self):
        m = SceneryModel(bern(), inc_12(), 4, 0.5)
        fact = y_covariance_factorization(m, 1, 3, (0.5, 1.0), (0.0, 0.5))
        assert fact.lhs == pytest.approx(0.0, abs=1e-15)
        assert fact.rhs == pytest.approx(0.0, abs=1e-15)

    def test_nonconstant_profile_identity(self):
        prof = {r: 0.5 / (1 + 0.3 * r) for r in range(1, 9)}
        m = SceneryModel(bern(), inc_12(), 4, prof)
        for a, b in [((0.5, 1.0), (0.0, 0.5)), ((0.0, 0.0), (1.0, 1.0)), ((-1.0, 0.5), (0.5, 2.0))]:
            fact = y_covariance_factorization(m, 1, 3, a, b)
            assert fact.lhs == pytest.approx(fact.rhs, abs=1e-12)

    def test_beta_bounded_by_one(self):
        rng = np.random.default_rng(17)
        from lltkit.checks import indicator

        from .conftest import random_pmf

        for _ in range(60):
            p = random_pmf(rng, require_theta=True)
            lo = float(rng.uniform(-4, 4))
            hi = lo + float(rng.uniform(0, 6))
            a = (p.v0 + p.D * lo, p.v0 + p.D * hi)
            assert abs(beta_functional(p, indicator(a))) <= 1.0 + 1e-12

    def test_equal_indices_rejected(self):
        m = SceneryModel(bern(), inc_12(), 4, 0.5)
        with pytest.raises(LatticeError):
            y_covariance_factorization(m, 2, 2, (0, 1), (0, 1))

    def test_outputs_pinned(self):
        # the values of the per-site atom cache this check used to read
        prof = {r: 0.5 / (1 + 0.3 * r) for r in range(1, 9)}
        lhs = 0.00012604326183696113
        cases = [
            (0.5, (0.5, 1.0), (0.0, 0.5), (0.0, 0.0, 0.5, 0.5, 0.0)),
            (prof, (0.5, 1.0), (0.0, 0.5), (lhs, 0.0001260432618368501, 0.5, 0.5,
                                            0.0005041730473474004)),
            (prof, (0.0, 0.0), (1.0, 1.0), (0.0001260432618367946, 0.0001260432618368501,
                                            -0.5, -0.5, 0.0005041730473474004)),
            (prof, (-1.0, 0.5), (0.5, 2.0), (lhs, 0.0001260432618368501, 0.5, 0.5,
                                             0.0005041730473474004)),
        ]
        for profile, a, b, pinned in cases:
            f = y_covariance_factorization(SceneryModel(bern(), inc_12(), 4, profile), 1, 3, a, b)
            assert (f.lhs, f.rhs, f.beta_a, f.beta_b, f.cov_vartheta) == pinned

    def test_reads_only_the_sites_of_u_h_and_u_k(self, monkeypatch):
        # {1, 2} steps: U_1 reaches 1..2 and U_3 reaches 3..6; U_4's 7 and 8
        # are never read
        full = {r: 0.5 / (1 + 0.3 * r) for r in range(1, 9)}
        part = {r: full[r] for r in range(1, 7)}
        args = (1, 3, (0.5, 1.0), (0.0, 0.5))
        assert (y_covariance_factorization(SceneryModel(bern(), inc_12(), 4, part), *args)
                == y_covariance_factorization(SceneryModel(bern(), inc_12(), 4, full), *args))
        monkeypatch.setattr(checks, "_iter_paths", no_paths)
        for missing in (1, 4):
            prof = {r: v for r, v in part.items() if r != missing}
            with pytest.raises(LatticeError, match=f"reachable site {missing}"):
                y_covariance_factorization(SceneryModel(bern(), inc_12(), 4, prof), *args)


class TestSceneryEnvelope:
    def test_unit_increments_match_plain_envelope_bitwise(self):
        n, h = 16, 0.25
        spec = prepare_sum([(bern(), 0.5, n)])
        plug = exact_plug_ins(spec, h)
        plain = sandwich_envelope(spec, 8.0, plug, exact=True)
        m = SceneryModel(bern(), inc_ones(), n, 0.5)
        composed = scenery_envelope(m, h, 8.0)
        assert (composed.exact, composed.exact_err) == (plain.exact, plain.exact_err)
        assert composed.lower == plain.lower
        assert composed.upper == plain.upper
        assert composed.gaussian == plain.gaussian
        assert composed.params == plain.params

    def test_small_n_law_equals_iid_convolution(self):
        # full joint enumeration: the composed sum has the plain iid law
        m = SceneryModel(bern(), inc_12(), 5, 0.5)
        dist = enumerate_sum_law(m)
        law = iid_sum(bern(), 5)
        for val, mass in dist.items():
            k = round((val - law.v0) / law.D)
            assert mass == pytest.approx(law.mass(k), abs=1e-13)
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-13)

    def test_sandwich_against_exact_law_n16(self):
        n = 16
        m = SceneryModel(bern(), inc_12(), n, 0.5)
        law = iid_sum(bern(), n)  # exact law of the composed sum (validated above)
        sd = math.sqrt(law.variance)
        for k in range(int(law.mean - 4 * sd), int(law.mean + 4 * sd) + 1):
            rep = scenery_envelope(m, 0.25, float(k))
            assert (rep.exact, rep.exact_err) == (law.mass(k), law.err_abs)
            assert rep.lower <= rep.exact <= rep.upper
            assert rep.sandwich_ok is True

    @pytest.mark.parametrize("inc", [lazy_inc(0.3), inc_pm1()], ids=["lazy", "pm1"])
    def test_revisiting_walk_refused_before_any_law(self, monkeypatch, inc):
        import lltkit.bounds

        def no_law(*args):
            raise AssertionError("sum_law called for a refused model")

        monkeypatch.setattr(lltkit.bounds, "sum_law", no_law)
        with pytest.raises(PreconditionError, match="strictly positive increments"):
            scenery_envelope(SceneryModel(bern(), inc, 16, 0.5), 0.25, 8.0)

    def test_nonconstant_profile_rejected(self):
        prof = {r: 0.5 / (1 + 0.1 * r) for r in range(1, 40)}
        m = SceneryModel(bern(), inc_12(), 16, prof)
        with pytest.raises(PreconditionError):
            scenery_envelope(m, 0.25, 8.0)

    def test_monte_carlo_within_sandwich(self):
        n = 64
        m = SceneryModel(bern(), inc_12(), n, 0.5)
        kappa = 32.0
        rep = scenery_envelope(m, 0.25, kappa)
        est = monte_carlo_point_prob(m, kappa, samples=10_000_000, seed=20240817)
        lo, hi = est.interval()
        assert rep.lower <= lo and hi <= rep.upper
        # the 3-sigma interval is far narrower than the envelope gap
        assert (hi - lo) < 0.05 * (rep.upper - rep.lower)
        # every walk has the profile {1: n}: the estimate is the exact mass, with
        # no sampling error, and within the law's error bound of the true value
        assert (est.p_hat, est.stderr) == (rep.exact, 0.0)
        exact = math.comb(64, 32) / 2**64
        assert abs(est.p_hat - exact) <= rep.exact_err
        # the interval is widened by the law's error bound, so it holds the
        # true mass, which the computed one misses by 3 ulps
        assert est.err_abs == rep.exact_err
        assert Fraction(lo) <= Fraction(math.comb(64, 32), 2**64) <= Fraction(hi)
        assert est.p_hat != exact

    def test_mc_deterministic_given_seed(self):
        m = SceneryModel(bern(), inc_12(), 8, 0.5)
        e1 = monte_carlo_point_prob(m, 4.0, samples=50_000, seed=3)
        e2 = monte_carlo_point_prob(m, 4.0, samples=50_000, seed=3)
        assert e1.p_hat == e2.p_hat

    @pytest.mark.parametrize("samples, seed", [(0, 3), (-5, 3), (1000, -1)])
    def test_mc_rejects_no_samples_or_negative_seed(self, samples, seed):
        m = SceneryModel(bern(), inc_12(), 8, 0.5)
        with pytest.raises(LatticeError, match="samples >= 1 and seed >= 0"):
            monte_carlo_point_prob(m, 4.0, samples=samples, seed=seed)

    def test_three_point_scenery_law(self):
        # three-point scenery values: the composed law still equals the iid
        # convolution, and the Monte Carlo estimate is its mass
        uni3 = make_pmf(0.0, 1.0, [(0, 1), (1, 1), (2, 1)])
        n = 24
        m = SceneryModel(uni3, inc_12(), n, 2.0 / 3.0)
        law = iid_sum(uni3, n)
        kappa = float(round(law.mean))
        rep = scenery_envelope(m, 0.25, kappa)
        assert (rep.exact, rep.exact_err) == (law.mass(round(law.mean)), law.err_abs)
        assert rep.lower <= rep.exact <= rep.upper
        est = monte_carlo_point_prob(m, kappa, samples=400_000, seed=11)
        lo, hi = est.interval()
        assert lo <= rep.exact <= hi
        assert rep.lower <= lo and hi <= rep.upper


def exact_masses(x_law):
    """The x law's masses as exact rationals, scaled to total one: the law
    the exact oracles read."""
    total = sum(map(Fraction, x_law.probs.values()))
    return {k: Fraction(p) / total for k, p in x_law.probs.items()}


def lazy_sum_law(model):
    """Exact law of S_n, by lattice index and in rational arithmetic, for a
    walk that stays with the model's ``p0 = P{Y = 0}`` and otherwise moves
    to a new site: enumerate the stay patterns of steps 2..n and convolve
    the laws of l * X over the runs."""
    g, n = exact_masses(model.x_law), model.n
    p0 = Fraction(model.increment_law.mass(0))
    dist: dict[int, Fraction] = {}
    for stays in product((False, True), repeat=n - 1):
        runs = [1]
        for stay in stays:
            if stay:
                runs[-1] += 1
            else:
                runs.append(1)
        law = {0: p0 ** sum(stays) * (1 - p0) ** (n - 1 - sum(stays))}
        for l in runs:
            nxt: dict[int, Fraction] = {}
            for s, ps in law.items():
                for k, pk in g.items():
                    nxt[s + l * k] = nxt.get(s + l * k, 0) + ps * pk
            law = nxt
        for s, ps in law.items():
            dist[s] = dist.get(s, 0) + ps
    return dist


def renewal_sum_law(model):
    """Exact law of S_n, by lattice index, from the renewal recursion of the
    run lengths in integer arithmetic: with ``g_k = G_k / d`` the x masses
    and ``p0 = a / b``, ``Q_m = R_m / (d^m b^(m-1))`` where

        R_m = sum_{l<m} (b - a) a^(l-1) d^(l-1) G(z^l) R_{m-l} + a^(m-1) d^(m-1) G(z^m),

    the law of a first run of length l < m followed by a fresh walk of m - l
    steps, and of one run of m steps."""
    g = exact_masses(model.x_law)
    d = math.lcm(*(p.denominator for p in g.values()))
    big = {k: int(p * d) for k, p in g.items()}
    p0 = Fraction(model.increment_law.mass(0))
    a, b, n = p0.numerator, p0.denominator, model.n
    r = [None]
    for m in range(1, n + 1):
        law = {m * k: a ** (m - 1) * d ** (m - 1) * gk for k, gk in big.items()}
        for l in range(1, m):
            w = (b - a) * a ** (l - 1) * d ** (l - 1)
            for k, gk in big.items():
                wk, lk = w * gk, l * k
                for s, rs in r[m - l].items():
                    law[s + lk] = law.get(s + lk, 0) + wk * rs
        r.append(law)
    scale = d**n * b ** (n - 1)
    return {s: Fraction(rs, scale) for s, rs in r[n].items()}


def assert_within_err(law, exact):
    """Every mass of the computed law within its ``err_abs`` of the exact one,
    on the window and off it, and all of them within ``err_l1`` together."""
    keys = set(exact) | set(range(law.first, law.first + len(law.probs)))
    gaps = {k: abs(Fraction(law.mass(k)) - exact.get(k, 0)) for k in keys}
    assert max(gaps.values()) <= Fraction(law.err_abs), max(gaps.items(), key=lambda kv: kv[1])
    assert sum(gaps.values()) <= Fraction(law.err_l1)


def assert_estimates_exact(model, exact, samples=1000, seed=1):
    """The oracle's ``p_hat`` at every lattice point of the exact law, and one
    step past each end, within its ``err_abs`` of the exact mass, with no
    sampling error."""
    x = model.x_law
    for k in range(min(exact) - 1, max(exact) + 2):
        est = monte_carlo_point_prob(model, model.n * x.v0 + x.D * k, samples=samples, seed=seed)
        assert est.stderr == 0.0
        assert abs(Fraction(est.p_hat) - exact.get(k, 0)) <= Fraction(est.err_abs), k


LAZY_X_LAWS = [
    bern(),
    # negative and gapped indices, v0 != 0, D != 1
    make_pmf(-1.5, 0.5, [(-2, 5), (0, 3), (3, 2)]),
    make_pmf(0.25, 2.0, [(-1, 1), (2, 1)]),
]
STAY_PROBABILITIES = [1e-12, 0.3, 0.9, 1 - 1e-12]


class TestAnnealedLaw:
    """The model's exact law of S_n for increments >= 0, against rational
    arithmetic: the enumerated stay patterns, the renewal recursion of the
    run lengths and the closed forms of the far tails."""

    @pytest.mark.parametrize("p0", [0.3, 0.9])
    @pytest.mark.parametrize("x_law", LAZY_X_LAWS, ids=["fair-coin", "three-point", "D-2"])
    def test_references_agree(self, x_law, p0):
        m = SceneryModel(x_law, lazy_inc(p0), 6, {})
        assert renewal_sum_law(m) == lazy_sum_law(m)

    @pytest.mark.parametrize("p0", STAY_PROBABILITIES)
    @pytest.mark.parametrize("x_law, n", [
        (LAZY_X_LAWS[0], 10), (LAZY_X_LAWS[1], 8), (LAZY_X_LAWS[2], 9),
    ], ids=["fair-coin", "three-point", "D-2"])
    def test_within_its_bounds_of_the_enumeration(self, x_law, n, p0):
        m = SceneryModel(x_law, lazy_inc(p0), n, {})
        assert_within_err(m.annealed_law, lazy_sum_law(m))

    @pytest.mark.parametrize("p0", STAY_PROBABILITIES)
    @pytest.mark.parametrize("x_law", [
        bern(),
        # masses that total one exactly keep the rationals short
        make_pmf(-1.5, 0.5, [(-2, 4), (0, 3), (3, 1)]),
    ], ids=["fair-coin", "three-point"])
    def test_within_its_bounds_of_the_recursion(self, x_law, p0):
        m = SceneryModel(x_law, lazy_inc(p0), 32, {})
        assert_within_err(m.annealed_law, renewal_sum_law(m))

    @pytest.mark.parametrize("increments, n", [
        (inc_12(), 5), (lazy_inc(0.3), 1), (lazy_inc(0.3), 5), (make_pmf(0.0, 1.0, [(0, 1)]), 5),
        (lazy_inc(0.3), 0),
    ], ids=["strictly-positive", "one-step", "lazy", "all-stays", "no-steps"])
    def test_labelled_with_the_lattice_of_s_n(self, increments, n):
        x_law = make_pmf(-1.5, 0.5, [(-2, 5), (0, 3), (3, 2)])
        law = SceneryModel(x_law, increments, n, {}).annealed_law
        assert (law.v0, law.D) == (n * x_law.v0, x_law.D)
        if n:
            assert_within_err(law, lazy_sum_law(SceneryModel(x_law, increments, n, {})))

    def test_all_stays_keep_the_two_part_law(self):
        # S_n = n X as one count-1 part on S_n's lattice, against the x
        # masses on span n behind a unit part on span 1, relabelled with
        # S_n's lattice: the same doubles, window, lattice and bounds (v0 as
        # a number: relabelling the unit law at n = 0 gave 0 * v0, -0.0 for
        # v0 < 0, where sum_law's fsum of the offsets gives 0.0)
        rng = np.random.default_rng(20261021)
        stays = make_pmf(0.0, 1.0, [(0, 1)])

        def bits(law):
            return (law.probs.tobytes(), law.first, law.v0, law.D.hex(),
                    law.err_abs.hex(), law.err_l1.hex())

        cases = product((0.0, -1.5, 3.25, 1e6), (1.0, 0.5, 2.0, 3e-3), (0, 1, 2, 5, 37, 400))
        for v0, d, n in cases:
            for _ in range(19):
                m = int(rng.integers(1, 7))
                ks = rng.choice(np.arange(-4, 9), m, replace=False).tolist()
                x = make_pmf(v0, d, zip(ks, (rng.random(m) + 0.05).tolist()))
                unit = [(LatticePmf(0.0, 1.0, {0: 1.0}), 1)]
                parts = [(LatticePmf(0.0, float(n), x.probs), 1)] if n else []
                two_part = replace(sum_law(unit + parts), v0=n * x.v0, D=x.D)
                law = SceneryModel(x, stays, n, {}).annealed_law
                assert bits(law) == bits(two_part), (v0, d, n, x.probs)

    def test_negative_increments_refused(self):
        m = SceneryModel(bern(), inc_pm1(), 3, {r: 0.4 for r in range(-4, 5)})
        with pytest.raises(PreconditionError, match="increments >= 0"):
            m.annealed_law

    @pytest.mark.parametrize("increments, what", [(inc_12(), "part 0"), (lazy_inc(0.3), "the x law")],
                             ids=["strictly-positive", "lazy"])
    def test_masses_that_do_not_total_one_refused(self, increments, what):
        # the Markov fold reads the x law as sum_law does, drift test included
        x_law = LatticePmf(0.0, 1.0, {0: 1.0, 1: 1.0})
        with pytest.raises(NumericsError, match=f"{what}: its masses total 2.0"):
            SceneryModel(x_law, increments, 4, {}).annealed_law

    @pytest.mark.parametrize("module, cap, increments", [
        (scenery, "_FOLD_WORK", lazy_inc(0.3)),
        (convolve, "_LENGTH_CAP", make_pmf(0.0, 1.0, [(0, 1)])),
    ], ids=["_FOLD_WORK", "_LENGTH_CAP"])
    def test_refused_past_its_caps(self, module, cap, increments, monkeypatch):
        # 8 steps of the coin: a lazy walk folds 2 values on 9 points, 144 units of
        # work; a walk of stays is one sum_law of S_8 = 8 X, on a window of 9 points
        monkeypatch.setattr(module, cap, {"_FOLD_WORK": 143, "_LENGTH_CAP": 8}[cap])
        with pytest.raises(LatticeError, match="above the cap"):
            SceneryModel(bern(), increments, 8, {}).annealed_law
        monkeypatch.setattr(module, cap, {"_FOLD_WORK": 144, "_LENGTH_CAP": 9}[cap])
        assert SceneryModel(bern(), increments, 8, {}).annealed_law.mass(8) > 0.0

    @pytest.mark.parametrize("p0", STAY_PROBABILITIES)
    @pytest.mark.parametrize("n", [200, 1000])
    @pytest.mark.parametrize("x_law", [
        bern(),
        make_pmf(-1.5, 0.5, [(-2, 5), (0, 3), (3, 2)]),
    ], ids=["fair-coin", "three-point"])
    def test_far_tails_within_the_relative_bound(self, x_law, n, p0):
        # S_n = n k_min only if every site takes k_min: p_min (p0 + (1 - p0) p_min)^(n-1),
        # down to about 1e-187 on the coin at n = 1000, p0 = 0.3; likewise at k_max
        law = SceneryModel(x_law, lazy_inc(p0), n, {}).annealed_law
        g, stay = exact_masses(x_law), Fraction(p0)
        rel, tiny = scenery._fold_error(n, len(g), law.probs.size)
        for k in (min(g), max(g)):
            exact = g[k] * (stay + (1 - stay) * g[k]) ** (n - 1)
            assert law.first <= n * k < law.first + law.probs.size
            gap = abs(Fraction(law.mass(n * k)) - exact)
            assert gap <= Fraction(rel) * exact + Fraction(tiny), (k, float(gap / exact))


class TestMonteCarloLocalTimes:
    """Lazy walks: the oracle reads the exact annealed law, checked against
    rational enumerations of the stay patterns.  The oracle reads only the x
    law and the walk; models whose x law has no valid constant level pass
    an empty (unread) vartheta profile."""

    @pytest.mark.parametrize("p0", [0.3, 0.9])
    @pytest.mark.parametrize("x_law", [
        bern(),
        make_pmf(0.0, 1.0, [(0, 5), (1, 3), (3, 2)]),
        # offsets that span a whole uint8 and past it
        make_pmf(0.0, 1.0, [(0, 1), (255, 1)]),
        make_pmf(0.0, 1.0, [(0, 1), (300, 2)]),
    ], ids=["fair-coin", "three-point-gap", "uint8-wrap", "uint16-wrap"])
    def test_lazy_walk_matches_run_length_law(self, p0, x_law):
        n = 8
        m = SceneryModel(x_law, lazy_inc(p0), n, {})
        assert_estimates_exact(m, lazy_sum_law(m), samples=20_000, seed=5)

    def test_zero_first_step_opens_a_site(self):
        # a stay on step 1 opens the first site, which later stays read again
        n, p0 = 3, 0.9
        m = SceneryModel(bern(), lazy_inc(p0), n, 0.5)
        law = lazy_sum_law(m)
        stay = Fraction(m.increment_law.mass(0))
        assert law[3] == (stay**2 / 2 + 2 * stay * (1 - stay) / 4 + (1 - stay) ** 2 / 8)
        assert_estimates_exact(m, law, samples=200_000, seed=9)

    def test_all_stays_read_one_site(self):
        # every step stays: the one profile {6: 1}, S_6 = 6 X exactly
        m = SceneryModel(bern(), make_pmf(0.0, 1.0, [(0, 1)]), 6, 0.5)
        est = monte_carlo_point_prob(m, 6.0, samples=20_000, seed=2)
        assert monte_carlo_point_prob(m, 3.0, samples=20_000, seed=2).p_hat == 0.0
        assert (est.p_hat, est.stderr) == (0.5, 0.0)

    def test_negative_increments_refused(self):
        m = SceneryModel(bern(), inc_pm1(), 3, {r: 0.4 for r in range(-4, 5)})
        with pytest.raises(PreconditionError, match="increments >= 0"):
            monte_carlo_point_prob(m, 1.0, samples=1000, seed=1)

    @pytest.mark.parametrize("x_law", [
        bern(),
        make_pmf(0.0, 1.0, [(0, 1), (1, 1), (2, 1)]),
        make_pmf(0.0, 1.0, [(0, 1), (2, 3)]),
        make_pmf(0.0, 1.0, [(0, 1), (2, 1)]),
    ], ids=["fair-coin", "three-point", "two-point-gap", "fair-coin-gap"])
    def test_more_samples_than_one_chunk(self, x_law):
        # a strictly positive walk at n = 250: the mode's exact mass
        n = 250
        m = SceneryModel(x_law, inc_12(), n, {})
        law = iid_sum(x_law, n)
        k = law.first + int(np.argmax(law.probs))  # the mode
        est = monte_carlo_point_prob(m, law.v0 + law.D * k, samples=10_000, seed=4)
        assert (est.p_hat, est.stderr) == (law.mass(k), 0.0)


def assert_exact(model, kappa, samples=1000, seed=1):
    """The estimate is the exact mass of the n-fold x law at kappa, with no
    sampling error."""
    law = iid_sum(model.x_law, model.n)
    est = monte_carlo_point_prob(model, kappa, samples=samples, seed=seed)
    k = round((kappa - law.v0) / law.D)
    assert (est.p_hat, est.stderr) == (law.mass(k), 0.0), (kappa, est)


class TestMonteCarloDraws:
    """Walks with increments >= 0 give their exact mass and draw nothing;
    the sample and seed rules."""

    @pytest.mark.parametrize("x_law, n, kappa, samples, seed", [
        (bern(), 32, 16.0, 40_000, 1),
        (make_pmf(0.0, 1.0, [(0, 4), (3, 1)]), 64, 39.0, 40_000, 2),
        (make_pmf(0.0, 1.0, [(0, 5), (1, 3), (3, 2)]), 80, 72.0, 40_000, 3),
        (make_pmf(0.0, 1.0, [(0, 5), (1, 3), (3, 2)]), 250, 225.0, 10_000, 4),
    ], ids=["fair-coin", "skewed-two-point", "three-point", "several-chunks"])
    def test_seeded_streams_are_pinned(self, x_law, n, kappa, samples, seed):
        # seeded requests on a strictly positive walk: every seed gives the
        # exact mass, the value the envelope prints
        m = SceneryModel(x_law, inc_12(), n, {})
        assert_exact(m, kappa, samples, seed)
        assert_exact(m, kappa, samples, seed + 1)

    def test_varying_profile_without_the_envelope(self):
        # the envelope refuses a varying profile, so the estimate builds the
        # model's n-fold law itself, and its mass is the estimate bit for bit
        x_law = make_pmf(0.5, 2.0, [(0, 1), (1, 3), (2, 2)])
        n = 20
        m = SceneryModel(x_law, inc_12(), n, {r: 0.1 + 0.01 * (r % 7) for r in range(1, 2 * n + 1)})
        with pytest.raises(PreconditionError, match="constant vartheta profile"):
            scenery_envelope(m, 0.25, 10.0 + 2.0 * n)
        for k in (15, 22, 28):
            assert_exact(m, n * 0.5 + 2.0 * k)
        assert vars(m)["annealed_law"] is m.annealed_law

    @pytest.mark.parametrize("x_law", [
        make_pmf(-1.5, 0.5, [(0, 3), (3, 1)]),
        make_pmf(2.0, 1.0, [(0, 1), (2, 5), (7, 2)]),
        make_pmf(0.25, 2.0, [(-2, 1), (0, 2), (1, 3), (4, 1), (9, 3)]),
        make_pmf(0.0, 1.0, [(k, k % 5 + 1) for k in range(20)]),
    ], ids=["two-point", "three-point", "five-point", "twenty-point"])
    def test_each_atom_at_n_1(self, x_law):
        # S_1 = X: each atom's p_hat is its mass
        m = SceneryModel(x_law, inc_12(), 1, {})
        for k, p in x_law.probs.items():
            assert_exact(m, x_law.point(k), samples=200_000, seed=7)
            assert monte_carlo_point_prob(m, x_law.point(k), 200_000, 7).p_hat == pytest.approx(p)

    @pytest.mark.parametrize("entries, never", [
        ([(0, 1e-11), (1, 1.0), (2, 1e-11)], (0, 2)),
        ([(0, 1.0), (1, 1e-11), (2, 1.0)], (1,)),
    ], ids=["at-both-ends", "between-integral-cuts"])
    def test_atom_below_2_pow_minus_33_is_never_drawn(self, entries, never):
        # an atom far below any sampling resolution still gets its own mass
        x_law = make_pmf(0.0, 1.0, entries)
        assert all(x_law.probs[k] < 2.0**-33 for k in never)
        m = SceneryModel(x_law, inc_12(), 1, {})
        for k in never:
            assert_exact(m, float(k), samples=100_000, seed=3)
            assert monte_carlo_point_prob(m, float(k), 100_000, 3).p_hat > 0.0

    @pytest.mark.parametrize("p0", [1e-12, 1 - 1e-12])
    def test_extreme_stay_probabilities(self, p0):
        x_law = make_pmf(0.0, 1.0, [(0, 5), (1, 3), (3, 2)])
        n = 4
        m = SceneryModel(x_law, lazy_inc(p0), n, {})
        assert_estimates_exact(m, lazy_sum_law(m), samples=100_000, seed=5)
        if p0 > 0.5:  # S_n = n X but for a move of probability 3e-12, which still counts
            assert 0.0 < monte_carlo_point_prob(m, 1.0, samples=100_000, seed=5).p_hat < 1e-12

    @pytest.mark.parametrize("n, gap, p1, k", [
        (250, 300, 0.9, 225),  # sums above 65535
        (255, 257, 0.99, 255),  # n * span = 65535
        (255, 1, 0.99, 255),  # n * span = 255
    ], ids=["wide", "uint16-edge", "uint8-edge"])
    def test_row_sums_do_not_wrap(self, n, gap, p1, k):
        x_law = make_pmf(0.0, 1.0, [(0, 1 - p1), (gap, p1)])
        m = SceneryModel(x_law, inc_12(), n, {})
        p = math.comb(n, k) * p1**k * (1 - p1) ** (n - k)
        assert_exact(m, float(gap * k), samples=20_000, seed=6)
        est = monte_carlo_point_prob(m, float(gap * k), samples=20_000, seed=6)
        assert est.p_hat == pytest.approx(p, rel=1e-12)

    @pytest.mark.parametrize("increments, n, kappa, want", [
        (inc_12(), 40, 38.0, iid_sum(bern(), 40).mass(38)),
        (make_pmf(0.0, 1.0, [(0, 1)]), 6, 6.0, 0.5),
        (inc_12(), 0, 0.0, 1.0),
        (lazy_inc(0.3), 1, 0.0, 0.5),
        (lazy_inc(0.3), 8, 4.0, None),
        (lazy_inc(0.9), 128, 64.0, None),
    ], ids=["strictly-positive", "all-stays", "no-steps", "lazy-one-step", "lazy-8",
            "lazy-128"])
    def test_one_profile_draws_nothing(self, increments, n, kappa, want, monkeypatch):
        # no walk with increments >= 0 is sampled; a lazy walk of several
        # steps (want None) gives its annealed law's mass
        def no_rng(*args):
            raise AssertionError("a random number was drawn")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        m = SceneryModel(bern(), increments, n, 0.5)
        est = monte_carlo_point_prob(m, kappa, samples=10_000, seed=3)
        if want is None:
            want = m.annealed_law.mass(round(kappa))
            assert 0.0 < want < 1.0
        assert (est.p_hat, est.stderr) == (want, 0.0)

    @pytest.mark.parametrize("increments, n, calls", [
        (lazy_inc(0.3), 8, 0),
        (lazy_inc(0.9), 128, 0),
        (make_pmf(0.0, 1.0, [(0, 1)]), 8, 1),
    ], ids=["lazy-8", "lazy-128", "all-stays"])
    def test_lazy_request_calls_sum_law_at_most_once(self, increments, n, calls, monkeypatch):
        # the Markov fold builds no sum_law; every step a stay builds one
        import lltkit.convolve

        seen = []
        original = lltkit.convolve.sum_law
        for module in list(sys.modules.values()):
            if (module.__name__.startswith("lltkit")
                    and getattr(module, "sum_law", None) is original):
                monkeypatch.setattr(module, "sum_law",
                                    lambda parts: seen.append(parts) or original(parts))
        m = SceneryModel(bern(), increments, n, 0.5)
        for kappa in (0.0, n / 2, float(n)):
            assert monte_carlo_point_prob(m, kappa, samples=10_000, seed=3).stderr == 0.0
        assert len(seen) == calls

    def test_no_steps(self):
        # S_0 = 0: p_hat is 1 at kappa = 0 and 0 at every other lattice point
        m = SceneryModel(make_pmf(0.5, 2.0, [(0, 1), (1, 3)]), inc_12(), 0, {})
        unit = sum_law([(LatticePmf(0.0, 1.0, {0: 1.0}), 1)])
        assert monte_carlo_point_prob(m, 0.0, samples=500, seed=1) == scenery.MonteCarloEstimate(
            p_hat=1.0, stderr=0.0, err_abs=unit.err_abs, samples=500, seed=1)
        for kappa in (-4.0, 2.0, 6.0):
            est = monte_carlo_point_prob(m, kappa, samples=500, seed=1)
            assert (est.p_hat, est.stderr) == (0.0, 0.0)
        with pytest.raises(PreconditionError, match="not on the sum lattice"):
            monte_carlo_point_prob(m, 1.0, samples=500, seed=1)

    @pytest.mark.parametrize("samples, seed", [
        (1e4, 3), (True, 3), (np.float64(100), 3), (100, 2.0), (100, False),
    ], ids=["float-samples", "bool-samples", "numpy-float-samples", "float-seed",
            "bool-seed"])
    def test_non_integer_samples_or_seed_refused(self, samples, seed):
        m = SceneryModel(bern(), inc_12(), 8, 0.5)
        with pytest.raises(LatticeError, match="integer samples >= 1 and seed >= 0"):
            monte_carlo_point_prob(m, 4.0, samples=samples, seed=seed)

    def test_numpy_integer_samples_and_seed_accepted(self):
        m = SceneryModel(bern(), inc_12(), 8, 0.5)
        est = monte_carlo_point_prob(m, 4.0, samples=np.int64(5000), seed=np.uint32(3))
        assert type(est.samples) is int and type(est.seed) is int
        assert est == monte_carlo_point_prob(m, 4.0, samples=5000, seed=3)
