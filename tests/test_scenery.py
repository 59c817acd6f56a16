"""Random walks in random scenery: moments, covariance structure, envelope."""

from __future__ import annotations

import math
from itertools import product

import numpy as np
import pytest

from lltkit import (
    LatticeError,
    PreconditionError,
    SceneryModel,
    beta_functional,
    c_hk,
    exact_plug_ins,
    iid_sum,
    make_pmf,
    monte_carlo_point_prob,
    prepare_sum,
    sandwich_envelope,
    scenery_envelope,
    scenery_from_json,
    second_moment_check,
    split,
    theta_n_scenery,
    y_covariance_factorization,
)


def bern():
    return make_pmf(0.0, 1.0, [(0, 1), (1, 1)])


def inc_ones():
    return make_pmf(0.0, 1.0, [(1, 1)])


def inc_12():
    return make_pmf(0.0, 1.0, [(1, 1), (2, 1)])


def inc_pm1():
    return make_pmf(0.0, 1.0, [(-1, 1), (1, 1)])


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
        with pytest.raises(LatticeError):
            SceneryModel(bern(), inc_pm1(), 3, 0.5)

    def test_revisit_flag_admits_them(self):
        m = SceneryModel(bern(), inc_pm1(), 3, {r: 0.4 for r in range(-4, 5)},
                         allow_revisits=True)
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
        m = SceneryModel(bern(), inc_pm1(), 4, prof, allow_revisits=True)
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
        m = SceneryModel(bern(), inc_pm1(), 3, {r: th for r in range(-5, 6)},
                         allow_revisits=True)
        mom = second_moment_check(m)
        gap = mom.es2 - mom.es2_prime - 0.25 * mom.theta_n
        assert gap == pytest.approx(0.25 * math.fsum(mom.c_matrix.values()), abs=1e-13)

    def test_constant_profile_scalar_factor(self):
        th = 0.4
        m = SceneryModel(bern(), inc_pm1(), 4, {r: th for r in range(-6, 7)},
                         allow_revisits=True)
        sigma_2 = 0.5  # P{Y + Y' = 0} for two independent +-1 steps
        assert c_hk(m, 1, 3) == pytest.approx(sigma_2 * th, abs=1e-14)

    def test_equal_indices_rejected(self):
        with pytest.raises(LatticeError):
            c_hk(SceneryModel(bern(), inc_12(), 3, 0.5), 2, 2)


class TestEpsilonComposition:
    """The Bernoulli flag seen through the walk keeps a Bernoulli law."""

    def _model(self):
        prof = {r: 0.1 + 0.05 * ((r % 3) + 1) for r in range(-6, 8)}
        return SceneryModel(bern(), inc_pm1(), 4, prof, allow_revisits=True)

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
        m = SceneryModel(bern(), inc_pm1(), 3, prof, allow_revisits=True)
        mom = second_moment_check(m)
        assert abs(mom.identity_residual) < 1e-12
        assert any(abs(c) > 1e-6 for c in mom.c_matrix.values())

    def test_mean_preserved(self):
        mom = second_moment_check(SceneryModel(bern(), inc_12(), 4, 0.5))
        assert mom.es == pytest.approx(mom.es_prime, abs=1e-13)

    def test_too_large_rejected(self):
        with pytest.raises(LatticeError):
            second_moment_check(SceneryModel(bern(), inc_12(), 8, 0.5))


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
        from lltkit.scenery import indicator

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


class TestSceneryEnvelope:
    def test_unit_increments_match_plain_envelope_bitwise(self):
        n, h = 16, 0.25
        spec = prepare_sum([(bern(), 0.5, n)])
        plug = exact_plug_ins(spec, h)
        plain = sandwich_envelope(spec, h, 8.0, plug)
        m = SceneryModel(bern(), inc_ones(), n, 0.5)
        composed = scenery_envelope(m, h, 8.0)
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
            exact = law.mass(k)
            rep = scenery_envelope(m, 0.25, float(k), exact=exact)
            assert rep.lower <= exact <= rep.upper

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
        exact = math.comb(64, 32) / 2**64
        assert lo <= exact <= hi

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
        # non-two-point scenery values drive the generic sampling path; the
        # composed law still equals the iid convolution
        uni3 = make_pmf(0.0, 1.0, [(0, 1), (1, 1), (2, 1)])
        n = 24
        m = SceneryModel(uni3, inc_12(), n, 2.0 / 3.0)
        law = iid_sum(uni3, n)
        kappa = float(round(law.mean))
        rep = scenery_envelope(m, 0.25, kappa, exact=law.mass(round(law.mean)))
        assert rep.lower <= rep.exact <= rep.upper
        est = monte_carlo_point_prob(m, kappa, samples=400_000, seed=11)
        lo, hi = est.interval()
        assert lo <= rep.exact <= hi
        assert rep.lower <= lo and hi <= rep.upper
