"""Random walks in random scenery: moments, covariance structure, envelope."""

from __future__ import annotations

import math
from collections import Counter, namedtuple
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
    sum_law,
    theta,
    theta_n_scenery,
    y_covariance_factorization,
)
from lltkit import scenery
from lltkit.scenery import _chunk_rows


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
        # the values the per-pair loop gave before the walk-law table
        pinned = {
            "pm1-coin-map": (0.815625, 0.4125),
            "lazy01-coin-below": (1.25, 0.76605),
            "pm1-uni3-below": (1.0, 0.3333333333333333),
            "lazy012-skew3-map-below": (0.8084250000000001, 0.36524999999999996),
            "12-coin-map": (1.0112058479196824, 0.0),
        }
        for name, (theta_n, c_sum) in pinned.items():
            mom = second_moment_check(REFERENCE_MODELS[name]())
            assert (mom.theta_n, mom.c_sum) == (theta_n, c_sum), name

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
        monkeypatch.setattr(scenery, "_iter_paths", no_paths)
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
        rep = scenery_envelope(m, 0.25, kappa)
        assert (rep.exact, rep.exact_err) == (law.mass(round(law.mean)), law.err_abs)
        assert rep.lower <= rep.exact <= rep.upper
        est = monte_carlo_point_prob(m, kappa, samples=400_000, seed=11)
        lo, hi = est.interval()
        assert lo <= rep.exact <= hi
        assert rep.lower <= lo and hi <= rep.upper


def lazy_sum_law(x_law, p0, n):
    """Exact law of S_n (by lattice index) for a walk that stays with
    probability p0 and otherwise moves to a new site: enumerate the stay
    patterns of steps 2..n and convolve the laws of l * X over the runs."""
    dist: dict[int, float] = {}
    for stays in product((False, True), repeat=n - 1):
        runs = [1]
        for stay in stays:
            if stay:
                runs[-1] += 1
            else:
                runs.append(1)
        w = p0 ** sum(stays) * (1 - p0) ** (n - 1 - sum(stays))
        law = {0: w}
        for l in runs:
            nxt: dict[int, float] = {}
            for s, ps in law.items():
                for k, pk in x_law.probs.items():
                    nxt[s + l * k] = nxt.get(s + l * k, 0.0) + ps * pk
            law = nxt
        for s, ps in law.items():
            dist[s] = dist.get(s, 0.0) + ps
    return dist


def assert_within_5_se(model, law, samples, seed):
    """p_hat at every lattice point of mass >= 1e-3 within 5 standard errors."""
    x = model.x_law
    for k, p in sorted(law.items()):
        if p < 1e-3:
            continue
        kappa = model.n * x.v0 + x.D * k
        est = monte_carlo_point_prob(model, kappa, samples=samples, seed=seed)
        se = math.sqrt(p * (1 - p) / samples)
        assert abs(est.p_hat - p) <= 5 * se, (k, est.p_hat, p)


class TestMonteCarloLocalTimes:
    """The sampler reads only the x law and the walk; models whose x law has
    no valid constant level pass an empty (unread) vartheta profile."""

    @pytest.mark.parametrize("p0", [0.3, 0.9])
    @pytest.mark.parametrize("x_law", [
        bern(),
        make_pmf(0.0, 1.0, [(0, 5), (1, 3), (3, 2)]),
    ], ids=["fair-coin", "three-point-gap"])
    def test_lazy_walk_matches_run_length_law(self, p0, x_law):
        n = 8
        m = SceneryModel(x_law, lazy_inc(p0), n, {})
        assert_within_5_se(m, lazy_sum_law(x_law, p0, n), samples=100_000, seed=5)

    def test_zero_first_step_opens_a_site(self):
        # a stay on step 1 must read the first site's draw, not wrap to site -1
        n, p0 = 3, 0.9
        m = SceneryModel(bern(), lazy_inc(p0), n, 0.5)
        law = lazy_sum_law(bern(), p0, n)
        assert law[3] == pytest.approx(0.5 * p0**2 + 0.25 * 2 * p0 * (1 - p0)
                                       + 0.125 * (1 - p0) ** 2, abs=1e-15)
        assert_within_5_se(m, law, samples=200_000, seed=9)

    def test_all_stays_read_one_site(self):
        m = SceneryModel(bern(), make_pmf(0.0, 1.0, [(0, 1)]), 6, 0.5)
        est = monte_carlo_point_prob(m, 6.0, samples=20_000, seed=2)
        assert monte_carlo_point_prob(m, 3.0, samples=20_000, seed=2).p_hat == 0.0
        assert abs(est.p_hat - 0.5) <= 5 * math.sqrt(0.25 / 20_000)

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
        n = 250
        samples = 10_000
        assert samples > 2 * _chunk_rows(n)
        m = SceneryModel(x_law, inc_12(), n, {})
        law = iid_sum(x_law, n)
        k = law.first + int(np.argmax(law.probs))  # the mode
        p = law.mass(k)
        est = monte_carlo_point_prob(m, law.v0 + law.D * k, samples=samples, seed=4)
        assert abs(est.p_hat - p) <= 5 * math.sqrt(p * (1 - p) / samples)
