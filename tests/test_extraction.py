"""Bernoulli part extraction: the split, reconstruction, and the xi law."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lltkit import (
    PreconditionError,
    SceneryModel,
    make_pmf,
    moments,
    prepare_sum,
    reconstruct,
    scenery_envelope,
    second_moment_check,
    split,
    theta,
    xi_law,
)
from lltkit.checks import theta_n_scenery

from .conftest import random_pmf


def max_pointwise_gap(p, q) -> float:
    ks = set(p.probs) | set(q.probs)
    return max(abs(p.mass(k) - q.mass(k)) for k in ks)


class TestSplit:
    def test_fair_bernoulli_half(self, fair_bernoulli):
        sp = split(fair_bernoulli, 0.5)
        assert sp.tau == {0: 0.5}
        assert sp.joint[(0, 1)] == 0.5
        assert sp.joint[(0, 0)] == 0.25
        assert sp.joint[(1, 0)] == 0.25

    def test_fair_bernoulli_quarter(self, fair_bernoulli):
        sp = split(fair_bernoulli, 0.25)
        assert sp.tau == {0: 0.25}
        assert sp.joint[(0, 1)] == 0.25
        assert sp.joint[(0, 0)] == pytest.approx(0.375)
        assert sp.joint[(1, 0)] == pytest.approx(0.375)
        assert sum(p for (_, e), p in sp.joint.items() if e == 1) == pytest.approx(0.25)

    def test_point_mass_rejected(self, point_mass):
        with pytest.raises(PreconditionError):
            split(point_mass, 0.1)

    def test_level_out_of_range(self, fair_bernoulli):
        with pytest.raises(PreconditionError):
            split(fair_bernoulli, 0.6)
        with pytest.raises(PreconditionError):
            split(fair_bernoulli, 0.0)
        with pytest.raises(PreconditionError):
            split(fair_bernoulli, -0.1)

    def test_default_level_is_maximal(self, uniform3):
        sp = split(uniform3)
        assert sp.vartheta == pytest.approx(theta(uniform3))

    def test_margin_formulas(self, uniform3):
        sp = split(uniform3, 0.4)
        f = uniform3.probs
        for k in set(f) | {max(f) + 1}:
            expected = f.get(k, 0.0) + (sp.tau.get(k, 0.0) - sp.tau.get(k - 1, 0.0)) / 2.0
            margin_v = sp.joint.get((k, 0), 0.0) + sp.joint.get((k, 1), 0.0)
            assert margin_v == pytest.approx(expected, abs=1e-15)
        margin_eps = math.fsum(p for (_, e), p in sp.joint.items() if e == 1)
        assert margin_eps == pytest.approx(0.4, abs=1e-15)


class TestReconstruct:
    def test_fair_bernoulli(self, fair_bernoulli):
        rec = reconstruct(split(fair_bernoulli, 0.5))
        assert max_pointwise_gap(rec, fair_bernoulli) < 1e-15

    def test_uniform3_maximal(self, uniform3):
        rec = reconstruct(split(uniform3, 2.0 / 3.0))
        assert max_pointwise_gap(rec, uniform3) < 1e-15

    def test_fuzz_100_random_pmfs(self):
        rng = np.random.default_rng(20240817)
        done = 0
        while done < 100:
            p = random_pmf(rng, require_theta=True)
            th = theta(p)
            if th <= 0:
                continue
            level = th * float(rng.uniform(0.05, 1.0))
            rec = reconstruct(split(p, level))
            assert max_pointwise_gap(rec, p) < 1e-14
            done += 1


class TestXiLaw:
    def test_fair_bernoulli_masses(self, fair_bernoulli):
        xi = xi_law(split(fair_bernoulli, 0.5))
        assert xi.D == 0.5 and xi.v0 == 0.0
        assert xi.probs == {0: 0.25, 1: 0.5, 2: 0.25}
        mean, var = moments(xi)
        assert mean == pytest.approx(0.5)
        assert var == pytest.approx(0.125)  # 1/4 - 1/8

    def test_point_mass_propagates_rejection(self, point_mass):
        with pytest.raises(PreconditionError):
            xi_law(split(point_mass, 0.1))

    def test_variance_identity_random(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p = random_pmf(rng, require_theta=True)
            th = theta(p)
            level = th * float(rng.uniform(0.1, 1.0))
            sp = split(p, level)
            m0, v0 = moments(p)
            m1, v1 = moments(xi_law(sp))
            assert m1 == pytest.approx(m0, abs=1e-12)
            assert v1 == pytest.approx(v0 - p.D**2 * level / 4.0, abs=1e-12)


# ---------------------------------------------------------------------------
# the level rule: split, prepare_sum and the scenery model read one level


def _level_laws(count=30):
    """Seeded 2-5-atom laws with v0 in {0, -1.5, 3} and D in {0.5, 1, 2};
    each has an adjacent pair, so theta > 0."""
    rng = np.random.default_rng(57)
    for _ in range(count):
        size = int(rng.integers(2, 6))
        ks = np.concatenate([[0, 1], rng.integers(1, 3, size - 2)]).cumsum().tolist()
        masses = (rng.random(size) + 0.05).tolist()
        yield make_pmf(float(rng.choice([0.0, -1.5, 3.0])), float(rng.choice([0.5, 1.0, 2.0])),
                       list(zip(ks, masses)))


# strictly positive walks of _N steps, which reach no site beyond 2 _N
_STEPS = (make_pmf(0.0, 1.0, [(1, 1)]), make_pmf(0.0, 1.0, [(1, 2), (2, 1)]))
_N = 4
_SITES = range(1, 2 * _N + 1)


class TestLevelRule:
    def test_every_reader_reads_one_level(self):
        for law in _level_laws():
            th = theta(law)
            for k in range(10):
                level = th * (1.0 + k * 1e-13)
                read = split(law, level).vartheta
                assert read == min(level, th)
                assert prepare_sum([(law, level, _N)]).parts[0][1] == read
                for inc in _STEPS:
                    const = SceneryModel(law, inc, _N, level)
                    mapped = SceneryModel(law, inc, _N, {r: level for r in _SITES})
                    assert all(m.vartheta_at(r) == read for m in (const, mapped) for r in _SITES)

    def test_moment_check_reads_the_envelope_level(self):
        # strictly positive walks: the moment check, the checks module and
        # the envelope all read Theta_n from the clamped level
        for law in _level_laws():
            th = theta(law)
            kappa = _N * law.point(min(law.probs))
            for k in range(10):
                level = th * (1.0 + k * 1e-13)
                for inc in _STEPS:
                    const = SceneryModel(law, inc, _N, level)
                    theta_n = second_moment_check(const).theta_n
                    assert theta_n == theta_n_scenery(const) == _N * th
                    assert scenery_envelope(const, 0.25, kappa).params["theta_n"] == theta_n
                    mapped = SceneryModel(law, inc, _N, {r: level for r in _SITES})
                    assert second_moment_check(mapped).theta_n == theta_n_scenery(mapped)

    def test_level_above_the_rule_is_refused_everywhere(self):
        for law in _level_laws():
            th = theta(law)
            level = th * (1.0 + 2e-12)

            def refused(where):
                msg = f"extraction level {level} for {where} outside (0, theta_X = {th}]"
                return pytest.raises(PreconditionError, match=re.escape(msg))

            with refused("the pmf"):
                split(law, level)
            with refused("part 0"):
                prepare_sum([(law, level, _N)])
            with refused("the constant profile"):
                SceneryModel(law, _STEPS[0], _N, level)
            with refused("site 1"):
                second_moment_check(SceneryModel(law, _STEPS[0], _N, {r: level for r in _SITES}))


# ---------------------------------------------------------------------------
# properties

split_strategy = st.builds(
    lambda seed, frac: (random_pmf(np.random.default_rng(seed), require_theta=True), frac),
    st.integers(0, 2**32 - 1),
    st.floats(0.01, 1.0),
)


@given(split_strategy)
@settings(max_examples=150, deadline=None)
def test_split_invariants(case):
    p, frac = case
    level = theta(p) * frac
    sp = split(p, level)
    f = p.probs
    for k in f:
        assert sp.tau.get(k - 1, 0.0) + sp.tau.get(k, 0.0) <= 2.0 * f[k] + 1e-12
    assert sum(sp.tau.values()) == pytest.approx(level, abs=1e-12)
    assert all(v >= 0.0 for v in sp.joint.values())
    assert sum(sp.joint.values()) == pytest.approx(1.0, abs=1e-12)


@given(split_strategy)
@settings(max_examples=150, deadline=None)
def test_reconstruction_exactness_property(case):
    p, frac = case
    sp = split(p, theta(p) * frac)
    assert max_pointwise_gap(reconstruct(sp), p) < 1e-14
