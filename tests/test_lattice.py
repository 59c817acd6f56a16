"""Lattice pmf construction and characteristics."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lltkit import (
    LatticeError,
    characteristics,
    delta_smoothness,
    make_pmf,
    moments,
    pmf_from_json,
    span_multiple,
    theta,
)
from lltkit.convolve import exact_moments
from lltkit.errors import PreconditionError
from lltkit.lattice import kappa_index, lattice_position

from .conftest import random_pmf


class TestMakePmf:
    def test_fair_bernoulli_normalization(self):
        p = make_pmf(0, 1, [(0, 1), (1, 1)])
        assert p.probs == {0: 0.5, 1: 0.5}

    def test_point_mass(self):
        p = make_pmf(0, 1, [(0, 1)])
        assert p.probs == {0: 1.0}

    def test_merge_and_normalize(self):
        p = make_pmf(0, 2, [(0, 1), (1, 1), (2, 2)])
        assert p.probs == {0: 0.25, 1: 0.25, 2: 0.5}

    def test_duplicate_indices_merged(self):
        p = make_pmf(0, 1, [(0, 1), (0, 1), (1, 2)])
        assert p.probs == {0: 0.5, 1: 0.5}

    def test_rejects_bad_span(self):
        with pytest.raises(LatticeError):
            make_pmf(0, 0.0, [(0, 1)])
        with pytest.raises(LatticeError):
            make_pmf(0, -1.0, [(0, 1)])

    def test_rejects_negative_weight(self):
        with pytest.raises(LatticeError):
            make_pmf(0, 1, [(0, 1), (1, -0.5)])

    def test_rejects_all_zero(self):
        with pytest.raises(LatticeError):
            make_pmf(0, 1, [(0, 0.0), (1, 0.0)])

    @pytest.mark.parametrize("v0, d, entries, what", [
        (0, 1, [(0, 10**400)], "weight"),
        (10**400, 1, [(0, 1)], "v0"),
        (0, 10**400, [(0, 1)], "D"),
    ], ids=["weight", "v0", "D"])
    def test_rejects_an_int_no_double_holds(self, v0, d, entries, what):
        # refused as input, not an OverflowError from float()
        with pytest.raises(LatticeError, match=f"^{what} {10**400} is beyond the range"):
            make_pmf(v0, d, entries)

    @pytest.mark.parametrize("v0, d, entries", [
        ("0", 1, [(0, 1)]), (0, True, [(0, 1)]), (0, 1, [(0, "0.5")]), (0, 1, [(0, None)]),
    ], ids=["str-v0", "bool-D", "str-weight", "none-weight"])
    def test_rejects_a_value_that_is_not_a_number(self, v0, d, entries):
        with pytest.raises(LatticeError, match="must be a number"):
            make_pmf(v0, d, entries)

    @pytest.mark.parametrize("v0, d, entries, pair", [
        (1e102, 1, [(0, 1), (1, 1)], (0, 1)),
        (1.0, 1e-17, [(0, 1), (1, 1)], (0, 1)),
        (1e16, 1, [(0, 1), (1, 1), (5, 1)], (0, 1)),  # 1e16 + 1 rounds to even
    ], ids=["huge-v0", "tiny-span", "tie"])
    def test_rejects_support_points_that_collapse(self, v0, d, entries, pair):
        # two stored points v0 + D*k that are one double would merge atoms
        with pytest.raises(LatticeError, match=f"^support points collapse: v0 \\+ D\\*k is "
                                               f".* at k = {pair[0]} and k = {pair[1]} "):
            make_pmf(v0, d, entries)

    @pytest.mark.parametrize("v0, d, entries, point, k", [
        (7, 1e300, [(-(2**53), 0.2), (5, 1)], "-inf", -(2**53)),
        (7, 1e300, [(-(2**53), 0.2), (5, 1), (2**53, 0.3)], "-inf", -(2**53)),
        (0.0, 1e308, [(1, 1), (2, 1), (3, 1)], "inf", 2),  # 2 and 3 both overflow to inf
    ], ids=["entries0", "entries1", "overflow"])
    def test_rejects_support_points_beyond_the_doubles(self, v0, d, entries, point, k):
        # D k overflows at the first index that is out of range, and overflow
        # is named before the collapse of the points it makes one infinity
        with pytest.raises(LatticeError, match=f"^support point v0 \\+ D\\*k is {point} at "
                                               f"k = {k}, beyond the range of doubles"):
            make_pmf(v0, d, entries)

    def test_accepts_a_collapsing_index_without_mass(self):
        # only stored points count: 1e16 + 1 is 1e16, but it carries no mass
        assert make_pmf(1e16, 1, [(0, 1), (1, 0), (2, 1)]).probs == {0: 0.5, 2: 0.5}

    def test_accepts_real_numbers_of_other_types(self):
        from fractions import Fraction

        p = make_pmf(np.int64(1), Fraction(1, 2), [(0, np.float32(1.0)), (1, np.int64(3))])
        assert (p.v0, p.D, p.probs) == (1.0, 0.5, {0: 0.25, 1: 0.75})
        assert type(p.v0) is float and type(p.D) is float

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8])
    def test_accepts_numpy_integer_indices(self, dtype):
        w = [1.0, 2.0, 1.0]
        p = make_pmf(0, 1, zip(np.arange(3, dtype=dtype), w))
        assert p == make_pmf(0, 1, zip(range(3), w))
        assert all(type(k) is int for k in p.probs)
        with pytest.raises(LatticeError, match="support index must be an integer, got np.True_"):
            make_pmf(0, 1, [(np.bool_(True), 1.0)])
        with pytest.raises(LatticeError, match=f"support index {2**53 + 1} is above 2"):
            make_pmf(0, 1, [(np.int64(2**53 + 1), 1.0)])

    def test_json_round_trip(self):
        p = make_pmf(-1.5, 0.5, [(2, 3), (4, 1)])
        q = pmf_from_json(p.to_json_dict())
        assert q.v0 == p.v0 and q.D == p.D and q.probs == p.probs

    def test_json_rejects_garbage(self):
        with pytest.raises(LatticeError):
            pmf_from_json({"v0": 0, "D": 1})

    def test_json_index_must_be_integral(self):
        # refused, not truncated to the indices 0 and 1
        with pytest.raises(LatticeError, match="support index must be an integer, got 0.5"):
            pmf_from_json({"v0": 0, "D": 1, "probs": [[0.5, 1], [1.5, 1]]})
        with pytest.raises(LatticeError, match="support index must be an integer, got True"):
            pmf_from_json({"v0": 0, "D": 1, "probs": [[True, 1], [False, 1]]})
        assert pmf_from_json({"v0": 0, "D": 1, "probs": [[1.0, 1]]}).probs == {1: 1.0}

    def test_json_index_within_2_to_53(self):
        # v0 + D*k is computed in doubles, which hold every integer up to 2^53
        assert pmf_from_json({"v0": 0, "D": 1, "probs": [[2**53, 1]]}).probs == {2**53: 1.0}
        for k in (2**53 + 1, -(2**53) - 1, 2.0**60):
            with pytest.raises(LatticeError, match=f"support index {int(k)} is above 2"):
                pmf_from_json({"v0": 0, "D": 1, "probs": [[k, 1]]})


class TestTheta:
    def test_fair_bernoulli(self, fair_bernoulli):
        assert theta(fair_bernoulli) == 0.5

    def test_point_mass(self, point_mass):
        assert theta(point_mass) == 0.0

    def test_uniform3(self, uniform3):
        assert theta(uniform3) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_gap_kills_overlap(self):
        p = make_pmf(0, 1, [(0, 1), (2, 1)])
        assert theta(p) == 0.0


class TestDelta:
    def test_fair_bernoulli_and_identity(self, fair_bernoulli):
        assert delta_smoothness(fair_bernoulli) == pytest.approx(1.0, abs=1e-15)
        assert delta_smoothness(fair_bernoulli) == pytest.approx(
            2 - 2 * theta(fair_bernoulli), abs=1e-15
        )

    def test_point_mass_boundary_jumps(self, point_mass):
        assert delta_smoothness(point_mass) == 2.0

    def test_uniform3(self, uniform3):
        # |0 - 1/3| + 0 + 0 + |1/3 - 0|, cross-checked against 2 - 2*theta
        assert delta_smoothness(uniform3) == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert delta_smoothness(uniform3) == pytest.approx(2 - 2 * theta(uniform3), abs=1e-14)


class TestMoments:
    def test_fair_bernoulli(self, fair_bernoulli):
        assert moments(fair_bernoulli) == (0.5, 0.25)

    def test_point_mass(self, point_mass):
        assert moments(point_mass) == (0.0, 0.0)

    def test_uniform3(self, uniform3):
        mean, var = moments(uniform3)
        assert mean == pytest.approx(1.0, abs=1e-15)
        assert var == pytest.approx(2.0 / 3.0, abs=1e-15)


class TestIndexMoments:
    """Moments summed on the index lattice are within a few u of the exact
    moments of the stored masses wherever v0 lies: the variance within ``C u
    (Var + D^2)`` and the mean within ``C u (|E X| + D max|k|)``, with the C
    of ``cli._variance_tolerance``."""

    C, U = 40, Fraction(2) ** -53

    def test_random_laws_match_the_rational_moments(self):
        rng = np.random.default_rng(20261019)
        for _ in range(3000):
            m = int(rng.integers(2, 7))
            ks = rng.choice(np.arange(-6, 10), m, replace=False).tolist()
            w = (rng.random(m) + 0.05).tolist()
            v0 = float(rng.choice([-1, 1]) * 10 ** rng.uniform(0, 13))
            d = float(10 ** rng.uniform(-3, 7))
            pmf = make_pmf(v0, d, zip(ks, w))
            mean, var = moments(pmf)
            exact_mean, exact_var = exact_moments([(pmf, 1)])
            dd = Fraction(d) ** 2
            assert abs(Fraction(var) - exact_var) <= self.C * self.U * (exact_var + dd), \
                (v0, d, ks, w)
            scale = abs(exact_mean) + Fraction(d) * max(abs(k) for k in ks)
            assert abs(Fraction(mean) - exact_mean) <= self.C * self.U * scale, (v0, d, ks, w)

    def test_extent_of_a_few_ulps_of_v0(self):
        # the support spans 2 D = 4.2e-6, about 2 ulps of v0 = 1.1e10; each
        # point rounds by up to 9.5e-7, the variance is still D^2 / 2
        d = 2.104877610497365e-06
        var = characteristics(make_pmf(11248766609.43312, d, [(17, 1), (18, 2), (19, 1)])).variance
        exact = Fraction(d) ** 2 / 2
        assert abs(Fraction(var) - exact) <= 4 * self.U * (exact + Fraction(d) ** 2)
        assert var == 2.2152548775865484e-12


class TestKappaIndex:
    def test_index_on_lattice(self):
        assert kappa_index(2.75, 0.25, 0.5) == 5
        assert kappa_index(-1.0, 0.0, 1.0) == -1

    @pytest.mark.parametrize("kappa", [2.5, math.nan, math.inf])
    def test_off_lattice_rejected(self, kappa):
        with pytest.raises(PreconditionError, match="not on the sum lattice"):
            kappa_index(kappa, 0.25, 0.5)

    @pytest.mark.parametrize("kappa", [2.0**53 + 2.0, -(2.0**53) - 2.0, 1e300])
    def test_more_than_2_to_53_steps_out_rejected(self, kappa):
        # doubles no longer tell neighbouring lattice points apart there
        assert kappa_index(2.0**53, 0.0, 1.0) == 2**53
        with pytest.raises(LatticeError, match="more than 2\\^53 steps from v0"):
            kappa_index(kappa, 0.0, 1.0)
        with pytest.raises(LatticeError, match="more than 2\\^53 steps from v0"):
            lattice_position(kappa * 0.5, 0.25, 0.5)

    @pytest.mark.parametrize("v0, d", [(0.0, 0.1), (0.7, 0.3), (-123456.7, 0.1)])
    def test_far_points_computed_in_floats_accepted(self, v0, d):
        # v0 + d*k misses the lattice by more than 1e-9 of a step at some of these k
        ks = range(30_000_000, 30_000_200)
        assert [kappa_index(v0 + d * k, v0, d) for k in ks] == list(ks)
        with pytest.raises(PreconditionError, match="not on the sum lattice"):
            kappa_index(v0 + d * (ks[0] + 0.5), v0, d)
        # the llt-bound sweep rounds its ends by the same slack
        for k in ks:
            r, slack = lattice_position(v0 + d * k, v0, d)
            assert math.ceil(r - slack) == math.floor(r + slack) == k


class TestSpanMultiple:
    def test_even_support(self):
        assert span_multiple(make_pmf(0, 1, [(0, 1), (2, 1), (4, 2)])) == 2

    def test_unit(self, uniform3):
        assert span_multiple(uniform3) == 1

    def test_point_mass(self, point_mass):
        assert span_multiple(point_mass) == 1

    def test_characteristics_bundle(self, fair_bernoulli):
        ch = characteristics(fair_bernoulli)
        assert ch.theta == 0.5 and ch.delta == 1.0
        assert ch.mean == 0.5 and ch.variance == 0.25
        assert ch.span_multiple == 1


# ---------------------------------------------------------------------------
# properties

pmf_strategy = st.builds(
    lambda seed, sup: random_pmf(np.random.default_rng(seed), max_support=sup),
    st.integers(0, 2**32 - 1),
    st.integers(1, 21),
)


@given(pmf_strategy)
@settings(max_examples=200, deadline=None)
def test_delta_theta_identity(p):
    assert abs(delta_smoothness(p) - (2.0 - 2.0 * theta(p))) < 1e-12


@given(pmf_strategy)
@settings(max_examples=200, deadline=None)
def test_variance_dominates_span_theta(p):
    _, var = moments(p)
    assert var >= p.D**2 * theta(p) / 4.0 - 1e-12


@given(pmf_strategy)
@settings(max_examples=200, deadline=None)
def test_theta_range_and_characterization(p):
    th = theta(p)
    assert 0.0 <= th < 1.0
    ks = p.support
    has_adjacent = any(b - a == 1 for a, b in zip(ks, ks[1:]))
    assert (th > 0.0) == has_adjacent


@given(pmf_strategy, st.floats(0.01, 1000.0))
@settings(max_examples=100, deadline=None)
def test_weight_scaling_invariance(p, scale):
    q = make_pmf(p.v0, p.D, [(k, w * scale) for k, w in p.probs.items()])
    assert theta(q) == pytest.approx(theta(p), abs=1e-12)
    assert delta_smoothness(q) == pytest.approx(delta_smoothness(p), abs=1e-12)
    mp, vp = moments(p)
    mq, vq = moments(q)
    assert mq == pytest.approx(mp, abs=1e-11) and vq == pytest.approx(vp, abs=1e-10)
