"""Distinct-part partition counts: the exact counter against a Python-int
knapsack and an identity of its own, and the tilt of the two-point model."""

from __future__ import annotations

import math
import numpy as np
import pytest
from scipy.special import expit

from lltkit import (
    LatticeError,
    NumericsError,
    PreconditionError,
    count_partitions,
    count_via_enumeration,
    solve_sigma,
)
from lltkit import partition

from .test_convolve import _bits


class TestEnumeration:
    def test_known_small_values(self):
        assert count_via_enumeration(1, 6) == 4  # 6, 5+1, 4+2, 3+2+1
        assert count_via_enumeration(1, 10) == 10
        assert count_via_enumeration(3, 10) == 3  # 10, 7+3, 6+4
        assert count_via_enumeration(1, 1) == 1

    def test_single_part_case(self):
        for n in (1, 7, 30):
            assert count_via_enumeration(n, n) == 1

    def test_m_zero_reads_as_one(self):
        assert count_via_enumeration(0, 6) == count_via_enumeration(1, 6)

    def test_budget_enforced(self):
        # the budget is the cap on 1 + m + ... + n: 8386561 at n = 4095 and
        # 8390657 at n = 4096, against 2^23 = 8388608
        with pytest.raises(LatticeError, match="1 \\+ 1 \\+ ... \\+ 4096 = 8390657, above the cap"):
            count_via_enumeration(1, 4096)
        with pytest.raises(LatticeError, match="above the cap"):
            count_via_enumeration(2000, 4600)


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint16])
def test_numpy_integer_m_and_n(dtype):
    out = count_partitions(dtype(2), dtype(10))
    assert out == count_partitions(2, 10)
    assert type(out.m) is int and type(out.n) is int


def _residual_and_bound(m, n, sigma):
    """The residual of the centring equation at ``sigma`` and the rounding
    bound B of ``solve_sigma``'s docstring (scipy's expit, the doubles of
    ``_expit``)."""
    js = np.arange(m, n + 1, dtype=float)
    t = js * expit(-sigma * js)
    res = float(np.sum(t)) - n
    return res, 2.0**-52 * ((len(js) + 4) * float(np.sum(t))
                            + abs(sigma) * float(np.sum(js * t)) + abs(res))


def _assert_residual_within_rule(m, n, sigma):
    """The residual at ``sigma`` is at most ``SIGMA_RESIDUAL_TOL`` or B."""
    res, bound = _residual_and_bound(m, n, sigma)
    assert abs(res) <= partition.SIGMA_RESIDUAL_TOL or abs(res) <= bound, (m, n, res, bound)


class TestSolveSigma:
    def test_residual_within_tolerance(self):
        for m, n in [(1, 10), (2, 17), (5, 30), (1, 60)]:
            sigma = solve_sigma(m, n)
            js = np.arange(m, n + 1, dtype=float)
            residual = float(np.sum(js * expit(-sigma * js))) - n
            assert abs(residual) <= 1e-12

    @pytest.mark.parametrize("n", [60000, 100000])
    def test_large_n_residual_within_rounding(self, n):
        # the computed residual is a multiple of a half ulp of n here, above
        # 1e-12; the root is kept when it is within the rounding bound
        sigma = solve_sigma(1, n)
        js = np.arange(1, n + 1, dtype=float)
        residual = float(np.sum(js * expit(-sigma * js))) - n
        assert abs(residual) <= 4 * math.ulp(n)
        assert sigma == pytest.approx(math.pi / math.sqrt(12 * n), rel=0.01)

    @pytest.mark.parametrize("n", [60000, 100000])
    def test_large_n_stops_one_step_past_the_rounding_bound(self, monkeypatch, n):
        # no residual reaches 1e-12 here; the first one within B (about
        # 2 N n u, 8e-7 at n = 6e4) is that of the next-to-last iterate
        xs = []
        monkeypatch.setattr(partition, "_expit",
                            lambda x, f=partition._expit: xs.append(x) or f(x))
        sigma = solve_sigma(1, n)
        iterates = [-float(x[0]) for x in xs]  # x = -sigma j from j = 1
        within = []
        for s in iterates:
            res, bound = _residual_and_bound(1, n, s)
            assert abs(res) > partition.SIGMA_RESIDUAL_TOL
            within.append(abs(res) <= bound)
        assert within.index(True) == len(xs) - 2 and len(xs) <= 20
        assert iterates[-1] == sigma
        _assert_residual_within_rule(1, n, sigma)

    def test_negative_roots(self):
        # the parts n - 1 and n sum to 2n - 1 < 2n, so the root is negative,
        # near -1/n^2
        for n in range(3, 301):
            sigma = solve_sigma(n - 1, n)
            assert -2.0 / n**2 < sigma < 0, n
            _assert_residual_within_rule(n - 1, n, sigma)

    def test_degenerate_single_part(self):
        assert solve_sigma(1, 1) == float("-inf")
        assert solve_sigma(7, 7) == float("-inf")

    def test_sign_determined_by_midpoint(self):
        # at sigma = 0 the left side is sum(j)/2; root sign follows comparison with n
        m, n = 1, 10  # sum/2 = 27.5 > 10 -> positive root
        assert solve_sigma(m, n) > 0
        m, n = 29, 30  # sum/2 = 29.5 < 30 -> negative root
        assert solve_sigma(m, n) < 0
        m, n = 1, 3  # sum/2 = 3 = n: the first iterate is the root
        assert solve_sigma(m, n) == 0.0

    def test_infeasible_rejected(self):
        with pytest.raises(PreconditionError):
            solve_sigma(5, 4)

    def test_refused_when_the_loop_cannot_converge(self, monkeypatch):
        # a logistic stuck at one: g is sum_j j - n > 0 everywhere and g' is
        # 0, so every Newton step from the start pi / sqrt(12 n) of a positive
        # root is infinite and bisects the bracket [start, 1] toward its upper
        # end, and the residual never falls
        sigmas = []

        def stuck(x):
            sigmas.append(-float(x[0]) / 2)  # x = -sigma j, j = 2..10
            return np.ones_like(x)

        monkeypatch.setattr(partition, "_expit", stuck)
        with pytest.raises(NumericsError, match=r"centering equation residual 4\.400e\+01 above"):
            solve_sigma(2, 10)
        start = math.pi / math.sqrt(12 * 10)
        halves = [start, (start + 1) / 2, ((start + 1) / 2 + 1) / 2]
        assert sigmas[:3] == halves and halves[-1] < sigmas[-1] <= 1


class TestScipyRoutines:
    """``_expit`` gives the doubles of scipy's ``expit``, bit for bit, and
    ``solve_sigma``'s root, which it evaluates, meets its residual rule."""

    @pytest.mark.parametrize("m", range(1, 9))
    def test_root_and_logistic_on_the_partition_grid(self, m):
        # every (m, n) of the benchmark's partition grid, and the n between:
        # the residual rule, the root's sign from g(0) = sum_j j / 2 - n, and
        # the logistic at the root, its mirror and the bracket end sigma = -1
        for n in range(max(m, 2), 301):
            total = (m + n) * (n - m + 1) // 2
            if total <= n:
                continue
            root = solve_sigma(m, n)
            _assert_residual_within_rule(m, n, root)
            assert (root > 0) == (total > 2 * n) and (root < 0) == (total < 2 * n)
            js = np.arange(m, n + 1, dtype=float)
            for x in (-root * js, root * js, js):
                assert np.array_equal(_bits(partition._expit(x)), _bits(expit(x)))

    def test_logistic_where_exp_overflows(self):
        # C's exp(-x) is inf above MAXLOG, so expit is 0.0 there; math.exp
        # would raise
        edge = -partition._MAXLOG
        x = edge + np.arange(-50, 51) * 2.0**-43
        x = np.concatenate([x, [-710.0, -745.2, -1e308, -np.inf, np.inf, np.nan, 0.0, -0.0,
                                5e-324, 36.0, 37.0, 710.0, 1e308]])
        assert np.array_equal(_bits(partition._expit(x)), _bits(expit(x)))
        assert partition._expit(np.array([np.nextafter(edge, -np.inf)])).tolist() == [0.0]


class TestModelCount:
    def test_matches_enumeration_small(self):
        for (m, n), q in {(1, 6): 4, (1, 10): 10, (3, 10): 3}.items():
            assert count_partitions(m, n, "model").q_model == count_via_enumeration(m, n) == q

    def test_degenerate_uses_identity_default(self):
        inst = count_partitions(30, 30, "model")
        assert inst.q_model == 1 and inst.sigma is None

    def test_sigma_perturbation_invariance(self):
        # the identity holds for every sigma: evaluated through sum_law at
        # tilts off the centred one, it gives the exact count
        m, n = 2, 24
        sigma = solve_sigma(m, n)
        for ds in (-1e-3, 1e-3):
            q = _identity_count(m, n, sigma + ds)
            assert abs(q - round(q)) <= 1e-6 and round(q) == count_via_enumeration(m, n)

    def test_count_partitions_bundle(self):
        inst = count_partitions(3, 10)
        assert inst.q_model == inst.q_enum == 3
        assert inst.m == 3 and inst.n == 10

    @pytest.mark.parametrize("count", [count_partitions, count_via_enumeration, solve_sigma])
    def test_non_integral_m_or_n_refused(self, count):
        for m, n in ((2.7, 10), (3, 10.5), (3, "10")):
            with pytest.raises(LatticeError, match="must be an integer"):
                count(m, n)
        assert count(3.0, 10.0) == count(3, 10)

    def test_mode_selection(self):
        assert count_partitions(1, 12, "enum").q_model is None
        assert count_partitions(1, 12, "model").q_enum is None
        with pytest.raises(PreconditionError):
            count_partitions(1, 12, "fancy")


def _identity_count(m: int, n: int, sigma: float) -> float:
    """The counting identity at the tilt ``sigma``, ``P{Y = n}`` taken from
    sum_law in doubles (test oracle)."""
    from lltkit.convolve import sum_law
    from lltkit.lattice import make_pmf

    js = np.arange(m, n + 1, dtype=float)
    p_hit = expit(-sigma * js)
    law = sum_law([
        (make_pmf(0.0, 1.0, [(0, 1.0 - ph), (int(j), ph)]), 1)
        for j, ph in zip(js.astype(int), p_hit)
    ])
    return math.exp(sigma * n + float(np.sum(np.logaddexp(0.0, -sigma * js)))
                    + math.log(law.mass(n)))


def _knapsack_counts(m: int, n_max: int) -> list[int]:
    """``q_m(n)`` for every n <= n_max by the 0/1 knapsack over the parts
    m..n_max, in Python integers (parts above n never enter a sum to n)."""
    counts = [1] + [0] * n_max
    for j in range(m, n_max + 1):
        for t in range(n_max, j - 1, -1):
            counts[t] += counts[t - j]
    return counts


def test_grid_sample_model_equals_enumeration():
    # random spots; both fields hold the knapsack's count
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = int(rng.integers(1, 61))
        m = int(rng.integers(1, n + 1))
        inst = count_partitions(m, n, "both")
        assert inst.q_model == inst.q_enum == _knapsack_counts(m, n)[n], (m, n)


#: the (m, n) of the benchmark's partition requests: the model grid (n
#: 100..300 step 10), the model-vs-enumeration grid (n 10..60) and the
#: small model grid (n 20..60 step 10), m 1..8 on each
_BENCHMARK_GRID = sorted({(m, n) for m in range(1, 9)
                          for n in [*range(100, 301, 10), *range(10, 61)]})


def test_model_verdicts_on_the_benchmark_grid():
    # every (m, n) of the grid is counted, and the count is the knapsack's
    exact = {m: _knapsack_counts(m, 300) for m in range(1, 9)}
    for m, n in _BENCHMARK_GRID:
        assert count_partitions(m, n, "model").q_model == exact[m][n], (m, n)


def test_counts_past_2_to_44_certified():
    # the counts past 2^44 (from n = 409 on at m = 1), where a long double
    # spaces its values more than 1e-6 apart, are exact integers
    exact = _knapsack_counts(1, 409)
    assert exact[408] < 2**44 <= exact[409]
    assert count_partitions(1, 340, "model").q_model == exact[340]
    assert count_partitions(1, 409, "model").q_model == exact[409]


@pytest.mark.parametrize("m", range(1, 9))
def test_counter_equals_the_knapsack_up_to_500(m):
    exact = _knapsack_counts(m, 500)
    assert [count_via_enumeration(m, n) for n in range(1, 501)] == exact[1:]


@pytest.mark.parametrize("n", [12, 21, 22, 100, 777, 2500, 4000])
def test_counter_at_large_parts(n):
    # m = n - 10 and m = n / 2 leave at most two parts
    for m in (n - 10, n // 2):
        assert count_via_enumeration(m, n) == _knapsack_counts(m, n)[n], (m, n)


def test_counter_at_the_cap():
    # (1, 4095) is the largest n the cap admits at m = 1 (test_budget_enforced
    # refuses n = 4096); (2000, 4500), with 1 + 2000 + ... + 4500 = 8128251,
    # has the part 4500 and the 250 pairs a + b = 4500, 2000 <= a < b
    assert count_via_enumeration(1, 4095) == _knapsack_counts(1, 4095)[4095]
    assert count_via_enumeration(2000, 4500) == 251


def _q(m: int, n: int) -> int:
    """q_m(n) for every integer n: 1 at n = 0 (the empty partition) and 0
    below it."""
    return count_via_enumeration(m, n) if n >= 1 else int(n == 0)


def _under_the_cap(m: int, n: int) -> bool:
    return m > n or 1 + (m + n) * (n - m + 1) // 2 <= partition._CAP


def test_counter_splits_on_the_smallest_part():
    # q_m(n) = q_{m+1}(n) + q_{m+1}(n - m): the partitions without the part
    # m, and those with it, whose other parts are distinct and > m.  It is a
    # relation of the counts, not of the recurrence that computes them; it is
    # checked at seeded (m, n) up to the cap: any m, m near the smallest the
    # cap admits, m near n and m near n / 2
    rng = np.random.default_rng(48)
    cases = [(1, 1), (1, 2), (2, 3), (3, 5), (7, 6), (1, 4095), (2047, 4095)]
    for _ in range(60):
        n = int(math.exp(rng.uniform(0, math.log(2**22))))
        lo = max(1, math.isqrt(max(0, n * (n + 1) - 2 * partition._CAP)))
        while not _under_the_cap(lo, n):  # the smallest m the cap admits
            lo += 1
        near = (int(rng.integers(lo, n + 3)), lo + int(rng.integers(0, 4)),
                n - int(rng.integers(0, 12)), n // 2 + int(rng.integers(0, 3)))
        cases.append((max(lo, near[int(rng.integers(4))]), n))
    for m, n in cases:
        assert _under_the_cap(m, n)
        assert _q(m, n) == _q(m + 1, n) + _q(m + 1, n - m), (m, n)
    assert sum(n < m for m, n in cases) >= 3 and sum(n / 2 < m <= n for m, n in cases) >= 20
    assert sum(m < n / 2 and n > 1000 for m, n in cases) >= 5


class TestModelParts:
    """The two-point masses of the tilted model and its identity."""

    def test_two_masses_sum_to_one(self):
        # why make_pmf's normalization leaves 1 - p and p as they are
        rng = np.random.default_rng(0)
        p = np.concatenate([rng.random(10**5), 10.0 ** rng.uniform(-320, 0, 10**5),
                            1.0 - 10.0 ** rng.uniform(-17, 0, 10**5), [0.0, 0.5, 1.0]])
        assert np.all((1.0 - p) + p == 1.0)

    @pytest.mark.parametrize("m, n", [(2, 24), (1, 60), (1, 200), (3, 260), (8, 300)])
    def test_count_off_the_centred_tilt(self, m, n):
        # the identity holds for every sigma, so off the centred tilt it
        # still gives the exact count, to the rounding of sum_law's doubles
        # (at most 4.7e-15 relatively here)
        sigma, exact = solve_sigma(m, n), count_via_enumeration(m, n)
        for ds in (-1e-3, 1e-3):
            assert abs(_identity_count(m, n, sigma + ds) / exact - 1) <= 1e-13
