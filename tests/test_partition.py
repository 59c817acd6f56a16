"""Distinct-part partition counts: tilted model vs direct enumeration."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import expit

from lltkit import (
    LatticeError,
    NumericsError,
    PreconditionError,
    count_partitions,
    count_via_enumeration,
    count_via_model,
    make_pmf,
    solve_sigma,
    sum_law,
)
from lltkit import partition

from .test_convolve import _bits, _fresh_array_fold


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
        with pytest.raises(PreconditionError):
            count_via_enumeration(1, 61)


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint16])
def test_numpy_integer_m_and_n(dtype):
    out = count_partitions(dtype(2), dtype(10))
    assert out == count_partitions(2, 10)
    assert type(out.m) is int and type(out.n) is int


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

    def test_degenerate_single_part(self):
        assert solve_sigma(1, 1) == float("-inf")
        assert solve_sigma(7, 7) == float("-inf")

    def test_sign_determined_by_midpoint(self):
        # at sigma = 0 the left side is sum(j)/2; root sign follows comparison with n
        m, n = 1, 10  # sum/2 = 27.5 > 10 -> positive root
        assert solve_sigma(m, n) > 0
        m, n = 29, 30  # sum/2 = 29.5 < 30 -> negative root
        assert solve_sigma(m, n) < 0

    def test_infeasible_rejected(self):
        with pytest.raises(PreconditionError):
            solve_sigma(5, 4)


class TestScipyRoutines:
    """``_expit`` and ``_brentq`` give the doubles of scipy's ``expit`` and
    ``brentq``, bit for bit."""

    @pytest.mark.parametrize("m", range(1, 9))
    def test_root_and_logistic_on_the_partition_grid(self, m):
        # the bracket and tolerances of solve_sigma, one g for both solvers
        for n in range(max(m, 2), 301):
            if (m + n) * (n - m + 1) // 2 <= n:
                continue
            js = np.arange(m, n + 1, dtype=float)

            def g(s):
                return float(np.sum(js * expit(-s * js))) - n

            lo, hi = -1.0, 1.0
            while g(lo) < 0:
                lo *= 2.0
            while g(hi) > 0:
                hi *= 2.0
            root = partition._brentq(g, lo, hi, xtol=1e-15, rtol=8.9e-16, maxiter=200)
            assert root.hex() == brentq(g, lo, hi, xtol=1e-15, rtol=8.9e-16, maxiter=200).hex()
            for x in (-root * js, root * js, -lo * js):
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

    def test_brentq_refusals(self):
        with pytest.raises(NumericsError, match="no sign change"):
            partition._brentq(lambda x: x - 5.0, 0.0, 1.0, 1e-15, 8.9e-16, 200)
        with pytest.raises(NumericsError, match=r"did not converge \(maxiter = 1\)"):
            partition._brentq(lambda x: x**3 - 0.3, 0.0, 1.0, 1e-15, 8.9e-16, 1)


class TestModelCount:
    def test_matches_enumeration_small(self):
        assert count_via_model(1, 6) == 4
        assert count_via_model(1, 10) == 10
        assert count_via_model(3, 10) == 3

    def test_degenerate_uses_identity_default(self):
        assert count_via_model(30, 30) == 1

    def test_sigma_perturbation_invariance(self):
        # the identity holds for every sigma; perturbing it must not move the count
        m, n = 2, 24
        sigma = solve_sigma(m, n)
        for ds in (-1e-3, 1e-3):
            q = _perturbed_model_count(m, n, sigma + ds)
            assert q == count_via_model(m, n)

    def test_count_partitions_bundle(self):
        inst = count_partitions(3, 10)
        assert inst.q_model == inst.q_enum == 3
        assert inst.m == 3 and inst.n == 10

    @pytest.mark.parametrize("count", [count_partitions, count_via_model,
                                       count_via_enumeration, solve_sigma])
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


def _perturbed_model_count(m: int, n: int, sigma: float) -> int:
    """Evaluate the counting identity at an off-center tilt (test oracle)."""
    from lltkit.convolve import sum_law
    from lltkit.lattice import make_pmf

    js = np.arange(m, n + 1, dtype=float)
    p_hit = expit(-sigma * js)
    law = sum_law([
        (make_pmf(0.0, 1.0, [(0, 1.0 - ph), (int(j), ph)]), 1)
        for j, ph in zip(js.astype(int), p_hit)
    ])
    log_q = sigma * n + float(np.sum(np.logaddexp(0.0, -sigma * js))) + math.log(
        law.mass(n)
    )
    q = math.exp(log_q)
    assert abs(q - round(q)) <= 1e-6
    return round(q)


def test_grid_sample_model_equals_enumeration():
    # random spots up to the enumeration budget; the full 1 <= m <= n <= 30
    # grid runs in the acceptance suite
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = int(rng.integers(1, 61))
        m = int(rng.integers(1, n + 1))
        assert count_via_model(m, n) == count_via_enumeration(m, n)


def _knapsack_counts(m: int, n_max: int) -> list[int]:
    """``q_m(n)`` for every n <= n_max by the 0/1 knapsack over the parts
    m..n_max, in Python integers (parts above n never enter a sum to n)."""
    counts = [1] + [0] * n_max
    for j in range(m, n_max + 1):
        for t in range(n_max, j - 1, -1):
            counts[t] += counts[t - j]
    return counts


def test_model_verdicts_on_the_benchmark_grid():
    # the grid of the exact-oracles model partitions: every verdict is a
    # refusal or the exact count, never a wrong integer; 44 points were
    # refused before count-1 parts were folded by their atoms
    refused = []
    for m in range(1, 9):
        exact = _knapsack_counts(m, 300)
        for n in range(100, 301, 10):
            try:
                q = count_via_model(m, n)
            except NumericsError:
                refused.append((m, n))
                continue
            assert q == exact[n], (m, n)
    assert len(refused) <= 44, refused


class _Stop(Exception):
    """Ends a model count once its parts are recorded."""


def _model_parts(monkeypatch, m, n, sigma):
    """The parts _model_count(m, n, sigma) passes to sum_law."""
    calls = []

    def spy(parts):
        calls.append(parts)
        raise _Stop

    monkeypatch.setattr(partition, "sum_law", spy)
    with pytest.raises(_Stop):
        partition._model_count(m, n, sigma)
    return calls[0]


def _make_pmf_parts(m, n, sigma):
    """The parts as make_pmf builds them, at the tilt _model_count uses:
    sigma = -inf (m = n) is read as 0."""
    sigma = 0.0 if sigma == float("-inf") else sigma
    js = np.arange(m, n + 1, dtype=float)
    return [(make_pmf(0.0, 1.0, [(0, 1.0 - p), (int(j), p)]), 1)
            for j, p in zip(js, expit(-sigma * js))]


class TestModelParts:
    """_model_count builds its two-point parts without make_pmf, to the bit."""

    def test_parts_equal_make_pmf_on_the_benchmark_grid(self, monkeypatch):
        grid = [(m, n) for m in range(1, 9) for n in range(100, 301, 10)]
        for m, n in grid + [(1, 1), (7, 7), (300, 300)]:
            sigma = solve_sigma(m, n)
            assert _model_parts(monkeypatch, m, n, sigma) == _make_pmf_parts(m, n, sigma), (m, n)

    def test_two_masses_sum_to_one(self):
        # why make_pmf's normalization leaves 1 - p and p as they are
        rng = np.random.default_rng(0)
        p = np.concatenate([rng.random(10**5), 10.0 ** rng.uniform(-320, 0, 10**5),
                            1.0 - 10.0 ** rng.uniform(-17, 0, 10**5), [0.0, 0.5, 1.0]])
        assert np.all((1.0 - p) + p == 1.0)

    @pytest.mark.parametrize("sigma", [40.0, -40.0])
    def test_zero_masses_are_dropped(self, monkeypatch, sigma):
        # sigma = 40: P{X_j = j} is 0.0 from j = 19 on; sigma = -40: it is 1.0
        parts = _model_parts(monkeypatch, 1, 30, sigma)
        assert parts == _make_pmf_parts(1, 30, sigma)
        one_atom = [law.probs for law, _ in parts if len(law.probs) == 1]
        if sigma > 0:
            assert one_atom and all(probs == {0: 1.0} for probs in one_atom)
        else:
            assert len(one_atom) == 30 and one_atom[4] == {5: 1.0}

    @pytest.mark.parametrize("m, n", [(1, 100), (1, 300), (2, 250), (5, 260), (7, 280)])
    def test_model_mass_equals_the_fresh_fold(self, monkeypatch, m, n):
        # the mass the identity reads, bit for bit; three of these are refused
        sigma = solve_sigma(m, n)
        law = sum_law(_model_parts(monkeypatch, m, n, sigma))
        first, ref, _ = _fresh_array_fold(_make_pmf_parts(m, n, sigma))
        assert law.first == first == 0
        assert law.mass(n) == ref[n - first]
