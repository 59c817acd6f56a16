"""Distinct-part partition counts: tilted model vs direct enumeration."""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.special import expit

from lltkit import (
    LatticeError,
    NumericsError,
    PreconditionError,
    count_partitions,
    count_via_enumeration,
    count_via_model,
    solve_sigma,
)
from lltkit import partition
from lltkit.convolve import _gamma

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
        with pytest.raises(PreconditionError):
            count_via_enumeration(1, 61)


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
        # 0, so every Newton step is infinite and bisects the bracket [0, 1]
        # toward its upper end, and the residual never falls
        sigmas = []

        def stuck(x):
            sigmas.append(-float(x[0]) / 2)  # x = -sigma j, j = 2..10
            return np.ones_like(x)

        monkeypatch.setattr(partition, "_expit", stuck)
        with pytest.raises(NumericsError, match=r"centering equation residual 4\.400e\+01 above"):
            solve_sigma(2, 10)
        assert sigmas[:4] == [0.0, 0.5, 0.75, 0.875] and 0.875 < sigmas[-1] <= 1


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


#: the (m, n) of the benchmark's partition requests: the model grid (n
#: 100..300 step 10), the model-vs-enumeration grid (n 10..60) and the
#: small model grid (n 20..60 step 10), m 1..8 on each
_BENCHMARK_GRID = sorted({(m, n) for m in range(1, 9)
                          for n in [*range(100, 301, 10), *range(10, 61)]})


def _verdicts(grid):
    """The (m, n) of ``grid`` that ``count_via_model`` refuses; every count
    it gives must be the knapsack's."""
    exact = {m: _knapsack_counts(m, 300) for m in {m for m, _ in grid}}
    refused = []
    for m, n in grid:
        try:
            q = count_via_model(m, n)
        except NumericsError:
            refused.append((m, n))
            continue
        assert q == exact[m][n], (m, n)
    return refused


def test_model_verdicts_on_the_benchmark_grid():
    # every verdict is the exact count: the long-double knapsack refuses
    # none of them (the double fold of the whole law refused 43)
    assert _verdicts(_BENCHMARK_GRID) == []


def _ratio(x) -> Fraction:
    """A long double (or double) as an exact fraction."""
    return Fraction(*x.as_integer_ratio())


def _mpf(x) -> mpmath.mpf:
    """A long double (or double) as an mpmath number, exact at 40 digits."""
    num, den = x.as_integer_ratio()
    return mpmath.mpf(num) / den


@pytest.mark.parametrize("n", [760, 800, 900])
def test_counts_beyond_the_rounding_bound_refused(n):
    # at m = 1 the rounding bound E is near 1/2 from n = 497 on in long double
    # on x86-64 (n = 331 in double), and past it here: no single integer is
    # then within E of q^
    q_real, err = partition._model_estimate(1, n, solve_sigma(1, n))
    assert err > 0.5 and abs(_ratio(q_real) - _knapsack_counts(1, n)[n]) <= err
    with pytest.raises(NumericsError, match=r"rounding bound .* admits no single integer"):
        count_via_model(1, n)


def test_counts_past_2_to_44_certified():
    # the long-double spacing passes 1e-6 at 2^44, from n = 409 on at m = 1,
    # and n = 340 lands 1.9e-6 from an integer: the bound certifies both
    exact = _knapsack_counts(1, 409)
    assert exact[408] < 2**44 <= exact[409]
    assert count_via_model(1, 340) == exact[340] and count_via_model(1, 409) == exact[409]
    # q_1(45) = 2^11 is assembled just below it
    assert count_via_model(1, 45) == 2048


_FOLDS = pytest.mark.parametrize("fold", [np.longdouble, np.float64], ids=["longdouble", "double"])


@_FOLDS
@pytest.mark.parametrize("m", range(1, 9))
def test_certified_n_form_an_initial_segment(monkeypatch, fold, m):
    # every n from m on is certified with its exact count up to a first
    # refusal, and the 50 n after it are refused too
    monkeypatch.setattr(partition, "_FOLD", fold)
    exact, first = _knapsack_counts(m, 700), None
    for n in range(m, 701):
        try:
            q = count_via_model(m, n)
        except NumericsError:
            first = n if first is None else first
        else:
            assert first is None and q == exact[n], (m, n, first)
        if first is not None and n == first + 50:
            break
    assert first is not None and n == first + 50, (m, first)


def _assert_within_the_bound(m, n, sigma):
    """``|q^ - q_m(n)| <= E`` exactly, for the estimate at ``sigma``."""
    q_real, err = partition._model_estimate(m, n, sigma)
    assert abs(_ratio(q_real) - _knapsack_counts(m, n)[n]) <= Fraction(err), (m, n, sigma)


@_FOLDS
def test_rounding_bound_holds_on_drawn_instances(monkeypatch, fold):
    # fixed draws of (m, n) on both sides of the certified range
    monkeypatch.setattr(partition, "_FOLD", fold)
    rng = np.random.default_rng(37)
    for _ in range(40):
        n = int(rng.integers(1, 701))
        m = int(rng.integers(1, n + 1))
        _assert_within_the_bound(m, n, solve_sigma(m, n))


@_FOLDS
def test_rounding_bound_holds_off_the_centred_tilt(monkeypatch, fold):
    # the off-centre and steep tilts of TestModelParts; e^{1200} is past
    # the doubles, so the steep ones run in long double only
    monkeypatch.setattr(partition, "_FOLD", fold)
    for m, n in [(2, 24), (1, 60), (1, 200), (3, 260), (8, 300), (1, 450), (4, 520)]:
        for ds in (-1e-3, 1e-3):
            _assert_within_the_bound(m, n, solve_sigma(m, n) + ds)
    if fold is np.longdouble:
        for m, n, sigma in [(1, 30, 40.0), (2, 24, 40.0), (29, 30, -40.0), (5, 12, -40.0)]:
            _assert_within_the_bound(m, n, sigma)


@_FOLDS
def test_libm_within_the_rounding_model(fold):
    # the rounding model of the module docstring: exp and log within 4 u_e,
    # log1p within 8 u_e and logaddexp(0, x) within 13 u_e, relatively, of
    # 40-digit values, on arguments of the ranges the count evaluates
    rng = np.random.default_rng(5)
    ue = float(np.finfo(fold).epsneg)
    top = 1200 if np.finfo(fold).maxexp > 1024 else 700
    x = np.concatenate([rng.uniform(-top, top, 500), rng.uniform(-2, 2, 500)]).astype(fold)
    x = x * fold(1 + 1e-9)  # fill the long double's low bits
    small = np.exp(-np.abs(x))
    small = small[small > 0]

    def worst(f, g, args):  # the largest relative error of f against g
        with mpmath.workdps(40):
            return max(float(abs(_mpf(y) / g(_mpf(a)) - 1)) for a, y in zip(args, f(args)))

    def softplus(a):  # log(1 + e^a) without cancelling 1 + e^a
        return a + mpmath.log1p(mpmath.exp(-a)) if a > 0 else mpmath.log1p(mpmath.exp(a))

    assert worst(np.exp, mpmath.exp, x) <= 4 * ue
    assert worst(np.log, mpmath.log, np.concatenate([small, np.abs(x) + 1])) <= 4 * ue
    assert worst(np.log1p, mpmath.log1p, small) <= 8 * ue
    assert worst(lambda a: np.logaddexp(fold(0), a), softplus, x) <= 13 * ue


class TestModelParts:
    """The two-point masses of the tilted model and their knapsack."""

    def test_two_masses_sum_to_one(self):
        # why make_pmf's normalization leaves 1 - p and p as they are
        rng = np.random.default_rng(0)
        p = np.concatenate([rng.random(10**5), 10.0 ** rng.uniform(-320, 0, 10**5),
                            1.0 - 10.0 ** rng.uniform(-17, 0, 10**5), [0.0, 0.5, 1.0]])
        assert np.all((1.0 - p) + p == 1.0)

    @pytest.mark.parametrize("sigma", [0.0, 1e-3, 0.05, 40.0, -1e-3, -0.7, -40.0])
    def test_masses_are_within_a_unit_roundoff_of_one(self, sigma):
        # the heavier mass is 1 minus the lighter, so their exact sum is
        # within u_e of 1 (the conservation bound's first step); the lighter
        # is P{X_j = j} for sigma >= 0 and P{X_j = 0} below
        a, p = partition._tilted_masses(1, 300, sigma)
        ue = Fraction(float(np.finfo(partition._FOLD).epsneg))
        assert all(abs(_ratio(x) + _ratio(y) - 1) <= ue for x, y in zip(a, p))
        assert np.all((p <= 0.5) if sigma >= 0 else (a <= 0.5))

    @pytest.mark.parametrize("m, n", [(1, 12), (1, 40), (3, 33), (8, 40), (29, 30), (15, 20)])
    def test_fold_is_within_its_bound_of_the_exact_fold(self, m, n):
        # the same long-double masses folded in rational arithmetic: each
        # entry of 0..n is within gamma_2N relatively (module docstring), and
        # the computed total, prefix and carried mass, within the
        # conservation bound of 1
        a, p = partition._tilted_masses(m, n, solve_sigma(m, n))
        acc = partition._knapsack(a, p, m, n)
        exact = [Fraction(1)] + [Fraction(0)] * (2 * n)
        for j, aj, pj in zip(range(m, n + 1), map(_ratio, a), map(_ratio, p)):
            shifted = [pj * x for x in exact[:n + 1]]
            exact[:n + 1] = [aj * x for x in exact[:n + 1]]
            for k, x in enumerate(shifted):
                exact[j + k] += x
        parts, ue = n - m + 1, float(np.finfo(partition._FOLD).epsneg)
        rel, tiny = Fraction(_gamma(2 * parts, ue)), Fraction(2.0**-1073)
        for k in range(n + 1):
            assert abs(_ratio(acc[k]) - exact[k]) <= rel * exact[k] + parts * tiny
        drift = abs(_ratio(acc.sum()) - 1)
        assert drift <= Fraction(_gamma(3 * parts + 2 * n, ue))
        assert exact[n] > 0

    @pytest.mark.parametrize("m, n, sigma", [
        (1, 30, 40.0), (2, 24, 40.0), (29, 30, -40.0), (5, 12, -40.0),
    ])
    def test_count_at_a_steep_tilt(self, m, n, sigma):
        # P{Y = n} is near e^{-40 * 30} = e^{-1200} at (1, 30), which long
        # double holds; at sigma = -40 the part 29 is left out with
        # P{X_29 = 0} near e^{-1160}
        assert partition._model_count(m, n, sigma) == _knapsack_counts(m, n)[n]

    @pytest.mark.parametrize("m, n", [(2, 24), (1, 60), (1, 200), (3, 260), (8, 300)])
    def test_count_off_the_centred_tilt(self, m, n):
        # the identity holds for every sigma, so the count does not move
        sigma = solve_sigma(m, n)
        exact = _knapsack_counts(m, n)[n]
        for ds in (-1e-3, 1e-3):
            assert partition._model_count(m, n, sigma + ds) == exact

    def test_double_fold_refuses_no_grid_point(self, monkeypatch):
        # where long double is double (MSVC, macOS arm64) the fold runs in
        # double: every grid point still gets its exact count (the 1e-6
        # rule refused 47 of them)
        monkeypatch.setattr(partition, "_FOLD", np.float64)
        assert _verdicts(_BENCHMARK_GRID) == []

    @pytest.mark.parametrize("corrupt", ["carried-mass-lost", "one-entry-off", "below-an-ulp"])
    def test_corrupted_fold_trips_the_conservation_check(self, monkeypatch, corrupt):
        # "below-an-ulp" adds twice the bound, 8.1e-17 at (2, 150) in long
        # double, which a total rounded to double would not show
        knapsack = partition._knapsack
        ue = float(np.finfo(partition._FOLD).epsneg)

        def corrupted(a, p, m, n):
            acc = knapsack(a, p, m, n)
            if corrupt == "carried-mass-lost":
                acc[n + 1:] = 0
            elif corrupt == "one-entry-off":  # the largest entry off by 2^-40 of itself
                acc[np.argmax(acc[:n + 1])] *= 1 + 2**-40
            else:
                acc[0] += 2 * _gamma(3 * (n - m + 1) + 2 * n, ue)
            return acc

        monkeypatch.setattr(partition, "_knapsack", corrupted)
        with pytest.raises(NumericsError, match="knapsack mass drifted by"):
            count_via_model(2, 150)
