"""Counting partitions into distinct parts through a tilted two-point model.

``q_m(n)`` counts the ways to write n as a sum of distinct integers from
``[max(m, 1), n]``.  Taking independent two-point variables

    P{X_j = 0} = 1 / (1 + e^{-sigma j}),   P{X_j = j} = e^{-sigma j} / (1 + e^{-sigma j})

for j = m..n and any real sigma, the count satisfies the exact identity

    q_m(n) = e^{sigma n} * prod_{j=m..n} (1 + e^{-sigma j}) * P{sum_j X_j = n}.

sigma only affects numerical conditioning; the canonical choice centers the
sum at n by solving ``sum_{j=m..n} j / (1 + e^{sigma j}) = n`` (the left side
is strictly decreasing in sigma).  ``P{sum X_j = n}`` is read from
:func:`lltkit.convolve.sum_law` over the n - m + 1 two-point laws as count-1
parts; each is folded by its two atoms, two shifted adds of the running
array, about n^3/3 multiply-adds in all where a convolution over each part's
span would take n^4/8.  The assembled real number must land within 1e-6 of
an integer or the computation is rejected rather than silently rounded;
which n are refused depends on the rounding of that law, not on a
precondition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.special import expit

from .convolve import sum_law
from .errors import NumericsError, PreconditionError
from .lattice import make_pmf

#: enumeration budget for the brute-force counter
ENUMERATION_LIMIT = 60

#: residual target for the centering equation
SIGMA_RESIDUAL_TOL = 1e-12


def _normalize_m(m: int) -> int:
    # parts are at least 1; m = 0 is read as m = 1
    return max(int(m), 1)


def _centering_lhs(sigma: float, m: int, n: int) -> float:
    js = np.arange(m, n + 1, dtype=float)
    return float(np.sum(js * expit(-sigma * js)))


def solve_sigma(m: int, n: int) -> float:
    """Solve ``sum_{j=m..n} j/(1 + e^{sigma j}) = n`` for sigma.

    Returns ``-inf`` when the equation degenerates (total part mass equals n,
    i.e. m = n, where the only partition is {n} itself).  Raises when no
    partition exists at all.  Otherwise the returned root has equation
    residual at most 1e-12.
    """
    m = _normalize_m(m)
    if n < 1:
        raise PreconditionError(f"need n >= 1, got {n}")
    if m > n:
        raise PreconditionError(f"no parts available: m = {m} > n = {n}")
    total = (m + n) * (n - m + 1) // 2
    if total < n:
        raise PreconditionError(f"infeasible: sum of available parts {total} < n = {n}")
    if total == n:
        return float("-inf")

    def g(s: float) -> float:
        return _centering_lhs(s, m, n) - n

    lo, hi = -1.0, 1.0
    while g(lo) < 0:
        lo *= 2.0
    while g(hi) > 0:
        hi *= 2.0
    sigma = brentq(g, lo, hi, xtol=1e-15, rtol=8.9e-16, maxiter=200)
    # polish with Newton steps; g is smooth and strictly decreasing
    for _ in range(8):
        res = g(sigma)
        if abs(res) <= SIGMA_RESIDUAL_TOL:
            break
        js = np.arange(m, n + 1, dtype=float)
        slope = -float(np.sum(js * js * expit(sigma * js) * expit(-sigma * js)))
        sigma -= res / slope
    if abs(g(sigma)) > SIGMA_RESIDUAL_TOL:
        raise NumericsError(f"centering equation residual {g(sigma):.3e} above tolerance")
    return float(sigma)


def count_via_model(m: int, n: int) -> int:
    """Evaluate the tilted-model identity and return the integer count.

    The product is assembled in log space; the pre-rounding distance to the
    nearest integer must be at most 1e-6.
    """
    m = _normalize_m(m)
    return _model_count(m, n, solve_sigma(m, n))


def _model_count(m: int, n: int, sigma: float) -> int:
    """:func:`count_via_model` at the solved tilt ``sigma`` of ``(m, n)``."""
    if sigma == float("-inf"):
        sigma = 0.0  # the identity holds for every sigma; pick a benign one
    js = np.arange(m, n + 1, dtype=float)
    p_hit = expit(-sigma * js)  # P{X_j = j}
    law = sum_law([(make_pmf(0.0, 1.0, [(0, 1.0 - ph), (int(j), ph)]), 1)
                   for j, ph in zip(js.astype(int), p_hit)])
    p_y = law.mass(n)
    if p_y <= 0.0:
        raise NumericsError(f"P{{Y = {n}}} vanished; identity cannot be assembled")
    log_q = sigma * n + float(np.sum(np.logaddexp(0.0, -sigma * js))) + math.log(p_y)
    q_real = math.exp(log_q)
    nearest = round(q_real)
    if abs(q_real - nearest) > 1e-6:
        raise NumericsError(
            f"model count {q_real!r} is {abs(q_real - nearest):.3e} from an integer; "
            "refusing to round"
        )
    return int(nearest)


def count_via_enumeration(m: int, n: int) -> int:
    """Count partitions of n into distinct parts >= m by the 0/1 knapsack
    over the parts m..n: ``counts[t]`` is the number of ways to write t with
    the parts taken so far.

    Pure integer arithmetic; refuses n beyond the enumeration budget.
    """
    m = _normalize_m(m)
    if n < 1:
        raise PreconditionError(f"need n >= 1, got {n}")
    if n > ENUMERATION_LIMIT:
        raise PreconditionError(f"enumeration budget exceeded: n = {n} > {ENUMERATION_LIMIT}")
    counts = [1] + [0] * n
    for j in range(m, n + 1):
        for t in range(n, j - 1, -1):
            counts[t] += counts[t - j]
    return counts[n]


@dataclass(frozen=True)
class PartitionInstance:
    """One solved instance: tilt parameter and the two counts."""

    m: int
    n: int
    sigma: float
    q_model: int | None
    q_enum: int | None

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "sigma": self.sigma,
            "q_model": self.q_model,
            "q_enum": self.q_enum,
        }


def count_partitions(m: int, n: int, mode: str = "both") -> PartitionInstance:
    """Run the requested counters and package the result."""
    if mode not in ("model", "enum", "both"):
        raise PreconditionError(f"unknown mode {mode!r}")
    m = _normalize_m(m)
    sigma = solve_sigma(m, n)
    q_model = _model_count(m, n, sigma) if mode in ("model", "both") else None
    q_enum = count_via_enumeration(m, n) if mode in ("enum", "both") else None
    if q_model is not None and q_enum is not None and q_model != q_enum:
        raise NumericsError(f"model count {q_model} disagrees with enumeration {q_enum}")
    return PartitionInstance(m=m, n=n, sigma=sigma, q_model=q_model, q_enum=q_enum)
