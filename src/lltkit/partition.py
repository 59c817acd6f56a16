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
span would take n^4/8.  Beyond its array passes a part costs O(1) work on
Python scalars: the parts are built as ``LatticePmf`` directly, with the
masses ``make_pmf`` would store, and the kernel reads their two atoms as
scalars.  ``count_via_model(1, 300)`` takes 10.5-11.2 ms (best of 40
calls, shared 2-core Intel Xeon, NumPy 2.4).  The assembled real number
must land within 1e-6 of an integer or the computation is rejected rather
than silently rounded; which n are refused depends on the rounding of that
law, not on a precondition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy  # scipy.special is loaded by its first attribute access

from .convolve import _check_length, sum_law
from .errors import NumericsError, PreconditionError
from .lattice import LatticePmf, _integral

#: enumeration budget for the brute-force counter
ENUMERATION_LIMIT = 60

#: residual target for the centering equation
SIGMA_RESIDUAL_TOL = 1e-12


def _normalize(m: int, n: int) -> tuple[int, int]:
    """``m`` and ``n`` as ints, each an int or an integral float (anything else
    is a ``LatticeError``); parts are at least 1, so m = 0 is read as m = 1."""
    return max(_integral(m, "m"), 1), _integral(n, "n")


def solve_sigma(m: int, n: int) -> float:
    """Solve ``sum_{j=m..n} j/(1 + e^{sigma j}) = n`` for sigma.

    Returns ``-inf`` when the equation degenerates (total part mass equals n,
    i.e. m = n, where the only partition is {n} itself).  Raises when no
    partition exists at all.  Otherwise Newton steps polish the root toward
    a residual of ``SIGMA_RESIDUAL_TOL``; the root is refused only when its
    computed residual r exceeds both that target and the bound B on the
    rounding of r.  From n = 8192 on, r is a multiple of half an ulp of n,
    which is above 1e-12, so the target cannot always be met.

    r is ``fl(fl(sum_j t_j) - n)`` over the ``N = n - m + 1`` terms
    ``t_j = fl(j * expit(fl(-sigma j)))``.  With unit roundoff u and to first
    order, each term errs by the relative ``(|sigma| j + 5) u``: the rounded
    argument moves ``expit`` by ``|sigma| j u`` (as ``|d log expit(x)/dx| <=
    1``), scipy's ``expit`` is within 4u (measured: 2.2u) and the product
    adds u.  A sum of N non-negative terms in any order errs by ``(N - 1) u``
    times their sum (Higham, *Accuracy and Stability of Numerical
    Algorithms*, ch. 4), the subtraction of n by ``u |r|``.  Doubling covers
    the higher-order terms while ``(N + |sigma| n + 5) u <= 1/2``:

        B = 2 u ((N + 4) sum_j t_j + |sigma| sum_j j t_j + |r|),

    about ``2 N n u``, as ``sum_j t_j`` is about n at the root.
    """
    m, n = _normalize(m, n)
    if n < 1:
        raise PreconditionError(f"need n >= 1, got {n}")
    if m > n:
        raise PreconditionError(f"no parts available: m = {m} > n = {n}")
    total = (m + n) * (n - m + 1) // 2
    if total < n:
        raise PreconditionError(f"infeasible: sum of available parts {total} < n = {n}")
    if total == n:
        return float("-inf")

    js = np.arange(m, n + 1, dtype=float)

    def g(s: float) -> float:
        return float(np.sum(js * scipy.special.expit(-s * js))) - n

    lo, hi = -1.0, 1.0
    while g(lo) < 0:
        lo *= 2.0
    while g(hi) > 0:
        hi *= 2.0
    from scipy.optimize import brentq  # on first use, so importing lltkit skips scipy.optimize

    sigma = brentq(g, lo, hi, xtol=1e-15, rtol=8.9e-16, maxiter=200)
    # polish with Newton steps; g is smooth and strictly decreasing
    for _ in range(8):
        res = g(sigma)
        if abs(res) <= SIGMA_RESIDUAL_TOL:
            break
        slope = -float(np.sum(js * js * scipy.special.expit(sigma * js)
                              * scipy.special.expit(-sigma * js)))
        sigma -= res / slope
    res = g(sigma)
    if abs(res) > SIGMA_RESIDUAL_TOL:
        t = js * scipy.special.expit(-sigma * js)
        # the bound B of the docstring; 2**-52 is 2u
        bound = 2.0**-52 * ((len(js) + 4) * float(np.sum(t))
                            + abs(sigma) * float(np.sum(js * t)) + abs(res))
        if abs(res) > bound:
            raise NumericsError(f"centering equation residual {res:.3e} above tolerance "
                                f"{SIGMA_RESIDUAL_TOL:.0e} and rounding bound {bound:.3e}")
    return float(sigma)


def count_via_model(m: int, n: int) -> int:
    """Evaluate the tilted-model identity and return the integer count.

    The product is assembled in log space; the pre-rounding distance to the
    nearest integer must be at most 1e-6.
    """
    return count_partitions(m, n, "model").q_model


def _model_count(m: int, n: int, sigma: float) -> int:
    """:func:`count_via_model` at the solved tilt ``sigma`` of ``(m, n)``."""
    if sigma == float("-inf"):
        sigma = 0.0  # the identity holds for every sigma; pick a benign one
    js = np.arange(m, n + 1, dtype=float)
    p_hit = scipy.special.expit(-sigma * js)  # P{X_j = j}
    # the masses make_pmf stores for [(0, 1 - p), (j, p)], a zero mass dropped:
    # their fsum, the rounded (1 - p) + p, is 1.0 for every p in [0, 1] (1 - p
    # is exact for p >= 1/2 and off by at most 2^-54 below), so normalizing
    # leaves both as they are
    law = sum_law([(LatticePmf(0.0, 1.0, {k: w for k, w in ((0, a), (j, b)) if w > 0}), 1)
                   for j, a, b in zip(range(m, n + 1), (1.0 - p_hit).tolist(), p_hit.tolist())])
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
    m, n = _normalize(m, n)
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


def count_partitions(m: int, n: int, mode: str = "both") -> PartitionInstance:
    """Run the requested counters and package the result.

    The model's law length cap (its parts m..n span ``sum_j j`` points) and
    then the enumeration, with its budget, come before the tilt is solved,
    so a refused n costs no work in n."""
    if mode not in ("model", "enum", "both"):
        raise PreconditionError(f"unknown mode {mode!r}")
    m, n = _normalize(m, n)
    if mode != "enum" and m <= n:
        _check_length(1 + (m + n) * (n - m + 1) // 2)
    q_enum = count_via_enumeration(m, n) if mode != "model" else None
    sigma = solve_sigma(m, n)
    q_model = _model_count(m, n, sigma) if mode != "enum" else None
    if q_model is not None and q_enum is not None and q_model != q_enum:
        raise NumericsError(f"model count {q_model} disagrees with enumeration {q_enum}")
    return PartitionInstance(m=m, n=n, sigma=sigma, q_model=q_model, q_enum=q_enum)
