"""Counting partitions into distinct parts, exactly, and the tilt of their
two-point model.

``q_m(n)`` counts the ways to write n as a sum of distinct integers from
``[max(m, 1), n]``.  Taking independent two-point variables

    P{X_j = 0} = 1 / (1 + e^{-sigma j}),   P{X_j = j} = e^{-sigma j} / (1 + e^{-sigma j})

for j = m..n and any real sigma, the count satisfies the exact identity

    q_m(n) = e^{sigma n} * prod_{j=m..n} (1 + e^{-sigma j}) * P{sum_j X_j = n}.

The canonical tilt centers the sum at n by solving ``sum_{j=m..n} j / (1 +
e^{sigma j}) = n`` (the left side is strictly decreasing in sigma) by one
bracketed Newton iteration (:func:`solve_sigma`).  The logistic is lltkit's
own, :func:`_expit`, and gives the doubles of scipy's ``expit``, so a count
imports no scipy subpackage.

**The count.**  :func:`count_via_enumeration` gives q_m(n) itself, in
Python integers, summed over the number r of parts:

    q_m(n) = sum_{r >= 1} p_{<=r}(n - r m - r (r - 1) / 2),

with p_{<=r}(k) the number of partitions of k into at most r parts.  Take
the r parts in increasing order and subtract the staircase m, m + 1, ...,
m + r - 1 from them: what is left is r non-decreasing integers >= 0 that sum
to ``top_r = n - r m - r (r - 1) / 2``, a partition of top_r into at most r
parts, and adding the staircase back inverts the map.  By conjugation
p_{<=r}(k) also counts the partitions of k into parts <= r, so one array
``c`` serves every r: pass r adds the part r, ``c[k] += c[k - r]`` for k =
r..top_r in increasing k, after which ``c[k]`` counts the partitions of k
into parts <= r, and ``c[top_r]`` joins the sum.  top_r falls as r grows, so
no pass reads an entry above its own top, and the passes end at top_r < 0.

**The cap.**  Every mode refuses ``1 + m + ... + n`` above ``_CAP`` before
it counts or solves the tilt.  The cap bounds the count's work too: a pass
makes at most n additions, and there are at most ``r_max <= n - m + 1``
passes (r distinct parts from m..n), so at most ``n r_max <= (m + n) (n - m
+ 1) = 2 (m + ... + n)`` additions, under 2^24.  As ``r m + r (r - 1) / 2 <=
n``, r_max is also at most ``min(sqrt(2n) + 1, n / m)``: at m = 1, n =
4095, the largest n the cap admits there, the count took about 20 ms on one
core of a 2-core Intel Xeon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .convolve import _MAXLOG
from .errors import LatticeError, NumericsError, PreconditionError
from .lattice import _integral

#: residual target for the centering equation
SIGMA_RESIDUAL_TOL = 1e-12

#: the largest ``1 + m + ... + n`` counted, in every mode: it bounds the
#: additions of the recurrence (module docstring)
_CAP = 2**23


def _expit(x: np.ndarray) -> np.ndarray:
    """The logistic ``1 / (1 + e^-x)`` of each entry of the 1-d array ``x``,
    with libm's ``exp`` (``math.exp``): scipy's ``expit``, the same doubles."""
    t = -x
    e = np.fromiter(map(math.exp, np.minimum(t, _MAXLOG).tolist()), float, len(t))
    e[t > _MAXLOG] = np.inf  # C's exp overflows to inf there, where math.exp raises
    return 1.0 / (1.0 + e)


def _normalize(m: int, n: int) -> tuple[int, int]:
    """``m`` and ``n`` as ints, each an int or an integral float (anything else
    is a ``LatticeError``); parts are at least 1, so m = 0 is read as m = 1."""
    return max(_integral(m, "m"), 1), _integral(n, "n")


def solve_sigma(m: int, n: int) -> float:
    """Solve ``g(sigma) = sum_{j=m..n} j/(1 + e^{sigma j}) - n = 0`` for sigma.

    Returns ``-inf`` when the equation degenerates (total part mass equals n,
    i.e. m = n, where the only partition is {n} itself).  Raises when no
    partition exists at all.  Otherwise one Newton iteration finds the root.
    g is decreasing, convex for sigma > 0 and concave for sigma < 0
    (``expit''(x)`` has the sign of -x), so the root's side is the sign of
    ``g(0) = sum_j j / 2 - n``.  A root at or below 0 (``sum_j j <= 2n``) is
    approached from sigma = 0, and in exact arithmetic each step lands
    between its iterate and the root.  A positive root is approached from
    ``pi / sqrt(12 n)``, where m = 1's sum ``sum_j j / (1 + e^{sigma j})`` is
    about ``pi^2 / (12 sigma^2) - 1/24`` (Euler-Maclaurin) and g about
    ``-1/24``; a larger m or a sum cut at n only lowers g there, so the
    start lies at or above the root, where g is convex, and its step lands
    below the root, from where the steps rise to it as from sigma = 0.
    (From sigma = 0, Newton's steps toward a positive root grow only about
    1.5-fold each while g is near ``c / sigma^2 - n``.)  The root lies in
    [-1, 1]: ``sum_j j / (1 + e^j) < e / (e - 1)^2 < 1 <= n`` puts ``g(1) <
    0``, and with m < n the parts sum to at least ``2n - 1``, so ``g(-1) > n
    - 2 >= 0``.  The loop keeps that bracket, moving its lower end to each
    iterate with a positive residual and its upper end to each other one; a
    step that leaves the bracket, or is not finite, bisects it instead.
    Each step takes g and ``g' = -sum_j j^2 x_j (1 - x_j)``, ``x_j =
    expit(-sigma j)``, from one call of :func:`_expit`.

    The loop stops at a residual of ``SIGMA_RESIDUAL_TOL``, or one step
    after the computed residual r falls within the bound B on its rounding:
    Newton's next exact residual is then of order ``r^2 g'' / g'^2``, far
    below B, so its computed residual is rounding that further steps only
    redraw.  (Stopping at the first r within B accepts up to B itself, 8e-7
    at n = 6e4; there the first such r is 2.2e-8, and the step after it
    leaves 7.3e-12, one ulp of n.)  The root is refused only when r exceeds
    both that target and B, which happens when the loop runs out of steps.
    It evaluates g at most 7 times on the benchmark's partition grid (5.0 on
    average) and 3 times at m = 1, n = 6e4 and 1e5.  From n = 8192 on, r is
    a multiple of half an ulp of n, which is above 1e-12, so the target
    cannot always be met.

    r is ``fl(fl(sum_j t_j) - n)`` over the ``N = n - m + 1`` terms
    ``t_j = fl(j * expit(fl(-sigma j)))``.  With unit roundoff u and to first
    order, each term errs by the relative ``(|sigma| j + 5) u``: the rounded
    argument moves ``expit`` by ``|sigma| j u`` (as ``|d log expit(x)/dx| <=
    1``), ``_expit`` (scipy's ``expit``) is within 4u (measured: 2.2u) and the product
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
    # g(0) = total/2 - n: a positive root starts near m = 1's, pi / sqrt(12 n)
    sigma = math.pi / math.sqrt(12 * n) if total > 2 * n else 0.0
    lo, hi, settled = -1.0, 1.0, False
    for _ in range(100):
        x = _expit(-sigma * js)
        t = js * x
        res = float(np.sum(t)) - n
        # the bound B of the docstring; 2**-52 is 2u
        bound = 2.0**-52 * ((len(js) + 4) * float(np.sum(t))
                            + abs(sigma) * float(np.sum(js * t)) + abs(res))
        if abs(res) <= SIGMA_RESIDUAL_TOL or settled:
            break
        settled = abs(res) <= bound
        if res > 0:
            lo = sigma
        else:
            hi = sigma
        slope = float(np.sum(js * t * (1 - x)))  # -g'(sigma)
        step = sigma + res / slope if slope else math.inf
        sigma = step if lo <= step <= hi else (lo + hi) / 2
    if abs(res) > SIGMA_RESIDUAL_TOL and abs(res) > bound:
        raise NumericsError(f"centering equation residual {res:.3e} above tolerance "
                            f"{SIGMA_RESIDUAL_TOL:.0e} and rounding bound {bound:.3e}")
    return sigma


def count_via_enumeration(m: int, n: int) -> int:
    """``q_m(n)``, the number of partitions of n into distinct parts >= m,
    in Python integers by the recurrence over the number of parts (module
    docstring); ``1 + m + ... + n`` above ``_CAP`` is a ``LatticeError``."""
    m, n = _normalize(m, n)
    if n < 1:
        raise PreconditionError(f"need n >= 1, got {n}")
    if m <= n and (length := 1 + (m + n) * (n - m + 1) // 2) > _CAP:
        raise LatticeError(f"partition model: 1 + {m} + ... + {n} = {length}, above the cap "
                           f"of {_CAP}")
    c = [1] + [0] * (n - m)  # c[k]: partitions of k into parts <= r, k <= top_r
    total, r, top = 0, 1, n - m
    while top >= 0:
        for k in range(r, top + 1):
            c[k] += c[k - r]
        total += c[top]
        r += 1
        top -= m + r - 1
    return total


@dataclass(frozen=True)
class PartitionInstance:
    """One solved instance: the tilt and the count, in ``q_model`` and
    ``q_enum`` as the mode asks (the same integer in both).  ``sigma`` is
    None where the centring equation degenerates (m = n), so the JSON holds
    ``null`` there, not the ``-Infinity`` that RFC 8259 lacks."""

    m: int
    n: int
    sigma: float | None
    q_model: int | None
    q_enum: int | None


def count_partitions(m: int, n: int, mode: str = "both") -> PartitionInstance:
    """Count, solve the tilt and package the result: ``model`` fills
    ``q_model``, ``enum`` fills ``q_enum``, ``both`` fills the two.  The cap
    of :func:`count_via_enumeration` comes before the tilt, so a refused n
    costs no work in n."""
    if mode not in ("model", "enum", "both"):
        raise PreconditionError(f"unknown mode {mode!r}")
    m, n = _normalize(m, n)
    q = count_via_enumeration(m, n)
    sigma = solve_sigma(m, n)
    return PartitionInstance(m=m, n=n, sigma=None if sigma == -math.inf else sigma,
                             q_model=q if mode != "enum" else None,
                             q_enum=q if mode != "model" else None)
