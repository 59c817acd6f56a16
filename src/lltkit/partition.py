"""Counting partitions into distinct parts through a tilted two-point model.

``q_m(n)`` counts the ways to write n as a sum of distinct integers from
``[max(m, 1), n]``.  Taking independent two-point variables

    P{X_j = 0} = 1 / (1 + e^{-sigma j}),   P{X_j = j} = e^{-sigma j} / (1 + e^{-sigma j})

for j = m..n and any real sigma, the count satisfies the exact identity

    q_m(n) = e^{sigma n} * prod_{j=m..n} (1 + e^{-sigma j}) * P{sum_j X_j = n}.

sigma only affects numerical conditioning; the canonical choice centers the
sum at n by solving ``sum_{j=m..n} j / (1 + e^{sigma j}) = n`` (the left side
is strictly decreasing in sigma) by one bracketed Newton iteration
(:func:`solve_sigma`).  The logistic is lltkit's own, :func:`_expit`, and
gives the doubles of scipy's ``expit``, so a count imports no scipy
subpackage.

**The knapsack.**  Every atom is >= 0, so mass that passes n never comes
back, and ``P{Y = n}`` is the last entry of a weighted 0/1 knapsack over
the indices 0..n: part j maps ``acc[k]`` to ``a_j acc[k] + p_j acc[k - j]``
(``a_j = P{X_j = 0}``, ``p_j = P{X_j = j}``), the float twin of
:func:`count_via_enumeration`'s loop.  That is three array passes of n + 1
entries per part, O(n^2) in all, where folding the whole law of ``sum_j
j`` points took about n^3/3 multiply-adds.  The mass a part carries past n is
added onto the entries n + 1..2n, where it stays, never scaled again, for
the conservation check.  Of the two masses the lighter is the logistic
``1 / (1 + e^{|sigma| j})`` and the heavier is 1 minus it, so both keep
their relative accuracy for either sign of sigma.

**Precision.**  The fold, the masses and the assembly ``sigma n + sum_j
log(1 + e^{-sigma j}) + log P{Y = n}`` run in ``_FOLD``, ``np.longdouble``,
with unit roundoff ``u_e`` (2^-64 on x86-64).  Double is not enough: the
count reaches 1.1e11 at n = 300, so the 1e-6 rule asks for a relative
error near 1e-17, and the double fold of the whole law refused 43 of the
576 (m, n) of the benchmark's partition requests (m 1..8, n 10..60 and
100..300 step 10); the long-double knapsack refuses none of them.  Where
long double is double (MSVC, macOS arm64), ``u_e = 2^-53``: the bounds
below loosen, 45 of those 576 are refused, and none gets a wrong count (a
test runs the fold in double).

**Error bounds**, with ``gamma_k = k u_e / (1 - k u_e)`` (Higham, *Accuracy
and Stability of Numerical Algorithms*, ch. 3) and N = n - m + 1 parts:

- *each entry*: ``fl(fl(a x_k) + fl(p x_{k-j}))`` rounds each of its two
  non-negative terms twice, so after N parts every entry of 0..n, ``P{Y =
  n}`` among them, is within ``gamma_2N`` relatively of the exact fold of
  the stored masses (3.3e-17 at n = 300), plus ``2N 2^-1074`` for
  underflow;
- *conservation*: the heavier mass is ``fl(1 - light)``, so ``s_j = a_j +
  p_j`` is within ``u_e`` of 1.  With X the mass on 0..n and C the carried
  mass, a part maps their exact total to ``s_j X + C``, and each computed
  entry, on 0..n or carried, is within ``gamma_2`` of its value from the
  entries before, so the computed total M moves by a factor within
  ``(1 + gamma_2)(1 + u_e)`` of 1 per part, and ``|M - 1| <= gamma_3N``.
  Summing its 2n + 1 entries adds ``gamma_2n``, and underflow at most
  ``2^-1074`` per product:

      |T - 1| <= gamma_(3N + 2n) + 2 (n + 1) N 2^-1074,

  computed in double and rounded up by ``1 + 2^-40``; a larger drift raises
  :class:`NumericsError`.  On the benchmark's (m, n) the drift is at most
  6% of it, in long double and in double.

The assembled count must land within 1e-6 of an integer or the
computation is refused rather than silently rounded; which n are refused
depends on the rounding, not on a precondition.  Where the spacing of
``_FOLD`` at the count exceeds 1e-6, every value is within 1e-6 of an
integer and the rule certifies nothing, so such a count is refused too: in
long double that is every count of 2^44 (about 1.8e13) or more, from n =
409 at m = 1 (the rule alone passes a wrong integer from n = 760 on).
Certifying those counts needs an interval on the count, not a rounding
rule.  ``count_via_model(1, 300)`` takes 1.9-2.2 ms, 0.40-0.57 ms of it
:func:`solve_sigma`, against 11.9-15.1 ms for the fold of the whole law
(best of 40 calls, shared 2-core Intel Xeon, NumPy 2.4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .convolve import _MAXLOG, _check_length, _gamma
from .errors import NumericsError, PreconditionError
from .lattice import _integral

#: enumeration budget for the brute-force counter
ENUMERATION_LIMIT = 60

#: residual target for the centering equation
SIGMA_RESIDUAL_TOL = 1e-12

#: how far the assembled count may lie from an integer and still be rounded
#: to it; a count where the spacing of ``_FOLD`` exceeds it is refused
INTEGER_TOL = 1e-6

#: the precision of the model's knapsack: long double (a 64-bit significand
#: on x86-64; double where the platform's long double is double)
_FOLD = np.longdouble


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
    partition exists at all.  Otherwise one Newton iteration from sigma = 0
    finds the root.  g is decreasing, convex for sigma > 0 and concave for
    sigma < 0 (``expit''(x)`` has the sign of -x), so the root's side is the
    sign of ``g(0) = sum_j j / 2 - n`` and, in exact arithmetic, each step
    from sigma = 0 lands between its iterate and the root.  The root lies in
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
    at n = 6e4; there the first such r is 8.7e-11, and the step after it
    leaves 7.3e-12, one ulp of n.)  The root is refused only when r exceeds
    both that target and B, which happens when the loop runs out of steps.
    It evaluates g at most 11 times on the benchmark's partition grid and 19
    times at n = 1e5.  From n = 8192 on, r is a multiple of half an ulp of
    n, which is above 1e-12, so the target cannot always be met.

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
    lo, hi, sigma, settled = -1.0, 1.0, 0.0, False
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


def count_via_model(m: int, n: int) -> int:
    """Evaluate the tilted-model identity and return the integer count.

    ``P{Y = n}`` comes from the long-double knapsack of the module
    docstring and the product is assembled in log space; the pre-rounding
    distance to the nearest integer must be at most 1e-6, and a count whose
    spacing in ``_FOLD`` exceeds 1e-6 (2^44 or more in long double) is
    refused.
    """
    return count_partitions(m, n, "model").q_model


def _tilted_masses(m: int, n: int, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """``P{X_j = 0}`` and ``P{X_j = j}`` for j = m..n at the tilt ``sigma``,
    in ``_FOLD``: the lighter of the two is the logistic ``1 / (1 + e^{|sigma|
    j})`` and the heavier is 1 minus it (``sigma >= 0``: the mass at j is the
    lighter)."""
    t = np.arange(m, n + 1).astype(_FOLD) * _FOLD(abs(sigma))
    with np.errstate(over="ignore"):  # e^t is inf past the range, and light is 0
        light = 1 / (1 + np.exp(t))
    heavy = 1 - light
    return (heavy, light) if sigma >= 0 else (light, heavy)


def _knapsack(a: np.ndarray, p: np.ndarray, m: int, n: int) -> np.ndarray:
    """The law of ``Y = sum_j X_j`` on 0..n, for the parts ``j = m..n`` with
    ``P{X_j = 0} = a[j - m]`` and ``P{X_j = j} = p[j - m]``, followed on
    n + 1..2n by the mass each part carried past n, kept where it landed and
    never scaled again.  Part j maps ``acc[k]`` to ``a_j acc[k] + p_j acc[k -
    j]`` on 0..n, ``count_via_enumeration``'s loop with weights."""
    acc = np.zeros(2 * n + 1, dtype=a.dtype)
    acc[0] = 1
    law, shifted = acc[:n + 1], np.empty(n + 1, dtype=a.dtype)
    for j, aj, pj in zip(range(m, n + 1), a, p):
        np.multiply(law, pj, out=shifted)
        law *= aj
        acc[j:j + n + 1] += shifted
    return acc


def _model_count(m: int, n: int, sigma: float) -> int:
    """:func:`count_via_model` at the tilt ``sigma`` of ``(m, n)`` (any real
    sigma; ``-inf``, the solved tilt of m = n, is read as 0): the masses,
    their knapsack, its conservation check, ``P{Y = n} > 0``, and the
    identity assembled in ``_FOLD``, refused where the spacing of ``_FOLD``
    exceeds the 1e-6 rule and otherwise held to it (module docstring)."""
    if sigma == float("-inf"):
        sigma = 0.0  # the identity holds for every sigma; pick a benign one
    a, p = _tilted_masses(m, n, sigma)
    acc = _knapsack(a, p, m, n)
    # the conservation bound of the module docstring, rounded up
    ue, parts = float(np.finfo(_FOLD).epsneg), n - m + 1
    bound = (_gamma(3 * parts + 2 * n, ue) + 2 * (n + 1) * parts * 2.0**-1074) * (1.0 + 2.0**-40)
    drift = float(abs(acc.sum() - 1))
    if not drift <= bound:
        raise NumericsError(f"knapsack mass drifted by {drift:.3e}, beyond its error bound "
                            f"{bound:.3e}")
    p_y = acc[n]
    if p_y <= 0:
        raise NumericsError(f"P{{Y = {n}}} vanished; identity cannot be assembled")
    s = _FOLD(sigma)
    js = np.arange(m, n + 1).astype(_FOLD)
    q_real = np.exp(s * n + np.logaddexp(_FOLD(0), -s * js).sum() + np.log(p_y))
    # the gap to the next value up; np.spacing gives NaN for the long double
    # just below a power of two (NumPy 2.4)
    spacing = np.nextafter(q_real, _FOLD(np.inf)) - q_real
    if not spacing <= INTEGER_TOL:  # every value there is within the rule of an integer
        raise NumericsError(
            f"model count {float(q_real)!r} is where the fold's spacing is "
            f"{float(spacing):.3e}, above the {INTEGER_TOL:.0e} rule; refusing to round"
        )
    nearest = np.rint(q_real)
    if abs(q_real - nearest) > INTEGER_TOL:
        raise NumericsError(
            f"model count {float(q_real)!r} is {float(abs(q_real - nearest)):.3e} from an "
            "integer; refusing to round"
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
    """One solved instance: tilt parameter and the two counts.  ``sigma`` is
    None where the centring equation degenerates (m = n), so the JSON holds
    ``null`` there, not the ``-Infinity`` that RFC 8259 lacks."""

    m: int
    n: int
    sigma: float | None
    q_model: int | None
    q_enum: int | None


def count_partitions(m: int, n: int, mode: str = "both") -> PartitionInstance:
    """Run the requested counters and package the result.

    The model's length cap, ``1 + sum_j j`` points over its parts m..n (the
    whole law's length, though the knapsack holds only 2n + 1 entries, so
    the same n are refused as when the whole law was folded), and then the
    enumeration, with its budget, come before the tilt is solved, so a
    refused n costs no work in n."""
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
    return PartitionInstance(m=m, n=n, sigma=None if sigma == -math.inf else sigma,
                             q_model=q_model, q_enum=q_enum)
