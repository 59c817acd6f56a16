"""Counting partitions into distinct parts through a tilted two-point model.

``q_m(n)`` counts the ways to write n as a sum of distinct integers from
``[max(m, 1), n]``.  Taking independent two-point variables

    P{X_j = 0} = 1 / (1 + e^{-sigma j}),   P{X_j = j} = e^{-sigma j} / (1 + e^{-sigma j})

for j = m..n and any real sigma, the count satisfies the exact identity

    q_m(n) = e^{sigma n} * prod_{j=m..n} (1 + e^{-sigma j}) * P{sum_j X_j = n}.

sigma only affects numerical conditioning; the canonical choice centers the
sum at n by solving ``sum_{j=m..n} j / (1 + e^{sigma j}) = n`` (the left side
is strictly decreasing in sigma) by Brent's method.  The logistic and the
root finder are lltkit's own, :func:`_expit` and :func:`_brentq`, and give
the doubles of scipy's ``expit`` and ``brentq``, so a count imports no scipy
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
depends on the rounding, not on a precondition.  ``count_via_model(1,
300)`` takes 2.6-3.5 ms, 0.65-0.87 ms of it :func:`solve_sigma`, against
11.9-15.1 ms for the fold of the whole law (best of 40 calls, shared 2-core
Intel Xeon, NumPy 2.4).
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


def _brentq(f, xa: float, xb: float, xtol: float, rtol: float, maxiter: int) -> float:
    """A root of ``f`` in the bracket ``[xa, xb]`` by Brent's method (R.
    Brent, *Algorithms for Minimization without Derivatives*, 1973), line for
    line scipy's C ``brentq``, so its steps and its root are the same doubles:
    inverse quadratic or secant steps kept within the bracket, bisection
    otherwise, until the bracket is within ``xtol + rtol |x|``."""
    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise NumericsError(f"no sign change on [{xa}, {xb}]")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # a good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise NumericsError(f"Brent's method did not converge (maxiter = {maxiter})")


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

    def g(s: float) -> float:
        return float(np.sum(js * _expit(-s * js))) - n

    lo, hi = -1.0, 1.0
    while g(lo) < 0:
        lo *= 2.0
    while g(hi) > 0:
        hi *= 2.0
    sigma = _brentq(g, lo, hi, xtol=1e-15, rtol=8.9e-16, maxiter=200)
    # polish with Newton steps; g is smooth and strictly decreasing
    for _ in range(8):
        res = g(sigma)
        if abs(res) <= SIGMA_RESIDUAL_TOL:
            break
        slope = -float(np.sum(js * js * _expit(sigma * js) * _expit(-sigma * js)))
        sigma -= res / slope
    res = g(sigma)
    if abs(res) > SIGMA_RESIDUAL_TOL:
        t = js * _expit(-sigma * js)
        # the bound B of the docstring; 2**-52 is 2u
        bound = 2.0**-52 * ((len(js) + 4) * float(np.sum(t))
                            + abs(sigma) * float(np.sum(js * t)) + abs(res))
        if abs(res) > bound:
            raise NumericsError(f"centering equation residual {res:.3e} above tolerance "
                                f"{SIGMA_RESIDUAL_TOL:.0e} and rounding bound {bound:.3e}")
    return float(sigma)


def count_via_model(m: int, n: int) -> int:
    """Evaluate the tilted-model identity and return the integer count.

    ``P{Y = n}`` comes from the long-double knapsack of the module
    docstring and the product is assembled in log space; the pre-rounding
    distance to the nearest integer must be at most 1e-6.
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
    identity assembled in ``_FOLD`` and held to the 1e-6 rule (module
    docstring)."""
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
    nearest = np.rint(q_real)
    if abs(q_real - nearest) > 1e-6:
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
    """One solved instance: tilt parameter and the two counts."""

    m: int
    n: int
    sigma: float
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
    return PartitionInstance(m=m, n=n, sigma=sigma, q_model=q_model, q_enum=q_enum)
