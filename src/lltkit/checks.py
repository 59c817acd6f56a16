"""Offline checks: the fair-coin certificate of c0 and the paper's identities.

Nothing here runs on a request: no command imports this module, and
``lltkit`` reads the names of its ``_CHECKS`` from here on first access.
The checks are what the tests, the acceptance criteria and the demos read.

- **The fair-coin certificate.**  :func:`calibrate_c0_scan` gives the
  n^{3/2}-scaled gap between the Binomial(n, 1/2) pmf and its Gaussian
  comparison at every n up to a bound, :func:`c0_scan_error_bound` the
  floating-point error of each entry, and :func:`certified_registry` proves,
  with an analytic tail bound checked in interval arithmetic, that
  :data:`lltkit.bounds.DEFAULT_C0` bounds the gap at every n.
  :func:`refined_bernoulli_comparison` is the quartic-corrected comparison
  term, and :func:`de_moivre_envelope` the multiplicative Gaussian band of
  a Binomial(n, p) pmf in the moderate-deviation range.
- **Brute-force statistics of exact laws.**  :func:`iid_sum` is the law of
  n i.i.d. copies, :func:`kolmogorov_distance` the exact sup-distance of a
  standardized law from Phi and :func:`llt_discrepancy` the scaled
  sup-distance of its point probabilities from the Gaussian curve.
- **Random walks in random scenery.**  :func:`theta_n_scenery` is Theta_n,
  and :func:`c_hk` the revisit correction
  ``c_{h,k} = sum_r vartheta_r P{U_h = r, U_k = r}`` of one pair of steps,
  nonzero only for walks that can revisit, such as lazy or +-1 walks; the
  sum over all pairs enters the second-moment identity that
  :func:`lltkit.scenery.second_moment_check` checks.  The conditional
  summands ``Y_k = V_{U_k} + (D/2) eps_{U_k}`` satisfy the covariance
  factorization

      Cov(1_A(Y_h), 1_B(Y_k)) = beta_A * beta_B * Cov(vartheta_{U_h}, vartheta_{U_k})

  with ``beta`` a second-difference functional of the indicator
  (:func:`beta_functional`); in particular a constant profile makes the Y_k
  i.i.d., which is what lets the plain two-sided envelope apply verbatim to
  the composed sum.  :func:`y_covariance_factorization` checks it exactly
  by enumerating the increment paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bounds import DEFAULT_C0, DEFAULT_CE, ConstantsRegistry
from .convolve import _U, SumLaw, _kolmogorov_distance, sum_law
from .errors import LatticeError, NumericsError, PreconditionError
from .lattice import LatticePmf, _integral, theta
from .scenery import (SceneryModel, _check_budget, _iter_paths, _revisit_term, _site_table,
                      _walk_table)


# ---------------------------------------------------------------------------
# calibration of the fair-coin comparison constant


def binomial_half_pmf(n: int) -> np.ndarray:
    """pmf of Binomial(n, 1/2) over z = 0..n by the ratio recurrence.

    The whole half row z <= n/2 is that of :func:`_half_rows`, mirrored; the
    computed row is symmetric by construction and nondecreasing up to its
    center (see :func:`calibrate_c0_scan`).
    """
    n = _integral(n, "n")
    if n < 0:
        raise LatticeError(f"need n >= 0, got {n}")
    c = n // 2
    half = _half_rows(np.array([n]), c + 1, _centers(n - c))[0, c::-1]
    return np.concatenate([half, half[:(n + 1) // 2][::-1]])


#: consecutive n whose half rows :func:`calibrate_c0_scan` evaluates as one
#: 2-D array, and whose window check it reruns on whole half rows if one fails
_SCAN_BLOCK = 128

#: entries per sqrt(n) in the central window of the half row that
#: :func:`calibrate_c0_scan` evaluates: the window edge lies 2 * _SCAN_WINDOW
#: standard deviations from the center
_SCAN_WINDOW = 3.0


def _centers(m_max: int) -> np.ndarray:
    """``C(2m, m)/4^m`` for m = 0..m_max, one cumprod of ``(2i - 1)/(2i)``:
    the center entry ``b_n(n // 2)`` of every n with ``ceil(n/2) = m``."""
    two_i = 2.0 * np.arange(1, m_max + 1)
    return np.cumprod(np.concatenate(([1.0], (two_i - 1.0) / two_i)))


def _half_rows(n: np.ndarray, width: int, centers: np.ndarray) -> np.ndarray:
    """Row i holds ``b(n//2 - j)`` for j = 0..width of the pmf b of
    Binomial(n[i], 1/2), outward from the center value in ``centers``
    (:func:`_centers`) by ``b(z - 1) = b(z) * z/(n - z + 1)``: one cumprod
    along each row.  The ratio into z = -1 is 0.0, so every entry below
    z = 0 is a zero."""
    c = n // 2
    j = np.arange(1.0, width + 1.0)
    rows = np.empty((len(n), width + 1))
    rows[:, 0] = centers[n - c]
    ratio = rows[:, 1:]
    np.subtract((c + 1.0)[:, None], j, out=ratio)
    ratio /= (n - c)[:, None] + j
    return np.cumprod(rows, axis=1, out=rows)


def _gauss_terms(n: np.ndarray, width: int) -> np.ndarray:
    """``sqrt(2/(pi n)) exp(-(2z - n)^2/(2n))`` at the entries of
    :func:`_half_rows`, z = n//2 - j, as the doubles that numpy gives for
    that formula: ``(2z - n)^2 = (2j + n % 2)^2`` is an exact integer, read
    from a table of both parities."""
    twice_j = 2.0 * np.arange(width + 1)
    gauss = np.array([twice_j**2, (twice_j + 1.0) ** 2])[n % 2]
    gauss /= -2.0 * n[:, None]
    np.exp(gauss, out=gauss)
    gauss *= np.sqrt(2.0 / (np.pi * n))[:, None]
    return gauss


def _block_gaps(n: np.ndarray, width: int, centers: np.ndarray) -> tuple[np.ndarray, bool]:
    """Per n of ``n``, the largest ``|b(z) - g(z)|`` over the ``width + 1``
    entries of :func:`_half_rows`, each at z >= 0, and whether the window
    check of :func:`calibrate_c0_scan` shows that no entry further out is
    larger."""
    rows = _half_rows(n, width, centers)
    gauss = _gauss_terms(n, width)
    lo = n[0] // 2 + 1  # entries j >= lo lie below z = 0 for some n: whole rows only
    below = gauss[:, lo:]
    below[np.arange(lo, width + 1) > (n // 2)[:, None]] = 0.0
    edge = np.maximum(rows[:, -1], gauss[:, -1] * (1.0 + 1e-9))
    gauss -= rows
    gap = np.abs(gauss, out=gauss).max(axis=1)
    return gap, bool((edge <= gap).all())


def calibrate_c0_scan(n_max: int) -> np.ndarray:
    """Per-n scaled gaps ``n^{3/2} * sup_z |pmf(z) - sqrt(2/(pi n)) e^{-(2z-n)^2/(2n)}|``.

    Entry i holds the value for n = i + 1.  The running maximum of this array
    is the calibrated constant.

    Each entry is the largest absolute difference over the whole half row
    ``z <= n/2`` of :func:`binomial_half_pmf` (the center value
    ``C(2m, m)/4^m``, m = ceil(n/2), then ``b(z - 1) = b(z) z/(n - z + 1)``
    outward), times ``n**1.5``, with the Gaussian of the formula.  Three facts
    let the scan evaluate a central window of the half row for the same
    doubles.

    1. *Symmetry.*  The full row is the half row mirrored, so symmetric by
       construction, and so is the computed Gaussian, because ``(2z - n)^2``
       is the same double at z and n - z.
    2. *Monotone half row.*  Every ratio ``z/(n - z + 1)`` with ``z <= n/2``
       is at most 1, and rounding is monotone, so the computed entries do
       not increase away from the center: the row entry at the outer end
       of a central window bounds every row entry further out.
    3. *Gaussian tail.*  The Gaussian term at the window's outer end, times
       ``1 + 1e-9`` for the few ulps of ``exp``, bounds every computed
       Gaussian term further out.

    With ``|b - g| <= max(b, g)`` for non-negative doubles b and g, no entry
    beyond the window can exceed the window's largest gap when both bounds
    are at most that gap.  ``_SCAN_BLOCK`` consecutive n are evaluated as
    one 2-D array, on the ``ceil(_SCAN_WINDOW * sqrt(n)) + 1`` entries of
    each half row nearest its center, n the block's largest.  If the check
    fails for any n of the block, or a window would reach below z = 0, the
    block is evaluated on whole half rows instead.  No state passes from one
    n to the next, and a cumprod's prefix does not depend on its length, so
    a window holds the doubles of the whole half row: the result depends on
    neither constant.
    """
    n_max = _integral(n_max, "n_max")
    if n_max < 1:
        raise LatticeError(f"need n_max >= 1, got {n_max}")
    centers = _centers((n_max + 1) // 2)
    out = np.array([n**1.5 for n in range(1, n_max + 1)])  # numpy's power may round apart
    for start in range(1, n_max + 1, _SCAN_BLOCK):
        n = np.arange(start, min(start + _SCAN_BLOCK, n_max + 1))
        whole = n[-1] // 2 + 1
        width = math.ceil(_SCAN_WINDOW * math.sqrt(n[-1]))
        gap, covered = _block_gaps(n, width if start // 2 >= width else whole, centers)
        if not covered:
            gap, _ = _block_gaps(n, whole, centers)
        out[start - 1:n[-1]] *= gap
    return out


def refined_bernoulli_comparison(n: int, z: int) -> float:
    """Refined comparison term for the fair binomial pmf at z.

    Evaluates the inversion integral

        (1/(pi sqrt(n))) * Int_R exp(-i (2z-n) v / sqrt(n) - v^2/2 - v^4/(12 n)) dv

    keeping the quartic term of ``n log cos(v/sqrt(n))`` that the plain
    Gaussian term drops.  The integrand is even, so the value is real and is
    computed as a cosine transform; truncation at |v| = 12 and the quadrature
    tolerance keep the absolute error below 1e-12.  Replacing the Gaussian
    comparison by this term shrinks the error from order n^{-3/2} to order
    n^{-5/2} (up to logarithmic factors).
    """
    if n < 1 or not (0 <= z <= n):
        raise LatticeError(f"need n >= 1 and 0 <= z <= n, got n={n}, z={z}")
    x = (2.0 * z - n) / math.sqrt(n)

    def integrand(v: float) -> float:
        return math.exp(-0.5 * v * v - v**4 / (12.0 * n))

    from scipy.integrate import quad  # on first use, so importing lltkit skips scipy.integrate

    val, _ = quad(integrand, 0.0, 12.0, weight="cos", wvar=x, epsabs=1e-14, limit=400)
    return 2.0 * val / (math.pi * math.sqrt(n))


#: roundings charged per scan entry to the Gaussian term, the difference and
#: the n^{3/2} scaling, in units of the unit roundoff.  About 14 are needed,
#: allowing 4 ulps for ``np.exp``; the rest is room to spare.
_SCAN_ROUNDING_ULPS = 32

#: split point u0 of the tail proof in :func:`certified_registry`
C0_TAIL_U0 = 0.4

#: least n with ``c0_tail_bound(n) < sqrt(2/pi)/4`` at u0 = C0_TAIL_U0; the
#: tail bound stays below that limit for every larger n
C0_TAIL_N_STAR = 224


def c0_scan_error_bound(n_max: int) -> np.ndarray:
    """Bound on the floating-point error of each entry of ``calibrate_c0_scan(n_max)``.

    Entry i bounds ``|computed - s_n|`` for n = i + 1, where s_n is the exact
    scaled gap.  Every pmf value and Gaussian value at n is at most
    ``P_n = sqrt(2/(pi n))``: for n = 2m, ``C(2m, m)/4^m <= 1/sqrt(pi m)``,
    and the odd-n maximum is that value times ``(2m+1)/(2m+2)``, which stays
    below ``P_{2m+1}``.  With ``gamma_k = (1+u)^k - 1 <= k u / (1 - k u)``
    (Higham, *Accuracy and Stability of Numerical Algorithms*, ch. 3), the
    computed half row (:func:`_half_rows`) is within ``gamma_{2n} b_n +
    n 2^-1074`` of the pmf b_n:

    - the center value ``C(2m, m)/4^m``, m = ceil(n/2), is a product of m
      quotients ``(2i - 1)/(2i)`` of exact doubles, each rounded once, with
      at most m roundings of the products: within ``gamma_{2m}``;
    - the entry k steps out multiplies it by k quotients ``z/(n - z + 1)``
      of exact integers, one rounding for each quotient and one for each
      product: within ``gamma_{2m+2k} <= gamma_{2n}`` relatively, as
      ``m + k <= ceil(n/2) + floor(n/2) = n``;
    - below the normal range a product is off by an absolute 2^-1075 at
      most instead; the later factors, rounded ratios below 1, carry it
      outward by less than ``(1 + u)^{2k} < 2``, which adds less than
      ``k 2^-1074 <= n 2^-1074``.

    The Gaussian term, the difference and the final scaling cost
    ``_SCAN_ROUNDING_ULPS`` roundings relative to P_n at most; this includes
    ``u/e`` for the rounded exponent argument.  With
    ``n^{3/2} P_n = sqrt(2/pi) n``, the bound is

        sqrt(2/pi) n (gamma_{2n} + 32 u) + n^{3/2} (n + 2) 2^-1074.

    At n = 10^4 it is about 1.8e-8, against the 2.5e-6 between the scan
    maximum and sqrt(2/pi)/4.  It covers the windowed scan too, which
    returns the doubles of whole half rows.
    """
    n_max = _integral(n_max, "n_max")
    if n_max < 1:
        raise LatticeError(f"need n_max >= 1, got {n_max}")
    u = _U
    n = np.arange(1, n_max + 1, dtype=float)
    gamma = 2.0 * n * u / (1.0 - 2.0 * n * u)
    underflow = n**1.5 * (n + 2.0) * 2.0**-1074
    return math.sqrt(2.0 / math.pi) * n * (gamma + _SCAN_ROUNDING_ULPS * u) + underflow


def _interval_context():
    from mpmath.ctx_iv import MPIntervalContext

    ctx = MPIntervalContext()
    ctx.dps = 40
    return ctx


def _gap_limit(ctx):
    """Enclosure of sqrt(2/pi)/4, the limit of the scaled fair-coin gap."""
    return ctx.sqrt(2 / ctx.pi) / 4


def _tail_bound_interval(ctx, n: int):
    u0 = ctx.mpf(C0_TAIL_U0)
    c_u0 = (-ctx.log(ctx.cos(u0)) - u0**2 / 2 - u0**4 / 12) / (u0**6 / 45)
    k = ctx.sqrt(2 * ctx.pi) / (3 * ctx.pi)
    root = ctx.sqrt(ctx.mpf(n))
    return (
        _gap_limit(ctx) * (1 - ctx.mpf(105) / (72 * n) + ctx.mpf(10395) / (2592 * n * n))
        + k * c_u0 / n
        + root**3 * ctx.cos(u0) ** n
        + 2 * root * ctx.exp(-(u0**2) * n / 2) / (ctx.pi * u0)
    )


def c0_tail_bound(n: int) -> float:
    """Upper bound T(n) on the scaled fair-coin gap s_n, valid for every n >= 1.

    The formula and its proof are in :func:`certified_registry`; the value is
    enclosed in interval arithmetic and rounded up to a double.
    """
    if n < 1:
        raise LatticeError(f"need n >= 1, got {n}")
    return math.nextafter(float(_tail_bound_interval(_interval_context(), n).b), math.inf)


def certified_registry(n0: int) -> ConstantsRegistry:
    """Registry whose c0, :data:`DEFAULT_C0`, bounds the scaled fair-coin gap
    at every n >= 1; its ce is the default.

    Let b_n be the Binomial(n, 1/2) pmf, ``x = (2z - n)/sqrt(n)``,
    ``g_n(z) = sqrt(2/(pi n)) exp(-x^2/2)`` and
    ``s_n = n^{3/2} sup_z |b_n(z) - g_n(z)|`` (the entries of
    :func:`calibrate_c0_scan`).  s_n tends to ``L = sqrt(2/pi)/4`` from
    below, so the returned c0, the smallest double not below L (checked in
    interval arithmetic: c0 >= L and its predecessor < L), is the least
    double that bounds every s_n.  It does not depend on n0, which only sets
    where the scan hands over to the tail.

    **Scan, n <= n0.**  Every entry of ``calibrate_c0_scan(n0)`` (half
    rows by the binomial ratio recurrence) plus its
    :func:`c0_scan_error_bound` must lie strictly below c0.  At n0 = 10^4
    the largest entry plus its bound is 0.19946866421..., 2.5e-6 below c0,
    with bounds up to 1.8e-8.

    **Tail, n > n0.**  With ``u0 = C0_TAIL_U0 = 0.4``,
    ``K = sqrt(2 pi)/(3 pi)`` and
    ``C(u0) = (-log cos u0 - u0^2/2 - u0^4/12) / (u0^6/45) = 1.0512...``,
    every n >= 1 has ``s_n <= T(n)`` (:func:`c0_tail_bound`), where

        T(n) = L (1 - 105/(72 n) + 10395/(2592 n^2)) + K C(u0)/n
               + n^{3/2} cos(u0)^n + 2 sqrt(n) exp(-u0^2 n/2) / (pi u0).

    1. Inverting the characteristic function ``e^{i t n/2} cos^n(t/2)`` and
       substituting ``v = t sqrt(n)/2`` gives
       ``b_n(z) = (1/(pi sqrt n)) Int_{|v| <= pi sqrt(n)/2} cos^n(v/sqrt n) cos(x v) dv``;
       g_n(z) is the same integral of ``exp(-v^2/2)`` over R, and r_n(z)
       that of ``exp(-v^2/2 - v^4/(12 n))`` (the untruncated
       :func:`refined_bernoulli_comparison`).  Split
       ``b - g = (b - r) + (r - g)`` and bound ``|cos(x v)|`` by 1.
    2. ``r - g``: ``0 <= 1 - e^{-t} <= t - t^2/2 + t^3/6`` at
       ``t = v^4/(12 n)``, and ``Int e^{-v^2/2} v^k dv = (3, 105, 10395)
       sqrt(2 pi)`` for k = 4, 8, 12, give
       ``n^{3/2} |r - g| <= L (1 - 105/(72 n) + 10395/(2592 n^2))``.
    3. ``b - r`` on ``|v| <= u0 sqrt(n)``: ``-log cos u = u^2/2 + u^4/12 +
       R(u)``, and R has only positive Taylor coefficients
       (``u^6/45 + 17 u^8/2520 + ...``), so ``R(u) <= C(u0) u^6/45`` for
       ``|u| <= u0``.  At ``u = v/sqrt(n)`` this gives
       ``|cos^n(u) - exp(-v^2/2 - v^4/(12 n))| <= e^{-v^2/2} n R(u)
       <= C(u0) e^{-v^2/2} v^6 / (45 n^2)``, and
       ``Int e^{-v^2/2} v^6 dv = 15 sqrt(2 pi)`` turns it into ``K C(u0)/n``.
    4. b on ``u0 sqrt(n) < |v| <= pi sqrt(n)/2``: there
       ``0 <= cos^n(v/sqrt n) <= cos(u0)^n`` on a set shorter than
       ``pi sqrt(n)``, which gives ``n^{3/2} cos(u0)^n``.
    5. r on ``|v| > u0 sqrt(n)``: its integrand is at most ``e^{-v^2/2}``,
       and ``Int_{|v| > a} e^{-v^2/2} dv <= 2 e^{-a^2/2}/a``, which gives
       ``2 sqrt(n) exp(-u0^2 n/2) / (pi u0)``.

    T(n) < L for every ``n >= N* = C0_TAIL_N_STAR = 224``:
    ``n (T(n) - L) = G(n) - m`` with ``m = 105 L/72 - K C(u0) = 0.01131...``
    and ``G(n) = n^{5/2} cos(u0)^n + 2 n^{3/2} exp(-u0^2 n/2)/(pi u0) +
    10395 L/(2592 n)``.  Each term of G decreases once
    ``n >= max(5/(2 (-log cos u0)), 3/u0^2) = 30.4...``, so
    ``G(n) <= G(N*) < m``.  Interval arithmetic checks here that this
    threshold is at most N* and that ``T(N*) < L``; N* is the least n with
    ``T(n) < L`` at this u0.  Hence ``s_n < L <= c0`` for every n > n0.

    n0 must be an integer (a :class:`LatticeError` otherwise).  Raises
    :class:`PreconditionError` when ``n0 < N*``, since the n in
    ``(n0, N*)`` would then be covered by neither part.
    """
    n0 = _integral(n0, "n0")
    if n0 < C0_TAIL_N_STAR:
        raise PreconditionError(
            f"certified c0 needs a scan up to n0 >= N* = {C0_TAIL_N_STAR}, "
            f"where the analytic tail takes over; got n0 = {n0}"
        )
    ctx = _interval_context()
    limit = _gap_limit(ctx)
    c0 = DEFAULT_C0
    if not (
        (ctx.mpf(c0) >= limit) is True
        and (ctx.mpf(math.nextafter(c0, -math.inf)) < limit) is True
    ):
        raise NumericsError(f"c0 = {c0!r} is not the smallest double >= sqrt(2/pi)/4")
    u0 = ctx.mpf(C0_TAIL_U0)
    # interval comparisons return True only when they hold on the whole enclosure
    decreasing_from = (5 / (-2 * ctx.log(ctx.cos(u0))), 3 / u0**2)
    if not (
        all((start <= C0_TAIL_N_STAR) is True for start in decreasing_from)
        and (_tail_bound_interval(ctx, C0_TAIL_N_STAR) < limit) is True
    ):
        raise NumericsError(
            f"tail bound not certified below sqrt(2/pi)/4 from N* = {C0_TAIL_N_STAR}"
        )
    worst = calibrate_c0_scan(n0) + c0_scan_error_bound(n0)
    if not (worst < c0).all():
        bad = int(np.argmax(worst >= c0)) + 1
        raise NumericsError(f"scan entry at n = {bad} plus its error bound reaches c0 = {c0!r}")
    return ConstantsRegistry(
        c0=c0,
        provenance=(
            f"c0: certified for every n: the smallest double >= sqrt(2/pi)/4, the limit of the "
            f"n^(3/2)-scaled binomial/Gaussian gap; exact scan with floating-point error bounds "
            f"for n <= {n0} (largest entry plus bound {float(worst.max())!r}), analytic tail bound "
            f"for n > {n0} (below the limit from N* = {C0_TAIL_N_STAR}). "
            f"ce: {DEFAULT_CE} (user-supplied default)."
        ),
    )


# ---------------------------------------------------------------------------
# moderate-deviation binomial band


def de_moivre_envelope(n: int, p: float, k: int, gamma: float) -> tuple[float, float]:
    """Multiplicative Gaussian band for the Binomial(n, p) pmf at k.

    Returns ``(estimate, bound)`` with ``estimate = exp(-x^2/2)/sqrt(2 pi n p q)``
    for ``x = (k - n p)/sqrt(n p q)``, and the guarantee

        estimate * exp(-bound) <= C(n, k) p^k q^(n-k) <= estimate * exp(+bound),

    valid whenever ``|x| <= gamma * sqrt(pq n)`` for a fixed ``0 < gamma < 1``.

    Writing ``s = sqrt(npq)`` and E for the log-ratio of the pmf to the
    estimate, a Stirling expansion splits E into (i) the entropy remainder,
    a series starting with the skew term ``(q - p) x^3 / (6 s)`` and bounded
    by ``|x|^3 / (6 (1-gamma) s)``, (ii) the prefactor term
    ``-(1/2) log((k/(np)) ((n-k)/(nq)))``, which starts with
    ``-(q - p) x / (2 s)`` and is bounded by ``|x| / (2 (1-gamma) s)``, and
    (iii) Stirling remainders bounded by ``1/(4 n min(p, q) (1 - gamma))``.
    The returned bound is the sum of the three; at ``k = np`` only (iii)
    survives.
    """
    if not (0.0 < p < 1.0):
        raise LatticeError(f"need 0 < p < 1, got {p}")
    if not (0.0 < gamma < 1.0):
        raise LatticeError(f"need 0 < gamma < 1, got {gamma}")
    if n < 1:
        raise LatticeError(f"need n >= 1, got {n}")
    q = 1.0 - p
    s2 = n * p * q
    s = math.sqrt(s2)
    x = (k - n * p) / s
    if abs(x) > gamma * math.sqrt(p * q) * math.sqrt(n) * (1.0 + 1e-12):
        raise PreconditionError(
            f"deviation |x| = {abs(x):.6g} outside the admissible window "
            f"gamma*sqrt(pq*n) = {gamma * math.sqrt(p * q * n):.6g}"
        )
    estimate = math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi * s2)
    ax = abs(x)
    bound = (
        ax**3 / (6.0 * (1.0 - gamma) * s)
        + ax / (2.0 * (1.0 - gamma) * s)
        + 1.0 / (4.0 * n * min(p, q) * (1.0 - gamma))
    )
    return estimate, bound


# ---------------------------------------------------------------------------
# brute-force statistics of exact laws


def iid_sum(pmf: LatticePmf, n: int) -> SumLaw:
    """Exact law of the sum of n independent copies of ``pmf``."""
    return sum_law([(pmf, n)])


def kolmogorov_distance(law: SumLaw, center: float, scale: float) -> float:
    """Exact sup-distance between the CDF of ``(S - center)/scale`` and Phi.

    The supremum over x is attained at a jump of the discrete CDF, approached
    from one of the two sides, so it suffices to compare Phi against the CDF
    value before and after every jump (every positive mass).
    """
    return _kolmogorov_distance(law, *law.atoms(), center, scale)


def llt_discrepancy(law: SumLaw) -> float:
    """Scaled sup-distance between point probabilities and the Gaussian curve.

        sup_N | sqrt(Var) * P{S = N} - D/sqrt(2 pi) * exp(-(N - E S)^2 / (2 Var)) |

    with N running over the whole sum lattice, including points outside the
    support (where only the Gaussian term contributes).  The window and the
    points within 10 standard deviations of the mean are scanned; at every
    other N the computed mass is 0.0 and the Gaussian term is below ``D
    e^-50 / sqrt(2 pi)``.
    """
    var = law.variance
    if not (var > 0):
        raise LatticeError("discrepancy undefined for a degenerate (zero-variance) sum")
    sd = math.sqrt(var)
    last = law.first + len(law.probs) - 1
    k_mid = (law.mean - law.v0) / law.D
    k_lo = min(law.first, math.floor(k_mid - 10.0 * sd / law.D))
    k_hi = max(last, math.ceil(k_mid + 10.0 * sd / law.D))
    dense = np.pad(law.probs, (law.first - k_lo, k_hi - last))
    pts = law.v0 + law.D * np.arange(k_lo, k_hi + 1)
    gauss = (law.D / math.sqrt(2.0 * math.pi)) * np.exp(-((pts - law.mean) ** 2) / (2.0 * var))
    return float(np.abs(sd * dense - gauss).max())


# ---------------------------------------------------------------------------
# random walks in random scenery


def theta_n_scenery(model: SceneryModel) -> float:
    """``Theta_n = sum_{j=1..n} E vartheta_{U_j}``; equals ``n * vartheta``
    exactly for a constant profile."""
    return _walk_table(model, 0 if model.constant_profile else model.n)[0]


def c_hk(model: SceneryModel, h: int, k: int) -> float:
    """Revisit correction ``c_{h,k} = sum_r vartheta_r P{U_h = r, U_k = r}``;
    exactly zero under strictly positive increments.

    The value is what the pair (h, k) adds to ``E S_n^2 - E S'_n^2`` (scaled
    by ``D^2/4``) when the walk can revisit a site: conditioning on
    ``U_h = U_k = r`` the two picked-up values coincide, and
    ``E X_r^2 - E xi_r^2 = D^2 vartheta_r / 4``.  For i.i.d. increments
    ``P{U_h = r, U_k = r} = P{U_min = r} * sigma_m`` with ``sigma_m`` the
    m-step return probability, m = |k - h|, so
    ``c_{h,k} = sigma_m * E vartheta_{U_min}``: the term that
    :func:`lltkit.scenery.second_moment_check` sums into ``c_sum``, read off
    the same walk table, up to ``max(h, k)``, whose reachable sites the
    profile must cover.
    """
    if h == k:
        raise LatticeError("c_{h,k} requires h != k")
    if not (1 <= h <= model.n and 1 <= k <= model.n):
        raise LatticeError(f"indices must lie in 1..{model.n}")
    if min(model.increment_law.support) >= 1:
        return 0.0
    return _revisit_term(_walk_table(model, max(h, k))[1], h, k)


# ---------------------------------------------------------------------------
# covariance factorization of the conditional summands


def beta_functional(x_law: LatticePmf, phi: Callable[[float], float]) -> float:
    """``beta_phi = -(1/2) sum_k (f(k) ^ f(k+1)) / theta_X * Delta^2 phi(v_k)``
    with ``Delta phi(t) = phi(t + D/2) - phi(t)``."""
    tx = theta(x_law)
    if tx <= 0:
        raise PreconditionError("beta functional needs theta(x_law) > 0")
    f = x_law.probs
    total = 0.0
    for k, p in f.items():
        if k + 1 not in f:
            continue
        v = x_law.point(k)
        d2 = phi(v + x_law.D) - 2.0 * phi(v + x_law.D / 2.0) + phi(v)
        total += min(p, f[k + 1]) / tx * d2
    return -0.5 * total


def indicator(interval: tuple[float, float]) -> Callable[[float], float]:
    """Indicator of the closed interval [a, b]."""
    a, b = interval
    return lambda t: 1.0 if a <= t <= b else 0.0


@dataclass(frozen=True)
class CovarianceFactorization:
    """Both sides of the indicator-covariance identity plus the ingredients."""

    lhs: float
    rhs: float
    beta_a: float
    beta_b: float
    cov_vartheta: float


def y_covariance_factorization(
    model: SceneryModel,
    h: int,
    k: int,
    interval_a: tuple[float, float],
    interval_b: tuple[float, float],
) -> CovarianceFactorization:
    """Exact check of
    ``Cov(1_A(Y_h), 1_B(Y_k)) = beta_A beta_B Cov(vartheta_{U_h}, vartheta_{U_k})``
    on an enumerable instance with strictly positive increments: its
    ``#steps^n`` paths are within ``_ENUM_BUDGET``, and the levels at the
    sites of ``U_h`` and ``U_k`` are checked before the first path.

    ``|beta|`` is at most 1 for any interval.
    """
    if h == k:
        raise LatticeError("need h != k")
    if not (1 <= h <= model.n and 1 <= k <= model.n):
        raise LatticeError(f"indices must lie in 1..{model.n}")
    if min(model.increment_law.support) < 1:
        raise PreconditionError("covariance factorization requires strictly positive increments")
    _check_budget(model, 1)
    levels, joints = _site_table(model, {h, k})
    ind_a = indicator(interval_a)
    ind_b = indicator(interval_b)
    # P{xi in A} and P{xi in B} at each level, xi = v_k + e D/2 at each (V, eps) atom
    x = model.x_law
    hit_a, hit_b = ({v: math.fsum(p * ind(x.point(k) + e * x.D / 2.0) for (k, e), p in joint)
                     for v, joint in joints.items()} for ind in (ind_a, ind_b))

    e_ab = e_a = e_b = 0.0
    e_tt = e_th = e_tk = 0.0
    for sites, pp in _iter_paths(model):
        th, tk = levels[sites[h - 1]], levels[sites[k - 1]]
        pa, pb = hit_a[th], hit_b[tk]
        e_ab += pp * pa * pb
        e_a += pp * pa
        e_b += pp * pb
        e_tt += pp * th * tk
        e_th += pp * th
        e_tk += pp * tk
    lhs = e_ab - e_a * e_b
    cov_t = e_tt - e_th * e_tk
    beta_a = beta_functional(model.x_law, ind_a)
    beta_b = beta_functional(model.x_law, ind_b)
    return CovarianceFactorization(
        lhs=lhs, rhs=beta_a * beta_b * cov_t, beta_a=beta_a, beta_b=beta_b, cov_vartheta=cov_t
    )
