"""Effective two-sided envelopes for lattice point probabilities.

Everything here carries explicit numerical constants and is valid at every
finite n.  The central object is the sandwich

    P{S_n = kappa}  <=  (1+h)/(1-h) * gauss_{1+h}(kappa)
                        + C1/sqrt((1-h) Theta_n) * (H_n + 1/((1-h) Theta_n))
                        + rho_n(h)

    P{S_n = kappa}  >=  (1-h)/(1+h) * gauss_{1-h}(kappa)
                        - C1/sqrt((1-h) Theta_n) * (H_n + 1/((1-h) Theta_n) + 2 rho_n(h))
                        - rho_n(h)

for any deviation parameter 0 < h < 1, where ``gauss_{1 +/- h}`` is the
Gaussian point term with variance inflated/deflated by ``1 +/- h``,
``Theta_n = sum_j vartheta_j`` counts extracted Bernoulli steps, ``H_n`` is
the Kolmogorov distance of the standardized conditional sum (the xi
convolution) from the normal, and ``rho_n(h)`` is the probability that the
Bernoulli step count deviates from Theta_n by more than ``h * Theta_n``.

Plug-ins come in two modes: ``exact-plug-ins`` evaluates H_n and rho_n with
the exact oracles of :mod:`lltkit.convolve` (for validation), while
``bounded-plug-ins`` substitutes an Esseen-type bound for H_n and a Chernoff
bound for rho_n, making the envelopes fully effective with no oracle.

Every envelope has one body, which holds the scalars of a request, computed
once: each side as its terms (factor, variance denominator, term, rho_n;
the central and psi envelopes are the Gaussian term minus and plus one
half-width).  The body evaluates a block of lattice points as the columns
of every field a row prints (kappa, exact, Gaussian, lower, upper, width and
verdict), in Python floats.  :func:`sandwich_envelope`,
:func:`central_envelope` and :func:`psi_envelope` are its one-point case; an
``llt-bound`` sweep writes its columns block by block.
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from .convolve import (_U, SumLaw, _as_count, bernoulli, exact_moments, kolmogorov_bound,
                       sum_law)
from .errors import LatticeError, NumericsError, PreconditionError
from .extraction import _check_level, split, xi_law
from .lattice import LatticePmf, _real, kappa_index, moments, psi_moments, theta

#: Bound on the n^{3/2}-scaled sup gap between the fair binomial pmf and its
#: Gaussian comparison, valid for every n: the smallest double not below
#: sqrt(2/pi)/4, the limit the gap increases toward along even and odd n.
#: Certified by :func:`certified_registry`; a scan maximum lies below the gap
#: at larger n and is not valid as a default.
DEFAULT_C0 = 0.19947114020071635

#: Esseen-type constant used by the bounded H_n plug-in; literature default,
#: overridable through the registry.
DEFAULT_CE = 0.5600


#: message refusing a constants key and its value, ``.format(key, value)``
_REFUSED = ("constants override {!r}: {!r} rejected; the file may set c0 and ce (finite "
            "numbers > 0) and provenance (a string)")


@dataclass(frozen=True)
class ConstantsRegistry:
    """Numerical constants with calibration provenance.

    ``c0`` and ``ce`` must be real numbers, finite and > 0, and are stored
    as floats; ``provenance`` must be a string.  The derived constants
    ``c1 = max(4, c0)``, ``c2 = 12 * (c1 + 1)`` and
    ``c3 = max(c2, 2**1.5 * ce)`` are set on construction and must be
    finite.  Anything else is a :class:`LatticeError`, the same one that a
    constants file with those values gives (:func:`constants_from_json`).
    """

    c0: float = DEFAULT_C0
    ce: float = DEFAULT_CE
    provenance: str = (
        "c0: certified for every n: the smallest double >= sqrt(2/pi)/4, the limit of the "
        "n^(3/2)-scaled binomial/Gaussian gap (see certified_registry). "
        "ce: Esseen-type constant, literature default 0.5600, user-overridable. "
        "c2: fixed to 12*(c1+1), the larger of the two published forms, conservatively."
    )
    c1: float = field(init=False)
    c2: float = field(init=False)
    c3: float = field(init=False)

    def __post_init__(self) -> None:
        for key, value in (("c0", self.c0), ("ce", self.ce)):
            try:
                x = _real(value, key)
            except LatticeError:
                x = math.nan
            if not 0 < x < math.inf:
                raise LatticeError(_REFUSED.format(key, value))
            object.__setattr__(self, key, x)
        if not isinstance(self.provenance, str):
            raise LatticeError(_REFUSED.format("provenance", self.provenance))
        object.__setattr__(self, "c1", max(4.0, self.c0))
        object.__setattr__(self, "c2", 12.0 * (self.c1 + 1.0))
        object.__setattr__(self, "c3", max(self.c2, 2.0**1.5 * self.ce))
        if not math.isfinite(self.c3):  # c3 >= c2 >= c1
            raise LatticeError(f"constants override rejected: the derived constants must be "
                               f"finite, got c2 = {self.c2!r}, c3 = {self.c3!r}")


def constants_from_json(obj: Any) -> ConstantsRegistry:
    """The registry of a constants override object: the defaults with the
    values of its keys, a subset of ``c0``, ``ce`` and ``provenance``."""
    if not isinstance(obj, dict):
        raise LatticeError("constants override file must hold a JSON object")
    for key, value in obj.items():
        if key not in ("c0", "ce", "provenance"):
            raise LatticeError(_REFUSED.format(key, value))
    return ConstantsRegistry(**obj)


DEFAULT_CONSTANTS = ConstantsRegistry()


@dataclass(frozen=True)
class PlugIns:
    """Upper bounds fed into the envelopes: exact values rounded up by their
    floating-point error, or bounds derived without an oracle.

    ``h_n`` bounds the normal-approximation distance of the conditional sum,
    standardized by its exact mean and variance, ``rho_n`` bounds the
    Bernoulli-count deviation probability at ``h`` (both None when the
    target envelope does not use them), ``l_n`` is the psi-moment ratio that
    bounded plug-ins derive H_n from (None in exact mode, which is what
    :attr:`mode` reads).
    """

    h_n: float
    rho_n: float | None
    h: float | None = None
    l_n: float | None = None

    @property
    def mode(self) -> str:
        return "exact-plug-ins" if self.l_n is None else "bounded-plug-ins"


@dataclass
class BoundReport:
    """The row of one lattice point, as its envelope body computed it
    (:meth:`_Body.columns`), with the parameters of the envelope.

    ``exact`` is ``P{S_n = kappa}`` from an exact oracle, or None, and
    ``exact_err`` bounds its floating-point error (a law's ``err_abs``).
    ``envelope_width`` is ``upper - lower`` and ``sandwich_ok`` the
    envelope's verdict on ``exact``: true or false only when ``lower <= exact
    <= upper`` is decided by more than ``exact_err``, None otherwise and when
    there is no exact value.  :meth:`row` holds the fields a sweep row prints
    and :meth:`to_json_dict` the single-point output.
    """

    kappa: float
    exact: float | None
    gaussian: float
    lower: float
    upper: float
    envelope_width: float
    params: dict
    sandwich_ok: bool | None = None
    exact_err: float = 0.0

    @property
    def lower_negative(self) -> bool:
        return self.lower < 0.0

    def row(self) -> dict:
        """The values, the width and, with an exact value, the verdict; each
        key names a field of the report."""
        out = {"kappa": self.kappa, "exact": self.exact, "gaussian": self.gaussian,
               "lower": self.lower, "upper": self.upper, "envelope_width": self.envelope_width}
        if self.exact is not None:
            out["sandwich_ok"] = self.sandwich_ok
        return out

    def to_json_dict(self, constants: ConstantsRegistry) -> dict:
        """:meth:`row` plus ``lower_negative``, the parameters and the constants."""
        return {
            **self.row(),
            "lower_negative": self.lower_negative,
            "params": dict(self.params),
            "constants": asdict(constants),
        }


# ---------------------------------------------------------------------------
# calibration of the fair-coin comparison constant


def binomial_half_pmf(n: int) -> np.ndarray:
    """pmf of Binomial(n, 1/2) over z = 0..n via the halved Pascal recursion.

    The half row z <= n/2 is stepped by :func:`_scan_step` and mirrored; the
    computed row is symmetric (see :func:`calibrate_c0_scan`).
    """
    if n < 0:
        raise LatticeError(f"need n >= 0, got {n}")
    half = np.zeros(n // 2 + 3)
    half[1] = 1.0
    tmp = np.empty_like(half)
    first = 0
    for k in range(1, n + 1):
        first = _scan_step(half, tmp, k, first)
    row = half[1:n // 2 + 2]
    return np.concatenate([row, row[:(n + 1) // 2][::-1]])


#: consecutive n whose Gaussian terms :func:`calibrate_c0_scan` evaluates as
#: one 2-D array, and whose window check it reruns on full rows if one fails
_SCAN_BLOCK = 128

#: entries per sqrt(n) in the central window of the half row that
#: :func:`calibrate_c0_scan` evaluates: the window edge lies 2 * _SCAN_WINDOW
#: standard deviations from the center
_SCAN_WINDOW = 3.0


def _scan_step(half: np.ndarray, tmp: np.ndarray, n: int, first: int) -> int:
    """Advance the half row in ``half`` from n - 1 to n in place; returns the
    index of its first nonzero entry.

    ``half[z + 1]`` holds row entry z for ``z <= n // 2`` and ``half[0]`` is
    0.0; ``first`` is the first nonzero entry of row n - 1.  Entry z of row
    n is ``(old[z] + old[z - 1]) * 0.5``, one step of the halved Pascal
    recursion; entries below ``first`` stay 0.0.
    """
    c = n // 2
    if n % 2 == 0:
        half[c + 1] = half[c]  # old[n/2] = old[n/2 - 1] by symmetry
    t = tmp[first:c + 1]
    np.add(half[first + 1:c + 2], half[first:c + 1], out=t)
    np.multiply(t, 0.5, out=half[first + 1:c + 2])
    while half[first + 1] == 0.0:
        first += 1
    return first


def _gauss_terms(n, z):
    """``sqrt(2/(pi n)) exp(-(2z - n)^2/(2n))`` with the operations of the
    scan, for a scalar n or a column of n against rows of z."""
    return np.sqrt(2.0 / (np.pi * n)) * np.exp(-((2.0 * z - n) ** 2) / (2.0 * n))


def _half_row_gap(half: np.ndarray, n: int) -> float:
    """``max_z |pmf(z) - gauss(z)|`` over the whole half row of n."""
    row = half[1:n // 2 + 2]
    return np.abs(row - _gauss_terms(n, np.arange(len(row)))).max()


def calibrate_c0_scan(n_max: int) -> np.ndarray:
    """Per-n scaled gaps ``n^{3/2} * sup_z |pmf(z) - sqrt(2/(pi n)) e^{-(2z-n)^2/(2n)}|``.

    Entry i holds the value for n = i + 1.  The running maximum of this array
    is the calibrated constant.

    The entries are the doubles of the plain scan: the pmf row by the halved
    Pascal recursion of :func:`binomial_half_pmf`, the Gaussian over the
    whole row and the largest absolute difference.  Three facts let the scan
    do less work for the same doubles.

    1. *Symmetry.*  The computed row is symmetric, because float ``+``
       commutes and ``* 0.5`` is the same operation on both sides, and so is
       the computed Gaussian, because ``(2z - n)^2`` is the same double at z
       and n - z.  Only the half row ``z <= n/2`` is kept, in one buffer;
       entries that underflowed to 0.0 stay 0.0 and are not stepped.
    2. *Monotone half row.*  The computed half row is nondecreasing, since
       rounding is monotone (by induction, with the mirrored center at even
       n), so the row entry just outside a central window bounds every row
       entry further out.
    3. *Gaussian tail.*  The Gaussian term just outside the window, times
       ``1 + 1e-9`` for the few ulps of ``exp``, bounds every computed
       Gaussian term further out.

    With ``|b - g| <= max(b, g)`` for non-negative doubles b and g, no entry
    outside the window can exceed the window's largest gap when both bounds
    are at most that gap.  The window is the ``_SCAN_WINDOW * sqrt(n)``
    entries of the half row nearest its center, and the gap is evaluated on
    it for ``_SCAN_BLOCK`` consecutive n as one 2-D array.  If the check
    fails for any n of a block, the block is rerun from its first half row
    with the gap evaluated on whole half rows.
    """
    if n_max < 1:
        raise LatticeError(f"need n_max >= 1, got {n_max}")
    out = np.empty(n_max)
    half = np.zeros(n_max // 2 + 3)
    half[1] = 1.0
    tmp = np.empty_like(half)
    first = 0
    for start in range(1, n_max + 1, _SCAN_BLOCK):
        ns = range(start, min(start + _SCAN_BLOCK, n_max + 1))
        width = math.ceil(_SCAN_WINDOW * math.sqrt(ns[-1]))
        if start // 2 >= width:  # every window leaves at least one entry out
            saved, saved_first = half[:ns[-1] // 2 + 2].copy(), first
            rows = np.empty((len(ns), width))
            edge = np.empty(len(ns))
            for j, n in enumerate(ns):
                first = _scan_step(half, tmp, n, first)
                a = n // 2 - width + 1  # the window is z = a..n//2
                rows[j] = half[a + 1:a + width + 1]
                edge[j] = half[a]
            col = np.array(ns)[:, None]
            z = col // 2 - width + 1 + np.arange(width)
            gap = np.abs(rows - _gauss_terms(col, z)).max(axis=1)
            outside = _gauss_terms(col[:, 0], z[:, 0] - 1) * (1.0 + 1e-9)
            if (np.maximum(edge, outside) <= gap).all():
                for j, n in enumerate(ns):  # n**1.5 in Python: numpy's power may round apart
                    out[n - 1] = n**1.5 * gap[j]
                continue
            half[:len(saved)], first = saved, saved_first
        for n in ns:
            first = _scan_step(half, tmp, n, first)
            out[n - 1] = n**1.5 * _half_row_gap(half, n)
    return out


def calibrated_registry(n_max: int) -> ConstantsRegistry:
    """Registry with c0 recalibrated by an exact scan up to ``n_max`` and the
    default ce."""
    scan = calibrate_c0_scan(n_max)
    c0 = float(scan.max())
    argmax = int(scan.argmax()) + 1
    return ConstantsRegistry(
        c0=c0,
        provenance=(
            f"c0: exact scan for n <= {n_max}, max {c0!r} attained at n = {argmax} "
            f"(empirical, not certified beyond the scan). ce: {DEFAULT_CE} (user-supplied default)."
        ),
    )


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
    below ``P_{2m+1}``.  Each step of the Pascal recursion adds two
    non-negative floats (one relative rounding) and halves the sum (exact, or
    an absolute 2^-1075 in the subnormal range), so by induction the computed
    row is within ``gamma_n b_n + n 2^-1074`` of the pmf b_n, with
    ``gamma_n = (1+u)^n - 1 <= n u / (1 - n u)`` (Higham, *Accuracy and
    Stability of Numerical Algorithms*, ch. 3).  The Gaussian term, the
    difference and the final scaling cost ``_SCAN_ROUNDING_ULPS`` roundings
    relative to P_n at most; this includes ``u/e`` for the rounded exponent
    argument.  With ``n^{3/2} P_n = sqrt(2/pi) n``, the bound is

        sqrt(2/pi) n (gamma_n + 32 u) + n^{3/2} (n + 2) 2^-1074.

    At n = 10^4 it is about 9e-9, against the 2.5e-6 between the scan
    maximum and sqrt(2/pi)/4.  The windowed scan returns the same doubles as
    the plain one over whole rows, so the bound is unchanged.
    """
    if n_max < 1:
        raise LatticeError(f"need n_max >= 1, got {n_max}")
    u = _U
    n = np.arange(1, n_max + 1, dtype=float)
    gamma = n * u / (1.0 - n * u)
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

    **Scan, n <= n0.**  Every entry of ``calibrate_c0_scan(n0)`` plus its
    :func:`c0_scan_error_bound` must lie strictly below c0.

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

    Raises :class:`PreconditionError` when ``n0 < N*``, since the n in
    ``(n0, N*)`` would then be covered by neither part.
    """
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
# elementary ingredients


def _check_h(h: float) -> None:
    """Require the deviation parameter to satisfy ``0 < h < 1``."""
    if not (0.0 < h < 1.0):
        raise PreconditionError(f"deviation parameter must satisfy 0 < h < 1, got {h}")


def chernoff_rho(theta_n: float, h: float) -> float:
    """Chernoff bound ``2 exp(-h^2 Theta_n / (2 (1 + h/3)))`` for the two-sided
    deviation ``P{|B_n - Theta_n| > h Theta_n}`` of a Bernoulli-sum count
    with mean ``Theta_n``."""
    _check_h(h)
    if not (theta_n > 0):
        raise PreconditionError("theta_n must be positive")
    return 2.0 * math.exp(-(h * h) * theta_n / (2.0 * (1.0 + h / 3.0)))


def _log_theta_n(theta_n: float) -> float:
    """``log(Theta_n)`` after checking the growth condition
    ``log(Theta_n)/Theta_n <= 1/14``."""
    if theta_n <= 1.0:
        raise PreconditionError(
            f"growth condition log(theta_n)/theta_n <= 1/14 failed: theta_n = {theta_n} <= 1"
        )
    log_t = math.log(theta_n)
    ratio = log_t / theta_n
    if ratio > 1.0 / 14.0:
        raise PreconditionError(
            f"growth condition log(theta_n)/theta_n <= 1/14 failed: ratio = {ratio:.6g}"
        )
    return log_t


def h_default(theta_n: float) -> float:
    """Default deviation parameter ``sqrt(7 log(Theta_n) / (2 Theta_n))``.

    Requires ``log(Theta_n)/Theta_n <= 1/14``, which guarantees the returned
    value is at most 1/2.
    """
    return math.sqrt(7.0 * _log_theta_n(theta_n) / (2.0 * theta_n))


# ---------------------------------------------------------------------------
# the prepared sum


@dataclass(frozen=True)
class SumSpec:
    """Validated description of the independent sum ``S_n = X_1 + ... + X_n``.

    Built once by :func:`prepare_sum` and read by every plug-in and envelope:
    ``parts`` holds one ``(law, level, count)`` triple per distinct summand
    law and extraction level, ``theta_n = sum_j vartheta_j``, the common span
    ``d``, the lattice offset ``v0 = sum_j v0_j`` and the mean and variance
    of S_n; :attr:`law` is its exact law and ``len(spec)`` the summand count.
    """

    parts: tuple[tuple[LatticePmf, float, int], ...]
    theta_n: float
    d: float
    v0: float
    mean: float
    var: float

    def __len__(self) -> int:
        return sum(count for _, _, count in self.parts)

    @cached_property
    def law(self) -> SumLaw:
        """:func:`sum_law` of the parts ``(law, count)`` in their order, on first read."""
        return sum_law([(p, count) for p, _, count in self.parts])


def prepare_sum(parts: Iterable[tuple[LatticePmf, float, int]]) -> SumSpec:
    """Validate the parts ``(law, level, count)`` -- ``count`` independent
    summands with that law, extracted at that level -- and compute the sum's
    characteristics.

    Requires at least one part, each level in ``(0, theta(law)]``, each count
    an integer >= 1, and a span shared by all laws.  An iid sum is one part.
    Theta_n, v0, the mean and the variance are each a fsum of count times
    the per-part value; for one part that is the correctly rounded sum of
    the n equal summand values.
    """
    parts = tuple((p, t, _as_count(count, j)) for j, (p, t, count) in enumerate(parts))
    if not parts:
        raise LatticeError("need at least one summand")
    d = parts[0][0].D
    for j, (p, t, count) in enumerate(parts):
        _check_level(t, theta(p), "part", j)
        if abs(p.D - d) > 1e-12 * max(1.0, abs(d)):
            raise LatticeError("summands must share a common span D")
    stats = [(count, moments(p)) for p, _, count in parts]
    return SumSpec(
        parts=parts,
        theta_n=math.fsum(count * t for _, t, count in parts),
        d=d,
        v0=math.fsum(count * p.v0 for p, _, count in parts),
        mean=math.fsum(count * m for count, (m, _) in stats),
        var=math.fsum(count * v for count, (_, v) in stats),
    )


def exact_plug_ins(spec: SumSpec, h: float | None = None) -> PlugIns:
    """Oracle plug-ins: H_n from the exact xi-convolution Kolmogorov distance,
    rho_n from the exact tail of B_n, a sum of Bernoulli(level) parts (when h
    is given, checked before any law is built).  H_n is taken about the xi
    sum's exact mean and variance (:func:`lltkit.convolve.exact_moments`).
    rho_n is ``P{|B_n - Theta_n| > h Theta_n}`` with Theta_n and ``h
    Theta_n`` as exact fractions, so the points of the tail are decided
    exactly (:meth:`SumLaw.two_sided_tail_bound`).  Both are rounded up by
    their floating-point error, each charging its law's ``err_l1`` once
    for the distance of all its masses from the exact ones
    (:func:`lltkit.convolve.kolmogorov_bound`, the tail's masses plus
    ``err_l1``), so they bound the values of the exact laws from above."""
    if h is not None:
        _check_h(h)
    parts = [(xi_law(split(p, t)), c) for p, t, c in spec.parts]
    try:
        xi = sum_law(parts)
    except LatticeError as exc:  # name the law refused: it is not that of S_n
        raise LatticeError(f"conditional xi law on L({spec.v0:g}, {spec.d / 2:g}) "
                           f"for exact H_n: {exc}") from exc
    mean, var = exact_moments(parts)
    if not (var > 0):
        raise PreconditionError("conditional sum is degenerate; exact H_n undefined")
    h_n = kolmogorov_bound(xi, mean, var)
    rho = None
    if h is not None:
        b_n = sum_law([(bernoulli(t), c) for _, t, c in spec.parts])
        theta_n = sum(c * Fraction(t) for _, t, c in spec.parts)  # exact
        rho = b_n.two_sided_tail_bound(theta_n, Fraction(h) * theta_n)
    return PlugIns(h_n=h_n, rho_n=rho, h=h)


def bounded_plug_ins(
    spec: SumSpec,
    h: float | None = None,
    psi: Callable[[float], float] = lambda x: abs(x) ** 3,
    constants: ConstantsRegistry = DEFAULT_CONSTANTS,
) -> PlugIns:
    """Fully effective plug-ins: the psi-moment ratio
    ``L_n = sum_j E psi(X_j) / psi(sqrt(Var S_n))``, the Esseen-type bound
    ``2^{3/2} ce * L_n`` for H_n and the Chernoff bound for rho_n (no oracle
    involved).

    ``E psi(X_j)`` is taken about the lattice origin, not about ``E X_j``, so
    the bound grows with the distance of the law from 0: for ``{1, 2, 1}/4``
    at n = 1e4 it is 0.0224 / 0.112 / 0.493 / 4.6e4 at v0 = -1 / 0 / 1 /
    100, against an exact H_n of 0.0016.

    A denominator that is not > 0, as when ``psi(sqrt(Var S_n))`` or Var S_n
    itself underflows on a tiny span, an L_n that is not finite, as when
    ``E psi(X_j)`` overflows on a huge span, and an H_n that is not finite,
    as when a huge ``ce`` overflows the product, are a :class:`NumericsError`."""
    moms = psi_moments([p for p, _, _ in spec.parts], psi)
    scale = psi(math.sqrt(spec.var))
    if not (scale > 0):
        raise NumericsError(f"L_n undefined: its denominator psi(sqrt(Var S_n)) = {scale!r} is "
                            f"not > 0 (Var S_n = {spec.var!r})")
    l_n = math.fsum(c * m for (_, _, c), m in zip(spec.parts, moms)) / scale
    if not math.isfinite(l_n):
        raise NumericsError(f"L_n = sum_j E psi(X_j) / psi(sqrt(Var S_n)) = {l_n!r} is not "
                            f"finite (its denominator is {scale!r})")
    h_n = 2.0**1.5 * constants.ce * l_n
    if not math.isfinite(h_n):
        raise NumericsError(f"H_n = 2^1.5 ce L_n = {h_n!r} is not finite "
                            f"(ce = {constants.ce!r}, L_n = {l_n!r})")
    rho = chernoff_rho(spec.theta_n, h) if h is not None else None
    return PlugIns(h_n=h_n, rho_n=rho, h=h, l_n=l_n)


# ---------------------------------------------------------------------------
# envelopes


def _verdict(exact: float, lower: float, upper: float, err: float) -> bool | None:
    """Whether ``lower <= exact <= upper``, when the envelope decides it by
    more than ``err``; None otherwise."""
    margin = min(exact - lower, upper - exact)
    return margin > 0.0 if abs(margin) > err else None


@dataclass(slots=True)
class _Body:
    """Body of every envelope for one request: the scalars it reads, computed
    once, and its rows over a block of lattice points (:meth:`columns`), at
    one point (:meth:`report`) or over a whole sweep (:meth:`sweep`).

    Each side is data: ``lower`` and ``upper`` hold ``(factor, den, term,
    rho)``, and a side at ``dev2 = (kappa - E S_n)^2`` is ``factor * (base *
    exp(-dev2 / den))`` minus ``term`` then ``rho`` on the lower side, plus
    them on the upper side, with ``base = D / sqrt(2 pi Var(S_n))``; the
    Gaussian term is ``base * exp(-dev2 / (2 Var(S_n)))``.  ``limit`` is the
    bound on ``dev2 / Var(S_n)`` of the envelope's central range and its text
    (None when it has none), and ``params`` the parameters of its report.

    The rows are evaluated per element in Python floats, with ``**`` (C
    ``pow``) and ``math.exp``: numpy's square ``x * x`` and ``np.exp``
    round apart from them at some points, and the printed digits must not
    depend on how many points a call evaluates.
    """

    spec: SumSpec
    exact: bool
    params: dict
    lower: tuple[float, float, float, float]
    upper: tuple[float, float, float, float]
    limit: tuple[float, str] | None = None

    def deviations(self, kappas: list[float]) -> list[float]:
        """``(kappa - E S_n)^2`` per point; an overflowing square raises
        ``OverflowError``, and the first point outside the central range
        raises :class:`PreconditionError`."""
        mean, var = self.spec.mean, self.spec.var
        dev2 = [(x - mean) ** 2 for x in kappas]
        if self.limit is not None and max(dev2) / var > self.limit[0]:
            bound, text = self.limit
            ratio = next(q / var for q in dev2 if q / var > bound)
            raise PreconditionError(f"central range condition (kappa - E S_n)^2 / Var(S_n) <= "
                                    f"{text} failed: {ratio:.6g} > {bound:.6g}")
        return dev2

    def columns(self, k0: int, kappas: list[float]) -> dict:
        """The rows at the lattice points ``kappas`` of indices ``k0, k0 + 1,
        ...`` as columns, keyed as :meth:`BoundReport.row`: kappa, exact,
        gaussian, lower, upper, envelope_width and, with exact values,
        sandwich_ok.  With ``exact`` the exact values and the ``err_abs`` of
        the verdict come from ``spec.law``, built before :meth:`deviations`
        runs; without it the exact column is None."""
        spec = self.spec
        law = spec.law if self.exact else None
        dev2 = self.deviations(kappas)
        base, two_var, exp = spec.d / math.sqrt(2.0 * math.pi * spec.var), 2.0 * spec.var, math.exp
        (lf, ld, lt, lr), (uf, ud, ut, ur) = self.lower, self.upper
        lower = [lf * (base * exp(-q / ld)) - lt - lr for q in dev2]
        upper = [uf * (base * exp(-q / ud)) + ut + ur for q in dev2]
        cols = {"kappa": kappas, "exact": None, "lower": lower, "upper": upper,
                "gaussian": [base * exp(-q / two_var) for q in dev2],
                "envelope_width": list(map(operator.sub, upper, lower))}
        if law is not None:
            exact = cols["exact"] = law.masses(k0, len(kappas))
            cols["sandwich_ok"] = list(map(_verdict, exact, lower, upper, repeat(law.err_abs)))
        return cols

    def report(self, kappa: float) -> BoundReport:
        """The one-point case: the lattice check on kappa, then the one row
        of its columns, width and verdict included, as a report."""
        spec = self.spec
        cols = self.columns(kappa_index(kappa, spec.v0, spec.d), [kappa])
        exact = None if cols["exact"] is None else cols["exact"][0]
        verdict = cols.get("sandwich_ok", [None])[0]
        return BoundReport(kappa, exact, cols["gaussian"][0], cols["lower"][0], cols["upper"][0],
                           cols["envelope_width"][0], self.params, verdict,
                           spec.law.err_abs if self.exact else 0.0)

    def sweep(self, sweep: range, block: int) -> Iterator[dict]:
        """The columns of the lattice indices ``sweep`` in lattice order, in
        blocks of ``block`` indices computed as they are read.  Every refusal
        is raised before this returns: the exact law is built first, then
        :meth:`deviations` runs over the whole sweep with a central range,
        so that a refused sweep raises the error of its first refused point,
        and over its two ends without one, where ``|kappa - E S_n|`` and so
        an overflowing square are largest."""
        spec = self.spec
        blocks = range(0, len(sweep), block)

        def at(ks: Iterable[int]) -> list[float]:
            return [spec.v0 + spec.d * k for k in ks]

        if self.exact:  # built here, so that its refusal comes first
            spec.law
        if self.limit is None:
            self.deviations(at((sweep[0], sweep[-1])))
        else:  # each block raises its first refused point
            for i in blocks:
                self.deviations(at(sweep[i:i + block]))
        return (self.columns(sweep[i], at(sweep[i:i + block])) for i in blocks)


def _sandwich_body(spec: SumSpec, plug_ins: PlugIns, constants: ConstantsRegistry,
                   exact: bool) -> _Body:
    h, rho = plug_ins.h, plug_ins.rho_n
    if rho is None or h is None:
        raise LatticeError("sandwich envelope needs a rho_n plug-in and the h it was taken at")
    _check_h(h)
    shrunk = (1.0 - h) * spec.theta_n
    t = constants.c1 / math.sqrt(shrunk)
    lower = ((1.0 - h) / (1.0 + h), 2.0 * (1.0 - h) * spec.var,
             t * (plug_ins.h_n + 1.0 / shrunk + 2.0 * rho), rho)
    upper = ((1.0 + h) / (1.0 - h), 2.0 * (1.0 + h) * spec.var,
             t * (plug_ins.h_n + 1.0 / shrunk), rho)
    params = {"theta_n": spec.theta_n, "h": h, "H_n_used": plug_ins.h_n, "rho_n_used": rho,
              "var_s_n": spec.var, "e_s_n": spec.mean, "mode": plug_ins.mode}
    return _Body(spec, exact, params, lower, upper)


def sandwich_envelope(spec: SumSpec, kappa: float, plug_ins: PlugIns,
                      constants: ConstantsRegistry = DEFAULT_CONSTANTS,
                      exact: bool = False) -> BoundReport:
    """Two-sided envelope for ``P{S_n = kappa}`` at the deviation parameter
    ``plug_ins.h``, the h its rho_n was taken at.

    Valid for any ``0 < h < 1`` and extraction levels ``0 < vartheta_j <=
    theta(X_j)``, at every point of the sum lattice.  The lower bound is
    reported raw (it may be negative for small Theta_n; see
    ``BoundReport.lower_negative``).  With ``exact`` true the report carries
    ``P{S_n = kappa}`` from ``spec.law`` and its ``err_abs``.
    """
    return _sandwich_body(spec, plug_ins, constants, exact).report(kappa)


def _symmetric_body(spec: SumSpec, plug_ins: PlugIns, exact: bool, stat: float,
                    const: float, limit: float, limit_text: str, params: dict) -> _Body:
    """Body of :func:`central_envelope` and :func:`psi_envelope`: the
    half-width ``const * (D sqrt(log(Theta_n) / (Var(S_n) Theta_n)) + (stat +
    1/Theta_n) / sqrt(Theta_n))`` below and above the Gaussian term, on the
    central range ``(kappa - E S_n)^2 / Var(S_n) <= limit``."""
    theta_n, var = spec.theta_n, spec.var
    half = const * (spec.d * math.sqrt(math.log(theta_n) / (var * theta_n))
                    + (stat + 1.0 / theta_n) / math.sqrt(theta_n))
    side = (1.0, 2.0 * var, half, 0.0)
    params = {"theta_n": theta_n, **params, "half_width": half, "var_s_n": var,
              "e_s_n": spec.mean, "mode": plug_ins.mode}
    return _Body(spec, exact, params, side, side, (limit, limit_text))


def _central_body(spec: SumSpec, plug_ins: PlugIns, constants: ConstantsRegistry,
                  exact: bool) -> _Body:
    return _symmetric_body(
        spec, plug_ins, exact, stat=plug_ins.h_n, const=constants.c2,
        limit=math.sqrt(spec.theta_n / (14.0 * _log_theta_n(spec.theta_n))),
        limit_text="sqrt(theta_n / (14 log theta_n))",
        params={"H_n_used": plug_ins.h_n, "rho_n_used": None},
    )


def central_envelope(spec: SumSpec, kappa: float, plug_ins: PlugIns,
                     constants: ConstantsRegistry = DEFAULT_CONSTANTS,
                     exact: bool = False) -> BoundReport:
    """Symmetric envelope ``|P{S_n = kappa} - gauss| <= C2 * {...}`` in the
    central range; ``exact`` is read as in :func:`sandwich_envelope`.

    Requires ``log(Theta_n)/Theta_n <= 1/14`` and
    ``(kappa - E S_n)^2 / Var(S_n) <= sqrt(Theta_n / (14 log Theta_n))``;
    rejection names the failed condition.  The half-width is

        C2 * ( D * sqrt(log(Theta_n) / (Var(S_n) Theta_n))
               + (H_n + 1/Theta_n) / sqrt(Theta_n) ).
    """
    return _central_body(spec, plug_ins, constants, exact).report(kappa)


def _psi_body(spec: SumSpec, plug_ins: PlugIns, constants: ConstantsRegistry,
              exact: bool) -> _Body:
    if plug_ins.l_n is None:
        raise LatticeError("psi envelope needs an L_n plug-in (bounded-plug-ins)")
    return _symmetric_body(
        spec, plug_ins, exact, stat=plug_ins.l_n, const=constants.c3,
        limit=h_default(spec.theta_n),
        limit_text="sqrt(7 log theta_n / (2 theta_n))",
        params={"l_n": plug_ins.l_n},
    )


def psi_envelope(spec: SumSpec, kappa: float, plug_ins: PlugIns,
                 constants: ConstantsRegistry = DEFAULT_CONSTANTS,
                 exact: bool = False) -> BoundReport:
    """Fully effective symmetric envelope with the psi-moment ratio.

    Same shape as :func:`central_envelope` with H_n replaced by the L_n of
    :func:`bounded_plug_ins` and constant C3, on its own (narrower) central
    range ``(kappa - E S_n)^2 / Var(S_n) <= sqrt(7 log(Theta_n) / (2 Theta_n))``;
    ``exact`` is read as in :func:`sandwich_envelope`.
    """
    return _psi_body(spec, plug_ins, constants, exact).report(kappa)


#: the body of each envelope by its ``llt-bound --envelope`` name
_BODIES = {"sandwich": _sandwich_body, "central": _central_body, "psi": _psi_body}


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
