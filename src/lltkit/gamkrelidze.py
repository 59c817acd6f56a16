"""Gamkrelidze-style smoothness statistics for integer-valued sums.

For an integer-valued sum S_n and centering/scaling parameters ``a_n`` and
``b_n > 0``, define the cell integrals and pointwise discrepancies

    ell_k = Int_{(k-1-a_n)/sqrt(b_n)}^{(k-a_n)/sqrt(b_n)} phi(t) dt,
    d_k   = P{S_n = k} - ell_k,

the interval discrepancy ``rho_n = sup over intervals |sum_{k=p}^{q} d_k|``,
and the smoothness statistic ``M = b_n * sup_k |P{S_n = k+1} - P{S_n = k}|``.
With ``R = M + sqrt(2/(e pi))`` the pointwise discrepancies obey

    sqrt(b_n) * |d_k| <= 2 sqrt(R) * sqrt(rho_n)              for every k,

and consequently

    |sqrt(b_n) P{S_n = k} - phi((k - a_n)/sqrt(b_n))|
        <= 2 sqrt(R) sqrt(rho_n) + 1/sqrt(2 pi e b_n).

Both inequalities hold for ANY choice of (a_n, b_n) feeding the two sides
consistently.  The statistic M itself is bounded, without touching the exact
law, by a three-term expression built from Bernoulli extraction (see
:func:`smoothness_via_extraction`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import ConstantsRegistry, DEFAULT_CONSTANTS, SumSpec, chernoff_rho
from .convolve import _NDTR_ERR, _U, SumLaw, _gamma, _ndtr
from .errors import LatticeError, NumericsError

#: most points an interval-discrepancy window (and its d-table) may hold
WINDOW_CAP = 10**6


def _integer_shift(law: SumLaw) -> int:
    """The integer value of lattice index 0 (requires D = 1 and an integer v0)."""
    if abs(law.D - 1.0) > 1e-12:
        raise LatticeError(f"integer-valued law required (D = 1), got D = {law.D}")
    shift = round(law.v0)
    if abs(law.v0 - shift) > 1e-9:
        raise LatticeError(f"lattice offset {law.v0} is not an integer; re-index the law first")
    return shift


def smoothness_stat(sum_law: SumLaw, b_n: float) -> float:
    """``b_n * sup_k |P{S_n = k+1} - P{S_n = k}|`` including boundary gaps."""
    if not (b_n > 0):
        raise LatticeError(f"need b_n > 0, got {b_n}")
    _integer_shift(sum_law)  # integer-valued laws only
    return b_n * float(np.abs(np.diff(np.pad(sum_law.probs, 1))).max())


@dataclass
class SmoothnessReport:
    """All interval-discrepancy data for one (law, a_n, b_n) triple.

    ``d``, ``ell`` and ``p`` are dense arrays over the integer window
    ``k_lo..k_lo + len - 1`` covering the support plus a Gaussian tail margin;
    ``rho`` is the exact sup over intervals of ``|sum d_k|``.  ``err_abs`` is
    the law's bound on the error of every ``p`` entry, and ``err_l1`` its
    bound on the sum of those errors over every index (neither is printed).
    """

    M: float
    R: float
    rho: float
    a_n: float
    b_n: float
    k_lo: int
    d: np.ndarray
    ell: np.ndarray
    p: np.ndarray
    err_abs: float
    err_l1: float

    @property
    def ks(self) -> np.ndarray:
        return np.arange(self.k_lo, self.k_lo + len(self.d))

    def to_json_dict(self) -> dict:
        return {
            "M": self.M,
            "R": self.R,
            "rho": self.rho,
            "a_n": self.a_n,
            "b_n": self.b_n,
            "d_table": [[k, v] for k, v in zip(self.ks.tolist(), self.d.tolist())],
        }


def interval_discrepancy(sum_law: SumLaw, a_n: float, b_n: float) -> SmoothnessReport:
    """Compute the d-table and the exact interval discrepancy rho_n.

    The sup over intervals of a sum equals (max - min) over prefix sums, so
    rho_n comes from one cumulative pass over a window that holds every
    positive mass of ``sum_law`` and outside of which the Gaussian cell
    integrals are below 1e-16.  Outside it the exact masses are each at
    most ``sum_law.err_abs`` and together at most ``sum_law.err_l1`` (tails
    the kernel dropped at its error bound); a longer window than
    ``WINDOW_CAP`` points is refused before it is allocated.
    """
    if not (math.isfinite(a_n) and 0.0 < b_n < math.inf):
        raise LatticeError(f"need a finite a_n and a finite b_n > 0, got {a_n} and {b_n}")
    ks, w = sum_law.atoms()
    ks = ks + _integer_shift(sum_law)
    sd = math.sqrt(b_n)
    margin = 9.5  # ndtr(-9.5) ~ 1e-21 < 1e-16
    k_lo = min(int(ks[0]), math.floor(a_n - margin * sd))
    k_hi = max(int(ks[-1]), math.ceil(a_n + margin * sd))
    size = k_hi - k_lo + 1
    if size > WINDOW_CAP:
        raise LatticeError(f"the window for a_n = {a_n}, b_n = {b_n} holds {size:.3g} "
                           f"points, above the cap of {WINDOW_CAP}")
    p = np.zeros(size)
    p[ks - k_lo] = w
    edges = _ndtr((np.arange(k_lo - 1, k_hi + 1) - a_n) / sd)
    ell = np.diff(edges)
    d = p - ell
    prefix = np.concatenate([[0.0], np.cumsum(d)])
    rho = float(prefix.max() - prefix.min())
    # the law's masses padded with zeros, so M is smoothness_stat's, bit for bit
    m_stat = b_n * float(np.abs(np.diff(np.pad(p, 1))).max())
    return SmoothnessReport(
        M=m_stat,
        R=m_stat + math.sqrt(2.0 / (math.e * math.pi)),
        rho=rho,
        a_n=a_n,
        b_n=b_n,
        k_lo=int(k_lo),
        d=d,
        ell=ell,
        p=p,
        err_abs=sum_law.err_abs,
        err_l1=sum_law.err_l1,
    )


@dataclass
class PointwiseCheck:
    """Outcome of verifying both pointwise inequalities on a report."""

    pointwise_ok: bool
    gaussian_ok: bool
    pointwise_max_lhs: float
    pointwise_bound: float
    gaussian_max_lhs: float
    gaussian_bound: float
    failures: list[int]

    @property
    def all_pass(self) -> bool:
        return self.pointwise_ok and self.gaussian_ok


def effective_pointwise_bound(report: SmoothnessReport) -> PointwiseCheck:
    """Check, at every k of the window, that

    (i)  sqrt(b_n) |d_k| <= 2 sqrt(R) sqrt(rho_n), and
    (ii) |sqrt(b_n) P{S_n=k} - (1/sqrt(2 pi)) e^{-(k-a_n)^2/(2 b_n)}|
             <= 2 sqrt(R) sqrt(rho_n) + 1/sqrt(2 pi e b_n),

    with R and rho_n as computed from the table; ``pointwise_bound`` and
    ``gaussian_bound`` are those computed right sides.  A side fails only
    when no table within its floating-point error could meet it, so each is
    compared against the right side at the upper ends of R's and rho_n's
    error intervals; with ``E`` the law's ``err_abs``, ``E_1`` its
    ``err_l1``, W the window's length and u the unit roundoff:

    - *Cell edges.*  ``Phi((k - a_n)/sqrt(b_n))`` is Cephes' ndtr (absolute error
      ``_NDTR_ERR = 8u``) at an argument ``x (1 + theta)``, ``|theta| <=
      gamma_3`` (the subtraction, the square root and the division), which moves Phi by
      ``|x phi(xi) theta| <= gamma_3 / 4`` since ``|t phi(t)| <= 0.242``.
    - *Table entries.*  ``ell_k`` is the difference of two edges, rounded by
      ``u |ell_k|``, and ``d_k = p_k - ell_k`` is rounded by ``u |d_k|``, so
      the exact ``d_k`` is within ``e_k = E + 2 edge + 2u (|ell_k| + |d_k|)``
      of the table's.
    - *rho_n.*  rho_n is the largest difference of two prefix sums of the
      table.  Such a difference sums d over an interval of the window, whose
      cells telescope to two edges, so it is within ``E_1 + 2 edge`` of the
      exact interval sum (``E_1`` bounds the masses' errors over every
      index), plus the roundings of its cells, ``u (|ell_k| + |d_k|)`` each,
      and of the two prefixes ``cumsum`` formed, ``gamma_W sum_k |d_k|``
      each: at most ``2 gamma_(W + 2) sum_k (|ell_k| + |d_k|)`` with the sum
      as computed.  An interval reaching past the window adds the Gaussian
      cells outside it, below ``2 Phi(-9.5) < 3e-21``, which one u covers,
      and ``E_1`` already covers the masses there.  So every interval sum is
      within ``Delta = E_1 + 2 edge + u + 2 gamma_(W + 2) sum_k (|ell_k| +
      |d_k|)`` of its table value, and the exact rho_n is at most ``rho_up
      = (rho_n + Delta)(1 + 8u)``.
    - *M.*  Each difference of neighbouring masses, on the law's window
      and off it, is within ``2E`` of the exact one, so the exact M is at
      most ``M_up = (M + 2 b_n E)(1 + 8u)``, and R at most ``R_up = (M_up +
      sqrt(2/(e pi)))(1 + 8u)``.  Each factor ``1 + 8u`` covers the
      roundings of the value it multiplies (``max - min`` for rho_n, the
      product and the difference for M) and of the bound's own sums.
    - *The Gaussian of (ii).*  Its exponent is rounded by ``gamma_4``
      relatively, which moves ``e^{-z}`` by at most ``gamma_4 z e^{-z} <=
      gamma_4 / e``; allowing exp 4 ulp and the division by ``sqrt(2 pi)``,
      it is within ``12u gauss_k + u`` of the exact value.
    - *Comparison.*  Each left side is rounded by at most ``gamma_2``
      relatively, and the right sides below by a few u; the factor ``1 + 8u``
      covers both.  With ``bound_1 = 2 sqrt(R_up) sqrt(rho_up)`` and
      ``bound_2 = bound_1 + 1/sqrt(2 pi e b_n)``, (i) fails when
      ``sqrt(b_n)|d_k|`` exceeds ``(bound_1 + sqrt(b_n) e_k)(1 + 8u)``, and
      (ii) when its left side exceeds ``(bound_2 + sqrt(b_n) (E + 2u p_k) +
      12u gauss_k + u)(1 + 8u)``.
    """
    sb = math.sqrt(report.b_n)
    gauss_floor = 1.0 / math.sqrt(2.0 * math.pi * math.e * report.b_n)
    bound1 = 2.0 * math.sqrt(report.R) * math.sqrt(report.rho)
    ks = report.ks
    lhs1 = sb * np.abs(report.d)
    # a tiny b_n overflows the exponent to -inf, and exp(-inf) = 0 is right
    with np.errstate(over="ignore"):
        gauss = np.exp(-((ks - report.a_n) ** 2) / (2.0 * report.b_n)) / math.sqrt(2.0 * math.pi)
    lhs2 = np.abs(sb * report.p - gauss)
    edge = _NDTR_ERR + 0.75 * _U / (1.0 - 3.0 * _U)
    cells = np.abs(report.ell) + np.abs(report.d)
    delta = (report.err_l1 + 2.0 * edge + _U
             + 2.0 * _gamma(len(cells) + 2, _U) * float(cells.sum()))
    up = 1.0 + 8.0 * _U
    rho_up = (report.rho + delta) * up
    r_up = ((report.M + 2.0 * report.b_n * report.err_abs) * up
            + math.sqrt(2.0 / (math.e * math.pi))) * up
    bound1_up = 2.0 * math.sqrt(r_up) * math.sqrt(rho_up)
    err_d = report.err_abs + 2.0 * edge + 2.0 * _U * cells
    ok1 = lhs1 <= (bound1_up + sb * err_d) * up
    err_2 = sb * (report.err_abs + 2.0 * _U * report.p) + 12.0 * _U * gauss + _U
    ok2 = lhs2 <= (bound1_up + gauss_floor + err_2) * up
    failures = sorted(int(k) for k in ks[~(ok1 & ok2)])
    return PointwiseCheck(
        pointwise_ok=bool(ok1.all()),
        gaussian_ok=bool(ok2.all()),
        pointwise_max_lhs=float(lhs1.max()),
        pointwise_bound=bound1,
        gaussian_max_lhs=float(lhs2.max()),
        gaussian_bound=bound1 + gauss_floor,
        failures=failures,
    )


@dataclass(frozen=True)
class ExtractionSmoothnessBound:
    """Effective upper bound for M with its three terms and the b/theta ratio."""

    value: float
    terms: tuple[float, float, float]
    b_over_theta: float


def smoothness_via_extraction(
    spec: SumSpec,
    h: float,
    b_n: float,
    constants: ConstantsRegistry = DEFAULT_CONSTANTS,
) -> ExtractionSmoothnessBound:
    """Bound ``M = b_n sup_k |P{S_n=k} - P{S_n=k+1}|`` without the exact law:

        M <= 2 b_n e^{-h^2 Theta_n / (2 (1 + h/3))}
             + 2 c0 b_n / ((1-h)^{3/2} Theta_n^{3/2})
             + 2 b_n / (sqrt(pi e) (1-h) Theta_n)

    for any 0 < h < 1; the first term is ``b_n`` times :func:`chernoff_rho`.
    The reported ``b_over_theta`` ratio is what keeps the bound O(1) when b_n
    grows proportionally to Theta_n.  A Theta_n so small that
    ``Theta_n^{3/2}`` underflows to 0 is a :class:`NumericsError`.
    """
    if not (b_n > 0):
        raise LatticeError(f"need b_n > 0, got {b_n}")
    theta_n = spec.theta_n
    if theta_n**1.5 == 0.0:
        raise NumericsError(f"Theta_n^(3/2) underflows to 0 at Theta_n = {theta_n!r}")
    t1 = b_n * chernoff_rho(theta_n, h)
    t2 = 2.0 * constants.c0 * b_n / ((1.0 - h) ** 1.5 * theta_n**1.5)
    t3 = 2.0 * b_n / (math.sqrt(math.pi * math.e) * (1.0 - h) * theta_n)
    return ExtractionSmoothnessBound(
        value=t1 + t2 + t3, terms=(t1, t2, t3), b_over_theta=b_n / theta_n
    )
