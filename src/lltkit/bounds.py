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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad

from .convolve import convolve_all, kolmogorov_distance, poisson_binomial
from .errors import LatticeError, NumericsError, PreconditionError
from .extraction import _check_level, split, xi_law
from .lattice import LatticePmf, kappa_index, moments, psi_moments, theta

#: Bound on the n^{3/2}-scaled sup gap between the fair binomial pmf and its
#: Gaussian comparison, valid for every n: the smallest double not below
#: sqrt(2/pi)/4, the limit the gap increases toward along even and odd n.
#: Certified by :func:`certified_registry`; a scan maximum lies below the gap
#: at larger n and is not valid as a default.
DEFAULT_C0 = 0.19947114020071635

#: Esseen-type constant used by the bounded H_n plug-in; literature default,
#: overridable through the registry.
DEFAULT_CE = 0.5600


@dataclass(frozen=True)
class ConstantsRegistry:
    """Numerical constants with calibration provenance.

    Derived constants: ``c1 = max(4, c0)``, ``c2 = 12 * (c1 + 1)``,
    ``c3 = max(c2, 2**1.5 * ce)``.
    """

    c0: float = DEFAULT_C0
    ce: float = DEFAULT_CE
    provenance: str = (
        "c0: certified for every n: the smallest double >= sqrt(2/pi)/4, the limit of the "
        "n^(3/2)-scaled binomial/Gaussian gap (see certified_registry). "
        "ce: Esseen-type constant, literature default 0.5600, user-overridable. "
        "c2: fixed to 12*(c1+1), the larger of the two published forms, conservatively."
    )

    @property
    def c1(self) -> float:
        return max(4.0, self.c0)

    @property
    def c2(self) -> float:
        return 12.0 * (self.c1 + 1.0)

    @property
    def c3(self) -> float:
        return max(self.c2, 2.0**1.5 * self.ce)

    def to_json_dict(self) -> dict:
        return {
            "c0": self.c0,
            "c1": self.c1,
            "c2": self.c2,
            "c3": self.c3,
            "ce": self.ce,
            "provenance": self.provenance,
        }


DEFAULT_CONSTANTS = ConstantsRegistry()


@dataclass(frozen=True)
class PlugIns:
    """Values (or valid upper bounds) fed into the envelopes.

    ``h_n`` bounds the normal-approximation distance of the conditional sum,
    ``rho_n`` bounds the Bernoulli-count deviation probability (None when the
    target envelope does not use it), ``l_n`` is the psi-moment ratio that
    bounded plug-ins derive H_n from (None in exact mode).
    """

    h_n: float
    rho_n: float | None
    mode: str  # "exact-plug-ins" | "bounded-plug-ins"
    l_n: float | None = None


@dataclass
class BoundReport:
    """Lower/upper envelope at one lattice point, with all intermediates."""

    kappa: float
    exact: float | None
    gaussian: float
    lower: float
    upper: float
    params: dict

    @property
    def lower_negative(self) -> bool:
        return self.lower < 0.0

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper

    def to_json_dict(self, constants: ConstantsRegistry | None = None) -> dict:
        out = {
            "kappa": self.kappa,
            "exact": self.exact,
            "gaussian": self.gaussian,
            "lower": self.lower,
            "upper": self.upper,
            "lower_negative": self.lower_negative,
            "params": dict(self.params),
        }
        if constants is not None:
            out["constants"] = constants.to_json_dict()
        return out


# ---------------------------------------------------------------------------
# calibration of the fair-coin comparison constant


def _half_pascal_step(row: np.ndarray) -> np.ndarray:
    """Binomial(n + 1, 1/2) pmf from the Binomial(n, 1/2) pmf ``row``."""
    nxt = np.zeros(len(row) + 1)
    nxt[:-1] += row
    nxt[1:] += row
    return nxt * 0.5


def binomial_half_pmf(n: int) -> np.ndarray:
    """pmf of Binomial(n, 1/2) over z = 0..n via the halved Pascal recursion."""
    row = np.array([1.0])
    for _ in range(n):
        row = _half_pascal_step(row)
    return row


def calibrate_c0_scan(n_max: int) -> np.ndarray:
    """Per-n scaled gaps ``n^{3/2} * sup_z |pmf(z) - sqrt(2/(pi n)) e^{-(2z-n)^2/(2n)}|``.

    Entry i holds the value for n = i + 1.  The running maximum of this array
    is the calibrated constant.
    """
    if n_max < 1:
        raise LatticeError(f"need n_max >= 1, got {n_max}")
    row = np.array([1.0])
    out = np.empty(n_max)
    for n in range(1, n_max + 1):
        row = _half_pascal_step(row)
        z = np.arange(n + 1)
        gauss = np.sqrt(2.0 / (np.pi * n)) * np.exp(-((2.0 * z - n) ** 2) / (2.0 * n))
        out[n - 1] = n**1.5 * np.abs(row - gauss).max()
    return out


def calibrate_c0(n_max: int) -> float:
    """Max over 1 <= n <= n_max of the scaled fair-coin/Gaussian gap."""
    return float(calibrate_c0_scan(n_max).max())


def calibrated_registry(n_max: int, ce: float = DEFAULT_CE) -> ConstantsRegistry:
    """Registry with c0 recalibrated by an exact scan up to ``n_max``."""
    scan = calibrate_c0_scan(n_max)
    c0 = float(scan.max())
    argmax = int(scan.argmax()) + 1
    return ConstantsRegistry(
        c0=c0,
        ce=ce,
        provenance=(
            f"c0: exact scan for n <= {n_max}, max {c0!r} attained at n = {argmax} "
            f"(empirical, not certified beyond the scan). ce: {ce} (user-supplied default)."
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

    val, _ = quad(integrand, 0.0, 12.0, weight="cos", wvar=x, epsabs=1e-14, limit=400)
    return 2.0 * val / (math.pi * math.sqrt(n))


#: unit roundoff of IEEE double precision
_UNIT_ROUNDOFF = 2.0**-53

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
    maximum and sqrt(2/pi)/4.
    """
    if n_max < 1:
        raise LatticeError(f"need n_max >= 1, got {n_max}")
    u = _UNIT_ROUNDOFF
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


def certified_registry(n0: int, ce: float = DEFAULT_CE) -> ConstantsRegistry:
    """Registry whose c0 bounds the scaled fair-coin gap at every n >= 1.

    Let b_n be the Binomial(n, 1/2) pmf, ``x = (2z - n)/sqrt(n)``,
    ``g_n(z) = sqrt(2/(pi n)) exp(-x^2/2)`` and
    ``s_n = n^{3/2} sup_z |b_n(z) - g_n(z)|`` (the entries of
    :func:`calibrate_c0_scan`).  s_n tends to ``L = sqrt(2/pi)/4`` from
    below, so the returned c0, the smallest double not below L (checked in
    interval arithmetic), is the least double that bounds every s_n.  It does
    not depend on n0, which only sets where the scan hands over to the tail.

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
    c0 = float(limit.b)
    if (ctx.mpf(c0) >= limit) is not True:
        c0 = math.nextafter(c0, math.inf)
    if not (
        (ctx.mpf(c0) >= limit) is True
        and (ctx.mpf(math.nextafter(c0, -math.inf)) < limit) is True
    ):
        raise NumericsError("cannot pin the smallest double above sqrt(2/pi)/4")
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
        ce=ce,
        provenance=(
            f"c0: certified for every n: the smallest double >= sqrt(2/pi)/4, the limit of the "
            f"n^(3/2)-scaled binomial/Gaussian gap; exact scan with floating-point error bounds "
            f"for n <= {n0} (largest entry plus bound {float(worst.max())!r}), analytic tail bound "
            f"for n > {n0} (below the limit from N* = {C0_TAIL_N_STAR}). "
            f"ce: {ce} (user-supplied default)."
        ),
    )


# ---------------------------------------------------------------------------
# elementary ingredients


def _check_h(h: float) -> None:
    """Require the deviation parameter to satisfy ``0 < h < 1``."""
    if not (0.0 < h < 1.0):
        raise PreconditionError(f"deviation parameter must satisfy 0 < h < 1, got {h}")


def chernoff_rho(thetas: Sequence[float], h: float) -> float:
    """Chernoff bound ``2 exp(-h^2 Theta_n / (2 (1 + h/3)))`` for the two-sided
    deviation ``P{|B_n - Theta_n| > h Theta_n}`` of a Bernoulli-sum count."""
    _check_h(h)
    theta_n = math.fsum(thetas)
    if theta_n <= 0:
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


def exp_moment_gaussian(a: float, b: float) -> float:
    """``E exp(-a (b - g)^2)`` for standard normal g:
    ``exp(-b^2/(2 + 1/a)) / sqrt(1 + 2a)``."""
    if not (a > 0):
        raise PreconditionError(f"need a > 0, got {a}")
    return math.exp(-(b * b) / (2.0 + 1.0 / a)) / math.sqrt(1.0 + 2.0 * a)


# ---------------------------------------------------------------------------
# the prepared sum


@dataclass(frozen=True)
class SumSpec:
    """Validated description of the independent sum ``S_n = X_1 + ... + X_n``.

    Built once by :func:`prepare_sum` and read by every plug-in and envelope:
    the summands with their extraction levels, ``theta_n = sum_j vartheta_j``,
    the common span ``d``, the lattice offset ``v0 = sum_j v0_j`` and the mean
    and variance of S_n.  ``len(spec)`` is the number of summands.
    """

    summands: tuple[LatticePmf, ...]
    thetas: tuple[float, ...]
    theta_n: float
    d: float
    v0: float
    mean: float
    var: float

    def __len__(self) -> int:
        return len(self.summands)


def prepare_sum(summands: Sequence[LatticePmf], thetas: Sequence[float]) -> SumSpec:
    """Validate the summands and their extraction levels and compute the sum's
    characteristics.

    Requires one level per summand, each in ``(0, theta(X_j)]``, and a span
    shared by all summands.
    """
    if len(summands) != len(thetas):
        raise LatticeError("need one extraction level per summand")
    for j, (p, t) in enumerate(zip(summands, thetas)):
        _check_level(t, theta(p), "summand", j)
    if not summands:
        raise LatticeError("need at least one summand")
    d = summands[0].D
    for p in summands:
        if abs(p.D - d) > 1e-12 * max(1.0, abs(d)):
            raise LatticeError("summands must share a common span D")
    v0 = math.fsum(p.v0 for p in summands)
    mean = 0.0
    var = 0.0
    for p in summands:
        m, v = moments(p)
        mean += m
        var += v
    return SumSpec(
        summands=tuple(summands),
        thetas=tuple(thetas),
        theta_n=math.fsum(thetas),
        d=d,
        v0=v0,
        mean=mean,
        var=var,
    )


def exact_plug_ins(spec: SumSpec, h: float | None = None) -> PlugIns:
    """Oracle plug-ins: H_n from the exact xi-convolution Kolmogorov distance,
    rho_n from the exact Poisson-binomial two-sided tail (when h is given)."""
    xi = convolve_all([xi_law(split(p, t)) for p, t in zip(spec.summands, spec.thetas)])
    if not (xi.variance > 0):
        raise PreconditionError("conditional sum is degenerate; exact H_n undefined")
    h_n = kolmogorov_distance(xi.pmf, center=xi.mean, scale=math.sqrt(xi.variance))
    rho = poisson_binomial(spec.thetas).two_sided_tail(h) if h is not None else None
    return PlugIns(h_n=h_n, rho_n=rho, mode="exact-plug-ins")


def bounded_plug_ins(
    spec: SumSpec,
    h: float | None = None,
    psi: Callable[[float], float] = lambda x: abs(x) ** 3,
    constants: ConstantsRegistry = DEFAULT_CONSTANTS,
) -> PlugIns:
    """Fully effective plug-ins: the psi-moment ratio
    ``L_n = sum_j E psi(X_j) / psi(sqrt(Var S_n))``, the Esseen-type bound
    ``2^{3/2} ce * L_n`` for H_n and the Chernoff bound for rho_n (no oracle
    involved)."""
    l_n = math.fsum(psi_moments(spec.summands, psi)) / psi(math.sqrt(spec.var))
    h_n = 2.0**1.5 * constants.ce * l_n
    rho = chernoff_rho(spec.thetas, h) if h is not None else None
    return PlugIns(h_n=h_n, rho_n=rho, mode="bounded-plug-ins", l_n=l_n)


# ---------------------------------------------------------------------------
# envelopes


def sandwich_envelope(
    spec: SumSpec,
    h: float,
    kappa: float,
    plug_ins: PlugIns,
    constants: ConstantsRegistry = DEFAULT_CONSTANTS,
    exact: float | None = None,
) -> BoundReport:
    """Two-sided envelope for ``P{S_n = kappa}`` at a free deviation parameter.

    Valid for any ``0 < h < 1`` and extraction levels ``0 < vartheta_j <=
    theta(X_j)``, at every point of the sum lattice.  The lower bound is
    reported raw (it may be negative for small Theta_n; see
    ``BoundReport.lower_negative``).
    """
    _check_h(h)
    if plug_ins.rho_n is None:
        raise LatticeError("sandwich envelope needs a rho_n plug-in")
    kappa_index(kappa, spec.v0, spec.d)
    var = spec.var
    dev2 = (kappa - spec.mean) ** 2
    base = spec.d / math.sqrt(2.0 * math.pi * var)
    g_plain = base * math.exp(-dev2 / (2.0 * var))
    g_up = base * math.exp(-dev2 / (2.0 * (1.0 + h) * var))
    g_lo = base * math.exp(-dev2 / (2.0 * (1.0 - h) * var))
    shrunk = (1.0 - h) * spec.theta_n
    t = constants.c1 / math.sqrt(shrunk)
    rho = plug_ins.rho_n
    return BoundReport(
        kappa=kappa,
        exact=exact,
        gaussian=g_plain,
        lower=(1.0 - h) / (1.0 + h) * g_lo - t * (plug_ins.h_n + 1.0 / shrunk + 2.0 * rho) - rho,
        upper=(1.0 + h) / (1.0 - h) * g_up + t * (plug_ins.h_n + 1.0 / shrunk) + rho,
        params={
            "h": h,
            "theta_n": spec.theta_n,
            "H_n_used": plug_ins.h_n,
            "rho_n_used": rho,
            "var_s_n": var,
            "e_s_n": spec.mean,
            "mode": plug_ins.mode,
        },
    )


def _symmetric_envelope(
    spec: SumSpec,
    kappa: float,
    plug_ins: PlugIns,
    exact: float | None,
    stat: float,
    const: float,
    limit: Callable[[float], float],
    limit_text: str,
    params: dict,
) -> BoundReport:
    """Body of :func:`central_envelope` and :func:`psi_envelope`: the
    half-width ``const * (D sqrt(log(Theta_n) / (Var(S_n) Theta_n)) + (stat +
    1/Theta_n) / sqrt(Theta_n))`` around the Gaussian term, on the central
    range ``(kappa - E S_n)^2 / Var(S_n) <= limit(log Theta_n)``."""
    theta_n, var = spec.theta_n, spec.var
    log_t = _log_theta_n(theta_n)
    kappa_index(kappa, spec.v0, spec.d)
    dev2 = (kappa - spec.mean) ** 2
    bound = limit(log_t)
    if dev2 / var > bound:
        raise PreconditionError(
            f"central range condition (kappa - E S_n)^2 / Var(S_n) <= "
            f"{limit_text} failed: {dev2 / var:.6g} > {bound:.6g}"
        )
    g_plain = spec.d / math.sqrt(2.0 * math.pi * var) * math.exp(-dev2 / (2.0 * var))
    half = const * (
        spec.d * math.sqrt(log_t / (var * theta_n)) + (stat + 1.0 / theta_n) / math.sqrt(theta_n)
    )
    return BoundReport(
        kappa=kappa,
        exact=exact,
        gaussian=g_plain,
        lower=g_plain - half,
        upper=g_plain + half,
        params={
            "theta_n": theta_n,
            **params,
            "half_width": half,
            "var_s_n": var,
            "e_s_n": spec.mean,
            "mode": plug_ins.mode,
        },
    )


def central_envelope(
    spec: SumSpec,
    kappa: float,
    plug_ins: PlugIns,
    constants: ConstantsRegistry = DEFAULT_CONSTANTS,
    exact: float | None = None,
) -> BoundReport:
    """Symmetric envelope ``|P{S_n = kappa} - gauss| <= C2 * {...}`` in the
    central range.

    Requires ``log(Theta_n)/Theta_n <= 1/14`` and
    ``(kappa - E S_n)^2 / Var(S_n) <= sqrt(Theta_n / (14 log Theta_n))``;
    rejection names the failed condition.  The half-width is

        C2 * ( D * sqrt(log(Theta_n) / (Var(S_n) Theta_n))
               + (H_n + 1/Theta_n) / sqrt(Theta_n) ).
    """
    return _symmetric_envelope(
        spec,
        kappa,
        plug_ins,
        exact,
        stat=plug_ins.h_n,
        const=constants.c2,
        limit=lambda log_t: math.sqrt(spec.theta_n / (14.0 * log_t)),
        limit_text="sqrt(theta_n / (14 log theta_n))",
        params={"H_n_used": plug_ins.h_n, "rho_n_used": None},
    )


def psi_envelope(
    spec: SumSpec,
    kappa: float,
    plug_ins: PlugIns,
    constants: ConstantsRegistry = DEFAULT_CONSTANTS,
    exact: float | None = None,
) -> BoundReport:
    """Fully effective symmetric envelope with the psi-moment ratio.

    Same shape as :func:`central_envelope` with H_n replaced by the L_n of
    :func:`bounded_plug_ins` and constant C3, on its own (narrower) central
    range ``(kappa - E S_n)^2 / Var(S_n) <= sqrt(7 log(Theta_n) / (2 Theta_n))``.
    """
    if plug_ins.l_n is None:
        raise LatticeError("psi envelope needs an L_n plug-in (bounded-plug-ins)")
    return _symmetric_envelope(
        spec,
        kappa,
        plug_ins,
        exact,
        stat=plug_ins.l_n,
        const=constants.c3,
        limit=lambda log_t: math.sqrt(7.0 * log_t / (2.0 * spec.theta_n)),
        limit_text="sqrt(7 log theta_n / (2 theta_n))",
        params={"l_n": plug_ins.l_n},
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
