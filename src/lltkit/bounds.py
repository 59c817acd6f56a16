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

The module holds the constants, the plug-ins and the envelopes.  The
certificate of :data:`DEFAULT_C0` (the fair-coin scan, its error bounds and
the analytic tail) and the de Moivre band are offline checks, in
:mod:`lltkit.checks`, which no command imports.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from typing import Any, Iterable, Iterator

from .convolve import (_LIBM, _U, SumLaw, _as_count, _gamma, bernoulli, exact_moments,
                       kolmogorov_bound, sum_law)
from .errors import LatticeError, NumericsError, PreconditionError
from .extraction import _check_level, split, xi_law
from .lattice import LatticePmf, _field_dict, _integral, _real, kappa_index, moments, theta

#: Bound on the n^{3/2}-scaled sup gap between the fair binomial pmf and its
#: Gaussian comparison, valid for every n: the smallest double not below
#: sqrt(2/pi)/4, the limit the gap increases toward along even and odd n.
#: Certified by :func:`lltkit.checks.certified_registry`; a scan maximum lies
#: below the gap at larger n and is not valid as a default.
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
        """:meth:`row` plus ``lower_negative``, the parameters, the constants
        and, with an exact value, its error bound ``exact_err``."""
        out = {**self.row(), "lower_negative": self.lower_negative,
               "params": dict(self.params), "constants": _field_dict(constants)}
        if self.exact is not None:
            out["exact_err"] = self.exact_err
        return out


# ---------------------------------------------------------------------------
# a registry from the fair-coin scan


def calibrated_registry(n_max: int) -> ConstantsRegistry:
    """Registry with c0 recalibrated by an exact scan up to ``n_max``
    (:func:`lltkit.checks.calibrate_c0_scan`) and the default ce."""
    from .checks import calibrate_c0_scan  # on first use: no command imports the checks

    n_max = _integral(n_max, "n_max")
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

    @cached_property
    def moment_errors(self) -> tuple[float, float]:
        """``|mean - E S_n|`` and ``|var - Var S_n|`` against the exact moments
        of the stored masses (:func:`lltkit.convolve.exact_moments` of the
        parts), rounded up, on first read; both inf where mean or var is not
        finite."""
        if not (math.isfinite(self.mean) and math.isfinite(self.var)):
            return math.inf, math.inf
        exact = exact_moments([(p, count) for p, _, count in self.parts])
        return tuple(math.nextafter(float(abs(Fraction(x) - y)), math.inf)
                     for x, y in zip((self.mean, self.var), exact))


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


def bounded_plug_ins(spec: SumSpec, h: float | None = None,
                     constants: ConstantsRegistry = DEFAULT_CONSTANTS) -> PlugIns:
    """Fully effective plug-ins: the psi-moment ratio
    ``L_n = sum_j E psi(X_j) / psi(sqrt(Var S_n))`` at ``psi(x) = |x|**3``,
    the Esseen-type bound ``2^{3/2} ce * L_n`` for H_n and the Chernoff
    bound for rho_n (no oracle involved).

    The envelope holds for every Katz-Petrov psi: even, with ``psi(x)/x**2``
    and ``x**3/psi(x)`` non-decreasing on x > 0 (Katz, Ann. Math. Statist.
    34 (1963); Petrov, *Sums of Independent Random Variables*, ch. V).  The
    cube is the least of them where the bound means anything: as
    ``x**3/psi(x)`` is non-decreasing, ``psi(x)/psi(s) >= |x|**3/s**3`` for
    ``|x| <= s``, so where every support point lies within ``s = sqrt(Var
    S_n)`` no admissible psi gives a smaller L_n.  The other boundary case,
    ``psi = x**2``, gives ``L_n = sum_j E X_j**2 / Var S_n >= 1``, with
    which ``2^{3/2} ce L_n`` (1.58 at ce = 0.56) bounds no Kolmogorov
    distance.

    ``E |X_j|**3`` is taken about the lattice origin, not about ``E X_j``, so
    the bound grows with the distance of the law from 0: for ``{1, 2, 1}/4``
    at n = 1e4 it is 0.0224 / 0.112 / 0.493 / 4.6e4 at v0 = -1 / 0 / 1 /
    100, against an exact H_n of 0.0016.

    A denominator that is not > 0, as when ``psi(sqrt(Var S_n))`` or Var S_n
    itself underflows on a tiny span, an L_n that is not finite or has a
    cube beyond the doubles, as when ``E psi(X_j)`` or ``psi(sqrt(Var S_n))``
    overflows on a huge span, and an H_n that is not finite, as when a huge
    ``ce`` overflows the product, are a :class:`NumericsError`."""
    try:
        total = math.fsum(c * math.fsum(abs(p.point(k)) ** 3 * w for k, w in p.probs.items())
                          for p, _, c in spec.parts)
        scale = math.sqrt(spec.var) ** 3
    except OverflowError:
        raise NumericsError(f"L_n = sum_j E psi(X_j) / psi(sqrt(Var S_n)) has a term beyond the "
                            f"doubles (Var S_n = {spec.var!r})") from None
    if not (scale > 0):
        raise NumericsError(f"L_n undefined: its denominator psi(sqrt(Var S_n)) = {scale!r} is "
                            f"not > 0 (Var S_n = {spec.var!r})")
    l_n = total / scale
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

    A verdict allows for the exact value's ``err_abs`` plus the rounding of
    either side, :meth:`rounding`: its distance from the side in real
    arithmetic at the exact ``mu = E S_n`` and ``V = Var S_n`` of the stored
    masses, with its factor and ``den = c V`` (``c = 2 (1 +- h)``, or 2)
    taken in real arithmetic from h, and its term and rho from their inputs
    as given.  The moments' errors are measured, ``dmu = |spec.mean - mu|``
    and ``A = |spec.var - V|`` (:attr:`SumSpec.moment_errors`, once per
    request), and at every order, with u = 2^-53, ``gamma_k = k u / (1 - k
    u)`` and lambda = ``convolve._LIBM`` for libm's ``exp`` and ``log``:

    - the body's own roundings, at spec.mean and spec.var: the factor
      rounds by ``gamma_3``, ``base = D / sqrt(2 pi var)`` by ``gamma_4``
      (``math.pi`` counted once), den by ``gamma_2``, and ``dev2``, the
      square of ``kappa - mean`` by ``**`` (C ``pow``, within an ulp), by
      ``gamma_5``, so ``a = dev2 / den`` by ``gamma_8``.  The Gaussian part
      ``factor (base exp(-a))`` adds its two products and ``exp``, and the
      side's two additions 2u of their partial sums; the term and rho round
      by at most ``gamma_10 + lambda`` of themselves where the body computed
      them (a log in the half-width).  ``g = gamma_12 + lambda`` covers each.
    - the mean: spec.mean moves ``a`` by at most ``2 sqrt(a) r + r^2``,
      ``r = dmu / sqrt(den)`` at the smaller den of the two sides, so ``a``
      is off by ``Delta <= a g + (2 sqrt(a) r + r^2)(1 + g)`` in all, and
      ``exp(-a)`` by ``Delta e^(Delta - a)``.  For ``r <= 2^-10``, ``2
      sqrt(a) r <= a / 100 + 100 r^2`` gives ``e^(Delta - a) <= 1.0001
      e^(-0.9899 a)``, and as ``a e^(-0.9899 a) <= 0.3717`` and ``2 sqrt(a)
      e^(-0.9899 a) <= 0.8622``, the Gaussian part errs by at most ``factor
      base (g + 1.01 (0.37 g + (0.86 + r) r))`` at every point.
    - the variance: moving spec.var to V moves the Gaussian part ``G(v) =
      factor D / sqrt(2 pi v) exp(-dev2 / (c v))`` by at most A times
      ``|G'(v)| = G(v) |a - 1/2| / v <= factor D / sqrt(2 pi v) / (2 v)``
      (as ``|a - 1/2| e^{-a} <= 1/2``) for v between them, where ``v >=
      spec.var (1 - s)``, ``s = A / spec.var``; for ``s <= 2^-11`` the move
      is at most ``0.51 factor base s``.

    A larger s or r makes the bound infinite, and no verdict is decided.
    The bound is rounded up by ``1 + 2^-40``, which covers its own
    arithmetic, and holds at every point of the body, so a verdict reads one
    number.
    """

    spec: SumSpec
    exact: bool
    params: dict
    lower: tuple[float, float, float, float]
    upper: tuple[float, float, float, float]
    limit: tuple[float, str] | None = None

    def rounding(self) -> float:
        """A bound on the rounding of either side at any point (above)."""
        spec = self.spec
        dmu, dvar = spec.moment_errors
        s = dvar / spec.var
        r = dmu / math.sqrt(min(self.lower[1], self.upper[1]))  # dmu / sqrt(den) on either side
        if not (s <= 2.0**-11 and r <= 2.0**-10):
            return math.inf
        base, g = spec.d / math.sqrt(2.0 * math.pi * spec.var), _gamma(12, _U) + _LIBM
        return max(f * base * (g + 1.01 * (0.37 * g + (0.86 + r) * r) + 0.51 * s)
                   + g * (abs(term) + abs(rho))
                   for f, _, term, rho in (self.lower, self.upper)) * (1.0 + 2.0**-40) + 2.0**-1074

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
        the verdict (plus the sides' :meth:`rounding`) come from ``spec.law``,
        built before :meth:`deviations` runs; without it the exact column is
        None."""
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
            cols["sandwich_ok"] = list(map(_verdict, exact, lower, upper,
                                           repeat(law.err_abs + self.rounding())))
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
