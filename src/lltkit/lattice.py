"""Finite probability mass functions on a lattice and their characteristics.

A pmf lives on the lattice ``L(v0, D) = {v0 + D*k : k in Z}`` with ``D > 0``.
Support is finite and stored explicitly as a map from the integer index ``k``
to the probability ``f(k)`` at the point ``v_k = v0 + D*k``.

Two smoothness characteristics drive everything downstream:

    theta(f) = sum_k min(f(k), f(k+1))     overlap of adjacent masses
    delta(f) = sum_k |f(k) - f(k+1)|       total variation of the profile

They satisfy ``delta = 2 - 2*theta`` and ``0 <= theta < 1``, and the variance
obeys ``var >= D**2 * theta / 4``.  ``theta`` is the total Bernoulli mass that
can be extracted from the variable (see :mod:`lltkit.extraction`).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from .errors import LatticeError, PreconditionError

#: sample abscissas used by the psi admissibility spot-check
_PSI_SAMPLES = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 5.0, 8.0)


@dataclass(frozen=True)
class LatticePmf:
    """Probability mass function on the lattice ``L(v0, D)``.

    ``probs`` maps index ``k`` to ``f(k) > 0``; indices with zero mass are not
    stored.  Instances are immutable; treat ``probs`` as read-only.
    """

    v0: float
    D: float
    probs: dict[int, float]

    def point(self, k: int) -> float:
        """Lattice point ``v_k = v0 + D*k``."""
        return self.v0 + self.D * k

    def mass(self, k: int) -> float:
        """``f(k)``, zero off the stored support."""
        return self.probs.get(k, 0.0)

    @property
    def support(self) -> list[int]:
        """Sorted support indices."""
        return sorted(self.probs)

    def to_json_dict(self) -> dict:
        """JSON form ``{"v0": ..., "D": ..., "probs": [[k, f(k)], ...]}``."""
        return {
            "v0": self.v0,
            "D": self.D,
            "probs": [[k, self.probs[k]] for k in self.support],
        }


def _integral(k, what: str) -> int:
    """``k`` as an int: an integer (a numpy integer too), or a float with an
    integral value, of magnitude at most 2^53, so that every ``v0 + D*k``
    computed in doubles reads it exactly; anything else (a JSON ``true``
    too) is a :class:`LatticeError` naming ``what``."""
    if isinstance(k, float) and k.is_integer():
        k = int(k)
    if isinstance(k, (int, numbers.Integral)) and not isinstance(k, bool):
        k = int(k)
        if abs(k) <= 2**53:
            return k
        raise LatticeError(f"{what} {k} is above 2^53 in magnitude")
    raise LatticeError(f"{what} must be an integer, got {k!r}")


def _real(x, what: str) -> float:
    """``x`` as a float: a real number (an int, a float, a numpy scalar, a
    Fraction) that a double holds; anything else (a string, a JSON ``true``,
    an int beyond the doubles too) is a :class:`LatticeError` naming ``what``."""
    if isinstance(x, (int, float, numbers.Real)) and not isinstance(x, bool):
        try:
            return float(x)
        except OverflowError:
            raise LatticeError(f"{what} {x} is beyond the range of a double") from None
    raise LatticeError(f"{what} must be a number, got {x!r}")


def make_pmf(v0: float, D: float, entries: Iterable[tuple[int, float]]) -> LatticePmf:
    """Build a pmf from (index, weight) pairs.

    Weights may be unnormalized; they are merged by index, validated
    (non-negative, at least one positive) and normalized to sum to one.
    ``v0``, ``D`` and every weight must be real numbers that a double holds,
    and the support points ``v0 + D*k`` of positive mass must be distinct
    finite doubles (a span below the spacing of doubles at v0 collapses
    them, a huge one overflows them);
    anything else is a :class:`LatticeError` that names the value.
    """
    D, v0 = _real(D, "D"), _real(v0, "v0")
    if not (D > 0) or not math.isfinite(D):
        raise LatticeError(f"lattice span must be positive and finite, got D={D!r}")
    if not math.isfinite(v0):
        raise LatticeError(f"lattice offset must be finite, got v0={v0!r}")
    merged: dict[int, float] = {}
    for k, w in entries:
        k = _integral(k, "support index")
        w = _real(w, "weight")
        if not math.isfinite(w) or w < 0:
            raise LatticeError(f"weight at index {k} must be finite and >= 0, got {w!r}")
        merged[k] = merged.get(k, 0.0) + w
    total = math.fsum(merged.values())
    if total <= 0:
        raise LatticeError("at least one weight must be positive")
    probs = {k: w / total for k, w in sorted(merged.items()) if w > 0}
    points = [(v0 + D * k, k) for k in probs]  # non-decreasing in k, as D > 0
    for x, k in points:  # first, as points that overflow to one infinity also collapse
        if not math.isfinite(x):
            raise LatticeError(f"support point v0 + D*k is {x!r} at k = {k}, beyond the range "
                               f"of doubles (v0 = {v0!r}, D = {D!r})")
    for (x, k), (y, j) in zip(points, points[1:]):
        if x == y:
            raise LatticeError(f"support points collapse: v0 + D*k is {x!r} at k = {k} and "
                               f"k = {j} (v0 = {v0!r}, D = {D!r})")
    return LatticePmf(v0, D, probs)


def pmf_from_json(obj: Mapping) -> LatticePmf:
    """Parse the pmf JSON schema produced by :meth:`LatticePmf.to_json_dict`."""
    try:
        return make_pmf(obj["v0"], obj["D"], obj["probs"])
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, LatticeError):
            raise
        raise LatticeError(f"malformed pmf object: {exc}") from exc


def theta(pmf: LatticePmf) -> float:
    """Adjacent-overlap characteristic ``sum_k min(f(k), f(k+1))``.

    Lies in ``[0, 1)``; zero exactly when no two adjacent lattice points both
    carry mass.
    """
    f = pmf.probs
    return math.fsum(min(p, f[k + 1]) for k, p in f.items() if k + 1 in f)


def delta_smoothness(pmf: LatticePmf) -> float:
    """Total-variation characteristic ``sum_k |f(k) - f(k+1)|``.

    The sum runs over all of Z; only indices adjacent to the support
    contribute, including the two boundary jumps against zero.  Always equals
    ``2 - 2*theta(pmf)``.
    """
    f = pmf.probs
    ks = set(f) | {k - 1 for k in f}
    return math.fsum(abs(f.get(k, 0.0) - f.get(k + 1, 0.0)) for k in ks)


def moments(pmf: LatticePmf) -> tuple[float, float]:
    """Mean and variance, summed on the index lattice by :func:`_index_moments`.

    Against the exact moments of the stored masses scaled to total one
    (:func:`lltkit.convolve.exact_moments`), to first order in u = 2^-53:
    the variance is within ``9 u Var`` and the mean within ``u |E X| + 10 u D
    max_k |k|``; neither depends on how many ulps of v0 the support spans.
    The derivation is at :func:`_index_moments`, with the normalized masses
    summing to ``1 + eta``, ``|eta| <= 2u``."""
    return _index_moments(pmf.v0, pmf.D, list(pmf.probs), list(pmf.probs.values()))


def _index_moments(v0: float, D: float, ks: Sequence[int], ps: Sequence[float]
                   ) -> tuple[float, float]:
    """Mean and variance of the masses ``ps`` at the points ``v0 + D*k`` of
    ``L(v0, D)``, summed on the indices ``ks`` (increasing from their first,
    k0) so that v0 enters the mean only:

        m = fsum((k - k0) p),  mean = v0 + D (k0 + m),
        var = D**2 fsum(((k - k0) - m)^2 p).

    Rounding, to first order in u = 2^-53, with ``j = k - k0 >= 0`` exact
    and ``S = sum p = 1 + eta``: m is within ``(2u + |eta|) mu_j`` of the
    exact index mean ``mu_j = sum j p / S``, and an error e in m adds ``S
    e^2`` to the sum of squares, whose first-order term it leaves alone.
    The difference, square, product and fsum round each term by 5u, and
    ``D**2`` and its product by 2u more: the variance is within ``(7u +
    |eta|) Var + D^2 e^2``, e^2 a second-order term.  The mean rounds by u
    in ``k0 + m``, in the product and in the sum with v0, and carries ``D
    e``.  ``**`` raises OverflowError where ``D**2`` overflows, and so does
    a variance that overflows in its product."""
    k0 = ks[0]
    m = math.fsum((k - k0) * p for k, p in zip(ks, ps))
    s = math.fsum(((k - k0) - m) ** 2 * p for k, p in zip(ks, ps))
    var = D**2 * s
    if var == math.inf:
        raise OverflowError(f"the variance D**2 * {s!r} at D = {D!r}")
    return v0 + D * (k0 + m), var


def _check_psi(psi: Callable[[float], float]) -> None:
    """Spot-check that psi is even, convex, with psi(x)/x^2 and x^3/psi(x)
    non-decreasing on the positive half-line.  Sampled, not a proof."""
    tol = 1e-9
    vals = []
    for x in _PSI_SAMPLES:
        y = psi(x)
        if not math.isfinite(y) or y <= 0:
            raise LatticeError(f"psi({x}) = {y!r}; psi must be positive on x > 0")
        if abs(y - psi(-x)) > tol * (1.0 + abs(y)):
            raise LatticeError(f"psi is not even at x={x}: psi(x)={y}, psi(-x)={psi(-x)}")
        vals.append(y)
    for a, b in zip(_PSI_SAMPLES, _PSI_SAMPLES[1:]):
        mid = psi((a + b) / 2.0)
        chord = (psi(a) + psi(b)) / 2.0
        if mid > chord + tol * (1.0 + abs(chord)):
            raise LatticeError(f"psi fails midpoint convexity on [{a}, {b}]")
    ratios_up = [y / x**2 for x, y in zip(_PSI_SAMPLES, vals)]
    ratios_down = [x**3 / y for x, y in zip(_PSI_SAMPLES, vals)]
    for name, seq in (("psi(x)/x^2", ratios_up), ("x^3/psi(x)", ratios_down)):
        for r0, r1 in zip(seq, seq[1:]):
            if r1 < r0 * (1.0 - 1e-9) - tol:
                raise LatticeError(f"{name} is not non-decreasing on the sampled points")


def psi_moments(pmfs: Iterable[LatticePmf], psi: Callable[[float], float]) -> list[float]:
    """``E psi(X) = sum_k psi(v_k) f(k)`` for each pmf, psi checked once.

    ``psi`` must be even, convex, with ``psi(x)/x**2`` and ``x**3/psi(x)``
    non-decreasing on ``x > 0`` (spot-checked on sampled points; the caller
    certifies the rest).  ``psi = x**2`` and ``psi = |x|**3`` are the two
    boundary cases.
    """
    _check_psi(psi)
    return [math.fsum(psi(pmf.point(k)) * p for k, p in pmf.probs.items()) for pmf in pmfs]


def kappa_index(kappa: float, v0: float, d: float) -> int:
    """Index k with ``kappa = v0 + d*k`` on the lattice ``L(v0, d)``, to 1e-9 of
    a step plus the rounding of ``v0 + d*k`` in floats; :class:`PreconditionError`
    when kappa is off the lattice.

    From a point computed as ``v0 + d*k``, r below is within ``3u|k| + u|kappa/d|``
    of k (u = 2^-53, to first order), which passes 1e-9 from |k| of about 10^7
    on; the ``4u (|r| + |kappa/d|)`` term admits every such point, so an
    ``llt-bound`` sweep is never refused at one of its own points.
    """
    r, slack = lattice_position(kappa, v0, d)
    k = round(r) if math.isfinite(r) else None
    if k is None or abs(r - k) > slack:
        raise PreconditionError(f"kappa = {kappa} is not on the sum lattice L({v0}, {d})")
    return k


def lattice_position(kappa: float, v0: float, d: float) -> tuple[float, float]:
    """``r = (kappa - v0)/d`` and the slack within which r stands for a
    lattice index k, ``|r - k| <= slack`` (derived at :func:`kappa_index`);
    the ``llt-bound`` sweep rounds its ends by the same slack.  A finite
    kappa more than 2^53 steps from v0, where doubles no longer tell
    neighbouring lattice points apart (the bound of :func:`_integral`), is a
    :class:`LatticeError`."""
    r = (kappa - v0) / d
    if math.isfinite(kappa) and not abs(r) <= 2**53:
        raise LatticeError(f"kappa = {kappa} lies more than 2^53 steps from v0 on L({v0}, {d})")
    return r, 1e-9 + 2.0**-51 * (abs(r) + abs(kappa / d))


@dataclass(frozen=True)
class Characteristics:
    """Summary of a pmf: both smoothness characteristics, moments, span info;
    the ``characteristics`` command prints these fields.

    ``span_multiple`` is the largest integer g such that every difference of
    support points is a multiple of g*D (gcd of index differences; reported
    as 1 for a single-point support).  A value above 1 means the variable
    actually lives on a coarser lattice than declared.
    """

    theta: float
    delta: float
    mean: float
    variance: float
    span_multiple: int


def span_multiple(pmf: LatticePmf) -> int:
    """gcd of support index differences (1 for a point mass)."""
    ks = pmf.support
    g = 0
    for k in ks[1:]:
        g = math.gcd(g, k - ks[0])
    return g if g > 0 else 1


def characteristics(pmf: LatticePmf) -> Characteristics:
    """Compute all characteristics of a pmf in one pass."""
    mean, var = moments(pmf)
    return Characteristics(
        theta=theta(pmf),
        delta=delta_smoothness(pmf),
        mean=mean,
        variance=var,
        span_multiple=span_multiple(pmf),
    )
