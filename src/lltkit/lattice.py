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
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

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


def make_pmf(v0: float, D: float, entries: Iterable[tuple[int, float]]) -> LatticePmf:
    """Build a pmf from (index, weight) pairs.

    Weights may be unnormalized; they are merged by index, validated
    (non-negative, at least one positive) and normalized to sum to one.
    """
    if not (D > 0) or not math.isfinite(D):
        raise LatticeError(f"lattice span must be positive and finite, got D={D!r}")
    if not math.isfinite(v0):
        raise LatticeError(f"lattice offset must be finite, got v0={v0!r}")
    merged: dict[int, float] = {}
    for k, w in entries:
        if not isinstance(k, int):
            if isinstance(k, float) and k.is_integer():
                k = int(k)
            else:
                raise LatticeError(f"support index must be an integer, got {k!r}")
        w = float(w)
        if not math.isfinite(w) or w < 0:
            raise LatticeError(f"weight at index {k} must be finite and >= 0, got {w!r}")
        merged[k] = merged.get(k, 0.0) + w
    total = math.fsum(merged.values())
    if total <= 0:
        raise LatticeError("at least one weight must be positive")
    probs = {k: w / total for k, w in sorted(merged.items()) if w > 0}
    return LatticePmf(float(v0), float(D), probs)


def pmf_from_json(obj: Mapping) -> LatticePmf:
    """Parse the pmf JSON schema produced by :meth:`LatticePmf.to_json_dict`."""
    try:
        entries = [(int(k), float(w)) for k, w in obj["probs"]]
        return make_pmf(float(obj["v0"]), float(obj["D"]), entries)
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
    """Mean and variance as exact finite sums over the support."""
    mean = math.fsum(pmf.point(k) * p for k, p in pmf.probs.items())
    var = math.fsum((pmf.point(k) - mean) ** 2 * p for k, p in pmf.probs.items())
    return mean, var


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


def psi_moment(pmf: LatticePmf, psi: Callable[[float], float]) -> float:
    """``E psi(X)`` for one pmf; see :func:`psi_moments`."""
    return psi_moments([pmf], psi)[0]


def kappa_index(kappa: float, v0: float, d: float) -> int:
    """Index k with ``kappa = v0 + d*k`` on the lattice ``L(v0, d)``, to 1e-9 of
    a step; :class:`PreconditionError` when kappa is off the lattice."""
    r = (kappa - v0) / d
    if not math.isfinite(r) or abs(r - round(r)) > 1e-9:
        raise PreconditionError(f"kappa = {kappa} is not on the sum lattice L({v0}, {d})")
    return round(r)


@dataclass(frozen=True)
class Characteristics:
    """Summary of a pmf: both smoothness characteristics, moments, span info.

    ``maximal_span_multiple`` is the largest integer g such that every
    difference of support points is a multiple of g*D (gcd of index
    differences; reported as 1 for a single-point support).  A value above 1
    means the variable actually lives on a coarser lattice than declared.
    """

    theta: float
    delta: float
    mean: float
    variance: float
    maximal_span_multiple: int

    def to_json_dict(self) -> dict:
        return {
            "theta": self.theta,
            "delta": self.delta,
            "mean": self.mean,
            "variance": self.variance,
            "span_multiple": self.maximal_span_multiple,
        }


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
        maximal_span_multiple=span_multiple(pmf),
    )
