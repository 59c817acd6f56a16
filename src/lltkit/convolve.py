"""Exact distribution engine: the dense law of a sum of independent lattice
variables, and the brute-force statistics every bound is checked against.

:func:`sum_law` is the one kernel.  It takes the sum as ``(law, count)``
parts, the oracle-side twin of the parts of :class:`lltkit.bounds.SumSpec`:
each law is densified once on the finest lattice present and convolved into
the running array ``count`` times with direct ``numpy.convolve`` (no FFT;
quadratic in the number of summands, elementwise rounding error only).  Every
oracle reads the dense array of the resulting :class:`SumLaw` in place.  The
normal CDF is ``scipy.special.ndtr`` (absolute error near machine precision).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import ndtr

from .errors import LatticeError, NumericsError
from .lattice import LatticePmf, _moments


def standard_normal_cdf(x: float) -> float:
    """Phi(x) with absolute error below 1e-15."""
    return float(ndtr(x))


@dataclass(frozen=True)
class SumLaw:
    """Exact law of a sum of independent lattice variables, held dense:
    ``probs[i] = P{S = v0 + D * (first + i)}``.  Zeros in the array
    (underflowed tails, gaps under coarser spans) are not support points."""

    probs: np.ndarray
    first: int
    v0: float
    D: float
    mean: float
    variance: float

    def atoms(self) -> tuple[np.ndarray, np.ndarray]:
        """Indices and masses of the positive entries, in increasing order."""
        nz = np.flatnonzero(self.probs)
        return self.first + nz, self.probs[nz]

    def mass(self, k: int) -> float:
        """``P{S = v0 + D*k}``; 0.0 off the array."""
        i = k - self.first
        return float(self.probs[i]) if 0 <= i < len(self.probs) else 0.0

    def two_sided_tail(self, center: float, radius: float) -> float:
        """Exact ``P{|S - center| > radius}``."""
        pts = self.v0 + self.D * np.arange(self.first, self.first + len(self.probs))
        return float(self.probs[np.abs(pts - center) > radius].sum())

    def to_json_dict(self) -> dict:
        """The pmf schema of :meth:`LatticePmf.to_json_dict`, positive masses only."""
        ks, w = self.atoms()
        probs = [[k, p] for k, p in zip(ks.tolist(), w.tolist())]
        return {"v0": self.v0, "D": self.D, "probs": probs}


def sum_law(parts: Sequence[tuple[LatticePmf, int]]) -> SumLaw:
    """Exact law of the independent sum of ``count`` copies of each ``law`` in
    ``parts = [(law, count), ...]``, convolved in the order given.

    Spans must be integer multiples of the finest one and counts integers
    >= 1; offsets add up into ``v0``.  The array's plain sum must lie within
    ``n * 1e-14`` of one (n summands); it is then normalized by its fsum.
    """
    if not parts:
        raise LatticeError("need at least one summand")
    d = min(p.D for p, _ in parts)
    acc = np.array([1.0])
    first = 0
    for p, count in parts:
        if count < 1:
            raise LatticeError(f"need n >= 1 summands, got {count}")
        r = p.D / d
        s = round(r)
        if s < 1 or abs(r - s) > 1e-9 * max(1.0, s):
            raise LatticeError(f"incompatible spans: {p.D} is not an integer multiple of {d}")
        ks = p.support
        dense = np.zeros((ks[-1] - ks[0]) * s + 1)
        for k, w in p.probs.items():
            dense[(k - ks[0]) * s] = w
        for _ in range(count):
            acc = np.convolve(acc, dense)
        first += count * s * ks[0]
    drift = abs(float(acc.sum()) - 1.0)
    if drift > sum(count for _, count in parts) * 1e-14:
        raise NumericsError(f"convolution mass drifted by {drift:.3e}")
    probs = acc / math.fsum(acc)
    v0 = math.fsum(count * p.v0 for p, count in parts)
    nz = np.flatnonzero(probs)
    mean, var = _moments((v0 + d * (first + nz)).tolist(), probs[nz].tolist())
    return SumLaw(probs=probs, first=first, v0=v0, D=d, mean=mean, variance=var)


def iid_sum(pmf: LatticePmf, n: int) -> SumLaw:
    """Exact law of the sum of n independent copies of ``pmf``."""
    return sum_law([(pmf, n)])


def bernoulli(t: float) -> LatticePmf:
    """Bernoulli(t) on L(0, 1), 0 < t <= 1, with masses ``1 - t`` and ``t`` as computed."""
    if not (0.0 < t <= 1.0):
        raise LatticeError(f"success probabilities must lie in (0, 1], got {t}")
    return LatticePmf(0.0, 1.0, {0: 1.0 - t, 1: t} if t < 1.0 else {1: 1.0})


def kolmogorov_distance(law: SumLaw, center: float, scale: float) -> float:
    """Exact sup-distance between the CDF of ``(S - center)/scale`` and Phi.

    The supremum over x is attained at a jump of the discrete CDF, approached
    from one of the two sides, so it suffices to compare Phi against the CDF
    value before and after every jump (every positive mass).
    """
    if not (scale > 0):
        raise LatticeError(f"scale must be positive, got {scale}")
    ks, w = law.atoms()
    phi = ndtr((law.v0 + law.D * ks - center) / scale)
    cdf_after = np.cumsum(w)
    cdf_before = cdf_after - w
    return float(np.maximum(np.abs(cdf_after - phi), np.abs(cdf_before - phi)).max())


def llt_discrepancy(law: SumLaw) -> float:
    """Scaled sup-distance between point probabilities and the Gaussian curve.

        sup_N | sqrt(Var) * P{S = N} - D/sqrt(2 pi) * exp(-(N - E S)^2 / (2 Var)) |

    with N running over the whole sum lattice, including points outside the
    support (where only the Gaussian term contributes).
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
