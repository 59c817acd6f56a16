"""Exact distribution engine: convolutions, Poisson-binomial laws, and the
brute-force comparison statistics used as oracles for every bound.

Convolution is plain O(|A|*|B|) accumulation via ``numpy.convolve`` (direct
method, no FFT), so results carry only elementwise rounding error; support
sizes here are desk-scale.  The normal CDF comes from ``scipy.special.ndtr``
(erfc-based, absolute error near machine precision).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy.special import ndtr

from .errors import LatticeError, NumericsError
from .lattice import LatticePmf, make_pmf, moments


def standard_normal_cdf(x: float) -> float:
    """Phi(x) with absolute error below 1e-15."""
    return float(ndtr(x))


@dataclass(frozen=True)
class SumLaw:
    """Exact law of a sum of independent lattice variables."""

    pmf: LatticePmf
    n: int
    mean: float
    variance: float


def _dense_masses(probs: Mapping[int, float], lo: int, hi: int, scale: int = 1) -> np.ndarray:
    """Zero array over the positions ``lo..hi`` holding ``probs[k]`` at ``k * scale``."""
    arr = np.zeros(hi - lo + 1)
    for k, p in probs.items():
        arr[k * scale - lo] = p
    return arr


def convolve_all(pmfs: Sequence[LatticePmf]) -> SumLaw:
    """Exact pmf of the independent sum of the given lattice variables.

    All inputs must live on compatible lattices: every span must be an integer
    multiple of the finest span present, and offsets are absorbed into the sum
    offset ``sum_i v0_i``.  Incompatible spans are rejected.
    """
    if not pmfs:
        raise LatticeError("need at least one pmf to convolve")
    d_base = min(p.D for p in pmfs)
    scales = []
    for p in pmfs:
        r = p.D / d_base
        m = round(r)
        if m < 1 or abs(r - m) > 1e-9 * max(1.0, m):
            raise LatticeError(
                f"incompatible spans: {p.D} is not an integer multiple of {d_base}"
            )
        scales.append(m)
    off = 0
    acc = np.array([1.0])
    for p, s in zip(pmfs, scales):
        ks = p.support
        lo = ks[0] * s
        acc = np.convolve(acc, _dense_masses(p.probs, lo, ks[-1] * s, s))
        off += lo
    drift = abs(float(acc.sum()) - 1.0)
    if drift > len(pmfs) * 1e-14:
        raise NumericsError(f"convolution mass drifted by {drift:.3e}")
    v0 = math.fsum(p.v0 for p in pmfs)
    out = make_pmf(v0, d_base, [(off + i, w) for i, w in enumerate(acc) if w > 0.0])
    mean, var = moments(out)
    return SumLaw(pmf=out, n=len(pmfs), mean=mean, variance=var)


def iid_sum(pmf: LatticePmf, n: int) -> SumLaw:
    """Exact law of the sum of n independent copies of ``pmf``."""
    if n < 1:
        raise LatticeError(f"need n >= 1 summands, got {n}")
    return convolve_all([pmf] * n)


@dataclass(frozen=True)
class PoissonBinomialLaw:
    """Exact law of ``B_n = sum_j eps_j`` for independent Bernoulli eps_j.

    ``pmf[k] = P{B_n = k}`` for k = 0..n; ``theta_n`` is the mean
    ``sum_j theta_j``.
    """

    probs: tuple[float, ...]
    pmf: np.ndarray
    theta_n: float

    def two_sided_tail(self, h: float) -> float:
        """Exact ``P{|B_n - theta_n| > h * theta_n}``."""
        ks = np.arange(len(self.pmf))
        outside = np.abs(ks - self.theta_n) > h * self.theta_n
        return float(self.pmf[outside].sum())


def poisson_binomial(thetas: Sequence[float]) -> PoissonBinomialLaw:
    """Exact Poisson-binomial law by iterated convolution."""
    thetas = tuple(float(t) for t in thetas)
    for t in thetas:
        if not (0.0 < t <= 1.0):
            raise LatticeError(f"success probabilities must lie in (0, 1], got {t}")
    pmf = np.array([1.0])
    for t in thetas:
        nxt = np.zeros(len(pmf) + 1)
        nxt[:-1] += pmf * (1.0 - t)
        nxt[1:] += pmf * t
        pmf = nxt
    return PoissonBinomialLaw(probs=thetas, pmf=pmf, theta_n=math.fsum(thetas))


def kolmogorov_distance(pmf: LatticePmf, center: float, scale: float) -> float:
    """Exact sup-distance between the CDF of ``(X - center)/scale`` and Phi.

    The supremum over x is attained at a jump of the discrete CDF, approached
    from one of the two sides, so it suffices to compare Phi against the CDF
    value before and after every jump.
    """
    if not (scale > 0):
        raise LatticeError(f"scale must be positive, got {scale}")
    ks = pmf.support
    pts = np.array([(pmf.point(k) - center) / scale for k in ks])
    w = np.array([pmf.probs[k] for k in ks])
    cdf_after = np.cumsum(w)
    cdf_before = cdf_after - w
    phi = ndtr(pts)
    return float(np.maximum(np.abs(cdf_after - phi), np.abs(cdf_before - phi)).max())


def llt_discrepancy(sum_law: SumLaw) -> float:
    """Scaled sup-distance between point probabilities and the Gaussian curve.

        sup_N | sqrt(Var) * P{S = N} - D/sqrt(2 pi) * exp(-(N - E S)^2 / (2 Var)) |

    with N running over the whole sum lattice, including points outside the
    support (where only the Gaussian term contributes).
    """
    p = sum_law.pmf
    var = sum_law.variance
    if not (var > 0):
        raise LatticeError("discrepancy undefined for a degenerate (zero-variance) sum")
    sd = math.sqrt(var)
    ks = p.support
    k_mid = (sum_law.mean - p.v0) / p.D
    k_lo = min(ks[0], math.floor(k_mid - 10.0 * sd / p.D))
    k_hi = max(ks[-1], math.ceil(k_mid + 10.0 * sd / p.D))
    idx = np.arange(k_lo, k_hi + 1)
    dense = _dense_masses(p.probs, k_lo, k_hi)
    pts = p.v0 + p.D * idx
    gauss = (p.D / math.sqrt(2.0 * math.pi)) * np.exp(-((pts - sum_law.mean) ** 2) / (2.0 * var))
    return float(np.abs(sd * dense - gauss).max())
