"""Exact distribution engine: the law of a sum of independent lattice
variables on the window that holds its masses, and the bound on its
Kolmogorov distance that the exact plug-ins read (the brute-force
statistics every bound is checked against are in :mod:`lltkit.checks`).

:func:`sum_law` is the one kernel.  It takes the sum as ``(law, count)``
parts, the oracle-side twin of the parts of :class:`lltkit.bounds.SumSpec`,
and folds every part into the running window of the sum, the entries from
the first to the last one kept; the support's other indices are exact zeros
and are never allocated.  One rule, applied once per part before anything is
allocated, reads the part from its first positive atom and chooses its
kernel.  A part of one positive atom is a point mass: its scaled law is
exactly 1.0 there, so it shifts the sum and folds nothing.  A part with
``count == 1`` is folded by its atoms into one fresh zero array: one
shifted, scaled add of the window per positive mass, so a sparse part costs
its array passes, not a convolution over its span.  Every other part is
taken on its support reduced by the gcd g of its offsets, and its power is
spread at stride ``s g``, s the part's stride on the common lattice.  Of two
atoms it is a binomial: its masses on the power's window are products of the
ratios of consecutive binomial terms, taken outward from the mode by
``numpy.cumprod`` and divided by their pairwise sum, with no transform and
no extended precision.  Of three or more atoms whose power's whole support
has at most ``_DIRECT_WIDTH`` points, the power is raised there directly,
with ``numpy.convolve`` over the bits of ``count``: every term is
nonnegative, so each entry carries a relative error bound, and there is no
transform.  Any other power is raised with one transform pair of
``numpy.fft`` (numpy's pocketfft): one double ``rfft``, a pointwise power
over the bits of ``count``, one double ``irfft``, with the frequencies where
the power survives summed again from the atoms in log form, ``count log
psi(t)`` about the mean in double, and the others set to 0.0, unless those
sums would cost more than a transform.  No part reads long double, so every
platform gives the same doubles.  The transform covers only the power's
Hoeffding window, about ``12 span sqrt(count)`` points around its mean
outside of which the power holds at most ``u^2`` of mass, wherever that is
shorter than the whole support: the cyclic power is read back on the window,
so the transform length grows as ``sqrt(count)``, not as ``count``; a
binomial is read on the same window.  Entries of a power at or below its
error bound are set to 0.0, and its nonzero window, spread onto the lattice
so that the gaps stay exact zeros, is folded in with ``numpy.convolve`` of
the running window, whose product is the new window; the first folded power
is the window as it is, its product with the unit.  The sum is normalized in
place.  Every oracle reads the window of the resulting :class:`SumLaw` in
place.  ``SumLaw.err_abs`` bounds how far any of its masses, on the window
or off it, can be from the exact law, and ``SumLaw.err_l1`` how far all of
them together can be, in the l1 norm (both derived at :func:`sum_law`): a
reader that sums masses charges ``err_l1`` once, not ``err_abs`` per index.
The normal CDF is :func:`_ndtr`, Cephes' ``ndtr`` (absolute error near
machine precision) in numpy with libm's ``exp``, which gives the doubles of
``scipy.special.ndtr`` without importing ``scipy.special``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from typing import NamedTuple, Sequence

import numpy as np

from .errors import LatticeError, NumericsError
from .lattice import LatticePmf, _index_moments

#: unit roundoff of double precision
_U = 2.0**-53

#: absolute error charged to :func:`_ndtr`, the normal CDF Phi: the model of
#: Cephes' ``ndtr``, whose absolute error is a few u
_NDTR_ERR = 8.0 * _U

#: C's ``M_SQRT1_2``, the same double
_SQRT1_2 = math.sqrt(0.5)

#: Cephes' ``MAXLOG``, ``log(DBL_MAX)``: libm's ``exp`` overflows above it
_MAXLOG = math.log(np.finfo(float).max)

#: Cephes' rational approximations, highest degree first: the numerators T,
#: P, R and denominators U, Q, S of ``erf`` on [0, 1] and of ``erfc`` on
#: [1, 8) and [8, inf).  The leading 1 of U, Q and S is Cephes' ``p1evl``,
#: and the leading zeros that pad each to 9 coefficients leave Horner's
#: rule the same doubles (``0 x + 0`` is 0 and ``0 x + c`` is c, x finite).
#: Stored one column per polynomial, so that each Horner step reads one
#: contiguous row of the gathered coefficients.
_NDTR_POLY = np.ascontiguousarray(np.array([
    (0.0, 0.0, 0.0, 0.0, 9.60497373987051638749e0, 9.00260197203842689217e1,
     2.23200534594684319226e3, 7.00332514112805075473e3, 5.55923013010394962768e4),
    (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
     4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
     9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2),
    (0.0, 0.0, 0.0, 5.64189583547755073984e-1, 1.27536670759978104416e0,
     5.01905042251180477414e0, 6.16021097993053585195e0, 7.40974269950448939160e0,
     2.97886665372100240670e0),
    (0.0, 0.0, 0.0, 1.0, 3.35617141647503099647e1, 5.21357949780152679795e2,
     4.59432382970980127987e3, 2.26290000613890934246e4, 4.92673942608635921086e4),
    (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
     9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
     1.65666309194161350182e3, 5.57535340817727675546e2),
    (0.0, 0.0, 1.0, 2.26052863220117276590e0, 9.39603524938001434673e0,
     1.20489539808096656605e1, 1.70814450747565897222e1, 9.60896809063285878198e0,
     3.36907645100081516050e0),
]).T)

#: relative error charged to each of numpy's double ``sin``, ``cos``,
#: ``log1p``, ``arctan2`` and ``exp`` (about two ulps): the libm model of
#: ``sum_law``'s step 1
_LIBM = 4.0 * _U

#: the coefficients of the powers r = 2..27 in the series ``sum_r (-i x)^r /
#: r!`` of ``e^{-ix} - 1 + ix``, of its real part in the first row and of its
#: imaginary part in the second, and for A atoms the bound ``1.001 (5r + A +
#: 15) u / r!`` on the rounding of the r-th term per unit of ``t^r sum_k p_k
#: |k - mean|^r``: the third row plus A times the fourth (``sum_law``, step 1)
_SERIES = np.array([[(-1) ** (r // 2) * (1 - r % 2) for r in range(2, 28)],
                    [(-1) ** ((r + 1) // 2) * (r % 2) for r in range(2, 28)],
                    [1.001 * (5 * r + 15) * _U for r in range(2, 28)], [1.001 * _U] * 26]
                   ) / np.array([float(math.factorial(r)) for r in range(2, 28)])

#: largest refinement of the finest span that a common lattice may need
_MAX_REFINE = 1000

#: most entries the running window of an exact law may span (``sum_law``):
#: it bounds every array the fold allocates, and every power within it fits
#: a 2^23-point FFT
_LENGTH_CAP = 2**23

#: most probability a Hoeffding window may leave out, u^2: the window adds
#: 2 u^2 to a power's e_inf, which under the length cap is never below 9u
#: 2^-11.5 after a transform, nor below u 2^-23 for a binomial, whose largest
#: entry is at least 1/W (``sum_law``, error bound steps 4 and 7)
_OUTSIDE = _U * _U

#: widest whole support ``count span + 1`` of a power of three or more atoms
#: that :func:`sum_law` raises by direct products (:func:`_direct_power`)
#: rather than by a transform pair: below it the direct power measured
#: faster on 3-6-atom laws (``sum_law``, error bound step 8)
_DIRECT_WIDTH = 1025

#: entries of a direct power's products below 2^-511 are set to 0.0, so that
#: no square of two kept entries underflows (subnormal products cost numpy
#: many times a normal one)
_TINY = 2.0**-511


@dataclass(frozen=True)
class SumLaw:
    """Exact law of a sum of independent lattice variables, held on the
    window of entries the kernel kept: ``probs[i] = P{S = v0 + D * (first +
    i)}`` to within ``err_abs``, a rigorous bound on the distance of every
    computed mass from the exact one; every index off the window holds a
    computed mass of exact 0.0, also within ``err_abs`` of the exact mass.
    ``err_l1`` bounds the sum of those distances over every index, ``sum_k
    |p^_k - p_k|``; it grows with the window, so it does not replace
    ``err_abs`` for a single mass.  Zeros in the array (tails dropped at the
    bound, underflowed tails, gaps under coarser spans) are not support
    points.  ``mean`` and ``variance`` are summed on first read, since not
    every oracle reads them."""

    probs: np.ndarray
    first: int
    v0: float
    D: float
    err_abs: float
    err_l1: float

    @cached_property
    def _mean_variance(self) -> tuple[float, float]:
        ks, w = self.atoms()
        return _index_moments(self.v0, self.D, ks.tolist(), w.tolist())

    @property
    def mean(self) -> float:
        return self._mean_variance[0]

    @property
    def variance(self) -> float:
        return self._mean_variance[1]

    def atoms(self) -> tuple[np.ndarray, np.ndarray]:
        """Indices and masses of the positive entries, in increasing order."""
        nz = np.flatnonzero(self.probs)
        return self.first + nz, self.probs[nz]

    def mass(self, k: int) -> float:
        """``P{S = v0 + D*k}``; 0.0 off the window."""
        i = k - self.first
        return float(self.probs[i]) if 0 <= i < len(self.probs) else 0.0

    def masses(self, k0: int, count: int) -> list[float]:
        """``P{S = v0 + D*k}`` for the ``count`` indices k from ``k0`` on: their
        overlap with the window in one slice, 0.0 elsewhere."""
        i = k0 - self.first
        lo, hi = max(i, 0), min(i + count, len(self.probs))
        if hi <= lo:
            return [0.0] * count
        return [0.0] * (lo - i) + self.probs[lo:hi].tolist() + [0.0] * (i + count - hi)

    def two_sided_tail_bound(self, center, radius) -> float:
        """An upper bound on ``P{|S - center| > radius}`` under the exact law;
        ``center`` and ``radius`` may be floats or exact ``Fraction`` values.

        The points within ``radius`` of ``center`` are the indices from
        ``ceil((center - radius - v0)/D)`` to ``floor((center + radius -
        v0)/D)``, both computed in rational arithmetic, so the tail is the
        window's entries outside them, decided exactly (all of them when
        ``radius < 0``).  Their masses are summed by ``math.fsum`` (one
        rounding), ``err_l1`` covers the distance of every tail mass from the
        exact one, on the window and off it, and the sum is rounded up by
        ``1 + 4u``."""
        v0, d, center, radius = (Fraction(x) for x in (self.v0, self.D, center, radius))
        a = math.ceil((center - radius - v0) / d)
        b = max(math.floor((center + radius - v0) / d) + 1, a)
        # the window's entries before index a and from index b on
        i, j = max(a - self.first, 0), max(b - self.first, 0)
        mass = math.fsum(self.probs[:i].tolist() + self.probs[j:].tolist())
        return (mass + self.err_l1) * (1.0 + 4.0 * _U)

    def to_json_dict(self) -> dict:
        """The pmf schema of :meth:`LatticePmf.to_json_dict`, positive masses only."""
        ks, w = self.atoms()
        probs = [[k, p] for k, p in zip(ks.tolist(), w.tolist())]
        return {"v0": self.v0, "D": self.D, "probs": probs}


class _Bounds(NamedTuple):
    """Upper bounds on the norms of a computed vector (``n1``, ``n2``,
    ``ninf``) and on the norms of its difference from the exact non-negative
    vector it stands for (``e1``, ``e2``, ``einf``)."""

    n1: float
    n2: float
    ninf: float
    e1: float = 0.0
    e2: float = 0.0
    einf: float = 0.0


def _gamma(k: int, u: float) -> float:
    return k * u / (1.0 - k * u)


def _measured(x: np.ndarray, e1: float = 0.0, e2: float = 0.0, einf: float = 0.0) -> _Bounds:
    """Bounds with the norms of the doubles ``x`` summed in double and rounded up."""
    up = 1.0 + 2.0 * (len(x) + 2) * _U + 4.0 * _U
    ax = np.abs(x)
    return _Bounds(float(ax.sum()) * up, math.sqrt(float(np.square(x).sum())) * up,
                   float(ax.max()) * (1.0 + 2.0 * _U), e1, e2, einf)


def _direct_product(x: _Bounds, y: _Bounds, m: int) -> _Bounds:
    """Bounds of ``numpy.convolve`` of ``x^`` and ``y^``, each entry a dot
    product of at most ``m`` terms, against the exact ``x * y``: its norms
    are bounded, not measured, and its errors (1-, 2- and inf-norm) are
    those of both factors plus the rounding of the products."""
    xn1, xn2, xninf, xe1, xe2, xeinf = x
    yn1, yn2, yninf, ye1, ye2, yeinf = y
    g = _gamma(m, _U)
    n1 = xn1 * yn1
    n2 = min(xn2 * yn1, xn1 * yn2)
    ninf = min(xninf * yn1, xn1 * yninf, xn2 * yn2)
    x1, x2, xinf = xn1 + xe1, xn2 + xe2, xninf + xeinf
    e1 = xe1 * yn1 + x1 * ye1 + g * n1
    e2 = min(xe2 * yn1, xe1 * yn2) + min(x1 * ye2, x2 * ye1) + g * n2
    einf = (min(xeinf * yn1, xe1 * yninf, xe2 * yn2)
            + min(xinf * ye1, x1 * yeinf, x2 * ye2) + g * ninf)
    return _Bounds(n1 * (1.0 + g), n2 * (1.0 + g), ninf * (1.0 + g),
                   e1, min(e2, e1), min(einf, e2, e1))


def _raise(z: np.ndarray, count: int) -> np.ndarray:
    """``z ** count`` elementwise, left to right over the bits of ``count``."""
    out = z * z
    for i, bit in enumerate(bin(count)[3:]):
        if i:
            np.multiply(out, out, out=out)
        if bit == "1":
            np.multiply(out, z, out=out)
    return out


def _integer_masses(ws) -> tuple[list[int], int]:
    """The masses ``ws`` as integers over their largest power-of-two
    denominator, every denominator a divisor of it: ``(ints, den)`` with
    each ``w = int / den`` exactly."""
    ratios = [w.as_integer_ratio() for w in ws]
    den = max(d for _, d in ratios)
    return [c * (den // d) for c, d in ratios], den


def _window(pos: list[tuple[int, float]], span: int, count: int) -> tuple[int, int]:
    """The indices ``[a, b]`` on which :func:`_power` or :func:`_binomial`
    reads a law to the power ``count``, from its positive atoms ``pos``
    (index, mass) on ``[0, span]``: its Hoeffding window (``sum_law``, error
    bound step 4) where that needs a shorter transform than the whole
    support ``[0, count span]``, else the whole support.  The mean is summed from the atoms,
    so :func:`sum_law` finds every window before it allocates anything."""
    last = count * span
    center = count * math.fsum(k * w for k, w in pos) / math.fsum(w for _, w in pos)
    reach = span * math.sqrt(count * math.log(2.0 / _OUTSIDE) / 2.0)
    a = max(0, math.floor(center - reach) - 1)
    b = min(last, math.ceil(center + reach) + 1)
    return (a, b) if (b - a).bit_length() < last.bit_length() else (0, last)


def _log_power(pos: list[tuple[int, float]], n: int, size: int, freqs: np.ndarray):
    """``F_j^n`` for the frequencies j in ``freqs`` (increasing), F the
    length-``size`` transform of the positive atoms ``pos`` (index, mass),
    summed in double in log form, and a bound on the error of each value
    (``sum_law``, error bound step 1); None where a value lies too near 0
    for the bound."""
    ints, den = _integer_masses(w for _, w in pos)  # the masses are ints / den
    total, moment = sum(ints), sum(k * c for (k, _), c in zip(pos, ints))  # mean = moment / total
    dev = [(k * total - moment) / total for k, _ in pos]  # k - mean
    p, t = np.array([c / total for c in ints]), freqs * (2.0 * math.pi / size)
    lam = _LIBM / (1.0 - _LIBM) + 2.0 * _U  # libm's relative error, and two roundings
    # z = psi - 1 and rho >= |z^ - z|, psi(t) = sum_k p_k e^{-i t (k - c)}: about c
    # = mean by the central moments where every t max|k - mean| <= 2
    shift = 65 - size.bit_length()  # the phase n t c as 2 pi j n c 2^shift / 2^64 (mod 2 pi)
    if t[-1] * max(map(abs, dev)) <= 2.0:
        x = np.concatenate([dev, t])
        pw = np.empty((26, len(x)))  # x^2 .. x^27, a block at a time: x^lo times the powers below
        pw[0], pw[1] = x * x, x * x * x
        for lo in (2, 4, 8, 16):
            np.multiply(pw[:min(lo, 26 - lo)], pw[lo - 2], out=pw[lo:min(2 * lo, 26)])
        dp, tp = pw[:, :len(pos)], pw[:, len(pos):]  # the powers of k - mean, of t
        rows = _SERIES[:2] * (dp @ p), (_SERIES[2] + len(pos) * _SERIES[3]) * (np.abs(dp) @ p)
        zr, zi, rho = np.vstack(rows) @ tp
        near = ((moment << (shift + 1)) + total) // (2 * total)  # mean 2^shift, rounded
        eps_n = n * ((moment << shift) - total * near) / (total << shift)  # n (mean - c)
        phase_err = 17.0 * _U * (1.0 + abs(eps_n))  # of the turn, as below
    else:  # about c = the heaviest atom, from 2 pi (j (k - c) mod N) / N
        h = max(range(len(pos)), key=lambda i: pos[i][1])
        theta = (np.multiply.outer(freqs, [k - pos[h][0] for k, _ in pos]) + size // 2) % size
        theta = (theta - size // 2) * (2.0 * math.pi / size)  # in [-pi, pi)
        cos, sin = np.cos(theta), np.sin(theta)
        absin, cm1 = np.abs(sin), cos - 1.0
        rows = [cm1, -sin, np.abs(cos) + absin, np.abs(cm1) + absin, np.abs(theta)]
        zr, zi, s1, s2, s3 = np.stack(rows) @ p
        # cos 0 and sin 0 are exact: the heavy atom's share p_h of s1 carries no rounding
        s1 -= p[h] * (1.0 - _gamma(len(pos), _U))
        rho = 1.01 * (_LIBM * s1 + _gamma(len(pos) + 2, _U) * s2) + 4.1 * _U * s3
        near, eps_n = pos[h][0] << shift, 0.0
        phase_err = 7.0 * _U  # the turn is a multiple of 2^shift: exact before its product
    sq, q = zi * zi, zr * (2.0 + zr)  # q <= 0, as zr lies in [-2, 0]
    x, bx = sq + q, (sq - q) * _gamma(3, _U)  # |psi^|^2 - 1, and its rounding
    low = 1.0 + x - bx
    gap = np.sqrt(low) - (rho + 7.0 * _U)  # at most |psi| - rho, as sqrt(low) <= 1 + 2u
    if not gap.min() > 0.0:
        return None
    # n log T + n log psi^ - i n t c, plus t n eps about the mean
    logs = np.array([0.5 * np.log1p(x), np.arctan2(zi, 1.0 + zr)]) * n
    dz = lam * np.abs(logs).sum(0)
    lt = float(np.log1p((total - den) / den))  # log T, T the masses' total
    wrap = freqs.astype(np.uint64) * np.uint64(n * near % 2**64)
    logs[0] += n * lt
    logs[1] -= wrap.view(np.int64) * (2.0 * math.pi * 2.0**-64) + t * eps_n
    mag = np.exp(logs[0])
    out = mag * np.exp(1j * logs[1])  # cos and sin of the phase
    dz += n * ((rho + 2.0 * _U * np.abs(zi)) / gap + 0.5 * bx / low)
    dz += 3.0 * n * lam * abs(lt) + phase_err
    top = float(dz.max())
    if not top < 0.5:
        return None
    c = 1.0 + 10.0 * lam
    return out, mag * (dz * ((1.0 + 2.0 * top) * c) + 2.0 * lam * c)


def _power(pos: list[tuple[int, float]], span: int, count: int, a: int, b: int):
    """The law of the positive atoms ``pos`` (index, mass) on ``[0, span]``
    convolved with itself to the power ``count >= 2``, read on its window
    ``[a, b]`` (:func:`_window`): the power there with entries at or below
    its error bound set to 0.0, and its bounds.  :func:`sum_law` calls it
    for three or more atoms past ``_DIRECT_WIDTH`` points."""
    dense = np.bincount([k for k, _ in pos], [w for _, w in pos], span + 1)
    bf = _measured(dense)
    # the mass a Hoeffding window leaves out (none on the whole support)
    last = count * (len(dense) - 1)
    outside = _OUTSIDE * bf.n1 ** count * (1.0 + 4.0 * _U) if b - a < last else 0.0
    size = 1 << (b - a).bit_length()  # the least power of two >= b - a + 1
    spec = np.fft.rfft(dense, size)
    eta = max(1, size.bit_length() - 1) * (4.0 * _U + _gamma(4, _U) * (math.sqrt(2.0) + 4.0 * _U))
    eta /= 1.0 - eta  # eta_N of a power-of-two transform in double (step 1)
    delta = eta * math.sqrt(size) * bf.n2
    norm = (bf.n2 * (1.0 + eta) + delta) * (1.0 + 4.0 * _U)
    # the frequencies where the power can reach u^1.5 are summed again in log
    # form, unless that costs more than a transform (sum_law, error bound step 3)
    tau = _U ** (1.5 / count) * (1.0 - 64.0 * _U)
    keep = np.flatnonzero(np.abs(spec) >= (tau - delta) * (1.0 - 8.0 * _U))
    cheap = 4 * len(keep) * len(pos) <= size * (size.bit_length() - 1) + 2**13
    logs = _log_power(pos, count, size, keep) if cheap else None
    cut = (bf.n1 + 2.0 * delta) * (1.0 + 4.0 * _U)  # every |F^_j| + delta
    per = count * eta * bf.n2 + _gamma(3 * count, _U) * min(cut, norm)  # eps_n(u) <= gamma_3n
    s1 = s2 = count * 2.0**-1072
    if logs is None:
        power = _raise(spec, count)
    else:  # every other frequency, |F^_j| + delta < tau, set to 0.0
        power = np.zeros(len(spec), dtype=complex)
        power[keep], e = logs
        ee, up = e * e, (1.0 + 2.0 * (len(e) + 4) * _U) / size  # j, N - j but 0 (kept) and N/2
        end = keep[-1] == len(spec) - 1
        s1 = (2.0 * float(e.sum()) - float(e[0]) - end * float(e[-1])) * up
        s2 = math.sqrt((2.0 * float(ee.sum()) - float(ee[0]) - end * float(ee[-1])) * up)
        cut, per = tau, min(tau, norm)
    m, g = min(cut, norm), cut ** (count - 2) * (1.0 + 4.0 * count * _U) * (1.0 + 8.0 * _U)
    z = np.fft.irfft(power, size)
    inv = eta * math.sqrt(float(np.square(z).sum())) * (1.0 + 2.0 * (size + 2) * _U) / (1.0 - eta)
    einf = (s1 + g * m * per) * (1.0 + 4.0 * _U) + inv
    e2 = (s2 + g * cut * per) * (1.0 + 4.0 * _U) + inv
    # the cyclic power read on [a, b], with wraparound where b >= N (take's
    # "wrap" mode would step each index down by N, a/N times)
    x = z[a:b + 1] if b < size else np.roll(z, -a)[:b - a + 1]
    e1 = min((b - a + 1) * einf, math.sqrt(b - a + 1) * e2)
    # the aliased mass and the mass left out: each at most `outside`
    e1, e2, einf = e1 + 2.0 * outside, e2 + 2.0 * outside, einf + 2.0 * outside
    return _drop_small(x, e1, e2, einf)


def _grown(a: float, b: float, m: int) -> float:
    """``(1 + a)(1 + b)(1 + gamma_m) - 1`` rounded up: the relative bound of
    a dot product of m products of nonnegative terms within a and b of their
    exact values (``sum_law``, error bound step 8)."""
    t = a + b + a * b
    return (t + _gamma(m, _U) * (1.0 + t)) * (1.0 + 8.0 * _U)


def _direct_power(pos: list[tuple[int, float]], span: int, count: int):
    """The law of the positive atoms ``pos`` (index, mass) on ``[0, span]``
    convolved with itself to the power ``count >= 2`` on its whole support
    ``[0, count span]``, by ``numpy.convolve`` over the bits of ``count``
    (square, then times the law where the bit is set), each product's
    entries below ``_TINY`` set to 0.0, with its entrywise bound (``sum_law``,
    error bound step 8): ``r`` and ``slack`` such that each computed entry is
    within ``r x_i + s_i`` of the exact ``x_i``, with ``sum_i s_i <= slack``."""
    dense = np.bincount([k for k, _ in pos], [w for _, w in pos], span + 1)
    out, r, products, flushed = dense, 0.0, 0, 0
    for bit in bin(count)[3:]:
        r, products = _grown(r, r, len(out)), products + len(out) ** 2
        out = np.convolve(out, out)
        if bit == "1":
            r, products = _grown(r, 0.0, len(dense)), products + len(out) * len(dense)
            out = np.convolve(out, dense)
        np.putmask(out, out < _TINY, 0.0)
        flushed += len(out)
    return out, r, count * (products * 2.0**-1073 + flushed * (2.0 * _TINY))


def _direct(pos: list[tuple[int, float]], span: int, count: int):
    """:func:`_direct_power` of its arguments with its bounds
    (:func:`_direct_bounds`): the direct kernel as :func:`sum_law` records
    it."""
    return _direct_bounds(*_direct_power(pos, span, count))


def _direct_bounds(x: np.ndarray, r: float, slack: float):
    """The power ``x`` of :func:`_direct_power` with entries at or below its
    error bound set to 0.0, and its bounds: ``e_p = (r ||x||_p + slack) / (1
    - r)`` (``sum_law``, error bound step 8)."""
    up = (1.0 + 8.0 * _U) / (1.0 - r)
    return _drop_small(x, *((r * v + slack) * up for v in _measured(x)[:3]))


def _pairwise_adds(size: int) -> int:
    """Most roundings any term of a sum of ``size`` doubles passes through
    in numpy's pairwise summation: one by one below 8 terms; up to 128 terms
    in eight running sums, a tree of three levels and the rest one by one;
    above that, halved (at a multiple of 8) with one more addition."""
    if size < 8:
        return size - 1
    if size <= 128:
        return size // 8 + 2 + size % 8
    halvings = 0
    while size > 128:
        size -= size // 2 - size // 2 % 8  # the larger part
        halvings += 1
    return halvings + 25


def _binomial(pos: list[tuple[int, float]], n: int, a: int, b: int):
    """The law of the two positive atoms ``pos = [(0, w0), (1, w1)]`` to the
    power ``n >= 2``, read on its window ``[a, b]`` (:func:`_window`): the
    Binomial(n, w1 / (w0 + w1)) masses at j = a..b by the ratio
    recurrence from the mode, with entries at or below their error bound
    set to 0.0, and its bounds (``sum_law``, error bound step 7)."""
    (_, w0), (_, w1) = pos
    (c0, c1), _ = _integer_masses([w0, w1])
    mode = (n + 1) * c1 // (c0 + c1)  # floor((n + 1) t), exactly
    size, m = b - a + 1, mode - a
    x = np.empty(size)  # every entry is written: the mode, above it, below it
    x[m] = 1.0
    if mode < b:  # P_{j+1} / P_j = (n - j) / (j + 1) w1 / w0
        r = np.arange(mode + 1.0, b + 1.0)  # j + 1
        q = n + 1.0 - r
        q /= r
        q *= w1 / w0
        np.cumprod(q, out=x[m + 1:])
    if mode > a:  # P_{j-1} / P_j = j / (n - j + 1) w0 / w1
        r = np.arange(float(mode), float(a), -1.0)  # j
        q = n + 1.0 - r
        np.divide(r, q, out=q)
        q *= w0 / w1
        np.cumprod(q, out=x[m - 1::-1])
    r = q = None  # free the ratios before the bound's arrays are made
    x /= x.sum()
    # the bound of step 7, every factor rounded up
    h = _gamma(_pairwise_adds(size), _U)
    u4 = 4.0 * _U / (1.0 - 4.0 * size * _U) * (1.0 + 4.0 * _U)
    kappa = (1.0 + 4.0 * _U) / ((1.0 - _U) * (1.0 - _gamma(4 * size, _U)))
    s = 3.0 * (n + 1) * size * 2.0**-1074
    c = 6.0 * s + 2.0**-1072
    outside = _OUTSIDE if a > 0 or b < n else 0.0
    e = np.abs(np.arange(-m, size - m, dtype=float))
    e *= x  # k_j x^_j
    g = (1.0 + h) * kappa * u4 * (float(e.sum()) * (1.0 + 2.0 * (size + 2) * _U)
                                  + c * size * size)
    lead = outside + h + 2.0 * size * s
    nu = (lead + g * (1.0 + lead) / (1.0 - g)) * (1.0 + 8.0 * _U)
    e *= kappa * u4
    e += (kappa * (nu + _U)) * x
    e += c
    e1, e2, einf = _measured(e)[:3]
    up = 1.0 + 8.0 * _U  # the rounding of the entries' bounds
    return _drop_small(x, e1 * up + outside, e2 * up + outside, einf * up + outside)


def _drop_small(x: np.ndarray, e1: float, e2: float, einf: float):
    """``x`` with its entries at or below ``einf`` set to 0.0, in place, and
    its bounds: the errors ``e1``, ``e2``, ``einf`` grown by what was dropped
    (``sum_law``, error bound step 5)."""
    drop = x <= einf
    if drop.any():
        dropped = x[drop]
        tail = _measured(dropped)
        e1, e2, einf = e1 + tail.n1, e2 + tail.n2, einf + max(0.0, float(dropped.max()))
        x[drop] = 0.0
    return x, _measured(x, e1, e2, einf)


def _is_integer(x) -> bool:
    """Whether ``x`` is a Python or NumPy integer, not a bool: the rule for
    counts here and for Monte Carlo sample counts and seeds."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _as_count(count, j: int) -> int:
    """``count`` of part j as an int; it must be a (NumPy) integer >= 1, not a bool."""
    if not _is_integer(count) or count < 1:
        raise LatticeError(f"part {j}: count must be an integer >= 1, got {count!r}")
    return int(count)


def _common_lattice(spans: list[float]) -> tuple[float, list[int]]:
    """The coarsest span ``d`` that every span is an integer multiple of, and
    those multiples.  A ratio to the finest span counts as rational when it
    lies within ``1e-9`` of a fraction with denominator at most
    ``_MAX_REFINE``; any other pair is refused as a ``LatticeError``.  Each
    distinct span is classified once, in order of first appearance."""
    finest = min(spans)
    if finest == max(spans):
        return finest, [1] * len(spans)
    ratios = {D: D / finest for D in spans}
    den = math.lcm(*(Fraction(r).limit_denominator(_MAX_REFINE).denominator
                     for r in ratios.values()))
    strides = {}
    for D, r in ratios.items():
        strides[D] = s = round(r * den)
        if abs(r * den - s) > 1e-9 * max(1.0, s):
            raise LatticeError(f"incompatible spans: {D} and {finest} have no common lattice")
    g = math.gcd(*strides.values())
    return finest * g / den, [strides[D] // g for D in spans]


def _check_total(p: LatticePmf, what: str) -> None:
    """Refuse, as a ``NumericsError`` naming ``what``, a law whose masses'
    ``fsum`` lies more than 2u from one (``sum_law``'s drift test)."""
    mass = math.fsum(p.probs.values())
    if abs(mass - 1.0) > 2.0 * _U:
        raise NumericsError(f"{what}: its masses total {mass!r}, not one to within 2u; "
                            "normalize the law (make_pmf does)")


def sum_law(parts: Sequence[tuple[LatticePmf, int]]) -> SumLaw:
    """Exact law of the independent sum of ``count`` copies of each ``law`` in
    ``parts = [(law, count), ...]``, folded in the order given, with a
    rigorous bound ``err_abs`` on the distance of every computed mass, on
    the window and off it, from the exact law, and a bound ``err_l1`` on the
    sum of those distances.

    Spans must share a lattice (every ratio within ``1e-9`` of a fraction of
    denominator at most ``_MAX_REFINE``; the law lives on the coarsest span
    they are all integer multiples of) and counts are integers >= 1;
    offsets add up into ``v0``.  A pre-pass over the atoms finds each
    part's window (:func:`_window`) and so a bound on the running window,
    ``1 + sum s (b - a)`` over the parts; where it exceeds ``_LENGTH_CAP``
    points the law is refused, as a ``LatticeError`` naming that window,
    before anything is allocated.  It bounds every array the fold makes:
    the running window, each power's window ``W <= N <= 2^23`` and its
    spread, and each part's dense law, shorter than its power's window.  The
    exact law is that of independent summands whose pmfs are the stored
    masses, each scaled to total one; each part's masses must already total
    one to within the rounding of :func:`lltkit.lattice.make_pmf`'s
    normalization (the drift test below), or the part is refused, as a
    ``NumericsError``, before anything is allocated.

    **Kernel.**  The sum is held on its running window, from the first
    entry kept to the last, which starts as the unit ``[1.0]``.  The
    pre-pass reads every part from its first positive atom ``k_1`` (a
    massless listed atom moves nothing), adds ``count s k_1`` to the first
    index, and chooses the part's kernel and window once, by one rule; the
    fold runs what it recorded.

    - *Point mass* (one positive atom, any count).  Its scaled law is
      exactly 1.0 at ``k_1``, so the shift is all of it: nothing is folded
      and nothing enters the bound.  It still passes the drift test and
      shares the common lattice.
    - *Sparse fold* (``count == 1``).  For each positive mass ``(k, w)``,
      in increasing k, ``w`` times the window is added at offset ``(k -
      k_1) s`` into one fresh zero array (nothing is dropped); that array
      is the new window.

    Every other part, ``count = n >= 2`` and two or more atoms, is taken on
    its support reduced by the gcd g of its offsets from ``k_1``, ``f`` on
    ``[0, l - 1]``, and its power, of length ``L = n (l - 1) + 1``, is
    spread at stride ``s g``: L shrinks by g, and a transform has one
    cluster of surviving frequencies, not g.  Its kernel is, in this order:

    - *Binomial* (two atoms, ``f = {0: w0, 1: w1}``).  The law of J
      Binomial(n, t), ``t = w1 / (w0 + w1)`` (:func:`_binomial`, step 7).
      On the j of its window ``[a, b]`` (step 4) it starts from 1.0 at the
      mode ``m = floor((n + 1) t)``, found in integers, and takes the
      ratios ``(n - j) / (j + 1) fl(w1 / w0)`` upward and ``j / (n - j + 1)
      fl(w0 / w1)`` downward, one ``numpy.cumprod`` each way; the products
      are divided by their ``numpy`` sum (pairwise).  Nothing is
      transformed, so nothing is aliased.
    - *Direct power* (three or more atoms, ``n (l - 1) < _DIRECT_WIDTH``,
      so ``L <= 1025``).  Raised on its whole support by direct products
      (:func:`_direct_power`, step 8): ``f`` squared over the bits of n by
      ``numpy.convolve``, times ``f`` where the bit is set, each product's
      entries below ``_TINY = 2^-511`` set to 0.0, so that no square of two
      kept entries underflows; nothing is transformed, aliased or left
      out.  The width was measured per call on laws of 3-6 atoms on spans
      2-6: the direct power took 0.16-0.73 of the transform's time at W =
      33-1025, and was slower for some laws from W = 1537.
    - *Transform* (every other power: three or more atoms past that
      width).  Read on its window ``[a, b]`` (step 4): the Hoeffding window
      where its ``W = b - a + 1`` points need a shorter transform than L
      points, else the whole support (``a = 0``, ``W = L``).  One transform
      pair of length ``N = 2^t``, the least power of two ``>= W``, gives
      the cyclic power, which is read on ``[a, b]`` with wraparound (on the
      whole support it is the linear power): one double ``rfft``, the
      pointwise power ``F^n`` in complex128 by squaring over the bits of n
      (square, then multiply by ``F`` where the bit is set), one double
      ``irfft``, where the double power stands (step 3).  Elsewhere the
      frequencies where the power survives, ``|F^_j| + delta >= tau =
      u^(1.5/n)``, are summed again from the A positive atoms in log form
      (:func:`_log_power`, step 1), ``F_j^n = exp(n log T + n log psi(t) -
      i n t c)`` at ``t = 2 pi j / N``, with T the masses' total and
      ``psi(t) = sum_k p_k e^{-i t (k - c)}``, ``p_k = w_k / T``, and every
      other frequency is set to 0.0.  About the mean, ``c = mu``, ``z = psi
      - 1 = -2 sum_k p_k sin^2(theta_k / 2) - i sum_k p_k (sin theta_k -
      theta_k)``, ``theta_k = t (k - mu)``, as ``sum_k p_k theta_k = 0``,
      is the series of the central moments ``sum_{r=2}^{27} (-i t)^r m_r /
      r!`` where every kept t has ``t max|k - mu| <= 2``; otherwise c is
      the heaviest atom and z the sums of ``cos theta - 1`` and ``sin
      theta`` at angles reduced in integers.  The phase ``n t c`` is
      reduced mod ``2 pi`` in integers.  Past the size rule ``4 |K| A > N
      log2 N + 2^13`` (K the frequencies) those sums would cost more than
      a transform, and the double power stands.

    Entries of any power at or below its ``e_inf`` bound are then set to
    0.0 (step 5): from a transform this removes FFT noise, negatives and
    subnormals.  The power's nonzero window is spread at stride ``s g``
    onto the common lattice, and its ``numpy.convolve`` with the running
    window is the new window; the first folded power's spread is the
    window, its product with the unit.  The support's indices outside the
    final window are exact zeros.

    **Error bound.**  For each computed vector ``x^`` standing for an exact
    ``x >= 0`` the kernel carries bounds on ``||x^||_p`` and ``e_p >=
    ||x^ - x||_p`` for p = 1, 2, inf; norms of computed arrays are summed in
    their own precision and rounded up by ``1 + 2 (L + 2) u``.

    1. *Power* (Higham, Accuracy and Stability of Numerical Algorithms,
       2nd ed., Thm 24.2 and Lemma 3.5).  A computed transform of length
       ``N = 2^t`` obeys ``||fl(F v) - F v||_2 <= eta_N ||F v||_2`` with
       ``eta_N = t eta / (1 - t eta)``, ``eta = mu + gamma_4 (sqrt 2 + mu)``,
       twiddles within ``mu = 4u`` (we take this as the model of the
       power-of-two transforms of ``numpy.fft``, numpy's pocketfft).  A
       complex product errs by ``sqrt(2) gamma_2`` relatively; the roundings
       of a power by squaring enter it with multiplicities that add up to
       ``n - 1``, so it errs by ``eps_n(u) = (n - 1) sqrt2 gamma_2 / (1 - (n
       - 1) sqrt2 gamma_2) <= gamma_3n`` relatively.  The sums below run over all N
       frequencies (each j of the half spectrum but 0 and ``N/2`` stands for
       two).  Per frequency j, against the exact ``F_j``:

       - the forward errors ``d_j = |F^_j - F_j|`` obey ``sum_j d_j^2 <=
         delta^2``, ``delta = eta_N sqrt(N) ||f||_2``, as ``||F v||_2 =
         sqrt(N) ||v||_2``; so each ``d_j <= delta``;
       - where the double power stands (step 3), ``|a^n - b^n| <= n
         max(|a|, |b|)^(n-1) |a - b|`` gives ``e_j <= n c_j^(n-1) d_j +
         eps_n(u) |F^_j|^n + n 2^-1072`` with ``c_j = |F^_j| + delta``, the
         last term a subnormal per multiplication.  All frequencies have
         ``c_j <= r = ||f||_1 + 2 delta``, and ``sum_j c_j^2 <= N m^2`` with
         ``m = min(r, ||f||_2 (1 + eta_N) + delta)`` (Parseval and
         Minkowski).  With ``c_j^(n-1) <= r^(n-2) c_j`` and ``|F^_j|^n <=
         r^(n-2) |F^_j|^2``, Cauchy-Schwarz caps their share of ``e_inf``
         (below) at ``r^(n-2) m (n eta_N ||f||_2 + eps_n(u) m) + n
         2^-1072``, and Minkowski their share of ``e_2`` at ``r^(n-1) (n
         eta_N ||f||_2 + eps_n(u) m) + n 2^-1072``;
       - the frequencies summed again (K, :func:`_log_power`) take ``F_j^n
         = T^n e^{-i n t c} psi^n``, ``t = 2 pi j / N`` (within ``gamma_2``
         of itself), ``psi = sum_k p_k e^{-i t (k - c)}``, from the masses
         read as integer ratios (as :func:`exact_moments` reads them): their
         total T and mean mu are exact, and ``p_k = w_k / T`` and ``d_k = k
         - mu`` are rounded once each.  The libm model: numpy's double
         ``sin``, ``cos``, ``log1p``, ``arctan2`` and ``exp`` lie within
         ``lambda = _LIBM = 4u`` of their value at the double argument,
         relatively, ``exp(i y)`` is ``cos y + i sin y`` so computed, and
         ``cos 0``, ``sin 0`` are exact; it is the one platform assumption,
         tested against mpmath.  ``z = psi - 1`` and a
         bound ``rho >= |z^ - z|`` come one of two ways.  Where every kept
         t has ``t max|d_k| <= 2`` (at large n), about ``c = mu``: ``z =
         sum_{r=2}^{27} (-i t)^r m_r / r!``, ``m_r =
         sum_k p_k d_k^r``, as ``sum_k p_k d_k = 0``, plus a tail below
         ``2^-68 t^2 M_2`` (``M_r`` as ``m_r`` with ``|d_k|``, ``M_r <=
         max|d|^(r-2) M_2``); a power of t or of ``d_k`` is a product tree of
         ``r - 1`` roundings, a moment a dot product of A terms, and each
         part of the series one of 13 nonzero terms, so the r-th term errs
         by at most ``gamma_{5r+A+14} t^r M_r / r!`` (``5r + A + 15`` with
         the tail), and rho sums these bounds, grown by the rounding of its
         own sum.  Otherwise (small n, gapped or near-periodic laws), about
         c the heaviest atom: ``z = sum_k p_k (cos theta_k - 1) - i sum_k p_k
         sin theta_k``, ``theta_k = 2 pi (j (k - c) mod N) / N`` reduced to
         ``[-pi, pi)`` in integers and rounded within ``2 gamma_2
         |theta_k|``, so that ``rho = 1.01 sum_k p_k (lambda (|cos| + |sin|)
         [k != c] + gamma_{A+2} (|cos - 1| + |sin|)) + 4.1u sum_k p_k
         |theta_k|``, the 1.01 covering the dot product.  Then ``log psi
         = log1p(x) / 2 + i arctan2(Im z, 1 + Re z)`` with ``x = |psi^|^2 - 1
         = (Im z)^2 + Re z (2 + Re z)`` (``Re z`` lies in ``[-2, 0]``)
         computed within ``bx = gamma_3 ((Im z)^2 - Re z (2 + Re z))``.
         Where ``g = sqrt(1 + x - bx) - rho - 7u``, at most ``|psi| - rho``,
         is positive, ``|log(1 + z) - log(1 + z^)| <= rho / g`` (a branch
         jump of ``2 pi`` times n is a multiple of ``2 pi``), the rounding of
         ``1 + Re z`` moves the argument by ``2u |Im z| / g`` and that of x
         the log of the modulus by ``bx / (2 (1 + x - bx))``.  The phase ``n
         t c`` is ``2 pi j n c 2^s / 2^64`` mod ``2 pi``, ``s = 64 - log2
         N``, with ``c 2^s`` the integer nearest ``mu 2^s`` (or the atom's,
         exactly), multiplied by j mod ``2^64`` in unsigned integers and read
         as signed, so the turn lies in ``[-pi, pi)``, and the rest, ``t
         eps``, ``eps = n (mu - c)``, is added in double: the phase errs by
         at most ``phi = 17u (1 + |eps|)`` about the mean, and by ``phi =
         7u`` about an atom, where the turn is exact until its product by
         ``2 pi 2^-64``.  So the computed ``L = n log T + n log|psi^|`` and
         ``Phi = n arg psi^ - n t c`` lie within

             D_j = n ((rho + 2u |Im z|) / g + bx / (2 (1 + x - bx)))
                   + lambda' (|L| + |Phi|) + 3 n lambda' |log T| + phi

         of the exact ``n log F_j`` (mod ``2 pi i``), ``lambda' = lambda / (1
         - lambda) + 2u`` covering log1p, arctan2 and the two roundings of
         each part (a product by n, and the sum with ``n log T`` or the
         phase), and
         ``P~_j = e^L (cos Phi + i sin
         Phi)`` errs by at most ``e_j = |e^L| (D_j (1 + 2 max_j D_j) + 2
         lambda') (1 + 10 lambda')``: ``|e^w - 1| <= |w| e^|w|`` with ``max
         D_j < 1/2``, and the roundings of exp, cos, sin and the products.
         No term grows with n at large n: on the kept set ``n |z| <=
         ln(u^-1.5)``, so ``n rho`` is bounded, unlike the ``n delta_e`` of
         a power raised by squaring.

       The inverse transform of the computed spectrum ``P^`` errs by at
       most ``eta_N ||irfft(P^)||_2 <= eta_N ||z^||_2 / (1 - eta_N)`` in
       the 2- and inf-norms, ``z^`` the computed inverse of length N.  The
       spectrum's error reaches the power through ``||F^-1 e||_inf <=
       ||e||_1 / N`` and Parseval, ``||F^-1 e||_2 = ||e||_2 / sqrt(N)``, so
       against the exact cyclic power (``f^{*n}`` summed over the indices
       congruent mod N; the linear power when ``N >= L``) the W entries read
       on the window err by

           e_inf = sum_j e_j / N + eta_N ||z^||_2 / (1 - eta_N),
           e_2   = sqrt(sum_j e_j^2 / N) + eta_N ||z^||_2 / (1 - eta_N),
           e_1   = min(W e_inf, sqrt(W) e_2),

       the sums over the frequencies summed again (K) taken as computed and
       rounded up by ``1 + 2 (|K| + 4) u``, those over the others as above
       and in step 3.
    2. *Propagation* through the folds: ``x^ * y^ - x * y = (x^ - x) * y^
       + x * (y^ - y)``, bounded by Young's inequalities ``||f * g||_p <=
       ||f||_p ||g||_1`` and ``||f * g||_inf <= ||f||_2 ||g||_2``, taking the
       least of the pairings, with the exact norms bounded by computed norm
       plus error.  A fold rounds
       each entry as a dot product of at most ``m`` terms: ``|R| <= gamma_m
       (|acc^| * |part^|)`` entrywise (Higham, Sec. 3.1).  For a count-1
       part ``m = min(window, atoms)``: each entry sums one product per atom,
       at most one per entry of the running array's nonzero window; for a
       power ``m = min(window, spread window)``, the shorter of the two
       ``numpy.convolve`` arguments.
       The fold's norms are carried as bounds, never recomputed, so the
       count-1 path costs nothing beyond its adds.  Each part enters by the
       kernel the pre-pass chose for it: a point mass not at all, as its
       scaled law is exactly 1.0 and its shift exact; a count-1 part of two
       or more atoms with the norms of its positive masses; a power of two
       atoms with a binomial's bounds (step 7), of three or more under
       ``_DIRECT_WIDTH`` points with a direct power's (step 8), and any
       other with a transform's (steps 1 and 3-5).  Every fold, of either
       kind, takes the same step (:func:`_direct_product`).
    3. *Surviving set* of a power by transform (three or more atoms, past
       ``_DIRECT_WIDTH`` points; no other part reaches it): the cutoff ``tau =
       u^(1.5/n)`` comes from the precision, so it adds no setting.  A
       frequency is summed again where ``|F^_j| >= (tau (1 - 64u) - delta) (1
       - 8u)``, which covers the roundings of tau, of ``|F^_j|`` and of the
       test; every other one has ``c_j < tau`` and is set to 0.0, which errs
       by ``|F_j|^n <= c_j^n``, so (Cauchy-Schwarz, as in step 1) their share
       of ``e_inf`` is at most ``tau^(n-2) m^2`` and of ``e_2`` ``tau^(n-1)
       m``, ``m = min(tau, ||f||_2 (1 + eta_N) + delta)``: about ``u^1.5
       ||f||_2^2``.  The set holds nearly every frequency at n = 2 and a few
       percent of them at n = 2e4.  Where the size rule ``4 |K| A > N log2 N +
       2^13`` says the sums would cost more than a transform, or where
       ``_log_power`` cannot bound a frequency (``g <= 0`` or ``D_j >= 1/2``),
       the double power stands at every frequency with the bound of step 1 at
       ``r = ||f||_1 + 2 delta``: a heavy atom among many light ones, or many
       atoms at small n, where it errs by a few ``eta_N ||f||_2^2``.
    4. *Window* (Hoeffding, JASA 58 (1963) 13-30, Thm 2).  The n summands
       of the scaled law ``g = f / ||f||_1`` lie in ``[0, l - 1]``, so their
       sum S obeys ``P{S - n mu >= t} <= exp(-2 t^2 / (n (l - 1)^2))``, and
       the same below.  With ``T = u^2`` (``_OUTSIDE``) and ``t = (l - 1)
       sqrt(n ln(2/T) / 2)``, each side holds at most ``T/2``: the window
       ``a = max(0, floor(c - t) - 1)``, ``b = min(L - 1, ceil(c + t) +
       1)``, c the computed ``n mu``, leaves out at most T of S's
       probability, so at most ``T' = T ||f||_1^n`` of the power's mass
       (``||f||_1^n`` rounded up by ``1 + 4u``).  The margin of one index
       covers the roundings of c and t.  c is n times one ``math.fsum`` of
       the atoms over another, the first one's terms ``k w`` each rounded
       once, so it is within ``gamma_5 n mu <= gamma_5 n (l - 1)`` of ``n
       mu``.  Where the window is read it holds ``[c - t, c]`` or ``[c, c +
       t]``, so ``t < W <= 2^23`` under the cap, hence ``n (l - 1)^2 = 2 t^2
       / ln(2/T) < 2^41`` and c errs by less than ``gamma_5 2^41 < 2^-9``;
       t errs by a few u of itself, under ``2^-27``.  Since ``W <= N``, each
       index outside the window is congruent mod N to at most one inside
       it, so the cyclic power's entries on the window exceed the linear
       power's by at most T' in total (aliasing), and the entries left out
       of the window hold at most T' (truncation): ``e_inf``, ``e_2`` and
       ``e_1`` each grow by ``2T'``.  T comes from the precision, so it adds
       no setting: ``e_inf`` is at least ``eta_N ||z^||_2``, with ``eta_N
       > 9u`` and ``||z^||_2 >= ||z^||_1 / sqrt(N)``, about ``2^-11.5`` as
       ``N <= 2^23``, so ``2T`` moves it by less than 2^-43 of itself.  The
       window is taken only where it shortens the transform; at n =
       2e3-8e3 a law on 3-4 points needs N = 2048-4096 on it instead of
       4096-32768, and ``err_abs`` shrinks with ``eta_N sqrt(N)`` and W.
       A binomial (step 7) is read on the same window, where it needs no
       transform: its entries off the window are left out, and none is
       aliased.
    5. *Tail drop*: setting the entries ``x^_i <= e_inf`` to 0.0 moves the
       error there to at most ``x^_i + e_inf``, so ``e_inf`` grows by the
       largest dropped entry and ``e_1``, ``e_2`` by the norms of the dropped
       entries.
    6. *Normalization* by ``T = fsum(acc^)``, ``acc^`` the final window
       (correctly rounded, and the zeros outside it would add nothing).
       Every entry of ``acc^`` is ``>= 0`` (the folds add products of
       non-negative entries, and the tail drop zeroes the negatives), so
       their exact sum S is within ``u S`` of T, and ``S <= T / (1 - u)``.
       With exact mass ``M``, ``|M - T| <= e_1 + u S <= e_1 + 2u T =: d``,
       and each quotient rounds by ``u``, so ``err_abs = (e_inf + (max acc^
       + e_inf) d / (T - d) + u max acc^) / T``, times ``1 + 2^-40`` for the
       rounding of the bound.  It holds at every index of the support, the
       zeros outside the window (``acc^ = 0.0`` there) included.  Summed
       over every index, with ``p_k = acc_k / M`` the exact law (``e_1``
       already covers the whole support: the truncated and aliased mass of
       step 4 and the dropped tails of step 5),

           sum_k |p^_k - p_k| <= sum_k |p^_k - acc^_k / T|
                                 + sum_k |acc^_k - acc_k| / T + |M - T| / T
                              <= u S / T + e_1 / T + (e_1 + u S) / T
                              <= 2 e_1 / T + 2u / (1 - u),

       and ``err_l1 = (2 e_1 / T + 2u) (1 + 2^-40)``: the factor covers the
       two roundings of the bound and ``2u^2 / (1 - u)``, far below ``2^-40
       2u``.  A reader that sums masses charges this one number, not
       ``err_abs`` per index: for the coin at n = 1e9 (a binomial, step 7),
       ``err_abs`` is 7.2e-16 and ``err_l1`` 2.4e-11, where ``err_abs`` over
       the support's 1e9 + 1 indices is 7.2e-7.
    7. *Binomial* (every power of two atoms, on the reduced support ``{0:
       w0, 1: w1}``).  The exact power of the scaled law is ``x_j = z_j /
       Z`` at j = 0..n, spread at stride ``s g`` like every power, with
       ``z_j = P_j / P_m`` and ``Z`` the sum of all n + 1 of them (``Z >=
       z_m = 1``); every exact ratio is at most 1 away from the mode ``m``, so
       every ``z_j <= 1``.  A computed ratio rounds three times: ``fl(w1 /
       w0)`` once, the quotient of the integers ``n - j`` and ``j + 1`` once
       (both exact below ``2^53``) and their product once; the cumulative
       product rounds once more per factor.  So the entry ``k = |j - m|``
       from the mode is ``z^_j = z_j (1 + theta_j) + xi_j`` with ``|theta_j|
       <= gamma_4k`` and ``|xi_j| <= k sigma``, ``sigma = 3 (n + 1)
       2^-1074``, a subnormal slack per product (a ratio below the normal
       range errs by ``2^-1075`` absolutely, and the quotient scales that by
       at most n).  The W computed entries are summed by ``numpy``'s
       pairwise summation, where a term passes through at most ``h`` roundings
       (:func:`_pairwise_adds`: ``W - 1`` below 8 terms, at most 25 up to
       128, one more per halving above), and a sum that underflows is exact,
       so ``S^ = sum_j z^_j (1 + phi_j)``, ``|phi_j| <= gamma_h``; ``S^ >=
       1 - gamma_h`` as ``z^_m = 1``.  Each ``x^_j = fl(z^_j / S^)`` rounds
       by u and ``2^-1075``.  With ``u' = u / (1 - 4Wu)``, ``kappa = 1 /
       ((1 - u)(1 - gamma_4W))``, ``s = W sigma`` and ``c = 6s + 2^-1072``,
       ``z_j / S^ <= kappa (x^_j + c)``; the window holds ``1 - tau`` of Z,
       ``tau <= T' = T`` on a Hoeffding window that leaves a j out (step 4)
       and 0 otherwise, so the normalization errs by ``nu >= |1 - S^ / Z|``,

           nu = A + G (1 + A) / (1 - G),  A = T' + gamma_h + 2Ws,
           G = (1 + gamma_h) kappa 4u' (sum_j k_j x^_j + c W^2),

       and every computed entry by
       ``e_j = kappa (4 k_j u' + nu + u) x^_j + c``.  The exact entries off
       the window hold at most T' together, so ``e_inf = max_j e_j + T'``,
       ``e_2 = ||e||_2 + T'`` and ``e_1 = ||e||_1 + T'``: the mass left out
       counts twice, once here and once inside ``nu``.  The sums are rounded up by ``1 + 2 (W
       + 2) u`` and every factor by a few u.  The bound grows with the mean
       distance from the mode, about ``4u sqrt(n t (1 - t))`` in ``e_1``,
       not with a transform's ``eta_N sqrt(N)``: the coin at n = 1e9 has
       ``e_1`` of 1.2e-11.  Then the tail drop of step 5 applies.
    8. *Direct power* (Higham, Sec. 3.1, as in step 2).  The exact power
       ``x = f^{*k}`` of the stored masses and its computed ``x^`` obey
       ``x^_i = x_i (1 + alpha_i) + xi_i`` with ``|alpha_i| <= r``; f itself
       is exact (``r = 0``, ``xi = 0``).  An entry of ``numpy.convolve`` of
       two such vectors is a dot product of at most m products of
       nonnegative doubles, m the shorter factor's length, and rounds to
       ``sum_j p_j (1 + theta_j)``, ``|theta_j| <= gamma_m``, with no
       cancellation, so the product carries ``r <- (1 + r_a)(1 + r_b)(1 +
       gamma_m) - 1`` (:func:`_grown`, rounded up by ``1 + 8u``) and the
       factors' ``xi`` times the other factor's norm.  Two absolute terms
       join them: a product below the normal range errs by at most
       ``2^-1075`` more (sums of doubles do not underflow), and an entry
       set to 0.0 below ``_TINY`` by less than ``_TINY``.  Under
       ``_DIRECT_WIDTH``, ``r < 2^-30`` (it is about ``W u log2 n``) and
       the masses total within 3u of one (the drift test), so each factor
       passes its ``xi`` on with weight below ``1 + 2^-20``; an error made
       at the power k reaches the power n through at most ``n/k`` copies
       (one per squaring that follows doubles them), so all of them
       together, the ``s_i >= |xi_i|``, total at most ``slack = n (P
       2^-1073 + F 2^-510)``, P the products made and F the entries tested
       against ``_TINY``, as :func:`lltkit.scenery._fold_error` charges
       its own.  With ``x_i <= (x^_i + s_i) / (1 - r)``, ``|x^_i - x_i| <=
       (r x^_i + s_i) / (1 - r)`` at every index, so the power enters with
       ``e_p = (r ||x^||_p + slack) / (1 - r)``, p = 1, 2, inf (norms
       measured, the bound rounded up by ``1 + 8u``), and the tail drop of
       step 5 applies.  The relative bound about doubles per squaring,
       where a transform's ``eta_N ||f||_2^2`` shrinks as the power
       spreads: ``err_abs`` of {1, 2, 1}/4 is 4.4e-15, 1.6e-14 and 2.6e-14
       at n = 32, 128 and 300, against 1.1e-14, 5.9e-15 and 4.1e-15 by
       the transform, and 4.6e-16 against 7.0e-15 at n = 2.

    The drift test checks the carried bound.  :func:`lltkit.lattice.make_pmf`
    divides each weight by their correctly rounded sum, so its masses total
    one to within ``2u / (1 - u)`` and their ``fsum``, correctly rounded,
    lies within ``2u`` of one (doubles are ``u`` apart below one and ``2u``
    above it); so does that of :func:`bernoulli`'s ``1 - t`` and t.  A part
    whose ``fsum`` lies further off is refused before the fold, so each
    exact mass is within ``3u`` of one, the sum's within ``3u n`` for n
    summands, and ``|T - 1| > e_1 + 3u n + 2u`` raises
    :class:`NumericsError`.
    """
    parts = [(p, _as_count(count, j)) for j, (p, count) in enumerate(parts)]
    if not parts:
        raise LatticeError("need at least one summand")
    d, strides = _common_lattice([p.D for p, _ in parts])
    # per part: stride, positive atoms from the first, the window [a, b] it is
    # read on and its kernel, chosen here once; `window` bounds the running window
    folds, first, window = [], 0, 1
    for j, ((p, count), s) in enumerate(zip(parts, strides)):
        _check_total(p, f"part {j}")
        pos = [(k, w) for k, w in sorted(p.probs.items()) if w > 0]
        k1 = int(pos[0][0])
        first += count * s * k1
        if len(pos) == 1:  # a point mass: its scaled law is exactly 1.0 at k1
            continue
        # a power is taken on its support reduced by g, and spread at stride s g
        g = math.gcd(*(k - k1 for k, _ in pos)) if count > 1 else 1
        pos, s = [((k - k1) // g, w) for k, w in pos], s * g
        span = pos[-1][0]
        if count == 1:
            a, b, kernel = 0, span, None
        elif len(pos) == 2:
            a, b = _window(pos, span, count)
            kernel = partial(_binomial, pos, count, a, b)
        elif count * span < _DIRECT_WIDTH:  # read on its whole support
            a, b, kernel = 0, count * span, partial(_direct, pos, span, count)
        else:
            a, b = _window(pos, span, count)
            kernel = partial(_power, pos, span, count, a, b)
        folds.append((s, pos, a, b, kernel))
        window += s * (b - a)
    if window > _LENGTH_CAP:
        raise LatticeError(f"exact law on a window of {window} points, above the cap of "
                           f"{_LENGTH_CAP}")
    probs, lo, ab = np.ones(1), 0, _Bounds(1.0, 1.0, 1.0)  # probs[0] is at index first + lo
    for j, (s, pos, a, b, kernel) in enumerate(folds):
        if kernel is None:  # one shifted add per atom, in increasing k, into a fresh array
            out = np.zeros(len(probs) + s * b)
            for k, wk in pos:
                out[s * k:s * k + len(probs)] += wk * probs
            ab = _direct_product(ab, _measured(np.array(pos)[:, 1]), min(len(probs), len(pos)))
        else:
            power, pb = kernel()
            nz = np.flatnonzero(power)
            spread = np.zeros((nz[-1] - nz[0]) * s + 1)  # the gaps stay exact zeros
            spread[::s] = power[nz[0]:nz[-1] + 1]
            # the first power's product with the unit is the spread itself, a fresh
            # array, so that the law does not keep the transform's buffer alive
            out = np.convolve(probs, spread) if j else spread
            ab = _direct_product(ab, pb, min(len(probs), len(spread)))
            lo += s * (a + int(nz[0]))
        probs = out
    return _normalized(probs, ab, sum(count for _, count in parts), first + lo,
                       math.fsum(count * p.v0 for p, count in parts), d)


def _normalized(probs: np.ndarray, ab: _Bounds, n: int, first: int, v0: float, d: float):
    """The law of a sum of n summands from its computed window ``probs``
    (every entry >= 0, bounded by ``ab``), divided in place by its ``fsum``,
    with ``err_abs`` and ``err_l1`` (``sum_law``, error bound step 6, and
    the drift test)."""
    total = math.fsum(probs.tolist())
    if abs(total - 1.0) > ab.e1 + 3.0 * _U * n + 2.0 * _U:
        raise NumericsError(f"convolution mass drifted by {abs(total - 1.0):.3e}, "
                            f"beyond its error bound {ab.e1:.3e}")
    peak = float(probs.max())
    probs /= total
    dm = ab.e1 + 2.0 * _U * total
    err = (ab.einf + (peak + ab.einf) * dm / (total - dm) + _U * peak) / total * (1.0 + 2.0**-40)
    err_l1 = (2.0 * ab.e1 / total + 2.0 * _U) * (1.0 + 2.0**-40)
    return SumLaw(probs=probs, first=first, v0=v0, D=d, err_abs=err, err_l1=err_l1)



def exact_moments(parts: Sequence[tuple[LatticePmf, int]]) -> tuple[Fraction, Fraction]:
    """Mean and variance, in rational arithmetic, of the sum that
    ``sum_law(parts)`` stands for: each law's stored masses scaled to total
    one.  A law's masses are read as integers over their common power-of-two
    denominator (:func:`_integer_masses`), so its moments cost integer sums.
    The parts' numerators are summed over the product of their denominators,
    and each moment is reduced once, as one fraction."""
    mean, mean_den, var, var_den = 0, 1, 0, 1
    for p, count in parts:
        ws = list(zip(map(int, p.probs), _integer_masses(p.probs.values())[0]))
        t = sum(w for _, w in ws)
        s1 = sum(k * w for k, w in ws)
        s2 = sum(k * k * w for k, w in ws)
        (v, vd), (d, dd) = p.v0.as_integer_ratio(), p.D.as_integer_ratio()
        md, vdd = vd * dd * t, dd * dd * t * t  # the part's denominators
        mean, mean_den = mean * md + count * (v * dd * t + d * vd * s1) * mean_den, mean_den * md
        var, var_den = var * vdd + count * d * d * (s2 * t - s1 * s1) * var_den, var_den * vdd
    return Fraction(mean, mean_den), Fraction(var, var_den)


def bernoulli(t: float) -> LatticePmf:
    """Bernoulli(t) on L(0, 1), 0 < t <= 1, with masses ``1 - t`` and ``t`` as computed."""
    if not (0.0 < t <= 1.0):
        raise LatticeError(f"success probabilities must lie in (0, 1], got {t}")
    return LatticePmf(0.0, 1.0, {0: 1.0 - t, 1: t} if t < 1.0 else {1: 1.0})


def _ndtr(a: np.ndarray) -> np.ndarray:
    """The normal CDF Phi of each entry of the 1-d float array ``a``: Cephes'
    ``ndtr`` (S. Moshier, *Methods and Programs for Mathematical Functions*,
    1989) with its ``erf`` and ``erfc``, in scipy's branch order and with
    its coefficients, so the doubles are those of ``scipy.special.ndtr``.
    ``exp`` is libm's (``math.exp``, per entry of the ``erfc`` tail), as in
    the C code; numpy's vectorized ``exp`` rounds differently.

    With ``x = a/sqrt2`` and ``z = |x|``, ``z < 1/sqrt2`` gives ``0.5 + 0.5
    erf(x)`` and any other z ``0.5 erfc(z)``, taken from 1 when ``x > 0``.
    ``erf(w)`` for ``|w| < 1`` is ``w T(w^2) / U(w^2)``, and ``erfc(z)`` is
    ``1 - erf(z)`` below 1, ``exp(-z^2) P(z) / Q(z)`` below 8, ``exp(-z^2)
    R(z) / S(z)`` from 8 on, and 0 where ``z^2 > MAXLOG``.  One Horner pass
    evaluates each entry's numerator and denominator from ``_NDTR_POLY``.
    """
    x = np.asarray(a, dtype=float) * _SQRT1_2
    z = np.abs(x)
    c = np.minimum(z, 27.0)  # 27^2 > MAXLOG; every product below stays finite
    zz = c * c
    inside = zz <= _MAXLOG  # elsewhere erfc(z) is 0, or x is NaN
    series = z < 1.0
    near = z < _SQRT1_2
    f = np.where(near, x, c)  # w of erf(w), or exp(-z^2) in the tail
    erfc = z >= 1.0
    tail = np.flatnonzero(inside & erfc)  # NaN is neither inside nor erfc
    f[tail] = np.fromiter(map(math.exp, (-zz[tail]).tolist()), float, len(tail))
    branch = erfc.view(np.int8) + (z >= 8.0)  # T/U, P/Q or R/S
    coef = np.take(_NDTR_POLY, np.concatenate([branch, branch + 3]), axis=1)
    arg = np.where(series, zz, c)
    arg = np.concatenate([arg, arg])
    ratio = coef[0] * arg + coef[1]
    for step in coef[2:]:
        ratio *= arg
        ratio += step
    r = f * ratio[:len(x)] / ratio[len(x):]  # erf(w) where z < 1, else erfc(z)
    h = 0.5 * np.where(series, 1.0 - r, r)
    y = np.where(near, 0.5 + 0.5 * r, np.where(x > 0.0, 1.0 - h, h))
    return np.where(inside, y, 0.5 + 0.5 * np.sign(x))  # 0 or 1; NaN stays NaN



def _kolmogorov_distance(law: SumLaw, ks: np.ndarray, w: np.ndarray, center: float,
                         scale: float) -> float:
    """The exact sup-distance between the CDF of ``(S - center)/scale`` and
    Phi, from the atoms ``(ks, w)`` of ``law``: the supremum is attained at
    a jump of the CDF, so Phi is compared with the CDF before and after
    every jump (:func:`lltkit.checks.kolmogorov_distance`)."""
    if not (scale > 0):
        raise LatticeError(f"scale must be positive, got {scale}")
    phi = _ndtr((law.v0 + law.D * ks - center) / scale)
    cdf_after = np.cumsum(w)
    cdf_before = cdf_after - w
    return float(np.maximum(np.abs(cdf_after - phi), np.abs(cdf_before - phi)).max())


def kolmogorov_bound(law: SumLaw, mean, variance) -> float:
    """An upper bound on the sup-distance between Phi and the CDF of ``(S -
    mean)/sqrt(variance)`` under the exact law that ``law`` stands for;
    ``mean`` and ``variance`` may be floats or exact ``Fraction`` values
    (:func:`exact_moments`).

    They are rounded to ``c = float(mean)`` and ``s = sqrt(float(variance))``.
    The bound is :func:`_kolmogorov_distance` of the computed masses about c
    and s, divided by ``1 - u`` for the rounding of each difference, plus
    five parts, each taken over the A atoms (positive masses) it evaluates:

    - the CDF error: each exact CDF value lies within ``err_l1`` of the sum
      of the computed masses up to it;
    - the ``cumsum`` rounding: partial sums of at most A masses of total
      within ``3u`` of one err by ``gamma_A (1 + 3u)``; the CDF before a
      jump subtracts one mass more (``u``), and the masses' total may miss
      one by ``3u``, which the supremum at infinity sees;
    - the ``ndtr`` error, ``_NDTR_ERR = 8u`` absolute;
    - the argument's rounding: ``(v0 + D k - c)/s`` is within ``5u reach /
      s`` of its value in real arithmetic, ``reach = |v0| + |D| max|k| +
      |c|`` over the atoms' indices k, and Phi moves by at most ``1/sqrt(2
      pi)`` times that;
    - the moments' rounding: ``|c - mean| <= u |c|`` moves the argument by
      at most ``u reach / s`` more, and s is within ``2u`` of
      ``sqrt(variance)`` relatively, which moves ``Phi(t)`` by at most ``2u
      sup |t| phi(t) < u/2``.

    The sum is rounded up by ``1 + 16u``.
    """
    c, s = float(mean), math.sqrt(float(variance))
    ks, w = law.atoms()
    dist = _kolmogorov_distance(law, ks, w, c, s)
    reach = abs(law.v0) + abs(law.D) * max(abs(int(ks[0])), abs(int(ks[-1]))) + abs(c)
    err = (law.err_l1 + _gamma(len(ks), _U) * (1.0 + 3.0 * _U) + (_NDTR_ERR + 5.0 * _U)
           + 2.5 * _U * reach / s)
    return (dist / (1.0 - _U) + err) * (1.0 + 16.0 * _U)
