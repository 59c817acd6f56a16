"""Exact distribution engine: the dense law of a sum of independent lattice
variables, and the brute-force statistics every bound is checked against.

:func:`sum_law` is the one kernel.  It takes the sum as ``(law, count)``
parts, the oracle-side twin of the parts of :class:`lltkit.bounds.SumSpec`.
A part with ``count == 1`` is folded into the running array by its atoms:
one shifted, scaled add of the array per positive mass, so a sparse part
(the partition model's ``{0, j}``) costs its array passes, not a
convolution over its span, plus O(1) work on Python scalars (its atoms are
read once as pairs, and a two-atom part's norms come from its two
masses).  A part with ``count >= 2`` is densified on its own span and
raised to its power by repeated squaring with real-FFT products
(``scipy.fft``), ``O(log count)`` products instead of ``count``
convolutions.  Entries of the power at or below its error bound are set to
0.0; it is then spread at stride ``s`` (its span over the finest one) onto
the finest lattice, so the gaps under a coarser span stay exact zeros, and
folded in with ``numpy.convolve`` over the nonzero windows of the running
array and of the power only.  Every oracle reads the dense array of the
resulting :class:`SumLaw` in place, and ``SumLaw.err_abs`` bounds how far
any of its masses can be from the exact law (derived at :func:`sum_law`).
The normal CDF is ``scipy.special.ndtr`` (absolute error near machine
precision).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy import fft
from scipy.special import ndtr

from .errors import LatticeError, NumericsError
from .lattice import LatticePmf, _moments

#: unit roundoff of double precision
_U = 2.0**-53

#: the rounding-up factor of :func:`_measured` for a double vector of length 2
_UP2 = 1.0 + 2.0 * 4 * _U + 4.0 * _U

#: most entries an exact law may hold: every law within it fits a 2^23-point
#: FFT, and the largest took 8.2 s at 610 MB peak RSS on one Intel Xeon core
_LENGTH_CAP = 2**23


@dataclass(frozen=True)
class SumLaw:
    """Exact law of a sum of independent lattice variables, held dense:
    ``probs[i] = P{S = v0 + D * (first + i)}`` to within ``err_abs``, a
    rigorous bound on ``max_i |probs[i] - P{S = v0 + D * (first + i)}|``.
    Zeros in the array (tails dropped at the bound, underflowed tails, gaps
    under coarser spans) are not support points.  ``mean`` and ``variance``
    are summed on first read, since the partition model never reads them."""

    probs: np.ndarray
    first: int
    v0: float
    D: float
    err_abs: float

    @cached_property
    def _mean_variance(self) -> tuple[float, float]:
        ks, w = self.atoms()
        return _moments((self.v0 + self.D * ks).tolist(), w.tolist())

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


@dataclass(frozen=True)
class _Bounds:
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
    """Bounds with the norms of ``x`` summed in its own precision and rounded up."""
    up = 1.0 + 2.0 * (len(x) + 2) * float(np.finfo(x.dtype).epsneg) + 4.0 * _U
    ax = np.abs(x)
    return _Bounds(float(ax.sum()) * up, math.sqrt(float(np.square(x).sum())) * up,
                   float(ax.max()) * (1.0 + 2.0 * _U), e1, e2, einf)


def _propagate(x: _Bounds, y: _Bounds, d1: float, d2: float, dinf: float):
    """Error bounds (1-, 2- and inf-norm) of a computed ``x^ * y^ + D``
    against the exact ``x * y``, when ``D`` obeys ``(d1, d2, dinf)``."""
    x1, x2, xinf = x.n1 + x.e1, x.n2 + x.e2, x.ninf + x.einf
    e1 = x.e1 * y.n1 + x1 * y.e1 + d1
    e2 = min(x.e2 * y.n1, x.e1 * y.n2) + min(x1 * y.e2, x2 * y.e1) + d2
    einf = (min(x.einf * y.n1, x.e1 * y.ninf, x.e2 * y.n2)
            + min(xinf * y.e1, x1 * y.einf, x2 * y.e2) + dinf)
    return e1, min(e2, e1), min(einf, e2, e1)


def _fft_product(x: np.ndarray, bx: _Bounds, y: np.ndarray, by: _Bounds):
    """``x * y`` (a square when ``y is x``) by real FFTs of a power-of-two
    length in the precision of ``x``, with its bounds."""
    length = len(x) + len(y) - 1
    size = 1 << (length - 1).bit_length()
    fx = fft.rfft(x, size)
    z = fft.irfft(fx * fx if y is x else fx * fft.rfft(y, size), size)[:length]
    u = float(np.finfo(x.dtype).epsneg)
    g2 = math.sqrt(2.0) * _gamma(2, u)
    eta = max(1, size.bit_length() - 1) * (4.0 * u + _gamma(4, u) * (math.sqrt(2.0) + 4.0 * u))
    eta /= 1.0 - eta
    a, b = bx.n2 * by.n1, bx.n1 * by.n2
    spread = eta * (a + b) + eta * eta * math.sqrt(size) * bx.n2 * by.n2
    out = min(a, b) + spread
    d2 = spread + (g2 + eta * (1.0 + g2)) * out
    dinf = (2.0 * eta + eta * eta + g2 * (1.0 + eta) ** 2) * bx.n2 * by.n2 + eta * (1.0 + g2) * out
    e1, e2, einf = _propagate(bx, by, math.sqrt(length) * d2, d2, min(dinf, d2))
    return z, _measured(z, min(e1, math.sqrt(length) * e2), e2, einf)


def _direct_product(x: _Bounds, y: _Bounds, m: int) -> _Bounds:
    """Bounds of ``numpy.convolve`` of ``x^`` and ``y^``, each entry a dot
    product of at most ``m`` terms; its norms are bounded, not measured."""
    g = _gamma(m, _U)
    n1 = x.n1 * y.n1
    n2 = min(x.n2 * y.n1, x.n1 * y.n2)
    ninf = min(x.ninf * y.n1, x.n1 * y.ninf, x.n2 * y.n2)
    return _Bounds(n1 * (1.0 + g), n2 * (1.0 + g), ninf * (1.0 + g),
                   *_propagate(x, y, g * n1, g * n2, g * ninf))


def _to_double(x: np.ndarray, bx: _Bounds):
    """``x`` rounded to double, with its bounds: each entry moves by at most
    ``u |x_i|`` plus half the least subnormal."""
    half = 2.0**-1075
    z = x.astype(np.float64)
    return z, _measured(z, bx.e1 + _U * bx.n1 + len(z) * half,
                        bx.e2 + _U * bx.n2 + math.sqrt(len(z)) * half,
                        bx.einf + _U * bx.ninf + half)


def _power(dense: np.ndarray, count: int):
    """``dense`` convolved with itself to the power ``count >= 2``, with
    entries at or below its error bound set to 0.0, and its bounds."""
    x = base = dense.astype(np.longdouble)
    bx = bbase = _measured(x)  # the law's bounds, measured once per precision
    rounds = bin(count)[3:]  # one round per bit below the leading one
    for i, bit in enumerate(rounds):
        if i == len(rounds) - 1:
            # the last round runs in double: no later squaring amplifies its error
            (x, bx), base = _to_double(x, bx), dense
            bbase = _measured(base)
        x, bx = _fft_product(x, bx, x, bx)
        if bit == "1":
            x, bx = _fft_product(x, bx, base, bbase)
    cut = x <= bx.einf
    if cut.any():
        tail = _measured(x[cut])
        top = max(0.0, float(x[cut].max()))
        x = np.where(cut, 0.0, x)
        bx = _measured(x, bx.e1 + tail.n1, bx.e2 + tail.n2, bx.einf + top)
    return x, bx


def _is_integer(x) -> bool:
    """Whether ``x`` is a Python or NumPy integer, not a bool: the rule for
    counts here and for Monte Carlo sample counts and seeds."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _as_count(count, j: int) -> int:
    """``count`` of part j as an int; it must be a (NumPy) integer >= 1, not a bool."""
    if not _is_integer(count) or count < 1:
        raise LatticeError(f"part {j}: count must be an integer >= 1, got {count!r}")
    return int(count)


def sum_law(parts: Sequence[tuple[LatticePmf, int]]) -> SumLaw:
    """Exact law of the independent sum of ``count`` copies of each ``law`` in
    ``parts = [(law, count), ...]``, folded in the order given, with a
    rigorous bound ``err_abs`` on ``max_i |probs[i] - exact law|``.

    Spans must be integer multiples of the finest one and counts integers
    >= 1; offsets add up into ``v0``.  A law of more than ``_LENGTH_CAP``
    points is refused, as a ``LatticeError``, before anything is allocated.
    The exact law is that of independent summands whose pmfs are the stored
    masses, each scaled to total one.

    **Kernel.**  A part with ``count == 1`` is folded by its atoms: for each
    positive mass ``(k, w)``, in increasing k, ``w`` times the running array
    is added at offset ``k s`` (nothing is dropped).  The adds run in place,
    in one array of the final length allocated at the first count-1 part;
    a two-atom part ``{0: a, j: b}`` scales the window by a and adds b times
    it at j, the same roundings as ``0 + a x`` then ``+ b x``.  A part with
    ``count >= 2`` is densified on its own span and powered left to right
    over the bits of ``count``: each round squares, then multiplies by the
    law when its bit is set.  Products are real FFTs whose length ``N =
    2^t`` is the least power of two that holds the product, so the cyclic
    product is the linear one.  Every round but the last runs in ``np.longdouble`` (``u =
    2^-64`` on x86-64; where it is double, ``u = 2^-53`` and the bound grows
    to match), because an error made there is amplified by up to ``2^(later
    squarings)``; the last round runs in double.  Entries of the power at or
    below its ``e_inf`` bound are then set to 0.0: this removes FFT noise,
    negatives and subnormals.  The power is spread at stride ``s`` onto the
    finest lattice and folded in with ``numpy.convolve`` of the nonzero
    windows of the running array and of the power; the product is written
    into the full-length array, so the zeros outside the windows stay exact.

    **Error bound.**  For each computed vector ``x^`` standing for an exact
    ``x >= 0`` the kernel carries bounds on ``||x^||_p`` and ``e_p >=
    ||x^ - x||_p`` for p = 1, 2, inf; norms of computed arrays are summed in
    their own precision and rounded up by ``1 + 2 (L + 2) u``.

    1. *FFT product* (Higham, Accuracy and Stability of Numerical
       Algorithms, 2nd ed., Thm 24.2 and Lemma 3.5).  A computed transform
       of length ``N = 2^t`` obeys ``||fl(F v) - F v||_2 <= eta_N ||F v||_2``
       with ``eta_N = t eta / (1 - t eta)``, ``eta = mu + gamma_4 (sqrt 2 +
       mu)``, twiddles within ``mu = 4u`` (we take this as the model of the
       power-of-two transforms of ``scipy.fft``); complex products err by
       ``sqrt(2) gamma_2`` relatively.  With ``||F v||_2 = sqrt(N) ||v||_2``,
       ``||F v||_inf <= ||v||_1`` and ``||F^-1 w||_inf <= ||w||_1 / N``, the
       rounding ``D = z^ - x^ * y^`` of one product obeys

           ||D||_2   <= S + (sqrt2 g2 + eta_N (1 + sqrt2 g2)) (P + S),
           ||D||_inf <= (2 eta_N + eta_N^2 + sqrt2 g2 (1 + eta_N)^2) ||x^||_2 ||y^||_2
                        + eta_N (1 + sqrt2 g2) (P + S),
           ||D||_1   <= sqrt(L) ||D||_2,

       with ``P = min(||x^||_2 ||y^||_1, ||x^||_1 ||y^||_2)``, ``S = eta_N
       (||x^||_2 ||y^||_1 + ||x^||_1 ||y^||_2) + eta_N^2 sqrt(N) ||x^||_2
       ||y^||_2`` and L the product's length.  Underflow adds a few
       subnormals per entry, far below these, and is left out.
    2. *Propagation* through squarings, products with the law and the
       folds: ``x^ * y^ - x * y = (x^ - x) * y^ + x * (y^ - y)``, bounded by
       Young's inequalities ``||f * g||_p <= ||f||_p ||g||_1`` and ``||f *
       g||_inf <= ||f||_2 ||g||_2``, taking the least of the pairings, with
       the exact norms bounded by computed norm plus error.  A fold rounds
       each entry as a dot product of at most ``m`` terms: ``|R| <= gamma_m
       (|acc^| * |part^|)`` entrywise (Higham, Sec. 3.1).  For a count-1
       part ``m = min(window, atoms)``: each entry sums one product per atom,
       at most one per entry of the running array's nonzero window; for a
       power ``m = min(window, spread window)``, the shorter of the two
       ``numpy.convolve`` arguments.
       The fold's norms are carried as bounds, never recomputed, so the
       count-1 path costs nothing beyond its adds.  A count-1 part enters
       with the norms of its positive masses; a two-atom part ``{0: a, j:
       b}`` computes them from the scalars, ``(a + b) up``, ``sqrt(a^2 +
       b^2) up`` and ``max(a, b) (1 + 2u)`` with ``up = 1 + 12u``, the same
       doubles as the sums over a 2-entry array, which numpy rounds once.
    3. *Precision change*: rounding an extended vector to double moves each
       entry by at most ``u |x_i|`` plus half the least subnormal.
    4. *Tail drop*: setting the entries ``x^_i <= e_inf`` to 0.0 moves the
       error there to at most ``x^_i + e_inf``, so ``e_inf`` grows by the
       largest dropped entry and ``e_1``, ``e_2`` by the norms of the dropped
       entries.
    5. *Normalization* by ``T = fsum(acc^)`` (correctly rounded): with exact
       mass ``M``, ``|M - T| <= e_1 + 2u T =: d``, and each quotient rounds
       by ``u``, so ``err_abs = (e_inf + (max acc^ + e_inf) d / (T - d) + u
       max acc^) / T``, times ``1 + 2^-40`` for the rounding of the bound.

    The drift test checks the carried bound: stored masses are normalized
    to within ``2u`` (:func:`lltkit.lattice.make_pmf`), so the exact mass is
    within ``3u n`` of one for n summands, and ``|T - 1| > e_1 + 3u n + 2u``
    raises :class:`NumericsError`.
    """
    parts = [(p, _as_count(count, j)) for j, (p, count) in enumerate(parts)]
    if not parts:
        raise LatticeError("need at least one summand")
    d = min(p.D for p, _ in parts)
    atoms, length = [], 1  # per part: stride, first listed index, span, positive atoms
    for p, count in parts:
        r = p.D / d
        s = round(r)
        if s < 1 or abs(r - s) > 1e-9 * max(1.0, s):
            raise LatticeError(f"incompatible spans: {p.D} is not an integer multiple of {d}")
        items = sorted(p.probs.items())
        k0 = int(items[0][0])  # the first listed atom, massless or not
        span = int(items[-1][0]) - k0
        atoms.append((s, k0, span, [(k - k0, w) for k, w in items if w > 0]))
        length += count * s * span
    if length > _LENGTH_CAP:
        raise LatticeError(f"exact law of {length} points, above the cap of {_LENGTH_CAP}")
    acc, ab = np.array([1.0]), _Bounds(1.0, 1.0, 1.0)
    size, lo, hi = 1, 0, 1  # the sum so far has length size; its nonzeros lie in acc[lo:hi]
    whole = scratch = None  # the count-1 parts' accumulator of the final length
    first = 0
    for (_, count), (s, k0, span, pos) in zip(parts, atoms):
        size += count * s * span
        if count == 1:  # one shifted add per atom, in increasing k, in place
            if acc is not whole:
                whole, scratch = np.zeros(length), np.empty(length)
                whole[lo:hi] = acc[lo:hi]
                acc = whole
            win, x = acc[lo:hi], scratch[:hi - lo]
            if len(pos) == 2 and pos[0][0] == 0:  # {0: a, j: b}: a x, then b x added at j
                (_, a), (j, b) = pos
                np.multiply(win, b, out=x)
                win *= a
                j = lo + s * j
                acc[j:j + len(x)] += x
                # _measured of [a, b]: numpy sums two doubles as their rounded sum
                bp = _Bounds((a + b) * _UP2, math.sqrt(a * a + b * b) * _UP2,
                             max(a, b) * (1.0 + 2.0 * _U))
            else:
                x[:] = win
                win[:] = 0.0
                for k, wk in pos:
                    k = lo + s * k
                    acc[k:k + len(x)] += wk * x
                bp = _measured(np.array([w for _, w in pos]))
            ab = _direct_product(ab, bp, min(len(x), len(pos)))
            lo, hi = lo + s * pos[0][0], hi + s * pos[-1][0]
        else:
            win = acc[lo:hi]
            out = np.zeros(size)
            ks, w = zip(*pos)
            dense = np.zeros(span + 1)
            dense[list(ks)] = w
            power, pb = _power(dense, count)
            nz = np.flatnonzero(power)
            spread = np.zeros((nz[-1] - nz[0]) * s + 1)  # gaps stay exact zeros
            spread[::s] = power[nz[0]:nz[-1] + 1]
            lo, hi = lo + s * int(nz[0]), hi + s * int(nz[-1])
            out[lo:hi] = np.convolve(win, spread)
            ab = _direct_product(ab, pb, min(len(win), len(spread)))
            acc = out
        first += count * s * k0
    total = math.fsum(acc[np.flatnonzero(acc)].tolist())
    n = sum(count for _, count in parts)
    if abs(total - 1.0) > ab.e1 + 3.0 * _U * n + 2.0 * _U:
        raise NumericsError(f"convolution mass drifted by {abs(total - 1.0):.3e}, "
                            f"beyond its error bound {ab.e1:.3e}")
    probs = acc / total
    peak = float(acc.max())
    dm = ab.e1 + 2.0 * _U * total
    err = (ab.einf + (peak + ab.einf) * dm / (total - dm) + _U * peak) / total * (1.0 + 2.0**-40)
    v0 = math.fsum(count * p.v0 for p, count in parts)
    return SumLaw(probs=probs, first=first, v0=v0, D=d, err_abs=err)


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
