"""Exact distribution engine: the law of a sum of independent lattice
variables on the window that holds its masses, and the brute-force
statistics every bound is checked against.

:func:`sum_law` is the one kernel.  It takes the sum as ``(law, count)``
parts, the oracle-side twin of the parts of :class:`lltkit.bounds.SumSpec`,
and folds every part into the running window of the sum, the entries from
the first to the last one kept; the support's other indices are exact zeros
and are never allocated.  A part with ``count == 1`` is folded by its atoms
into one fresh zero array: one shifted, scaled add of the window per
positive mass, so a sparse part costs its array passes, not a convolution
over its span (its atoms are read once as pairs).  A part with ``count >=
2`` is densified on its own span and raised to its power with one transform
pair of ``numpy.fft`` (numpy's pocketfft, which keeps ``np.longdouble`` in
long double from numpy 2.0 on): one double ``rfft``, a pointwise power over
the bits of ``count``, one double ``irfft``, with the frequencies where the
power survives evaluated again and raised in extended precision, unless the
double power is already as accurate as its inverse transform (summed from
the atoms with twiddles read from a full-circle table built once per
transform length and kept within ``_TWIDDLE_BYTES``, or by one extended
``rfft``).  The transform covers only the power's Hoeffding window, about
``12 span sqrt(count)`` points around its mean outside of which the power
holds at most ``u^2`` of mass, wherever that is shorter than the whole
support: the cyclic power is read back on the window, so the transform
length grows as ``sqrt(count)``, not as ``count``.  Entries of the power at
or below its error bound are set to 0.0; it is then spread at stride ``s``
(its span over the common lattice of all spans) onto that lattice, so the
gaps under a coarser span stay exact zeros, and folded in with
``numpy.convolve`` of the running window and the power's nonzero window,
whose product is the new window; the first part's power is the window as it
is, its product with the unit.  The sum is normalized in place.  Every
oracle reads the window of the resulting :class:`SumLaw` in place.
``SumLaw.err_abs`` bounds how far any of its masses, on the window or off
it, can be from the exact law, and ``SumLaw.err_l1`` how far all of them
together can be, in the l1 norm (both derived at :func:`sum_law`): a reader
that sums masses charges ``err_l1`` once, not ``err_abs`` per index.  The
normal CDF is :func:`_ndtr`, Cephes' ``ndtr`` (absolute error near machine
precision) in numpy with libm's ``exp``, which gives the doubles of
``scipy.special.ndtr`` without importing ``scipy.special``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
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

#: the precision of the frequencies whose power survives (``sum_law``)
_EXT = np.longdouble

#: (frequency, atom) pairs summed at once by :func:`_transform_at`: about 8 MB
_PAIRS = 2**16

#: most bytes the kept twiddle tables of one precision hold together
#: (:func:`_twiddles`): in long double, every size up to 2^17
_TWIDDLE_BYTES = 2**23

#: the full-circle twiddle tables built so far, by ``(size, _EXT)``
_TWIDDLES: dict = {}

#: largest refinement of the finest span that a common lattice may need
_MAX_REFINE = 1000

#: most entries the running window of an exact law may span (``sum_law``):
#: it bounds every array the fold allocates, and every power within it fits
#: a 2^23-point FFT
_LENGTH_CAP = 2**23

#: most probability a Hoeffding window may leave out, u^2: the window adds
#: 2 u^2 to a power's e_inf, which is never below 9u 2^-11.5 under the length
#: cap (``sum_law``, error bound step 4)
_OUTSIDE = _U * _U


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


@cache
def _eta(size: int, u: float) -> float:
    """Higham's normwise error constant ``eta_N`` of a power-of-two transform
    of length ``size`` computed with unit roundoff u and twiddles within 4u,
    the model taken for numpy's pocketfft (``numpy.fft``)."""
    eta = max(1, size.bit_length() - 1) * (4.0 * u + _gamma(4, u) * (math.sqrt(2.0) + 4.0 * u))
    return eta / (1.0 - eta)


def _pow_err(count: int, u: float) -> float:
    """Relative error of a complex power ``z^count`` by squaring over the bits
    of ``count``: its n - 1 multiplicities of rounding each err by ``sqrt2 gamma_2``."""
    g = (count - 1) * math.sqrt(2.0) * _gamma(2, u)
    return g / (1.0 - g)


def _raise(z: np.ndarray, count: int) -> np.ndarray:
    """``z ** count`` elementwise, left to right over the bits of ``count``."""
    out = z * z
    for i, bit in enumerate(bin(count)[3:]):
        if i:
            np.multiply(out, out, out=out)
        if bit == "1":
            np.multiply(out, z, out=out)
    return out


def _octant_table(size: int, top: int) -> tuple[np.ndarray, np.ndarray]:
    """``cos`` and ``sin`` in ``_EXT`` of the angles ``phi = (pi/4) t step /
    size`` in ``[0, pi/4]``, ``step = min(8, size)``, for t = 0..top: the
    angles :func:`_circle` reduces every twiddle to (``top = size/step``
    covers them all)."""
    step = min(8, size)
    phi = np.arange(top + 1, dtype=_EXT) * (step * np.arctan(_EXT(1)) / size)
    return np.cos(phi), np.sin(phi)


def _circle(m: np.ndarray, size: int, cos: np.ndarray, sin: np.ndarray):
    """``cos`` and ``sin`` in ``_EXT`` of ``2 pi m / size`` for integers ``0
    <= m < size``, from :func:`_octant_table`'s ``cos`` and ``sin``.  Each
    angle is reduced to an octant by integer arithmetic, ``(pi/4) (o +
    r/size)``; its cosine and sine are a swap and sign change of those of
    ``(pi/4) t/size`` in ``[0, pi/4]`` (t = r, or ``size - r`` in an odd
    octant), so the eighth-turn points are exact and every other value is
    one ``cos`` or ``sin`` of a small angle rounded twice."""
    step = min(8, size)  # every r is a multiple of it
    o, r = np.divmod(8 * m, size)
    odd = (o & 1).astype(bool)
    t = np.where(odd, size - r, r) // step
    quarter = o >> 1
    swap = odd ^ (quarter & 1).astype(bool)  # cos and sin trade places
    ct, st = cos[t], sin[t]
    c, s = np.where(swap, st, ct), np.where(swap, ct, st)
    c[(quarter == 1) | (quarter == 2)] *= -1
    s[quarter >= 2] *= -1
    return c, s


def _twiddles(size: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The full circle of the power of two ``size``: :func:`_circle` of
    every ``m < size``, built on first use per ``(size, _EXT)`` and kept,
    or None where it would not fit the budget.  A table takes ``2 itemsize
    size`` bytes (32 size in long double); only sizes with ``4 itemsize
    size <= _TWIDDLE_BYTES`` are kept, so the kept tables of one type,
    one per power of two at most, hold less than ``_TWIDDLE_BYTES``
    together (in long double: every size up to 2^17, under 8 MB)."""
    key = (size, _EXT)
    table = _TWIDDLES.get(key)
    if table is None and 4 * np.dtype(_EXT).itemsize * size <= _TWIDDLE_BYTES:
        step = min(8, size)
        table = _TWIDDLES[key] = _circle(np.arange(size), size, *_octant_table(size, size // step))
    return table


def _transform_at(dense: np.ndarray, bf: _Bounds, freqs: np.ndarray, size: int):
    """``sum_k dense[k] exp(-2 pi i j k / size)`` for each j in ``freqs`` (in
    increasing order), in ``_EXT``, and a bound on the error of every value
    (``bf`` bounds the norms of ``dense``).

    They are summed straight from the A positive entries, the pairs ``(j,
    k)`` taken ``_PAIRS`` at a time.  A pair's twiddle is read from the
    full circle of ``size`` (:func:`_twiddles`) at ``m = j k mod size``,
    exact in integers.  Where no table is kept (``size > 2^17`` in long
    double) each block reduces its m to a table of the octant angles up to
    the largest one reached, built once per call (:func:`_circle`): the
    same long doubles.  No ``perfbench`` workload reaches that path (their
    sizes are 4096 at most), so its cost is timed only in single calls
    (ROADMAP item 1b's many-atom workload is to measure it).  The direct
    sums' error bound, ``sqrt2 (gamma_A(u_e) (1 + 4u_e) + 4u_e) ||f||_1``,
    is far below that of a transform, ``eta_N(u_e) sqrt(N) ||f||_2``.  On
    one Intel Xeon core a pair costs 13-20 ns read from a kept table (50-60
    ns by octant reduction), on top of about 10 us per call, and one
    extended ``rfft`` about 35 ns per point.  Where ``4 |freqs| A`` exceeds
    ``size log2(size) + 2^13``, one extended ``rfft`` gives the values
    instead.  That rule was fitted to the octant reduction's cost of about
    100-150 ns a pair, and it stays: the two
    paths carry different bounds, so moving the rule moves ``err_abs`` and
    the digits printed from it.  It takes a law of many atoms whose power
    the double transform cannot already give within its inverse transform's
    error: a heavy atom among many light ones (a spectrum near 1
    everywhere) at any n, or 40-1000 atoms of similar mass at n of about
    4-16.  No ``perfbench`` workload has such laws (see ROADMAP).
    """
    ks = np.flatnonzero(dense)
    ue = float(np.finfo(_EXT).epsneg)
    if 4 * len(freqs) * len(ks) > size * (size.bit_length() - 1) + 2**13:
        ext = np.fft.rfft(dense.astype(_EXT), size)[freqs]
        return ext, _eta(size, ue) * math.sqrt(size) * bf.n2
    table = _twiddles(size)
    if table is None:  # no t exceeds 8 j k / step or size / step
        octant = _octant_table(size, min(size, 8 * int(freqs[-1]) * int(ks[-1])) // min(8, size))
    w = dense[ks].astype(_EXT)
    out = np.empty(len(freqs), dtype=np.result_type(w, 1j))
    rows = max(1, _PAIRS // len(ks))
    for lo in range(0, len(freqs), rows):
        m = np.multiply.outer(freqs[lo:lo + rows], ks) & (size - 1)
        c, s = (table[0][m], table[1][m]) if table is not None else _circle(m, size, *octant)
        # the parts of c.w - 1j s.w, whose imaginary part is 0.0 - s.w (+0.0,
        # not -0.0, where s.w is 0); vecdot sums each row by itself, so the
        # doubles do not follow the block shape, as a matmul's may
        out.real[lo:lo + rows] = np.vecdot(c, w)
        out.imag[lo:lo + rows] = 0.0 - np.vecdot(s, w)
    err = math.sqrt(2.0) * (_gamma(len(ks), ue) * (1.0 + 4.0 * ue) + 4.0 * ue) * bf.n1
    return out, err


def _window(pos: list[tuple[int, float]], span: int, count: int) -> tuple[int, int]:
    """The indices ``[a, b]`` on which :func:`_power` reads a law to the
    power ``count``, from its positive atoms ``pos`` (index, mass) on ``[0,
    span]``: its Hoeffding window (``sum_law``, error bound step 4) where
    that needs a shorter transform than the whole support ``[0, count
    span]``, else the whole support.  The mean is summed from the atoms,
    so :func:`sum_law` finds every window before it allocates anything."""
    last = count * span
    center = count * math.fsum(k * w for k, w in pos) / math.fsum(w for _, w in pos)
    reach = span * math.sqrt(count * math.log(2.0 / _OUTSIDE) / 2.0)
    a = max(0, math.floor(center - reach) - 1)
    b = min(last, math.ceil(center + reach) + 1)
    return (a, b) if (b - a).bit_length() < last.bit_length() else (0, last)


def _power(dense: np.ndarray, count: int, a: int, b: int):
    """``dense`` convolved with itself to the power ``count >= 2``, read on
    its window ``[a, b]`` (:func:`_window`): the power there with entries
    at or below its error bound set to 0.0, and its bounds."""
    bf = _measured(dense)
    # the mass a Hoeffding window leaves out (none on the whole support)
    last = count * (len(dense) - 1)
    outside = _OUTSIDE * bf.n1 ** count * (1.0 + 4.0 * _U) if b - a < last else 0.0
    size = 1 << (b - a).bit_length()  # the least power of two >= b - a + 1
    spec = np.fft.rfft(dense, size)
    power = _raise(spec, count)
    eta = _eta(size, _U)
    delta = eta * math.sqrt(size) * bf.n2
    half = len(spec) - 1  # each 0 < j < half stands for j and size - j
    eps = _pow_err(count, _U)
    norm = (bf.n2 * (1.0 + eta) + delta) * (1.0 + 4.0 * _U)

    def double_err(cut: float) -> tuple[float, float]:
        """What the double frequencies, all with |F^_j| + delta <= cut, add
        to e_inf and e_2 (sum_law, error bound step 1)."""
        m = min(cut, norm)
        g = cut ** (count - 2) * (1.0 + 4.0 * count * _U) * (1.0 + 8.0 * _U)
        per = count * eta * bf.n2 + eps * m
        tiny = count * 2.0**-1072
        return g * m * per + tiny, g * cut * per + tiny

    cut = (bf.n1 + 2.0 * delta) * (1.0 + 4.0 * _U)  # every |F^_j| + delta
    s1 = s2 = 0.0
    sq = np.square(np.abs(power))
    sq[1:half] *= 2.0
    # unless the double power is already within the inverse transform's error,
    # the frequencies whose power can reach the extended unit roundoff ue are
    # evaluated again in _EXT (sum_law, error bound step 3)
    if double_err(cut)[0] > eta * math.sqrt(float(sq.sum()) / size):
        ue = float(np.finfo(_EXT).epsneg)
        cut = ue ** (1.0 / count) * (1.0 - 64.0 * _U)
        keep = np.flatnonzero(np.abs(spec) >= (cut - delta) * (1.0 - 8.0 * _U))
        ext, delta_e = _transform_at(dense, bf, keep, size)
        power[keep] = _raise(ext, count)
        pe = _pow_err(count, ue)
        c = (np.abs(ext.astype(np.complex128)) + delta_e) * (1.0 + 4.0 * _U)
        cn = c if count == 2 else _raise(c, count - 1) * (1.0 + _gamma(count, _U))
        e = cn * (count * delta_e + (pe + _U * (1.0 + pe)) * c) * (1.0 + 4.0 * _U) + 2.0**-1074
        up = (1.0 + 2.0 * (len(e) + 4) * _U) / size
        ee = e * e
        mid = slice(int(keep[0] == 0), len(keep) - int(keep[-1] == half))  # stand for two
        e[mid] *= 2.0
        ee[mid] *= 2.0
        s1, s2 = float(e.sum()) * up, float(ee.sum()) * up
    d1, d2 = double_err(cut)
    z = np.fft.irfft(power, size)
    inv = eta * math.sqrt(float(np.square(z).sum())) * (1.0 + 2.0 * (size + 2) * _U) / (1.0 - eta)
    einf = (s1 + d1) * (1.0 + 4.0 * _U) + inv
    e2 = (math.sqrt(s2) + d2) * (1.0 + 4.0 * _U) + inv
    # the cyclic power read on [a, b], with wraparound where b >= N (take's
    # "wrap" mode would step each index down by N, a/N times)
    x = z[a:b + 1] if b < size else np.roll(z, -a)[:b - a + 1]
    e1 = min((b - a + 1) * einf, math.sqrt(b - a + 1) * e2)
    # the aliased mass and the mass left out: each at most `outside`
    e1, e2, einf = e1 + 2.0 * outside, e2 + 2.0 * outside, einf + 2.0 * outside
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
    entry kept to the last, which starts as the unit ``[1.0]``.  A part with
    ``count == 1`` is folded by its atoms: for each positive mass ``(k,
    w)``, in increasing k, ``w`` times the window is added at offset ``(k -
    k_1) s`` into one fresh zero array, ``k_1`` its first positive atom
    (nothing is dropped); that array is the new window.
    A part with ``count = n >= 2`` is densified on its own span, ``f`` of
    length ``l``, and raised to its power ``f^{*n}`` (length ``L = n (l - 1)
    + 1``) on its window ``[a, b]`` (step 4): the Hoeffding window where its
    ``W = b - a + 1`` points need a shorter transform than L points, else
    the whole support (``a = 0``, ``W = L``).  One transform pair of length
    ``N = 2^t``, the least power of two ``>= W``, gives the cyclic power,
    which is read on ``[a, b]`` with wraparound (on the whole support it is
    the linear power): one double
    ``rfft``, the pointwise power ``F^n`` in complex128 by squaring over the
    bits of n (square, then multiply by ``F`` where the bit is set), one
    double ``irfft``.  Unless the double power's error bound is already
    within that of the inverse transform (laws of many atoms at small n,
    step 3), the frequencies where the power survives, ``|F^_j| + delta >=
    tau = u_e^(1/n)`` with ``u_e`` the unit roundoff of ``_EXT``
    (``np.longdouble``: ``2^-64`` on x86-64), are evaluated again in
    ``_EXT`` (:func:`_transform_at`: straight from the atoms, or by one
    extended ``rfft`` where the direct sums would cost more; their twiddles
    come from a table kept per transform length), raised to the
    power there and rounded to double once.  Everywhere else the double
    power stands.  Entries of the window at or below its ``e_inf`` bound are
    then set to 0.0: this removes FFT noise, negatives and subnormals.  The
    power's nonzero window is spread at stride ``s`` onto the common
    lattice, and its ``numpy.convolve`` with the running window is the new
    window; the first part's spread is the window, its product with the
    unit.  The support's indices outside the final window are exact zeros.

    **Error bound.**  For each computed vector ``x^`` standing for an exact
    ``x >= 0`` the kernel carries bounds on ``||x^||_p`` and ``e_p >=
    ||x^ - x||_p`` for p = 1, 2, inf; norms of computed arrays are summed in
    their own precision and rounded up by ``1 + 2 (L + 2) u``.

    1. *Power* (Higham, Accuracy and Stability of Numerical Algorithms,
       2nd ed., Thm 24.2 and Lemma 3.5).  A computed transform of length
       ``N = 2^t`` obeys ``||fl(F v) - F v||_2 <= eta_N ||F v||_2`` with
       ``eta_N = t eta / (1 - t eta)``, ``eta = mu + gamma_4 (sqrt 2 + mu)``,
       twiddles within ``mu = 4u`` (we take this as the model of the
       power-of-two transforms of ``numpy.fft``, numpy's pocketfft; from
       numpy 2.0 on it transforms ``np.longdouble`` in long double, where
       numpy 1.x cast it to double, so the extended frequencies and ``u_e``
       below need numpy >= 2.0).  A complex product errs by
       ``sqrt(2) gamma_2`` relatively; the roundings of a power by squaring
       enter it with multiplicities that add up to ``n - 1``, so it errs by
       ``eps_n(u) = (n - 1) sqrt2 gamma_2 / (1 - (n - 1) sqrt2 gamma_2)``
       relatively.  The sums below run over all N frequencies (each j of
       the half spectrum but 0 and ``N/2`` stands for two).  Per frequency
       j, against the exact ``F_j``:

       - the forward errors ``d_j = |F^_j - F_j|`` obey ``sum_j d_j^2 <=
         delta^2``, ``delta = eta_N sqrt(N) ||f||_2``, as ``||F v||_2 =
         sqrt(N) ||v||_2``; so each ``d_j <= delta``;
       - where the double power stands, ``|a^n - b^n| <= n max(|a|,
         |b|)^(n-1) |a - b|`` gives ``e_j <= n c_j^(n-1) d_j + eps_n(u)
         |F^_j|^n + n 2^-1072`` with ``c_j = |F^_j| + delta``, the last term
         a subnormal per multiplication.  All these frequencies have ``c_j
         <= r`` (``r = tau``, or ``||f||_1 + 2 delta`` when none is evaluated
         again), and ``sum_j c_j^2 <= N m^2`` with ``m = min(r, ||f||_2 (1 +
         eta_N) + delta)`` (Parseval and Minkowski).  With ``c_j^(n-1) <=
         r^(n-2) c_j`` and ``|F^_j|^n <= r^(n-2) |F^_j|^2``, Cauchy-Schwarz
         caps their share of ``e_inf`` (below) at ``r^(n-2) m (n eta_N
         ||f||_2 + eps_n(u) m) + n 2^-1072``, and Minkowski their share of
         ``e_2`` at ``r^(n-1) (n eta_N ||f||_2 + eps_n(u) m) + n 2^-1072``;
       - the frequencies evaluated again have ``F~_j``, within ``delta_e``
         of ``F_j``: summed over the A positive atoms in ``_EXT`` with
         twiddles within ``mu_e = 4 u_e`` (exact at the eighth turns; the
         others are one ``cos`` or ``sin`` of an angle in ``[0, pi/4]``
         rounded twice), ``delta_e = sqrt2 (gamma_A(u_e) (1 + mu_e) + mu_e)
         ||f||_1``, or by one extended ``rfft``, ``delta_e = eta_N(u_e)
         sqrt(N) ||f||_2``.  With ``c_j = |F~_j| + delta_e``, the forward
         error grows to ``n c_j^(n-1) delta_e``, the power in ``_EXT`` adds
         ``eps_n(u_e) |F~_j|^n`` and its rounding to double ``u |P~_j| +
         2^-1074``, so

             e_j <= c_j^(n-1) (n delta_e + (eps_n(u_e) + u (1 + eps_n(u_e))) c_j) + 2^-1074,

         with ``c_j^(n-1)`` taken by squaring in double and rounded up by
         ``1 + gamma_n``.

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

       the sums over the extended frequencies (K) taken as computed and
       rounded up by ``1 + 2 (|K| + 4) u``, those over the others as above.
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
       count-1 path costs nothing beyond its adds.  A count-1 part enters
       with the norms of its positive masses.
       Every fold, of either kind, takes the same step (:func:`_direct_product`).
    3. *Extended set*: the cutoff ``tau`` comes from the precision, so it
       adds no setting.  A frequency left out has ``c_j < tau``, and its
       share of ``e_inf`` carries ``tau^(n-2) <= u_e / tau^2``; membership
       is tested as ``|F^_j| >= (tau (1 - 64u) - delta) (1 - 8u)``, which
       covers the roundings of tau, of ``|F^_j|`` and of the test.  The set
       holds every frequency with ``|F_j| > 0`` at n = 2 and a few percent
       of them at n = 2e4.  No frequency is evaluated again where the double
       power's share of ``e_inf`` at ``r = ||f||_1 + 2 delta`` is at most
       ``eta_N ||z^||_2`` (read off ``P^`` by Parseval): that error of the
       inverse transform stays whatever the spectrum, so extended values
       could at most halve ``e_inf``.  It holds about where ``n ||f||_2^2 <=
       ||f^{*n}||_2``, for laws of many atoms at small n (a uniform law of
       200 atoms up to n = 8).  Where long double is double (MSVC, macOS
       arm64), ``u_e = u``: the set shrinks and ``err_abs`` loosens.
       Measured on the three 3-point laws of the tests, it is
       5.9e-15-1.1e-14 at n = 2 (1.7-1.8x the long-double bound),
       7.4e-14-9.5e-14 at n = 300 (18-22x) and 6.0e-13-8.5e-13 at n = 2e4
       (320-380x).
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
       2e3-8e3 a law on 2-4 points needs N = 1024-4096 on it instead of
       2048-32768, and ``err_abs`` shrinks with ``eta_N sqrt(N)`` and W.
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
       ``err_abs`` per index: for the coin at n = 1e9, ``err_abs`` is
       7.4e-14 and ``err_l1`` 3.4e-9, where ``err_abs`` over the support's
       1e9 + 1 indices is 7.4e-5.

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
    # per part: stride, span, positive atoms and the window [a, b] it is read on;
    # `window` bounds the running window's length
    folds, first, window = [], 0, 1
    for j, ((p, count), s) in enumerate(zip(parts, strides)):
        mass = math.fsum(p.probs.values())
        if abs(mass - 1.0) > 2.0 * _U:
            raise NumericsError(f"part {j}: its masses total {mass!r}, not one to within "
                                "2u; normalize the law (make_pmf does)")
        items = sorted(p.probs.items())
        k0 = int(items[0][0])  # the first listed atom, massless or not
        span = int(items[-1][0]) - k0
        pos = [(k - k0, w) for k, w in items if w > 0]
        a, b = (pos[0][0], pos[-1][0]) if count == 1 else _window(pos, span, count)
        folds.append((s, span, pos, a, b))
        first += count * s * k0
        window += s * (b - a)
    if window > _LENGTH_CAP:
        raise LatticeError(f"exact law on a window of {window} points, above the cap of "
                           f"{_LENGTH_CAP}")
    probs, lo, ab = np.ones(1), 0, _Bounds(1.0, 1.0, 1.0)  # probs[0] is at index first + lo
    for j, ((_, count), (s, span, pos, a, b)) in enumerate(zip(parts, folds)):
        if count == 1:  # one shifted add per atom, in increasing k, into a fresh array
            out = np.zeros(len(probs) + s * (b - a))
            for k, wk in pos:
                k = s * (k - a)
                out[k:k + len(probs)] += wk * probs
            pb = _measured(np.array([w for _, w in pos]))
            ab = _direct_product(ab, pb, min(len(probs), len(pos)))
            lo += s * a
        else:
            ks, w = zip(*pos)
            dense = np.zeros(span + 1)
            dense[list(ks)] = w
            power, pb = _power(dense, count, a, b)
            nz = np.flatnonzero(power)
            spread = power[nz[0]:nz[-1] + 1]
            if s > 1:  # gaps stay exact zeros
                spread = np.zeros((nz[-1] - nz[0]) * s + 1)
                spread[::s] = power[nz[0]:nz[-1] + 1]
            # the first part's product with the unit is the spread itself, copied
            # so that the law does not keep the transform's whole buffer alive
            out = np.convolve(probs, spread) if j else spread.copy()
            ab = _direct_product(ab, pb, min(len(probs), len(spread)))
            lo += s * (a + int(nz[0]))
        probs = out
    total = math.fsum(probs.tolist())
    n = sum(count for _, count in parts)
    if abs(total - 1.0) > ab.e1 + 3.0 * _U * n + 2.0 * _U:
        raise NumericsError(f"convolution mass drifted by {abs(total - 1.0):.3e}, "
                            f"beyond its error bound {ab.e1:.3e}")
    peak = float(probs.max())
    probs /= total
    dm = ab.e1 + 2.0 * _U * total
    err = (ab.einf + (peak + ab.einf) * dm / (total - dm) + _U * peak) / total * (1.0 + 2.0**-40)
    err_l1 = (2.0 * ab.e1 / total + 2.0 * _U) * (1.0 + 2.0**-40)
    v0 = math.fsum(count * p.v0 for p, count in parts)
    return SumLaw(probs=probs, first=first + lo, v0=v0, D=d, err_abs=err, err_l1=err_l1)


def iid_sum(pmf: LatticePmf, n: int) -> SumLaw:
    """Exact law of the sum of n independent copies of ``pmf``."""
    return sum_law([(pmf, n)])


def exact_moments(parts: Sequence[tuple[LatticePmf, int]]) -> tuple[Fraction, Fraction]:
    """Mean and variance, in rational arithmetic, of the sum that
    ``sum_law(parts)`` stands for: each law's stored masses scaled to total
    one.  A law's masses are read as integers over their common power-of-two
    denominator, so its moments cost integer sums and two fractions."""
    mean = var = Fraction(0)
    for p, count in parts:
        ratios = [(int(k), *float(w).as_integer_ratio()) for k, w in p.probs.items()]
        den = max(d for _, _, d in ratios)  # every denominator divides the largest
        ws = [(k, a * (den // d)) for k, a, d in ratios]
        t = sum(w for _, w in ws)
        s1 = sum(k * w for k, w in ws)
        s2 = sum(k * k * w for k, w in ws)
        (v, vd), (d, dd) = p.v0.as_integer_ratio(), p.D.as_integer_ratio()
        mean += Fraction(count * (v * dd * t + d * vd * s1), vd * dd * t)
        var += Fraction(count * d * d * (s2 * t - s1 * s1), dd * dd * t * t)
    return mean, var


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


def kolmogorov_distance(law: SumLaw, center: float, scale: float) -> float:
    """Exact sup-distance between the CDF of ``(S - center)/scale`` and Phi.

    The supremum over x is attained at a jump of the discrete CDF, approached
    from one of the two sides, so it suffices to compare Phi against the CDF
    value before and after every jump (every positive mass).
    """
    if not (scale > 0):
        raise LatticeError(f"scale must be positive, got {scale}")
    ks, w = law.atoms()
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
    The bound is :func:`kolmogorov_distance` of the computed masses about c
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
    dist = kolmogorov_distance(law, c, s)
    ks = law.atoms()[0]
    reach = abs(law.v0) + abs(law.D) * max(abs(int(ks[0])), abs(int(ks[-1]))) + abs(c)
    err = (law.err_l1 + _gamma(len(ks), _U) * (1.0 + 3.0 * _U) + (_NDTR_ERR + 5.0 * _U)
           + 2.5 * _U * reach / s)
    return (dist / (1.0 - _U) + err) * (1.0 + 16.0 * _U)


def llt_discrepancy(law: SumLaw) -> float:
    """Scaled sup-distance between point probabilities and the Gaussian curve.

        sup_N | sqrt(Var) * P{S = N} - D/sqrt(2 pi) * exp(-(N - E S)^2 / (2 Var)) |

    with N running over the whole sum lattice, including points outside the
    support (where only the Gaussian term contributes).  The window and the
    points within 10 standard deviations of the mean are scanned; at every
    other N the computed mass is 0.0 and the Gaussian term is below ``D
    e^-50 / sqrt(2 pi)``.
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
