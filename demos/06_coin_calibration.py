#!/usr/bin/env python3
"""Fair-coin comparison terms: constant calibration, the refined correction,
and the moderate-deviation band.

All three revolve around how well (and how far out) Gaussian-type terms track
the Binomial(n, 1/2) pmf.
"""

import math
from fractions import Fraction

import numpy as np

from lltkit.checks import (
    binomial_half_pmf,
    calibrate_c0_scan,
    certified_registry,
    de_moivre_envelope,
    refined_bernoulli_comparison,
)

print("=== calibrating the scaled coin/Gaussian gap ===")
scan = calibrate_c0_scan(2000)
for n_max in (10, 100, 1000, 2000):
    sub = scan[:n_max]
    print(f"n <= {n_max:5d}: max scaled gap = {sub.max():.9f} at n = {sub.argmax() + 1}")
print(f"(the scaled gap increases toward sqrt(2/pi)/4 = {math.sqrt(2 / math.pi) / 4:.9f})")
print(f"certified for every n (scan to 1000 + analytic tail): c0 = "
      f"{certified_registry(1000).c0:.17g}")

print()
print("=== the quartic-corrected comparison term ===")
print(f"{'n':>6s} {'plain gap':>12s} {'refined gap':>12s} {'ratio':>8s}")
for n in (32, 128, 512):
    row = binomial_half_pmf(n)
    z = np.arange(n + 1)
    gauss = np.sqrt(2 / (math.pi * n)) * np.exp(-((2 * z - n) ** 2) / (2 * n))
    plain = float(np.abs(row - gauss).max())
    half = int(5 * math.sqrt(n))
    refined = max(
        abs(float(row[zz]) - refined_bernoulli_comparison(n, zz))
        for zz in range(max(0, n // 2 - half), min(n, n // 2 + half) + 1)
    )
    print(f"{n:6d} {plain:12.3e} {refined:12.3e} {plain / refined:8.1f}")

print()
print("=== multiplicative band deep into the moderate-deviation range ===")
n, p, gamma = 1000, 0.3, 0.5
for k in (300, 330, 370, 405):
    est, bound = de_moivre_envelope(n, p, k, gamma)
    exact = float(Fraction(math.comb(n, k) * 3**k * 7 ** (n - k), 10**n))
    inside = est * math.exp(-bound) <= exact <= est * math.exp(bound)
    print(f"k = {k:3d}: estimate {est:.3e}, band exp(+-{bound:.4f}), "
          f"exact {exact:.3e}, inside: {inside}")
