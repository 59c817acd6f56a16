#!/usr/bin/env python3
"""Counting partitions into distinct parts through a probabilistic identity.

q_m(n) counts partitions of n into distinct parts >= m.  A sum Y of tilted
two-point variables turns the count into e^{sigma n} * prod(1 + e^{-sigma j})
* P{Y = n}; the tilt sigma centers Y at n, but the identity holds for every
sigma.  The count itself is exact, in Python integers, by a recurrence over
the number of parts.
"""

import math

import numpy as np

from lltkit import count_partitions, count_via_enumeration, make_pmf, solve_sigma, sum_law

print(f"{'m':>3s} {'n':>3s} {'sigma':>10s} {'model':>7s} {'enum':>7s}")
for m, n in [(1, 6), (1, 10), (3, 10), (1, 20), (2, 24), (5, 30), (30, 30)]:
    inst = count_partitions(m, n)
    sig = "none" if inst.sigma is None else f"{inst.sigma:10.6f}"  # none at m = n
    print(f"{m:3d} {n:3d} {sig:>10s} {inst.q_model:7d} {inst.q_enum:7d}")

print()
print("=== the identity is tilt-free ===")
m, n = 2, 24
js = np.arange(m, n + 1)
for sigma in (solve_sigma(m, n), solve_sigma(m, n) + 0.05):
    # P{X_j = j} = 1 / (1 + e^{sigma j}); the law of Y by sum_law, in doubles
    law = sum_law([(make_pmf(0.0, 1.0, [(0, 1.0 - p), (int(j), p)]), 1)
                   for j, p in zip(js, 1.0 / (1.0 + np.exp(sigma * js)))])
    log_q = sigma * n + float(np.logaddexp(0.0, -sigma * js).sum()) + math.log(law.mass(n))
    print(f"identity at sigma = {sigma:.6f}: {math.exp(log_q):.9f}")
print(f"count by the recurrence       : {count_via_enumeration(m, n)}")
