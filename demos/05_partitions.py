#!/usr/bin/env python3
"""Counting partitions into distinct parts through a probabilistic identity.

q_m(n) counts partitions of n into distinct parts >= m.  A sum of tilted
two-point variables turns the count into e^{sigma n} * prod(1 + e^{-sigma j})
* P{Y = n}, read from a long-double 0/1 knapsack over 0..n; the tilt sigma
centers Y at n but the identity holds for every sigma.
"""

from lltkit import count_partitions, count_via_enumeration, count_via_model, solve_sigma

print(f"{'m':>3s} {'n':>3s} {'sigma':>10s} {'model':>7s} {'enum':>7s}")
for m, n in [(1, 6), (1, 10), (3, 10), (1, 20), (2, 24), (5, 30), (30, 30)]:
    inst = count_partitions(m, n)
    sig = "-inf" if inst.sigma == float("-inf") else f"{inst.sigma:10.6f}"
    print(f"{m:3d} {n:3d} {sig:>10s} {inst.q_model:7d} {inst.q_enum:7d}")

print()
print("=== the identity is tilt-free ===")
m, n = 2, 24
sigma = solve_sigma(m, n)
print(f"centering tilt for (m, n) = ({m}, {n}): sigma = {sigma:.6f}")
print(f"count at the centered tilt : {count_via_model(m, n)}")
print(f"count by direct enumeration: {count_via_enumeration(m, n)}")
print("(perturbing sigma moves only the conditioning, never the count; "
      "see tests/test_partition.py)")
