#!/usr/bin/env python3
"""Smoothness statistics of integer-valued sums.

Computes the adjacent-gap statistic M, the interval discrepancy rho_n, the
two pointwise inequalities they imply, and the effective extraction bound on
M that needs no access to the exact law.
"""

from lltkit import (
    effective_pointwise_bound,
    h_default,
    iid_sum,
    interval_discrepancy,
    make_pmf,
    prepare_sum,
    smoothness_stat,
    smoothness_via_extraction,
)

bern = make_pmf(0, 1, [(0, 1), (1, 1)])

print(f"{'n':>5s} {'M':>8s} {'rho_n':>9s} {'ptwise lhs':>11s} {'bound':>8s} "
      f"{'gauss lhs':>10s} {'bound':>8s}")
for n in (16, 64, 256):
    law = iid_sum(bern, n)
    report = interval_discrepancy(law, a_n=n / 2.0, b_n=n / 4.0)
    check = effective_pointwise_bound(report)
    print(
        f"{n:5d} {report.M:8.4f} {report.rho:9.5f} {check.pointwise_max_lhs:11.5f} "
        f"{check.pointwise_bound:8.4f} {check.gaussian_max_lhs:10.5f} {check.gaussian_bound:8.4f}"
    )

print()
print("=== bounding M without the exact law ===")
n = 256
b_n = n / 4.0
theta_n = n / 2.0
h = h_default(theta_n)
bound = smoothness_via_extraction(prepare_sum([(bern, 0.5, n)]), h, b_n)
exact = smoothness_stat(iid_sum(bern, n), b_n)
t1, t2, t3 = bound.terms
print(f"n = {n}, h = {h:.4f}: extraction bound = {bound.value:.5f} "
      f"(terms {t1:.5f} + {t2:.5f} + {t3:.5f})")
print(f"exact M = {exact:.5f}  ->  bound dominates: {bound.value >= exact}")
print(f"b_n / theta_n = {bound.b_over_theta} (bounded ratio keeps M bounded in n)")
