#!/usr/bin/env python3
"""Two-sided envelopes for point probabilities of lattice sums.

Shows the free-parameter sandwich against the exact convolution for an iid
fair-coin sum and for a non-identical mix, then the central symmetric
envelopes at n = 1000.
"""

import math

from lltkit import (
    bounded_plug_ins,
    central_envelope,
    exact_plug_ins,
    h_default,
    make_pmf,
    prepare_sum,
    psi_envelope,
    sandwich_envelope,
    theta,
)

bern = make_pmf(0, 1, [(0, 1), (1, 1)])
uni3 = make_pmf(0, 1, [(0, 1), (1, 1), (2, 1)])

print("=== sandwich for the fair-coin sum, n = 64, h = 0.25 ===")
n, h = 64, 0.25
spec = prepare_sum([(bern, 0.5, n)])
plug = exact_plug_ins(spec, h)  # rho_n taken at h; the sandwich reads plug.h
print(f"exact plug-ins: H_n = {plug.h_n:.5f}, rho_n = {plug.rho_n:.5f}")
print(f"{'kappa':>6s} {'lower':>10s} {'exact':>10s} {'upper':>10s}  inside")
for k in range(24, 41, 2):
    rep = sandwich_envelope(spec, float(k), plug, exact=True)  # exact value from spec.law
    print(f"{k:6d} {rep.lower:10.5f} {rep.exact:10.5f} {rep.upper:10.5f}  {rep.sandwich_ok}")

print()
print("=== non-identical mix (coin / uniform3 alternating), n = 60 ===")
mix = [bern if j % 2 == 0 else uni3 for j in range(60)]
mix_spec = prepare_sum([(p, theta(p), 1) for p in mix])
plug = exact_plug_ins(mix_spec, h)
center = round(mix_spec.law.mean)
for k in (center - 8, center, center + 8):
    rep = sandwich_envelope(mix_spec, float(k), plug, exact=True)
    print(f"kappa = {k:3d}: {rep.lower:9.5f} <= {rep.exact:9.5f} <= {rep.upper:9.5f}")

print()
print("=== central envelopes at n = 1000 (coin), around the mean ===")
n = 1000
spec = prepare_sum([(bern, 0.5, n)])
theta_n = spec.theta_n
print(f"theta_n = {theta_n:.0f}, default deviation h_n = {h_default(theta_n):.5f}")
plug = exact_plug_ins(spec)
rep = central_envelope(spec, 500.0, plug, exact=True)
print(f"symmetric envelope:  |P - gaussian| = {abs(rep.exact - rep.gaussian):.3e} "
      f"<= half-width {rep.params['half_width']:.3e}")
rep3 = psi_envelope(spec, 500.0, bounded_plug_ins(spec), exact=True)
print(f"psi-moment version:  L_n = {rep3.params['l_n']:.5f} (= 4/sqrt(n)), "
      f"half-width {rep3.params['half_width']:.3e}")
