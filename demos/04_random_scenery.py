#!/usr/bin/env python3
"""Random walk in random scenery: exact moment identities and the envelope.

The walk visits strictly increasing integer sites; the scenery attaches an
iid lattice variable to every site.  Small walks are enumerated exactly;
the composed-sum envelope is checked against the exact law.  A walk whose
increments are >= 0 never returns to a site it has left, so the Monte
Carlo oracle samples nothing: it prints the exact annealed mass with its
error bound, from the n-fold x law on a strictly positive walk and from
a Markov fold over the value at the current site on a lazy walk, which
stays put with probability p0.
"""

from lltkit import (
    SceneryModel,
    make_pmf,
    monte_carlo_point_prob,
    scenery_envelope,
    second_moment_check,
    theta_n_scenery,
    y_covariance_factorization,
)

bern = make_pmf(0, 1, [(0, 1), (1, 1)])
inc12 = make_pmf(0, 1, [(1, 1), (2, 1)])

print("=== exact second-moment identity (enumeration of the walk paths) ===")
for profile, name in ((0.5, "constant vartheta = 1/2"),
                      ({r: 0.5 / (1 + 0.3 * r) for r in range(1, 9)}, "decaying profile")):
    model = SceneryModel(bern, inc12, 4, profile)
    mom = second_moment_check(model)
    print(f"{name:26s}: theta_n = {mom.theta_n:.5f}, E S^2 = {mom.es2:.5f}, "
          f"E S'^2 = {mom.es2_prime:.5f}, identity residual = {mom.identity_residual:.2e}")

print()
print("=== covariance factorization of the conditional summands ===")
prof = {r: 0.5 / (1 + 0.3 * r) for r in range(1, 9)}
model = SceneryModel(bern, inc12, 4, prof)
fact = y_covariance_factorization(model, 1, 3, (0.5, 1.0), (0.0, 0.5))
print(f"Cov(1_A(Y_1), 1_B(Y_3))    = {fact.lhs:.8f}")
print(f"beta_A beta_B Cov(th, th)  = {fact.rhs:.8f}   (beta_A = {fact.beta_a}, "
      f"beta_B = {fact.beta_b})")
const = SceneryModel(bern, inc12, 4, 0.5)
fact0 = y_covariance_factorization(const, 1, 3, (0.5, 1.0), (0.0, 0.5))
print(f"constant profile makes the summands independent: lhs = {fact0.lhs:.1e}")

print()
print("=== envelope for the composed sum, n = 64, against its exact value ===")
model = SceneryModel(bern, inc12, 64, 0.5)
kappa = 32.0
rep = scenery_envelope(model, 0.25, kappa)
print(f"theta_n = {theta_n_scenery(model):.0f}; envelope at kappa = {kappa:.0f}: "
      f"[{rep.lower:.5f}, {rep.upper:.5f}], exact {rep.exact:.5f}")
est = monte_carlo_point_prob(model, kappa, samples=1_000_000, seed=42)
print(f"Monte Carlo ({est.samples:,} samples asked, seed {est.seed}): p_hat = {est.p_hat:.5f}, "
      f"stderr = {est.stderr} (every walk has n sites of local time 1; none is drawn)")
print(f"p_hat is the exact value: {est.p_hat == rep.exact}")

print()
print("=== a lazy walk (p0 = 0.3), n = 16: its exact annealed law ===")
lazy = SceneryModel(bern, make_pmf(0, 1, [(0, 3), (1, 7)]), 16, 0.5)
est = monte_carlo_point_prob(lazy, 8.0, samples=20_000, seed=42)
print(f"P{{S_16 = 8}} = {est.p_hat:.10f} +- {est.err_abs:.1e} (err_abs), "
      f"stderr = {est.stderr}: no walk is drawn")
