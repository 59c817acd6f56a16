#!/usr/bin/env python3
"""Characteristics of lattice pmfs and the Bernoulli part extraction.

Walks through the two smoothness characteristics, the identity tying them
together, and the exact decomposition X = V + eps*D*L realized by the split.
"""

from lltkit import (
    characteristics,
    make_pmf,
    moments,
    reconstruct,
    split,
    xi_law,
)

laws = {
    "fair coin on {0,1}": make_pmf(0, 1, [(0, 1), (1, 1)]),
    "uniform on {0,1,2}": make_pmf(0, 1, [(0, 1), (1, 1), (2, 1)]),
    "skewed on {0,1,3}": make_pmf(0, 1, [(0, 5), (1, 3), (3, 2)]),
    "even support {0,2,4}": make_pmf(0, 1, [(0, 1), (2, 2), (4, 1)]),
}

print("=== characteristics ===")
print(f"{'law':24s} {'theta':>8s} {'delta':>8s} {'2-2*theta':>10s} {'var':>8s} {'span mult':>10s}")
for name, p in laws.items():
    ch = characteristics(p)
    print(
        f"{name:24s} {ch.theta:8.4f} {ch.delta:8.4f} {2 - 2 * ch.theta:10.4f} "
        f"{ch.variance:8.4f} {ch.span_multiple:10d}"
    )

print()
print("=== extraction at the maximal level ===")
p = laws["uniform on {0,1,2}"]
sp = split(p)
print(f"extraction level vartheta = {sp.vartheta:.6f}")
print(f"tau weights: { {k: round(v, 6) for k, v in sorted(sp.tau.items())} }")
print(f"joint law of (V, eps): { {k: round(v, 6) for k, v in sorted(sp.joint.items())} }")

rec = reconstruct(sp)
gap = max(abs(rec.mass(k) - p.mass(k)) for k in p.probs)
print(f"reconstruction V + eps*D*L recovers the law, max pointwise gap = {gap:.2e}")

xi = xi_law(sp)
m0, v0 = moments(p)
m1, v1 = moments(xi)
print()
print("=== the conditional half-step variable xi = V + (D/2) eps ===")
print(f"xi law on span {xi.D}: "
      f"{ {xi.point(k): round(v, 6) for k, v in sorted(xi.probs.items())} }")
print(f"mean preserved: {m0:.6f} -> {m1:.6f}")
print(f"variance drops by D^2*vartheta/4 = {p.D**2 * sp.vartheta / 4:.6f}: "
      f"{v0:.6f} -> {v1:.6f}")
