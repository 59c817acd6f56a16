"""Bernoulli part extraction.

A lattice variable X with ``theta_X = theta(f) > 0`` can be written in
distribution as ``X = V + eps*D*L`` where L is a fair Bernoulli coin
independent of the pair ``(V, eps)``, and ``P{eps = 1} = vartheta`` for any
chosen extraction level ``0 < vartheta <= theta_X``.  The construction uses
the canonical weights

    tau_k = (vartheta / theta_X) * min(f(k), f(k+1)),

which satisfy ``tau_{k-1} + tau_k <= 2 f(k)`` and ``sum_k tau_k = vartheta``,
and defines the joint law

    P{(V, eps) = (v_k, 1)} = tau_k
    P{(V, eps) = (v_k, 0)} = f(k) - (tau_{k-1} + tau_k) / 2.

Conditioning on the coin gives the half-lattice variable
``xi = V + (D/2) * eps`` with the same mean as X and variance reduced by
exactly ``D**2 * vartheta / 4``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import LatticeError, PreconditionError
from .lattice import LatticePmf, make_pmf, theta


def _check_level(vartheta: float, theta_x: float, place: str, index: int | None = None) -> None:
    """Require the extraction level of ``place`` (with ``index``, if given) to
    lie in ``(0, theta_X]``, up to a relative 1e-12 above theta_X."""
    if not (0.0 < vartheta <= theta_x * (1.0 + 1e-12)):
        where = place if index is None else f"{place} {index}"
        raise PreconditionError(
            f"extraction level {vartheta} for {where} outside (0, theta_X = {theta_x}]"
        )


@dataclass(frozen=True)
class BernoulliSplit:
    """The joint law of (V, eps) realizing one extraction from ``source``.

    ``tau`` maps k to tau_k (only positive entries stored); ``joint`` maps
    ``(k, e)`` with ``e in {0, 1}`` to ``P{(V, eps) = (v_k, e)}``.
    """

    source: LatticePmf
    vartheta: float
    tau: dict[int, float]
    joint: dict[tuple[int, int], float]

    def margin_v(self, k: int) -> float:
        """``P{V = v_k} = f(k) + (tau_k - tau_{k-1}) / 2``."""
        return self.joint.get((k, 0), 0.0) + self.joint.get((k, 1), 0.0)

    def margin_eps(self) -> float:
        """``P{eps = 1}``; equals the extraction level."""
        return math.fsum(p for (_, e), p in self.joint.items() if e == 1)

    def to_json_dict(self) -> dict:
        return {
            "source": self.source.to_json_dict(),
            "vartheta": self.vartheta,
            "tau": [[k, self.tau[k]] for k in sorted(self.tau)],
            "joint": [[k, e, p] for (k, e), p in sorted(self.joint.items())],
        }


def split(pmf: LatticePmf, vartheta: float | None = None) -> BernoulliSplit:
    """Extract a Bernoulli part at level ``vartheta`` (default: maximal).

    Requires ``0 < vartheta <= theta(pmf)``; a point mass (or any pmf with no
    adjacent masses) has ``theta = 0`` and admits no extraction.
    """
    th_x = theta(pmf)
    if vartheta is None:
        vartheta = th_x
    _check_level(vartheta, th_x, "the pmf")
    vartheta = min(vartheta, th_x)
    f = pmf.probs
    scale = vartheta / th_x
    tau = {
        k: scale * min(p, f[k + 1]) for k, p in f.items() if k + 1 in f and min(p, f[k + 1]) > 0
    }
    joint: dict[tuple[int, int], float] = {}
    for k, p in f.items():
        p0 = p - (tau.get(k - 1, 0.0) + tau.get(k, 0.0)) / 2.0
        if p0 < -1e-15:
            raise LatticeError(f"negative joint mass {p0} at index {k}; tau weights inconsistent")
        if p0 > 0.0:
            joint[(k, 0)] = p0
    for k, t in tau.items():
        joint[(k, 1)] = t
    return BernoulliSplit(source=pmf, vartheta=vartheta, tau=tau, joint=joint)


def reconstruct(sp: BernoulliSplit) -> LatticePmf:
    """Exact law of ``V + eps*D*L`` with L an independent fair coin.

    Recovers the source pmf pointwise: conditional on ``eps = 1`` the mass
    tau_k spreads half onto v_k and half onto v_{k+1}.
    """
    out: dict[int, float] = {}
    for (k, e), p in sp.joint.items():
        if e == 0:
            out[k] = out.get(k, 0.0) + p
        else:
            out[k] = out.get(k, 0.0) + p / 2.0
            out[k + 1] = out.get(k + 1, 0.0) + p / 2.0
    return make_pmf(sp.source.v0, sp.source.D, out.items())


def xi_law(sp: BernoulliSplit) -> LatticePmf:
    """Law of ``xi = V + (D/2)*eps`` on the refined lattice ``L(v0, D/2)``.

    Mean equals the source mean; variance equals the source variance minus
    ``D**2 * vartheta / 4``.
    """
    src = sp.source
    out: dict[int, float] = {}
    for (k, e), p in sp.joint.items():
        kk = 2 * k + e
        out[kk] = out.get(kk, 0.0) + p
    return make_pmf(src.v0, src.D / 2.0, out.items())
