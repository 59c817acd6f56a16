"""Random walks in random scenery.

The composed sum is ``S_n = sum_{k=1..n} X_{U_k}`` where the scenery values
``X_r`` are i.i.d. lattice variables and the index process ``U_j`` is an
independent walk, here restricted to partial sums of i.i.d. positive integer
increments ``Y_i`` so that no site is ever visited twice
(``P{U_h = U_k} = 0`` for ``h != k``).  Each site r carries its own
extraction level ``vartheta_r`` (a constant or a per-site profile).

Under no-revisits the second moments obey

    E S_n^2 = E S'_n^2 + D^2 Theta_n / 4,   Theta_n = sum_j E vartheta_{U_j},

and in general the same identity holds with the extra correction
``(D^2/4) * sum_{h != k} c_{h,k}`` where
``c_{h,k} = sum_r vartheta_r P{U_h = r, U_k = r}``
(nonzero only for index processes that can revisit, which this module admits
purely for validating the formula).

The conditional summands ``Y_k = V_{U_k} + (D/2) eps_{U_k}`` satisfy the
covariance factorization

    Cov(1_A(Y_h), 1_B(Y_k)) = beta_A * beta_B * Cov(vartheta_{U_h}, vartheta_{U_k})

with ``beta`` a second-difference functional of the indicator; in particular
a constant profile makes the Y_k i.i.d., which is what lets the plain
two-sided envelope apply verbatim to the composed sum.

The composed sum can equivalently be written through site occupation counts
(``S_n = sum_r X_r * #{k : U_k = r}``, the walk's local time at r); nothing
here uses that form computationally, but it explains why revisits are the
only obstruction: with occupation counts at most one everywhere, the picked
up values are plain i.i.d. draws.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

import numpy as np

from .bounds import (
    BoundReport,
    ConstantsRegistry,
    DEFAULT_CONSTANTS,
    PlugIns,
    exact_plug_ins,
    prepare_sum,
    sandwich_envelope,
)
from .convolve import SumLaw, sum_law
from .errors import LatticeError, PreconditionError
from .extraction import _check_level, split
from .lattice import LatticePmf, kappa_index, pmf_from_json, theta

#: cap on the number of steps for full joint enumeration
ENUMERATION_CAP = 5

#: rough cap on enumerated atoms before rejecting an instance as too large
_ENUM_BUDGET = 5_000_000


@dataclass(frozen=True)
class SceneryModel:
    """Laws of the i.i.d. scenery and of the index-walk increments.

    ``increment_law`` must live on the integer lattice L(0, 1); its support
    must be strictly positive unless ``allow_revisits`` is set (test-only
    escape hatch for exercising the revisit correction c_{h,k}).
    ``vartheta_profile`` is either one constant level or a map r -> level.
    """

    x_law: LatticePmf
    increment_law: LatticePmf
    n: int
    vartheta_profile: float | Mapping[int, float]
    allow_revisits: bool = False

    def __post_init__(self) -> None:
        inc = self.increment_law
        if abs(inc.D - 1.0) > 1e-12 or abs(inc.v0) > 1e-12:
            raise LatticeError("increment law must live on the integer lattice L(0, 1)")
        if not self.allow_revisits and min(inc.support) < 1:
            raise LatticeError(
                "increments must be strictly positive integers (set allow_revisits "
                "to test revisit corrections)"
            )
        if self.n < 0:
            raise LatticeError(f"need n >= 0, got {self.n}")
        if self.constant_profile:
            _check_level(float(self.vartheta_profile), theta(self.x_law), "the constant profile")

    @property
    def constant_profile(self) -> bool:
        return isinstance(self.vartheta_profile, (int, float))

    def vartheta_at(self, r: int) -> float:
        """Extraction level at site r; validated against theta(x_law)."""
        if self.constant_profile:
            return float(self.vartheta_profile)
        try:
            v = float(self.vartheta_profile[r])
        except KeyError:
            raise LatticeError(f"vartheta profile does not cover reachable site {r}") from None
        _check_level(v, theta(self.x_law), "site", r)
        return v

    def u_law(self, j: int) -> SumLaw:
        """Exact law of ``U_j``, the j-fold increment convolution (j >= 1)."""
        return sum_law([(self.increment_law, j)])

    def mean_level(self, law: SumLaw) -> float:
        """``E vartheta_U`` for a site U with the given law."""
        sites, w = law.atoms()
        return math.fsum(self.vartheta_at(r) * p for r, p in zip(sites.tolist(), w.tolist()))

    def to_json_dict(self) -> dict:
        prof = self.vartheta_profile
        return {
            "x_law": self.x_law.to_json_dict(),
            "increments": self.increment_law.to_json_dict(),
            "n": self.n,
            "vartheta": prof
            if isinstance(prof, (int, float))
            else [[int(r), float(v)] for r, v in sorted(prof.items())],
        }


def scenery_from_json(obj: Mapping) -> SceneryModel:
    """Parse the model JSON schema mirroring :meth:`SceneryModel.to_json_dict`."""
    try:
        prof = obj["vartheta"]
        profile = float(prof) if isinstance(prof, (int, float)) else {int(r): float(v) for r, v in prof}
        return SceneryModel(
            x_law=pmf_from_json(obj["x_law"]),
            increment_law=pmf_from_json(obj["increments"]),
            n=int(obj["n"]),
            vartheta_profile=profile,
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, (LatticeError, PreconditionError)):
            raise
        raise LatticeError(f"malformed scenery model: {exc}") from exc


def theta_n_scenery(model: SceneryModel) -> float:
    """``Theta_n = sum_{j=1..n} E vartheta_{U_j}``; equals ``n * vartheta``
    exactly for a constant profile."""
    if model.n == 0:
        return 0.0
    if model.constant_profile:
        return model.n * float(model.vartheta_profile)
    total = 0.0
    for j in range(1, model.n + 1):
        total += model.mean_level(model.u_law(j))
    return total


def c_hk(model: SceneryModel, h: int, k: int) -> float:
    """Revisit correction ``c_{h,k} = sum_r vartheta_r P{U_h = r, U_k = r}``;
    exactly zero under strictly positive increments.

    The value is what the pair (h, k) adds to ``E S_n^2 - E S'_n^2`` (scaled
    by ``D^2/4``) when the walk can revisit a site: conditioning on
    ``U_h = U_k = r`` the two picked-up values coincide, and
    ``E X_r^2 - E xi_r^2 = D^2 vartheta_r / 4``.  For i.i.d. increments
    ``P{U_h = r, U_k = r} = P{U_min = r} * sigma_m`` with ``sigma_m`` the
    m-step return probability, m = |k - h|, so
    ``c_{h,k} = sigma_m * E vartheta_{U_min}``.
    """
    if h == k:
        raise LatticeError("c_{h,k} requires h != k")
    if not (1 <= h <= model.n and 1 <= k <= model.n):
        raise LatticeError(f"indices must lie in 1..{model.n}")
    if min(model.increment_law.support) >= 1:
        return 0.0
    m = abs(k - h)
    sigma_m = model.u_law(m).mass(0)
    if sigma_m == 0.0:
        return 0.0
    return sigma_m * model.mean_level(model.u_law(min(h, k)))


# ---------------------------------------------------------------------------
# exact enumeration


def _iter_paths(model: SceneryModel) -> Iterator[tuple[tuple[int, ...], float]]:
    """All increment paths of length n with their probabilities."""
    steps = sorted(model.increment_law.probs.items())

    def rec(depth: int, pos: int, prob: float, sites: list[int]) -> Iterator:
        if depth == model.n:
            yield tuple(sites), prob
            return
        for s, p in steps:
            sites.append(pos + s)
            yield from rec(depth + 1, pos + s, prob * p, sites)
            sites.pop()

    yield from rec(0, 0, 1.0, [])


@dataclass(frozen=True)
class _SiteAtom:
    """One (V, eps, L) outcome at a site: contributions to X and to xi."""

    x_val: float
    xi_val: float
    eps: int
    prob: float


class _AtomCache:
    """Per-level outcome atoms; sites sharing a vartheta level share atoms."""

    def __init__(self, model: SceneryModel) -> None:
        self.model = model
        self._cache: dict[float, tuple[_SiteAtom, ...]] = {}

    def at(self, r: int) -> tuple[_SiteAtom, ...]:
        v = self.model.vartheta_at(r)
        if v not in self._cache:
            x = self.model.x_law
            sp = split(x, v)
            atoms = []
            for (k, e), p in sorted(sp.joint.items()):
                base = x.v0 + x.D * k
                for l in (0, 1):
                    atoms.append(
                        _SiteAtom(
                            x_val=base + e * x.D * l,
                            xi_val=base + e * x.D / 2.0,
                            eps=e,
                            prob=p * 0.5,
                        )
                    )
            self._cache[v] = tuple(atoms)
        return self._cache[v]


@dataclass
class SceneryMoments:
    """First and second moments of S_n and S'_n from full joint enumeration."""

    theta_n: float
    c_matrix: dict[tuple[int, int], float]
    es: float
    es_prime: float
    es2: float
    es2_prime: float
    d: float

    @property
    def identity_residual(self) -> float:
        """``E S^2 - (E S'^2 + D^2 Theta/4 + (D^2/4) sum c_{h,k})``."""
        c_sum = math.fsum(self.c_matrix.values())
        return self.es2 - (
            self.es2_prime + self.d**2 * self.theta_n / 4.0 + self.d**2 / 4.0 * c_sum
        )

    def to_json_dict(self) -> dict:
        return {
            "theta_n": self.theta_n,
            "es": self.es,
            "es_prime": self.es_prime,
            "es2": self.es2,
            "es2_prime": self.es2_prime,
            "c_sum": math.fsum(self.c_matrix.values()),
            "identity_residual": self.identity_residual,
        }


def second_moment_check(model: SceneryModel) -> SceneryMoments:
    """Compute E S_n, E S_n^2, E S'_n, E S'_n^2 by exhaustive enumeration of
    the joint space (increment path x per-site (V, eps, L) outcomes).

    Rejects instances whose enumeration would exceed the budget; callers fall
    back to Monte Carlo for those.
    """
    if model.n > ENUMERATION_CAP:
        raise LatticeError(
            f"instance too large for exact enumeration (n = {model.n} > {ENUMERATION_CAP})"
        )
    atoms = _AtomCache(model)
    n_steps = len(model.increment_law.probs)
    per_site = 2 * max(len(split(model.x_law, theta(model.x_law)).joint), 1)
    if n_steps**model.n * per_site**model.n > _ENUM_BUDGET:
        raise LatticeError("instance too large for exact enumeration (outcome budget)")
    es = es2 = esp = esp2 = 0.0
    for sites, pp in _iter_paths(model):
        mult = Counter(sites)
        distinct = sorted(mult)
        for combo in itertools.product(*[atoms.at(r) for r in distinct]):
            w = pp
            s = 0.0
            s_prime = 0.0
            for r, a in zip(distinct, combo):
                w *= a.prob
                s += mult[r] * a.x_val
                s_prime += mult[r] * a.xi_val
            es += w * s
            es2 += w * s * s
            esp += w * s_prime
            esp2 += w * s_prime * s_prime
    c_matrix = {
        (h, k): c_hk(model, h, k)
        for h in range(1, model.n + 1)
        for k in range(1, model.n + 1)
        if h != k
    }
    return SceneryMoments(
        theta_n=theta_n_scenery(model),
        c_matrix=c_matrix,
        es=es,
        es_prime=esp,
        es2=es2,
        es2_prime=esp2,
        d=model.x_law.D,
    )


# ---------------------------------------------------------------------------
# covariance factorization of the conditional summands


def beta_functional(x_law: LatticePmf, phi: Callable[[float], float]) -> float:
    """``beta_phi = -(1/2) sum_k (f(k) ^ f(k+1)) / theta_X * Delta^2 phi(v_k)``
    with ``Delta phi(t) = phi(t + D/2) - phi(t)``."""
    tx = theta(x_law)
    if tx <= 0:
        raise PreconditionError("beta functional needs theta(x_law) > 0")
    f = x_law.probs
    total = 0.0
    for k, p in f.items():
        if k + 1 not in f:
            continue
        v = x_law.point(k)
        d2 = phi(v + x_law.D) - 2.0 * phi(v + x_law.D / 2.0) + phi(v)
        total += min(p, f[k + 1]) / tx * d2
    return -0.5 * total


def indicator(interval: tuple[float, float]) -> Callable[[float], float]:
    """Indicator of the closed interval [a, b]."""
    a, b = interval
    return lambda t: 1.0 if a <= t <= b else 0.0


@dataclass(frozen=True)
class CovarianceFactorization:
    """Both sides of the indicator-covariance identity plus the ingredients."""

    lhs: float
    rhs: float
    beta_a: float
    beta_b: float
    cov_vartheta: float


def y_covariance_factorization(
    model: SceneryModel,
    h: int,
    k: int,
    interval_a: tuple[float, float],
    interval_b: tuple[float, float],
) -> CovarianceFactorization:
    """Exact check of
    ``Cov(1_A(Y_h), 1_B(Y_k)) = beta_A beta_B Cov(vartheta_{U_h}, vartheta_{U_k})``
    on an enumerable instance with strictly positive increments.

    ``|beta|`` is at most 1 for any interval.
    """
    if h == k:
        raise LatticeError("need h != k")
    if not (1 <= h <= model.n and 1 <= k <= model.n):
        raise LatticeError(f"indices must lie in 1..{model.n}")
    if min(model.increment_law.support) < 1:
        raise PreconditionError("covariance factorization requires strictly positive increments")
    if len(model.increment_law.probs) ** model.n > _ENUM_BUDGET:
        raise LatticeError("instance too large for exact enumeration")
    ind_a = indicator(interval_a)
    ind_b = indicator(interval_b)

    atoms = _AtomCache(model)
    hit_cache: dict[tuple[float, int], float] = {}

    def hit_prob(r: int, which: int) -> float:
        v = model.vartheta_at(r)
        key = (v, which)
        if key not in hit_cache:
            ind = ind_a if which == 0 else ind_b
            # xi outcomes repeat each (V, eps) atom for both coin values
            hit_cache[key] = math.fsum(a.prob * ind(a.xi_val) for a in atoms.at(r))
        return hit_cache[key]

    e_ab = e_a = e_b = 0.0
    e_tt = e_th = e_tk = 0.0
    for sites, pp in _iter_paths(model):
        rh, rk = sites[h - 1], sites[k - 1]
        pa, pb = hit_prob(rh, 0), hit_prob(rk, 1)
        e_ab += pp * pa * pb
        e_a += pp * pa
        e_b += pp * pb
        th, tk = model.vartheta_at(rh), model.vartheta_at(rk)
        e_tt += pp * th * tk
        e_th += pp * th
        e_tk += pp * tk
    lhs = e_ab - e_a * e_b
    cov_t = e_tt - e_th * e_tk
    beta_a = beta_functional(model.x_law, ind_a)
    beta_b = beta_functional(model.x_law, ind_b)
    return CovarianceFactorization(
        lhs=lhs, rhs=beta_a * beta_b * cov_t, beta_a=beta_a, beta_b=beta_b, cov_vartheta=cov_t
    )


# ---------------------------------------------------------------------------
# envelope and Monte Carlo oracle


def scenery_envelope(
    model: SceneryModel,
    h: float,
    kappa: float,
    plug_ins: PlugIns | None = None,
    constants: ConstantsRegistry = DEFAULT_CONSTANTS,
    exact: float | None = None,
) -> BoundReport:
    """Two-sided envelope for ``P{S_n = kappa}`` of the composed sum.

    Requires strictly positive increments and a constant vartheta profile:
    the sites visited are then n distinct positions, the scenery values
    picked up are n i.i.d. copies of the x law, and the conditional summands
    Y_k are i.i.d., so the plain envelope applies with ``Theta_n = n *
    vartheta`` and the moments of the i.i.d. sum.  With ``plug_ins=None`` the
    exact oracle plug-ins are computed internally.
    """
    if min(model.increment_law.support) < 1:
        raise PreconditionError("scenery envelope requires strictly positive increments")
    if not model.constant_profile:
        raise PreconditionError(
            "scenery envelope requires a constant vartheta profile (the conditional "
            "summands are not known to be independent otherwise)"
        )
    spec = prepare_sum([(model.x_law, float(model.vartheta_profile), model.n)])
    if plug_ins is None:
        plug_ins = exact_plug_ins(spec, h)
    return sandwich_envelope(spec, h, kappa, plug_ins, constants, exact=exact)


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Seeded frequency estimate of a point probability."""

    p_hat: float
    stderr: float
    samples: int
    seed: int

    def interval(self, z: float = 3.0) -> tuple[float, float]:
        return self.p_hat - z * self.stderr, self.p_hat + z * self.stderr


def _inv_cdf_table(pmf: LatticePmf) -> tuple[np.ndarray, np.ndarray]:
    ks = np.array(pmf.support, dtype=np.int64)
    w = np.array([pmf.probs[int(k)] for k in ks])
    cum = np.cumsum(w)
    cum[-1] = 1.0
    return ks, cum


def _sample_indices(rng: np.random.Generator, ks: np.ndarray, cum: np.ndarray, shape) -> np.ndarray:
    """Vectorized draw of support indices; two-point laws take a fast path."""
    if len(ks) == 1:
        return np.full(shape, ks[0])
    if len(ks) == 2:
        dt = np.int16 if np.abs(ks).max() < 2**14 else np.int64
        if cum[0] == 0.5:
            hit = rng.integers(0, 2, size=shape, dtype=np.int8)
        else:
            # float32 uniforms quantize the split point by < 6e-8, far below
            # any Monte Carlo standard error used here
            hit = (rng.random(shape, dtype=np.float32) >= np.float32(cum[0])).view(np.int8)
        out = hit.astype(dt)
        step = int(ks[1] - ks[0])
        base = int(ks[0])
        if step != 1:
            np.multiply(out, dt(step), out=out)
        if base != 0:
            np.add(out, dt(base), out=out)
        return out
    return ks[np.searchsorted(cum, rng.random(shape))]


def monte_carlo_point_prob(
    model: SceneryModel,
    kappa: float,
    samples: int = 10_000_000,
    seed: int = 1,
) -> MonteCarloEstimate:
    """Simulate the composed sum honestly (fresh scenery and path per sample)
    and estimate ``P{S_n = kappa}`` with its binomial standard error.

    Randomness comes from ``numpy.random.default_rng(seed)`` (PCG64), so runs
    are reproducible given (samples, seed).  Sampling is vectorized by
    inverse-CDF lookup; sums are carried in integer index space so the hit
    test is exact.
    """
    if min(model.increment_law.support) < 1:
        raise PreconditionError("Monte Carlo oracle requires strictly positive increments")
    if samples < 1 or seed < 0:
        raise LatticeError(f"need samples >= 1 and seed >= 0, got {samples} and {seed}")
    x = model.x_law
    kappa_idx = kappa_index(kappa, model.n * x.v0, x.D)
    x_ks, x_cum = _inv_cdf_table(x)
    i_ks, i_cum = _inv_cdf_table(model.increment_law)
    reach = model.n * int(i_ks.max())
    chunk = max(10_000, min(1_000_000, int(2e7 / max(reach, 1))))
    rng = np.random.default_rng(seed)
    hits = 0
    done = 0
    while done < samples:
        c = min(chunk, samples - done)
        inc = _sample_indices(rng, i_ks, i_cum, (c, model.n))
        sites = np.cumsum(inc, axis=1, dtype=np.int64) - 1  # 0-based site positions
        scen = _sample_indices(rng, x_ks, x_cum, (c, reach))
        vals = np.take_along_axis(scen, sites, axis=1)
        hits += int((vals.sum(axis=1, dtype=np.int64) == kappa_idx).sum())
        del inc, sites, scen, vals
        done += c
    p_hat = hits / samples
    stderr = math.sqrt(max(p_hat * (1.0 - p_hat), 1e-300) / samples)
    return MonteCarloEstimate(p_hat=p_hat, stderr=stderr, samples=samples, seed=seed)
