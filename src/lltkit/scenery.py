"""Random walks in random scenery.

The composed sum is ``S_n = sum_{k=1..n} X_{U_k}`` where the scenery values
``X_r`` are i.i.d. lattice variables and the index process ``U_j`` is an
independent walk, the partial sums of i.i.d. integer increments ``Y_i``.
Each site r carries its own extraction level ``vartheta_r`` (a constant or a
per-site profile).  Strictly positive increments never visit a site twice
(``P{U_h = U_k} = 0`` for ``h != k``); each oracle below states whether it
needs that.

Under no-revisits the second moments obey

    E S_n^2 = E S'_n^2 + D^2 Theta_n / 4,   Theta_n = sum_j E vartheta_{U_j},

and in general the same identity holds with the extra correction
``(D^2/4) * sum_{h != k} c_{h,k}`` where
``c_{h,k} = sum_r vartheta_r P{U_h = r, U_k = r}``
(nonzero only for walks that can revisit, such as lazy or +-1 walks).

The conditional summands ``Y_k = V_{U_k} + (D/2) eps_{U_k}`` satisfy the
covariance factorization

    Cov(1_A(Y_h), 1_B(Y_k)) = beta_A * beta_B * Cov(vartheta_{U_h}, vartheta_{U_k})

with ``beta`` a second-difference functional of the indicator; in particular
a constant profile makes the Y_k i.i.d., which is what lets the plain
two-sided envelope apply verbatim to the composed sum.

Through the walk's local times ``l_r = #{k : U_k = r}``,
``S_n = sum_r l_r X_r``: revisits are the only obstruction, since with every
l_r at most one the picked-up values are plain i.i.d. draws.  Given the path,
the values at distinct sites are independent, so the exact oracles enumerate
increment paths only: ``E[S_n | path] = sum_r l_r mu_r`` and
``E[S_n^2 | path] = sum_r l_r^2 sigma_r^2 + (sum_r l_r mu_r)^2``, with
``mu_r``, ``sigma_r^2`` the mean and variance of X over the (V, eps, L)
outcomes at r's level (likewise for S'_n with xi).  The Monte Carlo oracle
samples one scenery draw per visited site; it also admits lazy walks
(increments >= 0 with ``P{Y = 0} > 0``), whose local times are the lengths of
their runs of stays.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

import numpy as np

from .bounds import (
    BoundReport,
    ConstantsRegistry,
    DEFAULT_CONSTANTS,
    exact_plug_ins,
    prepare_sum,
    sandwich_envelope,
)
from .convolve import SumLaw, sum_law
from .errors import LatticeError, PreconditionError
from .extraction import _check_level, split
from .lattice import LatticePmf, _integral, _moments, kappa_index, pmf_from_json, theta

#: cap on the units of work of an exact enumeration (see :func:`_check_budget`)
_ENUM_BUDGET = 5_000_000


@dataclass(frozen=True)
class SceneryModel:
    """Laws of the i.i.d. scenery and of the index-walk increments.

    ``increment_law`` may be any law on the integer lattice L(0, 1): lazy
    and +-1 walks are models too.  The oracles that need strictly positive
    (or nonnegative) increments check that themselves.
    ``vartheta_profile`` is either one constant level or a map r -> level.
    """

    x_law: LatticePmf
    increment_law: LatticePmf
    n: int
    vartheta_profile: float | Mapping[int, float]

    def __post_init__(self) -> None:
        inc = self.increment_law
        if abs(inc.D - 1.0) > 1e-12 or abs(inc.v0) > 1e-12:
            raise LatticeError("increment law must live on the integer lattice L(0, 1)")
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
        profile = (float(prof) if isinstance(prof, (int, float))
                   else {_integral(r, "profile site"): float(v) for r, v in prof})
        return SceneryModel(
            x_law=pmf_from_json(obj["x_law"]),
            increment_law=pmf_from_json(obj["increments"]),
            n=_integral(obj["n"], "n"),
            vartheta_profile=profile,
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, (LatticeError, PreconditionError)):
            raise
        raise LatticeError(f"malformed scenery model: {exc}") from exc


def _walk_table(model: SceneryModel, upto: int) -> tuple[float, list[tuple[float, float]]]:
    """Theta_n, and the walk-law table ``(E vartheta_{U_j}, P{U_j = 0})`` for
    j = 1..upto, one :func:`sum_law` call each; a profile map needs the
    table up to n for Theta_n."""
    laws = (model.u_law(j) for j in range(1, upto + 1))
    table = [(model.mean_level(law), law.mass(0)) for law in laws]
    if model.constant_profile:
        return model.n * float(model.vartheta_profile), table
    theta_n = 0.0
    for level, _ in table:
        theta_n += level
    return theta_n, table


def theta_n_scenery(model: SceneryModel) -> float:
    """``Theta_n = sum_{j=1..n} E vartheta_{U_j}``; equals ``n * vartheta``
    exactly for a constant profile."""
    return _walk_table(model, 0 if model.constant_profile else model.n)[0]


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


def _check_budget(model: SceneryModel, per_path: int, extra: int = 0) -> None:
    """Refuse, as a ``LatticeError``, an enumeration of the ``#steps^n``
    increment paths that would do more than ``_ENUM_BUDGET`` units of work:
    ``per_path`` units per path plus ``extra``."""
    steps, n = len(model.increment_law.probs), model.n
    # a coarse test in logs first, so that a large n costs nothing to refuse
    too_large = n * math.log(steps) > math.log(_ENUM_BUDGET) + 1
    if too_large or steps**n * per_path + extra > _ENUM_BUDGET:
        raise LatticeError(f"exact enumeration of {steps}^{n} increment paths exceeds the "
                           f"budget of {_ENUM_BUDGET} units of work")


def _site_table(model: SceneryModel, js: set[int]) -> tuple[dict[int, float], dict]:
    """The level of every site that U_j can reach for j in ``js``, each
    checked for coverage and range by :meth:`SceneryModel.vartheta_at`, and,
    per distinct level, its (V, eps, L) outcomes as three lists: the values
    of X, those of xi, and their probabilities."""
    sites, reach = set(), {0}
    for j in range(1, max(js, default=0) + 1):
        reach = {r + s for r in reach for s in model.increment_law.probs}
        if j in js:
            sites |= reach
    levels = {r: model.vartheta_at(r) for r in sorted(sites)}
    x = model.x_law
    outcomes = {}
    for v in set(levels.values()):
        outcomes[v] = x_vals, xi_vals, probs = [], [], []
        for (k, e), p in sorted(split(x, v).joint.items()):
            base = x.v0 + x.D * k
            for coin in (0, 1):
                x_vals.append(base + e * x.D * coin)
                xi_vals.append(base + e * x.D / 2.0)
                probs.append(p * 0.5)
    return levels, outcomes


def _iter_paths(model: SceneryModel) -> Iterator[tuple[tuple[int, ...], float]]:
    """All increment paths of length n, in lexicographic order of the steps:
    the sites ``(U_1, ..., U_n)`` and the product of the step probabilities,
    taken left to right.  Prefix sums and products are kept per depth, so a
    path costs what its changed suffix costs, and no recursion bounds n."""
    steps = sorted(model.increment_law.probs.items())
    n, last = model.n, len(steps) - 1
    choice, pos, prob = [0] * n, [0] * (n + 1), [1.0] * (n + 1)  # index 0 is the start
    i = 0  # the first depth whose prefix is stale
    while i >= 0:
        for j in range(i, n):
            s, p = steps[choice[j]]
            pos[j + 1], prob[j + 1] = pos[j] + s, prob[j] * p
        yield tuple(pos[1:]), prob[n]
        i = n - 1
        while i >= 0 and choice[i] == last:
            choice[i], i = 0, i - 1
        if i >= 0:
            choice[i] += 1


@dataclass
class SceneryMoments:
    """First and second moments of S_n and S'_n, exact over the increment
    paths, with ``theta_n`` and the revisit correction
    ``c_sum = sum_{h != k} c_{h,k}`` of the identity."""

    theta_n: float
    c_sum: float
    es: float
    es_prime: float
    es2: float
    es2_prime: float
    d: float

    @property
    def identity_residual(self) -> float:
        """``E S^2 - (E S'^2 + D^2 Theta/4 + (D^2/4) sum c_{h,k})``."""
        return self.es2 - (
            self.es2_prime + self.d**2 * self.theta_n / 4.0 + self.d**2 / 4.0 * self.c_sum
        )

    def to_json_dict(self) -> dict:
        return {
            "theta_n": self.theta_n,
            "es": self.es,
            "es_prime": self.es_prime,
            "es2": self.es2,
            "es2_prime": self.es2_prime,
            "c_sum": self.c_sum,
            "identity_residual": self.identity_residual,
        }


def second_moment_check(model: SceneryModel) -> SceneryMoments:
    """E S_n, E S_n^2, E S'_n and E S'_n^2, exact over the increment paths
    with the conditional moments given each path (see the module docstring);
    Theta_n and ``c_sum`` come from the laws of U_1..U_n, at most n
    :func:`sum_law` calls.  Any walk is admitted; revisits enter through
    ``c_{h,k}``.

    Refuses in logs, before anything is built and whatever the levels, an
    instance of more than ``_ENUM_BUDGET`` units of work: ``#steps^n * n``
    (path, step) pairs plus the ``n (n - 1)`` pairs of ``c_sum``.  The level
    of every reachable site is checked before the first path.
    """
    n = model.n
    _check_budget(model, n, n * (n - 1))
    levels, outcomes = _site_table(model, set(range(1, n + 1)))
    revisits = min(model.increment_law.support) < 1
    theta_n, table = _walk_table(model, n if revisits or not model.constant_profile else 0)
    c_sum = 0.0
    if revisits:  # the products of c_hk, pair by pair
        pairs = ((h, k) for h in range(1, n + 1) for k in range(1, n + 1) if h != k)
        c_sum = math.fsum(table[abs(k - h) - 1][1] * table[min(h, k) - 1][0] for h, k in pairs)
    # (mean, variance) of X and of xi at each level, then at each site
    moments = {v: (_moments(xs, ps), _moments(xis, ps)) for v, (xs, xis, ps) in outcomes.items()}
    site = {r: moments[v] for r, v in levels.items()}
    es = es2 = esp = esp2 = 0.0
    for sites, pp in _iter_paths(model):
        m = mp = v = vp = 0.0
        for r, l in Counter(sites).items():
            (mu, var), (mu_p, var_p) = site[r]
            m += l * mu
            mp += l * mu_p
            v += l * l * var
            vp += l * l * var_p
        es += pp * m
        es2 += pp * (v + m * m)
        esp += pp * mp
        esp2 += pp * (vp + mp * mp)
    return SceneryMoments(theta_n=theta_n, c_sum=c_sum, es=es, es_prime=esp,
                          es2=es2, es2_prime=esp2, d=model.x_law.D)


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
    on an enumerable instance with strictly positive increments: its
    ``#steps^n`` paths are within ``_ENUM_BUDGET``, and the levels at the
    sites of ``U_h`` and ``U_k`` are checked before the first path.

    ``|beta|`` is at most 1 for any interval.
    """
    if h == k:
        raise LatticeError("need h != k")
    if not (1 <= h <= model.n and 1 <= k <= model.n):
        raise LatticeError(f"indices must lie in 1..{model.n}")
    if min(model.increment_law.support) < 1:
        raise PreconditionError("covariance factorization requires strictly positive increments")
    _check_budget(model, 1)
    levels, outcomes = _site_table(model, {h, k})
    ind_a = indicator(interval_a)
    ind_b = indicator(interval_b)
    # P{xi in A} and P{xi in B} at each level; xi repeats each (V, eps) atom
    # for both coin values
    hit_a, hit_b = ({v: math.fsum(p * ind(xi) for xi, p in zip(xis, ps))
                     for v, (_, xis, ps) in outcomes.items()} for ind in (ind_a, ind_b))

    e_ab = e_a = e_b = 0.0
    e_tt = e_th = e_tk = 0.0
    for sites, pp in _iter_paths(model):
        th, tk = levels[sites[h - 1]], levels[sites[k - 1]]
        pa, pb = hit_a[th], hit_b[tk]
        e_ab += pp * pa * pb
        e_a += pp * pa
        e_b += pp * pb
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
    constants: ConstantsRegistry = DEFAULT_CONSTANTS,
) -> BoundReport:
    """Two-sided envelope for ``P{S_n = kappa}`` of the composed sum, with
    its exact value.

    Requires strictly positive increments and a constant vartheta profile,
    and refuses any other model with :class:`PreconditionError` before any
    work: the sites visited are then n distinct positions, the scenery values
    picked up are n i.i.d. copies of the x law, and the conditional summands
    Y_k are i.i.d., so the plain envelope applies with ``Theta_n = n *
    vartheta``, the moments of the i.i.d. sum and exact oracle plug-ins.  The
    n-fold x law, ``spec.law``, is then the exact law of S_n: the report's
    ``exact`` is its mass at kappa and ``exact_err`` its ``err_abs``.
    """
    if min(model.increment_law.support) < 1:
        raise PreconditionError("scenery envelope requires strictly positive increments")
    if not model.constant_profile:
        raise PreconditionError(
            "scenery envelope requires a constant vartheta profile (the conditional "
            "summands are not known to be independent otherwise)"
        )
    spec = prepare_sum([(model.x_law, float(model.vartheta_profile), model.n)])
    return sandwich_envelope(spec, kappa, exact_plug_ins(spec, h), constants, exact=True)


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


#: draws per Monte Carlo chunk; a chunk holds this many small ints
_CHUNK_DRAWS = 1_000_000


def _chunk_rows(n: int) -> int:
    """Samples per chunk for an n-step walk."""
    return max(1, _CHUNK_DRAWS // max(n, 1))


def _coins(rng: np.random.Generator, p: float, shape) -> np.ndarray:
    """0/1 flags (uint8), each 1 with probability p; fair coins are read from
    packed random bits."""
    if p == 0.5:
        size = math.prod(shape)
        bits = np.unpackbits(np.frombuffer(rng.bytes(-(-size // 8)), dtype=np.uint8), count=size)
        return bits.reshape(shape)
    # float32 uniforms (here and in _site_draws) quantize p by < 6e-8, far
    # below any Monte Carlo standard error used here
    return (rng.random(shape, dtype=np.float32) < np.float32(p)).view(np.uint8)


def _site_draws(rng: np.random.Generator, ks: np.ndarray, cum: np.ndarray, shape) -> np.ndarray:
    """Scenery draws for a block of sites, as lattice-index offsets from the
    least support point ``ks[0]``, in the smallest unsigned type that holds
    them."""
    dt = np.min_scalar_type(int(ks[-1] - ks[0]))
    if len(ks) == 1:
        return np.zeros(shape, dt)
    if len(ks) == 2 and cum[0] == 0.5:
        hit = _coins(rng, 0.5, shape)
        gap = int(ks[1] - ks[0])
        return hit if gap == 1 else hit * dt.type(gap)
    u = rng.random(shape, dtype=np.float32)
    out = np.zeros(shape, dt)
    for cut, gap in zip(cum[:-1].astype(np.float32), np.diff(ks).tolist()):
        hit = (u >= cut).view(np.uint8)
        out += hit if gap == 1 else hit * dt.type(gap)
    return out


def monte_carlo_point_prob(
    model: SceneryModel,
    kappa: float,
    samples: int = 10_000_000,
    seed: int = 1,
) -> MonteCarloEstimate:
    """Simulate the composed sum through the walk's local times and estimate
    ``P{S_n = kappa}`` with its binomial standard error.

    Each sample draws the walk and fresh scenery at the sites it visits.
    Increments must be >= 0: such a walk never returns to a site it has
    left, so only whether each step moves matters, and ``S_n`` is the sum of
    one scenery draw per distinct site weighted by its local time.  Under
    strictly positive increments every local time is 1 and a sample is n
    i.i.d. scenery draws.  Under ``p0 = P{Y = 0} > 0`` one stay flag is drawn
    per step; step 1 always reads a new site, and step k reads the draw of
    distinct site number ``#moves in steps 2..k`` (counting from 0).

    Randomness comes from ``numpy.random.default_rng(seed)`` (PCG64), so runs
    are reproducible given (samples, seed).  Sums are carried in integer
    index space so the hit test is exact.
    """
    if min(model.increment_law.support) < 0:
        raise PreconditionError("Monte Carlo oracle requires increments >= 0")
    if samples < 1 or seed < 0:
        raise LatticeError(f"need samples >= 1 and seed >= 0, got {samples} and {seed}")
    x = model.x_law
    n = model.n
    x_ks, x_cum = _inv_cdf_table(x)
    target = kappa_index(kappa, n * x.v0, x.D) - n * int(x_ks[0])
    p_stay = model.increment_law.mass(0)
    rows = _chunk_rows(n)
    rng = np.random.default_rng(seed)
    hits = 0
    done = 0
    while done < samples:
        c = min(rows, samples - done)
        vals = _site_draws(rng, x_ks, x_cum, (c, n))
        if p_stay > 0.0 and n > 1:
            moved = _coins(rng, 1.0 - p_stay, (c, n))
            moved[:, 0] = 1
            site = np.cumsum(moved, axis=1, dtype=np.min_scalar_type(n))
            site -= 1
            vals = np.take_along_axis(vals, site, axis=1)
        hits += int((vals.sum(axis=1, dtype=np.int64) == target).sum())
        done += c
    p_hat = hits / samples
    stderr = math.sqrt(max(p_hat * (1.0 - p_hat), 1e-300) / samples)
    return MonteCarloEstimate(p_hat=p_hat, stderr=stderr, samples=samples, seed=seed)
