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
samples walks only, for increments >= 0: given a walk's local times, the
lengths of its runs of stays, ``S_n`` is a sum of independent parts ``l X``
whose law is exact, so each walk contributes its conditional mass.  A
strictly positive walk has every local time 1, and its estimate is the
exact mass of the n-fold x law.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
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
from .convolve import SumLaw, _is_integer, sum_law
from .errors import LatticeError, PreconditionError
from .extraction import _check_level, split
from .lattice import (LatticePmf, _index_moments, _integral, _real, kappa_index, pmf_from_json,
                      theta)

#: cap on the units of work of an exact enumeration (see :func:`_check_budget`)
_ENUM_BUDGET = 5_000_000


@dataclass(frozen=True)
class SceneryModel:
    """Laws of the i.i.d. scenery and of the index-walk increments.

    ``increment_law`` may be any law on the integer lattice L(0, 1): lazy
    and +-1 walks are models too.  The oracles that need strictly positive
    (or nonnegative) increments check that themselves.
    ``vartheta_profile`` is either one constant level or a map r -> level.
    ``n`` is read as the JSON reader reads it: an integer (a numpy integer
    too), or a float with an integral value (``2.0``); anything else is a
    :class:`LatticeError`.
    """

    x_law: LatticePmf
    increment_law: LatticePmf
    n: int
    vartheta_profile: float | Mapping[int, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _integral(self.n, "n"))
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

    @cached_property
    def n_fold_law(self) -> SumLaw:
        """``sum_law([(x_law, n)])``, the n-fold x law, built on first read
        (n >= 1) and kept as long as the model: on a strictly positive walk it
        is the exact law of S_n, so :func:`scenery_envelope` and
        :func:`monte_carlo_point_prob` read this one law."""
        return sum_law([(self.x_law, self.n)])

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
        profile = ({_integral(r, "profile site"): _real(v, "profile level") for r, v in prof}
                   if isinstance(prof, list) else _real(prof, "vartheta"))
        return SceneryModel(
            x_law=pmf_from_json(obj["x_law"]),
            increment_law=pmf_from_json(obj["increments"]),
            n=obj["n"],
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
    per distinct level, the joint law of (V, eps) at that level as its
    ``((k, e), P{(V, eps) = (v_k, e)})`` items in increasing order."""
    sites, reach = set(), {0}
    for j in range(1, max(js, default=0) + 1):
        reach = {r + s for r in reach for s in model.increment_law.probs}
        if j in js:
            sites |= reach
    levels = {r: model.vartheta_at(r) for r in sorted(sites)}
    return levels, {v: sorted(split(model.x_law, v).joint.items()) for v in set(levels.values())}


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
    paths, with ``theta_n``, the revisit correction ``c_sum = sum_{h != k}
    c_{h,k}`` of the identity and its residual ``identity_residual = E S^2 -
    (E S'^2 + D^2 Theta/4 + (D^2/4) c_sum)``; the CLI prints these fields."""

    theta_n: float
    c_sum: float
    es: float
    es_prime: float
    es2: float
    es2_prime: float
    identity_residual: float


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
    levels, joints = _site_table(model, set(range(1, n + 1)))
    revisits = min(model.increment_law.support) < 1
    theta_n, table = _walk_table(model, n if revisits or not model.constant_profile else 0)
    c_sum = 0.0
    if revisits:  # the products of c_hk, pair by pair
        pairs = ((h, k) for h in range(1, n + 1) for k in range(1, n + 1) if h != k)
        c_sum = math.fsum(table[abs(k - h) - 1][1] * table[min(h, k) - 1][0] for h, k in pairs)
    # (mean, variance) of X = V + D eps L and of xi = V + (D/2) eps at each
    # level, on their indices 2k + 2e L and 2k + e of L(v0, D/2), then at each site
    x, moments = model.x_law, {}
    for v, joint in joints.items():
        ps = [p * 0.5 for _, p in joint for _ in (0, 1)]
        xs = [2 * k + 2 * e * coin for (k, e), _ in joint for coin in (0, 1)]
        xis = [2 * k + e for (k, e), _ in joint for _ in (0, 1)]
        moments[v] = (_index_moments(x.v0, x.D / 2.0, xs, ps),
                      _index_moments(x.v0, x.D / 2.0, xis, ps))
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
    d = model.x_law.D
    residual = es2 - (esp2 + d**2 * theta_n / 4.0 + d**2 / 4.0 * c_sum)
    return SceneryMoments(theta_n=theta_n, c_sum=c_sum, es=es, es_prime=esp, es2=es2,
                          es2_prime=esp2, identity_residual=residual)


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
    levels, joints = _site_table(model, {h, k})
    ind_a = indicator(interval_a)
    ind_b = indicator(interval_b)
    # P{xi in A} and P{xi in B} at each level, xi = v_k + e D/2 at each (V, eps) atom
    x = model.x_law
    hit_a, hit_b = ({v: math.fsum(p * ind(x.point(k) + e * x.D / 2.0) for (k, e), p in joint)
                     for v, joint in joints.items()} for ind in (ind_a, ind_b))

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
    n-fold x law is then the exact law of S_n: ``spec.law`` is the model's
    :attr:`SceneryModel.n_fold_law`, read after the plug-ins' laws are
    built, so :func:`monte_carlo_point_prob` on the same model reads it
    again instead of rebuilding it.  The report's ``exact`` is its mass at
    kappa and ``exact_err`` its ``err_abs``.  A model with n = 0 sums no
    step and is a :class:`LatticeError`.
    """
    if min(model.increment_law.support) < 1:
        raise PreconditionError("scenery envelope requires strictly positive increments")
    if not model.constant_profile:
        raise PreconditionError(
            "scenery envelope requires a constant vartheta profile (the conditional "
            "summands are not known to be independent otherwise)"
        )
    if model.n < 1:
        raise LatticeError(f"scenery envelope needs a model with n >= 1, got n = {model.n}")
    spec = prepare_sum([(model.x_law, float(model.vartheta_profile), model.n)])
    plug_ins = exact_plug_ins(spec, h)
    # the spec's one part is (x_law, n), so its law is the model's; seeded after
    # the plug-ins so that a refused xi law is still the error raised first
    spec.__dict__["law"] = model.n_fold_law
    return sandwich_envelope(spec, kappa, plug_ins, constants, exact=True)


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Seeded estimate of a point probability: the mean over the sampled
    walks of each walk's exact conditional mass, with its standard error and
    ``err_abs``, the mean over the same walks of their masses' ``err_abs``,
    rounded up: ``stderr`` measures how far the sampling moves ``p_hat``,
    ``err_abs`` bounds how far the computed masses do."""

    p_hat: float
    stderr: float
    err_abs: float
    samples: int
    seed: int

    def interval(self) -> tuple[float, float]:
        """The three-standard-error interval, widened by the masses' error:
        ``p_hat -/+ (3 stderr + err_abs)``."""
        half = 3.0 * self.stderr + self.err_abs
        return self.p_hat - half, self.p_hat + half


#: stay flags per Monte Carlo chunk of lazy walks
_CHUNK_DRAWS = 1_000_000


def _profile_law(x: LatticePmf, profile: Mapping[int, int]) -> SumLaw:
    """The law, in lattice indices, of ``sum_l l (K_1 + ... + K_{m_l})`` for
    the local-time profile ``profile = {l: m_l}`` and i.i.d. copies K of the
    lattice index of X, from one :func:`sum_law` call: the part of local
    time l is the x law's masses on span l, m_l times.  A unit part (the point mass at 0 on span
    1) comes first: it pins the common lattice to the integers, where
    :func:`sum_law` would refuse a ratio of two local times above
    ``_MAX_REFINE``, and it is the whole sum of the empty profile (n = 0)."""
    parts = [(LatticePmf(0.0, float(l), x.probs), m) for l, m in sorted(profile.items())]
    return sum_law([(LatticePmf(0.0, 1.0, {0: 1.0}), 1), *parts])


def _distinct_rows(flags: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of the 2-d bool array ``flags`` and how often each
    occurs.  A row of at most 63 flags is read as the bits of one int64
    (the first flag lowest), so one ``np.unique`` of integers groups them;
    longer rows, at most ``_CHUNK_DRAWS / 64`` a chunk, are compared whole."""
    if flags.shape[1] > 63:
        return np.unique(flags, axis=0, return_counts=True)
    at = np.arange(flags.shape[1])
    distinct, counts = np.unique(flags @ (1 << at), return_counts=True)
    return distinct[:, None] >> at & 1 == 1, counts


def _lazy_profiles(n: int, p_stay: float, samples: int, seed: int) -> Counter:
    """How many of ``samples`` walks of n >= 2 steps with stay probability
    ``0 < p_stay < 1`` have each local-time profile, keyed by its ``(l,
    m_l)`` pairs in increasing l.  Steps 2..n stay with probability within
    2^-53 of ``p_stay`` (``random() < p_stay``), ``_CHUNK_DRAWS`` flags a
    chunk; a run opens at step 1 and at every move, and the local times are
    the runs' lengths, counted once per distinct stay pattern of a chunk."""
    rng = np.random.default_rng(seed)
    rows = max(1, _CHUNK_DRAWS // (n - 1))
    profiles: Counter = Counter()
    for done in range(0, samples, rows):
        stays, counts = _distinct_rows(rng.random((min(rows, samples - done), n - 1)) < p_stay)
        at = np.flatnonzero(np.insert(~stays, 0, True, axis=1))  # the steps that open a run
        lengths = np.diff(at, append=len(stays) * n)
        width = int(lengths.max()) + 1
        runs = np.bincount(at // n * width + lengths, minlength=len(stays) * width)
        for row, count in zip(runs.reshape(len(stays), width).tolist(), counts.tolist()):
            profiles[tuple((l, m) for l, m in enumerate(row) if m)] += count
    return profiles


def monte_carlo_point_prob(
    model: SceneryModel,
    kappa: float,
    samples: int = 10_000_000,
    seed: int = 1,
) -> MonteCarloEstimate:
    """Estimate ``P{S_n = kappa}`` by conditional Monte Carlo over the walk's
    local times, with the sample standard error.

    Increments must be >= 0: such a walk never returns to a site it has
    left, so its local times are the lengths of its runs of stays (steps
    with ``Y = 0``; step 1 always opens a site).  Given them, ``S_n = sum_l
    l (X_1 + ... + X_{m_l})`` over the ``m_l`` sites of local time l, a sum
    of independent parts whose law :func:`sum_law` gives exactly
    (:func:`_profile_law`, in lattice indices).  The estimate is the mean
    of that conditional mass over ``samples`` walks: each distinct profile's
    mass weighted by its share of the walks (Rao-Blackwellization; Asmussen
    and Glynn, Stochastic Simulation, 2007, ch. V), with ``stderr =
    sqrt(max(sum w m^2 - p_hat^2, 0) / samples)``, the binomial error when
    every mass is 0 or 1.

    Stay flags are drawn only when ``0 < p0 = P{Y = 0} < 1`` and ``n >= 2``,
    from ``numpy.random.default_rng(seed)`` (PCG64), so runs are
    reproducible given (samples, seed) (:func:`_lazy_profiles`).  Every
    other walk has one profile, ``{1: n}`` (strictly positive increments, or
    n = 1) or ``{n: 1}`` (every step stays), and no random number is drawn:
    ``p_hat`` is that profile's exact mass and ``stderr`` is 0.  The profile
    ``{1: n}`` reads :attr:`SceneryModel.n_fold_law`, the law that
    :func:`scenery_envelope` prints ``exact`` from, so a model that has been
    through the envelope builds no law here and ``p_hat`` is ``exact`` bit
    for bit.  At n = 0, ``S_0 = 0``.
    ``stderr`` is the sampling error alone: each mass errs by its law's
    ``err_abs`` too, and the estimate's ``err_abs`` is the mean of those,
    weighted by the profiles' counts in rational arithmetic and rounded up
    once, so at one profile it is that law's ``err_abs`` (for ``{1: n}``
    the envelope's ``exact_err``).  The mean's own rounding, a few ulps of
    ``p_hat`` at most, is not in it; at one profile, of weight 1.0, there is
    none.  :meth:`MonteCarloEstimate.interval` adds ``err_abs`` to the three
    standard errors.  A lazy walk costs one exact law per distinct profile
    it samples, and a law past :func:`sum_law`'s length cap is refused as
    a ``LatticeError``, as the envelope's is.
    """
    if min(model.increment_law.support) < 0:
        raise PreconditionError("Monte Carlo oracle requires increments >= 0")
    if not (_is_integer(samples) and samples >= 1 and _is_integer(seed) and seed >= 0):
        raise LatticeError(f"need integer samples >= 1 and seed >= 0, got {samples!r} and {seed!r}")
    samples, seed = int(samples), int(seed)
    x, n = model.x_law, model.n
    t = kappa_index(kappa, n * x.v0, x.D)
    p_stay = model.increment_law.mass(0)
    if 0.0 < p_stay < 1.0 and n >= 2:
        profiles = _lazy_profiles(n, p_stay, samples, seed)
    else:  # one profile: no step, every step a stay, or every local time 1
        key = () if n == 0 else ((n, 1),) if p_stay == 1.0 else ((1, n),)
        profiles = {key: samples}
    laws = [(count, model.n_fold_law if key == ((1, n),) else _profile_law(x, dict(key)))
            for key, count in profiles.items()]
    weighted = [(count / samples, law.mass(t)) for count, law in laws]
    p_hat = math.fsum(w * m for w, m in weighted)
    second = math.fsum(w * m * m for w, m in weighted)
    stderr = math.sqrt(max(second - p_hat * p_hat, 0.0) / samples)
    err = sum(count * Fraction(law.err_abs) for count, law in laws) / samples
    err_abs = float(err)
    if err_abs < err:  # rounded up
        err_abs = math.nextafter(err_abs, math.inf)
    return MonteCarloEstimate(p_hat=p_hat, stderr=stderr, err_abs=err_abs, samples=samples,
                              seed=seed)
