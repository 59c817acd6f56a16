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
outcomes at r's level (likewise for S'_n with xi).  A walk with increments
>= 0 never returns to a site it has left: its local times are the lengths
of its runs of stays, which form a renewal sequence, so the law of S_n
averaged over the walk is exact (:attr:`SceneryModel.annealed_law`): the
n-fold x law on a strictly positive walk, and one renewal recursion over
the characteristic functions ``psi(l t)`` on a lazy one.  The Monte Carlo
oracle reads that law and draws no random number.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
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
from .convolve import (_EXT, _LENGTH_CAP, _U, SumLaw, _check_total, _drop_small, _eta,
                       _is_integer, _measured, _normalized, _transform_at, sum_law)
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
    def annealed_law(self) -> SumLaw:
        """The exact law of S_n, averaged over the walk, for increments >= 0,
        built on first read and kept as long as the model; a negative
        increment is a :class:`PreconditionError`.  Such a walk never
        returns to a site it has left, so only ``p0 = P{Y = 0}`` matters.
        A strictly positive walk (p0 = 0) or one step is ``sum_law([(x_law,
        n)])``, the law :func:`scenery_envelope` prints ``exact`` from;
        ``0 < p0 < 1`` takes the renewal recursion of the run lengths
        (:func:`_renewal_law`, no :func:`sum_law` call); every step a stay
        (p0 = 1, ``S_n = n X``) is one :func:`sum_law` of the x masses on
        span n behind a unit part, which keeps the indices those of the x
        lattice; and n = 0 is the unit law.  Each is labelled with S_n's
        lattice, ``v0 = n x_law.v0`` and ``D = x_law.D``."""
        x, n, p0 = self.x_law, self.n, self.increment_law.mass(0)
        if min(self.increment_law.support) < 0:
            raise PreconditionError("the annealed law of S_n requires increments >= 0")
        if n >= 1 and (p0 == 0.0 or n == 1):
            return sum_law([(x, n)])
        if n >= 2 and p0 < 1.0:
            return _renewal_law(x, n, p0)
        parts = [(LatticePmf(0.0, float(n), x.probs), 1)] if n else []
        law = sum_law([(LatticePmf(0.0, 1.0, {0: 1.0}), 1), *parts])
        return replace(law, v0=n * x.v0, D=x.D)

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
    :attr:`SceneryModel.annealed_law`, read after the plug-ins' laws are
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
    spec.__dict__["law"] = model.annealed_law
    return sandwich_envelope(spec, kappa, plug_ins, constants, exact=True)


@dataclass(frozen=True)
class MonteCarloEstimate:
    """The Monte Carlo oracle's record of ``P{S_n = kappa}``: ``p_hat`` with
    its standard error ``stderr`` and ``err_abs``, a bound on how far the
    computed mass is from the exact one, and the ``samples`` and ``seed``
    of the request.  On the walks the oracle accepts (increments >= 0)
    ``p_hat`` is the exact annealed mass, ``stderr`` is 0.0 and no walk is
    drawn."""

    p_hat: float
    stderr: float
    err_abs: float
    samples: int
    seed: int

    def interval(self) -> tuple[float, float]:
        """The three-standard-error interval, widened by the mass's error:
        ``p_hat -/+ (3 stderr + err_abs)``."""
        half = 3.0 * self.stderr + self.err_abs
        return self.p_hat - half, self.p_hat + half


#: most complex multiply-adds, ``n (n - 1) / 2`` per frequency, that
#: :func:`_renewal_law` may take
_RENEWAL_WORK = 2**32

#: most entries of one block of frequencies in :func:`_renewal_law` (per array)
_RENEWAL_BLOCK = 2**18


def _renewal_law(x: LatticePmf, n: int, p0: float) -> SumLaw:
    """Exact law of ``S_n`` for a walk of n >= 2 steps with increments >= 0
    that stays with probability ``0 < p0 < 1``, from the renewal recursion
    of its run lengths, with ``err_abs`` and ``err_l1`` as :func:`sum_law`
    derives them.

    **Recursion** (Feller, An Introduction to Probability Theory, vol. I,
    ch. XIII).  Step 1 opens a site and every move opens a new one, so the
    local times are the lengths of the runs of stays, and the sizes of the
    moves do not matter.  The first run has length ``l < m`` with
    probability ``w_l = (1 - p0) p0^(l-1)``, after which the walk starts
    afresh, and length m with ``b_m = p0^(m-1)``.  With ``psi`` the
    characteristic function of the x law's index K, shifted to ``[0,
    span]`` and scaled to total one (the exact law :func:`sum_law` reads),
    and ``F_m`` that of the index sum after m steps, ``F_0 = 1`` and

        F_m(t) = sum_{l=1}^{m-1} w_l psi(l t) F_{m-l}(t) + b_m psi(m t).

    The weights total one and every ``|psi| <= 1``, so ``|F_m| <= 1``.  The
    law of ``S_n - n k0`` lives on ``[0, n span]``: one forward transform
    of the x masses on ``N > n span`` points (a power of two) gives
    ``psi(l t_j)`` at index ``l j mod N`` for ``t_j = 2 pi j / N``, the
    recursion runs on the half spectrum ``j <= N/2`` in complex128, blocks
    of frequencies at a time, and one ``irfft`` of ``F_n`` gives the law,
    with no aliasing.  Entries at or below the error bound are set to 0.0
    and the law is divided by its ``fsum``, as in :func:`sum_law`.

    **Error bound.**  u is the unit roundoff, ``u_e`` that of ``_EXT``, and
    ``gamma_k = k u / (1 - k u)``.

    1. *Transform.*  The x masses total one to within 3u, or the law is
       refused as :func:`sum_law` refuses a part (its drift test), so they
       are within 3u of the exact law in the l1 norm; their transform at
       the ``N/2 + 1`` frequencies comes from :func:`_transform_at` in
       ``_EXT``, within ``delta_e``, and is rounded to complex128 (``u
       |z|``, and ``2^-1074`` where it underflows).  The other half is its
       conjugate, exactly.  So every value read errs by at most ``3u +
       delta_e + u (1 + 3u + delta_e) + 2^-1074 <= delta = 5u + 2
       delta_e``.
    2. *Weights.*  ``p0^(l-1)`` by a running product in ``_EXT``, times
       ``1 - p0`` there, rounded to double once: each weight within ``(u +
       gamma_n(u_e) (1 + u)) w_l`` of its exact value, plus ``2^-1074``
       where it underflows, so the weights of a step err by ``omega = 2u +
       2n u_e`` in total, and total at most ``1 + omega``.
    3. *Step.*  The products ``c_l = w_l psi(l t)`` are formed once (``u``
       relatively), and step m sums m terms: the m - 1 complex products
       ``c_l F_{m-l}`` (``sqrt2 gamma_2`` each, Higham Lemma 3.5), added
       pairwise in place, half of the rows onto the other half, so that each
       takes part in at most ``ceil(log2(m - 1))`` additions, and then ``b_m
       psi(m t)``: ``gamma_d`` of the sum of the terms' moduli, ``d =
       ceil(log2(m - 1)) + 1`` (Higham, Sec. 4.2).  The moduli total at most
       ``(1 + u) (1 + delta) (1 + omega) (1 + E_{m-1})``, ``E_m`` the largest
       error of ``F_m`` over the frequencies.  The exact weights total one
       and ``|psi| <= 1``, so the errors of earlier steps carry over with
       weight at most one, and

           E_m <= E_{m-1} + (1 + E_{m-1}) kappa_m,
           kappa_m = (rho_m + u + omega + delta) (1 + 2^-40 + 2 s),

       ``rho_m = sqrt2 gamma_2 + gamma_d (1 + sqrt2 gamma_2) <= (d + 3) u``
       and ``s = 2n u_e + 2 delta_e``: the factor covers the products of ``1
       + u``, ``1 + delta`` and ``1 + omega`` (``u + delta + omega = 8u +
       s``), the rounding of the bound and the underflows of the step's
       fewer than 16 m operations (each below 2^-1074, and ``kappa_m > 10
       u``).  As ``kappa_m <= kappa_n = ((d + 11) u + s) (1 + 2^-40 + 2
       s)``, the error grows at most linearly in m: ``1 + E_n <= (1 +
       kappa_n)^n``, so ``E_n <= n kappa_n / (1 - n kappa_n)``.
    4. *Inverse.*  As in :func:`sum_law`'s step 1, the W = n span + 1
       entries read err by ``e_inf = e_2 = E_n + eta_N ||z^||_2 / (1 -
       eta_N)`` (the spectrum's error reaches them through ``||e||_1 / N``
       and ``||e||_2 / sqrt(N)``, each at most ``E_n``), and ``e_1 =
       sqrt(W) e_2``; ``irfft`` reads the Hermitian part of the spectrum,
       no further from the exact one, which is Hermitian.  The bound is
       computed and rounded up by ``1 + 2^-40``.  Then :func:`sum_law`'s
       steps 5 and 6: the tail drop and the normalization, with its drift
       test.

    The bound is about ``n (log2 n + 11) u`` (``err_abs`` 3.0e-13 at n =
    128).  The work is ``n (n - 1) / 2`` complex multiply-adds per
    frequency; past ``_RENEWAL_WORK``, or past :func:`sum_law`'s length cap
    W, the law is refused as a ``LatticeError`` before anything is
    allocated.
    """
    items = sorted(x.probs.items())
    k0, span = items[0][0], items[-1][0] - items[0][0]
    width = n * span + 1
    size = 1 << (width - 1).bit_length()  # the least power of two >= width
    half = size // 2 + 1
    if width > _LENGTH_CAP or n * (n - 1) // 2 * half > _RENEWAL_WORK:
        raise LatticeError(f"annealed law of {width} points over {n} steps, above the cap of "
                           f"{_LENGTH_CAP} points or {_RENEWAL_WORK} complex products")
    _check_total(x, "the x law")
    g = np.bincount([k - k0 for k, _ in items], weights=[p for _, p in items])
    ext, delta_e = _transform_at(g, _measured(g), np.arange(half), size)
    psi = np.concatenate([ext, ext[size // 2 - 1:0:-1].conj()]).astype(complex)  # every j mod N
    powers = np.cumprod(np.concatenate([[1.0], np.full(n - 1, p0)]).astype(_EXT))  # p0^(l-1)
    move, stay = (powers * (1.0 - _EXT(p0))).astype(float), powers.astype(float)
    spectrum = []  # F_n, a block of frequencies j at a time
    for j in np.array_split(np.arange(half), -(-half * (n + 1) // _RENEWAL_BLOCK)):
        at = psi[np.arange(1, n + 1)[:, None] * j % size]  # psi(l t_j), l = 1..n
        c = move[:, None] * at
        f = np.ones((n + 1, len(j)), dtype=complex)  # f[0] = F_0
        for m in range(1, n + 1):
            terms = c[:m - 1] * f[m - 1:0:-1]  # w_l psi(l t) F_{m-l}, l = 1..m-1
            k = m - 1
            while k > 1:  # pairwise, in place: one addition per term and round
                k, h = k - k // 2, k // 2
                terms[:h] += terms[k:k + h]
            f[m] = stay[m - 1] * at[m - 1] + terms[:1].sum(axis=0)  # terms[0]; none at m = 1
        spectrum.append(f[n])
    s = 2 * n * float(np.finfo(_EXT).epsneg) + 2 * delta_e
    # (d + 11) u + s, with d = (n - 2).bit_length() + 1 additions per term at most
    kappa = (((n - 2).bit_length() + 12) * _U + s) * (1.0 + 2.0**-40 + 2 * s)
    z = np.fft.irfft(np.concatenate(spectrum), size)
    inv = _eta(size, _U) * _measured(z).n2 / (1.0 - _eta(size, _U))
    err = (n * kappa / (1.0 - n * kappa) + inv) * (1.0 + 2.0**-40)
    probs, bounds = _drop_small(z[:width].copy(), math.sqrt(width) * err, err, err)
    return _normalized(probs, bounds, n, n * k0, n * x.v0, x.D)


def monte_carlo_point_prob(
    model: SceneryModel,
    kappa: float,
    samples: int = 10_000_000,
    seed: int = 1,
) -> MonteCarloEstimate:
    """``P{S_n = kappa}`` for a walk with increments >= 0, read off the
    model's exact annealed law, :attr:`SceneryModel.annealed_law`.

    Such a walk never returns to a site it has left, so the law of S_n is
    known exactly (a strictly positive walk's is the n-fold x law; a lazy
    walk's comes from the renewal recursion of its run lengths), and there
    is nothing to estimate: ``p_hat`` is the law's mass at kappa, ``stderr``
    is 0.0 and ``err_abs`` is the law's ``err_abs``, which
    :meth:`MonteCarloEstimate.interval` adds.  No random number is drawn.
    ``samples`` (>= 1) and ``seed`` (>= 0) must be integers, and are echoed.
    A model that has been through :func:`scenery_envelope` builds no law
    here, and ``p_hat`` is the envelope's ``exact``, bit for bit, with
    ``err_abs`` its ``exact_err``.  At n = 0, ``S_0 = 0``.  Walks with a
    negative increment are refused as a :class:`PreconditionError`, and a
    lazy walk's law past the caps of :func:`_renewal_law` as a
    :class:`LatticeError`.
    """
    if not (_is_integer(samples) and samples >= 1 and _is_integer(seed) and seed >= 0):
        raise LatticeError(f"need integer samples >= 1 and seed >= 0, got {samples!r} and {seed!r}")
    t = kappa_index(kappa, model.n * model.x_law.v0, model.x_law.D)
    law = model.annealed_law
    return MonteCarloEstimate(p_hat=law.mass(t), stderr=0.0, err_abs=law.err_abs,
                              samples=int(samples), seed=int(seed))
