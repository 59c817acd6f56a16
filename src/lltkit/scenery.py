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
draws n scenery values per sample, one per step; it also admits lazy walks
(increments >= 0 with ``P{Y = 0} > 0``), whose local times are the lengths of
their runs of stays: a step that stays repeats the previous step's value, so
each visited site still weighs one fresh draw by its local time.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Iterable, Iterator, Mapping

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
    n-fold x law, ``spec.law``, is then the exact law of S_n: the report's
    ``exact`` is its mass at kappa and ``exact_err`` its ``err_abs``.  A
    model with n = 0 sums no step and is a :class:`LatticeError`.
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
    return sandwich_envelope(spec, kappa, exact_plug_ins(spec, h), constants, exact=True)


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Seeded frequency estimate of a point probability."""

    p_hat: float
    stderr: float
    samples: int
    seed: int

    def interval(self) -> tuple[float, float]:
        """The three-standard-error interval ``p_hat -/+ 3 stderr``."""
        return self.p_hat - 3.0 * self.stderr, self.p_hat + 3.0 * self.stderr


#: draws per Monte Carlo chunk; a chunk holds this many small ints
_CHUNK_DRAWS = 1_000_000

#: 2^32, one past the largest uint32 uniform
_WORDS32 = 1 << 32


def _chunk_rows(n: int) -> int:
    """Samples per chunk for an n-step walk."""
    return max(1, _CHUNK_DRAWS // max(n, 1))


def _cuts(masses: Iterable[float]) -> list[int]:
    """Integer cut points of an inverse-cdf draw from a uint32 uniform u, for
    a law whose atoms carry ``masses`` and then the rest: the draw is atom i,
    with i the number of cuts at or below u.

    Cut i is ``T_i = min(round(Q_i 2^32), 2^32)``, where ``Q_i`` is the exact
    (rational) sum of the stored masses of atoms 0..i, so
    ``|T_i - Q_i 2^32| <= 1/2`` and atom i is drawn with probability
    ``(T_i - T_{i-1}) / 2^32`` (``T_{-1} = 0``; the last atom takes the rest
    up to 2^32): within 2^-32 of its stored mass, the last atom within 2^-33
    plus the few ulps by which the stored masses miss 1.  An atom of mass
    below 2^-33 at either end of the support is never drawn.  A cut of 2^32
    can never be reached, nor can the atoms after it, so it is dropped.

    :func:`_site_draws` reads u one byte at a time, whatever the number of
    cuts: with ``u = (B << 24) | L`` and ``T = (b << 24) | l``, ``u >= T``
    exactly when ``B > b``, or ``B == b`` and ``L >= l``.  So a cut decides
    most draws by its top byte b alone; only a draw whose top byte ties with
    b (probability 2^-8), and only when ``l > 0``, reads 24 more bits.  The
    law drawn is the one above, bit for bit.
    """
    cuts = (min(round(q * _WORDS32), _WORDS32) for q in accumulate(map(Fraction, masses)))
    return [t for t in cuts if t < _WORDS32]


def _offset_type(ks: np.ndarray) -> np.dtype:
    """The smallest unsigned type that holds every offset ``ks[i] - ks[0]``."""
    return np.min_scalar_type(int(ks[-1] - ks[0]))


def _tie_positions(ties: np.ndarray) -> np.ndarray:
    """Flat indices of the true entries of the bool array ``ties``, whose
    length is a multiple of 8, in increasing order.  Ties are rare, so the
    search runs over 8-byte words first and expands only the nonzero ones:
    a byte-wise ``np.flatnonzero`` over the whole array costs more than the
    compare that made it."""
    words = ties.view(np.uint64)
    hit_words = np.flatnonzero(words != 0)
    within = np.flatnonzero(words[hit_words].view(np.bool_))
    return hit_words[within >> 3] * 8 + (within & 7)


def _add_hits(draws: np.ndarray, compares: list, gaps: list[int], out: np.ndarray,
              hit: np.ndarray) -> None:
    """Write to ``out`` the sum over the ``(compare, threshold)`` pairs of
    ``gap * compare(draws, threshold)``, through the bool buffer ``hit`` of
    ``out``'s shape."""
    ones = hit.view(np.uint8)
    for i, ((compare, threshold), gap) in enumerate(zip(compares, gaps)):
        compare(draws, threshold, out=hit)
        if i == 0:
            np.multiply(ones, out.dtype.type(gap), out=out)
        elif gap == 1:
            out += ones
        else:
            out += ones * out.dtype.type(gap)


def _site_draws(rng: np.random.Generator, ks: np.ndarray, cuts: list[int], out: np.ndarray,
                scratch: np.ndarray) -> None:
    """Draws of the law with support indices ``ks`` and cut points ``cuts``
    (see :func:`_cuts`) for a block of sites, as lattice-index offsets from
    the least support point ``ks[0]``, written to ``out`` in C order.

    ``out`` is a contiguous array of :func:`_offset_type` of ``ks``, and
    ``scratch`` a bool array of at least twice ``out.size`` rounded up to a
    multiple of 8 entries; both are overwritten, so that a chunk loop reuses
    them instead of allocating (and faulting in) fresh arrays per chunk.

    A draw is the sum of the gaps ``ks[i+1] - ks[i]`` over the cuts ``T_i <=
    u`` for a uint32 uniform u, read one byte at a time.  Write ``u = (B <<
    24) | L``, with B a uniform byte and L 24 independent uniform bits, and
    ``T = (b << 24) | l`` likewise; then ``u >= T`` holds exactly when ``B >
    b``, or ``B == b`` and ``L >= l``, and when ``B >= b`` if ``l == 0``, so
    such a cut (a cut at 0 among them) never ties.  B is one byte of the raw
    generator words per site, and each cut costs one compare of the bytes,
    which decides every site whose B is no cut's tie byte (the top byte of a
    cut with ``l > 0``).  The tied sites, 2^-8 of them per tie byte, are
    found in one search over all tie bytes; after the block's bytes each
    reads its L, in C order, as the top 24 bits of one uint32 half of a raw
    word, and its draw is taken again by a full compare of ``u = (B << 24) |
    L`` with the cuts.  So cuts that share a top byte read the same L, and
    every site's draw is that of one uint32 uniform, exactly as a full 32-bit
    compare would draw it, for any number of cuts.

    Two laws read the raw words otherwise, with the same law drawn.  A law
    with no cut is a point mass and reads none.  A single cut at 2^31 is a
    fair coin: ``u >= 2^31`` is u's top bit, so each draw takes one bit of a
    raw word.
    """
    dt = out.dtype
    if not cuts:
        out[...] = 0
        return
    size = out.size
    raw = rng.bit_generator.random_raw
    gaps = np.diff(ks).tolist()
    if cuts == [_WORDS32 >> 1]:
        bits = np.unpackbits(raw(-(-size // 64)).view(np.uint8), count=size).reshape(out.shape)
        np.multiply(bits, dt.type(gaps[0]), out=out)
        return
    hit = scratch[:size].reshape(out.shape)
    # whole words of bytes, so that the tie search can read them 8 at a time
    block = raw(-(-size // 8)).view(np.uint8)
    tops = [(t >> 24, t & 0xFFFFFF) for t in cuts]
    compares = [(np.greater if low else np.greater_equal, top) for top, low in tops]
    _add_hits(block[:size].reshape(out.shape), compares, gaps, out, hit)
    tie_tops = sorted({top for top, low in tops if low})
    if not tie_tops:
        return
    ties, equal = scratch[len(block):2 * len(block)], scratch[:len(block)]
    np.equal(block, tie_tops[0], out=ties)
    for top in tie_tops[1:]:
        ties |= np.equal(block, top, out=equal)
    tied = _tie_positions(ties)
    tied = tied[tied < size]
    low_bits = raw(-(-len(tied) // 2)).view(np.uint32)[:len(tied)] >> 8
    u = block[tied].astype(np.uint32) << 24 | low_bits
    draws = np.zeros(len(tied), dt)
    _add_hits(u, [(np.greater_equal, t) for t in cuts], gaps, draws, np.empty(len(tied), np.bool_))
    out.reshape(-1)[tied] = draws


#: support of the move flag of a lazy walk: 0 stays, 1 moves
_MOVE_KS = np.array([0, 1], dtype=np.int64)


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
    one scenery draw per distinct site weighted by its local time.  Each
    sample draws n scenery values, one per step.  Under strictly positive
    increments every local time is 1 and a sample is those n i.i.d. draws.
    Under ``p0 = P{Y = 0} > 0`` one stay flag is also drawn per step, and a
    step that stays repeats the previous step's value, so each visited site
    reads the one fresh draw of the step that opened it.

    Randomness comes from ``numpy.random.default_rng(seed)`` (PCG64), so runs
    are reproducible given (samples, seed).  Chunks of samples are laid out
    step-major, one row of ``c`` samples per step, so that a sample's sum
    over its steps is n contiguous row adds.  Each chunk draws its scenery
    values, then its stay flags, through :func:`_site_draws`: one random
    byte per draw, with the ties of a byte with a cut resolved by 24 more
    bits (one bit per draw for a fair coin, none for a point mass), which is
    exactly an inverse-cdf draw from a uint32 uniform against integer cut
    points (:func:`_cuts`).  So every atom of the x law, and the stay flag,
    is drawn with probability within 2^-32 of its stored mass.  A lazy walk
    then carries values forward down the steps in place, row k becoming
    ``v[k-1] + (v[k] - v[k-1]) * moved[k]``; in the unsigned offset type
    the difference wraps, and the result is exact because both candidates
    are offsets that fit the type.  Sums are carried in integer index space
    so the hit test is exact; a sample's sum is at most ``n * span`` and is
    accumulated in the smallest unsigned type that holds that.
    """
    if min(model.increment_law.support) < 0:
        raise PreconditionError("Monte Carlo oracle requires increments >= 0")
    if not (_is_integer(samples) and samples >= 1 and _is_integer(seed) and seed >= 0):
        raise LatticeError(f"need integer samples >= 1 and seed >= 0, got {samples!r} and {seed!r}")
    samples, seed = int(samples), int(seed)
    x = model.x_law
    n = model.n
    x_ks = np.array(x.support, dtype=np.int64)
    x_cuts = _cuts(x.probs[k] for k in x.support[:-1])
    target = kappa_index(kappa, n * x.v0, x.D) - n * int(x_ks[0])
    acc = np.min_scalar_type(n * int(x_ks[-1] - x_ks[0]))
    p_stay = model.increment_law.mass(0)
    move_cuts = _cuts([p_stay])
    rows = _chunk_rows(n)
    lazy = p_stay > 0.0 and n > 1
    # Every chunk reuses the same buffers (scenery draws, stay flags, the
    # scratch of _site_draws), cut from one block of a fixed size per call,
    # each a multiple of 8 entries; the last chunk uses their prefixes.  A
    # page costs a fault when first touched, and a block of one size per
    # call comes back from the allocator already touched: replaying the
    # scenery-mc benchmark requests, about 20 faults per request against
    # about 500 with arrays made per chunk or sized after n.
    cap = -(-max(rows * n, _CHUNK_DRAWS) // 8) * 8
    x_type = _offset_type(x_ks)
    x_bytes, move_bytes = cap * x_type.itemsize, cap if lazy else 0
    work = np.empty(x_bytes + move_bytes + 2 * cap, np.uint8)
    x_buf = work[:x_bytes].view(x_type)
    move_buf = work[x_bytes:x_bytes + move_bytes]
    scratch = work[x_bytes + move_bytes:].view(np.bool_)
    rng = np.random.default_rng(seed)
    hits = 0
    done = 0
    while done < samples:
        c = min(rows, samples - done)
        vals = x_buf[:n * c].reshape(n, c)
        _site_draws(rng, x_ks, x_cuts, vals, scratch)
        if lazy:
            moved = move_buf[:n * c].reshape(n, c)
            _site_draws(rng, _MOVE_KS, move_cuts, moved, scratch)
            for k in range(1, n):  # v[k] = v[k-1] + (v[k] - v[k-1]) * moved[k]
                step = vals[k]
                step -= vals[k - 1]
                step *= moved[k]
                step += vals[k - 1]
        hits += int(np.count_nonzero(vals.sum(axis=0, dtype=acc) == target))
        done += c
    p_hat = hits / samples
    stderr = math.sqrt(max(p_hat * (1.0 - p_hat), 1e-300) / samples)
    return MonteCarloEstimate(p_hat=p_hat, stderr=stderr, samples=samples, seed=seed)
