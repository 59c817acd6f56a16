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
``(D^2/4) * sum_{h != k} c_{h,k}``, which :func:`second_moment_check`
checks (one pair's ``c_{h,k}`` is :func:`lltkit.checks.c_hk`).

Through the walk's local times ``l_r = #{k : U_k = r}``,
``S_n = sum_r l_r X_r``: revisits are the only obstruction, since with every
l_r at most one the picked-up values are plain i.i.d. draws.  Given the path,
the values at distinct sites are independent, so the exact oracles enumerate
increment paths only: ``E[S_n | path] = sum_r l_r mu_r`` and
``E[S_n^2 | path] = sum_r l_r^2 sigma_r^2 + (sum_r l_r mu_r)^2``, with
``mu_r``, ``sigma_r^2`` the mean and variance of X over the (V, eps, L)
outcomes at r's level (likewise for S'_n with xi).  A walk with increments
>= 0 never returns to a site it has left, so the value at its current site
is all it remembers, and the law of S_n averaged over the walk is exact
(:attr:`SceneryModel.annealed_law`): the n-fold x law on a strictly
positive walk, and a Markov fold over (current value, S_m) on a lazy one.
The Monte Carlo oracle reads that law and draws no random number.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping

import numpy as np

from .bounds import (
    BoundReport,
    ConstantsRegistry,
    DEFAULT_CONSTANTS,
    exact_plug_ins,
    prepare_sum,
    sandwich_envelope,
)
from .convolve import _U, SumLaw, _check_total, _is_integer, sum_law
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
        ``0 < p0 < 1`` takes the Markov fold over the value at the
        current site (:func:`_markov_fold`, no :func:`sum_law` call); every
        step a stay (p0 = 1, ``S_n = n X``) is one count-1 :func:`sum_law`
        part, the x masses at the indices n k of S_n's lattice ``L(n
        x_law.v0, x_law.D)``; and n = 0 is the unit law on that lattice."""
        x, n, p0 = self.x_law, self.n, self.increment_law.mass(0)
        if min(self.increment_law.support) < 0:
            raise PreconditionError("the annealed law of S_n requires increments >= 0")
        if n >= 1 and (p0 == 0.0 or n == 1):
            return sum_law([(x, n)])
        if n >= 2 and p0 < 1.0:
            return _markov_fold(x, n, p0)
        probs = {n * k: w for k, w in x.probs.items()} if n else {0: 1.0}
        return sum_law([(LatticePmf(n * x.v0, x.D, probs), 1)])

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


def _revisit_term(table: list[tuple[float, float]], h: int, k: int) -> float:
    """``c_{h,k} = P{U_m = 0} E vartheta_{U_min(h, k)}``, m = |k - h|, read off
    the rows of :func:`_walk_table` (up to ``max(h, k)`` at least)."""
    return table[abs(k - h) - 1][1] * table[min(h, k) - 1][0]


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
    if revisits:  # c_hk, pair by pair
        pairs = ((h, k) for h in range(1, n + 1) for k in range(1, n + 1) if h != k)
        c_sum = math.fsum(_revisit_term(table, h, k) for h, k in pairs)
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


#: most units of work, ``n K width``, that :func:`_markov_fold` may take
_FOLD_WORK = 2**30


def _fold_error(n: int, atoms: int, width: int) -> tuple[float, float]:
    """The bounds ``(rel, tiny)`` of :func:`_markov_fold` over n steps of an
    x law of ``atoms`` positive masses on a window of ``width`` points."""
    c = n * (atoms + 6)
    return c * _U / (1.0 - c * _U), n * atoms * width * 2.0**-1072


def _markov_fold(x: LatticePmf, n: int, p0: float) -> SumLaw:
    """Exact law of ``S_n`` for a walk of n >= 2 steps with increments >= 0
    that stays with probability ``0 < p0 < 1``, by a Markov fold in
    nonnegative arithmetic, with ``err_abs`` and ``err_l1``.

    **Fold.**  Step 1 opens a site and every move opens a new one, so the
    walk never returns to a site it has left, and the value at its current
    site is all it remembers.  Let x have K positive masses ``p_k`` (the
    stored masses ``q_k`` scaled to total one: the exact law
    :func:`sum_law` reads) at offsets ``a_k`` from the first of them, and
    ``g_k(s) = P{S_m - m k0 = s, current value a_k}``.  Then ``g_k = p_k
    delta_{a_k}`` at m = 1, and each step stays with ``p0`` or draws a
    fresh value with ``1 - p0``:

        g_k <- shift_{a_k}(p0 g_k + (1 - p0) p_k G),   G = sum_j g_j,

    and the law of ``S_n - n k0`` is G after n steps, on ``[0, n span]``.
    The rows live in one K x (n span + 1) array; step m reads only its
    first ``m span + 1`` columns.  Nothing is dropped or renormalized.

    **Error bound** (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., ch. 3; u the unit roundoff, ``gamma_c = c u / (1
    - c u)``).  Every operation adds or multiplies nonnegative doubles, so
    each computed entry is its exact polynomial in ``p0``, ``1 - p0`` and
    the ``p_k`` with every monomial carrying a factor ``1 + theta``,
    ``|theta| <= gamma_r``, r the roundings on its path (Lemma 3.3), and
    no cancellation: the entry is within ``gamma_r`` of the exact one,
    relatively.  The stored ``q_k`` total one to within the drift test's
    2u in their correctly rounded ``fsum``, so ``q_k = p_k Q``, ``|Q - 1|
    <= 3u / (1 - u) <= gamma_3``: three roundings per ``p_k``, one ``p_k``
    per visited site.  A monomial takes 3 at step 1 (``q_k``); a stay
    adds 2 (the product with ``p0`` and the addition), a move adds ``c = K
    + 6``: the ``K - 1`` additions of G, the roundings of ``1 - p0`` and
    ``(1 - p0) q_k``, ``p_k``'s 3, the product with G and the addition.
    The final G adds ``K - 1``, so ``r <= 3 + (n - 1) (K + 6) + K - 1 <= c
    n`` and every entry P^ is within ``gamma_{cn} P`` of the exact P, down
    to underflow.  Below it, each of the at most ``2 n K width`` products
    errs by at most ``2^-1075`` absolutely (sums of doubles do not
    underflow), and the fold carries an error's mass to the end with weight
    at most ``1 + gamma_{cn} < 2``, so these errors total at most ``2 n K
    width 2^-1074`` in l1.  With ``P <= (P^ + that) / (1 - gamma_{cn})``,
    ``|P^ - P| <= rel P^ + tiny`` for ``rel = gamma_{cn} / (1 -
    gamma_{cn})`` and ``tiny = n K width 2^-1072`` (:func:`_fold_error`).
    So ``err_abs = (rel max P^ + tiny) (1 + 2^-40)`` and, as the exact
    entries total one, ``err_l1 = (rel + tiny) (1 + 2^-40)``; the factor
    covers the rounding of the bounds.

    The work is ``n K width`` units; past ``_FOLD_WORK`` the law is refused
    as a ``LatticeError`` before anything is allocated, so the array holds
    at most ``_FOLD_WORK / n`` doubles and ``c n u`` stays below 2^-20.
    """
    items = [(k, p) for k, p in sorted(x.probs.items()) if p > 0]
    k0, atoms = items[0][0], len(items)
    offsets, q = [k - k0 for k, _ in items], [p for _, p in items]
    span = offsets[-1]
    width = n * span + 1
    if n * atoms * width > _FOLD_WORK:
        raise LatticeError(f"annealed law of {width} points over {n} steps and {atoms} values, "
                           f"above the cap of {_FOLD_WORK} units of work")
    _check_total(x, "the x law")
    move = [(1.0 - p0) * p for p in q]
    g = np.zeros((atoms, width))
    g[np.arange(atoms), offsets] = q
    for m in range(1, n):
        top = m * span + 1  # g_k lives on [a_k, m span], so row[:a_k] stays 0.0
        total = g[:, :top].sum(axis=0)
        for row, a, w in zip(g, offsets, move):
            step = row[:top] * p0
            step += w * total  # in place: one temporary fewer
            row[a:a + top] = step
    probs = g.sum(axis=0)
    rel, tiny = _fold_error(n, atoms, width)
    return SumLaw(probs=probs, first=n * k0, v0=n * x.v0, D=x.D,
                  err_abs=(rel * float(probs.max()) + tiny) * (1.0 + 2.0**-40),
                  err_l1=(rel + tiny) * (1.0 + 2.0**-40))


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
    walk's comes from the Markov fold over the value at its current site),
    and there is nothing to estimate: ``p_hat`` is the law's mass at kappa,
    ``stderr`` is 0.0 and ``err_abs`` is the law's ``err_abs``, which
    :meth:`MonteCarloEstimate.interval` adds.  No random number is drawn.
    ``samples`` (>= 1) and ``seed`` (>= 0) must be integers, and are echoed.
    A model that has been through :func:`scenery_envelope` builds no law
    here, and ``p_hat`` is the envelope's ``exact``, bit for bit, with
    ``err_abs`` its ``exact_err``.  At n = 0, ``S_0 = 0``.  Walks with a
    negative increment are refused as a :class:`PreconditionError`, and a
    lazy walk's law past the work cap of :func:`_markov_fold` as a
    :class:`LatticeError`.
    """
    if not (_is_integer(samples) and samples >= 1 and _is_integer(seed) and seed >= 0):
        raise LatticeError(f"need integer samples >= 1 and seed >= 0, got {samples!r} and {seed!r}")
    t = kappa_index(kappa, model.n * model.x_law.v0, model.x_law.D)
    law = model.annealed_law
    return MonteCarloEstimate(p_hat=law.mass(t), stderr=0.0, err_abs=law.err_abs,
                              samples=int(samples), seed=int(seed))
