"""Counting partitions into distinct parts through a tilted two-point model.

``q_m(n)`` counts the ways to write n as a sum of distinct integers from
``[max(m, 1), n]``.  Taking independent two-point variables

    P{X_j = 0} = 1 / (1 + e^{-sigma j}),   P{X_j = j} = e^{-sigma j} / (1 + e^{-sigma j})

for j = m..n and any real sigma, the count satisfies the exact identity

    q_m(n) = e^{sigma n} * prod_{j=m..n} (1 + e^{-sigma j}) * P{sum_j X_j = n}.

sigma only affects numerical conditioning; the canonical choice centers the
sum at n by solving ``sum_{j=m..n} j / (1 + e^{sigma j}) = n`` (the left side
is strictly decreasing in sigma) by one bracketed Newton iteration
(:func:`solve_sigma`).  The logistic is lltkit's own, :func:`_expit`, and
gives the doubles of scipy's ``expit``, so a count imports no scipy
subpackage.

**The knapsack.**  Every atom is >= 0, so mass that passes n never comes
back, and ``P{Y = n}`` is the last entry of a weighted 0/1 knapsack over
the indices 0..n: part j maps ``acc[k]`` to ``a_j acc[k] + p_j acc[k - j]``
(``a_j = P{X_j = 0}``, ``p_j = P{X_j = j}``), the float twin of
:func:`count_via_enumeration`'s loop.  That is three array passes of n + 1
entries per part, O(n^2) in all, where folding the whole law of ``sum_j
j`` points took about n^3/3 multiply-adds.  The mass a part carries past n is
added onto the entries n + 1..2n, where it stays, never scaled again, for
the conservation check.  Of the two masses the lighter is the logistic
``1 / (1 + e^{|sigma| j})`` and the heavier is 1 minus it, so both keep
their relative accuracy for either sign of sigma.

**Precision.**  The fold, the masses and the assembly ``sigma n + sum_j
log(1 + e^{-sigma j}) + log P{Y = n}`` run in ``_FOLD``, ``np.longdouble``,
with unit roundoff ``u_e`` (2^-64 on x86-64).  Where long double is double
(MSVC, macOS arm64), ``u_e = 2^-53`` and every bound below loosens with it
(the tests run the fold in double too).

**Error bounds**, with ``gamma_k = k u_e / (1 - k u_e)`` (Higham, *Accuracy
and Stability of Numerical Algorithms*, ch. 3) and N = n - m + 1 parts:

- *each entry*: ``fl(fl(a x_k) + fl(p x_{k-j}))`` rounds each of its two
  non-negative terms twice, so after N parts every entry of 0..n, ``P{Y =
  n}`` among them, is within ``gamma_2N`` relatively of the exact fold of
  the stored masses (3.3e-17 at n = 300), plus ``2N 2^-1074`` for
  underflow;
- *conservation*: the heavier mass is ``fl(1 - light)``, so ``s_j = a_j +
  p_j`` is within ``u_e`` of 1.  With X the mass on 0..n and C the carried
  mass, a part maps their exact total to ``s_j X + C``, and each computed
  entry, on 0..n or carried, is within ``gamma_2`` of its value from the
  entries before, so the computed total M moves by a factor within
  ``(1 + gamma_2)(1 + u_e)`` of 1 per part, and ``|M - 1| <= gamma_3N``.
  Summing its 2n + 1 entries adds ``gamma_2n``, and underflow at most
  ``2^-1074`` per product:

      |T - 1| <= gamma_(3N + 2n) + 2 (n + 1) N 2^-1074,

  computed in double and rounded up by ``1 + 2^-40``; a larger drift raises
  :class:`NumericsError`.  On the benchmark's (m, n) the drift is at most
  6% of it, in long double and in double.

**The count.**  The rule on q^, the assembled count, is one bound E on
``|q^ - q_m(n)|``, from the rounding of what the code computes.  Its model
of libm: NumPy's ``exp`` and ``log`` of ``_FOLD`` are within ``gamma_4`` of
the exact value and ``log1p`` within ``gamma_8`` (on 4e4 sampled arguments,
NumPy 2.4 with glibc on x86-64 erred by at most 1.5, 1.3 and 4.3 ``u_e`` in
long double and 1.2, 1.1 and 1.0 in double; a test checks the model against
40-digit mpmath).  With ``tau_j = fl(|sigma| j)``,
the argument that the masses and the assembly share, and counts in units
of ``u_e``:

- *the arguments*: the identity holds exactly with ``tau_j / j`` as the
  tilt of part j, the masses ``1 / (1 + e^{tau_j})`` and 1 minus it, and
  the factors ``1 + e^{-sgn(sigma) tau_j}``: each partition S of n then
  weighs ``e^{sigma n - sgn(sigma) sum_{j in S} tau_j}``, not 1, and
  ``sum_{j in S} j = n`` puts that exponent within ``u_e |sigma| n``;
  ``fl(sigma n)`` adds as much, so 2 ``|sigma n|``;
- *the masses*: the lighter ``fl(1 / fl(1 + exp(tau_j)))`` is within
  ``gamma_6`` of its exact value, and the heavier ``fl(1 - light)`` within
  ``gamma_7``, as light <= heavy.  Every term of ``P{Y = n}`` is a product
  of N masses, so the exact fold of the stored masses is within
  ``gamma_7N`` of ``P_tau{Y = n}``, and the knapsack adds ``gamma_2N`` and
  ``2N t_e`` (t_e the smallest subnormal of ``_FOLD``): ``9N + 2N t_e /
  (u_e p^)``, p^ the computed ``P{Y = n}``; its log adds 4 ``|log p^|``;
- *the sum*: NumPy's ``logaddexp(0, x)`` is ``log1p(exp(-|x|))``, plus x
  when x > 0, so each of its N terms is positive and within ``gamma_13``
  of its value (an error of exp moves ``log1p(y)`` by at most as much
  relatively, as ``y / (1 + y) <= log1p(y)``); summing them in any order
  adds ``N - 1`` to each, so the sum L^ already formed reads its bound,
  ``(N + 12) L^``;
- *the assembly*: the two adds, ``|sigma n| + L^`` and ``|sigma n| + L^ +
  |log p^|``, and the final exp, 4.

Together, with each ``|.|`` the computed value,

    R = (N + 14) L^ + 4 |sigma n| + 5 |log p^| + 9N + 4 + 2N t_e / (u_e p^).

Each count above is at most R, so each piece is at most its share of ``R
u_e / (1 - 2 R u_e)``, which bounds ``|log q^ - log q_m(n)|``; as ``e^x - 1
<= x / (1 - x)``,

    |q^ - q_m(n)| <= E = q^ R u_e / (1 - 3 R u_e),

computed in double and rounded up by ``1 + 2^-40``, which also covers the
rounding of the test.  The derivation needs every lighter mass normal
(``tau_j`` below 708 in double), as it is at the solved tilts: ``|sigma|
n`` stayed below 60 over a scan of (m, n) under ``_MODEL_CAP``.

The count is ``rint(q^)`` when ``|q^ - rint(q^)| <= E < 1/2 - |q^ -
rint(q^)|``, so that it is the only integer the bound admits; otherwise
:class:`NumericsError` names q^ and E.  E grows with q^, and the
certified n form an initial segment at each m (a test checks 50 n past
the first refusal): on x86-64 (glibc, NumPy 2.4) n <= 496, 512, 529, 545,
562, 578, 594 and 610 at m = 1..8 in long double, and n <= 330, 344, 358,
371, 384, 397, 410 and 423 in double.  The 576 (m, n) of the benchmark's
partition requests (m 1..8, n 10..60 and 100..300 step 10) are all
certified in both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .convolve import _MAXLOG, _gamma
from .errors import LatticeError, NumericsError, PreconditionError
from .lattice import _integral

#: enumeration budget for the brute-force counter
ENUMERATION_LIMIT = 60

#: residual target for the centering equation
SIGMA_RESIDUAL_TOL = 1e-12

#: most points ``1 + m + ... + n`` the model may count over: a bound on the
#: work of its knapsack (``n - m + 1`` passes over ``n + 1`` entries), not on
#: what it allocates (``2n + 1`` entries)
_MODEL_CAP = 2**23

#: the precision of the model's knapsack: long double (a 64-bit significand
#: on x86-64; double where the platform's long double is double)
_FOLD = np.longdouble


def _expit(x: np.ndarray) -> np.ndarray:
    """The logistic ``1 / (1 + e^-x)`` of each entry of the 1-d array ``x``,
    with libm's ``exp`` (``math.exp``): scipy's ``expit``, the same doubles."""
    t = -x
    e = np.fromiter(map(math.exp, np.minimum(t, _MAXLOG).tolist()), float, len(t))
    e[t > _MAXLOG] = np.inf  # C's exp overflows to inf there, where math.exp raises
    return 1.0 / (1.0 + e)


def _normalize(m: int, n: int) -> tuple[int, int]:
    """``m`` and ``n`` as ints, each an int or an integral float (anything else
    is a ``LatticeError``); parts are at least 1, so m = 0 is read as m = 1."""
    return max(_integral(m, "m"), 1), _integral(n, "n")


def solve_sigma(m: int, n: int) -> float:
    """Solve ``g(sigma) = sum_{j=m..n} j/(1 + e^{sigma j}) - n = 0`` for sigma.

    Returns ``-inf`` when the equation degenerates (total part mass equals n,
    i.e. m = n, where the only partition is {n} itself).  Raises when no
    partition exists at all.  Otherwise one Newton iteration finds the root.
    g is decreasing, convex for sigma > 0 and concave for sigma < 0
    (``expit''(x)`` has the sign of -x), so the root's side is the sign of
    ``g(0) = sum_j j / 2 - n``.  A root at or below 0 (``sum_j j <= 2n``) is
    approached from sigma = 0, and in exact arithmetic each step lands
    between its iterate and the root.  A positive root is approached from
    ``pi / sqrt(12 n)``, where m = 1's sum ``sum_j j / (1 + e^{sigma j})`` is
    about ``pi^2 / (12 sigma^2) - 1/24`` (Euler-Maclaurin) and g about
    ``-1/24``; a larger m or a sum cut at n only lowers g there, so the
    start lies at or above the root, where g is convex, and its step lands
    below the root, from where the steps rise to it as from sigma = 0.
    (From sigma = 0, Newton's steps toward a positive root grow only about
    1.5-fold each while g is near ``c / sigma^2 - n``.)  The root lies in
    [-1, 1]: ``sum_j j / (1 + e^j) < e / (e - 1)^2 < 1 <= n`` puts ``g(1) <
    0``, and with m < n the parts sum to at least ``2n - 1``, so ``g(-1) > n
    - 2 >= 0``.  The loop keeps that bracket, moving its lower end to each
    iterate with a positive residual and its upper end to each other one; a
    step that leaves the bracket, or is not finite, bisects it instead.
    Each step takes g and ``g' = -sum_j j^2 x_j (1 - x_j)``, ``x_j =
    expit(-sigma j)``, from one call of :func:`_expit`.

    The loop stops at a residual of ``SIGMA_RESIDUAL_TOL``, or one step
    after the computed residual r falls within the bound B on its rounding:
    Newton's next exact residual is then of order ``r^2 g'' / g'^2``, far
    below B, so its computed residual is rounding that further steps only
    redraw.  (Stopping at the first r within B accepts up to B itself, 8e-7
    at n = 6e4; there the first such r is 2.2e-8, and the step after it
    leaves 7.3e-12, one ulp of n.)  The root is refused only when r exceeds
    both that target and B, which happens when the loop runs out of steps.
    It evaluates g at most 7 times on the benchmark's partition grid (5.0 on
    average) and 3 times at m = 1, n = 6e4 and 1e5.  From n = 8192 on, r is
    a multiple of half an ulp of n, which is above 1e-12, so the target
    cannot always be met.

    r is ``fl(fl(sum_j t_j) - n)`` over the ``N = n - m + 1`` terms
    ``t_j = fl(j * expit(fl(-sigma j)))``.  With unit roundoff u and to first
    order, each term errs by the relative ``(|sigma| j + 5) u``: the rounded
    argument moves ``expit`` by ``|sigma| j u`` (as ``|d log expit(x)/dx| <=
    1``), ``_expit`` (scipy's ``expit``) is within 4u (measured: 2.2u) and the product
    adds u.  A sum of N non-negative terms in any order errs by ``(N - 1) u``
    times their sum (Higham, *Accuracy and Stability of Numerical
    Algorithms*, ch. 4), the subtraction of n by ``u |r|``.  Doubling covers
    the higher-order terms while ``(N + |sigma| n + 5) u <= 1/2``:

        B = 2 u ((N + 4) sum_j t_j + |sigma| sum_j j t_j + |r|),

    about ``2 N n u``, as ``sum_j t_j`` is about n at the root.
    """
    m, n = _normalize(m, n)
    if n < 1:
        raise PreconditionError(f"need n >= 1, got {n}")
    if m > n:
        raise PreconditionError(f"no parts available: m = {m} > n = {n}")
    total = (m + n) * (n - m + 1) // 2
    if total < n:
        raise PreconditionError(f"infeasible: sum of available parts {total} < n = {n}")
    if total == n:
        return float("-inf")

    js = np.arange(m, n + 1, dtype=float)
    # g(0) = total/2 - n: a positive root starts near m = 1's, pi / sqrt(12 n)
    sigma = math.pi / math.sqrt(12 * n) if total > 2 * n else 0.0
    lo, hi, settled = -1.0, 1.0, False
    for _ in range(100):
        x = _expit(-sigma * js)
        t = js * x
        res = float(np.sum(t)) - n
        # the bound B of the docstring; 2**-52 is 2u
        bound = 2.0**-52 * ((len(js) + 4) * float(np.sum(t))
                            + abs(sigma) * float(np.sum(js * t)) + abs(res))
        if abs(res) <= SIGMA_RESIDUAL_TOL or settled:
            break
        settled = abs(res) <= bound
        if res > 0:
            lo = sigma
        else:
            hi = sigma
        slope = float(np.sum(js * t * (1 - x)))  # -g'(sigma)
        step = sigma + res / slope if slope else math.inf
        sigma = step if lo <= step <= hi else (lo + hi) / 2
    if abs(res) > SIGMA_RESIDUAL_TOL and abs(res) > bound:
        raise NumericsError(f"centering equation residual {res:.3e} above tolerance "
                            f"{SIGMA_RESIDUAL_TOL:.0e} and rounding bound {bound:.3e}")
    return sigma


def count_via_model(m: int, n: int) -> int:
    """Evaluate the tilted-model identity and return the integer count.

    ``P{Y = n}`` comes from the long-double knapsack of the module
    docstring and the product q^ is assembled in log space; the count is
    the integer nearest q^ when it is the only one within the rounding
    bound E of q^ (module docstring), and is refused with a
    :class:`NumericsError` naming q^ and E otherwise.
    """
    return count_partitions(m, n, "model").q_model


def _tilted_masses(m: int, n: int, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """``P{X_j = 0}`` and ``P{X_j = j}`` for j = m..n at the tilt ``sigma``,
    in ``_FOLD``: the lighter of the two is the logistic ``1 / (1 + e^{|sigma|
    j})`` and the heavier is 1 minus it (``sigma >= 0``: the mass at j is the
    lighter)."""
    t = np.arange(m, n + 1).astype(_FOLD) * _FOLD(abs(sigma))
    with np.errstate(over="ignore"):  # e^t is inf past the range, and light is 0
        light = 1 / (1 + np.exp(t))
    heavy = 1 - light
    return (heavy, light) if sigma >= 0 else (light, heavy)


def _knapsack(a: np.ndarray, p: np.ndarray, m: int, n: int) -> np.ndarray:
    """The law of ``Y = sum_j X_j`` on 0..n, for the parts ``j = m..n`` with
    ``P{X_j = 0} = a[j - m]`` and ``P{X_j = j} = p[j - m]``, followed on
    n + 1..2n by the mass each part carried past n, kept where it landed and
    never scaled again.  Part j maps ``acc[k]`` to ``a_j acc[k] + p_j acc[k -
    j]`` on 0..n, ``count_via_enumeration``'s loop with weights."""
    acc = np.zeros(2 * n + 1, dtype=a.dtype)
    acc[0] = 1
    law, shifted = acc[:n + 1], np.empty(n + 1, dtype=a.dtype)
    for j, aj, pj in zip(range(m, n + 1), a, p):
        np.multiply(law, pj, out=shifted)
        law *= aj
        acc[j:j + n + 1] += shifted
    return acc


def _model_estimate(m: int, n: int, sigma: float) -> tuple[np.floating, float]:
    """The model count q^ of ``(m, n)`` at the tilt ``sigma`` (any real sigma;
    ``-inf``, the solved tilt of m = n, is read as 0) and its rounding bound
    E, ``|q^ - q_m(n)| <= E`` (module docstring): the masses, their knapsack,
    its conservation check, ``P{Y = n} > 0``, and the identity assembled in
    ``_FOLD``."""
    if sigma == float("-inf"):
        sigma = 0.0  # the identity holds for every sigma; pick a benign one
    a, p = _tilted_masses(m, n, sigma)
    acc = _knapsack(a, p, m, n)
    # the conservation bound of the module docstring, rounded up
    ue, parts = float(np.finfo(_FOLD).epsneg), n - m + 1
    bound = (_gamma(3 * parts + 2 * n, ue) + 2 * (n + 1) * parts * 2.0**-1074) * (1.0 + 2.0**-40)
    drift = float(abs(acc.sum() - 1))
    if not drift <= bound:
        raise NumericsError(f"knapsack mass drifted by {drift:.3e}, beyond its error bound "
                            f"{bound:.3e}")
    p_y = acc[n]
    if p_y <= 0:
        raise NumericsError(f"P{{Y = {n}}} vanished; identity cannot be assembled")
    s = _FOLD(sigma)
    tilt, log_p = s * n, np.log(p_y)
    terms = np.logaddexp(_FOLD(0), -s * np.arange(m, n + 1).astype(_FOLD)).sum()
    q_real = np.exp(tilt + terms + log_p)
    # the rounding count R and the bound E of the module docstring, rounded up
    r = ((parts + 14) * float(terms) + 4 * abs(float(tilt)) + 5 * abs(float(log_p)) + 9 * parts
         + 4 + float(2 * parts * np.finfo(_FOLD).smallest_subnormal / p_y) / ue)
    return q_real, float(q_real) * r * ue / (1 - 3 * r * ue) * (1 + 2.0**-40)


def _model_count(m: int, n: int, sigma: float) -> int:
    """:func:`count_via_model` at the tilt ``sigma``: the integer nearest
    q^, where it is the only one within the rounding bound E of q^."""
    q_real, err = _model_estimate(m, n, sigma)
    nearest = np.rint(q_real)
    off = abs(q_real - nearest)
    if not (off <= err and err < 0.5 - off):
        raise NumericsError(f"model count {float(q_real)!r} has the rounding bound {err:.3e}, "
                            "which admits no single integer; refusing to round")
    return int(nearest)


def count_via_enumeration(m: int, n: int) -> int:
    """Count partitions of n into distinct parts >= m by the 0/1 knapsack
    over the parts m..n: ``counts[t]`` is the number of ways to write t with
    the parts taken so far.

    Pure integer arithmetic; refuses n beyond the enumeration budget.
    """
    m, n = _normalize(m, n)
    if n < 1:
        raise PreconditionError(f"need n >= 1, got {n}")
    if n > ENUMERATION_LIMIT:
        raise PreconditionError(f"enumeration budget exceeded: n = {n} > {ENUMERATION_LIMIT}")
    counts = [1] + [0] * n
    for j in range(m, n + 1):
        for t in range(n, j - 1, -1):
            counts[t] += counts[t - j]
    return counts[n]


@dataclass(frozen=True)
class PartitionInstance:
    """One solved instance: tilt parameter and the two counts.  ``sigma`` is
    None where the centring equation degenerates (m = n), so the JSON holds
    ``null`` there, not the ``-Infinity`` that RFC 8259 lacks."""

    m: int
    n: int
    sigma: float | None
    q_model: int | None
    q_enum: int | None


def count_partitions(m: int, n: int, mode: str = "both") -> PartitionInstance:
    """Run the requested counters and package the result.

    The model's cap, ``_MODEL_CAP`` on ``1 + m + ... + n`` (the length of
    the whole model law, a bound on the knapsack's work; the message names
    that sum and the cap), and then the enumeration, with its budget, come
    before the tilt is solved, so a refused n costs no work in n."""
    if mode not in ("model", "enum", "both"):
        raise PreconditionError(f"unknown mode {mode!r}")
    m, n = _normalize(m, n)
    if mode != "enum" and m <= n and (length := 1 + (m + n) * (n - m + 1) // 2) > _MODEL_CAP:
        raise LatticeError(f"partition model: 1 + {m} + ... + {n} = {length}, above the cap "
                           f"of {_MODEL_CAP}")
    q_enum = count_via_enumeration(m, n) if mode != "model" else None
    sigma = solve_sigma(m, n)
    q_model = _model_count(m, n, sigma) if mode != "enum" else None
    if q_model is not None and q_enum is not None and q_model != q_enum:
        raise NumericsError(f"model count {q_model} disagrees with enumeration {q_enum}")
    return PartitionInstance(m=m, n=n, sigma=None if sigma == -math.inf else sigma,
                             q_model=q_model, q_enum=q_enum)
