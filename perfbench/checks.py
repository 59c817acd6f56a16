"""Independent output checks that feed ``wrong_ratio``.

Each reference is recomputed here from the generated inputs, with numpy and
the Python standard library only: nothing is imported from lltkit, and no
verdict the program prints (``sandwich_ok``, ``all_pass``) is trusted on its
own.  ``check`` returns None when the output agrees with the reference and a
one-line reason when it does not.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from functools import lru_cache

import numpy as np

from workloads import Request, law_stats

#: relative tolerance for values the program computes by exact finite sums
REL_TOL = 1e-9
#: relative tolerance for the Gamkrelidze statistic M and the calibrated c0,
#: both differences of nearly equal numbers
DIFF_TOL = 1e-7
#: Monte Carlo estimates must lie within this many standard errors
MC_SIGMAS = 5.0

#: published envelope constants: c1 = max(4, c0), c2 = 12 (c1 + 1),
#: c3 = max(c2, 2^1.5 ce), with the literature default ce
CE = 0.56
C1 = 4.0
C2 = 12.0 * (C1 + 1.0)
C3 = max(C2, 2.0**1.5 * CE)


class Mismatch(Exception):
    """An output disagrees with its reference."""


def _close(value: float, ref: float, scale: float | None = None, rel: float = REL_TOL) -> bool:
    scale = abs(ref) if scale is None else scale
    return abs(value - ref) <= rel * scale + 1e-300


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


# ---------------------------------------------------------------------------
# references


@lru_cache(maxsize=4)
def sum_law(probs: tuple[float, ...], n: int) -> np.ndarray:
    """``P{S_n = j}`` for j = 0..n(k-1): the n-th power of the pmf's discrete
    Fourier transform, on a grid exactly as long as the sum's support."""
    length = n * (len(probs) - 1) + 1
    return np.fft.irfft(np.fft.rfft(np.asarray(probs), length) ** n, length)


@lru_cache(maxsize=8)
def distinct_partitions(m: int, n_max: int) -> tuple[int, ...]:
    """q_m(n) for n = 0..n_max: coefficients of prod_{j >= m} (1 + x^j),
    exact Python integers."""
    coeffs = [1] + [0] * n_max
    for j in range(m, n_max + 1):
        for s in range(n_max, j - 1, -1):
            coeffs[s] += coeffs[s - j]
    return tuple(coeffs)


@lru_cache(maxsize=1)
def c0_scan(n_max: int) -> np.ndarray:
    """Scaled fair-coin/Gaussian gaps for n = 1..n_max in extended precision."""
    row = np.array([1.0], dtype=np.longdouble)
    out = np.empty(n_max, dtype=np.longdouble)
    pi = np.longdouble(math.pi)
    for n in range(1, n_max + 1):
        nxt = np.zeros(n + 1, dtype=np.longdouble)
        nxt[:-1] += row
        nxt[1:] += row
        row = nxt / 2
        z = np.arange(n + 1, dtype=np.longdouble)
        gauss = np.sqrt(2 / (pi * n)) * np.exp(-((2 * z - n) ** 2) / (2 * n))
        out[n - 1] = np.longdouble(n) ** np.longdouble(1.5) * np.abs(row - gauss).max()
    return out


def _envelope_ref(probs, n: int, envelope: str, kappa: float) -> tuple[float, float, float]:
    """(gaussian, lower, upper) of the bounded-plug-in envelopes of an iid sum
    in closed form: Theta_n = n theta, E S_n = n mean, Var S_n = n var,
    L_n = n E|X|^3 / Var^{3/2}, rho = the Chernoff bound."""
    mean, var, theta = law_stats(list(probs))
    theta_n, mean_n, var_n = n * theta, n * mean, n * var
    third = sum(j**3 * p for j, p in enumerate(probs))
    l_n = n * third / var_n**1.5
    h_n = 2.0**1.5 * CE * l_n
    dev2 = (kappa - mean_n) ** 2
    base = 1.0 / math.sqrt(2.0 * math.pi * var_n)
    gauss = base * math.exp(-dev2 / (2.0 * var_n))
    log_t = math.log(theta_n)
    if envelope == "sandwich":
        grows = log_t / theta_n <= 1.0 / 14.0
        h = math.sqrt(7.0 * log_t / (2.0 * theta_n)) if grows else 0.25
        rho = 2.0 * math.exp(-(h * h) * theta_n / (2.0 * (1.0 + h / 3.0)))
        shrunk = (1.0 - h) * theta_n
        t = C1 / math.sqrt(shrunk)
        g_up = base * math.exp(-dev2 / (2.0 * (1.0 + h) * var_n))
        g_lo = base * math.exp(-dev2 / (2.0 * (1.0 - h) * var_n))
        upper = (1.0 + h) / (1.0 - h) * g_up + t * (h_n + 1.0 / shrunk) + rho
        lower = (1.0 - h) / (1.0 + h) * g_lo - t * (h_n + 1.0 / shrunk + 2.0 * rho) - rho
        return gauss, lower, upper
    const, plug = (C2, h_n) if envelope == "central" else (C3, l_n)
    half = const * (math.sqrt(log_t / (var_n * theta_n)) + (plug + 1.0 / theta_n) / math.sqrt(theta_n))
    return gauss, gauss - half, gauss + half


def _gaussian(probs, n: int, kappa: float) -> float:
    mean, var, _ = law_stats(list(probs))
    return math.exp(-((kappa - n * mean) ** 2) / (2.0 * n * var)) / math.sqrt(2.0 * math.pi * n * var)


# ---------------------------------------------------------------------------
# per-command checks


def _csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _check_sweep(req: Request, text: str) -> None:
    ref = req.ref
    probs, n = tuple(ref["probs"]), ref["n"]
    lo, hi = ref["kappas"]
    rows = [json.loads(text)] if "--kappa" in req.argv else _csv_rows(text)
    kappas = [float(r["kappa"]) for r in rows]
    _expect(kappas == [float(k) for k in range(lo, hi + 1)], f"kappa grid {kappas[:3]}...")
    exact_mode = ref["mode"] == "exact-plug-ins"
    law = sum_law(probs, n) if exact_mode else None
    for row, kappa in zip(rows, kappas):
        gauss, lower, upper = (float(row[c]) for c in ("gaussian", "lower", "upper"))
        if exact_mode:
            exact = float(row["exact"])
            ref_p = float(law[int(kappa)])
            _expect(_close(exact, ref_p), f"exact {exact!r} != reference {ref_p!r} at {kappa}")
            _expect(lower <= ref_p <= upper, f"reference {ref_p!r} outside [{lower}, {upper}]")
            _expect(_close(gauss, _gaussian(probs, n, kappa)), f"gaussian at {kappa}")
        else:
            g_ref, lo_ref, up_ref = _envelope_ref(probs, n, ref["envelope"], kappa)
            scale = max(abs(lo_ref), abs(up_ref))
            _expect(_close(gauss, g_ref), f"gaussian {gauss!r} != {g_ref!r} at {kappa}")
            _expect(_close(lower, lo_ref, scale), f"lower {lower!r} != {lo_ref!r} at {kappa}")
            _expect(_close(upper, up_ref, scale), f"upper {upper!r} != {up_ref!r} at {kappa}")


def _check_scenery(req: Request, text: str) -> None:
    ref = req.ref
    out = json.loads(text)
    mc = out["monte_carlo"]
    samples = ref["samples"]
    _expect(mc["samples"] == samples, "sample count")
    law = sum_law(tuple(ref["probs"]), ref["n"])
    p = float(law[ref["kappa"]])
    sigma = math.sqrt(p * (1.0 - p) / samples)
    _expect(abs(mc["p_hat"] - p) <= MC_SIGMAS * sigma,
            f"p_hat {mc['p_hat']!r} vs exact {p!r}, {MC_SIGMAS} sigma = {MC_SIGMAS * sigma:.3g}")
    lo3, hi3 = mc["p_hat"] - 3.0 * mc["stderr"], mc["p_hat"] + 3.0 * mc["stderr"]
    _expect(_close(mc["ci3_low"], lo3) and _close(mc["ci3_high"], hi3), "3-sigma interval")
    _expect(out["lower"] <= lo3 and hi3 <= out["upper"], "3-sigma interval outside the envelope")
    _expect(_close(out["gaussian"], _gaussian(ref["probs"], ref["n"], ref["kappa"])), "gaussian")


def _check_gamkrelidze(req: Request, text: str) -> None:
    ref = req.ref
    out = json.loads(text)
    check = out["pointwise_check"]
    _expect(check["pointwise_ok"] and check["gaussian_ok"], "pointwise check did not pass")
    probs, n = tuple(ref["probs"]), ref["n"]
    mean, var, _ = law_stats(list(probs))
    _expect(_close(out["a_n"], n * mean) and _close(out["b_n"], n * var), "a_n / b_n")
    law = sum_law(probs, n)
    m_ref = n * var * float(np.abs(np.diff(np.concatenate([[0.0], law, [0.0]]))).max())
    _expect(_close(out["M"], m_ref, rel=DIFF_TOL), f"M {out['M']!r} != reference {m_ref!r}")


def _check_partition(req: Request, text: str) -> None:
    ref = req.ref
    out = json.loads(text)
    q = distinct_partitions(ref["m"], max(ref["n"], 300))[ref["n"]]
    _expect(out["m"] == ref["m"] and out["n"] == ref["n"], "m / n echo")
    _expect(out["q_model"] == q, f"q_model {out['q_model']} != {q}")
    if ref["mode"] == "both":
        _expect(out["q_enum"] == q, f"q_enum {out['q_enum']} != {q}")


def _check_calibrate(req: Request, text: str) -> None:
    n_max = req.ref["n_max"]
    out = json.loads(text)
    scan = c0_scan(max(n_max, 5000))[:n_max]
    best = float(scan.max())
    _expect(_close(out["c0"], best, rel=DIFF_TOL), f"c0 {out['c0']!r} != reference {best!r}")
    _expect(out["ce"] == CE, "ce")
    at = re.search(r"attained at n = (\d+)", out["provenance"])
    _expect(at is not None and 1 <= int(at.group(1)) <= n_max, "argmax missing from provenance")
    _expect(float(scan[int(at.group(1)) - 1]) >= best * (1.0 - DIFF_TOL), "argmax is not a maximum")


_CHECKS = {
    "llt-bound": _check_sweep,
    "scenery": _check_scenery,
    "gamkrelidze": _check_gamkrelidze,
    "partition": _check_partition,
    "calibrate": _check_calibrate,
}


def check(req: Request, text: str) -> str | None:
    """None when ``text`` (the request's stdout) agrees with the reference,
    else the reason it does not."""
    try:
        _CHECKS[req.command](req, text)
    except Mismatch as exc:
        return str(exc)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
    return None
