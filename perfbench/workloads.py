"""Seeded request lists for the four benchmark workloads.

Every size comes from a fixed low-discrepancy design with a small seeded
jitter, and every category (support size, envelope, law shape, partition m)
cycles in a fixed order.  Any prefix of a list therefore has nearly the same
cost profile whatever the seed, which keeps run-to-run spread small, while
the seed still changes every input: each size and law parameter moves
within its cell, and the scenery increment weights are drawn afresh.

This module imports numpy but nothing from lltkit: the generated inputs and
the references in ``checks.py`` are independent of the program under test.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("sweep-exact", "sweep-bounded", "scenery-mc", "exact-oracles")

#: Input sizes.  ``full`` is what the benchmark measures; ``tiny`` only
#: exercises every code path quickly (smoke test).
SIZES = {
    "full": {
        "exact_n": (300, 900),
        "bounded_n": (2000, 6000),
        "bounded_points": (5, 11),
        "scenery_n": (32, 128),
        "scenery_samples": 40_000,
        "gamkrelidze_n": (2000, 8000),
        "partition_model_n": (100, 300),
        "partition_both_n": (10, 60),
        "calibrate_n_max": (2000, 5000),
    },
    "tiny": {
        "exact_n": (150, 250),
        "bounded_n": (300, 600),
        "bounded_points": (3, 5),
        "scenery_n": (8, 16),
        "scenery_samples": 5_000,
        "gamkrelidze_n": (100, 300),
        "partition_model_n": (20, 60),
        "partition_both_n": (10, 20),
        "calibrate_n_max": (50, 100),
    },
}

#: target variance band of generated pmfs with three or more support points
_VAR_BAND = (0.3, 0.6)

#: requests generated per list; runs cycle the list if they get through it
LIST_LENGTH = 240

#: largest seeded move of a design coordinate (sizes are drawn from [0, 1))
JITTER = 0.02


@dataclass
class Request:
    """One request of the closed loop.

    ``argv`` is the lltkit command line; ``files`` maps input file names,
    which ``argv`` refers to by ``{dir}/name``, to the JSON written during
    set-up.  ``ref`` holds what the checker needs.  ``command ==
    "calibrate"`` is a direct ``bounds.calibrated_registry`` call, not a CLI
    request.
    """

    command: str
    argv: list[str]
    ref: dict
    files: dict = field(default_factory=dict)
    points: int = 0
    mc_samples: int = 0


# ---------------------------------------------------------------------------
# sequences and laws


def _design(rng: np.random.Generator, count: int, dims: int) -> np.ndarray:
    """``count`` points in [0, 1)^dims: the R_d low-discrepancy sequence with a
    fixed shift, each coordinate moved by a seeded jitter of at most
    ``JITTER / 2``.  The skeleton fixes the cost profile of every prefix; the
    seed moves sizes a little and draws the law shapes."""
    phi = 2.0
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (dims + 1))
    alpha = phi ** -np.arange(1, dims + 1)
    i = np.arange(1, count + 1)[:, None]
    skeleton = (0.5 + i * alpha) % 1.0
    jitter = (rng.random((count, dims)) - 0.5) * JITTER
    return np.clip(skeleton + jitter, 0.0, np.nextafter(1.0, 0.0))


def _log_between(bounds: tuple[float, float], u: float) -> int:
    lo, hi = bounds
    return int(round(math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))))


def _lin_between(bounds: tuple[float, float], u: float) -> int:
    lo, hi = bounds
    return int(round(lo + u * (hi - lo)))


def law_stats(probs: list[float]) -> tuple[float, float, float]:
    """(mean, variance, theta) of a pmf on {0, 1, ..., len(probs) - 1}."""
    ks = np.arange(len(probs))
    p = np.asarray(probs)
    mean = float(ks @ p)
    var = float(((ks - mean) ** 2) @ p)
    theta = float(np.minimum(p[:-1], p[1:]).sum())
    return mean, var, theta


def _probs(k: int, u_var: float, u_shape: float) -> list[float]:
    """Probabilities on {0..k-1} with theta > 0.

    Two points: P{1} = 0.3 + 0.4 u_var.  Three or more: a wide discretized
    Gaussian centred at (k - 1) u_shape, mixed with a fair coin on two
    adjacent points, the mixing weight solved so that the variance hits
    ``_VAR_BAND`` at u_var.  Pinning the variance pins the width of a +-2 sd
    window, and so the cost of a sweep.  The law is a smooth function of
    (u_var, u_shape): the far tails of its n-fold sums, whose subnormal
    masses can make a convolution several times slower, then cost about the
    same for nearby design points, whatever the seed.
    """
    if k == 2:
        p = 0.3 + 0.4 * u_var
        return [1.0 - p, p]
    target = _VAR_BAND[0] + u_var * (_VAR_BAND[1] - _VAR_BAND[0])
    shape = np.exp(-((np.arange(k) - (k - 1) * u_shape) ** 2) / (2.0 * k * k))
    mean, var, _ = law_stats(list(shape / shape.sum()))
    coin = np.zeros(k)
    c = min(int(mean), k - 2)
    coin[c] = coin[c + 1] = 0.5
    # var((1-a) coin + a shape) = 1/4 + a (var - 1/4 + d^2) - a^2 d^2
    d2 = (mean - (c + 0.5)) ** 2
    b = var - 0.25 + d2
    if d2 < 1e-12:
        a = (target - 0.25) / (var - 0.25)
    else:
        a = (b - math.sqrt(b * b - 4.0 * d2 * (target - 0.25))) / (2.0 * d2)
    p = (1.0 - a) * coin + a * shape / shape.sum()
    return [float(x) for x in p / p.sum()]


def _skewed_probs(k: int, u: float) -> list[float]:
    """A discretized Gaussian of width 0.8 centred at (k - 1) u: symmetric in
    the middle of the range, increasingly skewed towards its ends."""
    w = np.exp(-((np.arange(k) - (k - 1) * u) ** 2) / (2.0 * 0.8 * 0.8))
    return [float(x) for x in w / w.sum()]


def _pmf_json(probs: list[float]) -> dict:
    return {"v0": 0.0, "D": 1.0, "probs": [[j, w] for j, w in enumerate(probs)]}


def _central_half_width(theta_n: float) -> float | None:
    """Largest |kappa - E S_n| / sd admitted by the central envelope, or None
    when its growth condition fails."""
    if theta_n <= 1.0 or math.log(theta_n) / theta_n > 1.0 / 14.0:
        return None
    return math.sqrt(math.sqrt(theta_n / (14.0 * math.log(theta_n))))


def _psi_half_width(theta_n: float) -> float | None:
    if theta_n <= 1.0 or math.log(theta_n) / theta_n > 1.0 / 14.0:
        return None
    return math.sqrt(math.sqrt(7.0 * math.log(theta_n) / (2.0 * theta_n)))


# ---------------------------------------------------------------------------
# workloads


def _sweep_exact(rng, sizes, count) -> list[Request]:
    u = _design(rng, count, 3)
    out = []
    for i in range(count):
        k = 2 + i % 5
        envelope = "central" if i % 4 == 3 else "sandwich"
        n = _log_between(sizes["exact_n"], u[i, 0])
        probs = _probs(k, u[i, 1], u[i, 2])
        mean, var, theta = law_stats(probs)
        sd = math.sqrt(n * var)
        half = 2.0
        if envelope == "central":
            limit = _central_half_width(n * theta)
            if limit is None or limit * sd < 1.0:
                envelope = "sandwich"
            else:
                half = min(half, 0.999 * limit)
        lo, hi = math.ceil(n * mean - half * sd), math.floor(n * mean + half * sd)
        name = f"r{i:04d}.json"
        out.append(
            Request(
                command="llt-bound",
                argv=["llt-bound", "{dir}/" + name, "--n", str(n), "--mode", "exact-plug-ins",
                      "--envelope", envelope, "--kappa-from", str(lo), "--kappa-to", str(hi),
                      "--format", "csv"],
                files={name: _pmf_json(probs)},
                ref={"probs": probs, "n": n, "mode": "exact-plug-ins", "envelope": envelope,
                     "kappas": [lo, hi]},
                points=hi - lo + 1,
            )
        )
    return out


def _sweep_bounded(rng, sizes, count) -> list[Request]:
    u = _design(rng, count, 4)
    p_lo, p_hi = sizes["bounded_points"]
    out = []
    for i in range(count):
        k = 2 + i % 5
        envelope = ("sandwich", "central", "psi")[i % 3]
        n = _log_between(sizes["bounded_n"], u[i, 0])
        probs = _probs(k, u[i, 1], u[i, 3])
        mean, var, theta = law_stats(probs)
        sd = math.sqrt(n * var)
        center = round(n * mean)
        name = f"r{i:04d}.json"
        argv = ["llt-bound", "{dir}/" + name, "--n", str(n), "--mode", "bounded-plug-ins",
                "--envelope", envelope]
        if envelope == "psi":
            reach = int(0.9 * _psi_half_width(n * theta) * sd - 0.5)
            kappa = center + round((2.0 * u[i, 2] - 1.0) * reach)
            argv += ["--kappa", str(kappa)]
            kappas = [kappa, kappa]
        else:
            half = (p_lo + round(u[i, 2] * (p_hi - p_lo))) // 2
            if envelope == "central":
                half = min(half, int(0.9 * _central_half_width(n * theta) * sd - 0.5))
            kappas = [center - half, center + half]
            argv += ["--kappa-from", str(kappas[0]), "--kappa-to", str(kappas[1]),
                     "--format", "csv"]
        out.append(
            Request(
                command="llt-bound",
                argv=argv,
                files={name: _pmf_json(probs)},
                ref={"probs": probs, "n": n, "mode": "bounded-plug-ins", "envelope": envelope,
                     "kappas": kappas},
                points=kappas[1] - kappas[0] + 1,
            )
        )
    return out


def _scenery_mc(rng, sizes, count, seed) -> list[Request]:
    u = _design(rng, count, 4)
    out = []
    for i in range(count):
        shape = ("fair", "skewed", "three-point")[i % 3]
        max_inc = 2 + i % 4
        n = _lin_between(sizes["scenery_n"], u[i, 0])
        if shape == "fair":
            x = [0.5, 0.5]
        elif shape == "skewed":
            p = 0.15 + 0.2 * u[i, 1]
            x = [1.0 - p, p]
        else:
            x = _probs(3, u[i, 1], u[i, 3])
        inc = list(rng.dirichlet(np.ones(max_inc)))
        mean, _, theta = law_stats(x)
        vartheta = theta * (0.5 + 0.5 * u[i, 2])
        kappa = round(n * mean)
        samples = sizes["scenery_samples"]
        mc_seed = (seed * 1_000_003 + i) % (2**62)
        model = {
            "x_law": _pmf_json(x),
            "increments": {"v0": 0.0, "D": 1.0,
                           "probs": [[j + 1, float(w)] for j, w in enumerate(inc)]},
            "n": n,
            "vartheta": vartheta,
        }
        name = f"r{i:04d}.json"
        out.append(
            Request(
                command="scenery",
                argv=["scenery", "{dir}/" + name, "--kappa", str(kappa), "--h", "0.25",
                      "--mc", str(samples), "--seed", str(mc_seed)],
                files={name: model},
                ref={"probs": x, "n": n, "kappa": kappa, "samples": samples,
                     "max_inc": max_inc},
                points=1,
                mc_samples=samples,
            )
        )
    return out


#: one block of the exact-oracles list: 4 gamkrelidze, 8 model partitions,
#: 3 model-vs-enumeration partitions and one c0 calibration
_ORACLE_BLOCK = (
    "gamkrelidze", "model", "model", "both",
    "gamkrelidze", "model", "model", "calibrate",
    "gamkrelidze", "model", "model", "both",
    "gamkrelidze", "model", "model", "both",
)


def _exact_oracles(rng, sizes, count) -> list[Request]:
    seqs = {kind: _design(rng, count, 2) for kind in sorted(set(_ORACLE_BLOCK))}
    seen = dict.fromkeys(seqs, 0)
    out = []
    for i in range(count):
        kind = _ORACLE_BLOCK[i % len(_ORACLE_BLOCK)]
        j = seen[kind]
        seen[kind] += 1
        u = seqs[kind][j]
        if kind == "gamkrelidze":
            n = _log_between(sizes["gamkrelidze_n"], u[0])
            probs = _skewed_probs(2 + j % 3, u[1])
            name = f"r{i:04d}.json"
            out.append(Request(command="gamkrelidze",
                               argv=["gamkrelidze", "{dir}/" + name, "--n", str(n)],
                               files={name: _pmf_json(probs)},
                               ref={"probs": probs, "n": n}))
        elif kind == "calibrate":
            n_max = _lin_between(sizes["calibrate_n_max"], u[0])
            out.append(Request(command="calibrate", argv=[],
                               ref={"n_max": n_max}))
        else:
            m = 1 + j % 8
            lo, hi = sizes["partition_model_n" if kind == "model" else "partition_both_n"]
            if kind == "model":
                # the grid of step 10 over [lo, hi]; the low-discrepancy draw
                # fixes the share of every n band independently of the seed
                n = lo + 10 * min(int(u[0] * ((hi - lo) // 10 + 1)), (hi - lo) // 10)
            else:
                n = _lin_between((lo, hi), u[0])
            out.append(Request(command="partition",
                               argv=["partition", "--m", str(m), "--n", str(n),
                                     "--mode", kind],
                               ref={"m": m, "n": n, "mode": kind}))
    return out


def build(workload: str, seed: int, size: str = "full",
          count: int = LIST_LENGTH) -> list[Request]:
    """The request list of a workload; identical for identical arguments."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    sizes = SIZES[size]
    if workload == "sweep-exact":
        return _sweep_exact(rng, sizes, count)
    if workload == "sweep-bounded":
        return _sweep_bounded(rng, sizes, count)
    if workload == "scenery-mc":
        return _scenery_mc(rng, sizes, count, seed)
    if workload == "exact-oracles":
        return _exact_oracles(rng, sizes, count)
    raise ValueError(f"unknown workload {workload!r}")


def warmup(workload: str) -> Request:
    """A small request of the workload's own subcommand, run once in set-up."""
    coin = [0.5, 0.5]
    if workload == "sweep-exact":
        return Request(command="llt-bound",
                       argv=["llt-bound", "{dir}/warmup.json", "--n", "64", "--mode",
                             "exact-plug-ins", "--kappa-from", "30", "--kappa-to", "34",
                             "--format", "csv"],
                       files={"warmup.json": _pmf_json(coin)},
                       ref={"probs": coin, "n": 64, "mode": "exact-plug-ins",
                            "envelope": "sandwich", "kappas": [30, 34]},
                       points=5)
    if workload == "sweep-bounded":
        return Request(command="llt-bound",
                       argv=["llt-bound", "{dir}/warmup.json", "--n", "400", "--mode",
                             "bounded-plug-ins", "--kappa-from", "199", "--kappa-to", "201",
                             "--format", "csv"],
                       files={"warmup.json": _pmf_json(coin)},
                       ref={"probs": coin, "n": 400, "mode": "bounded-plug-ins",
                            "envelope": "sandwich", "kappas": [199, 201]},
                       points=3)
    if workload == "scenery-mc":
        model = {"x_law": _pmf_json(coin),
                 "increments": {"v0": 0.0, "D": 1.0, "probs": [[1, 0.5], [2, 0.5]]},
                 "n": 8, "vartheta": 0.5}
        return Request(command="scenery",
                       argv=["scenery", "{dir}/warmup.json", "--kappa", "4", "--h", "0.25",
                             "--mc", "2000", "--seed", "1"],
                       files={"warmup.json": model},
                       ref={"probs": coin, "n": 8, "kappa": 4, "samples": 2000, "max_inc": 2},
                       points=1, mc_samples=2000)
    return Request(command="partition",
                   argv=["partition", "--m", "1", "--n", "20", "--mode", "both"],
                   ref={"m": 1, "n": 20, "mode": "both"})


def write_inputs(requests: list[Request], directory: str) -> None:
    """Write every request's input files into ``directory``."""
    os.makedirs(directory, exist_ok=True)
    for req in requests:
        for name, obj in req.files.items():
            with open(os.path.join(directory, name), "w", encoding="utf-8") as fobj:
                fobj.write(json.dumps(obj))


def resolve(req: Request, directory: str) -> list[str]:
    return [a.replace("{dir}", directory) for a in req.argv]


def list_hash(requests: list[Request]) -> str:
    """sha256 of the request list (argv and input contents), directory-free."""
    canon = [[r.command, r.argv, r.files, r.ref] for r in requests]
    return hashlib.sha256(json.dumps(canon, sort_keys=True).encode()).hexdigest()
