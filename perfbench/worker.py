"""One benchmark process: set-up, the timed closed loop, the traced replay.

Started by ``run.py``, never by hand.  It imports lltkit from the checkout's
``src`` directory, writes the seeded inputs, runs one warm-up request and
prints ``ready``.  With ``--setup-only`` it stops there.  Otherwise one
client sends the first ``requests_for(--seconds)`` requests of the list
through ``lltkit.cli.main`` in process, one after the other, checking every
output between requests (outside the timed region).  A fixed count, not a
deadline, ends the loop, so every run of a seed measures the same requests
and the tail percentile stays the same from run to run.  With ``--trace 1``
it runs the first ``TRACE_REQUESTS`` requests and then replays them with the
tracer installed.  The last stdout line is one JSON object with the results.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass

import numpy as np

import checks
import workloads
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: wall-clock cap on one process's timed phases, so that a run ends within
#: 180 s even when checks or tracing are slow
HARD_CAP_S = 110.0

#: requests per second of ``--seconds`` at the reference speed, about what
#: each workload completed when the benchmark was defined
REQUESTS_PER_SECOND = {"sweep-exact": 4.75, "sweep-bounded": 6.5, "scenery-mc": 6.5,
                       "exact-oracles": 16.0}

#: request counts are whole blocks of the exact-oracles list
BLOCK = 16

#: requests in a traced run: two blocks
TRACE_REQUESTS = 2 * BLOCK


def requests_for(workload: str, seconds: float) -> int:
    """Requests in an untraced run of about ``seconds`` at the reference speed."""
    return max(1, math.ceil(seconds * REQUESTS_PER_SECOND[workload] / BLOCK)) * BLOCK


@dataclass
class Outcome:
    index: int
    code: int
    latency: float  # wall seconds inside the program
    scaled: float  # the same at the reference machine speed
    wrong: str | None
    digest: str


_PROBE_LAW = {k: 1.0 / (k + 2) for k in range(6)}


def _probe_python() -> float:
    f = _PROBE_LAW
    t0 = time.perf_counter()
    for _ in range(300):
        math.fsum(min(p, f[k + 1]) for k, p in f.items() if k + 1 in f)
        math.fsum((k - 2.5) ** 2 * p for k, p in f.items())
    return time.perf_counter() - t0


def _probe_numpy() -> float:
    t0 = time.perf_counter()
    a = np.full(500, 1.0 / 500)
    np.convolve(a, a)
    rng = np.random.default_rng(1)
    steps = rng.integers(1, 3, size=(1024, 64), dtype=np.int8)
    sites = np.cumsum(steps, axis=1, dtype=np.int64) - 1
    scenery = rng.integers(0, 2, size=(1024, 192), dtype=np.int8)
    np.take_along_axis(scenery, sites, axis=1).sum(axis=1, dtype=np.int64)
    return time.perf_counter() - t0


#: nominal seconds of the two probe parts
PROBE_NOMINAL_S = (0.0012, 0.0020)

#: exponents (interpreter, numpy) that turn the two parts' slowdowns into a
#: workload's slowdown, fitted by least squares on interleaved probe/request
#: timings (about 160 of each workload's requests over 150 s, two cores
#: shared with other tenants); they cut the spread of log request time from
#: 0.17-0.29 to 0.06-0.10
PROBE_EXPONENTS = {
    "sweep-exact": (0.65, 0.3),
    "sweep-bounded": (0.45, 0.65),
    "scenery-mc": (0.3, 0.3),
    "exact-oracles": (0.4, 0.55),
}


def probe(workload: str) -> float:
    """How much slower than the reference speed the machine now runs work
    like the workload's own.

    The benchmark shares two cores with other tenants, and the speed they
    leave varies by tens of percent over seconds, for CPU time as much as
    for wall time.  Every request is therefore bracketed by probes, and its
    latency is also reported divided by the slowdown they show.  The probe
    times dictionary loops with ``math.fsum`` (like ``theta`` and
    ``moments``) and numpy convolution, sampling, cumsum and gather (like the
    oracles and the Monte Carlo sampler), each the faster of two tries so
    that a single interrupt does not count as a slow machine, and combines
    the two slowdowns with ``PROBE_EXPONENTS``.
    """
    a, b = PROBE_EXPONENTS[workload]
    py = min(_probe_python(), _probe_python()) / PROBE_NOMINAL_S[0]
    vec = min(_probe_numpy(), _probe_numpy()) / PROBE_NOMINAL_S[1]
    return py**a * vec**b


def _execute(lltkit, req, directory: str) -> tuple[int, str, float]:
    """Run one request; return (exit code, stdout, seconds inside the program)."""
    if req.command == "calibrate":
        t0 = time.perf_counter()
        reg = lltkit.bounds.calibrated_registry(req.ref["n_max"])
        t1 = time.perf_counter()
        return 0, json.dumps({"c0": reg.c0, "ce": reg.ce, "provenance": reg.provenance}), t1 - t0
    argv = workloads.resolve(req, directory)
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = lltkit.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is a failed request, not a benchmark error
        code = 1
        print(f"request crashed: {argv}: {type(exc).__name__}: {exc}", file=sys.stderr)
    t1 = time.perf_counter()
    return code, buf.getvalue(), t1 - t0


def _loop(lltkit, workload, requests, directory, count, deadline,
          probes: list[float]) -> list[Outcome]:
    """Closed loop over the first ``count`` requests of the list (cycling it
    if needed); every probe taken is appended to ``probes``."""
    outcomes: list[Outcome] = []
    i = 0
    before = probe(workload)
    probes.append(before)
    while i < count and time.monotonic() < deadline:
        index = i % len(requests)
        req = requests[index]
        code, text, dt = _execute(lltkit, req, directory)
        after = probe(workload)
        probes.append(after)
        scaled = dt / (0.5 * (before + after))
        before = after
        wrong = checks.check(req, text) if code == 0 else None
        digest = hashlib.sha1(text.encode()).hexdigest()
        outcomes.append(Outcome(index, code, dt, scaled, wrong, digest))
        i += 1
    return outcomes


#: percentiles a tail latency may be reported at
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def _tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest of ``TAIL_PERCENTILES`` that has at least ten
    samples beyond it (linear interpolation between order statistics), and
    that percentile.  A fixed ladder keeps the percentile the same from run
    to run while the sample count moves a little."""
    ordered = sorted(latencies)
    n = len(ordered)
    pct = max((q for q in TAIL_PERCENTILES if n * (1.0 - q / 100.0) >= 10.0), default=50.0)
    pos = pct / 100.0 * (n - 1)
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo]), pct


def _end_to_end(requests, outcomes: list[Outcome], scaled: bool = True) -> dict:
    lat = [o.scaled if scaled else o.latency for o in outcomes]
    busy = sum(lat)
    ok = [o for o in outcomes if o.code == 0]
    tail, pct = _tail(lat)
    attempted = len(outcomes)
    return {
        "requests_per_s": attempted / busy,
        "points_per_s": sum(requests[o.index].points for o in ok) / busy,
        "mc_samples_per_s": sum(requests[o.index].mc_samples for o in ok) / busy,
        "req_p50_s": statistics.median(lat),
        "req_tail_s": tail,
        "req_tail_percentile": pct,
        "latency_samples": attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fail_ratio": sum(o.code != 0 for o in outcomes) / attempted,
        "wrong_ratio": sum(o.wrong is not None for o in outcomes) / attempted,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--inputs", required=True, help="directory for the generated inputs")
    parser.add_argument("--trace-out", help="file for the recorded spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "lltkit", "__init__.py")):
        print(f"no lltkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import lltkit
    import lltkit.cli  # noqa: F401  (bound as lltkit.cli for _execute)

    if not os.path.abspath(lltkit.__file__).startswith(SRC + os.sep):
        print(f"lltkit imported from {lltkit.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    requests = workloads.build(args.workload, args.seed, args.size)
    warm = workloads.warmup(args.workload)
    workloads.write_inputs(requests + [warm], args.inputs)
    code, text, _ = _execute(lltkit, warm, args.inputs)
    problem = checks.check(warm, text) if code == 0 else f"exit code {code}"
    if problem:
        print(f"warm-up request failed: {problem}", file=sys.stderr)
        return 3
    print("ready", flush=True)
    # scale factor to the reference speed, for the set-up time just measured
    print(1.0 / statistics.median(probe(args.workload) for _ in range(3)), flush=True)
    if args.setup_only:
        return 0

    deadline = time.monotonic() + HARD_CAP_S
    probes: list[float] = []
    count = TRACE_REQUESTS if args.trace else requests_for(args.workload, args.seconds)
    outcomes = _loop(lltkit, args.workload, requests, args.inputs, count, deadline, probes)
    result = {
        "attempted": len(outcomes),
        "failed": sum(o.code != 0 for o in outcomes),
        "wrong": sum(o.wrong is not None for o in outcomes),
        "wrong_examples": [o.wrong for o in outcomes if o.wrong][:3],
        "end_to_end": _end_to_end(requests, outcomes),
        "end_to_end_wall": _end_to_end(requests, outcomes, scaled=False),
        "facts": {
            "python": sys.version.split()[0],
            "numpy": sys.modules["numpy"].__version__,
            "scipy": sys.modules["scipy"].__version__,
            "requests_sha256": workloads.list_hash(requests),
            "slowdown_median": statistics.median(probes),
        },
    }
    if args.trace:
        result["layers"] = _traced_replay(lltkit, args.workload, requests, args.inputs, outcomes,
                                          args.trace_out)
        result["wrong"] += result["layers"].pop("replay_mismatches")
    print(json.dumps(result), flush=True)
    return 0


def _traced_replay(lltkit, workload, requests, directory, outcomes, trace_out) -> dict:
    """Replay the untraced sequence with the tracer installed; outputs must
    be byte-identical to the untraced ones."""
    tracer = Tracer()
    tracer.install()
    mismatches = 0
    busy = 0.0
    out_bytes = 0
    t_start = time.perf_counter()
    before = probe(workload)
    try:
        for rid, first in enumerate(outcomes):
            tracer.request_id = rid
            req = requests[first.index]
            code, text, dt = _execute(lltkit, req, directory)
            after = probe(workload)
            busy += dt / (0.5 * (before + after))
            before = after
            if req.command != "calibrate":
                out_bytes += len(text.encode())
            if code != first.code or hashlib.sha1(text.encode()).hexdigest() != first.digest:
                mismatches += 1
    finally:
        wall = time.perf_counter() - t_start
        tracer.uninstall()
    if trace_out:
        tracer.dump(trace_out)
    layers = tracer.layer_metrics()
    untraced = sum(o.scaled for o in outcomes)
    layers["cli.out_bytes"] = out_bytes
    layers["trace.overhead_ratio"] = busy / untraced - 1.0
    layers["trace.wall_s"] = wall
    layers["trace.requests"] = len(outcomes)
    layers["harness.self_s"] = wall - tracer.root_ns / 1e9
    layers["replay_mismatches"] = mismatches
    return layers


if __name__ == "__main__":
    sys.exit(main())
