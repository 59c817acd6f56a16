"""lltkit benchmark: one command, four workloads, checked outputs.

    python3 perfbench/run.py --workload sweep-exact --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Workloads: sweep-exact, sweep-bounded,
scenery-mc, exact-oracles (see README.md in this directory).  Each run starts
its own worker process (worker.py), so peak RSS belongs to one workload.

``--trace 0`` measures the end-to-end metrics.  Set-up time is the median of
several fresh processes, each timed from spawn until it has imported lltkit,
written its inputs and answered a warm-up request.  ``--trace 1`` measures the
per-layer metrics from a traced replay instead.  The metrics named in
BENCHMARK.json go into the JSON object on the last stdout line; the lines
before it report every metric with its unit plus the machine and run facts.

The orchestrator itself uses only the standard library.  It exits non-zero
without printing a result when the checkout has no lltkit sources or any
worker fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

from tracer import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep-exact", "sweep-bounded", "scenery-mc", "exact-oracles")

#: thread pools pinned to one thread (the benchmark machine has two shared cores)
#: and a fixed hash seed, for every worker
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

#: fresh processes whose set-up time is measured; the median is reported
SETUP_SAMPLES = {"full": 3, "tiny": 2}

#: a run must end well inside 180 s
DEADLINE_S = 170.0

#: units of the metrics reported beside the BENCHMARK.json ones
REPORT_UNITS = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "points_per_s": "1/s",
    "mc_samples_per_s": "1/s",
    "req_p50_s": "s",
    "req_tail_s": "s",
    "peak_rss_mb": "MB",
    "fail_ratio": "ratio",
    "wrong_ratio": "ratio",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _read_line(proc: subprocess.Popen, deadline: float) -> str:
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("worker timed out")
        ready, _, _ = select.select([proc.stdout], [], [], remaining)
        if ready:
            line = proc.stdout.readline()
            if not line:
                raise BenchError(f"worker exited early with code {proc.wait()}")
            return line.strip()


def _worker(args, inputs: str, deadline: float,
            extra: list[str]) -> tuple[float, float, dict | None]:
    """Start a worker; return the seconds from spawn to ready, the factor that
    scales them to the reference machine speed, and its result (or None)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--inputs", inputs, *extra]
    env = dict(os.environ, **PINNED_ENV)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        if _read_line(proc, deadline) != "ready":
            raise BenchError("worker did not report ready")
        setup = time.perf_counter() - t0
        factor = float(_read_line(proc, deadline))
        result = None
        if "--setup-only" not in extra:
            result = json.loads(_read_line(proc, deadline))
        code = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
        if code != 0:
            raise BenchError(f"worker exited with code {code}")
        return setup, factor, result
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        shutil.rmtree(inputs, ignore_errors=True)


def _facts(args) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fobj:
            for line in fobj:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "lltkit")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fobj:
                digest.update(name.encode() + b"\0" + fobj.read())
    # the ceiling keeps git from reporting an enclosing repository's commit
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                capture_output=True, text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "pinned_env": PINNED_ENV,
    }


def _fmt(value) -> str:
    return format(value, ".6g") if isinstance(value, float) else str(value)


def run(args) -> dict:
    if not os.path.isfile(os.path.join(ROOT, "src", "lltkit", "__init__.py")):
        raise BenchError(f"no lltkit sources under {os.path.join(ROOT, 'src')}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fobj:
        spec = json.load(fobj)
    deadline = time.monotonic() + DEADLINE_S
    out_dir = os.path.join(HERE, "out")
    tag = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    os.makedirs(out_dir, exist_ok=True)

    setups = []
    if not args.trace:
        for i in range(SETUP_SAMPLES[args.size] - 1):
            inputs = os.path.join(out_dir, f"{tag}-setup{i}")
            setups.append(_worker(args, inputs, deadline, ["--setup-only"])[:2])
    extra = ["--trace-out", os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.jsonl")]
    setup, factor, result = _worker(args, os.path.join(out_dir, f"{tag}-inputs"), deadline,
                                    extra if args.trace else [])
    setups.append((setup, factor))

    facts = {**_facts(args), **result["facts"]}
    e2e = dict(result["end_to_end"], setup_s=statistics.median(s * f for s, f in setups))
    wall = dict(result["end_to_end_wall"], setup_s=statistics.median(s for s, _ in setups))
    print(f"lltkit benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("facts " + json.dumps(facts, sort_keys=True))
    attempted, failed, wrong = result["attempted"], result["failed"], result["wrong"]
    print(f"requests attempted {attempted}, failed {failed}, wrong {wrong}")
    for example in result["wrong_examples"]:
        print(f"wrong output: {example}")
    if args.trace:
        metrics = {m["name"]: {"value": result["layers"][m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
        for name, value in sorted(result["layers"].items()):
            print(f"layer {name} = {_fmt(value)}")
        layers_sum = sum(result["layers"][f"{layer}.self_s"] for layer in LAYERS)
        print(f"layer self times + tracer = {_fmt(layers_sum + result['layers']['trace.self_s'])} s;"
              f" traced wall - harness = "
              f"{_fmt(result['layers']['trace.wall_s'] - result['layers']['harness.self_s'])} s")
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        notes = {
            "setup_s": f"median of {len(setups)} set-ups",
            "req_p50_s": f"n={e2e['latency_samples']}",
            "req_tail_s": f"p{e2e['req_tail_percentile']:.1f}, n={e2e['latency_samples']}",
            "fail_ratio": f"{failed}/{attempted}",
            "wrong_ratio": f"{wrong}/{attempted}",
        }
        for name, unit in REPORT_UNITS.items():
            note = f" ({notes[name]})" if name in notes else ""
            print(f"metric {name} = {_fmt(e2e[name])} {unit}{note}")
        for name in ("setup_s", "requests_per_s", "req_p50_s", "req_tail_s"):
            print(f"wall-clock {name} = {_fmt(wall[name])} {REPORT_UNITS[name]}")
    return {"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs exercise every path quickly (smoke test)")
    args = parser.parse_args(argv)
    # on SIGTERM unwind normally, so that the running worker is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        result = run(args)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
