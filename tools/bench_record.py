"""Record the benchmark's end-to-end metrics of checkouts as BENCH files.

    python tools/bench_record.py --out BENCH_1.json
    python tools/bench_record.py --root ../parent --out BENCH_0.json \\
        --root . --out BENCH_1.json

For each workload and each of the seeds 1-5 it runs ``perfbench/run.py
--workload W --seed S --seconds 12 --trace 0`` of each checkout given by
``--root`` (by default the one this script lives in), one run at a time,
and reads the JSON object on the last stdout line.  With several checkouts
their runs alternate, each seed in the other order, so that the machine's
drift over the minutes of a record falls on all of them alike; one
``--out`` names each checkout's file.
A file holds, per workload, the median and quartiles of each end-to-end
metric over the seeds, the failure counts of every run and the raw values,
together with the checkout's commit and the machine facts the harness
prints.  A run that exits non-zero is recorded as an error and contributes
no metric.  The harness's ``--seconds`` sizes each run's request count at its
reference speed (``REQUESTS_PER_SECOND`` in ``perfbench/worker.py``), which
a current machine outruns: four workloads at five seeds took about two
minutes a checkout on two cores of an Intel Xeon.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("sweep-exact", "sweep-bounded", "scenery-mc", "exact-oracles")
SEEDS = (1, 2, 3, 4, 5)
SECONDS = 12


def run_once(root: str, workload: str, seed: int) -> tuple[dict, dict | None]:
    """The harness facts and last-line result of one run (None if it failed)."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    facts = next((json.loads(line[len("facts "):]) for line in lines
                  if line.startswith("facts ")), {})
    if proc.returncode or not lines:
        return facts, None
    return facts, json.loads(lines[-1])


def quartiles(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of at least one value."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summary(results: list[dict | None]) -> dict:
    """One workload's entry of a record, from its runs' results in seed order."""
    done = [r for r in results if r is not None]
    names = list(done[0]["metrics"]) if done else []
    return {
        "runs": len(results),
        "errors": len(results) - len(done),
        "failed": [r["failed"] if r else None for r in results],
        "attempted": [r["attempted"] if r else None for r in results],
        "correct": all(r["correct"] for r in done),
        "metrics": {
            name: {"unit": done[0]["metrics"][name]["unit"],
                   **quartiles([r["metrics"][name]["value"] for r in done]),
                   "values": [r["metrics"][name]["value"] for r in done]}
            for name in names
        },
    }


def record(roots: list[str]) -> list[dict]:
    """One record per checkout in ``roots``, their runs alternating."""
    facts = [{} for _ in roots]
    results = [{w: [] for w in WORKLOADS} for _ in roots]
    for workload in WORKLOADS:
        for turn, seed in enumerate(SEEDS):
            order = range(len(roots)) if turn % 2 == 0 else reversed(range(len(roots)))
            for i in order:
                run_facts, result = run_once(roots[i], workload, seed)
                facts[i] = facts[i] or run_facts
                results[i][workload].append(result)
                print(f"{roots[i]} {workload} seed {seed}: "
                      f"{'error' if result is None else 'ok'}", file=sys.stderr, flush=True)
    return [{
        "command": f"perfbench/run.py --seconds {SECONDS} --trace 0",
        "seeds": list(SEEDS),
        "interleaved_with": len(roots) - 1,
        "facts": {k: v for k, v in f.items() if k not in ("workload", "seed", "seconds")},
        "workloads": {w: summary(rs) for w, rs in r.items()},
    } for f, r in zip(facts, results)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", action="append",
                        help="a checkout whose benchmark is run (default: this one); "
                             "give one --out per --root")
    parser.add_argument("--out", action="append", required=True,
                        help="the BENCH_*.json file to write")
    args = parser.parse_args(argv)
    roots = args.root or [HERE]
    if len(roots) != len(args.out):
        parser.error(f"{len(roots)} checkouts but {len(args.out)} output files")
    records = record([os.path.abspath(r) for r in roots])
    for path, out in zip(args.out, records):
        with open(path, "w", encoding="utf-8") as fobj:
            json.dump(out, fobj, indent=2, sort_keys=True)
            fobj.write("\n")
    return 1 if any(w["errors"] for out in records for w in out["workloads"].values()) else 0


if __name__ == "__main__":
    raise SystemExit(main())
