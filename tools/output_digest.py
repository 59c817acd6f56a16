"""Digest of the CLI's output on the benchmark's request lists.

For each workload and seed this builds ``perfbench.workloads.build(workload,
seed, size)``, writes its inputs to a temporary directory and runs every
request in process through ``lltkit.cli.main`` with the benchmark worker's
own ``_execute`` (a ``calibrate`` request goes through
``bounds.calibrated_registry``).  It
prints one line per list: the request count, the count of non-zero exits
by exit code, and the sha1 of every (exit code, stdout) in order, with the
temporary directory's path in stdout replaced by ``{dir}``.  Two checkouts
that print the same lines gave the same bytes and exit codes on every
request, so a refactor that must keep its output can be checked with

    python tools/output_digest.py --size full --seeds 1 7

run in both checkouts.  It imports lltkit from the ``src`` directory of
the checkout it lives in.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import worker  # noqa: E402
import workloads  # noqa: E402

import lltkit  # noqa: E402
import lltkit.cli  # noqa: E402


def digest(workload: str, seed: int, size: str) -> str:
    """The line of one request list."""
    requests = workloads.build(workload, seed, size)
    sha, exits = hashlib.sha1(), Counter()
    with tempfile.TemporaryDirectory() as directory:
        workloads.write_inputs(requests, directory)
        for req in requests:
            code, out, _ = worker._execute(lltkit, req, directory)
            out = out.replace(directory, "{dir}")
            sha.update(f"{code}\n{len(out)}\n{out}".encode())
            if code:
                exits[code] += 1
    nonzero = " ".join(f"{code}:{count}" for code, count in sorted(exits.items())) or "none"
    return (f"{workload} seed={seed} requests={len(requests)} nonzero={nonzero} "
            f"sha1={sha.hexdigest()}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    args = parser.parse_args(argv)
    for workload in workloads.WORKLOADS:
        for seed in args.seeds:
            print(digest(workload, seed, args.size), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
