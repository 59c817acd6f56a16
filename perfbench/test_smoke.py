"""Smoke test of the benchmark itself.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload at the tiny size, untraced and traced, and checks that
every metric is printed with its unit; then feeds the checker deliberately
perturbed outputs and checks that ``wrong_ratio`` turns positive.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fobj:
    SPEC = json.load(_fobj)


def _bench(workload: str, trace: int) -> list[str]:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return out.stdout.strip().splitlines()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_printed_with_unit(workload):
    lines = _bench(workload, 0)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name, unit in run.REPORT_UNITS.items():
        assert any(re.fullmatch(rf"metric {name} = \S+ {re.escape(unit)}( \(.*\))?", line)
                   for line in lines), name
    assert any(line.startswith("facts ") for line in lines)

    traced = json.loads(_bench(workload, 1)[-1])
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == expected
    assert traced["correct"] is True


def _perturb(command: str, text: str) -> str:
    """Move one checked value by far more than the checker's tolerance."""
    if command == "llt-bound" and not text.startswith("{"):
        rows = list(csv.DictReader(io.StringIO(text)))
        rows[0]["gaussian"] = repr(float(rows[0]["gaussian"]) * (1 + 1e-6))
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
        return buf.getvalue()
    out = json.loads(text)
    if command in ("llt-bound", "scenery"):
        out["gaussian"] *= 1 + 1e-6
    elif command == "gamkrelidze":
        out["M"] *= 1 + 1e-5
    elif command == "partition":
        out["q_model"] += 1
    else:
        out["c0"] *= 1 + 1e-5
    return json.dumps(out)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_perturbed_outputs_are_wrong(workload, tmp_path, monkeypatch):
    sys.path.insert(0, worker.SRC)
    import lltkit
    import lltkit.cli  # noqa: F401

    requests = workloads.build(workload, 5, "tiny", count=8)
    workloads.write_inputs(requests, str(tmp_path))
    deadline = time.monotonic() + 120

    clean = worker._loop(lltkit, workload, requests, str(tmp_path), len(requests), deadline, [])
    assert worker._end_to_end(requests, clean)["wrong_ratio"] == 0

    execute = worker._execute

    def perturbed(lltkit_mod, req, directory):
        code, text, dt = execute(lltkit_mod, req, directory)
        return code, (_perturb(req.command, text) if code == 0 else text), dt

    monkeypatch.setattr(worker, "_execute", perturbed)
    outcomes = worker._loop(lltkit, workload, requests, str(tmp_path), len(requests), deadline, [])
    assert worker._end_to_end(requests, outcomes)["wrong_ratio"] > 0
    assert all(o.wrong for o in outcomes if o.code == 0)
