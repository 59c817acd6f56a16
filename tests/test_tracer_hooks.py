"""The benchmark's span tracer still fits the program.

``perfbench/tracer.py`` wraps lltkit functions from outside and runs work
counters on their arguments and results, by name.  A refactor that changes
what those functions take or return breaks the counters only when a traced
run calls them; this runs one request of each traced kind with the tracer
installed.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

import lltkit.cli

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture
def tracer():
    """An installed Tracer whose work counters record what they raise."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    ran, raised = set(), []

    def guarded(name, hook):
        def run(*args):
            ran.add(name)
            try:
                hook(*args)
            except Exception as exc:
                raised.append((name, exc))
                raise
        return run

    module._HOOKS = {name: guarded(name, hook) for name, hook in module._HOOKS.items()}
    t = module.Tracer()
    t.install()
    try:
        yield t, ran, raised
    finally:
        t.uninstall()


def test_traced_requests_run_clean(tracer, tmp_path, capsys):
    law = tmp_path / "law.json"
    law.write_text(json.dumps({"v0": 0, "D": 1, "probs": [[0, 2], [1, 5], [2, 3]]}))
    model = tmp_path / "model.json"
    model.write_text(json.dumps({
        "x_law": {"v0": 0, "D": 1, "probs": [[0, 1], [1, 1]]},
        "increments": {"v0": 0, "D": 1, "probs": [[1, 1], [2, 1], [3, 1]]},
        "n": 32,
        "vartheta": 0.5,
    }))
    requests = [
        ["llt-bound", str(law), "--n", "60", "--mode", "exact-plug-ins",
         "--kappa-from", "60", "--kappa-to", "70", "--format", "csv"],
        ["gamkrelidze", str(law), "--n", "60"],
        ["partition", "--m", "2", "--n", "80", "--mode", "model"],
    ]
    t, ran, raised = tracer
    for argv in requests:
        assert lltkit.cli.main(argv) == 0, argv
    capsys.readouterr()
    assert raised == []
    assert {"bounds.exact_plug_ins", "bounds.sandwich_envelope",
            "gamkrelidze.interval_discrepancy"} <= ran
    metrics = t.layer_metrics()
    assert metrics["bounds.points"] == 11
    assert metrics["gamkrelidze.window_points"] > 0

    # the Monte Carlo hook, on a request of its own so the counts above stay put
    argv = ["scenery", str(model), "--kappa", "16", "--h", "0.25", "--mc", "2000"]
    assert lltkit.cli.main(argv) == 0
    capsys.readouterr()
    assert raised == []
    assert "scenery.monte_carlo_point_prob" in ran
    assert t.layer_metrics()["scenery.mc_ns_per_sample"] > 0
