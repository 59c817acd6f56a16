"""Per-layer spans recorded from outside the program.

``Tracer.install`` wraps every public function of the lltkit modules named in
``LAYERS`` and puts the wrapper into every lltkit namespace that binds the
function, so that names imported with ``from .x import f`` (``cli`` imports
``iid_sum``, ``bounds`` imports ``convolve_all``, ``theta`` and ``moments``)
are traced too.  Spans stay in memory until ``dump``.

A call whose callee made no traced calls is a leaf.  Leaves run up to about
10^5 times per request (``theta`` and ``moments`` once per summand per kappa
point), so they are aggregated per (parent span, function) as a call count
and a total time instead of being kept one by one.

Self time is a call's duration minus the time its traced children took.  The
wrapper's own bookkeeping is timed separately (``overhead_ns``), so that the
layers' self times plus that overhead equal the time spent inside top-level
calls.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "lattice", "extraction", "convolve", "bounds", "gamkrelidze", "scenery",
          "partition")


def _arg(args: tuple, kwargs: dict, pos: int, name: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _count_summands(tracer, args, kwargs, result, dur_ns):
    tracer.counts["bounds.summands_scanned"] += len(_arg(args, kwargs, 0, "summands"))


def _count_envelope(tracer, args, kwargs, result, dur_ns):
    _count_summands(tracer, args, kwargs, result, dur_ns)
    tracer.counts["bounds.points"] += 1


def _count_convolve_all(tracer, args, kwargs, result, dur_ns):
    """Multiplications of the pairwise dense convolutions, computed from the
    input supports and spans (not measured), and the output support size."""
    pmfs = _arg(args, kwargs, 0, "pmfs")
    d_base = min(p.D for p in pmfs)
    lengths: dict[int, int] = {}
    acc = mults = 0
    for i, p in enumerate(pmfs):
        length = lengths.get(id(p))
        if length is None:
            length = (max(p.probs) - min(p.probs)) * round(p.D / d_base) + 1
            lengths[id(p)] = length
        if i:
            mults += acc * length
            acc += length - 1
        else:
            acc = length
    tracer.counts["convolve.mults"] += mults
    tracer.counts["convolve.out_points"] += len(result.pmf.probs)


def _count_poisson_binomial(tracer, args, kwargs, result, dur_ns):
    n = len(result.probs)
    tracer.counts["convolve.mults"] += n * (n + 1)
    tracer.counts["convolve.out_points"] += n + 1


def _count_window(tracer, args, kwargs, result, dur_ns):
    tracer.counts["gamkrelidze.window_points"] += len(result.d)


def _count_monte_carlo(tracer, args, kwargs, result, dur_ns):
    model = _arg(args, kwargs, 0, "model")
    samples = result.samples
    tracer.counts["scenery.samples"] += samples
    tracer.counts["scenery.mc_ns"] += dur_ns
    tracer.counts["scenery.site_draws"] += samples * model.n * max(model.increment_law.probs)
    tracer.counts["scenery.sites_visited"] += samples * model.n


#: work counters, keyed by "layer.function", run after a successful call
_HOOKS = {
    "bounds.sandwich_envelope": _count_envelope,
    "bounds.central_envelope": _count_envelope,
    "bounds.psi_envelope": _count_envelope,
    "bounds.exact_plug_ins": _count_summands,
    "bounds.bounded_plug_ins": _count_summands,
    "convolve.convolve_all": _count_convolve_all,
    "convolve.poisson_binomial": _count_poisson_binomial,
    "gamkrelidze.interval_discrepancy": _count_window,
    "scenery.monte_carlo_point_prob": _count_monte_carlo,
}


class Tracer:
    """Span recorder for one process; install, run requests, uninstall."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.leaves: dict[tuple, list[int]] = {}
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.errors = dict.fromkeys(LAYERS, 0)
        self.counts: dict[str, int] = defaultdict(int)
        self.overhead_ns = 0
        self.root_ns = 0
        self.request_id = -1
        self._stack: list[list[int]] = []
        self._next_id = 0
        self._last_error: BaseException | None = None
        self._patched: list[tuple] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        originals: dict[int, tuple] = {}
        for layer in LAYERS:
            mod = sys.modules[f"lltkit.{layer}"]
            for name, obj in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ == mod.__name__:
                    originals[id(obj)] = (obj, self._wrap(layer, name, obj))
        for modname, mod in list(sys.modules.items()):
            if modname != "lltkit" and not modname.startswith("lltkit."):
                continue
            for name, obj in list(vars(mod).items()):
                entry = originals.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(mod, name, entry[1])
                    self._patched.append((mod, name, obj))

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._patched):
            setattr(mod, name, obj)
        self._patched.clear()

    def _wrap(self, layer: str, name: str, fn):
        tracer = self
        stack = self._stack
        clock = time.perf_counter_ns
        hook = _HOOKS.get(f"{layer}.{name}")

        def traced(*args, **kwargs):
            t_in = clock()
            frame = [0, 0, tracer._next_id]  # child ns, child count, span id
            tracer._next_id += 1
            stack.append(frame)
            ok = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            except BaseException as exc:
                tracer._raised(layer, exc)
                raise
            finally:
                t1 = clock()
                stack.pop()
                tracer._record(layer, name, frame, t0, t1)
                if ok and hook is not None:
                    hook(tracer, args, kwargs, result, t1 - t0)
                t2 = clock()
                tracer.overhead_ns += (t0 - t_in) + (t2 - t1)
                if stack:
                    stack[-1][0] += t2 - t_in
                    stack[-1][1] += 1
                else:
                    tracer.root_ns += t2 - t_in
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    def _record(self, layer: str, name: str, frame: list[int], t0: int, t1: int) -> None:
        self_ns = (t1 - t0) - frame[0]
        self.self_ns[layer] += self_ns
        self.calls[layer] += 1
        parent = self._stack[-1][2] if self._stack else -1
        if frame[1] == 0:
            agg = self.leaves.get((parent, layer, name))
            if agg is None:
                agg = self.leaves[(parent, layer, name)] = [0, 0]
            agg[0] += 1
            agg[1] += t1 - t0
        else:
            self.spans.append((frame[2], parent, self.request_id, layer, name, t0, t1, self_ns))

    def _raised(self, layer: str, exc: BaseException) -> None:
        # count an exception once, in the layer whose function raised it first
        if exc is self._last_error:
            return
        self._last_error = exc
        self.errors[layer] += 1
        if layer == "partition" and type(exc).__name__ == "NumericsError":
            self.counts["partition.refused"] += 1

    # -- results -----------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write spans, then leaf aggregates, as JSON lines."""
        with open(path, "w", encoding="utf-8") as fobj:
            for sid, parent, rid, layer, name, t0, t1, self_ns in self.spans:
                fobj.write(json.dumps({"span": sid, "parent": parent, "request": rid,
                                       "layer": layer, "name": name, "start_ns": t0,
                                       "end_ns": t1, "self_ns": self_ns}) + "\n")
            for (parent, layer, name), (calls, total) in self.leaves.items():
                fobj.write(json.dumps({"leaf": name, "parent": parent, "layer": layer,
                                       "calls": calls, "total_ns": total}) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer self time, call and error counts, and work counters."""
        c = self.counts
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_ns[layer] / 1e9
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.errors"] = self.errors[layer]
        points = c["bounds.points"]
        out["bounds.points"] = points
        out["bounds.self_s_per_point"] = out["bounds.self_s"] / points if points else 0.0
        out["bounds.summands_scanned"] = c["bounds.summands_scanned"]
        out["convolve.mults"] = c["convolve.mults"]
        out["convolve.out_points"] = c["convolve.out_points"]
        out["gamkrelidze.window_points"] = c["gamkrelidze.window_points"]
        out["partition.refused"] = c["partition.refused"]
        samples, draws = c["scenery.samples"], c["scenery.site_draws"]
        out["scenery.mc_ns_per_sample"] = c["scenery.mc_ns"] / samples if samples else 0.0
        out["scenery.site_draws"] = draws
        out["scenery.useful_ratio"] = c["scenery.sites_visited"] / draws if draws else 0.0
        out["trace.self_s"] = self.overhead_ns / 1e9
        out["trace.spans"] = len(self.spans)
        return out
