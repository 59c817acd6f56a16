"""Command-line front end.

Subcommands
-----------
characteristics  pmf characteristics (theta, delta, moments, span multiple)
split            Bernoulli part extraction of a pmf
llt-bound        two-sided envelopes for P{S_n = kappa}, single point or sweep
gamkrelidze      smoothness statistics and interval discrepancy of an iid sum
scenery          random-scenery moment checks / envelope
partition        distinct-part partition counts via the tilted model
validate         identity checks for a pmf (reconstruction, delta, variance)

Output is JSON (default) or CSV, deterministic for fixed arguments and seed.
Exit codes: 0 success, 1 a stated hypothesis failed for the input,
2 malformed input.  Floating-point numbers are emitted with 17 significant
digits so that values round-trip exactly.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Any

from . import bounds, gamkrelidze, partition, scenery
from .errors import LatticeError, NumericsError, PreconditionError
from .extraction import reconstruct, split, xi_law
from .lattice import characteristics, delta_smoothness, moments, pmf_from_json, theta

ENV_CONSTANTS = "LLT_CONSTANTS"

#: deviation parameter when ``--h`` is not given: the scenery default, and the
#: llt-bound/gamkrelidze choice when ``h_default`` does not apply
FALLBACK_H = 0.25


def _load_constants(path: str | None) -> bounds.ConstantsRegistry:
    """The default registry with the values of the override file at ``path``.

    The file holds a JSON object that may set ``c0`` and ``ce`` (finite
    numbers > 0) and ``provenance`` (a string); c1-c3 are derived.
    """
    over = _read_json(path) if path else {}
    if not isinstance(over, dict):
        raise LatticeError("constants override file must hold a JSON object")
    values = {}
    for key, value in over.items():
        if key in ("c0", "ce") and type(value) in (int, float) and 0 < value <= sys.float_info.max:
            values[key] = float(value)
        elif key == "provenance" and isinstance(value, str):
            values[key] = value
        else:
            raise LatticeError(
                f"constants override {key!r}: {value!r} rejected; the file may set c0 and ce "
                "(finite numbers > 0) and provenance (a string)"
            )
    return bounds.ConstantsRegistry(**values)


def _read_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fobj:
            return json.load(fobj)
    except OSError as exc:
        raise LatticeError(f"cannot read input file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise LatticeError(f"malformed JSON in {path}: {exc}") from exc


def _fmt(x: Any) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return format(x, ".17g")
    if x is None:
        return ""
    if isinstance(x, (list, tuple, dict)):
        # comma-free encoding keeps the CSV cell grammar intact
        return json.dumps(x, sort_keys=True, separators=(";", ":"))
    return str(x)


def _flatten(prefix: str, obj: Any, out: dict) -> None:
    if isinstance(obj, dict):
        for key in sorted(obj):
            _flatten(f"{prefix}.{key}" if prefix else str(key), obj[key], out)
    else:
        out[prefix] = obj


def render(payload: Any, output_format: str) -> str:
    """Serialize a payload deterministically."""
    if output_format == "json":
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if output_format != "csv":
        raise LatticeError(f"unknown output format {output_format!r}")
    rows = payload if isinstance(payload, list) else [payload]
    flat_rows = []
    for row in rows:
        flat: dict = {}
        _flatten("", row, flat)
        flat_rows.append(flat)
    headers: list[str] = []
    for flat in flat_rows:
        for key in flat:
            if key not in headers:
                headers.append(key)
    lines = [",".join(headers)]
    for flat in flat_rows:
        lines.append(",".join(_fmt(flat.get(h)) for h in headers))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_characteristics(args: argparse.Namespace) -> dict:
    pmf = pmf_from_json(_read_json(args.input))
    return characteristics(pmf).to_json_dict()


def _cmd_split(args: argparse.Namespace) -> dict:
    pmf = pmf_from_json(_read_json(args.input))
    sp = split(pmf, args.vartheta)
    out = sp.to_json_dict()
    out["xi_law"] = xi_law(sp).to_json_dict()
    return out


def _pick_h(args: argparse.Namespace, theta_n: float) -> float:
    if args.h is not None:
        return args.h
    try:
        return bounds.h_default(theta_n)
    except PreconditionError:
        return FALLBACK_H


def _sweep_indices(args: argparse.Namespace, spec: bounds.SumSpec) -> range | None:
    """Lattice indices of the ``--kappa-from``/``--kappa-to`` sweep, or None
    for a single ``--kappa``; a sweep is at most ``gamkrelidze.WINDOW_CAP``
    points, the cap of the other printed table."""
    sweep_ends = (args.kappa_from, args.kappa_to)
    if args.kappa is not None:
        if sweep_ends != (None, None):
            raise LatticeError("llt-bound takes --kappa or --kappa-from/--kappa-to, not both")
        return None
    if None in sweep_ends or not all(map(math.isfinite, sweep_ends)):
        raise LatticeError("llt-bound requires --kappa or finite --kappa-from and --kappa-to")
    k_lo = math.ceil((args.kappa_from - spec.v0) / spec.d - 1e-9)
    k_hi = math.floor((args.kappa_to - spec.v0) / spec.d + 1e-9)
    if k_hi - k_lo + 1 > gamkrelidze.WINDOW_CAP:
        raise LatticeError(f"kappa sweep of {k_hi - k_lo + 1} points, above the cap of "
                           f"{gamkrelidze.WINDOW_CAP}")
    return range(k_lo, k_hi + 1)


def _cmd_llt_bound(args: argparse.Namespace) -> Any:
    if args.h is not None and args.envelope != "sandwich":
        raise LatticeError(f"llt-bound --h applies to the sandwich envelope only, "
                           f"not --envelope {args.envelope}")
    pmf = pmf_from_json(_read_json(args.input))
    constants = args.constants
    spec = bounds.prepare_sum([(pmf, theta(pmf), args.n)])
    sweep = _sweep_indices(args, spec)
    if args.law_out:
        text = render(spec.law.to_json_dict(), "json")
        try:
            with open(args.law_out, "w", encoding="utf-8") as fobj:
                fobj.write(text)
        except OSError as exc:
            raise LatticeError(f"cannot write output file {args.law_out}: {exc}") from exc
    exact = args.mode == "exact-plug-ins"
    # only the sandwich reads h and rho_n, and only the psi envelope reads L_n
    h = _pick_h(args, spec.theta_n) if args.envelope == "sandwich" else None
    if args.envelope == "psi":
        plug = bounds.bounded_plug_ins(spec, constants=constants)
    elif exact:
        plug = bounds.exact_plug_ins(spec, h)
    else:
        plug = bounds.bounded_plug_ins(spec, h, constants=constants)
    # looked up per request, so that wrappers set on the bounds module apply
    envelope = getattr(bounds, f"{args.envelope}_envelope")
    if sweep is None:
        return envelope(spec, args.kappa, plug, constants, exact).to_json_dict(constants)
    return [envelope(spec, spec.v0 + spec.d * k, plug, constants, exact).row() for k in sweep]


def _cmd_gamkrelidze(args: argparse.Namespace) -> dict:
    pmf = pmf_from_json(_read_json(args.input))
    spec = bounds.prepare_sum([(pmf, theta(pmf), args.n)])
    law = spec.law
    a_n = args.a_n if args.a_n is not None else law.mean
    b_n = args.b_n if args.b_n is not None else law.variance
    report = gamkrelidze.interval_discrepancy(law, a_n, b_n)
    check = gamkrelidze.effective_pointwise_bound(report)
    h = _pick_h(args, spec.theta_n)
    extr = gamkrelidze.smoothness_via_extraction(spec, h, b_n, args.constants)
    out = report.to_json_dict()
    out["pointwise_check"] = check.to_json_dict()
    out["extraction_bound"] = extr.to_json_dict()
    out["extraction_bound"]["h"] = h
    return out


def _cmd_scenery(args: argparse.Namespace) -> dict:
    if args.kappa is None and args.mc_samples is not None:
        raise LatticeError("scenery --mc estimates P{S_n = kappa} and needs --kappa")
    model = scenery.scenery_from_json(_read_json(args.input))
    if args.kappa is None:
        # any walk, revisiting ones included: the identity carries c_{h,k}
        return scenery.second_moment_check(model).to_json_dict()
    # the envelope reports the exact value too, and refuses a lazy or
    # revisiting walk before that law is built
    report = scenery.scenery_envelope(model, args.h, args.kappa, args.constants)
    out = report.to_json_dict(args.constants)
    if args.mc_samples is not None:
        est = scenery.monte_carlo_point_prob(
            model, args.kappa, samples=args.mc_samples, seed=args.seed
        )
        lo, hi = est.interval()
        out["monte_carlo"] = {
            "p_hat": est.p_hat,
            "stderr": est.stderr,
            "samples": est.samples,
            "seed": est.seed,
            "ci3_low": lo,
            "ci3_high": hi,
        }
    return out


def _cmd_partition(args: argparse.Namespace) -> dict:
    return partition.count_partitions(args.m, args.n, args.partition_mode).to_json_dict()


def _cmd_validate(args: argparse.Namespace) -> dict:
    pmf = pmf_from_json(_read_json(args.input))
    checks = []
    th = theta(pmf)
    de = delta_smoothness(pmf)
    checks.append(
        {"name": "delta_equals_2_minus_2_theta", "residual": abs(de - (2.0 - 2.0 * th))}
    )
    mean, var = moments(pmf)
    checks.append(
        {"name": "variance_at_least_quarter_span_sq_theta", "residual": max(0.0, pmf.D**2 * th / 4.0 - var)}
    )
    if th > 0:
        sp = split(pmf)
        rec = reconstruct(sp)
        err = max(
            abs(rec.mass(k) - pmf.mass(k)) for k in set(pmf.probs) | set(rec.probs)
        )
        checks.append({"name": "reconstruction_pointwise", "residual": err})
        xi = xi_law(sp)
        _, xv = moments(xi)
        checks.append(
            {
                "name": "xi_variance_identity",
                "residual": abs(xv - (var - pmf.D**2 * sp.vartheta / 4.0)),
            }
        )
    tolerances = {
        "delta_equals_2_minus_2_theta": 1e-12,
        "variance_at_least_quarter_span_sq_theta": 1e-12,
        "reconstruction_pointwise": 1e-14,
        "xi_variance_identity": 1e-12,
    }
    for c in checks:
        c["pass"] = bool(c["residual"] <= tolerances[c["name"]])
    return {"checks": checks, "all_pass": all(c["pass"] for c in checks)}


_COMMANDS = {
    "characteristics": _cmd_characteristics,
    "split": _cmd_split,
    "llt-bound": _cmd_llt_bound,
    "gamkrelidze": _cmd_gamkrelidze,
    "scenery": _cmd_scenery,
    "partition": _cmd_partition,
    "validate": _cmd_validate,
}


def run(args: argparse.Namespace) -> tuple[int, Any]:
    """Dispatch parsed arguments whose ``constants`` holds the registry;
    returns (exit_code, payload-or-error-object)."""
    try:
        payload = _COMMANDS[args.command](args)
        return 0, payload
    except PreconditionError as exc:
        return 1, {"error": {"kind": "hypothesis-rejected", "message": str(exc)}}
    except NumericsError as exc:
        return 2, {"error": {"kind": "numerical-failure", "message": str(exc)}}
    except LatticeError as exc:
        return 2, {"error": {"kind": "input-error", "message": str(exc)}}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lltkit",
        description="Effective local limit theorem bounds for lattice sums.",
    )
    parser.add_argument("--constants", help="JSON file overriding c0/ce (or set LLT_CONSTANTS)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, **kwargs) -> argparse.ArgumentParser:
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        return p

    p = add("characteristics", help="pmf characteristics")
    p.add_argument("input", help="pmf JSON file")

    p = add("split", help="Bernoulli part extraction")
    p.add_argument("input")
    p.add_argument("--vartheta", type=float)

    p = add("llt-bound", help="two-sided envelope for P{S_n = kappa}")
    p.add_argument("input")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kappa", type=float)
    p.add_argument("--kappa-from", type=float)
    p.add_argument("--kappa-to", type=float)
    p.add_argument("--h", type=float)
    p.add_argument("--mode", choices=("exact-plug-ins", "bounded-plug-ins"),
                   default="exact-plug-ins")
    p.add_argument("--envelope", choices=("sandwich", "central", "psi"), default="sandwich")
    p.add_argument("--law-out", dest="law_out",
                   help="also write the exact sum law to this file (pmf JSON schema)")

    p = add("gamkrelidze", help="smoothness statistics of an iid sum")
    p.add_argument("input")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=float, dest="a_n")
    p.add_argument("--b", type=float, dest="b_n")
    p.add_argument("--h", type=float)

    p = add("scenery", help="random-scenery checks / envelope")
    p.add_argument("input", help="scenery model JSON file")
    p.add_argument("--kappa", type=float)
    p.add_argument("--h", type=float, default=FALLBACK_H)
    p.add_argument("--mc", type=int, dest="mc_samples")
    p.add_argument("--seed", type=int, default=1)

    p = add("partition", help="distinct-part partition count")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=("model", "enum", "both"), default="both",
                   dest="partition_mode")

    p = add("validate", help="identity checks for a pmf")
    p.add_argument("input")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # one registry per invocation; every subcommand reads it from here
        args.constants = _load_constants(args.constants or os.environ.get(ENV_CONSTANTS))
    except LatticeError as exc:
        sys.stdout.write(render({"error": {"kind": "input-error", "message": str(exc)}}, "json"))
        return 2
    code, payload = run(args)
    sys.stdout.write(render(payload, args.format))
    return code


if __name__ == "__main__":
    sys.exit(main())
