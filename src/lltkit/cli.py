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
digits so that values round-trip exactly.  An ``llt-bound`` sweep decides
every refusal over its whole range first; then it computes the envelope's
columns a fixed block of lattice points at a time and writes each block's
rows from one template, so its memory does not grow with its length.  The
argument parser is built once per process; each call of :func:`main` parses
a fresh namespace.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import itertools
import json
import math
import os
import re
import sys
from collections.abc import Iterator
from typing import Any

from . import bounds, gamkrelidze, partition, scenery
from .errors import LatticeError, NumericsError, PreconditionError
from .extraction import reconstruct, split, xi_law
from .lattice import characteristics, lattice_position, moments, pmf_from_json, theta

ENV_CONSTANTS = "LLT_CONSTANTS"

#: deviation parameter when ``--h`` is not given: the scenery default, and the
#: llt-bound/gamkrelidze choice when ``h_default`` does not apply
FALLBACK_H = 0.25


def _read_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fobj:
            return json.load(fobj)
    except OSError as exc:
        raise LatticeError(f"cannot read input file {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON, an over-long integer literal, or bad UTF-8
        raise LatticeError(f"malformed JSON in {path}: {exc}") from exc


def _fmt(x: Any) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return format(x, ".17g")
    if x is None:
        return ""
    if isinstance(x, (list, tuple, dict)):
        # with ";" a list cell holds no comma, so CSV prints it unquoted
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
    flat_rows: list[dict] = [{} for _ in rows]
    for row, flat in zip(rows, flat_rows):
        _flatten("", row, flat)
    headers = list(dict.fromkeys(key for flat in flat_rows for key in flat))
    cells = [headers] + [[_fmt(flat.get(h)) for h in headers] for flat in flat_rows]
    return "".join(map(_csv_line, cells))


def _csv_line(cells: list[str]) -> str:
    """One CSV row ending in a newline, with minimal quoting: only a cell
    with a comma, a quote, a newline or a carriage return is quoted.  The
    writer quotes a bare carriage return only when its rows end in CR LF, so
    the row is written so and its own CR LF becomes a newline."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\r\n").writerow(cells)
    return out.getvalue()[:-2] + "\n"


#: lattice points per block of a sweep: each block's columns are computed,
#: formatted and written before the next, so memory stays flat in the length
_SWEEP_BLOCK = 64


def _write_sweep(blocks: Iterator[dict], output_format: str) -> None:
    """Write the rows of a sweep to stdout a block at a time, with the text
    that :func:`render` gives for the list of their ``row()`` dicts: a CSV
    header and one line per row, or a JSON list of objects, both with the
    keys sorted.  The names and cells come from the first block's columns:
    a column of None is a constant cell, a column of floats ``%.17g`` in CSV
    and ``repr`` (``json.dumps`` when a block holds a value that is not
    finite) in JSON, and any other column (the verdicts) a lookup of the
    cells that :func:`_fmt` (CSV) or ``json.dumps`` (JSON) gives True, False
    and None.  Each row is one ``%`` of the template."""
    first = next(blocks)
    as_csv = output_format == "csv"
    verdict_text = {v: (_fmt if as_csv else json.dumps)(v) for v in (True, False, None)}
    names = sorted(first)
    floats = [name for name in names if first[name] and type(first[name][0]) is float]
    verdicts = [name for name in names if first[name] and name not in floats]
    # a column of None prints the format's empty cell, as an undecided verdict does
    cells = {name: verdict_text[None] if first[name] is None
             else "%.17g" if as_csv and name in floats else "%s" for name in names}
    if as_csv:
        head, sep, tail = ",".join(names) + "\n", "\n", "\n"
        template = ",".join(cells[name] for name in names)
    else:
        head, sep, tail = "[\n", ",\n", "\n]\n"
        template = "  {\n" + ",\n".join(f'    "{name}": {cells[name]}' for name in names) + "\n  }"

    def text(block: dict) -> str:
        cols = {name: block[name] for name in floats}
        if not as_csv:
            finite = all(map(math.isfinite, itertools.chain(*cols.values())))
            cols = {name: list(map(repr if finite else json.dumps, col))
                    for name, col in cols.items()}
        cols.update((name, [verdict_text[v] for v in block[name]]) for name in verdicts)
        rows = zip(*(cols[name] for name in names if name in cols))
        return sep.join([template % row for row in rows])

    write = sys.stdout.write
    write(head + text(first))
    for block in blocks:
        write(sep + text(block))
    write(tail)


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_characteristics(args: argparse.Namespace) -> dict:
    pmf = pmf_from_json(_read_json(args.input))
    return dataclasses.asdict(characteristics(pmf))


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


def _iid_spec(args: argparse.Namespace) -> bounds.SumSpec:
    """The prepared sum of ``--n`` copies of the input pmf, each extracted at
    its theta."""
    pmf = pmf_from_json(_read_json(args.input))
    if args.n < 1:
        raise LatticeError(f"{args.command} requires --n >= 1, got {args.n}")
    return bounds.prepare_sum([(pmf, theta(pmf), args.n)])


def _sweep_indices(args: argparse.Namespace, spec: bounds.SumSpec) -> range | None:
    """Lattice indices of the ``--kappa-from``/``--kappa-to`` sweep, or None
    for a single ``--kappa``; a sweep holds at least one lattice point and at
    most ``gamkrelidze.WINDOW_CAP``, the cap of the other printed table."""
    sweep_ends = (args.kappa_from, args.kappa_to)
    if args.kappa is not None:
        if sweep_ends != (None, None):
            raise LatticeError("llt-bound takes --kappa or --kappa-from/--kappa-to, not both")
        return None
    if None in sweep_ends or not all(map(math.isfinite, sweep_ends)):
        raise LatticeError("llt-bound requires --kappa or finite --kappa-from and --kappa-to")
    # each end admits the lattice points that --kappa admits there
    r_lo, slack_lo = lattice_position(args.kappa_from, spec.v0, spec.d)
    r_hi, slack_hi = lattice_position(args.kappa_to, spec.v0, spec.d)
    k_lo, k_hi = math.ceil(r_lo - slack_lo), math.floor(r_hi + slack_hi)
    if k_hi < k_lo:
        raise LatticeError(f"kappa sweep from {args.kappa_from} to {args.kappa_to} holds no "
                           f"point of the sum lattice L({spec.v0}, {spec.d})")
    if k_hi - k_lo + 1 > gamkrelidze.WINDOW_CAP:
        raise LatticeError(f"kappa sweep of {k_hi - k_lo + 1} points, above the cap of "
                           f"{gamkrelidze.WINDOW_CAP}")
    return range(k_lo, k_hi + 1)


def _cmd_llt_bound(args: argparse.Namespace) -> Any:
    if args.h is not None and args.envelope != "sandwich":
        raise LatticeError(f"llt-bound --h applies to the sandwich envelope only, "
                           f"not --envelope {args.envelope}")
    constants = args.constants
    spec = _iid_spec(args)
    sweep = _sweep_indices(args, spec)
    exact = args.mode == "exact-plug-ins"
    # only the sandwich reads h and rho_n, and only the psi envelope reads L_n
    h = _pick_h(args, spec.theta_n) if args.envelope == "sandwich" else None
    if exact and args.envelope != "psi":
        plug = bounds.exact_plug_ins(spec, h)
    else:
        plug = bounds.bounded_plug_ins(spec, h, constants=constants)
    if sweep is None:
        # looked up per request, so that wrappers set on the bounds module apply
        envelope = getattr(bounds, f"{args.envelope}_envelope")
        out = envelope(spec, args.kappa, plug, constants, exact).to_json_dict(constants)
    else:  # every refusal of the sweep is raised here
        out = bounds._BODIES[args.envelope](spec, plug, constants, exact).sweep(sweep, _SWEEP_BLOCK)
    if args.law_out:  # written once no refusal is left
        try:
            with open(args.law_out, "w", encoding="utf-8") as fobj:
                fobj.write(render(spec.law.to_json_dict(), "json"))
        except OSError as exc:
            raise LatticeError(f"cannot write output file {args.law_out}: {exc}") from exc
    return out


def _cmd_gamkrelidze(args: argparse.Namespace) -> dict:
    spec = _iid_spec(args)
    # centred on the E S_n and Var S_n that llt-bound prints for the same sum
    a_n = args.a_n if args.a_n is not None else spec.mean
    b_n = args.b_n if args.b_n is not None else spec.var
    report = gamkrelidze.interval_discrepancy(spec.law, a_n, b_n)
    check = gamkrelidze.effective_pointwise_bound(report)
    h = _pick_h(args, spec.theta_n)
    extr = gamkrelidze.smoothness_via_extraction(spec, h, b_n, args.constants)
    out = report.to_json_dict()
    out["pointwise_check"] = dataclasses.asdict(check)
    out["extraction_bound"] = {**dataclasses.asdict(extr), "h": h}
    return out


def _cmd_scenery(args: argparse.Namespace) -> dict:
    if args.kappa is None and args.mc_samples is not None:
        raise LatticeError("scenery --mc estimates P{S_n = kappa} and needs --kappa")
    model = scenery.scenery_from_json(_read_json(args.input))
    if args.kappa is None:
        # any walk, revisiting ones included: the identity carries c_{h,k}
        return dataclasses.asdict(scenery.second_moment_check(model))
    # the envelope reports the exact value too, and refuses a lazy or
    # revisiting walk before that law is built
    report = scenery.scenery_envelope(model, args.h, args.kappa, args.constants)
    out = report.to_json_dict(args.constants)
    if args.mc_samples is not None:
        est = scenery.monte_carlo_point_prob(
            model, args.kappa, samples=args.mc_samples, seed=args.seed
        )
        lo, hi = est.interval()
        out["monte_carlo"] = {**dataclasses.asdict(est), "ci3_low": lo, "ci3_high": hi}
    return out


def _cmd_partition(args: argparse.Namespace) -> dict:
    return dataclasses.asdict(partition.count_partitions(args.m, args.n, args.partition_mode))


def _cmd_validate(args: argparse.Namespace) -> dict:
    pmf = pmf_from_json(_read_json(args.input))
    ch = characteristics(pmf)
    rows = [  # (name, residual, tolerance)
        ("delta_equals_2_minus_2_theta", abs(ch.delta - (2.0 - 2.0 * ch.theta)), 1e-12),
        ("variance_at_least_quarter_span_sq_theta",
         max(0.0, pmf.D**2 * ch.theta / 4.0 - ch.variance), 1e-12),
    ]
    if ch.theta > 0:
        sp = split(pmf)
        rec = reconstruct(sp)
        err = max(abs(rec.mass(k) - pmf.mass(k)) for k in set(pmf.probs) | set(rec.probs))
        _, xv = moments(xi_law(sp))
        rows += [("reconstruction_pointwise", err, 1e-14),
                 ("xi_variance_identity",
                  abs(xv - (ch.variance - pmf.D**2 * sp.vartheta / 4.0)), 1e-12)]
    checks = [{"name": name, "residual": r, "pass": bool(r <= tol)} for name, r, tol in rows]
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
    """Dispatch parsed arguments whose ``constants`` holds the path of the
    constants override file, or None for ``LLT_CONSTANTS``; returns
    (exit_code, payload-or-error-object).  Every refusal becomes its error
    object here, a bad override included.  The payload of an ``llt-bound``
    sweep is an iterator of its blocks of row columns, whose refusals have
    all been raised here."""
    try:
        # one registry per invocation; every subcommand reads it from here
        path = args.constants or os.environ.get(ENV_CONSTANTS)
        args.constants = (bounds.constants_from_json(_read_json(path)) if path
                          else bounds.DEFAULT_CONSTANTS)
        return 0, _COMMANDS[args.command](args)
    except PreconditionError as exc:
        return 1, {"error": {"kind": "hypothesis-rejected", "message": str(exc)}}
    except NumericsError as exc:
        return 2, {"error": {"kind": "numerical-failure", "message": str(exc)}}
    except OverflowError as exc:
        return 2, {"error": {"kind": "numerical-failure",
                             "message": f"a value beyond the range of doubles: {exc}"}}
    except LatticeError as exc:
        return 2, {"error": {"kind": "input-error", "message": str(exc)}}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on the first call and shared
    after it."""
    parser = argparse.ArgumentParser(
        prog="lltkit",
        description="Effective local limit theorem bounds for lattice sums.",
    )
    parser.add_argument("--constants", help="JSON file overriding c0/ce (or set LLT_CONSTANTS)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, **kwargs) -> argparse.ArgumentParser:
        p = sub.add_parser(name, **kwargs)
        # a value such as -4.4e-16 is a number, not an option: argparse reads
        # it so from Python 3.13 on, and before that only without an exponent
        p._negative_number_matcher = re.compile(r"-\.?\d")
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
    code, payload = run(args)
    if isinstance(payload, Iterator):
        _write_sweep(payload, args.format)
    else:
        sys.stdout.write(render(payload, args.format))
    return code


if __name__ == "__main__":
    sys.exit(main())
