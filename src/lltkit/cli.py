"""Command-line front end.

Subcommands
-----------
characteristics  pmf characteristics (theta, delta, moments, span multiple)
split            Bernoulli part extraction of a pmf
llt-bound        two-sided envelopes for P{S_n = kappa}, single point or sweep
gamkrelidze      smoothness statistics and interval discrepancy of an iid sum
scenery          random-scenery moment checks / envelope
partition        exact distinct-part partition counts and the tilt of their model
validate         identity checks for a pmf (reconstruction, delta, variance)

Output is JSON (default) or CSV, deterministic for fixed arguments and seed.
Exit codes: 0 success, 1 a stated hypothesis failed for the input,
2 malformed input.  Floating-point numbers are emitted with 17 significant
digits so that values round-trip exactly.  JSON is byte for byte the text
of ``json.dumps(payload, sort_keys=True, indent=2)``, written by lltkit's
own writer (:func:`render`): json indents in pure Python, one call per
value, where the writer joins a list of scalars once and writes a list of
rows of scalars, such as the ``gamkrelidze`` d-table, as one ``%`` of a row
template over its cells.  An ``llt-bound`` sweep decides every refusal over
its whole range first; then it computes the envelope's columns a fixed
block of lattice points at a time and writes each block's rows from one
template, so its memory does not grow with its length.

Each subcommand's help and arguments are declared once, as data
(``_ARGUMENTS``, the ``add_argument`` keywords of each flag), and that table
is the one declaration that argparse and the one-pass reader share:
:func:`build_parser` passes it to argparse, and :func:`_read_argv` reads an
index of it built at import.  :func:`main` reads an argv that starts with a
subcommand name and holds only that subcommand's exact option strings, each
with one value, and its positionals, in one pass (:func:`_read_argv`); it
yields the namespace argparse would, and builds no parser.  argparse reads
every other argv: a global ``--constants``, help, an inline
``--opt=value``, an abbreviation, ``--``, and each malformed argv, so help
text, error messages and exit codes are argparse's; its parser is built on
the first such argv and shared after it.  Each call of :func:`main` reads
a fresh namespace.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import math
import os
import re
import sys
from collections.abc import Iterator
from json.encoder import encode_basestring_ascii
from typing import Any

from . import bounds, gamkrelidze, partition, scenery
from .errors import LatticeError, NumericsError, PreconditionError
from .extraction import reconstruct, split, xi_law
from .lattice import (LatticePmf, _field_dict, characteristics, lattice_position, moments,
                      pmf_from_json, theta)

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


#: the JSON text of the three constants, as json writes them
_CONSTANT_TEXT = {True: "true", False: "false", None: "null"}


def _scalar_text(x: Any) -> str | None:
    """The JSON text of a scalar, in json's order of tests (a str, a
    constant, an int, a float, each with its subclasses), or None for any
    other value.  A float is ``float.__repr__`` of it, or NaN or an infinity
    by name."""
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if x is None or x is True or x is False:
        return _CONSTANT_TEXT[x]
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        if math.isfinite(x):
            return float.__repr__(x)
        return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"
    return None


def _cell_texts(values: list | tuple) -> list | None:
    """The JSON text of each scalar of ``values``, or None when one of them
    is not a scalar.  A column of finite floats maps ``float.__repr__`` and a
    column of ints ``int.__repr__``; any other column is read cell by cell."""
    kinds = set(map(type, values))
    if kinds == {float} and all(map(math.isfinite, values)):
        return list(map(float.__repr__, values))
    if kinds == {int}:
        return list(map(int.__repr__, values))
    if kinds & {list, tuple, dict}:
        return None
    texts = list(map(_scalar_text, values))
    return None if None in texts else texts


def _rows_text(rows: list | tuple, inner: str, sep: str) -> str | None:
    """The rows of a list, joined by ``sep``, when every row is a list or
    tuple of scalars and all have one positive length: one ``%`` of a row
    template over the cells flattened row by row.  None for any other list."""
    if not set(map(type, rows)) <= {list, tuple}:
        return None
    width = len(rows[0])
    if not width or len(set(map(len, rows))) != 1:
        return None
    flat = list(itertools.chain.from_iterable(rows))
    cells = [None] * len(flat)
    for j in range(width):
        column = _cell_texts(flat[j::width])
        if column is None:  # a row holds a container
            return None
        cells[j::width] = column
    cell_sep = ",\n" + inner + "  "
    row = "[\n" + inner + "  " + cell_sep.join(["%s"] * width) + "\n" + inner + "]"
    return sep.join([row] * len(rows)) % tuple(cells)


def _list_text(items: list | tuple, indent: str) -> str:
    """A list or tuple whose first line starts at the nesting ``indent``: a
    list of scalars is one join of its cell texts, a list of rows of
    scalars :func:`_rows_text`, and any other list is written item by item."""
    if not items:
        return "[]"
    inner = indent + "  "
    sep = ",\n" + inner
    texts = _cell_texts(items)
    if texts is not None:
        body = sep.join(texts)
    else:
        body = _rows_text(items, inner, sep)
        if body is None:
            body = sep.join([_json_text(item, inner) for item in items])
    return "[\n" + inner + body + "\n" + indent + "]"


def _key_text(key: Any) -> str:
    """A dict key as json writes it: a string, or the text of a float,
    constant or int as one."""
    text = _scalar_text(key)
    if text is None:
        raise TypeError(f"keys must be str, int, float, bool or None, "
                        f"not {key.__class__.__name__}")
    return text if isinstance(key, str) else '"' + text + '"'


def _json_text(obj: Any, indent: str) -> str:
    """The text that ``json.dumps(obj, sort_keys=True, indent=2)`` gives,
    with every line after the first further indented by ``indent``."""
    text = _scalar_text(obj)
    if text is not None:
        return text
    if isinstance(obj, (list, tuple)):
        return _list_text(obj, indent)
    if not isinstance(obj, dict):
        raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")
    if not obj:
        return "{}"
    inner = indent + "  "
    # json sorts the items, not the keys: the same comparisons, the same order
    items = [f"{_key_text(key)}: {_json_text(value, inner)}" for key, value in sorted(obj.items())]
    return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"


def render(payload: Any, output_format: str) -> str:
    """Serialize a payload deterministically: JSON is the text of
    ``json.dumps(payload, sort_keys=True, indent=2)`` and a newline, byte
    for byte, and CSV is a header and one line per flattened row."""
    if output_format == "json":
        return _json_text(payload, "") + "\n"
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
    a column of None is a constant cell; in CSV a column of floats is
    ``%.17g`` and any other column (the verdicts) a lookup of the cells that
    :func:`_fmt` gives True, False and None, and in JSON every column is the
    JSON text of its cells, :func:`_cell_texts`.  Each row is one ``%`` of
    the template."""
    first = next(blocks)
    as_csv = output_format == "csv"
    verdict_text = {v: _fmt(v) for v in (True, False, None)}
    names = sorted(first)
    columns = [name for name in names if first[name]]
    floats = [name for name in columns if type(first[name][0]) is float]
    # a column of None prints the format's empty cell, as an undecided verdict does
    blank = verdict_text[None] if as_csv else _CONSTANT_TEXT[None]
    cells = {name: blank if first[name] is None
             else "%.17g" if as_csv and name in floats else "%s" for name in names}
    if as_csv:
        head, sep, tail = ",".join(names) + "\n", "\n", "\n"
        template = ",".join(cells[name] for name in names)
    else:
        head, sep, tail = "[\n", ",\n", "\n]\n"
        template = "  {\n" + ",\n".join(f'    "{name}": {cells[name]}' for name in names) + "\n  }"

    def text(block: dict) -> str:
        if as_csv:
            cols = [block[name] if name in floats else [verdict_text[v] for v in block[name]]
                    for name in columns]
        else:
            cols = [_cell_texts(block[name]) for name in columns]
        return sep.join([template % row for row in zip(*cols)])

    write = sys.stdout.write
    write(head + text(first))
    for block in blocks:
        write(sep + text(block))
    write(tail)


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_characteristics(args: argparse.Namespace) -> dict:
    pmf = pmf_from_json(_read_json(args.input))
    return _field_dict(characteristics(pmf))


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
    if args.law_out:  # written once no refusal is left, the law's own length cap included
        text = render(spec.law.to_json_dict(), "json")
        try:
            with open(args.law_out, "w", encoding="utf-8") as fobj:
                fobj.write(text)
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
    out["pointwise_check"] = _field_dict(check)
    out["extraction_bound"] = {**_field_dict(extr), "h": h}
    return out


def _cmd_scenery(args: argparse.Namespace) -> dict:
    if args.kappa is None and args.mc_samples is not None:
        raise LatticeError("scenery --mc estimates P{S_n = kappa} and needs --kappa")
    model = scenery.scenery_from_json(_read_json(args.input))
    if args.kappa is None:
        # any walk, revisiting ones included: the identity carries c_{h,k}
        return _field_dict(scenery.second_moment_check(model))
    # the envelope reports the exact value too, and refuses a lazy or
    # revisiting walk before that law is built; the model keeps the law, so
    # --mc reads it instead of building it again
    report = scenery.scenery_envelope(model, args.h, args.kappa, args.constants)
    out = report.to_json_dict(args.constants)
    if args.mc_samples is not None:
        est = scenery.monte_carlo_point_prob(
            model, args.kappa, samples=args.mc_samples, seed=args.seed
        )
        lo, hi = est.interval()
        out["monte_carlo"] = {**_field_dict(est), "ci3_low": lo, "ci3_high": hi}
    return out


def _cmd_partition(args: argparse.Namespace) -> dict:
    return _field_dict(partition.count_partitions(args.m, args.n, args.partition_mode))


def _variance_tolerance(pmf: LatticePmf, variance: float) -> float:
    """Tolerance of ``validate``'s two variance identities, which the exact
    laws obey exactly: ``max(1e-12, 40 u (Var X + D^2 (1 + u W^2)))`` with
    u = 2^-53 and W the index span of X.

    At every order, against the exact moments of the stored masses scaled to
    total one (:func:`lltkit.convolve.exact_moments`), with ``gamma_k = k u
    / (1 - k u)``: :func:`lltkit.lattice.moments` gives Var X within
    ``gamma_9 Var X + (1 + gamma_9) (gamma_4 D W)^2``, and ``D**2 theta /
    4`` is within ``gamma_6`` of ``D^2 vartheta / 4 <= Var X`` (``D**2``
    within an ulp, theta's fsum, the product, and the masses' total within
    2u of one), so ``D^2 theta / 4 - Var X`` is at most ``16 u Var X``.  At
    the default level each ``tau_k`` is ``min(f(k), f(k+1))`` exactly, and
    ``f(k) - (tau_(k-1) + tau_k) / 2`` rounds twice, so after the xi law's
    normalization each of its masses is within ``(2u + 3u^2) f(k)`` or ``u
    tau_k`` of the exact split's, up to their common scale.  As ``tau_k (v_k
    + D/2 - E X)^2 <= (f(k) (v_k - E X)^2 + f(k+1) (v_(k+1) - E X)^2) / 2``,
    that moves the variance of xi by at most ``6.1 u Var X``; its moments
    add ``gamma_9 Var xi + (1 + gamma_9) (gamma_4 (D/2) 2W)^2``, and the two
    differences of the residual u each.  So the xi residual is at most ``32
    u Var X + 33 (u D W)^2``, and 40 covers each coefficient.  The ``(u D
    W)^2`` term is the index mean's rounding, about ``u W``, squared: on
    ``{0: 1e-30, 10^12 + 7: 0.7, 10^12 + 8: 0.3}`` the residual is 8.9e-9,
    the term 1.2e-8 and ``u Var X`` 2.3e-17.  The floor and the ``40 u
    D^2`` of a first-order count are kept; the points' offset v0 enters
    neither, as the moments are summed on the index lattice."""
    w = max(pmf.probs) - min(pmf.probs)
    return max(1e-12, 40.0 * 2.0**-53 * (variance + pmf.D**2 * (1.0 + 2.0**-53 * w * w)))


def _cmd_validate(args: argparse.Namespace) -> dict:
    pmf = pmf_from_json(_read_json(args.input))
    ch = characteristics(pmf)
    tol = _variance_tolerance(pmf, ch.variance)
    rows = [  # (name, residual, tolerance)
        ("delta_equals_2_minus_2_theta", abs(ch.delta - (2.0 - 2.0 * ch.theta)), 1e-12),
        ("variance_at_least_quarter_span_sq_theta",
         max(0.0, pmf.D**2 * ch.theta / 4.0 - ch.variance), tol),
    ]
    if ch.theta > 0:
        sp = split(pmf)
        rec = reconstruct(sp)
        err = max(abs(rec.mass(k) - pmf.mass(k)) for k in set(pmf.probs) | set(rec.probs))
        _, xv = moments(xi_law(sp))
        rows += [("reconstruction_pointwise", err, 1e-14),
                 ("xi_variance_identity",
                  abs(xv - (ch.variance - pmf.D**2 * sp.vartheta / 4.0)), tol)]
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


#: a token that starts with "-" and matches this is a negative number, a value
#: such as -4.4e-16, not an option: argparse reads it so from Python 3.13 on,
#: and before that only without an exponent, so every subparser is given it
_NEGATIVE_NUMBER = re.compile(r"-\.?\d")

_FORMAT = ("--format", {"choices": ("json", "csv"), "default": "json"})

#: each subcommand's help and its arguments in order, as (name or flag,
#: ``add_argument`` keywords): the one declaration that argparse
#: (:func:`build_parser`) and the one-pass reader (:func:`_read_argv`) share
_ARGUMENTS: dict[str, tuple[str, tuple]] = {
    "characteristics": ("pmf characteristics", (_FORMAT, ("input", {"help": "pmf JSON file"}))),
    "split": ("Bernoulli part extraction",
              (_FORMAT, ("input", {}), ("--vartheta", {"type": float}))),
    "llt-bound": ("two-sided envelope for P{S_n = kappa}", (
        _FORMAT, ("input", {}), ("--n", {"type": int, "required": True}),
        ("--kappa", {"type": float}), ("--kappa-from", {"type": float}),
        ("--kappa-to", {"type": float}), ("--h", {"type": float}),
        ("--mode", {"choices": ("exact-plug-ins", "bounded-plug-ins"),
                    "default": "exact-plug-ins"}),
        ("--envelope", {"choices": ("sandwich", "central", "psi"), "default": "sandwich"}),
        ("--law-out", {"help": "also write the exact sum law to this file (pmf JSON schema)"}),
    )),
    "gamkrelidze": ("smoothness statistics of an iid sum", (
        _FORMAT, ("input", {}), ("--n", {"type": int, "required": True}),
        ("--a", {"type": float, "dest": "a_n"}), ("--b", {"type": float, "dest": "b_n"}),
        ("--h", {"type": float}),
    )),
    "scenery": ("random-scenery checks / envelope", (
        _FORMAT, ("input", {"help": "scenery model JSON file"}), ("--kappa", {"type": float}),
        ("--h", {"type": float, "default": FALLBACK_H}),
        ("--mc", {"type": int, "dest": "mc_samples"}), ("--seed", {"type": int, "default": 1}),
    )),
    "partition": ("distinct-part partition count", (
        _FORMAT, ("--m", {"type": int, "required": True}), ("--n", {"type": int, "required": True}),
        ("--mode", {"choices": ("model", "enum", "both"), "default": "both",
                    "dest": "partition_mode"}),
    )),
    "validate": ("identity checks for a pmf", (_FORMAT, ("input", {}))),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand of :data:`_ARGUMENTS`, built on the
    first call and shared after it."""
    parser = argparse.ArgumentParser(
        prog="lltkit",
        description="Effective local limit theorem bounds for lattice sums.",
    )
    parser.add_argument("--constants", help="JSON file overriding c0/ce (or set LLT_CONSTANTS)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, arguments) in _ARGUMENTS.items():
        p = sub.add_parser(name, help=help_text)
        p._negative_number_matcher = _NEGATIVE_NUMBER
        for flag, keywords in arguments:
            p.add_argument(flag, **keywords)
    return parser


def _reader_index(name: str, arguments: tuple) -> tuple:
    """What :func:`_read_argv` reads of one subcommand's arguments, each as
    argparse declares it: the (dest, type, choices) of each option by its
    flag and of the positionals in order, the required dests, and the
    namespace argparse starts from (``constants`` None, ``command`` the
    name, then each default)."""
    options, positionals, required = {}, [], set()
    namespace = {"constants": None, "command": name}
    for flag, keywords in arguments:
        is_option = flag.startswith("-")
        dest = keywords.get("dest", flag.lstrip("-").replace("-", "_"))
        entry = (dest, keywords.get("type"), keywords.get("choices"))
        if is_option:
            options[flag] = entry
        else:
            positionals.append(entry)
        if keywords.get("required", not is_option):
            required.add(dest)
        namespace[dest] = keywords.get("default")
    return options, tuple(positionals), required, namespace


_READER_INDEX = {name: _reader_index(name, arguments)
                 for name, (_, arguments) in _ARGUMENTS.items()}


def _read_argv(argv: list[str]) -> argparse.Namespace | None:
    """The namespace that ``build_parser().parse_args(argv)`` returns, read in
    one pass for an argv that starts with a subcommand name and holds only
    its exact option strings, each followed by one value, and its
    positionals; None for every argv it cannot read so, which argparse
    then reads, with its help, errors and exit codes.  It declines a
    global option before the subcommand, help, ``--opt=value``, an
    abbreviation, ``--``, a missing value or one argparse takes for an
    option, a failed type or choice, an extra positional and a missing
    required argument."""
    index = _READER_INDEX.get(argv[0]) if argv else None
    if index is None:
        return None
    options, positionals, required, namespace = index
    values = dict(namespace)
    seen = set()
    pending = iter(positionals)
    i, end = 1, len(argv)
    while i < end:
        entry = options.get(argv[i])
        if entry is None:
            token = argv[i]
            entry = next(pending, None)
            i += 1
        elif i + 1 < end:
            token = argv[i + 1]
            i += 2
        else:
            return None
        # a token starting with "-" is a value only as argparse reads a negative number
        if entry is None or (token[:1] == "-" and _NEGATIVE_NUMBER.match(token) is None):
            return None
        dest, kind, choices = entry
        try:
            value = token if kind is None else kind(token)
        except Exception:  # argparse, reading the argv again, reports or raises it
            return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
        seen.add(dest)
    if not seen.issuperset(required):
        return None
    return argparse.Namespace(**values)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    code, payload = run(args)
    if isinstance(payload, Iterator):
        _write_sweep(payload, args.format)
    else:
        sys.stdout.write(render(payload, args.format))
    return code


if __name__ == "__main__":
    sys.exit(main())
