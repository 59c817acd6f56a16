"""The command line's contract, over hostile inputs to all seven subcommands.

Each example writes a pmf, a scenery model or a constants override and
picks options, for half the examples from ordinary values only, so that
requests also succeed, and for the other half from a hostile pool as well
(zero, subnormals, 1e+-300, 1.7e308, 2^53 +- 1, ints past 2^63, bools,
support points near +-2^53, masses from 5e-324 to 1.7e308, n from 1 to
1e7, NaN and the infinities).  It runs one ``lltkit.cli.main`` call in
process and checks what a caller may rely on:

- no exception leaves ``main``, and the exit code is 0, 1 or 2;
- a non-zero exit prints one error object of a known kind;
- an exit-0 output holds no NaN, and an infinity only where one is
  documented (``_INFINITE_CELLS``);
- JSON output, stdout and any ``--law-out`` file, is the text that
  ``json.dumps(sort_keys=True, indent=2)`` gives for its own parse, and a
  refused request writes no ``--law-out`` file;
- no warning is raised (the test configuration makes warnings errors).

The examples are derandomized, so a run is repeatable.  A longer run, for
example when re-anchoring, sets ``LLTKIT_CONTRACT_EXAMPLES``, which
``tests/test_soundness.py`` reads too:

    LLTKIT_CONTRACT_EXAMPLES=5000 python -m pytest tests/test_contract.py tests/test_soundness.py
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from typing import Any

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from lltkit.cli import main

_EXAMPLES = int(os.environ.get("LLTKIT_CONTRACT_EXAMPLES", "250"))

_KINDS = {"hypothesis-rejected", "numerical-failure", "input-error"}

#: the cells that may be infinite at exit 0, with their value there: the
#: sides and width of a vacuous sandwich
_INFINITE_CELLS = {"lower": -math.inf, "upper": math.inf, "envelope_width": math.inf}

_BIG = [2**53 - 1, 2**53, 2**53 + 1, -(2**53) - 1, 2**63 + 1, -(2**64)]
_HOSTILE = st.sampled_from([0, 0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1e300,
                            -1e300, 1.7e308, -1.7e308, *_BIG, True, False, math.nan, math.inf,
                            -math.inf])
_MASSES = st.sampled_from([5e-324, 1e-300, 1e-17, 0.1, 1, 3, 1e300, 1.7e308, 0, -1, True,
                           math.nan, math.inf])


class _Pools:
    """The values of one request: a tame request draws ordinary values only,
    a hostile one draws from the ordinary and the hostile pool alike."""

    def __init__(self, hostile: bool):
        self.hostile = hostile

    def __call__(self, tame: st.SearchStrategy, wild: st.SearchStrategy) -> st.SearchStrategy:
        return st.one_of(tame, wild) if self.hostile else tame

    def real(self, *tame) -> st.SearchStrategy:
        return self(st.sampled_from(tame), _HOSTILE)

    def optional(self, *tame) -> st.SearchStrategy:
        """None or a real: an option left out, or given."""
        return st.one_of(st.none(), self.real(*tame))

    def n(self) -> st.SearchStrategy:
        return self(st.sampled_from([1, 2, 3, 7, 16, 64, 200]),
                    st.sampled_from([10**5, 10**7, 0, -1, 2**53 + 1]))

    def pmf(self) -> st.SearchStrategy:
        """Masses on two to four consecutive indices, or a hostile pmf."""
        consecutive = st.tuples(st.integers(-2, 2), st.lists(st.sampled_from([1, 2, 0.5]),
                                                             min_size=2, max_size=4))
        tame = st.fixed_dictionaries({
            "v0": st.sampled_from([0, 0.5, -1]), "D": st.sampled_from([1, 1, 0.5, 2]),
            "probs": consecutive.map(lambda c: [[c[0] + i, w] for i, w in enumerate(c[1])])})
        wild = st.fixed_dictionaries({
            "v0": self.real(0, 0.5, -1), "D": self.real(1, 0.5, 2),
            "probs": st.lists(st.tuples(st.one_of(st.integers(-3, 4),
                                                  st.sampled_from([*_BIG, 2**52, True, 1.5])),
                                        _MASSES).map(list), min_size=1, max_size=4)})
        return self(tame, wild)


def _lattice_points(pmf: dict, n: int) -> st.SearchStrategy:
    """Points ``n v0 + D j`` of the sum lattice, j from the sum's index range
    and a little past it, so that requests reach the envelopes; a pool that
    holds none (an overflow, a value that is not a number) draws None."""
    try:
        n = int(n)
        v0, span = float(pmf["v0"]), float(pmf["D"])
        ks = [int(k) for k, _ in pmf["probs"]]
        ends = [n * min(ks), n * max(ks)]
        lo, hi = min(ends) - 2, max(ends) + 2
        if math.isfinite(n * v0 + span * hi) and hi - lo < 2**53:
            return st.integers(lo, hi).map(lambda j: n * v0 + span * j)
    except (ValueError, OverflowError, TypeError):
        pass
    return st.none()


def _options(draw, names: dict) -> list[str]:
    """``--name=value`` for each option whose drawn value is not None; the
    ``=`` form keeps a value such as ``-inf`` from reading as an option."""
    argv = []
    for name, strategy in names.items():
        value = draw(strategy)
        if isinstance(value, bool):  # argparse reads no "True"
            value = int(value)
        if value is not None:
            argv.append(f"--{name}={value!r}" if isinstance(value, float) else f"--{name}={value}")
    return argv


@st.composite
def _invocations(draw) -> tuple[list[str], dict[str, Any]]:
    """An argv whose ``{name}`` words are the files to write, and those files."""
    pools = _Pools(draw(st.booleans()))
    # llt-bound and gamkrelidze, with the most options, are drawn twice as often
    command = draw(st.sampled_from(["characteristics", "split", "llt-bound", "gamkrelidze",
                                    "scenery", "partition", "validate", "llt-bound",
                                    "gamkrelidze"]))
    files: dict[str, Any] = {}
    argv = [command]
    if command == "scenery":
        x_law = draw(pools.pmf())
        n = draw(pools(st.integers(1, 5), st.sampled_from([0, 30, 10**7, -1, 2.0, 2.5, True,
                                                           2**64])))
        steps = pools(st.lists(st.tuples(st.integers(1, 2), st.sampled_from([1, 2])).map(list),
                               min_size=1, max_size=2),
                      st.lists(st.tuples(st.integers(-1, 3), _MASSES).map(list), min_size=1,
                               max_size=3))
        level = pools(st.sampled_from([0.05, 0.1, 0.25]),
                      st.one_of(_HOSTILE, st.lists(st.tuples(
                          st.integers(-3, 12), pools.real(0.1, 0.5)).map(list), max_size=6)))
        files["model"] = {"x_law": x_law, "increments": {"v0": 0, "D": 1, "probs": draw(steps)},
                          "n": n, "vartheta": draw(level)}
        argv.append("{model}")
        kappa = draw(st.one_of(st.none(), _lattice_points(x_law, n), pools.optional(0.5, 3)))
        argv += _options(draw, {"kappa": st.just(kappa), "h": pools.optional(0.25, 0.5),
                                "mc": st.none() if kappa is None else st.one_of(
                                    st.none(), pools(st.sampled_from([1, 2, 500]),
                                                     st.sampled_from([0, -1]))),
                                "seed": st.one_of(st.none(), pools(st.integers(0, 3),
                                                                   st.sampled_from([-1, 2**64])))})
    elif command == "partition":
        argv += _options(draw, {
            "m": pools(st.integers(0, 8), st.sampled_from([-3, 2**53 + 1])),
            "n": pools(st.one_of(st.integers(1, 61), st.sampled_from([100, 300])),
                       st.sampled_from([800, 2000, 10**7, 0, -5, 2**53 + 2])),
            "mode": st.sampled_from(["model", "enum", "both"])})
    else:
        pmf = files["pmf"] = draw(pools.pmf())
        argv.append("{pmf}")
        if command == "split":
            argv += _options(draw, {"vartheta": pools.optional(0.1, 0.25)})
        elif command == "llt-bound":
            n = draw(pools.n())
            kappa = st.one_of(_lattice_points(pmf, n), pools.real(0.5, 32))
            envelope = draw(st.sampled_from(["sandwich", "central", "psi"]))
            # --h applies to the sandwich only: elsewhere it is a hostile value
            h = pools.optional(0.25, 0.5, 0.9) if envelope == "sandwich" else pools(
                st.none(), pools.real(0.25))
            argv += _options(draw, {
                "n": st.just(n), "envelope": st.just(envelope), "h": h,
                "mode": st.sampled_from(["exact-plug-ins", "bounded-plug-ins"])})
            if draw(st.booleans()):
                argv += _options(draw, {"kappa": kappa})
            else:
                argv += _options(draw, {"kappa-from": kappa, "kappa-to": kappa})
            if draw(st.booleans()):
                argv.append("--law-out={law}")
        elif command == "gamkrelidze":
            n = draw(pools.n())
            argv += _options(draw, {
                "n": st.just(n), "a": st.one_of(st.none(), _lattice_points(pmf, n),
                                                pools.real(0.5)),
                "b": pools.optional(1, 32), "h": pools.optional(0.25, 0.5)})
    argv.append(f"--format={draw(st.sampled_from(['json', 'csv']))}")
    if pools.hostile and draw(st.integers(0, 3)) == 0:
        files["constants"] = draw(st.dictionaries(st.sampled_from(["c0", "ce"]),
                                                  pools.real(0.2, 0.56), max_size=2))
        argv[:0] = ["--constants", "{constants}"]
    return argv, files


def _non_finite(obj: Any, key: str | None = None) -> list[tuple[str | None, float]]:
    """The (key, value) of every NaN or infinity in a parsed JSON payload."""
    if isinstance(obj, dict):
        return [bad for k, v in obj.items() for bad in _non_finite(v, k)]
    if isinstance(obj, list):
        return [bad for v in obj for bad in _non_finite(v, key)]
    return [(key, obj)] if isinstance(obj, float) and not math.isfinite(obj) else []


def _check_json(code: int, out: str) -> None:
    payload = json.loads(out)
    assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if code:
        assert list(payload) == ["error"] and set(payload["error"]) == {"kind", "message"}
        assert payload["error"]["kind"] in _KINDS
        return
    for key, value in _non_finite(payload):
        assert _INFINITE_CELLS.get(key) == value, (key, value)


def _check_csv(code: int, out: str) -> None:
    limit = csv.field_size_limit(len(out))  # a gamkrelidze d-table is one cell
    try:
        rows = list(csv.reader(io.StringIO(out, newline="")))
    finally:
        csv.field_size_limit(limit)
    assert rows and all(len(row) == len(rows[0]) for row in rows)
    if code:
        assert rows[0] == ["error.kind", "error.message"] and len(rows) == 2
        assert rows[1][0] in _KINDS
        return
    for row in rows[1:]:
        for name, cell in zip(rows[0], row):
            if cell in ("nan", "inf", "-inf"):
                assert _INFINITE_CELLS.get(name) == float(cell), (name, cell)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


@settings(max_examples=_EXAMPLES, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(_invocations())
def test_contract(workdir, invocation):
    argv, files = invocation
    paths = {name: str(workdir / f"{name}.json") for name in (*files, "law")}
    for name, obj in files.items():
        with open(paths[name], "w", encoding="utf-8") as fobj:
            json.dump(obj, fobj)
    with contextlib.suppress(FileNotFoundError):
        os.remove(paths["law"])
    argv = [word.format(**paths) for word in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code in (0, 1, 2)
    event(f"{argv[2] if argv[0] == '--constants' else argv[0]} exit {code}")
    fmt = argv[-1].removeprefix("--format=")
    (_check_json if fmt == "json" else _check_csv)(code, out.getvalue())
    if os.path.exists(paths["law"]):  # --law-out writes only once nothing is refused
        assert code == 0
        with open(paths["law"], encoding="utf-8") as fobj:
            _check_json(0, fobj.read())
