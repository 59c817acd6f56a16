"""Envelope soundness: every envelope contains the exact point probability.

A derandomized property test draws iid sums of random laws: 2-6 support
points on offsets 0..8 (gaps allowed), any masses, offsets v0 and spans D
other than 0 and 1 among them, and n from 1 to 600.  Each sum is read by
every envelope (sandwich, central, psi) in both modes (exact-plug-ins and
bounded-plug-ins), with the plug-ins and the sandwich's h chosen as
``llt-bound`` chooses them, at every point of the support of S_n (the
central range of the central and psi envelopes only).  At each point

    lower <= exact + err_abs   and   exact - err_abs <= upper,

with the exact law from ``spec.law`` and ``err_abs`` its error bound.  The
only refusals allowed are stated preconditions (:class:`PreconditionError`:
theta = 0, the growth condition, a degenerate conditional sum).  A
violation is a finding about an envelope or its plug-ins, never a reason
to narrow the generators.

The examples are derandomized, so a run is repeatable.  A longer run, for
example when re-anchoring, sets the example count that
``tests/test_contract.py`` reads too:

    LLTKIT_CONTRACT_EXAMPLES=2000 python -m pytest tests/test_soundness.py
"""

from __future__ import annotations

import os

import numpy as np
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from lltkit import PreconditionError, bounds, make_pmf, theta
from lltkit.cli import FALLBACK_H

_EXAMPLES = int(os.environ.get("LLTKIT_CONTRACT_EXAMPLES", "400"))

_MODES = ("exact-plug-ins", "bounded-plug-ins")


@st.composite
def _sums(draw):
    """A law of 2-6 points on offsets 0..8 and a count n in 1..600."""
    ks = draw(st.lists(st.integers(0, 8), min_size=2, max_size=6, unique=True))
    weights = draw(st.lists(st.floats(1e-4, 1.0), min_size=len(ks), max_size=len(ks)))
    v0 = draw(st.sampled_from([0.0, -1.5, 0.3, 2.75, -40.0]))
    d = draw(st.sampled_from([1.0, 0.5, 2.0, 0.25, 3.5]))
    # integers() favours small values: the second draw keeps large n common
    n = draw(st.one_of(st.integers(1, 600), st.integers(200, 600)))
    return make_pmf(v0, d, list(zip(sorted(ks), weights))), n


def _plug_ins(spec, mode: str, envelope: str):
    """The plug-ins ``llt-bound`` reads for the envelope in the mode: exact
    ones for the sandwich and central envelopes in exact mode, bounded ones
    otherwise; h, the sandwich's only, is its default or the fallback."""
    h = None
    if envelope == "sandwich":
        try:
            h = bounds.h_default(spec.theta_n)
        except PreconditionError:
            h = FALLBACK_H
    if mode == "exact-plug-ins" and envelope != "psi":
        return bounds.exact_plug_ins(spec, h)
    return bounds.bounded_plug_ins(spec, h)


def _in_range(body, spec, ks: np.ndarray) -> np.ndarray:
    """The indices of ``ks`` whose points the body's central range admits,
    tested as the body tests them."""
    if body.limit is None:
        return ks
    admitted = [k for k in ks.tolist()
                if not ((spec.v0 + spec.d * k - spec.mean) ** 2 / spec.var > body.limit[0])]
    return np.array(admitted, dtype=int)


@settings(max_examples=_EXAMPLES, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_sums())
def test_envelopes_contain_the_exact_law(case):
    law, n = case
    event(f"n in {n // 100 * 100}..{n // 100 * 100 + 99}")
    try:
        spec = bounds.prepare_sum([(law, theta(law), n)])
    except PreconditionError:  # theta = 0: no Bernoulli part to extract
        event("refused: theta = 0")
        return
    exact = spec.law
    support, _ = exact.atoms()
    err = exact.err_abs
    for mode in _MODES:
        for envelope, make_body in bounds._BODIES.items():
            try:
                body = make_body(spec, _plug_ins(spec, mode, envelope), bounds.DEFAULT_CONSTANTS,
                                 True)
            except PreconditionError as exc:
                event(f"{envelope} refused: {str(exc).split(':')[0]}")
                continue
            ks = _in_range(body, spec, support)
            event(f"{envelope} {mode}: {'points' if len(ks) else 'no point'} in range")
            if not len(ks):
                continue
            # the admitted points are contiguous in the support: read them in
            # one block from the first to the last
            k0, k1 = int(ks[0]), int(ks[-1])
            cols = body.columns(k0, [spec.v0 + spec.d * k for k in range(k0, k1 + 1)])
            for k, p, lo, up in zip(range(k0, k1 + 1), cols["exact"], cols["lower"],
                                    cols["upper"]):
                assert lo <= p + err and p - err <= up, (envelope, mode, n, k, lo, p, up, err)
