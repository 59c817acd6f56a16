"""Command-line interface: dispatch, formats, determinism, exit codes."""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from typing import Any

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import lltkit.cli
from lltkit import bounds, iid_sum, make_pmf, partition, pmf_from_json, theta
from lltkit.bounds import BoundReport, ConstantsRegistry
from lltkit.cli import _flatten, _fmt, main, render
from lltkit.convolve import SumLaw
from lltkit.errors import LatticeError, NumericsError, PreconditionError
from lltkit.gamkrelidze import WINDOW_CAP


@pytest.fixture
def bern_file(tmp_path):
    path = tmp_path / "dist.json"
    path.write_text(json.dumps({"v0": 0, "D": 1, "probs": [[0, 1], [1, 1]]}))
    return str(path)


@pytest.fixture
def scenery_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(
        json.dumps(
            {
                "x_law": {"v0": 0, "D": 1, "probs": [[0, 1], [1, 1]]},
                "increments": {"v0": 0, "D": 1, "probs": [[1, 1], [2, 1]]},
                "n": 4,
                "vartheta": 0.5,
            }
        )
    )
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


class TestCharacteristics:
    def test_fair_bernoulli(self, capsys, bern_file):
        code, out = run_cli(capsys, ["characteristics", bern_file])
        assert code == 0
        payload = json.loads(out)
        assert payload["theta"] == 0.5
        assert payload["delta"] == 1.0
        assert payload["variance"] == 0.25
        assert payload["span_multiple"] == 1

    def test_csv_and_json_hold_same_values(self, capsys, bern_file):
        _, out_json = run_cli(capsys, ["characteristics", bern_file])
        _, out_csv = run_cli(capsys, ["characteristics", bern_file, "--format", "csv"])
        payload = json.loads(out_json)
        header, row = out_csv.strip().split("\n")
        csv_vals = dict(zip(header.split(","), row.split(",")))
        for key, val in payload.items():
            assert float(csv_vals[key]) == float(val)


class TestLltBound:
    def test_single_point_exact_mode(self, capsys, bern_file):
        code, out = run_cli(
            capsys,
            ["llt-bound", bern_file, "--n", "64", "--kappa", "32", "--h", "0.25"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["sandwich_ok"] is True
        assert payload["lower"] <= payload["exact"] <= payload["upper"]
        assert payload["exact"] == pytest.approx(math.comb(64, 32) / 2**64, rel=1e-12)
        assert payload["params"]["mode"] == "exact-plug-ins"
        assert payload["constants"]["c1"] == 4.0

    def test_bounded_mode_has_no_exact(self, capsys, bern_file):
        code, out = run_cli(
            capsys,
            ["llt-bound", bern_file, "--n", "64", "--kappa", "32", "--h", "0.25",
             "--mode", "bounded-plug-ins"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["exact"] is None
        assert payload["params"]["mode"] == "bounded-plug-ins"

    def test_sweep_all_rows_pass(self, capsys, bern_file):
        code, out = run_cli(
            capsys,
            ["llt-bound", bern_file, "--n", "64", "--kappa-from", "20",
             "--kappa-to", "44", "--h", "0.25"],
        )
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 25
        assert all(r["sandwich_ok"] for r in rows)

    @pytest.mark.parametrize("ends, fmt", [(("3.2", "3.8"), "json"), (("5", "3"), "json"),
                                           (("5", "3"), "csv")],
                             ids=["between-points", "reversed-json", "reversed-csv"])
    def test_empty_sweep_exits_2(self, capsys, bern_file, ends, fmt):
        # no lattice point between the ends, or the ends reversed
        code, out = run_cli(capsys, ["llt-bound", bern_file, "--n", "8", "--kappa-from", ends[0],
                                     "--kappa-to", ends[1], "--h", "0.25", "--format", fmt])
        assert code == 2
        if fmt == "json":
            err = json.loads(out)["error"]
            assert err["kind"] == "input-error"
            message = err["message"]
        else:
            assert out.splitlines()[1].startswith("input-error,")
            message = out
        assert f"from {float(ends[0])} to {float(ends[1])}" in message

    def test_far_tail_gaussian_underflows_to_zero(self, capsys, bern_file):
        code, out = run_cli(
            capsys,
            ["llt-bound", bern_file, "--n", "8", "--kappa", "8", "--h", "0.25"],
        )
        assert code == 0  # far outside the bulk but still a valid lattice point

    @pytest.mark.parametrize("envelope", ["central", "psi"])
    def test_h_with_a_symmetric_envelope_exits_2(self, capsys, bern_file, envelope):
        # the symmetric envelopes take no deviation parameter; refused before the input is read
        code, out = run_cli(
            capsys,
            ["llt-bound", "missing.json", "--n", "1000", "--kappa", "500", "--h", "1.5",
             "--envelope", envelope],
        )
        assert code == 2
        err = json.loads(out)["error"]
        assert err["kind"] == "input-error"
        assert "--h" in err["message"] and envelope in err["message"]
        code, _ = run_cli(capsys, ["llt-bound", bern_file, "--n", "1000", "--kappa", "500",
                                   "--envelope", envelope, "--mode", "bounded-plug-ins"])
        assert code == 0

    def test_central_envelope_hypothesis_failure_exits_1(self, capsys, bern_file):
        code, out = run_cli(
            capsys,
            ["llt-bound", bern_file, "--n", "4", "--kappa", "2",
             "--envelope", "central"],
        )
        assert code == 1
        err = json.loads(out)["error"]
        assert err["kind"] == "hypothesis-rejected"
        assert "log(theta_n)/theta_n" in err["message"]

    @pytest.mark.parametrize("mode", ["exact-plug-ins", "bounded-plug-ins"])
    @pytest.mark.parametrize("kappa", ["4.5", "nan"])
    def test_kappa_off_lattice_exits_1(self, capsys, bern_file, mode, kappa):
        code, out = run_cli(
            capsys, ["llt-bound", bern_file, "--n", "8", "--kappa", kappa, "--mode", mode]
        )
        assert code == 1
        assert "not on the sum lattice" in json.loads(out)["error"]["message"]

    @pytest.mark.parametrize("ends", [["--kappa", "1e300"],
                                      ["--kappa-from", "1e300", "--kappa-to", "1e300"]])
    def test_kappa_beyond_2_to_53_steps_exits_2(self, capsys, bern_file, ends):
        # a double there names no single lattice point: refused before it is
        # squared into an overflow or counted as a sweep of 10^300 points
        code, out = run_cli(capsys, ["llt-bound", bern_file, "--n", "64", *ends])
        assert code == 2
        assert json.loads(out) == {"error": {"kind": "input-error", "message": (
            "kappa = 1e+300 lies more than 2^53 steps from v0 on L(0.0, 1.0)")}}

    def test_byte_identical_reruns(self, capsys, bern_file):
        argv = ["llt-bound", bern_file, "--n", "32", "--kappa", "16", "--h", "0.25"]
        _, out1 = run_cli(capsys, argv)
        _, out2 = run_cli(capsys, argv)
        assert out1 == out2

    def test_law_out_writes_pmf_schema(self, capsys, bern_file, tmp_path):
        law_path = tmp_path / "law.json"
        code, _ = run_cli(
            capsys,
            ["llt-bound", bern_file, "--n", "8", "--kappa", "4", "--h", "0.25",
             "--law-out", str(law_path)],
        )
        assert code == 0
        law = json.loads(law_path.read_text())
        assert law["D"] == 1.0 and law["v0"] == 0.0
        masses = dict((int(k), v) for k, v in law["probs"])
        assert masses[4] == pytest.approx(math.comb(8, 4) / 2**8, rel=1e-13)

    @pytest.mark.parametrize("argv, code", [
        (["--n", "64", "--h", "1.5", "--kappa", "32"], 1),
        (["--n", "4000", "--mode", "bounded-plug-ins", "--envelope", "central",
          "--kappa", "2100"], 1),
        (["--n", "4000", "--mode", "bounded-plug-ins", "--envelope", "central",
          "--kappa-from", "2000", "--kappa-to", "2100"], 1),
        (["--n", "64", "--envelope", "psi", "--kappa", "32"], 1),
        # bounded plug-ins build no law, so the law's own length cap refuses it last
        (["--n", "10000000", "--mode", "bounded-plug-ins", "--kappa", "5000000"], 2),
    ], ids=["h-out-of-range", "central-point-outside", "central-sweep-outside",
            "psi-theta-n-too-small", "bounded-law-above-the-cap"])
    def test_refused_request_writes_no_law(self, capsys, bern_file, tmp_path, argv, code):
        law_path = tmp_path / "law.json"
        argv = ["llt-bound", bern_file, *argv, "--law-out", str(law_path)]
        assert run_cli(capsys, argv)[0] == code
        assert not law_path.exists()

    def test_law_out_written_with_a_sweep(self, capsys, bern_file, tmp_path):
        law_path = tmp_path / "law.json"
        argv = ["llt-bound", bern_file, "--n", "8", "--kappa-from", "2", "--kappa-to", "6"]
        code, out = run_cli(capsys, [*argv, "--law-out", str(law_path)])
        assert (code, out) == run_cli(capsys, argv)
        assert pmf_from_json(json.loads(law_path.read_text())).probs[4] == pytest.approx(
            math.comb(8, 4) / 2**8, rel=1e-13)

    def test_law_out_unwritable_path_exits_2(self, capsys, bern_file, tmp_path):
        path = tmp_path / "no" / "such" / "law.json"
        code, out = run_cli(capsys, ["llt-bound", bern_file, "--n", "10", "--kappa", "5",
                                     "--law-out", str(path)])
        assert code == 2
        err = json.loads(out)["error"]
        assert err["kind"] == "input-error"
        assert err["message"].startswith(f"cannot write output file {path}")

    @pytest.mark.parametrize("mode, laws", [("exact-plug-ins", 3), ("bounded-plug-ins", 0)])
    def test_sweep_builds_each_law_once(self, capsys, bern_file, monkeypatch, mode, laws):
        # exact mode: the xi law and the B_n law for the plug-ins, then the
        # law of S_n for the exact values; bounded mode builds none
        import lltkit.bounds

        calls = []
        original = lltkit.bounds.sum_law
        monkeypatch.setattr(lltkit.bounds, "sum_law",
                            lambda parts: calls.append(parts) or original(parts))
        code, out = run_cli(capsys, ["llt-bound", bern_file, "--n", "400", "--mode", mode,
                                     "--kappa-from", "195", "--kappa-to", "205"])
        assert code == 0
        assert len(json.loads(out)) == 11
        assert len(calls) == laws

    def test_sweep_scans_summands_once(self, capsys, bern_file, monkeypatch):
        # the sum is validated once per request, not once per kappa point
        import lltkit.bounds

        calls = 0
        original = lltkit.bounds.theta

        def counting_theta(pmf):
            nonlocal calls
            calls += 1
            return original(pmf)

        monkeypatch.setattr(lltkit.bounds, "theta", counting_theta)
        n = 2000
        code, out = run_cli(
            capsys,
            ["llt-bound", bern_file, "--n", str(n), "--mode", "bounded-plug-ins",
             "--kappa-from", "995", "--kappa-to", "1005"],
        )
        assert code == 0
        assert len(json.loads(out)) == 11
        assert calls <= n + 10

    @pytest.mark.parametrize("side", ["--kappa-from", "--kappa-to"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_sweep_end_exits_2(self, capsys, bern_file, side, value):
        ends = {"--kappa-from": "20", "--kappa-to": "40", side: value}
        argv = ["llt-bound", bern_file, "--n", "64"] + [f"{k}={v}" for k, v in ends.items()]
        code, out = run_cli(capsys, argv)
        assert code == 2
        err = json.loads(out)["error"]
        assert err["kind"] == "input-error"
        assert "finite" in err["message"]

    @pytest.mark.parametrize("ends", [["--kappa-from", "20", "--kappa-to", "40"],
                                      ["--kappa-from", "20"], ["--kappa-to", "40"]])
    def test_kappa_with_sweep_exits_2(self, capsys, bern_file, ends):
        code, out = run_cli(capsys, ["llt-bound", bern_file, "--n", "64", "--kappa", "32"] + ends)
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "input-error"

    @pytest.mark.parametrize("mode", ["exact-plug-ins", "bounded-plug-ins"])
    def test_sweep_above_cap_exits_2(self, capsys, bern_file, mode):
        code, out = run_cli(capsys, ["llt-bound", bern_file, "--n", "400", "--mode", mode,
                                     "--kappa-from", "0", "--kappa-to", "1e12"])
        assert code == 2
        err = json.loads(out)["error"]
        assert err["kind"] == "input-error"
        assert str(10**12 + 1) in err["message"] and str(WINDOW_CAP) in err["message"]

    def test_sweep_at_cap_runs(self, capsys, bern_file, monkeypatch):
        import lltkit.gamkrelidze

        monkeypatch.setattr(lltkit.gamkrelidze, "WINDOW_CAP", 5)
        argv = ["llt-bound", bern_file, "--n", "64", "--kappa-from", "30"]
        code, out = run_cli(capsys, argv + ["--kappa-to", "34"])
        assert code == 0 and len(json.loads(out)) == 5
        code, out = run_cli(capsys, argv + ["--kappa-to", "35"])
        assert code == 2 and "6 points" in json.loads(out)["error"]["message"]

    def test_one_point_sweep_prints_the_single_point_row(self, capsys, tmp_path):
        # far lattice points of L(0, 0.1) given as their shortest decimals; a
        # fixed 1e-9 step tolerance on the sweep ends refused 40 of these 200
        # one-point sweeps that --kappa accepts
        path = tmp_path / "tenths.json"
        path.write_text(json.dumps({"v0": 0, "D": 0.1, "probs": [[0, 1], [1, 1]]}))
        argv = ["llt-bound", str(path), "--n", "60000000", "--mode", "bounded-plug-ins"]
        for k in range(30_000_000, 30_000_200):
            kappa = repr(0.1 * k)
            code, single = run_cli(capsys, argv + ["--kappa", kappa])
            assert code == 0
            code, sweep = run_cli(capsys, argv + ["--kappa-from", kappa, "--kappa-to", kappa])
            assert code == 0, kappa
            (row,) = json.loads(sweep)
            single = json.loads(single)
            assert row == {key: single[key] for key in row}
            assert row["kappa"] == float(kappa)

    def test_csv_sweep_matches_json_values(self, capsys, bern_file):
        argv = ["llt-bound", bern_file, "--n", "16", "--kappa-from", "6",
                "--kappa-to", "10", "--h", "0.25"]
        _, out_json = run_cli(capsys, argv)
        _, out_csv = run_cli(capsys, argv + ["--format", "csv"])
        rows = json.loads(out_json)
        lines = out_csv.strip().split("\n")
        header = lines[0].split(",")
        for row, line in zip(rows, lines[1:]):
            cells = dict(zip(header, line.split(",")))
            for key in ("kappa", "exact", "gaussian", "lower", "upper"):
                assert float(cells[key]) == float(row[key])


class TestOtherCommands:
    def test_split_command(self, capsys, bern_file):
        code, out = run_cli(capsys, ["split", bern_file, "--vartheta", "0.25"])
        assert code == 0
        payload = json.loads(out)
        assert payload["vartheta"] == 0.25
        assert payload["xi_law"]["D"] == 0.5

    def test_split_csv_cells_hold_the_json_lists(self, capsys, bern_file):
        _, out_json = run_cli(capsys, ["split", bern_file])
        _, out_csv = run_cli(capsys, ["split", bern_file, "--format", "csv"])
        payload = json.loads(out_json)
        header, row = out_csv.strip().split("\n")
        cells = dict(zip(header.split(","), row.split(",")))
        lists = {"joint": payload["joint"], "tau": payload["tau"],
                 "source.probs": payload["source"]["probs"],
                 "xi_law.probs": payload["xi_law"]["probs"]}
        for key, value in lists.items():
            # comma-free, so the row still splits into its cells
            assert cells[key] == json.dumps(value, sort_keys=True, separators=(";", ":"))

    def test_split_rejects_bad_level(self, capsys, bern_file):
        code, out = run_cli(capsys, ["split", bern_file, "--vartheta", "0.9"])
        assert code == 1
        assert json.loads(out)["error"]["kind"] == "hypothesis-rejected"

    def test_gamkrelidze_command(self, capsys, bern_file):
        code, out = run_cli(capsys, ["gamkrelidze", bern_file, "--n", "32"])
        assert code == 0
        payload = json.loads(out)
        assert payload["pointwise_check"]["pointwise_ok"] is True
        assert payload["extraction_bound"]["value"] >= payload["M"]

    def test_gamkrelidze_centres_on_the_llt_bound_moments(self, capsys, tmp_path):
        # E S_n and Var S_n of the prepared sum; the moments re-summed from
        # the computed masses of this law miss them in the last digits
        path = tmp_path / "skew.json"
        path.write_text(json.dumps({"v0": 0, "D": 1, "probs": [[0, 5], [1, 3], [3, 2]]}))
        _, out = run_cli(capsys, ["gamkrelidze", str(path), "--n", "200"])
        report = json.loads(out)
        _, out = run_cli(capsys, ["llt-bound", str(path), "--n", "200", "--kappa", "180"])
        params = json.loads(out)["params"]
        assert (report["a_n"], report["b_n"]) == (params["e_s_n"], params["var_s_n"])

    def test_gamkrelidze_theta_zero_exits_1(self, capsys, tmp_path):
        # {0, 2} on L(0, 0.5) is not integer-valued, but the sum is prepared
        # first, and theta = 0 leaves no extraction level: a hypothesis fails
        path = tmp_path / "gap.json"
        path.write_text(json.dumps({"v0": 0, "D": 0.5, "probs": [[0, 1], [2, 1]]}))
        code, out = run_cli(capsys, ["gamkrelidze", str(path), "--n", "10"])
        assert code == 1
        err = json.loads(out)["error"]
        assert err["kind"] == "hypothesis-rejected" and "extraction level" in err["message"]

    @pytest.mark.parametrize("flag", ["--a=nan", "--a=inf", "--a=-inf", "--b=inf"])
    def test_gamkrelidze_non_finite_centering_or_scale_exits_2(self, capsys, bern_file, flag):
        code, out = run_cli(capsys, ["gamkrelidze", bern_file, "--n", "64", flag])
        assert code == 2
        err = json.loads(out)["error"]
        assert err["kind"] == "input-error"
        assert "finite" in err["message"]

    @pytest.mark.parametrize("flag", ["--a=1e300", "--a=1e20", "--a=1e9", "--b=1e300"])
    def test_gamkrelidze_window_above_cap_exits_2(self, capsys, bern_file, flag):
        code, out = run_cli(capsys, ["gamkrelidze", bern_file, "--n", "64", flag])
        assert code == 2
        err = json.loads(out)["error"]
        assert err["kind"] == "input-error"
        assert "points" in err["message"] and str(WINDOW_CAP) in err["message"]

    @pytest.mark.filterwarnings("error")
    def test_gamkrelidze_subnormal_scale_runs_without_warnings(self, capsys, bern_file):
        # exp(-(k - a)^2 / (2 b)) overflows its exponent to -inf; the value 0 is right
        code, out = run_cli(capsys, ["gamkrelidze", bern_file, "--n", "64", "--b", "1e-320"])
        assert code == 0
        assert json.loads(out)["b_n"] == 1e-320

    def test_gamkrelidze_far_centering_within_cap_runs(self, capsys, bern_file):
        # a_n = 3e4 with b_n = Var S_64 = 16: the window runs from the support's
        # first point (P{S_64 = 0} = 2^-64 is below the error bound and dropped,
        # so the first atom of the computed law) to ceil(3e4 + 9.5 * 4) = 30038
        code, out = run_cli(capsys, ["gamkrelidze", bern_file, "--n", "64", "--a", "3e4"])
        assert code == 0
        table = json.loads(out)["d_table"]
        first = int(iid_sum(make_pmf(0.0, 1.0, [(0, 1), (1, 1)]), 64).atoms()[0][0])
        assert (table[0][0], table[-1][0], len(table)) == (first, 30038, 30039 - first)

    def test_scenery_moments_command(self, capsys, scenery_file):
        code, out = run_cli(capsys, ["scenery", scenery_file])
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["identity_residual"]) < 1e-10

    def test_scenery_envelope_command(self, capsys, scenery_file):
        code, out = run_cli(capsys, ["scenery", scenery_file, "--kappa", "2", "--h", "0.25"])
        assert code == 0
        payload = json.loads(out)
        assert payload["lower"] <= payload["upper"]

    def test_scenery_reports_exact_value(self, capsys, scenery_file):
        # fair-coin scenery, n = 4 strictly positive steps: S_4 ~ Binomial(4, 1/2)
        for k in range(5):
            code, out = run_cli(
                capsys, ["scenery", scenery_file, "--kappa", str(k), "--h", "0.25",
                         "--mc", "2000", "--seed", "3"]
            )
            assert code == 0
            payload = json.loads(out)
            assert payload["exact"] == pytest.approx(math.comb(4, k) / 2**4, rel=1e-15)
            assert payload["sandwich_ok"] is (payload["lower"] <= payload["exact"]
                                              <= payload["upper"])
            assert payload["envelope_width"] == payload["upper"] - payload["lower"]
            assert "monte_carlo" in payload

    def test_scenery_refused_before_exact_law(self, capsys, tmp_path, monkeypatch):
        # a non-constant vartheta profile fails the envelope's hypotheses
        import lltkit.bounds

        def no_law(*args):
            raise AssertionError("exact law built for a refused model")

        monkeypatch.setattr(lltkit.bounds, "sum_law", no_law)
        path = tmp_path / "refused.json"
        path.write_text(json.dumps({"x_law": {"v0": 0, "D": 1, "probs": [[0, 1], [1, 1]]},
                                    "increments": {"v0": 0, "D": 1, "probs": [[1, 1], [2, 1]]},
                                    "n": 3, "vartheta": [[1, 0.5], [2, 0.4], [3, 0.3]]}))
        code, out = run_cli(capsys, ["scenery", str(path), "--kappa", "1", "--h", "0.25"])
        assert code == 1
        assert json.loads(out)["error"]["kind"] == "hypothesis-rejected"

    @pytest.mark.parametrize("mc, seed", [("0", "1"), ("-5", "1"), ("100", "-1")])
    def test_scenery_mc_bad_count_or_seed_exits_2(self, capsys, scenery_file, mc, seed):
        code, out = run_cli(
            capsys, ["scenery", scenery_file, "--kappa", "2", "--mc", mc, "--seed", seed]
        )
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "input-error"

    def test_scenery_mc_without_kappa_exits_2(self, capsys, scenery_file):
        code, out = run_cli(capsys, ["scenery", scenery_file, "--mc", "100"])
        assert code == 2
        err = json.loads(out)["error"]
        assert err["kind"] == "input-error" and "--kappa" in err["message"]

    def test_scenery_lazy_walk_model(self, capsys, tmp_path):
        # a walk that stays put: the moment check carries c_{h,k}, the
        # envelope refuses the walk as a failed hypothesis
        path = tmp_path / "lazy.json"
        path.write_text(json.dumps({"x_law": {"v0": 0, "D": 1, "probs": [[0, 1], [1, 1]]},
                                    "increments": {"v0": 0, "D": 1, "probs": [[0, 1], [1, 1]]},
                                    "n": 4, "vartheta": 0.5}))
        code, out = run_cli(capsys, ["scenery", str(path)])
        assert code == 0
        payload = json.loads(out)
        assert payload["c_sum"] > 0 and abs(payload["identity_residual"]) <= 1e-12
        code, out = run_cli(capsys, ["scenery", str(path), "--kappa", "2"])
        assert code == 1
        assert json.loads(out)["error"]["kind"] == "hypothesis-rejected"

    def test_scenery_mc_seed_zero_is_used(self, capsys, scenery_file):
        from lltkit import monte_carlo_point_prob, scenery_from_json

        code, out = run_cli(
            capsys, ["scenery", scenery_file, "--kappa", "2", "--mc", "5000", "--seed", "0"]
        )
        assert code == 0
        mc = json.loads(out)["monte_carlo"]
        assert mc["seed"] == 0
        with open(scenery_file, encoding="utf-8") as fobj:
            model = scenery_from_json(json.load(fobj))
        assert mc["p_hat"] == monte_carlo_point_prob(model, 2.0, samples=5000, seed=0).p_hat

    def test_scenery_profile_map_round_trip(self, capsys, tmp_path):
        path = tmp_path / "model_profile.json"
        path.write_text(
            json.dumps(
                {
                    "x_law": {"v0": 0, "D": 1, "probs": [[0, 1], [1, 1]]},
                    "increments": {"v0": 0, "D": 1, "probs": [[1, 1], [2, 1]]},
                    "n": 3,
                    "vartheta": [[r, 0.5 / (1 + 0.2 * r)] for r in range(1, 7)],
                }
            )
        )
        code, out = run_cli(capsys, ["scenery", str(path)])
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["identity_residual"]) < 1e-10

    def test_partition_command(self, capsys):
        code, out = run_cli(capsys, ["partition", "--m", "3", "--n", "10"])
        assert code == 0
        payload = json.loads(out)
        assert payload["q_model"] == payload["q_enum"] == 3

    def test_partition_at_m_equal_n_is_strict_json(self, capsys):
        # the centring equation degenerates at m = n: sigma prints as null
        # (an empty CSV cell), and a reader that refuses NaN and Infinity
        # parses the output
        def refuse(token):
            raise ValueError(f"non-standard JSON constant {token}")

        code, out = run_cli(capsys, ["partition", "--m", "5", "--n", "5"])
        payload = json.loads(out, parse_constant=refuse)
        assert code == 0 and payload == {"m": 5, "n": 5, "q_enum": 1, "q_model": 1,
                                         "sigma": None}
        code, out = run_cli(capsys, ["partition", "--m", "5", "--n", "5", "--format", "csv"])
        assert code == 0 and out.splitlines() == ["m,n,q_enum,q_model,sigma", "5,5,1,1,"]

    def test_validate_command(self, capsys, bern_file):
        code, out = run_cli(capsys, ["validate", bern_file])
        assert code == 0
        payload = json.loads(out)
        assert payload["all_pass"] is True
        names = {c["name"] for c in payload["checks"]}
        assert "reconstruction_pointwise" in names

    def test_validate_passes_random_laws(self, capsys, tmp_path):
        # 2-6 atoms on spans 1e-3..1e7, and on span 1 at |v0| 1e9..1e13: the
        # variance identities hold up to the roundings of O(D^2) and O(|v0| D)
        # quantities, above any fixed absolute tolerance
        rng = np.random.default_rng(3)
        path = tmp_path / "law.json"
        for i in range(300):
            m = int(rng.integers(2, 7))
            ks = np.sort(rng.choice(np.arange(-4, 9), m, replace=False)).tolist()
            w = (rng.random(m) + 0.05).tolist()
            if i < 200:
                v0, d = float(rng.uniform(-10, 10)), float(10 ** rng.uniform(-3, 7))
            else:
                v0, d = float(rng.choice([-1, 1]) * 10 ** rng.uniform(9, 13)), 1.0
            path.write_text(json.dumps({"v0": v0, "D": d, "probs": list(zip(ks, w))}))
            code, out = run_cli(capsys, ["validate", str(path)])
            assert code == 0 and json.loads(out)["all_pass"] is True, (v0, d, ks, w, out)

    @pytest.mark.parametrize("v0, d, stretch", [(3.0, 1.0, 5e-7), (3.0, 1e3, 5e-7),
                                                 (1e12, 1.0, 0.1), (1e12, 1.0, 1e-9)])
    def test_validate_fails_a_broken_identity(self, capsys, tmp_path, monkeypatch,
                                              v0, d, stretch):
        # an xi law whose span is stretched fails the xi identity and nothing
        # else: by 5e-7 its variance is off by 1e-6 relative, and at |v0| =
        # 1e12, where the tolerance does not grow with |v0|, by 0.1 and by 1e-9
        xi_law = lltkit.cli.xi_law

        def stretched(sp):
            law = xi_law(sp)
            return make_pmf(law.v0, law.D * (1.0 + stretch), law.probs.items())

        monkeypatch.setattr(lltkit.cli, "xi_law", stretched)
        path = tmp_path / "law.json"
        path.write_text(json.dumps({"v0": v0, "D": d, "probs": [[0, 1], [1, 2], [2, 1]]}))
        code, out = run_cli(capsys, ["validate", str(path)])
        failed = [c["name"] for c in json.loads(out)["checks"] if not c["pass"]]
        assert code == 0 and failed == ["xi_variance_identity"]

    @pytest.mark.parametrize("command", [["validate"], ["split"],
                                         ["llt-bound", "--n", "4", "--kappa", "4",
                                          "--mode", "exact-plug-ins"]])
    def test_half_lattice_collapse_names_the_xi_law(self, capsys, tmp_path, command):
        # the input's points are distinct, the xi law's on L(v0, D/2) are not
        path = tmp_path / "law.json"
        path.write_text(json.dumps({"v0": 11248766609.43312, "D": 2.104877610497365e-06,
                                    "probs": [[17, 1], [18, 2], [19, 1]]}))
        assert run_cli(capsys, ["characteristics", str(path)])[0] == 0
        code, out = run_cli(capsys, [command[0], str(path), *command[1:]])
        error = json.loads(out)["error"]
        assert code == 2 and error["kind"] == "input-error"
        assert error["message"].startswith(
            "conditional xi law on L(1.12488e+10, 1.05244e-06): support points collapse")


class TestErrorsAndOverrides:
    def test_malformed_json_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code, out = run_cli(capsys, ["characteristics", str(bad)])
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "input-error"

    @pytest.mark.parametrize("text", [b'{"v0": 0, "D": 1, "probs": [[0, ' + b"1" * 5000 + b"]]}",
                                      b'\xff{"v0": 0}'], ids=["5000-digit-int", "not-utf-8"])
    def test_unreadable_json_exits_2(self, capsys, tmp_path, text):
        bad = tmp_path / "bad.json"
        bad.write_bytes(text)
        code, out = run_cli(capsys, ["characteristics", str(bad)])
        assert code == 2
        err = json.loads(out)["error"]
        assert err["kind"] == "input-error" and err["message"].startswith("malformed JSON")

    def test_numerical_failure_exits_2(self, capsys, bern_file, monkeypatch):
        def drift(args):
            raise NumericsError("masses drifted")

        monkeypatch.setitem(lltkit.cli._COMMANDS, "characteristics", drift)
        code, out = run_cli(capsys, ["characteristics", bern_file])
        assert code == 2
        assert json.loads(out) == {"error": {"kind": "numerical-failure",
                                             "message": "masses drifted"}}

    def test_missing_file_exits_2(self, capsys):
        code, out = run_cli(capsys, ["characteristics", "/nonexistent/x.json"])
        assert code == 2

    def test_constants_env_override(self, capsys, bern_file, tmp_path, monkeypatch):
        consts = tmp_path / "consts.json"
        consts.write_text(json.dumps({"c0": 0.25, "ce": 1.0}))
        monkeypatch.setenv("LLT_CONSTANTS", str(consts))
        code, out = run_cli(
            capsys, ["llt-bound", bern_file, "--n", "32", "--kappa", "16", "--h", "0.25"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["constants"]["c0"] == 0.25
        assert payload["constants"]["ce"] == 1.0

    @pytest.mark.parametrize("command", ["llt-bound", "gamkrelidze"])
    @pytest.mark.parametrize("h", ["1.5", "0", "-0.25"])
    def test_h_out_of_range_exits_1(self, capsys, bern_file, command, h):
        argv = [command, bern_file, "--n", "64", "--h", h]
        if command == "llt-bound":
            argv += ["--kappa", "32"]
        code, out = run_cli(capsys, argv)
        assert code == 1
        err = json.loads(out)["error"]
        assert err["kind"] == "hypothesis-rejected"
        assert "0 < h < 1" in err["message"]

    @pytest.mark.parametrize("command", ["llt-bound", "gamkrelidze"])
    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_no_summands_exits_2(self, capsys, bern_file, command, n):
        argv = [command, bern_file, "--n", n]
        if command == "llt-bound":
            argv += ["--kappa", "0"]
        code, out = run_cli(capsys, argv)
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "input-error"

    @pytest.mark.parametrize("command", ["llt-bound", "gamkrelidze"])
    def test_no_summands_names_the_n_option(self, capsys, bern_file, command):
        argv = [command, bern_file, "--n", "0"]
        if command == "llt-bound":
            argv += ["--kappa", "0"]
        code, out = run_cli(capsys, argv)
        assert code == 2
        assert json.loads(out)["error"] == {"kind": "input-error",
                                            "message": f"{command} requires --n >= 1, got 0"}

    def test_scenery_envelope_of_no_steps_names_the_model_n(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"x_law": {"v0": 0, "D": 1, "probs": [[0, 1], [1, 1]]},
                                    "increments": {"v0": 0, "D": 1, "probs": [[1, 1]]},
                                    "n": 0, "vartheta": 0.5}))
        assert run_cli(capsys, ["scenery", str(path)])[0] == 0  # the moment check runs
        code, out = run_cli(capsys, ["scenery", str(path), "--kappa", "0"])
        assert code == 2
        err = json.loads(out)["error"]
        assert err["kind"] == "input-error" and "n = 0" in err["message"]
        assert "part 0" not in err["message"]

    def test_bad_override_error_follows_the_format(self, capsys, tmp_path):
        consts = tmp_path / "consts.json"
        consts.write_text(json.dumps({"ce": -1}))
        code, out = run_cli(capsys, ["--constants", str(consts), "partition", "--m", "2",
                                     "--n", "10", "--format", "csv"])
        assert code == 2
        header, *rows = csv.reader(io.StringIO(out))
        assert header == ["error.kind", "error.message"] and len(rows) == 1
        assert rows[0][0] == "input-error" and "constants override 'ce'" in rows[0][1]

    @pytest.mark.parametrize(
        "override",
        [
            {"c0": "abc"},
            {"ce": -1},
            {"c1": 5},
            {"c0": True},
            {"ce": float("nan")},
            {"c0": 10**400},
            {"provenance": 3},
        ],
        ids=["c0-string", "ce-negative", "c1-derived", "c0-bool", "ce-nan", "c0-overflow",
             "provenance-number"],
    )
    def test_bad_constants_override_exits_2(self, capsys, bern_file, tmp_path, override):
        consts = tmp_path / "consts.json"
        consts.write_text(json.dumps(override))
        code, out = run_cli(
            capsys,
            ["--constants", str(consts), "llt-bound", bern_file, "--n", "32", "--kappa", "16",
             "--h", "0.25"],
        )
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "input-error"

    @pytest.mark.parametrize("override, c2", [({"c0": 1e308}, "inf"), ({"ce": 1e308}, "60.0")],
                             ids=["c0", "ce"])
    def test_override_with_infinite_derived_constant_exits_2(self, capsys, bern_file, tmp_path,
                                                             override, c2):
        # finite c0 and ce can still overflow c2 = 12 (c1 + 1) or c3 = 2^1.5 ce
        consts = tmp_path / "consts.json"
        consts.write_text(json.dumps(override))
        code, out = run_cli(capsys, ["--constants", str(consts), "llt-bound", bern_file,
                                     "--n", "32", "--kappa", "16"])
        assert code == 2
        assert json.loads(out)["error"] == {
            "kind": "input-error",
            "message": "constants override rejected: the derived constants must be finite, "
                       f"got c2 = {c2}, c3 = inf"}

    @pytest.mark.parametrize("values", [
        {"c0": 1e308}, {"ce": float("nan")}, {"c0": -1.0}, {"ce": True}, {"c0": "0.2"},
        {"provenance": None}, {"c2": 1.0},
    ], ids=["c0-overflows-c2", "ce-nan", "c0-negative", "ce-bool", "c0-string",
            "provenance-null", "c2-derived"])
    def test_file_refused_as_the_python_api_refuses_it(self, capsys, bern_file, tmp_path,
                                                       values):
        consts = tmp_path / "consts.json"
        consts.write_text(json.dumps(values))
        with pytest.raises(LatticeError) as err:
            bounds.constants_from_json(values)
        code, out = run_cli(capsys, ["--constants", str(consts), "llt-bound", bern_file,
                                     "--n", "32", "--kappa", "16"])
        assert (code, json.loads(out)) == (2, {"error": {"kind": "input-error",
                                                         "message": str(err.value)}})

    def test_bad_override_rejected_for_every_subcommand(self, capsys, tmp_path, monkeypatch):
        consts = tmp_path / "consts.json"
        consts.write_text(json.dumps({"ce": -1}))
        monkeypatch.setenv("LLT_CONSTANTS", str(consts))
        code, out = run_cli(capsys, ["partition", "--m", "3", "--n", "10"])
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "input-error"

    def test_override_values_are_floats_with_provenance(self, capsys, bern_file, tmp_path):
        consts = tmp_path / "consts.json"
        consts.write_text(json.dumps({"c0": 1, "provenance": "pinned by hand"}))
        code, out = run_cli(
            capsys,
            ["--constants", str(consts), "llt-bound", bern_file, "--n", "32", "--kappa", "16",
             "--h", "0.25"],
        )
        assert code == 0
        constants = json.loads(out)["constants"]
        assert constants["c0"] == 1.0 and isinstance(constants["c0"], float)
        assert constants["provenance"] == "pinned by hand"


class TestSandwichVerdict:
    """The verdict rule, ``bounds._verdict``, on the envelope [0.25, 0.75]
    with an exact value that errs by at most 1e-12, and the report that
    holds a row's verdict."""

    @staticmethod
    def _verdict(exact):
        return bounds._verdict(exact, 0.25, 0.75, 1e-12)

    def test_holds_by_more_than_the_error(self):
        assert self._verdict(0.75 - 2e-12) is True

    def test_fails_by_more_than_the_error(self):
        assert self._verdict(0.25 - 2e-12) is False

    def test_undecided_within_the_error(self):
        for exact in (0.75 - 0.5e-12, 0.75 + 0.5e-12, 0.25, 0.25 - 0.5e-12):
            assert self._verdict(exact) is None

    def test_no_exact_value_no_verdict(self):
        report = BoundReport(kappa=0.0, exact=None, gaussian=0.5, lower=0.25, upper=0.75,
                             envelope_width=0.5, params={"h": 0.25}, sandwich_ok=None)
        assert "sandwich_ok" not in report.row()
        # a body without exact values leaves the verdict undecided
        spec = bounds.prepare_sum([(make_pmf(0.0, 1.0, [(0, 1), (1, 1)]), 0.5, 64)])
        plug = bounds.bounded_plug_ins(spec, 0.25)
        assert bounds.sandwich_envelope(spec, 32.0, plug).sandwich_ok is None

    def test_row_and_json_keys(self):
        report = BoundReport(kappa=0.0, exact=0.5, gaussian=0.5, lower=0.25, upper=0.75,
                             envelope_width=0.5, params={"h": 0.25}, sandwich_ok=True,
                             exact_err=1e-12)
        assert report.row() == {"kappa": 0.0, "exact": 0.5, "gaussian": 0.5, "lower": 0.25,
                                "upper": 0.75, "envelope_width": 0.5, "sandwich_ok": True}
        out = report.to_json_dict(ConstantsRegistry())
        assert set(out) == set(report.row()) | {"lower_negative", "params", "constants"}
        assert out["lower_negative"] is False and out["params"] == {"h": 0.25}
        assert out["constants"] == dataclasses.asdict(ConstantsRegistry())

    def test_exact_mode_passes_the_law_error(self, capsys, bern_file, monkeypatch):
        import lltkit.bounds as bounds

        seen = []
        original = bounds.sandwich_envelope

        def spy(*args, **kwargs):
            report = original(*args, **kwargs)
            seen.append(report.exact_err)
            return report

        monkeypatch.setattr(bounds, "sandwich_envelope", spy)
        run_cli(capsys, ["llt-bound", bern_file, "--n", "64", "--kappa", "32"])
        assert seen == [iid_sum(make_pmf(0.0, 1.0, [(0, 1), (1, 1)]), 64).err_abs]


class TestInputRules:
    @pytest.mark.parametrize("command, obj", [
        ("characteristics", {"v0": 0, "D": 1, "probs": [[0.5, 1], [1.5, 1]]}),
        ("scenery", {"x_law": {"v0": 0, "D": 1, "probs": [[0, 1], [1, 1]]},
                     "increments": {"v0": 0, "D": 1, "probs": [[1, 1]]},
                     "n": 3.7, "vartheta": 0.5}),
        ("scenery", {"x_law": {"v0": 0, "D": 1, "probs": [[0, 1], [1, 1]]},
                     "increments": {"v0": 0, "D": 1, "probs": [[1, 1]]},
                     "n": 2, "vartheta": [[1, 0.5], [1.9, 0.5]]}),
    ], ids=["pmf-index", "scenery-n", "profile-site"])
    def test_non_integral_number_exits_2(self, capsys, tmp_path, command, obj):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(obj))
        code, out = run_cli(capsys, [command, str(path)])
        assert code == 2
        err = json.loads(out)["error"]
        assert err["kind"] == "input-error" and "must be an integer" in err["message"]

    _X = {"v0": 0, "D": 1, "probs": [[0, 1], [1, 1]]}
    _INC = {"v0": 0, "D": 1, "probs": [[1, 1], [2, 1]]}

    @pytest.mark.parametrize("command, obj", [
        ("characteristics", {"v0": "0", "D": 1, "probs": [[0, 1], [1, 1]]}),
        ("characteristics", {"v0": 0, "D": True, "probs": [[0, 1], [1, 1]]}),
        ("characteristics", {"v0": 0, "D": 1, "probs": [[0, "0.5"], [1, 0.5]]}),
        ("validate", {"v0": 0, "D": 1, "probs": [[0, 0.5], [1, True]]}),
        ("scenery", {"x_law": _X, "increments": _INC, "n": 4, "vartheta": True}),
        ("scenery", {"x_law": _X, "increments": _INC, "n": 4, "vartheta": "0.5"}),
        ("scenery", {"x_law": _X, "increments": _INC, "n": 4, "vartheta": [[1, "0.5"]]}),
        ("scenery", {"x_law": {**_X, "probs": [[0, 1], [1, False]]}, "increments": _INC,
                     "n": 4, "vartheta": 0.5}),
    ], ids=["v0-string", "D-true", "weight-string", "weight-true", "vartheta-true",
            "vartheta-string", "profile-level-string", "x-law-weight-false"])
    def test_non_number_exits_2(self, capsys, tmp_path, command, obj):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(obj))
        code, out = run_cli(capsys, [command, str(path)])
        assert code == 2
        err = json.loads(out)["error"]
        assert err["kind"] == "input-error" and "must be a number" in err["message"]

    @pytest.mark.parametrize("argv", [
        ["llt-bound", "{coin}", "--n", "1000000000", "--kappa", "5"],
        ["partition", "--m", "1", "--n", "5000", "--mode", "model"],
        ["partition", "--m", "1", "--n", "60000", "--mode", "model"],
        ["partition", "--m", "1", "--n", "100000", "--mode", "model"],
    ], ids=["llt-bound", "partition", "partition-6e4", "partition-1e5"])
    def test_exact_law_above_the_length_cap_exits_2(self, capsys, bern_file, argv):
        code, out = run_cli(capsys, [a.format(coin=bern_file) for a in argv])
        assert code == 2
        err = json.loads(out)["error"]
        assert err["kind"] == "input-error" and "above the cap" in err["message"]

    _BIG = int("1" * 401)

    @pytest.mark.parametrize("obj", [
        {"v0": _BIG, "D": 1, "probs": [[0, 1], [1, 1]]},
        {"v0": 0, "D": 1, "probs": [[0, 1], [_BIG, 1]]},
        {"v0": 0, "D": 1, "probs": [[0, 1], [1, _BIG]]},
    ], ids=["v0", "support-index", "weight"])
    def test_out_of_range_integer_exits_2(self, capsys, tmp_path, obj):
        # a double cannot hold v0 or the weight; an index above 2^53 would
        # be rounded in every v0 + D*k
        path = tmp_path / "input.json"
        path.write_text(json.dumps(obj))
        code, out = run_cli(capsys, ["characteristics", str(path)])
        assert code == 2
        err = json.loads(out)["error"]
        assert err["kind"] == "input-error" and str(self._BIG) in err["message"]

    @pytest.mark.parametrize("mode", ["model", "enum", "both"])
    def test_partition_n_above_2_to_53_exits_2(self, capsys, mode):
        code, out = run_cli(capsys, ["partition", "--m", "1", "--n", str(10**20), "--mode", mode])
        assert code == 2
        err = json.loads(out)["error"]
        assert err == {"kind": "input-error", "message": f"n {10**20} is above 2^53 in magnitude"}

    def test_partition_count_beyond_the_spacing_rule_exits_2(self, capsys):
        code, out = run_cli(capsys, ["partition", "--m", "1", "--n", "800", "--mode", "model"])
        err = json.loads(out)["error"]
        assert (code, err["kind"]) == (2, "numerical-failure") and "spacing" in err["message"]

    @pytest.mark.parametrize("mode, code, kind, message", [
        ("model", 2, "input-error", "above the cap of 8388608"),
        ("both", 2, "input-error", "above the cap of 8388608"),
        ("enum", 1, "hypothesis-rejected", f"enumeration budget exceeded: n = {2**53} > 60"),
    ])
    def test_partition_refused_before_the_tilt(self, capsys, monkeypatch, mode, code, kind,
                                               message):
        # at n = 2^53 the tilt equation alone would need a 64 PiB array
        def no_tilt(m, n):
            raise AssertionError("the tilt was solved")

        monkeypatch.setattr(partition, "solve_sigma", no_tilt)
        got, out = run_cli(capsys, ["partition", "--m", "1", "--n", str(2**53), "--mode", mode])
        err = json.loads(out)["error"]
        assert (got, err["kind"]) == (code, kind) and err["message"].endswith(message)

    def test_exact_plug_ins_name_the_conditional_law_refused(self, capsys, tmp_path):
        # {0, 1, 2}/4 at n = 3e6: S_n has 6000001 points, under the cap, but
        # the xi law {0, 1, 3, 4} on L(0, 1/2) makes a sum of 12000001
        path = tmp_path / "dist.json"
        path.write_text(json.dumps({"v0": 0, "D": 1, "probs": [[0, 1], [1, 2], [2, 1]]}))
        code, out = run_cli(capsys, ["llt-bound", str(path), "--n", "3000000",
                                     "--kappa", "3000000", "--mode", "exact-plug-ins"])
        assert code == 2
        err = json.loads(out)["error"]
        assert err["kind"] == "input-error"
        assert err["message"] == ("conditional xi law on L(0, 0.5) for exact H_n: exact law of "
                                  "12000001 points, above the cap of 8388608")

    def test_key_error_in_a_command_propagates(self, bern_file, monkeypatch):
        # every input parser turns its own KeyError into an input error, so
        # one that reaches run is a defect, not bad input
        def defect(args):
            raise KeyError("defect")

        monkeypatch.setitem(lltkit.cli._COMMANDS, "characteristics", defect)
        with pytest.raises(KeyError, match="defect"):
            main(["characteristics", bern_file])


class TestOverflow:
    """A value beyond the range of doubles exits 2 with only a
    numerical-failure object, in a sweep too."""

    @staticmethod
    def overflow_text() -> str:
        """What an overflowing ``**`` says on this platform."""
        try:
            1e200 ** 2
        except OverflowError as exc:
            return str(exc)

    @pytest.mark.parametrize("d, argv", [
        (1e200, ["characteristics"]),  # the variance
        (1e200, ["validate"]),
        (1e140, ["llt-bound", "--n", "64", "--mode", "bounded-plug-ins", "--kappa", "0"]),  # |x|^3
        # 2^52 steps out, within the lattice rule: (kappa - E S_n)^2
        (1e140, ["llt-bound", "--n", "64", "--kappa", "4.503599627370496e+155"]),
        (1e140, ["llt-bound", "--n", "64", "--kappa-from", "4.503599627370496e+155",
                 "--kappa-to", "4.503599627370499e+155"]),
        (1e140, ["llt-bound", "--n", "1000", "--envelope", "central", "--kappa-from",
                 "4.503599627370496e+155", "--kappa-to", "4.503599627370499e+155"]),
    ])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_exits_2(self, capsys, tmp_path, d, argv, fmt):
        path = tmp_path / "law.json"
        path.write_text(json.dumps({"v0": 0, "D": d, "probs": [[0, 1], [1, 1]]}))
        code, out = run_cli(capsys, [argv[0], str(path), *argv[1:], "--format", fmt])
        error = {"kind": "numerical-failure",
                 "message": f"a value beyond the range of doubles: {self.overflow_text()}"}
        assert (code, out) == (2, render({"error": error}, fmt))

    @pytest.mark.parametrize("command", ["characteristics", "validate"])
    def test_variance_overflowing_in_its_product_exits_2(self, capsys, tmp_path, command):
        # D^2 = 1e308 is a double, D^2 times the index variance 2.5e19 is not
        path = tmp_path / "law.json"
        path.write_text(json.dumps({"v0": 0, "D": 1e154, "probs": [[0, 1], [10**10, 1]]}))
        code, out = run_cli(capsys, [command, str(path)])
        error = {"kind": "numerical-failure", "message": "a value beyond the range of doubles: "
                                                         "the variance D**2 * 2.5e+19 at D = 1e+154"}
        assert (code, json.loads(out)) == (2, {"error": error})


class TestTinySpan:
    """Bounded plug-ins on a span so small that psi(sqrt(Var S_n)), or Var
    S_n itself, underflows to 0 refuse L_n with a numerical-failure object."""

    @pytest.mark.parametrize("d", [1e-110, 1e-200])
    @pytest.mark.parametrize("envelope", ["sandwich", "central", "psi"])
    def test_l_n_refused(self, capsys, tmp_path, d, envelope):
        path = tmp_path / "law.json"
        path.write_text(json.dumps({"v0": 0, "D": d, "probs": [[0, 1], [1, 1]]}))
        code, out = run_cli(capsys, ["llt-bound", str(path), "--n", "100", "--mode",
                                     "bounded-plug-ins", "--envelope", envelope,
                                     "--kappa", repr(50 * d)])
        assert code == 2
        error = json.loads(out)["error"]
        assert error["kind"] == "numerical-failure"
        assert error["message"].startswith("L_n undefined: its denominator psi(sqrt(Var S_n))")


class TestNonFiniteValues:
    """A huge ce overflows H_n = 2^1.5 ce L_n, a huge v0 collapses the
    lattice points, a huge D k overflows a support point and a tiny theta
    underflows Theta_n^{3/2}: each is refused with an error object, exit 2."""

    def test_h_n_refused(self, capsys, tmp_path):
        law, consts = tmp_path / "law.json", tmp_path / "ce.json"
        law.write_text(json.dumps({"v0": 1, "D": 1, "probs": [[0, 1], [1, 1]]}))
        consts.write_text(json.dumps({"ce": 1e307}))
        code, out = run_cli(capsys, ["--constants", str(consts), "llt-bound", str(law), "--n", "4",
                                     "--mode", "bounded-plug-ins", "--kappa", "6", "--h", "0.25"])
        assert code == 2
        assert json.loads(out)["error"] == {
            "kind": "numerical-failure",
            "message": "H_n = 2^1.5 ce L_n = inf is not finite (ce = 1e+307, L_n = 18.0)"}

    @pytest.mark.parametrize("command", ["characteristics", "validate"])
    def test_collapsed_lattice_refused(self, capsys, tmp_path, command):
        law = tmp_path / "law.json"
        law.write_text(json.dumps({"v0": 1e102, "D": 1, "probs": [[0, 1], [1, 1]]}))
        code, out = run_cli(capsys, [command, str(law)])
        assert code == 2
        assert json.loads(out)["error"] == {
            "kind": "input-error",
            "message": "support points collapse: v0 + D*k is 1e+102 at k = 0 and k = 1 "
                       "(v0 = 1e+102, D = 1.0)"}

    @pytest.mark.parametrize("command", ["characteristics", "validate"])
    @pytest.mark.parametrize("probs", [[[1, 1.7e308], [1, 1.7e308]], [[1, 1.7e308], [2, 1.7e308]]])
    def test_weights_summing_beyond_the_doubles_refused(self, capsys, tmp_path, command, probs):
        # one index's merged weight overflowed to inf and printed NaN moments;
        # two indices overflowed in fsum, a numerical failure
        law = tmp_path / "law.json"
        law.write_text(json.dumps({"v0": 0, "D": 1, "probs": probs}))
        code, out = run_cli(capsys, [command, str(law)])
        assert code == 2
        assert json.loads(out)["error"] == {
            "kind": "input-error",
            "message": "the weights sum beyond the range of doubles; scale them down"}

    @pytest.mark.parametrize("command", ["characteristics", "validate"])
    @pytest.mark.parametrize("probs", [[[-(2**53), 0.2], [5, 1]],
                                       [[-(2**53), 0.2], [5, 1], [2**53, 0.3]]])
    def test_support_point_beyond_the_doubles_refused(self, capsys, tmp_path, command, probs):
        law = tmp_path / "law.json"
        law.write_text(json.dumps({"v0": 7, "D": 1e300, "probs": probs}))
        code, out = run_cli(capsys, [command, str(law)])
        assert code == 2
        assert json.loads(out) == {"error": {
            "kind": "input-error",
            "message": "support point v0 + D*k is -inf at k = -9007199254740992, beyond the "
                       "range of doubles (v0 = 7.0, D = 1e+300)"}}

    def test_theta_n_underflow_refused(self, capsys, tmp_path):
        # theta = 1.4e-285, so Theta_n = 4.1e-282 at n = 3000 and its 3/2 power is 0
        law = tmp_path / "law.json"
        law.write_text(json.dumps({"v0": 0.5, "D": 1,
                                   "probs": [[18, 1e-300], [19, 7.258335250867347e-16]]}))
        code, out = run_cli(capsys, ["gamkrelidze", str(law), "--n", "3000"])
        assert code == 2
        assert json.loads(out) == {"error": {
            "kind": "numerical-failure",
            "message": "Theta_n^(3/2) underflows to 0 at Theta_n = 4.1331791606642995e-282"}}


_OFF_LATTICE = {"v0": -0.1, "D": 0.3, "probs": [[0, 0.5], [1, 0.25]]}


@pytest.mark.parametrize("law, option, value, argv", [
    (_OFF_LATTICE, "--kappa-from", "-4.440892098500626e-16",
     ["llt-bound", "{law}", "--n", "39", "--kappa-to", "1.2", "--format", "csv"]),
    (_OFF_LATTICE, "--kappa", "-1e0",
     ["llt-bound", "{law}", "--n", "10", "--mode", "bounded-plug-ins"]),
    ({"v0": -1, "D": 1, "probs": [[0, 0.5], [1, 0.25]]}, "--a", "-2.5e1",
     ["gamkrelidze", "{law}", "--n", "39"]),
], ids=["kappa-from", "kappa", "a"])
def test_negative_numbers_in_exponent_form_are_values(capsys, tmp_path, law, option, value, argv):
    # "--kappa -1e0" reads as "--kappa=-1e0", not as a second option
    path = tmp_path / "law.json"
    path.write_text(json.dumps(law))
    argv = [a.replace("{law}", str(path)) for a in argv]
    spaced = run_cli(capsys, argv + [option, value])
    assert spaced == run_cli(capsys, argv + [f"{option}={value}"])
    assert spaced[0] == 0 and spaced[1]


class TestHugeSpan:
    """Bounded plug-ins on a span so large that sum_j E|X_j|^3 overflows,
    while Var S_n and its psi stay finite, refuse L_n with a
    numerical-failure object instead of printing an infinite envelope."""

    @pytest.mark.parametrize("envelope", ["sandwich", "central", "psi"])
    def test_l_n_refused(self, capsys, tmp_path, envelope):
        path = tmp_path / "law.json"
        path.write_text(json.dumps({"v0": 0, "D": 5e102, "probs": [[0, 1], [1, 1]]}))
        code, out = run_cli(capsys, ["llt-bound", str(path), "--n", "4", "--mode",
                                     "bounded-plug-ins", "--envelope", envelope,
                                     "--kappa", "1e103"])
        assert code == 2
        assert json.loads(out)["error"] == {
            "kind": "numerical-failure",
            "message": "L_n = sum_j E psi(X_j) / psi(sqrt(Var S_n)) = inf is not finite "
                       "(its denominator is 1.25e+308)"}


class _Count(int):
    """An int subclass whose own repr json does not use."""

    def __repr__(self) -> str:
        return "Count()"


def _canonical(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _written(write, payload: Any) -> Any:
    """The text ``write`` gives for ``payload``, or the type and message of
    the error it raises."""
    try:
        return write(payload)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


_EDGE_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7e308])
_TEXT = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\u2028\ud800é字😀'),
                          st.characters()))
_SCALARS = st.one_of(
    _EDGE_FLOATS, st.floats(), st.floats().map(np.float64),
    st.integers(-2**70, 2**70), st.integers(-2**70, 2**70).map(_Count),
    st.booleans(), st.none(), _TEXT,
)
_KEYS = st.one_of(_TEXT, st.integers(-2**70, 2**70), st.floats(), _EDGE_FLOATS,
                  st.booleans(), st.none(), st.integers().map(_Count))


def _rows(cells):
    """Lists of rows of one length, each a list or a tuple."""
    return st.integers(0, 4).flatmap(lambda width: st.lists(st.one_of(
        st.lists(cells, min_size=width, max_size=width),
        st.tuples(*[cells] * width)), max_size=8))


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=6), st.lists(children, max_size=6).map(tuple),
        _rows(_SCALARS), _rows(children), st.lists(st.lists(_SCALARS, max_size=4), max_size=5),
        st.dictionaries(_TEXT, children, max_size=5),
        st.dictionaries(st.one_of(st.integers(-2**70, 2**70), st.floats(), st.booleans()),
                        children, max_size=5),
        st.dictionaries(_KEYS, children, max_size=3),
    )


_PAYLOADS = st.recursive(_SCALARS, _containers, max_leaves=30)


class TestJsonWriter:
    """``render`` writes the text of ``json.dumps(sort_keys=True, indent=2)``."""

    @settings(max_examples=100, deadline=None)
    @given(_PAYLOADS)
    def test_matches_json_dumps(self, payload):
        expected = _written(_canonical, payload)
        event("refused" if isinstance(expected, tuple) else "written")
        assert _written(lambda p: render(p, "json"), payload) == expected

    @pytest.mark.parametrize("payload", [
        [], {}, [[]], [[], []], [[1, 2], [3]], [[1, [2]], [3, 4]], [(1, 2.5), [3, math.nan]],
        {"d": [[k, k / 7] for k in range(-3, 40)]}, [[np.float64(0.1), _Count(5)]],
        [[True, None], [False, "a\"b"]], {1.5: 1, 2: 2, True: 3}, {None: -0.0}, 2**64,
        "\u00e9\x00", [[math.inf, -math.inf]] * 3,
    ])
    def test_pinned_payloads(self, payload):
        assert render(payload, "json") == _canonical(payload)

    @pytest.mark.parametrize("payload", [
        np.int64(1), [1, np.int64(2)], [[1, 2], [3, {1, 2}]], {"a": object()},
        {(1,): 2}, {1: 2, "a": 3}, [[np.bool_(True)]], np.arange(3),
    ])
    def test_unserializable_value_raises_as_json_does(self, payload):
        with pytest.raises(TypeError) as raised:
            _canonical(payload)
        with pytest.raises(TypeError, match=re.escape(str(raised.value))):
            render(payload, "json")

    def test_command_outputs_are_canonical(self, capsys, bern_file, scenery_file, tmp_path):
        law = tmp_path / "law.json"
        for argv in (["gamkrelidze", bern_file, "--n", "50"],
                     ["llt-bound", bern_file, "--n", "64", "--kappa", "32", "--law-out", str(law)],
                     ["split", bern_file], ["validate", bern_file], ["scenery", scenery_file],
                     ["partition", "--m", "1", "--n", "800", "--mode", "model"]):
            _, out = run_cli(capsys, argv)
            assert out == _canonical(json.loads(out))
        assert law.read_text() == _canonical(json.loads(law.read_text()))


class TestCsvCells:
    """csv.reader reads every CSV output into rows as long as its header,
    and each cell is ``_fmt`` of the JSON output's value (flattened)."""

    @pytest.mark.parametrize("argv", [
        ["characteristics", "{law}"],
        ["split", "{law}", "--vartheta", "0.25"],
        ["llt-bound", "{law}", "--n", "100", "--kappa", "50"],  # the provenance holds commas
        ["llt-bound", "{law}", "--n", "100", "--kappa-from", "45", "--kappa-to", "55"],
        ["llt-bound", "{law}", "--n", "100", "--kappa", "100.5"],  # names L(0.0, 1.0)
        ["gamkrelidze", "{law}", "--n", "50"],
        ["scenery", "{model}"],
        ["scenery", "{model}", "--kappa", "2", "--mc", "1000"],
        ["partition", "--m", "2", "--n", "12"],
        ["validate", "{law}"],  # a list cell of objects holds quotes
    ])
    def test_cells_are_the_json_values(self, capsys, bern_file, scenery_file, argv):
        argv = [arg.format(law=bern_file, model=scenery_file) for arg in argv]
        code, out = run_cli(capsys, argv)
        csv_code, csv_out = run_cli(capsys, argv + ["--format", "csv"])
        assert csv_code == code
        payload = json.loads(out)
        flats = []
        for row in payload if isinstance(payload, list) else [payload]:
            flats.append({})
            _flatten("", row, flats[-1])
        header, *rows = csv.reader(io.StringIO(csv_out))
        assert header == list(flats[0]) and len(rows) == len(flats)
        for row, flat in zip(rows, flats):
            assert row == [_fmt(flat[key]) for key in header]

    def test_carriage_return_cell_is_quoted(self, capsys, tmp_path):
        path = str(tmp_path / "no\rsuch.json")
        code, out = run_cli(capsys, ["characteristics", path, "--format", "csv"])
        json_code, json_out = run_cli(capsys, ["characteristics", path])
        assert code == json_code == 2
        header, *rows = csv.reader(io.StringIO(out))
        assert header == ["error.kind", "error.message"]
        assert len(rows) == 1 and len(rows[0]) == len(header)
        assert rows[0][1] == json.loads(json_out)["error"]["message"]
        assert "\r" in rows[0][1]


class TestSuccessiveCalls:
    def test_call_order_does_not_change_output(self, capsys, bern_file, scenery_file, tmp_path):
        # the parser is shared by the calls of a process; no call may leave
        # state in it, an argparse rejection and an override file included
        override = tmp_path / "constants.json"
        override.write_text(json.dumps({"c0": 0.3, "provenance": "test"}))
        argvs = [
            ["llt-bound", bern_file, "--n", "16", "--kappa", "8", "--h", "0.3"],
            ["llt-bound", bern_file, "--n", "16", "--kappa-from", "6", "--kappa-to", "9",
             "--mode", "bounded-plug-ins", "--envelope", "central", "--format", "csv"],
            ["llt-bound", bern_file, "--n", "16", "--kappa", "8"],
            ["scenery", scenery_file, "--kappa", "2", "--mc", "100"],
            ["llt-bound", bern_file, "--n", "16", "--kappa", "8", "--envelope", "nope"],
            ["--constants", str(override), "llt-bound", bern_file, "--n", "16", "--kappa", "8"],
            ["llt-bound", bern_file, "--n", "16", "--kappa-from", "6", "--kappa-to", "10",
             "--h", "0.25"],
            ["scenery", scenery_file],
            ["partition", "--m", "2", "--n", "12", "--mode", "enum"],
            ["partition", "--m", "2", "--n", "12"],
            ["split", bern_file],
        ]

        def call(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = ("exit", exc.code)
            out = capsys.readouterr()
            return code, out.out, out.err

        forward = [call(argv) for argv in argvs]
        backward = [call(argv) for argv in reversed(argvs)]
        assert forward == backward[::-1]
        assert forward[4][0] == ("exit", 2) and "nope" in forward[4][2]
        assert json.loads(forward[5][1])["constants"]["c0"] == 0.3
        assert json.loads(forward[2][1])["constants"]["c0"] != 0.3
        assert len(json.loads(forward[6][1])) == 5


def _outcome(call) -> tuple[int, Any]:
    """(exit code, value or error object) of ``call()``, with the refusals
    mapped as :func:`lltkit.cli.run` maps them."""
    try:
        return 0, call()
    except PreconditionError as exc:
        return 1, {"error": {"kind": "hypothesis-rejected", "message": str(exc)}}
    except NumericsError as exc:
        return 2, {"error": {"kind": "numerical-failure", "message": str(exc)}}
    except LatticeError as exc:
        return 2, {"error": {"kind": "input-error", "message": str(exc)}}


def _single_point_sweep(law: dict, n: int, envelope: str, mode: str, h: float | None,
                        ks: range) -> tuple[int, Any]:
    """(exit code, rows or error object) of a sweep over the lattice indices
    ``ks``, from the single-point envelopes in lattice order, as ``llt-bound``
    sets them up."""
    def rows():
        pmf = pmf_from_json(law)
        spec = bounds.prepare_sum([(pmf, theta(pmf), n)])
        constants = bounds.DEFAULT_CONSTANTS
        exact = mode == "exact-plug-ins"
        if envelope == "psi" or not exact:
            plug = bounds.bounded_plug_ins(spec, h, constants=constants)
        else:
            plug = bounds.exact_plug_ins(spec, h)
        fn = getattr(bounds, f"{envelope}_envelope")
        return [fn(spec, spec.v0 + spec.d * k, plug, constants, exact).row() for k in ks]

    return _outcome(rows)


class TestSweepRows:
    """A sweep prints what rendering the ``row()`` dicts of its single-point
    envelopes prints, however its points fall into blocks."""

    LAW = {"v0": 0.25, "D": 0.5, "probs": [[0, 1], [1, 3], [2, 2]]}
    N = 2000

    @pytest.fixture
    def law_file(self, tmp_path):
        path = tmp_path / "law.json"
        path.write_text(json.dumps(self.LAW))
        return str(path)

    def expected(self, envelope, mode, ks, fmt):
        """(exit code, stdout) of the sweep over the lattice indices ``ks``,
        from the single-point envelopes in order."""
        h = 0.25 if envelope == "sandwich" else None
        code, payload = _single_point_sweep(self.LAW, self.N, envelope, mode, h, ks)
        return code, render(payload, fmt)

    def sweep(self, capsys, law_file, envelope, mode, ks, fmt):
        argv = ["llt-bound", law_file, "--n", str(self.N), "--mode", mode,
                "--envelope", envelope, "--format", fmt,
                "--kappa-from", repr(0.25 * self.N + 0.5 * ks[0]),
                "--kappa-to", repr(0.25 * self.N + 0.5 * ks[-1])]
        if envelope == "sandwich":
            argv += ["--h", "0.25"]
        return run_cli(capsys, argv)

    # E S_n sits at lattice index 7 N / 6, about 2333; its sd is about 31 steps
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("mode", ["exact-plug-ins", "bounded-plug-ins"])
    @pytest.mark.parametrize("envelope", ["sandwich", "central", "psi"])
    @pytest.mark.parametrize("ks", [range(2328, 2339), range(2333, 2334), range(2330, 2341)],
                             ids=["eleven", "one", "upper-end-farther"])
    def test_matches_single_points(self, capsys, law_file, envelope, mode, fmt, ks):
        # every row is its own write, so the rows cross several writes
        code, out = self.sweep(capsys, law_file, envelope, mode, ks, fmt)
        assert (code, out) == self.expected(envelope, mode, ks, fmt)
        assert code == 0

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("ks", [range(2300, 2600), range(2000, 2340)],
                             ids=["upper-end", "lower-end"])
    def test_central_refused_at_far_end_prints_only_the_error(self, capsys, law_file,
                                                              fmt, ks):
        # the central range ends about 55 steps from the mean; a refused
        # sweep prints the error of its first refused point and no row
        code, out = self.sweep(capsys, law_file, "central", "bounded-plug-ins", ks, fmt)
        assert (code, out) == self.expected("central", "bounded-plug-ins", ks, fmt)
        assert code == 1 and "central range condition" in out

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("ks", [range(2330, 2400), range(2200, 2336)],
                             ids=["upper-end", "lower-end"])
    def test_psi_refused_at_either_end_prints_only_the_error(self, capsys, law_file, fmt, ks):
        # the psi range ends about 11 steps from the mean
        code, out = self.sweep(capsys, law_file, "psi", "bounded-plug-ins", ks, fmt)
        assert (code, out) == self.expected("psi", "bounded-plug-ins", ks, fmt)
        assert code == 1 and "central range condition" in out

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_sweep_of_several_blocks(self, capsys, law_file, fmt):
        # two whole blocks and half of one, far into both tails
        block = lltkit.cli._SWEEP_BLOCK
        ks = range(2333 - block, 2333 + block + block // 2)
        code, out = self.sweep(capsys, law_file, "sandwich", "bounded-plug-ins", ks, fmt)
        assert (code, out) == self.expected("sandwich", "bounded-plug-ins", ks, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_non_finite_cells_match_single_points(self, capsys, tmp_path, fmt):
        # a subnormal theta makes 1/((1-h) Theta_n) overflow, so the envelope
        # sides are -inf and inf and the JSON rows take the non-finite path
        law = {"v0": 0, "D": 1, "probs": [[0, 1], [1, 1e-320]]}
        path = tmp_path / "law.json"
        path.write_text(json.dumps(law))
        code, out = run_cli(capsys, ["llt-bound", str(path), "--n", "1000", "--format", fmt,
                                     "--kappa-from", "0", "--kappa-to", "1"])
        expected = _single_point_sweep(law, 1000, "sandwich", "exact-plug-ins", 0.25, range(2))
        assert (code, out) == (expected[0], render(expected[1], fmt))
        assert code == 0 and ("Infinity" if fmt == "json" else "inf") in out

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_random_laws_match_single_points(self, data):
        # 2-6 atom laws off the unit lattice, every envelope, mode and format,
        # sweeps of one point to several blocks, refused ones included
        atoms = data.draw(st.integers(2, 6))
        weights = data.draw(st.lists(st.floats(0.05, 1.0), min_size=atoms, max_size=atoms))
        v0 = data.draw(st.sampled_from([-7.25, -0.1, 0.3, 2.5, 1e3]))
        d = data.draw(st.sampled_from([0.1, 0.3, 0.5, 2.5]))
        law = {"v0": v0, "D": d, "probs": [[k, w] for k, w in enumerate(weights)]}
        n = data.draw(st.integers(20, 2000))
        envelope = data.draw(st.sampled_from(["sandwich", "central", "psi"]))
        mode = data.draw(st.sampled_from(["exact-plug-ins", "bounded-plug-ins"]))
        fmt = data.draw(st.sampled_from(["csv", "json"]))
        h = data.draw(st.floats(0.05, 0.6)) if envelope == "sandwich" else None
        # the sweep starts within 3 sd of the mean and spans up to 3 sd, in
        # lattice steps, so that either of its ends can leave the central range
        mean = sum(k * w for k, w in enumerate(weights)) / sum(weights)
        sd = (n * sum((k - mean) ** 2 * w for k, w in enumerate(weights)) / sum(weights)) ** 0.5
        start = round(n * mean + data.draw(st.floats(-3.0, 3.0)) * sd)
        ks = range(start, start + 1 + min(80, int(data.draw(st.floats(0.0, 3.0)) * sd)))
        block = data.draw(st.integers(1, 8))

        code, payload = _single_point_sweep(law, n, envelope, mode, h, ks)
        refused_at = ("" if code != 1 else " at the first point" if _single_point_sweep(
            law, n, envelope, mode, h, ks[:1])[0] == 1 else " past the first point")
        event(f"exit {code}{refused_at}, {'one block' if len(ks) <= block else 'blocks'}")
        expected = (code, render(payload, fmt))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "law.json")
            with open(path, "w", encoding="utf-8") as fobj:
                json.dump(law, fobj)
            argv = ["llt-bound", path, "--n", str(n), "--mode", mode, "--envelope", envelope,
                    "--format", fmt, "--kappa-from", repr(v0 * n + d * ks[0]),
                    "--kappa-to", repr(v0 * n + d * ks[-1])]
            if h is not None:
                argv += ["--h", repr(h)]
            out = io.StringIO()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(lltkit.cli, "_SWEEP_BLOCK", block)
                with contextlib.redirect_stdout(out):
                    code = main(argv)
        assert (code, out.getvalue()) == expected

    def test_central_exact_sweep_reads_the_law_once_per_block(self, capsys, law_file,
                                                             monkeypatch):
        # the range check over the whole sweep squares deviations only; the
        # exact masses are read once, as each block is written
        reads = []
        masses = SumLaw.masses
        monkeypatch.setattr(SumLaw, "masses",
                            lambda law, k0, count: reads.append(count) or masses(law, k0, count))
        monkeypatch.setattr(lltkit.cli, "_SWEEP_BLOCK", 4)
        code, _ = self.sweep(capsys, law_file, "central", "exact-plug-ins", range(2328, 2338), "csv")
        assert (code, reads) == (0, [4, 4, 2])

    @pytest.mark.parametrize("mode", ["exact-plug-ins", "bounded-plug-ins"])
    @pytest.mark.parametrize("envelope", ["central", "psi"])
    def test_symmetric_rows_are_the_gaussian_minus_and_plus_the_half_width(
            self, capsys, law_file, envelope, mode):
        code, out = self.sweep(capsys, law_file, envelope, mode, range(2328, 2339), "json")
        assert code == 0
        argv = ["llt-bound", law_file, "--n", str(self.N), "--mode", mode, "--envelope", envelope,
                "--kappa", repr(0.25 * self.N + 0.5 * 2333)]
        half = json.loads(run_cli(capsys, argv)[1])["params"]["half_width"]
        for row in json.loads(out):
            assert (row["lower"], row["upper"]) == (row["gaussian"] - half, row["gaussian"] + half)

    def test_pinned_point_where_numpy_squares_apart(self, capsys, tmp_path):
        # sweep-exact request 20 of the benchmark at seed 1: at kappa = 337
        # (kappa - E S_n) ** 2 is 51.89297654993819 in Python (C pow), where
        # numpy's square gives 51.89297654993818 and moves the printed
        # Gaussian term from ...072 to ...076; the sweep row must stay the
        # single-point report's
        law = {"v0": 0.0, "D": 1.0, "probs": [[0, 0.46717696905934547], [1, 0.5328230309406545]]}
        path = tmp_path / "law.json"
        path.write_text(json.dumps(law))
        argv = ["llt-bound", str(path), "--n", "646", "--mode", "exact-plug-ins"]
        code, out = run_cli(capsys, argv + ["--kappa-from", "319", "--kappa-to", "369",
                                            "--format", "csv"])
        assert code == 0
        header, *lines = out.splitlines()
        names = header.split(",")
        (line,) = [row for row in lines if row.split(",")[names.index("kappa")] == "337"]
        code, single = run_cli(capsys, argv + ["--kappa", "337"])
        report = json.loads(single)
        assert code == 0
        assert (337.0 - report["params"]["e_s_n"]) ** 2 == 51.89297654993819
        assert report["gaussian"] == 0.026772328094253072
        assert [header, line] == render({key: report[key] for key in names}, "csv").splitlines()


def test_import_leaves_integrate_and_optimize_unloaded():
    # quad is imported by the one function that calls it, the transforms are
    # numpy's, ndtr and expit are lltkit's own, and so is the partition
    # tilt's root finder
    code = ("import sys, lltkit.cli; sys.exit(any(m in sys.modules for m in "
            "('scipy.integrate', 'scipy.optimize', 'scipy.special', 'scipy.fft')))")
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


def test_commands_leave_scipy_subpackages_unloaded(tmp_path):
    # no command needs scipy.special or scipy.optimize, the exact ones (an
    # exact sweep, gamkrelidze, the scenery envelope with Monte Carlo, each
    # partition mode) included; scipy itself stays imported, since perfbench's
    # worker reads the version of sys.modules["scipy"] after its requests
    law = tmp_path / "law.json"
    law.write_text(json.dumps({"v0": 0, "D": 1, "probs": [[0, 1], [1, 2], [2, 1]]}))
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"x_law": {"v0": 0, "D": 1, "probs": [[0, 1], [1, 1]]},
                                 "increments": {"v0": 0, "D": 1, "probs": [[1, 1], [2, 1]]},
                                 "n": 16, "vartheta": 0.5}))
    argvs = [
        ["llt-bound", str(law), "--n", "4000", "--mode", "bounded-plug-ins", "--format", "csv",
         "--kappa-from", "3990", "--kappa-to", "4010"],
        ["llt-bound", str(law), "--n", "4000", "--mode", "bounded-plug-ins", "--envelope", "psi",
         "--kappa", "4000"],
        ["llt-bound", str(law), "--n", "600", "--format", "csv", "--kappa-from", "590",
         "--kappa-to", "610"],
        ["llt-bound", str(law), "--n", "64", "--kappa", "64"],
        ["characteristics", str(law)],
        ["split", str(law), "--vartheta", "0.25"],
        ["validate", str(law)],
        ["gamkrelidze", str(law), "--n", "600"],
        ["scenery", str(model)],
        ["scenery", str(model), "--kappa", "24", "--mc", "2000"],
        ["partition", "--m", "1", "--n", "40", "--mode", "both"],
        ["partition", "--m", "2", "--n", "150", "--mode", "model"],
        ["partition", "--m", "1", "--n", "30", "--mode", "enum"],
    ]
    code = ("import sys, lltkit.cli\n"
            f"for argv in {argvs!r}:\n"
            "    assert lltkit.cli.main(argv) == 0, argv\n"
            "assert 'scipy' in sys.modules\n"
            "sys.exit(any(m in sys.modules for m in ('scipy.special', 'scipy.optimize')))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
